//! In-memory span recorder for the traced pass.
//!
//! A span is `{name, start_ns, end_ns, parent, request_id}`; spans of one
//! request share `request_id`. Everything stays in a `Vec` until the pass
//! ends and is written out once. A layer's self time is its span's
//! duration minus the durations of the spans that name it as parent.
//!
//! The spans are recorded from the benchmark's own files, around calls
//! into each crate's public functions. Where the engine offers no seam
//! to time a layer from outside (the socket around the door, the door
//! around the plan cache), the same request is run once per rung and the
//! lower rung's span is linked as the child of the higher one, so the
//! same subtraction yields the rung's self time.

use crate::json::Json;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn with_capacity(n: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(n),
        }
    }

    /// Time `f` as one span and hand back its id, for children or a
    /// later [`Self::adopt`].
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request_id: u32,
        f: impl FnOnce(&mut Recorder, SpanId) -> T,
    ) -> (SpanId, T) {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request_id,
        });
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(self, id);
        let end = self.origin.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id as usize];
        s.start_ns = start;
        s.end_ns = end;
        (id, out)
    }

    /// Link an already recorded span under `parent` (the ladder: the rung
    /// below becomes the child of the rung above).
    pub fn adopt(&mut self, child: SpanId, parent: SpanId) {
        self.spans[child as usize].parent = Some(parent);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the durations of its direct
/// children, floored at zero (a child re-run can outlast its parent by
/// noise).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("request_id", Json::Num(s.request_id as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("plan", 0, 100, None),
            span("compile", 0, 30, Some(0)),
            span("rewrite", 30, 90, Some(0)),
            span("pe", 35, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 30, 35, 25]);
    }

    #[test]
    fn ladder_rungs_subtract_and_floor_at_zero() {
        // socket 44 ms over door 9 µs over exec 6 µs; a noisy child that
        // outlasts its parent floors at zero instead of wrapping.
        let spans = vec![
            span("socket", 0, 44_000_000, None),
            span("door", 50_000_000, 50_009_000, Some(0)),
            span("exec", 60_000_000, 60_006_000, Some(1)),
            span("noisy_parent", 0, 5, None),
            span("noisy_child", 10, 20, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![43_991_000, 3_000, 6_000, 0, 10]);
    }

    #[test]
    fn recorder_nests_and_adopts() {
        let mut rec = Recorder::with_capacity(4);
        let (outer, inner) = rec.span("outer", None, 7, |rec, id| {
            rec.span("inner", Some(id), 7, |_, _| ()).0
        });
        let (later, ()) = rec.span("later", None, 7, |_, _| ());
        rec.adopt(later, outer);
        let spans = rec.spans();
        assert_eq!(spans[inner as usize].parent, Some(outer));
        assert_eq!(spans[later as usize].parent, Some(outer));
        assert!(spans[outer as usize].end_ns >= spans[inner as usize].end_ns);
        assert!(spans.iter().all(|s| s.request_id == 7));
    }
}
