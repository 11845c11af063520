//! `XmlSink`: the event-based emission boundary between transform engines
//! and result representation.
//!
//! The paper's SQL tier is an iterator pipeline whose whole point is that
//! results *leave* the engine without ever existing as a tree. Engines
//! therefore emit **events** — start/end element, attribute, text — into an
//! [`XmlSink`], and the sink decides what a result *is*:
//!
//! * [`TreeSink`] materialises the events through the existing
//!   [`TreeBuilder`], one [`Document`] per result row, for every caller
//!   that needs navigable trees (view materialisation, `BoundPlan::execute`,
//!   tests). Materialised output is a choice of sink, not a second
//!   execution path.
//! * [`StreamWriter`] serializes events straight into any [`io::Write`]
//!   with **zero DOM nodes**, charging [`Guard::charge_output_bytes`] for
//!   every byte *as it is written* — so `max_output_bytes` trips mid-stream,
//!   when the budget is actually pierced, not after a whole result tree has
//!   already been paid for.
//! * [`TextSink`] accumulates only character data, which is exactly the
//!   XPath string-value of the tree the events describe — the cheap path
//!   for attribute-value evaluation.
//!
//! Escaping is applied **at the sink**: producers hand over raw text and
//! attribute values, and `StreamWriter` escapes on the way out while
//! `TreeSink` stores them raw (the serializer escapes later). This is what
//! makes the two implementations byte-equivalent: for any event sequence
//! with row boundaries ([`XmlSink::end_row`]), `StreamWriter` output ==
//! the concatenated `to_string` of `TreeSink`'s row documents —
//! property-tested in `tests/prop_sink.rs`.

// Guard-bearing hot path: a stray unwrap here is a latent panic the
// pipeline would have to contain at a tier boundary. Keep it impossible.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::fmt;
use std::io;

use crate::builder::TreeBuilder;
use crate::escape::{escape_attr, escape_text};
use crate::guard::{Guard, GuardExceeded};
use crate::model::{Document, NodeId, NodeKind};
use crate::qname::QName;

/// Why a sink refused an event.
#[derive(Debug)]
pub enum SinkError {
    /// A guard budget (typically `max_output_bytes`) was exhausted.
    Guard(GuardExceeded),
    /// The underlying writer failed (streaming sinks only).
    Io(io::Error),
    /// The event is invalid at this position (e.g. an attribute after
    /// child content, or `end_element` with nothing open).
    Misplaced(&'static str),
}

impl fmt::Display for SinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinkError::Guard(g) => g.fmt(f),
            SinkError::Io(e) => write!(f, "sink write failed: {e}"),
            SinkError::Misplaced(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for SinkError {}

impl From<GuardExceeded> for SinkError {
    fn from(g: GuardExceeded) -> SinkError {
        SinkError::Guard(g)
    }
}

impl From<io::Error> for SinkError {
    fn from(e: io::Error) -> SinkError {
        SinkError::Io(e)
    }
}

/// Receiver of XML construction events.
///
/// The contract mirrors [`TreeBuilder`]: attributes must arrive between an
/// element's `start_element` and its first content event; empty text is a
/// no-op (it does not count as content); a repeated attribute name replaces
/// the earlier value in place (last write wins). Implementations apply
/// escaping themselves — callers pass raw text.
pub trait XmlSink {
    /// Open an element.
    fn start_element(&mut self, name: QName) -> Result<(), SinkError>;
    /// Add an attribute to the element opened by the most recent
    /// `start_element`, which must not have received content yet.
    fn attribute(&mut self, name: QName, value: &str) -> Result<(), SinkError>;
    /// Append character data. Empty text is ignored.
    fn text(&mut self, content: &str) -> Result<(), SinkError>;
    /// Append a comment.
    fn comment(&mut self, content: &str) -> Result<(), SinkError>;
    /// Append a processing instruction.
    fn pi(&mut self, target: &str, data: &str) -> Result<(), SinkError>;
    /// Close the most recently opened element.
    fn end_element(&mut self) -> Result<(), SinkError>;
    /// Number of currently open elements (0 at the top level).
    fn depth(&self) -> usize;

    /// Mark the end of one result row (one view row's output). The default
    /// closes whatever the row left open, so an expression that leaves an
    /// element open never swallows the next row into it; [`TreeSink`]
    /// additionally seals the row as its own [`Document`].
    fn end_row(&mut self) -> Result<(), SinkError> {
        while self.depth() > 0 {
            self.end_element()?;
        }
        Ok(())
    }
}

/// An [`XmlSink`] that materialises events into arena [`Document`]s via
/// [`TreeBuilder`] — one document per row, sealed at each
/// [`XmlSink::end_row`] — charging text bytes against the guard as they
/// are buffered.
pub struct TreeSink {
    builder: TreeBuilder,
    rows: Vec<Document>,
    guard: Guard,
}

impl TreeSink {
    pub fn new(guard: Guard) -> TreeSink {
        TreeSink { builder: TreeBuilder::new(), rows: Vec::new(), guard }
    }

    /// An unguarded tree sink (for tests and unguarded entry points).
    pub fn unguarded() -> TreeSink {
        TreeSink::new(Guard::unlimited())
    }

    /// Every sealed row, in order, followed by the row in progress if it
    /// holds any node (its open elements closed leniently).
    pub fn into_documents(mut self) -> Vec<Document> {
        if !self.builder.is_empty() {
            self.rows.push(self.builder.finish_lenient());
        }
        self.rows
    }
}

impl XmlSink for TreeSink {
    fn start_element(&mut self, name: QName) -> Result<(), SinkError> {
        self.builder.start_element(name);
        Ok(())
    }

    fn attribute(&mut self, name: QName, value: &str) -> Result<(), SinkError> {
        // No byte charge here: attribute values are produced through a
        // `TextSink`, which already charged them.
        self.builder.try_attribute(name, value).map_err(SinkError::Misplaced)
    }

    fn text(&mut self, content: &str) -> Result<(), SinkError> {
        self.guard.charge_output_bytes(content.len() as u64)?;
        self.builder.text(content);
        Ok(())
    }

    fn comment(&mut self, content: &str) -> Result<(), SinkError> {
        self.builder.comment(content);
        Ok(())
    }

    fn pi(&mut self, target: &str, data: &str) -> Result<(), SinkError> {
        self.builder.pi(target, data);
        Ok(())
    }

    fn end_element(&mut self) -> Result<(), SinkError> {
        if self.builder.depth() == 0 {
            return Err(SinkError::Misplaced("end_element without start_element"));
        }
        self.builder.end_element();
        Ok(())
    }

    fn depth(&self) -> usize {
        self.builder.depth()
    }

    fn end_row(&mut self) -> Result<(), SinkError> {
        let row = std::mem::take(&mut self.builder);
        self.rows.push(row.finish_lenient());
        Ok(())
    }
}

/// An [`XmlSink`] that keeps only character data — the XPath string-value
/// of the tree the events describe. Markup events are accepted and
/// discarded (attribute values and comments are not part of an element's
/// string-value).
pub struct TextSink {
    buf: String,
    guard: Guard,
    depth: usize,
}

impl TextSink {
    pub fn new(guard: Guard) -> TextSink {
        TextSink { buf: String::new(), guard, depth: 0 }
    }

    /// The accumulated character data.
    pub fn into_string(self) -> String {
        self.buf
    }
}

impl XmlSink for TextSink {
    fn start_element(&mut self, _name: QName) -> Result<(), SinkError> {
        self.depth += 1;
        Ok(())
    }

    fn attribute(&mut self, _name: QName, _value: &str) -> Result<(), SinkError> {
        Ok(())
    }

    fn text(&mut self, content: &str) -> Result<(), SinkError> {
        self.guard.charge_output_bytes(content.len() as u64)?;
        self.buf.push_str(content);
        Ok(())
    }

    fn comment(&mut self, _content: &str) -> Result<(), SinkError> {
        Ok(())
    }

    fn pi(&mut self, _target: &str, _data: &str) -> Result<(), SinkError> {
        Ok(())
    }

    fn end_element(&mut self) -> Result<(), SinkError> {
        if self.depth == 0 {
            return Err(SinkError::Misplaced("end_element without start_element"));
        }
        self.depth -= 1;
        Ok(())
    }

    fn depth(&self) -> usize {
        self.depth
    }
}

/// Append `name`'s [`lexical`](QName::lexical) form to `out` without
/// building it as a `String` first.
fn push_lexical(out: &mut String, name: &QName) {
    if let Some(prefix) = &name.prefix {
        out.push_str(prefix);
        out.push(':');
    }
    out.push_str(&name.local);
}

/// An open start tag whose attributes may still arrive: serialization is
/// deferred until the first content event decides between `>` and `/>`.
struct PendingTag {
    name: QName,
    attrs: Vec<(QName, String)>,
}

/// An [`XmlSink`] that serializes events directly into an [`io::Write`]
/// with zero DOM allocation, byte-identical to
/// [`to_string`](crate::serialize::to_string) of the equivalent tree.
///
/// Every chunk is charged against [`Guard::charge_output_bytes`] *before*
/// it is written, so when `max_output_bytes` trips the bytes already on the
/// wire never exceed the limit — the stream stops mid-result instead of
/// accounting for a tree that was already fully built.
pub struct StreamWriter<W: io::Write> {
    out: W,
    guard: Guard,
    pending: Option<PendingTag>,
    /// Names of flushed-but-unclosed elements, for `</name>`.
    stack: Vec<QName>,
    /// Scratch buffer: each event is assembled here and written in one call.
    scratch: String,
    bytes_written: u64,
}

impl<W: io::Write> StreamWriter<W> {
    pub fn new(out: W, guard: Guard) -> StreamWriter<W> {
        StreamWriter {
            out,
            guard,
            pending: None,
            stack: Vec::new(),
            scratch: String::new(),
            bytes_written: 0,
        }
    }

    /// Total bytes emitted to the writer so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Close any still-open elements (the lenient finish) and return the
    /// writer. Call this before dropping the sink — a pending start tag
    /// that was never flushed would otherwise vanish.
    pub fn finish(mut self) -> Result<W, SinkError> {
        self.end_row()?;
        Ok(self.out)
    }

    /// Charge the guard for `scratch`, then write it. Charging first keeps
    /// the written byte count at or under `max_output_bytes`.
    fn emit_scratch(&mut self) -> Result<(), SinkError> {
        let n = self.scratch.len() as u64;
        self.guard.charge_output_bytes(n)?;
        self.out.write_all(self.scratch.as_bytes())?;
        self.bytes_written += n;
        self.scratch.clear();
        Ok(())
    }

    /// Serialize the pending start tag into `scratch`, terminated with
    /// `">"` (content follows) or `"/>"` (the element is empty).
    fn flush_pending(&mut self, self_close: bool) -> Result<(), SinkError> {
        let Some(tag) = self.pending.take() else {
            return Ok(());
        };
        self.scratch.push('<');
        push_lexical(&mut self.scratch, &tag.name);
        for (aname, avalue) in &tag.attrs {
            self.scratch.push(' ');
            push_lexical(&mut self.scratch, aname);
            self.scratch.push_str("=\"");
            self.scratch.push_str(&escape_attr(avalue));
            self.scratch.push('"');
        }
        if self_close {
            self.scratch.push_str("/>");
        } else {
            self.scratch.push('>');
            self.stack.push(tag.name);
        }
        self.emit_scratch()
    }
}

impl<W: io::Write> XmlSink for StreamWriter<W> {
    fn start_element(&mut self, name: QName) -> Result<(), SinkError> {
        self.flush_pending(false)?;
        self.pending = Some(PendingTag { name, attrs: Vec::new() });
        Ok(())
    }

    fn attribute(&mut self, name: QName, value: &str) -> Result<(), SinkError> {
        let Some(tag) = self.pending.as_mut() else {
            // Distinguish the two TreeBuilder rejection shapes: no element
            // at all vs. an element whose content has started.
            return Err(SinkError::Misplaced(if self.stack.is_empty() {
                "attribute outside an element"
            } else {
                "attributes must be added before child content"
            }));
        };
        // Last write wins, in first-occurrence position — matching
        // TreeBuilder's in-place replacement.
        if let Some(slot) = tag.attrs.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value.to_string();
        } else {
            tag.attrs.push((name, value.to_string()));
        }
        Ok(())
    }

    fn text(&mut self, content: &str) -> Result<(), SinkError> {
        // Empty text is not content: it must not force `<x></x>` where the
        // tree path would produce `<x/>`.
        if content.is_empty() {
            return Ok(());
        }
        self.flush_pending(false)?;
        self.scratch.push_str(&escape_text(content));
        self.emit_scratch()
    }

    fn comment(&mut self, content: &str) -> Result<(), SinkError> {
        self.flush_pending(false)?;
        self.scratch.push_str("<!--");
        self.scratch.push_str(content);
        self.scratch.push_str("-->");
        self.emit_scratch()
    }

    fn pi(&mut self, target: &str, data: &str) -> Result<(), SinkError> {
        self.flush_pending(false)?;
        self.scratch.push_str("<?");
        self.scratch.push_str(target);
        if !data.is_empty() {
            self.scratch.push(' ');
            self.scratch.push_str(data);
        }
        self.scratch.push_str("?>");
        self.emit_scratch()
    }

    fn end_element(&mut self) -> Result<(), SinkError> {
        if self.pending.is_some() {
            return self.flush_pending(true);
        }
        let name = self
            .stack
            .pop()
            .ok_or(SinkError::Misplaced("end_element without start_element"))?;
        self.scratch.push_str("</");
        push_lexical(&mut self.scratch, &name);
        self.scratch.push('>');
        self.emit_scratch()
    }

    fn depth(&self) -> usize {
        self.stack.len() + usize::from(self.pending.is_some())
    }
}

/// Replay the subtree rooted at `node` as events into `sink` — the event
/// form of [`TreeBuilder::copy_subtree`]. A `Document` node replays its
/// children (so a whole result document replays as a forest); an
/// `Attribute` node replays as a bare attribute event, which the sink
/// rejects as misplaced unless an element tag is still open — the same
/// positions [`TreeBuilder`] accepts.
///
/// Returns the number of nodes visited (elements, attributes, text,
/// comments, PIs — the `Document` wrapper is free), which is exactly the
/// tree size a spilling evaluator materialised to produce this subtree.
pub fn replay_subtree(
    doc: &Document,
    node: NodeId,
    sink: &mut dyn XmlSink,
) -> Result<u64, SinkError> {
    match doc.kind(node) {
        NodeKind::Document => {
            let mut n = 0;
            for child in doc.children(node) {
                n += replay_subtree(doc, child, sink)?;
            }
            Ok(n)
        }
        NodeKind::Element { name, attrs } => {
            sink.start_element(name.clone())?;
            let mut n = 1;
            for &attr in attrs {
                if let NodeKind::Attribute { name, value } = doc.kind(attr) {
                    sink.attribute(name.clone(), value)?;
                    n += 1;
                }
            }
            for child in doc.children(node) {
                n += replay_subtree(doc, child, sink)?;
            }
            sink.end_element()?;
            Ok(n)
        }
        NodeKind::Attribute { name, value } => {
            sink.attribute(name.clone(), value)?;
            Ok(1)
        }
        NodeKind::Text(t) => {
            sink.text(t)?;
            Ok(1)
        }
        NodeKind::Comment(t) => {
            sink.comment(t)?;
            Ok(1)
        }
        NodeKind::Pi { target, data } => {
            sink.pi(target, data)?;
            Ok(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::Limits;
    use crate::serialize::to_string;

    /// Drive the same event sequence into both sinks; assert byte identity.
    fn differential(events: impl Fn(&mut dyn XmlSink) -> Result<(), SinkError>) -> String {
        let mut tree = TreeSink::unguarded();
        events(&mut tree).unwrap();
        let via_tree: String = tree.into_documents().iter().map(to_string).collect();

        let mut sw = StreamWriter::new(Vec::new(), Guard::unlimited());
        events(&mut sw).unwrap();
        let streamed = String::from_utf8(sw.finish().unwrap()).unwrap();

        assert_eq!(streamed, via_tree);
        via_tree
    }

    #[test]
    fn element_with_attrs_and_text() {
        let s = differential(|s| {
            s.start_element(QName::local("r"))?;
            s.attribute(QName::local("a"), "x<y\"z")?;
            s.text("hi & bye")?;
            s.end_element()
        });
        assert_eq!(s, "<r a=\"x&lt;y&quot;z\">hi &amp; bye</r>");
    }

    #[test]
    fn empty_element_self_closes() {
        let s = differential(|s| {
            s.start_element(QName::local("x"))?;
            s.end_element()
        });
        assert_eq!(s, "<x/>");
    }

    #[test]
    fn empty_text_does_not_force_open_close() {
        let s = differential(|s| {
            s.start_element(QName::local("x"))?;
            s.text("")?;
            s.end_element()
        });
        assert_eq!(s, "<x/>");
    }

    #[test]
    fn duplicate_attribute_last_wins_in_place() {
        let s = differential(|s| {
            s.start_element(QName::local("r"))?;
            s.attribute(QName::local("a"), "1")?;
            s.attribute(QName::local("b"), "2")?;
            s.attribute(QName::local("a"), "3")?;
            s.end_element()
        });
        assert_eq!(s, "<r a=\"3\" b=\"2\"/>");
    }

    #[test]
    fn nested_siblings_and_mixed_content() {
        let s = differential(|s| {
            s.start_element(QName::local("r"))?;
            s.text("pre")?;
            s.start_element(QName::local("a"))?;
            s.end_element()?;
            s.text("mid")?;
            s.start_element(QName::local("b"))?;
            s.text("deep")?;
            s.end_element()?;
            s.end_element()
        });
        assert_eq!(s, "<r>pre<a/>mid<b>deep</b></r>");
    }

    #[test]
    fn comments_and_pis() {
        let s = differential(|s| {
            s.start_element(QName::local("x"))?;
            s.comment("c")?;
            s.pi("t", "d")?;
            s.pi("empty", "")?;
            s.end_element()
        });
        assert_eq!(s, "<x><!--c--><?t d?><?empty?></x>");
    }

    #[test]
    fn multiple_document_children_concatenate() {
        let s = differential(|s| {
            s.start_element(QName::local("a"))?;
            s.end_element()?;
            s.start_element(QName::local("b"))?;
            s.text("t")?;
            s.end_element()
        });
        assert_eq!(s, "<a/><b>t</b>");
    }

    #[test]
    fn carriage_return_streams_escaped() {
        let s = differential(|s| {
            s.start_element(QName::local("x"))?;
            s.attribute(QName::local("a"), "v\r")?;
            s.text("a\rb")?;
            s.end_element()
        });
        assert_eq!(s, "<x a=\"v&#13;\">a&#13;b</x>");
    }

    #[test]
    fn misplaced_attribute_matches_builder_messages() {
        let mut sw = StreamWriter::new(Vec::new(), Guard::unlimited());
        match sw.attribute(QName::local("a"), "v") {
            Err(SinkError::Misplaced(m)) => assert_eq!(m, "attribute outside an element"),
            other => panic!("expected Misplaced, got {other:?}"),
        }
        sw.start_element(QName::local("r")).unwrap();
        sw.text("content").unwrap();
        match sw.attribute(QName::local("a"), "v") {
            Err(SinkError::Misplaced(m)) => {
                assert_eq!(m, "attributes must be added before child content")
            }
            other => panic!("expected Misplaced, got {other:?}"),
        }
    }

    #[test]
    fn end_without_start_is_error() {
        let mut sw = StreamWriter::new(Vec::new(), Guard::unlimited());
        assert!(matches!(sw.end_element(), Err(SinkError::Misplaced(_))));
        let mut tree = TreeSink::unguarded();
        assert!(matches!(tree.end_element(), Err(SinkError::Misplaced(_))));
    }

    #[test]
    fn finish_closes_open_elements_leniently() {
        let mut sw = StreamWriter::new(Vec::new(), Guard::unlimited());
        sw.start_element(QName::local("a")).unwrap();
        sw.text("x").unwrap();
        sw.start_element(QName::local("b")).unwrap();
        let bytes = sw.finish().unwrap();
        assert_eq!(String::from_utf8(bytes).unwrap(), "<a>x<b/></a>");
    }

    #[test]
    fn stream_writer_charges_bytes_and_trips_mid_stream() {
        let guard = Guard::new(Limits::UNLIMITED.with_max_output_bytes(10));
        let mut sw = StreamWriter::new(Vec::new(), guard.clone());
        sw.start_element(QName::local("r")).unwrap();
        // "<r>" (3 bytes) flushes fine; a long text chunk pierces the cap.
        let err = sw.text("0123456789ABCDEF").unwrap_err();
        assert!(matches!(err, SinkError::Guard(_)));
        assert!(guard.trip().is_some());
        // The rejected chunk never reached the writer: bytes on the wire
        // stay at or under the limit.
        assert!(sw.bytes_written() <= 10);
    }

    #[test]
    fn tree_sink_charges_text_bytes() {
        let guard = Guard::new(Limits::UNLIMITED.with_max_output_bytes(4));
        let mut tree = TreeSink::new(guard.clone());
        tree.start_element(QName::local("r")).unwrap();
        tree.text("abcd").unwrap();
        assert!(matches!(tree.text("e"), Err(SinkError::Guard(_))));
        assert!(guard.trip().is_some());
    }

    #[test]
    fn text_sink_is_string_value() {
        let mut ts = TextSink::new(Guard::unlimited());
        ts.start_element(QName::local("t")).unwrap();
        ts.text("a").unwrap();
        ts.start_element(QName::local("inner")).unwrap();
        ts.attribute(QName::local("ignored"), "attr").unwrap();
        ts.text("b").unwrap();
        ts.end_element().unwrap();
        ts.comment("not text").unwrap();
        ts.text("c").unwrap();
        ts.end_element().unwrap();
        assert_eq!(ts.into_string(), "abc");
    }

    #[test]
    fn replay_subtree_round_trips_a_document() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("r"));
        b.attribute(QName::local("a"), "1<2");
        b.text("pre");
        b.comment("c");
        b.start_element(QName::local("inner"));
        b.end_element();
        b.pi("t", "d");
        b.end_element();
        b.start_element(QName::local("second"));
        b.end_element();
        let doc = b.finish();

        let mut sw = StreamWriter::new(Vec::new(), Guard::unlimited());
        let nodes = replay_subtree(&doc, NodeId::DOCUMENT, &mut sw).unwrap();
        let streamed = String::from_utf8(sw.finish().unwrap()).unwrap();
        assert_eq!(streamed, to_string(&doc));
        // r + @a + "pre" + comment + inner + pi + second = 7 nodes.
        assert_eq!(nodes, 7);
    }

    #[test]
    fn replay_attribute_node_at_top_level_is_misplaced_not_a_panic() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("holder"));
        b.attribute(QName::local("k"), "v");
        b.end_element();
        let doc = b.finish();
        let attr = doc.attributes(doc.root_element().unwrap())[0];

        let mut sw = StreamWriter::new(Vec::new(), Guard::unlimited());
        match replay_subtree(&doc, attr, &mut sw) {
            Err(SinkError::Misplaced(m)) => assert_eq!(m, "attribute outside an element"),
            other => panic!("expected Misplaced, got {other:?}"),
        }
    }

    #[test]
    fn replay_attribute_into_open_tag_lands_on_the_element() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("holder"));
        b.attribute(QName::local("k"), "v");
        b.end_element();
        let doc = b.finish();
        let attr = doc.attributes(doc.root_element().unwrap())[0];

        let mut sw = StreamWriter::new(Vec::new(), Guard::unlimited());
        sw.start_element(QName::local("target")).unwrap();
        assert_eq!(replay_subtree(&doc, attr, &mut sw).unwrap(), 1);
        sw.end_element().unwrap();
        let streamed = String::from_utf8(sw.finish().unwrap()).unwrap();
        assert_eq!(streamed, "<target k=\"v\"/>");
    }

    #[test]
    fn replay_charges_the_sink_guard_mid_stream() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("r"));
        b.text("0123456789ABCDEF");
        b.end_element();
        let doc = b.finish();

        let guard = Guard::new(Limits::UNLIMITED.with_max_output_bytes(8));
        let mut sw = StreamWriter::new(Vec::new(), guard.clone());
        let err = replay_subtree(&doc, NodeId::DOCUMENT, &mut sw).unwrap_err();
        assert!(matches!(err, SinkError::Guard(_)));
        assert!(guard.trip().is_some());
        assert!(sw.bytes_written() <= 8);
    }

    #[test]
    fn io_errors_surface() {
        struct Broken;
        impl io::Write for Broken {
            fn write(&mut self, _b: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sw = StreamWriter::new(Broken, Guard::unlimited());
        sw.start_element(QName::local("r")).unwrap();
        assert!(matches!(sw.text("x"), Err(SinkError::Io(_))));
    }
}
