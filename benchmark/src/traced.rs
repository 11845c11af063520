//! The traced pass: where a request's time goes, layer by layer.
//!
//! Single-threaded, separate from the measured pass, spans recorded in
//! memory from this file around calls into each crate's public functions
//! (see `spans`). Two phases:
//!
//! * **Planning**, once per distinct stylesheet: `plan_transform` as a
//!   whole, then the same pipeline by hand — compile, canonicalise,
//!   xqgen rewrite (which contains partial evaluation), SQL rewrite,
//!   emission analysis — each under its own span.
//! * **Serving**, a ladder over the request stream. The stream is run
//!   once per rung — bare execution of a pre-bound plan, plan-cache
//!   lookup + bind + execution, `FrontDoor::transform`, a loopback
//!   `Server` round trip — and request *k* of the rung below is linked
//!   as the child of request *k* of the rung above, so a rung's self
//!   time is what *it* adds. Rungs run one after the other, not
//!   interleaved: a 6 µs rung timed right after a 44 ms socket wait
//!   measures a cold cache, not the rung. A side rung times a
//!   result-cache hit, and on the materialising tiers the pieces of
//!   execution (view materialisation, XQuery evaluation or VM transform
//!   and serialisation) are re-run as children of the execution span.
//!   Engine counters are read at the same boundaries.

use crate::engine::{self, BelowExec, ExecStats, Status};
use crate::json::Json;
use crate::spans::{self_times_ns, Recorder, Span, SpanId};
use crate::stats::{median, ratio};
use crate::workload::{digest, Digest, Spec};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

/// Every distinct stylesheet is planned this many times (its median is
/// kept), fewer if that would take more than `PLANNING_SHARE` of
/// `--seconds`.
const PLANNING_PASSES: usize = 5;
const PLANNING_SHARE: f64 = 0.2;

/// How the rest of `--seconds` is split over the rungs, bottom up, the
/// result-cache side rung last. The socket rung gets the most: where a
/// small response waits 44 ms for a delayed ACK it needs it.
const RUNG_SHARES: [f64; 5] = [0.2, 0.15, 0.15, 0.35, 0.15];

/// No rung runs more requests than this (rounded up to a whole round),
/// which bounds the trace file.
const MAX_PER_RUNG: usize = 1000;

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const LAYER_METRICS: [(&str, &str); 26] = [
    ("xslt.compile_us", "us"),
    ("structinfo.canonicalize_us", "us"),
    ("core.xqgen.rewrite_us", "us"),
    ("core.sqlrewrite_us", "us"),
    ("xquery.emission_us", "us"),
    ("core.plan_us", "us"),
    ("core.exec_us", "us"),
    ("core.plancache_self_us", "us"),
    ("serve.frontdoor_self_us", "us"),
    ("serve.socket_self_us", "us"),
    ("serve.request_us", "us"),
    ("core.resultcache_hit_us", "us"),
    ("relstore.view.materialize_us", "us"),
    ("xquery.eval_us", "us"),
    ("xslt.vm_us", "us"),
    ("xmlkit.serialize_us", "us"),
    ("relstore.rows_scanned", "count"),
    ("relstore.index_probes", "count"),
    ("relstore.peak_materialized_nodes", "count"),
    ("xquery.spilled_subtrees", "count"),
    ("relstore.pool.page_reads", "count"),
    ("relstore.pool.hit_rate", "ratio"),
    ("relstore.pool.evictions", "count"),
    ("core.plancache.hit_rate", "ratio"),
    ("core.admission.shed", "count"),
    ("serve.retries", "count"),
];

/// Whether a layer's number is its span's whole duration or its self time.
#[derive(Clone, Copy)]
enum Take {
    Duration,
    SelfTime,
}

/// (metric, span name, what to take of it).
const TIMED: [(&str, &str, Take); 16] = [
    ("xslt.compile_us", "xslt.compile", Take::Duration),
    (
        "structinfo.canonicalize_us",
        "structinfo.canonicalize",
        Take::Duration,
    ),
    (
        "core.xqgen.rewrite_us",
        "core.xqgen.rewrite",
        Take::Duration,
    ),
    ("core.sqlrewrite_us", "core.sqlrewrite", Take::Duration),
    ("xquery.emission_us", "xquery.emission", Take::Duration),
    ("core.plan_us", "core.plan", Take::Duration),
    ("core.exec_us", "core.exec", Take::Duration),
    ("core.plancache_self_us", "core.plancache", Take::SelfTime),
    ("serve.frontdoor_self_us", "serve.frontdoor", Take::SelfTime),
    ("serve.socket_self_us", "serve.socket", Take::SelfTime),
    ("serve.request_us", "serve.socket", Take::Duration),
    (
        "core.resultcache_hit_us",
        "core.resultcache_hit",
        Take::Duration,
    ),
    (
        "relstore.view.materialize_us",
        "relstore.view.materialize",
        Take::Duration,
    ),
    ("xquery.eval_us", "xquery.eval", Take::Duration),
    ("xslt.vm_us", "xslt.vm", Take::Duration),
    ("xmlkit.serialize_us", "xmlkit.serialize", Take::Duration),
];

/// `(group, median in µs, samples)` of every group.
fn group_medians_us(groups: &BTreeMap<usize, Vec<u64>>) -> Vec<(usize, f64, usize)> {
    groups
        .iter()
        .map(|(&g, samples)| {
            let us: Vec<f64> = samples.iter().map(|&ns| ns as f64 / 1e3).collect();
            (g, median(&us), us.len())
        })
        .collect()
}

/// The typical per-request time of a layer over a mixed stream: the
/// median within each group (a case, or a stylesheet while planning),
/// weighted by how often the group occurred. A plain median would pick
/// one case of forty; a plain mean would follow one hiccup.
fn typical_us(groups: &BTreeMap<usize, Vec<u64>>) -> f64 {
    let medians = group_medians_us(groups);
    let n: usize = medians.iter().map(|m| m.2).sum();
    if n == 0 {
        return 0.0;
    }
    medians
        .iter()
        .map(|(_, median, count)| median * *count as f64)
        .sum::<f64>()
        / n as f64
}

/// Group `take` of every span called `name` by its request's group.
fn grouped(
    spans: &[Span],
    self_ns: &[u64],
    group_of: &[usize],
    name: &str,
    take: Take,
) -> BTreeMap<usize, Vec<u64>> {
    let mut groups: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(self_ns) {
        if s.name == name {
            let v = match take {
                Take::Duration => s.duration_ns(),
                Take::SelfTime => own,
            };
            groups
                .entry(group_of[s.request_id as usize])
                .or_default()
                .push(v);
        }
    }
    groups
}

/// Counter totals over the execution rung.
#[derive(Default)]
struct Counters {
    requests: u64,
    rows_scanned: u64,
    index_probes: u64,
    peak_materialized_nodes: u64,
    spilled_subtrees: u64,
    page_reads: u64,
    pool_hits: u64,
    evictions: u64,
}

struct Pass<'a> {
    spec: &'a Spec,
    digests: &'a [Digest],
    rec: Recorder,
    /// Request id → case (serving) or stylesheet (planning) index.
    group_of: Vec<usize>,
    /// Stream position → the request id the execution rung gave it.
    ladder_rid: Vec<u32>,
    counters: Counters,
    attempted: u64,
    failed: u64,
    unique: AtomicU64,
}

impl Pass<'_> {
    fn new_request(&mut self, group: usize) -> u32 {
        self.group_of.push(group);
        (self.group_of.len() - 1) as u32
    }

    /// Count one checked output; `None` is a request that failed outright.
    fn check(&mut self, idx: usize, bytes: Option<&[u8]>) {
        self.attempted += 1;
        if !bytes.is_some_and(|b| digest(b) == self.digests[idx]) {
            self.failed += 1;
        }
    }

    /// The text a rung sends; every rung of a cold-plan workload gets a
    /// variant of its own.
    fn text(&self, idx: usize) -> String {
        self.spec.text(idx, &self.unique)
    }

    /// Plan one stylesheet as a whole and by parts.
    fn plan(&mut self, view: &engine::XmlView, idx: usize) -> Result<(), String> {
        let rid = self.new_request(idx);
        let spec = self.spec;
        let sheet = &spec.requests[idx].sheet;
        let (_, whole) = self.rec.span("core.plan", None, rid, |_, _| {
            engine::plan_whole(view, sheet)
        });
        whole?;
        let (_, parts) = self.rec.span("core.plan_parts", None, rid, |rec, parent| {
            let parent = Some(parent);
            let compiled = rec
                .span("xslt.compile", parent, rid, |_, _| engine::compile(sheet))
                .1?;
            let canon = rec
                .span("structinfo.canonicalize", parent, rid, |_, _| {
                    engine::canonicalize(view)
                })
                .1;
            let Some(info) = &canon else { return Ok(()) };
            let outcome = rec
                .span("core.xqgen.rewrite", parent, rid, |_, _| {
                    engine::xq_rewrite(&compiled, info)
                })
                .1;
            if let Some(outcome) = &outcome {
                rec.span("core.sqlrewrite", parent, rid, |_, _| {
                    engine::sql_rewrite(outcome, info)
                });
                rec.span("xquery.emission", parent, rid, |_, _| {
                    engine::emission(outcome)
                });
            }
            Ok::<(), String>(())
        });
        parts
    }

    /// The pieces of a materialising tier's execution, re-run as children
    /// of `exec`.
    fn below_exec(
        &mut self,
        plan: &engine::BoundPlan,
        catalog: &engine::Catalog,
        exec: SpanId,
        rid: u32,
        buf: &mut Vec<u8>,
    ) -> Result<(), String> {
        let Some(below) = engine::below_exec(plan) else {
            return Ok(());
        };
        let parent = Some(exec);
        let stats = ExecStats::new();
        let docs = self
            .rec
            .span("relstore.view.materialize", parent, rid, |_, _| {
                engine::materialize(plan, catalog, &stats)
            })
            .1?;
        match below {
            BelowExec::XQuery(outcome) => {
                buf.clear();
                self.rec
                    .span("xquery.eval", parent, rid, |_, _| {
                        engine::xquery_eval(outcome, &docs, buf)
                    })
                    .1?;
            }
            BelowExec::Vm(sheet) => {
                for d in &docs {
                    let result = self
                        .rec
                        .span("xslt.vm", parent, rid, |_, _| {
                            engine::vm_transform(sheet, d)
                        })
                        .1?;
                    self.rec.span("xmlkit.serialize", parent, rid, |_, _| {
                        engine::serialize(&result)
                    });
                }
            }
        }
        Ok(())
    }
}

struct Rungs {
    catalog: engine::Catalog,
    view: engine::XmlView,
    cache: engine::SharedPlanCache,
    plans: Vec<engine::BoundPlan>,
    door: engine::FrontDoor,
    caching_door: engine::FrontDoor,
    server: engine::ServerHandle,
    server_door: std::sync::Arc<engine::FrontDoor>,
    conn: std::net::TcpStream,
}

/// Build both catalogs (the server owns its own), warm every plan cache
/// and pre-bind one plan per distinct request.
fn set_up(spec: &Spec, seed: u64) -> Result<Rungs, String> {
    let (catalog, view) = engine::build_catalog(spec.rows, seed, spec.pool_frames);
    let cache = engine::new_plan_cache();
    let door = engine::new_door(false);
    let caching_door = engine::new_door(true);
    let mut plans = Vec::with_capacity(spec.requests.len());
    for req in &spec.requests {
        plans.push(engine::plan_lookup(&cache, &catalog, &view, &req.sheet)?);
        engine::door_transform(&door, &catalog, &view, &req.sheet)?;
        if !spec.cold_plans {
            engine::door_transform(&caching_door, &catalog, &view, &req.sheet)?;
        }
    }
    let (server_catalog, server_view) = engine::build_catalog(spec.rows, seed, spec.pool_frames);
    let server_door = engine::new_door(false);
    for req in &spec.requests {
        engine::door_transform(&server_door, &server_catalog, &server_view, &req.sheet)?;
    }
    let (server, server_door) = engine::start_server(server_door, server_catalog, server_view)
        .map_err(|e| format!("bind loopback: {e}"))?;
    let mut conn = engine::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    // Linux ACKs the first exchange on a fresh connection at once, so it
    // alone escapes the delayed-ACK stall; spend it here, untimed.
    let first = engine::request(spec.requests[spec.clients[0].order[0]].sheet.clone());
    engine::round_trip(&mut conn, &first).map_err(|e| format!("first round trip: {e}"))?;
    Ok(Rungs {
        catalog,
        view,
        cache,
        plans,
        door,
        caching_door,
        server,
        server_door,
        conn,
    })
}

/// Run `one` over the stream positions `0..`, in whole rounds (see
/// [`Spec::traced_round`]): until `limit` requests or `until`, whichever
/// comes first, but at least one round.
fn run_rung(
    pass: &mut Pass<'_>,
    stream: &[usize],
    limit: usize,
    until: Instant,
    mut one: impl FnMut(&mut Pass<'_>, usize, usize) -> Result<SpanId, String>,
) -> Result<Vec<SpanId>, String> {
    let round = pass.spec.traced_round();
    let mut ids = Vec::new();
    while ids.is_empty() || ids.len() % round != 0 || (ids.len() < limit && Instant::now() < until)
    {
        let k = ids.len();
        ids.push(one(pass, k, stream[k % stream.len()])?);
    }
    Ok(ids)
}

/// Bottom rung: a pre-bound plan into a reused buffer, counters read
/// around it, and its pieces re-run as children on the materialising
/// tiers. Allocates the request id the rungs above reuse.
fn exec_rung(
    pass: &mut Pass<'_>,
    r: &Rungs,
    idx: usize,
    buf: &mut Vec<u8>,
) -> Result<SpanId, String> {
    let rid = pass.new_request(pass.spec.requests[idx].case);
    pass.ladder_rid.push(rid);
    let plan = &r.plans[idx];
    let stats = ExecStats::new();
    let pool_before = engine::pool_counters(&r.catalog);
    buf.clear();
    let (exec, ran) = pass.rec.span("core.exec", None, rid, |_, _| {
        engine::execute(plan, &r.catalog, &stats, buf)
    });
    let pool_after = engine::pool_counters(&r.catalog);
    let ran_counters = engine::exec_counters(&stats);
    let c = &mut pass.counters;
    c.requests += 1;
    c.rows_scanned += ran_counters.rows_scanned;
    c.index_probes += ran_counters.index_probes;
    c.peak_materialized_nodes = c
        .peak_materialized_nodes
        .max(ran_counters.peak_materialized_nodes);
    c.spilled_subtrees += ran_counters.spilled_subtrees;
    c.page_reads += pool_after.page_reads - pool_before.page_reads;
    c.pool_hits += pool_after.pool_hits - pool_before.pool_hits;
    c.evictions += pool_after.evictions - pool_before.evictions;
    pass.check(idx, ran.ok().map(|()| buf.as_slice()));
    pass.below_exec(plan, &r.catalog, exec, rid, buf)?;
    Ok(exec)
}

/// Run the traced pass for about `seconds`; the spans go to `trace_path`.
pub fn run(
    spec: &Spec,
    seed: u64,
    digests: &[Digest],
    seconds: f64,
    trace_path: &std::path::Path,
) -> Result<Json, String> {
    let mut rungs = set_up(spec, seed)?;
    let mut pass = Pass {
        spec,
        digests,
        rec: Recorder::with_capacity(1 << 16),
        group_of: Vec::new(),
        ladder_rid: Vec::new(),
        counters: Counters::default(),
        attempted: 0,
        failed: 0,
        unique: AtomicU64::new((seed << 32) | (1 << 31)),
    };
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);

    for done in 0..PLANNING_PASSES {
        if done > 0 && started.elapsed() >= budget.mul_f64(PLANNING_SHARE) {
            break;
        }
        for idx in 0..spec.requests.len() {
            pass.plan(&rungs.view, idx)?;
        }
    }

    let doors_before = [
        engine::door_counters(&rungs.door),
        engine::door_counters(&rungs.server_door),
    ];
    let stream = spec.traced_stream();
    let ladder_start = Instant::now();
    let ladder_budget = budget.saturating_sub(started.elapsed());
    let mut share_used = 0.0;
    let mut until = |share: f64| {
        share_used += share;
        ladder_start + ladder_budget.mul_f64(share_used)
    };
    let mut buf = Vec::new();
    let link = |pass: &mut Pass<'_>, below: &[SpanId], above: &[SpanId]| {
        for (&child, &parent) in below.iter().zip(above) {
            pass.rec.adopt(child, parent);
        }
    };

    let execs = run_rung(
        &mut pass,
        &stream,
        MAX_PER_RUNG,
        until(RUNG_SHARES[0]),
        |pass, _, idx| exec_rung(pass, &rungs, idx, &mut buf),
    )?;

    let lookups = run_rung(
        &mut pass,
        &stream,
        execs.len(),
        until(RUNG_SHARES[1]),
        |pass, k, idx| {
            let text = pass.text(idx);
            buf.clear();
            let (id, ran) = pass
                .rec
                .span("core.plancache", None, pass.ladder_rid[k], |_, _| {
                    let plan =
                        engine::plan_lookup(&rungs.cache, &rungs.catalog, &rungs.view, &text)?;
                    engine::execute(&plan, &rungs.catalog, &ExecStats::new(), &mut buf)
                });
            pass.check(idx, ran.ok().map(|()| buf.as_slice()));
            Ok(id)
        },
    )?;
    link(&mut pass, &execs, &lookups);

    let doors = run_rung(
        &mut pass,
        &stream,
        lookups.len(),
        until(RUNG_SHARES[2]),
        |pass, k, idx| {
            let text = pass.text(idx);
            let (id, out) = pass
                .rec
                .span("serve.frontdoor", None, pass.ladder_rid[k], |_, _| {
                    engine::door_transform(&rungs.door, &rungs.catalog, &rungs.view, &text)
                });
            pass.check(idx, out.as_deref().ok());
            Ok(id)
        },
    )?;
    link(&mut pass, &lookups, &doors);

    let sockets = run_rung(
        &mut pass,
        &stream,
        doors.len(),
        until(RUNG_SHARES[3]),
        |pass, k, idx| {
            let request = engine::request(pass.text(idx));
            let (id, response) = pass
                .rec
                .span("serve.socket", None, pass.ladder_rid[k], |_, _| {
                    engine::round_trip(&mut rungs.conn, &request)
                });
            let response = response.map_err(|e| format!("socket round trip: {e}"))?;
            pass.check(
                idx,
                (response.status == Status::Ok).then_some(response.body.as_slice()),
            );
            Ok(id)
        },
    )?;
    link(&mut pass, &doors, &sockets);

    // Side rung: the same request answered from the result cache. A cold
    // variant is primed first; warm workloads were primed at set-up.
    run_rung(
        &mut pass,
        &stream,
        execs.len(),
        until(RUNG_SHARES[4]),
        |pass, k, idx| {
            let text = pass.text(idx);
            if pass.spec.cold_plans {
                engine::door_transform(&rungs.caching_door, &rungs.catalog, &rungs.view, &text)?;
            }
            let (id, out) =
                pass.rec
                    .span("core.resultcache_hit", None, pass.ladder_rid[k], |_, _| {
                        engine::door_transform(
                            &rungs.caching_door,
                            &rungs.catalog,
                            &rungs.view,
                            &text,
                        )
                    });
            pass.check(idx, out.as_deref().ok());
            Ok(id)
        },
    )?;
    let climbed = sockets.len();

    let doors_after = [
        engine::door_counters(&rungs.door),
        engine::door_counters(&rungs.server_door),
    ];
    let Rungs { conn, server, .. } = rungs;
    drop(conn);
    server.shutdown();

    let spans = pass.rec.spans();
    let self_ns = self_times_ns(spans);
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (metric, span_name, take) in TIMED {
        values.insert(
            metric,
            typical_us(&grouped(spans, &self_ns, &pass.group_of, span_name, take)),
        );
    }
    let c = &pass.counters;
    let per_request = |total: u64| ratio(total, c.requests);
    values.insert("relstore.rows_scanned", per_request(c.rows_scanned));
    values.insert("relstore.index_probes", per_request(c.index_probes));
    values.insert(
        "relstore.peak_materialized_nodes",
        c.peak_materialized_nodes as f64,
    );
    values.insert("xquery.spilled_subtrees", per_request(c.spilled_subtrees));
    values.insert("relstore.pool.page_reads", per_request(c.page_reads));
    values.insert(
        "relstore.pool.hit_rate",
        ratio(c.pool_hits, c.pool_hits + c.page_reads),
    );
    values.insert("relstore.pool.evictions", per_request(c.evictions));
    let moved = |f: fn(&engine::DoorCounters) -> u64| -> u64 {
        doors_after
            .iter()
            .zip(&doors_before)
            .map(|(a, b)| f(a) - f(b))
            .sum()
    };
    let (hits, misses) = (moved(|d| d.plan_hits), moved(|d| d.plan_misses));
    values.insert("core.plancache.hit_rate", ratio(hits, hits + misses));
    values.insert("core.admission.shed", moved(|d| d.shed) as f64);
    values.insert("serve.retries", moved(|d| d.retries) as f64);

    let plan_parts_us: f64 = [
        "xslt.compile_us",
        "structinfo.canonicalize_us",
        "core.xqgen.rewrite_us",
        "core.sqlrewrite_us",
        "xquery.emission_us",
    ]
    .iter()
    .map(|m| values[m])
    .sum();

    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    let trace = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(seed as f64)),
        ("spans", crate::spans::to_json(spans)),
    ]);
    std::fs::write(trace_path, trace.compact())
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    Ok(Json::obj([
        ("attempted", Json::Num(pass.attempted as f64)),
        ("failed", Json::Num(pass.failed as f64)),
        (
            "metrics",
            Json::Obj(
                LAYER_METRICS
                    .iter()
                    .map(|(name, unit)| {
                        let v = Json::obj([
                            ("value", Json::Num(values[name])),
                            ("unit", Json::str(*unit)),
                        ]);
                        (name.to_string(), v)
                    })
                    .collect(),
            ),
        ),
        ("ladder_requests", Json::Num(climbed as f64)),
        ("spans", Json::Num(spans.len() as f64)),
        ("plan_parts_sum_us", Json::Num(plan_parts_us)),
        (
            // The top rung case by case, for holding against the
            // measured pass whatever its mix of cases was.
            "request_us_by_case",
            Json::Arr(
                group_medians_us(&grouped(
                    spans,
                    &self_ns,
                    &pass.group_of,
                    "serve.socket",
                    Take::Duration,
                ))
                .into_iter()
                .map(|(case, p50_us, samples)| {
                    Json::obj([
                        ("case", Json::str(spec.cases[case])),
                        ("samples", Json::Num(samples as f64)),
                        ("p50_us", Json::Num(p50_us)),
                    ])
                })
                .collect(),
            ),
        ),
        ("trace_file", Json::str(trace_path.display().to_string())),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_weights_case_medians_by_frequency() {
        let mut g = BTreeMap::new();
        // 15 cheap requests at ~24 µs with one hiccup, 1 at 265 µs.
        let mut cheap = vec![24_000u64; 14];
        cheap.push(9_000_000);
        g.insert(0, cheap);
        g.insert(1, vec![265_000]);
        let got = typical_us(&g);
        assert!((got - (15.0 * 24.0 + 265.0) / 16.0).abs() < 1e-9, "{got}");
        assert_eq!(typical_us(&BTreeMap::new()), 0.0);
    }

    #[test]
    fn every_timed_metric_is_a_declared_layer_metric() {
        for (metric, _, _) in TIMED {
            assert!(LAYER_METRICS.iter().any(|(m, _)| *m == metric), "{metric}");
        }
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|(m, _)| *m).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len());
    }
}
