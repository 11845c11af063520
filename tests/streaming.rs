//! Streaming emission suite: `BoundPlan::execute_to_writer` against the
//! materialise-then-serialize path.
//!
//! The core claims under test, matching ISSUE 5's acceptance criteria:
//!
//! 1. **Byte identity** — for all 40 XSLTMark cases over the relationally
//!    backed `db_vu` view, the streamed bytes equal the concatenated
//!    `to_string` of `execute`'s documents and of the XSLTVM baseline, both
//!    for freshly planned runs and for plans served out of a
//!    [`SharedPlanCache`].
//! 2. **Zero materialisation** — every SQL-tier case streams without
//!    building a single DOM node (`peak_materialized_nodes == 0`,
//!    `streamed_bytes > 0`); an XQuery-tier plan whose static emission
//!    census has no spill site never spills at run time, and at least
//!    [`MIN_SPILL_FREE_XQUERY_CASES`] XQuery-tier cases stream with zero
//!    spilled subtrees.
//! 3. **Guarded mid-stream** — `max_output_bytes` trips while the bytes
//!    are leaving, and the partial output never exceeds the cap.
//! 4. **Same degradation lattice** — an injected SQL-tier fault falls back
//!    to the XQuery tier with identical bytes and one recorded
//!    [`TierFailure`]; a writer that dies mid-stream is terminal (bytes on
//!    the wire cannot be unwritten).

use xsltdb::pipeline::{no_rewrite_transform, plan_bound, Tier};
use xsltdb::plancache::SharedPlanCache;
use xsltdb::xqgen::RewriteOptions;
use xsltdb::{FaultKind, FaultPoint, Guard, Limits};
use xsltdb_relstore::ExecStats;
use xsltdb_xml::{to_string, StreamWriter};
use xsltdb_xquery::analyze_query;
use xsltdb_xsltmark::{
    all_cases, db_catalog, dbonerow_stylesheet, existing_id, run_suite_planned_shared,
};

/// Floor on the XQuery-tier cases that stream with zero spilled result
/// subtrees (all 16 of them at the time of writing).
const MIN_SPILL_FREE_XQUERY_CASES: usize = 10;

/// The recursive suite cases need more stack than the 2 MiB test threads
/// get.
fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("suite thread panicked")
}

#[test]
fn all_forty_cases_stream_byte_identically_when_freshly_planned() {
    on_big_stack(|| {
        let (catalog, view) = db_catalog(12, 0x57AB);
        let stats = ExecStats::new();
        let mut by_tier = (0usize, 0usize, 0usize);
        let mut spill_free_xquery = 0usize;
        for case in all_cases() {
            let bound = plan_bound(&catalog, &view, &case.stylesheet, &RewriteOptions::default())
                .unwrap_or_else(|e| panic!("case {} fails to plan: {e}", case.name));
            let expected: String = bound
                .execute(&catalog, &stats)
                .unwrap_or_else(|e| panic!("case {} fails to execute: {e}", case.name))
                .iter()
                .map(to_string)
                .collect();
            let stream_stats = ExecStats::new();
            let mut streamed = Vec::new();
            let run = bound
                .execute_to_writer(&catalog, &stream_stats, &Guard::unlimited(), &mut streamed)
                .unwrap_or_else(|e| panic!("case {} fails to stream: {e}", case.name));
            assert_eq!(
                String::from_utf8(streamed).expect("stream output is UTF-8"),
                expected,
                "case {} streams different bytes (tier {:?})",
                case.name,
                run.tier
            );
            assert_eq!(run.bytes_written as usize, expected.len(), "case {}", case.name);
            // Both paths share one tier body, so pin them to the XSLTVM too.
            let baseline: String = no_rewrite_transform(&catalog, &view, bound.sheet(), &stats)
                .unwrap_or_else(|e| panic!("case {} baseline fails: {e}", case.name))
                .documents
                .iter()
                .map(to_string)
                .collect();
            assert_eq!(expected, baseline, "case {} differs from the VM", case.name);
            assert!(run.fallbacks.is_empty(), "case {} fell back: {:?}", case.name, run.fallbacks);
            let snap = stream_stats.snapshot();
            match run.tier {
                Tier::Sql => {
                    by_tier.0 += 1;
                    assert_eq!(
                        snap.peak_materialized_nodes, 0,
                        "SQL-tier case {} built DOM nodes while streaming",
                        case.name
                    );
                }
                Tier::XQuery => {
                    by_tier.1 += 1;
                    let spill_free = bound
                        .plan()
                        .rewrite
                        .as_ref()
                        .is_some_and(|o| analyze_query(&o.query).spill_free());
                    assert!(
                        !spill_free || snap.spilled_subtrees == 0,
                        "case {} has no static spill site but spilled {} subtrees",
                        case.name,
                        snap.spilled_subtrees
                    );
                    spill_free_xquery += usize::from(snap.spilled_subtrees == 0);
                }
                Tier::Vm => by_tier.2 += 1,
            }
        }
        assert!(
            spill_free_xquery >= MIN_SPILL_FREE_XQUERY_CASES,
            "only {spill_free_xquery} of {} XQuery-tier cases streamed without spilling",
            by_tier.1
        );
        // The differential must have exercised true streaming, not just the
        // materialising fallbacks.
        assert!(by_tier.0 >= 15, "only {} cases streamed on the SQL tier", by_tier.0);
        assert_eq!(by_tier.0 + by_tier.1 + by_tier.2, 40);
    });
}

#[test]
fn all_forty_cases_stream_byte_identically_via_shared_cache() {
    on_big_stack(|| {
        let cache = SharedPlanCache::default();
        // Two passes: the second is served entirely from prepared plans,
        // so the streamed differential covers cache-hit plans too.
        for pass in 0..2 {
            let runs = run_suite_planned_shared(12, 0x57AB, &cache);
            assert_eq!(runs.len(), 40);
            for run in &runs {
                assert!(
                    run.matches_streamed,
                    "pass {pass}: case {} streamed bytes differ: {:?}",
                    run.name, run.note
                );
            }
        }
        assert!(cache.stats().hits >= 40, "second pass must be served from the cache");
    });
}

#[test]
fn sql_tier_streams_with_zero_materialized_nodes() {
    let rows = 200;
    let (catalog, view) = db_catalog(rows, 7);
    let sheet = dbonerow_stylesheet(existing_id(rows));
    let bound = plan_bound(&catalog, &view, &sheet, &RewriteOptions::default()).unwrap();
    assert_eq!(bound.tier(), Tier::Sql, "{:?}", bound.fallback_reason());

    // The materialising path records a nonzero per-document peak …
    let mat_stats = ExecStats::new();
    let docs = bound.execute(&catalog, &mat_stats).unwrap();
    assert!(!docs.is_empty());
    assert!(mat_stats.snapshot().peak_materialized_nodes > 0);

    // … the streaming path records none at all.
    let stream_stats = ExecStats::new();
    let mut out = Vec::new();
    let run = bound
        .execute_to_writer(&catalog, &stream_stats, &Guard::unlimited(), &mut out)
        .unwrap();
    assert_eq!(run.tier, Tier::Sql);
    let snap = stream_stats.snapshot();
    assert_eq!(snap.peak_materialized_nodes, 0, "streaming must not build DOM nodes");
    assert!(snap.streamed_bytes > 0);
    assert_eq!(snap.streamed_bytes, run.bytes_written);
}

#[test]
fn max_output_bytes_trips_mid_stream_with_bounded_partial_output() {
    let rows = 200;
    let (catalog, view) = db_catalog(rows, 7);
    // An identity-shaped projection of every row: plenty of output.
    let sheet = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
        <xsl:template match="table">
          <out><xsl:apply-templates select="row"/></out>
        </xsl:template>
        <xsl:template match="row">
          <r><xsl:value-of select="lastname"/></r>
        </xsl:template>
        </xsl:stylesheet>"#;
    let bound = plan_bound(&catalog, &view, sheet, &RewriteOptions::default()).unwrap();
    assert_eq!(bound.tier(), Tier::Sql, "{:?}", bound.fallback_reason());

    let cap = 64u64;
    let guard = Guard::new(Limits::UNLIMITED.with_max_output_bytes(cap));
    let mut out = Vec::new();
    let err = bound
        .execute_to_writer(&catalog, &ExecStats::new(), &guard, &mut out)
        .unwrap_err();
    assert!(err.is_guard_trip(), "got {err:?}");
    assert!(guard.trip().is_some());
    assert!(!out.is_empty(), "the stream should have started before tripping");
    assert!(
        out.len() as u64 <= cap,
        "{} bytes escaped past a {cap}-byte cap",
        out.len()
    );
}

/// A guard trip surfacing through the streaming store path (`SinkError::Guard`
/// inside `SqlXmlQuery::run` over a `StreamWriter`) classifies as a guard
/// trip from the error value alone — a budget trip must never fall back or
/// demote the plan, and a caller cannot rely on having the tripping `Guard`
/// in hand.
#[test]
fn streaming_guard_trip_classifies_without_the_guard_side_channel() {
    use xsltdb::error::PipelineError;

    let rows = 200;
    let (catalog, view) = db_catalog(rows, 7);
    let sheet = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
        <xsl:template match="table">
          <out><xsl:apply-templates select="row"/></out>
        </xsl:template>
        <xsl:template match="row">
          <r><xsl:value-of select="lastname"/></r>
        </xsl:template>
        </xsl:stylesheet>"#;
    let bound = plan_bound(&catalog, &view, sheet, &RewriteOptions::default()).unwrap();
    assert_eq!(bound.tier(), Tier::Sql, "{:?}", bound.fallback_reason());
    let sql = bound.plan().sql.as_ref().expect("SQL tier plan");

    let guard = Guard::new(Limits::UNLIMITED.with_max_output_bytes(64));
    let mut out = StreamWriter::new(Vec::new(), guard.clone());
    let store_err = sql
        .run(&catalog, &ExecStats::new(), &guard, bound.bindings(), &mut out)
        .unwrap_err();
    // The StoreError itself carries the structured trip …
    assert_eq!(store_err.trip(), guard.trip());
    assert!(store_err.trip().is_some(), "trip evidence lost: {store_err:?}");
    // … so the From conversion classifies it as Guard (terminal) even when
    // the caller never looks at the Guard.
    let err = PipelineError::from(store_err);
    assert!(err.is_guard_trip(), "misclassified as an engine failure: {err:?}");
}

#[test]
fn injected_sql_fault_falls_back_and_streams_identical_bytes() {
    let rows = 50;
    let (catalog, view) = db_catalog(rows, 7);
    let sheet = dbonerow_stylesheet(existing_id(rows));
    let bound = plan_bound(&catalog, &view, &sheet, &RewriteOptions::default()).unwrap();
    assert_eq!(bound.tier(), Tier::Sql);

    let stats = ExecStats::new();
    let expected: String =
        bound.execute(&catalog, &stats).unwrap().iter().map(to_string).collect();

    for kind in [FaultKind::Error, FaultKind::Panic] {
        // A fresh plan per run: the faulted run demotes the plan it ran.
        let bound = plan_bound(&catalog, &view, &sheet, &RewriteOptions::default()).unwrap();
        let guard = Guard::unlimited().with_fault(FaultPoint::SqlExec, kind);
        let mut out = Vec::new();
        let run = bound
            .execute_to_writer(&catalog, &ExecStats::new(), &guard, &mut out)
            .unwrap();
        assert_eq!(run.tier, Tier::XQuery, "fault {kind:?} must degrade one tier");
        assert_eq!(run.fallbacks.len(), 1);
        assert_eq!(run.fallbacks[0].tier, "sql");
        assert_eq!(run.fallbacks[0].panicked, matches!(kind, FaultKind::Panic));
        assert_eq!(
            String::from_utf8(out).unwrap(),
            expected,
            "fallback bytes must match the materialised output"
        );
    }
}

#[test]
fn writer_failure_mid_stream_is_terminal_not_a_fallback() {
    struct FailAfter {
        remaining: usize,
    }
    impl std::io::Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.len() > self.remaining {
                return Err(std::io::Error::other("client went away"));
            }
            self.remaining -= buf.len();
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let rows = 50;
    let (catalog, view) = db_catalog(rows, 7);
    let sheet = dbonerow_stylesheet(existing_id(rows));
    let bound = plan_bound(&catalog, &view, &sheet, &RewriteOptions::default()).unwrap();
    assert_eq!(bound.tier(), Tier::Sql);

    let err = bound
        .execute_to_writer(
            &catalog,
            &ExecStats::new(),
            &Guard::unlimited(),
            &mut FailAfter { remaining: 8 },
        )
        .unwrap_err();
    // Bytes reached the writer before the failure, so no lower tier may
    // rerun (it would emit the prefix twice): the error surfaces directly.
    assert!(!err.is_guard_trip());
    assert!(err.to_string().contains("client went away"), "got {err}");
}
