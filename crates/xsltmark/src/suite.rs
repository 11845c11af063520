//! Running the suite: VM baseline vs rewrite, per-case outcomes, and the
//! paper's §5 second objective — how many of the forty cases fully inline.

use crate::cases::{all_cases, Case};
use crate::docgen::{db_struct_info, db_xml};
use xsltdb::pipeline::{no_rewrite_transform, plan_bound, plan_cached_shared, plan_transform, Tier};
use xsltdb::plancache::SharedPlanCache;
use xsltdb::xqgen::{rewrite, rewrite_straightforward, RewriteMode, RewriteOptions};
use xsltdb::Guard;
use xsltdb_relstore::ExecStats;
use xsltdb_xml::{parse_trimmed, to_string, StreamWriter};
use xsltdb_xquery::{evaluate_query_to_sink, NodeHandle};
use xsltdb_xslt::{compile_str, transform};

/// Outcome of one case under the rewrite.
#[derive(Debug, Clone)]
pub struct CaseRun {
    pub name: &'static str,
    /// `None`: the rewrite was not applicable (translation error) and the
    /// case runs on the VM tier.
    pub mode: Option<RewriteMode>,
    /// The generated query has no function calls (paper's inline metric).
    pub fully_inlined: bool,
    /// The rewrite produced the same output as the functional evaluation.
    pub matches_vm: bool,
    /// Failure detail when the rewrite path was not equivalent/applicable.
    pub note: Option<String>,
}

/// How many of the forty XSLTMark cases the rewrite fully inlines (zero
/// generated function declarations). The paper reports 23/40 (§5); the
/// join-graph rewrite — ORDER BY on row sources, positional context via
/// `at`/count variables, and comment/PI emission — pushes six more over:
/// `comments`, `processes`, `position`, `trend`, `stringsort` and
/// `oddtemplates`. Asserted exactly in the suite tests and referenced from
/// EXPERIMENTS.md; a drop means a rewrite regression, a rise means this
/// constant and the experiment record need updating together.
pub const EXPECTED_FULLY_INLINED: usize = 29;

/// Where the forty cases plan over the relationally backed `db_vu` view,
/// as `(sql, xquery, vm)` — the split [`tier_statistics`] returns. Only
/// `functions` (`generate-id()`) stays on the VM. Asserted exactly like
/// [`EXPECTED_FULLY_INLINED`]: a case leaving the SQL tier is a lowering
/// regression, a case reaching it means this constant needs re-recording.
pub const EXPECTED_TIER_SPLIT: (usize, usize, usize) = (23, 16, 1);

/// A parameterised `dbonerow` stylesheet targeting a specific id (benches
/// point it at an id that exists for their row count).
pub fn dbonerow_stylesheet(target_id: i64) -> String {
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
           <xsl:template match="table">
             <out><xsl:apply-templates select="row[id = {target_id}]"/></out>
           </xsl:template>
           <xsl:template match="row">
             <found><xsl:value-of select="lastname"/>, <xsl:value-of select="firstname"/></found>
           </xsl:template>
           </xsl:stylesheet>"#
    )
}

/// Run one case at a given document size, comparing rewrite vs VM. `opts`
/// picks the rewrite; `None` is the straightforward translation of \[9\],
/// which ignores structural information.
pub fn run_case(case: &Case, rows: usize, seed: u64, opts: Option<&RewriteOptions>) -> CaseRun {
    let sheet = match compile_str(&case.stylesheet) {
        Ok(s) => s,
        Err(e) => {
            return CaseRun {
                name: case.name,
                mode: None,
                fully_inlined: false,
                matches_vm: false,
                note: Some(format!("compile error: {e}")),
            }
        }
    };
    let doc = parse_trimmed(&db_xml(rows, seed)).expect("generated XML parses");
    let expected = match transform(&sheet, &doc) {
        Ok(d) => to_string(&d),
        Err(e) => {
            return CaseRun {
                name: case.name,
                mode: None,
                fully_inlined: false,
                matches_vm: false,
                note: Some(format!("VM error: {e}")),
            }
        }
    };
    let outcome = match opts {
        Some(opts) => rewrite(&sheet, &db_struct_info(), opts),
        None => rewrite_straightforward(&sheet),
    };
    match outcome {
        Ok(outcome) => {
            let input = NodeHandle::document(doc);
            let mut out = StreamWriter::new(Vec::new(), Guard::unlimited());
            let evaluated = evaluate_query_to_sink(
                &outcome.query,
                Some(input),
                Vec::new(),
                Guard::unlimited(),
                &mut out,
            )
            .map_err(|e| e.to_string())
            .and_then(|_| out.finish().map_err(|e| e.to_string()));
            match evaluated {
                Ok(got) => {
                    let matches = got == expected.as_bytes();
                    CaseRun {
                        name: case.name,
                        mode: Some(outcome.mode),
                        fully_inlined: outcome.fully_inlined(),
                        matches_vm: matches,
                        note: (!matches).then(|| "output mismatch".to_string()),
                    }
                }
                Err(e) => CaseRun {
                    name: case.name,
                    mode: Some(outcome.mode),
                    fully_inlined: false,
                    matches_vm: false,
                    note: Some(format!("query evaluation error: {e}")),
                },
            }
        }
        Err(e) => CaseRun {
            name: case.name,
            mode: None,
            fully_inlined: false,
            matches_vm: true, // the VM tier by definition matches itself
            note: Some(format!("rewrite not applicable: {e}")),
        },
    }
}

/// Run the whole suite at a small size.
pub fn run_suite(rows: usize, seed: u64) -> Vec<CaseRun> {
    let opts = RewriteOptions::default();
    all_cases().iter().map(|c| run_case(c, rows, seed, Some(&opts))).collect()
}

/// The paper's §5 inline statistic: `(fully inlined, total)`.
pub fn inline_statistics(rows: usize, seed: u64) -> (usize, usize) {
    let runs = run_suite(rows, seed);
    let inlined = runs.iter().filter(|r| r.fully_inlined).count();
    (inlined, runs.len())
}

/// How many cases plan all the way down to the SQL tier over the
/// relationally backed `db_vu` view: `(sql, xquery, vm)` tier counts.
pub fn tier_statistics(rows: usize, seed: u64) -> (usize, usize, usize) {
    let (_catalog, view) = crate::docgen::db_catalog(rows, seed);
    let mut counts = (0usize, 0usize, 0usize);
    for c in all_cases() {
        let plan = plan_transform(&view, &c.stylesheet, &RewriteOptions::default())
            .expect("cases compile");
        match plan.tier {
            Tier::Sql => counts.0 += 1,
            Tier::XQuery => counts.1 += 1,
            Tier::Vm => counts.2 += 1,
        }
    }
    counts
}

/// Outcome of one case planned through a [`SharedPlanCache`] over the
/// relationally backed `db_vu` view — the differential evidence the cache
/// correctness suites assert on.
#[derive(Debug, Clone)]
pub struct PlannedRun {
    pub name: &'static str,
    /// The tier of the (possibly cached) plan that produced the output.
    pub tier: Tier,
    /// The cached-plan output is byte-identical to a freshly planned run.
    pub matches_fresh: bool,
    /// The cached-plan output is byte-identical to the no-rewrite baseline.
    pub matches_vm: bool,
    /// [`BoundPlan::execute_to_writer`](xsltdb::BoundPlan::execute_to_writer)
    /// produced exactly the bytes of the serialized `execute` documents —
    /// the streaming differential.
    pub matches_streamed: bool,
    pub note: Option<String>,
}

/// Run every case through [`plan_cached_shared`] over the db view at
/// `(rows, seed)`, comparing each cached plan's output against a freshly
/// planned run *and* the functional (no-rewrite) baseline. Calling this
/// twice with the same cache serves the whole second pass from prepared
/// plans — one lookup per case, so cache hit counters are directly
/// interpretable.
///
/// Any number of threads can run this against **one** cache
/// simultaneously — each call builds its own catalog/view (sessions share
/// plans, not data handles): the per-thread body of the concurrent
/// differential harness.
pub fn run_suite_planned_shared(
    rows: usize,
    seed: u64,
    cache: &SharedPlanCache,
) -> Vec<PlannedRun> {
    let (catalog, view) = crate::docgen::db_catalog(rows, seed);
    let stats = ExecStats::new();
    all_cases()
        .iter()
        .map(|c| {
            let cached = match plan_cached_shared(
                cache,
                &catalog,
                &view,
                &c.stylesheet,
                &RewriteOptions::default(),
            ) {
                Ok(p) => p,
                Err(e) => {
                    return PlannedRun {
                        name: c.name,
                        tier: Tier::Vm,
                        matches_fresh: false,
                        matches_vm: false,
                        matches_streamed: false,
                        note: Some(format!("cached planning failed: {e}")),
                    }
                }
            };
            let render = |docs: &[xsltdb_xml::Document]| -> Vec<String> {
                docs.iter().map(to_string).collect()
            };
            let got = match cached.execute(&catalog, &stats) {
                Ok(docs) => render(&docs),
                Err(e) => {
                    return PlannedRun {
                        name: c.name,
                        tier: cached.tier(),
                        matches_fresh: false,
                        matches_vm: false,
                        matches_streamed: false,
                        note: Some(format!("cached plan failed to execute: {e}")),
                    }
                }
            };
            let fresh = plan_bound(&catalog, &view, &c.stylesheet, &RewriteOptions::default())
                .and_then(|p| p.execute(&catalog, &stats))
                .map(|docs| render(&docs));
            let baseline = no_rewrite_transform(&catalog, &view, cached.sheet(), &stats)
                .map(|r| render(&r.documents));
            let matches_fresh = fresh.as_ref().map(|f| *f == got).unwrap_or(false);
            let matches_vm = baseline.as_ref().map(|b| *b == got).unwrap_or(false);
            // Streaming differential: the writer path must produce the
            // concatenation of the serialized documents, byte for byte.
            let mut streamed = Vec::new();
            let matches_streamed = cached
                .execute_to_writer(&catalog, &stats, &Guard::unlimited(), &mut streamed)
                .is_ok()
                && streamed == got.concat().into_bytes();
            PlannedRun {
                name: c.name,
                tier: cached.tier(),
                matches_fresh,
                matches_vm,
                matches_streamed,
                note: (!matches_fresh || !matches_vm || !matches_streamed)
                    .then(|| "cached output diverges".to_string()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recursive cases need more stack than the 2 MiB test threads get.
    fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(64 * 1024 * 1024)
            .spawn(f)
            .expect("spawn")
            .join()
            .expect("suite thread panicked")
    }

    #[test]
    fn every_rewritten_case_matches_vm() {
        on_big_stack(|| {
            for run in run_suite(30, 11) {
                assert!(
                    run.matches_vm,
                    "case {} diverges: {:?}",
                    run.name, run.note
                );
            }
        });
    }

    /// Function mode and the straightforward translation run the same op
    /// translator as inline mode but invoke templates through run-time
    /// dispatch: every case either matches the VM byte for byte or fails
    /// to rewrite (and so runs on the VM). The cases that fail to rewrite
    /// are pinned: `position` and `trend` read `position()` in a template
    /// body, which a template function has no binding for, and `functions`
    /// calls `generate-id()`.
    #[test]
    fn every_case_matches_vm_in_function_and_straightforward_mode() {
        on_big_stack(|| {
            let functions = RewriteOptions { inline: false, ..Default::default() };
            for (label, opts) in [("function", Some(&functions)), ("straightforward", None)] {
                let mut not_rewritten = Vec::new();
                for case in all_cases() {
                    let run = run_case(&case, 30, 11, opts);
                    let (name, note) = (run.name, &run.note);
                    assert!(run.matches_vm, "{label} mode: case {name} diverges: {note:?}");
                    if run.mode.is_none() {
                        not_rewritten.push(run.name);
                    }
                }
                assert_eq!(not_rewritten, ["position", "trend", "functions"], "{label} mode");
            }
        });
    }

    #[test]
    fn majority_of_cases_fully_inline() {
        // Paper §5 reports 23/40 completely inlined; the join-graph rewrite
        // raises our count to [`EXPECTED_FULLY_INLINED`] (tracked in
        // EXPERIMENTS.md). Asserted exactly: a drop means a rewrite
        // regression, a rise means the constant needs re-recording.
        let (inlined, total) = on_big_stack(|| inline_statistics(20, 3));
        assert_eq!(total, 40);
        assert_eq!(
            inlined, EXPECTED_FULLY_INLINED,
            "fully-inlined count drifted from the recorded {EXPECTED_FULLY_INLINED}/40"
        );
    }

    #[test]
    fn planned_suite_reuses_prepared_plans() {
        on_big_stack(|| {
            let cache = SharedPlanCache::with_shards(xsltdb::DEFAULT_PLAN_CACHE_BYTES, 1);
            let first = run_suite_planned_shared(15, 9, &cache);
            for run in &first {
                assert!(run.matches_fresh, "case {} diverges: {:?}", run.name, run.note);
                assert!(run.matches_vm, "case {} diverges from VM: {:?}", run.name, run.note);
                assert!(
                    run.matches_streamed,
                    "case {} streams different bytes: {:?}",
                    run.name, run.note
                );
            }
            let after_first = cache.stats();
            assert_eq!(after_first.hits, 0);
            assert_eq!(after_first.misses as usize, first.len());
            // The second pass is served entirely from prepared plans and
            // still produces identical output everywhere.
            let second = run_suite_planned_shared(15, 9, &cache);
            for run in &second {
                assert!(run.matches_fresh, "cached case {} diverges: {:?}", run.name, run.note);
            }
            let after_second = cache.stats();
            assert_eq!(after_second.hits as usize, second.len());
            assert_eq!(after_second.misses as usize, first.len());
        });
    }

    #[test]
    fn recursion_cases_do_not_inline() {
        on_big_stack(|| {
            for name in ["bottles", "tower", "queens", "games"] {
                let run =
                    run_case(&crate::cases::case(name), 10, 1, Some(&RewriteOptions::default()));
                assert!(!run.fully_inlined, "{name} unexpectedly inlined");
                assert!(run.matches_vm, "{name} diverges: {:?}", run.note);
            }
        });
    }

    #[test]
    fn tier_statistics_cover_all_cases() {
        // The cases the join-graph lowering (ORDER BY on row sources,
        // positional context, comment/PI constructors) commits to SQL.
        let (_catalog, view) = crate::docgen::db_catalog(10, 2);
        for name in ["comments", "processes", "position", "trend", "stringsort"] {
            let plan = plan_transform(
                &view,
                &crate::cases::case(name).stylesheet,
                &RewriteOptions::default(),
            )
            .expect("case compiles");
            assert_eq!(plan.tier, Tier::Sql, "{name} left the SQL tier: {:?}", plan.fallback_reason);
        }
        let split = on_big_stack(|| tier_statistics(10, 2));
        assert_eq!(
            split, EXPECTED_TIER_SPLIT,
            "(sql, xquery, vm) tier split drifted from the recorded {EXPECTED_TIER_SPLIT:?}"
        );
    }

    #[test]
    fn dbonerow_parameterised_matches() {
        let rows = 50;
        let id = crate::docgen::existing_id(rows);
        let case = Case {
            name: "dbonerow",
            area: crate::cases::Area::Selection,
            stylesheet: dbonerow_stylesheet(id),
        };
        let run = run_case(&case, rows, 5, Some(&RewriteOptions::default()));
        assert!(run.matches_vm, "{:?}", run.note);
        assert!(run.fully_inlined);
    }
}
