//! Shared setup for the benchmark harness: workloads, the two competing
//! execution paths (rewrite vs no-rewrite), and a tiny median timer for the
//! report binaries (Criterion drives the statistically careful runs; the
//! reports print paper-shaped tables quickly).

use std::sync::Arc;
use std::time::Instant;
use xsltdb::pipeline::{no_rewrite_transform, plan_compiled, BoundPlan, Tier};
use xsltdb::xqgen::RewriteOptions;
use xsltdb_relstore::{Catalog, ExecStats, StatsSnapshot, XmlView};
use xsltdb_xml::Document;
use xsltdb_xslt::{compile_str, Stylesheet};
use xsltdb_xsltmark::{case, db_catalog, dbonerow_stylesheet, existing_id};

/// A prepared workload: the relational backing plus the two plans.
pub struct Workload {
    pub catalog: Catalog,
    pub view: XmlView,
    pub sheet: Stylesheet,
    pub bound: BoundPlan,
}

impl Workload {
    /// Build a workload from a stylesheet over the db view at `rows`.
    fn new(rows: usize, stylesheet: &str) -> Workload {
        let (catalog, view) = db_catalog(rows, 0xDB);
        let sheet = compile_str(stylesheet).expect("stylesheet compiles");
        let plan = Arc::new(
            plan_compiled(&view, sheet.clone(), &RewriteOptions::default())
                .expect("planning succeeds"),
        );
        let bound = plan.bind(&view, &catalog).expect("binding succeeds");
        Workload { catalog, view, sheet, bound }
    }

    /// The `dbonerow` workload of Figure 2 at a given row count.
    pub fn dbonerow(rows: usize) -> Workload {
        Workload::new(rows, &dbonerow_stylesheet(existing_id(rows)))
    }

    /// One of the named XSLTMark cases (Figure 3) at a given row count.
    pub fn xsltmark(name: &str, rows: usize) -> Workload {
        Workload::new(rows, &case(name).stylesheet)
    }

    /// Execute the rewrite path once; returns the documents and counters.
    pub fn run_rewrite(&self) -> (Vec<Document>, StatsSnapshot) {
        let stats = ExecStats::new();
        let docs = self.bound.execute(&self.catalog, &stats).expect("rewrite path runs");
        (docs, stats.snapshot())
    }

    /// Execute the no-rewrite baseline once (materialise + XSLTVM).
    pub fn run_baseline(&self) -> (Vec<Document>, StatsSnapshot) {
        let stats = ExecStats::new();
        let run = no_rewrite_transform(&self.catalog, &self.view, &self.sheet, &stats)
            .expect("baseline runs");
        (run.documents, stats.snapshot())
    }

    pub fn tier(&self) -> Tier {
        self.bound.tier()
    }
}

/// Median wall-clock over `iters` runs, in microseconds.
pub fn median_micros(iters: usize, mut f: impl FnMut()) -> f64 {
    assert!(iters > 0);
    let mut times: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dbonerow_workload_reaches_sql_tier() {
        let w = Workload::dbonerow(200);
        assert_eq!(w.tier(), Tier::Sql, "fallback: {:?}", w.bound.fallback_reason());
        let (rw, rw_stats) = w.run_rewrite();
        let (bl, _) = w.run_baseline();
        let rws: Vec<String> = rw.iter().map(xsltdb_xml::to_string).collect();
        let bls: Vec<String> = bl.iter().map(xsltdb_xml::to_string).collect();
        assert_eq!(rws, bls);
        // The rewrite probes the id index instead of scanning 200 rows.
        assert!(rw_stats.index_probes >= 1);
        assert!(rw_stats.rows_scanned < 200);
    }

    #[test]
    fn fig3_cases_reach_a_rewrite_tier_and_agree() {
        for name in ["avts", "chart", "metric", "total"] {
            let w = Workload::xsltmark(name, 100);
            assert_ne!(
                w.tier(),
                Tier::Vm,
                "{name} fell to VM: {:?}",
                w.bound.fallback_reason()
            );
            let (rw, _) = w.run_rewrite();
            let (bl, _) = w.run_baseline();
            let rws: Vec<String> = rw.iter().map(xsltdb_xml::to_string).collect();
            let bls: Vec<String> = bl.iter().map(xsltdb_xml::to_string).collect();
            assert_eq!(rws, bls, "{name} rewrite disagrees with baseline");
        }
    }

    #[test]
    fn median_timer_is_sane() {
        let m = median_micros(5, || {
            std::hint::black_box(1 + 1);
        });
        assert!(m >= 0.0);
    }
}
