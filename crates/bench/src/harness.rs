//! Shared setup for the benchmark harness: workloads, the two competing
//! execution paths (rewrite vs no-rewrite), and a tiny median timer for the
//! report binaries (Criterion drives the statistically careful runs; the
//! reports print paper-shaped tables quickly).

use std::sync::Arc;
use std::time::Instant;
use xsltdb::pipeline::{
    no_rewrite_transform, plan_bound, plan_cached, plan_cached_shared, plan_compiled, BoundPlan,
    Tier,
};
use xsltdb::plancache::{PlanCache, SharedPlanCache};
use xsltdb::xqgen::RewriteOptions;
use xsltdb_relstore::{CacheSnapshot, Catalog, ExecStats, StatsSnapshot, XmlView};
use xsltdb_xml::Document;
use xsltdb_xslt::{compile_str, Stylesheet};
use xsltdb_xsltmark::{case, db_catalog, dbonerow_stylesheet, existing_id};

/// A prepared workload: the relational backing plus the two plans.
pub struct Workload {
    pub name: String,
    pub rows: usize,
    pub catalog: Catalog,
    pub view: XmlView,
    pub stylesheet_src: String,
    pub sheet: Stylesheet,
    pub bound: BoundPlan,
}

impl Workload {
    /// Build a workload from a stylesheet over the db view at `rows`.
    pub fn new(name: &str, rows: usize, stylesheet: &str) -> Workload {
        let (catalog, view) = db_catalog(rows, 0xDB);
        let sheet = compile_str(stylesheet).expect("stylesheet compiles");
        let plan = Arc::new(
            plan_compiled(&view, sheet.clone(), &RewriteOptions::default())
                .expect("planning succeeds"),
        );
        let bound = plan.bind(&view, &catalog).expect("binding succeeds");
        Workload {
            name: name.to_string(),
            rows,
            catalog,
            view,
            stylesheet_src: stylesheet.to_string(),
            sheet,
            bound,
        }
    }

    /// The `dbonerow` workload of Figure 2 at a given row count.
    pub fn dbonerow(rows: usize) -> Workload {
        Workload::new("dbonerow", rows, &dbonerow_stylesheet(existing_id(rows)))
    }

    /// One of the named XSLTMark cases (Figure 3) at a given row count.
    pub fn xsltmark(name: &str, rows: usize) -> Workload {
        Workload::new(name, rows, &case(name).stylesheet)
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

    /// One **uncached** `transform()`-style call: pay the whole compile →
    /// partial-evaluate → rewrite pipeline and then execute. This is what
    /// every call costs without a PlanCache.
    pub fn run_uncached_call(&self) -> (Vec<Document>, StatsSnapshot) {
        let stats = ExecStats::new();
        let bound = plan_bound(
            &self.catalog,
            &self.view,
            &self.stylesheet_src,
            &RewriteOptions::default(),
        )
        .expect("planning succeeds");
        let docs = bound.execute(&self.catalog, &stats).expect("plan runs");
        (docs, stats.snapshot())
    }

    /// One **cached** call: look the prepared plan up in `cache` (planning
    /// only on a miss) and execute it. Repeat calls collapse to
    /// execution-only cost.
    pub fn run_cached_call(&self, cache: &mut PlanCache) -> (Vec<Document>, StatsSnapshot) {
        let stats = ExecStats::new();
        let bound = self.plan_cached(cache);
        let docs = bound.execute(&self.catalog, &stats).expect("plan runs");
        (docs, stats.snapshot())
    }

    /// The prepared plan for this workload, bound to its view, through
    /// `cache`.
    pub fn plan_cached(&self, cache: &mut PlanCache) -> BoundPlan {
        plan_cached(
            cache,
            &self.catalog,
            &self.view,
            &self.stylesheet_src,
            &RewriteOptions::default(),
        )
        .expect("planning succeeds")
    }

    /// The prepared plan for this workload, bound to its view, through a
    /// shared `cache`.
    pub fn plan_cached_shared(&self, cache: &SharedPlanCache) -> BoundPlan {
        plan_cached_shared(
            cache,
            &self.catalog,
            &self.view,
            &self.stylesheet_src,
            &RewriteOptions::default(),
        )
        .expect("planning succeeds")
    }

    pub fn tier(&self) -> Tier {
        self.bound.tier()
    }
}

/// Aggregate cost evidence for one cached-vs-uncached comparison, printed
/// by `cache_report` with the execution counters alongside the cache
/// counters.
#[derive(Debug, Clone, Copy)]
pub struct AmortizedCost {
    /// Median cost of a cold, uncached call (plan + execute), µs.
    pub cold_us: f64,
    /// Mean per-call cost over the warm, cached loop, µs.
    pub warm_us: f64,
    /// Cache counters after the warm loop.
    pub cache: CacheSnapshot,
}

impl AmortizedCost {
    /// `warm / cold` — the fraction of the cold cost a repeat call pays.
    pub fn ratio(&self) -> f64 {
        if self.cold_us <= 0.0 {
            f64::NAN
        } else {
            self.warm_us / self.cold_us
        }
    }
}

/// Measure the amortization the cache buys on `w`: the median cold
/// (uncached) per-call cost vs the mean per-call cost of `repeats` calls
/// sharing one cache (one miss, `repeats − 1` hits).
pub fn measure_amortization(w: &Workload, cold_iters: usize, repeats: usize) -> AmortizedCost {
    assert!(repeats > 0);
    let cold_us = median_micros(cold_iters, || {
        let _ = w.run_uncached_call();
    });
    let mut cache = PlanCache::default();
    let t0 = Instant::now();
    for _ in 0..repeats {
        let _ = w.run_cached_call(&mut cache);
    }
    let warm_us = t0.elapsed().as_secs_f64() * 1e6 / repeats as f64;
    AmortizedCost { cold_us, warm_us, cache: cache.stats() }
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
    fn cached_and_uncached_calls_agree() {
        let w = Workload::dbonerow(100);
        let mut cache = PlanCache::default();
        let (uncached, _) = w.run_uncached_call();
        for _ in 0..3 {
            let (cached, _) = w.run_cached_call(&mut cache);
            let c: Vec<String> = cached.iter().map(xsltdb_xml::to_string).collect();
            let u: Vec<String> = uncached.iter().map(xsltdb_xml::to_string).collect();
            assert_eq!(c, u);
        }
        let snap = cache.stats();
        assert_eq!((snap.hits, snap.misses), (2, 1));
    }

    #[test]
    fn amortization_measure_counts_one_miss() {
        let w = Workload::dbonerow(100);
        let cost = measure_amortization(&w, 3, 5);
        assert_eq!(cost.cache.misses, 1);
        assert_eq!(cost.cache.hits, 4);
        assert!(cost.cold_us > 0.0 && cost.warm_us > 0.0);
        assert!(cost.ratio().is_finite());
    }

    #[test]
    fn shared_cached_calls_agree_with_exclusive_ones() {
        let w = Workload::dbonerow(100);
        let shared = SharedPlanCache::default();
        let mut exclusive = PlanCache::default();
        let (expected, _) = w.run_cached_call(&mut exclusive);
        let expected: Vec<String> = expected.iter().map(xsltdb_xml::to_string).collect();
        for _ in 0..3 {
            let docs = w.plan_cached_shared(&shared).execute(&w.catalog, &ExecStats::new());
            let got: Vec<String> = docs.unwrap().iter().map(xsltdb_xml::to_string).collect();
            assert_eq!(got, expected);
        }
        assert_eq!((shared.stats().hits, shared.stats().misses), (2, 1));
    }

    #[test]
    fn median_timer_is_sane() {
        let m = median_micros(5, || {
            std::hint::black_box(1 + 1);
        });
        assert!(m >= 0.0);
    }
}
