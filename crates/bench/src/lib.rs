//! # xsltdb-bench
//!
//! The benchmark harness regenerating every figure and table of the
//! paper's evaluation (§5). Criterion benches (`benches/`) provide the
//! statistically careful measurements; the report binaries (`src/bin/`)
//! print paper-shaped tables:
//!
//! * `fig2_report` — `dbonerow` rewrite vs no-rewrite across document
//!   sizes (Figure 2);
//! * `fig3_report` — `avts` / `chart` / `metric` / `total` rewrite vs
//!   no-rewrite (Figure 3);
//! * `inline_report` — the 40-case inline statistic (§5, objective 2).
//!
//! ```
//! use xsltdb::SharedPlanCache;
//! use xsltdb_bench::Workload;
//! use xsltdb_relstore::ExecStats;
//!
//! // Repeat calls through one cache hit the prepared plan.
//! let w = Workload::dbonerow(50);
//! let cache = SharedPlanCache::default();
//! let render = |bound: xsltdb::BoundPlan| -> Vec<String> {
//!     let docs = bound.execute(&w.catalog, &ExecStats::new()).unwrap();
//!     docs.iter().map(xsltdb_xml::to_string).collect()
//! };
//! let first = render(w.plan_cached_shared(&cache));
//! let second = render(w.plan_cached_shared(&cache));
//! assert_eq!(first, second);
//! assert_eq!(cache.stats().hits, 1);
//! ```

pub mod chaos;
pub mod harness;

pub use chaos::{reference_outputs, run_chaos, ChaosConfig, ChaosReport, CHAOS_STACK};
pub use harness::{median_micros, Workload};

/// Write a machine-readable benchmark artefact (`BENCH_*.json`) to the
/// repository root (or wherever the report is run from) and say so — the
/// perf-trajectory files CI and humans diff across PRs.
pub fn write_bench_json(path: &str, body: &str) {
    match std::fs::write(path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}
