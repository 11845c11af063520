//! # xsltdb-bench
//!
//! The benchmark harness for the paper's evaluation (§5) and the chaos
//! harness for the serving front door. Criterion benches (`benches/`)
//! provide the statistically careful measurements; the report binaries
//! (`src/bin/`) print paper-shaped tables:
//!
//! * `fig2_report` — `dbonerow` rewrite vs no-rewrite across document
//!   sizes (Figure 2);
//! * `fig3_report` — `avts` / `chart` / `metric` / `total` rewrite vs
//!   no-rewrite (Figure 3);
//! * `combined_report` — the combined XSLT∘XQuery optimisation
//!   (Example 2).

pub mod chaos;
pub mod harness;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport, CHAOS_STACK};
pub use harness::{median_micros, Workload};
