//! # xsltdb-xsltmark
//!
//! The benchmark workload of the paper's evaluation (§5): forty stylesheets
//! re-authored after the XSLTMark suite's case list and functional areas
//! (the original DataPower distribution is no longer available — see
//! DESIGN.md for the substitution note), plus deterministic generators for
//! the `db` document family both as XML text and as relationally backed
//! publishing views.
//!
//! ```
//! use xsltdb::xqgen::RewriteOptions;
//! use xsltdb_xsltmark::{case, run_case};
//!
//! // One case, one small document: the rewrite path must agree with the
//! // functional (XSLTVM) evaluation byte for byte.
//! let run = run_case(&case("chart"), 12, 7, Some(&RewriteOptions::default()));
//! assert!(run.matches_vm, "{:?}", run.note);
//! assert!(run.fully_inlined);
//! ```

pub mod cases;
pub mod docgen;
pub mod suite;

pub use cases::{all_cases, case, Area, Case};
pub use docgen::{
    db_catalog, db_catalog_family, db_catalog_paged, db_catalog_unindexed, db_rows,
    db_struct_info, db_xml, existing_id, DbRow, DB_DTD,
};
pub use suite::{
    dbonerow_stylesheet, inline_statistics, run_case, run_suite, run_suite_planned_shared,
    tier_statistics, CaseRun, PlannedRun, EXPECTED_FULLY_INLINED, EXPECTED_TIER_SPLIT,
};
