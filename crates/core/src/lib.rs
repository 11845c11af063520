//! # xsltdb
//!
//! Reproduction of *"Efficient XSLT Processing in Relational Database
//! System"* (Liu & Novoselsky, VLDB 2006): XSLT stylesheets are rewritten
//! into XQuery by **partially evaluating** them over the input XMLType's
//! structural information, and the XQuery is rewritten further into a
//! SQL/XML query over the underlying relational storage — where B-tree
//! indexes and aggregation do the work the functional XSLT evaluation
//! would have done by materialising documents and walking DOM trees.
//!
//! * [`pe`] — partial evaluation: sample-document tracing and the template
//!   execution graph (paper §4);
//! * [`xqgen`] — XQuery generation: inline / non-inline / straightforward
//!   modes with the §3.3–3.7 optimisations;
//! * [`sqlrewrite`] — XQuery → SQL/XML over publishing views (Tables 7/11);
//! * [`pipeline`] — the tiered execution engine and the no-rewrite
//!   baseline used throughout the evaluation;
//! * [`combined`] — cross-language composition of XQuery over XSLT views
//!   (paper §2.2, Example 2).
//!
//! ```
//! use xsltdb::xqgen::{rewrite, RewriteOptions};
//! use xsltdb_structinfo::struct_of_dtd;
//! use xsltdb_xml::{Guard, StreamWriter};
//! use xsltdb_xquery::{evaluate_query_to_sink, NodeHandle};
//!
//! // Structural information from a DTD (paper §3.2, bullet 1)…
//! let info = struct_of_dtd(
//!     "<!ELEMENT emp (ename, sal)> <!ELEMENT ename (#PCDATA)> <!ELEMENT sal (#PCDATA)>",
//!     "emp",
//! ).unwrap();
//! // …drives partial evaluation of a stylesheet into an inlined XQuery…
//! let sheet = xsltdb_xslt::compile_str(
//!     r#"<xsl:stylesheet version="1.0"
//!          xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
//!          <xsl:template match="emp"><p><xsl:value-of select="ename"/></p></xsl:template>
//!        </xsl:stylesheet>"#,
//! ).unwrap();
//! let outcome = rewrite(&sheet, &info, &RewriteOptions::default()).unwrap();
//! assert!(outcome.fully_inlined());
//! // …whose output equals the functional evaluation.
//! let doc = xsltdb_xml::parse_xml("<emp><ename>CLARK</ename><sal>2450</sal></emp>").unwrap();
//! let input = NodeHandle::document(doc);
//! let mut out = StreamWriter::new(Vec::new(), Guard::unlimited());
//! evaluate_query_to_sink(&outcome.query, Some(input), Vec::new(), Guard::unlimited(), &mut out)
//!     .unwrap();
//! assert_eq!(out.finish().unwrap(), b"<p>CLARK</p>");
//! ```

pub mod admission;
pub mod combined;
pub mod error;
pub mod guard;
mod lru;
pub mod pe;
pub mod pipeline;
pub mod plancache;
pub mod projection;
pub mod resultcache;
pub mod sqlrewrite;
pub mod translate;
pub mod xqgen;

pub use admission::{AdmissionConfig, AdmissionQueue, AdmissionStats, Permit, Rejected};
pub use error::{PipelineError, RewriteError, TierFailure};
pub use guard::{FaultKind, FaultPoint, Guard, GuardExceeded, Limits, Resource};
pub use pe::{partial_evaluate, ExecGraph, PeResult};
pub use pipeline::{
    no_rewrite_transform, plan_bound, plan_cached_shared, plan_transform, BaselineRun,
    BoundPlan, StreamRun, Tier, TransformPlan,
};
pub use plancache::{
    fnv64, plan_cost, struct_fingerprint, PlanKey, SharedPlanCache,
    DEFAULT_PLAN_CACHE_BYTES, DEFAULT_PLAN_CACHE_SHARDS,
};
pub use resultcache::{
    CachedResult, ResultKey, SharedResultCache, DEFAULT_RESULT_CACHE_BYTES,
    DEFAULT_RESULT_CACHE_SHARDS,
};
pub use sqlrewrite::rewrite_to_sql;
pub use xqgen::{rewrite, rewrite_straightforward, RewriteMode, RewriteOptions, RewriteOutcome};
