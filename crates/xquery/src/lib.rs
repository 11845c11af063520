//! # xsltdb-xquery
//!
//! The XQuery subset that serves as the paper's *intermediate language*
//! (§3, §6): XSLT stylesheets are rewritten into these queries, which are
//! then either rewritten further into SQL/XML over relational storage or
//! evaluated directly over materialised documents.
//!
//! Provides the AST ([`ast`]), a parser ([`parser`]), a Table-8-style
//! pretty-printer ([`pretty`]), a sequence-semantics evaluator ([`eval`])
//! with the `fn:` library ([`functions`]), and static structural typing
//! ([`typing`]) used when a transformation consumes the output of another
//! query (paper Example 2).
//!
//! There is one way to run a query, [`evaluate_query_to_sink`]; the sink
//! decides whether the result is bytes, a document or a string value.
//!
//! ```
//! use xsltdb_xml::{Guard, StreamWriter};
//! use xsltdb_xquery::{parse_query, evaluate_query_to_sink, NodeHandle};
//!
//! let q = parse_query("for $e in /dept/emp where $e/sal > 2000 return <hi>{fn:string($e/sal)}</hi>").unwrap();
//! let doc = xsltdb_xml::parse::parse("<dept><emp><sal>2450</sal></emp><emp><sal>1300</sal></emp></dept>").unwrap();
//! let mut out = StreamWriter::new(Vec::new(), Guard::unlimited());
//! evaluate_query_to_sink(&q, Some(NodeHandle::document(doc)), Vec::new(), Guard::unlimited(), &mut out)
//!     .unwrap();
//! assert_eq!(out.finish().unwrap(), b"<hi>2450</hi>");
//! ```

pub mod ast;
pub mod emission;
pub mod eval;
pub mod functions;
pub mod parser;
pub mod pretty;
pub mod typing;

pub use ast::{
    AttrValuePart, Clause, FunctionDecl, OrderSpec, PathStart, SeqType, VarDecl, XQuery, XqExpr,
    XqStep,
};
pub use emission::{analyze_query, EmissionReport};
pub use eval::{evaluate_query_to_sink, Item, NodeHandle, Sequence, SinkRun, XqError};
pub use parser::{parse_expr as parse_xq_expr, parse_query, XqParseError};
pub use pretty::{pretty, pretty_query};
