//! # xsltdb-xpath
//!
//! An XPath 1.0 engine over the `xsltdb-xml` arena document model: lexer,
//! parser, all thirteen axes (minus the namespace axis), the core function
//! library, XPath 1.0 value semantics, and XSLT match patterns with default
//! priorities.
//!
//! Two features exist specifically for the paper's partial-evaluation
//! pipeline:
//!
//! * [`eval::Env::assume_predicates`] — predicate tests evaluate to `true`
//!   and are kept as *residuals* by the XQuery generator (paper §4.1);
//! * [`ast::Expr::is_value_dependent`] — classifies predicates as value
//!   dependent (must stay residual) versus purely structural.
//!
//! ```
//! use xsltdb_xml::parse::parse;
//! use xsltdb_xpath::eval::{evaluate_str, Ctx, Env};
//! use xsltdb_xml::NodeId;
//!
//! let doc = parse("<emp><sal>2450</sal></emp>").unwrap();
//! let env = Env::default();
//! let ctx = Ctx::new(&doc, NodeId::DOCUMENT, &env);
//! let v = evaluate_str("/emp/sal > 2000", &ctx).unwrap();
//! assert!(v.boolean());
//! ```

pub mod ast;
pub mod axes;
pub mod eval;
pub mod functions;
pub mod lexer;
pub mod parser;
pub mod pattern;
pub mod value;

pub use ast::{Axis, BinOp, Expr, LocationPath, NodeTest, Step};
pub use eval::{evaluate, evaluate_str, Ctx, Env, NoVars, VarResolver, XPathError};
pub use parser::{parse_expr, XPathParseError};
pub use pattern::{PathPattern, Pattern, PatternStep};
pub use value::{arith, compare, ArithOp, CmpOp, Operand, Value};
