//! # xsltdb-xml
//!
//! XML substrate for the `xsltdb` reproduction of *"Efficient XSLT
//! Processing in Relational Database System"* (Liu & Novoselsky, VLDB 2006):
//! an arena-based document model, a non-validating parser, a serializer, and
//! a document builder.
//!
//! Documents are append-only and immutable once built, so node-id order is
//! document order — the property the XPath engine exploits to keep node-sets
//! sorted cheaply.
//!
//! ```
//! use xsltdb_xml::{parse, serialize};
//!
//! let doc = parse::parse("<dept><dname>ACCOUNTING</dname></dept>").unwrap();
//! let root = doc.root_element().unwrap();
//! assert_eq!(doc.string_value(root), "ACCOUNTING");
//! assert_eq!(serialize::to_string(&doc), "<dept><dname>ACCOUNTING</dname></dept>");
//! ```

pub mod builder;
pub mod escape;
pub mod guard;
pub mod model;
pub mod qname;
pub mod serialize;
pub mod sink;

/// Parser module, re-exported under a short name.
pub mod parse {
    pub use crate::parser::*;
}
mod parser;

pub use builder::TreeBuilder;
pub use guard::{FaultKind, FaultPoint, Guard, GuardExceeded, Limits, Resource};
pub use model::{DocRc, Document, Node, NodeId, NodeKind};
pub use parser::{
    parse as parse_xml, parse_trimmed, parse_with_depth_limit, ParseError, DEFAULT_MAX_DEPTH,
};
pub use qname::{QName, XDB_NS, XSL_NS};
pub use serialize::{node_to_string, to_pretty_string, to_string};
pub use sink::{replay_subtree, SinkError, StreamWriter, TextSink, TreeSink, XmlSink};
