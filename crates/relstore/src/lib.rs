//! # xsltdb-relstore
//!
//! The relational storage substrate standing in for Oracle in the
//! reproduction: heap tables, per-column B-tree indexes, an iterator-based
//! pull executor with an access-path planner, SQL/XML publishing
//! expressions (`XMLElement`, `XMLAgg`, `XMLConcat`, `XMLAttributes`,
//! scalar `count`/`sum` subqueries), XMLType views over tables, and
//! execution statistics that make index usage observable.
//!
//! The paper's performance claims rest on two properties this crate
//! reproduces exactly: rewritten queries (Table 7 / Table 11) reach B-tree
//! indexes for their value predicates, and they never materialise the
//! intermediate XML documents the functional evaluation would build.
//!
//! ```
//! use xsltdb_relstore::{Catalog, Table, ColType, Datum, Conjunction, ExecStats};
//! use xsltdb_relstore::exec::scan;
//! use xsltdb_xpath::CmpOp;
//!
//! let mut emp = Table::new("emp", &[("sal", ColType::Int)]);
//! emp.insert(vec![Datum::Int(2450)]).unwrap();
//! emp.insert(vec![Datum::Int(1300)]).unwrap();
//! let mut cat = Catalog::new();
//! cat.add_table(emp);
//! cat.create_index("emp", "sal").unwrap();
//!
//! let stats = ExecStats::new();
//! let (rows, path) = scan(&cat, &stats, "emp",
//!     &Conjunction::single("sal", CmpOp::Gt, Datum::Int(2000))).unwrap();
//! assert_eq!(rows.len(), 1);
//! assert_eq!(stats.snapshot().index_probes, 1); // B-tree, not a scan
//! # let _ = path;
//! ```

pub mod binding;
pub mod catalog;
pub mod datum;
pub mod exec;
pub mod index;
pub mod page;
pub mod pool;
pub mod pubexpr;
pub mod sqlpretty;
pub mod stats;
pub mod table;
pub mod view;

pub use binding::{fnv64, is_slot, slot_name, SlotBindings};
pub use catalog::{Catalog, TableMeta, TableVersion};
pub use datum::{ColType, Datum, DatumKey};
pub use exec::{scan_guarded, AccessPath, ColumnCmp, Conjunction};
pub use index::Index;
pub use page::PAGE_SIZE;
pub use pool::{BufferPool, HeapFile, PageGuard, PageId};
pub use pubexpr::{AggFunc, AggOrder, AggPredTerm, PubExpr, SqlXmlQuery};
pub use sqlpretty::sql_text;
pub use stats::{CacheSnapshot, CacheStats, ExecStats, PoolSnapshot, PoolStats, StatsSnapshot};
pub use table::{Column, RowId, RowCursor, StoreError, Table};
pub use view::XmlView;
