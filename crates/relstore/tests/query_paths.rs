//! Access-path behaviour of full SQL/XML queries: base-table filtering,
//! EXPLAIN-style path reporting, and the interplay of indexes with
//! publishing.

use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{PubExpr, SqlXmlQuery};
use xsltdb_relstore::{AccessPath, Catalog, ColType, Datum, ExecStats, SlotBindings, Table};
use xsltdb_xpath::CmpOp;

fn catalog() -> Catalog {
    let mut t = Table::new("emp", &[("empno", ColType::Int), ("sal", ColType::Int)]);
    for (no, sal) in [(1, 100), (2, 2500), (3, 900), (4, 4100)] {
        t.insert(vec![Datum::Int(no), Datum::Int(sal)]).unwrap();
    }
    let mut c = Catalog::new();
    c.add_table(t);
    c.create_index("emp", "empno").unwrap();
    c
}

#[test]
fn base_table_where_uses_index() {
    let c = catalog();
    let q = SqlXmlQuery {
        base_table: "emp".into(),
        where_clause: Conjunction::single("empno", CmpOp::Eq, Datum::Int(3)),
        order_by: Vec::new(),
        select: PubExpr::elem("e", vec![PubExpr::col("emp", "sal")]),
    };
    assert_eq!(
        q.explain_base_path(&c, &SlotBindings::identity()).unwrap(),
        AccessPath::IndexEq { column: "empno".into() }
    );
    let stats = ExecStats::new();
    let docs = q.execute(&c, &stats).unwrap();
    assert_eq!(docs.len(), 1);
    assert_eq!(xsltdb_xml::to_string(&docs[0]), "<e>900</e>");
    assert_eq!(stats.snapshot().rows_scanned, 0);
}

#[test]
fn unindexed_filter_full_scans() {
    let c = catalog();
    let q = SqlXmlQuery {
        base_table: "emp".into(),
        where_clause: Conjunction::single("sal", CmpOp::Gt, Datum::Int(1000)),
        order_by: Vec::new(),
        select: PubExpr::elem("e", vec![PubExpr::col("emp", "empno")]),
    };
    assert_eq!(
        q.explain_base_path(&c, &SlotBindings::identity()).unwrap(),
        AccessPath::FullScan
    );
    let stats = ExecStats::new();
    let docs = q.execute(&c, &stats).unwrap();
    assert_eq!(docs.len(), 2);
    assert_eq!(stats.snapshot().rows_scanned, 4);
}

#[test]
fn elements_built_counter() {
    let c = catalog();
    let q = SqlXmlQuery {
        base_table: "emp".into(),
        where_clause: Conjunction::default(),
        order_by: Vec::new(),
        select: PubExpr::elem(
            "e",
            vec![PubExpr::elem("n", vec![PubExpr::col("emp", "empno")])],
        ),
    };
    let stats = ExecStats::new();
    q.execute(&c, &stats).unwrap();
    // Two elements per row, four rows.
    assert_eq!(stats.snapshot().elements_built, 8);
}

#[test]
fn unknown_base_table_errors() {
    let c = catalog();
    let q = SqlXmlQuery {
        base_table: "missing".into(),
        where_clause: Conjunction::default(),
        order_by: Vec::new(),
        select: PubExpr::lit("x"),
    };
    assert!(q.execute(&c, &ExecStats::new()).is_err());
}

#[test]
fn unknown_column_in_predicate_errors_cleanly() {
    let c = catalog();
    let q = SqlXmlQuery {
        base_table: "emp".into(),
        where_clause: Conjunction::single("ghost", CmpOp::Eq, Datum::Int(1)),
        order_by: Vec::new(),
        select: PubExpr::lit("x"),
    };
    // The residual filter path swallows per-row errors as non-matches; the
    // planner's scan interface surfaces them on full scans.
    if let Ok(docs) = q.execute(&c, &ExecStats::new()) {
        // Surfacing an error is also acceptable; a success must be empty.
        assert!(docs.is_empty());
    }
}
