//! Reproduction of the paper's Example 2 (§2.2, Tables 9–11): an XQuery
//! over an *XSLT view* is composed with the stylesheet's rewritten query
//! and the composition is rewritten to the optimal SQL/XML query of
//! Table 11 — a plain relational aggregate over `emp` with the value
//! predicate and the correlation, no XSLT and no intermediate XML.

use xsltdb::combined::compose_over_xslt_view;
use xsltdb::pipeline::no_rewrite_transform;
use xsltdb::sqlrewrite::rewrite_to_sql;
use xsltdb::xqgen::{rewrite, RewriteOptions};
use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{AggPredTerm, PubExpr, SqlXmlQuery};
use xsltdb_relstore::{Catalog, ColType, Datum, ExecStats, Table, XmlView};
use xsltdb_structinfo::struct_of_view;
use xsltdb_xml::{to_string, Guard, StreamWriter};
use xsltdb_xquery::{evaluate_query_to_sink, parse_query, NodeHandle};
use xsltdb_xslt::compile_str;

fn paper_catalog() -> Catalog {
    let mut dept = Table::new(
        "dept",
        &[("deptno", ColType::Int), ("dname", ColType::Text), ("loc", ColType::Text)],
    );
    for (no, dn, loc) in [(10, "ACCOUNTING", "NEW YORK"), (40, "OPERATIONS", "BOSTON")] {
        dept.insert(vec![Datum::Int(no), Datum::Text(dn.into()), Datum::Text(loc.into())])
            .unwrap();
    }
    let mut emp = Table::new(
        "emp",
        &[
            ("empno", ColType::Int),
            ("ename", ColType::Text),
            ("sal", ColType::Int),
            ("deptno", ColType::Int),
        ],
    );
    for (no, en, sal, d) in [
        (7782, "CLARK", 2450, 10),
        (7934, "MILLER", 1300, 10),
        (7954, "SMITH", 4900, 40),
    ] {
        emp.insert(vec![Datum::Int(no), Datum::Text(en.into()), Datum::Int(sal), Datum::Int(d)])
            .unwrap();
    }
    let mut c = Catalog::new();
    c.add_table(dept);
    c.add_table(emp);
    c.create_index("emp", "sal").unwrap();
    c.create_index("emp", "deptno").unwrap();
    c
}

fn dept_emp_view() -> XmlView {
    XmlView::new(
        "dept_emp",
        SqlXmlQuery {
            base_table: "dept".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: PubExpr::elem(
                "dept",
                vec![
                    PubExpr::elem("dname", vec![PubExpr::col("dept", "dname")]),
                    PubExpr::elem("loc", vec![PubExpr::col("dept", "loc")]),
                    PubExpr::elem(
                        "employees",
                        vec![PubExpr::Agg {
                            table: "emp".into(),
                            predicate: vec![AggPredTerm::Correlate {
                                inner_column: "deptno".into(),
                                outer_table: "dept".into(),
                                outer_column: "deptno".into(),
                            }],
                            order_by: Vec::new(),
                            limit: None,
                            body: Box::new(PubExpr::elem(
                                "emp",
                                vec![
                                    PubExpr::elem("empno", vec![PubExpr::col("emp", "empno")]),
                                    PubExpr::elem("ename", vec![PubExpr::col("emp", "ename")]),
                                    PubExpr::elem("sal", vec![PubExpr::col("emp", "sal")]),
                                ],
                            )),
                        }],
                    ),
                ],
            ),
        },
    )
}

const STYLESHEET: &str = r#"<xsl:stylesheet version="1.0"
xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="dept">
<H1>HIGHLY PAID DEPT EMPLOYEES</H1>
<xsl:apply-templates/>
</xsl:template>
<xsl:template match="dname"/>
<xsl:template match="loc"/>
<xsl:template match="employees">
<table border="2">
<xsl:apply-templates select="emp[sal &gt; 2000]"/>
</table>
</xsl:template>
<xsl:template match="emp">
<tr>
<td><xsl:value-of select="empno"/></td>
<td><xsl:value-of select="ename"/></td>
<td><xsl:value-of select="sal"/></td>
</tr>
</xsl:template>
</xsl:stylesheet>"#;

/// Table 10's user query over the XSLT view.
const USER_QUERY: &str = "for $tr in ./table/tr return $tr";

#[test]
fn composition_produces_table11_sql() {
    let view = dept_emp_view();
    let info = struct_of_view(&view).unwrap();
    let sheet = compile_str(STYLESHEET).unwrap();
    let xslt_q = rewrite(&sheet, &info, &RewriteOptions::default()).unwrap();
    assert!(xslt_q.fully_inlined());

    let user_q = parse_query(USER_QUERY).unwrap();
    let composed = compose_over_xslt_view(&user_q, &xslt_q.query).unwrap();
    let printed = xsltdb_xquery::pretty_query(&composed);
    // The H1 and the table wrapper are gone — only tr construction remains.
    assert!(!printed.contains("H1"), "{printed}");
    assert!(!printed.contains("<table"), "{printed}");
    assert!(printed.contains("emp[sal > 2000]"), "{printed}");

    let sql = rewrite_to_sql(&composed, &info).unwrap();
    let text = xsltdb_relstore::sql_text(&sql);
    // Table 11: XMLAgg of tr rows from emp with both predicates, per dept.
    assert!(text.contains("SELECT"), "{text}");
    assert!(text.contains("SAL > 2000"), "{text}");
    assert!(text.contains("DEPTNO = DEPT.DEPTNO"), "{text}");
    assert!(text.contains("FROM DEPT"), "{text}");
    assert!(!text.contains("H1"), "{text}");
}

#[test]
fn composed_sql_matches_query_over_materialized_xslt_view() {
    let catalog = paper_catalog();
    let view = dept_emp_view();
    let info = struct_of_view(&view).unwrap();
    let sheet = compile_str(STYLESHEET).unwrap();
    let stats = ExecStats::new();

    // Reference: run the XSLT view functionally, then evaluate the user
    // query over each result document.
    let xslt_out = no_rewrite_transform(&catalog, &view, &sheet, &stats).unwrap();
    let user_q = parse_query(USER_QUERY).unwrap();
    let mut expected = Vec::new();
    for doc in xslt_out.documents {
        let mut out = StreamWriter::new(Vec::new(), Guard::unlimited());
        let input = Some(NodeHandle::document(doc));
        evaluate_query_to_sink(&user_q, input, Vec::new(), Guard::unlimited(), &mut out).unwrap();
        expected.push(String::from_utf8(out.finish().unwrap()).unwrap());
    }

    // Optimised: compose and run as SQL.
    let xslt_q = rewrite(&sheet, &info, &RewriteOptions::default()).unwrap();
    let composed =
        compose_over_xslt_view(&parse_query(USER_QUERY).unwrap(), &xslt_q.query).unwrap();
    let sql = rewrite_to_sql(&composed, &info).unwrap();
    stats.reset();
    let docs = sql.execute(&catalog, &stats).unwrap();
    let got: Vec<String> = docs.iter().map(to_string).collect();
    assert_eq!(got, expected);
    // The optimal plan still uses the B-tree for the correlated probe.
    assert!(stats.snapshot().index_probes >= 2);
}

#[test]
fn structure_of_xslt_view_derivable_by_static_typing() {
    // §3.2 bullet 4: the structure of the XSLT view output comes from the
    // static type of its rewritten query.
    let view = dept_emp_view();
    let info = struct_of_view(&view).unwrap();
    let sheet = compile_str(STYLESHEET).unwrap();
    let xslt_q = rewrite(&sheet, &info, &RewriteOptions::default()).unwrap();
    let out_info = xsltdb_structinfo::struct_of_query_result(&xslt_q.query.body).unwrap();
    // The result structure contains the table/tr hierarchy.
    let table = out_info.root.child("table").expect("table in result structure");
    let tr = table.decl.child("tr").expect("tr under table");
    assert!(tr.card.is_many() || tr.decl.child("td").is_some());
}
