//! The paper's Example 2 (§2.2): cross-language combined optimisation.
//!
//! An XSLT view (`xslt_vu`, Table 9) is wrapped by a further XQuery
//! (Table 10). The composition of the two rewrites produces the optimal
//! SQL/XML query of Table 11 — a relational aggregate over `emp` with the
//! value predicate and correlation, with no XSLT processing and no
//! intermediate XML at all.
//!
//! Run with: `cargo run --example combined_query`

use xsltdb::combined::compose_over_xslt_view;
use xsltdb::sqlrewrite::rewrite_to_sql;
use xsltdb::xqgen::{rewrite, RewriteOptions};
use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{AggPredTerm, PubExpr, SqlXmlQuery};
use xsltdb_relstore::{sql_text, Catalog, ColType, Datum, ExecStats, Table, XmlView};
use xsltdb_structinfo::struct_of_view;
use xsltdb_xml::to_string;
use xsltdb_xquery::{parse_query, pretty_query};
use xsltdb_xslt::compile_str;

fn main() {
    // Relational data and the dept_emp view (as in the quickstart).
    let mut dept = Table::new(
        "dept",
        &[("deptno", ColType::Int), ("dname", ColType::Text)],
    );
    dept.insert(vec![Datum::Int(10), Datum::Text("ACCOUNTING".into())])
        .expect("row matches schema");
    dept.insert(vec![Datum::Int(40), Datum::Text("OPERATIONS".into())])
        .expect("row matches schema");
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
            .expect("row matches schema");
    }
    let mut catalog = Catalog::new();
    catalog.add_table(dept);
    catalog.add_table(emp);
    catalog.create_index("emp", "sal").expect("column exists");
    catalog.create_index("emp", "deptno").expect("column exists");

    let view = XmlView::new(
        "dept_emp",
        SqlXmlQuery {
            base_table: "dept".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: PubExpr::elem(
                "dept",
                vec![
                    PubExpr::elem("dname", vec![PubExpr::col("dept", "dname")]),
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
    );

    // Table 9: the XSLT view.
    let stylesheet = r#"<xsl:stylesheet version="1.0"
xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="dept">
<H1>HIGHLY PAID DEPT EMPLOYEES</H1>
<xsl:apply-templates/>
</xsl:template>
<xsl:template match="dname"/>
<xsl:template match="employees">
<table border="2"><xsl:apply-templates select="emp[sal &gt; 2000]"/></table>
</xsl:template>
<xsl:template match="emp">
<tr><td><xsl:value-of select="empno"/></td>
<td><xsl:value-of select="ename"/></td>
<td><xsl:value-of select="sal"/></td></tr>
</xsl:template>
</xsl:stylesheet>"#;

    let info = struct_of_view(&view).expect("view-derived structure");
    let sheet = compile_str(stylesheet).expect("stylesheet compiles");
    let xslt_q = rewrite(&sheet, &info, &RewriteOptions::default()).expect("XSLT rewrites");

    // Table 10: the user query over the XSLT view.
    let user_src = "for $tr in ./table/tr return $tr";
    let user_q = parse_query(user_src).expect("user query parses");
    println!("=== Table 10: user XQuery over the XSLT view ===\n\n{user_src}\n");

    // The combined optimisation.
    let composed = compose_over_xslt_view(&user_q, &xslt_q.query).expect("composes");
    println!("=== Composed XQuery (XSLT view eliminated) ===\n");
    println!("{}\n", pretty_query(&composed));

    let sql = rewrite_to_sql(&composed, &info).expect("SQL rewrite succeeds");
    println!("=== Table 11: the optimal SQL/XML query ===\n");
    println!("{}\n", sql_text(&sql));

    let stats = ExecStats::new();
    let docs = sql.execute(&catalog, &stats).expect("query runs");
    println!("=== Results (one per dept row) ===\n");
    for d in docs {
        println!("{}", to_string(&d));
    }
    println!(
        "\nexecution: {} index probes, {} rows scanned — no XSLT ran, no XML was materialised",
        stats.snapshot().index_probes,
        stats.snapshot().rows_scanned
    );
}
