//! Quickstart: the paper's worked example (§2, Tables 1–8) end to end.
//!
//! Builds the dept/emp tables, publishes them as the `dept_emp` XMLType
//! view, compiles the HTML-generating stylesheet, and shows every artefact
//! of the rewrite chain: the materialised view rows (Table 4), the
//! generated XQuery (Table 8), the final SQL/XML query (Table 7), and the
//! execution statistics proving the B-tree index did the filtering.
//!
//! Run with: `cargo run --example quickstart`

use xsltdb::pipeline::{no_rewrite_transform, plan_bound, Tier};
use xsltdb::xqgen::RewriteOptions;
use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{AggPredTerm, PubExpr, SqlXmlQuery};
use xsltdb_relstore::{sql_text, Catalog, ColType, Datum, ExecStats, Table, XmlView};
use xsltdb_xml::{to_pretty_string, to_string};

fn main() {
    // --- Tables 1 and 2: the relational data -------------------------------
    let mut dept = Table::new(
        "dept",
        &[("deptno", ColType::Int), ("dname", ColType::Text), ("loc", ColType::Text)],
    );
    for (no, dn, loc) in [(10, "ACCOUNTING", "NEW YORK"), (40, "OPERATIONS", "BOSTON")] {
        dept.insert(vec![Datum::Int(no), Datum::Text(dn.into()), Datum::Text(loc.into())])
            .expect("row matches schema");
    }
    let mut emp = Table::new(
        "emp",
        &[
            ("empno", ColType::Int),
            ("ename", ColType::Text),
            ("job", ColType::Text),
            ("sal", ColType::Int),
            ("deptno", ColType::Int),
        ],
    );
    for (no, en, job, sal, d) in [
        (7782, "CLARK", "MANAGER", 2450, 10),
        (7934, "MILLER", "CLERK", 1300, 10),
        (7954, "SMITH", "VP", 4900, 40),
    ] {
        emp.insert(vec![
            Datum::Int(no),
            Datum::Text(en.into()),
            Datum::Text(job.into()),
            Datum::Int(sal),
            Datum::Int(d),
        ])
        .expect("row matches schema");
    }
    let mut catalog = Catalog::new();
    catalog.add_table(dept);
    catalog.add_table(emp);
    catalog.create_index("emp", "sal").expect("column exists");
    catalog.create_index("emp", "deptno").expect("column exists");

    // --- Table 3: the dept_emp publishing view -----------------------------
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
    );
    catalog.add_view(view.clone());

    let stats = ExecStats::new();
    println!("=== Table 4: XMLType rows of the dept_emp view ===\n");
    for doc in view.materialize(&catalog, &stats).expect("view materialises") {
        println!("{}\n", to_pretty_string(&doc));
    }

    // --- Table 5: the stylesheet -------------------------------------------
    let stylesheet = r#"<?xml version="1.0"?><xsl:stylesheet version="1.0"
xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="dept">
<H1>HIGHLY PAID DEPT EMPLOYEES</H1>
<xsl:apply-templates/>
</xsl:template>
<xsl:template match="dname">
<H2>Department name: <xsl:value-of select="."/></H2>
</xsl:template>
<xsl:template match="loc">
<H2>Department location: <xsl:value-of select="."/></H2>
</xsl:template>
<xsl:template match="employees">
<H2>Employees Table</H2>
<table border="2">
<td><b>EmpNo</b></td><td><b>Name</b></td><td><b>Weekly Salary</b></td>
<xsl:apply-templates select="emp[sal &gt; 2000]"/>
</table>
</xsl:template>
<xsl:template match="emp">
<tr><td><xsl:value-of select="empno"/></td>
<td><xsl:value-of select="ename"/></td>
<td><xsl:value-of select="sal"/></td></tr>
</xsl:template>
<xsl:template match="text()"><xsl:value-of select="."/></xsl:template>
</xsl:stylesheet>"#;

    // --- The rewrite chain ---------------------------------------------------
    let bound = plan_bound(&catalog, &view, stylesheet, &RewriteOptions::default())
        .expect("planning succeeds");
    let plan = &bound.plan;
    println!("=== Plan tier: {:?} ===\n", plan.tier);
    assert_eq!(plan.tier, Tier::Sql);

    let outcome = plan.rewrite.as_ref().expect("SQL tier has a rewrite");
    println!("=== Table 8: the XQuery generated from the stylesheet ===\n");
    println!("{}\n", xsltdb_xquery::pretty_query(&outcome.query));
    println!(
        "(mode: {:?}, fully inlined: {}, dead templates removed: {})\n",
        outcome.mode,
        outcome.fully_inlined(),
        outcome.removed_templates
    );

    let sql = plan.sql.as_ref().expect("SQL tier has a query");
    println!("=== Table 7: the final SQL/XML query ===\n");
    println!("{}\n", sql_text(sql));

    // --- Execute both paths and compare --------------------------------------
    stats.reset();
    let rewritten = bound.execute(&catalog, &stats).expect("plan executes");
    let rw_stats = stats.snapshot();
    stats.reset();
    let baseline =
        no_rewrite_transform(&catalog, &view, &plan.sheet, &stats).expect("baseline runs");

    println!("=== Table 6: transformation result (per dept row) ===\n");
    for doc in &rewritten {
        println!("{}\n", to_pretty_string(doc));
    }

    let same = rewritten
        .iter()
        .zip(&baseline.documents)
        .all(|(a, b)| to_string(a) == to_string(b));
    println!("rewrite output equals functional evaluation: {same}");
    println!(
        "rewrite execution: {} index probes, {} rows scanned \
         (baseline materialised {} XML nodes first)",
        rw_stats.index_probes, rw_stats.rows_scanned, baseline.materialized_nodes
    );
}
