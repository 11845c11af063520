//! End-to-end reproduction of the paper's worked example (§2, Tables 1–8):
//! the dept/emp schema, the dept_emp publishing view, the HTML-generating
//! stylesheet, and the full rewrite chain XSLT → XQuery → SQL/XML.

use xsltdb::pipeline::{no_rewrite_transform, plan_bound, Tier};
use xsltdb::sqlrewrite::rewrite_to_sql;
use xsltdb::xqgen::{rewrite, RewriteMode, RewriteOptions};
use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{AggPredTerm, PubExpr, SqlXmlQuery};
use xsltdb_relstore::{Catalog, ColType, Datum, ExecStats, Table, XmlView};
use xsltdb_structinfo::struct_of_view;
use xsltdb_xml::{to_string, Guard, StreamWriter};
use xsltdb_xquery::{evaluate_query_to_sink, NodeHandle};
use xsltdb_xslt::compile_str;

/// Tables 1 and 2.
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
        .unwrap();
    }
    let mut c = Catalog::new();
    c.add_table(dept);
    c.add_table(emp);
    c.create_index("emp", "sal").unwrap();
    c.create_index("emp", "deptno").unwrap();
    c
}

/// Table 3: the dept_emp view.
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

/// Table 5: the stylesheet.
const PAPER_STYLESHEET: &str = r#"<?xml version="1.0"?><xsl:stylesheet version="1.0"
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
<td><b>EmpNo</b></td>
<td><b>Name</b></td>
<td><b>Weekly Salary</b></td>
<xsl:apply-templates select="emp[sal &gt; 2000]"/>
</table>
</xsl:template>
<xsl:template match = "emp">
<tr>
<td><xsl:value-of select="empno"/></td>
<td><xsl:value-of select="ename"/></td>
<td><xsl:value-of select="sal"/></td>
</tr>
</xsl:template>
<xsl:template match="text()">
<xsl:value-of select="."/>
</xsl:template>
</xsl:stylesheet>"#;

#[test]
fn view_materializes_table4() {
    let catalog = paper_catalog();
    let stats = ExecStats::new();
    let docs = dept_emp_view().materialize(&catalog, &stats).unwrap();
    assert_eq!(docs.len(), 2);
    assert_eq!(
        to_string(&docs[0]),
        "<dept><dname>ACCOUNTING</dname><loc>NEW YORK</loc><employees>\
         <emp><empno>7782</empno><ename>CLARK</ename><sal>2450</sal></emp>\
         <emp><empno>7934</empno><ename>MILLER</ename><sal>1300</sal></emp>\
         </employees></dept>"
    );
}

#[test]
fn baseline_produces_table6() {
    let catalog = paper_catalog();
    let stats = ExecStats::new();
    let sheet = compile_str(PAPER_STYLESHEET).unwrap();
    let run = no_rewrite_transform(&catalog, &dept_emp_view(), &sheet, &stats).unwrap();
    assert_eq!(run.documents.len(), 2);
    let first = to_string(&run.documents[0]);
    assert!(first.contains("<H1>HIGHLY PAID DEPT EMPLOYEES</H1>"));
    assert!(first.contains("<H2>Department name: ACCOUNTING</H2>"));
    assert!(first.contains("<H2>Department location: NEW YORK</H2>"));
    assert!(first.contains("<td>7782</td>"));
    assert!(first.contains("<td>CLARK</td>"));
    assert!(first.contains("<td>2450</td>"));
    assert!(!first.contains("MILLER"), "low-paid employee must be filtered: {first}");
    let second = to_string(&run.documents[1]);
    assert!(second.contains("<td>SMITH</td>"));
    assert!(run.materialized_nodes > 0);
}

#[test]
fn rewrite_is_inline_and_removes_dead_templates() {
    let sheet = compile_str(PAPER_STYLESHEET).unwrap();
    let info = struct_of_view(&dept_emp_view()).unwrap();
    let outcome = rewrite(&sheet, &info, &RewriteOptions::default()).unwrap();
    assert_eq!(outcome.mode, RewriteMode::Inline);
    assert!(outcome.fully_inlined());
    assert!(!outcome.recursive);
    // The text() template is never instantiated on this structure.
    assert_eq!(outcome.removed_templates, 1);
    let printed = xsltdb_xquery::pretty_query(&outcome.query);
    assert!(printed.contains("declare variable $var000 := ."), "{printed}");
    assert!(printed.contains("emp[sal > 2000]"), "{printed}");
    assert!(printed.contains("HIGHLY PAID DEPT EMPLOYEES"), "{printed}");
    // Table 8 shape: no function declarations at all.
    assert!(!printed.contains("declare function"), "{printed}");
}

#[test]
fn rewritten_xquery_equals_baseline_output() {
    let catalog = paper_catalog();
    let stats = ExecStats::new();
    let sheet = compile_str(PAPER_STYLESHEET).unwrap();
    let view = dept_emp_view();
    let info = struct_of_view(&view).unwrap();
    let outcome = rewrite(&sheet, &info, &RewriteOptions::default()).unwrap();

    let baseline = no_rewrite_transform(&catalog, &view, &sheet, &stats).unwrap();
    let docs = view.materialize(&catalog, &stats).unwrap();
    for (doc, expected) in docs.into_iter().zip(&baseline.documents) {
        let mut out = StreamWriter::new(Vec::new(), Guard::unlimited());
        let input = Some(NodeHandle::document(doc));
        evaluate_query_to_sink(&outcome.query, input, Vec::new(), Guard::unlimited(), &mut out)
            .unwrap();
        assert_eq!(
            String::from_utf8(out.finish().unwrap()).unwrap(),
            to_string(expected),
            "rewritten XQuery must match the functional evaluation"
        );
    }
}

#[test]
fn sql_rewrite_produces_table7_and_matches_baseline() {
    let catalog = paper_catalog();
    let sheet = compile_str(PAPER_STYLESHEET).unwrap();
    let view = dept_emp_view();
    let info = struct_of_view(&view).unwrap();
    let outcome = rewrite(&sheet, &info, &RewriteOptions::default()).unwrap();
    let sql = rewrite_to_sql(&outcome.query, &info).unwrap();

    // Table 7's shape: base table dept, XMLAgg over emp with both the value
    // predicate and the correlation.
    let text = xsltdb_relstore::sql_text(&sql);
    assert!(text.contains("FROM DEPT"), "{text}");
    assert!(text.contains("SAL > 2000"), "{text}");
    assert!(text.contains("DEPTNO = DEPT.DEPTNO"), "{text}");
    assert!(text.contains("XMLElement"), "{text}");

    // Execution equivalence with the functional baseline.
    let stats = ExecStats::new();
    let baseline = no_rewrite_transform(&catalog, &view, &sheet, &stats).unwrap();
    stats.reset();
    let docs = sql.execute(&catalog, &stats).unwrap();
    assert_eq!(docs.len(), baseline.documents.len());
    for (got, expected) in docs.iter().zip(&baseline.documents) {
        assert_eq!(to_string(got), to_string(expected));
    }
    // And it reached the B-tree: the correlated probes used an index.
    assert!(stats.snapshot().index_probes >= 2, "{:?}", stats.snapshot());
}

#[test]
fn planner_selects_sql_tier_for_paper_example() {
    let catalog = paper_catalog();
    let view = dept_emp_view();
    let plan = plan_bound(&catalog, &view, PAPER_STYLESHEET, &RewriteOptions::default()).unwrap();
    assert_eq!(plan.tier(), Tier::Sql, "fallback: {:?}", plan.fallback_reason());
    let stats = ExecStats::new();
    let docs = plan.execute(&catalog, &stats).unwrap();
    assert_eq!(docs.len(), 2);
}

#[test]
fn all_three_tiers_agree() {
    let catalog = paper_catalog();
    let view = dept_emp_view();
    let sheet = compile_str(PAPER_STYLESHEET).unwrap();
    let stats = ExecStats::new();

    let baseline = no_rewrite_transform(&catalog, &view, &sheet, &stats).unwrap();
    let expected: Vec<String> = baseline.documents.iter().map(to_string).collect();

    let plan = plan_bound(&catalog, &view, PAPER_STYLESHEET, &RewriteOptions::default()).unwrap();
    let sql_docs = plan.execute(&catalog, &stats).unwrap();
    let got: Vec<String> = sql_docs.iter().map(to_string).collect();
    assert_eq!(got, expected);
}

// ------------------------------------------------------ guard accounting

/// XSLTMark's `dbtail`: one `<r>last, first</r>` per row.
const DBTAIL: &str = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="table"><out><xsl:apply-templates select="row"/></out></xsl:template>
<xsl:template match="row"><r><xsl:value-of select="lastname"/>, <xsl:value-of select="firstname"/></r></xsl:template>
</xsl:stylesheet>"#;

/// Over dept_emp, but `substring()` has no SQL form: the XQuery tier runs
/// it over the view's materialised documents, so the view's own publisher
/// (correlated `XMLAgg` included) is what the guard pays for.
const DEPT_XQUERY: &str = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="dept"><d><xsl:value-of select="substring(dname, 1, 3)"/><xsl:apply-templates select="employees/emp"/></d></xsl:template>
<xsl:template match="emp"><e n="{ename}"><xsl:value-of select="sal"/></e></xsl:template>
</xsl:stylesheet>"#;

/// Pin what one guarded `execute_to_writer` run spends: fuel is read off
/// the guard; output nodes and output bytes are pinned through their caps
/// — the run completes with each cap at exactly the expected total and
/// trips with it one lower. Charged bytes may exceed the bytes written:
/// attribute text and a materialised view's text are charged as well. The totals were taken from the publisher as it was
/// before it read bound rows by reference, so no charge has moved.
fn assert_charges(
    catalog: &Catalog,
    view: &XmlView,
    sheet: &str,
    tier: Tier,
    (fuel, nodes, bytes, written): (u64, u64, u64, u64),
) {
    use xsltdb::{Guard, Limits, PipelineError, Resource};
    let plan = plan_bound(catalog, view, sheet, &RewriteOptions::default()).unwrap();
    assert_eq!(plan.tier(), tier, "fallback: {:?}", plan.fallback_reason());
    let run = |limits: Limits| {
        let guard = Guard::new(limits);
        let mut out = Vec::new();
        let res = plan.execute_to_writer(catalog, &ExecStats::new(), &guard, &mut out);
        (res, guard.fuel_spent(), out.len() as u64)
    };
    let exact =
        Limits::UNLIMITED.with_fuel(fuel).with_max_output_nodes(nodes).with_max_output_bytes(bytes);
    let (res, spent, len) = run(exact);
    assert_eq!(res.unwrap().tier, tier);
    assert_eq!((spent, len), (fuel, written));
    for (limits, resource) in [
        (exact.with_fuel(fuel - 1), Resource::Fuel),
        (exact.with_max_output_nodes(nodes - 1), Resource::OutputNodes),
        (exact.with_max_output_bytes(bytes - 1), Resource::OutputBytes),
    ] {
        match run(limits).0 {
            Err(PipelineError::Guard(g)) => assert_eq!(g.resource, resource),
            other => panic!("expected a {resource:?} trip, got {other:?}"),
        }
    }
}

/// `(fuel, output nodes, output bytes charged, bytes written)` per run.
const DBTAIL_1K: (u64, u64, u64, u64) = (5_003, 1_001, 16_814, 16_814);
const PAPER_SQL: (u64, u64, u64, u64) = (69, 30, 556, 554);
/// The XQuery tier materialises only what the query reaches: `loc` and
/// `empno` are projected away. Fuel drops 10 (an `XMLElement` and a
/// column per pruned element: 2 `loc` + 3 `empno`), output nodes 5 (those
/// elements), charged bytes 26 (their text: `NEW YORK`, `BOSTON` and three
/// four-digit `empno`s). The bytes written do not move.
const DEPT_XQ: (u64, u64, u64, u64) = (121, 20, 132, 84);
/// `games` builds each `fib` result-tree variable as a spilled constructor.
/// Those trees are re-inspected, not written, so they charge fuel and
/// output nodes but no output bytes: only the 13 bytes of `<fib>21</fib>`.
const GAMES_XQ: (u64, u64, u64, u64) = (1_026, 68, 13, 13);

#[test]
fn guard_charges_are_pinned_for_dbtail_and_dept_emp() {
    let (catalog, view) = xsltdb_xsltmark::db_catalog(1_000, 1);
    assert_charges(&catalog, &view, DBTAIL, Tier::Sql, DBTAIL_1K);
    let (catalog, view) = (paper_catalog(), dept_emp_view());
    assert_charges(&catalog, &view, PAPER_STYLESHEET, Tier::Sql, PAPER_SQL);
    assert_charges(&catalog, &view, DEPT_XQUERY, Tier::XQuery, DEPT_XQ);
    // fib's recursion wants more stack than a 2 MiB test thread has.
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(|| {
            let (catalog, view) = xsltdb_xsltmark::db_catalog(3, 1);
            let games = xsltdb_xsltmark::case("games").stylesheet;
            assert_charges(&catalog, &view, &games, Tier::XQuery, GAMES_XQ);
        })
        .expect("spawn")
        .join()
        .expect("games charges");
}

// ------------------------------------------------------ pattern dispatch

/// The identity sheet plus a template whose `for-each` climbs with `..`:
/// the upward select keeps the rewrite out of inline mode, so the XQuery
/// tier runs function mode's run-time pattern dispatch.
const IDENTITY_WITH_PARENT_SELECT: &str = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="@*|node()"><xsl:copy><xsl:apply-templates select="@*|node()"/></xsl:copy></xsl:template>
<xsl:template match="zip"><z><xsl:for-each select="../id"><xsl:value-of select="."/></xsl:for-each></z></xsl:template>
</xsl:stylesheet>"#;

/// XSLT's `node()` pattern is `child::node()`: it never matches the
/// document node, so the document is processed by the built-in rule and
/// the identity template first copies the root element.
#[test]
fn node_pattern_does_not_match_the_document_node() {
    let (catalog, view) = xsltdb_xsltmark::db_catalog(3, 1);
    let stats = ExecStats::new();
    let sheet = compile_str(IDENTITY_WITH_PARENT_SELECT).unwrap();
    let baseline = no_rewrite_transform(&catalog, &view, &sheet, &stats).unwrap();
    let expected: String = baseline.documents.iter().map(to_string).collect();
    assert!(expected.starts_with("<table><row><id>1</id>"), "{expected}");

    let plan =
        plan_bound(&catalog, &view, IDENTITY_WITH_PARENT_SELECT, &RewriteOptions::default())
            .unwrap();
    assert_eq!(plan.tier(), Tier::XQuery, "fallback: {:?}", plan.fallback_reason());
    let mut out = Vec::new();
    let run = plan.execute_to_writer(&catalog, &stats, &Guard::unlimited(), &mut out).unwrap();
    assert_eq!(run.tier, Tier::XQuery);
    assert!(run.fallbacks.is_empty(), "{:?}", run.fallbacks);
    assert_eq!(String::from_utf8(out).unwrap(), expected);
}

