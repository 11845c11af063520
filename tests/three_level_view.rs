//! A three-level master/detail/detail publishing view (region → dept →
//! emp): exercises nested `XMLAgg` derivation, nested FOR generation, and
//! nested correlated aggregation in the SQL rewrite — one level deeper than
//! the paper's worked example.

use xsltdb::pipeline::{no_rewrite_transform, plan_bound, plan_transform, Tier};
use xsltdb::xqgen::RewriteOptions;
use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{AggPredTerm, PubExpr, SqlXmlQuery};
use xsltdb_relstore::{Catalog, ColType, Datum, ExecStats, Table, XmlView};
use xsltdb_xml::to_string;

fn catalog() -> Catalog {
    let mut region = Table::new("region", &[("rid", ColType::Int), ("rname", ColType::Text)]);
    region.insert(vec![Datum::Int(1), Datum::Text("EMEA".into())]).unwrap();
    region.insert(vec![Datum::Int(2), Datum::Text("APAC".into())]).unwrap();

    let mut dept = Table::new(
        "dept",
        &[("deptno", ColType::Int), ("dname", ColType::Text), ("rid", ColType::Int)],
    );
    for (no, dn, r) in [(10, "SALES", 1), (20, "ENG", 1), (30, "OPS", 2)] {
        dept.insert(vec![Datum::Int(no), Datum::Text(dn.into()), Datum::Int(r)]).unwrap();
    }

    let mut emp = Table::new(
        "emp",
        &[("empno", ColType::Int), ("ename", ColType::Text), ("sal", ColType::Int), ("deptno", ColType::Int)],
    );
    for (no, en, sal, d) in [
        (1, "A", 900, 10),
        (2, "B", 2500, 10),
        (3, "C", 3100, 20),
        (4, "D", 700, 30),
        (5, "E", 4400, 30),
    ] {
        emp.insert(vec![Datum::Int(no), Datum::Text(en.into()), Datum::Int(sal), Datum::Int(d)])
            .unwrap();
    }

    let mut c = Catalog::new();
    c.add_table(region);
    c.add_table(dept);
    c.add_table(emp);
    c.create_index("dept", "rid").unwrap();
    c.create_index("emp", "deptno").unwrap();
    c.create_index("emp", "sal").unwrap();
    c
}

fn region_view() -> XmlView {
    XmlView::new(
        "region_vu",
        SqlXmlQuery {
            base_table: "region".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: PubExpr::elem(
                "region",
                vec![
                    PubExpr::elem("rname", vec![PubExpr::col("region", "rname")]),
                    PubExpr::Agg {
                        table: "dept".into(),
                        predicate: vec![AggPredTerm::Correlate {
                            inner_column: "rid".into(),
                            outer_table: "region".into(),
                            outer_column: "rid".into(),
                        }],
                        order_by: Vec::new(),
                        limit: None,
                        body: Box::new(PubExpr::elem(
                            "dept",
                            vec![
                                PubExpr::elem("dname", vec![PubExpr::col("dept", "dname")]),
                                PubExpr::Agg {
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
                                            PubExpr::elem(
                                                "ename",
                                                vec![PubExpr::col("emp", "ename")],
                                            ),
                                            PubExpr::elem(
                                                "sal",
                                                vec![PubExpr::col("emp", "sal")],
                                            ),
                                        ],
                                    )),
                                },
                            ],
                        )),
                    },
                ],
            ),
        },
    )
}

const STYLESHEET: &str = r#"<xsl:stylesheet version="1.0"
xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="region">
<report area="{rname}"><xsl:apply-templates select="dept"/></report>
</xsl:template>
<xsl:template match="dept">
<group name="{dname}">
<xsl:apply-templates select="emp[sal &gt; 2000]"/>
</group>
</xsl:template>
<xsl:template match="emp">
<star><xsl:value-of select="ename"/>/<xsl:value-of select="sal"/></star>
</xsl:template>
</xsl:stylesheet>"#;

#[test]
fn three_level_view_reaches_sql_tier_and_matches_baseline() {
    let catalog = catalog();
    let view = region_view();
    let plan = plan_bound(&catalog, &view, STYLESHEET, &RewriteOptions::default()).unwrap();
    assert_eq!(plan.tier(), Tier::Sql, "fallback: {:?}", plan.fallback_reason());

    let stats = ExecStats::new();
    let baseline = no_rewrite_transform(&catalog, &view, plan.sheet(), &stats).unwrap();
    stats.reset();
    let docs = plan.execute(&catalog, &stats).unwrap();

    let got: Vec<String> = docs.iter().map(to_string).collect();
    let expected: Vec<String> = baseline.documents.iter().map(to_string).collect();
    assert_eq!(got, expected);

    // Sanity of content: EMEA has SALES(B=2500) and ENG(C=3100); APAC has
    // OPS(E=4400); the low-paid employees are filtered.
    assert!(got[0].contains(r#"<report area="EMEA">"#));
    assert!(got[0].contains("<star>B/2500</star>"));
    assert!(got[0].contains("<star>C/3100</star>"));
    assert!(!got[0].contains("A/900"));
    assert!(got[1].contains("<star>E/4400</star>"));
    assert!(!got[1].contains("D/700"));

    // Nested correlated probes: region→dept and dept→emp per dept.
    assert!(stats.snapshot().index_probes >= 4, "{:?}", stats.snapshot());
}

#[test]
fn three_level_sql_text_shows_nested_aggs() {
    let view = region_view();
    let plan = plan_transform(&view, STYLESHEET, &RewriteOptions::default()).unwrap();
    let text = xsltdb_relstore::sql_text(plan.sql.as_ref().unwrap());
    // Two nested XMLAgg scopes with their correlations and the value
    // filter. The prepared SQL is canonical: tables appear as binding
    // slots ($T0 = region, $T1 = dept, $T2 = emp), resolved at execute
    // time.
    assert_eq!(text.matches("XMLAgg").count(), 2, "{text}");
    assert!(text.contains("RID = $T0.RID"), "{text}");
    assert!(text.contains("DEPTNO = $T1.DEPTNO"), "{text}");
    assert!(text.contains("SAL > 2000"), "{text}");
}

#[test]
fn aggregate_across_levels() {
    // count()/sum() across the nested structure also push down.
    let catalog = catalog();
    let view = region_view();
    let sheet_src = r#"<xsl:stylesheet version="1.0"
xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="region">
<stat depts="{count(dept)}"/>
</xsl:template>
</xsl:stylesheet>"#;
    let plan = plan_bound(&catalog, &view, sheet_src, &RewriteOptions::default()).unwrap();
    assert_eq!(plan.tier(), Tier::Sql, "fallback: {:?}", plan.fallback_reason());
    let stats = ExecStats::new();
    let docs = plan.execute(&catalog, &stats).unwrap();
    assert_eq!(to_string(&docs[0]), r#"<stat depts="2"/>"#);
    assert_eq!(to_string(&docs[1]), r#"<stat depts="1"/>"#);
}
