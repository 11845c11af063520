//! XPath 1.0 value semantics on every tier. Each probe is one comparison
//! or arithmetic expression, planted in a one-template stylesheet in one of
//! three positions, each of which plans to a different tier:
//!
//! - `xsl:value-of select="E"` under the root: the XQuery tier;
//! - a `table/row[E]` predicate: the SQL tier's `WHERE`;
//! - `xsl:if test="E"` per row: the SQL tier's `CASE`.
//!
//! Every probe must serve the XSLTVM's bytes (`no_rewrite_transform`) on
//! its planned tier, over `db_catalog` and a catalog whose rows hold SQL
//! NULLs, both in memory and on pool pages.

use xsltdb::pipeline::{no_rewrite_transform, plan_bound, Tier};
use xsltdb::xqgen::RewriteOptions;
use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{PubExpr, SqlXmlQuery};
use xsltdb_relstore::{Catalog, ColType, Datum, ExecStats, Table, XmlView};
use xsltdb_xml::to_string;
use xsltdb_xsltmark::{db_catalog, db_catalog_paged};

#[derive(Debug, Clone, Copy)]
enum Form {
    ValueOf,
    Predicate,
    If,
}

use Form::*;
use Tier::{Sql, XQuery};

/// Probes over `db_catalog(3, 1)`: ids 1, 24, 23; `id`, `zip` and `state`
/// are indexed; `city` is not.
const DB_PROBES: &[(Form, &str, Tier)] = &[
    // Strings compare by equality, or else as numbers.
    (ValueOf, "'10' < '9'", XQuery),
    (ValueOf, "'a' < 'b'", XQuery),
    (ValueOf, "'abc' = 'abc'", XQuery),
    (ValueOf, "'1.0' = '1'", XQuery),
    (ValueOf, "1 = ' 1 '", XQuery),
    (ValueOf, "table/row/city > 'A'", XQuery),
    (ValueOf, "table/row/zip >= '10000'", XQuery),
    // A boolean operand turns the other side into a boolean.
    (ValueOf, "table/row/zip = true()", XQuery),
    (ValueOf, "table/row/zip = false()", XQuery),
    (ValueOf, "nosuch = false()", XQuery),
    (ValueOf, "true() = 'x'", XQuery),
    (ValueOf, "true() > false()", XQuery),
    (ValueOf, "1 = true()", XQuery),
    // Node-sets compare existentially.
    (ValueOf, "table/row/id = 24", XQuery),
    (ValueOf, "table/row/zip != table/row/zip", XQuery),
    (ValueOf, "table/row/id < table/row/zip", XQuery),
    (ValueOf, "nosuch = nosuch", XQuery),
    (ValueOf, "nosuch != 1", XQuery),
    (ValueOf, "0 div 0 = 0 div 0", XQuery),
    // Arithmetic converts with number(): empty is NaN.
    (ValueOf, "nosuch + 1", XQuery),
    (ValueOf, "-nosuch", XQuery),
    (ValueOf, "table/row/id * 2", XQuery),
    (ValueOf, "table/row/city + 1", XQuery),
    (ValueOf, "5 mod -2", XQuery),
    (ValueOf, "1 div -0", XQuery),
    // Column against literal, planned as a SQL predicate.
    (Predicate, "id = '1'", Sql),
    (Predicate, "id = 1", Sql),
    (Predicate, "'24' = id", Sql),
    (Predicate, "id > '2'", Sql),
    (Predicate, "id &lt; 24", Sql),
    (Predicate, "city &lt; 'M'", Sql),
    (Predicate, "city = 'Dover'", Sql),
    (Predicate, "state = 'CA'", Sql),
    (Predicate, "state > 'A'", Sql),
    (Predicate, "zip > '10000'", Sql),
    (Predicate, "zip >= 50000", Sql),
    (Predicate, "firstname != 'Al'", Sql),
    // Column against literal, planned as a SQL CASE.
    (If, "zip &lt; '50000'", Sql),
    (If, "id = '24'", Sql),
    (If, "city = 'Dover'", Sql),
    (If, "state &lt; 'Z'", Sql),
    (If, "id &lt;= 23", Sql),
];

/// Probes over [`null_catalog`]: `v` and `s` are NULL in row 2. A NULL
/// publishes as an empty element, so it compares as `""` and its
/// `number()` is NaN.
const NULL_PROBES: &[(Form, &str, Tier)] = &[
    (Predicate, "v != 0", Sql),
    (Predicate, "v = 0", Sql),
    (Predicate, "v &lt; 1", Sql),
    (Predicate, "s = ''", Sql),
    (Predicate, "s != 'a'", Sql),
    (If, "v != 0", Sql),
    // Scalar subqueries on the SQL tier.
    (ValueOf, "sum(table/row/v)", Sql),
    (ValueOf, "sum(table/row/s)", Sql),
    (ValueOf, "count(table/row[v != 0])", Sql),
    (ValueOf, "table/row[2]/v + 1", XQuery),
    (ValueOf, "table/row[1]/v + table/row[3]/v", XQuery),
];

const SHEET_HEAD: &str =
    r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">"#;

fn sheet(form: Form, expr: &str) -> String {
    let body = match form {
        ValueOf => format!(r#"<out><xsl:value-of select="{expr}"/></out>"#),
        Predicate => format!(
            r#"<out><xsl:for-each select="table/row[{expr}]"><r><xsl:value-of select="id"/></r></xsl:for-each></out>"#
        ),
        If => format!(
            r#"<out><xsl:for-each select="table/row"><xsl:if test="{expr}"><r><xsl:value-of select="id"/></r></xsl:if></xsl:for-each></out>"#
        ),
    };
    format!(r#"{SHEET_HEAD}<xsl:template match="/">{body}</xsl:template></xsl:stylesheet>"#)
}

/// Three rows `(id, v, s)`: `(1, 0, 'a')`, `(2, NULL, NULL)`, `(3, 5, 'b')`,
/// with B-tree indexes on `v` and `s`, published as
/// `<table><row><id/><v/><s/></row>…</table>`.
fn null_catalog(mut catalog: Catalog) -> (Catalog, XmlView) {
    catalog.add_table(Table::new("n_doc", &[("docid", ColType::Int)]));
    catalog.add_table(Table::new(
        "n_rows",
        &[
            ("id", ColType::Int),
            ("v", ColType::Int),
            ("s", ColType::Text),
        ],
    ));
    catalog
        .table_mut("n_doc")
        .unwrap()
        .insert(vec![Datum::Int(1)])
        .unwrap();
    let rows = catalog.table_mut("n_rows").unwrap();
    for (id, v, s) in [
        (1, Some(0), Some("a")),
        (2, None, None),
        (3, Some(5), Some("b")),
    ] {
        let v = v.map_or(Datum::Null, Datum::Int);
        let s = s.map_or(Datum::Null, |s| Datum::Text(s.into()));
        rows.insert(vec![Datum::Int(id), v, s]).unwrap();
    }
    catalog.create_index("n_rows", "v").unwrap();
    catalog.create_index("n_rows", "s").unwrap();
    let leaf = |n: &str| PubExpr::elem(n, vec![PubExpr::col("n_rows", n)]);
    let view = XmlView::new(
        "n_vu",
        SqlXmlQuery {
            base_table: "n_doc".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: PubExpr::elem(
                "table",
                vec![PubExpr::Agg {
                    table: "n_rows".into(),
                    predicate: Vec::new(),
                    order_by: Vec::new(),
                    limit: None,
                    body: Box::new(PubExpr::elem("row", vec![leaf("id"), leaf("v"), leaf("s")])),
                }],
            ),
        },
    );
    catalog.add_view(view.clone());
    (catalog, view)
}

/// Run every probe on its planned tier; return one line per probe whose
/// bytes differ from the VM's. A probe that plans to another tier than
/// the one it names fails at once.
fn mismatches(
    label: &str,
    catalog: &Catalog,
    view: &XmlView,
    probes: &[(Form, &str, Tier)],
) -> Vec<String> {
    let stats = ExecStats::new();
    let mut out = Vec::new();
    for &(form, expr, tier) in probes {
        let src = sheet(form, expr);
        let bound = plan_bound(catalog, view, &src, &RewriteOptions::default())
            .unwrap_or_else(|e| panic!("{label} {form:?} `{expr}` fails to plan: {e}"));
        assert_eq!(
            bound.tier(),
            tier,
            "{label} {form:?} `{expr}` planned off its tier: {:?}",
            bound.fallback_reason()
        );
        let want: String = no_rewrite_transform(catalog, view, bound.sheet(), &stats)
            .unwrap_or_else(|e| panic!("{label} {form:?} `{expr}` fails on the VM: {e}"))
            .documents
            .iter()
            .map(to_string)
            .collect();
        let got: String = bound
            .execute(catalog, &stats)
            .unwrap_or_else(|e| panic!("{label} {form:?} `{expr}` fails on {tier:?}: {e}"))
            .iter()
            .map(to_string)
            .collect();
        if got != want {
            out.push(format!(
                "{label} {form:?} `{expr}` on {tier:?}: VM {want:?}, tier {got:?}"
            ));
        }
    }
    out
}

#[test]
fn every_probe_serves_the_vms_bytes_on_its_planned_tier() {
    let (mem, mem_view) = db_catalog(3, 1);
    let (paged, paged_view) = db_catalog_paged(3, 1, 16);
    let (null_mem, null_mem_view) = null_catalog(Catalog::new());
    let (null_paged, null_paged_view) = null_catalog(Catalog::new_paged(16));
    let mut bad = mismatches("db mem", &mem, &mem_view, DB_PROBES);
    bad.extend(mismatches("db paged", &paged, &paged_view, DB_PROBES));
    bad.extend(mismatches(
        "null mem",
        &null_mem,
        &null_mem_view,
        NULL_PROBES,
    ));
    bad.extend(mismatches(
        "null paged",
        &null_paged,
        &null_paged_view,
        NULL_PROBES,
    ));
    assert!(
        bad.is_empty(),
        "{} probe runs differ from the VM:\n{}",
        bad.len(),
        bad.join("\n")
    );
}
