//! Property-based sort-stability suite for the ORDER BY lowering.
//!
//! `xsl:sort` is required to be *stable*: rows with equal sort keys keep
//! their document order. The join-graph rewrite lowers sorts to ORDER BY
//! on the aggregation's row source, so stability now depends on the
//! relational sort in `relstore::order_rows` agreeing byte-for-byte with
//! the XSLTVM's comparison (text keys vs `data-type="number"`, ascending
//! vs descending, NaN handling). Rows are drawn from deliberately tiny
//! value pools so duplicate keys are the common case, and each row carries
//! a unique tag — any reordering of equal-key rows changes the bytes.
//!
//! Each sample is checked across all three execution tiers:
//!
//! * **VM** — the functional no-rewrite transform is the expected output,
//! * **SQL** — the bound plan must reach the SQL tier and match when
//!   materialised *and* when streamed through `execute_to_writer`,
//! * **XQuery** — an injected SQL-tier fault degrades the same plan one
//!   tier, and the fallback bytes must still match.
//!
//! Each sample also checks that the plan's printed XQuery re-parses to the
//! query the XQuery tier runs, so a numeric key cannot print as a text one.

#[path = "support/unannotated.rs"]
mod unannotated;

use proptest::prelude::*;
use xsltdb::pipeline::{no_rewrite_transform, plan_bound, Tier};
use xsltdb::xqgen::RewriteOptions;
use xsltdb::{FaultKind, FaultPoint, Guard};
use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{PubExpr, SqlXmlQuery};
use xsltdb_relstore::{Catalog, ColType, Datum, ExecStats, Table, XmlView};
use xsltdb_xml::to_string;

/// Tiny pools: with up to 12 rows over 3 names and 4 numbers, duplicate
/// sort keys are near-certain in every sample.
const NAMES: &[&str] = &["Ann", "Bob", "Cat"];

#[derive(Debug, Clone)]
struct SortRow {
    name: &'static str,
    num: i64,
}

fn row_strategy() -> impl Strategy<Value = SortRow> {
    (0..NAMES.len(), prop_oneof![Just(-3i64), Just(0), Just(7), Just(12)])
        .prop_map(|(n, num)| SortRow { name: NAMES[n], num })
}

/// Which column the sort key selects and how it is compared.
#[derive(Debug, Clone, Copy)]
enum SortKeySpec {
    /// `select="name"` — text comparison over a text column.
    NameText,
    /// `select="num" data-type="number"` — numeric comparison.
    NumNumber,
    /// `select="num"` — *text* comparison over digit strings ("-3" < "12"
    /// < "7" lexicographically), a different order than numeric.
    NumText,
}

fn key_strategy() -> impl Strategy<Value = SortKeySpec> {
    prop_oneof![
        Just(SortKeySpec::NameText),
        Just(SortKeySpec::NumNumber),
        Just(SortKeySpec::NumText),
    ]
}

impl SortKeySpec {
    fn render(self, descending: bool) -> String {
        let order = if descending { "descending" } else { "ascending" };
        match self {
            SortKeySpec::NameText => {
                format!(r#"<xsl:sort select="name" order="{order}"/>"#)
            }
            SortKeySpec::NumNumber => {
                format!(r#"<xsl:sort select="num" data-type="number" order="{order}"/>"#)
            }
            SortKeySpec::NumText => {
                format!(r#"<xsl:sort select="num" order="{order}"/>"#)
            }
        }
    }
}

/// The relational backing: one anchor row (the document) and a `s_rows`
/// table published as `<table><row><tag/><name/><num/></row>*</table>`,
/// mirroring the shape of the xsltmark db catalog.
fn sort_catalog(rows: &[SortRow]) -> (Catalog, XmlView) {
    let mut catalog = Catalog::new();
    catalog.add_table(Table::new("s_doc", &[("docid", ColType::Int)]));
    catalog.add_table(Table::new(
        "s_rows",
        &[("tag", ColType::Text), ("name", ColType::Text), ("num", ColType::Int)],
    ));
    catalog
        .table_mut("s_doc")
        .expect("just added")
        .insert(vec![Datum::Int(1)])
        .expect("schema matches");
    let t = catalog.table_mut("s_rows").expect("just added");
    for (i, r) in rows.iter().enumerate() {
        t.insert(vec![
            Datum::Text(format!("t{i}")),
            Datum::Text(r.name.into()),
            Datum::Int(r.num),
        ])
        .expect("schema matches");
    }
    let leaf = |n: &str| PubExpr::elem(n, vec![PubExpr::col("s_rows", n)]);
    let view = XmlView::new(
        "s_vu",
        SqlXmlQuery {
            base_table: "s_doc".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: PubExpr::elem(
                "table",
                vec![PubExpr::Agg {
                    table: "s_rows".into(),
                    predicate: Vec::new(),
                    order_by: Vec::new(),
                    limit: None,
                    body: Box::new(PubExpr::elem(
                        "row",
                        vec![leaf("tag"), leaf("name"), leaf("num")],
                    )),
                }],
            ),
        },
    );
    catalog.add_view(view.clone());
    (catalog, view)
}

fn sort_stylesheet(
    primary: SortKeySpec,
    descending: bool,
    secondary: Option<SortKeySpec>,
    with_position: bool,
) -> String {
    let mut sorts = primary.render(descending);
    if let Some(s) = secondary {
        // Secondary key always ascending: the interesting part is the
        // tie-break chain, not another direction bit.
        sorts.push_str(&s.render(false));
    }
    let pos = if with_position {
        r#"<p><xsl:value-of select="position()"/></p>"#
    } else {
        ""
    };
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
        <xsl:template match="table">
          <out><xsl:apply-templates select="row">{sorts}</xsl:apply-templates></out>
        </xsl:template>
        <xsl:template match="row">
          <r k="{{tag}}">{pos}<xsl:value-of select="name"/>:<xsl:value-of select="num"/></r>
        </xsl:template>
        </xsl:stylesheet>"#
    )
}

/// The property: for every tier the bytes equal the functional baseline.
fn check_sorted_tiers(rows: &[SortRow], sheet: &str) {
    let (catalog, view) = sort_catalog(rows);
    let stats = ExecStats::new();
    let bound = plan_bound(&catalog, &view, sheet, &RewriteOptions::default())
        .unwrap_or_else(|e| panic!("fails to plan: {e}\n{sheet}"));
    assert_eq!(
        bound.tier(),
        Tier::Sql,
        "sorted stylesheet must reach the SQL tier: {:?}",
        bound.fallback_reason()
    );
    let query = &bound.plan().rewrite.as_ref().expect("a SQL plan has a query").query;
    let printed = xsltdb_xquery::pretty_query(query);
    let reparsed = xsltdb_xquery::parse_query(&printed).expect("printed XQuery reparses");
    let runs = unannotated::stripped(query);
    assert_eq!(reparsed, runs, "printed XQuery is another query\n{printed}");

    let expected: String = no_rewrite_transform(&catalog, &view, bound.sheet(), &stats)
        .expect("baseline transforms")
        .documents
        .iter()
        .map(to_string)
        .collect();

    // SQL tier, materialised.
    let got_sql: String = bound
        .execute(&catalog, &stats)
        .expect("SQL plan executes")
        .iter()
        .map(to_string)
        .collect();
    assert_eq!(got_sql, expected, "SQL tier reorders equal keys\n{sheet}");

    // SQL tier, streamed.
    let mut streamed = Vec::new();
    let run = bound
        .execute_to_writer(&catalog, &stats, &Guard::unlimited(), &mut streamed)
        .expect("streaming executes");
    assert_eq!(run.tier, Tier::Sql);
    assert_eq!(
        String::from_utf8(streamed).expect("UTF-8"),
        expected,
        "streamed bytes reorder equal keys\n{sheet}"
    );

    // XQuery tier, reached by degrading the same plan one tier.
    let guard = Guard::unlimited().with_fault(FaultPoint::SqlExec, FaultKind::Error);
    let mut fallback = Vec::new();
    let run = bound
        .execute_to_writer(&catalog, &ExecStats::new(), &guard, &mut fallback)
        .expect("fallback executes");
    assert_eq!(run.tier, Tier::XQuery, "fault must degrade exactly one tier");
    assert_eq!(
        String::from_utf8(fallback).expect("UTF-8"),
        expected,
        "XQuery tier reorders equal keys\n{sheet}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn single_key_sorts_are_stable_across_tiers(
        rows in proptest::collection::vec(row_strategy(), 0..12),
        key in key_strategy(),
        descending in any::<bool>(),
    ) {
        let sheet = sort_stylesheet(key, descending, None, false);
        check_sorted_tiers(&rows, &sheet);
    }

    #[test]
    fn two_key_sorts_break_ties_identically(
        rows in proptest::collection::vec(row_strategy(), 0..12),
        primary in key_strategy(),
        secondary in key_strategy(),
        descending in any::<bool>(),
    ) {
        let sheet = sort_stylesheet(primary, descending, Some(secondary), false);
        check_sorted_tiers(&rows, &sheet);
    }

    #[test]
    fn post_sort_positions_agree_across_tiers(
        rows in proptest::collection::vec(row_strategy(), 0..12),
        key in key_strategy(),
        descending in any::<bool>(),
    ) {
        // position() after xsl:sort numbers the *sorted* sequence; the SQL
        // lowering computes it as a row number over the ordered aggregate.
        let sheet = sort_stylesheet(key, descending, None, true);
        check_sorted_tiers(&rows, &sheet);
    }
}
