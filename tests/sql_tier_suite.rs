//! Executable equivalence at the SQL tier across the whole benchmark
//! suite: every XSLTMark case the planner pushes down to SQL/XML must
//! produce byte-identical output to the functional (no-rewrite) baseline
//! over the relationally backed db view.

use xsltdb::pipeline::{no_rewrite_transform, plan_bound, BoundPlan, Tier};
use xsltdb::xqgen::RewriteOptions;
use xsltdb::Guard;
use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{AggOrder, PubExpr, SqlXmlQuery};
use xsltdb_relstore::{Catalog, Datum, ExecStats, XmlView};
use xsltdb_xml::to_string;
use xsltdb_xpath::CmpOp;
use xsltdb_xsltmark::{
    all_cases, db_catalog, db_catalog_paged, db_catalog_unindexed, dbonerow_stylesheet,
    existing_id,
};

/// Planning partially evaluates recursive cases to their depth limit, which
/// needs more stack than the default 2 MiB test threads provide.
fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("suite thread panicked")
}

#[test]
fn every_sql_planned_case_matches_baseline() {
    on_big_stack(every_sql_planned_case_matches_baseline_inner)
}

fn every_sql_planned_case_matches_baseline_inner() {
    let rows = 40;
    let (catalog, view) = db_catalog(rows, 0xBEEF);
    let stats = ExecStats::new();
    let mut sql_cases = 0;
    for case in all_cases() {
        let plan = plan_bound(&catalog, &view, &case.stylesheet, &RewriteOptions::default())
            .unwrap_or_else(|e| panic!("{} fails to plan: {e}", case.name));
        if plan.tier() != Tier::Sql {
            continue;
        }
        sql_cases += 1;
        let baseline = no_rewrite_transform(&catalog, &view, plan.sheet(), &stats)
            .unwrap_or_else(|e| panic!("{} baseline fails: {e}", case.name));
        let docs = plan
            .execute(&catalog, &stats)
            .unwrap_or_else(|e| panic!("{} SQL plan fails: {e}", case.name));
        let got: Vec<String> = docs.iter().map(to_string).collect();
        let expected: Vec<String> = baseline.documents.iter().map(to_string).collect();
        assert_eq!(got, expected, "SQL tier diverges for case {}", case.name);
    }
    assert!(sql_cases >= 18, "only {sql_cases} cases reached the SQL tier");
}

#[test]
fn xquery_planned_cases_match_baseline_too() {
    on_big_stack(xquery_planned_cases_match_baseline_too_inner)
}

fn xquery_planned_cases_match_baseline_too_inner() {
    let rows = 40;
    let (catalog, view) = db_catalog(rows, 0xBEEF);
    let stats = ExecStats::new();
    for case in all_cases() {
        let plan = plan_bound(&catalog, &view, &case.stylesheet, &RewriteOptions::default())
            .unwrap_or_else(|e| panic!("{} fails to plan: {e}", case.name));
        if plan.tier() != Tier::XQuery {
            continue;
        }
        let baseline = no_rewrite_transform(&catalog, &view, plan.sheet(), &stats).unwrap();
        let docs = plan
            .execute(&catalog, &stats)
            .unwrap_or_else(|e| panic!("{} XQuery plan fails: {e}", case.name));
        let got: Vec<String> = docs.iter().map(to_string).collect();
        let expected: Vec<String> = baseline.documents.iter().map(to_string).collect();
        assert_eq!(got, expected, "XQuery tier diverges for case {}", case.name);
    }
}

// ---- the view's own row order and row filter --------------------------

/// The `db` view over `db_catalog`'s tables, with its own `XMLAgg` order
/// and base-row filter.
fn db_view_with(agg_order: Vec<AggOrder>, where_clause: Conjunction) -> XmlView {
    let leaf = |n: &str| PubExpr::elem(n, vec![PubExpr::col("db_rows", n)]);
    XmlView::new(
        "db_ordered",
        SqlXmlQuery {
            base_table: "db_doc".into(),
            where_clause,
            order_by: Vec::new(),
            select: PubExpr::elem(
                "table",
                vec![PubExpr::Agg {
                    table: "db_rows".into(),
                    predicate: Vec::new(),
                    order_by: agg_order,
                    limit: None,
                    body: Box::new(PubExpr::elem(
                        "row",
                        ["id", "firstname", "lastname", "street", "city", "state", "zip"]
                            .into_iter()
                            .map(leaf)
                            .collect(),
                    )),
                }],
            ),
        },
    )
}

fn by(column: &str) -> AggOrder {
    AggOrder { column: column.into(), descending: false, numeric: false }
}

/// Plan `sheet` over `view`, require the SQL tier, and return its output
/// next to the VM's.
fn sql_and_vm(catalog: &Catalog, view: &XmlView, sheet: &str) -> (String, String) {
    let stats = ExecStats::new();
    let plan = plan_bound(catalog, view, sheet, &RewriteOptions::default()).unwrap();
    assert_eq!(plan.tier(), Tier::Sql, "fallback: {:?}", plan.fallback_reason());
    let got = plan.execute(catalog, &stats).unwrap().iter().map(to_string).collect();
    let vm = no_rewrite_transform(catalog, view, plan.sheet(), &stats).unwrap();
    (got, vm.documents.iter().map(to_string).collect())
}

const LASTNAMES: &str = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="table"><out><xsl:apply-templates select="row"/></out></xsl:template>
<xsl:template match="row"><r><xsl:value-of select="lastname"/></r></xsl:template>
</xsl:stylesheet>"#;

#[test]
fn sql_tier_publishes_rows_in_the_views_own_order() {
    let (catalog, _) = db_catalog(6, 1);
    let view = db_view_with(vec![by("lastname")], Conjunction::default());
    let (sql, vm) = sql_and_vm(&catalog, &view, LASTNAMES);
    assert_eq!(sql, vm);
    assert!(vm.contains("<r>Aranow</r>"), "{vm}");
}

#[test]
fn sql_tier_honours_the_views_base_row_filter() {
    let (catalog, _) = db_catalog(6, 1);
    let none = Conjunction::single("docid", CmpOp::Eq, Datum::Int(-1));
    let (sql, vm) = sql_and_vm(&catalog, &db_view_with(Vec::new(), none), LASTNAMES);
    assert_eq!((sql.as_str(), vm.as_str()), ("", ""));
}

#[test]
fn stylesheet_sort_keys_break_ties_in_the_views_order() {
    // Sorting by state leaves ties; xsl:sort is stable over document
    // order, which is the view's lastname order.
    let sheet = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="table"><out><xsl:apply-templates select="row"><xsl:sort select="state"/></xsl:apply-templates></out></xsl:template>
<xsl:template match="row"><r><xsl:value-of select="state"/> <xsl:value-of select="lastname"/></r></xsl:template>
</xsl:stylesheet>"#;
    let (catalog, _) = db_catalog(40, 3);
    for order in [vec![by("lastname")], vec![by("firstname"), by("id")]] {
        let (sql, vm) = sql_and_vm(&catalog, &db_view_with(order, Conjunction::default()), sheet);
        assert_eq!(sql, vm);
    }
}

#[test]
fn ordered_and_unordered_views_do_not_share_a_plan() {
    let (catalog, plain) = db_catalog(6, 1);
    let ordered = db_view_with(vec![by("lastname")], Conjunction::default());
    let cache = xsltdb::SharedPlanCache::default();
    let opts = RewriteOptions::default();
    for view in [&plain, &ordered] {
        xsltdb::plan_cached_shared(&cache, &catalog, view, LASTNAMES, &opts).unwrap();
    }
    assert_eq!(cache.stats().misses, 2, "an ordered view must plan on its own");
}

/// Plan `sheet` over db rows, require the SQL tier, and check that it
/// serves the VM's bytes, materialised and streamed, and that they hold
/// `prefixed`: a prefixed name keeps its prefix on the SQL tier.
fn assert_prefixed_names_survive(sheet: &str, prefixed: &str) {
    let (catalog, view) = db_catalog(3, 1);
    let (sql, vm) = sql_and_vm(&catalog, &view, sheet);
    assert_eq!(sql, vm);
    assert!(vm.contains(prefixed), "{vm}");
    let (bound, streamed) = stream(&catalog, &view, sheet);
    assert_eq!(bound.tier(), Tier::Sql);
    assert_eq!(String::from_utf8(streamed).unwrap(), vm);
}

#[test]
fn prefixed_literal_element_keeps_its_prefix_on_the_sql_tier() {
    let sheet = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="table"><p:r xmlns:p="urn:p"><xsl:apply-templates select="row"/></p:r></xsl:template>
<xsl:template match="row"><id><xsl:value-of select="id"/></id></xsl:template>
</xsl:stylesheet>"#;
    assert_prefixed_names_survive(sheet, "<p:r");
}

#[test]
fn prefixed_literal_attribute_keeps_its_prefix_on_the_sql_tier() {
    let sheet = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform" xmlns:p="urn:p">
<xsl:template match="table"><out><xsl:apply-templates select="row"/></out></xsl:template>
<xsl:template match="row"><e p:a="{id}"/></xsl:template>
</xsl:stylesheet>"#;
    assert_prefixed_names_survive(sheet, r#"<e p:a="1"/>"#);
}

#[test]
fn xsl_fo_sheet_keeps_its_prefixes_on_the_sql_tier() {
    let sheet = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform" xmlns:fo="http://www.w3.org/1999/XSL/Format">
<xsl:template match="table"><fo:root><xsl:apply-templates select="row"/></fo:root></xsl:template>
<xsl:template match="row"><fo:block id="r{id}"><xsl:value-of select="lastname"/></fo:block></xsl:template>
</xsl:stylesheet>"#;
    assert_prefixed_names_survive(sheet, "<fo:root><fo:block id=\"r");
}

// ---- paged storage behind a fixed frame budget ------------------------

/// Frames in the buffer pool at every scale: the rows grow 4×, the pool
/// does not.
const POOL_FRAMES: usize = 16;

/// Pool pages a `dbonerow` point lookup may touch: root-to-leaf descent,
/// the heap page and the anchor scan, with slack for a leaf step — far
/// below the heap pages a scan of the table reads.
const PROBE_PAGE_CAP: u64 = 16;

fn stream(catalog: &Catalog, view: &XmlView, sheet: &str) -> (BoundPlan, Vec<u8>) {
    let bound = plan_bound(catalog, view, sheet, &RewriteOptions::default()).unwrap();
    let mut out = Vec::new();
    bound.execute_to_writer(catalog, &ExecStats::new(), &Guard::unlimited(), &mut out).unwrap();
    (bound, out)
}

/// A paged catalog serves `dbtail` and `dbonerow` with the in-memory bytes
/// while its pool stays inside the frame budget; the scan at the larger
/// scale evicts, and the point lookup stays an index probe that touches a
/// handful of pages at every scale.
#[test]
fn paged_catalog_stays_within_its_frame_budget() {
    for rows in [500, 2_000] {
        let (paged, paged_view) = db_catalog_paged(rows, 0xDB, POOL_FRAMES);
        let (mem, mem_view) = db_catalog_unindexed(rows, 0xDB);
        let pool = || paged.pool_stats().expect("paged catalog has a pool");

        let before = pool();
        let (_, tail) = stream(&paged, &paged_view, LASTNAMES);
        let scan = pool().delta_since(&before);
        assert_eq!(tail, stream(&mem, &mem_view, LASTNAMES).1, "dbtail@{rows} differs from Mem");
        if rows == 2_000 {
            assert!(scan.evictions > 0, "dbtail@{rows} fit in {POOL_FRAMES} frames: {scan:?}");
        }

        let onerow = dbonerow_stylesheet(existing_id(rows));
        let before = pool();
        let (probe, hit) = stream(&paged, &paged_view, &onerow);
        let touched = pool().delta_since(&before);
        assert_eq!(probe.tier(), Tier::Sql, "{:?}", probe.fallback_reason());
        assert_eq!(hit, stream(&mem, &mem_view, &onerow).1, "dbonerow@{rows} differs from Mem");
        let pages = touched.page_reads + touched.pool_hits;
        assert!(pages <= PROBE_PAGE_CAP, "dbonerow@{rows} touched {pages} pool pages");

        let peak = pool().peak_resident_frames;
        assert!(peak <= POOL_FRAMES as u64, "{peak} frames resident at {rows} rows");
    }
}
