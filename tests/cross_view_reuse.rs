//! Cross-view plan reuse: prepared plans are pure functions of
//! (stylesheet × canonical structure × options), so one cache entry serves
//! every identically-shaped view, with identity bound per call.
//!
//! Differential tests: eight same-shaped views (each over its **own**
//! tables with **different** data) run all forty XSLTMark cases through
//! one [`SharedPlanCache`] — exactly one plan is built per stylesheet, and
//! every view's output is byte-identical to a freshly planned, uncached
//! run over that view. Negative test: two views with the same element tags
//! but different structure canonicalise apart and get distinct entries.
//! Regression test: two different views sharing one name each bind (and
//! print) their own tables. Property test (deterministic proptest stub):
//! rebinding a shared plan across views never mixes one view's rows into
//! another's output.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use xsltdb::pipeline::{plan_bound, plan_cached_shared};
use xsltdb::plancache::SharedPlanCache;
use xsltdb::xqgen::RewriteOptions;
use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{PubExpr, SqlXmlQuery};
use xsltdb_relstore::{Catalog, ColType, Datum, ExecStats, Table, XmlView};
use xsltdb_xml::to_string;
use xsltdb_xsltmark::{all_cases, db_catalog_family};

/// Recursive suite cases need more stack than the 2 MiB test threads get.
fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("suite thread panicked")
}

fn render(catalog: &Catalog, bound: &xsltdb::BoundPlan) -> Vec<String> {
    let stats = ExecStats::new();
    bound.execute(catalog, &stats).expect("plan executes").iter().map(to_string).collect()
}

// ---------------------------------------------------------------------------
// Acceptance: 8 same-shaped views × 40 cases, one cache → 40 plans built,
// byte-identical to per-view fresh plans.
// ---------------------------------------------------------------------------

#[test]
fn eight_views_forty_sheets_build_exactly_forty_plans() {
    on_big_stack(|| {
        const VIEWS: usize = 8;
        let (catalog, views) = db_catalog_family(VIEWS, 12, 0xFA0);
        let cache = SharedPlanCache::default();
        let opts = RewriteOptions::default();

        for case in all_cases() {
            let mut shared_arc = None;
            for view in &views {
                let cached = plan_cached_shared(&cache, &catalog, view, &case.stylesheet, &opts)
                    .unwrap_or_else(|e| panic!("{}: cached planning fails: {e}", case.name));
                // Every view is served by the *same* prepared plan…
                match &shared_arc {
                    None => shared_arc = Some(Arc::clone(&cached.plan)),
                    Some(first) => assert!(
                        Arc::ptr_eq(first, &cached.plan),
                        "{}: views of one shape must share one prepared plan",
                        case.name
                    ),
                }
                // …and the rebound output is byte-identical to a plan built
                // fresh for exactly this view.
                let fresh = plan_bound(&catalog, view, &case.stylesheet, &opts)
                    .unwrap_or_else(|e| panic!("{}: fresh planning fails: {e}", case.name));
                assert_eq!(
                    render(&catalog, &cached),
                    render(&catalog, &fresh),
                    "{}: cached plan rebound to {} diverges from a fresh plan",
                    case.name,
                    view.name
                );
            }
        }

        let snap = cache.stats();
        assert_eq!(snap.misses, 40, "exactly one plan built per stylesheet");
        assert_eq!(snap.lookups(), (40 * VIEWS) as u64);
        assert_eq!(snap.hits, (40 * (VIEWS - 1)) as u64);
    });
}

/// Lists every row's last name: a data-bearing stylesheet whose output
/// differs across the family's views.
const LASTNAMES: &str = r#"<xsl:stylesheet version="1.0"
    xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
    <xsl:template match="table"><o><xsl:apply-templates select="row"/></o></xsl:template>
    <xsl:template match="row"><n><xsl:value-of select="lastname"/></n></xsl:template>
    </xsl:stylesheet>"#;

/// The family carries *different* data per view on purpose: a reuse bug
/// that mixes one view's rows into another's output is visible in the
/// bytes. Check the precondition holds for a data-bearing stylesheet.
#[test]
fn family_views_produce_distinct_outputs() {
    let (catalog, views) = db_catalog_family(8, 10, 0xFA1);
    let cache = SharedPlanCache::default();
    let outputs: Vec<Vec<String>> = views
        .iter()
        .map(|v| {
            let b = plan_cached_shared(&cache, &catalog, v, LASTNAMES, &RewriteOptions::default())
                .expect("plans");
            render(&catalog, &b)
        })
        .collect();
    let distinct: HashSet<&Vec<String>> = outputs.iter().collect();
    assert_eq!(distinct.len(), outputs.len(), "seeded data must differ per view");
    assert_eq!(cache.stats().misses, 1);
}

// ---------------------------------------------------------------------------
// Negative: same tags, different structure → different canonical shapes,
// distinct cache entries.
// ---------------------------------------------------------------------------

#[test]
fn same_tags_different_shape_get_distinct_entries() {
    let mut catalog = Catalog::new();
    let mut t1 = Table::new("t1", &[("v", ColType::Int)]);
    t1.insert(vec![Datum::Int(1)]).unwrap();
    let mut t2 = Table::new("t2", &[("v", ColType::Int)]);
    t2.insert(vec![Datum::Int(2)]).unwrap();
    catalog.add_table(t1);
    catalog.add_table(t2);
    // Both views publish elements named r and v — but flat vs nested.
    let flat = XmlView::new(
        "flat",
        SqlXmlQuery {
            base_table: "t1".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: PubExpr::elem("r", vec![PubExpr::elem("v", vec![PubExpr::col("t1", "v")])]),
        },
    );
    let nested = XmlView::new(
        "nested",
        SqlXmlQuery {
            base_table: "t2".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: PubExpr::elem(
                "r",
                vec![PubExpr::elem(
                    "v",
                    vec![PubExpr::elem("v", vec![PubExpr::col("t2", "v")])],
                )],
            ),
        },
    );
    catalog.add_view(flat.clone());
    catalog.add_view(nested.clone());

    let src = r#"<xsl:stylesheet version="1.0"
        xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
        <xsl:template match="r"><out><xsl:value-of select="."/></out></xsl:template>
        </xsl:stylesheet>"#;
    let cache = SharedPlanCache::with_shards(xsltdb::DEFAULT_PLAN_CACHE_BYTES, 1);
    let a = plan_cached_shared(&cache, &catalog, &flat, src, &RewriteOptions::default())
        .expect("flat plans");
    let b = plan_cached_shared(&cache, &catalog, &nested, src, &RewriteOptions::default())
        .expect("nested plans");
    assert!(
        !Arc::ptr_eq(&a.plan, &b.plan),
        "different shapes must not share a prepared plan"
    );
    assert_ne!(a.plan.canonical_fp, b.plan.canonical_fp);
    assert_eq!(cache.stats().misses, 2);
    assert_eq!(cache.entry_count(), 2);
}

// ---------------------------------------------------------------------------
// Regression: two different views that share a name keep their own tables.
// ---------------------------------------------------------------------------

#[test]
fn same_named_views_keep_their_own_bindings() {
    // Renamed to one name, neither view is the registered definition.
    let (catalog, mut views) = db_catalog_family(2, 10, 0xFA2);
    for view in &mut views {
        view.name = "v".into();
    }
    let cache = SharedPlanCache::default();
    let opts = RewriteOptions::default();
    let outputs: Vec<Vec<String>> = views
        .iter()
        .map(|view| {
            let cached =
                plan_cached_shared(&cache, &catalog, view, LASTNAMES, &opts).expect("plans");
            let fresh = plan_bound(&catalog, view, LASTNAMES, &opts).expect("plans");
            assert_eq!(render(&catalog, &cached), render(&catalog, &fresh));
            render(&catalog, &cached)
        })
        .collect();
    assert_ne!(outputs[0], outputs[1], "seeded data must differ per view");
    // Same shape: the two views still share one prepared plan.
    assert_eq!(cache.stats().misses, 1);
}

// ---------------------------------------------------------------------------
// Property: rebinding never mixes rows across views.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary family sizes, row counts and seeds, a plan served from
    /// the shared cache and rebound to view `i` renders exactly what a plan
    /// built fresh for view `i` renders — if rebinding leaked another
    /// view's binding, the cached output would contain that view's rows and
    /// the comparison would fail.
    #[test]
    fn rebinding_never_mixes_rows_across_views(
        nviews in 2usize..6,
        rows in 1usize..20,
        seed in any::<u32>(),
    ) {
        let (catalog, views) = db_catalog_family(nviews, rows, seed as u64);
        let sheet = r#"<xsl:stylesheet version="1.0"
            xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
            <xsl:template match="table"><o><xsl:apply-templates select="row"/></o></xsl:template>
            <xsl:template match="row"><n><xsl:value-of select="lastname"/>:<xsl:value-of select="zip"/></n></xsl:template>
            </xsl:stylesheet>"#;
        let cache = SharedPlanCache::default();
        for view in &views {
            let cached = plan_cached_shared(&cache, &catalog, view, sheet, &RewriteOptions::default())
                .expect("plans");
            let fresh = plan_bound(&catalog, view, sheet, &RewriteOptions::default())
                .expect("plans");
            prop_assert_eq!(
                render(&catalog, &cached),
                render(&catalog, &fresh),
                "view {} was served rows that are not its own",
                view.name
            );
        }
        prop_assert_eq!(cache.stats().misses, 1);
    }
}
