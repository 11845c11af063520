//! Cache-correctness suite for the plan cache, run through a one-shard
//! (exclusive) [`SharedPlanCache`]: the cache must be *proven* equivalent
//! to the uncached path, not just fast.
//!
//! Differential tests: for every XSLTMark case, the output of a cached
//! plan is byte-identical to a freshly planned run; a DDL generation bump
//! invalidates and replans; a guard trip on one execution leaves the
//! cached entry reusable. Property tests (deterministic proptest stub):
//! distinct key triples never collide, the byte budget is never exceeded,
//! and `hits + misses == lookups` under arbitrary interleavings of
//! lookups and invalidations.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use xsltdb::pipeline::{no_rewrite_transform, plan_cached_shared};
use xsltdb::plancache::SharedPlanCache;
use xsltdb::xqgen::RewriteOptions;
use xsltdb::{Guard, Limits};
use xsltdb_relstore::ExecStats;
use xsltdb_xml::to_string;
use xsltdb_xsltmark::{db_catalog, dbonerow_stylesheet, existing_id, run_suite_planned_shared};

/// Recursive suite cases need more stack than the 2 MiB test threads get.
fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("suite thread panicked")
}

/// The exclusive cache: one LRU holding the whole byte budget.
fn exclusive(capacity: usize) -> SharedPlanCache {
    SharedPlanCache::with_shards(capacity, 1)
}

fn wrap(body: &str) -> String {
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">{body}</xsl:stylesheet>"#
    )
}

/// A small family of distinct, SQL-tier-friendly stylesheets over the db
/// view, parameterised by an output element name.
fn named_sheet(name: &str) -> String {
    wrap(&format!(
        r#"<xsl:template match="table"><{name}><xsl:value-of select="count(row)"/></{name}></xsl:template>"#
    ))
}

// ---------------------------------------------------------------------------
// Acceptance (a): ≥ 90% hit rate on a repeated-workload loop.
// ---------------------------------------------------------------------------

#[test]
fn repeated_workload_hit_rate_is_at_least_90_percent() {
    let (catalog, view) = db_catalog(50, 0xCAFE);
    let cache = exclusive(xsltdb::DEFAULT_PLAN_CACHE_BYTES);
    let sheets: Vec<String> =
        ["a", "b", "c", "d", "e"].iter().map(|n| named_sheet(n)).collect();
    let stats = ExecStats::new();
    // The amortisation scenario of PAPER.md §4: the same few stylesheets
    // applied over and over to the same XMLType.
    for round in 0..20 {
        for src in &sheets {
            let plan = plan_cached_shared(&cache, &catalog, &view, src, &RewriteOptions::default())
                .expect("plans");
            let docs = plan.execute(&catalog, &stats).expect("executes");
            assert_eq!(docs.len(), 1, "round {round}");
        }
    }
    let snap = cache.stats();
    assert_eq!(snap.lookups(), 100);
    assert_eq!(snap.misses as usize, sheets.len(), "one cold plan per stylesheet");
    assert!(
        snap.hit_rate() >= 0.9,
        "hit rate {:.2} below 0.9 ({} hits / {} lookups)",
        snap.hit_rate(),
        snap.hits,
        snap.lookups()
    );
}

// ---------------------------------------------------------------------------
// Acceptance (b): byte-identical output, cached vs freshly planned, across
// every XSLTMark case — on the cold pass and on the fully cached pass.
// ---------------------------------------------------------------------------

#[test]
fn cached_output_is_byte_identical_across_the_suite() {
    on_big_stack(|| {
        let cache = exclusive(xsltdb::DEFAULT_PLAN_CACHE_BYTES);
        for pass in 0..2 {
            let runs = run_suite_planned_shared(12, 0xD1FF, &cache);
            assert_eq!(runs.len(), 40);
            for run in &runs {
                assert!(
                    run.matches_fresh,
                    "pass {pass}: case {} cached output differs from a fresh plan: {:?}",
                    run.name, run.note
                );
                assert!(
                    run.matches_vm,
                    "pass {pass}: case {} cached output differs from the VM baseline: {:?}",
                    run.name, run.note
                );
            }
        }
        let snap = cache.stats();
        assert_eq!(snap.hits, 40, "second pass must be served from the cache");
        assert_eq!(snap.misses, 40);
    });
}

// ---------------------------------------------------------------------------
// Acceptance (c): a DDL generation bump invalidates; the replanned output
// is identical even though the planner ran again.
// ---------------------------------------------------------------------------

#[test]
fn ddl_generation_bump_invalidates_and_replans_identically() {
    let rows = 60;
    let (mut catalog, view) = db_catalog(rows, 0xDD1);
    let cache = exclusive(xsltdb::DEFAULT_PLAN_CACHE_BYTES);
    let src = dbonerow_stylesheet(existing_id(rows));
    let stats = ExecStats::new();

    let before = plan_cached_shared(&cache, &catalog, &view, &src, &RewriteOptions::default())
        .expect("plans");
    let out_before: Vec<String> =
        before.execute(&catalog, &stats).expect("executes").iter().map(to_string).collect();

    // DDL: a new index. The lookup must miss, count an invalidation, and
    // replan. The tier chosen may change; the output must not.
    catalog.create_index("db_rows", "city").expect("column exists");
    let after = plan_cached_shared(&cache, &catalog, &view, &src, &RewriteOptions::default())
        .expect("replans");
    assert!(!Arc::ptr_eq(&before.plan, &after.plan), "stale plan must not be served after DDL");
    let snap = cache.stats();
    assert_eq!(snap.invalidations, 1);
    assert_eq!(snap.misses, 2);
    assert_eq!(snap.hits, 0);

    let out_after: Vec<String> =
        after.execute(&catalog, &stats).expect("executes").iter().map(to_string).collect();
    assert_eq!(out_before, out_after, "replanned output differs after DDL");

    // And the replanned entry is a normal cache citizen again.
    let third = plan_cached_shared(&cache, &catalog, &view, &src, &RewriteOptions::default())
        .expect("hits");
    assert!(Arc::ptr_eq(&after.plan, &third.plan));
    assert_eq!(cache.stats().hits, 1);
}

// ---------------------------------------------------------------------------
// Acceptance (d): a guard trip on a cached plan leaves the entry reusable.
// ---------------------------------------------------------------------------

#[test]
fn guard_trip_never_poisons_the_cached_entry() {
    let rows = 120;
    let (catalog, view) = db_catalog(rows, 0x6A12);
    let cache = exclusive(xsltdb::DEFAULT_PLAN_CACHE_BYTES);
    // The identity case walks every row: plenty of fuel to burn.
    let src = wrap(
        r#"<xsl:template match="@*|node()">
             <xsl:copy><xsl:apply-templates select="@*|node()"/></xsl:copy>
           </xsl:template>"#,
    );
    let stats = ExecStats::new();
    let plan = plan_cached_shared(&cache, &catalog, &view, &src, &RewriteOptions::default())
        .expect("plans");

    // Execution #1: starved budget → guard trip, reported as such.
    let starved = Guard::new(Limits::UNLIMITED.with_fuel(5));
    let tripped = plan
        .execute_to_writer(&catalog, &stats, &starved, &mut Vec::new())
        .expect_err("5 fuel cannot transform 120 rows");
    assert!(tripped.is_guard_trip(), "expected a guard trip, got {tripped:?}");

    // The entry is still cached and still the same prepared plan.
    let again = plan_cached_shared(&cache, &catalog, &view, &src, &RewriteOptions::default())
        .expect("still cached");
    assert!(Arc::ptr_eq(&plan.plan, &again.plan), "trip must not drop or rebuild the entry");
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(cache.stats().invalidations, 0);

    // Execution #2: a fresh guard with a real budget runs to completion and
    // matches the uncached baseline byte for byte.
    let mut got = Vec::new();
    again
        .execute_to_writer(&catalog, &stats, &Guard::new(Limits::UNLIMITED), &mut got)
        .expect("fresh budget executes");
    let baseline = no_rewrite_transform(&catalog, &view, again.sheet(), &stats).expect("baseline");
    let expected: String = baseline.documents.iter().map(to_string).collect();
    assert_eq!(String::from_utf8(got).expect("UTF-8"), expected);
}

// ---------------------------------------------------------------------------
// Property tests (deterministic proptest stub).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Distinct (stylesheet, structinfo, options) triples never collide to
    /// the same cache entry: every distinct triple gets its own slot, and a
    /// later lookup returns exactly the plan that was prepared for it.
    #[test]
    fn distinct_triples_never_collide(
        names in proptest::collection::vec("[a-z]{1,6}", 1..8),
        inline in any::<bool>(),
        annotate in any::<bool>(),
    ) {
        let (catalog, view) = db_catalog(3, 0xA11);
        let cache = exclusive(xsltdb::DEFAULT_PLAN_CACHE_BYTES);
        let mut seen: HashMap<(String, bool), Arc<xsltdb::TransformPlan>> = HashMap::new();
        for name in &names {
            for flip in [false, true] {
                let opts = RewriteOptions {
                    inline: inline ^ flip,
                    annotate,
                    ..RewriteOptions::default()
                };
                let src = named_sheet(name);
                let plan = plan_cached_shared(&cache, &catalog, &view, &src, &opts)
                    .expect("plans");
                seen.entry((src, inline ^ flip)).or_insert(plan.plan);
            }
        }
        // One entry per distinct triple…
        prop_assert_eq!(cache.entry_count(), seen.len());
        // …and every triple still maps to its own prepared plan.
        for ((src, inl), expected) in &seen {
            let opts = RewriteOptions { inline: *inl, annotate, ..RewriteOptions::default() };
            let got = plan_cached_shared(&cache, &catalog, &view, src, &opts).expect("hits");
            prop_assert!(Arc::ptr_eq(expected, &got.plan), "triple served a different plan");
        }
    }

    /// The byte budget is a hard ceiling: no interleaving of inserts drives
    /// `bytes_in_use` past the capacity, whatever the capacity. Each of
    /// these plans costs ≈ 9 kB, so every capacity here admits one and
    /// none admits five: five distinct sheets must evict.
    #[test]
    fn lru_capacity_is_never_exceeded(
        capacity in 10_000usize..40_000,
        names in proptest::collection::vec("[a-z]{1,6}", 5..12),
    ) {
        let (catalog, view) = db_catalog(3, 0xB22);
        let cache = exclusive(capacity);
        for name in &names {
            let src = named_sheet(name);
            let _ = plan_cached_shared(&cache, &catalog, &view, &src, &RewriteOptions::default())
                .expect("plans");
            prop_assert!(
                cache.bytes_in_use() <= cache.capacity_bytes(),
                "{} bytes in a {}-byte cache",
                cache.bytes_in_use(),
                cache.capacity_bytes()
            );
        }
        let snap = cache.stats();
        prop_assert_eq!(snap.lookups(), names.len() as u64);
        prop_assert_eq!(snap.uncacheable, 0);
        // Every miss inserts; every insert is still cached or was evicted.
        prop_assert_eq!(cache.entry_count() as u64 + snap.evictions, snap.misses);
        let distinct: std::collections::HashSet<&String> = names.iter().collect();
        if distinct.len() >= 5 {
            prop_assert!(snap.evictions > 0, "{} sheets in {capacity} bytes", distinct.len());
        }
    }

    /// Accounting invariant: every lookup is exactly one hit or one miss,
    /// under arbitrary interleavings of lookups and DDL invalidations.
    #[test]
    fn hits_plus_misses_equals_lookups_under_interleaving(
        ops in proptest::collection::vec((0usize..4, any::<bool>()), 1..40),
    ) {
        let (mut catalog, view) = db_catalog(3, 0xC33);
        let cache = exclusive(xsltdb::DEFAULT_PLAN_CACHE_BYTES);
        let sheets = ["aa", "bb", "cc", "dd"].map(named_sheet);
        // Columns cycled through by the invalidation op (rebuilding an
        // existing index is DDL too and bumps the generation).
        let columns = ["city", "state", "zip", "lastname"];
        let mut lookups = 0u64;
        for (i, &(sheet_idx, invalidate)) in ops.iter().enumerate() {
            if invalidate {
                catalog.create_index("db_rows", columns[i % columns.len()])
                    .expect("column exists");
            }
            let _ = plan_cached_shared(
                &cache,
                &catalog,
                &view,
                &sheets[sheet_idx],
                &RewriteOptions::default(),
            )
            .expect("plans");
            lookups += 1;
            let snap = cache.stats();
            prop_assert_eq!(snap.hits + snap.misses, lookups);
            prop_assert_eq!(snap.lookups(), lookups);
        }
        // Invalidations can never outnumber misses: every invalidation is
        // part of a miss.
        let snap = cache.stats();
        prop_assert!(snap.invalidations <= snap.misses);
    }
}
