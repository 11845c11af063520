//! Plan-cache tour: prepared-transform caching with invalidation.
//!
//! Drives `plan_cached_shared` through a one-shard (exclusive)
//! `SharedPlanCache` end-to-end on the XSLTMark `dbonerow` workload:
//! cold miss, warm hit sharing the prepared plan, DDL-generation
//! invalidation after `create_index`, and guard-trip isolation (a tripped
//! execution never poisons the cached entry). Every numbered line is an
//! assertion — the binary panics if a behavior regresses.
//!
//! Run with: `cargo run --example plan_cache_demo`

use std::sync::Arc;
use xsltdb::pipeline::plan_cached_shared;
use xsltdb::{Guard, Limits, SharedPlanCache, Tier, DEFAULT_PLAN_CACHE_BYTES};
use xsltdb_relstore::ExecStats;
use xsltdb_xsltmark::{db_catalog, dbonerow_stylesheet, existing_id};

fn main() {
    let rows = 300;
    let (mut catalog, view) = db_catalog(rows, 0xDB);
    let src = dbonerow_stylesheet(existing_id(rows));
    let opts = Default::default();
    let cache = SharedPlanCache::with_shards(DEFAULT_PLAN_CACHE_BYTES, 1);

    // [1] Cold call: miss, plan from scratch, lands on the SQL tier.
    let p1 = plan_cached_shared(&cache, &catalog, &view, &src, &opts).expect("plans");
    assert_eq!(p1.tier(), Tier::Sql, "fallback: {:?}", p1.fallback_reason());
    assert_eq!((cache.stats().hits, cache.stats().misses), (0, 1));
    println!("[1] cold call: 1 miss, planned to {:?} tier", p1.tier());

    // [2] Warm call: hit, the very same prepared plan is shared (the
    // binding wrapper is fresh, the identity-free plan behind it is not).
    let p2 = plan_cached_shared(&cache, &catalog, &view, &src, &opts).expect("plans");
    assert!(Arc::ptr_eq(&p1.plan, &p2.plan));
    assert_eq!(cache.stats().hits, 1);
    println!("[2] warm call: hit, same Arc — planning pipeline skipped");

    // [3] Cached output is byte-identical to the VM baseline.
    let stats = ExecStats::new();
    let cached = p2.execute(&catalog, &stats).expect("runs");
    let baseline = xsltdb::pipeline::no_rewrite_transform(&catalog, &view, p2.sheet(), &stats)
        .expect("baseline runs")
        .documents;
    let render = |docs: &[xsltdb_xml::Document]| -> Vec<String> {
        docs.iter().map(xsltdb_xml::to_string).collect()
    };
    assert_eq!(render(&cached), render(&baseline));
    println!("[3] cached plan output == functional baseline, byte for byte");

    // [4] DDL bumps the catalog generation: the entry is invalidated and
    // the workload replans (to an identical answer).
    let g = catalog.generation();
    catalog.create_index("db_rows", "city").expect("index builds");
    assert!(catalog.generation() > g);
    let p3 = plan_cached_shared(&cache, &catalog, &view, &src, &opts).expect("replans");
    assert!(!Arc::ptr_eq(&p2.plan, &p3.plan), "stale plan must not be served");
    assert_eq!(cache.stats().invalidations, 1);
    let replanned = p3.execute(&catalog, &ExecStats::new()).expect("runs");
    assert_eq!(render(&replanned), render(&baseline));
    println!("[4] create_index invalidated the entry; replan agrees byte for byte");

    // [5] A guard trip is per-execution: the cached entry stays reusable.
    let starved = Guard::new(Limits::UNLIMITED.with_fuel(3));
    let err = p3
        .execute_to_writer(&catalog, &ExecStats::new(), &starved, &mut std::io::sink())
        .expect_err("3 fuel cannot finish");
    assert!(err.is_guard_trip());
    let p4 = plan_cached_shared(&cache, &catalog, &view, &src, &opts).expect("plans");
    assert!(Arc::ptr_eq(&p3.plan, &p4.plan), "trip must not poison the entry");
    let mut retried = Vec::new();
    p4.execute_to_writer(&catalog, &ExecStats::new(), &Guard::unlimited(), &mut retried)
        .expect("full budget finishes");
    assert_eq!(String::from_utf8(retried).expect("UTF-8"), render(&baseline).concat());
    println!("[5] guard trip contained; entry reused and full-budget retry agrees");

    let snap = cache.stats();
    println!(
        "[6] counters: {} hits / {} misses / {} invalidations over {} lookups ({:.0}% hit rate)",
        snap.hits,
        snap.misses,
        snap.invalidations,
        snap.lookups(),
        snap.hit_rate() * 100.0
    );
}
