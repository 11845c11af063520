//! The churn differential suite: the transform-result cache under
//! concurrent DML/DDL writers, gated on byte identity with fresh
//! uncached execution.
//!
//! The contract under test (ISSUE 7 tentpole):
//!
//! * **Zero stale serves** — with writers mutating the read-set table and
//!   an unrelated scratch table while K reader threads replay the 40-case
//!   XSLTMark suite, every served byte equals a fresh uncached execution
//!   run under the *same* catalog read lock. One stale byte fails the
//!   suite.
//! * **Narrow eviction** — DML on table A must not cost results whose
//!   read set is `{B}`; an index-add DDL on B must not force a replan of
//!   the same-shaped canonical plan when it is looked up for bindings
//!   over A. Eviction counts are asserted exactly, not as inequalities.

use xsltdb::xqgen::RewriteOptions;
use xsltdb_bench::{run_chaos, ChaosConfig};
use xsltdb_relstore::Datum;
use xsltdb_serve::{FrontDoor, FrontDoorConfig};
use xsltdb_xsltmark::{all_cases, db_catalog_family};

/// One churn row for the family's 7-column `db_rows_{i}` schema.
fn churn_row(id: i64) -> Vec<Datum> {
    vec![
        Datum::Int(id),
        Datum::Text("Churn".into()),
        Datum::Text("Writer".into()),
        Datum::Text("1 Churn St".into()),
        Datum::Text("Churnville".into()),
        Datum::Text("ZZ".into()),
        Datum::Int(99_999),
    ]
}

/// 8 reader threads × 40 requests each (every reader sees all 40 cases)
/// racing two churn writers, no injected faults: the pure freshness gate.
#[test]
fn churn_suite_8_readers_serves_zero_stale_bytes() {
    let mut cfg = ChaosConfig::churn_chaos(8);
    cfg.inject_faults = false;
    let report = run_chaos(&cfg);
    assert_eq!(
        report.stale_serves, 0,
        "result cache served stale bytes: {:?}",
        report.first_mismatch
    );
    assert_eq!(report.mismatches, 0, "byte divergence: {:?}", report.first_mismatch);
    assert!(report.writer_mutations > 0, "churn writers never landed a mutation");
    assert!(report.served > 0, "no request survived the churn run");
    assert!(report.quiesced, "admission gate held units after quiesce");
    assert!(report.holds(), "chaos invariants failed");
}

/// Same gate with the full fault schedule on top: panics, errors, and
/// budget trips at every lattice edge must still never surface one stale
/// or partial byte from the cache.
#[test]
fn churn_suite_survives_injected_faults() {
    let mut cfg = ChaosConfig::churn_chaos(4);
    cfg.requests_per_client = 20;
    let report = run_chaos(&cfg);
    assert_eq!(
        report.stale_serves, 0,
        "result cache served stale bytes under faults: {:?}",
        report.first_mismatch
    );
    assert_eq!(report.mismatches, 0, "byte divergence: {:?}", report.first_mismatch);
    assert!(report.holds(), "chaos invariants failed under faults");
}

/// DML on `db_rows_0` must evict exactly the one cached result whose
/// read set contains it; the same-shaped result bound to `db_rows_1`
/// keeps serving the very same bytes.
#[test]
fn dml_evicts_exactly_the_read_set_affected_result() {
    let (mut catalog, views) = db_catalog_family(2, 16, 7);
    let case = &all_cases()[0];
    let opts = RewriteOptions::default();
    let door = FrontDoor::new(FrontDoorConfig::server_default());

    let a0 = door.transform(&catalog, &views[0], &case.stylesheet, &opts).expect("fill A");
    let b0 = door.transform(&catalog, &views[1], &case.stylesheet, &opts).expect("fill B");
    assert!(!a0.cached && !b0.cached);
    let warm_a = door.transform(&catalog, &views[0], &case.stylesheet, &opts).expect("warm A");
    let warm_b = door.transform(&catalog, &views[1], &case.stylesheet, &opts).expect("warm B");
    assert!(warm_a.cached && warm_b.cached, "identical repeats must hit");
    assert_eq!(door.stats().result_invalidations, 0);

    // DML on A's row table (+ reindex, so the SQL tier's indexes agree
    // with the heap the other tiers scan).
    catalog.table_mut("db_rows_0").unwrap().insert(churn_row(900_001)).unwrap();
    catalog.reindex("db_rows_0").unwrap();

    // B first: its entry must still be live — zero invalidations so far.
    let b1 = door.transform(&catalog, &views[1], &case.stylesheet, &opts).expect("B after DML");
    assert!(b1.cached, "DML on db_rows_0 must not evict a result bound to db_rows_1");
    assert_eq!(b1.bytes, b0.bytes);
    assert_eq!(door.stats().result_invalidations, 0, "negative invalidation violated");

    // A re-executes: exactly one invalidation, no more.
    let a1 = door.transform(&catalog, &views[0], &case.stylesheet, &opts).expect("A after DML");
    assert!(!a1.cached, "stale A entry served after DML");
    assert_eq!(door.stats().result_invalidations, 1, "expected exactly one eviction");
}

/// Index-add DDL on `db_rows_1` must not force a replan when the shared
/// same-shaped canonical plan is looked up for bindings over table A —
/// and the plan-cache eviction count is exactly one (B's lookup).
#[test]
fn index_ddl_on_b_keeps_the_plan_warm_for_a() {
    let (mut catalog, views) = db_catalog_family(2, 16, 7);
    let case = &all_cases()[0];
    let opts = RewriteOptions::default();
    // Result cache off: every request exercises the plan cache.
    let mut cfg = FrontDoorConfig::server_default();
    cfg.result_cache_bytes = 0;
    let door = FrontDoor::new(cfg);

    // One canonical entry serves the whole same-shaped family.
    door.transform(&catalog, &views[0], &case.stylesheet, &opts).expect("plan A");
    door.transform(&catalog, &views[1], &case.stylesheet, &opts).expect("reuse for B");
    let warm = door.cache().stats();
    assert_eq!(warm.misses, 1, "family must share one canonical plan entry");
    assert_eq!(warm.hits, 1);

    catalog.create_index("db_rows_1", "firstname").expect("index-add DDL on B");

    // A's validity floor is untouched by B's DDL: still a hit, zero
    // invalidations.
    door.transform(&catalog, &views[0], &case.stylesheet, &opts).expect("A after DDL on B");
    let after_a = door.cache().stats();
    assert_eq!(after_a.hits, 2, "DDL on db_rows_1 must not evict the plan for db_rows_0");
    assert_eq!(after_a.invalidations, 0, "negative plan invalidation violated");

    // B's floor rose: exactly one invalidation-driven replan.
    door.transform(&catalog, &views[1], &case.stylesheet, &opts).expect("B after DDL on B");
    let after_b = door.cache().stats();
    assert_eq!(after_b.invalidations, 1, "expected exactly one plan eviction");
    assert_eq!(after_b.misses, 2);

    // And the replanned entry serves A again (its floor is still low).
    door.transform(&catalog, &views[0], &case.stylesheet, &opts).expect("A reuses replan");
    assert_eq!(door.cache().stats().hits, 3);
}

/// The eviction-targeting gate over a warm 4-view family: DML on one
/// view's row table evicts exactly one cached result, index-add DDL on
/// another exactly one more, DDL on a table outside every read set none —
/// and every survivor keeps serving from the cache.
#[test]
fn mutations_evict_exactly_the_read_set_affected_entries() {
    let (mut catalog, views) = db_catalog_family(4, 8, 7);
    let case = &all_cases()[0];
    let opts = RewriteOptions::default();
    let door = FrontDoor::new(FrontDoorConfig::server_default());
    for _ in 0..2 {
        for v in &views {
            door.transform(&catalog, v, &case.stylesheet, &opts).expect("warm fill");
        }
    }
    let mut last = door.stats().result_invalidations;
    // Serve every view once: evicted entries re-execute, survivors hit.
    let mut probe = |catalog: &xsltdb_relstore::Catalog, mutation: &str, expected: u64| {
        let survivors = views
            .iter()
            .filter(|v| door.transform(catalog, v, &case.stylesheet, &opts).expect("serve").cached)
            .count() as u64;
        let now = door.stats().result_invalidations;
        assert_eq!(now - last, expected, "{mutation}: evictions");
        assert_eq!(survivors, views.len() as u64 - expected, "{mutation}: survivors");
        last = now;
    };

    catalog.table_mut("db_rows_0").unwrap().insert(churn_row(900_001)).unwrap();
    catalog.reindex("db_rows_0").unwrap();
    probe(&catalog, "dml db_rows_0", 1);
    catalog.create_index("db_rows_1", "firstname").unwrap();
    probe(&catalog, "create_index db_rows_1", 1);
    catalog.add_table(xsltdb_relstore::Table::new(
        "invalidate_scratch",
        &[("tick", xsltdb_relstore::ColType::Int)],
    ));
    probe(&catalog, "add_table scratch", 0);
}
