//! Acceptance tests for the serving front door under chaos.
//!
//! These drive the chaos harness (`xsltdb_bench::run_chaos`) and pin the
//! front door's contract: at 8 concurrent clients with faults injected at
//! every lattice edge, every admitted-and-served request is byte-identical
//! to the fresh single-threaded result, shed requests get typed
//! rejections, requests faulted at every edge fail with a typed error,
//! and the admission gate returns to zero units in flight once the fleet
//! quiesces. The same contract under DML/DDL churn is
//! `tests/result_cache_churn.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use xsltdb::xqgen::RewriteOptions;
use xsltdb::{FaultKind, FaultPoint, Guard, Limits};
use xsltdb_bench::{run_chaos, ChaosConfig, CHAOS_STACK};
use xsltdb_serve::{FrontDoor, FrontDoorConfig, ServeError};
use xsltdb_xsltmark::{db_catalog, dbonerow_stylesheet, existing_id};

fn smoke_sized(clients: usize) -> ChaosConfig {
    let mut cfg = ChaosConfig::default_chaos(clients);
    cfg.requests_per_client = 20;
    cfg.rows = 24;
    cfg
}

/// The headline acceptance run: 8 clients, faults at every lattice edge.
#[test]
fn chaos_eight_clients_with_faults_holds_the_contract() {
    let report = run_chaos(&smoke_sized(8));
    assert!(report.served > 0, "chaos run served nothing: {report:?}");
    assert_eq!(
        report.mismatches, 0,
        "served bytes diverged from the single-threaded reference: {:?}",
        report.first_mismatch
    );
    assert!(report.quiesced, "admission gate still holds units after quiesce");
    assert_eq!(
        report.served + report.shed + report.failed,
        report.total,
        "requests unaccounted for: {report:?}"
    );
    assert!(report.holds());
    // The schedule injects a deterministic share of budget trips; they
    // must surface as guard trips, not silent successes or hangs.
    assert!(report.guard_trips > 0, "no budget trip surfaced: {report:?}");
}

/// Without injected faults the same fleet serves every request clean.
#[test]
fn chaos_eight_clients_clean_serves_everything() {
    let mut cfg = smoke_sized(8);
    cfg.inject_faults = false;
    let report = run_chaos(&cfg);
    assert_eq!(report.failed, 0, "clean run failed requests: {report:?}");
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.served + report.shed, report.total);
    assert!(report.quiesced);
    assert!(report.holds());
}

/// Satellite: forced degradation to the streamed XQuery tier. Every
/// request loses its SQL tier (alternating error and contained panic),
/// so all 23 SQL-planned cases are actually served by sink-mode XQuery
/// evaluation — events straight to the wire, spills replayed — under 8
/// concurrent clients. The served bytes must stay
/// identical to the clean single-threaded reference, and the admission
/// gate must quiesce: a permit leaking through a spill-path panic would fail
/// `holds()`.
#[test]
fn chaos_sql_faults_degrade_to_streamed_xquery() {
    let mut cfg = ChaosConfig::sql_degrade_chaos(8);
    cfg.requests_per_client = 20;
    cfg.rows = 24;
    let report = run_chaos(&cfg);
    assert!(report.served > 0, "degrade run served nothing: {report:?}");
    assert_eq!(
        report.mismatches, 0,
        "degraded bytes diverged from the reference: {:?}",
        report.first_mismatch
    );
    assert!(
        report.served_xquery > 0,
        "no request was served by the XQuery tier: {report:?}"
    );
    assert!(report.quiesced, "admission gate still holds units after quiesce");
    assert!(report.holds());
}

/// Paged storage under churn: the serving catalog lives on disk pages
/// behind a 6-frame buffer pool — far below the working set of the row
/// table plus three B-tree indexes — while churn writers mutate it and a
/// shadow in-memory catalog in lockstep. Every served request is byte-
/// differenced against the shadow under the same read lock, so this run
/// holds "admitted bytes identical to the `Storage::Mem` execution"
/// while the pool demonstrably evicts and re-reads pages mid-suite.
#[test]
fn chaos_paged_catalog_with_eviction_serves_identical_bytes() {
    let mut cfg = ChaosConfig::paged_chaos(6);
    cfg.requests_per_client = 16;
    // Several heap pages + index pages >> 6 frames, yet below the XQuery
    // evaluator's 96-deep recursion limit: `backwards` recurses once per
    // row, and at 96 rows (95 and up) the uncached reference run for it
    // failed. 64 rows stay under the limit even after two churn writers
    // append their ≤ 8 rows each.
    cfg.rows = 64;
    let report = run_chaos(&cfg);
    assert!(report.served > 0, "paged chaos run served nothing: {report:?}");
    assert_eq!(
        report.mismatches, 0,
        "paged bytes diverged from the in-memory execution: {:?}",
        report.first_mismatch
    );
    assert_eq!(report.stale_serves, 0);
    assert!(report.writer_mutations > 0, "churn writers never ran");
    assert!(report.holds());
    let pool = report.pool.expect("paged run reports pool counters");
    assert!(
        pool.evictions > 0,
        "pool never evicted — the budget did not constrain the suite: {pool:?}"
    );
    assert!(
        pool.peak_resident_frames <= 6,
        "pool overran its frame budget: {pool:?}"
    );
}

/// Admission accounting under panic. Every request panics at every
/// lattice edge, so each one unwinds through `catch_unwind` while holding
/// a live permit. After 1000 such iterations across 8 threads nothing may
/// be leaked: the gate must be back to zero bytes and streams in flight.
#[test]
fn ledger_returns_reservations_after_1000_panicking_requests() {
    let mut cfg = FrontDoorConfig::server_default();
    // Metered limits so every request draws real bytes at the gate — a
    // leak shows up as a non-quiesced gate.
    cfg.limits = Limits::UNLIMITED.with_fuel(1_000_000).with_max_output_bytes(1 << 20);
    let door = FrontDoor::new(cfg);
    let (catalog, view) = db_catalog(24, 7);
    let sheet = dbonerow_stylesheet(existing_id(24));
    let opts = RewriteOptions::default();
    let failures = AtomicU64::new(0);

    const THREADS: usize = 8;
    const PER_THREAD: usize = 125; // 8 × 125 = 1000 iterations
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let door = &door;
            let catalog = &catalog;
            let view = &view;
            let sheet = &sheet;
            let opts = &opts;
            let failures = &failures;
            std::thread::Builder::new()
                .stack_size(CHAOS_STACK)
                .spawn_scoped(s, move || {
                    for _ in 0..PER_THREAD {
                        let result = door.transform_with(
                            catalog,
                            view,
                            sheet,
                            opts,
                            &|limits| {
                                // Panic at *every* edge: the request can
                                // never succeed.
                                Guard::new(limits)
                                    .with_fault(FaultPoint::SqlExec, FaultKind::Panic)
                                    .with_fault(FaultPoint::XQueryExec, FaultKind::Panic)
                                    .with_fault(FaultPoint::VmExec, FaultKind::Panic)
                                    .with_fault(FaultPoint::Materialize, FaultKind::Panic)
                            },
                        );
                        match result {
                            Ok(out) => panic!(
                                "all-edge panic request succeeded: {} bytes via {:?}",
                                out.bytes.len(),
                                out.tier
                            ),
                            Err(ServeError::Pipeline { .. }) | Err(ServeError::Rejected(_)) => {
                                failures.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
                .expect("spawn panic-chaos thread");
        }
    });

    assert_eq!(failures.load(Ordering::Relaxed) as usize, THREADS * PER_THREAD);
    let snap = door.queue().stats();
    assert!(
        snap.is_quiesced(),
        "admission gate leaked units after panic storm: {snap:?}"
    );
}
