//! Concurrency suite for the SharedPlanCache: many sessions, one cache,
//! zero divergence.
//!
//! Differential test: eight threads run the full 40-case XSLTMark suite
//! through **one** [`SharedPlanCache`], and every cached plan's output is
//! byte-identical to a freshly planned run and to the functional (VM)
//! baseline — while the aggregate hit rate stays ≥ 90% because one cold
//! pass prepared every plan the sessions share. Property test
//! (deterministic proptest stub): arbitrary interleavings of inserts,
//! lookups and DDL generation bumps across four threads never exceed the
//! byte budget and never return a stale-generation plan — each dummy plan
//! is tagged with the generation it was prepared at, so a lookup can check
//! the tag of whatever comes back against the generation it asked for.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use xsltdb::pipeline::{plan_cached_shared, plan_transform, Tier, TransformPlan};
use xsltdb::plancache::{PlanKey, SharedPlanCache};
use xsltdb::xqgen::RewriteOptions;
use xsltdb::Guard;
use xsltdb_relstore::{ColType, ExecStats, Table};
use xsltdb_xsltmark::{db_catalog, dbonerow_stylesheet, existing_id, run_suite_planned_shared};

/// Recursive suite cases need more stack than the 2 MiB test threads get,
/// and the concurrent phase needs that headroom on *every* session thread.
const SUITE_STACK: usize = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Differential: 8 sessions × 40 cases through one cache, byte-identical,
// ≥ 90% aggregate hit rate.
// ---------------------------------------------------------------------------

#[test]
fn eight_threads_share_one_cache_byte_identically() {
    const THREADS: usize = 8;
    const PASSES_PER_THREAD: usize = 2;
    let cache = SharedPlanCache::default();

    // Cold pass: exactly one miss per case prepares the plans every
    // session below will share.
    std::thread::scope(|s| {
        let cache = &cache;
        std::thread::Builder::new()
            .stack_size(SUITE_STACK)
            .spawn_scoped(s, move || {
                let runs = run_suite_planned_shared(12, 0xD1FF, cache);
                assert_eq!(runs.len(), 40);
                for run in &runs {
                    assert!(run.matches_fresh, "cold: {} diverged: {:?}", run.name, run.note);
                    assert!(run.matches_vm, "cold: {} vs VM: {:?}", run.name, run.note);
                    assert!(
                        run.matches_streamed,
                        "cold: {} streamed different bytes: {:?}",
                        run.name, run.note
                    );
                }
            })
            .expect("spawn cold pass");
    });
    let cold = cache.stats();
    assert_eq!(cold.misses, 40, "one cold plan per case");
    assert_eq!(cache.entry_count(), 40, "every case fits in the default budget");

    // Concurrent phase: 8 sessions each run the suite twice against the
    // warm cache. Every output must match a fresh plan and the VM baseline
    // byte for byte, from every thread.
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let cache = &cache;
            std::thread::Builder::new()
                .stack_size(SUITE_STACK)
                .spawn_scoped(s, move || {
                    for pass in 0..PASSES_PER_THREAD {
                        let runs = run_suite_planned_shared(12, 0xD1FF, cache);
                        assert_eq!(runs.len(), 40);
                        for run in &runs {
                            assert!(
                                run.matches_fresh,
                                "thread {t} pass {pass}: case {} cached output differs \
                                 from a fresh plan: {:?}",
                                run.name, run.note
                            );
                            assert!(
                                run.matches_vm,
                                "thread {t} pass {pass}: case {} cached output differs \
                                 from the VM baseline: {:?}",
                                run.name, run.note
                            );
                            assert!(
                                run.matches_streamed,
                                "thread {t} pass {pass}: case {} streamed bytes differ \
                                 from serialized execute output: {:?}",
                                run.name, run.note
                            );
                        }
                    }
                })
                .expect("spawn session thread");
        }
    });

    let snap = cache.stats();
    let expected_lookups = 40 * (1 + THREADS * PASSES_PER_THREAD) as u64;
    assert_eq!(snap.lookups(), expected_lookups);
    assert_eq!(snap.misses, 40, "no session after the cold pass may miss");
    assert_eq!(snap.hits + snap.misses, snap.lookups());
    assert!(
        snap.hit_rate() >= 0.90,
        "aggregate hit rate {:.3} below 0.90 ({} hits / {} lookups)",
        snap.hit_rate(),
        snap.hits,
        snap.lookups()
    );
}

// ---------------------------------------------------------------------------
// DDL bump while a streamed execution is in flight: the in-flight call
// finishes byte-identically against its catalog snapshot; the next lookup
// at the bumped generation replans instead of serving the stale entry.
// ---------------------------------------------------------------------------

/// A writer that parks the streaming thread mid-flight: the first `write`
/// signals `started` and then blocks on `gate`, so the test can run DDL
/// while bytes are provably on the wire.
struct GatedWriter {
    bytes: Vec<u8>,
    started: Option<mpsc::Sender<()>>,
    gate: mpsc::Receiver<()>,
}

impl std::io::Write for GatedWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(tx) = self.started.take() {
            let _ = tx.send(());
            let _ = self.gate.recv();
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn ddl_bump_mid_stream_finishes_in_flight_call_and_replans_next_lookup() {
    let (mut catalog, view) = db_catalog(24, 0xDD1);
    let cache = SharedPlanCache::default();
    let sheet = dbonerow_stylesheet(existing_id(24));
    let opts = RewriteOptions::default();
    let gen0 = catalog.generation();

    // Plan at generation 0 and take the reference output single-threaded.
    let bound = plan_cached_shared(&cache, &catalog, &view, &sheet, &opts).expect("plans");
    let plan0 = Arc::clone(bound.plan());
    let mut expected = Vec::new();
    bound
        .execute_to_writer(&catalog, &ExecStats::new(), &Guard::unlimited(), &mut expected)
        .expect("reference run");
    assert!(!expected.is_empty());

    // The in-flight session executes against its own catalog snapshot —
    // the shape it planned for — while DDL reshapes the original.
    let snapshot = catalog.clone();
    let (started_tx, started_rx) = mpsc::channel();
    let (gate_tx, gate_rx) = mpsc::channel();
    let streamer = {
        let bound = plan_cached_shared(&cache, &snapshot, &view, &sheet, &opts).expect("plans");
        std::thread::Builder::new()
            .stack_size(SUITE_STACK)
            .spawn(move || {
                let mut w =
                    GatedWriter { bytes: Vec::new(), started: Some(started_tx), gate: gate_rx };
                let run = bound
                    .execute_to_writer(&snapshot, &ExecStats::new(), &Guard::unlimited(), &mut w)
                    .expect("in-flight stream completes");
                (w.bytes, run)
            })
            .expect("spawn streaming session")
    };

    // Wait until the stream has bytes on the wire, then run DDL on the
    // original catalog while the execution is parked mid-write.
    started_rx.recv().expect("stream started");

    // DDL on an *unrelated* table moves the global clock but not the
    // read-set floor: invalidation is plan-aware, so the entry stays warm.
    catalog.add_table(Table::new("ddl_bump_marker", &[("a", ColType::Int)]));
    assert_eq!(catalog.generation(), gen0 + 1);
    let still = plan_cached_shared(&cache, &catalog, &view, &sheet, &opts).expect("still cached");
    assert!(
        Arc::ptr_eq(&plan0, still.plan()),
        "DDL on an unrelated table must not evict the plan"
    );

    // DDL on a table the plan *reads* must replan — the old entry is
    // stale and may not be served.
    catalog.create_index("db_rows", "zip").expect("bound table reindexes");
    let rebound = plan_cached_shared(&cache, &catalog, &view, &sheet, &opts).expect("replans");
    assert!(
        !Arc::ptr_eq(&plan0, rebound.plan()),
        "lookup after DDL on a read-set table served the stale plan"
    );

    // Release the gate: the in-flight call finishes byte-identically.
    gate_tx.send(()).expect("release gate");
    let (bytes, run) = streamer.join().expect("streaming session panicked");
    assert_eq!(bytes, expected, "in-flight stream diverged after DDL bump (tier {:?})", run.tier);
    assert!(run.fallbacks.is_empty(), "in-flight stream fell back: {:?}", run.fallbacks);

    // And the replanned entry serves the same bytes at the new generation.
    let mut after = Vec::new();
    rebound
        .execute_to_writer(&catalog, &ExecStats::new(), &Guard::unlimited(), &mut after)
        .expect("replanned run");
    assert_eq!(after, expected);
}

// ---------------------------------------------------------------------------
// Property: concurrent insert/lookup/DDL-bump interleavings respect the
// byte budget and never serve a stale-generation plan.
// ---------------------------------------------------------------------------

/// A marker plan whose `fallback_reason` records the DDL generation it was
/// prepared at, so a lookup can detect staleness in what it gets back. Its
/// canonical fingerprint matches the `0xF00D` the test keys carry.
/// `generate-id()` keeps it on the VM tier with no rewrite: the ≈ 6.3 kB
/// marker the capacities below are sized for.
fn tagged_plan(generation: u64) -> Arc<TransformPlan> {
    let (_, view) = db_catalog(1, 1);
    let mut plan = plan_transform(
        &view,
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
           <xsl:template match="table"><t id="{generate-id(.)}"/></xsl:template></xsl:stylesheet>"#,
        &RewriteOptions::default(),
    )
    .expect("marker stylesheet plans");
    assert_eq!(plan.tier, Tier::Vm);
    assert!(plan.rewrite.is_none());
    plan.canonical_fp = 0xF00D;
    plan.fallback_reason = Some(format!("gen:{generation}"));
    Arc::new(plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Four threads interleave inserts, lookups and DDL bumps over one
    /// small sharded cache: `bytes_in_use` never pierces the budget, and
    /// every plan a lookup returns was planned at or after the validity
    /// floor the lookup asked for — a stale plan surviving a bump would
    /// carry an older tag and fail the assertion. (A *newer* tag is fine:
    /// a racing thread may have replanned after a later bump, and a newer
    /// plan is by construction valid at any older floor.)
    ///
    /// A marker plan costs ≈ 6.3 kB and the four keys split two per shard,
    /// so each shard's slice holds exactly one: the cache is seeded with
    /// all four first, which must evict, and the threads then run against
    /// a full cache.
    #[test]
    fn concurrent_interleavings_stay_bounded_and_never_serve_stale_plans(
        ops in proptest::collection::vec((0usize..4, 0usize..3), 16..64),
        capacity in 13_000usize..25_000,
    ) {
        const THREADS: usize = 4;
        let cache = SharedPlanCache::with_shards(capacity, 2);
        let generation = AtomicU64::new(0);
        let srcs: Vec<String> = (0..4)
            .map(|i| {
                format!(
                    r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
                       <xsl:template match="table"><k{i}/></xsl:template></xsl:stylesheet>"#
                )
            })
            .collect();
        for src in &srcs {
            let key = PlanKey::with_fingerprint(0xF00D, src, &RewriteOptions::default());
            cache.insert(key, tagged_plan(0), 0);
        }
        prop_assert_eq!(cache.entry_count(), 2);
        prop_assert_eq!(cache.stats().evictions, 2);

        std::thread::scope(|s| {
            for chunk in ops.chunks(ops.len().div_ceil(THREADS)) {
                let cache = &cache;
                let generation = &generation;
                let srcs = &srcs;
                s.spawn(move || {
                    for &(key_idx, action) in chunk {
                        let key = PlanKey::with_fingerprint(
                            0xF00D,
                            &srcs[key_idx],
                            &RewriteOptions::default(),
                        );
                        match action {
                            // Insert a plan tagged with the generation it
                            // is (claimed) valid at.
                            0 => {
                                let g = generation.load(Ordering::SeqCst);
                                cache.insert(key, tagged_plan(g), g);
                            }
                            // Lookup with the current generation as the
                            // validity floor: whatever comes back must have
                            // been planned at or after it.
                            1 => {
                                let g = generation.load(Ordering::SeqCst);
                                if let Some(plan) = cache.lookup(&key, g) {
                                    let tag = plan
                                        .fallback_reason
                                        .as_deref()
                                        .and_then(|s| s.strip_prefix("gen:"))
                                        .and_then(|s| s.parse::<u64>().ok())
                                        .expect("marker plan carries its tag");
                                    assert!(
                                        tag >= g,
                                        "lookup with floor {g} served a plan planned at {tag}"
                                    );
                                }
                            }
                            // DDL: bump the generation; older entries are
                            // now stale and must never be served again.
                            _ => {
                                generation.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        assert!(
                            cache.bytes_in_use() <= cache.capacity_bytes(),
                            "{} bytes in a {}-byte cache",
                            cache.bytes_in_use(),
                            cache.capacity_bytes()
                        );
                    }
                });
            }
        });

        // Accounting survives the interleaving: every lookup was exactly
        // one hit or one miss, and the final byte count is still bounded.
        let snap = cache.stats();
        prop_assert_eq!(snap.hits + snap.misses, snap.lookups());
        prop_assert!(cache.bytes_in_use() <= cache.capacity_bytes());
        prop_assert_eq!(snap.uncacheable, 0);
    }
}
