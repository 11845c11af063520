//! Chaos harness: the 40-case XSLTMark suite replayed at K clients
//! through one [`FrontDoor`] while deterministic faults fire at every
//! lattice edge.
//!
//! The harness proves the serving front door's contract under fire:
//!
//! * **Byte identity** — every *admitted and served* request's bytes equal
//!   the fresh single-threaded result for its case, no matter which tier
//!   served it or how far earlier failures had demoted its plan.
//! * **Typed shedding** — a request that gets no result gets a typed
//!   [`Rejected`](xsltdb::admission::Rejected) or a typed pipeline error;
//!   never a hang, never partial bytes.
//! * **Typed failure** — a request faulted at every lattice edge, or
//!   given a starved output budget, fails with a typed pipeline error
//!   (an all-edge request may still be served from the result cache,
//!   which runs no tier).
//! * **Admission conservation** — after the fleet quiesces, the admission
//!   gate holds zero units in flight.
//! * **Cache freshness under churn** — with `churn_writers > 0`, writer
//!   threads interleave DML (+`reindex`) on the read-set table and DDL on
//!   an unrelated scratch table with the reader fleet. Every served
//!   request is then compared against a *fresh uncached* execution under
//!   the same catalog read lock; a byte mismatch on a result served from
//!   the transform-result cache is a **stale serve** and must be zero.
//! * **Paged storage transparency** — with `pool_frames > 0`, the serving
//!   catalog lives on disk pages behind a buffer pool sized small enough
//!   that the suite forces eviction mid-run, while a shadow `Storage::Mem`
//!   catalog receives every churn mutation in lockstep under the same
//!   write lock. The reference side of every byte comparison runs against
//!   the shadow, so "admitted bytes identical to the in-memory execution"
//!   is checked literally, page faults, evictions and all.
//!
//! Fault selection is a pure function of `(seed, client, request)` via
//! xorshift, so a chaos run replays identically.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};
use std::time::Duration;
use xsltdb::pipeline::{plan_bound, Tier};
use xsltdb::xqgen::RewriteOptions;
use xsltdb::{FaultKind, FaultPoint, Guard, Limits};
use xsltdb_relstore::{Catalog, ColType, Datum, ExecStats, PoolSnapshot, Table, XmlView};
use xsltdb_serve::{FrontDoor, FrontDoorConfig, FrontDoorStats, ServeError};
use xsltdb_xsltmark::{all_cases, db_catalog, db_catalog_paged};

/// Stack for suite work: the recursive cases blow the 2 MiB default.
pub const CHAOS_STACK: usize = 64 * 1024 * 1024;

/// What kind of chaos one request gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Chaos {
    /// Run clean.
    None,
    /// One lattice edge dies (error or panic); the request degrades to
    /// the next tier and demotes its plan.
    OneEdge(FaultPoint, FaultKind),
    /// Every lattice edge dies: the request fails with a typed pipeline
    /// error, demoting its plan to the VM, and the plan's later requests
    /// are served there with the same bytes.
    AllEdges(FaultKind),
    /// The request runs with a absurdly small output budget: it must trip
    /// its guard, which neither falls back nor demotes the plan.
    TripBudget,
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

const POINTS: [FaultPoint; 4] = [
    FaultPoint::SqlExec,
    FaultPoint::XQueryExec,
    FaultPoint::VmExec,
    FaultPoint::Materialize,
];

fn pick_chaos(seed: u64, client: usize, request: usize) -> Chaos {
    let r = xorshift(seed ^ ((client as u64) << 32) ^ request as u64 ^ 0xC4A0_5EED);
    match r % 16 {
        0..=9 => Chaos::None,
        10 | 11 => {
            let point = POINTS[(r >> 8) as usize % POINTS.len()];
            let kind =
                if (r >> 16).is_multiple_of(2) { FaultKind::Error } else { FaultKind::Panic };
            Chaos::OneEdge(point, kind)
        }
        12 => Chaos::AllEdges(FaultKind::Error),
        13 => Chaos::AllEdges(FaultKind::Panic),
        _ => Chaos::TripBudget,
    }
}

/// Knobs for one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client fires (cases cycle round-robin per client).
    pub requests_per_client: usize,
    /// Rows in the backing `db` table.
    pub rows: usize,
    /// Master seed for data generation and fault scheduling.
    pub seed: u64,
    /// When false, every request runs clean (pure load test).
    pub inject_faults: bool,
    /// Writer threads mutating the catalog concurrently with the readers:
    /// DML + `reindex` on the read-set table, DDL on an unrelated scratch
    /// table. With churn on, every served request is checked against a
    /// fresh uncached execution under the same catalog read lock.
    pub churn_writers: usize,
    /// Frame budget of the serving catalog's buffer pool. `0` keeps the
    /// catalog in memory (`Storage::Mem`); any other value re-backs it by
    /// disk pages and keeps a shadow in-memory catalog, mutated in
    /// lockstep by the churn writers, as the reference side of every byte
    /// comparison.
    pub pool_frames: usize,
    /// Kill the SQL tier on every request (alternating error and panic),
    /// so SQL-tier plans degrade to the streamed XQuery tier — mid-request
    /// for the first request of each plan, from the start for the rest.
    /// Unlike `inject_faults` this is not randomised: it drives the
    /// *whole* SQL-planned share of the suite through the sink-mode spill
    /// path under concurrency.
    pub degrade_sql: bool,
    /// Front-door tuning for the run.
    pub door: FrontDoorConfig,
}

impl ChaosConfig {
    /// A run sized for CI: faults everywhere, capacity tight enough that
    /// shedding happens, deadline generous enough that most requests make
    /// it through.
    pub fn default_chaos(clients: usize) -> ChaosConfig {
        ChaosConfig {
            clients,
            requests_per_client: 80,
            rows: 48,
            seed: 0xC4A0_5EED,
            inject_faults: true,
            churn_writers: 0,
            pool_frames: 0,
            degrade_sql: false,
            door: FrontDoorConfig::server_default(),
        }
    }

    /// The SQL-degrade run: no random chaos, but every request loses its
    /// SQL tier, so all SQL-planned cases are served by
    /// streamed sink-mode XQuery evaluation — spills, replays and all —
    /// while byte identity and admission conservation stay asserted.
    pub fn sql_degrade_chaos(clients: usize) -> ChaosConfig {
        ChaosConfig {
            inject_faults: false,
            degrade_sql: true,
            ..ChaosConfig::default_chaos(clients)
        }
    }

    /// The churn differential run: readers race DML/DDL writers and every
    /// served byte is re-derived fresh under the same lock. Smaller per
    /// client because each served request pays a reference execution.
    pub fn churn_chaos(clients: usize) -> ChaosConfig {
        ChaosConfig {
            requests_per_client: 40,
            churn_writers: 2,
            ..ChaosConfig::default_chaos(clients)
        }
    }

    /// The paged-storage run: the churn schedule, but the serving catalog
    /// is disk-backed behind a buffer pool far smaller than its working
    /// set (6 frames against a multi-page table plus three B-tree
    /// indexes), so the suite evicts and re-reads pages mid-flight while
    /// every served byte is differenced against the shadow in-memory
    /// catalog.
    pub fn paged_chaos(clients: usize) -> ChaosConfig {
        ChaosConfig { pool_frames: 6, ..ChaosConfig::churn_chaos(clients) }
    }
}

/// Aggregate outcome of a chaos run.
#[derive(Debug)]
pub struct ChaosReport {
    /// Requests fired (`clients * requests_per_client`).
    pub total: u64,
    /// Admitted and served with full bytes.
    pub served: u64,
    /// Shed at admission with a typed rejection.
    pub shed: u64,
    /// Admitted but errored (guard trips, exhausted lattices).
    pub failed: u64,
    /// Served requests whose bytes differ from the fresh single-threaded
    /// result. **Must be zero.**
    pub mismatches: u64,
    /// Served requests whose bytes came from the XQuery tier — in a
    /// `degrade_sql` run this counts the requests that actually exercised
    /// the streamed sink-mode path after losing their SQL tier.
    pub served_xquery: u64,
    /// Sample diagnostic for the first mismatch, when any.
    pub first_mismatch: Option<String>,
    /// Budget-tripped requests that correctly surfaced as guard trips.
    pub guard_trips: u64,
    /// Served-from-cache responses whose bytes differ from a fresh
    /// execution under the same catalog lock. **Must be zero** — one stale
    /// serve means invalidation has a hole.
    pub stale_serves: u64,
    /// Catalog mutations the churn writers landed (0 without churn).
    pub writer_mutations: u64,
    /// Front-door counters at the end of the run.
    pub stats: FrontDoorStats,
    /// Buffer-pool counters at the end of the run, when the serving
    /// catalog was paged (`pool_frames > 0`). A paged run that never
    /// evicted did not actually stress the pool.
    pub pool: Option<PoolSnapshot>,
    /// Everything at rest after the fleet quiesced: the admission gate
    /// held zero units in flight and (in a paged run) the buffer pool held
    /// zero pinned frames.
    pub quiesced: bool,
}

impl ChaosReport {
    /// The invariants the chaos suite (and CI) hold this run to.
    pub fn holds(&self) -> bool {
        self.mismatches == 0
            && self.stale_serves == 0
            && self.quiesced
            && self.served + self.shed + self.failed == self.total
    }
}

/// Fresh single-threaded reference output for every case: one plan, one
/// unlimited guard, no cache, no concurrency.
fn reference_outputs(catalog: &Catalog, view: &XmlView) -> Vec<Vec<u8>> {
    let opts = RewriteOptions::default();
    all_cases()
        .iter()
        .map(|case| {
            let bound = plan_bound(catalog, view, &case.stylesheet, &opts)
                .unwrap_or_else(|e| panic!("{}: plan failed: {e}", case.name));
            let mut out = Vec::new();
            bound
                .execute_to_writer(catalog, &ExecStats::new(), &Guard::unlimited(), &mut out)
                .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", case.name));
            out
        })
        .collect()
}

/// Fresh uncached output for one stylesheet against the catalog as it is
/// *right now* — the churn differential's reference side, run under the
/// same read lock as the served request it gates. `BoundPlan::execute`
/// runs the planned tier only — unguarded, with no fallback, ignoring
/// any demotion — so the reference never passes through the lattice
/// under test. The flip side: a planned-tier failure is a failed differential
/// here, not a degraded answer (e.g. a recursion-shaped case whose XQuery
/// tier trips the depth limit panics this reference instead of producing
/// VM bytes), which is why [`apply_churn`] caps row growth.
fn fresh_output(catalog: &Catalog, view: &XmlView, stylesheet: &str, name: &str) -> Vec<u8> {
    let opts = RewriteOptions::default();
    let bound = plan_bound(catalog, view, stylesheet, &opts)
        .unwrap_or_else(|e| panic!("{name}: differential plan failed: {e}"));
    let docs = bound
        .execute(catalog, &ExecStats::new())
        .unwrap_or_else(|e| panic!("{name}: differential run failed: {e}"));
    docs.iter().map(xsltdb_xml::to_string).collect::<String>().into_bytes()
}

/// The unrelated table the churn writers churn DDL/DML through: it is in
/// no request's read set, so mutating it must never cost a cached result.
fn scratch_table(tick: u64) -> Table {
    let mut t = Table::new("chaos_scratch", &[("tick", ColType::Int)]);
    t.insert(vec![Datum::Int(tick as i64)]).expect("scratch schema");
    t
}

/// Ticks during which a churn writer may grow `db_rows`. The
/// recursion-shaped suite cases (`backwards`, `reverser`, …) recurse once
/// per row, so unbounded growth would push them past the engine's 96-deep
/// recursion limit mid-run — and on the streaming XQuery tier a depth trip
/// lands *after* bytes reached the writer, which is terminal by the
/// dirtiness rule. Capping growth at 8 inserts per writer (48 seed rows +
/// 2 writers × 8 ≤ 64 total) keeps every case inside the limit; after the
/// cap, writers keep churning scratch DDL every tick, so invalidation
/// pressure never stops.
const GROWTH_TICKS: u64 = 8;

/// One churn step, applied identically to the serving catalog and (in a
/// paged run) its in-memory shadow: the two must stay byte-equivalent, so
/// the mutation is a pure function of `(writer, tick, r)`.
fn apply_churn(cat: &mut Catalog, writer: usize, tick: u64, r: u64) {
    if r.is_multiple_of(4) || tick >= GROWTH_TICKS {
        // Unrelated DDL + DML: replacing the scratch table bumps the
        // global DDL clock and the scratch data generation — neither is
        // in any request's read set, so cached results must survive this.
        cat.add_table(scratch_table(tick));
    } else {
        // Read-set DML: new row, then reindex so the index-backed SQL
        // tier and the heap tiers see the same data.
        let id = 1_000_000 + (writer as i64) * 100_000 + tick as i64;
        cat.table_mut("db_rows")
            .expect("db_rows exists")
            .insert(vec![
                Datum::Int(id),
                Datum::Text(format!("Churn{writer}")),
                Datum::Text("Writer".into()),
                Datum::Text(format!("{tick} Churn St")),
                Datum::Text("Churnville".into()),
                Datum::Text("ZZ".into()),
                Datum::Int(99_000 + (tick % 999) as i64),
            ])
            .expect("db_rows schema");
        cat.reindex("db_rows").expect("reindex db_rows");
    }
}

/// Run the chaos schedule and aggregate the verdict.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    let (catalog, view) = if cfg.pool_frames > 0 {
        db_catalog_paged(cfg.rows, cfg.seed, cfg.pool_frames)
    } else {
        db_catalog(cfg.rows, cfg.seed)
    };
    // The paged run's reference side: a Storage::Mem catalog with the same
    // `(rows, seed)`, mutated in lockstep by the churn writers. Every byte
    // comparison below runs against it, so a paged serve is literally
    // checked against the in-memory execution.
    let shadow = (cfg.pool_frames > 0).then(|| db_catalog(cfg.rows, cfg.seed).0);
    let cases = all_cases();
    // The reference pass needs suite-sized stacks too. Under churn the
    // static reference is useless (the data moves), so each served request
    // pays a fresh differential instead.
    let expected = if cfg.churn_writers > 0 {
        Vec::new()
    } else {
        let reference_catalog = shadow.as_ref().unwrap_or(&catalog);
        let view = &view;
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(CHAOS_STACK)
                .spawn_scoped(s, move || reference_outputs(reference_catalog, view))
                .expect("spawn reference pass")
                .join()
                .expect("reference pass panicked")
        })
    };

    let door = FrontDoor::new(cfg.door);
    let store = RwLock::new((catalog, shadow));
    let served = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let served_xquery = AtomicU64::new(0);
    let guard_trips = AtomicU64::new(0);
    let stale_serves = AtomicU64::new(0);
    let writer_mutations = AtomicU64::new(0);
    let readers_done = AtomicUsize::new(0);
    let first_mismatch: Mutex<Option<String>> = Mutex::new(None);

    std::thread::scope(|s| {
        for writer in 0..cfg.churn_writers {
            let store = &store;
            let readers_done = &readers_done;
            let writer_mutations = &writer_mutations;
            let cfg = *cfg;
            std::thread::Builder::new()
                .spawn_scoped(s, move || {
                    let mut tick = 0u64;
                    while readers_done.load(Ordering::Acquire) < cfg.clients {
                        let r = xorshift(
                            cfg.seed ^ ((writer as u64) << 48) ^ tick ^ 0xD31A_B017,
                        );
                        {
                            let mut locked = store
                                .write()
                                .unwrap_or_else(PoisonError::into_inner);
                            let (cat, shadow) = &mut *locked;
                            apply_churn(cat, writer, tick, r);
                            // Same mutation, same order, same lock: the
                            // shadow stays a byte-equivalent Mem twin of
                            // the paged serving catalog.
                            if let Some(twin) = shadow.as_mut() {
                                apply_churn(twin, writer, tick, r);
                            }
                        }
                        writer_mutations.fetch_add(1, Ordering::Relaxed);
                        tick += 1;
                        // Let readers in between writes: churn, not a
                        // write-lock convoy.
                        std::thread::sleep(Duration::from_micros(250));
                    }
                })
                .expect("spawn churn writer");
        }
        for client in 0..cfg.clients {
            let door = &door;
            let store = &store;
            let view = &view;
            let stale_serves = &stale_serves;
            let readers_done = &readers_done;
            let cases = &cases;
            let expected = &expected;
            let served = &served;
            let shed = &shed;
            let failed = &failed;
            let mismatches = &mismatches;
            let served_xquery = &served_xquery;
            let guard_trips = &guard_trips;
            let first_mismatch = &first_mismatch;
            let cfg = *cfg;
            std::thread::Builder::new()
                .stack_size(CHAOS_STACK)
                .spawn_scoped(s, move || {
                    // Counted on drop (not at fall-through) so the churn
                    // writers stop even if this reader panics.
                    struct DoneTick<'a>(&'a AtomicUsize);
                    impl Drop for DoneTick<'_> {
                        fn drop(&mut self) {
                            self.0.fetch_add(1, Ordering::Release);
                        }
                    }
                    let _done = DoneTick(readers_done);
                    let opts = RewriteOptions::default();
                    for request in 0..cfg.requests_per_client {
                        let case_idx =
                            (client * cfg.requests_per_client + request) % cases.len();
                        let case = &cases[case_idx];
                        let chaos = if cfg.inject_faults {
                            pick_chaos(cfg.seed, client, request)
                        } else {
                            Chaos::None
                        };
                        // The catalog read lock pins the data for the whole
                        // request: the served bytes and (under churn) the
                        // fresh differential below see the same state.
                        let locked = store.read().unwrap_or_else(PoisonError::into_inner);
                        let (cat, shadow) = &*locked;
                        let result = door.transform_with(
                            cat,
                            view,
                            &case.stylesheet,
                            &opts,
                            &|limits| {
                                let g = match chaos {
                                    Chaos::None => Guard::new(limits),
                                    Chaos::TripBudget => {
                                        Guard::new(Limits::UNLIMITED.with_max_output_bytes(2))
                                    }
                                    Chaos::OneEdge(point, kind) => {
                                        Guard::new(limits).with_fault(point, kind)
                                    }
                                    Chaos::AllEdges(kind) => POINTS
                                        .iter()
                                        .fold(Guard::new(limits), |g, &p| g.with_fault(p, kind)),
                                };
                                // The degrade schedule stacks on top: every
                                // request loses its SQL tier, alternating a
                                // clean error and a contained panic so both
                                // exits of the spill path are exercised.
                                if cfg.degrade_sql {
                                    let kind = if request.is_multiple_of(2) {
                                        FaultKind::Error
                                    } else {
                                        FaultKind::Panic
                                    };
                                    g.with_fault(FaultPoint::SqlExec, kind)
                                } else {
                                    g
                                }
                            },
                        );
                        match result {
                            Ok(out) => {
                                // A 2-byte budget must trip on every case
                                // in the suite, and a request faulted at
                                // every edge has no tier left to run;
                                // success means a guard or a fault was
                                // ignored.
                                let forbidden = chaos == Chaos::TripBudget
                                    || (matches!(chaos, Chaos::AllEdges(_)) && !out.cached);
                                if forbidden {
                                    mismatches.fetch_add(1, Ordering::Relaxed);
                                    let mut slot = first_mismatch
                                        .lock()
                                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                                    slot.get_or_insert_with(|| {
                                        format!(
                                            "{}: {chaos:?} request returned Ok on {:?}",
                                            case.name, out.tier
                                        )
                                    });
                                } else {
                                    // Under churn the reference is derived
                                    // fresh under the read lock we still
                                    // hold — against the Mem shadow in a
                                    // paged run; static runs use the
                                    // precomputed single-threaded outputs.
                                    let differential;
                                    let reference: &[u8] = if cfg.churn_writers > 0 {
                                        differential = fresh_output(
                                            shadow.as_ref().unwrap_or(cat),
                                            view,
                                            &case.stylesheet,
                                            case.name,
                                        );
                                        &differential
                                    } else {
                                        &expected[case_idx]
                                    };
                                    if out.bytes != reference {
                                        mismatches.fetch_add(1, Ordering::Relaxed);
                                        if out.cached {
                                            stale_serves.fetch_add(1, Ordering::Relaxed);
                                        }
                                        let mut slot = first_mismatch
                                            .lock()
                                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                                        slot.get_or_insert_with(|| {
                                            format!(
                                                "{}: served {}B != reference {}B \
                                                 (tier {:?}, fallbacks {}, cached {}, chaos {:?})",
                                                case.name,
                                                out.bytes.len(),
                                                reference.len(),
                                                out.tier,
                                                out.fallbacks,
                                                out.cached,
                                                chaos,
                                            )
                                        });
                                    }
                                }
                                if out.tier == Tier::XQuery {
                                    served_xquery.fetch_add(1, Ordering::Relaxed);
                                }
                                served.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServeError::Rejected(_)) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ServeError::Pipeline(error)) => {
                                if error.is_guard_trip() {
                                    guard_trips.fetch_add(1, Ordering::Relaxed);
                                }
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
                .expect("spawn chaos client");
        }
    });

    let (catalog, _shadow) = store.into_inner().unwrap_or_else(PoisonError::into_inner);
    let pool = catalog.pool_stats();
    let pool_pins_drained = catalog.pool().is_none_or(|p| p.pinned_frames() == 0);
    let quiesced = door.is_quiesced() && pool_pins_drained;
    ChaosReport {
        total: (cfg.clients * cfg.requests_per_client) as u64,
        served: served.into_inner(),
        shed: shed.into_inner(),
        failed: failed.into_inner(),
        mismatches: mismatches.into_inner(),
        served_xquery: served_xquery.into_inner(),
        first_mismatch: first_mismatch.into_inner().unwrap_or_else(|e| e.into_inner()),
        guard_trips: guard_trips.into_inner(),
        stale_serves: stale_serves.into_inner(),
        writer_mutations: writer_mutations.into_inner(),
        stats: door.stats(),
        pool,
        quiesced,
    }
}
