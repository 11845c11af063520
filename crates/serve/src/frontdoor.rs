//! [`FrontDoor`]: admission and the result cache around the engine.

use std::sync::Arc;
use xsltdb::admission::{AdmissionConfig, AdmissionQueue, Rejected};
use xsltdb::pipeline::{plan_cached_shared, Tier};
use xsltdb::plancache::SharedPlanCache;
use xsltdb::resultcache::{CachedResult, ResultKey, SharedResultCache};
use xsltdb::xqgen::RewriteOptions;
use xsltdb::{Guard, Limits, PipelineError, DEFAULT_RESULT_CACHE_BYTES};
use xsltdb_relstore::{slot_name, Catalog, ExecStats};
use xsltdb_structinfo::ViewCanon;
use xsltdb_relstore::XmlView;

/// Everything tunable about a [`FrontDoor`].
#[derive(Debug, Clone, Copy)]
pub struct FrontDoorConfig {
    /// Per-request guard budget; its output bytes are what each request
    /// draws at the admission gate.
    pub limits: Limits,
    /// Fleet-wide ceilings, queue depth and default admission deadline.
    pub admission: AdmissionConfig,
    /// Byte budget of the transform-result cache (0 disables it).
    pub result_cache_bytes: usize,
}

impl FrontDoorConfig {
    pub fn server_default() -> FrontDoorConfig {
        FrontDoorConfig {
            limits: Limits::server_default(),
            admission: AdmissionConfig::server_default(),
            result_cache_bytes: DEFAULT_RESULT_CACHE_BYTES,
        }
    }
}

/// Why a request got no result bytes.
#[derive(Debug)]
pub enum ServeError {
    /// Shed at the door — never executed, no bytes produced.
    Rejected(Rejected),
    /// Admitted but failed: a guard trip, a planning error, or a lattice
    /// that failed on every tier it tried.
    Pipeline(PipelineError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(r) => write!(f, "{r}"),
            ServeError::Pipeline(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A successful transform.
#[derive(Debug)]
pub struct ServeOutcome {
    /// The serialized result, complete (never partial).
    pub bytes: Vec<u8>,
    /// The lattice tier that produced it (for a cached serve, the tier
    /// that originally produced the memoised bytes).
    pub tier: Tier,
    /// Tiers that failed before `tier` succeeded.
    pub fallbacks: usize,
    /// Served from the result cache — no tier executed at all.
    pub cached: bool,
}

/// Counters the front door exports for reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrontDoorStats {
    pub admitted: u64,
    pub shed_overloaded: u64,
    pub shed_timeout: u64,
    /// Always 0: the door runs each request once. A failing tier demotes
    /// its plan instead (see `BoundPlan::execute_to_writer`). Kept so
    /// reports that name the counter still read it.
    pub retries: u64,
    /// Result-cache hits (requests served from memoised bytes).
    pub result_hits: u64,
    /// Result-cache misses (including read-set invalidations).
    pub result_misses: u64,
    /// Result-cache entries dropped because a read table changed.
    pub result_invalidations: u64,
}

/// The admission-controlled request path. Cheap to share behind an `Arc`;
/// every method takes `&self`.
pub struct FrontDoor {
    config: FrontDoorConfig,
    queue: AdmissionQueue,
    cache: SharedPlanCache,
    results: SharedResultCache,
}

impl FrontDoor {
    pub fn new(config: FrontDoorConfig) -> FrontDoor {
        FrontDoor {
            config,
            queue: AdmissionQueue::new(config.admission),
            cache: SharedPlanCache::default(),
            results: SharedResultCache::new(config.result_cache_bytes),
        }
    }

    /// The admission gate (exposed so harnesses can read its units in
    /// flight and counters).
    pub fn queue(&self) -> &AdmissionQueue {
        &self.queue
    }

    /// The shared plan cache behind the door.
    pub fn cache(&self) -> &SharedPlanCache {
        &self.cache
    }

    pub fn stats(&self) -> FrontDoorStats {
        let admission = self.queue.stats();
        let results = self.results.stats();
        FrontDoorStats {
            admitted: admission.admitted,
            shed_overloaded: admission.shed_overloaded,
            shed_timeout: admission.shed_timeout,
            retries: 0,
            result_hits: results.hits,
            result_misses: results.misses,
            result_invalidations: results.invalidations,
        }
    }

    /// True when no request holds any admitted units.
    pub fn is_quiesced(&self) -> bool {
        self.queue.stats().is_quiesced()
    }

    /// Serve one transform with a plain guard.
    pub fn transform(
        &self,
        catalog: &Catalog,
        view: &XmlView,
        stylesheet_src: &str,
        opts: &RewriteOptions,
    ) -> Result<ServeOutcome, ServeError> {
        self.transform_with(catalog, view, stylesheet_src, opts, &Guard::new)
    }

    /// Serve one transform, building its [`Guard`] through `make_guard` —
    /// the hook the chaos harness uses to arm [`Guard::with_fault`]
    /// injections. The request runs once, through the plan's degradation
    /// lattice, into a fresh buffer: a failed request hands back no bytes
    /// at all.
    ///
    /// A result-cache hit short-circuits the lattice entirely, but a
    /// cached byte is never free: it is charged against the request's
    /// guard (so a starved byte budget trips exactly as it would on a
    /// fresh run — which also keeps trips out of the cache's blast radius)
    /// and drawn as `bytes_in_flight` at the admission gate for the
    /// duration of the serve. The freshness check runs against the same
    /// `catalog` borrow the execution would use, so a hit is byte-identical
    /// to what a fresh execution would produce at this instant.
    pub fn transform_with(
        &self,
        catalog: &Catalog,
        view: &XmlView,
        stylesheet_src: &str,
        opts: &RewriteOptions,
        make_guard: &dyn Fn(Limits) -> Guard,
    ) -> Result<ServeOutcome, ServeError> {
        let limits = self.config.limits;

        // Probe the result cache before paying for admission at the full
        // request budget: a hit reserves exactly the bytes it puts in
        // flight instead of the worst-case output cap. With the cache off
        // no key is built at all (it copies the stylesheet).
        let key = if self.results.enabled() {
            let canon = self.cache.view_canon(view);
            let key = ResultKey::new(
                canon.fingerprint,
                stylesheet_src,
                opts,
                result_key_tables(&canon, view),
            );
            if let Some(hit) = self.results.lookup(&key, catalog) {
                return self.serve_cached(hit, limits, make_guard);
            }
            Some(key)
        } else {
            None
        };

        let _permit = self.queue.admit(request_bytes(limits)).map_err(ServeError::Rejected)?;
        let plan = plan_cached_shared(&self.cache, catalog, view, stylesheet_src, opts)
            .map_err(ServeError::Pipeline)?;
        let guard = make_guard(limits);
        let mut buf: Vec<u8> = Vec::new();
        let run = plan
            .execute_to_writer(catalog, &ExecStats::new(), &guard, &mut buf)
            .map_err(ServeError::Pipeline)?;
        // Only complete, successful output is memoised — an error or guard
        // trip never reaches this point, so a trip can never be replayed
        // from the cache. The read-set snapshot comes from the same
        // immutable catalog borrow the execution ran against, so bytes and
        // versions are mutually consistent.
        if let Some(key) = key {
            let reads = catalog.versions_of(key.tables.iter().map(String::as_str));
            self.results.insert(key, Arc::from(&buf[..]), run.tier, reads);
        }
        Ok(ServeOutcome { bytes: buf, tier: run.tier, fallbacks: run.fallbacks.len(), cached: false })
    }

    /// Serve memoised bytes: charge the request's guard, admit the bytes
    /// at the gate, copy out under the permit.
    fn serve_cached(
        &self,
        hit: CachedResult,
        limits: Limits,
        make_guard: &dyn Fn(Limits) -> Guard,
    ) -> Result<ServeOutcome, ServeError> {
        // The guard sees every byte exactly as a fresh execution's sink
        // would: a budget too small for the output trips.
        let guard = make_guard(limits);
        if let Err(trip) = guard.charge_output_bytes(hit.bytes.len() as u64) {
            return Err(ServeError::Pipeline(trip.into()));
        }
        // The hit's bytes are in flight until the outcome is handed back:
        // a hit storm is bounded by the gate's byte ceiling like any other
        // traffic.
        let permit = self.queue.admit(hit.bytes.len() as u64).map_err(ServeError::Rejected)?;
        let outcome = ServeOutcome {
            bytes: hit.bytes.to_vec(),
            tier: hit.tier,
            fallbacks: 0,
            cached: true,
        };
        drop(permit);
        Ok(outcome)
    }
}

/// The concrete tables a result over `view` is a function of, in slot
/// order (deduplicated) — the identity component of a [`ResultKey`]. Plans
/// without slots (underivable structure) read whatever the view definition
/// references.
fn result_key_tables(canon: &ViewCanon, view: &XmlView) -> Vec<String> {
    if canon.slot_count > 0 {
        let mut out = Vec::with_capacity(canon.slot_count);
        for i in 0..canon.slot_count {
            if let Some(table) = canon.bindings.get(&slot_name(i)) {
                if !out.iter().any(|t: &String| t == table) {
                    out.push(table.to_string());
                }
            }
        }
        out
    } else {
        view.referenced_tables()
    }
}

/// How many bytes a request with these per-call limits draws at the gate.
/// An unlimited byte budget draws none (the stream slot still counts), so
/// an unmetered dev config never overflows the counter.
fn request_bytes(limits: Limits) -> u64 {
    if limits.max_output_bytes == u64::MAX {
        0
    } else {
        limits.max_output_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use xsltdb::{FaultKind, FaultPoint};
    use xsltdb_xsltmark::{db_catalog, db_catalog_family, dbonerow_stylesheet, existing_id};

    fn small_door(streams: u64) -> FrontDoor {
        let mut cfg = FrontDoorConfig::server_default();
        cfg.admission.max_concurrent_streams = streams;
        cfg.admission.max_queue_depth = 2;
        cfg.admission.default_deadline = Duration::from_millis(20);
        FrontDoor::new(cfg)
    }

    #[test]
    fn serves_a_transform_and_quiesces() {
        let door = small_door(4);
        let (catalog, view) = db_catalog(24, 7);
        let sheet = dbonerow_stylesheet(existing_id(24));
        let out = door
            .transform(&catalog, &view, &sheet, &RewriteOptions::default())
            .expect("serves");
        assert!(!out.bytes.is_empty());
        assert!(door.is_quiesced());
        assert_eq!(door.stats().admitted, 1);
    }

    #[test]
    fn repeated_requests_hit_the_plan_cache() {
        // Result cache off, so every request exercises the plan cache.
        let mut cfg = FrontDoorConfig::server_default();
        cfg.admission.max_concurrent_streams = 4;
        cfg.result_cache_bytes = 0;
        let door = FrontDoor::new(cfg);
        let (catalog, view) = db_catalog(24, 7);
        let sheet = dbonerow_stylesheet(existing_id(24));
        for _ in 0..5 {
            let out = door
                .transform(&catalog, &view, &sheet, &RewriteOptions::default())
                .expect("serves");
            assert!(!out.cached, "disabled result cache must never serve");
        }
        let snap = door.cache().stats();
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.hits, 4);
    }

    #[test]
    fn repeated_requests_hit_the_result_cache() {
        let door = small_door(4);
        let (catalog, view) = db_catalog(24, 7);
        let sheet = dbonerow_stylesheet(existing_id(24));
        let first = door
            .transform(&catalog, &view, &sheet, &RewriteOptions::default())
            .expect("fills");
        assert!(!first.cached);
        for _ in 0..4 {
            let hit = door
                .transform(&catalog, &view, &sheet, &RewriteOptions::default())
                .expect("serves from memory");
            assert!(hit.cached, "warm identical request must be a result hit");
            assert_eq!(hit.bytes, first.bytes, "cached bytes differ from fresh");
            assert_eq!(hit.tier, first.tier);
        }
        let stats = door.stats();
        assert_eq!(stats.result_hits, 4);
        assert_eq!(stats.result_misses, 1);
        // The lattice ran exactly once: one plan-cache lookup in total.
        assert_eq!(door.cache().stats().lookups(), 1);
        assert!(door.is_quiesced());
    }

    #[test]
    fn same_named_views_are_served_their_own_bytes() {
        // Renamed to one name, neither view is the registered definition.
        let (catalog, mut views) = db_catalog_family(2, 24, 7);
        for view in &mut views {
            view.name = "v".into();
        }
        let sheet = dbonerow_stylesheet(existing_id(24));
        let opts = RewriteOptions::default();
        let door = small_door(4);
        for (i, view) in views.iter().enumerate() {
            let own = small_door(4).transform(&catalog, view, &sheet, &opts).expect("serves");
            let out = door.transform(&catalog, view, &sheet, &opts).expect("serves");
            assert!(!out.cached, "view {i} was served another view's result");
            assert_eq!(out.bytes, own.bytes);
        }
    }

    #[test]
    fn dml_on_a_read_table_forces_fresh_execution() {
        let door = small_door(4);
        let (mut catalog, view) = db_catalog(24, 7);
        let sheet = dbonerow_stylesheet(existing_id(24));
        let opts = RewriteOptions::default();
        door.transform(&catalog, &view, &sheet, &opts).expect("fills");
        // DML on a read table: the memoised bytes are stale and must not
        // be served; the request re-executes against the new data.
        use xsltdb_relstore::Datum;
        catalog
            .table_mut("db_rows")
            .unwrap()
            .insert(vec![
                Datum::Int(990_001),
                Datum::Text("Churn".into()),
                Datum::Text("Writer".into()),
                Datum::Text("1 Churn St".into()),
                Datum::Text("Churnville".into()),
                Datum::Text("CA".into()),
                Datum::Int(99_999),
            ])
            .unwrap();
        catalog.reindex("db_rows").unwrap();
        let after = door.transform(&catalog, &view, &sheet, &opts).expect("re-executes");
        assert!(!after.cached, "stale entry must not be served after DML");
        assert!(door.stats().result_invalidations >= 1);
    }

    #[test]
    fn guard_trip_is_terminal_not_retried() {
        let mut cfg = FrontDoorConfig::server_default();
        cfg.limits = Limits::UNLIMITED.with_max_output_bytes(8);
        let door = FrontDoor::new(cfg);
        let (catalog, view) = db_catalog(24, 7);
        let sheet = dbonerow_stylesheet(existing_id(24));
        let err = door
            .transform(&catalog, &view, &sheet, &RewriteOptions::default())
            .unwrap_err();
        match err {
            ServeError::Pipeline(error) => assert!(error.is_guard_trip(), "{error:?}"),
            other => panic!("expected pipeline error, got {other}"),
        }
        assert_eq!(door.stats().retries, 0);
        assert!(door.is_quiesced());
    }

    /// A door with the result cache off, so every request reaches the
    /// lattice and the plan's start tier decides where it runs.
    fn uncached_door() -> FrontDoor {
        let mut cfg = FrontDoorConfig::server_default();
        cfg.admission.max_concurrent_streams = 4;
        cfg.result_cache_bytes = 0;
        FrontDoor::new(cfg)
    }

    fn with_faults(limits: Limits, points: &[FaultPoint], kind: FaultKind) -> Guard {
        points.iter().fold(Guard::new(limits), |g, &p| g.with_fault(p, kind))
    }

    const ALL_POINTS: [FaultPoint; 4] = [
        FaultPoint::SqlExec,
        FaultPoint::XQueryExec,
        FaultPoint::VmExec,
        FaultPoint::Materialize,
    ];

    #[test]
    fn a_poisoned_plan_leaves_other_plans_on_sql() {
        let door = uncached_door();
        let (catalog, view) = db_catalog(24, 7);
        let opts = RewriteOptions::default();
        let poisoned = dbonerow_stylesheet(existing_id(24));
        for _ in 0..10 {
            door.transform_with(&catalog, &view, &poisoned, &opts, &|limits| {
                with_faults(limits, &[FaultPoint::SqlExec], FaultKind::Error)
            })
            .expect("degrades and serves");
        }
        let trend = xsltdb_xsltmark::case("trend").stylesheet;
        let on_sql = (0..20)
            .map(|_| door.transform(&catalog, &view, &trend, &opts).expect("serves"))
            .filter(|out| out.tier == Tier::Sql && out.fallbacks == 0)
            .count();
        assert_eq!(on_sql, 20, "another plan's failures took the SQL tier away");
        assert!(door.is_quiesced());
    }

    #[test]
    fn a_failed_tier_demotes_its_plan_until_the_next_plan() {
        let door = uncached_door();
        let (mut catalog, view) = db_catalog(24, 7);
        let opts = RewriteOptions::default();
        let sheet = dbonerow_stylesheet(existing_id(24));
        let baseline = door.transform(&catalog, &view, &sheet, &opts).expect("baseline");
        assert_eq!((baseline.tier, baseline.fallbacks), (Tier::Sql, 0));

        let faulted = door
            .transform_with(&catalog, &view, &sheet, &opts, &|limits| {
                with_faults(limits, &[FaultPoint::SqlExec], FaultKind::Error)
            })
            .expect("degrades and serves");
        assert_eq!((faulted.tier, faulted.fallbacks), (Tier::XQuery, 1));

        // The clean request after it starts below the failed tier.
        let demoted = door.transform(&catalog, &view, &sheet, &opts).expect("serves");
        assert_eq!((demoted.tier, demoted.fallbacks), (Tier::XQuery, 0));
        assert_eq!(demoted.bytes, baseline.bytes);

        // DDL on a read table re-plans, and the fresh plan starts at its
        // planned tier again.
        catalog.create_index("db_rows", "city").expect("column exists");
        let replanned = door.transform(&catalog, &view, &sheet, &opts).expect("serves");
        assert_eq!((replanned.tier, replanned.fallbacks), (Tier::Sql, 0));
        assert_eq!(replanned.bytes, baseline.bytes);
        assert_eq!(door.cache().stats().misses, 2);
    }

    #[test]
    fn guard_trips_never_demote_a_plan() {
        let door = uncached_door();
        let (catalog, view) = db_catalog(24, 7);
        let opts = RewriteOptions::default();
        let sheet = dbonerow_stylesheet(existing_id(24));
        for _ in 0..10 {
            let err = door
                .transform_with(&catalog, &view, &sheet, &opts, &|_| {
                    Guard::new(Limits::UNLIMITED.with_max_output_bytes(8))
                })
                .unwrap_err();
            assert!(matches!(&err, ServeError::Pipeline(e) if e.is_guard_trip()), "{err}");
        }
        let out = door.transform(&catalog, &view, &sheet, &opts).expect("serves");
        assert_eq!((out.tier, out.fallbacks), (Tier::Sql, 0));
        assert!(door.is_quiesced());
    }

    #[test]
    fn an_exhausted_lattice_is_a_typed_error_then_the_plan_serves_on_the_vm() {
        let door = uncached_door();
        let (catalog, view) = db_catalog(24, 7);
        let opts = RewriteOptions::default();
        let sheet = dbonerow_stylesheet(existing_id(24));
        let baseline = door.transform(&catalog, &view, &sheet, &opts).expect("baseline");
        // Every lattice edge panics: each tier fails and demotes the plan.
        let err = door
            .transform_with(&catalog, &view, &sheet, &opts, &|limits| {
                with_faults(limits, &ALL_POINTS, FaultKind::Panic)
            })
            .unwrap_err();
        match err {
            ServeError::Pipeline(PipelineError::TiersExhausted { attempts }) => {
                let tiers: Vec<&str> = attempts.iter().map(|a| a.tier).collect();
                assert_eq!(tiers, ["sql", "xquery", "vm"]);
            }
            other => panic!("expected an exhausted lattice, got {other}"),
        }
        assert!(door.is_quiesced());
        let out = door.transform(&catalog, &view, &sheet, &opts).expect("serves");
        assert_eq!((out.tier, out.fallbacks), (Tier::Vm, 0));
        assert_eq!(out.bytes, baseline.bytes);
    }

    #[test]
    fn cache_hit_reserves_bytes_on_the_ledger() {
        // A result-cache hit still moves bytes through the door, so it
        // must draw them at the admission gate like any other response.
        // Ceiling below the output length: the warm hit must be shed, not
        // served outside the byte budget.
        let (catalog, view) = db_catalog(24, 7);
        let sheet = dbonerow_stylesheet(existing_id(24));
        let opts = RewriteOptions::default();
        let probe = small_door(4);
        let len = probe
            .transform(&catalog, &view, &sheet, &opts)
            .expect("probe")
            .bytes
            .len() as u64;
        assert!(len > 1);

        let mut cfg = FrontDoorConfig::server_default();
        cfg.limits = Limits::UNLIMITED;
        cfg.admission.max_concurrent_streams = 4;
        cfg.admission.max_bytes_in_flight = len - 1;
        cfg.admission.max_queue_depth = 2;
        cfg.admission.default_deadline = Duration::from_millis(20);
        let door = FrontDoor::new(cfg);
        // Miss path under UNLIMITED output limits reserves 0 bytes, so
        // the first call succeeds and fills the cache…
        let first = door.transform(&catalog, &view, &sheet, &opts).expect("fills");
        assert!(!first.cached);
        // …and the warm hit must now fail admission: its exact byte
        // length does not fit under the gate's byte ceiling.
        let err = door.transform(&catalog, &view, &sheet, &opts).unwrap_err();
        assert!(
            matches!(err, ServeError::Rejected(_)),
            "cache hit bypassed the byte ceiling: {err}"
        );
        assert!(door.is_quiesced(), "hit path leaked admitted units");
    }

    #[test]
    fn cache_hit_storm_stays_under_the_ledger_ceiling() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let (catalog, view) = db_catalog(24, 7);
        let sheet = dbonerow_stylesheet(existing_id(24));
        let opts = RewriteOptions::default();
        let probe = small_door(4);
        let expected = probe.transform(&catalog, &view, &sheet, &opts).expect("probe").bytes;
        let len = expected.len() as u64;

        // Room for exactly one response in flight.
        let mut cfg = FrontDoorConfig::server_default();
        cfg.limits = Limits::UNLIMITED;
        cfg.admission.max_concurrent_streams = 16;
        cfg.admission.max_bytes_in_flight = len;
        cfg.admission.max_queue_depth = 16;
        cfg.admission.default_deadline = Duration::from_millis(200);
        let door = std::sync::Arc::new(FrontDoor::new(cfg));
        door.transform(&catalog, &view, &sheet, &opts).expect("fills cache");

        let peak = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let door = std::sync::Arc::clone(&door);
                let peak = std::sync::Arc::clone(&peak);
                let (catalog, view, sheet, opts) = (&catalog, &view, &sheet, &opts);
                let expected = &expected;
                scope.spawn(move || {
                    for _ in 0..16 {
                        let seen = door.queue().stats().bytes_in_flight;
                        peak.fetch_max(seen, Ordering::Relaxed);
                        match door.transform(catalog, view, sheet, opts) {
                            Ok(out) => assert_eq!(&out.bytes, expected, "storm corrupted bytes"),
                            Err(ServeError::Rejected(_)) => {}
                            Err(other) => panic!("unexpected failure under storm: {other}"),
                        }
                    }
                });
            }
        });
        assert!(
            peak.load(Ordering::Relaxed) <= len,
            "bytes_in_flight exceeded the ceiling during a hit storm"
        );
        assert!(door.stats().result_hits >= 1, "storm never hit the cache");
        assert!(door.is_quiesced());
    }

    #[test]
    fn saturated_door_sheds_with_typed_rejection() {
        let door = std::sync::Arc::new(small_door(1));
        let (catalog, view) = db_catalog(24, 7);
        // Hold the only stream slot via a raw admission.
        let held = door.queue().admit(0).unwrap();
        let sheet = dbonerow_stylesheet(existing_id(24));
        let err = door
            .transform(&catalog, &view, &sheet, &RewriteOptions::default())
            .unwrap_err();
        assert!(
            matches!(err, ServeError::Rejected(Rejected::QueueTimeout { .. })),
            "{err}"
        );
        drop(held);
        door.transform(&catalog, &view, &sheet, &RewriteOptions::default())
            .expect("capacity returned");
        assert!(door.is_quiesced());
    }
}
