//! ExecGuard: shared resource governance for every execution tier.
//!
//! `XMLTransform()` runs *inside* the database server, so a runaway
//! stylesheet, query, or scan must never take the server down. A [`Guard`]
//! is a cheap, clonable handle carrying the budgets one transformation is
//! allowed to consume:
//!
//! * **fuel** — an abstract step budget charged at the hot loop of every
//!   engine (one unit per VM instruction, per XQuery/XPath expression
//!   evaluation, per relational row visited);
//! * **recursion depth** — template/function call nesting ceiling;
//! * **output size** — result nodes and serialized text bytes;
//! * **wall-clock deadline** — checked lazily, piggybacked on fuel charges
//!   so the common path stays allocation- and syscall-free.
//!
//! The module lives in the XML substrate crate because every engine
//! (`xsltdb-xpath`, `xsltdb-xslt`, `xsltdb-xquery`, `xsltdb-relstore`)
//! already depends on it; the `xsltdb` core crate re-exports it as
//! `xsltdb::guard`.
//!
//! A tripped guard records the *first* violation as a structured
//! [`GuardExceeded`] (resource, limit, amount spent) retrievable via
//! [`Guard::trip`], so callers above stringly-typed engine errors — the
//! pipeline in particular — can distinguish "budget exhausted" from
//! "engine bug" without parsing messages.
//!
//! Deterministic fault injection for the tier-fallback lattice also rides
//! on the guard (see [`FaultPoint`]): injected faults are plain runtime
//! state, always compiled, so the exact binary under test is the binary in
//! production.

// Guard-bearing hot path: a stray unwrap here is a latent panic the
// pipeline would have to contain at a tier boundary. Keep it impossible.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Which budget a [`GuardExceeded`] trip exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The abstract step budget.
    Fuel,
    /// Recursion (template / function / parser nesting) depth.
    Depth,
    /// Result-tree nodes constructed.
    OutputNodes,
    /// Serialized output bytes (text content) produced.
    OutputBytes,
    /// The wall-clock deadline.
    Deadline,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resource::Fuel => "fuel",
            Resource::Depth => "recursion depth",
            Resource::OutputNodes => "output nodes",
            Resource::OutputBytes => "output bytes",
            Resource::Deadline => "deadline",
        };
        f.write_str(s)
    }
}

/// Structured evidence of a resource-budget violation: which budget, what
/// the limit was, and how much had been spent when the guard tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuardExceeded {
    pub resource: Resource,
    pub limit: u64,
    pub spent: u64,
}

impl fmt::Display for GuardExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::Deadline => write!(
                f,
                "guard exceeded: deadline of {}ms overrun ({}ms elapsed)",
                self.limit, self.spent
            ),
            r => write!(
                f,
                "guard exceeded: {} limit {} (spent {})",
                r, self.limit, self.spent
            ),
        }
    }
}

impl std::error::Error for GuardExceeded {}

/// Resource ceilings for one guarded execution. `u64::MAX` (or `None` for
/// the deadline) means unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Abstract step budget across all tiers.
    pub fuel: u64,
    /// Recursion-depth ceiling.
    pub max_depth: u64,
    /// Maximum result-tree nodes.
    pub max_output_nodes: u64,
    /// Maximum serialized text bytes.
    pub max_output_bytes: u64,
    /// Wall-clock budget, measured from [`Guard::new`] (or the latest
    /// [`Guard::restart_clock`]).
    pub deadline: Option<Duration>,
}

impl Limits {
    /// No limits at all — every check is a no-op that can never trip.
    pub const UNLIMITED: Limits = Limits {
        fuel: u64::MAX,
        max_depth: u64::MAX,
        max_output_nodes: u64::MAX,
        max_output_bytes: u64::MAX,
        deadline: None,
    };

    /// Conservative server-side defaults: generous enough for every
    /// workload in the benchmark suite, small enough that an infinite
    /// template loop or FLWOR expansion dies in well under a second.
    pub fn server_default() -> Limits {
        Limits {
            fuel: 50_000_000,
            max_depth: 512,
            max_output_nodes: 10_000_000,
            max_output_bytes: 256 * 1024 * 1024,
            deadline: Some(Duration::from_secs(30)),
        }
    }

    pub fn with_fuel(mut self, fuel: u64) -> Limits {
        self.fuel = fuel;
        self
    }

    pub fn with_max_depth(mut self, d: u64) -> Limits {
        self.max_depth = d;
        self
    }

    pub fn with_max_output_nodes(mut self, n: u64) -> Limits {
        self.max_output_nodes = n;
        self
    }

    pub fn with_max_output_bytes(mut self, n: u64) -> Limits {
        self.max_output_bytes = n;
        self
    }

    pub fn with_deadline(mut self, d: Duration) -> Limits {
        self.deadline = Some(d);
        self
    }
}

impl Default for Limits {
    fn default() -> Limits {
        Limits::UNLIMITED
    }
}

/// Tier boundaries where a deterministic fault can be injected to exercise
/// the pipeline's fallback lattice (`Sql → XQuery → Vm`). The variants name
/// the pipeline's execution points; the type lives here so every engine
/// crate can honour an injection without depending on the core crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Start of SQL-tier execution (`SqlXmlQuery::execute`).
    SqlExec,
    /// Start of XQuery-tier execution (`evaluate_query_to_sink`).
    XQueryExec,
    /// Start of VM-tier execution (`transform`).
    VmExec,
    /// View materialisation (feeds the XQuery and VM tiers).
    Materialize,
}

/// What an injected fault does when its [`FaultPoint`] is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return an engine error ("transient failure" shape).
    Error,
    /// Panic ("engine bug" shape) — the pipeline must contain it with
    /// `catch_unwind` at the tier boundary.
    Panic,
}

#[derive(Debug)]
struct GuardCore {
    limits: Limits,
    fuel_spent: AtomicU64,
    depth: AtomicU64,
    output_nodes: AtomicU64,
    output_bytes: AtomicU64,
    /// Wall-clock origin; a mutex because [`Guard::restart_clock`] replaces
    /// it, but it is only read every [`DEADLINE_STRIDE`] charges.
    started: Mutex<Instant>,
    /// Charges remaining until the next wall-clock check.
    deadline_stride_left: AtomicU32,
    /// First violation observed; later checks keep returning it. Cold path
    /// (locked only when a budget is pierced or a deadline is read), so a
    /// mutex costs nothing where it matters.
    trip: Mutex<Option<GuardExceeded>>,
    /// Injected faults: (point, kind); armed and taken at tier boundaries,
    /// never in a hot loop.
    faults: Mutex<[Option<(FaultPoint, FaultKind)>; 4]>,
}

/// Lock a guard-internal mutex. The guard is panic-tolerant by design (the
/// pipeline contains engine panics at tier boundaries), so a poisoned lock
/// just yields the inner state — the counters are always valid u64s.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How many fuel charges pass between wall-clock reads. `Instant::now()`
/// costs a vDSO call; the hot loops charge fuel every few nanoseconds.
const DEADLINE_STRIDE: u32 = 1024;

/// A shared, clonable resource-governance handle. Cloning is cheap (one
/// `Arc` bump) and every clone shares the same budgets, so a pipeline can
/// hand one guard to all three tiers and the spend accumulates globally.
///
/// The counters are relaxed atomics, so a guard (or any clone of it) can be
/// charged from any thread: concurrent sessions sharing prepared plans out
/// of a [`SharedPlanCache`](../../xsltdb/plancache/struct.SharedPlanCache.html)
/// each arm their own guard, but nothing stops one guarded execution from
/// being split across worker threads. Single-threaded observable behaviour
/// is unchanged — every charge is a read-modify-write, so totals are exact.
#[derive(Debug, Clone)]
pub struct Guard {
    core: Arc<GuardCore>,
}

// The whole point of the concurrent engine: a guard must cross threads.
// (Compile-time enforcement; mirrors the `TransformPlan: Send + Sync`
// assertion in the core crate.)
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Guard>();
    assert_send_sync::<Limits>();
    assert_send_sync::<GuardExceeded>();
};

impl Default for Guard {
    fn default() -> Guard {
        Guard::unlimited()
    }
}

impl Guard {
    /// A guard enforcing `limits`, with the wall clock starting now.
    pub fn new(limits: Limits) -> Guard {
        Guard {
            core: Arc::new(GuardCore {
                limits,
                fuel_spent: AtomicU64::new(0),
                depth: AtomicU64::new(0),
                output_nodes: AtomicU64::new(0),
                output_bytes: AtomicU64::new(0),
                started: Mutex::new(Instant::now()),
                deadline_stride_left: AtomicU32::new(0),
                trip: Mutex::new(None),
                faults: Mutex::new([None; 4]),
            }),
        }
    }

    /// A guard that never trips. This is the default everywhere a guard is
    /// not supplied explicitly, preserving pre-ExecGuard behaviour.
    pub fn unlimited() -> Guard {
        Guard::new(Limits::UNLIMITED)
    }

    /// The limits this guard enforces.
    pub fn limits(&self) -> Limits {
        self.core.limits
    }

    /// Arm a deterministic fault at `point`. Up to four distinct points can
    /// be armed on one guard; re-arming a point replaces its kind. Faults
    /// are one-shot: taking one disarms it, so a pipeline retry on a lower
    /// tier proceeds cleanly.
    pub fn with_fault(self, point: FaultPoint, kind: FaultKind) -> Guard {
        {
            let mut faults = lock(&self.core.faults);
            // Re-arm in place if the point is already armed, else take the
            // first free slot — never both, or one take_fault could fire
            // twice.
            if let Some(slot) = faults
                .iter_mut()
                .find(|s| s.map(|(p, _)| p == point).unwrap_or(false))
            {
                *slot = Some((point, kind));
            } else if let Some(slot) = faults.iter_mut().find(|s| s.is_none()) {
                *slot = Some((point, kind));
            }
        }
        self
    }

    /// Take (and disarm) the fault injected at `point`, if any. Engines and
    /// the pipeline call this at their tier boundary. Atomic under the
    /// fault lock: of two racing takers, exactly one observes the fault.
    pub fn take_fault(&self, point: FaultPoint) -> Option<FaultKind> {
        lock(&self.core.faults)
            .iter_mut()
            .find(|s| s.map(|(p, _)| p == point).unwrap_or(false))
            .and_then(|slot| slot.take())
            .map(|(_, k)| k)
    }

    /// The first budget violation observed by any clone of this guard, if
    /// one has tripped. Engines surface trips as their native (stringly)
    /// error types; callers that need the structured evidence — the
    /// pipeline's typed `PipelineError::Guard` variant — read it here.
    pub fn trip(&self) -> Option<GuardExceeded> {
        *lock(&self.core.trip)
    }

    /// Reset the wall-clock origin to now (for guards built ahead of time
    /// and reused).
    #[cfg(test)]
    fn restart_clock(&self) {
        *lock(&self.core.started) = Instant::now();
        self.core.deadline_stride_left.store(0, Ordering::Relaxed);
    }

    /// Fuel spent so far across every tier sharing this guard.
    pub fn fuel_spent(&self) -> u64 {
        self.core.fuel_spent.load(Ordering::Relaxed)
    }

    fn fail(&self, e: GuardExceeded) -> GuardExceeded {
        // Always report the *first* trip so concurrent budgets (or racing
        // threads) don't shadow the root cause on re-checks.
        *lock(&self.core.trip).get_or_insert(e)
    }

    /// Charge `n` abstract steps. Cheap: one relaxed fetch-add and a
    /// compare on the untripped path; the wall clock is read only every
    /// [`DEADLINE_STRIDE`] charges.
    #[inline]
    pub fn charge(&self, n: u64) -> Result<(), GuardExceeded> {
        let spent = self
            .core
            .fuel_spent
            .fetch_add(n, Ordering::Relaxed)
            .saturating_add(n);
        if spent > self.core.limits.fuel {
            return Err(self.fail(GuardExceeded {
                resource: Resource::Fuel,
                limit: self.core.limits.fuel,
                spent,
            }));
        }
        if self.core.limits.deadline.is_some() {
            // The stride counter wraps on concurrent decrements; it is a
            // sampling heuristic, not an exact period — any thread that
            // observes 0 re-arms it and pays the clock read.
            let left = self.core.deadline_stride_left.fetch_sub(1, Ordering::Relaxed);
            if left == 0 {
                self.core
                    .deadline_stride_left
                    .store(DEADLINE_STRIDE, Ordering::Relaxed);
                self.check_deadline()?;
            }
        }
        Ok(())
    }

    /// Read the wall clock and trip if the deadline has passed. Engines
    /// normally rely on the strided check inside [`Guard::charge`]; call
    /// this directly at coarse boundaries (per document, per tier).
    fn check_deadline(&self) -> Result<(), GuardExceeded> {
        if let Some(trip) = *lock(&self.core.trip) {
            return Err(trip);
        }
        if let Some(d) = self.core.limits.deadline {
            let elapsed = lock(&self.core.started).elapsed();
            if elapsed > d {
                return Err(self.fail(GuardExceeded {
                    resource: Resource::Deadline,
                    limit: d.as_millis() as u64,
                    spent: elapsed.as_millis() as u64,
                }));
            }
        }
        Ok(())
    }

    /// Enter one recursion level; pair with [`Guard::leave`]. Returns the
    /// structured violation when the ceiling is pierced (the level is *not*
    /// entered in that case — do not call `leave`).
    #[inline]
    pub fn enter(&self) -> Result<(), GuardExceeded> {
        let d = self.core.depth.fetch_add(1, Ordering::Relaxed) + 1;
        if d > self.core.limits.max_depth {
            // Roll the failed entry back so the rejected level is not
            // counted — callers must not `leave` after an `enter` error.
            self.core.depth.fetch_sub(1, Ordering::Relaxed);
            return Err(self.fail(GuardExceeded {
                resource: Resource::Depth,
                limit: self.core.limits.max_depth,
                spent: d,
            }));
        }
        Ok(())
    }

    /// Leave a recursion level previously entered with [`Guard::enter`].
    #[inline]
    pub fn leave(&self) {
        // Saturating: an unpaired `leave` clamps at zero instead of
        // wrapping, matching the pre-atomic behaviour.
        let _ = self
            .core
            .depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// Current recursion depth (for diagnostics).
    pub fn depth(&self) -> u64 {
        self.core.depth.load(Ordering::Relaxed)
    }

    /// Account `n` result-tree nodes.
    #[inline]
    pub fn charge_output_nodes(&self, n: u64) -> Result<(), GuardExceeded> {
        let total = self
            .core
            .output_nodes
            .fetch_add(n, Ordering::Relaxed)
            .saturating_add(n);
        if total > self.core.limits.max_output_nodes {
            return Err(self.fail(GuardExceeded {
                resource: Resource::OutputNodes,
                limit: self.core.limits.max_output_nodes,
                spent: total,
            }));
        }
        Ok(())
    }

    /// Account `n` serialized output bytes.
    #[inline]
    pub fn charge_output_bytes(&self, n: u64) -> Result<(), GuardExceeded> {
        let total = self
            .core
            .output_bytes
            .fetch_add(n, Ordering::Relaxed)
            .saturating_add(n);
        if total > self.core.limits.max_output_bytes {
            return Err(self.fail(GuardExceeded {
                resource: Resource::OutputBytes,
                limit: self.core.limits.max_output_bytes,
                spent: total,
            }));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_guard_never_trips() {
        let g = Guard::unlimited();
        for _ in 0..10_000 {
            g.charge(1_000_000).unwrap();
        }
        g.charge_output_nodes(u64::MAX / 2).unwrap();
        g.charge_output_bytes(u64::MAX / 2).unwrap();
        assert!(g.trip().is_none());
    }

    #[test]
    fn fuel_trips_with_evidence() {
        let g = Guard::new(Limits::UNLIMITED.with_fuel(10));
        assert!(g.charge(8).is_ok());
        let e = g.charge(5).unwrap_err();
        assert_eq!(e.resource, Resource::Fuel);
        assert_eq!(e.limit, 10);
        assert_eq!(e.spent, 13);
        assert_eq!(g.trip(), Some(e));
        // The first trip is sticky even if another budget is pierced later.
        let e2 = g.charge(1).unwrap_err();
        assert_eq!(e2, e);
    }

    #[test]
    fn depth_ceiling_enforced() {
        let g = Guard::new(Limits::UNLIMITED.with_max_depth(2));
        g.enter().unwrap();
        g.enter().unwrap();
        let e = g.enter().unwrap_err();
        assert_eq!(e.resource, Resource::Depth);
        g.leave();
        g.leave();
        assert_eq!(g.depth(), 0);
    }

    #[test]
    fn output_budgets_enforced() {
        let g = Guard::new(Limits::UNLIMITED.with_max_output_nodes(3));
        g.charge_output_nodes(3).unwrap();
        assert_eq!(
            g.charge_output_nodes(1).unwrap_err().resource,
            Resource::OutputNodes
        );
        let g = Guard::new(Limits::UNLIMITED.with_max_output_bytes(8));
        g.charge_output_bytes(8).unwrap();
        assert_eq!(
            g.charge_output_bytes(1).unwrap_err().resource,
            Resource::OutputBytes
        );
    }

    #[test]
    fn expired_deadline_trips_promptly() {
        let g = Guard::new(Limits::UNLIMITED.with_deadline(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(5));
        let e = g.check_deadline().unwrap_err();
        assert_eq!(e.resource, Resource::Deadline);
        // The strided charge path sees it too (first charge checks).
        let g2 = Guard::new(Limits::UNLIMITED.with_deadline(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(g2.charge(1).unwrap_err().resource, Resource::Deadline);
    }

    #[test]
    fn clones_share_budgets() {
        let g = Guard::new(Limits::UNLIMITED.with_fuel(10));
        let h = g.clone();
        h.charge(7).unwrap();
        assert!(g.charge(7).is_err());
        assert_eq!(g.trip().unwrap().resource, Resource::Fuel);
    }

    #[test]
    fn faults_are_one_shot_and_per_point() {
        let g = Guard::unlimited()
            .with_fault(FaultPoint::SqlExec, FaultKind::Error)
            .with_fault(FaultPoint::XQueryExec, FaultKind::Panic);
        assert_eq!(g.take_fault(FaultPoint::VmExec), None);
        assert_eq!(g.take_fault(FaultPoint::SqlExec), Some(FaultKind::Error));
        assert_eq!(g.take_fault(FaultPoint::SqlExec), None, "one-shot");
        assert_eq!(g.take_fault(FaultPoint::XQueryExec), Some(FaultKind::Panic));
    }

    #[test]
    fn rearming_a_point_replaces_kind() {
        let g = Guard::unlimited()
            .with_fault(FaultPoint::SqlExec, FaultKind::Error)
            .with_fault(FaultPoint::SqlExec, FaultKind::Panic);
        assert_eq!(g.take_fault(FaultPoint::SqlExec), Some(FaultKind::Panic));
        assert_eq!(g.take_fault(FaultPoint::SqlExec), None);
    }

    #[test]
    fn clones_charge_from_other_threads() {
        let g = Guard::new(Limits::UNLIMITED.with_fuel(100_000));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = g.clone();
                std::thread::spawn(move || {
                    for _ in 0..1_000 {
                        h.charge(1).unwrap();
                        h.charge_output_nodes(1).unwrap();
                        h.charge_output_bytes(2).unwrap();
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        // Relaxed atomics still never lose a charge: totals are exact.
        assert_eq!(g.fuel_spent(), 4_000);
        assert!(g.trip().is_none());
    }

    #[test]
    fn concurrent_trips_report_one_first_violation() {
        let g = Guard::new(Limits::UNLIMITED.with_fuel(10));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let h = g.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let _ = h.charge(1);
                    }
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let trip = g.trip().expect("400 charges against 10 fuel must trip");
        assert_eq!(trip.resource, Resource::Fuel);
        // Every later observer sees the same sticky first violation.
        assert_eq!(g.charge(1).unwrap_err(), trip);
    }

    #[test]
    fn restart_clock_resets_deadline() {
        let g = Guard::new(Limits::UNLIMITED.with_deadline(Duration::from_secs(3600)));
        g.check_deadline().unwrap();
        g.restart_clock();
        g.check_deadline().unwrap();
    }
}
