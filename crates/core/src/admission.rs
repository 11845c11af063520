//! Admission control for the serving front door.
//!
//! Per-call [`Guard`](xsltdb_xml::Guard) budgets bound a single transform;
//! this module bounds the *fleet*. [`AdmissionQueue`] gates requests on a
//! global [`ResourceLedger`](xsltdb_xml::ResourceLedger): a request that
//! cannot reserve capacity waits — bounded in depth and in time — and is
//! shed with a typed [`Rejected`] when either bound is hit. Nothing ever
//! queues unboundedly.
//!
//! Failures need nothing here: a tier that fails a plan demotes that plan
//! inside the execution lattice (`BoundPlan::execute_to_writer`), and the
//! engine is deterministic, so the door neither retries nor routes around
//! a tier.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use xsltdb_xml::{LedgerLimits, Reservation, ResourceLedger};

/// Why a request was shed instead of admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The wait queue is already at its depth bound; the request is shed
    /// immediately rather than queued.
    Overloaded {
        /// Waiters already queued when the request arrived.
        queue_depth: usize,
    },
    /// Capacity did not free up before the request's deadline.
    QueueTimeout {
        /// How long the request waited before being shed.
        waited: Duration,
    },
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejected::Overloaded { queue_depth } => {
                write!(f, "rejected: overloaded ({queue_depth} requests already queued)")
            }
            Rejected::QueueTimeout { waited } => {
                write!(f, "rejected: no capacity within deadline (waited {waited:?})")
            }
        }
    }
}

impl std::error::Error for Rejected {}

/// Tuning for an [`AdmissionQueue`].
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Maximum requests allowed to wait for capacity at once. Arrivals
    /// beyond this are shed with [`Rejected::Overloaded`].
    pub max_queue_depth: usize,
    /// Deadline applied when the caller does not supply one.
    pub default_deadline: Duration,
}

impl AdmissionConfig {
    pub fn server_default() -> AdmissionConfig {
        AdmissionConfig { max_queue_depth: 64, default_deadline: Duration::from_millis(250) }
    }
}

/// Counters the front door exports; all monotonically increasing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    pub admitted: u64,
    pub shed_overloaded: u64,
    pub shed_timeout: u64,
}

#[derive(Debug, Default)]
struct QueueSync {
    /// Requests currently blocked waiting for capacity.
    waiters: Mutex<usize>,
    /// Signalled whenever a [`Permit`] returns capacity.
    capacity_freed: Condvar,
}

/// Recover a mutex guard even if a panicking holder poisoned it — the
/// admission queue must keep serving after a contained tier panic.
fn lock_unpoisoned(m: &Mutex<usize>) -> MutexGuard<'_, usize> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Bounded admission over a global [`ResourceLedger`].
///
/// Clones share the same queue and ledger. A request is admitted when it
/// can reserve its declared fuel and output-byte budgets plus one stream
/// slot; otherwise it waits — depth-bounded, deadline-bounded — for a
/// [`Permit`] drop to free capacity.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    ledger: ResourceLedger,
    config: AdmissionConfig,
    sync: Arc<QueueSync>,
    admitted: Arc<AtomicU64>,
    shed_overloaded: Arc<AtomicU64>,
    shed_timeout: Arc<AtomicU64>,
}

impl AdmissionQueue {
    pub fn new(ledger: ResourceLedger, config: AdmissionConfig) -> AdmissionQueue {
        AdmissionQueue {
            ledger,
            config,
            sync: Arc::new(QueueSync::default()),
            admitted: Arc::new(AtomicU64::new(0)),
            shed_overloaded: Arc::new(AtomicU64::new(0)),
            shed_timeout: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A queue over a fresh ledger with the given fleet ceilings.
    pub fn with_limits(limits: LedgerLimits, config: AdmissionConfig) -> AdmissionQueue {
        AdmissionQueue::new(ResourceLedger::new(limits), config)
    }

    pub fn ledger(&self) -> &ResourceLedger {
        &self.ledger
    }

    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_overloaded: self.shed_overloaded.load(Ordering::Relaxed),
            shed_timeout: self.shed_timeout.load(Ordering::Relaxed),
        }
    }

    /// Admit a request wanting `fuel` fuel units and `bytes` output bytes,
    /// waiting up to `deadline` for capacity. The fast path never touches
    /// the queue lock; the slow path re-checks the ledger under the lock,
    /// so a [`Permit`] drop (which takes the lock before signalling) can
    /// never slip between a failed reservation and the wait.
    pub fn admit_within(
        &self,
        fuel: u64,
        bytes: u64,
        deadline: Duration,
    ) -> Result<Permit, Rejected> {
        if let Ok(r) = self.ledger.try_reserve(fuel, bytes) {
            return Ok(self.permit(r));
        }
        let start = Instant::now();
        let mut waiters = lock_unpoisoned(&self.sync.waiters);
        if *waiters >= self.config.max_queue_depth {
            self.shed_overloaded.fetch_add(1, Ordering::Relaxed);
            return Err(Rejected::Overloaded { queue_depth: *waiters });
        }
        *waiters += 1;
        let outcome = loop {
            match self.ledger.try_reserve(fuel, bytes) {
                Ok(r) => break Ok(r),
                Err(_) => {
                    let elapsed = start.elapsed();
                    if elapsed >= deadline {
                        break Err(());
                    }
                    let (g, timeout) = self
                        .sync
                        .capacity_freed
                        .wait_timeout(waiters, deadline - elapsed)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    waiters = g;
                    if timeout.timed_out() {
                        // Deadline passed while blocked: one last look at
                        // the ledger, then shed.
                        break self.ledger.try_reserve(fuel, bytes).map_err(|_| ());
                    }
                }
            }
        };
        *waiters -= 1;
        drop(waiters);
        match outcome {
            Ok(r) => Ok(self.permit(r)),
            Err(()) => {
                self.shed_timeout.fetch_add(1, Ordering::Relaxed);
                Err(Rejected::QueueTimeout { waited: start.elapsed() })
            }
        }
    }

    /// [`Self::admit_within`] with the configured default deadline.
    pub fn admit(&self, fuel: u64, bytes: u64) -> Result<Permit, Rejected> {
        self.admit_within(fuel, bytes, self.config.default_deadline)
    }

    fn permit(&self, reservation: Reservation) -> Permit {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Permit { reservation: Some(reservation), sync: Arc::clone(&self.sync) }
    }
}

/// An admitted request's hold on ledger capacity. Dropping it — normally
/// or during a panic unwind — returns the reservation and wakes every
/// queued waiter.
#[derive(Debug)]
pub struct Permit {
    reservation: Option<Reservation>,
    sync: Arc<QueueSync>,
}

impl Permit {
    /// The fuel units this permit holds.
    pub fn fuel(&self) -> u64 {
        self.reservation.as_ref().map_or(0, Reservation::fuel)
    }

    /// The output-byte units this permit holds.
    pub fn bytes(&self) -> u64 {
        self.reservation.as_ref().map_or(0, Reservation::bytes)
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        // Return capacity first, then signal under the lock: a waiter that
        // failed its reservation check still holds the lock, so the signal
        // cannot fire in the gap before it starts waiting.
        drop(self.reservation.take());
        let guard = lock_unpoisoned(&self.sync.waiters);
        if *guard > 0 {
            self.sync.capacity_freed.notify_all();
        }
        drop(guard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_queue(streams: u64, depth: usize, deadline_ms: u64) -> AdmissionQueue {
        AdmissionQueue::with_limits(
            LedgerLimits::UNLIMITED.with_max_concurrent_streams(streams),
            AdmissionConfig {
                max_queue_depth: depth,
                default_deadline: Duration::from_millis(deadline_ms),
            },
        )
    }

    #[test]
    fn fast_path_admits_without_waiting() {
        let q = tiny_queue(4, 4, 10);
        let p = q.admit(100, 100).unwrap();
        assert_eq!(p.fuel(), 100);
        assert_eq!(q.stats().admitted, 1);
        drop(p);
        assert!(q.ledger().snapshot().is_quiesced());
    }

    #[test]
    fn deadline_sheds_with_queue_timeout() {
        let q = tiny_queue(1, 4, 15);
        let _held = q.admit(1, 1).unwrap();
        let err = q.admit(1, 1).unwrap_err();
        assert!(matches!(err, Rejected::QueueTimeout { .. }), "{err:?}");
        assert_eq!(q.stats().shed_timeout, 1);
    }

    #[test]
    fn queue_depth_bound_sheds_overloaded() {
        let q = tiny_queue(1, 0, 50);
        let _held = q.admit(1, 1).unwrap();
        // Depth 0: no waiting allowed at all.
        let err = q.admit(1, 1).unwrap_err();
        assert!(matches!(err, Rejected::Overloaded { queue_depth: 0 }), "{err:?}");
        assert_eq!(q.stats().shed_overloaded, 1);
    }

    #[test]
    fn waiter_wakes_when_permit_drops() {
        let q = tiny_queue(1, 4, 2_000);
        let held = q.admit(1, 1).unwrap();
        std::thread::scope(|s| {
            let q2 = q.clone();
            let waiter = s.spawn(move || q2.admit(1, 1));
            std::thread::sleep(Duration::from_millis(20));
            drop(held);
            let got = waiter.join().expect("waiter panicked");
            assert!(got.is_ok(), "{got:?}");
        });
        assert_eq!(q.stats().admitted, 2);
        assert_eq!(q.stats().shed_timeout, 0);
    }

    #[test]
    fn permit_drop_during_unwind_frees_capacity() {
        let q = tiny_queue(1, 4, 20);
        let p = q.admit(5, 5).unwrap();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = p;
            panic!("request handler blew up");
        }));
        assert!(q.ledger().snapshot().is_quiesced());
        assert!(q.admit(5, 5).is_ok(), "capacity leaked after panic");
    }

    #[test]
    fn stampede_admissions_conserve_and_shed_typed() {
        let q = tiny_queue(4, 8, 30);
        let shed = Arc::new(AtomicU64::new(0));
        let served = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..16 {
                let q = q.clone();
                let shed = Arc::clone(&shed);
                let served = Arc::clone(&served);
                s.spawn(move || {
                    for _ in 0..20 {
                        match q.admit(10, 10) {
                            Ok(p) => {
                                served.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(Duration::from_micros(200));
                                drop(p);
                            }
                            Err(Rejected::Overloaded { .. })
                            | Err(Rejected::QueueTimeout { .. }) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                });
            }
        });
        let stats = q.stats();
        assert_eq!(stats.admitted, served.load(Ordering::Relaxed));
        assert_eq!(
            stats.shed_overloaded + stats.shed_timeout,
            shed.load(Ordering::Relaxed)
        );
        assert_eq!(stats.admitted + stats.shed_overloaded + stats.shed_timeout, 16 * 20);
        assert!(q.ledger().snapshot().is_quiesced(), "{:?}", q.ledger().snapshot());
    }
}
