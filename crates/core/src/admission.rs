//! The serving front door's one admission gate.
//!
//! Per-call [`Guard`](xsltdb_xml::Guard) budgets bound a single transform,
//! yet N concurrent callers can each stay within their own limits while
//! together exhausting the process. [`AdmissionQueue`] bounds the *fleet*:
//! a request is admitted only when its output bytes and one stream slot
//! fit under fleet-wide ceilings. Otherwise it waits — bounded in depth
//! and in time — and is shed with a typed [`Rejected`]. Fuel is not an
//! axis: the guard already enforces each request's fuel. The units in
//! flight, the waiter count and the counters live behind one mutex, so the
//! gate's invariants (checked by the chaos suite) need no rollback:
//!
//! 1. **All or nothing** — a request draws its bytes and a slot, or
//!    nothing.
//! 2. **Conservation** — the units in flight are the sum of live permits;
//!    once every permit has dropped, [`AdmissionStats::is_quiesced`] holds.
//! 3. **Panic safety** — a [`Permit`] dropped mid-unwind returns its units
//!    exactly once (plain `Drop`).

use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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

/// Ceilings and queue bounds of an [`AdmissionQueue`]. A ceiling of
/// `u64::MAX` leaves that axis unmetered (its units are still counted).
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Aggregate output bytes admissible across all in-flight requests.
    pub max_bytes_in_flight: u64,
    /// Maximum concurrently admitted requests.
    pub max_concurrent_streams: u64,
    /// Maximum requests allowed to wait for capacity at once. Arrivals
    /// beyond this are shed with [`Rejected::Overloaded`].
    pub max_queue_depth: usize,
    /// Deadline applied when the caller does not supply one.
    pub default_deadline: Duration,
}

impl AdmissionConfig {
    /// Serving defaults: the byte ceiling admits eight concurrent
    /// `Limits::server_default` requests (2 GiB over 256 MiB each), and a
    /// stampede beyond the queue is shed instead of swallowed.
    pub fn server_default() -> AdmissionConfig {
        AdmissionConfig {
            max_bytes_in_flight: 2 * 1024 * 1024 * 1024,
            max_concurrent_streams: 256,
            max_queue_depth: 64,
            default_deadline: Duration::from_millis(250),
        }
    }
}

/// The gate's state: units in flight now, requests waiting now, and the
/// monotonic admission counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    pub bytes_in_flight: u64,
    pub streams_in_flight: u64,
    /// Requests blocked waiting for capacity.
    pub waiting: usize,
    pub admitted: u64,
    pub shed_overloaded: u64,
    pub shed_timeout: u64,
}

impl AdmissionStats {
    /// True when no request holds any admitted units.
    pub fn is_quiesced(&self) -> bool {
        self.bytes_in_flight == 0 && self.streams_in_flight == 0
    }
}

/// Bounded admission over fleet-wide ceilings: a request that does not fit
/// waits for a [`Permit`] drop to free capacity.
#[derive(Debug)]
pub struct AdmissionQueue {
    config: AdmissionConfig,
    state: Mutex<AdmissionStats>,
    /// Signalled when a [`Permit`] returns capacity to a waiting request.
    freed: Condvar,
}

impl AdmissionQueue {
    pub fn new(config: AdmissionConfig) -> AdmissionQueue {
        AdmissionQueue { config, state: Mutex::default(), freed: Condvar::new() }
    }

    pub fn stats(&self) -> AdmissionStats {
        *self.lock()
    }

    /// Admit a request wanting `bytes` output bytes, waiting up to the
    /// configured default deadline for capacity.
    pub fn admit(&self, bytes: u64) -> Result<Permit<'_>, Rejected> {
        self.admit_within(bytes, self.config.default_deadline)
    }

    /// The check, the wait and the draw all happen under the state lock,
    /// and a [`Permit`] drop returns units under the same lock before it
    /// signals, so no wake-up can slip between a failed check and the wait.
    fn admit_within(&self, bytes: u64, deadline: Duration) -> Result<Permit<'_>, Rejected> {
        let mut state = self.lock();
        if !self.fits(&state, bytes) {
            if state.waiting >= self.config.max_queue_depth {
                state.shed_overloaded += 1;
                return Err(Rejected::Overloaded { queue_depth: state.waiting });
            }
            let start = Instant::now();
            state.waiting += 1;
            state = self
                .freed
                .wait_timeout_while(state, deadline, |s| !self.fits(s, bytes))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            state.waiting -= 1;
            // The deadline may pass just as capacity frees: a fit wins.
            if !self.fits(&state, bytes) {
                state.shed_timeout += 1;
                return Err(Rejected::QueueTimeout { waited: start.elapsed() });
            }
        }
        state.bytes_in_flight += bytes;
        state.streams_in_flight += 1;
        state.admitted += 1;
        Ok(Permit { queue: self, bytes })
    }

    /// Whether the whole draw fits under both ceilings. Units in flight
    /// never exceed their ceiling, so the subtraction cannot wrap, and a
    /// draw that fits cannot overflow its counter.
    fn fits(&self, s: &AdmissionStats, bytes: u64) -> bool {
        let c = &self.config;
        s.streams_in_flight < c.max_concurrent_streams
            && bytes <= c.max_bytes_in_flight - s.bytes_in_flight
    }

    /// Nothing panics while holding the lock (each update is a few
    /// additions `fits` has bounded), so a poisoned state is still valid.
    fn lock(&self) -> MutexGuard<'_, AdmissionStats> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// An admitted request's hold on the gate's capacity. Dropping it —
/// normally or during a panic unwind — returns its units and wakes every
/// waiting request.
#[derive(Debug)]
pub struct Permit<'q> {
    queue: &'q AdmissionQueue,
    bytes: u64,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.queue.lock();
        state.bytes_in_flight -= self.bytes;
        state.streams_in_flight -= 1;
        if state.waiting > 0 {
            self.queue.freed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    const UNMETERED: u64 = u64::MAX;

    fn gate(bytes: u64, streams: u64, depth: usize, deadline_ms: u64) -> AdmissionQueue {
        AdmissionQueue::new(AdmissionConfig {
            max_bytes_in_flight: bytes,
            max_concurrent_streams: streams,
            max_queue_depth: depth,
            default_deadline: Duration::from_millis(deadline_ms),
        })
    }

    fn tiny_queue(streams: u64, depth: usize, deadline_ms: u64) -> AdmissionQueue {
        gate(UNMETERED, streams, depth, deadline_ms)
    }

    /// `(bytes, streams)` in flight.
    fn in_flight(q: &AdmissionQueue) -> (u64, u64) {
        let s = q.stats();
        (s.bytes_in_flight, s.streams_in_flight)
    }

    #[test]
    fn fast_path_admits_without_waiting() {
        let q = tiny_queue(UNMETERED, 4, 10);
        let p = q.admit(200).unwrap();
        assert_eq!(in_flight(&q), (200, 1));
        assert_eq!(q.stats().admitted, 1);
        drop(p);
        assert!(q.stats().is_quiesced());
    }

    #[test]
    fn reserve_and_drop_round_trips_to_zero() {
        let q = AdmissionQueue::new(AdmissionConfig::server_default());
        let p = q.admit(2_000).unwrap();
        assert_eq!(in_flight(&q), (2_000, 1));
        drop(p);
        assert!(q.stats().is_quiesced());
        assert_eq!(q.stats().admitted, 1);
    }

    #[test]
    fn unlimited_gate_still_counts_in_flight() {
        let q = gate(UNMETERED, UNMETERED, 0, 10);
        let a = q.admit(7).unwrap();
        let b = q.admit(3).unwrap();
        assert_eq!(in_flight(&q), (10, 2));
        drop(a);
        assert_eq!(in_flight(&q), (3, 1));
        drop(b);
        assert!(q.stats().is_quiesced());
    }

    #[test]
    fn deadline_sheds_with_queue_timeout() {
        let q = tiny_queue(1, 4, 15);
        let _held = q.admit(1).unwrap();
        let err = q.admit(1).unwrap_err();
        assert!(matches!(err, Rejected::QueueTimeout { .. }), "{err:?}");
        assert_eq!(q.stats().shed_timeout, 1);
        assert_eq!(q.stats().waiting, 0);
    }

    #[test]
    fn queue_depth_bound_sheds_overloaded() {
        let q = tiny_queue(1, 0, 50);
        let _held = q.admit(1).unwrap();
        // Depth 0: no waiting allowed at all.
        let err = q.admit(1).unwrap_err();
        assert!(matches!(err, Rejected::Overloaded { queue_depth: 0 }), "{err:?}");
        assert_eq!(q.stats().shed_overloaded, 1);
    }

    #[test]
    fn waiter_wakes_when_permit_drops() {
        let q = tiny_queue(1, 4, 2_000);
        let held = q.admit(1).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| q.admit(1));
            while q.stats().waiting == 0 {
                std::thread::yield_now();
            }
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
        let p = q.admit(5).unwrap();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = p;
            panic!("request handler blew up");
        }));
        assert!(outcome.is_err());
        assert!(q.stats().is_quiesced(), "{:?}", q.stats());
        assert!(q.admit(5).is_ok(), "capacity leaked after panic");
    }

    #[test]
    fn reservation_returns_units_during_panic_unwind() {
        let q = AdmissionQueue::new(AdmissionConfig::server_default());
        let p = q.admit(500).unwrap();
        assert_eq!(in_flight(&q), (500, 1));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = p;
            panic!("tier blew up");
        }));
        assert!(outcome.is_err());
        assert!(q.stats().is_quiesced(), "{:?}", q.stats());
    }

    #[test]
    fn stampede_admissions_conserve_and_shed_typed() {
        let q = tiny_queue(4, 8, 30);
        let shed = AtomicU64::new(0);
        let served = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    for _ in 0..20 {
                        match q.admit(10) {
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
        assert!(stats.is_quiesced(), "{stats:?}");
        assert_eq!(stats.waiting, 0);
    }

    #[test]
    fn refusal_is_all_or_nothing() {
        let q = gate(50, 2, 0, 10);
        let held = q.admit(10).unwrap();
        // Refused on bytes: no stream slot is drawn.
        assert!(matches!(q.admit(41), Err(Rejected::Overloaded { .. })));
        assert_eq!(in_flight(&q), (10, 1));
        // Exactly the remaining headroom fits.
        let rest = q.admit(40).unwrap();
        assert_eq!(in_flight(&q), (50, 2));
        // Refused on stream slots: no bytes are drawn.
        drop(rest);
        let last = q.admit(1).unwrap();
        assert!(matches!(q.admit(0), Err(Rejected::Overloaded { .. })));
        assert_eq!(in_flight(&q), (11, 2));
        drop((held, last));
        assert!(q.stats().is_quiesced());
    }

    #[test]
    fn stream_slots_refuse_at_ceiling() {
        let q = tiny_queue(2, 0, 10);
        let a = q.admit(1).unwrap();
        let b = q.admit(1).unwrap();
        assert!(q.admit(1).is_err());
        drop(a);
        let c = q.admit(1).unwrap();
        assert_eq!(in_flight(&q), (2, 2));
        drop((b, c));
        assert!(q.stats().is_quiesced());
    }

    #[test]
    fn concurrent_permits_conserve_units() {
        // Ceilings tight enough that the threads meet at the gate.
        let q = gate(400, 4, 8, 500);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let q = &q;
                s.spawn(move || {
                    for i in 0..500 {
                        let bytes = 2 * (1 + (t * 31 + i * 7) % 97);
                        if let Ok(_p) = q.admit(bytes) {
                            let (b, n) = in_flight(q);
                            assert!(b <= 400 && n <= 4, "{:?}", (b, n));
                        }
                    }
                });
            }
        });
        let stats = q.stats();
        assert!(stats.is_quiesced(), "{stats:?}");
        assert_eq!(stats.admitted + stats.shed_overloaded + stats.shed_timeout, 8 * 500);
    }
}
