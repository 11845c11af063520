//! Execution statistics — the observable evidence that the rewrite path
//! actually uses indexes instead of scanning (asserted by integration
//! tests, reported by the benchmark harness).
//!
//! All counters are relaxed atomics so a stats handle can be charged from
//! any thread (concurrent sessions sharing one `SharedPlanCache` charge the
//! same [`CacheStats`]). Relaxed ordering is enough: each counter is an
//! independent monotonic tally, and read-modify-write operations never lose
//! increments, so single-threaded observable totals are unchanged.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters updated during query execution.
#[derive(Debug, Default)]
pub struct ExecStats {
    /// Rows visited by full scans and residual filters.
    rows_scanned: AtomicU64,
    /// Number of B-tree probes (equality or range descents).
    index_probes: AtomicU64,
    /// Rows returned from index probes.
    index_rows: AtomicU64,
    /// XML elements constructed by publishing functions.
    elements_built: AtomicU64,
    /// Bytes emitted by the streaming execution path (no DOM involved).
    streamed_bytes: AtomicU64,
    /// Largest arena node count of any single materialised result document
    /// (a high-water mark, not a tally): the streaming path leaves this at
    /// zero, which is the whole point.
    peak_materialized_nodes: AtomicU64,
    /// Subtrees the sink-mode XQuery evaluator had to spill to a tree
    /// (re-inspected constructors) before replaying them as events.
    spilled_subtrees: AtomicU64,
    /// Largest single spilled subtree, in arena nodes — the bounded-memory
    /// evidence for the streaming XQuery tier: peak residency is
    /// O(largest spilled subtree), not O(output).
    peak_spilled_nodes: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub rows_scanned: u64,
    pub index_probes: u64,
    pub index_rows: u64,
    pub elements_built: u64,
    pub streamed_bytes: u64,
    pub peak_materialized_nodes: u64,
    pub spilled_subtrees: u64,
    pub peak_spilled_nodes: u64,
}

impl ExecStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            index_probes: self.index_probes.load(Ordering::Relaxed),
            index_rows: self.index_rows.load(Ordering::Relaxed),
            elements_built: self.elements_built.load(Ordering::Relaxed),
            streamed_bytes: self.streamed_bytes.load(Ordering::Relaxed),
            peak_materialized_nodes: self.peak_materialized_nodes.load(Ordering::Relaxed),
            spilled_subtrees: self.spilled_subtrees.load(Ordering::Relaxed),
            peak_spilled_nodes: self.peak_spilled_nodes.load(Ordering::Relaxed),
        }
    }

    pub fn reset(&self) {
        self.rows_scanned.store(0, Ordering::Relaxed);
        self.index_probes.store(0, Ordering::Relaxed);
        self.index_rows.store(0, Ordering::Relaxed);
        self.elements_built.store(0, Ordering::Relaxed);
        self.streamed_bytes.store(0, Ordering::Relaxed);
        self.peak_materialized_nodes.store(0, Ordering::Relaxed);
        self.spilled_subtrees.store(0, Ordering::Relaxed);
        self.peak_spilled_nodes.store(0, Ordering::Relaxed);
    }

    pub fn add_rows_scanned(&self, n: u64) {
        self.rows_scanned.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_index_probe(&self, rows: u64) {
        self.index_probes.fetch_add(1, Ordering::Relaxed);
        self.index_rows.fetch_add(rows, Ordering::Relaxed);
    }

    pub fn add_element(&self) {
        self.elements_built.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_streamed_bytes(&self, n: u64) {
        self.streamed_bytes.fetch_add(n, Ordering::Relaxed);
    }

    /// Record that a result document of `nodes` arena nodes was
    /// materialised; keeps the per-document maximum.
    pub fn note_materialized_nodes(&self, nodes: u64) {
        self.peak_materialized_nodes.fetch_max(nodes, Ordering::Relaxed);
    }

    /// Record that `count` subtrees were spilled to a tree by the sink-mode
    /// XQuery evaluator before being replayed as events.
    pub fn add_spilled_subtrees(&self, count: u64) {
        self.spilled_subtrees.fetch_add(count, Ordering::Relaxed);
    }

    /// Record the size (arena nodes) of a spilled subtree; keeps the
    /// per-subtree maximum.
    pub fn note_spilled_nodes(&self, nodes: u64) {
        self.peak_spilled_nodes.fetch_max(nodes, Ordering::Relaxed);
    }
}

/// Counters owned by one [`BufferPool`](crate::pool::BufferPool): the
/// observable evidence that the paged backend stays inside its frame budget
/// (`peak_resident_frames`) and that probes cost page reads, not row scans.
/// Same relaxed-atomic discipline as [`ExecStats`].
#[derive(Debug, Default)]
pub struct PoolStats {
    page_reads: AtomicU64,
    pool_hits: AtomicU64,
    evictions: AtomicU64,
    dirty_writebacks: AtomicU64,
    /// Gauge: pages currently resident in pool frames.
    resident_frames: AtomicU64,
    /// High-water mark of `resident_frames` — the budget gate.
    peak_resident_frames: AtomicU64,
}

/// A point-in-time copy of [`PoolStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolSnapshot {
    pub page_reads: u64,
    pub pool_hits: u64,
    pub evictions: u64,
    pub dirty_writebacks: u64,
    pub resident_frames: u64,
    pub peak_resident_frames: u64,
}

impl PoolSnapshot {
    /// Counter movement since `earlier` (gauges keep their current value).
    /// Saturating, so a reset pool against an old snapshot reads as zero
    /// rather than wrapping.
    pub fn delta_since(&self, earlier: &PoolSnapshot) -> PoolSnapshot {
        PoolSnapshot {
            page_reads: self.page_reads.saturating_sub(earlier.page_reads),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            dirty_writebacks: self.dirty_writebacks.saturating_sub(earlier.dirty_writebacks),
            resident_frames: self.resident_frames,
            peak_resident_frames: self.peak_resident_frames,
        }
    }

    /// Fraction of page requests answered without a disk read.
    pub fn hit_rate(&self) -> f64 {
        let total = self.page_reads + self.pool_hits;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

impl PoolStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn snapshot(&self) -> PoolSnapshot {
        PoolSnapshot {
            page_reads: self.page_reads.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            dirty_writebacks: self.dirty_writebacks.load(Ordering::Relaxed),
            resident_frames: self.resident_frames.load(Ordering::Relaxed),
            peak_resident_frames: self.peak_resident_frames.load(Ordering::Relaxed),
        }
    }

    pub fn add_page_read(&self) {
        self.page_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_pool_hit(&self) {
        self.pool_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_dirty_writeback(&self) {
        self.dirty_writebacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Update the residency gauge (and its high-water mark).
    pub fn set_resident_frames(&self, n: u64) {
        self.resident_frames.store(n, Ordering::Relaxed);
        self.peak_resident_frames.fetch_max(n, Ordering::Relaxed);
    }
}

/// Counters for a prepared-plan cache, surfaced alongside [`StatsSnapshot`]
/// by the benchmark harness. The cache itself lives above this crate (it
/// caches whole transform plans); the counters live here so one report can
/// print execution and caching evidence side by side.
///
/// `hits` and `misses` are packed into **one** 64-bit word (32 bits each),
/// so a [`snapshot`](Self::snapshot) reads both with a single atomic load:
/// `hits + misses == lookups` holds in *every* snapshot, even taken while
/// other threads are charging — there is no instant at which a hit has been
/// counted but not become visible to the same snapshot that missed it.
/// 2³² lookups per counter is orders of magnitude beyond any cache's
/// lifetime in this system; the packing saturates rather than overflowing
/// into its neighbour.
#[derive(Debug, Default)]
pub struct CacheStats {
    /// `hits << 32 | misses`, both saturating at `u32::MAX`.
    hits_misses: AtomicU64,
    /// Entries dropped to make room under the byte capacity.
    evictions: AtomicU64,
    /// Entries dropped because their DDL generation was stale.
    invalidations: AtomicU64,
    /// Plans never admitted because they alone exceed the byte capacity.
    uncacheable: AtomicU64,
}

const HIT_ONE: u64 = 1 << 32;
const MISS_MASK: u64 = (1 << 32) - 1;

/// A point-in-time copy of [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
    pub uncacheable: u64,
}

impl CacheSnapshot {
    /// Total lookups. Every lookup is either a hit or a miss, so this is
    /// exactly `hits + misses` — an invariant the property tests assert,
    /// and which the packed-word snapshot preserves under concurrency.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

impl CacheStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn snapshot(&self) -> CacheSnapshot {
        // One load covers hits *and* misses — the consistency point.
        let hm = self.hits_misses.load(Ordering::Relaxed);
        CacheSnapshot {
            hits: hm >> 32,
            misses: hm & MISS_MASK,
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            uncacheable: self.uncacheable.load(Ordering::Relaxed),
        }
    }

    /// Saturating add of `one` (either [`HIT_ONE`] or 1) into the packed
    /// word, leaving the sibling half untouched at the boundary.
    fn bump_packed(&self, one: u64) {
        let _ = self
            .hits_misses
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |hm| {
                let half = if one == HIT_ONE { hm >> 32 } else { hm & MISS_MASK };
                (half < MISS_MASK).then(|| hm + one)
            });
    }

    pub fn add_hit(&self) {
        self.bump_packed(HIT_ONE);
    }

    pub fn add_miss(&self) {
        self.bump_packed(1);
    }

    pub fn add_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_invalidation(&self) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    pub fn add_uncacheable(&self) {
        self.uncacheable.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = ExecStats::new();
        s.add_rows_scanned(10);
        s.add_index_probe(3);
        s.add_element();
        s.add_streamed_bytes(64);
        s.add_streamed_bytes(16);
        s.note_materialized_nodes(40);
        s.note_materialized_nodes(25); // high-water mark: smaller doc keeps the peak
        s.add_spilled_subtrees(2);
        s.note_spilled_nodes(7);
        s.note_spilled_nodes(4); // high-water mark: smaller spill keeps the peak
        let snap = s.snapshot();
        assert_eq!(snap.rows_scanned, 10);
        assert_eq!(snap.index_probes, 1);
        assert_eq!(snap.index_rows, 3);
        assert_eq!(snap.elements_built, 1);
        assert_eq!(snap.streamed_bytes, 80);
        assert_eq!(snap.peak_materialized_nodes, 40);
        assert_eq!(snap.spilled_subtrees, 2);
        assert_eq!(snap.peak_spilled_nodes, 7);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn pool_counters_delta_and_gauge() {
        let p = PoolStats::new();
        p.add_page_read();
        p.add_page_read();
        p.add_pool_hit();
        p.set_resident_frames(5);
        p.set_resident_frames(3); // gauge drops, peak stays
        let early = p.snapshot();
        assert_eq!(early.page_reads, 2);
        assert_eq!(early.resident_frames, 3);
        assert_eq!(early.peak_resident_frames, 5);
        p.add_page_read();
        p.add_eviction();
        p.add_dirty_writeback();
        let d = p.snapshot().delta_since(&early);
        assert_eq!(d.page_reads, 1);
        assert_eq!(d.pool_hits, 0);
        assert_eq!(d.evictions, 1);
        assert_eq!(d.dirty_writebacks, 1);
        assert!((d.hit_rate() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn cache_counters_accumulate_and_derive() {
        let c = CacheStats::new();
        assert_eq!(c.snapshot().hit_rate(), 0.0);
        c.add_hit();
        c.add_hit();
        c.add_hit();
        c.add_miss();
        c.add_eviction();
        c.add_invalidation();
        c.add_uncacheable();
        let snap = c.snapshot();
        assert_eq!(snap.hits, 3);
        assert_eq!(snap.misses, 1);
        assert_eq!(snap.lookups(), 4);
        assert_eq!(snap.hit_rate(), 0.75);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.invalidations, 1);
        assert_eq!(snap.uncacheable, 1);
    }

    #[test]
    fn snapshots_are_consistent_while_other_threads_charge() {
        let c = Arc::new(CacheStats::new());
        let chargers: Vec<_> = (0..4)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for n in 0..2_000u64 {
                        if (n + i) % 3 == 0 {
                            c.add_miss();
                        } else {
                            c.add_hit();
                        }
                    }
                })
            })
            .collect();
        // Snapshots taken mid-charge must each satisfy the invariant and be
        // monotone in total lookups.
        let mut last = 0u64;
        for _ in 0..500 {
            let snap = c.snapshot();
            assert_eq!(snap.hits + snap.misses, snap.lookups());
            assert!(snap.lookups() >= last, "lookups went backwards");
            last = snap.lookups();
        }
        for t in chargers {
            t.join().unwrap();
        }
        let snap = c.snapshot();
        assert_eq!(snap.lookups(), 8_000, "no charge was lost");
    }
}
