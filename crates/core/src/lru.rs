//! The cache core shared by the plan cache and the result cache: a
//! lock-striped, byte-bounded LRU.
//!
//! * **Routing** — the caller's content digest of a key picks its shard
//!   (`digest % shards`), so all operations on one key serialize on one
//!   lock while distinct keys mostly proceed in parallel.
//! * **Budget** — the global byte capacity is apportioned evenly across
//!   shards; each shard enforces `capacity / shards` on its own, so the
//!   global bound `bytes_in_use ≤ capacity` holds at every instant without
//!   a global lock. (A skewed key population can evict from a full shard
//!   while another sits empty — the classic striping trade-off.) A value
//!   costing more than one shard's slice is never admitted.
//! * **Freshness** — the caller decides, under the shard lock, whether a
//!   found entry may still be served; a stale one is dropped before the
//!   lock is released, so no later lookup on any thread can observe it.
//! * **Counters** — every shard charges one [`CacheStats`], so
//!   `hits + misses == lookups` holds in every snapshot.

// Guard-bearing hot path: a stray unwrap or expect here is a latent panic
// the serving layer would have to contain. Keep it impossible.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, PoisonError};
use xsltdb_relstore::{CacheSnapshot, CacheStats};

struct Slot<V> {
    value: V,
    /// Caller-estimated bytes this entry (key + value) holds.
    cost: usize,
    /// Shard clock value of the last hit (or the insert).
    last_used: u64,
}

struct Shard<K, V> {
    entries: HashMap<K, Slot<V>>,
    bytes: usize,
    clock: u64,
}

/// A thread-safe LRU of `K → V` bounded in caller-estimated bytes, striped
/// over N independently locked shards. See the module docs.
pub(crate) struct StripedLru<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    stats: CacheStats,
    /// The requested global capacity.
    capacity: usize,
    /// Each shard's slice of it: `capacity / shards`.
    per_shard: usize,
}

/// Lock a shard (or a cache's side table). A panic while holding one can
/// only come from an engine bug inside a caller's freshness check; the
/// guarded state is updated without intervening panics, so a poisoned
/// lock's inner state is still coherent and is used as-is.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<K: Hash + Eq + Clone, V> StripedLru<K, V> {
    /// `capacity` bytes over exactly `shards` lock stripes (≥ 1).
    pub(crate) fn new(capacity: usize, shards: usize) -> Self {
        assert!(shards >= 1, "a cache needs at least one shard");
        let shards: Vec<_> = (0..shards)
            .map(|_| {
                Mutex::new(Shard {
                    entries: HashMap::new(),
                    bytes: 0,
                    clock: 0,
                })
            })
            .collect();
        StripedLru {
            per_shard: capacity / shards.len(),
            shards: shards.into_boxed_slice(),
            stats: CacheStats::new(),
            capacity,
        }
    }

    fn shard(&self, digest: u64) -> &Mutex<Shard<K, V>> {
        &self.shards[(digest as usize) % self.shards.len()]
    }

    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The requested global capacity. The enforced bound is the sum of the
    /// per-shard slices, which never exceeds this.
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// Bytes pinned across all shards. Each addend is read under its shard
    /// lock; every shard individually respects its slice at all times.
    pub(crate) fn bytes_in_use(&self) -> usize {
        self.shards.iter().map(|s| lock(s).bytes).sum()
    }

    pub(crate) fn entry_count(&self) -> usize {
        self.shards.iter().map(|s| lock(s).entries.len()).sum()
    }

    pub(crate) fn stats(&self) -> CacheSnapshot {
        self.stats.snapshot()
    }

    /// Drop every entry (counters are kept).
    pub(crate) fn clear(&self) {
        for s in self.shards.iter() {
            let mut shard = lock(s);
            shard.entries.clear();
            shard.bytes = 0;
        }
    }

    /// Look `key` up in the shard `digest` picks. `fresh` sees the cached
    /// value under the shard lock and returns what to serve, or `None` if
    /// the entry is stale. Counts exactly one hit or one miss; a stale
    /// entry additionally counts an invalidation and is dropped.
    pub(crate) fn lookup<R>(
        &self,
        key: &K,
        digest: u64,
        fresh: impl FnOnce(&V) -> Option<R>,
    ) -> Option<R> {
        let mut guard = lock(self.shard(digest));
        let shard = &mut *guard;
        if let Some(slot) = shard.entries.get_mut(key) {
            if let Some(hit) = fresh(&slot.value) {
                shard.clock += 1;
                slot.last_used = shard.clock;
                self.stats.add_hit();
                return Some(hit);
            }
        }
        if let Some(stale) = shard.entries.remove(key) {
            shard.bytes -= stale.cost;
            self.stats.add_invalidation();
        }
        self.stats.add_miss();
        None
    }

    /// Admit `value` at `cost` bytes into the shard `digest` picks,
    /// evicting that shard's least-recently-used entries until it fits. A
    /// value costing more than one shard's slice is not admitted (counted
    /// uncacheable); replacing a key first releases its old bytes.
    pub(crate) fn insert(&self, key: K, digest: u64, value: V, cost: usize) {
        if cost > self.per_shard {
            self.stats.add_uncacheable();
            return;
        }
        let mut guard = lock(self.shard(digest));
        let shard = &mut *guard;
        if let Some(old) = shard.entries.remove(&key) {
            shard.bytes -= old.cost;
        }
        // `cost <= per_shard`, so the loop ends with the shard emptied at
        // the latest.
        while shard.bytes + cost > self.per_shard {
            let Some(victim) = shard
                .entries
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(evicted) = shard.entries.remove(&victim) {
                shard.bytes -= evicted.cost;
                self.stats.add_eviction();
            }
        }
        shard.clock += 1;
        shard.entries.insert(
            key,
            Slot {
                value,
                cost,
                last_used: shard.clock,
            },
        );
        shard.bytes += cost;
    }
}
