//! SharedResultCache: a byte-bounded, lock-striped cache of **serialized
//! transform output** with read-set invalidation.
//!
//! The paper's publishing views make a transform's output a pure function
//! of (stylesheet × structure × data). The plan cache amortises the first
//! two factors; this module amortises the third: once a request has
//! streamed its bytes, an identical request can be served from memory
//! without re-entering the degradation lattice at all — *as long as no
//! table the plan reads has changed*.
//!
//! * **Key** — the exact quadruple the output is a function of: stylesheet
//!   text, **canonical** structure fingerprint, rewrite options, and the
//!   concrete tables the plan was bound to (in slot order). Equality is
//!   full content comparison, so distinct requests can never collide into
//!   one entry. Views whose structure cannot be derived carry an
//!   error-salted fingerprint that names the view, so they key per view.
//! * **Freshness** — every entry snapshots the [`TableVersion`] (per-table
//!   DDL stamp + DML data generation) of its read-set at fill time. A
//!   lookup revalidates the snapshot against the probing catalog
//!   ([`Catalog::versions_current`]): any DML *or* DDL on any read table
//!   since the fill drops the entry (counted as an invalidation) and the
//!   request falls through to a fresh execution. Writes to tables outside
//!   the read-set are invisible — that is the point.
//! * **Budgeting** — the same striped, byte-bounded LRU as the plan cache;
//!   the dominant cost is the output bytes themselves. An output larger than a
//!   shard's slice is not admitted (counted `uncacheable`).
//! * **What is never cached** — errors and guard trips produce no bytes to
//!   cache: only complete, successful outputs are admitted, so a trip or a
//!   fault can never be replayed from memory. Hits still pass through the
//!   caller's guard and the admission gate (see
//!   `serve::FrontDoor`), so a cached byte is charged like a fresh one.

// Guard-bearing hot path: a stray unwrap or expect here is a latent panic
// the serving layer would have to contain. Keep it impossible.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

use crate::lru::StripedLru;
use crate::pipeline::Tier;
use crate::plancache::fnv64;
use crate::xqgen::RewriteOptions;
use std::sync::Arc;
use xsltdb_relstore::{CacheSnapshot, Catalog, TableVersion};

// The serving layer shares one cache across every worker thread.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ResultKey>();
    assert_send_sync::<CachedResult>();
    assert_send_sync::<SharedResultCache>();
};

/// The cache key: everything the serialized output is a function of,
/// except the data itself (which the entry's read-set snapshot covers).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultKey {
    /// The full stylesheet source text.
    pub stylesheet: String,
    /// Canonical structure fingerprint of the view
    /// ([`canonicalize_view`](xsltdb_structinfo::canonicalize_view)).
    pub struct_fp: u64,
    /// Canonical rendering of the [`RewriteOptions`] flags.
    pub options: String,
    /// The concrete tables the plan was bound to, in slot order — two
    /// same-shaped views share a plan but must *not* share results.
    pub tables: Vec<String>,
}

impl ResultKey {
    pub fn new(
        struct_fp: u64,
        stylesheet_src: &str,
        opts: &RewriteOptions,
        tables: Vec<String>,
    ) -> ResultKey {
        ResultKey {
            stylesheet: stylesheet_src.to_string(),
            struct_fp,
            options: format!("{opts:?}"),
            tables,
        }
    }

    /// Content digest (shard routing, reports).
    pub fn digest(&self) -> u64 {
        let mut h = fnv64(self.stylesheet.as_bytes());
        h ^= self.struct_fp.rotate_left(17);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^= fnv64(self.options.as_bytes());
        for t in &self.tables {
            h = h.rotate_left(13) ^ fnv64(t.as_bytes());
        }
        h
    }

    /// Bytes this key holds on to while cached.
    fn cost(&self) -> usize {
        self.stylesheet.len()
            + self.options.len()
            + self.tables.iter().map(String::len).sum::<usize>()
            + std::mem::size_of::<u64>()
    }
}

/// A served cache hit: the shared output bytes plus the tier that
/// originally produced them (for stats/reporting parity with fresh runs).
#[derive(Debug, Clone)]
pub struct CachedResult {
    pub bytes: Arc<[u8]>,
    pub tier: Tier,
}

struct Entry {
    bytes: Arc<[u8]>,
    tier: Tier,
    /// Version coordinates of every table the producing plan read, at the
    /// instant the bytes were computed.
    reads: Vec<TableVersion>,
}

/// Default capacity for the serving layer: roomy enough for the whole
/// XSLTMark suite's outputs at bench sizes, small enough that eviction is
/// a tested code path.
pub const DEFAULT_RESULT_CACHE_BYTES: usize = 32 * 1024 * 1024;

/// Default shard count, matching the plan cache's striping.
pub const DEFAULT_RESULT_CACHE_SHARDS: usize = 8;

/// A thread-safe cache of serialized outputs: the crate's striped LRU
/// (each shard a byte-bounded LRU behind its own mutex, all charging one
/// set of counters, so `hits + misses == lookups` holds in every
/// snapshot) with read-set revalidation on every lookup.
///
/// A key's [content digest](ResultKey::digest) picks its shard; the
/// freshness check runs under the shard lock against the catalog borrow
/// the caller holds, so a stale entry is dropped before any thread can be
/// served from it. Capacity 0 disables the cache: every insert is
/// uncacheable and every lookup is a miss.
pub struct SharedResultCache {
    lru: StripedLru<ResultKey, Entry>,
}

impl Default for SharedResultCache {
    fn default() -> Self {
        SharedResultCache::new(DEFAULT_RESULT_CACHE_BYTES)
    }
}

impl SharedResultCache {
    pub fn new(capacity: usize) -> SharedResultCache {
        SharedResultCache::with_shards(capacity, DEFAULT_RESULT_CACHE_SHARDS)
    }

    /// `capacity` estimated bytes over exactly `shards` lock stripes
    /// (≥ 1); each shard enforces `capacity / shards` independently.
    pub fn with_shards(capacity: usize, shards: usize) -> SharedResultCache {
        SharedResultCache { lru: StripedLru::new(capacity, shards) }
    }

    pub fn capacity_bytes(&self) -> usize {
        self.lru.capacity_bytes()
    }

    /// Is the cache able to hold anything at all? Capacity 0 is the
    /// "disabled" configuration.
    pub fn enabled(&self) -> bool {
        self.capacity_bytes() > 0
    }

    pub fn bytes_in_use(&self) -> usize {
        self.lru.bytes_in_use()
    }

    pub fn entry_count(&self) -> usize {
        self.lru.entry_count()
    }

    /// Point-in-time copy of the shared counters; `hits + misses ==
    /// lookups` holds in every snapshot even while other threads charge.
    pub fn stats(&self) -> CacheSnapshot {
        self.lru.stats()
    }

    pub fn clear(&self) {
        self.lru.clear();
    }

    /// Look up the memoised output for `key`, revalidating its read-set
    /// against `catalog` under the key's shard lock. Counts exactly one hit
    /// or one miss; an entry whose read-set moved additionally counts an
    /// invalidation and is dropped before returning, so no later lookup can
    /// observe it.
    pub fn lookup(&self, key: &ResultKey, catalog: &Catalog) -> Option<CachedResult> {
        self.lru.lookup(key, key.digest(), |e| {
            catalog
                .versions_current(&e.reads)
                .then(|| CachedResult { bytes: Arc::clone(&e.bytes), tier: e.tier })
        })
    }

    /// Admit a complete, successful output together with the read-set
    /// snapshot it was computed under, into its key's shard. Evicts that
    /// shard's LRU entries until its slice fits; an output that alone
    /// exceeds the slice is not admitted.
    ///
    /// The caller must snapshot `reads` from the same catalog borrow the
    /// execution ran against — the catalog is immutable for the duration
    /// of a request, so the snapshot and the bytes are mutually consistent
    /// by construction.
    pub fn insert(
        &self,
        key: ResultKey,
        bytes: Arc<[u8]>,
        tier: Tier,
        reads: Vec<TableVersion>,
    ) {
        let cost = key.cost()
            + bytes.len()
            + reads
                .iter()
                .map(|v| v.table.len() + 2 * std::mem::size_of::<u64>())
                .sum::<usize>();
        let digest = key.digest();
        self.lru.insert(key, digest, Entry { bytes, tier, reads }, cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsltdb_relstore::{ColType, Datum, Table};

    fn catalog_ab() -> Catalog {
        let mut c = Catalog::new();
        for name in ["a", "b"] {
            let mut t = Table::new(name, &[("x", ColType::Int)]);
            t.insert(vec![Datum::Int(1)]).unwrap();
            c.add_table(t);
        }
        c
    }

    fn key(sheet: &str, tables: &[&str]) -> ResultKey {
        ResultKey::new(
            0xBEEF,
            sheet,
            &RewriteOptions::default(),
            tables.iter().map(|t| t.to_string()).collect(),
        )
    }

    fn bytes(s: &str) -> Arc<[u8]> {
        Arc::from(s.as_bytes().to_vec().into_boxed_slice())
    }

    /// The exclusive cache: one LRU, one lock.
    fn exclusive(capacity: usize) -> SharedResultCache {
        SharedResultCache::with_shards(capacity, 1)
    }

    #[test]
    fn round_trip_hits_while_reads_unchanged() {
        let c = catalog_ab();
        let cache = exclusive(1 << 16);
        let k = key("sheet", &["a"]);
        assert!(cache.lookup(&k, &c).is_none());
        cache.insert(k.clone(), bytes("<r/>"), Tier::Sql, c.versions_of(["a"]));
        let hit = cache.lookup(&k, &c).expect("hit");
        assert_eq!(&*hit.bytes, b"<r/>");
        assert_eq!(hit.tier, Tier::Sql);
        let snap = cache.stats();
        assert_eq!((snap.hits, snap.misses), (1, 1));
        assert_eq!(snap.lookups(), 2);
    }

    #[test]
    fn dml_on_a_read_table_invalidates() {
        let mut c = catalog_ab();
        let cache = exclusive(1 << 16);
        let k = key("sheet", &["a"]);
        cache.insert(k.clone(), bytes("<r/>"), Tier::Sql, c.versions_of(["a"]));
        c.table_mut("a").unwrap().insert(vec![Datum::Int(2)]).unwrap();
        assert!(cache.lookup(&k, &c).is_none(), "stale bytes must not be served");
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.entry_count(), 0, "stale entry dropped eagerly");
    }

    #[test]
    fn dml_outside_the_read_set_does_not_invalidate() {
        let mut c = catalog_ab();
        let cache = exclusive(1 << 16);
        let k = key("sheet", &["a"]);
        cache.insert(k.clone(), bytes("<r/>"), Tier::Sql, c.versions_of(["a"]));
        // DML on b and DDL on b: both invisible to a read-set of {a}.
        c.table_mut("b").unwrap().insert(vec![Datum::Int(9)]).unwrap();
        c.create_index("b", "x").unwrap();
        assert!(cache.lookup(&k, &c).is_some());
        let snap = cache.stats();
        assert_eq!(snap.invalidations, 0);
        assert_eq!(snap.evictions, 0);
    }

    #[test]
    fn ddl_on_a_read_table_invalidates() {
        let mut c = catalog_ab();
        let cache = exclusive(1 << 16);
        let k = key("sheet", &["a"]);
        cache.insert(k.clone(), bytes("<r/>"), Tier::Sql, c.versions_of(["a"]));
        c.create_index("a", "x").unwrap();
        assert!(cache.lookup(&k, &c).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn same_shape_different_bindings_do_not_share_results() {
        let c = catalog_ab();
        let cache = exclusive(1 << 16);
        let ka = key("sheet", &["a"]);
        let kb = key("sheet", &["b"]);
        assert_ne!(ka, kb);
        cache.insert(ka.clone(), bytes("<a/>"), Tier::Sql, c.versions_of(["a"]));
        cache.insert(kb.clone(), bytes("<b/>"), Tier::Sql, c.versions_of(["b"]));
        assert_eq!(&*cache.lookup(&ka, &c).expect("a").bytes, b"<a/>");
        assert_eq!(&*cache.lookup(&kb, &c).expect("b").bytes, b"<b/>");
    }

    #[test]
    fn byte_budget_evicts_lru_and_rejects_oversize() {
        let c = catalog_ab();
        let payload = "x".repeat(256);
        let one = key("s0", &["a"]).cost() + payload.len();
        let cache = exclusive(one * 2 + one / 2);
        for i in 0..3 {
            cache.insert(
                key(&format!("s{i}"), &["a"]),
                bytes(&payload),
                Tier::Sql,
                c.versions_of(["a"]),
            );
            assert!(cache.bytes_in_use() <= cache.capacity_bytes());
        }
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(&key("s0", &["a"]), &c).is_none(), "LRU victim gone");
        assert!(cache.lookup(&key("s2", &["a"]), &c).is_some());
        // An output alone larger than the capacity is not admitted.
        let huge = "y".repeat(one * 4);
        cache.insert(key("huge", &["a"]), bytes(&huge), Tier::Sql, c.versions_of(["a"]));
        assert_eq!(cache.stats().uncacheable, 1);
    }

    #[test]
    fn reinserting_a_key_keeps_one_entry_and_one_cost() {
        let c = catalog_ab();
        let cache = exclusive(1 << 16);
        let k = key("sheet", &["a"]);
        cache.insert(k.clone(), bytes("<old/>"), Tier::Sql, c.versions_of(["a"]));
        let reads = c.versions_of(["a"]);
        let cost = k.cost() + "<new/>".len() + reads[0].table.len() + 16;
        cache.insert(k.clone(), bytes("<new/>"), Tier::Sql, reads);
        assert_eq!(cache.entry_count(), 1);
        assert_eq!(cache.bytes_in_use(), cost);
        assert_eq!(&*cache.lookup(&k, &c).expect("hit").bytes, b"<new/>");
    }

    #[test]
    fn capacity_zero_disables() {
        let c = catalog_ab();
        let shared = SharedResultCache::with_shards(0, 2);
        assert!(!shared.enabled());
        let k = key("sheet", &["a"]);
        shared.insert(k.clone(), bytes("<r/>"), Tier::Sql, c.versions_of(["a"]));
        assert!(shared.lookup(&k, &c).is_none());
        assert_eq!(shared.entry_count(), 0);
    }

    #[test]
    fn shared_cache_concurrent_lookups_agree_and_count() {
        let c = std::sync::Arc::new(catalog_ab());
        let shared = std::sync::Arc::new(SharedResultCache::new(1 << 20));
        for i in 0..8 {
            shared.insert(
                key(&format!("s{i}"), &["a"]),
                bytes(&format!("<r{i}/>")),
                Tier::Sql,
                c.versions_of(["a"]),
            );
        }
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let shared = std::sync::Arc::clone(&shared);
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for round in 0..40 {
                        let i = (t + round) % 8;
                        let hit = shared
                            .lookup(&key(&format!("s{i}"), &["a"]), &c)
                            .expect("warm entry");
                        assert_eq!(&*hit.bytes, format!("<r{i}/>").as_bytes());
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no panics");
        }
        let snap = shared.stats();
        assert_eq!(snap.lookups(), 160);
        assert_eq!(snap.hits, 160);
        assert_eq!(snap.hits + snap.misses, snap.lookups());
    }
}
