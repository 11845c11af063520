//! SharedPlanCache: a byte-bounded, lock-striped LRU cache of prepared
//! [`TransformPlan`]s.
//!
//! The paper's production setting (`XMLTransform()` inside Oracle XML DB)
//! assumes the same stylesheet is applied over and over to documents of the
//! same shape: the compile → partial-evaluate → rewrite pipeline is meant
//! to be paid **once per (stylesheet, structure) pair**, not once per call.
//! This module provides that amortisation for the in-process engine.
//!
//! * **Key** — a content digest of the triple that planning actually
//!   consumes: the stylesheet text, the **canonical** fingerprint of the
//!   view's structural information
//!   ([`canonicalize_view`](xsltdb_structinfo::canonicalize_view) — table
//!   names replaced by slots, so same-shaped views share entries), and the
//!   [`RewriteOptions`]. Equality is exact (the full stylesheet text is
//!   compared, not just its hash), so distinct triples can never collide
//!   to the same entry.
//! * **Invalidation** — every entry records the global DDL clock
//!   ([`Catalog::generation`](xsltdb_relstore::Catalog::generation))
//!   observed at planning time (`planned_at`). A lookup passes a *validity
//!   floor* (`valid_at`): the entry is served iff it was planned at or
//!   after that floor, and dropped otherwise. Callers that pass
//!   `catalog.generation()` get the old nuke-on-any-DDL protocol;
//!   [`plan_cached_shared`](crate::pipeline::plan_cached_shared) passes the
//!   newest per-table DDL stamp
//!   ([`Catalog::max_ddl_stamp`](xsltdb_relstore::Catalog::max_ddl_stamp))
//!   over the tables the plan actually binds, so DDL on unrelated tables
//!   leaves same-shaped siblings cached (plan-aware invalidation). Either
//!   way a stale entry is dropped under the lock and replanned: the tier
//!   chosen may change, the output must not.
//! * **Budgeting** — the cache is bounded in bytes of heap an entry holds
//!   ([`plan_cost`], calibrated against a counting allocator), not entry
//!   count, and evicts least-recently-used entries. A plan larger than a
//!   shard's slice of the capacity is simply not admitted.
//! * **Guard composition** — cached plans are immutable; executions arm a
//!   *fresh* [`Guard`](crate::guard::Guard) per call (see
//!   [`BoundPlan::execute_to_writer`](crate::pipeline::BoundPlan::execute_to_writer)),
//!   so a budget trip in one call never poisons the entry for the next.

// Guard-bearing hot path: a stray unwrap or expect here is a latent panic
// the pipeline would have to contain at a tier boundary. Keep it impossible.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]
// The cache hands one Arc'd plan to every caller; a stray clone of the
// plan would silently undo the sharing the cache exists to provide.
#![cfg_attr(not(test), deny(clippy::redundant_clone))]

use crate::lru::{lock, StripedLru};
use crate::pipeline::{BoundPlan, TransformPlan};
use crate::xqgen::RewriteOptions;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use xsltdb_relstore::{CacheSnapshot, XmlView};
use xsltdb_structinfo::{canonicalize_view, ViewCanon};

// Re-exported from their home crates (the digest primitive lives with the
// slot model in `relstore::binding`; the fingerprint with the
// canonicaliser in `structinfo::canonical`) so existing callers of
// `plancache::{fnv64, struct_fingerprint}` keep working.
pub use xsltdb_relstore::fnv64;
pub use xsltdb_structinfo::struct_fingerprint;

// The contract the whole concurrent engine rests on: a prepared plan is
// immutable after build and crosses threads freely, as do the cache and
// guard that serve it. Enforced at compile time so an `Rc`, `Cell` or
// raw-pointer regression anywhere in the plan's transitive ownership
// breaks the build here, with a readable error, rather than at a distant
// `thread::spawn`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TransformPlan>();
    assert_send_sync::<Arc<TransformPlan>>();
    assert_send_sync::<BoundPlan>();
    assert_send_sync::<PlanKey>();
    assert_send_sync::<SharedPlanCache>();
    assert_send_sync::<crate::guard::Guard>();
};

/// The cache key: the exact triple planning consumes. Hashing uses the
/// derived `Hash`; equality compares the full contents, so the property
/// "distinct triples never collide" holds by construction rather than by
/// the absence of 64-bit hash collisions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The full stylesheet source text.
    pub stylesheet: String,
    /// **Canonical** structure fingerprint
    /// ([`canonicalize_view`](xsltdb_structinfo::canonicalize_view)): equal
    /// for every view publishing the same shape, whatever its table names —
    /// so same-shaped views share one entry. Views whose structure cannot
    /// be derived fingerprint their derivation error (which names the
    /// view), still plan (to the VM tier), and still cache — per view.
    pub struct_fp: u64,
    /// Canonical rendering of the [`RewriteOptions`] flags.
    pub options: String,
}

impl PlanKey {
    /// Build the key for planning `stylesheet_src` against `view`,
    /// canonicalising the view's structure on the spot. On the lookup hot
    /// path prefer [`SharedPlanCache::view_canon`] +
    /// [`PlanKey::with_fingerprint`], which memoises the canonicalisation.
    pub fn new(view: &XmlView, stylesheet_src: &str, opts: &RewriteOptions) -> PlanKey {
        PlanKey::with_fingerprint(canonicalize_view(view).fingerprint, stylesheet_src, opts)
    }

    /// Build the key from an already-computed structure fingerprint.
    pub fn with_fingerprint(
        struct_fp: u64,
        stylesheet_src: &str,
        opts: &RewriteOptions,
    ) -> PlanKey {
        PlanKey {
            stylesheet: stylesheet_src.to_string(),
            struct_fp,
            options: format!("{opts:?}"),
        }
    }

    /// Content digest of the whole key (shard routing, reports).
    pub fn digest(&self) -> u64 {
        let mut h = fnv64(self.stylesheet.as_bytes());
        h ^= self.struct_fp.rotate_left(17);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
        h ^ fnv64(self.options.as_bytes())
    }
}

/// Heap bytes a cached entry holds: the key and the plan, counted the way
/// the allocator counts them (each allocation rounded up to its 16-byte
/// chunk, plus its header). The plan's trees are sized by proxy, per byte
/// of their text form; the coefficients are fitted to a counting
/// allocator over the 40 XSLTMark plans plus `dbonerow` and `dbtail`, at
/// which the sum comes within 1% of the allocator's total and every plan
/// within 0.75–1.3× of its own. Text alone (the key, the pretty-printed
/// XQuery and SQL) is ≈ 8× short of that.
pub fn plan_cost(key: &PlanKey, plan: &TransformPlan) -> usize {
    // Map slot, `Arc`, and the shells of the compiled stylesheet, rewrite
    // outcome and emission report.
    const FIXED: usize = 4_400;
    // The key's copy of the source (1) and the compiled stylesheet (≈ 9).
    const PER_SHEET_BYTE: usize = 10;
    // The rewritten XQuery AST.
    const PER_XQUERY_BYTE: usize = 7;
    // The slot-named SQL/XML publishing tree.
    const PER_SQL_BYTE: usize = 22;
    let xquery = plan
        .rewrite
        .as_ref()
        .map_or(0, |o| xsltdb_xquery::pretty_query(&o.query).len());
    let sql = plan.sql.as_ref().map_or(0, |q| xsltdb_relstore::sql_text(q).len());
    let fallback = plan.fallback_reason.as_ref().map_or(0, String::len);
    FIXED
        + PER_SHEET_BYTE * key.stylesheet.len()
        + key.options.len()
        + PER_XQUERY_BYTE * xquery
        + PER_SQL_BYTE * sql
        + fallback
        + plan.projection.heap_bytes()
}

struct Entry {
    plan: Arc<TransformPlan>,
    /// [`Catalog::generation`](xsltdb_relstore::Catalog::generation) at
    /// planning time — compared against the validity floor a lookup passes.
    planned_at: u64,
}

/// Default capacity, in [`plan_cost`] bytes: room for every stylesheet of
/// the XSLTMark suite (≈ 0.65 MB) or 65 `dbonerow` lookups (≈ 0.9 MB) with
/// slack for uneven shards, small enough that a stream of distinct
/// stylesheets evicts instead of growing the heap.
pub const DEFAULT_PLAN_CACHE_BYTES: usize = 2 * 1024 * 1024;

/// Default shard count for [`SharedPlanCache`]: enough stripes that eight
/// concurrent sessions rarely collide on a shard lock, few enough that the
/// per-shard byte budget stays meaningful at the default capacity.
pub const DEFAULT_PLAN_CACHE_SHARDS: usize = 8;

/// A thread-safe cache of prepared plans: the crate's striped LRU (each
/// shard a byte-bounded LRU behind its own mutex, routed by the key's
/// [content digest](PlanKey::digest), all charging one set of counters)
/// plus a canonicalisation memo. A one-shard cache
/// ([`with_shards(capacity, 1)`](Self::with_shards)) is the exclusive,
/// single-LRU cache.
///
/// * **Invalidation** — every entry records the global DDL clock at
///   planning time and a lookup whose floor exceeds that stamp drops it.
///   The check happens under the shard lock, so a stale plan is never
///   returned, no matter how lookups and DDL bumps interleave across
///   threads.
/// * **Miss races** — two threads missing on the same key both plan and
///   both insert (the second insert replaces the first). That wastes one
///   planning pass, never correctness: planning is deterministic, so both
///   plans are equivalent, and each caller gets a valid `Arc`.
///
/// See [`plan_cached_shared`](crate::pipeline::plan_cached_shared) for the
/// front door.
pub struct SharedPlanCache {
    lru: StripedLru<PlanKey, Entry>,
    /// View name → (the definition canonicalised, its canonicalisation),
    /// shared across shards: the fingerprint is needed *before* a key (and
    /// thus a shard) exists. See [`Self::view_canon`].
    canon: Mutex<HashMap<String, (XmlView, Arc<ViewCanon>)>>,
}

impl Default for SharedPlanCache {
    fn default() -> Self {
        SharedPlanCache::new(DEFAULT_PLAN_CACHE_BYTES)
    }
}

impl SharedPlanCache {
    /// A cache bounded at `capacity` [`plan_cost`] bytes, striped over
    /// [`DEFAULT_PLAN_CACHE_SHARDS`] shards.
    pub fn new(capacity: usize) -> SharedPlanCache {
        SharedPlanCache::with_shards(capacity, DEFAULT_PLAN_CACHE_SHARDS)
    }

    /// A cache bounded at `capacity` [`plan_cost`] bytes over exactly `shards`
    /// lock stripes (≥ 1). Each shard is budgeted `capacity / shards`
    /// bytes, so the global bound holds shard-locally.
    pub fn with_shards(capacity: usize, shards: usize) -> SharedPlanCache {
        SharedPlanCache {
            lru: StripedLru::new(capacity, shards),
            canon: Mutex::new(HashMap::new()),
        }
    }

    /// The requested global capacity. The enforced bound is the sum of the
    /// per-shard slices (`capacity / shards × shards`), which never exceeds
    /// this.
    pub fn capacity_bytes(&self) -> usize {
        self.lru.capacity_bytes()
    }

    /// [`plan_cost`] bytes currently pinned across all shards. Never
    /// exceeds [`capacity_bytes`](Self::capacity_bytes).
    pub fn bytes_in_use(&self) -> usize {
        self.lru.bytes_in_use()
    }

    pub fn entry_count(&self) -> usize {
        self.lru.entry_count()
    }

    /// Point-in-time copy of the shared hit/miss/eviction/invalidation
    /// counters. `hits + misses == lookups` holds in every snapshot even
    /// while other threads are charging (see
    /// [`CacheStats`](xsltdb_relstore::CacheStats)).
    pub fn stats(&self) -> CacheSnapshot {
        self.lru.stats()
    }

    /// Drop every entry and canonicalisation memo (counters are kept).
    pub fn clear(&self) {
        self.lru.clear();
        lock(&self.canon).clear();
    }

    /// `view`'s canonicalisation (family fingerprint + slot bindings),
    /// memoised per view name: a memo hit requires the stored definition
    /// to equal `view`, so a view re-registered under the same name — or a
    /// different view that merely shares the name — is canonicalised
    /// afresh rather than handed another definition's bindings.
    /// Canonicalisation reads only the view, so nothing else can stale it.
    /// The derivation (a full walk of the definition) runs outside the memo
    /// lock, so a cold entry never stalls other sessions' memo probes;
    /// concurrent cold calls for the same view derive twice and agree.
    pub fn view_canon(&self, view: &XmlView) -> Arc<ViewCanon> {
        if let Some((def, canon)) = lock(&self.canon).get(&view.name) {
            if def == view {
                return Arc::clone(canon);
            }
        }
        let canon = Arc::new(canonicalize_view(view));
        lock(&self.canon).insert(view.name.clone(), (view.clone(), Arc::clone(&canon)));
        canon
    }

    /// Look up a plan for `key` whose planning instant is at or after the
    /// validity floor `valid_at`, under the key's shard lock. Passing
    /// `catalog.generation()` demands a plan from the current instant (any
    /// DDL invalidates — the coarse protocol); passing
    /// `catalog.max_ddl_stamp(bound tables)` accepts any plan newer than
    /// the last DDL that could have affected it (the plan-aware protocol of
    /// [`plan_cached_shared`](crate::pipeline::plan_cached_shared)). Counts
    /// exactly one hit or one miss; a stale entry additionally counts an
    /// invalidation and is dropped before the lock is released, so no later
    /// lookup — on any thread — can observe it.
    pub fn lookup(&self, key: &PlanKey, valid_at: u64) -> Option<Arc<TransformPlan>> {
        self.lru.lookup(key, key.digest(), |e| {
            (e.planned_at >= valid_at).then(|| Arc::clone(&e.plan))
        })
    }

    /// Admit a freshly prepared plan, stamped with the global DDL clock
    /// value `planned_at` observed when planning ran, into its key's shard
    /// (evicting that shard's LRU entries to fit its byte slice). A plan
    /// that alone exceeds the slice is not admitted (the caller still gets
    /// its `Arc`, it just will not be shared).
    pub fn insert(&self, key: PlanKey, plan: Arc<TransformPlan>, planned_at: u64) {
        let cost = plan_cost(&key, &plan);
        let digest = key.digest();
        self.lru.insert(key, digest, Entry { plan, planned_at }, cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{plan_transform, Tier};
    use xsltdb_relstore::exec::Conjunction;
    use xsltdb_relstore::pubexpr::{PubExpr, SqlXmlQuery};
    use xsltdb_relstore::{Catalog, ColType, Datum, Table};

    fn view_over(name: &str, table: &str, tag: &str) -> XmlView {
        XmlView::new(
            name,
            SqlXmlQuery {
                base_table: table.into(),
                where_clause: Conjunction::default(),
                order_by: Vec::new(),
                select: PubExpr::elem(
                    tag,
                    vec![PubExpr::elem("v", vec![PubExpr::col(table, "v")])],
                ),
            },
        )
    }

    fn setup() -> (Catalog, XmlView) {
        let mut t = Table::new("t", &[("v", ColType::Int)]);
        t.insert(vec![Datum::Int(7)]).unwrap();
        let mut catalog = Catalog::new();
        catalog.add_table(t);
        let view = view_over("vu", "t", "r");
        catalog.add_view(view.clone());
        (catalog, view)
    }

    /// The exclusive cache: one LRU, one lock.
    fn exclusive(capacity: usize) -> SharedPlanCache {
        SharedPlanCache::with_shards(capacity, 1)
    }

    fn sheet(body: &str) -> String {
        format!(
            r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">{body}</xsl:stylesheet>"#
        )
    }

    fn plan(view: &XmlView, src: &str) -> Arc<TransformPlan> {
        Arc::new(plan_transform(view, src, &RewriteOptions::default()).unwrap())
    }

    #[test]
    fn fnv64_is_stable_and_spreads() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }

    #[test]
    fn key_separates_all_three_components() {
        let (_c, view) = setup();
        let opts = RewriteOptions::default();
        let s1 = sheet(r#"<xsl:template match="r"><a/></xsl:template>"#);
        let s2 = sheet(r#"<xsl:template match="r"><b/></xsl:template>"#);
        let k1 = PlanKey::new(&view, &s1, &opts);
        assert_ne!(k1, PlanKey::new(&view, &s2, &opts));
        let no_inline = RewriteOptions { inline: false, ..RewriteOptions::default() };
        assert_ne!(k1, PlanKey::new(&view, &s1, &no_inline));
        // Same triple, same key and digest.
        let again = PlanKey::new(&view, &s1, &opts);
        assert_eq!(k1, again);
        assert_eq!(k1.digest(), again.digest());
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let (catalog, view) = setup();
        let cache = exclusive(DEFAULT_PLAN_CACHE_BYTES);
        let src = sheet(r#"<xsl:template match="r"><o><xsl:value-of select="v"/></o></xsl:template>"#);
        let key = PlanKey::new(&view, &src, &RewriteOptions::default());
        assert!(cache.lookup(&key, catalog.generation()).is_none());
        cache.insert(key.clone(), plan(&view, &src), catalog.generation());
        let hit = cache.lookup(&key, catalog.generation()).expect("hit");
        assert_eq!(hit.tier, Tier::Sql);
        let snap = cache.stats();
        assert_eq!((snap.hits, snap.misses), (1, 1));
        assert_eq!(snap.lookups(), 2);
    }

    #[test]
    fn stale_generation_invalidates_on_lookup() {
        let (mut catalog, view) = setup();
        let cache = exclusive(DEFAULT_PLAN_CACHE_BYTES);
        let src = sheet(r#"<xsl:template match="r"><o/></xsl:template>"#);
        let key = PlanKey::new(&view, &src, &RewriteOptions::default());
        cache.insert(key.clone(), plan(&view, &src), catalog.generation());
        catalog.create_index("t", "v").unwrap();
        assert!(cache.lookup(&key, catalog.generation()).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.entry_count(), 0, "stale entry is dropped eagerly");
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        let (catalog, view) = setup();
        let srcs: Vec<String> = (0..4)
            .map(|i| sheet(&format!(r#"<xsl:template match="r"><o{i}/></xsl:template>"#)))
            .collect();
        let keys: Vec<PlanKey> =
            srcs.iter().map(|s| PlanKey::new(&view, s, &RewriteOptions::default())).collect();
        let one = plan_cost(&keys[0], &plan(&view, &srcs[0]));
        // Room for roughly two entries.
        let cache = exclusive(one * 2 + one / 2);
        for (k, s) in keys.iter().zip(&srcs).take(3) {
            cache.insert(k.clone(), plan(&view, s), catalog.generation());
            assert!(cache.bytes_in_use() <= cache.capacity_bytes());
        }
        assert_eq!(cache.stats().evictions, 1);
        // keys[0] was least recently used and is gone; keys[2] survives.
        assert!(cache.lookup(&keys[2], catalog.generation()).is_some());
        assert!(cache.lookup(&keys[0], catalog.generation()).is_none());
        // Touch keys[1] so keys[2] becomes the LRU victim of the next insert.
        assert!(cache.lookup(&keys[1], catalog.generation()).is_some());
        cache.insert(keys[3].clone(), plan(&view, &srcs[3]), catalog.generation());
        assert!(cache.lookup(&keys[1], catalog.generation()).is_some());
        assert!(cache.lookup(&keys[2], catalog.generation()).is_none());
    }

    #[test]
    fn oversized_plan_is_not_admitted() {
        let (catalog, view) = setup();
        let src = sheet(r#"<xsl:template match="r"><o/></xsl:template>"#);
        let key = PlanKey::new(&view, &src, &RewriteOptions::default());
        let cache = exclusive(16);
        cache.insert(key.clone(), plan(&view, &src), catalog.generation());
        assert_eq!(cache.entry_count(), 0);
        assert_eq!(cache.bytes_in_use(), 0);
        assert_eq!(cache.stats().uncacheable, 1);
    }

    #[test]
    fn reinserting_a_key_keeps_one_entry_and_one_cost() {
        let (catalog, view) = setup();
        let src = sheet(r#"<xsl:template match="r"><o/></xsl:template>"#);
        let key = PlanKey::new(&view, &src, &RewriteOptions::default());
        let cache = exclusive(DEFAULT_PLAN_CACHE_BYTES);
        let p = plan(&view, &src);
        cache.insert(key.clone(), Arc::clone(&p), catalog.generation());
        cache.insert(key.clone(), Arc::clone(&p), catalog.generation());
        assert_eq!(cache.entry_count(), 1);
        assert_eq!(cache.bytes_in_use(), plan_cost(&key, &p));
    }

    #[test]
    fn view_canon_memo_keys_on_the_definition() {
        let (mut catalog, view) = setup();
        let cache = SharedPlanCache::default();
        let first = cache.view_canon(&view);
        let key = PlanKey::new(&view, "x", &RewriteOptions::default());
        assert_eq!(first.fingerprint, key.struct_fp);
        assert!(Arc::ptr_eq(&cache.view_canon(&view), &first), "memo hit is stable");
        // A view replaced under the same name re-canonicalises rather than
        // serving the memo.
        let replaced = view_over("vu", "t", "other");
        catalog.add_view(replaced.clone());
        assert_ne!(cache.view_canon(&replaced).fingerprint, first.fingerprint);
        // Same name, same shape, another table — neither registered: the
        // shapes share a fingerprint but each keeps its own binding.
        let over_a = view_over("v", "a", "r");
        let over_b = view_over("v", "b", "r");
        let (ca, cb) = (cache.view_canon(&over_a), cache.view_canon(&over_b));
        assert_eq!(ca.fingerprint, cb.fingerprint);
        assert_eq!(ca.bindings.get("$t0"), Some("a"));
        assert_eq!(cb.bindings.get("$t0"), Some("b"));
    }

    #[test]
    fn clear_keeps_counters() {
        let (catalog, view) = setup();
        let src = sheet(r#"<xsl:template match="r"><o/></xsl:template>"#);
        let key = PlanKey::new(&view, &src, &RewriteOptions::default());
        let cache = exclusive(DEFAULT_PLAN_CACHE_BYTES);
        cache.insert(key.clone(), plan(&view, &src), catalog.generation());
        assert!(cache.lookup(&key, catalog.generation()).is_some());
        cache.clear();
        assert_eq!(cache.entry_count(), 0);
        assert_eq!(cache.bytes_in_use(), 0);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn shared_cache_round_trips_and_counts() {
        let (catalog, view) = setup();
        let cache = SharedPlanCache::default();
        assert_eq!(cache.lru.shard_count(), DEFAULT_PLAN_CACHE_SHARDS);
        let src = sheet(r#"<xsl:template match="r"><o/></xsl:template>"#);
        let key = PlanKey::new(&view, &src, &RewriteOptions::default());
        assert!(cache.lookup(&key, catalog.generation()).is_none());
        cache.insert(key.clone(), plan(&view, &src), catalog.generation());
        let hit = cache.lookup(&key, catalog.generation()).expect("hit");
        assert_eq!(hit.tier, Tier::Sql);
        let snap = cache.stats();
        assert_eq!((snap.hits, snap.misses), (1, 1));
    }

    #[test]
    fn shared_cache_invalidates_stale_generations() {
        let (mut catalog, view) = setup();
        let cache = SharedPlanCache::default();
        let src = sheet(r#"<xsl:template match="r"><n/></xsl:template>"#);
        let key = PlanKey::new(&view, &src, &RewriteOptions::default());
        cache.insert(key.clone(), plan(&view, &src), catalog.generation());
        catalog.create_index("t", "v").unwrap();
        assert!(cache.lookup(&key, catalog.generation()).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.entry_count(), 0);
    }

    #[test]
    fn shared_cache_apportions_budget_per_shard() {
        let (catalog, view) = setup();
        let srcs: Vec<String> = (0..16)
            .map(|i| sheet(&format!(r#"<xsl:template match="r"><o{i}/></xsl:template>"#)))
            .collect();
        let keys: Vec<PlanKey> =
            srcs.iter().map(|s| PlanKey::new(&view, s, &RewriteOptions::default())).collect();
        let one = plan_cost(&keys[0], &plan(&view, &srcs[0]));
        // Four shards of ~one entry each: inserts must stay under the
        // global budget whichever shards the digests land on.
        let cache = SharedPlanCache::with_shards(one * 4 + one / 2, 4);
        for (k, s) in keys.iter().zip(&srcs) {
            cache.insert(k.clone(), plan(&view, s), catalog.generation());
            assert!(cache.bytes_in_use() <= cache.capacity_bytes());
        }
        assert!(cache.entry_count() <= 4);
        assert!(cache.stats().evictions + cache.stats().uncacheable > 0);
    }

    #[test]
    fn shared_cache_serves_threads_concurrently() {
        let (catalog, view) = setup();
        let cache = std::sync::Arc::new(SharedPlanCache::default());
        let srcs: Vec<String> = (0..4)
            .map(|i| sheet(&format!(r#"<xsl:template match="r"><t{i}/></xsl:template>"#)))
            .collect();
        let generation = catalog.generation();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                let view = view.clone();
                let srcs = srcs.clone();
                std::thread::spawn(move || {
                    for round in 0..20 {
                        let src = &srcs[(t + round) % srcs.len()];
                        let key = PlanKey::new(&view, src, &RewriteOptions::default());
                        match cache.lookup(&key, generation) {
                            Some(p) => assert_eq!(p.tier, Tier::Sql),
                            None => cache.insert(key, plan(&view, src), generation),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("no thread panics");
        }
        let snap = cache.stats();
        assert_eq!(snap.lookups(), 80);
        assert_eq!(cache.entry_count(), srcs.len());
        // Worst case every thread races the cold miss on every key: 4×4
        // misses. Any more means a hit was lost or an entry was dropped.
        assert!(snap.hits >= 64, "only {} hits in 80 lookups", snap.hits);
    }
}
