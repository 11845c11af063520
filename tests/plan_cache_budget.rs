//! The plan-cache budget is a memory bound: a stream of never-repeated
//! stylesheets through `SharedPlanCache::default()` holds about as much
//! heap as the cache says it holds, and grows the resident set by a small
//! multiple of `DEFAULT_PLAN_CACHE_BYTES` — not by whatever the evicting
//! cache fails to count.
//!
//! One test in a binary of its own: both measurements are process-wide,
//! so nothing else may allocate beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use xsltdb::pipeline::plan_cached_shared;
use xsltdb::plancache::{SharedPlanCache, DEFAULT_PLAN_CACHE_BYTES};
use xsltdb::xqgen::RewriteOptions;
use xsltdb_xsltmark::{all_cases, db_catalog};

/// The system allocator, keeping a count of live requested bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Resident set size from procfs; `None` where there is none.
fn vm_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn unique_stylesheets_stay_within_the_default_budget() {
    const PLANS: usize = 2_400;
    // Planning the recursion-shaped suite cases wants a deep stack.
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(|| {
            let (catalog, view) = db_catalog(64, 1);
            let cases = all_cases();
            let opts = RewriteOptions::default();
            let plan = |cache: &SharedPlanCache, n: usize| {
                let src = format!("{}<!--{n}-->", cases[n % cases.len()].stylesheet);
                plan_cached_shared(cache, &catalog, &view, &src, &opts).expect("plans");
            };
            // One pass over the suite through a throwaway cache first, so
            // the baseline is taken with the allocator warm.
            let warm = SharedPlanCache::default();
            (0..cases.len()).for_each(|n| plan(&warm, n));
            drop(warm);
            let (heap_before, rss_before) = (LIVE.load(Ordering::Relaxed), vm_rss_bytes());

            let cache = SharedPlanCache::default();
            (0..PLANS).for_each(|n| plan(&cache, n));

            let held = cache.bytes_in_use();
            let heap = LIVE.load(Ordering::Relaxed).saturating_sub(heap_before);
            let stats = cache.stats();
            assert_eq!(stats.misses as usize, PLANS, "every text is new");
            assert!(stats.evictions > 0, "{PLANS} plans fit the default budget");
            assert_eq!(stats.uncacheable, 0);
            // The cache's own count is the heap it pins, give or take the
            // per-plan spread of `plan_cost` (0.75–1.3× over the suite).
            assert!(
                heap * 2 >= held && heap <= held * 3 / 2,
                "cache counts {held} bytes, holds {heap} bytes of heap"
            );
            if let (Some(before), Some(after)) = (rss_before, vm_rss_bytes()) {
                let growth = after.saturating_sub(before);
                assert!(
                    growth <= 3 * DEFAULT_PLAN_CACHE_BYTES,
                    "resident set grew {growth} bytes under a {DEFAULT_PLAN_CACHE_BYTES}-byte budget"
                );
            }
        })
        .expect("spawn")
        .join()
        .expect("budget thread panicked");
}
