//! Invalidation report: warm transform-result-cache hits versus fresh
//! execution, across the XSLTMark suite through the front door.
//!
//! Informational: the numbers depend on the host, so nothing here gates.
//! The warm-hit cost is also the benchmark's `core.resultcache_hit_us`;
//! exact eviction targeting under DML/DDL is a test
//! (`result_cache_churn::mutations_evict_exactly_the_read_set_affected_entries`).
//!
//! `--smoke` shrinks the run (CI bit-rot check); `--json` also writes
//! `BENCH_invalidate.json`.

use std::time::Instant;
use xsltdb::xqgen::RewriteOptions;
use xsltdb_bench::{write_bench_json, CHAOS_STACK};
use xsltdb_serve::{FrontDoor, FrontDoorConfig};
use xsltdb_xsltmark::{all_cases, db_catalog};

fn median(mut v: Vec<u64>) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    v[v.len() / 2]
}

struct LatencyPoint {
    cases: usize,
    uncached_p50_us: u64,
    warm_hit_p50_us: u64,
    ratio: f64,
}

/// Median uncached vs. warm-hit latency over the suite, both through the
/// same front-door serving path.
fn latency_point(smoke: bool) -> LatencyPoint {
    // The full case mix even in smoke: the suite's cheap prefix alone
    // pushes the uncached median down to the hit path's fixed overhead
    // and the ratio loses its meaning. Smoke shrinks repetitions and
    // data, not coverage.
    let (catalog, view) = db_catalog(if smoke { 32 } else { 48 }, 7);
    let cases = all_cases();
    let take = cases.len();
    let reps = if smoke { 2 } else { 5 };
    let opts = RewriteOptions::default();

    let mut uncached_cfg = FrontDoorConfig::server_default();
    uncached_cfg.result_cache_bytes = 0;
    let uncached_door = FrontDoor::new(uncached_cfg);
    let cached_door = FrontDoor::new(FrontDoorConfig::server_default());

    let mut uncached = Vec::with_capacity(take * reps);
    let mut warm = Vec::with_capacity(take * reps);
    for case in cases.iter().take(take) {
        // Prime both paths: plan cache for the uncached door, plan +
        // result caches for the cached one.
        uncached_door
            .transform(&catalog, &view, &case.stylesheet, &opts)
            .unwrap_or_else(|e| panic!("{}: uncached prime failed: {e}", case.name));
        cached_door
            .transform(&catalog, &view, &case.stylesheet, &opts)
            .unwrap_or_else(|e| panic!("{}: cached prime failed: {e}", case.name));
        for _ in 0..reps {
            let t0 = Instant::now();
            uncached_door
                .transform(&catalog, &view, &case.stylesheet, &opts)
                .unwrap_or_else(|e| panic!("{}: uncached run failed: {e}", case.name));
            uncached.push(t0.elapsed().as_micros() as u64);

            let t1 = Instant::now();
            let out = cached_door
                .transform(&catalog, &view, &case.stylesheet, &opts)
                .unwrap_or_else(|e| panic!("{}: warm run failed: {e}", case.name));
            warm.push(t1.elapsed().as_micros() as u64);
            assert!(out.cached, "{}: warm request missed the result cache", case.name);
        }
    }

    let uncached_p50_us = median(uncached);
    let warm_hit_p50_us = median(warm);
    let ratio = if uncached_p50_us == 0 {
        f64::NAN
    } else {
        warm_hit_p50_us as f64 / uncached_p50_us as f64
    };
    LatencyPoint {
        cases: take,
        uncached_p50_us,
        warm_hit_p50_us,
        ratio,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json = std::env::args().any(|a| a == "--json");

    // Suite cases recurse; run the whole report on a big stack.
    let latency = std::thread::Builder::new()
        .stack_size(CHAOS_STACK)
        .spawn(move || latency_point(smoke))
        .expect("spawn report thread")
        .join()
        .expect("report thread panicked");

    println!("Transform-result cache — warm hits vs fresh execution");
    println!();
    println!(
        "latency over {} cases: uncached p50 {} µs, warm hit p50 {} µs, ratio {:.3}",
        latency.cases, latency.uncached_p50_us, latency.warm_hit_p50_us, latency.ratio,
    );

    if json {
        let body = format!(
            "{{\n  \"bench\": \"invalidate\",\n  \"smoke\": {smoke},\n  \"latency\": {{\"cases\": {}, \"uncached_p50_us\": {}, \"warm_hit_p50_us\": {}, \"ratio\": {:.4}}}\n}}\n",
            latency.cases, latency.uncached_p50_us, latency.warm_hit_p50_us, latency.ratio,
        );
        write_bench_json("BENCH_invalidate.json", &body);
    }
}
