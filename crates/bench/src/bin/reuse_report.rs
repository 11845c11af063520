//! Cross-view plan-reuse report: what canonical plan keys buy when many
//! same-shaped documents share one cache.
//!
//! M identically-shaped db views (each over its own tables, with its own
//! data) run all forty XSLTMark stylesheets through **one**
//! [`SharedPlanCache`]. Because prepared plans are keyed on the canonical
//! structure — table identity replaced by binding slots — the whole family
//! is served from one entry per stylesheet: plans-built stays at the
//! number of distinct (stylesheet × shape) pairs while views-served grows
//! with M. Every cached call's output is asserted byte-identical to a
//! freshly planned, uncached run over the same view.
//!
//! Exits non-zero if plans-built exceeds the number of distinct shapes ×
//! stylesheets — the regression CI guards against.
//!
//! Flags:
//! * `--smoke` — one tiny iteration of everything (CI bit-rot check);
//! * `--json`  — also write `BENCH_reuse.json`, the machine-readable
//!   perf-trajectory artefact.

use std::time::Instant;
use xsltdb::pipeline::{plan_bound, plan_cached_shared};
use xsltdb::plancache::SharedPlanCache;
use xsltdb::Guard;
use xsltdb::xqgen::RewriteOptions;
use xsltdb_bench::write_bench_json;
use xsltdb_relstore::ExecStats;
use xsltdb_xsltmark::{all_cases, db_catalog_family};

/// Recursive suite cases need more stack than the default main thread gets
/// in some environments; run the whole report body on a roomy one.
fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("report thread panicked")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json = std::env::args().any(|a| a == "--json");
    let code = on_big_stack(move || run(smoke, json));
    std::process::exit(code);
}

fn run(smoke: bool, json: bool) -> i32 {
    // Row counts stay under the recursion ceilings of the per-row
    // recursive suite cases (`backwards` burns one XQuery frame per row,
    // limit 96) so every case *executes* on every tier, not just plans.
    let (views, rows) = if smoke { (3usize, 40usize) } else { (8, 60) };
    let (catalog, family) = db_catalog_family(views, rows, 0xBEE5);
    let cases = all_cases();
    let sheets = cases.len();
    let opts = RewriteOptions::default();

    println!("Cross-view plan reuse — {views} same-shaped views × {sheets} stylesheets");
    println!("(db@{rows} rows per view; one SharedPlanCache; canonical plan keys)");
    println!();

    // Uncached pass: every (stylesheet, view) pair pays the full planning
    // pipeline. Outputs are kept as the differential expectation.
    let t0 = Instant::now();
    let mut expected: Vec<Vec<Vec<u8>>> = Vec::with_capacity(sheets);
    for case in &cases {
        let mut per_view = Vec::with_capacity(views);
        for view in &family {
            let bound = plan_bound(&catalog, view, &case.stylesheet, &opts)
                .unwrap_or_else(|e| panic!("{}: planning fails: {e}", case.name));
            let mut out = Vec::new();
            bound
                .execute_to_writer(&catalog, &ExecStats::new(), &Guard::unlimited(), &mut out)
                .unwrap_or_else(|e| panic!("{}: uncached run fails: {e}", case.name));
            per_view.push(out);
        }
        expected.push(per_view);
    }
    let uncached_s = t0.elapsed().as_secs_f64();

    // Cached pass: one shared cache serves the whole family; each call
    // rebinds the canonical plan to its view and must reproduce the
    // uncached bytes exactly.
    let cache = SharedPlanCache::default();
    let t1 = Instant::now();
    for (ci, case) in cases.iter().enumerate() {
        for (vi, view) in family.iter().enumerate() {
            let bound = plan_cached_shared(&cache, &catalog, view, &case.stylesheet, &opts)
                .unwrap_or_else(|e| panic!("{}: cached planning fails: {e}", case.name));
            let mut got = Vec::new();
            bound
                .execute_to_writer(&catalog, &ExecStats::new(), &Guard::unlimited(), &mut got)
                .unwrap_or_else(|e| panic!("{}: cached run fails: {e}", case.name));
            assert_eq!(
                got, expected[ci][vi],
                "{}: cached output for view {} diverged from the fresh plan",
                case.name, view.name
            );
        }
    }
    let cached_s = t1.elapsed().as_secs_f64();

    let snap = cache.stats();
    let calls = (sheets * views) as f64;
    let uncached_us = uncached_s * 1e6 / calls;
    let cached_us = cached_s * 1e6 / calls;
    let speedup = uncached_us / cached_us.max(1e-9);
    // One shape: the family canonicalises identically, so the budget of
    // prepared plans is one per stylesheet.
    let distinct = sheets as u64;

    println!("{:>16} | {:>12}", "metric", "value");
    println!("{}", "-".repeat(32));
    println!("{:>16} | {:>12}", "views served", snap.lookups());
    println!("{:>16} | {:>12}", "plans built", snap.misses);
    println!("{:>16} | {:>12}", "plan budget", distinct);
    println!("{:>16} | {:>12.1}", "uncached µs/call", uncached_us);
    println!("{:>16} | {:>12.1}", "cached µs/call", cached_us);
    println!("{:>16} | {:>11.2}x", "warm speedup", speedup);
    println!();
    println!("differential: every cached call matched its fresh per-view plan");

    let reuse_ok = snap.misses <= distinct;
    println!(
        "Shape check [{}]: {} plans built for {} (stylesheet × shape) pairs over {} calls.",
        if reuse_ok { "OK" } else { "REGRESSION" },
        snap.misses,
        distinct,
        snap.lookups()
    );

    if json {
        let body = format!(
            "{{\n  \"bench\": \"reuse\",\n  \"views\": {views},\n  \"rows\": {rows},\n  \"sheets\": {sheets},\n  \"smoke\": {smoke},\n  \"plans_built\": {},\n  \"plan_budget\": {distinct},\n  \"views_served\": {},\n  \"uncached_us_per_call\": {uncached_us:.1},\n  \"cached_us_per_call\": {cached_us:.1},\n  \"warm_speedup\": {speedup:.3},\n  \"cache\": {{\"hits\": {}, \"misses\": {}, \"lookups\": {}, \"hit_rate\": {:.4}}},\n  \"identical_output\": true\n}}\n",
            snap.misses,
            snap.lookups(),
            snap.hits,
            snap.misses,
            snap.lookups(),
            snap.hit_rate()
        );
        write_bench_json("BENCH_reuse.json", &body);
    }

    if reuse_ok {
        0
    } else {
        eprintln!(
            "error: {} plans built exceeds the {} distinct (stylesheet × shape) pairs",
            snap.misses, distinct
        );
        1
    }
}
