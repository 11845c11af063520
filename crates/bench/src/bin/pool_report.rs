//! Buffer-pool report: the paged catalog scaled far beyond its frame
//! budget, gated on residency, identity and probe cost.
//!
//! `dbtail` (project every row) runs over a disk-backed catalog at row
//! counts growing 100× while the buffer pool keeps a **fixed** frame
//! budget. Four verdicts, all CI-gated (exit 1 on failure):
//!
//! * **Bounded residency** — peak resident pool frames never exceed the
//!   budget at any scale: the working set is the pool, not the table.
//! * **Byte identity** — the streamed output of every paged run is
//!   byte-identical to the same plan over a `Storage::Mem` catalog.
//! * **Real eviction** — at the largest scale the pool records evictions
//!   and dirty write-backs: the data demonstrably did not fit.
//! * **Probe cost** — a `dbonerow` point lookup touches at most
//!   [`PROBE_PAGE_CAP`] pool pages at *every* scale: O(page reads) via
//!   the paged B-tree, not O(rows).
//!
//! `--smoke` shrinks the rows (CI bit-rot check) but keeps the budget
//! small enough that eviction still happens; `--json` also writes
//! `BENCH_pool.json`.

use std::time::Instant;
use xsltdb::pipeline::{plan_bound, BoundPlan, Tier};
use xsltdb::xqgen::RewriteOptions;
use xsltdb::Guard;
use xsltdb_bench::write_bench_json;
use xsltdb_relstore::{fnv64, Catalog, ExecStats, PoolSnapshot, XmlView, PAGE_SIZE};
use xsltdb_xsltmark::{
    db_catalog_paged, db_catalog_unindexed, dbonerow_stylesheet, existing_id,
};

/// Pool pages a point lookup may touch: root-to-leaf descent plus the one
/// heap page plus the anchor scan, with slack for a duplicate-spanning
/// leaf step — far below the thousands of heap pages a scan would read.
const PROBE_PAGE_CAP: u64 = 16;

/// XSLTMark's `dbtail` shape: project every row, so the output — and an
/// unpaged working set — grows linearly with the data.
fn dbtail_stylesheet() -> String {
    r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
       <xsl:template match="table">
         <out><xsl:apply-templates select="row"/></out>
       </xsl:template>
       <xsl:template match="row">
         <r><xsl:value-of select="lastname"/>, <xsl:value-of select="firstname"/></r>
       </xsl:template>
       </xsl:stylesheet>"#
        .to_string()
}

fn plan(catalog: &Catalog, view: &XmlView, stylesheet: &str) -> BoundPlan {
    plan_bound(catalog, view, stylesheet, &RewriteOptions::default())
        .unwrap_or_else(|e| panic!("planning failed: {e}"))
}

fn stream(bound: &BoundPlan, catalog: &Catalog) -> Vec<u8> {
    let mut out = Vec::new();
    bound
        .execute_to_writer(catalog, &ExecStats::new(), &Guard::unlimited(), &mut out)
        .unwrap_or_else(|e| panic!("execution failed: {e}"));
    out
}

struct ScalePoint {
    rows: usize,
    dbtail_bytes: u64,
    dbtail_fnv64: u64,
    dbtail_us: u64,
    identical: bool,
    pool: PoolSnapshot,
    peak_frames: u64,
    probe_pages: u64,
    probe_identical: bool,
    probe_is_sql: bool,
}

/// One scale point: build the paged catalog and its in-memory reference at
/// `rows`, stream `dbtail` over both, then probe `dbonerow` and count the
/// pool pages the point lookup touched.
fn run_scale(rows: usize, frames: usize, seed: u64) -> ScalePoint {
    let (paged, paged_view) = db_catalog_paged(rows, seed, frames);
    // The reference side skips the B-tree side tables: they do not change
    // the bytes, and at the largest scale they would dominate the memory
    // bill of a run whose point is that the *paged* side stays bounded.
    let (mem, mem_view) = db_catalog_unindexed(rows, seed);

    let tail = dbtail_stylesheet();
    let paged_tail = plan(&paged, &paged_view, &tail);
    let mem_tail = plan(&mem, &mem_view, &tail);

    let before = paged.pool_stats().expect("paged catalog has a pool");
    let t0 = Instant::now();
    let paged_out = stream(&paged_tail, &paged);
    let dbtail_us = t0.elapsed().as_micros() as u64;
    let after = paged.pool_stats().expect("paged catalog has a pool");
    let mem_out = stream(&mem_tail, &mem);

    let onerow = dbonerow_stylesheet(existing_id(rows));
    let paged_probe = plan(&paged, &paged_view, &onerow);
    let probe_is_sql = paged_probe.tier() == Tier::Sql;
    let p0 = paged.pool_stats().expect("paged catalog has a pool");
    let probe_out = stream(&paged_probe, &paged);
    let p1 = paged.pool_stats().expect("paged catalog has a pool");
    let probe_delta = p1.delta_since(&p0);
    let mem_probe_out = stream(&plan(&mem, &mem_view, &onerow), &mem);

    ScalePoint {
        rows,
        dbtail_bytes: paged_out.len() as u64,
        dbtail_fnv64: fnv64(&paged_out),
        dbtail_us,
        identical: paged_out == mem_out,
        pool: after.delta_since(&before),
        peak_frames: after.peak_resident_frames,
        probe_pages: probe_delta.page_reads + probe_delta.pool_hits,
        probe_identical: probe_out == mem_probe_out,
        probe_is_sql,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json = std::env::args().any(|a| a == "--json");
    // One fixed frame budget across every scale: the rows grow 100×, the
    // pool does not.
    let (frames, sizes): (usize, &[usize]) = if smoke {
        (16, &[500, 2_000])
    } else {
        (256, &[10_000, 100_000, 1_000_000])
    };
    let budget_bytes = frames * PAGE_SIZE;

    println!("Buffer pool — dbtail scaled 100× under a fixed {frames}-frame budget ({budget_bytes} B)");
    println!();
    println!(
        "{:>9} | {:>10} | {:>10} | {:>9} | {:>9} | {:>9} | {:>11} | {:>6} | {:>6}",
        "rows", "out bytes", "reads", "hits", "evict", "wrback", "peak/budget", "probe", "ident"
    );
    println!("{}", "-".repeat(102));

    let points: Vec<ScalePoint> =
        sizes.iter().map(|&rows| run_scale(rows, frames, 0xDB)).collect();

    let mut residency_ok = true;
    let mut identity_ok = true;
    let mut probe_ok = true;
    for p in &points {
        residency_ok &= p.peak_frames <= frames as u64;
        identity_ok &= p.identical && p.probe_identical;
        probe_ok &= p.probe_is_sql && p.probe_pages <= PROBE_PAGE_CAP;
        println!(
            "{:>9} | {:>10} | {:>10} | {:>9} | {:>9} | {:>9} | {:>5}/{:<5} | {:>6} | {:>6}",
            p.rows,
            p.dbtail_bytes,
            p.pool.page_reads,
            p.pool.pool_hits,
            p.pool.evictions,
            p.pool.dirty_writebacks,
            p.peak_frames,
            frames,
            p.probe_pages,
            p.identical && p.probe_identical,
        );
    }
    let eviction_ok = points.last().is_some_and(|p| p.pool.evictions > 0);

    let ok = residency_ok && identity_ok && probe_ok && eviction_ok;
    println!();
    println!("Expected shape: peak resident frames stay within the fixed budget while");
    println!("the rows grow 100×, every paged output is byte-identical to the Mem");
    println!("execution, the largest scale demonstrably evicts, and a dbonerow point");
    println!("lookup touches ≤ {PROBE_PAGE_CAP} pool pages at every scale (O(page reads), not O(rows)).");
    println!(
        "Shape check [{}]: residency {residency_ok}, identity {identity_ok}, \
         eviction-at-max {eviction_ok}, probe {probe_ok}.",
        if ok { "OK" } else { "REGRESSION" },
    );

    if json {
        let rows_json: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    r#"{{"rows":{},"dbtail_bytes":{},"dbtail_fnv64":"{:016x}","dbtail_us":{},"page_reads":{},"pool_hits":{},"evictions":{},"dirty_writebacks":{},"peak_resident_frames":{},"probe_pages":{},"identical":{}}}"#,
                    p.rows,
                    p.dbtail_bytes,
                    p.dbtail_fnv64,
                    p.dbtail_us,
                    p.pool.page_reads,
                    p.pool.pool_hits,
                    p.pool.evictions,
                    p.pool.dirty_writebacks,
                    p.peak_frames,
                    p.probe_pages,
                    p.identical && p.probe_identical,
                )
            })
            .collect();
        let body = format!(
            "{{\n  \"bench\": \"pool\",\n  \"smoke\": {smoke},\n  \"frame_budget\": {frames},\n  \"budget_bytes\": {budget_bytes},\n  \"page_size\": {PAGE_SIZE},\n  \"probe_page_cap\": {PROBE_PAGE_CAP},\n  \"scales\": [\n    {}\n  ],\n  \"holds\": {ok}\n}}\n",
            rows_json.join(",\n    "),
        );
        write_bench_json("BENCH_pool.json", &body);
    }

    if !ok {
        std::process::exit(1);
    }
}
