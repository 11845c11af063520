//! The parent side: one child process per pass, so nothing one pass
//! allocates can reach another's `VmHWM`.
//!
//! For each (workload, seed) the driver first runs a short-lived oracle
//! child for the reference digests, then the measured or the traced
//! child, which gets the digests on its standard input and answers with
//! one JSON line. `run` does this for all six workloads and writes one
//! result file; `compare` holds two such files against the bounds in
//! `BENCHMARK.json`.

use crate::json::Json;
use crate::stats::{median, quartile_spread};
use crate::workload::{self, Spec};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Everything the benchmark writes lands here, relative to the directory
/// it is started from (the root of the checkout).
pub const OUT_DIR: &str = "benchmark/out";
const MANIFEST: &str = "BENCHMARK.json";

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one child of this executable and return its standard output.
fn child(args: &[String], stdin: Option<&str>) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // The paged catalog puts its heap files in the temp directory; keep
    // them inside the checkout like everything else the benchmark writes.
    let tmp = std::env::current_dir()
        .map_err(|e| format!("cwd: {e}"))?
        .join(OUT_DIR)
        .join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let mut proc = Command::new(exe)
        .args(args)
        .env("TMPDIR", &tmp)
        .stdin(if stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", args[0]))?;
    if let (Some(text), Some(mut pipe)) = (stdin, proc.stdin.take()) {
        // A child that died early closes the pipe; its exit status below
        // is the better error.
        let _ = pipe.write_all(text.as_bytes());
    }
    let out = proc
        .wait_with_output()
        .map_err(|e| format!("wait for {}: {e}", args[0]))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", args[0], out.status));
    }
    String::from_utf8(out.stdout).map_err(|_| format!("{} wrote non-UTF-8 output", args[0]))
}

/// One pass over one workload: the oracle child, then the measured
/// (`trace == false`) or traced child. Returns the child's detail object.
pub fn run_pass(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    if spec.clients.len() > nproc() {
        // More closed-loop clients than cores measures the scheduler; a
        // row from such a run would mislead, so there is none.
        return Err(format!(
            "{} drives {} client connections but this machine has {} core(s); refusing to measure",
            spec.name,
            spec.clients.len(),
            nproc()
        ));
    }
    let common = |cmd: &str| {
        vec![
            cmd.to_string(),
            spec.name.to_string(),
            seed.to_string(),
            seconds.to_string(),
        ]
    };
    let digests = child(&common("child-oracle"), None)?;
    let out = child(
        &common(if trace {
            "child-trace"
        } else {
            "child-measure"
        }),
        Some(&digests),
    )?;
    let last = out.lines().last().ok_or("child printed nothing")?;
    Json::parse(last).map_err(|e| format!("child output: {e}"))
}

fn count(detail: &Json, key: &str) -> u64 {
    detail.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn contract_line(detail: &Json) -> String {
    let (attempted, failed) = (count(detail, "attempted"), count(detail, "failed"));
    Json::obj([
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            detail
                .get("metrics")
                .cloned()
                .unwrap_or(Json::Obj(Vec::new())),
        ),
    ])
    .compact()
}

fn metric_value(metrics: &Json, name: &str) -> Option<f64> {
    metrics.get(name)?.get("value")?.as_f64()
}

/// Print every metric of one pass by name, with its unit.
pub fn print_metrics(spec: &Spec, detail: &Json) {
    for (name, m) in detail.get("metrics").map(Json::entries).unwrap_or_default() {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{:<12} {:<34} {:>16.4} {}", spec.name, name, value, unit);
    }
    if let Some(lat) = detail.get("latency") {
        let num = |k: &str| lat.get(k).and_then(Json::as_f64);
        match (num("tail_percentile"), num("tail_us"), num("tail_samples_beyond")) {
            (Some(p), Some(us), Some(beyond)) => println!(
                "{:<12} latency p{p} (report only)          {us:>16.4} us   {} samples, {beyond} beyond",
                spec.name,
                num("samples").unwrap_or(0.0)
            ),
            _ => println!(
                "{:<12} latency tail: under 100 samples ({}), no percentile has ten beyond it",
                spec.name,
                num("samples").unwrap_or(0.0)
            ),
        }
    }
    let cases = detail.get("cases").map(Json::as_arr).unwrap_or_default();
    if cases.len() > 1 {
        for c in cases {
            println!(
                "{:<12}   case {:<14} p50 {:>14.4} us   {} samples",
                spec.name,
                c.get("case").and_then(Json::as_str).unwrap_or("?"),
                c.get("p50_us").and_then(Json::as_f64).unwrap_or(f64::NAN),
                c.get("samples").and_then(Json::as_f64).unwrap_or(0.0)
            );
        }
    }
    println!(
        "{:<12} attempted {} failed {}",
        spec.name,
        count(detail, "attempted"),
        count(detail, "failed")
    );
}

// ---- run -----------------------------------------------------------------

pub struct RunOptions {
    pub seed: u64,
    /// `None`: `run_seconds` from `BENCHMARK.json`.
    pub seconds: Option<f64>,
    pub out: PathBuf,
    pub smoke: bool,
    /// Measured passes per workload, seeds `seed..seed + runs`.
    pub runs: usize,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn read_manifest() -> Result<Json, String> {
    let text = std::fs::read_to_string(MANIFEST)
        .map_err(|e| format!("{MANIFEST}: {e} (start the benchmark from the repository root)"))?;
    Json::parse(&text).map_err(|e| format!("{MANIFEST}: {e}"))
}

/// Within a tenth of each other, or the row is flagged.
fn agreement(a: f64, b: f64) -> &'static str {
    if a > 0.0 && b > 0.0 && (a - b).abs() / a.max(b) <= 0.10 {
        "ok"
    } else {
        "unresolved"
    }
}

/// Per-case medians weighted by how often the *measured* pass saw each
/// case. Applied to the measured pass's own medians and to the traced
/// top rung's, it compares the two passes over one mix of cases, though
/// their streams mix them differently (two concurrent clients against
/// one interleaved stream on `paged_mix`).
fn weighted_case_us(weights_from: &Json, medians_from: &[Json]) -> f64 {
    let (mut weighted, mut n) = (0.0, 0.0);
    for c in weights_from
        .get("cases")
        .map(Json::as_arr)
        .unwrap_or_default()
    {
        let name = c.get("case").and_then(Json::as_str);
        let samples = c.get("samples").and_then(Json::as_f64).unwrap_or(0.0);
        let p50 = medians_from
            .iter()
            .find(|m| m.get("case").and_then(Json::as_str) == name)
            .and_then(|m| m.get("p50_us")?.as_f64());
        if let Some(p50) = p50 {
            weighted += samples * p50;
            n += samples;
        }
    }
    if n > 0.0 {
        weighted / n
    } else {
        0.0
    }
}

pub fn run(opts: &RunOptions) -> Result<(), String> {
    let manifest = read_manifest()?;
    let seconds = match (opts.smoke, opts.seconds) {
        (true, _) => 1.0,
        (false, Some(s)) => s,
        (false, None) => manifest
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or(format!("{MANIFEST} has no run_seconds"))?,
    };
    let header = Json::obj([
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        ("nproc", Json::Num(nproc() as f64)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("runs", Json::Num(opts.runs as f64)),
    ]);
    println!("header {}", header.compact());

    let mut workloads = Vec::new();
    let mut any_failed = false;
    for name in workload::NAMES {
        let mut passes = Vec::new();
        for i in 0..opts.runs.max(1) as u64 {
            let spec = workload::spec(name, opts.seed + i).ok_or("unknown workload")?;
            let detail = run_pass(&spec, opts.seed + i, seconds, false)?;
            print_metrics(&spec, &detail);
            passes.push(detail);
        }
        let spec = workload::spec(name, opts.seed).ok_or("unknown workload")?;
        let traced = run_pass(&spec, opts.seed, seconds, true)?;
        print_metrics(&spec, &traced);

        let first = &passes[0];
        let mut end_to_end = Vec::new();
        for (metric, m) in first.get("metrics").map(Json::entries).unwrap_or_default() {
            let values: Vec<f64> = passes
                .iter()
                .filter_map(|p| metric_value(p.get("metrics")?, metric))
                .collect();
            end_to_end.push((
                metric.clone(),
                Json::obj([
                    ("value", Json::Num(median(&values))),
                    ("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
                    (
                        "spread",
                        quartile_spread(&values).map_or(Json::Null, Json::Num),
                    ),
                    (
                        "values",
                        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ]),
            ));
        }
        let attempted: u64 = passes.iter().map(|p| count(p, "attempted")).sum();
        let failed: u64 = passes.iter().map(|p| count(p, "failed")).sum();
        any_failed |= failed > 0 || count(&traced, "failed") > 0;

        // The two consistency checks of the traced pass.
        let layers = traced.get("metrics").cloned().unwrap_or(Json::Null);
        let plan_us = metric_value(&layers, "core.plan_us").unwrap_or(0.0);
        let parts_us = traced
            .get("plan_parts_sum_us")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let by_case =
            |d: &Json, key: &str| d.get(key).map(Json::as_arr).unwrap_or_default().to_vec();
        let top_us = weighted_case_us(first, &by_case(&traced, "request_us_by_case"));
        let untraced_us = weighted_case_us(first, &by_case(first, "cases"));
        println!(
            "{name:<12} check core.plan_us {plan_us:.1} vs sum of its children {parts_us:.1}: {}",
            agreement(plan_us, parts_us)
        );
        println!(
            "{name:<12} check top rung {top_us:.1} us vs tracing-off {untraced_us:.1} us: {} (tracing overhead {:+.1} us)",
            agreement(top_us, untraced_us),
            top_us - untraced_us
        );

        workloads.push(Json::obj([
            ("name", Json::str(name)),
            ("why", Json::str(spec.why)),
            ("clients", Json::Num(spec.clients.len() as f64)),
            ("end_to_end", Json::Obj(end_to_end)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            (
                "failed_share",
                Json::Num(failed as f64 / attempted.max(1) as f64),
            ),
            (
                "latency",
                first.get("latency").cloned().unwrap_or(Json::Null),
            ),
            ("cases", first.get("cases").cloned().unwrap_or(Json::Null)),
            ("door", first.get("door").cloned().unwrap_or(Json::Null)),
            (
                "setup_reps_s",
                first.get("setup_reps_s").cloned().unwrap_or(Json::Null),
            ),
            ("per_layer", layers),
            (
                "checks",
                Json::obj([
                    ("plan_us", Json::Num(plan_us)),
                    ("plan_parts_sum_us", Json::Num(parts_us)),
                    ("plan_parts", Json::str(agreement(plan_us, parts_us))),
                    ("top_rung_us", Json::Num(top_us)),
                    ("tracing_off_us", Json::Num(untraced_us)),
                    ("top_rung", Json::str(agreement(top_us, untraced_us))),
                    ("tracing_overhead_us", Json::Num(top_us - untraced_us)),
                ]),
            ),
            (
                "traced_attempted",
                Json::Num(count(&traced, "attempted") as f64),
            ),
            ("traced_failed", Json::Num(count(&traced, "failed") as f64)),
            (
                "trace_file",
                traced.get("trace_file").cloned().unwrap_or(Json::Null),
            ),
        ]));
    }

    let result = Json::obj([("header", header), ("workloads", Json::Arr(workloads))]);
    if let Some(dir) = opts.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&opts.out, result.pretty())
        .map_err(|e| format!("write {}: {e}", opts.out.display()))?;
    println!("wrote {}", opts.out.display());
    if any_failed {
        return Err("some responses failed or did not match the XSLTVM reference".into());
    }
    Ok(())
}

// ---- compare -------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `b` against `a` for a metric where `higher_is_better`, allowed to
/// worsen by `bound` of `a`. A spread (of either side) wider than the
/// bound means the runs cannot tell: unresolved, not unchanged.
pub fn verdict(a: f64, b: f64, higher_is_better: bool, bound: f64, spread: Option<f64>) -> Verdict {
    if !(a.is_finite() && b.is_finite()) || a <= 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload_named<'a>(result: &'a Json, name: &str) -> Option<&'a Json> {
    result
        .get("workloads")?
        .as_arr()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// Print one row per (workload × end-to-end metric); `Ok(true)` when
/// nothing regressed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let manifest = read_manifest()?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    for (label, file) in [("A", &a), ("B", &b)] {
        println!(
            "{label} {}",
            file.get("header").map(Json::compact).unwrap_or_default()
        );
    }
    // Runs of different length or on different cores answer different
    // questions; their rows are printed but not judged.
    let comparable = ["seconds", "smoke", "nproc"]
        .iter()
        .all(|k| a.get("header").and_then(|h| h.get(k)) == b.get("header").and_then(|h| h.get(k)));
    if !comparable {
        println!("headers differ in seconds, smoke or nproc: every row is unresolved");
    }
    let mut clean = true;
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>9}  {:<6} verdict",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for w in manifest
        .get("workloads")
        .map(Json::as_arr)
        .unwrap_or_default()
    {
        let name = w.get("name").and_then(Json::as_str).unwrap_or("?");
        let (wa, wb) = (workload_named(&a, name), workload_named(&b, name));
        for m in manifest
            .get("end_to_end")
            .map(Json::as_arr)
            .unwrap_or_default()
        {
            let metric = m.get("name").and_then(Json::as_str).unwrap_or("?");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            let side = |w: Option<&Json>| w?.get("end_to_end")?.get(metric).cloned();
            let (ma, mb) = (side(wa), side(wb));
            let value = |m: &Option<Json>| m.as_ref()?.get("value")?.as_f64();
            let spread = |m: &Option<Json>| m.as_ref()?.get("spread")?.as_f64();
            let (va, vb) = (value(&ma), value(&mb));
            let widest = match (spread(&ma), spread(&mb)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let v = match (va, vb) {
                (Some(x), Some(y)) if comparable => verdict(x, y, higher, bound, widest),
                _ => Verdict::Unresolved,
            };
            clean &= v != Verdict::Regressed;
            println!(
                "{name:<12} {metric:<22} {:>14.4} {:>14.4} {:>9.4}  {:<6} {}{}",
                va.unwrap_or(f64::NAN),
                vb.unwrap_or(f64::NAN),
                vb.unwrap_or(f64::NAN) / va.unwrap_or(f64::NAN),
                format!("{:.0}%", bound * 100.0),
                v.label(),
                widest.map_or(String::new(), |s| format!("  (spread {:.1}%)", s * 100.0)),
            );
        }
        // Not a bounded metric: any rise at all is a regression.
        let share = |w: Option<&Json>| w?.get("failed_share")?.as_f64();
        let (fa, fb) = (share(wa), share(wb));
        let v = match (fa, fb) {
            (Some(x), Some(y)) if y > x => Verdict::Regressed,
            (Some(_), Some(_)) => Verdict::Ok,
            _ => Verdict::Unresolved,
        };
        clean &= v != Verdict::Regressed;
        println!(
            "{name:<12} {:<22} {:>14.6} {:>14.6} {:>9}  {:<6} {}",
            "failed_share",
            fa.unwrap_or(f64::NAN),
            fb.unwrap_or(f64::NAN),
            "-",
            "0",
            v.label()
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_and_bound() {
        // Throughput: higher is better, 10% bound.
        assert_eq!(verdict(100.0, 95.0, true, 0.10, None), Verdict::Ok);
        assert_eq!(verdict(100.0, 89.0, true, 0.10, None), Verdict::Regressed);
        assert_eq!(verdict(100.0, 150.0, true, 0.10, None), Verdict::Ok);
        // Latency: lower is better.
        assert_eq!(verdict(100.0, 109.0, false, 0.10, None), Verdict::Ok);
        assert_eq!(verdict(100.0, 111.0, false, 0.10, None), Verdict::Regressed);
        assert_eq!(verdict(100.0, 50.0, false, 0.10, None), Verdict::Ok);
        // A spread wider than the bound cannot show "unchanged".
        assert_eq!(
            verdict(100.0, 101.0, false, 0.10, Some(0.2)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 130.0, false, 0.10, Some(0.2)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 130.0, false, 0.10, Some(0.02)),
            Verdict::Regressed
        );
        // No base, no ratio.
        assert_eq!(verdict(0.0, 1.0, true, 0.10, None), Verdict::Unresolved);
        assert_eq!(
            verdict(f64::NAN, 1.0, true, 0.10, None),
            Verdict::Unresolved
        );
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let detail = Json::obj([
            ("attempted", Json::Num(10.0)),
            ("failed", Json::Num(0.0)),
            (
                "metrics",
                Json::obj([("setup_s", Json::obj([("value", Json::Num(0.5))]))]),
            ),
            ("cases", Json::Arr(Vec::new())),
        ]);
        let line = Json::parse(&contract_line(&detail)).unwrap();
        let keys: Vec<&str> = line.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let bad = Json::obj([("attempted", Json::Num(3.0)), ("failed", Json::Num(1.0))]);
        assert_eq!(
            Json::parse(&contract_line(&bad)).unwrap().get("correct"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn agreement_is_within_a_tenth() {
        assert_eq!(agreement(100.0, 91.0), "ok");
        assert_eq!(agreement(100.0, 89.0), "unresolved");
        assert_eq!(agreement(0.0, 0.0), "unresolved");
    }
}
