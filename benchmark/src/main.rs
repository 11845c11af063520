//! The end-to-end benchmark of the xsltdb transform server.
//!
//! ```text
//! xsltdb-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! xsltdb-benchmark run [--seed N] [--seconds S] [--runs N] [--out FILE] [--smoke]
//! xsltdb-benchmark compare A.json B.json
//! ```
//!
//! Start it from the repository root. The first form is one pass over
//! one workload — measured (`--trace 0`: end-to-end metrics, tracing off,
//! through the socket) or traced (`--trace 1`: per-layer metrics) — and
//! ends with one JSON line. `run` makes both passes over all six
//! workloads and writes one result file; `compare` holds two result
//! files against the bounds in `BENCHMARK.json`. See `README.md`.

mod driver;
mod engine;
mod hist;
mod json;
mod measure;
mod oracle;
mod spans;
mod stats;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  xsltdb-benchmark --workload NAME --seed N --seconds S --trace 0|1
  xsltdb-benchmark run [--seed N] [--seconds S] [--runs N] [--out FILE] [--smoke]
  xsltdb-benchmark compare A.json B.json
workloads: point_warm plan_cold scan_stream xq_tier suite_mix paged_mix";

/// `--flag value` pairs and bare flags, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        let raw = self.0.remove(i + 1);
        self.0.remove(i);
        raw.parse()
            .map(Some)
            .map_err(|_| format!("{flag}: cannot read {raw:?}"))
    }

    fn switch(&mut self, flag: &str) -> bool {
        let found = self.0.iter().position(|a| a == flag);
        found.map(|i| self.0.remove(i)).is_some()
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
        }
    }
}

fn spec_for(name: &str, seed: u64) -> Result<workload::Spec, String> {
    workload::spec(name, seed).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; one of {}",
            workload::NAMES.join(" ")
        )
    })
}

/// A child pass: `child-* WORKLOAD SEED SECONDS`, digests on stdin for
/// the measured and traced children. Runs on a big stack — the suite's
/// recursion-shaped cases recurse natively.
fn child_pass(kind: String, args: Vec<String>) -> Result<(), String> {
    let [name, seed, seconds] = <[String; 3]>::try_from(args).map_err(|_| USAGE.to_string())?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed".to_string())?;
    let seconds: f64 = seconds.parse().map_err(|_| "bad seconds".to_string())?;
    let work = move || -> Result<String, String> {
        let spec = spec_for(&name, seed)?;
        if kind == "child-oracle" {
            return Ok(oracle::encode(&oracle::digests(&spec, seed)?));
        }
        let digests = oracle::decode(
            &std::io::read_to_string(std::io::stdin()).map_err(|e| format!("stdin: {e}"))?,
        )?;
        let detail = if kind == "child-trace" {
            let path = PathBuf::from(driver::OUT_DIR).join(format!("trace-{name}.json"));
            traced::run(&spec, seed, &digests, seconds, &path)?
        } else {
            measure::run(&spec, seed, &digests, seconds)?
        };
        Ok(detail.compact() + "\n")
    };
    let out = std::thread::Builder::new()
        .stack_size(oracle::BIG_STACK)
        .spawn(work)
        .map_err(|e| format!("spawn: {e}"))?
        .join()
        .map_err(|_| "pass panicked".to_string())??;
    print!("{out}");
    Ok(())
}

fn main_inner() -> Result<bool, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("child-oracle" | "child-measure" | "child-trace") => {
            let kind = args.remove(0);
            child_pass(kind, args).map(|()| true)
        }
        Some("run") => {
            let mut flags = Flags(args.split_off(1));
            let opts = driver::RunOptions {
                seed: flags.value("--seed")?.unwrap_or(1),
                seconds: flags.value("--seconds")?,
                runs: flags.value("--runs")?.unwrap_or(1),
                out: flags
                    .value("--out")?
                    .unwrap_or_else(|| PathBuf::from(driver::OUT_DIR).join("result.json")),
                smoke: flags.switch("--smoke"),
            };
            flags.finish()?;
            driver::run(&opts).map(|()| true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => driver::compare(a.as_ref(), b.as_ref()),
            _ => Err(USAGE.to_string()),
        },
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(true)
        }
        Some(_) => {
            let mut flags = Flags(args);
            let name: String = flags.value("--workload")?.ok_or(USAGE)?;
            let seed: u64 = flags.value("--seed")?.ok_or(USAGE)?;
            let seconds: f64 = flags.value("--seconds")?.ok_or(USAGE)?;
            let trace: u8 = flags.value("--trace")?.ok_or(USAGE)?;
            flags.finish()?;
            if !(seconds.is_finite() && seconds > 0.0) || trace > 1 {
                return Err(USAGE.to_string());
            }
            let spec = spec_for(&name, seed)?;
            let detail = driver::run_pass(&spec, seed, seconds, trace == 1)?;
            driver::print_metrics(&spec, &detail);
            println!("{}", driver::contract_line(&detail));
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("xsltdb-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
