//! The measured pass: tracing off, through the real wire path.
//!
//! One process hosts an `xsltdb_serve::Server` on an ephemeral loopback
//! port and the closed-loop clients that drive it — callers that wait for
//! their reply before sending the next request, as database sessions do.
//! Every response is checked against the oracle's digest. Nothing here
//! records spans.

use crate::engine::{self, Status};
use crate::hist::Hist;
use crate::json::Json;
use crate::stats::{median, ratio};
use crate::workload::{digest, Client, Digest, Role, Spec};
use std::net::TcpStream;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up is repeated and its median reported, so that `setup_s` can be
/// compared between commits at all: one 11 ms sample cannot. At least
/// this many times, and until they have taken `SETUP_MIN_TOTAL_S` together.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_TOTAL_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 50;

/// A warmed server with its clients connected. Fields drop in order: the
/// connections close first, so the server's connection threads see EOF
/// and the handle's shutdown can join them.
struct Live {
    conns: Vec<TcpStream>,
    server: engine::ServerHandle,
    door: Arc<engine::FrontDoor>,
    /// Warm-up responses that did not match the oracle.
    warm_failures: u64,
}

/// Catalog build + plan warm-up + server start + client connects: what
/// must happen before the first measured request.
fn set_up(spec: &Spec, seed: u64, digests: &[Digest]) -> Result<Live, String> {
    let (catalog, view) = engine::build_catalog(spec.rows, seed, spec.pool_frames);
    let door = engine::new_door(false);
    let mut warm_failures = 0;
    for (req, want) in spec.requests.iter().zip(digests) {
        match engine::door_transform(&door, &catalog, &view, &req.sheet) {
            Ok(bytes) if digest(&bytes) == *want => {}
            _ => warm_failures += 1,
        }
    }
    let (server, door) =
        engine::start_server(door, catalog, view).map_err(|e| format!("bind loopback: {e}"))?;
    let conns = spec
        .clients
        .iter()
        .map(|_| engine::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<_, _>>()?;
    Ok(Live {
        conns,
        server,
        door,
        warm_failures,
    })
}

struct ClientRun {
    latency: Hist,
    per_case: Vec<Hist>,
    attempted: u64,
    failed: u64,
    body_bytes: u64,
    elapsed: Duration,
}

/// One request of `client`'s stream: build it, send it, time it, check it.
/// `Err` means the connection is gone.
fn exchange(
    conn: &mut TcpStream,
    spec: &Spec,
    idx: usize,
    want: Digest,
    unique: &AtomicU64,
) -> Result<(Duration, bool), ()> {
    // Formatted per request and outside the timed span.
    let request = engine::request(spec.text(idx, unique));
    let sent = Instant::now();
    let response = engine::round_trip(conn, &request);
    let latency = sent.elapsed();
    let response = response.map_err(|_| ())?;
    Ok((
        latency,
        response.status == Status::Ok && digest(&response.body) == want,
    ))
}

/// Replay `client.order` over `conn`: unrecorded until `warm` has passed,
/// then recorded for `window`. Both phases end on an `align` boundary,
/// and the recorded one holds at least one full round.
fn drive(
    conn: &mut TcpStream,
    client: &Client,
    spec: &Spec,
    digests: &[Digest],
    warm: Duration,
    window: Duration,
    unique: &AtomicU64,
) -> ClientRun {
    let mut run = ClientRun {
        latency: Hist::default(),
        per_case: vec![Hist::default(); spec.cases.len()],
        attempted: 0,
        failed: 0,
        body_bytes: 0,
        elapsed: Duration::ZERO,
    };
    let at = |pos: usize| client.order[pos % client.order.len()];
    let mut pos = 0usize;
    let warm_start = Instant::now();
    while !pos.is_multiple_of(client.align) || warm_start.elapsed() < warm {
        if exchange(conn, spec, at(pos), digests[at(pos)], unique).is_err() {
            break;
        }
        pos += 1;
    }
    let start = Instant::now();
    loop {
        let idx = at(pos);
        let outcome = exchange(conn, spec, idx, digests[idx], unique);
        pos += 1;
        run.attempted += 1;
        match outcome {
            Ok((latency, true)) => {
                let ns = latency.as_nanos() as u64;
                run.latency.record(ns);
                run.per_case[spec.requests[idx].case].record(ns);
                run.body_bytes += digests[idx].len;
            }
            Ok((_, false)) => run.failed += 1,
            Err(()) => {
                // The connection is gone; looping on would only spin.
                run.failed += 1;
                break;
            }
        }
        if pos.is_multiple_of(client.align) && start.elapsed() >= window {
            break;
        }
    }
    run.elapsed = start.elapsed();
    run
}

fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Run the workload and report every end-to-end metric with its evidence.
pub fn run(spec: &Spec, seed: u64, digests: &[Digest], seconds: f64) -> Result<Json, String> {
    if digests.len() != spec.requests.len() {
        return Err(format!(
            "{} digests for {} distinct requests",
            digests.len(),
            spec.requests.len()
        ));
    }
    // The first set-up is the one measured on: its heap is the one a
    // freshly started server has, the same from run to run. The repeats
    // that steady `setup_s` come after the window.
    let setup_start = Instant::now();
    let mut live = set_up(spec, seed, digests)?;
    let mut setup_reps = vec![setup_start.elapsed().as_secs_f64()];

    let warm = Duration::from_secs_f64(seconds / 6.0);
    let window = Duration::from_secs_f64(seconds);
    let unique = AtomicU64::new(seed << 32);
    let before = engine::door_counters(&live.door);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let unique = &unique;
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .zip(&spec.clients)
            .map(|(conn, client)| {
                scope.spawn(move || drive(conn, client, spec, digests, warm, window, unique))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let after = engine::door_counters(&live.door);
    let warm_failures = live.warm_failures;
    let Live { conns, server, .. } = live;
    drop(conns);
    server.shutdown();

    while setup_reps.len() < SETUP_MIN_REPS
        || (setup_reps.iter().sum::<f64>() < SETUP_MIN_TOTAL_S && setup_reps.len() < SETUP_MAX_REPS)
    {
        let started = Instant::now();
        let again = set_up(spec, seed, digests)?;
        setup_reps.push(started.elapsed().as_secs_f64());
        drop(again);
    }

    let mut latency = Hist::default();
    let mut per_case = vec![Hist::default(); spec.cases.len()];
    let (mut req_per_s, mut out_mb_per_s) = (0.0, 0.0);
    // The last set-up's checked warm-up transforms count as attempts too.
    let (mut attempted, mut failed) = (spec.requests.len() as u64, warm_failures);
    let mut clients_json = Vec::new();
    for (run, client) in runs.iter().zip(&spec.clients) {
        let secs = run.elapsed.as_secs_f64();
        attempted += run.attempted;
        failed += run.failed;
        for (all, one) in per_case.iter_mut().zip(&run.per_case) {
            all.merge(one);
        }
        if secs > 0.0 {
            if client.role != Role::Bytes {
                req_per_s += run.latency.count() as f64 / secs;
                latency.merge(&run.latency);
            }
            if client.role != Role::Requests {
                out_mb_per_s += run.body_bytes as f64 / 1e6 / secs;
            }
        }
        clients_json.push(Json::obj([
            ("attempted", Json::Num(run.attempted as f64)),
            ("failed", Json::Num(run.failed as f64)),
            ("body_bytes", Json::Num(run.body_bytes as f64)),
            ("window_s", Json::Num(secs)),
        ]));
    }

    let mut log_sum = 0.0;
    let mut cases_seen = 0usize;
    let mut cases_json = Vec::new();
    for (name, h) in spec.cases.iter().zip(&per_case) {
        let p50_us = h.median_ns() / 1e3;
        if h.count() > 0 {
            log_sum += p50_us.ln();
            cases_seen += 1;
        }
        cases_json.push(Json::obj([
            ("case", Json::str(*name)),
            ("samples", Json::Num(h.count() as f64)),
            ("p50_us", Json::Num(p50_us)),
        ]));
    }
    let geomean_us = if cases_seen > 0 {
        (log_sum / cases_seen as f64).exp()
    } else {
        0.0
    };

    let plan_hits = after.plan_hits - before.plan_hits;
    let plan_misses = after.plan_misses - before.plan_misses;
    let tail = latency.supported_tail();
    let setup_s = median(&setup_reps);
    let metric =
        |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
    Ok(Json::obj([
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj([
                ("req_per_s", metric(req_per_s, "1/s")),
                ("latency_p50_us", metric(latency.median_ns() / 1e3, "us")),
                ("case_p50_geomean_us", metric(geomean_us, "us")),
                ("out_mb_per_s", metric(out_mb_per_s, "MB/s")),
                (
                    "peak_rss_mb",
                    metric(peak_rss_kb() as f64 * 1024.0 / 1e6, "MB"),
                ),
                ("setup_s", metric(setup_s, "s")),
            ]),
        ),
        (
            "latency",
            Json::obj([
                ("samples", Json::Num(latency.count() as f64)),
                ("p50_us", Json::Num(latency.median_ns() / 1e3)),
                (
                    "tail_percentile",
                    tail.map_or(Json::Null, |t| Json::Num(t.percentile)),
                ),
                (
                    "tail_us",
                    tail.map_or(Json::Null, |t| Json::Num(t.value_ns / 1e3)),
                ),
                (
                    "tail_samples_beyond",
                    tail.map_or(Json::Null, |t| Json::Num(t.beyond as f64)),
                ),
            ]),
        ),
        ("cases", Json::Arr(cases_json)),
        ("clients", Json::Arr(clients_json)),
        (
            "setup_reps_s",
            Json::Arr(setup_reps.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "door",
            Json::obj([
                (
                    "plan_cache_hit_rate",
                    Json::Num(ratio(plan_hits, plan_hits + plan_misses)),
                ),
                ("shed", Json::Num((after.shed - before.shed) as f64)),
                (
                    "retries",
                    Json::Num((after.retries - before.retries) as f64),
                ),
            ]),
        ),
    ]))
}
