//! The six workloads: which requests, over which data, from how many
//! closed-loop clients. Everything here is a pure function of
//! `(workload name, seed)`; the server only ever sees the requests.

use crate::engine;
use std::sync::atomic::{AtomicU64, Ordering};

/// Workload names, in report order. `BENCHMARK.json` lists the same six
/// with the same one-line reasons (a unit test holds them together).
pub const NAMES: [&str; 6] = [
    "point_warm",
    "plan_cold",
    "scan_stream",
    "xq_tier",
    "suite_mix",
    "paged_mix",
];

const BIG_ROWS: usize = 100_000;
const XQ_ROWS: usize = 10_000;
/// The suite's recursion-shaped cases stay under the XQuery evaluator's
/// depth limit at this size.
const SUITE_ROWS: usize = 64;
const HOT_IDS: usize = 64;
/// 256 frames × 4 KiB = 1 MiB of pool in front of ≈ 7.6 MB of heap pages.
const POOL_FRAMES: usize = 256;

/// XSLTMark's `dbtail` shape: project every row, so the response grows
/// with the table (≈ 1.7 MB at 100k rows).
const DBTAIL: &str = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
       <xsl:template match="table">
         <out><xsl:apply-templates select="row"/></out>
       </xsl:template>
       <xsl:template match="row">
         <r><xsl:value-of select="lastname"/>, <xsl:value-of select="firstname"/></r>
       </xsl:template>
       </xsl:stylesheet>"#;

/// The suite cases the planner keeps off the SQL tier (15 XQuery + 1 VM),
/// without `backwards`, which recurses once per row and trips the
/// evaluator's depth limit past 64 rows. Named, not derived from the
/// planner: a later change that lifts one of them to SQL must show up as
/// a gain on this workload, not as a different workload.
const XQ_TIER_CASES: [&str; 16] = [
    "identity",
    "descendants",
    "union",
    "params",
    "modes",
    "bottles",
    "tower",
    "queens",
    "games",
    "wordcount",
    "reverser",
    "oddtemplates",
    "hierarchy",
    "summarize",
    "encrypt",
    "functions",
];

/// One distinct request: the stylesheet text and the case it belongs to.
pub struct Req {
    /// Index into [`Spec::cases`].
    pub case: usize,
    pub sheet: String,
}

/// Which end-to-end rate a client's traffic feeds.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// `req_per_s`, latency and `out_mb_per_s` alike.
    All,
    /// `req_per_s` and latency only (the point side of `paged_mix`).
    Requests,
    /// `out_mb_per_s` only (the scan side of `paged_mix`).
    Bytes,
}

/// One closed-loop connection.
pub struct Client {
    /// Indices into [`Spec::requests`], replayed in this order forever.
    pub order: Vec<usize>,
    /// The client starts and stops measuring only at multiples of this
    /// many requests, so a window never holds a partial round of cases
    /// whose costs differ by 10× (1 when all its requests cost alike).
    pub align: usize,
    pub role: Role,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub rows: usize,
    pub pool_frames: Option<usize>,
    /// Every request is made textually unique (see [`cold_variant`]), so
    /// each one misses the plan cache.
    pub cold_plans: bool,
    /// Case names; per-case medians are reported under these.
    pub cases: Vec<&'static str>,
    pub requests: Vec<Req>,
    pub clients: Vec<Client>,
}

/// `sheet` with a trailing comment: a different plan key, the same
/// stylesheet.
pub fn cold_variant(sheet: &str, n: u64) -> String {
    format!("{sheet}<!--{n}-->")
}

/// SplitMix64: the id draw needs a seeded generator and nothing more.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffled(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// `HOT_IDS` distinct `dbonerow` requests over ids that exist.
fn hot_points(rng: &mut SplitMix, rows: usize, seed: u64) -> Vec<Req> {
    let ids = engine::row_ids(rows, seed);
    let mut picked = rng.shuffled(rows);
    picked.truncate(HOT_IDS);
    picked
        .into_iter()
        .map(|i| Req {
            case: 0,
            sheet: engine::dbonerow_stylesheet(ids[i]),
        })
        .collect()
}

fn suite_requests(names: Option<&[&'static str]>) -> (Vec<&'static str>, Vec<Req>) {
    let mut cases = Vec::new();
    let mut requests = Vec::new();
    for c in engine::all_cases() {
        if names.is_none_or(|n| n.contains(&c.name)) {
            requests.push(Req {
                case: cases.len(),
                sheet: c.stylesheet,
            });
            cases.push(c.name);
        }
    }
    (cases, requests)
}

fn round_robin(n: usize) -> Vec<Client> {
    vec![Client {
        order: (0..n).collect(),
        align: n,
        role: Role::All,
    }]
}

pub fn spec(name: &str, seed: u64) -> Option<Spec> {
    let mut rng = SplitMix(seed ^ 0x5851_f42d_4c95_7f2d);
    Some(match name {
        "point_warm" => Spec {
            name: "point_warm",
            why: "64 hot dbonerow lookups over 100k rows, 2 clients, plans warm: one index probe and a 36-byte body, so socket, door, plan lookup and bind are the whole cost",
            rows: BIG_ROWS,
            pool_frames: None,
            cold_plans: false,
            cases: vec!["dbonerow"],
            requests: hot_points(&mut rng, BIG_ROWS, seed),
            clients: (0..2)
                .map(|_| Client { order: rng.shuffled(HOT_IDS), align: 1, role: Role::All })
                .collect(),
        },
        "plan_cold" => {
            let (cases, requests) = suite_requests(None);
            Spec {
                name: "plan_cold",
                why: "the 40 XSLTMark stylesheets over 64 rows, each request textually unique: every request pays compile, partial evaluation, xqgen, sqlrewrite and a plan-cache insert; execution is negligible",
                rows: SUITE_ROWS,
                pool_frames: None,
                cold_plans: true,
                clients: round_robin(requests.len()),
                cases,
                requests,
            }
        }
        "scan_stream" => Spec {
            name: "scan_stream",
            why: "dbtail projects all 100k rows into a 1.7 MB response, 1 client: SQL-tier scan, publish, sink and socket write dominate; planning and door overhead vanish",
            rows: BIG_ROWS,
            pool_frames: None,
            cold_plans: false,
            cases: vec!["dbtail"],
            requests: vec![Req { case: 0, sheet: DBTAIL.to_string() }],
            clients: round_robin(1),
        },
        "xq_tier" => {
            let (cases, requests) = suite_requests(Some(&XQ_TIER_CASES));
            Spec {
                name: "xq_tier",
                why: "the 16 suite cases below the SQL tier over 10k rows, plans warm, 1 client: view materialisation and the XQuery evaluator or the VM dominate time and memory",
                rows: XQ_ROWS,
                pool_frames: None,
                cold_plans: false,
                clients: round_robin(requests.len()),
                cases,
                requests,
            }
        }
        "suite_mix" => {
            let (cases, requests) = suite_requests(None);
            Spec {
                name: "suite_mix",
                why: "all 40 XSLTMark cases over 64 rows, round-robin, plans warm, 1 client: the paper's own mix across the SQL, XQuery and VM tiers (23/16/1), reported per case",
                rows: SUITE_ROWS,
                pool_frames: None,
                cold_plans: false,
                clients: round_robin(requests.len()),
                cases,
                requests,
            }
        }
        "paged_mix" => {
            let mut requests = hot_points(&mut rng, BIG_ROWS, seed);
            requests.push(Req { case: 1, sheet: DBTAIL.to_string() });
            Spec {
                name: "paged_mix",
                why: "100k rows on disk pages behind a 1 MiB pool: one client loops 64 hot point lookups (their pages fit), one loops dbtail scans (the table does not), so the pool serves both at once",
                rows: BIG_ROWS,
                pool_frames: Some(POOL_FRAMES),
                cold_plans: false,
                cases: vec!["dbonerow", "dbtail"],
                clients: vec![
                    Client { order: rng.shuffled(HOT_IDS), align: 1, role: Role::Requests },
                    Client { order: vec![HOT_IDS], align: 1, role: Role::Bytes },
                ],
                requests,
            }
        }
        _ => return None,
    })
}

impl Spec {
    /// The text to send for request `idx`: its own, or — where the point
    /// is that plans are cold — a variant numbered from `unique` and so
    /// never seen before.
    pub fn text(&self, idx: usize, unique: &AtomicU64) -> String {
        let sheet = &self.requests[idx].sheet;
        if self.cold_plans {
            cold_variant(sheet, unique.fetch_add(1, Ordering::Relaxed))
        } else {
            sheet.clone()
        }
    }

    /// The single-threaded request stream of the traced pass: the
    /// clients' orders dealt out in turn, one round of the longest.
    pub fn traced_stream(&self) -> Vec<usize> {
        let longest = self
            .clients
            .iter()
            .map(|c| c.order.len())
            .max()
            .unwrap_or(0);
        let mut stream = Vec::new();
        for i in 0..longest {
            for c in &self.clients {
                stream.push(c.order[i % c.order.len()]);
            }
        }
        stream
    }

    /// How many requests of [`Self::traced_stream`] make one round: the
    /// traced pass runs whole rounds, for the reason `Client::align`
    /// gives.
    pub fn traced_round(&self) -> usize {
        self.clients.iter().map(|c| c.align).sum()
    }
}

/// What the benchmark keeps of a response: enough to tell a wrong one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub len: u64,
    pub fnv: u64,
}

/// FNV-1a over the body. The harness's own, so the check shares no code
/// with the engine it checks.
pub fn digest(bytes: &[u8]) -> Digest {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Digest {
        len: bytes.len() as u64,
        fnv: h,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn same_seed_same_requests_other_seed_other_ids() {
        for name in NAMES {
            let a = spec(name, 3).unwrap();
            let b = spec(name, 3).unwrap();
            assert_eq!(a.requests.len(), b.requests.len());
            for (x, y) in a.requests.iter().zip(&b.requests) {
                assert_eq!(x.sheet, y.sheet, "{name} is not a function of its seed");
            }
            for (x, y) in a.clients.iter().zip(&b.clients) {
                assert_eq!(x.order, y.order);
            }
        }
        let a = spec("point_warm", 3).unwrap();
        let b = spec("point_warm", 4).unwrap();
        assert!(a
            .requests
            .iter()
            .zip(&b.requests)
            .any(|(x, y)| x.sheet != y.sheet));
    }

    #[test]
    fn shapes_match_the_issue() {
        let p = spec("point_warm", 1).unwrap();
        assert_eq!((p.requests.len(), p.clients.len()), (64, 2));
        let mut sheets: Vec<&str> = p.requests.iter().map(|r| r.sheet.as_str()).collect();
        sheets.sort();
        sheets.dedup();
        assert_eq!(sheets.len(), 64, "hot ids must be distinct");
        assert_eq!(spec("plan_cold", 1).unwrap().requests.len(), 40);
        assert_eq!(spec("suite_mix", 1).unwrap().requests.len(), 40);
        let xq = spec("xq_tier", 1).unwrap();
        assert_eq!(xq.requests.len(), 16);
        assert!(!xq.cases.contains(&"backwards"));
        let paged = spec("paged_mix", 1).unwrap();
        assert_eq!(paged.pool_frames, Some(256));
        assert_eq!(paged.traced_stream().len(), 128);
        assert_eq!(paged.traced_round(), 2);
        assert_eq!(xq.traced_round(), 16);
        for name in NAMES {
            let s = spec(name, 1).unwrap();
            for c in &s.clients {
                assert!(c.order.iter().all(|&i| i < s.requests.len()));
                assert_eq!(c.order.len() % c.align, 0);
            }
            assert!(s.requests.iter().all(|r| r.case < s.cases.len()));
        }
        assert!(spec("nope", 1).is_none());
    }

    #[test]
    fn benchmark_json_lists_these_workloads_with_these_reasons() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| {
                (
                    w.get("name").unwrap().as_str().unwrap(),
                    w.get("why").unwrap().as_str().unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = NAMES
            .iter()
            .map(|n| spec(n, 1).unwrap())
            .map(|s| (s.name, s.why))
            .collect();
        assert_eq!(listed, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
    }

    #[test]
    fn cold_variants_have_distinct_plan_keys_and_identical_output() {
        // The suite's recursion-shaped cases want more than a test
        // thread's 2 MiB of stack.
        let check = || {
            let s = spec("plan_cold", 1).unwrap();
            let (catalog, view) = engine::build_catalog(s.rows, 1, None);
            let cache = engine::new_plan_cache();
            let run = |sheet: &str| {
                let plan = engine::plan_lookup(&cache, &catalog, &view, sheet).unwrap();
                let mut out = Vec::new();
                engine::execute(&plan, &catalog, &engine::ExecStats::new(), &mut out).unwrap();
                out
            };
            for (i, req) in s.requests.iter().enumerate() {
                let base = run(&req.sheet);
                assert!(!base.is_empty());
                for n in [2 * i as u64, 2 * i as u64 + 1] {
                    assert_eq!(
                        run(&cold_variant(&req.sheet, n)),
                        base,
                        "{}",
                        s.cases[req.case]
                    );
                }
            }
            // Every text was a new key: nothing was ever served from the cache.
            assert_eq!(
                engine::plan_cache_counters(&cache),
                (0, 3 * s.requests.len() as u64)
            );
        };
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(check)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn digest_tells_bodies_apart() {
        assert_eq!(digest(b"<out/>"), digest(b"<out/>"));
        assert_ne!(digest(b"<out/>"), digest(b"<out></out>"));
        assert_ne!(digest(b"ab").fnv, digest(b"ba").fnv);
        assert_eq!(digest(b"").len, 0);
    }
}
