//! Reference digests from the XSLTVM, computed in a process of their own.
//!
//! The reference path materialises the whole view as a DOM (hundreds of
//! MB at 100k rows). Run inside the measured process that would land in
//! its `VmHWM` — the confound ROADMAP records for `BENCH_pool.json` — so
//! the driver runs this in a short-lived child and passes only the
//! `(len, fnv64)` pairs on.

use crate::engine;
use crate::workload::{digest, Digest, Spec};

/// The suite's recursion-shaped cases recurse on the native stack.
pub const BIG_STACK: usize = 256 * 1024 * 1024;

/// One digest per entry of `spec.requests`, in order.
pub fn digests(spec: &Spec, seed: u64) -> Result<Vec<Digest>, String> {
    let (catalog, view) = engine::build_reference_catalog(spec.rows, seed);
    let docs = engine::reference_documents(&catalog, &view)?;
    let threads = crate::driver::nproc();
    let chunk = spec.requests.len().div_ceil(threads).max(1);
    let docs = &docs;
    std::thread::scope(|scope| {
        let workers: Vec<_> = spec
            .requests
            .chunks(chunk)
            .map(|reqs| {
                std::thread::Builder::new()
                    .stack_size(BIG_STACK)
                    .spawn_scoped(scope, move || {
                        reqs.iter()
                            .map(|r| engine::reference_output(docs, &r.sheet).map(|b| digest(&b)))
                            .collect::<Result<Vec<Digest>, String>>()
                    })
                    .map_err(|e| format!("spawn oracle thread: {e}"))
            })
            .collect();
        let mut out = Vec::with_capacity(spec.requests.len());
        for w in workers {
            out.extend(
                w?.join()
                    .map_err(|_| "oracle thread panicked".to_string())??,
            );
        }
        Ok(out)
    })
}

pub fn encode(digests: &[Digest]) -> String {
    digests
        .iter()
        .map(|d| format!("{} {:016x}\n", d.len, d.fnv))
        .collect()
}

pub fn decode(text: &str) -> Result<Vec<Digest>, String> {
    text.lines()
        .map(|line| {
            let (len, fnv) = line.split_once(' ').ok_or("digest line without a space")?;
            Ok(Digest {
                len: len
                    .parse()
                    .map_err(|_| format!("bad digest length {len:?}"))?,
                fnv: u64::from_str_radix(fnv, 16)
                    .map_err(|_| format!("bad digest hash {fnv:?}"))?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_survive_the_pipe() {
        let d = vec![
            Digest { len: 0, fnv: 0 },
            Digest {
                len: 1_683_396,
                fnv: u64::MAX,
            },
        ];
        assert_eq!(decode(&encode(&d)).unwrap(), d);
        assert!(decode("12").is_err());
        assert!(decode("x 00").is_err());
    }
}
