//! Fixed-size log-linear latency histogram.
//!
//! Latencies are recorded in nanoseconds into 64 sub-buckets per power
//! of two (relative width ≤ 1.6%), so a million samples take the same
//! 18 KB as ten and the generator's own memory never moves `peak_rss_mb`.
//! Percentiles interpolate by rank inside the bucket they land in, so a
//! median is not pinned to a bucket edge.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^40 ns (≈ 18 min) share the last bucket.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) * (SUB as usize);

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

/// A percentile together with the evidence for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. 99.0.
    pub percentile: f64,
    pub value_ns: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = exp - SUB_BITS;
    (shift as usize) * (SUB as usize) + (v >> shift) as usize
}

/// `[lo, lo + width)` of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < 2 * SUB as usize {
        return (i as u64, 1);
    }
    let shift = (i / SUB as usize - 1) as u32;
    let sub = (i - shift as usize * SUB as usize) as u64;
    (sub << shift, 1 << shift)
}

impl Hist {
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The value at fraction `q` of the samples (0 < q ≤ 1), in
    /// nanoseconds; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).clamp(0.0, self.total as f64);
        let mut before = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (before + c) as f64 >= rank {
                let (lo, width) = bounds(i);
                let inside = (rank - before as f64) / c as f64;
                return lo as f64 + width as f64 * inside;
            }
            before += c;
        }
        let (lo, width) = bounds(BUCKETS - 1);
        (lo + width) as f64
    }

    pub fn median_ns(&self) -> f64 {
        self.quantile_ns(0.5)
    }

    /// The highest of p90 / p99 / p99.9 / p99.99 that still has at least
    /// ten samples beyond it; `None` below 100 samples.
    pub fn supported_tail(&self) -> Option<Tail> {
        // (percentile, one sample in this many lies beyond it)
        [(99.99, 10_000), (99.9, 1_000), (99.0, 100), (90.0, 10)]
            .into_iter()
            .find_map(|(percentile, one_in)| {
                let beyond = self.total / one_in;
                (beyond >= 10).then(|| Tail {
                    percentile,
                    value_ns: self.quantile_ns(percentile / 100.0),
                    beyond,
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bounds(i);
            assert_eq!(
                lo,
                next,
                "bucket {i} does not start where {} ended",
                i.wrapping_sub(1)
            );
            assert_eq!(index(lo), i);
            assert_eq!(index(lo + width - 1), i);
            next = lo + width;
        }
        assert_eq!(next, 1 << MAX_EXP);
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_of_a_uniform_ramp_are_within_bucket_width() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 1_000);
        }
        assert_eq!(h.count(), 100_000);
        for (q, want) in [(0.5, 50_000e3), (0.9, 90_000e3), (0.99, 99_000e3)] {
            let got = h.quantile_ns(q);
            assert!(
                (got - want).abs() / want < 0.016,
                "q{q}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn median_interpolates_inside_one_bucket() {
        // All samples in one bucket: the median must move with the rank,
        // not sit on the bucket edge.
        let mut h = Hist::default();
        let (lo, width) = bounds(index(44_000_000));
        for _ in 0..10 {
            h.record(lo);
        }
        assert_eq!(h.median_ns(), lo as f64 + width as f64 * 0.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let mut h = Hist::default();
        for v in 0..99u64 {
            h.record(v);
        }
        assert_eq!(h.supported_tail(), None);
        for v in 0..901u64 {
            h.record(v);
        }
        let t = h.supported_tail().unwrap();
        assert_eq!((t.percentile, t.beyond), (99.0, 10));
        for v in 0..9_000u64 {
            h.record(v);
        }
        let t = h.supported_tail().unwrap();
        assert_eq!((t.percentile, t.beyond), (99.9, 10));
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Hist::default();
        let mut b = Hist::default();
        a.record(10);
        b.record(1_000_000);
        b.record(2_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!(a.quantile_ns(1.0) >= 2_000_000.0);
    }
}
