//! The few statistics every report here rests on.

/// Median of `values`; 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `part / whole`, 0 when there is no whole.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them. `None` below four values: three points have no quartiles worth
/// the name.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 4 {
        return None;
    }
    let quartile = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v);
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_odd_and_none() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40, 80], n=4) == [12.5, 30.0, 70.0]
        let got = quartile_spread(&[80.0, 10.0, 40.0, 20.0]).unwrap();
        assert!((got - (70.0 - 12.5) / 30.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0, 2.0, 3.0]), None);
    }
}
