//! Order statistics for the reported metrics.

/// Sorted copy of `values` (total order, so NaN cannot panic the sort).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count and NaN
/// for no values.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Arithmetic mean; NaN for no values.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spread script and the benchmark agree on one definition. `None` for
/// fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let len = v.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The `p`-th percentile (nearest rank, `0 < p < 1`), or `None` unless at
/// least ten samples lie beyond it: a tail percentile resting on fewer
/// samples is noise, not a measurement.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < 10 {
        return None;
    }
    Some(v[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        // p95 of 100 samples has only five beyond it.
        assert_eq!(percentile(&v, 0.95), None);
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.95), Some(190.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
    }
}
