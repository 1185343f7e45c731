//! Order statistics over small samples of per-rep values and over
//! large latency samples.

/// The three quartile cut points of `values`, as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them — the acceptance rule for this benchmark is stated in
/// those terms, so the spread printed here is the spread it is judged
/// by. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return [v[0]; 3];
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// Nearest-rank quantile `q` (in `0..=1`) of `values`, any order.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    assert!(!v.is_empty(), "quantile of an empty sample");
    v[((v.len() - 1) as f64 * q).round() as usize]
}

/// Nearest-rank percentile `q` (in `0..=1`) of an ascending sample.
pub fn percentile_sorted(sorted: &[u32], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 3, 9, 7], n=4)
        assert_eq!(quartiles(&[5.0, 1.0, 3.0, 9.0, 7.0]), [2.0, 5.0, 8.0]);
        // statistics.quantiles([1, 2], n=4)
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_quantiles_of_unsorted_values() {
        let v = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0];
        assert_eq!(quantile(&v, 0.9), 10.0);
        assert_eq!(quantile(&v, 0.1), 2.0);
        assert_eq!(quantile(&[4.0], 0.9), 4.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 0.5), 51.0);
        assert_eq!(percentile_sorted(&s, 0.99), 99.0);
        assert_eq!(percentile_sorted(&[7], 0.99), 7.0);
    }
}
