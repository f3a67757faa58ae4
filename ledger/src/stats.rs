//! Order statistics. Every timing the ledger reports is the **median over
//! rounds of a per-round statistic**: rounds replay identical ops on
//! identical state, so the median over rounds discards machine noise while
//! the per-round statistic (a median or a tail percentile) keeps its
//! meaning.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by linear interpolation between
/// closest ranks. Panics on an empty slice — callers decide what "no
/// samples" means.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a copy and take the `q`-quantile.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail a round of `n` samples supports: the 95th percentile, or — when
/// fewer than ten samples would lie beyond it — the highest percentile that
/// still has ten beyond it (never below the median).
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.95;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.95)
}

/// Interquartile range as a share of the median — the spread the A/A
/// calibration and `compare` judge against a metric's bound. Uses the same
/// exclusive quartile method as Python's `statistics.quantiles(v, n=4)`.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = quantile_sorted(&v, 0.5);
    if v.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let at = |p: f64| {
        // Exclusive method: position p·(n+1) in 1-based ranks, clamped.
        let pos = (p * (v.len() + 1) as f64 - 1.0).clamp(0.0, (v.len() - 1) as f64);
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.75) - at(0.25)) / m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_vectors() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(median(&v), 51.0);
        assert_eq!(quantile(&v, 0.95), 96.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 101.0);
        // Interpolation between ranks, and order independence.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[10.0, 20.0], 0.25), 12.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn median_of_rounds_ignores_one_noisy_round() {
        // Five rounds of the same per-round p95; one round hit a stall.
        let per_round_p95 = [2.0, 2.1, 9.7, 1.9, 2.0];
        assert_eq!(median(&per_round_p95), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(1000), 0.95);
        assert_eq!(tail_quantile(200), 0.95);
        assert!((tail_quantile(120) - (1.0 - 10.0 / 120.0)).abs() < 1e-12);
        assert_eq!(tail_quantile(50), 0.8);
        assert_eq!(tail_quantile(12), 0.5);
    }

    #[test]
    fn iqr_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[3.0, 3.0, 3.0]), 0.0);
    }
}
