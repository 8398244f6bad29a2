//! Order statistics the benchmark reports: medians, the tail-percentile
//! rule, and the quartile spread used to judge run-to-run noise.

/// Percentiles a tail may be reported at, lowest first.
const LADDER: [u32; 8] = [50, 60, 70, 75, 80, 90, 95, 99];

/// Value at percentile `p` of `sorted` (nearest rank, rounding down).
/// Empty input yields 0.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(sorted.len() - 1) * p as usize / 100]
}

/// Sort a sample in place, ascending. Timings are never NaN.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50)
}

/// How many of `n` sorted samples lie strictly beyond percentile `p`.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - (n - 1) * p as usize / 100
}

/// The tail percentile to report: `wanted` (fixed per workload) when at
/// least ten samples lie beyond it, otherwise the highest rung of the
/// ladder below it that still has ten beyond, and the median when none
/// has. A tail with fewer than ten samples beyond it is a single slow op,
/// not a distribution.
pub fn tail_percentile(n: usize, wanted: u32) -> u32 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| p <= wanted && samples_beyond(n, p) >= 10)
        .unwrap_or(50)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the spread
/// the driver computes over ten runs. Needs at least two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, interpolated, clamped.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = quantile(2);
    if med == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p95 of 200 samples sits at index 189: exactly ten beyond.
        assert_eq!(samples_beyond(200, 95), 10);
        assert_eq!(tail_percentile(200, 95), 95);
        // Below 182 samples p95 has fewer than ten beyond it.
        assert_eq!(samples_beyond(182, 95), 10);
        assert_eq!(samples_beyond(181, 95), 9);
        assert_eq!(tail_percentile(181, 95), 90);
        // The workload's fixed percentile is a ceiling, not a target.
        assert_eq!(tail_percentile(10_000, 80), 80);
        assert_eq!(tail_percentile(60, 80), 80);
        assert_eq!(tail_percentile(45, 80), 75);
        assert_eq!(tail_percentile(12, 95), 50);
        assert_eq!(tail_percentile(0, 95), 50);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 95), 95.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&[], 50), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 10, 10, 11], n=4) == [10, 10, 10.75]
        let s = quartile_spread(&[10.0, 11.0, 10.0, 10.0]);
        assert!((s - 0.075).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
