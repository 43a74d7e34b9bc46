//! Order statistics shared by every workload.

/// Percentiles the benchmark may report, highest first.
const PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`PERCENTILES`] that leaves at least ten of
/// `n` samples beyond it, or `None` when fewer than 20 samples exist (then
/// not even the median has ten beyond it). With 1,000 samples this is p99.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // n·(100 − p)/100 ≥ 10, kept in integers of tenths of a percent so that
    // 1,000 samples give exactly ten beyond p99.
    PERCENTILES
        .iter()
        .copied()
        .find(|&p| n as u64 * (1000 - (p * 10.0).round() as u64) >= 10_000)
}

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// The sample, ascending (NaN-free by construction; infinities allowed
/// and sort last — a failed request counts as over every limit).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The tail of a sample by the ten-beyond rule: the value at
/// [`tail_percentile`], or the maximum when the sample is too small for
/// any percentile. Returns `(value, percentile used)`; the percentile is
/// 100 for the maximum.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    match tail_percentile(s.len()) {
        Some(p) => (percentile(&s, p), p),
        None => (*s.last().expect("tail of an empty sample"), 100.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_samples_beyond_the_chosen_percentile() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 20..20_000usize {
            let p = tail_percentile(n).unwrap();
            let beyond = n as f64 * (100.0 - p) / 100.0;
            assert!(beyond >= 10.0 - 1e-9, "n={n} p={p} leaves {beyond}");
        }
    }

    #[test]
    fn nearest_rank_and_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        // Exactly ten samples lie beyond the reported p99.
        let (value, p) = tail(&v);
        assert_eq!((value, p), (990.0, 99.0));
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // A failed request (infinite latency) sorts beyond every success.
        let mut with_failure = v.clone();
        with_failure[0] = f64::INFINITY;
        assert_eq!(sorted(&with_failure).last(), Some(&f64::INFINITY));
    }
}
