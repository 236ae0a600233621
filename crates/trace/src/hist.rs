//! Nearest-rank percentiles over an exact sample set.
//!
//! Every latency summary in the workspace — per-rep kernel times in
//! `cscv_harness::timing`, per-span durations in the trace table, the
//! `perf-report` pooled and `--diff` lines, and the benchmark's span
//! percentiles — keeps its samples in a `Vec`, sorts them and reads
//! [`exact_percentile`]. One rule, no bucketing error, and a sample of
//! any sign (a 0 ns span, a 0 % delta) counts like any other.

/// Nearest-rank percentile of a sorted sample set, `p` in percent
/// (`50.0` = median): the sample at rank `⌈p/100 · n⌉` (at least 1);
/// `0.0` when empty.
pub fn exact_percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
        "input sorted by f64::total_cmp"
    );
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the cast saturates and the rank is clamped to the length next"
    )]
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(exact_percentile(&v, 0.0), 1.0);
        assert_eq!(exact_percentile(&v, 25.0), 1.0);
        assert_eq!(exact_percentile(&v, 50.0), 2.0);
        assert_eq!(exact_percentile(&v, 75.0), 3.0);
        assert_eq!(exact_percentile(&v, 100.0), 4.0);
        assert_eq!(exact_percentile(&[], 50.0), 0.0);
    }
}
