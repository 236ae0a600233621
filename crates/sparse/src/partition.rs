//! Work partitioning helpers.
//!
//! Thread-level SpMV parallelism in the suite is contiguous-range based:
//! rows (or columns, or CSCV view groups and tiles) are split into one
//! range per thread by nonzero count. [`split_by_prefix`] returns the
//! contiguous split whose heaviest range is the lightest possible. That
//! matters when the items are few and coarse: a 512² CT matrix has just
//! two CSCV-Z view groups, and a rule that cuts at the first boundary
//! past `t·total/k` would hand both to one thread.

use std::ops::Range;

/// Split `0..n` into `k` contiguous ranges of near-equal length.
/// Always returns exactly `k` ranges; trailing ones may be empty.
pub fn even_chunks(n: usize, k: usize) -> Vec<Range<usize>> {
    assert!(k >= 1);
    let base = n / k;
    let rem = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Split `0..prefix.len()-1` items into `k` contiguous ranges, where
/// `prefix` is the cumulative weight array (e.g. a CSR `row_ptr`): item
/// `i` weighs `prefix[i+1] - prefix[i]`.
///
/// Returns the contiguous split whose heaviest range is as light as
/// possible: the smallest cap `B` under which a greedy left-to-right
/// cut covers every item in `k` ranges, found by binary search over
/// `[⌈total/k⌉, total]`. No cap below the heaviest item covers it, so
/// the search clears that lower bound too without a pass over the
/// items; the cost is `O(k · log n · log total)`.
///
/// Returns exactly `k` ranges covering all items in order; trailing
/// ones may be empty.
pub fn split_by_prefix(prefix: &[usize], k: usize) -> Vec<Range<usize>> {
    assert!(k >= 1);
    assert!(!prefix.is_empty(), "prefix must have at least one element");
    let n = prefix.len() - 1;
    let total = prefix[n] - prefix[0];
    let covers = |cap| greedy_cuts(prefix, k, cap).last().map(|r| r.end) == Some(n);
    // `cap = total` always covers, so the search ends on a cap that does.
    let (mut lo, mut hi) = (total.div_ceil(k), total);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if covers(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    greedy_cuts(prefix, k, lo).collect()
}

/// `k` ranges cut left to right, each taking items while its weight
/// stays `≤ cap` (one `partition_point` on the prefix per cut). They
/// cover every item exactly when some split of heaviest range `≤ cap`
/// exists.
fn greedy_cuts(prefix: &[usize], k: usize, cap: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    let mut start = 0usize;
    (0..k).map(move |_| {
        let limit = prefix[start].saturating_add(cap);
        // `prefix[start] ≤ limit`, so the cut never falls before `start`.
        let end = prefix.partition_point(|&p| p <= limit) - 1;
        let r = start..end;
        start = end;
        r
    })
}

/// Convenience: [`split_by_prefix`] over explicit per-item weights.
pub fn split_by_weights(weights: &[usize], k: usize) -> Vec<Range<usize>> {
    let mut prefix = Vec::with_capacity(weights.len() + 1);
    prefix.push(0usize);
    let mut acc = 0usize;
    for &w in weights {
        acc += w;
        prefix.push(acc);
    }
    split_by_prefix(&prefix, k)
}

/// Total weight of a range under a prefix array.
pub fn range_weight(prefix: &[usize], r: &Range<usize>) -> usize {
    prefix[r.end] - prefix[r.start]
}

/// Decompose a batch width into compiled register-tile widths, largest
/// first (e.g. `k = 11`, caps `[8, 4, 2, 1]` → `[8, 2, 1]`). Batched
/// SpMM executors monomorphize their kernels per tile width and use this
/// to cover an arbitrary `k`; `caps` must end in 1 so every `k` is
/// reachable.
pub fn batch_chunks(mut k: usize, caps: &[usize]) -> Vec<usize> {
    debug_assert_eq!(caps.last(), Some(&1), "caps must end at 1");
    let mut out = Vec::new();
    while k > 0 {
        #[expect(
            clippy::expect_used,
            reason = "`caps` ends at 1 by documented contract (debug-asserted above), so the find always succeeds"
        )]
        let c = *caps.iter().find(|&&c| c <= k).expect("caps end at 1");
        out.push(c);
        k -= c;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_chunks_cover_any_k() {
        assert_eq!(batch_chunks(11, &[8, 4, 2, 1]), vec![8, 2, 1]);
        assert_eq!(batch_chunks(7, &[4, 2, 1]), vec![4, 2, 1]);
        for k in 1..40 {
            for caps in [&[8usize, 4, 2, 1][..], &[4, 2, 1][..], &[1][..]] {
                let chunks = batch_chunks(k, caps);
                assert_eq!(chunks.iter().sum::<usize>(), k);
                assert!(chunks.windows(2).all(|w| w[0] >= w[1]));
            }
        }
    }

    fn assert_covers(ranges: &[Range<usize>], n: usize) {
        let mut next = 0;
        for r in ranges {
            assert_eq!(r.start, next, "ranges must be contiguous");
            assert!(r.end >= r.start);
            next = r.end;
        }
        assert_eq!(next, n, "ranges must cover all items");
    }

    #[test]
    fn even_chunks_cover_and_balance() {
        for n in [0usize, 1, 7, 16, 100] {
            for k in [1usize, 2, 3, 8] {
                let r = even_chunks(n, k);
                assert_eq!(r.len(), k);
                assert_covers(&r, n);
                let max = r.iter().map(|r| r.len()).max().unwrap();
                let min = r.iter().map(|r| r.len()).min().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn prefix_split_balances_skewed_weights() {
        // One heavy item among light ones.
        let weights = [1usize, 1, 1, 100, 1, 1, 1, 1];
        let ranges = split_by_weights(&weights, 4);
        assert_eq!(ranges.len(), 4);
        assert_covers(&ranges, weights.len());
        // The heavy item must sit alone-ish: no range except its own should
        // exceed ~total/4 + heaviest bound.
        let total: usize = weights.iter().sum();
        for r in &ranges {
            let w: usize = weights[r.start..r.end].iter().sum();
            assert!(w <= total / 4 + 100);
        }
    }

    #[test]
    fn prefix_split_uniform_matches_even() {
        let weights = vec![3usize; 12];
        let ranges = split_by_weights(&weights, 4);
        assert_eq!(
            ranges,
            vec![0..3, 3..6, 6..9, 9..12],
            "uniform weights give even chunks"
        );
    }

    /// The view-group nonzeros of the 512² CT matrix at the static
    /// heuristic parameters. CSCV-Z has two groups, the lighter first:
    /// each thread gets one. CSCV-M's four split two and two.
    #[test]
    fn ct512_view_groups_split_evenly_across_two_threads() {
        assert_eq!(
            split_by_weights(&[8_808_536, 9_495_152], 2),
            vec![0..1, 1..2]
        );
        assert_eq!(
            split_by_weights(&[4_304_998, 4_503_538, 4_675_674, 4_819_478], 2),
            vec![0..2, 2..4]
        );
    }

    /// Cutting where the prefix first reaches `t·total/k` would give
    /// `[0..2, 2..2]` (max 11) and `[0..1, 1..4, 4..4]` (max 12).
    #[test]
    fn heaviest_range_is_the_lightest_possible() {
        assert_eq!(split_by_weights(&[1, 10], 2), vec![0..1, 1..2]);
        assert_eq!(split_by_weights(&[10, 1, 1, 10], 3), vec![0..1, 1..3, 3..4]);
    }

    #[test]
    fn more_threads_than_items() {
        let weights = [5usize, 5];
        let ranges = split_by_weights(&weights, 5);
        assert_eq!(ranges.len(), 5);
        assert_covers(&ranges, 2);
        let nonempty = ranges.iter().filter(|r| !r.is_empty()).count();
        assert!(nonempty <= 2);
    }

    #[test]
    fn empty_items() {
        let ranges = split_by_prefix(&[0], 3);
        assert_eq!(ranges.len(), 3);
        assert_covers(&ranges, 0);
    }

    #[test]
    fn zero_weight_items_allowed() {
        let weights = [0usize, 0, 4, 0, 4, 0];
        let ranges = split_by_weights(&weights, 2);
        assert_covers(&ranges, 6);
        let w0: usize = weights[ranges[0].clone()].iter().sum();
        let w1: usize = weights[ranges[1].clone()].iter().sum();
        assert_eq!(w0 + w1, 8);
        assert_eq!(w0, 4);
    }

    #[test]
    fn range_weight_reads_prefix() {
        let prefix = [0usize, 2, 5, 9];
        assert_eq!(range_weight(&prefix, &(0..3)), 9);
        assert_eq!(range_weight(&prefix, &(1..2)), 3);
        assert_eq!(range_weight(&prefix, &(2..2)), 0);
    }
}
