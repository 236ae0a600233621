//! Row-shard partitioning of an assembled matrix.
//!
//! Shards are contiguous row ranges, optionally aligned to a block size
//! (`block_rows = n_bins` keeps CT shards view-aligned so each worker
//! can rebuild a valid [`cscv_core::SinoLayout`] for its slice). Two
//! balancers over per-row nonzero counts:
//!
//! * [`PartitionMethod::Stripe`] — the contiguous split whose heaviest
//!   shard is as light as possible
//!   ([`cscv_sparse::partition::split_by_prefix`]), the same rule the
//!   thread pool uses intra-shard.
//! * [`PartitionMethod::Bisect`] — recursive bisection: split the block
//!   range at the boundary closest to the weighted midpoint, recurse on
//!   both halves. Its heaviest shard is never lighter than stripe's.
//!
//! Both methods guarantee exact coverage and disjointness (contiguous
//! ranges by construction) and the balance bound
//! `max shard nnz ≤ mean + w_max·⌈log₂ k⌉`, where `w_max` is the
//! heaviest indivisible block — verified over the fuzz families in
//! `tests/partition.rs`, along with stripe never being worse than
//! bisect.

use cscv_simd::Scalar;
use cscv_sparse::partition::split_by_prefix;
use cscv_sparse::Csr;
use std::io;
use std::ops::Range;

/// A shard's column-support window `[lo, hi)`: the smallest column
/// range holding every nonzero of the shard (`0..0` when it has none).
/// Adjoint and column-sum replies carry only this slice of a full-width
/// vector — the halo window — so both ends translate through this type:
/// the worker [`trim`](ColWindow::trim)s, the coordinator
/// [`place`](ColWindow::place)s back to full width.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ColWindow {
    pub lo: usize,
    pub hi: usize,
}

impl ColWindow {
    /// The window of a shard's column indices.
    pub fn of(csr: &Csr<f64>) -> ColWindow {
        let lo = csr.col_idx().iter().min().map_or(0, |&c| c as usize);
        let hi = csr.col_idx().iter().max().map_or(0, |&c| c as usize + 1);
        ColWindow { lo, hi }
    }

    /// A window announced by a worker, checked against the matrix width.
    pub fn new(lo: u64, hi: u64, n_cols: usize) -> io::Result<ColWindow> {
        match (usize::try_from(lo), usize::try_from(hi)) {
            (Ok(lo), Ok(hi)) if lo <= hi && hi <= n_cols => Ok(ColWindow { lo, hi }),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("column window [{lo}, {hi}) outside 0..{n_cols}"),
            )),
        }
    }

    pub fn width(&self) -> usize {
        self.hi - self.lo
    }

    /// This window's slice of a full-width vector.
    pub fn trim<'a>(&self, full: &'a [f64]) -> &'a [f64] {
        &full[self.lo..self.hi]
    }

    /// Expand a reply trimmed to this window back to `n_cols` wide,
    /// rejecting one whose `col_lo` or length disagrees with the window.
    pub fn place(&self, col_lo: u64, part: &[f64], n_cols: usize) -> io::Result<Vec<f64>> {
        if col_lo != self.lo as u64 || part.len() != self.width() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "reply window at {col_lo} of width {} does not match [{}, {})",
                    part.len(),
                    self.lo,
                    self.hi
                ),
            ));
        }
        let mut full = vec![0.0; n_cols];
        full[self.lo..self.hi].copy_from_slice(part);
        Ok(full)
    }
}

/// How shard boundaries are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionMethod {
    /// The contiguous split whose heaviest shard is lightest.
    #[default]
    Stripe,
    /// Recursive bisection over block weights.
    Bisect,
}

impl PartitionMethod {
    /// Stable name (reports, NDJSON).
    pub fn name(self) -> &'static str {
        match self {
            PartitionMethod::Stripe => "stripe",
            PartitionMethod::Bisect => "bisect",
        }
    }
}

/// A row-shard partition: contiguous, disjoint ranges covering every
/// row, each aligned to `block_rows`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// One row range per shard, in row order. Trailing ranges may be
    /// empty when there are more shards than blocks.
    pub ranges: Vec<Range<usize>>,
    /// Indivisible row-block size the boundaries are aligned to
    /// (`n_bins` for view-aligned CT shards, 1 for general matrices).
    pub block_rows: usize,
}

impl ShardPlan {
    /// Partition `row_nnz.len()` rows into `n_shards` contiguous shards
    /// balanced by nonzero count.
    ///
    /// # Panics
    /// If `n_shards == 0`, `block_rows == 0`, or the row count is not a
    /// multiple of `block_rows`.
    pub fn new(
        row_nnz: &[usize],
        n_shards: usize,
        block_rows: usize,
        method: PartitionMethod,
    ) -> ShardPlan {
        assert!(n_shards >= 1, "need at least one shard");
        assert!(block_rows >= 1, "block_rows must be positive");
        assert_eq!(
            row_nnz.len() % block_rows,
            0,
            "row count {} not a multiple of block_rows {}",
            row_nnz.len(),
            block_rows
        );
        let n_blocks = row_nnz.len() / block_rows;
        // Aggregate per-block weights (a block is the indivisible unit).
        let mut prefix = Vec::with_capacity(n_blocks + 1);
        prefix.push(0usize);
        let mut acc = 0usize;
        for b in 0..n_blocks {
            acc += row_nnz[b * block_rows..(b + 1) * block_rows]
                .iter()
                .sum::<usize>();
            prefix.push(acc);
        }
        let block_ranges = match method {
            PartitionMethod::Stripe => split_by_prefix(&prefix, n_shards),
            PartitionMethod::Bisect => {
                let mut out = Vec::with_capacity(n_shards);
                bisect(&prefix, 0..n_blocks, n_shards, &mut out);
                out
            }
        };
        let ranges = block_ranges
            .into_iter()
            .map(|r| r.start * block_rows..r.end * block_rows)
            .collect();
        ShardPlan { ranges, block_rows }
    }

    /// Number of shards (including empty trailing ones).
    pub fn n_shards(&self) -> usize {
        self.ranges.len()
    }

    /// Per-shard nonzero counts under `row_nnz`.
    pub fn shard_nnz(&self, row_nnz: &[usize]) -> Vec<usize> {
        self.ranges
            .iter()
            .map(|r| row_nnz[r.clone()].iter().sum())
            .collect()
    }

    /// Load imbalance: max shard nnz over mean shard nnz (1.0 is
    /// perfect; empty matrices report 1.0).
    pub fn imbalance(&self, row_nnz: &[usize]) -> f64 {
        let loads = self.shard_nnz(row_nnz);
        let total: usize = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / loads.len() as f64;
        loads.iter().copied().max().unwrap_or(0) as f64 / mean
    }

    /// True iff every shard boundary falls on a multiple of
    /// `block_rows` (always true for plans built by [`ShardPlan::new`]).
    pub fn is_block_aligned(&self) -> bool {
        self.ranges
            .iter()
            .all(|r| r.start % self.block_rows == 0 && r.end % self.block_rows == 0)
    }
}

/// Recursive bisection: split `blocks` into `k` ranges, choosing each
/// boundary as the block edge closest to the weighted midpoint
/// (weighted by the left subtree's shard count).
fn bisect(prefix: &[usize], blocks: Range<usize>, k: usize, out: &mut Vec<Range<usize>>) {
    if k == 1 {
        out.push(blocks);
        return;
    }
    let kl = k / 2;
    let total = prefix[blocks.end] - prefix[blocks.start];
    let target = prefix[blocks.start] + (total as u128 * kl as u128 / k as u128) as usize;
    // Candidate boundaries bracket the target; pick the closer block
    // edge within [blocks.start, blocks.end].
    let hi = (blocks.start + prefix[blocks.start..=blocks.end].partition_point(|&w| w < target))
        .min(blocks.end);
    let lo = hi.saturating_sub(1).max(blocks.start);
    let split = if prefix[hi].abs_diff(target) <= prefix[lo].abs_diff(target) {
        hi
    } else {
        lo
    };
    bisect(prefix, blocks.start..split, kl, out);
    bisect(prefix, split..blocks.end, k - kl, out);
}

/// Extract the shard sub-matrix for a row range: rows `range` of `csr`
/// with the full column width (row indices rebased to the shard).
pub fn slice_rows<T: Scalar>(csr: &Csr<T>, range: Range<usize>) -> Csr<T> {
    assert!(range.end <= csr.n_rows(), "row range out of bounds");
    let lo = csr.row_ptr()[range.start];
    let hi = csr.row_ptr()[range.end];
    let row_ptr: Vec<usize> = csr.row_ptr()[range.start..=range.end]
        .iter()
        .map(|&p| p - lo)
        .collect();
    Csr::from_parts(
        range.len(),
        csr.n_cols(),
        row_ptr,
        csr.col_idx()[lo..hi].to_vec(),
        csr.vals()[lo..hi].to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscv_sparse::Coo;

    fn covers(plan: &ShardPlan, n_rows: usize) {
        let mut next = 0;
        for r in &plan.ranges {
            assert_eq!(r.start, next, "shards must be contiguous");
            assert!(r.end >= r.start);
            next = r.end;
        }
        assert_eq!(next, n_rows, "shards must cover every row");
        assert!(plan.is_block_aligned());
    }

    #[test]
    fn stripe_and_bisect_cover_all_rows() {
        let row_nnz = [3usize, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8];
        for k in 1..=6 {
            for m in [PartitionMethod::Stripe, PartitionMethod::Bisect] {
                let plan = ShardPlan::new(&row_nnz, k, 1, m);
                assert_eq!(plan.n_shards(), k);
                covers(&plan, row_nnz.len());
                let total: usize = plan.shard_nnz(&row_nnz).iter().sum();
                assert_eq!(total, row_nnz.iter().sum::<usize>());
            }
        }
    }

    #[test]
    fn block_alignment_is_respected() {
        let row_nnz: Vec<usize> = (0..24).map(|i| i % 5 + 1).collect();
        for m in [PartitionMethod::Stripe, PartitionMethod::Bisect] {
            let plan = ShardPlan::new(&row_nnz, 3, 4, m);
            covers(&plan, 24);
            for r in &plan.ranges {
                assert_eq!(r.start % 4, 0);
                assert_eq!(r.end % 4, 0);
            }
        }
    }

    #[test]
    fn bisect_isolates_a_heavy_block() {
        // One dominant block: bisection must not attach it to a large
        // neighbor span.
        let mut row_nnz = vec![1usize; 16];
        row_nnz[7] = 1000;
        let plan = ShardPlan::new(&row_nnz, 4, 1, PartitionMethod::Bisect);
        covers(&plan, 16);
        let loads = plan.shard_nnz(&row_nnz);
        let heavy = loads.iter().copied().max().unwrap();
        assert!(heavy <= 1000 + 4, "heavy shard carries extras: {loads:?}");
    }

    #[test]
    fn more_shards_than_blocks_leaves_trailing_empties() {
        let row_nnz = [5usize, 5];
        for m in [PartitionMethod::Stripe, PartitionMethod::Bisect] {
            let plan = ShardPlan::new(&row_nnz, 5, 1, m);
            covers(&plan, 2);
            let nonempty = plan.ranges.iter().filter(|r| !r.is_empty()).count();
            assert!(nonempty <= 2);
        }
    }

    #[test]
    fn slice_rows_rebases_and_preserves_values() {
        let mut coo = Coo::new(5, 4);
        coo.push(0, 0, 1.0);
        coo.push(1, 2, 2.0);
        coo.push(2, 1, 3.0);
        coo.push(2, 3, 4.0);
        coo.push(4, 0, 5.0);
        let csr = coo.to_csr();
        let s = slice_rows(&csr, 1..3);
        assert_eq!(s.n_rows(), 2);
        assert_eq!(s.n_cols(), 4);
        assert_eq!(s.row_ptr(), &[0, 1, 3]);
        assert_eq!(s.col_idx(), &[2, 1, 3]);
        assert_eq!(s.vals(), &[2.0, 3.0, 4.0]);
        // Empty slice is a valid 0-row matrix.
        let e = slice_rows(&csr, 3..3);
        assert_eq!(e.n_rows(), 0);
        assert_eq!(e.nnz(), 0);
    }

    #[test]
    fn imbalance_of_uniform_rows_is_near_one() {
        let row_nnz = vec![7usize; 64];
        for m in [PartitionMethod::Stripe, PartitionMethod::Bisect] {
            let plan = ShardPlan::new(&row_nnz, 4, 1, m);
            assert!((plan.imbalance(&row_nnz) - 1.0).abs() < 1e-12);
        }
    }
}
