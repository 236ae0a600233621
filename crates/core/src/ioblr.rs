//! IOBLR — Integral-Operator-Based Local Reordering (paper §IV-C).
//!
//! Within one block (pixel tile × view group), the projection
//! trajectories of all pixels are treated as a bunch of piecewise
//! parallel curves. The *reference curve* `r(v)` — the minimum-bin curve
//! of the tile's center pixel — fixes the shape of the family; every
//! nonzero `(view v, bin b)` is re-addressed as
//! *(curve offset `c = b − r(v)`, position `v` along the curve)*.
//! Because neighboring pixels' curves are near-parallel to the
//! reference (P1/P2), each column occupies only a few offsets, and the
//! nonzeros at one offset form a dense `S_VVec`-lane vector — a CSCVE.
//!
//! The reference curve is **data-driven**: read directly off the
//! reference column's nonzeros, with linear interpolation across views
//! where the reference pixel has no nonzero (e.g. footprint off the
//! detector edge). This keeps the builder independent of any particular
//! projector model.

use cscv_sparse::{Csc, Scalar};
use std::ops::Range;

use crate::layout::SinoLayout;

/// Reference curve of one block: `r(v)` for each local view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefCurve {
    bins: Vec<i64>,
}

impl RefCurve {
    /// Build from per-view minimum bins, interpolating missing views.
    /// Returns `None` when no view has a bin (the reference column is
    /// empty in this block — callers fall back to another column).
    pub fn from_min_bins(min_bins: &[Option<u32>]) -> Option<RefCurve> {
        if min_bins.iter().all(|b| b.is_none()) {
            return None;
        }
        let n = min_bins.len();
        let mut bins = vec![0i64; n];
        // Defined views with their bins.
        let defined: Vec<(usize, u32)> = min_bins
            .iter()
            .enumerate()
            .filter_map(|(v, b)| b.map(|b| (v, b)))
            .collect();
        for v in 0..n {
            bins[v] = match min_bins[v] {
                Some(b) => b as i64,
                None => {
                    // Nearest defined neighbors on each side.
                    let left = defined.iter().rev().find(|&&(d, _)| d < v);
                    let right = defined.iter().find(|&&(d, _)| d > v);
                    match (left, right) {
                        #[expect(
                            clippy::cast_possible_truncation,
                            reason = "the value lies between two u32 bins"
                        )]
                        (Some(&(l, bl)), Some(&(r, br))) => {
                            let (bl, br) = (bl as f64, br as f64);
                            let t = (v - l) as f64 / (r - l) as f64;
                            (bl + t * (br - bl)).round() as i64
                        }
                        (Some(&(_, b)), None) | (None, Some(&(_, b))) => b as i64,
                        (None, None) => unreachable!("at least one defined"),
                    }
                }
            };
        }
        // Postcondition feeding invariant CSCV-PERM: the curve must
        // reproduce every defined view's minimum bin exactly, or the
        // offset re-addressing downstream shifts whole columns.
        if cfg!(debug_assertions) {
            for (v, mb) in min_bins.iter().enumerate() {
                if let Some(b) = mb {
                    assert_eq!(
                        bins[v], *b as i64,
                        "RefCurve::from_min_bins: defined view {v} not mapped exactly"
                    );
                }
            }
        }
        Some(RefCurve { bins })
    }

    /// Explicit curve (tests, geometric fallbacks).
    pub fn from_bins(bins: Vec<i64>) -> RefCurve {
        RefCurve { bins }
    }

    /// Reference bin at local view `v`.
    #[inline]
    pub fn bin(&self, v: usize) -> i64 {
        self.bins[v]
    }

    /// Number of local views.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Curve offset of a nonzero at `(local view, bin)`.
    #[inline]
    pub fn offset(&self, v: usize, bin: u32) -> i64 {
        bin as i64 - self.bins[v]
    }
}

/// Per-view minimum bin of one column inside a view range (the raw
/// material of a data-driven reference curve).
pub fn min_bin_per_view<T: Scalar>(
    csc: &Csc<T>,
    layout: &SinoLayout,
    col: usize,
    views: &Range<usize>,
) -> Vec<Option<u32>> {
    let mut out = vec![None; views.len()];
    let (rows, _) = csc.col(col);
    // Rows are sorted; the block's rows form one contiguous span.
    let lo = rows.partition_point(|&r| (r as usize) < views.start * layout.n_bins);
    let hi = rows.partition_point(|&r| (r as usize) < views.end * layout.n_bins);
    for &row in &rows[lo..hi] {
        let (v, b) = layout.ray_of_row(row as usize);
        #[expect(
            clippy::cast_possible_truncation,
            reason = "b is the bin of a u32 row id, so b <= row <= u32::MAX"
        )]
        let b = b as u32;
        let slot = &mut out[v - views.start];
        match slot {
            Some(prev) => {
                if b < *prev {
                    *slot = Some(b);
                }
            }
            None => *slot = Some(b),
        }
    }
    out
}

/// Padding profile of one block under a candidate reference curve — the
/// quantities of the paper's Fig. 5 (zero padding, CSCVE count, bin
/// offsets per reference-pixel choice).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPaddingStats {
    /// Original nonzeros in the block.
    pub nnz: usize,
    /// CSCVE lane slots = `n_cscve · S_VVec` (zero padding = slots − nnz).
    pub cscve_slots: usize,
    /// Number of CSCVEs.
    pub n_cscve: usize,
    /// Range of curve offsets used by any column.
    pub offset_min: i64,
    pub offset_max: i64,
}

impl BlockPaddingStats {
    /// Padding zeros introduced by IOBLR.
    pub fn padding(&self) -> usize {
        self.cscve_slots - self.nnz
    }
}

/// Compute the padding profile of a block: `cols_entries[j]` holds column
/// `j`'s `(local view, bin)` nonzero positions; `s_vvec` is the lane
/// count.
pub fn block_stats_for_curve(
    cols_entries: &[Vec<(u32, u32)>],
    curve: &RefCurve,
    s_vvec: usize,
) -> BlockPaddingStats {
    let mut nnz = 0usize;
    let mut n_cscve = 0usize;
    let mut offset_min = i64::MAX;
    let mut offset_max = i64::MIN;
    for entries in cols_entries {
        if entries.is_empty() {
            continue;
        }
        nnz += entries.len();
        let mut c_min = i64::MAX;
        let mut c_max = i64::MIN;
        for &(v, b) in entries {
            let c = curve.offset(v as usize, b);
            c_min = c_min.min(c);
            c_max = c_max.max(c);
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "c_min <= c_max, and the span is at most n_bins"
        )]
        let span = (c_max - c_min + 1) as usize;
        n_cscve += span;
        offset_min = offset_min.min(c_min);
        offset_max = offset_max.max(c_max);
    }
    if nnz == 0 {
        return BlockPaddingStats {
            nnz: 0,
            cscve_slots: 0,
            n_cscve: 0,
            offset_min: 0,
            offset_max: 0,
        };
    }
    BlockPaddingStats {
        nnz,
        cscve_slots: n_cscve * s_vvec,
        n_cscve,
        offset_min,
        offset_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscv_sparse::Coo;

    #[test]
    fn curve_from_complete_bins() {
        let c = RefCurve::from_min_bins(&[Some(3), Some(4), Some(5)]).unwrap();
        assert_eq!(c.bin(0), 3);
        assert_eq!(c.bin(2), 5);
        assert_eq!(c.offset(1, 6), 2);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn curve_interpolates_gaps() {
        let c = RefCurve::from_min_bins(&[Some(2), None, None, Some(8)]).unwrap();
        assert_eq!(c.bin(0), 2);
        assert_eq!(c.bin(1), 4);
        assert_eq!(c.bin(2), 6);
        assert_eq!(c.bin(3), 8);
    }

    #[test]
    fn curve_extrapolates_edges_flat() {
        let c = RefCurve::from_min_bins(&[None, Some(5), None]).unwrap();
        assert_eq!(c.bin(0), 5);
        assert_eq!(c.bin(2), 5);
    }

    #[test]
    fn all_missing_gives_none() {
        assert!(RefCurve::from_min_bins(&[None, None]).is_none());
    }

    #[test]
    fn min_bins_from_matrix() {
        // 2 views × 4 bins, one column with nonzeros at (v0,b2),(v0,b3),(v1,b1).
        let layout = SinoLayout {
            n_views: 2,
            n_bins: 4,
        };
        let mut coo: Coo<f64> = Coo::new(8, 1);
        coo.push(layout.row_index(0, 2), 0, 1.0);
        coo.push(layout.row_index(0, 3), 0, 1.0);
        coo.push(layout.row_index(1, 1), 0, 1.0);
        let csc = coo.to_csc();
        let bins = min_bin_per_view(&csc, &layout, 0, &(0..2));
        assert_eq!(bins, vec![Some(2), Some(1)]);
        // Restricted to view 1 only.
        let bins1 = min_bin_per_view(&csc, &layout, 0, &(1..2));
        assert_eq!(bins1, vec![Some(1)]);
    }

    #[test]
    fn stats_perfectly_parallel_columns() {
        // Two columns whose trajectories are exactly the curve and the
        // curve shifted by +1: one CSCVE each, zero padding.
        let curve = RefCurve::from_bins(vec![4, 5, 6, 7]);
        let col0: Vec<(u32, u32)> = (0..4).map(|v| (v, 4 + v)).collect();
        let col1: Vec<(u32, u32)> = (0..4).map(|v| (v, 5 + v)).collect();
        let st = block_stats_for_curve(&[col0, col1], &curve, 4);
        assert_eq!(st.nnz, 8);
        assert_eq!(st.n_cscve, 2);
        assert_eq!(st.padding(), 0);
        assert_eq!((st.offset_min, st.offset_max), (0, 1));
    }

    #[test]
    fn stats_with_imperfect_parallelism() {
        // One column drifts ±1 around the curve ⇒ needs 2 offsets with
        // half the lanes padded.
        let curve = RefCurve::from_bins(vec![0, 0, 0, 0]);
        let col: Vec<(u32, u32)> = vec![(0, 0), (1, 1), (2, 0), (3, 1)];
        let st = block_stats_for_curve(&[col], &curve, 4);
        assert_eq!(st.nnz, 4);
        assert_eq!(st.n_cscve, 2);
        assert_eq!(st.cscve_slots, 8);
        assert_eq!(st.padding(), 4);
    }

    #[test]
    fn stats_empty_block() {
        let curve = RefCurve::from_bins(vec![0; 4]);
        let st = block_stats_for_curve(&[vec![], vec![]], &curve, 8);
        assert_eq!(st.nnz, 0);
        assert_eq!(st.padding(), 0);
    }
}
