//! SIMD-efficiency analysis of `y` layouts (paper Fig. 4).
//!
//! For one pixel's nonzeros inside a block, a `W`-lane SIMD vector reads
//! `W` consecutive `y` elements under some layout; its *efficiency* is
//! how many of the pixel's nonzeros that vector covers:
//!
//! * **bin-major** (the raw sinogram order, bin fastest): a vector spans
//!   consecutive bins of one view — it covers only the footprint width
//!   (~3 of 8 lanes in the paper's example);
//! * **view-major** (BTB's transposed order, view fastest): a vector
//!   spans consecutive views of one bin — covers the (variable) run of
//!   views where the trajectory stays in that bin (2–6 of 8);
//! * **IOBLR-major**: a vector spans all views of one parallel-curve
//!   offset — covers nearly every lane (7–8 of 8).
//!
//! [`column_efficiency`] computes the per-vector nonzero counts for a
//! column; the Fig. 4 driver aggregates them over the Table I sample
//! block.

use crate::ioblr::RefCurve;

/// The three `y` orderings compared by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YLayout {
    /// Raw sinogram order (bin varies fastest inside a view).
    BinMajor,
    /// Transposed order used by the Block Transpose Buffer (view varies
    /// fastest inside a bin).
    ViewMajor,
    /// CSCV's parallel-curve order (view varies fastest inside an
    /// offset).
    IoblrMajor,
}

impl std::fmt::Display for YLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            YLayout::BinMajor => write!(f, "bin-major"),
            YLayout::ViewMajor => write!(f, "view-major"),
            YLayout::IoblrMajor => write!(f, "IOBLR-major"),
        }
    }
}

/// Per-SIMD-vector nonzero coverage of one column's block entries
/// (`(local view, bin)` pairs). Each returned number is the nonzero
/// count one `W`-lane vector would service; `W` bounds but does not
/// appear here because groups never exceed the block's view count.
///
/// `curve` is required for [`YLayout::IoblrMajor`].
#[expect(
    clippy::expect_used,
    reason = "documented precondition: IoblrMajor callers pass a curve"
)]
pub fn column_efficiency(
    entries: &[(u32, u32)],
    curve: Option<&RefCurve>,
    layout: YLayout,
) -> Vec<usize> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<i64, usize> = BTreeMap::new();
    for &(v, b) in entries {
        let key = match layout {
            YLayout::BinMajor => v as i64,
            YLayout::ViewMajor => b as i64,
            YLayout::IoblrMajor => {
                let curve = curve.expect("IOBLR layout needs a reference curve");
                curve.offset(v as usize, b)
            }
        };
        *groups.entry(key).or_insert(0) += 1;
    }
    groups.into_values().collect()
}

/// Summary of an efficiency distribution: `(min, max, mean)`.
pub fn summarize(counts: &[usize]) -> (usize, usize, f64) {
    let (Some(&min), Some(&max)) = (counts.iter().min(), counts.iter().max()) else {
        return (0, 0, 0.0);
    };
    let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    (min, max, mean)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A CT-like trajectory over 8 views: 3 contiguous bins per view,
    /// drifting one bin upward every two views (like a sinusoid's slope).
    fn trajectory() -> Vec<(u32, u32)> {
        let mut e = Vec::new();
        for v in 0..8u32 {
            let base = 10 + v / 2;
            for k in 0..3 {
                e.push((v, base + k));
            }
        }
        e
    }

    #[test]
    fn bin_major_covers_footprint_width() {
        let counts = column_efficiency(&trajectory(), None, YLayout::BinMajor);
        // One vector per view, each covering the 3-bin footprint.
        assert_eq!(counts, vec![3; 8]);
    }

    #[test]
    fn view_major_has_variable_runs() {
        let counts = column_efficiency(&trajectory(), None, YLayout::ViewMajor);
        // Bins are shared by variable numbers of views: ranges 2..=6.
        let (min, max, _) = summarize(&counts);
        assert!(min >= 2 && max <= 6, "got {counts:?}");
        assert!(max > min);
    }

    #[test]
    fn ioblr_major_is_nearly_full() {
        // Reference curve = the pixel's own min-bin curve.
        let curve = RefCurve::from_bins((0..8).map(|v| 10 + (v as i64) / 2).collect());
        let counts = column_efficiency(&trajectory(), Some(&curve), YLayout::IoblrMajor);
        // Exactly 3 offsets, each fully dense over 8 views.
        assert_eq!(counts, vec![8, 8, 8]);
    }

    #[test]
    fn ioblr_with_imperfect_curve_still_dominates() {
        // Slightly different reference (off by the drift of a neighbor
        // pixel): coverage drops but stays above the alternatives.
        let curve = RefCurve::from_bins((0..8).map(|v| 10 + ((v as i64) + 1) / 2).collect());
        let counts = column_efficiency(&trajectory(), Some(&curve), YLayout::IoblrMajor);
        let (_, max, mean) = summarize(&counts);
        assert!(max == 8 || max == 7);
        let bin = summarize(&column_efficiency(&trajectory(), None, YLayout::BinMajor)).2;
        assert!(mean > bin);
    }

    #[test]
    fn summarize_empty() {
        assert_eq!(summarize(&[]), (0, 0, 0.0));
    }

    #[test]
    fn layout_names() {
        assert_eq!(YLayout::BinMajor.to_string(), "bin-major");
        assert_eq!(YLayout::ViewMajor.to_string(), "view-major");
        assert_eq!(YLayout::IoblrMajor.to_string(), "IOBLR-major");
    }
}
