//! Structural matrix fingerprints.
//!
//! A fingerprint is the tuner's notion of matrix identity: two matrices
//! with the same fingerprint hash get the same cached configuration,
//! and matrices *near* each other under [`Fingerprint::distance`] may
//! share one via the fallback lookup. The fields are chosen to be the
//! structure the CSCV kernels are actually sensitive to — dimensions
//! and nnz (work volume), per-column/per-row nnz dispersion (paper
//! property P3, which decides padding), empty-column fraction (IOBLR
//! skip behavior) and bandedness (how well P1/P2 hold, which decides
//! how much a large `S_VxG` pads).
//!
//! Values, in contrast, are deliberately excluded: SpMV cost does not
//! depend on them, and excluding them lets one tuning result serve
//! every iteration of a solver whose operator values change.

use cscv_core::SinoLayout;
use cscv_simd::Scalar;
use cscv_sparse::stats::CountStats;
use cscv_sparse::Csc;

/// Structural profile of one (matrix, sinogram layout) pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fingerprint {
    pub n_rows: usize,
    pub n_cols: usize,
    pub n_views: usize,
    pub n_bins: usize,
    pub nnz: usize,
    /// Fraction of cells that are nonzero.
    pub density: f64,
    /// Coefficient of variation of per-column nnz (P3 metric).
    pub col_cv: f64,
    /// Coefficient of variation of per-row nnz.
    pub row_cv: f64,
    /// Fraction of columns with no nonzeros.
    pub empty_col_frac: f64,
    /// Mean per-(column, view) bin span divided by `n_bins`: ≈ 0 for
    /// CT-banded operators (P1/P2 hold), → 1 for unstructured sprinkle.
    pub band_frac: f64,
}

impl Fingerprint {
    /// Profile a CSC matrix under its sinogram layout. `O(nnz)`.
    pub fn compute<T: Scalar>(csc: &Csc<T>, layout: SinoLayout) -> Fingerprint {
        let (n_rows, n_cols, nnz) = (csc.n_rows(), csc.n_cols(), csc.nnz());
        let col_lengths = csc.col_lengths();
        let mut row_lengths = vec![0usize; n_rows];
        for &r in csc.row_idx() {
            row_lengths[r as usize] += 1;
        }
        let col_stats = CountStats::from_counts(&col_lengths);
        let row_stats = CountStats::from_counts(&row_lengths);
        let empty_cols = col_lengths.iter().filter(|&&l| l == 0).count();

        // Bandedness: within a column, row indices are sorted, and
        // row = view·n_bins + bin, so each column's entries arrive
        // view-ordered — one pass tracks the bin span per (col, view).
        let n_bins = layout.n_bins.max(1);
        let mut span_sum = 0usize;
        let mut span_count = 0usize;
        let cp = csc.col_ptr();
        let ri = csc.row_idx();
        for c in 0..n_cols {
            let mut cur_view = usize::MAX;
            let (mut lo, mut hi) = (0usize, 0usize);
            for &r in &ri[cp[c]..cp[c + 1]] {
                let (view, bin) = (r as usize / n_bins, r as usize % n_bins);
                if view != cur_view {
                    if cur_view != usize::MAX {
                        span_sum += hi - lo + 1;
                        span_count += 1;
                    }
                    cur_view = view;
                    lo = bin;
                    hi = bin;
                } else {
                    lo = lo.min(bin);
                    hi = hi.max(bin);
                }
            }
            if cur_view != usize::MAX {
                span_sum += hi - lo + 1;
                span_count += 1;
            }
        }
        let band_frac = if span_count == 0 {
            0.0
        } else {
            (span_sum as f64 / span_count as f64) / n_bins as f64
        };

        let cells = n_rows as f64 * n_cols as f64;
        Fingerprint {
            n_rows,
            n_cols,
            n_views: layout.n_views,
            n_bins: layout.n_bins,
            nnz,
            density: if cells > 0.0 { nnz as f64 / cells } else { 0.0 },
            col_cv: col_stats.cv,
            row_cv: row_stats.cv,
            empty_col_frac: if n_cols > 0 {
                empty_cols as f64 / n_cols as f64
            } else {
                0.0
            },
            band_frac,
        }
    }

    /// Stable 64-bit FNV-1a hash of the quantized fingerprint — the
    /// cache key. Continuous fields are quantized to 1e-4 so a
    /// bit-for-bit identical matrix always rehashes identically while
    /// float noise below measurement relevance cannot split keys.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::new();
        for dim in [
            self.n_rows,
            self.n_cols,
            self.n_views,
            self.n_bins,
            self.nnz,
        ] {
            h.write_u64(dim as u64);
        }
        for f in [
            self.density,
            self.col_cv,
            self.row_cv,
            self.empty_col_frac,
            self.band_frac,
        ] {
            h.write_u64(quantize(f));
        }
        h.finish()
    }

    /// Structural distance to another fingerprint: log-ratio of the
    /// scale fields plus absolute differences of the shape fields,
    /// with bandedness weighted hardest (it is the axis the grid's
    /// pruning keys on). 0 for identical structure; the near-lookup
    /// default threshold is [`crate::cache::NEAR_THRESHOLD`].
    pub fn distance(&self, other: &Fingerprint) -> f64 {
        let log_ratio = |a: usize, b: usize| {
            let (a, b) = (a.max(1) as f64, b.max(1) as f64);
            (a.ln() - b.ln()).abs()
        };
        log_ratio(self.n_rows, other.n_rows)
            + log_ratio(self.n_cols, other.n_cols)
            + log_ratio(self.nnz, other.nnz)
            + (self.col_cv - other.col_cv).abs()
            + (self.row_cv - other.row_cv).abs()
            + 2.0 * (self.empty_col_frac - other.empty_col_frac).abs()
            + 4.0 * (self.band_frac - other.band_frac).abs()
    }
}

/// Quantize a (small, non-negative in practice) float to a hashable
/// integer at 1e-4 resolution.
#[expect(
    clippy::cast_possible_truncation,
    reason = "a hash key, not a value: the float-to-int cast saturates and maps NaN to 0, deterministically"
)]
fn quantize(f: f64) -> u64 {
    (f * 1e4).round() as i64 as u64
}

/// Minimal FNV-1a (64-bit) — the same zero-dependency discipline as the
/// rest of the workspace; collision resistance is irrelevant here, the
/// cache verifies the full fingerprint behind the hash anyway.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscv_harness::gen::{generate, CaseDesc};

    fn fp_of(line: &str) -> Fingerprint {
        let d = CaseDesc::parse(line).unwrap();
        let layout = SinoLayout {
            n_views: d.n_views,
            n_bins: d.n_bins,
        };
        Fingerprint::compute(&generate(&d).to_csc(), layout)
    }

    const BANDED: &str = "kind=ct-banded views=24 bins=24 nx=12 ny=12 imgb=4 vvec=8 vxg=4 seed=9";
    const RANDOM: &str =
        "kind=uniform-random views=24 bins=24 nx=12 ny=12 imgb=4 vvec=8 vxg=4 seed=9";

    #[test]
    fn banded_and_random_structures_are_distinguished() {
        let banded = fp_of(BANDED);
        let random = fp_of(RANDOM);
        // The CT family produces tight per-view bin bands; the sprinkle
        // does not. This is the discriminator the grid pruning uses.
        assert!(banded.band_frac < 0.3, "banded {}", banded.band_frac);
        assert!(random.band_frac > 0.2, "random {}", random.band_frac);
        assert!(random.band_frac > banded.band_frac);
        assert!(banded.distance(&random) > 0.1);
        assert_ne!(banded.hash(), random.hash());
    }

    #[test]
    fn fingerprint_is_deterministic_and_self_distance_zero() {
        let a = fp_of(BANDED);
        let b = fp_of(BANDED);
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
        assert_eq!(a.distance(&b), 0.0);
    }

    #[test]
    fn values_do_not_affect_the_fingerprint() {
        let d = CaseDesc::parse(BANDED).unwrap();
        let layout = SinoLayout {
            n_views: d.n_views,
            n_bins: d.n_bins,
        };
        let csc = generate(&d).to_csc();
        let scaled = Csc::from_parts(
            csc.n_rows(),
            csc.n_cols(),
            csc.col_ptr().to_vec(),
            csc.row_idx().to_vec(),
            csc.vals().iter().map(|v| v * 3.5).collect(),
        );
        assert_eq!(
            Fingerprint::compute(&csc, layout).hash(),
            Fingerprint::compute(&scaled, layout).hash()
        );
    }

    #[test]
    fn empty_matrix_profiles_cleanly() {
        let csc: Csc<f64> = Csc::from_parts(4, 0, vec![0], vec![], vec![]);
        let fp = Fingerprint::compute(
            &csc,
            SinoLayout {
                n_views: 2,
                n_bins: 2,
            },
        );
        assert_eq!(fp.nnz, 0);
        assert_eq!(fp.band_frac, 0.0);
        assert_eq!(fp.empty_col_frac, 0.0);
    }
}
