//! Matrix structure statistics.
//!
//! Used by the dataset table (paper Table II), by the CSCV parameter
//! heuristics, and to verify the paper's property **P3** (integral
//! operators give near-uniform per-column nonzero counts) on generated
//! matrices.

use crate::csr::Csr;
use cscv_simd::Scalar;

/// Summary statistics of a distribution of counts.
#[derive(Debug, Clone, PartialEq)]
pub struct CountStats {
    pub min: usize,
    pub max: usize,
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Coefficient of variation (`std_dev / mean`, 0 when mean is 0).
    pub cv: f64,
}

impl CountStats {
    /// Compute from raw counts. Empty input gives all-zero stats.
    pub fn from_counts(counts: &[usize]) -> Self {
        let (Some(&min), Some(&max)) = (counts.iter().min(), counts.iter().max()) else {
            return CountStats {
                min: 0,
                max: 0,
                mean: 0.0,
                std_dev: 0.0,
                cv: 0.0,
            };
        };
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<usize>() as f64 / n;
        let var = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / n;
        let std_dev = var.sqrt();
        let cv = if mean > 0.0 { std_dev / mean } else { 0.0 };
        CountStats {
            min,
            max,
            mean,
            std_dev,
            cv,
        }
    }
}

/// Structural profile of a sparse matrix.
#[derive(Debug, Clone)]
pub struct MatrixProfile {
    pub n_rows: usize,
    pub n_cols: usize,
    pub nnz: usize,
    /// Fraction of entries that are nonzero.
    pub density: f64,
    pub row_stats: CountStats,
    pub col_stats: CountStats,
    /// Rows with no nonzeros.
    pub empty_rows: usize,
    /// Columns with no nonzeros.
    pub empty_cols: usize,
}

impl MatrixProfile {
    pub fn from_csr<T: Scalar>(m: &Csr<T>) -> Self {
        let row_lengths = m.row_lengths();
        let mut col_lengths = vec![0usize; m.n_cols()];
        for &c in m.col_idx() {
            col_lengths[c as usize] += 1;
        }
        let cells = m.n_rows() as f64 * m.n_cols() as f64;
        MatrixProfile {
            n_rows: m.n_rows(),
            n_cols: m.n_cols(),
            nnz: m.nnz(),
            density: if cells > 0.0 {
                m.nnz() as f64 / cells
            } else {
                0.0
            },
            empty_rows: row_lengths.iter().filter(|&&l| l == 0).count(),
            empty_cols: col_lengths.iter().filter(|&&l| l == 0).count(),
            row_stats: CountStats::from_counts(&row_lengths),
            col_stats: CountStats::from_counts(&col_lengths),
        }
    }

    /// Paper P3 check: per-column nnz is "similar". We quantify as a
    /// coefficient of variation over *non-empty* columns below `max_cv`.
    pub fn p3_holds(&self, _max_cv: f64) -> bool {
        self.col_stats.cv <= _max_cv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    #[test]
    fn count_stats_basics() {
        let s = CountStats::from_counts(&[2, 2, 2, 2]);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.cv, 0.0);
    }

    #[test]
    fn count_stats_spread() {
        let s = CountStats::from_counts(&[0, 4]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.std_dev, 2.0);
        assert_eq!(s.cv, 1.0);
    }

    #[test]
    fn empty_counts() {
        let s = CountStats::from_counts(&[]);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.cv, 0.0);
    }

    #[test]
    fn profile_of_small_matrix() {
        let mut coo: Coo<f32> = Coo::new(3, 4);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 1.0);
        coo.push(2, 0, 1.0);
        let p = MatrixProfile::from_csr(&coo.to_csr());
        assert_eq!(p.nnz, 3);
        assert_eq!(p.empty_rows, 1);
        assert_eq!(p.empty_cols, 2);
        assert!((p.density - 0.25).abs() < 1e-12);
        assert_eq!(p.row_stats.max, 2);
        assert_eq!(p.col_stats.max, 2);
    }

    #[test]
    fn p3_uniform_matrix() {
        // Diagonal-ish matrix: perfectly uniform columns.
        let mut coo: Coo<f64> = Coo::new(8, 8);
        for i in 0..8 {
            coo.push(i, i, 1.0);
        }
        let p = MatrixProfile::from_csr(&coo.to_csr());
        assert!(p.p3_holds(0.01));
    }
}
