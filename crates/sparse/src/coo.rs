//! Coordinate-format sparse matrix — the interchange format of the suite.
//!
//! Generators (the CT projector, random test matrices) emit COO triplets;
//! every compressed format is built from a sorted, deduplicated [`Coo`].

use crate::csc::Csc;
use crate::csr::Csr;
use cscv_simd::Scalar;

/// A sparse matrix as a list of `(row, col, value)` triplets.
///
/// Indices are `u32` (the paper's largest matrix has 1.75·10⁹ nonzeros but
/// dimensions ≤ 4.2·10⁶, far below `u32::MAX`).
#[derive(Debug, Clone, PartialEq)]
pub struct Coo<T> {
    n_rows: usize,
    n_cols: usize,
    entries: Vec<(u32, u32, T)>,
}

impl<T: Scalar> Coo<T> {
    /// Empty matrix of the given shape.
    ///
    /// # Panics
    /// If either dimension exceeds `u32::MAX`.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        assert!(n_rows <= u32::MAX as usize && n_cols <= u32::MAX as usize);
        Coo {
            n_rows,
            n_cols,
            entries: Vec::new(),
        }
    }

    /// Build from existing triplets (bounds-checked).
    pub fn from_triplets(n_rows: usize, n_cols: usize, entries: Vec<(u32, u32, T)>) -> Self {
        let mut m = Coo::new(n_rows, n_cols);
        for &(r, c, _) in &entries {
            assert!(
                (r as usize) < n_rows && (c as usize) < n_cols,
                "entry ({r},{c}) out of bounds for {n_rows}x{n_cols}"
            );
        }
        m.entries = entries;
        m
    }

    /// Append one entry.
    ///
    /// # Panics
    /// On out-of-bounds indices.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "row < n_rows <= u32::MAX and col < n_cols <= u32::MAX (asserted here and in `new`)"
    )]
    pub fn push(&mut self, row: usize, col: usize, val: T) {
        assert!(row < self.n_rows && col < self.n_cols);
        self.entries.push((row as u32, col as u32, val));
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    pub fn entries(&self) -> &[(u32, u32, T)] {
        &self.entries
    }

    /// Sort row-major (row, then column).
    pub fn sort_row_major(&mut self) {
        self.entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
    }

    /// Sort column-major (column, then row).
    pub fn sort_col_major(&mut self) {
        self.entries.sort_unstable_by_key(|&(r, c, _)| (c, r));
    }

    /// Sum entries that share a coordinate and drop exact zeros.
    /// Leaves the matrix row-major sorted.
    pub fn sum_duplicates(&mut self) {
        self.sort_row_major();
        let mut out: Vec<(u32, u32, T)> = Vec::with_capacity(self.entries.len());
        for &(r, c, v) in &self.entries {
            match out.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => out.push((r, c, v)),
            }
        }
        out.retain(|&(_, _, v)| v != T::ZERO);
        self.entries = out;
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Coo<T> {
        Coo {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            entries: self.entries.iter().map(|&(r, c, v)| (c, r, v)).collect(),
        }
    }

    /// Convert to CSR (duplicates summed).
    pub fn to_csr(&self) -> Csr<T> {
        let mut sorted = self.clone();
        sorted.sum_duplicates();
        let csr = Csr::from_sorted_coo(&sorted);
        crate::invariants::assert_csr(&csr, "Coo::to_csr");
        csr
    }

    /// Convert to CSC (duplicates summed).
    pub fn to_csc(&self) -> Csc<T> {
        let mut sorted = self.clone();
        sorted.sum_duplicates();
        sorted.sort_col_major();
        let csc = Csc::from_col_sorted_coo(&sorted);
        crate::invariants::assert_csc(&csc, "Coo::to_csc");
        csc
    }

    /// Dense row-major image of the matrix (tests / tiny examples only).
    pub fn to_dense(&self) -> Vec<T> {
        let mut d = vec![T::ZERO; self.n_rows * self.n_cols];
        for &(r, c, v) in &self.entries {
            d[r as usize * self.n_cols + c as usize] += v;
        }
        d
    }

    /// Build from a dense row-major image, keeping nonzeros.
    pub fn from_dense(n_rows: usize, n_cols: usize, data: &[T]) -> Self {
        assert_eq!(data.len(), n_rows * n_cols);
        let mut m = Coo::new(n_rows, n_cols);
        for r in 0..n_rows {
            for c in 0..n_cols {
                let v = data[r * n_cols + c];
                if v != T::ZERO {
                    m.push(r, c, v);
                }
            }
        }
        m
    }

    /// Reference SpMV (`y = A x`), used to validate every other kernel.
    pub fn spmv_reference(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        y.fill(T::ZERO);
        for &(r, c, v) in &self.entries {
            y[r as usize] += v * x[c as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Coo<f64> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        let mut m = Coo::new(3, 3);
        m.push(0, 0, 1.0);
        m.push(0, 2, 2.0);
        m.push(2, 0, 3.0);
        m.push(2, 1, 4.0);
        m
    }

    #[test]
    fn push_and_dims() {
        let m = sample();
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 3);
        assert_eq!(m.nnz(), 4);
    }

    #[test]
    #[should_panic]
    fn push_out_of_bounds_panics() {
        let mut m: Coo<f32> = Coo::new(2, 2);
        m.push(2, 0, 1.0);
    }

    #[test]
    #[should_panic]
    fn from_triplets_checks_bounds() {
        let _ = Coo::from_triplets(2, 2, vec![(0u32, 5u32, 1.0f32)]);
    }

    #[test]
    fn duplicates_are_summed_and_zeros_dropped() {
        let mut m: Coo<f64> = Coo::new(2, 2);
        m.push(0, 0, 1.0);
        m.push(0, 0, 2.0);
        m.push(1, 1, 5.0);
        m.push(1, 1, -5.0);
        m.sum_duplicates();
        assert_eq!(m.entries(), &[(0, 0, 3.0)]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.to_dense()[2 * 3], 2.0); // A[0][2] -> T[2][0]
        let back = t.transpose();
        assert_eq!(back.to_dense(), m.to_dense());
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        let m2 = Coo::from_dense(3, 3, &d);
        assert_eq!(m2.to_dense(), d);
        assert_eq!(m2.nnz(), 4);
    }

    #[test]
    fn reference_spmv() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![9.0; 3]; // must be overwritten
        m.spmv_reference(&x, &mut y);
        assert_eq!(y, vec![7.0, 0.0, 11.0]);
    }

    #[test]
    fn sorting_orders() {
        let mut m = sample();
        m.sort_col_major();
        let cols: Vec<u32> = m.entries().iter().map(|e| e.1).collect();
        assert!(cols.windows(2).all(|w| w[0] <= w[1]));
        m.sort_row_major();
        let rows: Vec<u32> = m.entries().iter().map(|e| e.0).collect();
        assert!(rows.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_matrix_works() {
        let m: Coo<f32> = Coo::new(0, 0);
        assert_eq!(m.nnz(), 0);
        let mut y: Vec<f32> = vec![];
        m.spmv_reference(&[], &mut y);
    }
}
