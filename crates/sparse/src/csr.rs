//! Compressed Sparse Row storage.
//!
//! The canonical row-major compressed format (paper Alg. 1's row dual):
//! `row_ptr` offsets, `col_idx`, `vals`. All compressed executors in
//! [`crate::formats`] are constructed from a [`Csr`].

use crate::coo::Coo;
use crate::csc::Csc;
use cscv_simd::Scalar;

/// CSR sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr<T> {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Scalar> Csr<T> {
    /// Build from raw arrays (validated).
    ///
    /// # Panics
    /// On inconsistent array lengths, non-monotone `row_ptr`, or
    /// out-of-bounds / unsorted column indices within a row.
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<T>,
    ) -> Self {
        assert_eq!(row_ptr.len(), n_rows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), vals.len(), "col/val length mismatch");
        assert_eq!(*row_ptr.first().unwrap_or(&0), 0, "row_ptr[0] must be 0");
        assert_eq!(*row_ptr.last().unwrap_or(&0), vals.len(), "row_ptr end");
        for r in 0..n_rows {
            assert!(row_ptr[r] <= row_ptr[r + 1], "row_ptr not monotone at {r}");
            let cols = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "columns not strictly sorted in row {r}");
            }
            if let Some(&last) = cols.last() {
                assert!((last as usize) < n_cols, "col {last} out of bounds");
            }
        }
        Csr {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Build from a row-major sorted, deduplicated COO.
    pub(crate) fn from_sorted_coo(coo: &Coo<T>) -> Self {
        let n_rows = coo.n_rows();
        let mut row_ptr = vec![0usize; n_rows + 1];
        for &(r, _, _) in coo.entries() {
            row_ptr[r as usize + 1] += 1;
        }
        for r in 0..n_rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let col_idx = coo.entries().iter().map(|e| e.1).collect();
        let vals = coo.entries().iter().map(|e| e.2).collect();
        Csr {
            n_rows,
            n_cols: coo.n_cols(),
            row_ptr,
            col_idx,
            vals,
        }
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    /// Column indices and values of one row.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[T]) {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        (&self.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Bytes of the stored matrix data (`M(A)` in the paper's model).
    pub fn matrix_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * 4
            + self.vals.len() * T::BYTES
    }

    /// Serial reference SpMV: `y = A x` (overwrites `y`).
    pub fn spmv_serial(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        for (r, yr) in y.iter_mut().enumerate() {
            let (cols, vals) = self.row(r);
            let mut acc = T::ZERO;
            for (c, v) in cols.iter().zip(vals) {
                acc = v.mul_add(x[*c as usize], acc);
            }
            *yr = acc;
        }
    }

    /// Serial transpose SpMV: `y = Aᵀ x` (overwrites `y`).
    ///
    /// Structurally identical to CSC SpMV on the same arrays; used by the
    /// reconstruction algorithms for the back-projection `Aᵀ`.
    pub fn spmv_transpose_serial(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.n_rows);
        assert_eq!(y.len(), self.n_cols);
        y.fill(T::ZERO);
        for (r, &xr) in x.iter().enumerate() {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                y[*c as usize] = v.mul_add(xr, y[*c as usize]);
            }
        }
    }

    /// Explicit transpose (counting sort; `O(nnz + n)`).
    pub fn transpose(&self) -> Csr<T> {
        let mut row_ptr = vec![0usize; self.n_cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for c in 0..self.n_cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut cursor = row_ptr.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut vals = vec![T::ZERO; self.nnz()];
        for r in 0..self.n_rows {
            let (cols, vs) = self.row(r);
            for (c, v) in cols.iter().zip(vs) {
                let dst = cursor[*c as usize];
                col_idx[dst] = r as u32;
                vals[dst] = *v;
                cursor[*c as usize] += 1;
            }
        }
        let t = Csr {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            row_ptr,
            col_idx,
            vals,
        };
        crate::invariants::assert_csr(&t, "Csr::transpose");
        t
    }

    /// Convert to CSC (same matrix, column-compressed).
    pub fn to_csc(&self) -> Csc<T> {
        let t = self.transpose();
        let csc = Csc::from_transposed_csr(t);
        crate::invariants::assert_csc(&csc, "Csr::to_csc");
        csc
    }

    /// Convert back to COO (row-major sorted).
    pub fn to_coo(&self) -> Coo<T> {
        let mut coo = Coo::new(self.n_rows, self.n_cols);
        for r in 0..self.n_rows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                coo.push(r, *c as usize, *v);
            }
        }
        crate::invariants::assert_coo(&coo, "Csr::to_coo");
        coo
    }

    /// Per-row nonzero counts.
    pub fn row_lengths(&self) -> Vec<usize> {
        (0..self.n_rows)
            .map(|r| self.row_ptr[r + 1] - self.row_ptr[r])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f64> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(2, 0, 3.0);
        coo.push(2, 1, 4.0);
        coo.to_csr()
    }

    #[test]
    fn structure_from_coo() {
        let m = sample();
        assert_eq!(m.row_ptr(), &[0, 2, 2, 4]);
        assert_eq!(m.col_idx(), &[0, 2, 0, 1]);
        assert_eq!(m.vals(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn spmv_matches_reference() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        m.spmv_serial(&x, &mut y);
        assert_eq!(y, vec![7.0, 0.0, 11.0]);
    }

    #[test]
    fn transpose_spmv_matches_explicit_transpose() {
        let m = sample();
        let x = vec![1.0, 5.0, -2.0];
        let mut y1 = vec![0.0; 3];
        m.spmv_transpose_serial(&x, &mut y1);
        let mut y2 = vec![0.0; 3];
        m.transpose().spmv_serial(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = sample();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn coo_roundtrip() {
        let m = sample();
        assert_eq!(m.to_coo().to_csr(), m);
    }

    #[test]
    fn row_access_and_lengths() {
        let m = sample();
        let (cols, vals) = m.row(2);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[3.0, 4.0]);
        assert_eq!(m.row_lengths(), vec![2, 0, 2]);
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_unsorted_columns() {
        let _ = Csr::from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0f32, 2.0]);
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_bad_ptr() {
        let _ = Csr::from_parts(2, 2, vec![0, 3, 1], vec![0], vec![1.0f32]);
    }

    #[test]
    fn empty_rows_and_matrix() {
        let m: Csr<f32> = Coo::new(4, 4).to_csr();
        assert_eq!(m.nnz(), 0);
        let mut y = vec![1.0f32; 4];
        m.spmv_serial(&[0.0; 4], &mut y);
        assert_eq!(y, vec![0.0; 4]);
    }

    #[test]
    fn matrix_bytes_counts_all_arrays() {
        let m = sample();
        let expect = 4 * 8 + 4 * 4 + 4 * 8; // ptr(usize) + idx(u32) + vals(f64)
        assert_eq!(m.matrix_bytes(), expect);
    }
}
