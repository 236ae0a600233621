//! Compressed Sparse Column storage.
//!
//! The column-major compressed format (paper Alg. 1). For integral-equation
//! workloads CSC is the natural input of the CSCV builder: a column is a
//! pixel's full projection trajectory.

use crate::coo::Coo;
use crate::csr::Csr;
use cscv_simd::Scalar;

/// CSC sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Csc<T> {
    n_rows: usize,
    n_cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    vals: Vec<T>,
}

impl<T: Scalar> Csc<T> {
    /// Build from raw arrays (validated like [`Csr::from_parts`]).
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<u32>,
        vals: Vec<T>,
    ) -> Self {
        assert!(
            n_rows <= u32::MAX as usize && n_cols <= u32::MAX as usize,
            "dimensions {n_rows}x{n_cols} exceed the u32 index range"
        );
        assert_eq!(col_ptr.len(), n_cols + 1, "col_ptr length");
        assert_eq!(row_idx.len(), vals.len(), "row/val length mismatch");
        assert_eq!(*col_ptr.first().unwrap_or(&0), 0, "col_ptr[0] must be 0");
        assert_eq!(*col_ptr.last().unwrap_or(&0), vals.len(), "col_ptr end");
        for c in 0..n_cols {
            assert!(col_ptr[c] <= col_ptr[c + 1], "col_ptr not monotone at {c}");
            let rows = &row_idx[col_ptr[c]..col_ptr[c + 1]];
            for w in rows.windows(2) {
                assert!(w[0] < w[1], "rows not strictly sorted in col {c}");
            }
            if let Some(&last) = rows.last() {
                assert!((last as usize) < n_rows, "row {last} out of bounds");
            }
        }
        Csc {
            n_rows,
            n_cols,
            col_ptr,
            row_idx,
            vals,
        }
    }

    /// Build from a column-major sorted, deduplicated COO.
    pub(crate) fn from_col_sorted_coo(coo: &Coo<T>) -> Self {
        let n_cols = coo.n_cols();
        let mut col_ptr = vec![0usize; n_cols + 1];
        for &(_, c, _) in coo.entries() {
            col_ptr[c as usize + 1] += 1;
        }
        for c in 0..n_cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        let row_idx = coo.entries().iter().map(|e| e.0).collect();
        let vals = coo.entries().iter().map(|e| e.2).collect();
        Csc {
            n_rows: coo.n_rows(),
            n_cols,
            col_ptr,
            row_idx,
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

    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    pub fn row_idx(&self) -> &[u32] {
        &self.row_idx
    }

    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    /// Row indices and values of one column.
    #[inline]
    pub fn col(&self, c: usize) -> (&[u32], &[T]) {
        let lo = self.col_ptr[c];
        let hi = self.col_ptr[c + 1];
        (&self.row_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Bytes of the stored matrix data (`M(A)`).
    pub fn matrix_bytes(&self) -> usize {
        self.col_ptr.len() * std::mem::size_of::<usize>()
            + self.row_idx.len() * 4
            + self.vals.len() * T::BYTES
    }

    /// Serial SpMV (paper Alg. 1): `y = A x` with scattered updates.
    pub fn spmv_serial(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        y.fill(T::ZERO);
        for (c, &xc) in x.iter().enumerate() {
            let (rows, vals) = self.col(c);
            for (r, v) in rows.iter().zip(vals) {
                y[*r as usize] = v.mul_add(xc, y[*r as usize]);
            }
        }
    }

    /// Serial transpose SpMV: `y = Aᵀ x` (gather form — each output
    /// element is a dot product of a column with `x`).
    pub fn spmv_transpose_serial(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.n_rows);
        assert_eq!(y.len(), self.n_cols);
        for (c, yc) in y.iter_mut().enumerate() {
            let (rows, vals) = self.col(c);
            let mut acc = T::ZERO;
            for (r, v) in rows.iter().zip(vals) {
                acc = v.mul_add(x[*r as usize], acc);
            }
            *yc = acc;
        }
    }

    /// Convert to CSR (a transpose of the column-compressed arrays, on
    /// every core).
    pub fn to_csr(&self) -> Csr<T> {
        let (ptr, idx, vals) = crate::csr::transpose_arrays(
            self.n_rows,
            &self.col_ptr,
            &self.row_idx,
            &self.vals,
            crate::ThreadPool::max_parallelism(),
        );
        let csr = Csr::from_parts(self.n_rows, self.n_cols, ptr, idx, vals);
        crate::invariants::assert_csr(&csr, "Csc::to_csr");
        csr
    }

    /// Convert to COO (column-major sorted).
    pub fn to_coo(&self) -> Coo<T> {
        let mut coo = Coo::new(self.n_rows, self.n_cols);
        for c in 0..self.n_cols {
            let (rows, vals) = self.col(c);
            for (r, v) in rows.iter().zip(vals) {
                coo.push(*r as usize, c, *v);
            }
        }
        crate::invariants::assert_coo(&coo, "Csc::to_coo");
        coo
    }

    /// Per-column nonzero counts (paper property P3: near-uniform for
    /// integral-operator matrices).
    pub fn col_lengths(&self) -> Vec<usize> {
        (0..self.n_cols)
            .map(|c| self.col_ptr[c + 1] - self.col_ptr[c])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csc<f64> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(2, 0, 3.0);
        coo.push(2, 1, 4.0);
        coo.to_csc()
    }

    #[test]
    fn structure_from_coo() {
        let m = sample();
        assert_eq!(m.col_ptr(), &[0, 2, 3, 4]);
        assert_eq!(m.row_idx(), &[0, 2, 2, 0]);
        assert_eq!(m.vals(), &[1.0, 3.0, 4.0, 2.0]);
    }

    #[test]
    fn spmv_matches_reference() {
        let m = sample();
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![5.0; 3];
        m.spmv_serial(&x, &mut y);
        assert_eq!(y, vec![7.0, 0.0, 11.0]);
    }

    #[test]
    fn transpose_spmv() {
        let m = sample();
        let x = vec![1.0, 5.0, -2.0];
        let mut y = vec![0.0; 3];
        m.spmv_transpose_serial(&x, &mut y);
        assert_eq!(y, vec![1.0 - 6.0, -8.0, 2.0]);
    }

    #[test]
    fn csr_csc_roundtrip() {
        let m = sample();
        let csr = m.to_csr();
        let back = csr.to_csc();
        assert_eq!(m, back);
        // And both agree with COO.
        assert_eq!(m.to_coo().to_dense(), csr.to_coo().to_dense());
    }

    #[test]
    fn col_access_and_lengths() {
        let m = sample();
        let (rows, vals) = m.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 3.0]);
        assert_eq!(m.col_lengths(), vec![2, 1, 1]);
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_unsorted_rows() {
        let _ = Csc::from_parts(3, 1, vec![0, 2], vec![2, 0], vec![1.0f32, 2.0]);
    }

    #[test]
    fn empty_columns() {
        let mut coo: Coo<f32> = Coo::new(3, 4);
        coo.push(1, 2, 7.0);
        let m = coo.to_csc();
        assert_eq!(m.col_lengths(), vec![0, 0, 1, 0]);
        let mut y = vec![0.0f32; 3];
        m.spmv_serial(&[1.0, 1.0, 2.0, 1.0], &mut y);
        assert_eq!(y, vec![0.0, 14.0, 0.0]);
    }
}
