//! Compressed Sparse Row storage.
//!
//! The canonical row-major compressed format (paper Alg. 1's row dual):
//! `row_ptr` offsets, `col_idx`, `vals`. All compressed executors in
//! [`crate::formats`] are constructed from a [`Csr`].

use crate::coo::Coo;
use crate::csc::Csc;
use crate::invariants::{validate_csr_parts, Violation};
use crate::partition::even_chunks;
use cscv_simd::Scalar;
use std::ops::Range;

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
    /// Where [`try_from_parts`](Self::try_from_parts) returns an error.
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<T>,
    ) -> Self {
        match Csr::try_from_parts(n_rows, n_cols, row_ptr, col_idx, vals) {
            Ok(csr) => csr,
            #[expect(
                clippy::panic,
                reason = "the panicking constructor is for arrays a conversion built; untrusted input goes through try_from_parts"
            )]
            Err(v) => panic!("Csr::from_parts: {v}"),
        }
    }

    /// Build from raw arrays, or return the first violated invariant:
    /// dimensions beyond the `u32` index range (`IDX-U32`), array
    /// lengths that disagree or a `row_ptr` that does not run
    /// monotonically from 0 to `nnz` (`CSR-PTR`), or column indices
    /// unsorted or out of bounds within a row (`CSR-IDX`). Never
    /// panics; this is the constructor for arrays read from outside.
    pub fn try_from_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        vals: Vec<T>,
    ) -> Result<Self, Violation> {
        let violations = validate_csr_parts(n_rows, n_cols, &row_ptr, &col_idx, vals.len());
        match violations.into_iter().next() {
            Some(v) => Err(v),
            None => Ok(Csr {
                n_rows,
                n_cols,
                row_ptr,
                col_idx,
                vals,
            }),
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

    /// Row and column sums of `|A|` (the SIRT weights), on every core.
    pub fn abs_sums(&self) -> (Vec<T>, Vec<T>) {
        self.abs_sums_in_parts(crate::ThreadPool::max_parallelism())
    }

    /// [`abs_sums`](Self::abs_sums) over at most `parts` parts, each
    /// owning a range of rows and a range of columns. A row sums in
    /// storage order and a column in ascending row order, as a serial
    /// pass over the rows adds them, so the sums do not depend on
    /// `parts`.
    fn abs_sums_in_parts(&self, parts: usize) -> (Vec<T>, Vec<T>) {
        let mut row_sums = vec![T::ZERO; self.n_rows];
        let mut col_sums = vec![T::ZERO; self.n_cols];
        // One part count that both splits reach, with no empty part.
        let parts = parts.min(self.n_rows).min(self.n_cols).max(1);
        let mut jobs = Vec::with_capacity(parts);
        let (mut rows_rest, mut cols_rest) = (&mut row_sums[..], &mut col_sums[..]);
        for (rows, cols) in even_chunks(self.n_rows, parts)
            .into_iter()
            .zip(even_chunks(self.n_cols, parts))
        {
            let (row_part, row_tail) = rows_rest.split_at_mut(rows.len());
            let (col_part, col_tail) = cols_rest.split_at_mut(cols.len());
            (rows_rest, cols_rest) = (row_tail, col_tail);
            jobs.push((rows, row_part, cols, col_part));
        }
        crate::pool::fork_join(jobs, |(rows, row_part, cols, col_part)| {
            for (r, row_sum) in rows.zip(row_part) {
                *row_sum = self.row(r).1.iter().fold(T::ZERO, |acc, v| acc + v.abs());
            }
            for r in 0..self.n_rows {
                let (idx, vals) = self.row(r);
                let lo = idx.partition_point(|&c| (c as usize) < cols.start);
                let hi = idx.partition_point(|&c| (c as usize) < cols.end);
                for (&c, v) in idx[lo..hi].iter().zip(&vals[lo..hi]) {
                    col_part[c as usize - cols.start] += v.abs();
                }
            }
        });
        (row_sums, col_sums)
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

    /// Explicit transpose (counting sort; `O(nnz + n)`), on every core.
    pub fn transpose(&self) -> Csr<T> {
        let (ptr, idx, vals) = transpose_arrays(
            self.n_cols,
            &self.row_ptr,
            &self.col_idx,
            &self.vals,
            crate::ThreadPool::max_parallelism(),
        );
        let t = Csr::from_parts(self.n_cols, self.n_rows, ptr, idx, vals);
        crate::invariants::assert_csr(&t, "Csr::transpose");
        t
    }

    /// Convert to CSC (same matrix, column-compressed).
    pub fn to_csc(&self) -> Csc<T> {
        // A's CSC arrays are the CSR arrays of Aᵀ.
        let (ptr, idx, vals) = transpose_arrays(
            self.n_cols,
            &self.row_ptr,
            &self.col_idx,
            &self.vals,
            crate::ThreadPool::max_parallelism(),
        );
        let csc = Csc::from_parts(self.n_rows, self.n_cols, ptr, idx, vals);
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

/// Arrays of a compressed matrix, `(ptr, idx, vals)`.
pub(crate) type Compressed<T> = (Vec<usize>, Vec<u32>, Vec<T>);

/// Transpose compressed arrays: `ptr`/`idx`/`vals` hold `ptr.len() - 1`
/// outer slices (CSR rows, or CSC columns) over `n_inner` inner indices;
/// the result holds `n_inner` outer slices. The one routine behind
/// [`Csr::transpose`], [`Csr::to_csc`] and [`Csc::to_csr`].
///
/// Each of up to `parts` parts owns a contiguous range of output slices
/// and reads, from every source slice, the sub-span of sorted indices
/// that falls in its range. Entries land in source-slice order, so the
/// arrays are the serial counting sort's whatever the part count.
pub(crate) fn transpose_arrays<T: Scalar>(
    n_inner: usize,
    ptr: &[usize],
    idx: &[u32],
    vals: &[T],
    parts: usize,
) -> Compressed<T> {
    let ranges = even_chunks(n_inner, parts.min(n_inner).max(1));
    // The source sub-span of each slice whose indices lie in `range`.
    let spans = move |range: &Range<usize>| {
        let (start, end) = (range.start, range.end);
        ptr.windows(2).enumerate().map(move |(outer, w)| {
            let src = &idx[w[0]..w[1]];
            let lo = src.partition_point(|&i| (i as usize) < start);
            let hi = src.partition_point(|&i| (i as usize) < end);
            (outer, w[0] + lo..w[0] + hi)
        })
    };
    let counts = crate::pool::fork_join(ranges.clone(), |range| {
        let mut count = vec![0usize; range.len()];
        for (_, span) in spans(&range) {
            for &i in &idx[span] {
                count[i as usize - range.start] += 1;
            }
        }
        count
    });
    let mut out_ptr = Vec::with_capacity(n_inner + 1);
    out_ptr.push(0usize);
    let mut total = 0;
    for c in counts.into_iter().flatten() {
        total += c;
        out_ptr.push(total);
    }
    let mut out_idx = vec![0u32; total];
    let mut out_vals = vec![T::ZERO; total];
    // Hand each part the output slots of its range.
    let mut jobs = Vec::with_capacity(ranges.len());
    let (mut idx_rest, mut vals_rest) = (&mut out_idx[..], &mut out_vals[..]);
    for range in ranges {
        let len = out_ptr[range.end] - out_ptr[range.start];
        let (idx_part, idx_tail) = idx_rest.split_at_mut(len);
        let (vals_part, vals_tail) = vals_rest.split_at_mut(len);
        (idx_rest, vals_rest) = (idx_tail, vals_tail);
        jobs.push((range, idx_part, vals_part));
    }
    crate::pool::fork_join(jobs, |(range, idx_part, vals_part)| {
        let base = out_ptr[range.start];
        let mut cursor: Vec<usize> = out_ptr[range.clone()].iter().map(|p| p - base).collect();
        for (outer, span) in spans(&range) {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "outer < the source's outer dimension <= u32::MAX: every Csr/Csc constructor bounds both dimensions"
            )]
            let outer = outer as u32;
            for (&i, &v) in idx[span.clone()].iter().zip(&vals[span]) {
                let dst = &mut cursor[i as usize - range.start];
                idx_part[*dst] = outer;
                vals_part[*dst] = v;
                *dst += 1;
            }
        }
    });
    (out_ptr, out_idx, out_vals)
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

    /// The serial pass [`Csr::abs_sums`] must equal bit for bit.
    fn serial_abs_sums(m: &Csr<f32>) -> (Vec<f32>, Vec<f32>) {
        let mut row_sums = vec![0.0f32; m.n_rows()];
        let mut col_sums = vec![0.0f32; m.n_cols()];
        for (r, row_sum) in row_sums.iter_mut().enumerate() {
            let (cols, vals) = m.row(r);
            for (c, v) in cols.iter().zip(vals) {
                *row_sum += v.abs();
                col_sums[*c as usize] += v.abs();
            }
        }
        (row_sums, col_sums)
    }

    #[test]
    fn abs_sums_equal_the_serial_pass_bitwise_for_every_part_count() {
        // A pixel-driven parallel-beam CT matrix (12×12 image, 9 views
        // of 20 bins, linear interpolation between the two nearest
        // bins), and a matrix with empty rows and columns.
        let (n, n_views, n_bins) = (12usize, 9usize, 20usize);
        let mut ct = Coo::new(n_views * n_bins, n * n);
        for v in 0..n_views {
            let (sin, cos) = (v as f32 * 0.35).sin_cos();
            for px in 0..n * n {
                let (x, y) = ((px % n) as f32 - 5.5, (px / n) as f32 - 5.5);
                let t = x * cos + y * sin + n_bins as f32 / 2.0 - 0.5;
                let (bin, frac) = (t.floor() as usize, t - t.floor());
                ct.push(v * n_bins + bin, px, 1.0 - frac);
                ct.push(v * n_bins + bin + 1, px, frac);
            }
        }
        let mut sparse = Coo::new(40, 30);
        for (r, c) in [(0, 3), (0, 29), (5, 3), (17, 11), (39, 0), (39, 29)] {
            sparse.push(r, c, 1.0 / (1 + r + c) as f32);
        }
        for m in [ct.to_csr(), sparse.to_csr(), Coo::new(0, 5).to_csr()] {
            let bits = |(a, b): (Vec<f32>, Vec<f32>)| {
                let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
                (bits(a), bits(b))
            };
            let want = bits(serial_abs_sums(&m));
            for parts in [1, 2, 3, 7] {
                assert_eq!(bits(m.abs_sums_in_parts(parts)), want, "{parts} parts");
            }
            assert_eq!(bits(m.abs_sums()), want);
        }
    }

    #[test]
    fn abs_sums_count_magnitudes() {
        let mut coo = Coo::new(2, 3);
        coo.push(0, 0, -1.0);
        coo.push(0, 2, 2.0);
        coo.push(1, 0, 3.0);
        let (rows, cols) = coo.to_csr().abs_sums();
        assert_eq!(rows, vec![3.0, 3.0]);
        assert_eq!(cols, vec![4.0, 0.0, 2.0]);
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

    /// Each class of malformed arrays is a typed error naming its
    /// invariant, never a panic; valid arrays build the same matrix
    /// `from_parts` does.
    #[test]
    fn try_from_parts_returns_the_violated_invariant() {
        let m = sample();
        let (p, c, v) = (m.row_ptr.clone(), m.col_idx.clone(), m.vals.clone());
        assert_eq!(Csr::try_from_parts(3, 3, p, c, v), Ok(m));
        type Case = (usize, Vec<usize>, Vec<u32>, Vec<f32>, &'static str);
        let cases: [Case; 7] = [
            (1 << 33, vec![0, 0], vec![], vec![], "IDX-U32"),
            (1, vec![0, 1], vec![0], vec![], "CSR-PTR"),
            (2, vec![0, 1], vec![0], vec![1.0], "CSR-PTR"),
            (2, vec![0, 2, 1], vec![0], vec![1.0], "CSR-PTR"),
            (3, vec![0, 1, 0, 1], vec![0], vec![1.0], "CSR-PTR"),
            (1, vec![0, 2], vec![2, 0], vec![1.0, 2.0], "CSR-IDX"),
            (1, vec![0, 1], vec![3], vec![1.0], "CSR-IDX"),
        ];
        for (n_rows, row_ptr, col_idx, vals, id) in cases {
            let e = Csr::try_from_parts(n_rows, 3, row_ptr, col_idx, vals).unwrap_err();
            assert_eq!(e.id, id, "{e}");
        }
    }

    /// A conversion that emits a malformed CSR stops at its boundary:
    /// `from_sorted_coo` skips `from_parts`' checks, so `Coo::to_csr`'s
    /// hook is what would catch a column index out of bounds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "invariant violation in Csr after Coo::to_csr:\n[CSR-IDX] row 0")]
    fn conversion_hook_names_boundary_and_invariant() {
        let corrupted = Csr {
            n_rows: 2,
            n_cols: 2,
            row_ptr: vec![0, 1, 1],
            col_idx: vec![5],
            vals: vec![1.0f32],
        };
        crate::invariants::assert_csr(&corrupted, "Coo::to_csr");
    }

    #[test]
    fn empty_rows_and_matrix() {
        let m: Csr<f32> = Coo::new(4, 4).to_csr();
        assert_eq!(m.nnz(), 0);
        let mut y = vec![1.0f32; 4];
        m.spmv_serial(&[0.0; 4], &mut y);
        assert_eq!(y, vec![0.0; 4]);
    }

    /// Arrays with the values as bits, so `-0.0` and `0.0` differ.
    fn bits(m: Compressed<f64>) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
        (m.0, m.1, m.2.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn transposes_are_bitwise_equal_for_every_part_count() {
        // 4x6 with an empty row (1), empty columns (1, 4, 5), a signed
        // zero and a subnormal.
        let mut coo = Coo::new(4, 6);
        for (r, c, v) in [
            (0, 0, 1.5),
            (0, 3, -0.0),
            (2, 0, 3.0),
            (2, 2, f64::MIN_POSITIVE / 2.0),
            (3, 2, -2.0),
            (3, 3, 4.0),
        ] {
            coo.push(r, c, v);
        }
        let csr = coo.to_csr();
        let csc = coo.to_csc();
        let csr_arrays = || {
            let v = csr.vals().to_vec();
            bits((csr.row_ptr().to_vec(), csr.col_idx().to_vec(), v))
        };
        let csc_arrays = || {
            let v = csc.vals().to_vec();
            bits((csc.col_ptr().to_vec(), csc.row_idx().to_vec(), v))
        };
        for parts in [1, 2, 3, 7] {
            let t = transpose_arrays(6, csr.row_ptr(), csr.col_idx(), csr.vals(), parts);
            assert_eq!(bits(t), csc_arrays(), "CSR -> CSC, {parts} parts");
            let t = transpose_arrays(4, csc.col_ptr(), csc.row_idx(), csc.vals(), parts);
            assert_eq!(bits(t), csr_arrays(), "CSC -> CSR, {parts} parts");
        }
        assert_eq!(csr.to_csc(), csc);
        assert_eq!(csc.to_csr(), csr);
        let t = csr.transpose();
        assert_eq!((t.n_rows(), t.n_cols()), (6, 4));
        assert_eq!(t.row_ptr(), csc.col_ptr());
        assert_eq!(t.col_idx(), csc.row_idx());
        // An all-empty matrix has one part of nothing to move.
        let empty: Csr<f64> = Coo::new(3, 0).to_csr();
        for parts in [1, 7] {
            let t = transpose_arrays(0, empty.row_ptr(), empty.col_idx(), empty.vals(), parts);
            assert_eq!(t, (vec![0], vec![], vec![]));
        }
    }

    #[test]
    fn matrix_bytes_counts_all_arrays() {
        let m = sample();
        let expect = 4 * 8 + 4 * 4 + 4 * 8; // ptr(usize) + idx(u32) + vals(f64)
        assert_eq!(m.matrix_bytes(), expect);
    }
}
