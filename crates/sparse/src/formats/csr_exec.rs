//! CSR SpMV executors — the MKL-CSR analog.
//!
//! Vendor CSR kernels parallelize over nnz-balanced row ranges and unroll
//! the per-row dot product across several accumulators so the FMA latency
//! chain does not serialize. We reproduce both: [`CsrSerialExec`] is the
//! plain textbook loop (baseline of baselines), [`CsrExec`] the tuned
//! parallel version used as the "MKL-CSR" stand-in of the experiments.

use crate::csr::Csr;
use crate::executor::SpmvExecutor;
use crate::formats::util::SharedSliceMut;
use crate::partition::{batch_chunks, split_by_prefix};
use crate::pool::ThreadPool;
use cscv_simd::Scalar;

/// Plain serial CSR SpMV.
pub struct CsrSerialExec<T> {
    csr: Csr<T>,
}

impl<T: Scalar> CsrSerialExec<T> {
    pub fn new(csr: Csr<T>) -> Self {
        CsrSerialExec { csr }
    }
}

impl<T: Scalar> SpmvExecutor<T> for CsrSerialExec<T> {
    fn name(&self) -> String {
        "CSR-serial".into()
    }
    fn n_rows(&self) -> usize {
        self.csr.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.csr.n_cols()
    }
    fn nnz_orig(&self) -> usize {
        self.csr.nnz()
    }
    fn matrix_bytes(&self) -> usize {
        self.csr.matrix_bytes()
    }
    fn spmv(&self, x: &[T], y: &mut [T], _pool: &ThreadPool) {
        self.csr.spmv_serial(x, y);
    }
}

/// Tuned CSR SpMV (MKL-CSR analog): nnz-balanced row partitioning and a
/// 4-way unrolled gather-dot row kernel.
pub struct CsrExec<T> {
    csr: Csr<T>,
}

impl<T: Scalar> CsrExec<T> {
    pub fn new(csr: Csr<T>) -> Self {
        CsrExec { csr }
    }

    /// One row as an ILP-friendly dot product.
    #[inline(always)]
    fn row_dot(cols: &[u32], vals: &[T], x: &[T]) -> T {
        let mut acc = [T::ZERO; 4];
        let mut cc = cols.chunks_exact(4);
        let mut vc = vals.chunks_exact(4);
        for (cs, vs) in (&mut cc).zip(&mut vc) {
            for l in 0..4 {
                acc[l] = vs[l].mul_add(x[cs[l] as usize], acc[l]);
            }
        }
        let mut tail = T::ZERO;
        for (c, v) in cc.remainder().iter().zip(vc.remainder()) {
            tail = v.mul_add(x[*c as usize], tail);
        }
        cscv_simd::lanes::hsum(&acc) + tail
    }

    /// One row against `K` column-major RHS vectors: the row's column
    /// indices and values stream through registers once, each nonzero
    /// feeding `K` independent FMA accumulators.
    #[inline(always)]
    fn row_dot_multi<const K: usize>(cols: &[u32], vals: &[T], x: &[T], n_cols: usize) -> [T; K] {
        let mut acc = [T::ZERO; K];
        for (c, v) in cols.iter().zip(vals) {
            let ci = *c as usize;
            for k in 0..K {
                acc[k] = v.mul_add(x[k * n_cols + ci], acc[k]);
            }
        }
        acc
    }

    /// One compiled-width chunk of the batched product (row-parallel,
    /// row ranges disjoint per thread for every RHS copy).
    fn spmm_chunk<const K: usize>(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        let (n_rows, n_cols) = (self.csr.n_rows(), self.csr.n_cols());
        let ranges = split_by_prefix(self.csr.row_ptr(), pool.n_threads());
        let out = SharedSliceMut::new(y);
        let csr = &self.csr;
        pool.run(|tid| {
            for r in ranges[tid].clone() {
                let (cols, vals) = csr.row(r);
                let acc = Self::row_dot_multi::<K>(cols, vals, x, n_cols);
                for (k, &v) in acc.iter().enumerate() {
                    // SAFETY: row ranges are disjoint across threads, so
                    // each RHS's copy of row `r` is written by one thread.
                    unsafe { *out.get_raw(k * n_rows + r) = v };
                }
            }
        });
    }
}

impl<T: Scalar> SpmvExecutor<T> for CsrExec<T> {
    fn name(&self) -> String {
        "MKL-CSR(analog)".into()
    }
    fn n_rows(&self) -> usize {
        self.csr.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.csr.n_cols()
    }
    fn nnz_orig(&self) -> usize {
        self.csr.nnz()
    }
    fn matrix_bytes(&self) -> usize {
        self.csr.matrix_bytes()
    }

    fn spmv(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        assert_eq!(x.len(), self.csr.n_cols());
        assert_eq!(y.len(), self.csr.n_rows());
        let ranges = split_by_prefix(self.csr.row_ptr(), pool.n_threads());
        let out = SharedSliceMut::new(y);
        let csr = &self.csr;
        pool.run(|tid| {
            // `ranges` has one entry per pool thread and
            // tid < n_threads by the dispatch contract.
            let range = ranges[tid].clone();
            // SAFETY: row ranges are disjoint across threads.
            let dst = unsafe { out.slice_mut(range.clone()) };
            for (slot, r) in dst.iter_mut().zip(range) {
                let (cols, vals) = csr.row(r);
                *slot = Self::row_dot(cols, vals, x);
            }
        });
    }

    /// Batched SpMM: each row's index/value stream is read once per
    /// register-tile chunk (k split into {8, 4, 2, 1}) instead of once
    /// per RHS.
    fn spmv_multi(&self, x: &[T], k: usize, y: &mut [T], pool: &ThreadPool) {
        assert!(k > 0, "batch width must be positive");
        assert_eq!(x.len(), k * self.csr.n_cols());
        assert_eq!(y.len(), k * self.csr.n_rows());
        let (n_cols, n_rows) = (self.csr.n_cols(), self.csr.n_rows());
        let mut done = 0usize;
        for chunk in batch_chunks(k, &[8, 4, 2, 1]) {
            let xs = &x[done * n_cols..(done + chunk) * n_cols];
            let ys = &mut y[done * n_rows..(done + chunk) * n_rows];
            match chunk {
                8 => self.spmm_chunk::<8>(xs, ys, pool),
                4 => self.spmm_chunk::<4>(xs, ys, pool),
                2 => self.spmm_chunk::<2>(xs, ys, pool),
                _ => self.spmv(xs, ys, pool),
            }
            done += chunk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::dense::assert_vec_close;

    fn random_matrix(n_rows: usize, n_cols: usize, per_row: usize, seed: u64) -> Csr<f64> {
        // Tiny xorshift so the test has no rand dependency in-unit.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut coo = Coo::new(n_rows, n_cols);
        for r in 0..n_rows {
            for _ in 0..per_row {
                let c = (next() as usize) % n_cols;
                let v = ((next() % 1000) as f64) / 500.0 - 1.0;
                coo.push(r, c, v);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn serial_and_parallel_match_reference() {
        let csr = random_matrix(101, 77, 5, 42);
        let x: Vec<f64> = (0..77).map(|i| (i as f64) * 0.1 - 3.0).collect();
        let mut y_ref = vec![0.0; 101];
        csr.spmv_serial(&x, &mut y_ref);

        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let serial = CsrSerialExec::new(csr.clone());
            let tuned = CsrExec::new(csr.clone());
            let mut y = vec![f64::NAN; 101];
            serial.spmv(&x, &mut y, &pool);
            assert_vec_close(&y, &y_ref, 1e-12);
            let mut y2 = vec![f64::NAN; 101];
            tuned.spmv(&x, &mut y2, &pool);
            assert_vec_close(&y2, &y_ref, 1e-12);
        }
    }

    #[test]
    fn handles_empty_rows_with_many_threads() {
        let mut coo: Coo<f32> = Coo::new(64, 8);
        coo.push(0, 0, 1.0);
        coo.push(63, 7, 2.0);
        let exec = CsrExec::new(coo.to_csr());
        let pool = ThreadPool::new(8);
        let mut y = vec![f32::NAN; 64];
        exec.spmv(&[1.0; 8], &mut y, &pool);
        assert_eq!(y[0], 1.0);
        assert_eq!(y[63], 2.0);
        assert!(y[1..63].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn row_dot_tail_cases() {
        // Row lengths 0..=9 exercise every chunk/tail combination.
        for len in 0..10usize {
            let cols: Vec<u32> = (0..len as u32).collect();
            let vals: Vec<f64> = (0..len).map(|i| i as f64 + 1.0).collect();
            let x: Vec<f64> = (0..len).map(|i| (i as f64) * 0.5).collect();
            let expect: f64 = (0..len).map(|i| (i as f64 + 1.0) * (i as f64) * 0.5).sum();
            assert!((CsrExec::row_dot(&cols, &vals, &x) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn spmv_multi_matches_k_independent_spmvs() {
        let csr = random_matrix(101, 77, 5, 42);
        let (nr, nc) = (csr.n_rows(), csr.n_cols());
        let exec = CsrExec::new(csr);
        // Odd k exercises the {8,4,2,1} chunk decomposition.
        for k in [1usize, 3, 8, 11] {
            let x: Vec<f64> = (0..k * nc).map(|i| (i as f64 * 0.3).sin()).collect();
            for threads in [1, 4] {
                let pool = ThreadPool::new(threads);
                let mut y_multi = vec![f64::NAN; k * nr];
                exec.spmv_multi(&x, k, &mut y_multi, &pool);
                for kk in 0..k {
                    let mut y_one = vec![f64::NAN; nr];
                    exec.spmv(&x[kk * nc..(kk + 1) * nc], &mut y_one, &pool);
                    assert_vec_close(&y_multi[kk * nr..(kk + 1) * nr], &y_one, 1e-12);
                }
            }
        }
    }

    #[test]
    fn metadata() {
        let csr = random_matrix(10, 10, 3, 7);
        let nnz = csr.nnz();
        let exec = CsrExec::new(csr);
        assert_eq!(exec.nnz_orig(), nnz);
        assert_eq!(exec.nnz_stored(), nnz);
        assert_eq!(exec.r_nnze(), 0.0);
        assert!(exec.matrix_bytes() > 0);
        assert_eq!(exec.name(), "MKL-CSR(analog)");
    }
}
