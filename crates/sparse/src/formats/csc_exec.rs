//! CSC SpMV executors — the MKL-CSC analog.
//!
//! Column-major SpMV scatters into `y`, so the parallel version follows
//! the standard recipe (and the paper's own multithreading design):
//! nnz-balanced column ranges per thread, each thread accumulating into a
//! private copy of `y`, then a parallel reduction over row ranges.

use crate::csc::Csc;
use crate::executor::SpmvExecutor;
use crate::formats::util::{reduce_buffers_into, Scratch};
use crate::partition::{batch_chunks, split_by_prefix};
use crate::pool::ThreadPool;
use cscv_simd::Scalar;

/// Plain serial CSC SpMV (paper Algorithm 1).
pub struct CscSerialExec<T> {
    csc: Csc<T>,
}

impl<T: Scalar> CscSerialExec<T> {
    pub fn new(csc: Csc<T>) -> Self {
        CscSerialExec { csc }
    }
}

impl<T: Scalar> SpmvExecutor<T> for CscSerialExec<T> {
    fn name(&self) -> String {
        "CSC-serial".into()
    }
    fn n_rows(&self) -> usize {
        self.csc.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.csc.n_cols()
    }
    fn nnz_orig(&self) -> usize {
        self.csc.nnz()
    }
    fn matrix_bytes(&self) -> usize {
        self.csc.matrix_bytes()
    }
    fn spmv(&self, x: &[T], y: &mut [T], _pool: &ThreadPool) {
        self.csc.spmv_serial(x, y);
    }
}

/// Parallel CSC SpMV (MKL-CSC analog): private `y` copies + reduction.
pub struct CscParallelExec<T> {
    csc: Csc<T>,
    scratch: Scratch<T>,
}

impl<T: Scalar> CscParallelExec<T> {
    pub fn new(csc: Csc<T>) -> Self {
        CscParallelExec {
            csc,
            scratch: Scratch::new(),
        }
    }

    /// One compiled-width chunk of the batched product: each column's
    /// row/value stream is read once and scattered into `K` private
    /// `y`-copy segments, which the standard parallel reduction then
    /// folds (the whole `K·n_rows` buffer reduces as one flat vector).
    fn spmm_chunk<const K: usize>(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        let (n_rows, n_cols) = (self.csc.n_rows(), self.csc.n_cols());
        let n = pool.n_threads();
        let csc = &self.csc;
        if n == 1 {
            y.fill(T::ZERO);
            for c in 0..n_cols {
                let (rows, vals) = csc.col(c);
                let xc: [T; K] = std::array::from_fn(|k| x[k * n_cols + c]);
                for (r, v) in rows.iter().zip(vals) {
                    let ri = *r as usize;
                    for k in 0..K {
                        y[k * n_rows + ri] = v.mul_add(xc[k], y[k * n_rows + ri]);
                    }
                }
            }
            return;
        }
        let ranges = split_by_prefix(self.csc.col_ptr(), n);
        let mut bufs = self.scratch.take(n, y.len());
        {
            let bufs: &mut [Vec<T>] = &mut bufs;
            let bufs_ptr = crate::formats::util::SharedSliceMut::new(bufs);
            pool.run(|tid| {
                // SAFETY: each thread touches only element `tid`.
                let buf = &mut unsafe { bufs_ptr.slice_mut(tid..tid + 1) }[0];
                for c in ranges[tid].clone() {
                    let (rows, vals) = csc.col(c);
                    let xc: [T; K] = std::array::from_fn(|k| x[k * n_cols + c]);
                    for (r, v) in rows.iter().zip(vals) {
                        let ri = *r as usize;
                        for k in 0..K {
                            buf[k * n_rows + ri] = v.mul_add(xc[k], buf[k * n_rows + ri]);
                        }
                    }
                }
            });
        }
        reduce_buffers_into(pool, &bufs[..n], y);
    }
}

impl<T: Scalar> SpmvExecutor<T> for CscParallelExec<T> {
    fn name(&self) -> String {
        "MKL-CSC(analog)".into()
    }
    fn n_rows(&self) -> usize {
        self.csc.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.csc.n_cols()
    }
    fn nnz_orig(&self) -> usize {
        self.csc.nnz()
    }
    fn matrix_bytes(&self) -> usize {
        self.csc.matrix_bytes()
    }

    fn spmv(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        assert_eq!(x.len(), self.csc.n_cols());
        assert_eq!(y.len(), self.csc.n_rows());
        let n = pool.n_threads();
        if n == 1 {
            self.csc.spmv_serial(x, y);
            return;
        }
        let ranges = split_by_prefix(self.csc.col_ptr(), n);
        let mut bufs = self.scratch.take(n, y.len());
        let csc = &self.csc;
        {
            let bufs: &mut [Vec<T>] = &mut bufs;
            // Hand each worker its own private buffer through a raw view.
            let bufs_ptr = crate::formats::util::SharedSliceMut::new(bufs);
            pool.run(|tid| {
                // SAFETY: each thread touches only element `tid`.
                let buf = &mut unsafe { bufs_ptr.slice_mut(tid..tid + 1) }[0];
                for c in ranges[tid].clone() {
                    let (rows, vals) = csc.col(c);
                    let xc = x[c];
                    for (r, v) in rows.iter().zip(vals) {
                        buf[*r as usize] = v.mul_add(xc, buf[*r as usize]);
                    }
                }
            });
        }
        reduce_buffers_into(pool, &bufs[..n], y);
    }

    /// Batched SpMM: one column-stream pass per register-tile chunk.
    /// Private-copy buffers grow to `chunk·n_rows`, so the scratch cost
    /// scales with the chunk width, not the full batch.
    fn spmv_multi(&self, x: &[T], k: usize, y: &mut [T], pool: &ThreadPool) {
        assert!(k > 0, "batch width must be positive");
        assert_eq!(x.len(), k * self.csc.n_cols());
        assert_eq!(y.len(), k * self.csc.n_rows());
        let (n_cols, n_rows) = (self.csc.n_cols(), self.csc.n_rows());
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

    fn sample(n: usize) -> (Csc<f64>, Vec<f64>, Vec<f64>) {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            coo.push(i, (i + 1) % n, -1.0);
            coo.push((i + 3) % n, i, 0.5);
        }
        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut y_ref = vec![0.0; n];
        coo.to_csr().spmv_serial(&x, &mut y_ref);
        (coo.to_csc(), x, y_ref)
    }

    #[test]
    fn serial_matches_reference() {
        let (csc, x, y_ref) = sample(50);
        let exec = CscSerialExec::new(csc);
        let pool = ThreadPool::new(1);
        let mut y = vec![f64::NAN; 50];
        exec.spmv(&x, &mut y, &pool);
        assert_vec_close(&y, &y_ref, 1e-12);
    }

    #[test]
    fn parallel_matches_reference_at_all_widths() {
        let (csc, x, y_ref) = sample(97);
        let exec = CscParallelExec::new(csc);
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let mut y = vec![f64::NAN; 97];
            exec.spmv(&x, &mut y, &pool);
            assert_vec_close(&y, &y_ref, 1e-12);
        }
    }

    #[test]
    fn repeated_calls_reuse_scratch_correctly() {
        let (csc, x, y_ref) = sample(64);
        let exec = CscParallelExec::new(csc);
        let pool = ThreadPool::new(4);
        for _ in 0..3 {
            let mut y = vec![f64::NAN; 64];
            exec.spmv(&x, &mut y, &pool);
            assert_vec_close(&y, &y_ref, 1e-12);
        }
    }

    #[test]
    fn spmv_multi_matches_k_independent_spmvs() {
        let (csc, _, _) = sample(97);
        let (nr, nc) = (csc.n_rows(), csc.n_cols());
        let exec = CscParallelExec::new(csc);
        for k in [1usize, 3, 8, 11] {
            let x: Vec<f64> = (0..k * nc).map(|i| (i as f64 * 0.17).cos()).collect();
            for threads in [1, 3] {
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

    /// A zero input overwrites a stale `y` with zeros: the private copies
    /// start cleared, and every column's products add only zeros.
    #[test]
    fn zero_x_short_circuits() {
        let (csc, _, _) = sample(16);
        let exec = CscParallelExec::new(csc);
        let pool = ThreadPool::new(2);
        let mut y = vec![f64::NAN; 16];
        exec.spmv(&[0.0; 16], &mut y, &pool);
        assert!(y.iter().all(|&v| v == 0.0));
    }
}
