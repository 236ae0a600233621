//! Forward/transpose operator abstraction for the solvers.
//!
//! Iterative reconstruction needs both `A x` and `Aᵀ y`. Any pair of
//! [`SpmvExecutor`]s can serve — e.g. a CSCV executor for the forward
//! projection and a tuned CSR executor built on the explicitly
//! transposed matrix for the back projection (the paper's future-work
//! item "implement CSCV on x = Aᵀy" is exactly about replacing the
//! latter).

use cscv_core::CscvExec;
use cscv_simd::MaskExpand;
use cscv_sparse::{Csr, Scalar, SpmvExecutor, ThreadPool};

/// A linear operator with forward and transpose application.
pub trait LinearOperator<T: Scalar>: Send + Sync {
    /// Output dimension of `apply` (sinogram size for CT).
    fn n_rows(&self) -> usize;
    /// Input dimension of `apply` (image size for CT).
    fn n_cols(&self) -> usize;
    /// `y = A x`.
    fn apply(&self, x: &[T], y: &mut [T], pool: &ThreadPool);
    /// `x = Aᵀ y`.
    fn apply_transpose(&self, y: &[T], x: &mut [T], pool: &ThreadPool);
    /// Batched forward `Y = A X` over `k` column-major right-hand sides
    /// (RHS `i` at `x[i·n_cols..]`, output at `y[i·n_rows..]`). Default
    /// is a loop of [`apply`](Self::apply); operators backed by batched
    /// SpMM override it so matrix traffic is paid once per batch chunk.
    fn apply_multi(&self, x: &[T], k: usize, y: &mut [T], pool: &ThreadPool) {
        assert!(k > 0, "batch width must be positive");
        assert_eq!(x.len(), k * self.n_cols());
        assert_eq!(y.len(), k * self.n_rows());
        for (xk, yk) in x
            .chunks_exact(self.n_cols())
            .zip(y.chunks_exact_mut(self.n_rows()))
        {
            self.apply(xk, yk, pool);
        }
    }
    /// Batched transpose `X = Aᵀ Y` (same packing as
    /// [`apply_multi`](Self::apply_multi) with rows/cols swapped).
    fn apply_transpose_multi(&self, y: &[T], k: usize, x: &mut [T], pool: &ThreadPool) {
        assert!(k > 0, "batch width must be positive");
        assert_eq!(y.len(), k * self.n_rows());
        assert_eq!(x.len(), k * self.n_cols());
        for (yk, xk) in y
            .chunks_exact(self.n_rows())
            .zip(x.chunks_exact_mut(self.n_cols()))
        {
            self.apply_transpose(yk, xk, pool);
        }
    }
    /// Row sums of `|A|` (SIRT weighting).
    fn abs_row_sums(&self, pool: &ThreadPool) -> Vec<T>;
    /// Column sums of `|A|` (SIRT weighting).
    fn abs_col_sums(&self, pool: &ThreadPool) -> Vec<T>;
}

/// An operator backed by two prepared SpMV executors: one for `A`, one
/// for `Aᵀ` (built on the transposed matrix).
pub struct SpmvOperator<T: Scalar> {
    forward: Box<dyn SpmvExecutor<T>>,
    transpose: Box<dyn SpmvExecutor<T>>,
    abs_row_sums: Vec<T>,
    abs_col_sums: Vec<T>,
}

impl<T: Scalar> SpmvOperator<T> {
    /// Wrap a prepared executor pair. `transpose` must execute the
    /// transposed matrix (its rows = `forward`'s columns).
    ///
    /// `csr` (the forward matrix) is only used to precompute the
    /// absolute row/column sums.
    pub fn new(
        forward: Box<dyn SpmvExecutor<T>>,
        transpose: Box<dyn SpmvExecutor<T>>,
        csr: &Csr<T>,
    ) -> Self {
        assert_eq!(forward.n_rows(), transpose.n_cols(), "shape mismatch");
        assert_eq!(forward.n_cols(), transpose.n_rows(), "shape mismatch");
        assert_eq!(forward.n_rows(), csr.n_rows());
        assert_eq!(forward.n_cols(), csr.n_cols());
        let (abs_row_sums, abs_col_sums) = csr.abs_sums();
        SpmvOperator {
            forward,
            transpose,
            abs_row_sums,
            abs_col_sums,
        }
    }

    /// Convenience: baseline operator from a CSR matrix using the tuned
    /// CSR executors for both directions.
    pub fn csr_pair(csr: &Csr<T>) -> Self {
        use cscv_sparse::formats::CsrExec;
        let t = csr.transpose();
        SpmvOperator::new(
            Box::new(CsrExec::new(csr.clone())),
            Box::new(CsrExec::new(t)),
            csr,
        )
    }
}

impl<T: Scalar> LinearOperator<T> for SpmvOperator<T> {
    fn n_rows(&self) -> usize {
        self.forward.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.forward.n_cols()
    }
    fn apply(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        self.forward.spmv(x, y, pool);
    }
    fn apply_transpose(&self, y: &[T], x: &mut [T], pool: &ThreadPool) {
        self.transpose.spmv(y, x, pool);
    }
    fn apply_multi(&self, x: &[T], k: usize, y: &mut [T], pool: &ThreadPool) {
        self.forward.spmv_multi(x, k, y, pool);
    }
    fn apply_transpose_multi(&self, y: &[T], k: usize, x: &mut [T], pool: &ThreadPool) {
        self.transpose.spmv_multi(y, k, x, pool);
    }
    fn abs_row_sums(&self, _pool: &ThreadPool) -> Vec<T> {
        self.abs_row_sums.clone()
    }
    fn abs_col_sums(&self, _pool: &ThreadPool) -> Vec<T> {
        self.abs_col_sums.clone()
    }
}

/// An operator backed by a **single CSCV matrix** used for both the
/// forward projection and (via the transpose kernels — the paper's
/// future-work item, implemented here) the back projection. Halves the
/// operator's memory footprint versus keeping an explicit `Aᵀ`.
pub struct CscvOperator<T: Scalar + MaskExpand> {
    exec: CscvExec<T>,
    abs_row_sums: Vec<T>,
    abs_col_sums: Vec<T>,
}

impl<T: Scalar + MaskExpand> CscvOperator<T> {
    /// Wrap a prepared CSCV executor; `csr` (same matrix) supplies the
    /// absolute row/column sums for SIRT weighting.
    pub fn new(exec: CscvExec<T>, csr: &Csr<T>) -> Self {
        assert_eq!(exec.n_rows(), csr.n_rows());
        assert_eq!(exec.n_cols(), csr.n_cols());
        let (abs_row_sums, abs_col_sums) = csr.abs_sums();
        CscvOperator {
            exec,
            abs_row_sums,
            abs_col_sums,
        }
    }
}

impl<T: Scalar + MaskExpand> LinearOperator<T> for CscvOperator<T> {
    fn n_rows(&self) -> usize {
        self.exec.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.exec.n_cols()
    }
    fn apply(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        self.exec.spmv(x, y, pool);
    }
    fn apply_transpose(&self, y: &[T], x: &mut [T], pool: &ThreadPool) {
        self.exec.spmv_transpose(y, x, pool);
    }
    fn apply_multi(&self, x: &[T], k: usize, y: &mut [T], pool: &ThreadPool) {
        self.exec.spmv_multi(x, k, y, pool);
    }
    fn apply_transpose_multi(&self, y: &[T], k: usize, x: &mut [T], pool: &ThreadPool) {
        self.exec.spmv_transpose_multi(y, k, x, pool);
    }
    fn abs_row_sums(&self, _pool: &ThreadPool) -> Vec<T> {
        self.abs_row_sums.clone()
    }
    fn abs_col_sums(&self, _pool: &ThreadPool) -> Vec<T> {
        self.abs_col_sums.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscv_sparse::Coo;

    fn sample_csr() -> Csr<f64> {
        let mut coo = Coo::new(3, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, -2.0);
        coo.push(2, 0, 3.0);
        coo.push(2, 1, 4.0);
        coo.to_csr()
    }

    #[test]
    fn forward_and_transpose_consistent() {
        let csr = sample_csr();
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(1);
        let x = vec![2.0, 1.0];
        let mut y = vec![0.0; 3];
        op.apply(&x, &mut y, &pool);
        assert_eq!(y, vec![2.0, -2.0, 10.0]);
        let mut xt = vec![0.0; 2];
        op.apply_transpose(&y, &mut xt, &pool);
        // Aᵀ y where y = [2,-2,10]: [2*1 + 10*3, -2*-2 + 10*4] = [32, 44]
        assert_eq!(xt, vec![32.0, 44.0]);
    }

    #[test]
    fn abs_sums() {
        let csr = sample_csr();
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(1);
        assert_eq!(op.abs_row_sums(&pool), vec![1.0, 2.0, 7.0]);
        assert_eq!(op.abs_col_sums(&pool), vec![4.0, 6.0]);
    }

    #[test]
    fn cscv_operator_agrees_with_csr_pair() {
        use cscv_core::layout::ImageShape;
        use cscv_core::{build, CscvParams, SinoLayout, Variant};
        // A small sinogram-shaped matrix.
        let layout = SinoLayout {
            n_views: 8,
            n_bins: 10,
        };
        let img = ImageShape { nx: 4, ny: 4 };
        let mut coo = Coo::new(layout.n_rows(), 16);
        for col in 0..16usize {
            for v in 0..8usize {
                coo.push(
                    layout.row_index(v, (v + col) % 9),
                    col,
                    1.0 + col as f64 * 0.1,
                );
            }
        }
        let csr = coo.to_csr();
        let csc = coo.to_csc();
        let exec = CscvExec::new(build(
            &csc,
            layout,
            img,
            CscvParams::new(2, 8, 2),
            Variant::M,
        ));
        let op1 = CscvOperator::new(exec, &csr);
        let op2 = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(2);
        let x: Vec<f64> = (0..16).map(|i| i as f64 * 0.25).collect();
        let y: Vec<f64> = (0..80).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut out1 = vec![0.0; 80];
        let mut out2 = vec![0.0; 80];
        op1.apply(&x, &mut out1, &pool);
        op2.apply(&x, &mut out2, &pool);
        cscv_sparse::dense::assert_vec_close(&out1, &out2, 1e-12);
        let mut t1 = vec![0.0; 16];
        let mut t2 = vec![0.0; 16];
        op1.apply_transpose(&y, &mut t1, &pool);
        op2.apply_transpose(&y, &mut t2, &pool);
        cscv_sparse::dense::assert_vec_close(&t1, &t2, 1e-12);
        assert_eq!(op1.abs_row_sums(&pool), op2.abs_row_sums(&pool));
        assert_eq!(op1.abs_col_sums(&pool), op2.abs_col_sums(&pool));
    }

    #[test]
    fn adjoint_identity_through_operator() {
        let csr = sample_csr();
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(2);
        let x = vec![1.5, -0.5];
        let y = vec![0.3, 0.7, -1.1];
        let mut ax = vec![0.0; 3];
        op.apply(&x, &mut ax, &pool);
        let mut aty = vec![0.0; 2];
        op.apply_transpose(&y, &mut aty, &pool);
        let lhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }
}
