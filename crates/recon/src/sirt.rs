//! SIRT — Simultaneous Iterative Reconstruction Technique.
//!
//! The workhorse of algebraic CT reconstruction:
//! `x ← x + C·Aᵀ·R·(b − A·x)` with `R = diag(1/row_sums)` and
//! `C = diag(1/col_sums)`. Every iteration is one forward and one back
//! projection — exactly the SpMV pair whose throughput the paper
//! optimizes.

use crate::operators::LinearOperator;
use cscv_sparse::{Scalar, ThreadPool};

/// Result of an iterative reconstruction run.
#[derive(Debug, Clone)]
pub struct ReconResult<T> {
    /// Reconstructed image.
    pub x: Vec<T>,
    /// Residual norm `‖b − Ax‖₂` after each iteration.
    pub residual_history: Vec<f64>,
    /// Iterations actually executed.
    pub iterations: usize,
}

/// Run `iterations` SIRT steps from a zero initial image: the width-1
/// call of [`sirt_batch`](crate::batch::sirt_batch) without early exit.
///
/// `relaxation` scales each update (1.0 = classic SIRT; smaller damps).
pub fn sirt<T: Scalar>(
    op: &dyn LinearOperator<T>,
    b: &[T],
    iterations: usize,
    relaxation: f64,
    pool: &ThreadPool,
) -> ReconResult<T> {
    crate::batch::sirt_batch(op, b, 1, iterations, relaxation, 0.0, pool).into_single()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::SpmvOperator;
    use cscv_sparse::{Coo, Csr};

    /// A tall, well-conditioned random-ish system with known solution.
    fn tall_system() -> (Csr<f64>, Vec<f64>, Vec<f64>) {
        let n = 12;
        let m = 40;
        let mut coo = Coo::new(m, n);
        let mut state = 88172645463325252u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0
        };
        for r in 0..m {
            for c in 0..n {
                if (r + c) % 3 != 0 {
                    coo.push(r, c, 0.2 + rnd());
                }
            }
        }
        let csr = coo.to_csr();
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + 0.1 * i as f64).collect();
        let mut b = vec![0.0; m];
        csr.spmv_serial(&x_true, &mut b);
        (csr, x_true, b)
    }

    #[test]
    fn residual_decreases_monotonically() {
        let (csr, _, b) = tall_system();
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(2);
        let res = sirt(&op, &b, 30, 1.0, &pool);
        assert_eq!(res.iterations, 30);
        for w in res.residual_history.windows(2) {
            assert!(w[1] <= w[0] * 1.0001, "residual must not grow: {w:?}");
        }
        assert!(res.residual_history.last().unwrap() < &(res.residual_history[0] * 0.2));
    }

    #[test]
    fn converges_toward_truth_on_consistent_system() {
        let (csr, x_true, b) = tall_system();
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(1);
        let res = sirt(&op, &b, 400, 1.0, &pool);
        let err = crate::metrics::rel_l2(&res.x, &x_true);
        assert!(err < 0.05, "rel err {err}");
    }

    #[test]
    fn zero_iterations_returns_zero_image() {
        let (csr, _, b) = tall_system();
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(1);
        let res = sirt(&op, &b, 0, 1.0, &pool);
        assert!(res.x.iter().all(|&v| v == 0.0));
        assert!(res.residual_history.is_empty());
    }

    #[test]
    fn handles_empty_rows_and_cols() {
        let mut coo: Coo<f64> = Coo::new(4, 3);
        coo.push(0, 0, 1.0);
        coo.push(2, 2, 2.0);
        let csr = coo.to_csr();
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(1);
        let b = vec![1.0, 5.0, 4.0, -3.0];
        let res = sirt(&op, &b, 50, 1.0, &pool);
        // Solvable entries are recovered; untouched column stays zero.
        assert!((res.x[0] - 1.0).abs() < 1e-6);
        assert!((res.x[2] - 2.0).abs() < 1e-6);
        assert_eq!(res.x[1], 0.0);
    }
}
