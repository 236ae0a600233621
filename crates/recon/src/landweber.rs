//! Landweber iteration — plain gradient descent `x ← x + λ Aᵀ(b − Ax)`.
//!
//! Converges for `0 < λ < 2/σ_max²`; the step size is set from a power
//! iteration estimating `σ_max²(A) = λ_max(AᵀA)`, which itself runs on
//! the same SpMV pair.

use crate::operators::LinearOperator;
use crate::sirt::ReconResult;
use cscv_simd::lanes::{norm2_sq, scale};
use cscv_sparse::{Scalar, ThreadPool};

/// Estimate `σ_max²(A)` by power iteration on `AᵀA` (`iters` steps).
pub fn largest_singular_value_sq<T: Scalar>(
    op: &dyn LinearOperator<T>,
    iters: usize,
    pool: &ThreadPool,
) -> f64 {
    let n = op.n_cols();
    let m = op.n_rows();
    // Deterministic pseudo-random start avoids adversarial alignment.
    let mut v: Vec<T> = (0..n)
        .map(|i| T::from_f64(((i * 2654435761) % 1000) as f64 / 1000.0 + 0.01))
        .collect();
    let mut av = vec![T::ZERO; m];
    let mut atav = vec![T::ZERO; n];
    let mut lambda = 0.0f64;
    for _ in 0..iters {
        let norm = norm2_sq(&v).to_f64().sqrt();
        if norm == 0.0 {
            return 0.0;
        }
        scale(&mut v, T::from_f64(1.0 / norm));
        op.apply(&v, &mut av, pool);
        op.apply_transpose(&av, &mut atav, pool);
        // Rayleigh quotient with the normalized v.
        lambda = cscv_simd::lanes::dot(&v, &atav).to_f64();
        v.copy_from_slice(&atav);
    }
    lambda.max(0.0)
}

/// Run Landweber iterations from a zero image. `step_scale` multiplies
/// the safe step `1/σ_max²` (values in `(0, 2)` converge; 1.0 default).
/// The width-1 call of [`landweber_batch`](crate::batch::landweber_batch)
/// without early exit.
pub fn landweber<T: Scalar>(
    op: &dyn LinearOperator<T>,
    b: &[T],
    iterations: usize,
    step_scale: f64,
    pool: &ThreadPool,
) -> ReconResult<T> {
    crate::batch::landweber_batch(op, b, 1, iterations, step_scale, 0.0, pool).into_single()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::SpmvOperator;
    use cscv_sparse::{Coo, Csr};

    fn diag_system() -> (Csr<f64>, Vec<f64>, Vec<f64>) {
        // Diagonal matrix: singular values known exactly.
        let mut coo = Coo::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, (i + 1) as f64);
        }
        let csr = coo.to_csr();
        let x_true = vec![1.0, -1.0, 2.0, 0.5, 1.5];
        let mut b = vec![0.0; 5];
        csr.spmv_serial(&x_true, &mut b);
        (csr, x_true, b)
    }

    #[test]
    fn power_iteration_finds_sigma_max() {
        let (csr, _, _) = diag_system();
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(1);
        let s2 = largest_singular_value_sq(&op, 50, &pool);
        assert!((s2 - 25.0).abs() < 1e-6, "sigma^2 {s2}");
    }

    #[test]
    fn landweber_converges_on_diagonal_system() {
        let (csr, x_true, b) = diag_system();
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(1);
        let res = landweber(&op, &b, 2000, 1.0, &pool);
        let err = crate::metrics::rel_l2(&res.x, &x_true);
        assert!(err < 1e-3, "rel err {err}");
        // Residual decreasing.
        assert!(res.residual_history.last().unwrap() < &res.residual_history[0]);
    }

    #[test]
    fn zero_operator_is_safe() {
        let coo: Coo<f64> = Coo::new(4, 4);
        let csr = coo.to_csr();
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(1);
        let res = landweber(&op, &[1.0; 4], 5, 1.0, &pool);
        assert!(res.x.iter().all(|&v| v == 0.0));
    }
}
