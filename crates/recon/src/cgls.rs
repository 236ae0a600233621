//! CGLS — Conjugate Gradient on the normal equations `AᵀA x = Aᵀb`.
//!
//! The fastest-converging Krylov solver that only needs `A·` and `Aᵀ·`
//! applications, i.e. the same SpMV pair the suite optimizes. Numerically
//! preferable to explicitly forming `AᵀA`.

use crate::operators::LinearOperator;
use crate::sirt::ReconResult;
use cscv_sparse::{Scalar, ThreadPool};

/// Run CGLS for up to `iterations` steps (stops early when the normal
/// residual stagnates below `tol` relative to its start): the width-1
/// call of [`cgls_batch`](crate::batch::cgls_batch).
pub fn cgls<T: Scalar>(
    op: &dyn LinearOperator<T>,
    b: &[T],
    iterations: usize,
    tol: f64,
    pool: &ThreadPool,
) -> ReconResult<T> {
    crate::batch::cgls_batch(op, b, 1, iterations, tol, pool).into_single()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::SpmvOperator;
    use cscv_sparse::{Coo, Csr};

    fn system(m: usize, n: usize, seed: u64) -> (Csr<f64>, Vec<f64>, Vec<f64>) {
        let mut coo = Coo::new(m, n);
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0
        };
        for r in 0..m {
            coo.push(r, r % n, 1.0 + rnd());
            coo.push(r, (r + 3) % n, rnd() * 0.5);
            coo.push(r, (r * 7 + 1) % n, rnd() * 0.25);
        }
        let csr = coo.to_csr();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
        let mut b = vec![0.0; m];
        csr.spmv_serial(&x_true, &mut b);
        (csr, x_true, b)
    }

    #[test]
    fn solves_consistent_system_to_high_accuracy() {
        let (csr, x_true, b) = system(60, 20, 42);
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(2);
        let res = cgls(&op, &b, 200, 1e-12, &pool);
        let err = crate::metrics::rel_l2(&res.x, &x_true);
        assert!(err < 1e-8, "rel err {err}");
    }

    #[test]
    fn early_stop_on_tolerance() {
        let (csr, _, b) = system(60, 20, 7);
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(1);
        let res = cgls(&op, &b, 1000, 1e-6, &pool);
        assert!(res.iterations < 1000, "should stop early");
    }

    #[test]
    fn converges_faster_than_sirt() {
        let (csr, x_true, b) = system(80, 25, 11);
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(1);
        let k = 25;
        let cg = cgls(&op, &b, k, 0.0, &pool);
        let si = crate::sirt::sirt(&op, &b, k, 1.0, &pool);
        let e_cg = crate::metrics::rel_l2(&cg.x, &x_true);
        let e_si = crate::metrics::rel_l2(&si.x, &x_true);
        assert!(e_cg < e_si, "CGLS {e_cg} vs SIRT {e_si}");
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let (csr, _, _) = system(30, 10, 3);
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(1);
        let res = cgls(&op, &vec![0.0; 30], 50, 1e-12, &pool);
        assert!(res.x.iter().all(|&v| v == 0.0));
        assert_eq!(res.iterations, 0);
    }
}
