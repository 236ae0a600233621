//! Solver drivers for equivalence gating.
//!
//! The shard runtime's equivalence tests (`cscv-shard`'s
//! `tests/equivalence.rs`) run *the same* solver against two operators —
//! single-process reference and sharded cluster — and compare the runs.
//! This module gives that a stable vocabulary: a [`Solver`] selector,
//! one [`run_solver`] entry point, and the two comparison predicates the
//! sharded-reconstruction gate is built on:
//!
//! * [`trajectory_max_rel_diff`] — the largest relative deviation
//!   between two residual-norm trajectories, iteration by iteration.
//!   Sharded SIRT/CGLS must stay within `1e-10` of the single-process
//!   trajectory for f64 (the adjoint merge is the only floating-point
//!   difference, and the fixed-order tree reduction keeps it tiny and
//!   deterministic).
//! * [`bitwise_equal`] — exact `to_bits` equality of images and
//!   trajectories, the `workers = 1` gate (no merge arithmetic at all,
//!   so not even an ULP of slack is granted).

use crate::sirt::ReconResult;
use crate::{cgls, landweber, sirt, LinearOperator};
use cscv_sparse::ThreadPool;

/// Which iterative solver to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// SIRT with the standard |A|-sum weighting.
    Sirt,
    /// CGLS on the normal equations.
    Cgls,
    /// Landweber with a power-iteration step bound.
    Landweber,
}

impl Solver {
    /// All solvers, for "run everything" drivers.
    pub const ALL: [Solver; 3] = [Solver::Sirt, Solver::Cgls, Solver::Landweber];
}

/// Run `solver` for `iterations` steps with its conventional default
/// parameters (SIRT relaxation 1.0, CGLS tolerance 0 = never stop
/// early, Landweber step scale 1.0 — early stopping is disabled so two
/// runs always produce comparable full-length trajectories).
pub fn run_solver(
    solver: Solver,
    op: &dyn LinearOperator<f64>,
    b: &[f64],
    iterations: usize,
    pool: &ThreadPool,
) -> ReconResult<f64> {
    match solver {
        Solver::Sirt => sirt(op, b, iterations, 1.0, pool),
        Solver::Cgls => cgls(op, b, iterations, 0.0, pool),
        Solver::Landweber => landweber(op, b, iterations, 1.0, pool),
    }
}

/// Largest per-iteration relative deviation between two residual-norm
/// trajectories: `max_i |a_i − b_i| / max(|a_i|, |b_i|, ε)`. Returns
/// `f64::INFINITY` when the lengths differ or either side holds a NaN
/// (a truncated or diverged run must never pass a tolerance gate).
pub fn trajectory_max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.iter().chain(b).any(|v| v.is_nan()) {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let scale = x.abs().max(y.abs()).max(f64::MIN_POSITIVE);
            (x - y).abs() / scale
        })
        .fold(0.0, f64::max)
}

/// Exact bit equality of two solver results: image and residual
/// trajectory, compared via `to_bits` so `-0.0 ≠ +0.0` and NaNs never
/// sneak through an `==`.
pub fn bitwise_equal(a: &ReconResult<f64>, b: &ReconResult<f64>) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.iterations == b.iterations
        && bits(&a.x) == bits(&b.x)
        && bits(&a.residual_history) == bits(&b.residual_history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpmvOperator;
    use cscv_sparse::Coo;

    fn toy_op() -> SpmvOperator<f64> {
        let mut coo = Coo::new(6, 4);
        for r in 0..6usize {
            coo.push(r, r % 4, 1.0 + r as f64);
            coo.push(r, (r + 1) % 4, 0.5);
        }
        SpmvOperator::csr_pair(&coo.to_csr())
    }

    #[test]
    fn run_solver_produces_full_trajectories() {
        let op = toy_op();
        let pool = ThreadPool::new(1);
        let b = vec![1.0; 6];
        for s in Solver::ALL {
            let r = run_solver(s, &op, &b, 5, &pool);
            assert_eq!(r.iterations, 5, "{s:?} stopped early");
            assert_eq!(r.residual_history.len(), 5);
            assert!(r.residual_history.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn trajectory_diff_detects_deviation_and_truncation() {
        let a = [1.0, 0.5, 0.25];
        assert_eq!(trajectory_max_rel_diff(&a, &a), 0.0);
        let b = [1.0, 0.5 * (1.0 + 1e-9), 0.25];
        let d = trajectory_max_rel_diff(&a, &b);
        assert!(d > 1e-10 && d < 1e-8, "{d}");
        assert_eq!(trajectory_max_rel_diff(&a, &a[..2]), f64::INFINITY);
        let nan = [1.0, f64::NAN, 0.25];
        assert_eq!(trajectory_max_rel_diff(&nan, &a), f64::INFINITY);
        assert_eq!(trajectory_max_rel_diff(&a, &nan), f64::INFINITY);
        assert_eq!(trajectory_max_rel_diff(&nan, &nan), f64::INFINITY);
    }

    #[test]
    fn bitwise_equal_is_exact() {
        let op = toy_op();
        let pool = ThreadPool::new(1);
        let b = vec![1.0; 6];
        let r1 = run_solver(Solver::Sirt, &op, &b, 4, &pool);
        let r2 = run_solver(Solver::Sirt, &op, &b, 4, &pool);
        assert!(bitwise_equal(&r1, &r2), "same run must be reproducible");
        let mut r3 = run_solver(Solver::Sirt, &op, &b, 4, &pool);
        r3.x[0] = r3.x[0].next_up();
        assert!(!bitwise_equal(&r1, &r3));
    }
}
