//! Cluster-vs-serial equivalence over the fuzz matrix families.
//!
//! Thread-launched clusters (same protocol and backend code as process
//! workers, minus the fork) against serial references:
//!
//! * forward/adjoint products match a hand-rolled serial loop within
//!   rounding for 1–4 shards on every generated family;
//! * a one-shard cluster's solver run is **byte-identical** to the
//!   single-process [`LocalOperator`] — the forward gather is
//!   placement-only and a one-buffer tree reduce is a copy;
//! * multi-shard SIRT/CGLS residual trajectories stay within `1e-10`
//!   of single-process at smoke depth (the shard-smoke CI gate, here
//!   exercised on irregular non-CT matrices too).

use cscv_core::layout::ImageShape;
use cscv_core::SinoLayout;
use cscv_harness::gen::{generate, random_desc, CaseDesc};
use cscv_recon::{bitwise_equal, run_solver, trajectory_max_rel_diff, Solver};
use cscv_shard::{Cluster, Launch, LocalOperator, PartitionMethod, ShardPlan, ShardedOperator};
use cscv_sparse::{Csr, ThreadPool};

fn family(seed: u64) -> (CaseDesc, Csr<f64>) {
    let desc = random_desc(seed);
    (desc, generate(&desc).to_csr())
}

fn layout_of(desc: &CaseDesc) -> (SinoLayout, ImageShape) {
    (
        SinoLayout {
            n_views: desc.n_views,
            n_bins: desc.n_bins,
        },
        ImageShape {
            nx: desc.nx,
            ny: desc.ny,
        },
    )
}

/// Deterministic pseudo-random dense vector.
fn dense(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2000) as f64 / 1000.0 - 1.0
        })
        .collect()
}

/// Serial adjoint: `x += Aᵀ y` computed row by row.
fn serial_spmv_t(csr: &Csr<f64>, y: &[f64], x: &mut [f64]) {
    x.fill(0.0);
    for (r, yr) in y[..csr.n_rows()].iter().enumerate() {
        let (cols, vals) = csr.row(r);
        for (c, v) in cols.iter().zip(vals) {
            x[*c as usize] += v * yr;
        }
    }
}

fn rel_close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0))
}

#[test]
fn cluster_products_match_serial_over_families() {
    for seed in 200..240u64 {
        let (desc, csr) = family(seed);
        let (layout, img) = layout_of(&desc);
        let row_nnz: Vec<usize> = (0..csr.n_rows()).map(|r| csr.row(r).0.len()).collect();
        let x = dense(csr.n_cols(), seed ^ 0xABCD);
        let yv = dense(csr.n_rows(), seed ^ 0x1234);
        let mut y_ref = vec![0.0; csr.n_rows()];
        csr.spmv_serial(&x, &mut y_ref);
        let mut xt_ref = vec![0.0; csr.n_cols()];
        serial_spmv_t(&csr, &yv, &mut xt_ref);

        for shards in [1usize, 2, 4] {
            for method in [PartitionMethod::Stripe, PartitionMethod::Bisect] {
                let plan = ShardPlan::new(&row_nnz, shards, 1, method);
                let mut cluster =
                    Cluster::start(&csr, &plan, layout, img, 1, &Launch::Threads).unwrap();
                let mut y = vec![0.0; csr.n_rows()];
                cluster.spmv(&x, &mut y).unwrap();
                assert!(
                    rel_close(&y, &y_ref, 1e-12),
                    "forward mismatch: seed {seed} shards {shards} {method:?}"
                );
                let mut xt = vec![0.0; csr.n_cols()];
                cluster.spmv_t(&yv, &mut xt).unwrap();
                assert!(
                    rel_close(&xt, &xt_ref, 1e-12),
                    "adjoint mismatch: seed {seed} shards {shards} {method:?}"
                );
                cluster.shutdown().unwrap();
            }
        }
    }
}

#[test]
fn one_shard_solver_runs_are_bitwise_identical() {
    let pool = ThreadPool::new(1);
    for seed in 300..312u64 {
        let (desc, csr) = family(seed);
        if csr.nnz() == 0 {
            continue; // solvers on an all-zero operator stop immediately
        }
        let (layout, img) = layout_of(&desc);
        let row_nnz: Vec<usize> = (0..csr.n_rows()).map(|r| csr.row(r).0.len()).collect();
        let b = dense(csr.n_rows(), seed ^ 0x55AA);

        let local = LocalOperator::new(csr.clone(), Some(layout), img, 1, &mut ());
        for solver in [Solver::Sirt, Solver::Cgls, Solver::Landweber] {
            let reference = run_solver(solver, &local, &b, 5, &pool);
            let plan = ShardPlan::new(&row_nnz, 1, 1, PartitionMethod::Stripe);
            let cluster = Cluster::start(&csr, &plan, layout, img, 1, &Launch::Threads).unwrap();
            let op = ShardedOperator::new(cluster).unwrap();
            let sharded = run_solver(solver, &op, &b, 5, &pool);
            op.shutdown().unwrap();
            assert!(
                bitwise_equal(&reference, &sharded),
                "seed {seed} {solver:?}: one-shard run must be byte-identical"
            );
        }
    }
}

#[test]
fn multi_shard_trajectories_stay_within_gate_tolerance() {
    let pool = ThreadPool::new(1);
    for seed in 400..410u64 {
        let (desc, csr) = family(seed);
        if csr.nnz() == 0 {
            continue;
        }
        let (layout, img) = layout_of(&desc);
        let row_nnz: Vec<usize> = (0..csr.n_rows()).map(|r| csr.row(r).0.len()).collect();
        let b = dense(csr.n_rows(), seed ^ 0x77EE);

        let local = LocalOperator::new(csr.clone(), Some(layout), img, 1, &mut ());
        // Smoke-gate depth: stationary solvers don't amplify the
        // reduction perturbation; CGLS does (~10²×/iter), so it runs
        // shallower — same policy as `cscv-xtask shard`.
        for (solver, iters) in [(Solver::Sirt, 8), (Solver::Cgls, 4), (Solver::Landweber, 8)] {
            let reference = run_solver(solver, &local, &b, iters, &pool);
            for shards in [2usize, 3] {
                let plan = ShardPlan::new(&row_nnz, shards, 1, PartitionMethod::Bisect);
                let cluster =
                    Cluster::start(&csr, &plan, layout, img, 1, &Launch::Threads).unwrap();
                let op = ShardedOperator::new(cluster).unwrap();
                let sharded = run_solver(solver, &op, &b, iters, &pool);
                op.shutdown().unwrap();
                let diff =
                    trajectory_max_rel_diff(&reference.residual_history, &sharded.residual_history);
                assert!(
                    diff <= 1e-10,
                    "seed {seed} {solver:?} shards {shards}: trajectory diff {diff:e}"
                );
            }
        }
    }
}

/// The cluster must reject dimension-mismatched inputs without
/// poisoning the workers: a wrong-length vector is an error, and the
/// same cluster keeps serving well-formed requests afterwards.
#[test]
fn dimension_mismatch_is_an_error_not_a_wedge() {
    let (desc, csr) = family(42);
    let (layout, img) = layout_of(&desc);
    let row_nnz: Vec<usize> = (0..csr.n_rows()).map(|r| csr.row(r).0.len()).collect();
    let plan = ShardPlan::new(&row_nnz, 2, 1, PartitionMethod::Stripe);
    let mut cluster = Cluster::start(&csr, &plan, layout, img, 1, &Launch::Threads).unwrap();
    let bad = vec![0.0; csr.n_cols() + 1];
    let mut y = vec![0.0; csr.n_rows()];
    assert!(cluster.spmv(&bad, &mut y).is_err());
    let x = dense(csr.n_cols(), 7);
    let mut y_ref = vec![0.0; csr.n_rows()];
    csr.spmv_serial(&x, &mut y_ref);
    cluster.spmv(&x, &mut y).unwrap();
    assert!(
        rel_close(&y, &y_ref, 1e-12),
        "cluster wedged after bad input"
    );
    cluster.shutdown().unwrap();
}
