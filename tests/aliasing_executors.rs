//! The aliasing detector run over every shipped executor path.
//!
//! In a build with debug assertions (`cargo test`), every
//! `slice_mut`/`get_raw` on a shared output registers its range and
//! cross-thread overlaps panic. These tests drive the full executor field — every baseline
//! plus CSCV-Z/M, single and batched, forward and transpose, f32 and
//! f64, serial and pooled — and assert the opposite: the shipped
//! partitioning protocols never make a conflicting claim, so everything
//! runs to completion with finite results.
#![cfg(debug_assertions)]

use cscv_repro::harness::suite::{cscv_exec, executor_builders, prepare, PreparedDataset};
use cscv_repro::prelude::*;

fn assert_finite<T: Scalar>(what: &str, v: &[T]) {
    assert!(
        v.iter().all(|x| x.to_f64().is_finite()),
        "{what}: non-finite output"
    );
}

/// Forward SpMV and the batched variant, across the whole executor field.
fn forward_paths_run_clean<T: Scalar + cscv_repro::simd::MaskExpand>() {
    let prep: PreparedDataset<T> = prepare(&cscv_repro::ct::datasets::tiny());
    let (nr, nc) = (prep.csr.n_rows(), prep.csr.n_cols());
    let k = 3;
    let x_multi: Vec<T> = (0..k * nc)
        .map(|i| T::from_f64(((i % 23) as f64 - 11.0) / 11.0))
        .collect();
    for threads in [1, 4] {
        let pool = ThreadPool::new(threads);
        for (name, builder) in executor_builders::<T>() {
            let exec = builder(&prep, threads);
            let mut y = vec![T::ZERO; nr];
            exec.spmv(&prep.x, &mut y, &pool);
            assert_finite(name, &y);
            let mut y_multi = vec![T::ZERO; k * nr];
            exec.spmv_multi(&x_multi, k, &mut y_multi, &pool);
            assert_finite(name, &y_multi);
        }
    }
}

#[test]
fn every_executor_forward_path_is_claim_clean_f32() {
    forward_paths_run_clean::<f32>();
}

#[test]
fn every_executor_forward_path_is_claim_clean_f64() {
    forward_paths_run_clean::<f64>();
}

/// The CSCV transpose paths claim the output twice per call (zeroing
/// dispatch, then tile-owned scatters) — exactly the pattern the
/// `claims_barrier` epoch exists for. Both variants, both strategies.
fn transpose_paths_run_clean<T: Scalar + cscv_repro::simd::MaskExpand>() {
    let prep: PreparedDataset<T> = prepare(&cscv_repro::ct::datasets::tiny());
    let (nr, nc) = (prep.csr.n_rows(), prep.csr.n_cols());
    let k = 3;
    let y1: Vec<T> = (0..nr)
        .map(|i| T::from_f64((i as f64 * 0.37).cos()))
        .collect();
    let yk: Vec<T> = (0..k * nr)
        .map(|i| T::from_f64((i as f64 * 0.11).sin()))
        .collect();
    for (params, variant) in [
        (CscvParams::default_z(), Variant::Z),
        (CscvParams::default_m(), Variant::M),
    ] {
        let exec = cscv_exec(&prep, params, variant);
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let mut x1 = vec![T::ZERO; nc];
            exec.spmv_transpose(&y1, &mut x1, &pool);
            assert_finite("transpose", &x1);
            let mut xk = vec![T::ZERO; k * nc];
            exec.spmv_transpose_multi(&yk, k, &mut xk, &pool);
            assert_finite("transpose_multi", &xk);
        }
    }
}

#[test]
fn cscv_transpose_paths_are_claim_clean_f32() {
    transpose_paths_run_clean::<f32>();
}

#[test]
fn cscv_transpose_paths_are_claim_clean_f64() {
    transpose_paths_run_clean::<f64>();
}

/// End to end: a short SIRT reconstruction through the CSCV operator
/// (forward `A·x` plus the transpose back projection `Aᵀ·r`) runs with
/// the detector live on every iteration.
#[test]
fn reconstruction_loop_is_claim_clean() {
    use cscv_repro::recon::operators::CscvOperator;
    use cscv_repro::recon::sirt;
    let prep: PreparedDataset<f32> = prepare(&cscv_repro::ct::datasets::tiny());
    let exec = cscv_exec(&prep, CscvParams::default_m(), Variant::M);
    let pool = ThreadPool::new(3);
    let mut sino = vec![0.0f32; prep.csr.n_rows()];
    exec.spmv(&prep.x, &mut sino, &pool);
    let op = CscvOperator::new(exec, &prep.csr);
    let res = sirt(&op, &sino, 3, 1.0, &pool);
    assert_finite("sirt", &res.x);
}
