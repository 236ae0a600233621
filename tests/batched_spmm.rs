//! Batched multi-RHS equivalence: `spmv_multi(X, k)` must agree with
//! `k` independent `spmv` calls for EVERY executor in the field — the
//! tuned multi-RHS implementations (CSCV-Z/M, CSR, CSC) and the
//! loop-of-singles default the remaining baselines inherit — plus the
//! batched transpose adjoint identity, column by column. The CSCV
//! kernels promise the single-RHS FMA order op for op at every batch
//! width, so for them the agreement is bitwise in both precisions.

use cscv_repro::harness::suite::{cscv_exec, executor_builders, prepare, PreparedDataset};
use cscv_repro::prelude::*;
use cscv_repro::sparse::dense::max_rel_err;

/// Column-major batch input: deterministic reshuffles of the phantom so
/// every RHS has the same value distribution but distinct data.
fn batch_input<T: Scalar>(x1: &[T], k: usize) -> Vec<T> {
    let n = x1.len();
    let mut x = vec![T::ZERO; k * n];
    for kk in 0..k {
        for j in 0..n {
            x[kk * n + j] = x1[(j + kk * 131) % n];
        }
    }
    x
}

/// Executors whose batched products must be bit-identical to `k`
/// single-RHS products.
const BITWISE: &[&str] = &["CSCV-Z", "CSCV-M"];

fn check_all_executors<T: Scalar + cscv_repro::simd::MaskExpand>(tol: f64) {
    let prep: PreparedDataset<T> = prepare(&cscv_repro::ct::datasets::tiny());
    let (nr, nc) = (prep.csr.n_rows(), prep.csr.n_cols());
    // k = 3 and 8 exercise the {8,4,2,1} register-tile decomposition
    // including a non-power-of-two tail; k = 1 the passthrough.
    for k in [1usize, 3, 8] {
        let x = batch_input(&prep.x, k);
        for threads in [1, 3] {
            let pool = ThreadPool::new(threads);
            for (name, builder) in executor_builders::<T>() {
                let exec = builder(&prep, threads);
                let mut y_multi = vec![T::ZERO; k * nr];
                exec.spmv_multi(&x, k, &mut y_multi, &pool);
                for kk in 0..k {
                    let mut y_one = vec![T::ZERO; nr];
                    exec.spmv(&x[kk * nc..(kk + 1) * nc], &mut y_one, &pool);
                    let y_kk = &y_multi[kk * nr..(kk + 1) * nr];
                    if BITWISE.contains(&name) {
                        assert!(
                            y_kk == y_one.as_slice(),
                            "{name} k={k} rhs={kk} threads={threads}: not bit-identical"
                        );
                    } else {
                        let err = max_rel_err(y_kk, &y_one);
                        assert!(
                            err < tol,
                            "{name} k={k} rhs={kk} threads={threads}: err {err}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn every_executor_spmv_multi_matches_k_singles_f32() {
    check_all_executors::<f32>(1e-5);
}

#[test]
fn every_executor_spmv_multi_matches_k_singles_f64() {
    check_all_executors::<f64>(1e-12);
}

fn check_cscv_batched_transpose<T: Scalar + cscv_repro::simd::MaskExpand>() {
    let prep: PreparedDataset<T> = prepare(&cscv_repro::ct::datasets::tiny());
    let (nr, nc) = (prep.csr.n_rows(), prep.csr.n_cols());
    for (params, variant) in [
        (CscvParams::default_z(), Variant::Z),
        (CscvParams::default_m(), Variant::M),
    ] {
        let exec = cscv_exec(&prep, params, variant);
        for k in [1usize, 3, 8] {
            let y: Vec<T> = (0..k * nr)
                .map(|i| T::from_f64((i as f64 * 0.23).sin()))
                .collect();
            for threads in [1, 4] {
                let pool = ThreadPool::new(threads);
                let mut x_multi = vec![T::from_f64(f64::NAN); k * nc];
                exec.spmv_transpose_multi(&y, k, &mut x_multi, &pool);
                for kk in 0..k {
                    let mut x_one = vec![T::from_f64(f64::NAN); nc];
                    exec.spmv_transpose(&y[kk * nr..(kk + 1) * nr], &mut x_one, &pool);
                    assert!(
                        x_multi[kk * nc..(kk + 1) * nc] == x_one[..],
                        "{variant:?} k={k} rhs={kk} threads={threads}: not bit-identical"
                    );
                }
            }
        }
    }
}

#[test]
fn cscv_batched_transpose_matches_k_single_transposes() {
    check_cscv_batched_transpose::<f64>();
}

#[test]
fn cscv_batched_transpose_matches_k_single_transposes_f32() {
    check_cscv_batched_transpose::<f32>();
}

#[test]
fn batched_adjoint_identity_holds_per_column() {
    // ⟨A·X, Y⟩ = ⟨X, Aᵀ·Y⟩ for every column of the batch.
    let prep: PreparedDataset<f64> = prepare(&cscv_repro::ct::datasets::tiny());
    let (nr, nc) = (prep.csr.n_rows(), prep.csr.n_cols());
    let exec = cscv_exec(&prep, CscvParams::default_m(), Variant::M);
    let pool = ThreadPool::new(2);
    let k = 5;
    let x = batch_input(&prep.x, k);
    let y: Vec<f64> = (0..k * nr)
        .map(|i| ((i % 97) as f64 - 48.0) / 48.0)
        .collect();
    let mut ax = vec![0.0; k * nr];
    let mut aty = vec![0.0; k * nc];
    exec.spmv_multi(&x, k, &mut ax, &pool);
    exec.spmv_transpose_multi(&y, k, &mut aty, &pool);
    for kk in 0..k {
        let lhs: f64 = ax[kk * nr..(kk + 1) * nr]
            .iter()
            .zip(&y[kk * nr..(kk + 1) * nr])
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f64 = x[kk * nc..(kk + 1) * nc]
            .iter()
            .zip(&aty[kk * nc..(kk + 1) * nc])
            .map(|(a, b)| a * b)
            .sum();
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        assert!(
            ((lhs - rhs) / scale).abs() < 1e-12,
            "column {kk}: ⟨AX,Y⟩={lhs} vs ⟨X,AᵀY⟩={rhs}"
        );
    }
}

#[test]
fn batched_memory_model_amortizes_matrix_bytes() {
    let prep: PreparedDataset<f32> = prepare(&cscv_repro::ct::datasets::tiny());
    let exec = cscv_exec(&prep, CscvParams::default_m(), Variant::M);
    let m1 = exec.memory_requirement_multi(1);
    let m8 = exec.memory_requirement_multi(8);
    assert_eq!(m1, exec.memory_requirement());
    // Matrix bytes appear once; only the vector term scales with k.
    let vec_bytes = (exec.n_rows() + exec.n_cols()) * std::mem::size_of::<f32>();
    assert_eq!(m8 - m1, 7 * vec_bytes);
    // The modeled amortization is therefore strictly between 1× and 8×.
    let modeled = 8.0 * m1 as f64 / m8 as f64;
    assert!(modeled > 1.0 && modeled < 8.0);
}
