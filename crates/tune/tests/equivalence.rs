//! Autotuned configurations must be performance choices, not semantic
//! ones: whatever the search picks, the results have to match the
//! default path. Every fuzz generator family (minus the oversize-reject
//! probe, which builds nothing) is driven through the tuner for both
//! scalar types and all three operations, and the tuned executor's
//! output is compared against the serial CSR reference within the
//! workspace's accumulation-order tolerances.

use cscv_core::layout::ImageShape;
use cscv_core::SinoLayout;
use cscv_harness::gen::{generate, CaseDesc, GenKind};
use cscv_simd::{MaskExpand, Scalar};
use cscv_sparse::dense::assert_vec_close;
use cscv_sparse::{Coo, Csc, SpmvExecutor, ThreadPool};
use cscv_tune::{tuned_executor_with, ModelBench, Op, TuneCache, TuneOptions};

/// One representative descriptor per generator family. Small enough
/// that the full matrix (no sampling) keeps the suite fast; the tuner
/// still searches its whole pruned grid on each.
fn family_cases() -> Vec<CaseDesc> {
    GenKind::ALL
        .iter()
        .filter(|k| **k != GenKind::OversizeReject)
        .map(|k| {
            CaseDesc::parse(&format!(
                "kind={} views=12 bins=12 nx=6 ny=6 imgb=4 vvec=8 vxg=4 seed=42",
                k.name()
            ))
            .unwrap()
        })
        .collect()
}

/// Cast the f64 generator output to the scalar under test.
fn csc_as<T: Scalar>(coo: &Coo<f64>) -> Csc<T> {
    let csc = coo.to_csc();
    Csc::from_parts(
        csc.n_rows(),
        csc.n_cols(),
        csc.col_ptr().to_vec(),
        csc.row_idx().to_vec(),
        csc.vals().iter().map(|&v| T::from_f64(v)).collect(),
    )
}

/// Serial CSR ground truth for `y = A x` in the test's own scalar.
fn reference_spmv<T: Scalar>(csc: &Csc<T>, x: &[T]) -> Vec<T> {
    let csr = csc.to_csr();
    let mut y = vec![T::ZERO; csc.n_rows()];
    csr.spmv_serial(x, &mut y);
    y
}

/// Serial ground truth for `x = Aᵀ y` (CSC columns are Aᵀ's rows).
fn reference_spmv_t<T: Scalar>(csc: &Csc<T>, y: &[T]) -> Vec<T> {
    let mut x = vec![T::ZERO; csc.n_cols()];
    for c in 0..csc.n_cols() {
        let (rows, vals) = csc.col(c);
        let mut acc = T::ZERO;
        for (&r, &v) in rows.iter().zip(vals) {
            acc = acc + v * y[r as usize];
        }
        x[c] = acc;
    }
    x
}

fn check_family<T: Scalar + MaskExpand>(tol: f64) {
    let pool = ThreadPool::new(2);
    let k = 3usize;
    for desc in family_cases() {
        let layout = SinoLayout {
            n_views: desc.n_views,
            n_bins: desc.n_bins,
        };
        let img = ImageShape {
            nx: desc.nx,
            ny: desc.ny,
        };
        let csc: Csc<T> = csc_as(&generate(&desc));
        for op in [Op::Spmv, Op::Spmm { k }, Op::SpmvT] {
            let mut cache = TuneCache::in_memory();
            let opts = TuneOptions {
                op,
                reps: 1,
                warmup: 0,
                max_threads: 2,
                ..TuneOptions::default()
            };
            let tuned = tuned_executor_with(&csc, layout, img, &opts, &mut cache, &mut ModelBench)
                .expect("the heuristic builds for every corpus case");

            let x: Vec<T> = (0..csc.n_cols())
                .map(|i| T::from_f64(0.25 + (i % 13) as f64 * 0.5 - 3.0))
                .collect();
            let mut y = vec![T::from_f64(f64::NAN); csc.n_rows()];
            tuned.spmv(&x, &mut y, &pool);
            assert_vec_close(&y, &reference_spmv(&csc, &x), tol);

            let xs: Vec<T> = (0..k * csc.n_cols())
                .map(|i| T::from_f64((i % 9) as f64 * 0.75 - 2.0))
                .collect();
            let mut ys = vec![T::from_f64(f64::NAN); k * csc.n_rows()];
            tuned.spmv_multi(&xs, k, &mut ys, &pool);
            for i in 0..k {
                let want = reference_spmv(&csc, &xs[i * csc.n_cols()..(i + 1) * csc.n_cols()]);
                assert_vec_close(&ys[i * csc.n_rows()..(i + 1) * csc.n_rows()], &want, tol);
            }

            let yt: Vec<T> = (0..csc.n_rows())
                .map(|i| T::from_f64((i % 11) as f64 * 0.25 - 1.0))
                .collect();
            let mut xt = vec![T::from_f64(f64::NAN); csc.n_cols()];
            tuned.spmv_transpose(&yt, &mut xt, &pool);
            assert_vec_close(&xt, &reference_spmv_t(&csc, &yt), tol);
        }
    }
}

#[test]
fn tuned_configs_match_reference_f64() {
    check_family::<f64>(1e-12);
}

#[test]
fn tuned_configs_match_reference_f32() {
    check_family::<f32>(1e-5);
}

/// The warm path must be equivalent too: an executor built from a
/// cached entry computes the same results as the one built by the
/// search that produced the entry.
#[test]
fn cached_config_reproduces_search_results() {
    let desc =
        CaseDesc::parse("kind=ct-banded views=16 bins=16 nx=8 ny=8 imgb=4 vvec=8 vxg=4 seed=77")
            .unwrap();
    let layout = SinoLayout {
        n_views: desc.n_views,
        n_bins: desc.n_bins,
    };
    let img = ImageShape {
        nx: desc.nx,
        ny: desc.ny,
    };
    let csc: Csc<f64> = csc_as(&generate(&desc));
    let pool = ThreadPool::new(2);
    let opts = TuneOptions {
        reps: 1,
        warmup: 0,
        max_threads: 2,
        ..TuneOptions::default()
    };

    let mut cache = TuneCache::in_memory();
    let cold = tuned_executor_with(&csc, layout, img, &opts, &mut cache, &mut ModelBench).unwrap();
    let warm = tuned_executor_with(&csc, layout, img, &opts, &mut cache, &mut ModelBench).unwrap();
    assert_eq!(warm.config(), cold.config());

    let x: Vec<f64> = (0..csc.n_cols()).map(|i| (i % 7) as f64 - 2.5).collect();
    let (mut y_cold, mut y_warm) = (vec![0.0; csc.n_rows()], vec![0.0; csc.n_rows()]);
    cold.spmv(&x, &mut y_cold, &pool);
    warm.spmv(&x, &mut y_warm, &pool);
    assert_eq!(y_cold, y_warm, "same config, bit-identical results");
}
