//! Randomized tests over the whole suite's core invariants.
//!
//! Random *general* sparse matrices (not just CT ones) exercise the
//! baseline formats; random *trajectory-like* matrices (sinusoid bands
//! with noise) exercise CSCV, whose builder must be correct — if not
//! compact — on any sinogram-shaped operator.
//!
//! Cases are generated by the in-tree seeded [`XorShift64`] generator
//! (the workspace carries no external test-dependency), ~48 cases per
//! property, mirroring the original property-test configuration.

use cscv_repro::core::ExecConfig;
use cscv_repro::harness::gen::{generate, CaseDesc, GenKind};
use cscv_repro::prelude::*;
use cscv_repro::simd::rng::XorShift64;
use cscv_repro::simd::MaskExpand;
use cscv_repro::sparse::dense::assert_vec_close;

/// Random general sparse matrix via triplets (duplicates get summed).
fn random_coo(rng: &mut XorShift64, max_rows: usize, max_cols: usize) -> Coo<f64> {
    let n_rows = 1 + rng.next_usize(max_rows - 1);
    let n_cols = 1 + rng.next_usize(max_cols - 1);
    let n_entries = rng.next_usize(200);
    let mut coo = Coo::new(n_rows, n_cols);
    for _ in 0..n_entries {
        coo.push(
            rng.next_usize(n_rows),
            rng.next_usize(n_cols),
            rng.range_f64(-5.0, 5.0),
        );
    }
    coo
}

/// Random CT-like matrix: columns follow noisy sinusoid trajectories.
fn random_ct_like(rng: &mut XorShift64) -> (Csc<f64>, SinoLayout, ImageShape) {
    let nx = 2 + rng.next_usize(3);
    let ny = 2 + rng.next_usize(3);
    let groups = 1 + rng.next_usize(2);
    let n_bins = 8 + rng.next_usize(12);
    let n_views = groups * 8;
    let layout = SinoLayout { n_views, n_bins };
    let img = ImageShape { nx, ny };
    let mut coo = Coo::new(layout.n_rows(), img.n_pixels());
    for col in 0..img.n_pixels() {
        for v in 0..n_views {
            // Noisy sinusoid trajectory; occasional missing views.
            if rng.next_usize(7) == 0 {
                continue;
            }
            let phase = (v as f64 * 0.3 + col as f64).sin();
            let base = ((phase + 1.1) / 2.2 * (n_bins as f64 - 2.0)) as usize % (n_bins - 1);
            coo.push(
                layout.row_index(v, base),
                col,
                1.0 + rng.next_usize(100) as f64 * 0.01,
            );
            if rng.next_usize(3) == 0 {
                coo.push(layout.row_index(v, base + 1), col, 0.5);
            }
        }
    }
    (coo.to_csc(), layout, img)
}

#[test]
fn coo_csr_csc_roundtrips() {
    let mut rng = XorShift64::new(2001);
    for _ in 0..48 {
        let coo = random_coo(&mut rng, 40, 40);
        let csr = coo.to_csr();
        let csc = coo.to_csc();
        // All three representations produce the same dense image.
        let mut dedup = coo.clone();
        dedup.sum_duplicates();
        assert_eq!(csr.to_coo().to_dense(), dedup.to_dense());
        assert_eq!(csc.to_coo().to_dense(), dedup.to_dense());
        // Round-trips are lossless.
        assert_eq!(csr.to_csc().to_csr(), csr.clone());
        // Transpose is an involution.
        assert_eq!(csr.transpose().transpose(), csr);
    }
}

#[test]
fn baseline_executors_match_reference() {
    let mut rng = XorShift64::new(2002);
    for _ in 0..48 {
        let coo = random_coo(&mut rng, 60, 40);
        let threads = 1 + rng.next_usize(4);
        let csr = coo.to_csr();
        let x: Vec<f64> = (0..csr.n_cols())
            .map(|i| ((i * 13) % 7) as f64 - 3.0)
            .collect();
        let mut y_ref = vec![0.0; csr.n_rows()];
        coo.spmv_reference(&x, &mut y_ref);
        let pool = ThreadPool::new(threads);
        for exec in cscv_repro::sparse::formats::baseline_field(&csr, threads) {
            let mut y = vec![f64::NAN; csr.n_rows()];
            exec.spmv(&x, &mut y, &pool);
            let err = cscv_repro::sparse::dense::max_rel_err(&y, &y_ref);
            assert!(err < 1e-10, "{} err {}", exec.name(), err);
        }
    }
}

#[test]
fn cscv_matches_reference_on_trajectory_matrices() {
    let mut rng = XorShift64::new(2003);
    for _ in 0..48 {
        let (csc, layout, img) = random_ct_like(&mut rng);
        let s_imgb = 1 + rng.next_usize(3);
        let s_vxg = 1 + rng.next_usize(4);
        let w = [4usize, 8, 16][rng.next_usize(3)];
        let threads = 1 + rng.next_usize(3);
        let params = CscvParams::new(s_imgb, w, s_vxg);
        let x: Vec<f64> = (0..csc.n_cols()).map(|i| (i as f64 * 0.37).cos()).collect();
        let mut y_ref = vec![0.0; csc.n_rows()];
        csc.spmv_serial(&x, &mut y_ref);
        let pool = ThreadPool::new(threads);
        for variant in [Variant::Z, Variant::M] {
            let m = build(&csc, layout, img, params, variant);
            m.validate();
            // Stored padding accounting is exact.
            assert_eq!(
                m.stats.lane_slots,
                m.stats.nnz_orig + m.stats.ioblr_padding + m.stats.vxg_padding
            );
            let exec = CscvExec::new(m);
            let mut y = vec![f64::NAN; csc.n_rows()];
            exec.spmv(&x, &mut y, &pool);
            let err = cscv_repro::sparse::dense::max_rel_err(&y, &y_ref);
            assert!(err < 1e-10, "{variant} {params} err {err}");
        }
    }
}

/// One descriptor per generator family (minus the oversize-reject
/// probe, which builds nothing), cast to the scalar under test.
fn family_cases<T: Scalar>() -> Vec<(Csc<T>, SinoLayout, ImageShape)> {
    GenKind::ALL
        .iter()
        .filter(|k| **k != GenKind::OversizeReject)
        .map(|k| {
            let desc = CaseDesc::parse(&format!(
                "kind={} views=12 bins=12 nx=6 ny=6 imgb=4 vvec=8 vxg=4 seed=42",
                k.name()
            ))
            .unwrap();
            let csc = generate(&desc).to_csc();
            let csc = Csc::from_parts(
                csc.n_rows(),
                csc.n_cols(),
                csc.col_ptr().to_vec(),
                csc.row_idx().to_vec(),
                csc.vals().iter().map(|&v| T::from_f64(v)).collect(),
            );
            let layout = SinoLayout {
                n_views: desc.n_views,
                n_bins: desc.n_bins,
            };
            let img = ImageShape {
                nx: desc.nx,
                ny: desc.ny,
            };
            (csc, layout, img)
        })
        .collect()
}

/// Both heuristic executors against the serial references on every
/// generator family, through `spmv`, `spmv_multi` (k = 3) and
/// `spmv_transpose`.
fn check_family<T: Scalar + MaskExpand>(tol: f64) {
    let pool = ThreadPool::new(2);
    let k = 3usize;
    for (csc, layout, img) in family_cases::<T>() {
        let reference = |x: &[T]| {
            let mut y = vec![T::ZERO; csc.n_rows()];
            csc.spmv_serial(x, &mut y);
            y
        };
        for variant in [Variant::Z, Variant::M] {
            let exec = CscvExec::from_csc(&csc, layout, img, ExecConfig::heuristic(variant))
                .expect("the heuristic builds for every generator family");

            let x: Vec<T> = (0..csc.n_cols())
                .map(|i| T::from_f64(0.25 + (i % 13) as f64 * 0.5 - 3.0))
                .collect();
            let mut y = vec![T::from_f64(f64::NAN); csc.n_rows()];
            exec.spmv(&x, &mut y, &pool);
            assert_vec_close(&y, &reference(&x), tol);

            let xs: Vec<T> = (0..k * csc.n_cols())
                .map(|i| T::from_f64((i % 9) as f64 * 0.75 - 2.0))
                .collect();
            let mut ys = vec![T::from_f64(f64::NAN); k * csc.n_rows()];
            exec.spmv_multi(&xs, k, &mut ys, &pool);
            for (xi, yi) in xs.chunks(csc.n_cols()).zip(ys.chunks(csc.n_rows())) {
                assert_vec_close(yi, &reference(xi), tol);
            }

            let yt: Vec<T> = (0..csc.n_rows())
                .map(|i| T::from_f64((i % 11) as f64 * 0.25 - 1.0))
                .collect();
            let mut xt = vec![T::from_f64(f64::NAN); csc.n_cols()];
            exec.spmv_transpose(&yt, &mut xt, &pool);
            let mut xt_ref = vec![T::ZERO; csc.n_cols()];
            csc.spmv_transpose_serial(&yt, &mut xt_ref);
            assert_vec_close(&xt, &xt_ref, tol);
        }
    }
}

#[test]
fn heuristic_configs_match_reference_f64() {
    check_family::<f64>(1e-12);
}

#[test]
fn heuristic_configs_match_reference_f32() {
    check_family::<f32>(1e-5);
}

#[test]
fn mask_expand_roundtrip() {
    use cscv_repro::simd::expand::{compress_into, expand_soft};
    let mut rng = XorShift64::new(2004);
    for _ in 0..48 {
        // Mix exact zeros with nonzero values so masks vary.
        let block: [f32; 16] = std::array::from_fn(|_| {
            if rng.next_usize(4) == 0 {
                0.0
            } else {
                rng.range_f64(-10.0, 10.0) as f32
            }
        });
        let mut packed = Vec::new();
        let mask = compress_into(&block, &mut packed);
        assert_eq!(mask.count_ones() as usize, packed.len());
        let out: [f32; 16] = expand_soft(mask, &packed);
        // Round-trip exact for nonzero lanes; zeros stay zero.
        for l in 0..16 {
            if block[l] != 0.0 {
                assert_eq!(out[l], block[l]);
            } else {
                assert_eq!(out[l], 0.0);
            }
        }
    }
}

#[test]
fn partitions_cover_and_balance() {
    let mut rng = XorShift64::new(2005);
    for _ in 0..48 {
        let n_weights = rng.next_usize(100);
        let weights: Vec<usize> = (0..n_weights).map(|_| rng.next_usize(50)).collect();
        let k = 1 + rng.next_usize(8);
        let ranges = cscv_repro::sparse::partition::split_by_weights(&weights, k);
        assert_eq!(ranges.len(), k);
        let mut next = 0usize;
        for r in &ranges {
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, weights.len());
        // No range exceeds total/k + max single weight (balance bound).
        let total: usize = weights.iter().sum();
        let wmax = weights.iter().copied().max().unwrap_or(0);
        for r in &ranges {
            let w: usize = weights[r.start..r.end].iter().sum();
            assert!(w <= total / k + wmax + 1);
        }
    }
}
