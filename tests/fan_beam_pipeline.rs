//! Integration: the CSCV machinery on the fan-beam geometry — the
//! paper's generality claim (§IV-C: IOBLR "theoretically supports
//! different CT imaging geometries") exercised end to end.

use cscv_repro::ct::{FanBeamGeometry, ImageGrid, Phantom};
use cscv_repro::prelude::*;
use cscv_repro::recon::metrics::rel_l2;
use cscv_repro::recon::operators::SpmvOperator;
use cscv_repro::recon::{cgls, CscvOperator};

fn setup() -> (FanBeamGeometry, ImageGrid, Csc<f32>) {
    let fan = FanBeamGeometry::standard(32, 46, 90, 4.0);
    let grid = ImageGrid::square(32, 1.0);
    let csc = fan.assemble_csc::<f32>(&grid);
    (fan, grid, csc)
}

#[test]
fn fan_beam_cscv_spmv_matches_reference_all_variants() {
    let (fan, _, csc) = setup();
    let layout = SinoLayout {
        n_views: fan.n_views,
        n_bins: fan.n_bins,
    };
    let img = ImageShape { nx: 32, ny: 32 };
    let x: Vec<f32> = (0..csc.n_cols())
        .map(|i| ((i * 7) % 13) as f32 * 0.2)
        .collect();
    let mut y_ref = vec![0.0f32; csc.n_rows()];
    csc.spmv_serial(&x, &mut y_ref);
    for variant in [Variant::Z, Variant::M] {
        for params in [CscvParams::new(8, 8, 2), CscvParams::new(4, 16, 4)] {
            let m = build(&csc, layout, img, params, variant);
            m.validate_full().unwrap();
            let exec = CscvExec::new(m);
            for threads in [1, 3] {
                let pool = ThreadPool::new(threads);
                let mut y = vec![f32::NAN; csc.n_rows()];
                exec.spmv(&x, &mut y, &pool);
                cscv_repro::sparse::dense::assert_vec_close(&y, &y_ref, 2e-4);
            }
        }
    }
}

#[test]
fn fan_beam_reconstruction_through_full_cscv_operator() {
    let (fan, grid, csc) = setup();
    let truth: Vec<f32> = Phantom::disks()
        .rasterize(&grid)
        .into_iter()
        .map(|v| v as f32)
        .collect();
    let csr = csc.to_csr();
    let mut sino = vec![0.0f32; csc.n_rows()];
    csr.spmv_serial(&truth, &mut sino);

    let layout = SinoLayout {
        n_views: fan.n_views,
        n_bins: fan.n_bins,
    };
    let img = ImageShape { nx: 32, ny: 32 };
    let exec = CscvExec::new(build(
        &csc,
        layout,
        img,
        CscvParams::new(8, 8, 2),
        Variant::M,
    ));
    let op = CscvOperator::new(exec, &csr);
    let pool = ThreadPool::new(2);
    let res = cgls(&op, &sino, 40, 1e-10, &pool);
    let err = rel_l2(&res.x, &truth);
    assert!(err < 0.2, "fan-beam CGLS rel err {err}");

    // Cross-backend agreement: the same reconstruction through CSR.
    let res_csr = cgls(&SpmvOperator::csr_pair(&csr), &sino, 40, 1e-10, &pool);
    cscv_repro::sparse::dense::assert_vec_close(&res.x, &res_csr.x, 5e-2);
}

#[test]
fn fan_beam_baselines_agree_too() {
    // Every baseline executor also handles the fan-beam matrix (they are
    // general-purpose formats, but this pins the integration).
    let (_, _, csc) = setup();
    let csr = csc.to_csr();
    let x: Vec<f32> = (0..csr.n_cols()).map(|i| (i as f32 * 0.11).cos()).collect();
    let mut y_ref = vec![0.0f32; csr.n_rows()];
    csr.spmv_serial(&x, &mut y_ref);
    let pool = ThreadPool::new(2);
    for exec in cscv_repro::sparse::formats::baseline_field(&csr, 2) {
        let mut y = vec![f32::NAN; csr.n_rows()];
        exec.spmv(&x, &mut y, &pool);
        let err = cscv_repro::sparse::dense::max_rel_err(&y, &y_ref);
        assert!(err < 5e-3, "{}: {err}", exec.name());
    }
}
