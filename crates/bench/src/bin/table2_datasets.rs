//! E-T2: regenerate the paper's Table II (dataset information).
//!
//! Prints, per dataset: geometry parameters, nnz, x/y sizes — plus the
//! structural sanity columns the paper's properties imply (nnz per
//! column per view ≈ 2.6; P3 coefficient of variation of column
//! densities) and the set-up cost: seconds to assemble the CSC, convert
//! it to CSR, and build CSCV-Z and CSCV-M from it (the paper's "matrix
//! format conversion", run on every core), each the best of
//! [`SETUP_RUNS`] runs. Under `CSCV_MANIFEST_DIR` the stage times also
//! go to a `setup` manifest record, which the perf gate compares.
//!
//! Run: `cargo run --release -p cscv-bench --bin table2_datasets`
//! (`--paper-scale` regenerates the original sizes — tens of GB).

use cscv_bench::{emit, BenchArgs};
use cscv_core::layout::ImageShape;
use cscv_core::{build, CscvParams, SinoLayout, Variant};
use cscv_ct::system::SystemMatrix;
use cscv_harness::table::{f, Table};
use cscv_sparse::stats::MatrixProfile;
use cscv_sparse::ThreadPool;
use std::time::Instant;

/// Runs per set-up stage; the table and the manifest keep the fastest.
const SETUP_RUNS: usize = 3;

/// `f()` and its best wall time in seconds over [`SETUP_RUNS`] runs.
fn timed<R>(f: impl Fn() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..SETUP_RUNS {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some(r);
    }
    (out.expect("SETUP_RUNS > 0"), best)
}

fn main() {
    let _trace = cscv_bench::trace_report();
    let args = BenchArgs::parse();
    let mut table = Table::new(vec![
        "dataset",
        "img size",
        "num bin",
        "num view",
        "delta angle",
        "nnz",
        "x size",
        "y size",
        "nnz/col/view",
        "col-density CV (P3)",
        "assemble s",
        "CSC->CSR s",
        "CSCV-Z build s",
        "CSCV-M build s",
    ]);
    for ds in &args.datasets {
        let layout = SinoLayout {
            n_views: ds.n_views,
            n_bins: ds.n_bins,
        };
        let img = ImageShape {
            nx: ds.img,
            ny: ds.img,
        };
        let (csc, t_assemble) = timed(|| SystemMatrix::assemble_csc::<f32>(&ds.geometry()));
        let (csr, t_csr) = timed(|| csc.to_csr());
        let build_s = |params, variant| timed(|| build(&csc, layout, img, params, variant)).1;
        let t_z = build_s(CscvParams::default_z(), Variant::Z);
        let t_m = build_s(CscvParams::default_m(), Variant::M);
        cscv_harness::manifest::record_setup(
            ds.name,
            ThreadPool::max_parallelism(),
            &[
                ("assemble", t_assemble),
                ("csc-to-csr", t_csr),
                ("cscv-z-build", t_z),
                ("cscv-m-build", t_m),
            ],
        );
        let profile = MatrixProfile::from_csr(&csr);
        table.add_row(vec![
            ds.name.to_string(),
            format!("{0}x{0}", ds.img),
            ds.n_bins.to_string(),
            ds.n_views.to_string(),
            format!("{}°", ds.delta_angle_deg),
            profile.nnz.to_string(),
            ds.x_size().to_string(),
            ds.y_size().to_string(),
            f(
                profile.nnz as f64 / (ds.x_size() as f64 * ds.n_views as f64),
                2,
            ),
            f(profile.col_stats.cv, 3),
            f(t_assemble, 3),
            f(t_csr, 3),
            f(t_z, 3),
            f(t_m, 3),
        ]);
    }
    emit("Table II analog: CT matrix datasets", &table, &args.csv);
}
