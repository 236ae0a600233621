//! E-X1: ablation of CSCV's design choices (our addition; see
//! DESIGN.md).
//!
//! On one dataset (default ct256, f32) measures the contribution of:
//!
//! 1. **VxG depth** — S_VxG ∈ {1, 2, 4, 8} at fixed tile/lane sizes
//!    (instruction pipelining + index compression vs padding);
//! 2. **expand path** — CSCV-M with hardware `vexpand` vs forced
//!    `soft-vexpand` (the paper's SKL-vs-Zen2 single-thread story).
//!
//! Run: `cargo run --release -p cscv-bench --bin ablation --
//! [--dataset NAME] [--threads 1,4] [--iters N]`

use cscv_bench::{banner, emit, BenchArgs};
use cscv_core::{build, CscvExec, CscvParams, Variant};
use cscv_harness::suite::prepare;
use cscv_harness::table::{f, Table};
use cscv_harness::timing::measure_spmv;
use cscv_simd::expand::ExpandPath;
use cscv_sparse::SpmvExecutor;
use cscv_sparse::ThreadPool;

fn main() {
    let _trace = cscv_bench::trace_report();
    let mut args = BenchArgs::parse();
    if args.datasets.len() > 1 {
        args.datasets.retain(|d| d.name == "ct256");
    }
    let ds = args.datasets[0];
    banner();
    println!("dataset: {} (single precision)", ds.name);
    let prep = prepare::<f32>(&ds);
    let mut y = vec![0.0f32; prep.csr.n_rows()];
    let pool1 = ThreadPool::new(1);
    let pool_n = ThreadPool::new(args.max_threads());

    // 1. VxG depth.
    let mut t1 = Table::new(vec![
        "variant",
        "S_VxG",
        "R_nnzE",
        "GFLOP/s (1T)",
        "index MiB",
    ]);
    for variant in [Variant::Z, Variant::M] {
        for s_vxg in [1usize, 2, 4, 8] {
            let params = CscvParams::new(16, 8, s_vxg);
            let m = build(&prep.csc, prep.layout, prep.img, params, variant);
            let r = m.stats.r_nnze();
            let exec = CscvExec::new(m);
            let value_bytes = exec.matrix().nnz_stored_vals() * 4;
            let idx = exec.matrix_bytes() - value_bytes;
            let meas = measure_spmv(&exec, &prep.x, &mut y, &pool1, args.warmup, args.iters);
            t1.add_row(vec![
                variant.to_string(),
                s_vxg.to_string(),
                f(r, 3),
                f(meas.gflops, 2),
                f(idx as f64 / (1 << 20) as f64, 1),
            ]);
        }
    }
    emit(
        "Ablation 1: VxG depth (S_ImgB=16, S_VVec=8)",
        &t1,
        &args.csv,
    );

    // 2. Expand path (only meaningful where hardware expand exists).
    let mut t2 = Table::new(vec!["expand path", "GFLOP/s (1T)", "GFLOP/s (NT)"]);
    let m = build(
        &prep.csc,
        prep.layout,
        prep.img,
        CscvParams::default_m(),
        Variant::M,
    );
    let mut exec = CscvExec::new(m);
    let hw_available = exec.expand_path() == ExpandPath::Hardware;
    for path in [ExpandPath::Hardware, ExpandPath::Software] {
        if path == ExpandPath::Hardware && !hw_available {
            continue;
        }
        exec.force_expand_path(path);
        let m1 = measure_spmv(&exec, &prep.x, &mut y, &pool1, args.warmup, args.iters);
        let mn = measure_spmv(&exec, &prep.x, &mut y, &pool_n, args.warmup, args.iters);
        t2.add_row(vec![path.to_string(), f(m1.gflops, 2), f(mn.gflops, 2)]);
    }
    emit("Ablation 2: CSCV-M expand path", &t2, &args.csv);
}
