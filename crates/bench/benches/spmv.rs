//! Microbenchmarks: SpMV across all implementations (ct128, single
//! precision, one thread) plus the mask-expansion primitives.
//!
//! A plain `main` (no external crates): the suite's own min-time
//! harness reports the paper's estimator (minimum over N iterations) per
//! kernel.
//!
//! Run: `cargo bench -p cscv-bench`

use cscv_ct::datasets;
use cscv_harness::suite::{executor_builders, prepare};
use cscv_harness::timing::measure_spmv;
use cscv_simd::expand::{expand_soft, expand_with, ExpandPath};
use cscv_simd::MaskExpand;
use cscv_sparse::ThreadPool;
use std::time::Instant;

/// Min-time of `iters` runs of `f`, in seconds.
fn min_time<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn report(group: &str, name: &str, secs: f64, elems: Option<usize>) {
    match elems {
        Some(n) => println!(
            "{group:<34} {name:<22} {:>12.3} µs  {:>9.1} Melem/s",
            secs * 1e6,
            n as f64 / secs / 1e6
        ),
        None => println!("{group:<34} {name:<22} {:>12.3} µs", secs * 1e6),
    }
}

fn bench_spmv_field() {
    let ds = datasets::default_suite()[0]; // ct128
    let prep = prepare::<f32>(&ds);
    let pool = ThreadPool::new(1);
    let mut y = vec![0.0f32; prep.csr.n_rows()];
    for (name, builder) in executor_builders::<f32>() {
        let exec = builder(&prep, 1);
        let m = measure_spmv(exec.as_ref(), &prep.x, &mut y, &pool, 3, 20);
        report("spmv_ct128_f32_1t", name, m.secs_min, Some(prep.csr.nnz()));
    }
}

fn bench_expand() {
    let vals: Vec<f32> = (0..16).map(|i| i as f32).collect();
    let masks: Vec<u32> = (0..256).map(|i| (i * 2654435761u32) & 0xFFFF).collect();
    let soft = min_time(200, || {
        let mut acc = 0.0f32;
        for &m in &masks {
            let lanes: [f32; 16] = expand_soft(m, &vals);
            acc += lanes[0] + lanes[15];
        }
        std::hint::black_box(acc);
    });
    report(
        "mask_expand_f32x16",
        "soft-vexpand",
        soft,
        Some(masks.len()),
    );
    if <f32 as MaskExpand>::hw_available::<16>() {
        let hard = min_time(200, || {
            let mut acc = 0.0f32;
            for &m in &masks {
                let lanes: [f32; 16] = expand_with(ExpandPath::Hardware, m, &vals);
                acc += lanes[0] + lanes[15];
            }
            std::hint::black_box(acc);
        });
        report("mask_expand_f32x16", "vexpand", hard, Some(masks.len()));
    }
}

fn bench_transpose() {
    use cscv_core::{build, CscvExec, CscvParams, Variant};
    let ds = datasets::default_suite()[0];
    let prep = prepare::<f32>(&ds);
    let pool = ThreadPool::new(1);
    let y: Vec<f32> = (0..prep.csr.n_rows()).map(|i| (i % 13) as f32).collect();
    let mut x = vec![0.0f32; prep.csr.n_cols()];
    let exec_m = CscvExec::new(build(
        &prep.csc,
        prep.layout,
        prep.img,
        CscvParams::default_m(),
        Variant::M,
    ));
    let t = min_time(20, || exec_m.spmv_transpose(&y, &mut x, &pool));
    report(
        "backprojection_ct128_f32_1t",
        "CSCV-M-T",
        t,
        Some(prep.csr.nnz()),
    );
    let at = cscv_sparse::formats::CsrExec::new(prep.csr.transpose());
    use cscv_sparse::SpmvExecutor;
    let t = min_time(20, || at.spmv(&y, &mut x, &pool));
    report(
        "backprojection_ct128_f32_1t",
        "CSR(At)",
        t,
        Some(prep.csr.nnz()),
    );
}

fn bench_conversion() {
    use cscv_core::{build, CscvParams, Variant};
    let ds = datasets::default_suite()[0];
    let prep = prepare::<f32>(&ds);
    let t = min_time(10, || {
        std::hint::black_box(build(
            &prep.csc,
            prep.layout,
            prep.img,
            CscvParams::default_m(),
            Variant::M,
        ));
    });
    report("format_conversion_ct128_f32", "CSCV-M build", t, None);
    let t = min_time(10, || {
        std::hint::black_box(cscv_sparse::formats::Csr5Exec::new(&prep.csr));
    });
    report("format_conversion_ct128_f32", "CSR5 build", t, None);
    let t = min_time(10, || {
        std::hint::black_box(cscv_sparse::formats::SellCSigmaExec::new(&prep.csr));
    });
    report("format_conversion_ct128_f32", "SELL-C-sigma build", t, None);
    let t = min_time(10, || {
        std::hint::black_box(prep.csc.to_csr());
    });
    report("format_conversion_ct128_f32", "CSC->CSR transpose", t, None);
}

fn main() {
    bench_spmv_field();
    bench_expand();
    bench_transpose();
    bench_conversion();
}
