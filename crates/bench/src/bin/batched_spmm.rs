//! E-X3: batched multi-RHS SpMM — amortizing matrix traffic across
//! right-hand sides.
//!
//! Multi-slice reconstruction applies one system matrix to a stack of
//! sinograms/images; `spmv_multi` streams the matrix once per
//! register-tile chunk instead of once per RHS. This driver sweeps the
//! batch width `k` for the batched implementations (CSCV-Z, CSCV-M and
//! the tuned CSR/CSC baselines) and reports, per `(dataset, precision,
//! executor, k)`:
//!
//! * GFLOP/s of the batched product (`2·k·nnz/T`);
//! * measured speedup over `k` independent single-RHS SpMVs;
//! * the memory-model prediction `k·M_Rit(1)/M_Rit(k)` — the
//!   bandwidth-bound ceiling of the amortization.
//!
//! CSCV-Z and CSCV-M also get transpose rows, `CSCV-Z-T` and `CSCV-M-T`:
//! `spmv_transpose_multi` on the forward projection of the phantom,
//! against `k` single transposes. They are recorded in the manifests
//! under those names, so the perf gate covers the back-projection too.
//!
//! Run: `cargo run --release -p cscv-bench --bin batched_spmm --
//! [--dataset NAME] [--threads a,b,c] [--iters N] [--k a,b,c] [--csv PATH]`

use cscv_bench::{banner, emit, BenchArgs};
use cscv_core::{ExecConfig, Variant};
use cscv_harness::suite::{cscv_exec, executor_builders, prepare};
use cscv_harness::table::{f, Table};
use cscv_harness::timing::{measure_batched, measure_spmm, measure_spmv, modeled_batch_speedup};
use cscv_simd::MaskExpand;
use cscv_sparse::{Scalar, SpmvExecutor, ThreadPool};

/// Implementations with a tuned `spmv_multi` (the rest fall back to the
/// loop-of-singles default and would only measure noise).
const BATCHED: &[&str] = &["CSCV-Z", "CSCV-M", "MKL-CSR(analog)", "MKL-CSC(analog)"];

/// Transpose rows: the CSCV variants under their manifest names.
const TRANSPOSED: [(&str, Variant); 2] = [("CSCV-Z-T", Variant::Z), ("CSCV-M-T", Variant::M)];

fn batch_input<T: Scalar>(base: &[T], k: usize) -> Vec<T> {
    // RHS 0 is `base`; the rest are deterministic reshuffles of it so
    // every slice has the same value distribution but distinct data.
    let n = base.len();
    let mut x = vec![T::ZERO; k * n];
    for kk in 0..k {
        for j in 0..n {
            x[kk * n + j] = base[(j + kk * 257) % n];
        }
    }
    x
}

/// Interleave the k sweep over several rounds, keeping the per-k minimum
/// across rounds: slow drift on a shared machine (CPU steal) then hits
/// every batch width alike instead of whichever k was being timed at that
/// moment. `single(warmup, iters)` and `batch(ki, warmup, iters)` each
/// time one measurement and return its minimum; the result is the
/// single-RHS minimum and the per-k minima.
fn sweep(
    args: &BenchArgs,
    ks: &[usize],
    mut single: impl FnMut(usize, usize) -> f64,
    mut batch: impl FnMut(usize, usize, usize) -> f64,
) -> (f64, Vec<f64>) {
    let rounds = 4usize;
    let iters = args.iters.div_ceil(rounds).max(5);
    let mut one = f64::INFINITY;
    let mut best: Vec<f64> = vec![f64::INFINITY; ks.len()];
    for round in 0..rounds {
        let warmup = if round == 0 { args.warmup } else { 0 };
        one = one.min(single(warmup, iters));
        for (ki, b) in best.iter_mut().enumerate() {
            *b = b.min(batch(ki, warmup, iters));
        }
    }
    (one, best)
}

/// One table row per batch width of one implementation; `label` is the
/// row's leading `[dataset, implementation, threads]` cells.
fn add_rows<T: Scalar>(
    table: &mut Table,
    label: [&str; 3],
    ks: &[usize],
    exec: &dyn SpmvExecutor<T>,
    single: f64,
    best: &[f64],
) {
    let [dataset, name, threads] = label;
    for (&k, &secs) in ks.iter().zip(best) {
        let gflops = k as f64 * exec.flops() / secs / 1e9;
        table.add_row(vec![
            dataset.to_string(),
            T::NAME.to_string(),
            name.to_string(),
            threads.to_string(),
            k.to_string(),
            f(gflops, 3),
            f(k as f64 * single / secs, 2),
            f(modeled_batch_speedup(exec, k), 2),
        ]);
    }
}

fn run_precision<T: Scalar + MaskExpand>(args: &BenchArgs, ks: &[usize], table: &mut Table) {
    for ds in &args.datasets {
        let prep = prepare::<T>(ds);
        for &threads in &args.threads {
            let pool = ThreadPool::new(threads);
            let t = threads.to_string();
            for (name, builder) in executor_builders::<T>() {
                if !BATCHED.contains(&name) {
                    continue;
                }
                let exec = builder(&prep, threads);
                let exec: &dyn SpmvExecutor<T> = exec.as_ref();
                let xs: Vec<Vec<T>> = ks.iter().map(|&k| batch_input(&prep.x, k)).collect();
                let mut ys: Vec<Vec<T>> = ks
                    .iter()
                    .map(|&k| vec![T::ZERO; k * exec.n_rows()])
                    .collect();
                let mut y1 = vec![T::ZERO; exec.n_rows()];
                let (single, best) = sweep(
                    args,
                    ks,
                    |warmup, iters| {
                        measure_spmv(exec, &prep.x, &mut y1, &pool, warmup, iters).secs_min
                    },
                    |ki, warmup, iters| {
                        measure_spmm(exec, &xs[ki], ks[ki], &mut ys[ki], &pool, warmup, iters)
                            .secs_min
                    },
                );
                add_rows(table, [ds.name, name, &t], ks, exec, single, &best);
            }
            for (name, variant) in TRANSPOSED {
                let cfg = ExecConfig::heuristic(variant);
                let exec = cscv_exec(&prep, cfg.params, cfg.variant);
                let mut sino = vec![T::ZERO; exec.n_rows()];
                exec.spmv(&prep.x, &mut sino, &pool);
                let ys: Vec<Vec<T>> = ks.iter().map(|&k| batch_input(&sino, k)).collect();
                let mut xs: Vec<Vec<T>> = ks
                    .iter()
                    .map(|&k| vec![T::ZERO; k * exec.n_cols()])
                    .collect();
                let mut x1 = vec![T::ZERO; exec.n_cols()];
                let (single, best) = sweep(
                    args,
                    ks,
                    |warmup, iters| {
                        measure_batched(name, &exec, 1, warmup, iters, threads, || {
                            exec.spmv_transpose(&sino, &mut x1, &pool)
                        })
                        .secs_min
                    },
                    |ki, warmup, iters| {
                        let (k, x) = (ks[ki], &mut xs[ki]);
                        measure_batched(name, &exec, k, warmup, iters, threads, || {
                            exec.spmv_transpose_multi(&ys[ki], k, x, &pool)
                        })
                        .secs_min
                    },
                );
                add_rows(table, [ds.name, name, &t], ks, &exec, single, &best);
            }
        }
    }
}

fn main() {
    let _trace = cscv_bench::trace_report();
    let mut args_iter: Vec<String> = std::env::args().skip(1).collect();
    // Local flag: --k a,b,c (batch widths), default 1,2,4,8,16.
    let mut ks: Vec<usize> = vec![1, 2, 4, 8, 16];
    if let Some(pos) = args_iter.iter().position(|a| a == "--k") {
        let spec = args_iter.get(pos + 1).expect("--k a,b,c").clone();
        ks = spec
            .split(',')
            .map(|s| s.parse().expect("batch width"))
            .collect();
        args_iter.drain(pos..pos + 2);
    }
    let mut args = BenchArgs::from_iter(args_iter);
    args.datasets
        .retain(|d| d.name == "ct128" || d.name == "ct256");
    banner();
    println!("batch widths: {ks:?}");

    let mut table = Table::new(vec![
        "dataset",
        "precision",
        "implementation",
        "threads",
        "k",
        "GFLOP/s",
        "speedup vs k singles",
        "modeled (mem model)",
    ]);
    run_precision::<f32>(&args, &ks, &mut table);
    run_precision::<f64>(&args, &ks, &mut table);
    emit(
        "E-X3: batched multi-RHS SpMM — measured vs memory-model speedup",
        &table,
        &args.csv,
    );
}
