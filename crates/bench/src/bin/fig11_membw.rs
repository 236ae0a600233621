//! E-F11: memory requirements, best performance and effective-bandwidth
//! usage ratio — paper Fig. 11.
//!
//! Measures the machine's peak read bandwidth (the Intel MLC analog),
//! then reports per implementation on one dataset: `M_Rit`, best
//! GFLOP/s at the top thread count, achieved bandwidth and
//! `R_EM = M_Rit/(T·M_PBw)`. Default dataset ct256 (scaled analog of
//! the paper's 1024² study). A row with `R_EM > 1` read its matrix from
//! cache and is marked as such.
//!
//! Run: `cargo run --release -p cscv-bench --bin fig11_membw --
//! [--dataset NAME] [--iters N] [--csv PATH]`

use cscv_bench::{banner, emit, BenchArgs};
use cscv_harness::membw;
use cscv_harness::suite::{executor_builders, prepare};
use cscv_harness::table::{f, mib, Table};
use cscv_harness::timing::measure_spmv;
use cscv_simd::MaskExpand;
use cscv_sparse::{Scalar, ThreadPool};

/// Adds one row per implementation; returns whether any was
/// cache-resident.
fn run_precision<T: Scalar + MaskExpand>(
    args: &BenchArgs,
    pool: &ThreadPool,
    peak: f64,
    table: &mut Table,
) -> bool {
    let mut any_cached = false;
    let ds = args.datasets[0];
    let prep = prepare::<T>(&ds);
    let mut y = vec![T::ZERO; prep.csr.n_rows()];
    for (name, builder) in executor_builders::<T>() {
        let exec = builder(&prep, pool.n_threads());
        let m = measure_spmv(
            exec.as_ref(),
            &prep.x,
            &mut y,
            pool,
            args.warmup,
            args.iters,
        );
        let cached = m.cache_resident(peak);
        any_cached |= cached;
        table.add_row(vec![
            T::NAME.to_string(),
            name.to_string(),
            mib(m.mem_requirement),
            f(m.gflops, 2),
            f(m.eff_bandwidth_gbs, 2),
            format!(
                "{:.1}%{}",
                m.r_em(peak) * 100.0,
                if cached { " (cache)" } else { "" }
            ),
            f(m.r_nnze, 3),
        ]);
    }
    any_cached
}

fn main() {
    let _trace = cscv_bench::trace_report();
    let mut args = BenchArgs::parse();
    if args.datasets.len() > 1 {
        args.datasets.retain(|d| d.name == "ct256");
    }
    banner();
    let pool = ThreadPool::new(args.max_threads());
    println!("measuring peak read bandwidth (STREAM-style, MLC analog)…");
    let bw = membw::measure_default(&pool);
    println!(
        "peak read {:.1} GB/s, triad {:.1} GB/s, dataset {}, {} threads",
        bw.read_gbs(),
        bw.triad_gbs(),
        args.datasets[0].name,
        pool.n_threads()
    );

    let mut table = Table::new(vec![
        "precision",
        "implementation",
        "M_Rit (MiB)",
        "GFLOP/s",
        "eff BW (GB/s)",
        "R_EM",
        "R_nnzE",
    ]);
    let cached_f32 = run_precision::<f32>(&args, &pool, bw.read_bytes_per_sec, &mut table);
    let cached_f64 = run_precision::<f64>(&args, &pool, bw.read_bytes_per_sec, &mut table);
    emit(
        "Fig. 11 analog: memory requirements, performance and bandwidth usage",
        &table,
        &args.csv,
    );
    if cached_f32 || cached_f64 {
        println!(
            "(cache): R_EM > 1, so the matrix came from cache; that R_EM is not a DRAM-bandwidth fraction"
        );
    }
}
