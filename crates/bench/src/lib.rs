//! Shared command-line plumbing for the experiment drivers.
//!
//! Every driver binary reproduces one table or figure of the paper (see
//! DESIGN.md's per-experiment index). They share a tiny flag parser —
//! no CLI dependency needed:
//!
//! * `--paper-scale` — use the original Table II matrices instead of the
//!   ¼-scale defaults (tens of GB; see DESIGN.md);
//! * `--dataset NAME` — restrict to one dataset;
//! * `--threads a,b,c` — thread counts to sweep (default `1,2,4` capped
//!   by the machine);
//! * `--iters N` — timed iterations per measurement (default 20; the
//!   paper uses ≥ 100 — set `--iters 100` or `CSCV_BENCH_ITERS=100` for
//!   paper-strength numbers);
//! * `--csv PATH` — also write the table as CSV.

use cscv_ct::{datasets, CtDataset};
use cscv_harness::table::Table;
use cscv_sparse::ThreadPool;

/// Parsed common options.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    pub datasets: Vec<CtDataset>,
    pub threads: Vec<usize>,
    pub iters: usize,
    pub warmup: usize,
    pub csv: Option<String>,
}

impl BenchArgs {
    /// Parse `std::env::args`, exiting with usage on errors.
    pub fn parse() -> BenchArgs {
        Self::from_iter(std::env::args().skip(1))
    }

    #[allow(clippy::should_implement_trait)] // CLI flag parser, not an iterator ctor
    pub fn from_iter<I: IntoIterator<Item = String>>(iter: I) -> BenchArgs {
        let mut paper_scale = false;
        let mut dataset: Option<String> = None;
        let mut threads: Option<Vec<usize>> = None;
        let mut iters = 20usize;
        let mut csv = None;
        let mut it = iter.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--paper-scale" => paper_scale = true,
                "--dataset" => dataset = Some(it.next().expect("--dataset NAME")),
                "--threads" => {
                    threads = Some(
                        it.next()
                            .expect("--threads a,b,c")
                            .split(',')
                            .map(|s| s.parse().expect("thread count"))
                            .collect(),
                    )
                }
                "--iters" => iters = it.next().expect("--iters N").parse().expect("N"),
                "--csv" => csv = Some(it.next().expect("--csv PATH")),
                "--help" | "-h" => {
                    eprintln!(
                        "flags: [--paper-scale] [--dataset NAME] [--threads a,b,c] [--iters N] [--csv PATH]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}"),
            }
        }
        let mut suite = if paper_scale {
            datasets::paper_suite()
        } else {
            datasets::default_suite()
        };
        if let Some(name) = dataset {
            suite.retain(|d| d.name == name);
            assert!(!suite.is_empty(), "no dataset named {name}");
        }
        let hw = ThreadPool::max_parallelism();
        let threads = threads.unwrap_or_else(|| {
            [1usize, 2, 4]
                .into_iter()
                .filter(|&t| t <= hw.max(4))
                .collect()
        });
        BenchArgs {
            datasets: suite,
            threads,
            iters: cscv_harness::timing::bench_iters(iters),
            warmup: 3,
            csv,
        }
    }

    /// Largest requested thread count (pool/CVR sizing).
    pub fn max_threads(&self) -> usize {
        self.threads.iter().copied().max().unwrap_or(1)
    }
}

/// Print a table and optionally write its CSV.
pub fn emit(title: &str, table: &Table, csv: &Option<String>) {
    println!("\n== {title} ==\n");
    print!("{}", table.render());
    if let Some(path) = csv {
        std::fs::write(path, table.to_csv()).expect("write csv");
        println!("(csv written to {path})");
    }
}

/// RAII guard returned by [`trace_report`]; emits the trace report when
/// the driver exits (including on panic-unwind). Now the shared
/// [`cscv_trace::ReportGuard`] so drivers, solvers, and examples all use
/// the same exit hook.
pub use cscv_trace::ReportGuard as TraceReport;

/// Install the end-of-run trace reporter (call first in `main`). With
/// `--features trace` the report goes to `CSCV_TRACE_OUT` as NDJSON if
/// set, else to stderr as a table; untraced builds emit nothing.
pub fn trace_report() -> TraceReport {
    cscv_trace::report_guard()
}

/// Machine/bandwidth banner shared by the perf drivers.
pub fn banner() {
    let feats = cscv_simd::cpu_features();
    println!(
        "machine: {} hw threads, simd: {}, {}, profile {}, revision {}",
        ThreadPool::max_parallelism(),
        feats.summary(),
        cscv_harness::CacheSizes::detect(),
        cscv_harness::manifest::build_profile(),
        cscv_harness::manifest::git_revision()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> BenchArgs {
        BenchArgs::from_iter(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.datasets.len(), 4);
        assert_eq!(a.datasets[0].name, "ct128");
        assert!(!a.threads.is_empty());
        assert_eq!(a.iters, 20);
    }

    #[test]
    fn dataset_filter_and_iters() {
        let a = parse(&["--dataset", "ct256", "--iters", "5"]);
        assert_eq!(a.datasets.len(), 1);
        assert_eq!(a.datasets[0].name, "ct256");
        assert_eq!(a.iters, 5);
    }

    #[test]
    fn paper_scale_switches_suite() {
        let a = parse(&["--paper-scale"]);
        assert_eq!(a.datasets[0].name, "512x512");
    }

    #[test]
    fn threads_list() {
        let a = parse(&["--threads", "1,3,9"]);
        assert_eq!(a.threads, vec![1, 3, 9]);
        assert_eq!(a.max_threads(), 9);
    }

    #[test]
    #[should_panic]
    fn unknown_flag_panics() {
        parse(&["--bogus"]);
    }

    #[test]
    #[should_panic]
    fn missing_dataset_panics() {
        parse(&["--dataset", "nope"]);
    }
}

pub mod sweep;
