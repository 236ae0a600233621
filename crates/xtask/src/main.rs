//! CLI entry point.
//!
//! ```text
//! cscv-xtask fuzz [--iters N] [--seed S] [--corpus DIR]
//! cscv-xtask perf-report DIR [--format table|ndjson] [--peak-gbs F]
//!                            [--export-dir DIR]
//! cscv-xtask perf-report --diff DIR_A DIR_B [--threshold F]
//!                            [--format table|ndjson]
//! ```
//!
//! Exit codes: 0 = clean, 1 = perf regressions / fuzz failures,
//! 2 = usage or IO error, or a perf diff of two different builds or of
//! hosts with different caches.

use cscv_xtask::{fuzz, perf};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Table,
    Ndjson,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cscv-xtask fuzz [--iters N] [--seed S] [--corpus DIR]\n\
         \x20      cscv-xtask perf-report DIR [--format table|ndjson] [--peak-gbs F] [--export-dir DIR]\n\
         \x20      cscv-xtask perf-report --diff DIR_A DIR_B [--threshold F] [--format table|ndjson]\n\n\
         fuzz        structure-aware differential fuzzing: random CT geometries and\n\
         \x20           degenerate matrices round-tripped through every format with\n\
         \x20           invariant validation and executor-vs-dense checks; failures\n\
         \x20           shrink to a replayable seed (also replays --corpus DIR).\n\
         perf-report aggregates a benchmark result directory (manifests/*.ndjson,\n\
         \x20           optional trace/*.ndjson) into a roofline report classifying\n\
         \x20           each kernel as latency- or bandwidth-bound, optionally\n\
         \x20           exporting Chrome traces + flamegraph stacks; with --diff it\n\
         \x20           compares two directories (min-of-reps kernels and set-up\n\
         \x20           stages, relative threshold) and exits 1 on regressions,\n\
         \x20           2 when the two come from different builds or hosts with\n\
         \x20           different caches."
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => fuzz_cmd(&args[1..]),
        Some("perf-report") => perf_cmd(&args[1..]),
        _ => usage(),
    }
}

fn parse_format(v: Option<&str>) -> Option<Format> {
    match v {
        Some("table") => Some(Format::Table),
        Some("ndjson") => Some(Format::Ndjson),
        _ => None,
    }
}

fn fuzz_cmd(args: &[String]) -> ExitCode {
    let mut cfg = fuzz::FuzzConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--iters" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.iters = n,
                None => return usage(),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(s) => cfg.seed = s,
                None => return usage(),
            },
            "--corpus" => match it.next() {
                Some(d) => cfg.corpus = Some(PathBuf::from(d)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    match fuzz::run(&cfg) {
        Ok(outcome) => {
            print!("{}", outcome.render());
            if outcome.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("cscv-xtask fuzz: {e}");
            ExitCode::from(2)
        }
    }
}

fn perf_cmd(args: &[String]) -> ExitCode {
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut format = Format::Table;
    let mut peak_gbs: Option<f64> = None;
    let mut export_dir: Option<PathBuf> = None;
    let mut threshold = 0.05;
    let mut diff_mode = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--diff" => diff_mode = true,
            "--format" => match parse_format(it.next().map(String::as_str)) {
                Some(f) => format = f,
                None => return usage(),
            },
            "--peak-gbs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(p) => peak_gbs = Some(p),
                None => return usage(),
            },
            "--threshold" => match it.next().and_then(|v| v.parse().ok()) {
                Some(t) => threshold = t,
                None => return usage(),
            },
            "--export-dir" => match it.next() {
                Some(d) => export_dir = Some(PathBuf::from(d)),
                None => return usage(),
            },
            s if !s.starts_with('-') => dirs.push(PathBuf::from(s)),
            _ => return usage(),
        }
    }
    let result = if diff_mode {
        let [a, b] = dirs.as_slice() else {
            return usage();
        };
        perf_diff(a, b, threshold, format)
    } else {
        let [dir] = dirs.as_slice() else {
            return usage();
        };
        perf_report(dir, peak_gbs, export_dir.as_deref(), format)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cscv-xtask perf-report: {e}");
            ExitCode::from(2)
        }
    }
}

fn perf_report(
    dir: &std::path::Path,
    peak_gbs: Option<f64>,
    export_dir: Option<&std::path::Path>,
    format: Format,
) -> Result<ExitCode, String> {
    let loaded = perf::load_dir(dir)?;
    let report = perf::build_report(&loaded, peak_gbs)?;
    match format {
        Format::Table => {
            print!("{}", perf::render_table(&loaded, &report));
            let traces = perf::load_trace_counters(dir)?;
            print!("{}", perf::render_trace_section(&traces));
        }
        Format::Ndjson => print!("{}", perf::render_ndjson(&loaded, &report)),
    }
    if let Some(out) = export_dir {
        for path in perf::export_traces(dir, out)? {
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn perf_diff(
    a: &std::path::Path,
    b: &std::path::Path,
    threshold: f64,
    format: Format,
) -> Result<ExitCode, String> {
    let la = perf::load_dir(a)?;
    let lb = perf::load_dir(b)?;
    perf::comparable(&la, &lb).map_err(|why| format!("refusing to compare: {why}"))?;
    let rows = perf::diff(&la, &lb, threshold);
    match format {
        Format::Table => {
            print!("{}", perf::render_diff_table(&la, &lb, &rows, threshold));
            // Informational trace-counter comparison; never gates the
            // exit code (counter drift is not a latency regression).
            let (ta, tb) = (perf::load_trace_counters(a)?, perf::load_trace_counters(b)?);
            print!("{}", perf::render_trace_diff(&ta, &tb));
        }
        Format::Ndjson => print!("{}", perf::render_diff_ndjson(&rows)),
    }
    Ok(if perf::has_regressions(&rows) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}
