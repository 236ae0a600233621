//! `perf-report`: turn a directory of benchmark manifests (and,
//! optionally, NDJSON traces) into a roofline-attributed performance
//! report, or diff two such directories with noise-aware comparison.
//!
//! Input layout (what `run_experiments.sh` produces):
//!
//! ```text
//! bench_results/smoke/
//!   manifests/*.ndjson   # measurement records (schema v1 to v6)
//!   trace/*.ndjson       # optional cscv-trace dumps (CSCV_TRACE_OUT)
//! ```
//!
//! Passing either the run directory or its `manifests/` subdirectory
//! works. Each `spmv`/`spmm` record is aggregated under the key
//! `driver/name/tN/kN`; the representative record per key is the one
//! with the best GFLOP/s, and per-rep `samples` arrays are pooled across
//! records. Schema-v1 lines (no `samples`) degrade to a single-sample
//! distribution at `secs_min`. Each stage of a `setup` record (v6) is
//! kept under `driver/setup/dataset/stage` at its best time.
//!
//! The roofline section joins each kernel with a bandwidth ceiling,
//! resolved in order: an explicit `--peak-gbs` flag, the best `membw`
//! record found in the manifests, else the maximum observed effective
//! bandwidth as a proxy (clearly labeled — attained bandwidth can only
//! under-estimate the roof, so classifications stay conservative).
//!
//! Diffing compares the best (minimum) per-rep time per key — min-of-
//! reps is immune to scheduler noise in a way means are not — and only
//! flags a regression when the slowdown exceeds the relative threshold.
//! It refuses to compare two directories whose records come from
//! different builds (the schema-v3 `target_features`), from hosts with
//! different caches (the schema-v4 `cache`) or from different profiles
//! (the schema-v5 `profile`), or a directory that mixes any of them: a
//! kernel built without `fma` is several times slower on the same CPU,
//! a matrix that fits one host's L3 is DRAM-bound on another, and a
//! debug build runs the aliasing detector and the invariant hooks, so
//! such a diff would measure the build or the host, not the change.
//! Records from before v5 carry no profile and compare with either, so
//! the A/B gate still runs across the schema change. Nothing else a
//! record carries has to agree, so two revisions of the code (the point
//! of a diff) always compare: the v6 `revision` is printed, never
//! checked. Set-up stages are diffed like kernels, so a change that
//! doubles a format build fails the gate as a slower kernel does.

use cscv_harness::roofline::{self, RooflinePoint};
use cscv_harness::{summarize_samples, LatencySummary};
use cscv_trace::json::Json;
use cscv_trace::{export, hist::exact_percentile};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One kernel (`driver/name/tN/kN`) aggregated across its records.
#[derive(Debug, Clone)]
pub struct KernelAgg {
    pub driver: String,
    pub name: String,
    pub threads: u64,
    pub k: u64,
    /// Best (minimum) `secs_min` across records.
    pub secs_min: f64,
    /// Best GFLOP/s across records.
    pub gflops: f64,
    /// Model bytes (`M_Rit(k)`) of the best-GFLOP/s record.
    pub mem_bytes: f64,
    /// Best effective bandwidth across records (GB/s).
    pub eff_bw_gbs: f64,
    /// Per-rep samples pooled across records (seconds, v1 ⇒ one per
    /// record at `secs_min`).
    pub samples: Vec<f64>,
}

impl KernelAgg {
    /// The aggregation key.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/t{}/k{}",
            self.driver, self.name, self.threads, self.k
        )
    }

    /// Best per-rep time: the noise-robust comparison metric.
    pub fn best_secs(&self) -> f64 {
        self.samples.iter().copied().fold(self.secs_min, f64::min)
    }

    /// Useful flops of one run, recovered from the recorded rate.
    pub fn flops(&self) -> f64 {
        self.gflops * 1e9 * self.secs_min
    }

    pub fn latency(&self) -> LatencySummary {
        summarize_samples(&self.samples)
    }
}

/// A parsed manifest directory.
#[derive(Debug, Clone)]
pub struct LoadedDir {
    pub dir: PathBuf,
    /// Sorted by key.
    pub kernels: Vec<KernelAgg>,
    /// Best read-bandwidth ceiling from `membw` records, if any.
    pub membw_read_gbs: Option<f64>,
    pub n_records: usize,
    /// Records without a `samples` array (schema v1).
    pub n_v1: usize,
    /// Unparseable or typeless lines skipped.
    pub n_skipped: usize,
    /// The distinct `target_features` of the kernel records, as JSON
    /// text; `None` for records that do not carry them (schema v1/v2).
    pub builds: BTreeSet<Option<String>>,
    /// The distinct `cache` sizes of the kernel records, as JSON text;
    /// `None` for records that do not carry them (schema v1 to v3).
    pub caches: BTreeSet<Option<String>>,
    /// The distinct `profile`s of the kernel records that carry one
    /// (schema v5), as JSON text.
    pub profiles: BTreeSet<Option<String>>,
    /// The distinct `revision`s of the records, as JSON text; `None`
    /// for records that do not carry one (schema v1 to v5).
    pub revisions: BTreeSet<Option<String>>,
    /// Best seconds of each set-up stage, keyed
    /// `driver/setup/dataset/stage`.
    pub stages: BTreeMap<String, f64>,
}

/// Where the bandwidth ceiling came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeakSource {
    Flag,
    Membw,
    /// Max observed effective bandwidth (no ceiling on record).
    Proxy,
}

impl PeakSource {
    pub fn label(self) -> &'static str {
        match self {
            PeakSource::Flag => "--peak-gbs flag",
            PeakSource::Membw => "membw manifest record",
            PeakSource::Proxy => "max observed eff-bw (proxy ceiling)",
        }
    }
}

/// One row of the roofline report.
#[derive(Debug, Clone)]
pub struct ReportRow {
    pub agg: KernelAgg,
    pub lat: LatencySummary,
    pub point: RooflinePoint,
}

/// The assembled report.
#[derive(Debug, Clone)]
pub struct Report {
    pub rows: Vec<ReportRow>,
    pub peak_gbs: f64,
    pub peak_source: PeakSource,
}

/// Resolve the manifests directory: accept either the run dir (with a
/// `manifests/` subdir) or the manifests dir itself.
fn manifests_dir(dir: &Path) -> PathBuf {
    let sub = dir.join("manifests");
    if sub.is_dir() {
        sub
    } else {
        dir.to_path_buf()
    }
}

/// Parse every `*.ndjson` manifest under `dir` and aggregate by key.
pub fn load_dir(dir: &Path) -> Result<LoadedDir, String> {
    let mdir = manifests_dir(dir);
    if !mdir.is_dir() {
        return Err(format!("{}: not a directory", mdir.display()));
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(&mdir)
        .map_err(|e| format!("{}: {e}", mdir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ndjson"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{}: no .ndjson manifests", mdir.display()));
    }

    let mut by_key: BTreeMap<String, KernelAgg> = BTreeMap::new();
    let mut membw: Option<f64> = None;
    let (mut builds, mut caches, mut profiles, mut revisions) = (
        BTreeSet::new(),
        BTreeSet::new(),
        BTreeSet::new(),
        BTreeSet::new(),
    );
    let mut stages: BTreeMap<String, f64> = BTreeMap::new();
    let (mut n_records, mut n_v1, mut n_skipped) = (0usize, 0usize, 0usize);
    for path in &files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let Ok(v) = Json::parse(line) else {
                n_skipped += 1;
                continue;
            };
            let num = |k: &str| v.get(k).and_then(Json::as_f64);
            let driver = v
                .get("driver")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string();
            let mut provenance = || {
                builds.insert(recorded(&v, "target_features"));
                caches.insert(recorded(&v, "cache"));
                profiles.extend(recorded(&v, "profile").map(Some));
                revisions.insert(recorded(&v, "revision"));
            };
            match v.get("type").and_then(Json::as_str) {
                Some("membw") => {
                    n_records += 1;
                    if let Some(r) = num("read_gbs") {
                        membw = Some(membw.map_or(r, |m: f64| m.max(r)));
                    }
                }
                Some("setup") => {
                    n_records += 1;
                    let (Some(dataset), Some(timed)) = (
                        v.get("dataset").and_then(Json::as_str),
                        v.get("stages").and_then(Json::as_obj),
                    ) else {
                        n_skipped += 1;
                        continue;
                    };
                    provenance();
                    for (stage, secs) in timed {
                        if let Some(secs) = secs.as_f64() {
                            let best = stages
                                .entry(format!("{driver}/setup/{dataset}/{stage}"))
                                .or_insert(secs);
                            *best = best.min(secs);
                        }
                    }
                }
                Some("spmv") | Some("spmm") => {
                    n_records += 1;
                    let (Some(name), Some(secs_min), Some(gflops)) = (
                        v.get("name").and_then(Json::as_str),
                        num("secs_min"),
                        num("gflops"),
                    ) else {
                        n_skipped += 1;
                        continue;
                    };
                    provenance();
                    let threads = num("threads").unwrap_or(1.0) as u64;
                    let k = num("k").unwrap_or(1.0) as u64;
                    let samples: Vec<f64> = match v.get("samples").and_then(Json::as_arr) {
                        Some(arr) => arr.iter().filter_map(Json::as_f64).collect(),
                        None => {
                            n_v1 += 1;
                            vec![secs_min]
                        }
                    };
                    let rec = KernelAgg {
                        driver,
                        name: name.to_string(),
                        threads,
                        k,
                        secs_min,
                        gflops,
                        mem_bytes: num("mem_bytes").unwrap_or(0.0),
                        eff_bw_gbs: num("eff_bw_gbs").unwrap_or(0.0),
                        samples,
                    };
                    match by_key.entry(rec.key()) {
                        std::collections::btree_map::Entry::Vacant(e) => {
                            e.insert(rec);
                        }
                        std::collections::btree_map::Entry::Occupied(mut e) => {
                            let agg = e.get_mut();
                            agg.samples.extend_from_slice(&rec.samples);
                            agg.secs_min = agg.secs_min.min(rec.secs_min);
                            agg.eff_bw_gbs = agg.eff_bw_gbs.max(rec.eff_bw_gbs);
                            if rec.gflops > agg.gflops {
                                agg.gflops = rec.gflops;
                                agg.mem_bytes = rec.mem_bytes;
                            }
                        }
                    }
                }
                _ => n_skipped += 1,
            }
        }
    }
    Ok(LoadedDir {
        dir: dir.to_path_buf(),
        kernels: by_key.into_values().collect(),
        membw_read_gbs: membw,
        n_records,
        n_v1,
        n_skipped,
        builds,
        caches,
        profiles,
        revisions,
        stages,
    })
}

/// A provenance field of a manifest record (`target_features`,
/// `cache`, `profile`, `revision`) as JSON text; `None` where the record does not
/// carry it.
fn recorded(v: &Json, field: &str) -> Option<String> {
    v.get(field).map(Json::to_string)
}

fn show(value: &Option<String>) -> &str {
    value.as_deref().unwrap_or("(not recorded)")
}

/// The one value of `field` all records of a directory carry, or why
/// there is none.
fn one_value(field: &str, values: &BTreeSet<Option<String>>) -> Result<Option<String>, String> {
    match values.len() {
        0 | 1 => Ok(values.first().cloned().flatten()),
        _ => Err(format!(
            "the manifests mix {field} {}",
            values.iter().map(show).collect::<Vec<_>>().join(" and ")
        )),
    }
}

/// `Ok` when A and B each record one value of `field`, and the same one.
fn same_value(
    field: &str,
    a: &BTreeSet<Option<String>>,
    b: &BTreeSet<Option<String>>,
) -> Result<(), String> {
    let (a, b) = (one_value(field, a)?, one_value(field, b)?);
    if a == b {
        Ok(())
    } else {
        Err(format!("A records {field} {} but B {}", show(&a), show(&b)))
    }
}

/// `Ok` when a diff of A and B would measure the code alone: both come
/// from one build and one profile, run on hosts with the same caches.
/// The error says what differs and how to rerun.
pub fn comparable(a: &LoadedDir, b: &LoadedDir) -> Result<(), String> {
    same_value("target_features", &a.builds, &b.builds).map_err(|why| {
        format!("{why}; rebuild both sides with one configuration (.cargo/config.toml, RUSTFLAGS)")
    })?;
    same_value("cache", &a.caches, &b.caches)
        .map_err(|why| format!("{why}; run both sides on one host"))?;
    match (
        one_value("profile", &a.profiles)?,
        one_value("profile", &b.profiles)?,
    ) {
        (Some(_), Some(_)) => same_value("profile", &a.profiles, &b.profiles)
            .map_err(|why| format!("{why}; build both sides with --release")),
        _ => Ok(()), // a pre-v5 side
    }
}

/// Pick the bandwidth ceiling: flag > membw record > observed proxy.
pub fn resolve_peak(loaded: &LoadedDir, flag: Option<f64>) -> Result<(f64, PeakSource), String> {
    if let Some(p) = flag {
        if p <= 0.0 {
            return Err(format!("--peak-gbs must be positive, got {p}"));
        }
        return Ok((p, PeakSource::Flag));
    }
    if let Some(p) = loaded.membw_read_gbs.filter(|p| *p > 0.0) {
        return Ok((p, PeakSource::Membw));
    }
    let proxy = loaded
        .kernels
        .iter()
        .map(|k| k.eff_bw_gbs)
        .fold(0.0f64, f64::max);
    if proxy > 0.0 {
        Ok((proxy, PeakSource::Proxy))
    } else {
        Err("no bandwidth ceiling: no membw record, no eff_bw_gbs, and no --peak-gbs".into())
    }
}

/// Build the full roofline report for one directory.
pub fn build_report(loaded: &LoadedDir, peak_flag: Option<f64>) -> Result<Report, String> {
    let (peak_gbs, peak_source) = resolve_peak(loaded, peak_flag)?;
    let rows = loaded
        .kernels
        .iter()
        .map(|agg| ReportRow {
            lat: agg.latency(),
            point: roofline::classify(agg.flops(), agg.mem_bytes, agg.secs_min, peak_gbs),
            agg: agg.clone(),
        })
        .collect();
    Ok(Report {
        rows,
        peak_gbs,
        peak_source,
    })
}

fn fmt_ms(secs: f64) -> String {
    format!("{:.3}", secs * 1e3)
}

/// Render the human table.
pub fn render_table(loaded: &LoadedDir, report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== perf-report: {} ==\n{} kernels from {} records ({} v1, {} skipped)\nceiling: {:.2} GB/s [{}]\n",
        loaded.dir.display(),
        report.rows.len(),
        loaded.n_records,
        loaded.n_v1,
        loaded.n_skipped,
        report.peak_gbs,
        report.peak_source.label(),
    );
    let mut rows: Vec<[String; 9]> = vec![[
        "kernel".into(),
        "gflops".into(),
        "gbs".into(),
        "ai".into(),
        "roof".into(),
        "frac".into(),
        "p50-ms".into(),
        "p99-ms".into(),
        "bound".into(),
    ]];
    for r in &report.rows {
        rows.push([
            r.agg.key(),
            format!("{:.3}", r.point.gflops),
            format!("{:.2}", r.point.gbs),
            format!("{:.3}", r.point.ai),
            format!("{:.3}", r.point.roof_gflops),
            format!("{:.2}", r.point.frac_of_roof),
            fmt_ms(r.lat.p50),
            fmt_ms(r.lat.p99),
            r.point.bound.label().into(),
        ]);
    }
    let widths: Vec<usize> = (0..9)
        .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    for row in &rows {
        let mut line = String::new();
        for (c, cell) in row.iter().enumerate() {
            if c > 0 {
                line.push_str("  ");
            }
            if c == 0 {
                let _ = write!(line, "{:<w$}", cell, w = widths[c]);
            } else {
                let _ = write!(line, "{:>w$}", cell, w = widths[c]);
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    if !loaded.stages.is_empty() {
        out.push_str("\n== set-up stages (best of runs) ==\n");
        for (key, secs) in &loaded.stages {
            let _ = writeln!(out, "{key}  {} ms", fmt_ms(*secs));
        }
    }
    out
}

/// Render the report as NDJSON lines (one `roofline` object per row,
/// preceded by a `report` header line).
pub fn render_ndjson(loaded: &LoadedDir, report: &Report) -> String {
    let mut out = String::new();
    let header = Json::obj(vec![
        ("type", Json::from("report")),
        ("dir", Json::from(loaded.dir.display().to_string().as_str())),
        ("kernels", Json::from(report.rows.len())),
        ("records", Json::from(loaded.n_records)),
        ("peak_gbs", Json::from(report.peak_gbs)),
        ("peak_source", Json::from(report.peak_source.label())),
    ]);
    let _ = writeln!(out, "{}", header.to_string());
    for r in &report.rows {
        let j = Json::obj(vec![
            ("type", Json::from("roofline")),
            ("key", Json::from(r.agg.key().as_str())),
            ("driver", Json::from(r.agg.driver.as_str())),
            ("name", Json::from(r.agg.name.as_str())),
            ("threads", Json::from(r.agg.threads)),
            ("k", Json::from(r.agg.k)),
            ("secs_min", Json::from(r.agg.secs_min)),
            ("gflops", Json::from(r.point.gflops)),
            ("gbs", Json::from(r.point.gbs)),
            ("ai", Json::from(r.point.ai)),
            ("roof_gflops", Json::from(r.point.roof_gflops)),
            ("frac_of_roof", Json::from(r.point.frac_of_roof)),
            ("bound", Json::from(r.point.bound.label())),
            ("secs_p50", Json::from(r.lat.p50)),
            ("secs_p90", Json::from(r.lat.p90)),
            ("secs_p99", Json::from(r.lat.p99)),
            ("secs_max", Json::from(r.lat.max)),
            ("n_samples", Json::from(r.agg.samples.len())),
        ]);
        let _ = writeln!(out, "{}", j.to_string());
    }
    out
}

/// Summed counters of one trace file.
#[derive(Debug, Clone)]
pub struct TraceCounters {
    pub file: String,
    pub counters: BTreeMap<String, f64>,
}

impl TraceCounters {
    fn get(&self, k: &str) -> f64 {
        self.counters.get(k).copied().unwrap_or(0.0)
    }
}

/// Load the `counters` lines of every trace under `<dir>/trace/`.
/// Missing directory is fine (empty result) — traces are optional.
pub fn load_trace_counters(dir: &Path) -> Result<Vec<TraceCounters>, String> {
    let tdir = dir.join("trace");
    if !tdir.is_dir() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&tdir)
        .map_err(|e| format!("{}: {e}", tdir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ndjson"))
        .collect();
    files.sort();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut counters: BTreeMap<String, f64> = BTreeMap::new();
        for line in text.lines() {
            let Ok(v) = Json::parse(line) else { continue };
            if v.get("type").and_then(Json::as_str) != Some("counters") {
                continue;
            }
            for (k, val) in v.as_obj().unwrap_or(&[]) {
                if k != "type" {
                    if let Some(n) = val.as_f64() {
                        *counters.entry(k.clone()).or_insert(0.0) += n;
                    }
                }
            }
        }
        if !counters.is_empty() {
            out.push(TraceCounters {
                file: path
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default(),
                counters,
            });
        }
    }
    Ok(out)
}

/// Render the trace-counter join: the *model's* arithmetic intensity and
/// vectorization quality per traced driver, next to the measured rows.
pub fn render_trace_section(traces: &[TraceCounters]) -> String {
    if traces.is_empty() {
        return String::new();
    }
    let mut out = String::from("\n== traced counters ==\n");
    for t in traces {
        let flops = t.get("useful_flops");
        let bytes = t.get("bytes_loaded") + t.get("bytes_stored");
        let lanes = t.get("fma_lanes");
        let padding = t.get("padding_lanes");
        let model_ai = if bytes > 0.0 { flops / bytes } else { 0.0 };
        let pad_frac = if lanes > 0.0 { padding / lanes } else { 0.0 };
        let _ = writeln!(
            out,
            "{}: model-ai {:.3} flop/B, padding {:.1}% of lanes, mask-expands {}, solver-iters {}",
            t.file,
            model_ai,
            pad_frac * 100.0,
            t.get("mask_expands") as u64,
            t.get("solver_iters") as u64,
        );
        // Shard-cluster counters (published once per cluster shutdown by
        // the coordinator); only rendered when the trace has any.
        let shard_traffic = t.get("shard_bytes_tx") + t.get("shard_bytes_rx");
        if shard_traffic > 0.0 {
            let _ = writeln!(
                out,
                "{}: shard tx {} B, rx {} B, reduce {:.3} ms, worker-busy {:.3} ms",
                t.file,
                t.get("shard_bytes_tx") as u64,
                t.get("shard_bytes_rx") as u64,
                t.get("shard_reduce_ns") / 1e6,
                t.get("shard_worker_busy_ns") / 1e6,
            );
        }
    }
    out
}

/// A/B comparison of summed trace counters (informational — never gates
/// the diff's exit code): every counter present on either side, with the
/// B/A ratio when both sides are nonzero.
pub fn render_trace_diff(a: &[TraceCounters], b: &[TraceCounters]) -> String {
    let sum = |ts: &[TraceCounters]| {
        let mut m: BTreeMap<String, f64> = BTreeMap::new();
        for t in ts {
            for (k, v) in &t.counters {
                *m.entry(k.clone()).or_insert(0.0) += v;
            }
        }
        m
    };
    let (sa, sb) = (sum(a), sum(b));
    let keys: Vec<&String> = sa
        .keys()
        .chain(sb.keys())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    if keys.is_empty() {
        return String::new();
    }
    let mut out = String::from("\n== trace counters (A vs B) ==\n");
    let _ = writeln!(
        out,
        "{:<26} {:>16} {:>16} {:>8}",
        "counter", "A", "B", "B/A"
    );
    for k in keys {
        let (va, vb) = (
            sa.get(k).copied().unwrap_or(0.0),
            sb.get(k).copied().unwrap_or(0.0),
        );
        let ratio = if va > 0.0 {
            format!("{:.3}", vb / va)
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{:<26} {:>16} {:>16} {:>8}",
            k, va as u64, vb as u64, ratio
        );
    }
    out
}

/// Convert every trace under `<dir>/trace/` into `<out>/<stem>.chrome.json`
/// (Perfetto-loadable) and `<out>/<stem>.collapsed` (flamegraph stacks).
/// Returns the written paths.
pub fn export_traces(dir: &Path, out_dir: &Path) -> Result<Vec<PathBuf>, String> {
    let tdir = dir.join("trace");
    if !tdir.is_dir() {
        return Err(format!("{}: no trace/ directory to export", dir.display()));
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(&tdir)
        .map_err(|e| format!("{}: {e}", tdir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ndjson"))
        .collect();
    files.sort();
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let mut written = Vec::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let events = export::from_ndjson(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if events.is_empty() {
            continue;
        }
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let chrome = out_dir.join(format!("{stem}.chrome.json"));
        std::fs::write(&chrome, export::chrome_trace(&events).to_string())
            .map_err(|e| format!("{}: {e}", chrome.display()))?;
        written.push(chrome);
        let collapsed = out_dir.join(format!("{stem}.collapsed"));
        std::fs::write(&collapsed, export::collapsed_stacks(&events))
            .map_err(|e| format!("{}: {e}", collapsed.display()))?;
        written.push(collapsed);
    }
    Ok(written)
}

/// Outcome of one key's A-vs-B comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// Slower in B beyond the threshold.
    Regression,
    /// Faster in B beyond the threshold.
    Improvement,
    /// Within the noise threshold.
    Same,
    /// Key only present in A.
    OnlyA,
    /// Key only present in B.
    OnlyB,
}

impl DiffStatus {
    pub fn label(self) -> &'static str {
        match self {
            DiffStatus::Regression => "REGRESSION",
            DiffStatus::Improvement => "improved",
            DiffStatus::Same => "ok",
            DiffStatus::OnlyA => "only-in-a",
            DiffStatus::OnlyB => "only-in-b",
        }
    }
}

/// One key's comparison.
#[derive(Debug, Clone)]
pub struct DiffRow {
    pub key: String,
    pub a_secs: Option<f64>,
    pub b_secs: Option<f64>,
    /// `(b - a) / a`; 0 when either side is missing.
    pub rel: f64,
    pub status: DiffStatus,
}

/// Noise-aware diff: best-of-reps per key (kernels and set-up stages),
/// relative threshold.
pub fn diff(a: &LoadedDir, b: &LoadedDir, threshold: f64) -> Vec<DiffRow> {
    let best = |l: &LoadedDir| -> BTreeMap<String, f64> {
        l.kernels
            .iter()
            .map(|k| (k.key(), k.best_secs()))
            .chain(l.stages.iter().map(|(key, &secs)| (key.clone(), secs)))
            .collect()
    };
    let (amap, bmap) = (best(a), best(b));
    let mut keys: Vec<&String> = amap.keys().chain(bmap.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|key| {
            let (av, bv) = (amap.get(key).copied(), bmap.get(key).copied());
            let (rel, status) = match (av, bv) {
                (Some(av), Some(bv)) if av > 0.0 => {
                    let rel = (bv - av) / av;
                    let status = if rel > threshold {
                        DiffStatus::Regression
                    } else if rel < -threshold {
                        DiffStatus::Improvement
                    } else {
                        DiffStatus::Same
                    };
                    (rel, status)
                }
                (Some(_), Some(_)) => (0.0, DiffStatus::Same),
                (Some(_), None) => (0.0, DiffStatus::OnlyA),
                (None, _) => (0.0, DiffStatus::OnlyB),
            };
            DiffRow {
                key: key.clone(),
                a_secs: av,
                b_secs: bv,
                rel,
                status,
            }
        })
        .collect()
}

pub fn has_regressions(rows: &[DiffRow]) -> bool {
    rows.iter().any(|r| r.status == DiffStatus::Regression)
}

/// Render the diff as a table (or summary distribution of deltas).
pub fn render_diff_table(a: &LoadedDir, b: &LoadedDir, rows: &[DiffRow], threshold: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== perf-diff: {} vs {} (threshold {:.1}%) ==",
        a.dir.display(),
        b.dir.display(),
        threshold * 100.0
    );
    for (side, l) in [("A", a), ("B", b)] {
        let build = one_value("target_features", &l.builds).unwrap_or_else(Some);
        let cache = one_value("cache", &l.caches).unwrap_or_else(Some);
        let profile = one_value("profile", &l.profiles).unwrap_or_else(Some);
        let revision = one_value("revision", &l.revisions).unwrap_or_else(Some);
        let _ = writeln!(
            out,
            "{side}: {} records, target_features {}, cache {}, profile {}, revision {}",
            l.n_records,
            show(&build),
            show(&cache),
            show(&profile),
            show(&revision)
        );
    }
    let key_w = rows.iter().map(|r| r.key.len()).max().unwrap_or(3).max(3);
    let fmt_side = |v: Option<f64>| v.map_or("-".to_string(), fmt_ms);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<key_w$}  {:>10}  {:>10}  {:>+7.1}%  {}",
            r.key,
            fmt_side(r.a_secs),
            fmt_side(r.b_secs),
            r.rel * 100.0,
            r.status.label(),
        );
    }
    // Distribution of relative deltas over the matched keys: one line
    // the CI log can eyeball for drift even when nothing trips.
    let mut deltas: Vec<f64> = rows
        .iter()
        .filter(|r| r.a_secs.is_some() && r.b_secs.is_some())
        .map(|r| r.rel.abs())
        .collect();
    deltas.sort_by(f64::total_cmp);
    if !deltas.is_empty() {
        let _ = writeln!(
            out,
            "|delta| distribution: p50 {:+.1}% p90 {:+.1}% max {:+.1}% over {} keys",
            exact_percentile(&deltas, 50.0) * 100.0,
            exact_percentile(&deltas, 90.0) * 100.0,
            exact_percentile(&deltas, 100.0) * 100.0,
            deltas.len()
        );
    }
    let n_reg = rows
        .iter()
        .filter(|r| r.status == DiffStatus::Regression)
        .count();
    let _ = writeln!(
        out,
        "perf-diff: {} — {} key(s), {} regression(s)",
        if n_reg == 0 { "OK" } else { "FAIL" },
        rows.len(),
        n_reg
    );
    out
}

/// Render the diff as NDJSON.
pub fn render_diff_ndjson(rows: &[DiffRow]) -> String {
    let mut out = String::new();
    for r in rows {
        let j = Json::obj(vec![
            ("type", Json::from("diff")),
            ("key", Json::from(r.key.as_str())),
            ("a_secs", r.a_secs.map_or(Json::Null, Json::Num)),
            ("b_secs", r.b_secs.map_or(Json::Null, Json::Num)),
            ("rel", Json::from(r.rel)),
            ("status", Json::from(r.status.label())),
        ]);
        let _ = writeln!(out, "{}", j.to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    /// Fresh scratch dir per test (removed on drop).
    struct Scratch(PathBuf);
    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let p = std::env::temp_dir().join(format!("cscv-perf-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&p);
            std::fs::create_dir_all(&p).unwrap();
            Scratch(p)
        }
        fn write_manifest(&self, name: &str, lines: &[&str]) {
            let dir = self.0.join("manifests");
            std::fs::create_dir_all(&dir).unwrap();
            let mut f = std::fs::File::create(dir.join(name)).unwrap();
            for l in lines {
                writeln!(f, "{l}").unwrap();
            }
        }
    }
    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn spmv_line(name: &str, secs: f64, gflops: f64, samples: Option<&[f64]>) -> String {
        let mut rec = vec![
            ("type", Json::from("spmv")),
            ("driver", Json::from("bench")),
            ("name", Json::from(name)),
            ("threads", Json::from(1u64)),
            ("k", Json::from(1u64)),
            ("secs_min", Json::from(secs)),
            ("gflops", Json::from(gflops)),
            ("mem_bytes", Json::from(1000u64)),
            ("eff_bw_gbs", Json::from(2.0)),
        ];
        if let Some(s) = samples {
            rec.push(("schema", Json::from(2u64)));
            rec.push((
                "samples",
                Json::Arr(s.iter().map(|&x| Json::Num(x)).collect()),
            ));
        }
        Json::obj(rec).to_string()
    }

    #[test]
    fn v1_lines_degrade_to_single_sample() {
        let s = Scratch::new("v1");
        s.write_manifest("a.ndjson", &[&spmv_line("K", 0.01, 1.0, None)]);
        let loaded = load_dir(&s.0).unwrap();
        assert_eq!(loaded.n_v1, 1);
        assert_eq!(loaded.kernels.len(), 1);
        assert_eq!(loaded.kernels[0].samples, vec![0.01]);
        assert_eq!(loaded.kernels[0].best_secs(), 0.01);
    }

    #[test]
    fn duplicate_keys_pool_samples_and_keep_best() {
        let s = Scratch::new("dup");
        s.write_manifest(
            "a.ndjson",
            &[
                &spmv_line("K", 0.02, 1.0, Some(&[0.03, 0.02])),
                &spmv_line("K", 0.01, 2.0, Some(&[0.01, 0.04])),
            ],
        );
        let loaded = load_dir(&s.0).unwrap();
        assert_eq!(loaded.kernels.len(), 1);
        let k = &loaded.kernels[0];
        assert_eq!(k.samples.len(), 4);
        assert_eq!(k.secs_min, 0.01);
        assert_eq!(k.gflops, 2.0);
        assert_eq!(k.best_secs(), 0.01);
    }

    #[test]
    fn peak_resolution_order() {
        let s = Scratch::new("peak");
        s.write_manifest("a.ndjson", &[&spmv_line("K", 0.01, 1.0, None)]);
        let loaded = load_dir(&s.0).unwrap();
        // No membw record → proxy from eff_bw_gbs.
        let (p, src) = resolve_peak(&loaded, None).unwrap();
        assert_eq!(src, PeakSource::Proxy);
        assert_eq!(p, 2.0);
        // Flag wins over everything.
        let (p, src) = resolve_peak(&loaded, Some(12.5)).unwrap();
        assert_eq!(src, PeakSource::Flag);
        assert_eq!(p, 12.5);
        // A membw record beats the proxy.
        let s2 = Scratch::new("peak2");
        s2.write_manifest(
            "a.ndjson",
            &[
                &spmv_line("K", 0.01, 1.0, None),
                &Json::obj(vec![
                    ("type", Json::from("membw")),
                    ("read_gbs", Json::from(8.0)),
                ])
                .to_string(),
            ],
        );
        let loaded2 = load_dir(&s2.0).unwrap();
        let (p, src) = resolve_peak(&loaded2, None).unwrap();
        assert_eq!(src, PeakSource::Membw);
        assert_eq!(p, 8.0);
    }

    #[test]
    fn every_row_is_classified() {
        let s = Scratch::new("classify");
        s.write_manifest(
            "a.ndjson",
            &[
                &spmv_line("fast", 0.001, 4.0, Some(&[0.001, 0.002])),
                &spmv_line("slow", 0.1, 0.01, Some(&[0.1, 0.2])),
            ],
        );
        let loaded = load_dir(&s.0).unwrap();
        let report = build_report(&loaded, Some(10.0)).unwrap();
        assert_eq!(report.rows.len(), 2);
        for r in &report.rows {
            assert!(matches!(
                r.point.bound.label(),
                "bandwidth-bound" | "latency-bound"
            ));
        }
        let table = render_table(&loaded, &report);
        assert!(table.contains("bench/fast/t1/k1"));
        assert!(table.contains("ceiling: 10.00 GB/s"));
        // NDJSON lines parse back.
        for line in render_ndjson(&loaded, &report).lines() {
            Json::parse(line).unwrap();
        }
    }

    #[test]
    fn diff_flags_regressions_only_beyond_threshold() {
        let sa = Scratch::new("diff-a");
        let sb = Scratch::new("diff-b");
        sa.write_manifest(
            "a.ndjson",
            &[
                &spmv_line("same", 0.010, 1.0, Some(&[0.010])),
                &spmv_line("reg", 0.010, 1.0, Some(&[0.010])),
                &spmv_line("imp", 0.010, 1.0, Some(&[0.010])),
                &spmv_line("gone", 0.010, 1.0, None),
            ],
        );
        sb.write_manifest(
            "b.ndjson",
            &[
                &spmv_line("same", 0.0104, 1.0, Some(&[0.0104])), // +4% < 5%
                &spmv_line("reg", 0.020, 0.5, Some(&[0.020])),    // +100%
                &spmv_line("imp", 0.005, 2.0, Some(&[0.005])),    // -50%
                &spmv_line("new", 0.010, 1.0, None),
            ],
        );
        let (a, b) = (load_dir(&sa.0).unwrap(), load_dir(&sb.0).unwrap());
        let rows = diff(&a, &b, 0.05);
        let by_key: BTreeMap<&str, DiffStatus> =
            rows.iter().map(|r| (r.key.as_str(), r.status)).collect();
        assert_eq!(by_key["bench/same/t1/k1"], DiffStatus::Same);
        assert_eq!(by_key["bench/reg/t1/k1"], DiffStatus::Regression);
        assert_eq!(by_key["bench/imp/t1/k1"], DiffStatus::Improvement);
        assert_eq!(by_key["bench/gone/t1/k1"], DiffStatus::OnlyA);
        assert_eq!(by_key["bench/new/t1/k1"], DiffStatus::OnlyB);
        assert!(has_regressions(&rows));
        let table = render_diff_table(&a, &b, &rows, 0.05);
        assert!(table.contains("REGRESSION"));
        assert!(table.contains("FAIL"));
        // The header names each side's records and build.
        assert!(
            table.contains("A: 4 records, target_features (not recorded)"),
            "{table}"
        );
        // Minute-of-reps: B regresses secs_min but has one fast sample →
        // not a regression.
        let sc = Scratch::new("diff-c");
        sc.write_manifest(
            "c.ndjson",
            &[&spmv_line("reg", 0.020, 0.5, Some(&[0.020, 0.0101]))],
        );
        let c = load_dir(&sc.0).unwrap();
        let rows = diff(&a, &c, 0.05);
        let reg = rows.iter().find(|r| r.key == "bench/reg/t1/k1").unwrap();
        assert_eq!(reg.status, DiffStatus::Same);
    }

    fn build(fma: bool) -> Option<String> {
        let v = Json::parse(&format!(r#"{{"target_features":{{"fma":{fma}}}}}"#)).unwrap();
        recorded(&v, "target_features")
    }

    #[test]
    fn refuses_to_compare_different_builds() {
        let same_build = |a: &BTreeSet<_>, b: &BTreeSet<_>| same_value("target_features", a, b);
        let (native, portable) = (build(true), build(false));
        let set = |b: &[&Option<String>]| b.iter().map(|&b| b.clone()).collect::<BTreeSet<_>>();
        assert_eq!(same_build(&set(&[&native]), &set(&[&native])), Ok(()));
        // A packed-FMA build against a scalar-call one, and back.
        let why = same_build(&set(&[&native]), &set(&[&portable])).unwrap_err();
        assert!(
            why.contains(r#"{"fma":false}"#) && why.contains(r#"{"fma":true}"#),
            "{why}"
        );
        assert!(same_build(&set(&[&portable]), &set(&[&native])).is_err());
        // Pre-v3 manifests against v3 ones, and a mix of builds on
        // either side.
        assert!(same_build(&set(&[&None]), &set(&[&native])).is_err());
        assert!(same_build(&set(&[&native]), &set(&[&None])).is_err());
        let mixed = set(&[&native, &portable]);
        assert!(same_build(&set(&[&native]), &mixed)
            .unwrap_err()
            .contains("mix"));
        assert!(same_build(&mixed, &set(&[&native]))
            .unwrap_err()
            .contains("mix"));
        assert!(one_value("target_features", &mixed).is_err());
        // v1/v2 manifests on both sides still compare.
        assert_eq!(same_build(&set(&[&None]), &set(&[&None])), Ok(()));
    }

    #[test]
    fn trace_counters_and_export_round_trip() {
        let s = Scratch::new("trace");
        s.write_manifest("a.ndjson", &[&spmv_line("K", 0.01, 1.0, None)]);
        let tdir = s.0.join("trace");
        std::fs::create_dir_all(&tdir).unwrap();
        std::fs::write(
            tdir.join("run.ndjson"),
            concat!(
                "{\"type\":\"meta\",\"enabled\":true,\"threads\":1}\n",
                "{\"type\":\"counters\",\"useful_flops\":200,\"bytes_loaded\":80,\"bytes_stored\":20,\"fma_lanes\":100,\"padding_lanes\":25}\n",
                "{\"type\":\"span\",\"name\":\"solver.sirt\",\"thread\":\"main\",\"depth\":0,\"t_ns\":0,\"dur_ns\":1000}\n",
                "{\"type\":\"span\",\"name\":\"spmv\",\"thread\":\"main\",\"depth\":1,\"t_ns\":100,\"dur_ns\":400}\n",
                "{\"type\":\"event\",\"name\":\"sirt.iter\",\"thread\":\"main\",\"depth\":1,\"t_ns\":600,\"iter\":1}\n",
            ),
        )
        .unwrap();
        let traces = load_trace_counters(&s.0).unwrap();
        assert_eq!(traces.len(), 1);
        let section = render_trace_section(&traces);
        assert!(section.contains("model-ai 2.000"), "{section}");
        assert!(section.contains("padding 25.0%"), "{section}");

        let out = s.0.join("export");
        let written = export_traces(&s.0, &out).unwrap();
        assert_eq!(written.len(), 2);
        let chrome = std::fs::read_to_string(&written[0]).unwrap();
        let doc = Json::parse(&chrome).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("solver.sirt")));
        let collapsed = std::fs::read_to_string(&written[1]).unwrap();
        assert!(
            collapsed.contains("main;solver.sirt;spmv 400"),
            "{collapsed}"
        );
    }

    #[test]
    fn shard_counters_render_in_trace_section() {
        let t = TraceCounters {
            file: "shard".to_string(),
            counters: [
                ("shard_bytes_tx", 1000.0),
                ("shard_bytes_rx", 500.0),
                ("shard_reduce_ns", 2_000_000.0),
                ("shard_worker_busy_ns", 8_000_000.0),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        };
        let section = render_trace_section(&[t]);
        assert!(
            section.contains("shard tx 1000 B, rx 500 B, reduce 2.000 ms, worker-busy 8.000 ms\n"),
            "{section}"
        );
        // No shard line for traces without shard traffic.
        let plain = TraceCounters {
            file: "p".to_string(),
            counters: BTreeMap::new(),
        };
        assert!(!render_trace_section(&[plain]).contains("shard tx"));
    }

    #[test]
    fn trace_diff_compares_summed_counters() {
        let tc = |file: &str, pairs: &[(&str, f64)]| TraceCounters {
            file: file.to_string(),
            counters: pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        };
        let a = vec![
            tc("x", &[("shard_bytes_tx", 100.0)]),
            tc("y", &[("shard_bytes_tx", 100.0)]),
        ];
        let b = vec![tc("z", &[("shard_bytes_tx", 300.0), ("only_b", 7.0)])];
        let out = render_trace_diff(&a, &b);
        assert!(out.contains("== trace counters (A vs B) =="), "{out}");
        assert!(out.contains("1.500"), "B/A ratio: {out}");
        // A-side zero renders "-" rather than a division blow-up.
        let only_b = out.lines().find(|l| l.contains("only_b")).unwrap();
        assert!(only_b.trim_end().ends_with('-'), "{only_b}");
        assert_eq!(render_trace_diff(&[], &[]), "");
    }

    #[test]
    fn missing_dir_is_an_error() {
        let s = Scratch::new("missing");
        assert!(load_dir(&s.0.join("nope")).is_err());
    }
}
