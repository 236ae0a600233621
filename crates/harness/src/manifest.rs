//! Machine-readable benchmark manifests (NDJSON).
//!
//! When `CSCV_MANIFEST_DIR` is set, every measurement taken through
//! [`measure_spmv`](crate::measure_spmv) / [`measure_spmm`](crate::measure_spmm)
//! is appended as one self-describing JSON object per line to
//! `<dir>/<driver>.ndjson`, where `driver` is the executable's file stem.
//! `cscv-xtask perf-report` consumes these files; its `--diff` mode is
//! the perf gate, which compares the smoke runs of two commits made on
//! the same machine.
//!
//! Recording is always compiled in (it is I/O at measurement boundaries,
//! not hot-path instrumentation, so it does not need the `trace` feature)
//! and is a no-op unless the environment variable is present. Writes are
//! best-effort: a benchmark run never fails because a manifest could not
//! be written.

use crate::timing::{LatencySummary, SpmmMeasurement, SpmvMeasurement};
use cscv_trace::json::Json;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, Ordering};

/// Manifest record schema version.
///
/// * **v1** (unversioned, PR 2): one best-of-run line per measurement —
///   `secs_min`, `gflops`, `mem_bytes`, `eff_bw_gbs` (+ `r_nnze` for
///   SpMV).
/// * **v2**: adds `"schema":2`, the per-rep `samples` array (seconds,
///   execution order), and the `secs_p50`/`secs_p90`/`secs_p99`/
///   `secs_max` summary, plus the `membw` record type for bandwidth
///   ceilings.
///
/// * **v3**: every record carries `target_features`, the build's
///   compile-time `fma`/`avx2`/`avx512f`, so a
///   scalar-call build can never be compared against a packed-FMA one.
///
/// The consumer (`cscv-xtask perf-report`) keys off field presence,
/// not the version number, so v1 files keep parsing:
/// a line without `samples` is treated as a single-sample distribution
/// at `secs_min`, and a line without `target_features` as a build that
/// did not record them.
pub const SCHEMA_VERSION: u64 = 3;

/// The build's compile-time target features that decide how the kernels
/// were lowered, as a JSON object `{"fma":…,"avx2":…,"avx512f":…}`.
fn target_features() -> Json {
    let b = cscv_simd::build_features();
    Json::obj(vec![
        ("fma", Json::Bool(b.fma)),
        ("avx2", Json::Bool(b.avx2)),
        ("avx512f", Json::Bool(b.avx512f)),
    ])
}

/// The fields every record starts with: type, schema, driver and build.
fn header(kind: &str) -> Vec<(&'static str, Json)> {
    vec![
        ("type", kind.into()),
        ("schema", SCHEMA_VERSION.into()),
        ("driver", driver_name().into()),
        ("target_features", target_features()),
    ]
}

/// Directory manifests go to, if recording is enabled.
pub fn manifest_dir() -> Option<PathBuf> {
    std::env::var_os("CSCV_MANIFEST_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// The current executable's file stem, with any `-<hex hash>` suffix that
/// cargo appends to test binaries stripped (so reruns key identically).
pub fn driver_name() -> String {
    let stem = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "unknown".into());
    match stem.rsplit_once('-') {
        Some((base, tail))
            if !base.is_empty()
                && tail.len() == 16
                && tail.bytes().all(|b| b.is_ascii_hexdigit()) =>
        {
            base.to_string()
        }
        _ => stem,
    }
}

/// Append one record to this driver's manifest (no-op without
/// `CSCV_MANIFEST_DIR`; errors are swallowed).
pub fn append(record: &Json) {
    let Some(dir) = manifest_dir() else { return };
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{}.ndjson", driver_name()));
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = writeln!(f, "{}", record.to_string());
    }
}

/// Process-global shard context, packed as `shard * 2^32 + n_shards`
/// (−1 = unset). A shard worker sets this once at startup so every
/// measurement it records is attributable to its shard; single-process
/// drivers never touch it and their records stay unchanged.
// A tag copied into measurement records — set once
// by the worker before measuring on the same thread; readers that race
// the store merely emit an untagged record, so Relaxed is sufficient.
static SHARD_CONTEXT: AtomicI64 = AtomicI64::new(-1);

/// Tag all subsequent spmv/spmm records with `"shard"`/`"shards"`.
pub fn set_shard_context(shard: usize, n_shards: usize) {
    let packed = ((shard as i64) << 32) | (n_shards as i64 & 0xffff_ffff);
    SHARD_CONTEXT.store(packed, Ordering::Relaxed);
}

/// Stop tagging records (tests; single-process drivers never need it).
pub fn clear_shard_context() {
    SHARD_CONTEXT.store(-1, Ordering::Relaxed);
}

/// The current shard context, if set.
pub fn shard_context() -> Option<(usize, usize)> {
    let packed = SHARD_CONTEXT.load(Ordering::Relaxed);
    (packed >= 0).then_some(((packed >> 32) as usize, (packed & 0xffff_ffff) as usize))
}

/// `"shard"`/`"shards"` fields when a shard context is active.
fn shard_fields() -> Vec<(&'static str, Json)> {
    match shard_context() {
        Some((shard, n_shards)) => vec![
            ("shard", (shard as u64).into()),
            ("shards", (n_shards as u64).into()),
        ],
        None => Vec::new(),
    }
}

/// The v2 distribution fields shared by spmv/spmm records.
fn distribution_fields(lat: &LatencySummary, samples: &[f64]) -> Vec<(&'static str, Json)> {
    vec![
        ("secs_p50", lat.p50.into()),
        ("secs_p90", lat.p90.into()),
        ("secs_p99", lat.p99.into()),
        ("secs_max", lat.max.into()),
        (
            "samples",
            Json::Arr(samples.iter().map(|&s| Json::Num(s)).collect()),
        ),
    ]
}

/// Record a single-RHS measurement.
pub fn record_spmv(m: &SpmvMeasurement) {
    let mut rec = header("spmv");
    rec.extend([
        ("name", m.name.as_str().into()),
        ("threads", m.threads.into()),
        ("k", 1u64.into()),
        ("secs_min", m.secs_min.into()),
        ("gflops", m.gflops.into()),
        ("mem_bytes", m.mem_requirement.into()),
        ("eff_bw_gbs", m.eff_bandwidth_gbs.into()),
        ("r_nnze", m.r_nnze.into()),
    ]);
    rec.extend(shard_fields());
    rec.extend(distribution_fields(&m.latency(), &m.samples));
    append(&Json::obj(rec));
}

/// Record a batched (multi-RHS) measurement.
pub fn record_spmm(m: &SpmmMeasurement) {
    let mut rec = header("spmm");
    rec.extend([
        ("name", m.name.as_str().into()),
        ("threads", m.threads.into()),
        ("k", m.k.into()),
        ("secs_min", m.secs_min.into()),
        ("gflops", m.gflops.into()),
        ("mem_bytes", m.mem_requirement.into()),
        ("eff_bw_gbs", m.eff_bandwidth_gbs.into()),
    ]);
    rec.extend(shard_fields());
    rec.extend(distribution_fields(&m.latency(), &m.samples));
    append(&Json::obj(rec));
}

/// One sharded-solve outcome for `record_shard`: the equivalence
/// verdict and the traffic/merge costs behind it. Written by the
/// `cscv-xtask shard` driver, one line per (solver, worker-count) run;
/// the `shard-smoke` CI job uploads these as artifacts.
#[derive(Debug, Clone)]
pub struct ShardRunRecord<'a> {
    /// Case name (e.g. the committed smoke case's file stem).
    pub case: &'a str,
    pub solver: &'a str,
    /// Partitioner name ("stripe" / "bisect").
    pub method: &'a str,
    pub workers: usize,
    pub iterations: usize,
    /// Wall seconds for the sharded solve.
    pub secs: f64,
    /// Max per-iteration relative residual deviation vs single-process.
    pub max_rel_diff: f64,
    /// Whether image and trajectory matched the single-process run
    /// bit for bit (required when `workers == 1`).
    pub bitwise: bool,
    /// Coordinator-side wire traffic.
    pub bytes_tx: u64,
    pub bytes_rx: u64,
    /// Fixed-order tree-reduction time.
    pub reduce_ns: u64,
    /// Sum of worker-reported executor time.
    pub worker_busy_ns: u64,
    /// Executor names the workers built, comma-joined.
    pub execs: &'a str,
}

/// Record one sharded-solve equivalence outcome (`type: "shard"`).
pub fn record_shard(r: &ShardRunRecord) {
    let mut rec = header("shard");
    rec.extend([
        ("case", r.case.into()),
        ("solver", r.solver.into()),
        ("method", r.method.into()),
        ("workers", (r.workers as u64).into()),
        ("iterations", (r.iterations as u64).into()),
        ("secs", r.secs.into()),
        ("max_rel_diff", r.max_rel_diff.into()),
        ("bitwise", Json::Bool(r.bitwise)),
        ("bytes_tx", r.bytes_tx.into()),
        ("bytes_rx", r.bytes_rx.into()),
        ("reduce_ns", r.reduce_ns.into()),
        ("worker_busy_ns", r.worker_busy_ns.into()),
        ("execs", r.execs.into()),
    ]);
    append(&Json::obj(rec));
}

/// Record a measured memory-bandwidth ceiling (the roofline input);
/// written whenever [`crate::membw::measure`] runs under
/// `CSCV_MANIFEST_DIR`, so `perf-report` finds the machine's ceiling
/// next to the kernel measurements it normalizes.
pub fn record_membw(bw: &crate::membw::Bandwidth) {
    let mut rec = header("membw");
    rec.extend([
        ("read_gbs", bw.read_gbs().into()),
        ("triad_gbs", bw.triad_gbs().into()),
    ]);
    append(&Json::obj(rec));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_name_is_nonempty() {
        assert!(!driver_name().is_empty());
        // Cargo's test-binary hash suffix must be stripped.
        assert!(
            !driver_name().contains('-') || driver_name().rsplit('-').next().unwrap().len() != 16
        );
    }

    #[test]
    fn append_without_env_is_noop() {
        // Relies on the test runner not setting CSCV_MANIFEST_DIR.
        if manifest_dir().is_none() {
            append(&Json::obj(vec![("x", 1u64.into())]));
        }
    }

    #[test]
    fn records_round_trip_through_parser() {
        let m = SpmvMeasurement {
            name: "csr-serial".into(),
            threads: 2,
            secs_min: 0.25,
            gflops: 1.5,
            mem_requirement: 4096,
            eff_bandwidth_gbs: 0.9,
            r_nnze: 0.125,
            samples: vec![0.30, 0.25, 0.40, 0.27],
        };
        let j = Json::obj(vec![
            ("type", "spmv".into()),
            ("name", m.name.as_str().into()),
            ("threads", m.threads.into()),
            ("gflops", m.gflops.into()),
        ]);
        let back = Json::parse(&j.to_string()).unwrap();
        assert_eq!(back.get("type").and_then(Json::as_str), Some("spmv"));
        assert_eq!(back.get("gflops").and_then(Json::as_f64), Some(1.5));
    }

    #[test]
    fn shard_context_round_trips_and_tags_fields() {
        assert_eq!(shard_context(), None);
        assert!(shard_fields().is_empty());
        set_shard_context(3, 8);
        assert_eq!(shard_context(), Some((3, 8)));
        let fields = shard_fields();
        assert_eq!(fields.len(), 2);
        let obj = Json::obj(fields);
        assert_eq!(obj.get("shard").and_then(Json::as_f64), Some(3.0));
        assert_eq!(obj.get("shards").and_then(Json::as_f64), Some(8.0));
        clear_shard_context();
        assert_eq!(shard_context(), None);
    }

    #[test]
    fn v2_distribution_fields_round_trip() {
        let m = SpmvMeasurement {
            name: "csr-serial".into(),
            threads: 1,
            secs_min: 0.1,
            gflops: 1.0,
            mem_requirement: 64,
            eff_bandwidth_gbs: 0.5,
            r_nnze: 0.0,
            samples: vec![0.4, 0.1, 0.3, 0.2],
        };
        let lat = m.latency();
        let mut rec = vec![
            ("type", Json::from("spmv")),
            ("schema", SCHEMA_VERSION.into()),
        ];
        rec.extend(distribution_fields(&lat, &m.samples));
        let back = Json::parse(&Json::obj(rec).to_string()).unwrap();
        assert_eq!(
            back.get("schema").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(back.get("secs_p50").and_then(Json::as_f64), Some(0.2));
        assert_eq!(back.get("secs_max").and_then(Json::as_f64), Some(0.4));
        let samples = back.get("samples").and_then(Json::as_arr).unwrap();
        assert_eq!(samples.len(), 4);
        // Execution order is preserved, not sorted.
        assert_eq!(samples[0].as_f64(), Some(0.4));
    }

    #[test]
    fn every_record_header_carries_the_build() {
        let back = Json::parse(&Json::obj(header("membw")).to_string()).unwrap();
        assert_eq!(back.get("schema").and_then(Json::as_f64), Some(3.0));
        let tf = back.get("target_features").expect("v3 records the build");
        let built = cscv_simd::build_features();
        for (name, on) in [
            ("fma", built.fma),
            ("avx2", built.avx2),
            ("avx512f", built.avx512f),
        ] {
            assert_eq!(tf.get(name), Some(&Json::Bool(on)), "{name}");
        }
    }
}
