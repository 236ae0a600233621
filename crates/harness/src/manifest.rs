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

use crate::cache::CacheSizes;
use crate::timing::{LatencySummary, SpmmMeasurement, SpmvMeasurement};
use cscv_trace::json::Json;
use std::io::Write;
use std::path::PathBuf;

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
/// * **v4**: every record carries `cache`, the machine's
///   `{"l2_bytes":…,"l3_bytes":…}` from sysfs (0 when unreadable).
///   `perf-report --diff` refuses to compare differing ones.
/// * **v5**: every record carries `profile`, `"debug"` or `"release"`
///   (see [`build_profile`]); `perf-report --diff` refuses to compare
///   differing ones.
/// * **v6**: every record carries `revision`, the git commit of the
///   build (see [`git_revision`]), and `table2_datasets` writes `setup`
///   records (see [`record_setup`]). `perf-report --diff` prints the
///   revisions but compares any two: a diff exists to compare two
///   revisions.
///
/// The consumer (`cscv-xtask perf-report`) keys off field presence,
/// not the version number, so v1 files keep parsing:
/// a line without `samples` is treated as a single-sample distribution
/// at `secs_min`, and a line without `target_features` as a build that
/// did not record them.
pub const SCHEMA_VERSION: u64 = 6;

/// The build profile, `"debug"` or `"release"`. A debug build runs the
/// aliasing detector and the invariant hooks, so its timings say nothing
/// about a release build's.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The git commit the build was made from (12 hex digits), or
/// `"unknown"` when it was built outside a git checkout. Uncommitted
/// edits are not marked.
pub fn git_revision() -> &'static str {
    env!("CSCV_GIT_REVISION")
}

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

/// The machine's cache sizes as `{"l2_bytes":…,"l3_bytes":…}`.
fn cache() -> Json {
    let c = CacheSizes::detect();
    Json::obj(vec![
        ("l2_bytes", c.l2_bytes.into()),
        ("l3_bytes", c.l3_bytes.into()),
    ])
}

/// The fields every record starts with: type, schema, driver, build,
/// profile, revision and caches.
fn header(kind: &str) -> Vec<(&'static str, Json)> {
    vec![
        ("type", kind.into()),
        ("schema", SCHEMA_VERSION.into()),
        ("driver", driver_name().into()),
        ("target_features", target_features()),
        ("profile", build_profile().into()),
        ("revision", git_revision().into()),
        ("cache", cache()),
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
    rec.extend(distribution_fields(&m.latency(), &m.samples));
    append(&Json::obj(rec));
}

/// Record the set-up cost of one dataset (`type: "setup"`): the best
/// wall time in seconds of each stage, such as assembly or a format
/// build, run on `threads` threads. `perf-report --diff` compares each
/// stage like a kernel.
pub fn record_setup(dataset: &str, threads: usize, stages: &[(&str, f64)]) {
    let mut rec = header("setup");
    rec.extend([
        ("dataset", dataset.into()),
        ("threads", threads.into()),
        (
            "stages",
            Json::obj(
                stages
                    .iter()
                    .map(|&(name, secs)| (name, secs.into()))
                    .collect(),
            ),
        ),
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
        assert_eq!(back.get("schema").and_then(Json::as_f64), Some(6.0));
        let revision = back.get("revision").and_then(Json::as_str);
        assert_eq!(revision, Some(git_revision()), "v6 records the revision");
        assert!(
            git_revision() == "unknown"
                || (git_revision().len() == 12
                    && git_revision().bytes().all(|b| b.is_ascii_hexdigit())),
            "{}",
            git_revision()
        );
        assert_eq!(
            back.get("profile").and_then(Json::as_str),
            Some(build_profile()),
            "v5 records the profile"
        );
        let cache = back.get("cache").expect("v4 records the caches");
        let sizes = CacheSizes::detect();
        for (name, bytes) in [("l2_bytes", sizes.l2_bytes), ("l3_bytes", sizes.l3_bytes)] {
            assert_eq!(
                cache.get(name).and_then(Json::as_f64),
                Some(bytes as f64),
                "{name}"
            );
        }
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
