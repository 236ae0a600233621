//! End-to-end tests of the `perf-report` CLI: exit codes and output
//! formats, driving the real binary on crafted manifest directories.

use cscv_trace::json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Scratch result directory (removed on drop).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let p = std::env::temp_dir().join(format!("cscv-perf-cli-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(p.join("manifests")).unwrap();
        Scratch(p)
    }

    fn manifest(&self, file: &str, lines: &[String]) -> &Self {
        std::fs::write(self.0.join("manifests").join(file), lines.join("\n") + "\n").unwrap();
        self
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spmv_line(name: &str, secs: f64, samples: &[f64]) -> String {
    Json::obj(vec![
        ("type", Json::from("spmv")),
        ("schema", Json::from(2u64)),
        ("driver", Json::from("cli")),
        ("name", Json::from(name)),
        ("threads", Json::from(1u64)),
        ("k", Json::from(1u64)),
        ("secs_min", Json::from(secs)),
        ("gflops", Json::from(1.0 / secs / 1e9)),
        ("mem_bytes", Json::from(1000u64)),
        ("eff_bw_gbs", Json::from(1e-6 / secs)),
        (
            "samples",
            Json::Arr(samples.iter().map(|&s| Json::Num(s)).collect()),
        ),
    ])
    .to_string()
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cscv-xtask"))
        .args(args)
        .output()
        .expect("spawn cscv-xtask");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

#[test]
fn report_classifies_and_exits_zero() {
    let s = Scratch::new("report");
    s.manifest(
        "a.ndjson",
        &[
            spmv_line("alpha", 0.010, &[0.010, 0.011]),
            spmv_line("beta", 0.002, &[0.002, 0.003]),
        ],
    );
    let (code, stdout, stderr) = run(&["perf-report", path(&s.0), "--peak-gbs", "4.0"]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stdout.contains("cli/alpha/t1/k1"), "{stdout}");
    // Every kernel row carries a bound classification.
    for key in ["cli/alpha/t1/k1", "cli/beta/t1/k1"] {
        let row = stdout.lines().find(|l| l.contains(key)).unwrap();
        assert!(
            row.contains("latency-bound") || row.contains("bandwidth-bound"),
            "{row}"
        );
    }
    assert!(stdout.contains("--peak-gbs flag"), "{stdout}");
}

#[test]
fn ndjson_format_parses_back() {
    let s = Scratch::new("ndjson");
    s.manifest("a.ndjson", &[spmv_line("alpha", 0.010, &[0.010])]);
    let (code, stdout, _) = run(&["perf-report", path(&s.0), "--format", "ndjson"]);
    assert_eq!(code, 0);
    let mut kinds = Vec::new();
    for line in stdout.lines() {
        kinds.push(
            Json::parse(line)
                .unwrap()
                .get("type")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        );
    }
    assert_eq!(kinds, ["report", "roofline"]);
}

#[test]
fn diff_exit_codes_clean_and_regressed() {
    let a = Scratch::new("diff-a");
    let clean = Scratch::new("diff-clean");
    let regressed = Scratch::new("diff-reg");
    a.manifest("m.ndjson", &[spmv_line("kern", 0.010, &[0.010, 0.012])]);
    // +3% best-of-reps: inside the 5% default threshold.
    clean.manifest("m.ndjson", &[spmv_line("kern", 0.0103, &[0.0103, 0.015])]);
    // +50%: a real regression.
    regressed.manifest("m.ndjson", &[spmv_line("kern", 0.015, &[0.015, 0.016])]);

    let (code, stdout, _) = run(&["perf-report", "--diff", path(&a.0), path(&clean.0)]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("perf-diff: OK"), "{stdout}");

    let (code, stdout, _) = run(&["perf-report", "--diff", path(&a.0), path(&regressed.0)]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("REGRESSION"), "{stdout}");

    // A looser threshold lets the same pair pass.
    let (code, _, _) = run(&[
        "perf-report",
        "--diff",
        path(&a.0),
        path(&regressed.0),
        "--threshold",
        "0.6",
    ]);
    assert_eq!(code, 0);
}

#[test]
fn diff_refuses_manifests_from_different_builds() {
    // The same kernel from a packed-FMA build and from a build without
    // FMA (manifest schema v3 `target_features`).
    let line = |fma: bool| {
        spmv_line("kern", 0.010, &[0.010]).replacen(
            '{',
            &format!(r#"{{"target_features":{{"fma":{fma},"avx2":{fma},"avx512f":false}},"#),
            1,
        )
    };
    let (native, again, portable) = (
        Scratch::new("build-native"),
        Scratch::new("build-again"),
        Scratch::new("build-portable"),
    );
    native.manifest("m.ndjson", &[line(true)]);
    again.manifest("m.ndjson", &[line(true)]);
    portable.manifest("m.ndjson", &[line(false)]);

    let (code, stdout, stderr) = run(&["perf-report", "--diff", path(&native.0), path(&again.0)]);
    assert_eq!(code, 0, "{stderr}");
    assert!(
        stdout.contains(r#"B: 1 records, target_features {"fma":true"#),
        "{stdout}"
    );

    for (a, b) in [(&native, &portable), (&portable, &native)] {
        let (code, stdout, stderr) = run(&["perf-report", "--diff", path(&a.0), path(&b.0)]);
        assert_eq!(code, 2, "{stdout}");
        assert!(stderr.contains("refusing to compare"), "{stderr}");
        assert!(stdout.is_empty(), "no verdict for a refused pair: {stdout}");
    }
}

#[test]
fn diff_refuses_manifests_from_hosts_with_different_caches() {
    // One build (schema v4) on a host whose L3 reads 105 MiB and on one
    // whose L3 reads 300 MiB, each at some git revision.
    let line = |l3_mib: u64, rev: &str| {
        spmv_line("kern", 0.010, &[0.010]).replacen(
            '{',
            &format!(
                r#"{{"target_features":{{"fma":true,"avx2":true,"avx512f":true}},"cache":{{"l2_bytes":2097152,"l3_bytes":{}}},"revision":"{rev}","#,
                l3_mib << 20
            ),
            1,
        )
    };
    let (small, small_next, large) = (
        Scratch::new("cache-105"),
        Scratch::new("cache-105-next"),
        Scratch::new("cache-300"),
    );
    small.manifest("m.ndjson", &[line(105, "cef5955")]);
    small_next.manifest("m.ndjson", &[line(105, "0a1b2c3")]);
    large.manifest("m.ndjson", &[line(300, "cef5955")]);

    // Only the revision differs: that is what a diff is for.
    let (code, stdout, stderr) =
        run(&["perf-report", "--diff", path(&small.0), path(&small_next.0)]);
    assert_eq!(code, 0, "{stderr}");
    assert!(
        stdout.contains(r#"cache {"l2_bytes":2097152,"l3_bytes":110100480}"#),
        "{stdout}"
    );

    for (a, b) in [(&small, &large), (&large, &small)] {
        let (code, stdout, stderr) = run(&["perf-report", "--diff", path(&a.0), path(&b.0)]);
        assert_eq!(code, 2, "{stdout}");
        assert!(stderr.contains("refusing to compare"), "{stderr}");
        assert!(stderr.contains("cache"), "{stderr}");
        assert!(stdout.is_empty(), "no verdict for a refused pair: {stdout}");
    }

    // A directory whose records come from two hosts compares with
    // nothing, itself included.
    let mixed = Scratch::new("cache-mixed");
    mixed.manifest("a.ndjson", &[line(105, "cef5955")]);
    mixed.manifest("b.ndjson", &[line(300, "cef5955")]);
    let (code, _, stderr) = run(&["perf-report", "--diff", path(&mixed.0), path(&mixed.0)]);
    assert_eq!(code, 2);
    assert!(stderr.contains("mix cache"), "{stderr}");
}

#[test]
fn missing_directory_is_a_usage_error() {
    let s = Scratch::new("missing");
    let bogus = s.0.join("does-not-exist");
    let (code, _, stderr) = run(&["perf-report", path(&bogus)]);
    assert_eq!(code, 2, "{stderr}");
    let (code, _, _) = run(&["perf-report"]);
    assert_eq!(code, 2);
    let (code, _, _) = run(&["perf-report", "--diff", path(&s.0)]);
    assert_eq!(code, 2);
}

#[test]
fn export_dir_writes_chrome_and_collapsed() {
    let s = Scratch::new("export");
    s.manifest("m.ndjson", &[spmv_line("kern", 0.010, &[0.010])]);
    let tdir = s.0.join("trace");
    std::fs::create_dir_all(&tdir).unwrap();
    std::fs::write(
        tdir.join("run.ndjson"),
        concat!(
            "{\"type\":\"meta\",\"enabled\":true,\"threads\":1}\n",
            "{\"type\":\"span\",\"name\":\"solver.sirt\",\"thread\":\"main\",\"depth\":0,\"t_ns\":0,\"dur_ns\":5000}\n",
            "{\"type\":\"event\",\"name\":\"sirt.iter\",\"thread\":\"main\",\"depth\":1,\"t_ns\":2500,\"iter\":1,\"iter_ms\":0.002}\n",
        ),
    )
    .unwrap();
    let out = s.0.join("exported");
    let (code, _, stderr) = run(&[
        "perf-report",
        path(&s.0),
        "--peak-gbs",
        "4.0",
        "--export-dir",
        path(&out),
    ]);
    assert_eq!(code, 0, "{stderr}");
    let chrome = std::fs::read_to_string(out.join("run.chrome.json")).unwrap();
    let doc = Json::parse(&chrome).unwrap();
    assert!(doc.get("traceEvents").and_then(Json::as_arr).is_some());
    let collapsed = std::fs::read_to_string(out.join("run.collapsed")).unwrap();
    assert!(collapsed.contains("main;solver.sirt 5000"), "{collapsed}");
}
