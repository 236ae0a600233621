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
fn pooled_samples_report_exact_nearest_rank_percentiles() {
    // 400 samples 1e-4..=4e-2 s, interleaved over two records of one
    // kernel: the pooled percentiles are the nearest-rank samples of
    // the sorted union, bit for bit, however many samples there are.
    let sample = |i: usize| i as f64 * 1e-4;
    let odd: Vec<f64> = (1..=400).filter(|i| i % 2 == 1).map(sample).collect();
    let even: Vec<f64> = (1..=400).filter(|i| i % 2 == 0).map(sample).collect();
    let s = Scratch::new("pooled");
    s.manifest(
        "a.ndjson",
        &[
            spmv_line("alpha", sample(1), &odd),
            spmv_line("alpha", sample(2), &even),
        ],
    );
    let (code, stdout, stderr) = run(&["perf-report", path(&s.0), "--format", "ndjson"]);
    assert_eq!(code, 0, "stderr: {stderr}");
    let row = stdout
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .find(|v| v.get("type").and_then(Json::as_str) == Some("roofline"))
        .unwrap();
    let field = |k: &str| row.get(k).and_then(Json::as_f64).unwrap();
    assert_eq!(field("n_samples"), 400.0);
    // Nearest rank ⌈p/100 · 400⌉: 200, 360 and 396.
    assert_eq!(field("secs_p50").to_bits(), sample(200).to_bits());
    assert_eq!(field("secs_p90").to_bits(), sample(360).to_bits());
    assert_eq!(field("secs_p99").to_bits(), sample(396).to_bits());
    assert_eq!(field("secs_max").to_bits(), sample(400).to_bits());
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
fn diff_refuses_manifests_from_different_profiles() {
    // One build (schema v5) with and without debug assertions, each at
    // some git revision; `None` is a record from before v5.
    let line = |profile: Option<&str>, rev: &str| {
        let profile = profile.map_or(String::new(), |p| format!(r#""profile":"{p}","#));
        spmv_line("kern", 0.010, &[0.010]).replacen(
            '{',
            &format!(
                r#"{{"target_features":{{"fma":true,"avx2":true,"avx512f":true}},{profile}"revision":"{rev}","#
            ),
            1,
        )
    };
    let (release, release_next, debug, pre_v5) = (
        Scratch::new("profile-release"),
        Scratch::new("profile-release-next"),
        Scratch::new("profile-debug"),
        Scratch::new("profile-pre-v5"),
    );
    release.manifest("m.ndjson", &[line(Some("release"), "cef5955")]);
    release_next.manifest("m.ndjson", &[line(Some("release"), "0a1b2c3")]);
    debug.manifest("m.ndjson", &[line(Some("debug"), "cef5955")]);
    pre_v5.manifest("m.ndjson", &[line(None, "cded528")]);

    // Only the revision differs: that is what a diff is for.
    let (code, stdout, stderr) = run(&[
        "perf-report",
        "--diff",
        path(&release.0),
        path(&release_next.0),
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains(r#"profile "release""#), "{stdout}");

    // A parent from before v5 records no profile and still compares.
    for (a, b) in [(&pre_v5, &release), (&release, &pre_v5)] {
        let (code, _, stderr) = run(&["perf-report", "--diff", path(&a.0), path(&b.0)]);
        assert_eq!(code, 0, "{stderr}");
    }

    for (a, b) in [(&release, &debug), (&debug, &release)] {
        let (code, stdout, stderr) = run(&["perf-report", "--diff", path(&a.0), path(&b.0)]);
        assert_eq!(code, 2, "{stdout}");
        assert!(stderr.contains("refusing to compare"), "{stderr}");
        assert!(stderr.contains("profile"), "{stderr}");
        assert!(stdout.is_empty(), "no verdict for a refused pair: {stdout}");
    }

    // A directory whose records come from both profiles compares with
    // nothing: itself, and a side that records no profile.
    let mixed = Scratch::new("profile-mixed");
    mixed.manifest("a.ndjson", &[line(Some("release"), "cef5955")]);
    mixed.manifest("b.ndjson", &[line(Some("debug"), "cef5955")]);
    for other in [&mixed, &pre_v5] {
        let (code, _, stderr) = run(&["perf-report", "--diff", path(&mixed.0), path(&other.0)]);
        assert_eq!(code, 2);
        assert!(stderr.contains("mix profile"), "{stderr}");
    }
}

/// A schema-v6 record of one build on one host at git revision `rev`.
fn at_revision(line: &str, rev: &str) -> String {
    line.replacen(
        '{',
        &format!(
            r#"{{"schema":6,"target_features":{{"fma":true,"avx2":true,"avx512f":true}},"profile":"release","cache":{{"l2_bytes":2097152,"l3_bytes":110100480}},"revision":"{rev}","#
        ),
        1,
    )
}

#[test]
fn diff_prints_the_revisions_but_compares_any_two() {
    let (parent, change) = (Scratch::new("rev-parent"), Scratch::new("rev-change"));
    parent.manifest(
        "m.ndjson",
        &[at_revision(
            &spmv_line("kern", 0.010, &[0.010]),
            "d7f921f1e003",
        )],
    );
    change.manifest(
        "m.ndjson",
        &[at_revision(
            &spmv_line("kern", 0.010, &[0.010]),
            "0a1b2c3d4e5f",
        )],
    );
    let (code, stdout, stderr) = run(&["perf-report", "--diff", path(&parent.0), path(&change.0)]);
    assert_eq!(code, 0, "{stderr}");
    assert!(
        stdout.contains(r#"profile "release", revision "d7f921f1e003""#),
        "{stdout}"
    );
    assert!(stdout.contains(r#"revision "0a1b2c3d4e5f""#), "{stdout}");
    assert!(stdout.contains("perf-diff: OK"), "{stdout}");
}

/// A `setup` record of `table2_datasets` on ct128 (schema v6).
fn setup_line(z_build: f64, rev: &str) -> String {
    at_revision(
        &Json::obj(vec![
            ("type", Json::from("setup")),
            ("driver", Json::from("table2_datasets")),
            ("dataset", Json::from("ct128")),
            ("threads", Json::from(2u64)),
            (
                "stages",
                Json::obj(vec![
                    ("assemble", Json::from(0.150)),
                    ("cscv-z-build", Json::from(z_build)),
                ]),
            ),
        ])
        .to_string(),
        rev,
    )
}

#[test]
fn diff_compares_set_up_stages_like_kernels() {
    let (parent, slower, doubled) = (
        Scratch::new("setup-parent"),
        Scratch::new("setup-slower"),
        Scratch::new("setup-doubled"),
    );
    // Two runs of the parent: the stage keeps its best time.
    parent.manifest(
        "table2_datasets.ndjson",
        &[
            setup_line(0.080, "d7f921f1e003"),
            setup_line(0.070, "d7f921f1e003"),
        ],
    );
    slower.manifest(
        "table2_datasets.ndjson",
        &[setup_line(0.091, "0a1b2c3d4e5f")],
    );
    doubled.manifest(
        "table2_datasets.ndjson",
        &[setup_line(0.150, "0a1b2c3d4e5f")],
    );
    let key = "table2_datasets/setup/ct128/cscv-z-build";

    // +30% is inside the perf gate's 2x bar.
    let (code, stdout, stderr) = run(&[
        "perf-report",
        "--diff",
        path(&parent.0),
        path(&slower.0),
        "--threshold",
        "1.0",
    ]);
    assert_eq!(code, 0, "{stderr}");
    let row = stdout.lines().find(|l| l.starts_with(key)).expect(key);
    assert!(row.contains("70.000") && row.contains("+30.0%"), "{row}");
    assert!(
        stdout.contains("table2_datasets/setup/ct128/assemble"),
        "{stdout}"
    );

    // A build more than twice as slow fails it.
    let (code, stdout, _) = run(&[
        "perf-report",
        "--diff",
        path(&parent.0),
        path(&doubled.0),
        "--threshold",
        "1.0",
    ]);
    assert_eq!(code, 1, "{stdout}");
    let row = stdout.lines().find(|l| l.starts_with(key)).expect(key);
    assert!(row.contains("REGRESSION"), "{row}");

    // A parent without set-up records (from before v6) still compares:
    // the stages are only in B.
    let kernels_only = Scratch::new("setup-none");
    kernels_only.manifest(
        "m.ndjson",
        &[at_revision(
            &spmv_line("kern", 0.010, &[0.010]),
            "d7f921f1e003",
        )],
    );
    let (code, stdout, stderr) = run(&[
        "perf-report",
        "--diff",
        path(&kernels_only.0),
        path(&doubled.0),
    ]);
    assert_eq!(code, 0, "{stderr}");
    let row = stdout.lines().find(|l| l.starts_with(key)).expect(key);
    assert!(row.contains("only-in-b"), "{row}");
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
