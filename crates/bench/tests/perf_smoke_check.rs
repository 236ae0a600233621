//! `perf_smoke_check` refuses to compare manifests and a baseline that
//! come from different builds (manifest schema v3 `target_features`).

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cscv-perf-smoke-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("manifests")).unwrap();
    dir
}

fn run(dir: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perf_smoke_check"))
        .arg("--manifests")
        .arg(dir.join("manifests"))
        .arg("--baseline")
        .arg(dir.join("baseline.json"))
        .args(extra)
        .output()
        .expect("run perf_smoke_check")
}

fn manifest_line(fma: bool) -> String {
    format!(
        r#"{{"type":"spmv","schema":3,"driver":"d","target_features":{{"fma":{fma},"avx2":{fma},"avx512f":false}},"name":"CSCV-Z","threads":1,"k":1,"gflops":1.5}}"#
    )
}

#[test]
fn refuses_a_baseline_from_another_build() {
    let dir = scratch("refuse");
    let manifest = dir.join("manifests/d.ndjson");
    std::fs::write(&manifest, manifest_line(true) + "\n").unwrap();
    let wrote = run(&dir, &["--write-baseline"]);
    assert!(wrote.status.success(), "{wrote:?}");
    let baseline = std::fs::read_to_string(dir.join("baseline.json")).unwrap();
    assert!(
        baseline.contains(r#""target_features": {"fma":true"#),
        "{baseline}"
    );
    assert!(run(&dir, &[]).status.success());

    // The same kernel from a build without FMA.
    std::fs::write(&manifest, manifest_line(false) + "\n").unwrap();
    let out = run(&dir, &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("refusing to compare"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
