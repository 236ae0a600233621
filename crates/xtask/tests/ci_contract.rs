//! Shell-entrypoint contract tests: `ci.sh` flag handling and
//! `run_experiments.sh` driver-failure propagation. Both scripts are
//! exercised without invoking the toolchain — the flag parse happens
//! before any cargo work, and the experiment script runs against a stub
//! `cargo` in a sandbox copy so the repo's bench_results/ stay
//! untouched.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .to_path_buf()
}

#[test]
fn ci_sh_rejects_unknown_flags_with_exit_two() {
    let out = Command::new("bash")
        .arg(repo_root().join("ci.sh"))
        .arg("--bogus")
        .output()
        .expect("run ci.sh");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag: --bogus"), "stderr: {stderr}");
    // The rejection must precede any build output.
    assert!(out.stdout.is_empty(), "flag parse ran toolchain work");
}

#[test]
fn ci_sh_advertises_every_stage_flag() {
    // The header comment is the CLI reference; every recognized flag
    // must appear there (and --shard-smoke specifically is the gate this
    // PR adds).
    let text = std::fs::read_to_string(repo_root().join("ci.sh")).unwrap();
    for flag in [
        "--perf-smoke",
        "--update-perf-baseline",
        "--miri",
        "--fuzz",
        "--shard-smoke",
        "--sanitizers",
    ] {
        let mentions = text.matches(flag).count();
        assert!(
            mentions >= 2,
            "{flag}: expected both a header mention and a case arm, found {mentions}"
        );
    }
}

#[test]
fn ci_sh_runs_the_analyze_ratchet_unconditionally() {
    // The inter-procedural analysis gate is part of the core stage
    // list, not an opt-in flag: a new finding (exit 1) or a stale
    // baseline entry (exit 2) must fail plain `ci.sh` under `set -e`.
    let text = std::fs::read_to_string(repo_root().join("ci.sh")).unwrap();
    let analyze_pos = text
        .find("cargo run -q -p cscv-xtask -- analyze")
        .expect("ci.sh must invoke the analyze gate");
    let first_conditional = text.find("if [ \"$").unwrap_or(text.len());
    assert!(
        analyze_pos < first_conditional,
        "analyze must run in the unconditional core gate, not behind a flag"
    );
}

#[test]
fn ci_gates_name_only_subcommands_that_exist() {
    // `lint` and `audit` folded into `analyze` and the workspace lint
    // table; neither the script nor the workflow may call them, and the
    // analyze result cache (`--no-cache`) and `--protocol-dot` are gone.
    let sh = std::fs::read_to_string(repo_root().join("ci.sh")).unwrap();
    let yml = std::fs::read_to_string(repo_root().join(".github/workflows/ci.yml")).unwrap();
    for text in [&sh, &yml] {
        for gone in [
            "cscv-xtask -- lint",
            "cscv-xtask -- audit",
            "--no-cache",
            "--protocol-dot",
        ] {
            assert!(!text.contains(gone), "CI still invokes `{gone}`");
        }
    }
}

#[test]
fn ci_sh_tests_the_benchmark_package_unconditionally() {
    // cscv-benchmark is its own workspace: only this stage compiles it.
    let text = std::fs::read_to_string(repo_root().join("ci.sh")).unwrap();
    let pos = text
        .find("--manifest-path cscv-benchmark/Cargo.toml")
        .expect("ci.sh must test the benchmark package");
    let first_conditional = text.find("if [ \"$").unwrap_or(text.len());
    assert!(
        pos < first_conditional,
        "benchmark tests must not sit behind a flag"
    );
}

#[test]
fn sanitizer_stage_is_deterministic_and_uses_vetted_suppressions() {
    let text = std::fs::read_to_string(repo_root().join("ci.sh")).unwrap();
    let stage = text
        .split("if [ \"$SANITIZERS\" = 1 ]")
        .nth(1)
        .expect("ci.sh must have a --sanitizers stage");
    let stage = stage.split("\nfi\n").next().unwrap();
    for needle in [
        "CSCV_NUMA=0",
        "sanitizer_suppressions.txt",
        "halt_on_error=1",
        "-Zsanitizer=thread",
        "-Zsanitizer=address",
        "-p cscv-sparse -p cscv-core --lib",
    ] {
        assert!(stage.contains(needle), "sanitizer stage missing {needle}");
    }
}

#[test]
fn sanitizer_suppressions_all_carry_justifications() {
    let path = repo_root().join("crates/xtask/sanitizer_suppressions.txt");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut prev_was_comment = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            prev_was_comment = false;
        } else if line.starts_with('#') {
            prev_was_comment = true;
        } else {
            assert!(
                line.contains(':'),
                "not a <kind>:<pattern> suppression: {line}"
            );
            assert!(
                prev_was_comment,
                "suppression without a justification comment above it: {line}"
            );
        }
    }
}

#[test]
fn scripts_parse_under_bash_noexec() {
    for script in ["ci.sh", "run_experiments.sh"] {
        let out = Command::new("bash")
            .arg("-n")
            .arg(repo_root().join(script))
            .output()
            .expect("bash -n");
        assert!(
            out.status.success(),
            "{script}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// Sandbox for run_experiments.sh: a temp dir holding a copy of the
/// script plus a stub `cargo` with a chosen exit code on PATH.
struct Sandbox {
    dir: PathBuf,
}

impl Sandbox {
    fn new(tag: &str, stub_exit: i32) -> Sandbox {
        let dir =
            std::env::temp_dir().join(format!("cscv-ci-contract-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("bin")).unwrap();
        std::fs::copy(
            repo_root().join("run_experiments.sh"),
            dir.join("run_experiments.sh"),
        )
        .unwrap();
        std::fs::write(
            dir.join("bin/cargo"),
            format!("#!/bin/sh\nexit {stub_exit}\n"),
        )
        .unwrap();
        #[cfg(unix)]
        {
            use std::os::unix::fs::PermissionsExt;
            std::fs::set_permissions(
                dir.join("bin/cargo"),
                std::fs::Permissions::from_mode(0o755),
            )
            .unwrap();
        }
        Sandbox { dir }
    }

    fn run_smoke(&self) -> std::process::Output {
        let path = format!(
            "{}:{}",
            self.dir.join("bin").display(),
            std::env::var("PATH").unwrap_or_default()
        );
        Command::new("bash")
            .arg(self.dir.join("run_experiments.sh"))
            .arg("--smoke")
            .env("PATH", path)
            .output()
            .expect("run run_experiments.sh")
    }
}

impl Drop for Sandbox {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn run_experiments_propagates_driver_failure() {
    let sandbox = Sandbox::new("fail", 7);
    let out = sandbox.run_smoke();
    assert_eq!(
        out.status.code(),
        Some(7),
        "driver exit code must propagate, got stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("driver 'table1' failed with exit 7"),
        "failure must name the driver on the console: {stdout}"
    );
    assert!(
        !stdout.contains("SMOKE_DONE"),
        "script must not continue past a failed driver"
    );
}

#[test]
fn run_experiments_smoke_completes_when_drivers_succeed() {
    let sandbox = Sandbox::new("ok", 0);
    let out = sandbox.run_smoke();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("SMOKE_DONE"));
}
