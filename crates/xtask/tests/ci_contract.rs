//! Contract tests: `ci.sh` flags and stages, the index crates' deny
//! lints, and `run_experiments.sh` failure propagation. Both scripts are
//! exercised without invoking the toolchain — the flag parse happens
//! before any cargo work, and the experiment script runs against a stub
//! `cargo` in a sandbox copy so the repo's bench_results/ stay
//! untouched.

use cscv_xtask::lexer;
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
    // A retired flag is rejected like any other.
    for flag in ["--bogus", "--update-perf-baseline"] {
        let out = Command::new("bash")
            .arg(repo_root().join("ci.sh"))
            .arg(flag)
            .output()
            .expect("run ci.sh");
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag: {flag}")),
            "stderr: {stderr}"
        );
        // The rejection must precede any build output.
        assert!(out.stdout.is_empty(), "flag parse ran toolchain work");
    }
}

#[test]
fn ci_sh_advertises_every_stage_flag() {
    // The header comment is the CLI reference; every recognized flag
    // must appear there.
    let text = std::fs::read_to_string(repo_root().join("ci.sh")).unwrap();
    for flag in [
        "--perf-smoke",
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
fn ci_sh_runs_both_clippy_gates_unconditionally() {
    // The library crates' crate-level `deny` lints (panics, narrowing
    // casts) and unfulfilled `#[expect]`s only fail the build under
    // clippy with `-D warnings`, in both feature sets: plain `ci.sh`
    // must run both, ahead of every opt-in stage, over test code too.
    let text = std::fs::read_to_string(repo_root().join("ci.sh")).unwrap();
    let lines: Vec<&str> = text.lines().map(str::trim).collect();
    let first_conditional = lines
        .iter()
        .position(|l| l.starts_with("if [ \"$"))
        .unwrap_or(lines.len());
    for cmd in [
        "cargo clippy --workspace --all-targets -- -D warnings",
        "cargo clippy --workspace --all-targets --features trace -- -D warnings",
    ] {
        let pos = lines
            .iter()
            .position(|l| *l == cmd)
            .unwrap_or_else(|| panic!("ci.sh must run `{cmd}`"));
        assert!(
            pos < first_conditional,
            "`{cmd}` must run in the unconditional core gate, not behind a flag"
        );
    }
}

#[test]
fn index_crates_deny_panics_and_narrowing_casts() {
    // The clippy gates above only hold these crates to the per-site
    // discipline while their `lib.rs` denies the lints; a deny that is
    // commented out or loses a lint must fail here, not pass silently.
    for krate in [
        "core", "sparse", "simd", "shard", "ct", "trace", "harness", "recon",
    ] {
        let path = repo_root().join("crates").join(krate).join("src/lib.rs");
        let lines = lexer::analyze(&std::fs::read_to_string(&path).unwrap());
        let start = lines
            .iter()
            .position(|l| l.is_attribute() && l.code.contains("#![deny("))
            .unwrap_or_else(|| panic!("{}: no crate-level `#![deny(`", path.display()));
        let mut deny = String::new();
        for l in &lines[start..] {
            deny.push_str(&l.code);
            if l.code.contains(")]") {
                break;
            }
        }
        for lint in [
            "unwrap_used",
            "expect_used",
            "panic",
            "todo",
            "unimplemented",
            "cast_possible_truncation",
        ] {
            assert!(
                !lexer::word_positions(&deny, lint).is_empty(),
                "{}: `#![deny(` does not name clippy::{lint}",
                path.display()
            );
        }
    }
}

#[test]
fn ci_gates_name_only_subcommands_that_exist() {
    // `lint`, `audit` and `analyze` gave way to compiler and clippy
    // lints plus tests/layering.rs; neither the script nor the workflow
    // may call them or name the analyze baseline, and the analyze
    // result cache (`--no-cache`) and `--protocol-dot` are gone. The
    // autotuner gave way to the static heuristic, so `tune` and its
    // corpus are gone too.
    let sh = std::fs::read_to_string(repo_root().join("ci.sh")).unwrap();
    let yml = std::fs::read_to_string(repo_root().join(".github/workflows/ci.yml")).unwrap();
    for text in [&sh, &yml] {
        for gone in [
            "cscv-xtask -- lint",
            "cscv-xtask -- audit",
            "cscv-xtask -- analyze",
            "analyze_baseline.json",
            "--no-cache",
            "--protocol-dot",
            "cscv-xtask -- tune",
            "tune_corpus",
        ] {
            assert!(!text.contains(gone), "CI still invokes `{gone}`");
        }
    }
}

/// A script's lines, with backslash continuations joined and whitespace
/// collapsed.
fn commands(text: &str) -> Vec<String> {
    let joined = text.replace("\\\n", " ");
    joined
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

/// Every file under `dir` except build output and git metadata.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap().flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if !matches!(name.to_str(), Some("target" | ".git" | ".bench_build")) {
                walk(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

#[test]
fn one_perf_gate_compares_against_the_parent_on_one_runner() {
    // ci.sh and the workflow both gate perf with the same-runner A/B
    // diff at the 2x bar.
    for file in ["ci.sh", ".github/workflows/ci.yml"] {
        let text = std::fs::read_to_string(repo_root().join(file)).unwrap();
        assert!(
            commands(&text).iter().any(|c| {
                c.contains("cscv-xtask -- perf-report --diff") && c.ends_with("--threshold 1.0")
            }),
            "{file} must gate with `perf-report --diff BASE CHANGE --threshold 1.0`"
        );
    }
    // The absolute-baseline gate is gone: no code, script, config or
    // reference doc names its binary or its baseline file. Markdown
    // other than the reference docs is not scanned: the change log and
    // the planning notes record the retired names on purpose.
    let retired = [
        concat!("perf_smoke", "_check"),
        concat!("smoke/", "baseline.json"),
    ];
    let mut files = Vec::new();
    walk(&repo_root(), &mut files);
    let mut scanned = 0;
    for path in files {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
        let scan = matches!(ext, "rs" | "sh" | "yml" | "toml" | "json")
            || matches!(
                name,
                ".gitignore" | "README.md" | "DESIGN.md" | "EXPERIMENTS.md"
            );
        if !scan {
            continue;
        }
        scanned += 1;
        let text = std::fs::read_to_string(&path).unwrap_or_default();
        for gone in retired {
            assert!(!text.contains(gone), "{} names `{gone}`", path.display());
        }
    }
    assert!(scanned > 50, "scanned only {scanned} files");
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
