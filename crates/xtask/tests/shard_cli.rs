//! CLI contract for `cscv-xtask shard` / `shard-worker`: real process
//! launch (the binary re-execs itself as socket-connected workers),
//! output formats, and the 0/1/2 exit-code contract.

use std::path::PathBuf;
use std::process::Command;

fn run(args: &[&str], envs: &[(&str, &str)]) -> (i32, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cscv-xtask"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn cscv-xtask");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Scratch directory (removed on drop), for manifests and case files.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let p = std::env::temp_dir().join(format!("cscv-shard-cli-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        Scratch(p)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// End to end with *process* workers — the default launch mode: the
/// coordinator spawns `cscv-xtask shard-worker --socket …` children and
/// the whole equivalence matrix must pass.
#[test]
fn process_launch_matrix_passes_and_exits_zero() {
    let (code, stdout, stderr) = run(
        &[
            "shard",
            "--workers",
            "1,2",
            "--solver",
            "sirt",
            "--iters",
            "4",
        ],
        &[],
    );
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("shepp-logan-smoke"));
    assert!(stdout.contains("OK — 2 run(s), 0 failure(s)"), "{stdout}");
    // workers=1 row must report byte-identity.
    let one = stdout
        .lines()
        .find(|l| l.starts_with("sirt") && l.contains(" 1 "))
        .expect("workers=1 row");
    assert!(one.contains("yes"), "workers=1 not bitwise: {one}");
}

#[test]
fn ndjson_format_emits_one_valid_object_per_run() {
    let scratch = Scratch::new("ndjson");
    let manifest_dir = scratch.0.join("manifests");
    let (code, stdout, _) = run(
        &[
            "shard",
            "--workers",
            "1,2",
            "--solver",
            "cgls",
            "--iters",
            "3",
            "--launch",
            "threads",
            "--format",
            "ndjson",
        ],
        &[("CSCV_MANIFEST_DIR", manifest_dir.to_str().unwrap())],
    );
    assert_eq!(code, 0, "{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2);
    for line in &lines {
        assert!(line.starts_with("{\"type\":\"shard\""), "line: {line}");
        assert!(line.contains("\"solver\":\"cgls\""));
        assert!(line.contains("\"iterations\":3"));
        assert!(line.contains("\"pass\":true"));
    }
    // The run also records type:"shard" rows into the manifest dir.
    let mut recorded = String::new();
    for entry in std::fs::read_dir(&manifest_dir).expect("manifest dir written") {
        recorded.push_str(&std::fs::read_to_string(entry.unwrap().path()).unwrap());
    }
    assert_eq!(
        recorded
            .lines()
            .filter(|l| l.contains("\"type\":\"shard\""))
            .count(),
        2,
        "manifest rows:\n{recorded}"
    );
}

#[test]
fn impossible_tolerance_fails_the_gate_with_exit_one() {
    // workers=2 has a genuine ~1e-16 reduction difference; a 1e-30
    // tolerance must therefore fail, and the failure must be visible.
    let (code, stdout, _) = run(
        &[
            "shard",
            "--workers",
            "2",
            "--solver",
            "sirt",
            "--iters",
            "3",
            "--launch",
            "threads",
            "--tol",
            "1e-30",
        ],
        &[],
    );
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("FAIL"), "{stdout}");
}

#[test]
fn custom_case_file_is_honored() {
    let scratch = Scratch::new("case");
    let case = scratch.0.join("tiny.case");
    std::fs::write(
        &case,
        "name = tiny\nimg = 16\nbins = 24\nviews = 12\ndelta = 15\n",
    )
    .unwrap();
    let (code, stdout, _) = run(
        &[
            "shard",
            "--case",
            case.to_str().unwrap(),
            "--workers",
            "2",
            "--solver",
            "sirt",
            "--iters",
            "2",
            "--launch",
            "threads",
            "--method",
            "bisect",
        ],
        &[],
    );
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains("case tiny (16² image, 12 views × 24 bins)"),
        "{stdout}"
    );
    assert!(stdout.contains("bisect partitioning"), "{stdout}");
}

#[test]
fn usage_errors_exit_two() {
    // Unknown flag.
    let (code, _, stderr) = run(&["shard", "--bogus"], &[]);
    assert_eq!(code, 2);
    assert!(stderr.contains("usage:"), "{stderr}");
    // Malformed worker list.
    let (code, _, _) = run(&["shard", "--workers", "2,zero"], &[]);
    assert_eq!(code, 2);
    // Zero workers are meaningless.
    let (code, _, _) = run(&["shard", "--workers", "0"], &[]);
    assert_eq!(code, 2);
    // Unknown solver.
    let (code, _, _) = run(&["shard", "--solver", "jacobi"], &[]);
    assert_eq!(code, 2);
    // Trace export and telemetry are not shard options.
    for flag in ["--trace-export", "--telemetry"] {
        let (code, _, stderr) = run(&["shard", flag, "x"], &[]);
        assert_eq!(code, 2, "{flag}");
        assert!(stderr.contains("usage:"), "{flag}: {stderr}");
    }
    // Missing case file is an I/O error (also 2 by the contract).
    let (code, _, stderr) = run(&["shard", "--case", "/nonexistent.case"], &[]);
    assert_eq!(code, 2);
    assert!(stderr.contains("cscv-xtask shard:"), "{stderr}");
    // Worker mode without its socket.
    let (code, _, _) = run(&["shard-worker"], &[]);
    assert_eq!(code, 2);
    // Worker mode with a dead socket path: connection refused → 2.
    let (code, _, _) = run(&["shard-worker", "--socket", "/nonexistent.sock"], &[]);
    assert_eq!(code, 2);
}
