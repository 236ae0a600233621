//! `cscv-benchmark` — sinogram in, image out: the end-to-end and
//! per-layer benchmark of the CSCV reconstruction pipeline.
//!
//! ```text
//! cscv-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out DIR]
//! ```
//!
//! Runs one workload (see `results/README.md` for the set and the reasons
//! for each), then prints NDJSON to stdout: a provenance line, one line
//! per metric with its unit and sample count, and last a summary object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones;
//! `--trace-out` also writes `<workload>.trace.json` (Chrome trace
//! format) and `<workload>.layers.json` (self time per span) to DIR.
//! Exits 1 when a correctness check failed, 2 on a usage error or a build
//! unfit for measuring.
//!
//! The binary doubles as the worker process of `shard-sirt`
//! (`cscv-benchmark shard-worker --socket PATH`).

mod spans;
mod workloads;

use cscv_trace::json::Json;
use spans::Recorder;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::{Config, Metric, Scale, Workload};

const USAGE: &str =
    "usage: cscv-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--trace-out DIR]";

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut trace_out = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad())?;
                    if !(s.is_finite() && s >= 0.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--trace-out" => trace_out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        Ok(Cli {
            workload: workload.ok_or(format!("--workload is required ({})", names.join(", ")))?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            trace_out,
        })
    }
}

/// What was built and what it runs on.
struct Provenance {
    /// Compile-time target features, with whether this CPU has them.
    features: Vec<(&'static str, bool, bool)>,
    debug_assertions: bool,
    git_rev: Option<String>,
    available_parallelism: usize,
}

impl Provenance {
    fn detect() -> Provenance {
        let cpu = cscv_simd::cpu_features();
        Provenance {
            features: vec![
                ("fma", cfg!(target_feature = "fma"), cpu.fma),
                ("avx2", cfg!(target_feature = "avx2"), cpu.avx2),
                ("avx512f", cfg!(target_feature = "avx512f"), cpu.avx512f),
            ],
            debug_assertions: cfg!(debug_assertions),
            git_rev: git_rev(),
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Features the CPU has but the build does not use.
    fn mismatch(&self) -> Vec<&'static str> {
        self.features
            .iter()
            .filter(|&&(_, built, cpu)| cpu && !built)
            .map(|&(name, _, _)| name)
            .collect()
    }

    fn json(&self) -> Json {
        let flags = |pick: fn(&(&'static str, bool, bool)) -> bool| {
            Json::obj(
                self.features
                    .iter()
                    .map(|f| (f.0, Json::Bool(pick(f))))
                    .collect(),
            )
        };
        let mismatch = self.mismatch();
        Json::obj(vec![
            ("type", "provenance".into()),
            ("target_features", flags(|f| f.1)),
            ("cpu_features", flags(|f| f.2)),
            ("debug_assertions", Json::Bool(self.debug_assertions)),
            (
                "git_rev",
                self.git_rev.clone().map_or(Json::Null, Json::Str),
            ),
            ("pool_threads", (workloads::POOL_THREADS as u64).into()),
            (
                "available_parallelism",
                (self.available_parallelism as u64).into(),
            ),
            ("mismatch", Json::Bool(!mismatch.is_empty())),
            (
                "mismatch_features",
                Json::Arr(mismatch.into_iter().map(Json::from).collect()),
            ),
        ])
    }
}

/// `HEAD` of the repository in the working directory, if it is one.
/// `--git-dir` keeps git from searching parent directories.
fn git_rev() -> Option<String> {
    let out = Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Directory of the running executable, relative to the working
/// directory when it lies below it. Shard sockets go there: inside the
/// build output, and short enough for the 108-byte socket path limit.
fn socket_dir() -> PathBuf {
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    match std::env::current_dir() {
        Ok(cwd) => exe_dir
            .strip_prefix(&cwd)
            .map(Path::to_path_buf)
            .unwrap_or(exe_dir),
        Err(_) => exe_dir,
    }
}

fn metric_line(workload: Workload, m: &Metric) -> String {
    Json::obj(vec![
        ("type", "metric".into()),
        ("workload", workload.name().into()),
        ("name", m.name.into()),
        ("value", Json::Num(m.value)),
        ("unit", m.unit.into()),
        ("samples", (m.samples as u64).into()),
    ])
    .to_string()
}

fn write_trace(
    dir: &Path,
    workload: Workload,
    rec: &Recorder,
    prov: &Provenance,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let spans = rec.spans();
    let wall_s = rec.wall_s();
    let name = workload.name();
    let layers = Json::obj(vec![
        ("workload", name.into()),
        ("provenance", prov.json()),
        ("wall_s", Json::Num(wall_s)),
        ("layers", spans::layers_json(&spans, wall_s)),
    ]);
    std::fs::write(dir.join(format!("{name}.layers.json")), layers.to_string())?;
    std::fs::write(
        dir.join(format!("{name}.trace.json")),
        spans::chrome_json(&spans).to_string(),
    )
}

fn shard_worker(args: &[String]) -> ExitCode {
    let socket = match args {
        [flag, socket] if flag == "--socket" => socket,
        _ => {
            eprintln!("usage: cscv-benchmark shard-worker --socket PATH");
            return ExitCode::from(2);
        }
    };
    match cscv_shard::worker::run_process(socket) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cscv-benchmark shard-worker: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let rec = Recorder::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "shard-worker") {
        return shard_worker(&args[1..]);
    }
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("cscv-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.trace_out.is_some() && !cli.trace {
        eprintln!("cscv-benchmark: --trace-out needs --trace 1\n{USAGE}");
        return ExitCode::from(2);
    }

    let prov = Provenance::detect();
    let mismatch = prov.mismatch();
    if !mismatch.is_empty() {
        eprintln!(
            "WARNING: this CPU has {} but the build does not enable {}: \
             the kernels run without them and every number below understates \
             the hardware (build with RUSTFLAGS=\"-C target-cpu=native\")",
            mismatch.join(", "),
            if mismatch.len() == 1 { "it" } else { "them" },
        );
    }
    if prov.debug_assertions {
        eprintln!(
            "cscv-benchmark: refusing to measure: debug assertions are on (build with --release)"
        );
        return ExitCode::from(2);
    }
    println!("{}", prov.json().to_string());

    // Shard clusters bind their socket under the temp dir; keep it inside
    // the build output. No other thread exists yet.
    std::env::set_var("TMPDIR", socket_dir());
    let exe = std::env::current_exe()
        .map(|p| p.to_string_lossy().into_owned())
        .unwrap_or_else(|_| "cscv-benchmark".into());
    let cfg = Config {
        workload: cli.workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: Scale::full(),
        launch: cscv_shard::Launch::Process {
            cmd: vec![exe, "shard-worker".into()],
        },
    };
    let out = workloads::run(&cfg, &rec);

    let reported = if cli.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    for m in &out.end_to_end {
        println!("{}", metric_line(cli.workload, m));
    }
    if cli.trace {
        for m in &out.per_layer {
            println!("{}", metric_line(cli.workload, m));
        }
    }
    if let Some(dir) = &cli.trace_out {
        if let Err(e) = write_trace(dir, cli.workload, &rec, &prov) {
            eprintln!("cscv-benchmark: writing traces to {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let metrics = Json::obj(
        reported
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![("value", Json::Num(m.value)), ("unit", m.unit.into())]),
                )
            })
            .collect(),
    );
    let summary = Json::obj(vec![
        ("correct", Json::Bool(out.tally.failed == 0)),
        ("attempted", out.tally.attempted.into()),
        ("failed", out.tally.failed.into()),
        ("metrics", metrics),
    ]);
    println!("{}", summary.to_string());
    if out.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_takes_the_four_flags_and_rejects_the_rest() {
        let cli = Cli::parse(&args("--workload spmv-512 --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(cli.workload, Workload::Spmv512);
        assert_eq!((cli.seed, cli.seconds, cli.trace), (3, 10.0, true));
        assert!(cli.trace_out.is_none());
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload recon-sirt --seed -1 --seconds 1 --trace 0",
            "--workload recon-sirt --seed 1 --seconds NaN --trace 0",
            "--workload recon-sirt --seed 1 --seconds 1 --trace 2",
            "--workload recon-sirt --seed 1 --seconds 1",
            "--workload recon-sirt --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload recon-sirt --seed 1 --seconds 1 --trace",
        ] {
            assert!(Cli::parse(&args(bad)).is_err(), "{bad}");
        }
    }

    /// The package repeats the repository's release profile; the two must
    /// not drift apart, or the benchmark measures another build.
    #[test]
    fn release_profile_matches_the_repository() {
        let profile = |path: &str| -> Vec<String> {
            std::fs::read_to_string(path)
                .expect(path)
                .lines()
                .map(str::trim)
                .skip_while(|l| *l != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.starts_with('['))
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(String::from)
                .collect()
        };
        let own = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
        assert!(!own.is_empty());
        assert_eq!(
            own,
            profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
        );
    }
}
