//! CI perf-smoke regression gate.
//!
//! Reads the NDJSON manifests the harness writes during a
//! `run_experiments.sh --smoke` pass (one file per driver, see
//! `cscv_harness::manifest`), aggregates the **best** GFLOP/s per
//! `(driver, executor, threads, k)` key, and compares each key against a
//! checked-in baseline. A kernel that regresses more than the tolerance
//! (default 25%) fails the gate; new keys (not in the baseline) and
//! vanished keys are reported but do not fail, so adding or renaming
//! drivers never wedges CI.
//!
//! Smoke iteration counts are tiny, so the threshold is deliberately
//! loose: this catches "kernel fell off a cliff" (lost vectorization,
//! accidental serialization), not percent-level drift.
//!
//! The baseline records the build's compile-time `target_features`
//! (manifest schema v3). The gate refuses, with exit code 2, to compare
//! manifests from a different build — or from a mix of builds — since a
//! kernel built without `fma` is several times slower on the same CPU.
//!
//! ```text
//! perf_smoke_check --manifests bench_results/smoke/manifests \
//!                  [--baseline bench_results/smoke/baseline.json] \
//!                  [--tolerance 0.25] [--write-baseline]
//! ```

use cscv_trace::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

struct Args {
    manifests: PathBuf,
    baseline: PathBuf,
    tolerance: f64,
    write_baseline: bool,
}

fn parse_args() -> Args {
    let mut a = Args {
        manifests: PathBuf::from("bench_results/smoke/manifests"),
        baseline: PathBuf::from("bench_results/smoke/baseline.json"),
        tolerance: 0.25,
        write_baseline: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--manifests" => a.manifests = PathBuf::from(it.next().expect("--manifests DIR")),
            "--baseline" => a.baseline = PathBuf::from(it.next().expect("--baseline FILE")),
            "--tolerance" => {
                a.tolerance = it
                    .next()
                    .expect("--tolerance F")
                    .parse()
                    .expect("tolerance is a fraction, e.g. 0.25")
            }
            "--write-baseline" => a.write_baseline = true,
            "--help" | "-h" => {
                eprintln!(
                    "flags: [--manifests DIR] [--baseline FILE] [--tolerance F] [--write-baseline]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    a
}

/// The `target_features` of a manifest line or baseline as JSON text;
/// `None` where they were not recorded (schema v1/v2).
fn build_of(v: &Json) -> Option<String> {
    v.get("target_features").map(Json::to_string)
}

fn show(build: &Option<String>) -> &str {
    build.as_deref().unwrap_or("(not recorded)")
}

/// The one build all measurements came from, or why there is none.
fn one_build(builds: &BTreeSet<Option<String>>) -> Result<Option<String>, String> {
    match builds.len() {
        0 | 1 => Ok(builds.first().cloned().flatten()),
        _ => Err(format!(
            "the manifests mix builds with target features {}",
            builds.iter().map(show).collect::<Vec<_>>().join(" and ")
        )),
    }
}

/// `Ok` when the measurements and the baseline come from the same build.
fn same_build(baseline: &Option<String>, builds: &BTreeSet<Option<String>>) -> Result<(), String> {
    let current = one_build(builds)?;
    if current == *baseline {
        Ok(())
    } else {
        Err(format!(
            "the manifests were built with target features {} but the baseline with {}",
            show(&current),
            show(baseline)
        ))
    }
}

/// Refuse to go on (exit 2) when the builds do not match.
fn refuse_on<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|why| {
        eprintln!(
            "perf-smoke: refusing to compare: {why}; rebuild with the baseline's \
             configuration or regenerate it (ci.sh --update-perf-baseline)"
        );
        std::process::exit(2)
    })
}

/// Best measured GFLOP/s per `(driver, executor, threads, k)` key, and
/// the builds the measurements came from.
fn collect(manifests: &PathBuf) -> (BTreeMap<String, f64>, BTreeSet<Option<String>>) {
    let mut best: BTreeMap<String, f64> = BTreeMap::new();
    let mut builds = BTreeSet::new();
    let entries = std::fs::read_dir(manifests)
        .unwrap_or_else(|e| panic!("cannot read manifest dir {}: {e}", manifests.display()));
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("ndjson") {
            continue;
        }
        let body = std::fs::read_to_string(&path).expect("read manifest");
        for (lineno, line) in body.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = Json::parse(line)
                .unwrap_or_else(|e| panic!("{}:{}: bad JSON: {e}", path.display(), lineno + 1));
            let (Some(driver), Some(name), Some(threads), Some(k), Some(gflops)) = (
                v.get("driver").and_then(Json::as_str),
                v.get("name").and_then(Json::as_str),
                v.get("threads").and_then(Json::as_f64),
                v.get("k").and_then(Json::as_f64),
                v.get("gflops").and_then(Json::as_f64),
            ) else {
                continue;
            };
            if !gflops.is_finite() || gflops <= 0.0 {
                continue;
            }
            builds.insert(build_of(&v));
            let key = format!("{driver}/{name}/t{threads}/k{k}");
            let slot = best.entry(key).or_insert(0.0);
            if gflops > *slot {
                *slot = gflops;
            }
        }
    }
    (best, builds)
}

fn load_baseline(path: &PathBuf) -> (BTreeMap<String, f64>, Option<String>) {
    let body = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", path.display()));
    let v = Json::parse(&body).expect("baseline parses");
    let kernels = v
        .get("kernels")
        .and_then(Json::as_obj)
        .expect("baseline has a \"kernels\" object")
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|g| (k.clone(), g)))
        .collect();
    (kernels, build_of(&v))
}

fn write_baseline(
    path: &PathBuf,
    current: &BTreeMap<String, f64>,
    build: &Option<String>,
    tolerance: f64,
) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create baseline dir");
    }
    // Hand-formatted with one kernel per line so baseline diffs review
    // cleanly; keys go through the Json writer for correct escaping.
    let comment = "Perf-smoke baseline: best GFLOP/s per driver/executor/threads/k from \
                   `run_experiments.sh --smoke`. Regenerate with `ci.sh --update-perf-baseline`.";
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n \"comment\": {},\n",
        Json::from(comment).to_string()
    ));
    out.push_str(&format!(" \"tolerance\": {tolerance},\n"));
    if let Some(build) = build {
        out.push_str(&format!(" \"target_features\": {build},\n"));
    }
    out.push_str(" \"kernels\": {\n");
    for (i, (k, &g)) in current.iter().enumerate() {
        let sep = if i + 1 < current.len() { "," } else { "" };
        out.push_str(&format!(
            "  {}: {:.4}{sep}\n",
            Json::from(k.as_str()).to_string(),
            g
        ));
    }
    out.push_str(" }\n}\n");
    std::fs::write(path, out).expect("write baseline");
    println!(
        "baseline written to {} ({} kernels)",
        path.display(),
        current.len()
    );
}

fn main() {
    let args = parse_args();
    let (current, builds) = collect(&args.manifests);
    assert!(
        !current.is_empty(),
        "no measurements found under {} — did the smoke run export CSCV_MANIFEST_DIR?",
        args.manifests.display()
    );

    if args.write_baseline {
        let build = refuse_on(one_build(&builds));
        write_baseline(&args.baseline, &current, &build, args.tolerance);
        return;
    }

    let (baseline, baseline_build) = load_baseline(&args.baseline);
    refuse_on(same_build(&baseline_build, &builds));
    let mut regressions = Vec::new();
    let mut checked = 0usize;
    for (key, &base) in &baseline {
        match current.get(key) {
            Some(&cur) => {
                checked += 1;
                let floor = base * (1.0 - args.tolerance);
                let delta = (cur / base - 1.0) * 100.0;
                if cur < floor {
                    regressions.push(format!(
                        "  {key}: {cur:.4} GFLOP/s vs baseline {base:.4} ({delta:+.1}%)"
                    ));
                } else if delta < 0.0 {
                    println!("  ok   {key}: {cur:.4} vs {base:.4} ({delta:+.1}%)");
                } else {
                    println!("  ok   {key}: {cur:.4} vs {base:.4} (+{delta:.1}%)");
                }
            }
            None => println!("  warn {key}: in baseline but not measured this run"),
        }
    }
    for key in current.keys() {
        if !baseline.contains_key(key) {
            println!("  new  {key}: not in baseline (run --write-baseline to adopt)");
        }
    }

    println!(
        "perf-smoke: {checked}/{} baseline kernels checked, tolerance {:.0}%",
        baseline.len(),
        args.tolerance * 100.0
    );
    if !regressions.is_empty() {
        eprintln!(
            "perf-smoke REGRESSIONS (> {:.0}% below baseline):",
            args.tolerance * 100.0
        );
        for r in &regressions {
            eprintln!("{r}");
        }
        std::process::exit(1);
    }
    println!("PERF_SMOKE_OK");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(fma: bool) -> Option<String> {
        let v = Json::parse(&format!(r#"{{"target_features":{{"fma":{fma}}}}}"#)).unwrap();
        build_of(&v)
    }

    #[test]
    fn refuses_to_compare_different_builds() {
        let (native, portable) = (build(true), build(false));
        let set = |b: &[&Option<String>]| b.iter().map(|&b| b.clone()).collect::<BTreeSet<_>>();
        assert_eq!(same_build(&native, &set(&[&native])), Ok(()));
        // A scalar-call build against a packed-FMA baseline, and back.
        let why = same_build(&native, &set(&[&portable])).unwrap_err();
        assert!(
            why.contains(r#"{"fma":false}"#) && why.contains(r#"{"fma":true}"#),
            "{why}"
        );
        assert!(same_build(&portable, &set(&[&native])).is_err());
        // Pre-v3 manifests against a v3 baseline, and a mix of builds.
        assert!(same_build(&native, &set(&[&None])).is_err());
        let mixed = set(&[&native, &portable]);
        assert!(same_build(&native, &mixed).unwrap_err().contains("mix"));
        assert!(one_build(&mixed).is_err());
        // v1/v2 manifests still compare against a v1/v2 baseline.
        assert_eq!(same_build(&None, &set(&[&None])), Ok(()));
    }
}
