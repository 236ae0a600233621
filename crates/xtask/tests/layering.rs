//! Crate layering: every workspace-internal `[dependencies]` edge must
//! appear in [`DAG`]. Dev-dependencies are exempt: they cannot create
//! build cycles, and the workspace uses self dev-dependencies for
//! feature unification.

use std::path::Path;

const ALL: &str = "trace simd sparse core ct recon harness tune shard";

/// Each crate and the internal crates (without the `cscv-` prefix) it
/// may depend on: trace/simd at the bottom, sparse → core → ct/recon →
/// harness → bench on top; tune and shard above harness and recon;
/// xtask and the umbrella crate are leaves. Listed bottom-up.
const DAG: &[(&str, &str)] = &[
    ("cscv-trace", ""),
    ("cscv-simd", "trace"),
    ("cscv-sparse", "trace simd"),
    ("cscv-core", "trace simd sparse"),
    ("cscv-ct", "trace simd sparse core"),
    ("cscv-recon", "trace simd sparse core ct"),
    ("cscv-harness", "trace simd sparse core ct recon"),
    ("cscv-bench", "trace simd sparse core ct recon harness"),
    ("cscv-tune", "trace simd sparse core harness"),
    ("cscv-shard", "trace simd sparse core ct recon harness tune"),
    ("cscv-xtask", ALL),
    ("cscv-repro", ALL),
];

/// The package name and its internal `[dependencies]`, unprefixed.
fn manifest_edges(path: &Path) -> (String, Vec<String>) {
    let text = std::fs::read_to_string(path).unwrap();
    let (mut section, mut name, mut deps) = ("", String::new(), Vec::new());
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if section == "[package]" && line.starts_with("name ") {
            name = line.split('"').nth(1).unwrap().to_string();
        } else if let Some(dep) = line
            .strip_prefix("cscv-")
            .filter(|_| section == "[dependencies]")
        {
            let end = dep.find(['.', '=', ' ']).unwrap_or(dep.len());
            deps.push(dep[..end].to_string());
        }
    }
    (name, deps)
}

#[test]
fn dag_is_listed_bottom_up() {
    for (i, (name, allowed)) in DAG.iter().enumerate() {
        for dep in allowed.split_whitespace() {
            let below = DAG[..i].iter().any(|(n, _)| *n == format!("cscv-{dep}"));
            assert!(below, "{name} → cscv-{dep}: not listed below {name}");
        }
    }
}

#[test]
fn internal_dependencies_follow_the_dag() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap();
    let mut manifests = vec![root.join("Cargo.toml")];
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        manifests.push(entry.unwrap().path().join("Cargo.toml"));
    }
    for manifest in manifests.iter().filter(|m| m.exists()) {
        let (name, deps) = manifest_edges(manifest);
        let Some((_, allowed)) = DAG.iter().find(|(n, _)| *n == name) else {
            panic!("{name} ({}) is not in the layering DAG", manifest.display());
        };
        for dep in deps {
            assert!(
                allowed.split_whitespace().any(|a| a == dep),
                "{name} → cscv-{dep} violates the layering DAG (allowed: {allowed})"
            );
        }
    }
}
