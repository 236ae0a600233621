//! Sets `CSCV_GIT_REVISION` to the commit the crate is built from, for
//! the manifests' build provenance: `git rev-parse --short=12 HEAD`, or
//! `unknown` outside a git checkout or without git. Uncommitted edits are
//! not marked; watching the index for them would rebuild on every
//! `git add`.

use std::path::Path;
use std::process::Command;

/// Trimmed stdout of a successful `git` call.
fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

fn main() {
    println!("cargo:rerun-if-changed=build.rs");
    // Rerun when HEAD moves: a commit, checkout or reset rewrites one of
    // these. (A path that does not exist would rerun every build.)
    if let Some(dir) = git(&["rev-parse", "--absolute-git-dir"]) {
        for file in ["HEAD", "refs", "packed-refs"] {
            let path = Path::new(&dir).join(file);
            if path.exists() {
                println!("cargo:rerun-if-changed={}", path.display());
            }
        }
    }
    let revision = git(&["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=CSCV_GIT_REVISION={revision}");
}
