#!/bin/bash
# Offline CI gate: formatting, lints, release build, docs, tests (both
# feature modes), and optionally the A/B perf gate.
# Requires no network access — the workspace has zero external crates in
# every feature set (see DESIGN.md "Dependencies"), so a vendored/offline
# toolchain is all CI needs.
#
#   ci.sh                        core gate (fmt, clippy with the workspace
#                                  and crate lints, fuzz corpus replay,
#                                  build, docs, tests, benchmark tests)
#   ci.sh --perf-smoke           + run the smoke benches twice on this
#                                  machine, for HEAD (a fresh checkout) and
#                                  for the working tree, and fail when
#                                  `perf-report --diff` finds a kernel more
#                                  than 2x slower (min-of-reps) than at
#                                  HEAD, or the two sides come from
#                                  different builds
#   ci.sh --miri                 + run the Miri-compatible test subset (the
#                                  unsafe-heavy crates' lib tests) under
#                                  `cargo miri`; skipped with a notice when
#                                  the miri component is not installed
#   ci.sh --fuzz                 + run the structure-aware differential
#                                  fuzzer for 5000 fixed-seed iterations
#                                  (the nightly CI job's workload)
#   ci.sh --sanitizers           + run the curated concurrency subset
#                                  (cscv-sparse + cscv-core lib tests)
#                                  under ThreadSanitizer and
#                                  AddressSanitizer with the vetted
#                                  suppressions file; deterministic
#                                  (fixed seeds), needs a nightly
#                                  toolchain with rust-src
set -euo pipefail
cd "$(dirname "$0")"

# Flag contract (covered by crates/xtask/tests/ci_contract.rs): every
# recognized flag sets its stage; anything else prints the offender and
# exits 2 before any toolchain work starts.
PERF_SMOKE=0
MIRI=0
FUZZ=0
SANITIZERS=0
for arg in "$@"; do
    case "$arg" in
        --perf-smoke) PERF_SMOKE=1 ;;
        --miri) MIRI=1 ;;
        --fuzz) FUZZ=1 ;;
        --sanitizers) SANITIZERS=1 ;;
        *) echo "ci.sh: unknown flag: $arg" >&2; exit 2 ;;
    esac
done

step() { echo; echo "== $* =="; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo clippy --workspace --all-targets --features trace -- -D warnings"
cargo clippy --workspace --all-targets --features trace -- -D warnings

step "cscv-xtask fuzz (regression corpus replay)"
cargo run -q -p cscv-xtask -- fuzz --iters 0 --corpus crates/xtask/fuzz_corpus

step "cargo build --release"
cargo build --release --workspace

step "cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

step "cargo test -q"
cargo test -q --workspace

step "cargo test -q --features trace"
cargo test -q --workspace --features trace

# The benchmark package is its own workspace, so no step above compiles
# it; it calls the library crates' public APIs.
step "cargo test (cscv-benchmark)"
cargo test -q --offline --locked --manifest-path cscv-benchmark/Cargo.toml

if [ "$MIRI" = 1 ]; then
    # Lib tests of the unsafe-heavy crates only: integration suites mix in
    # timing loops and subprocess spawns that Miri cannot model, and the
    # per-file `#[cfg_attr(miri, ignore)]` gates keep the remaining
    # file-IO/timing unit tests out of the run. The empty RUSTFLAGS
    # replaces .cargo/config.toml's native build with the portable one:
    # under Miri `is_x86_feature_detected!` reports compile-time
    # features, and the AVX-512 `vexpand` intrinsics a native build
    # would reach may not be interpretable.
    if cargo miri --version >/dev/null 2>&1; then
        step "cargo miri test (unsafe-heavy crate libs)"
        RUSTFLAGS="" MIRIFLAGS="${MIRIFLAGS:-}" cargo miri test -q \
            -p cscv-sparse -p cscv-simd -p cscv-core -p cscv-trace --lib
    else
        step "miri not installed — skipping (rustup component add miri)"
    fi
fi

if [ "$SANITIZERS" = 1 ]; then
    # Curated concurrency subset: the pool/shared-slice machinery in
    # cscv-sparse and the executors in cscv-core. Deterministic on
    # purpose — the lib tests use fixed seeds throughout — so a red
    # sanitizer run reproduces on any machine. TSan suppressions are the vetted,
    # justified list in crates/xtask/sanitizer_suppressions.txt;
    # halt_on_error=1 makes the first report fatal instead of a warning.
    if rustup run nightly cargo --version >/dev/null 2>&1; then
        step "cargo test under ThreadSanitizer (cscv-sparse, cscv-core libs)"
        TSAN_OPTIONS="suppressions=$PWD/crates/xtask/sanitizer_suppressions.txt halt_on_error=1" \
        RUSTFLAGS="-Zsanitizer=thread" \
            rustup run nightly cargo test -q -Zbuild-std \
            --target x86_64-unknown-linux-gnu \
            -p cscv-sparse -p cscv-core --lib

        step "cargo test under AddressSanitizer (cscv-sparse, cscv-core libs)"
        ASAN_OPTIONS="halt_on_error=1" \
        RUSTFLAGS="-Zsanitizer=address" \
            rustup run nightly cargo test -q -Zbuild-std \
            --target x86_64-unknown-linux-gnu \
            -p cscv-sparse -p cscv-core --lib
    else
        step "nightly toolchain not installed — skipping sanitizers (rustup toolchain install nightly --component rust-src)"
    fi
fi

if [ "$FUZZ" = 1 ]; then
    # Fixed seed so a red run is reproducible on any machine; failures
    # shrink and dump minimized descriptors into the corpus directory.
    step "cscv-xtask fuzz --iters 5000 (structure-aware differential fuzzing)"
    cargo run --release -q -p cscv-xtask -- fuzz \
        --iters 5000 --seed 1 --corpus crates/xtask/fuzz_corpus
fi

if [ "$PERF_SMOKE" = 1 ]; then
    # A/B on one machine: the base (HEAD, extracted outside the repo so
    # no config file of the working tree reaches its build) and the
    # change (the working tree) run back to back and share the host's
    # speed. The 2x bar sits above the noise between two smoke runs of
    # one commit (single keys differ by up to ~65% on a 2-vCPU VM) and
    # below the 5-10x cliffs the gate exists to catch.
    BASE=$(mktemp -d)
    trap 'rm -rf "$BASE"' EXIT
    git archive HEAD | tar -x -C "$BASE"
    step "perf smoke: run_experiments.sh --smoke (base: HEAD)"
    (cd "$BASE" && ./run_experiments.sh --smoke)

    step "perf smoke: run_experiments.sh --smoke (change: working tree)"
    ./run_experiments.sh --smoke

    step "perf smoke: perf-report --diff base change --threshold 1.0"
    cargo run --release -q -p cscv-xtask -- perf-report \
        --diff "$BASE/bench_results/smoke" bench_results/smoke --threshold 1.0

    step "perf report: roofline attribution over smoke manifests"
    cargo run --release -q -p cscv-xtask -- perf-report bench_results/smoke
fi

echo
echo "CI_OK"
