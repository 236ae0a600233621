#!/bin/bash
# Offline CI gate: formatting, lints, release build, docs, tests (both
# feature modes), and optionally the perf-smoke regression gate.
# Requires no network access — the workspace has zero external crates in
# every feature set (see DESIGN.md "Dependencies"), so a vendored/offline
# toolchain is all CI needs.
#
#   ci.sh                        core gate (fmt, clippy with the workspace
#                                  lints, xtask analyze, fuzz corpus replay,
#                                  build, docs, tests, benchmark tests)
#   ci.sh --perf-smoke           + run the smoke benches and fail on >25%
#                                  GFLOP/s regressions vs the checked-in
#                                  bench_results/smoke/baseline.json
#   ci.sh --update-perf-baseline + run the smoke benches and rewrite the
#                                  baseline from this machine's numbers
#                                  (and its build's target features)
#   ci.sh --miri                 + run the Miri-compatible test subset (the
#                                  unsafe-heavy crates' lib tests) under
#                                  `cargo miri`; skipped with a notice when
#                                  the miri component is not installed
#   ci.sh --fuzz                 + run the structure-aware differential
#                                  fuzzer for 5000 fixed-seed iterations
#                                  (the nightly CI job's workload)
#   ci.sh --shard-smoke          + run the sharded multi-process
#                                  reconstruction gate (`cscv-xtask shard
#                                  --workers 1,2,4`): workers=1 must be
#                                  byte-identical to single-process,
#                                  2 and 4 within 1e-10 per residual entry
#   ci.sh --sanitizers           + run the curated concurrency subset
#                                  (cscv-sparse + cscv-core lib tests)
#                                  under ThreadSanitizer and
#                                  AddressSanitizer with the vetted
#                                  suppressions file; deterministic
#                                  (CSCV_NUMA=0, fixed seeds), needs a
#                                  nightly toolchain with rust-src
set -euo pipefail
cd "$(dirname "$0")"

# Flag contract (covered by crates/xtask/tests/ci_contract.rs): every
# recognized flag sets its stage; anything else prints the offender and
# exits 2 before any toolchain work starts.
PERF_SMOKE=0
UPDATE_BASELINE=0
MIRI=0
FUZZ=0
SHARD_SMOKE=0
SANITIZERS=0
for arg in "$@"; do
    case "$arg" in
        --perf-smoke) PERF_SMOKE=1 ;;
        --update-perf-baseline) PERF_SMOKE=1; UPDATE_BASELINE=1 ;;
        --miri) MIRI=1 ;;
        --fuzz) FUZZ=1 ;;
        --shard-smoke) SHARD_SMOKE=1 ;;
        --sanitizers) SANITIZERS=1 ;;
        *) echo "ci.sh: unknown flag: $arg" >&2; exit 2 ;;
    esac
done

step() { echo; echo "== $* =="; }

step "cargo fmt --check"
cargo fmt --all --check

step "cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

step "cargo clippy --workspace --features trace -- -D warnings"
cargo clippy --workspace --features trace -- -D warnings

step "cscv-xtask analyze (inter-procedural rules + findings ratchet)"
cargo run -q -p cscv-xtask -- analyze

step "cscv-xtask fuzz (regression corpus replay)"
cargo run -q -p cscv-xtask -- fuzz --iters 0 --corpus crates/xtask/fuzz_corpus

step "cscv-xtask tune (deterministic-model batch tune over the corpus)"
cargo run -q -p cscv-xtask -- tune crates/tune/tune_corpus --model --reps 1 --warmup 0

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
    # purpose — CSCV_NUMA=0 removes topology-dependent placement, and
    # the lib tests use fixed seeds throughout — so a red sanitizer run
    # reproduces on any machine. TSan suppressions are the vetted,
    # justified list in crates/xtask/sanitizer_suppressions.txt;
    # halt_on_error=1 makes the first report fatal instead of a warning.
    if rustup run nightly cargo --version >/dev/null 2>&1; then
        step "cargo test under ThreadSanitizer (cscv-sparse, cscv-core libs)"
        CSCV_NUMA=0 \
        TSAN_OPTIONS="suppressions=$PWD/crates/xtask/sanitizer_suppressions.txt halt_on_error=1" \
        RUSTFLAGS="-Zsanitizer=thread" \
            rustup run nightly cargo test -q -Zbuild-std \
            --target x86_64-unknown-linux-gnu \
            -p cscv-sparse -p cscv-core --lib

        step "cargo test under AddressSanitizer (cscv-sparse, cscv-core libs)"
        CSCV_NUMA=0 \
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

if [ "$SHARD_SMOKE" = 1 ]; then
    # Real worker processes over Unix sockets (the default launch mode);
    # the command exits 1 itself on any equivalence failure.
    step "shard smoke: cscv-xtask shard --workers 1,2,4 (process launch)"
    cargo run --release -q -p cscv-xtask -- shard --workers 1,2,4

    # Traced leg: 4 workers with the merged Chrome trace + per-worker
    # telemetry, gated the same way the CI job gates the artifact.
    step "shard smoke: traced 4-worker leg (merged trace + telemetry)"
    SHARD_OUT=$(mktemp -d)
    cargo run --release -q -p cscv-xtask --features trace -- \
        shard --workers 4 --solver sirt \
        --trace-export "$SHARD_OUT/merged.chrome.json" \
        --telemetry "$SHARD_OUT/telemetry/shard.ndjson"
    lanes=$(grep -o '"cscv-worker-[0-9]*' "$SHARD_OUT/merged.chrome.json" | sort -u | wc -l)
    [ "$lanes" -eq 4 ] || { echo "expected 4 worker lanes, got $lanes" >&2; exit 1; }
    grep -q '"parent_span"' "$SHARD_OUT/merged.chrome.json" \
        || { echo "no coordinator-parented worker span in merged trace" >&2; exit 1; }
    rm -rf "$SHARD_OUT"
fi

if [ "$PERF_SMOKE" = 1 ]; then
    step "perf smoke: run_experiments.sh --smoke"
    ./run_experiments.sh --smoke

    if [ "$UPDATE_BASELINE" = 1 ]; then
        step "perf smoke: rewrite baseline"
        cargo run --release -q -p cscv-bench --bin perf_smoke_check -- \
            --manifests bench_results/smoke/manifests \
            --baseline bench_results/smoke/baseline.json \
            --write-baseline
    else
        step "perf smoke: check against baseline"
        cargo run --release -q -p cscv-bench --bin perf_smoke_check -- \
            --manifests bench_results/smoke/manifests \
            --baseline bench_results/smoke/baseline.json \
            --tolerance 0.25
    fi

    step "perf report: roofline attribution over smoke manifests"
    cargo run --release -q -p cscv-xtask -- perf-report bench_results/smoke
fi

echo
echo "CI_OK"
