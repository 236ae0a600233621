//! `cscv-xtask` — the workspace's correctness- and perf-tooling crate.
//!
//! Two subsystems, free of external dependencies. Static checks are
//! not among them: the compiler and clippy hold the unsafe-module
//! whitelist, SAFETY comments, index narrowing and panics (see the
//! library crates' `lib.rs` and the root `clippy.toml`),
//! `tests/layering.rs` holds the crate DAG, `tests/ci_contract.rs`
//! holds each library crate's crate-level `deny` lints, and
//! `cscv-shard` checks its wire session at runtime.
//!
//! * [`fuzz`] — structure-aware differential fuzzing (`… -- fuzz`):
//!   randomized CT geometries and degenerate matrices round-tripped
//!   through every sparse format with invariant validation after each
//!   conversion and executor-vs-dense differential checks, shrinking
//!   failures to a replayable seed.
//! * [`perf`] — the `perf-report` subcommand: aggregates benchmark
//!   manifests into a roofline-attributed report (latency-vs-bandwidth
//!   classification per kernel), exports archived traces to Chrome
//!   trace-event JSON and collapsed flamegraph stacks, and diffs two
//!   result directories with noise-aware min-of-reps comparison.

pub mod fuzz;
pub mod perf;
