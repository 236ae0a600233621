//! `cscv-xtask` — the workspace's correctness- and perf-tooling crate.
//!
//! Several subsystems, free of external dependencies. Static checks are
//! not among them: the compiler and clippy hold the unsafe-module
//! whitelist, SAFETY comments, index narrowing and panics (see the
//! library crates' `lib.rs` and the root `clippy.toml`),
//! `tests/layering.rs` holds the crate DAG, and `cscv-shard` checks its
//! wire session at runtime.
//!
//! * [`lexer`] — a comment- and string-aware view of Rust source for
//!   the contract tests that read it (`tests/ci_contract.rs` checks the
//!   library crates' crate-level `deny` lints through it).
//! * [`fuzz`] — structure-aware differential fuzzing (`… -- fuzz`):
//!   randomized CT geometries and degenerate matrices round-tripped
//!   through every sparse format with invariant validation after each
//!   conversion and executor-vs-dense differential checks, shrinking
//!   failures to a replayable seed.
//! * [`sched`] — a minimal exhaustive-interleaving model checker (a
//!   vendored loom-flavored scheduler) used by `tests/models.rs` to
//!   verify the thread-pool dispatch/ack barrier and the trace-shard
//!   folding protocols under *every* interleaving.
//! * [`perf`] — the `perf-report` subcommand: aggregates benchmark
//!   manifests into a roofline-attributed report (latency-vs-bandwidth
//!   classification per kernel), exports archived traces to Chrome
//!   trace-event JSON and collapsed flamegraph stacks, and diffs two
//!   result directories with noise-aware min-of-reps comparison.

pub mod fuzz;
pub mod lexer;
pub mod perf;
pub mod sched;
