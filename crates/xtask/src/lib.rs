//! `cscv-xtask` — the workspace's correctness- and perf-tooling crate.
//!
//! Several subsystems, free of external dependencies:
//!
//! * [`analyze`] (driven by the [`lexer`]) — the one static-analysis
//!   pass (`cargo run -p cscv-xtask -- analyze`): a cross-crate call
//!   graph over the lexer's item model feeds fixpoint dataflow for the
//!   project rules the compiler cannot express (unsafe-provenance
//!   escapes, panic reachability from the kernel hot paths with witness
//!   chains, atomic-ordering discipline against `// ATOMIC(<role>)`
//!   declarations, index-cast truncation, slice indexing inside or
//!   feeding `unsafe`, and the crate-layering DAG) plus a
//!   stale-annotation check. Findings gate through the checked-in
//!   ratchet baseline `crates/xtask/analyze_baseline.json`. Everything
//!   the compiler can hold (the unsafe-module whitelist, SAFETY
//!   comments, undeclared cfg features) is a workspace lint instead, and
//!   the shard wire session is checked at runtime by `cscv-shard`.
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
//! * [`tune_cmd`] — the `tune` subcommand: batch-runs the `cscv-tune`
//!   autotuner over a corpus of case descriptors, re-measures the
//!   chosen configs against the static heuristic on the full matrices,
//!   and reports speedups (exit 1 when a tuned config is slower than
//!   the heuristic beyond the noise band).

pub mod analyze;
pub mod fuzz;
pub mod lexer;
pub mod perf;
pub mod sched;
pub mod shard_cmd;
pub mod tune_cmd;
