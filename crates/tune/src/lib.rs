//! Runtime autotuning for the CSCV executor space.
//!
//! The CSCV kernels expose a real configuration space — variant (Z vs
//! M), `S_VxG`, thread count, and the multi-RHS tile width — and the
//! static heuristics in `cscv-core` pick one point of it from the
//! paper's recommendations. Following the OSKI line of work, this
//! crate replaces that fixed choice with a small empirical search:
//!
//! 1. [`fingerprint`] — a structural profile of the matrix
//!    (dimensions, nnz, per-column/row nnz dispersion, bandedness)
//!    identifying "the same kind of matrix" across runs;
//! 2. [`sample`] — view-strided row sampling, so the search benchmarks
//!    a sub-matrix with the same column structure at a fraction of the
//!    cost;
//! 3. [`space`] — the pruned candidate grid, which always contains the
//!    static heuristic so a tuned selection can never lose to it;
//! 4. [`tuner`] — min-of-reps benchmarking of each candidate (the
//!    paper's §V-C estimator) behind an injectable [`CandidateBench`],
//!    so tests can substitute a deterministic cost model for the wall
//!    clock;
//! 5. [`cache`] — a versioned on-disk JSON cache keyed by
//!    (fingerprint hash, operation, scalar type), with a
//!    fingerprint-distance fallback for near-identical matrices, so
//!    repeat workloads skip the search entirely;
//! 6. [`auto`] — the drop-in entry points: [`AutoExec::auto`] on
//!    `CscvExec` and [`tuned_executor`] returning a
//!    [`TunedExec`] that implements `SpmvExecutor`.
//!
//! Tuning activity is observable through `tune.*` trace spans and the
//! `tune_candidates` / `tune_samples` / `tune_cache_hits` /
//! `tune_cache_misses` counters, so `cscv-xtask perf-report` can
//! attribute tuning overhead. A warm-cache run performs zero benchmark
//! samples by construction.

// Index narrowing and panics are checked per site: a site that is safe
// by an invariant says so in `#[expect(…, reason = "…")]`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::cast_possible_truncation
)]
// Test code narrows freely; clippy.toml exempts its panics the same way.
#![cfg_attr(test, allow(clippy::cast_possible_truncation))]

pub mod auto;
pub mod cache;
pub mod fingerprint;
pub mod sample;
pub mod space;
pub mod tuner;

pub use auto::{tuned_executor, tuned_executor_with, AutoExec, TunedExec};
pub use cache::{CacheEntry, CacheOutcome, TuneCache, CACHE_SCHEMA};
pub use fingerprint::Fingerprint;
pub use space::{candidates, Op, TunedConfig};
pub use tuner::{tune, CandidateBench, ModelBench, TuneOptions, TuneReport, WallClockBench};
