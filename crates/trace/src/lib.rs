//! Zero-dependency observability for the CSCV suite.
//!
//! The paper's whole argument is quantitative — instruction counts, bytes
//! moved, padding ratios, bandwidth ceilings (§IV–V) — so the runtime
//! should be able to report what the kernels actually did. This crate
//! provides the three primitives the rest of the workspace wires in:
//!
//! * **[`counters`]** — a fixed taxonomy of `u64` counters (FMA lanes
//!   issued, bytes loaded/stored, padding lanes wasted, mask-expand
//!   invocations, VxG groups executed, pool busy time, …) kept in
//!   per-thread atomic shards. The hot path takes no lock: each thread
//!   registers its shard once, then only touches its own cache lines with
//!   `Relaxed` adds. [`counters::totals`] folds the shards on demand.
//! * **[`span`]** — lightweight nested spans with monotonic timing and
//!   point events carrying numeric fields (iteration timelines,
//!   swap-compaction markers). Buffered per thread, drained by the
//!   emitters.
//! * **[`emit`]** — an NDJSON emitter (one self-describing JSON object
//!   per line — machine-readable run evidence) and a human-readable
//!   table renderer with derived statistics (pool imbalance ratio,
//!   bytes/flop, padding rate).
//!
//! # Feature gating
//!
//! Everything is behind the `trace` cargo feature. With the feature
//! **off** (the default) every function in the public API still exists
//! but has an empty `#[inline(always)]` body, [`SpanGuard`] is a
//! zero-sized type with no `Drop`, and [`ENABLED`] is `false` — so call
//! sites like
//!
//! ```
//! if cscv_trace::ENABLED {
//!     cscv_trace::counters::add(cscv_trace::counters::Counter::FmaLanes, 42);
//! }
//! ```
//!
//! are trivially dead and compile to nothing. Instrumented kernels are
//! byte-for-byte the uninstrumented kernels unless the feature is on.
//!
//! The [`json`], [`hist`], and [`export`] modules (the minimal JSON
//! parser/writer, log-bucketed latency histograms, and the Chrome
//! trace-event / collapsed-stack exporters) are always compiled:
//! manifests, histograms, and trace conversion operate on *recorded*
//! evidence, not hot-path instrumentation, and stay available in
//! default builds — `cscv-xtask perf-report` uses them to analyze
//! archived traces without carrying live instrumentation itself.

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

pub mod counters;
pub mod emit;
pub mod export;
pub mod hist;
pub mod json;
#[cfg(feature = "trace")]
pub(crate) mod registry;
pub mod span;

pub use emit::{report_guard, ReportGuard};
pub use span::SpanGuard;

/// `true` iff this build carries live instrumentation (`trace` feature).
///
/// A `const`, so `if cscv_trace::ENABLED { … }` blocks vanish entirely
/// from untraced builds.
pub const ENABLED: bool = cfg!(feature = "trace");

/// `d` in whole nanoseconds, saturating at `u64::MAX` (about 584 years).
pub fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_ns_saturates() {
        use std::time::Duration;
        assert_eq!(duration_ns(Duration::from_micros(3)), 3_000);
        assert_eq!(duration_ns(Duration::MAX), u64::MAX);
    }
}
