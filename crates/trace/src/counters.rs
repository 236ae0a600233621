//! The counter taxonomy and its per-thread shard machinery.
//!
//! Counters are a closed enum rather than a string registry: the set of
//! things worth counting in an SpMV stack is small and fixed, a closed
//! enum keeps the hot-path `add` a single indexed atomic op, and the
//! emitters can render every counter without discovery logic.
//!
//! Sharding: each OS thread lazily registers one `[AtomicU64; N]` array
//! with the global registry (one mutex lock, once per thread lifetime).
//! After that, `add` touches only the calling thread's own shard with
//! `Relaxed` ordering — no locks and no cross-core cache-line traffic on
//! the hot path. Aggregation ([`totals`] / [`per_thread`]) walks the
//! registry and folds shards; `Relaxed` is sufficient because readers
//! only run at quiescent points (after `pool.run` barriers or at emit
//! time) and monotonic counters need no ordering with other memory.

/// Everything the suite counts. See each variant's doc for the exact
/// semantics the invariant tests rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// FMA lane-operations issued by the CSCV kernels, padding lanes
    /// included (CSCV-Z pays its padding here; CSCV-M re-inflates to the
    /// same issue count after mask expansion).
    FmaLanes,
    /// Useful floating-point operations: `2` per original nonzero
    /// touched, the paper's `F = 2·nnz/T` numerator. One SpMV adds
    /// exactly `2·nnz(A)`.
    UsefulFlops,
    /// Bytes read per the paper's `M_Rit` model: each executed block's
    /// matrix stream plus the input-vector traffic of the call. One
    /// single-RHS SpMV adds exactly `M(A) + M(x)`.
    BytesLoaded,
    /// Bytes written per the `M_Rit` model: output-vector traffic. One
    /// single-RHS SpMV adds exactly `M(y)`.
    BytesStored,
    /// Padding lane slots wasted (CSCVE slots minus original nonzeros),
    /// accumulated per executed block — the live form of the paper's
    /// `R_nnzE` numerator.
    PaddingLanes,
    /// Mask-expansion invocations (one per compressed lane block,
    /// CSCV-M only; hardware and soft paths count alike).
    MaskExpands,
    /// VxG groups executed.
    VxgGroups,
    /// CSCV-Z block-kernel executions.
    BlocksZ,
    /// CSCV-M block-kernel executions.
    BlocksM,
    /// Top-level CSCV-Z kernel dispatches (spmv / spmm-chunk /
    /// transpose calls routed to the Z variant).
    DispatchZ,
    /// Top-level CSCV-M kernel dispatches.
    DispatchM,
    /// `ThreadPool::run` dispatches.
    PoolDispatches,
    /// Per-slot tasks executed across all pool dispatches.
    PoolTasks,
    /// Nanoseconds each thread spent inside pool tasks (per-thread
    /// shards give the busy/idle split and the imbalance ratio).
    PoolBusyNs,
    /// Iterative-solver update steps applied (per slice for batched
    /// solvers).
    SolverIters,
    /// Batch swap-compaction events (a converged slice retired and the
    /// trailing active slice swapped into its slot).
    SwapCompactions,
    /// Autotuner candidate configurations benchmarked (one per
    /// (variant, S_VxG, threads, k) point actually measured).
    TuneCandidates,
    /// Autotuner benchmark samples executed (timed kernel invocations,
    /// warmup excluded). A warm-cache tune run adds exactly zero.
    TuneSamples,
    /// Tuning-cache lookups answered from a persisted entry (exact
    /// fingerprint-hash match or within the distance fallback).
    TuneCacheHits,
    /// Tuning-cache lookups that fell through to a fresh search (or to
    /// the static heuristic when searching is not allowed).
    TuneCacheMisses,
    /// Bytes the shard coordinator wrote to worker sockets (frame
    /// headers included). One forward SpMV broadcast adds roughly
    /// `n_shards · M(x)` plus framing.
    ShardBytesTx,
    /// Bytes the shard coordinator read back from worker sockets
    /// (frame headers included). Adjoint replies shrink with the halo
    /// windows: each worker sends only its column-support slice.
    ShardBytesRx,
    /// Nanoseconds the coordinator spent in the fixed-order tree
    /// reduction of partial `ỹ` vectors (adjoint merges and column-sum
    /// merges; forward gathers are placement-only and add zero).
    ShardReduceNs,
    /// Nanoseconds shard workers reported spending inside their local
    /// executors (summed over workers; divide by the coordinator's
    /// request wall time for the busy fraction).
    ShardWorkerBusyNs,
}

/// Number of counters in [`Counter`].
pub const N_COUNTERS: usize = 24;

/// Every counter, in declaration order (emit order).
pub const ALL: [Counter; N_COUNTERS] = [
    Counter::FmaLanes,
    Counter::UsefulFlops,
    Counter::BytesLoaded,
    Counter::BytesStored,
    Counter::PaddingLanes,
    Counter::MaskExpands,
    Counter::VxgGroups,
    Counter::BlocksZ,
    Counter::BlocksM,
    Counter::DispatchZ,
    Counter::DispatchM,
    Counter::PoolDispatches,
    Counter::PoolTasks,
    Counter::PoolBusyNs,
    Counter::SolverIters,
    Counter::SwapCompactions,
    Counter::TuneCandidates,
    Counter::TuneSamples,
    Counter::TuneCacheHits,
    Counter::TuneCacheMisses,
    Counter::ShardBytesTx,
    Counter::ShardBytesRx,
    Counter::ShardReduceNs,
    Counter::ShardWorkerBusyNs,
];

impl Counter {
    /// Stable snake_case name used by the NDJSON emitter.
    pub fn name(self) -> &'static str {
        match self {
            Counter::FmaLanes => "fma_lanes",
            Counter::UsefulFlops => "useful_flops",
            Counter::BytesLoaded => "bytes_loaded",
            Counter::BytesStored => "bytes_stored",
            Counter::PaddingLanes => "padding_lanes",
            Counter::MaskExpands => "mask_expands",
            Counter::VxgGroups => "vxg_groups",
            Counter::BlocksZ => "blocks_z",
            Counter::BlocksM => "blocks_m",
            Counter::DispatchZ => "dispatch_z",
            Counter::DispatchM => "dispatch_m",
            Counter::PoolDispatches => "pool_dispatches",
            Counter::PoolTasks => "pool_tasks",
            Counter::PoolBusyNs => "pool_busy_ns",
            Counter::SolverIters => "solver_iters",
            Counter::SwapCompactions => "swap_compactions",
            Counter::TuneCandidates => "tune_candidates",
            Counter::TuneSamples => "tune_samples",
            Counter::TuneCacheHits => "tune_cache_hits",
            Counter::TuneCacheMisses => "tune_cache_misses",
            Counter::ShardBytesTx => "shard_bytes_tx",
            Counter::ShardBytesRx => "shard_bytes_rx",
            Counter::ShardReduceNs => "shard_reduce_ns",
            Counter::ShardWorkerBusyNs => "shard_worker_busy_ns",
        }
    }
}

/// A folded counter snapshot (totals over shards, or one shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Totals(pub [u64; N_COUNTERS]);

impl Totals {
    /// Value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    /// `self − earlier`, counter-wise (snapshot deltas for tests).
    /// Saturates at zero so a racing `reset` cannot underflow.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut out = [0u64; N_COUNTERS];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&earlier.0)) {
            *o = a.saturating_sub(*b);
        }
        Totals(out)
    }

    /// True iff every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&v| v == 0)
    }

    /// `(name, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        ALL.iter().map(move |&c| (c.name(), self.get(c)))
    }
}

#[cfg(feature = "trace")]
mod imp {
    use super::{Counter, Totals, N_COUNTERS};
    use crate::registry;
    use std::sync::atomic::Ordering;

    /// Add `n` to a counter in the calling thread's shard. Lock-free
    /// after the thread's first call.
    #[inline]
    pub fn add(c: Counter, n: u64) {
        registry::with_local(|local| {
            local.counters[c as usize].fetch_add(n, Ordering::Relaxed);
        });
    }

    /// Fold every thread's shard into one snapshot.
    pub fn totals() -> Totals {
        let mut out = [0u64; N_COUNTERS];
        registry::for_each_shard(|_, shard| {
            for (o, a) in out.iter_mut().zip(shard.iter()) {
                *o += a.load(Ordering::Relaxed);
            }
        });
        Totals(out)
    }

    /// Per-thread snapshots `(thread name, totals)`, registration order.
    pub fn per_thread() -> Vec<(String, Totals)> {
        let mut out = Vec::new();
        registry::for_each_shard(|name, shard| {
            let mut t = [0u64; N_COUNTERS];
            for (o, a) in t.iter_mut().zip(shard.iter()) {
                *o = a.load(Ordering::Relaxed);
            }
            out.push((name.to_string(), Totals(t)));
        });
        out
    }

    /// Zero every shard and drop buffered span/point events.
    ///
    /// Intended for test isolation and between benchmark phases; racing
    /// writers are not corrupted (their adds land in the zeroed shard)
    /// but the snapshot semantics are only exact at quiescent points.
    pub fn reset() {
        registry::reset();
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    use super::{Counter, Totals};

    #[inline(always)]
    pub fn add(_c: Counter, _n: u64) {}

    #[inline(always)]
    pub fn totals() -> Totals {
        Totals::default()
    }

    #[inline(always)]
    pub fn per_thread() -> Vec<(String, Totals)> {
        Vec::new()
    }

    #[inline(always)]
    pub fn reset() {}
}

pub use imp::{add, per_thread, reset, totals};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_order_are_stable() {
        assert_eq!(ALL.len(), N_COUNTERS);
        for (i, c) in ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{} out of order", c.name());
        }
        // Names are unique.
        for (i, a) in ALL.iter().enumerate() {
            for b in &ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn totals_delta_and_queries() {
        let mut a = Totals::default();
        assert!(a.is_zero());
        a.0[Counter::FmaLanes as usize] = 10;
        a.0[Counter::BytesLoaded as usize] = 100;
        let mut b = a;
        b.0[Counter::FmaLanes as usize] = 25;
        let d = b.since(&a);
        assert_eq!(d.get(Counter::FmaLanes), 15);
        assert_eq!(d.get(Counter::BytesLoaded), 0);
        // Saturating: reversed delta does not underflow.
        assert_eq!(a.since(&b).get(Counter::FmaLanes), 0);
        assert_eq!(a.iter().count(), N_COUNTERS);
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn disabled_build_is_inert() {
        const { assert!(!crate::ENABLED) }
        add(Counter::FmaLanes, 1_000_000);
        add(Counter::PoolBusyNs, 42);
        assert!(totals().is_zero(), "no-op add must not record anything");
        assert!(per_thread().is_empty());
        reset();
        assert!(totals().is_zero());
    }

    #[cfg(feature = "trace")]
    #[test]
    fn add_and_totals_roundtrip() {
        // Serialize against other counter tests in this binary.
        let _guard = crate::registry::test_lock();
        reset();
        let before = totals();
        add(Counter::FmaLanes, 7);
        add(Counter::FmaLanes, 3);
        add(Counter::MaskExpands, 5);
        let d = totals().since(&before);
        assert_eq!(d.get(Counter::FmaLanes), 10);
        assert_eq!(d.get(Counter::MaskExpands), 5);
        assert_eq!(d.get(Counter::VxgGroups), 0);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn shards_fold_across_std_threads() {
        let _guard = crate::registry::test_lock();
        reset();
        let before = totals();
        let n_threads = 8usize;
        let per_thread_adds = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..n_threads {
                s.spawn(|| {
                    for _ in 0..per_thread_adds {
                        add(Counter::PoolTasks, 1);
                    }
                });
            }
        });
        let d = totals().since(&before);
        assert_eq!(
            d.get(Counter::PoolTasks),
            n_threads as u64 * per_thread_adds
        );
        // Every spawned thread shows up as its own shard.
        assert!(per_thread().len() >= n_threads);
    }
}
