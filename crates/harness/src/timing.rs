//! Minimum-time SpMV measurement (paper §V-C) with full per-rep
//! timing distributions for the analysis tier.

use cscv_sparse::{Scalar, SpmvExecutor, ThreadPool};
use cscv_trace::hist::exact_percentile;
use std::time::Instant;

/// Latency distribution summary over one measurement's timed reps
/// (nearest-rank percentiles, seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
}

/// Summarize per-rep samples: sort them and read nearest-rank
/// ([`exact_percentile`]) p50/p90/p99 and the exact max, at any sample
/// count — the same rule `perf-report` applies to pooled runs, so a
/// manifest line and an aggregated report agree.
pub fn summarize_samples(samples: &[f64]) -> LatencySummary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(&max) = sorted.last() else {
        return LatencySummary {
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
            max: 0.0,
        };
    };
    LatencySummary {
        p50: exact_percentile(&sorted, 50.0),
        p90: exact_percentile(&sorted, 90.0),
        p99: exact_percentile(&sorted, 99.0),
        max,
    }
}

/// One executor's measurement on one matrix/pool combination.
#[derive(Debug, Clone)]
pub struct SpmvMeasurement {
    pub name: String,
    pub threads: usize,
    /// Minimum per-iteration time in seconds.
    pub secs_min: f64,
    /// `F = 2·nnz/T` in GFLOP/s.
    pub gflops: f64,
    /// `M_Rit` in bytes.
    pub mem_requirement: usize,
    /// Achieved effective bandwidth `M_Rit / T` in GB/s.
    pub eff_bandwidth_gbs: f64,
    /// Zero-padding rate of the storage format.
    pub r_nnze: f64,
    /// Every timed rep's duration in seconds, in execution order (the
    /// distribution behind `secs_min`; manifests record it verbatim).
    pub samples: Vec<f64>,
}

impl SpmvMeasurement {
    /// Effective memory-bandwidth usage ratio `R_EM` against a measured
    /// peak (bytes/s).
    pub fn r_em(&self, peak_bytes_per_sec: f64) -> f64 {
        if peak_bytes_per_sec <= 0.0 {
            return 0.0;
        }
        self.mem_requirement as f64 / (self.secs_min * peak_bytes_per_sec)
    }

    /// `R_EM > 1`: the run moved `M_Rit` faster than the DRAM read
    /// peak allows, so the matrix came from cache and `R_EM` is not a
    /// DRAM-bandwidth fraction.
    pub fn cache_resident(&self, peak_bytes_per_sec: f64) -> bool {
        self.r_em(peak_bytes_per_sec) > 1.0
    }

    /// Percentile summary of the per-rep samples.
    pub fn latency(&self) -> LatencySummary {
        summarize_samples(&self.samples)
    }
}

/// Number of timed iterations: `CSCV_BENCH_ITERS` env override, default
/// `default`. The paper uses ≥ 100; the drivers default lower so the
/// full table regeneration stays laptop-friendly, and CI can crank it up.
pub fn bench_iters(default: usize) -> usize {
    std::env::var("CSCV_BENCH_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Measure an executor: `warmup` untimed runs, then `iters` timed runs,
/// keeping the minimum (the paper's estimator).
pub fn measure_spmv<T: Scalar>(
    exec: &dyn SpmvExecutor<T>,
    x: &[T],
    y: &mut [T],
    pool: &ThreadPool,
    warmup: usize,
    iters: usize,
) -> SpmvMeasurement {
    assert!(iters >= 1);
    for _ in 0..warmup {
        exec.spmv(x, y, pool);
    }
    let mut best = f64::INFINITY;
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        exec.spmv(x, y, pool);
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(&y[..]);
        samples.push(dt);
        if dt < best {
            best = dt;
        }
    }
    let mem = exec.memory_requirement();
    let m = SpmvMeasurement {
        name: exec.name(),
        threads: pool.n_threads(),
        secs_min: best,
        gflops: exec.flops() / best / 1e9,
        mem_requirement: mem,
        eff_bandwidth_gbs: mem as f64 / best / 1e9,
        r_nnze: exec.r_nnze(),
        samples,
    };
    crate::manifest::record_spmv(&m);
    m
}

/// One executor's batched (multi-RHS) measurement.
#[derive(Debug, Clone)]
pub struct SpmmMeasurement {
    pub name: String,
    pub threads: usize,
    /// Batch width (number of right-hand sides).
    pub k: usize,
    /// Minimum per-iteration time in seconds (one full k-wide product).
    pub secs_min: f64,
    /// `F = 2·k·nnz/T` in GFLOP/s.
    pub gflops: f64,
    /// Batched memory requirement `M_Rit(k) = M(A) + k·(M(x)+M(y))`.
    pub mem_requirement: usize,
    /// Achieved effective bandwidth `M_Rit(k)/T` in GB/s.
    pub eff_bandwidth_gbs: f64,
    /// Every timed rep's duration in seconds, in execution order.
    pub samples: Vec<f64>,
}

impl SpmmMeasurement {
    /// Percentile summary of the per-rep samples.
    pub fn latency(&self) -> LatencySummary {
        summarize_samples(&self.samples)
    }

    /// Measured speedup over `k` independent single-RHS products, given
    /// the single-RHS minimum time on the same executor/pool.
    pub fn speedup_vs_singles(&self, single_secs_min: f64) -> f64 {
        if self.secs_min <= 0.0 {
            return 0.0;
        }
        self.k as f64 * single_secs_min / self.secs_min
    }
}

/// Memory-model prediction of the batched speedup: if SpMV is
/// bandwidth-bound, time is proportional to bytes moved, so `k`
/// amortized products against `k` independent ones gain
/// `k·M_Rit(1)/M_Rit(k)` — the matrix term is streamed once instead of
/// `k` times while the vector term still scales with `k`.
pub fn modeled_batch_speedup<T: Scalar>(exec: &dyn SpmvExecutor<T>, k: usize) -> f64 {
    let m1 = exec.memory_requirement_multi(1) as f64;
    let mk = exec.memory_requirement_multi(k) as f64;
    k as f64 * m1 / mk
}

/// Measure an executor's batched product `Y = A·X` over `k` column-major
/// right-hand sides: `warmup` untimed runs, then `iters` timed runs,
/// keeping the minimum (same estimator as [`measure_spmv`]).
pub fn measure_spmm<T: Scalar>(
    exec: &dyn SpmvExecutor<T>,
    x: &[T],
    k: usize,
    y: &mut [T],
    pool: &ThreadPool,
    warmup: usize,
    iters: usize,
) -> SpmmMeasurement {
    measure_batched(
        &exec.name(),
        exec,
        k,
        warmup,
        iters,
        pool.n_threads(),
        || {
            exec.spmv_multi(x, k, y, pool);
            std::hint::black_box(&y[..]);
        },
    )
}

/// Measure any `k`-wide product of `exec`'s matrix (`product` runs one)
/// and record it under `name`: how the transpose `X = Aᵀ·Y` gets its
/// own manifest rows (e.g. `CSCV-Z-T`) next to the forward ones. Flops
/// and `M_Rit(k)` are the forward product's, which the transpose shares.
pub fn measure_batched<T: Scalar>(
    name: &str,
    exec: &dyn SpmvExecutor<T>,
    k: usize,
    warmup: usize,
    iters: usize,
    threads: usize,
    mut product: impl FnMut(),
) -> SpmmMeasurement {
    assert!(iters >= 1);
    for _ in 0..warmup {
        product();
    }
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t0 = Instant::now();
        product();
        samples.push(t0.elapsed().as_secs_f64());
    }
    let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let mem = exec.memory_requirement_multi(k);
    let m = SpmmMeasurement {
        name: name.to_string(),
        threads,
        k,
        secs_min: best,
        gflops: k as f64 * exec.flops() / best / 1e9,
        mem_requirement: mem,
        eff_bandwidth_gbs: mem as f64 / best / 1e9,
        samples,
    };
    crate::manifest::record_spmm(&m);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscv_sparse::formats::CsrSerialExec;
    use cscv_sparse::Coo;

    fn small_exec() -> CsrSerialExec<f64> {
        let mut coo = Coo::new(64, 64);
        for i in 0..64 {
            coo.push(i, i, 1.0);
            coo.push(i, (i + 1) % 64, 0.5);
        }
        CsrSerialExec::new(coo.to_csr())
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timing is meaningless under Miri")]
    fn measurement_is_sane() {
        let exec = small_exec();
        let pool = ThreadPool::new(1);
        let x = vec![1.0; 64];
        let mut y = vec![0.0; 64];
        let m = measure_spmv(&exec, &x, &mut y, &pool, 2, 10);
        assert!(m.secs_min > 0.0 && m.secs_min < 1.0);
        assert!(m.gflops > 0.0);
        assert_eq!(m.threads, 1);
        assert!(m.mem_requirement > 0);
        // The result vector was actually computed.
        assert_eq!(y[0], 1.5);
        // Every timed rep is recorded; the minimum is their minimum.
        assert_eq!(m.samples.len(), 10);
        let min = m.samples.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(min, m.secs_min);
        let lat = m.latency();
        assert!(lat.p50 >= m.secs_min && lat.p50 <= lat.max);
        assert!(lat.p90 >= lat.p50 && lat.p99 >= lat.p90 && lat.max >= lat.p99);
        assert_eq!(lat.max, m.samples.iter().cloned().fold(0.0f64, f64::max));
    }

    #[test]
    fn summarize_samples_small_sets_are_exact() {
        let lat = summarize_samples(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(lat.p50, 2.0);
        assert_eq!(lat.p90, 4.0);
        assert_eq!(lat.p99, 4.0);
        assert_eq!(lat.max, 4.0);
        let empty = summarize_samples(&[]);
        assert_eq!(empty.max, 0.0);
    }

    #[test]
    fn summarize_samples_is_exact_at_any_size() {
        // 1000 samples, shuffled: every percentile is bit for bit the
        // nearest-rank sample of the sorted set, and max is its last.
        let sorted: Vec<f64> = (1..=1000).map(|i| i as f64 * 1e-4).collect();
        let mut shuffled = sorted.clone();
        for i in 0..shuffled.len() {
            shuffled.swap(i, (i * 7919) % 1000);
        }
        let lat = summarize_samples(&shuffled);
        for (got, p) in [(lat.p50, 50.0), (lat.p90, 90.0), (lat.p99, 99.0)] {
            assert_eq!(
                got.to_bits(),
                exact_percentile(&sorted, p).to_bits(),
                "p{p}"
            );
        }
        assert_eq!(lat.p50, 500.0 * 1e-4);
        assert_eq!(lat.max.to_bits(), sorted[999].to_bits());
    }

    #[test]
    fn r_em_ratio() {
        let m = SpmvMeasurement {
            name: "x".into(),
            threads: 1,
            secs_min: 0.5,
            gflops: 1.0,
            mem_requirement: 100,
            eff_bandwidth_gbs: 0.0,
            r_nnze: 0.0,
            samples: vec![0.5],
        };
        // 100 bytes in 0.5 s against a 400 B/s peak = 50% usage.
        assert!((m.r_em(400.0) - 0.5).abs() < 1e-12);
        assert!(!m.cache_resident(400.0));
        assert_eq!(m.r_em(0.0), 0.0);
        assert!(!m.cache_resident(0.0));
        // Against a 100 B/s peak the same run moved 2x the DRAM rate:
        // the matrix came from cache.
        assert!((m.r_em(100.0) - 2.0).abs() < 1e-12);
        assert!(m.cache_resident(100.0));
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timing is meaningless under Miri")]
    fn spmm_measurement_is_sane() {
        let exec = small_exec();
        let pool = ThreadPool::new(1);
        let k = 3;
        let x = vec![1.0; k * 64];
        let mut y = vec![0.0; k * 64];
        let m = measure_spmm(&exec, &x, k, &mut y, &pool, 1, 5);
        assert_eq!(m.k, 3);
        assert!(m.secs_min > 0.0 && m.secs_min < 1.0);
        assert!(m.gflops > 0.0);
        assert_eq!(m.mem_requirement, exec.memory_requirement_multi(k));
        // Every RHS copy was computed.
        for kk in 0..k {
            assert_eq!(y[kk * 64], 1.5);
        }
        // Speedup helper: batch taking the same time as one single run
        // means a k× speedup over k sequential singles.
        assert!((m.speedup_vs_singles(m.secs_min) - k as f64).abs() < 1e-12);
    }

    #[test]
    fn modeled_speedup_grows_with_k_and_stays_below_k() {
        let exec = small_exec();
        let mut prev = 1.0;
        for k in [1usize, 2, 4, 8, 16] {
            let s = modeled_batch_speedup(&exec, k);
            assert!(s >= prev, "monotone in k");
            assert!(s <= k as f64 + 1e-12, "amortization cannot beat k×");
            prev = s;
        }
        assert!((modeled_batch_speedup(&exec, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn env_override_for_iters() {
        // No env set: default comes back.
        std::env::remove_var("CSCV_BENCH_ITERS");
        assert_eq!(bench_iters(7), 7);
    }
}
