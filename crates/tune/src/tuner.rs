//! The search loop: fingerprint → cache → sampled grid benchmark.
//!
//! Candidate cost is measured with the paper's §V-C estimator — the
//! *minimum* over repetitions — on the view-sampled sub-matrix, through
//! the [`CandidateBench`] trait. [`WallClockBench`] is the real thing;
//! [`ModelBench`] is a deterministic byte-traffic model used by the
//! determinism tests (wall clocks cannot be asserted equal across
//! runs) and available to callers that want instant, machine-free
//! tuning.
//!
//! The winner is the argmin over a grid that always contains the
//! static heuristic, so within a search the tuned choice is never
//! slower than the heuristic *on the benchmark that selected it*; the
//! xtask `tune` command and the CI smoke job then re-verify that claim
//! on the full matrix with independent measurements.

use crate::cache::{CacheEntry, CacheOutcome, TuneCache, NEAR_THRESHOLD};
use crate::fingerprint::Fingerprint;
use crate::sample::sample_views;
use crate::space::{candidates, Op, TunedConfig};
use cscv_core::layout::ImageShape;
use cscv_core::{CscvExec, CscvMatrix, SinoLayout};
use cscv_simd::{MaskExpand, Scalar};
use cscv_sparse::{Csc, SpmvExecutor, ThreadPool};
use cscv_trace::counters::{add, Counter};
use std::collections::HashMap;
use std::time::Instant;

/// Tuning-run options.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    pub op: Op,
    /// Timed repetitions per candidate (min is kept).
    pub reps: usize,
    /// Untimed warmup runs per candidate.
    pub warmup: usize,
    /// Row-sampling nnz budget for the candidate benchmark.
    pub max_sample_nnz: usize,
    /// Widest pool the search may try (defaults to the machine).
    pub max_threads: usize,
    /// Fingerprint-distance ceiling for near-cache hits; 0 disables
    /// the fallback.
    pub near_threshold: f64,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            op: Op::Spmv,
            reps: 5,
            warmup: 1,
            max_sample_nnz: 200_000,
            max_threads: ThreadPool::max_parallelism(),
            near_threshold: NEAR_THRESHOLD,
        }
    }
}

/// What one [`tune`] call did.
#[derive(Debug, Clone)]
pub struct TuneReport {
    pub fingerprint: Fingerprint,
    pub chosen: TunedConfig,
    pub heuristic: TunedConfig,
    /// Chosen config's benchmark seconds (sampled matrix; 0 when the
    /// answer came from the cache without re-measuring).
    pub tuned_secs: f64,
    /// Heuristic's benchmark seconds on the same sampled matrix.
    pub heuristic_secs: f64,
    pub candidates_tried: usize,
    /// Timed kernel invocations this call performed (0 on a warm hit).
    pub samples_run: usize,
    pub cache: CacheOutcome,
}

/// How candidate configurations get a cost. `secs` returns the
/// min-of-reps cost of running `op` once (a full batch counts as one
/// run); lower is better. Implementations must count each timed kernel
/// invocation in `tune_samples`.
pub trait CandidateBench<T: Scalar + MaskExpand> {
    fn secs(
        &mut self,
        exec: &CscvExec<T>,
        cfg: &TunedConfig,
        op: Op,
        pool: &ThreadPool,
        warmup: usize,
        reps: usize,
    ) -> f64;
}

/// Wall-clock min-of-reps measurement (the real benchmark).
#[derive(Debug, Default)]
pub struct WallClockBench;

impl WallClockBench {
    fn run_once<T: Scalar + MaskExpand>(
        exec: &CscvExec<T>,
        cfg: &TunedConfig,
        op: Op,
        pool: &ThreadPool,
        x: &[T],
        y: &mut [T],
    ) {
        match op {
            Op::Spmv => exec.spmv(x, y, pool),
            Op::SpmvT => exec.spmv_transpose(x, y, pool),
            Op::Spmm { k } => {
                // Drive the batch in k_tile-wide slices — the knob
                // under test.
                let (nc, nr) = (exec.n_cols(), exec.n_rows());
                let tile = cfg.k_tile.clamp(1, k);
                let mut done = 0;
                while done < k {
                    let kk = tile.min(k - done);
                    exec.spmv_multi(
                        &x[done * nc..(done + kk) * nc],
                        kk,
                        &mut y[done * nr..(done + kk) * nr],
                        pool,
                    );
                    done += kk;
                }
            }
        }
    }
}

impl<T: Scalar + MaskExpand> CandidateBench<T> for WallClockBench {
    fn secs(
        &mut self,
        exec: &CscvExec<T>,
        cfg: &TunedConfig,
        op: Op,
        pool: &ThreadPool,
        warmup: usize,
        reps: usize,
    ) -> f64 {
        let (in_len, out_len) = match op {
            Op::Spmv => (exec.n_cols(), exec.n_rows()),
            Op::SpmvT => (exec.n_rows(), exec.n_cols()),
            Op::Spmm { k } => (k * exec.n_cols(), k * exec.n_rows()),
        };
        let x: Vec<T> = (0..in_len)
            .map(|i| T::from_f64(0.5 + (i % 17) as f64 * 0.03125))
            .collect();
        let mut y = vec![T::ZERO; out_len];
        for _ in 0..warmup {
            Self::run_once(exec, cfg, op, pool, &x, &mut y);
        }
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            Self::run_once(exec, cfg, op, pool, &x, &mut y);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(&y[..]);
            best = best.min(dt);
        }
        add(Counter::TuneSamples, reps.max(1) as u64);
        best
    }
}

/// Deterministic byte-traffic cost model: the paper's memory-
/// requirement view of SpMV (`M(A)` once per `k_tile`-chunk plus
/// per-RHS vector traffic), divided by an idealized parallel speedup.
/// Not a performance oracle — a *repeatable* one, so two tune runs with
/// the same inputs provably pick the same winner.
#[derive(Debug, Default)]
pub struct ModelBench;

impl<T: Scalar + MaskExpand> CandidateBench<T> for ModelBench {
    fn secs(
        &mut self,
        exec: &CscvExec<T>,
        cfg: &TunedConfig,
        op: Op,
        _pool: &ThreadPool,
        _warmup: usize,
        reps: usize,
    ) -> f64 {
        add(Counter::TuneSamples, reps.max(1) as u64);
        let k = op.k() as f64;
        let tile = cfg.k_tile.clamp(1, op.k()) as f64;
        let vec_bytes = ((exec.n_rows() + exec.n_cols()) * T::BYTES) as f64;
        let matrix_passes = (k / tile).ceil();
        let bytes = exec.matrix_bytes() as f64 * matrix_passes + vec_bytes * k;
        // Idealized scaling: sqrt keeps wide pools from dominating the
        // model the way they never do on bandwidth-bound kernels.
        let scale = (cfg.threads as f64).sqrt();
        bytes / scale * 1e-9
    }
}

/// Tune one (matrix, operation, scalar) triple against `cache`.
///
/// Warm path: an exact or near cache hit returns immediately with
/// **zero** benchmark samples. Cold path: benchmark the pruned grid on
/// the view-sampled sub-matrix, pick the argmin, store it, and persist
/// the cache.
pub fn tune<T: Scalar + MaskExpand>(
    csc: &Csc<T>,
    layout: SinoLayout,
    img: ImageShape,
    opts: &TuneOptions,
    cache: &mut TuneCache,
    bench: &mut dyn CandidateBench<T>,
) -> Result<TuneReport, String> {
    let _span = cscv_trace::span::enter("tune.search");
    let fp = Fingerprint::compute(csc, layout);
    let heuristic = TunedConfig::heuristic(opts.op, opts.max_threads);

    let (hit, outcome) = cache.lookup(&fp, opts.op, T::NAME, opts.near_threshold);
    if let Some(e) = hit {
        return Ok(TuneReport {
            fingerprint: fp,
            chosen: e.config,
            heuristic,
            tuned_secs: e.tuned_secs,
            heuristic_secs: e.heuristic_secs,
            candidates_tried: 0,
            samples_run: 0,
            cache: outcome,
        });
    }

    let (sub_csc, sub_layout) = sample_views(csc, layout, opts.max_sample_nnz);
    let grid = candidates(opts.op, &fp, opts.max_threads);

    // Candidates share matrix builds: the built format depends only on
    // (variant, params), not on threads/k_tile.
    let mut built: HashMap<(u8, usize, usize, usize), CscvMatrix<T>> = HashMap::new();
    let mut pools: HashMap<usize, ThreadPool> = HashMap::new();
    let mut best: Option<(TunedConfig, f64)> = None;
    let mut heuristic_secs = f64::INFINITY;
    let mut tried = 0usize;
    let mut samples = 0usize;

    for cfg in &grid {
        let key = (
            matches!(cfg.variant, cscv_core::Variant::M) as u8,
            cfg.s_imgb,
            cfg.s_vvec,
            cfg.s_vxg,
        );
        if let std::collections::hash_map::Entry::Vacant(e) = built.entry(key) {
            match cscv_core::try_build(
                &sub_csc,
                sub_layout,
                img,
                cfg.exec_config().params,
                cfg.variant,
            ) {
                Ok(m) => {
                    e.insert(m);
                }
                Err(_) => continue, // invalid for this matrix; prune
            }
        }
        let m = built[&key].clone();
        let exec = CscvExec::new(m);
        let pool = pools
            .entry(cfg.threads)
            .or_insert_with(|| ThreadPool::new(cfg.threads));
        let secs = bench.secs(&exec, cfg, opts.op, pool, opts.warmup, opts.reps);
        add(Counter::TuneCandidates, 1);
        tried += 1;
        samples += opts.reps.max(1);
        if *cfg == heuristic {
            heuristic_secs = secs;
        }
        if best.as_ref().is_none_or(|(_, b)| secs < *b) {
            best = Some((*cfg, secs));
        }
    }

    let (chosen, tuned_secs) =
        best.ok_or_else(|| "no candidate configuration could be built".to_string())?;
    if !heuristic_secs.is_finite() {
        // The heuristic failed to build (e.g. the grid pruned it via a
        // build error); fall back to comparing against the winner.
        heuristic_secs = tuned_secs;
    }

    cache.insert(CacheEntry {
        fp,
        fp_hash: fp.hash(),
        op: opts.op.key(),
        scalar: T::NAME.into(),
        config: chosen,
        tuned_secs,
        heuristic_secs,
    });
    cache.save();
    cscv_harness::manifest::record_tune(
        &opts.op.key(),
        T::NAME,
        &chosen.describe(),
        tuned_secs,
        heuristic_secs,
        tried,
        samples,
    );

    Ok(TuneReport {
        fingerprint: fp,
        chosen,
        heuristic,
        tuned_secs,
        heuristic_secs,
        candidates_tried: tried,
        samples_run: samples,
        cache: outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscv_harness::gen::{generate, CaseDesc};

    fn case(line: &str) -> (Csc<f64>, SinoLayout, ImageShape) {
        let d = CaseDesc::parse(line).unwrap();
        let layout = SinoLayout {
            n_views: d.n_views,
            n_bins: d.n_bins,
        };
        let img = ImageShape { nx: d.nx, ny: d.ny };
        (generate(&d).to_csc(), layout, img)
    }

    const BANDED: &str = "kind=ct-banded views=16 bins=16 nx=8 ny=8 imgb=4 vvec=8 vxg=4 seed=5";

    fn opts() -> TuneOptions {
        TuneOptions {
            reps: 2,
            warmup: 0,
            max_threads: 2,
            ..TuneOptions::default()
        }
    }

    #[test]
    fn cold_search_picks_winner_not_slower_than_heuristic() {
        let (csc, layout, img) = case(BANDED);
        let mut cache = TuneCache::in_memory();
        let r = tune(&csc, layout, img, &opts(), &mut cache, &mut ModelBench).unwrap();
        assert!(r.candidates_tried > 1);
        assert!(r.samples_run > 0);
        assert_eq!(r.cache, CacheOutcome::Miss);
        assert!(
            r.tuned_secs <= r.heuristic_secs,
            "grid contains the heuristic, argmin cannot lose to it"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn warm_hit_runs_zero_samples() {
        let (csc, layout, img) = case(BANDED);
        let mut cache = TuneCache::in_memory();
        let cold = tune(&csc, layout, img, &opts(), &mut cache, &mut ModelBench).unwrap();
        let warm = tune(&csc, layout, img, &opts(), &mut cache, &mut ModelBench).unwrap();
        assert_eq!(warm.cache, CacheOutcome::HitExact);
        assert_eq!(warm.samples_run, 0);
        assert_eq!(warm.candidates_tried, 0);
        assert_eq!(warm.chosen, cold.chosen);
    }

    #[test]
    fn per_op_and_per_scalar_entries_are_distinct() {
        let (csc, layout, img) = case(BANDED);
        let mut cache = TuneCache::in_memory();
        let mut o = opts();
        tune(&csc, layout, img, &o, &mut cache, &mut ModelBench).unwrap();
        o.op = Op::Spmm { k: 4 };
        tune(&csc, layout, img, &o, &mut cache, &mut ModelBench).unwrap();
        o.op = Op::SpmvT;
        tune(&csc, layout, img, &o, &mut cache, &mut ModelBench).unwrap();
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn spmm_search_considers_tile_width() {
        let (csc, layout, img) = case(BANDED);
        let mut cache = TuneCache::in_memory();
        let mut o = opts();
        o.op = Op::Spmm { k: 8 };
        let r = tune(&csc, layout, img, &o, &mut cache, &mut ModelBench).unwrap();
        // The byte model strictly rewards wider tiles (fewer matrix
        // passes), so the winner must use the widest one.
        assert_eq!(r.chosen.k_tile, 8);
    }

    #[test]
    #[cfg_attr(miri, ignore = "wall-clock timing is meaningless under Miri")]
    fn wall_clock_bench_works_end_to_end() {
        let (csc, layout, img) = case(BANDED);
        let mut cache = TuneCache::in_memory();
        let mut o = opts();
        o.max_sample_nnz = 500; // force the sampling path too
        let r = tune(&csc, layout, img, &o, &mut cache, &mut WallClockBench).unwrap();
        assert!(r.tuned_secs > 0.0 && r.tuned_secs.is_finite());
        assert!(r.tuned_secs <= r.heuristic_secs);
    }
}
