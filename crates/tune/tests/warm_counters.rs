//! Trace-counter evidence for the warm-path acceptance criterion: a
//! second tune run over the same matrix performs **zero** benchmark
//! samples, verified from the `tune_*` counters themselves (the same
//! evidence the CI smoke job collects).
//!
//! This is deliberately the only test in this binary: counters are
//! process-global, so exact-delta assertions are only sound when no
//! other test is tuning concurrently. The assertions are live under
//! `--features trace` and vacuous otherwise (the counters compile to
//! no-ops).

use cscv_core::layout::ImageShape;
use cscv_core::SinoLayout;
use cscv_harness::gen::{generate, CaseDesc};
use cscv_trace::counters::{self, Counter};
use cscv_tune::{tune, CacheOutcome, ModelBench, TuneCache, TuneOptions};

#[test]
fn warm_cache_adds_zero_tune_sample_counters() {
    let d = CaseDesc::parse(
        "kind=ct-banded views=20 bins=16 nx=10 ny=10 imgb=4 vvec=8 vxg=4 seed=1234",
    )
    .unwrap();
    let layout = SinoLayout {
        n_views: d.n_views,
        n_bins: d.n_bins,
    };
    let img = ImageShape { nx: d.nx, ny: d.ny };
    let csc = generate(&d).to_csc();
    let opts = TuneOptions {
        reps: 2,
        warmup: 0,
        max_threads: 4,
        ..TuneOptions::default()
    };
    let mut cache = TuneCache::in_memory();

    let before = counters::totals();
    let cold = tune(&csc, layout, img, &opts, &mut cache, &mut ModelBench).unwrap();
    let cold_delta = counters::totals().since(&before);
    assert_eq!(cold.cache, CacheOutcome::Miss);
    if cscv_trace::ENABLED {
        assert_eq!(
            cold_delta.get(Counter::TuneCandidates),
            cold.candidates_tried as u64
        );
        assert_eq!(
            cold_delta.get(Counter::TuneSamples),
            cold.samples_run as u64
        );
        assert_eq!(cold_delta.get(Counter::TuneCacheMisses), 1);
        assert_eq!(cold_delta.get(Counter::TuneCacheHits), 0);
    }

    let before = counters::totals();
    let warm = tune(&csc, layout, img, &opts, &mut cache, &mut ModelBench).unwrap();
    let warm_delta = counters::totals().since(&before);
    assert_eq!(warm.cache, CacheOutcome::HitExact);
    assert_eq!(warm.chosen, cold.chosen);
    if cscv_trace::ENABLED {
        assert_eq!(
            warm_delta.get(Counter::TuneSamples),
            0,
            "a warm-cache tune run must add zero tune_samples"
        );
        assert_eq!(warm_delta.get(Counter::TuneCandidates), 0);
        assert_eq!(warm_delta.get(Counter::TuneCacheHits), 1);
        assert_eq!(warm_delta.get(Counter::TuneCacheMisses), 0);
    }
}
