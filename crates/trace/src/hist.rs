//! Log-bucketed latency histograms (HDR-histogram flavored, zero-dep).
//!
//! A [`Histogram`] buckets positive samples geometrically:
//! [`SUB_BUCKETS`] sub-buckets per octave (power of two), so every
//! bucket spans a fixed *relative* width of `2^(1/16) − 1 ≈ 4.4 %`.
//! That is the standard trade for latency data — per-rep kernel times
//! and per-iteration solver latencies span four-plus decades between a
//! cache-hot 128² smoke matrix and a paper-scale run, and a relative
//! error bound holds across all of them where linear buckets cannot.
//!
//! Buckets are kept in a `BTreeMap` keyed by sub-bucket index, so the
//! range is unbounded and merging two histograms is index-wise count
//! addition. Exact `min`/`max`/`sum` are tracked on the side; quantile
//! queries answer with the geometric midpoint of the hit bucket,
//! clamped into `[min, max]`, which keeps the relative-error guarantee
//! ([`Histogram::REL_ERROR`]) the unit tests assert against a sorted
//! scalar reference.
//!
//! Always compiled (like [`crate::json`]): histograms summarize
//! *recorded* data at report time, they are not hot-path
//! instrumentation.

use crate::json::Json;
use std::collections::BTreeMap;

/// Sub-buckets per octave (relative bucket width `2^(1/16) − 1`).
pub const SUB_BUCKETS: f64 = 16.0;

/// A mergeable log-bucketed histogram of positive `f64` samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Histogram {
    buckets: BTreeMap<i32, u64>,
    count: u64,
    /// Samples that were not positive finite numbers (dropped).
    rejected: u64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Histogram {
    /// Worst-case relative error of a quantile query: one bucket's
    /// half-width on either side of the geometric midpoint.
    pub const REL_ERROR: f64 = 0.045; // 2^(1/16) − 1 = 0.0443…

    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Build from a slice of samples.
    pub fn from_samples(samples: &[f64]) -> Histogram {
        let mut h = Histogram::new();
        for &s in samples {
            h.record(s);
        }
        h
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "callers pass finite positive v, so log2(v) * 16 lies in [-17184, 16384]"
    )]
    fn index(v: f64) -> i32 {
        // log2 is monotone and exact enough: the bucket edge cases a ULP
        // off only move a sample to an adjacent 4.4%-wide bucket.
        (v.log2() * SUB_BUCKETS).floor() as i32
    }

    /// Geometric midpoint of bucket `idx` — the value reported for any
    /// sample that landed in it.
    fn midpoint(idx: i32) -> f64 {
        ((idx as f64 + 0.5) / SUB_BUCKETS).exp2()
    }

    /// Record one sample. Non-finite or non-positive values are counted
    /// as rejected and otherwise ignored.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() || v <= 0.0 {
            self.rejected += 1;
            return;
        }
        *self.buckets.entry(Self::index(v)).or_insert(0) += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Number of recorded (accepted) samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of rejected (non-positive / non-finite) samples.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Exact minimum recorded sample (`0.0` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded sample (`0.0` when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Exact mean (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile, `p` in percent (`50.0` = median). Answers
    /// the geometric midpoint of the bucket holding the rank, clamped
    /// into `[min, max]`; `0.0` when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the cast saturates and the rank is clamped to count next"
        )]
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        if rank == self.count {
            // The top rank is the exact (tracked) maximum.
            return self.max;
        }
        let mut cum = 0u64;
        for (&idx, &n) in &self.buckets {
            cum += n;
            if cum >= rank {
                return Self::midpoint(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold `other` into `self` (index-wise count addition).
    pub fn merge(&mut self, other: &Histogram) {
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.rejected += other.rejected;
        self.sum += other.sum;
    }

    /// Occupied buckets as `(lower edge, upper edge, count)`, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        self.buckets.iter().map(|(&idx, &n)| {
            (
                (idx as f64 / SUB_BUCKETS).exp2(),
                ((idx + 1) as f64 / SUB_BUCKETS).exp2(),
                n,
            )
        })
    }

    /// Serialize (compact: only occupied buckets).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::from(self.count)),
            ("rejected", Json::from(self.rejected)),
            ("min", Json::Num(self.min())),
            ("max", Json::Num(self.max())),
            ("sum", Json::Num(self.sum)),
            (
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|(&i, &n)| Json::Arr(vec![Json::Num(i as f64), Json::from(n)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse a histogram serialized by [`Histogram::to_json`].
    pub fn from_json(v: &Json) -> Result<Histogram, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("histogram: missing numeric field {k:?}"))
        };
        let count = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("histogram: {k:?} is not a count"))
        };
        let mut buckets = BTreeMap::new();
        for pair in v
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| "histogram: missing buckets array".to_string())?
        {
            let p = pair
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| "histogram: bucket is not a pair".to_string())?;
            let idx = p[0]
                .as_i64()
                .and_then(|i| i32::try_from(i).ok())
                .ok_or_else(|| "histogram: bucket index".to_string())?;
            let n = p[1]
                .as_u64()
                .ok_or_else(|| "histogram: bucket count".to_string())?;
            buckets.insert(idx, n);
        }
        Ok(Histogram {
            buckets,
            count: count("count")?,
            rejected: count("rejected")?,
            min: num("min")?,
            max: num("max")?,
            sum: num("sum")?,
        })
    }
}

/// Nearest-rank percentile of an *exact* sample set — the scalar
/// reference the histogram is tested against, and the summary path for
/// small sample counts (bench reps) where exactness is free.
pub fn exact_percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input sorted");
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the cast saturates and the rank is clamped to the length next"
    )]
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_answers_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50.0), 0.0);
    }

    #[test]
    fn rejects_nonpositive_and_nonfinite() {
        let mut h = Histogram::new();
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            h.record(v);
        }
        assert_eq!(h.count(), 0);
        assert_eq!(h.rejected(), 5);
        h.record(1.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(99.0), 1.0);
    }

    #[test]
    fn percentiles_match_scalar_reference_within_bucket_error() {
        // Deterministic log-uniform-ish samples over ~5 decades.
        let mut state = 0x243f6a8885a308d3u64;
        let mut samples: Vec<f64> = (0..5000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state % 1_000_000) as f64 / 1_000_000.0;
                10f64.powf(-6.0 + 5.0 * u)
            })
            .collect();
        let h = Histogram::from_samples(&samples);
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let exact = exact_percentile(&samples, p);
            let approx = h.percentile(p);
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel <= Histogram::REL_ERROR,
                "p{p}: approx {approx} vs exact {exact} (rel {rel})"
            );
        }
        // Extremes are exact, not bucket midpoints.
        assert_eq!(h.min(), samples[0]);
        assert_eq!(h.max(), *samples.last().unwrap());
        assert_eq!(h.percentile(100.0), h.max());
        let exact_mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((h.mean() - exact_mean).abs() / exact_mean < 1e-12);
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let a: Vec<f64> = (1..200).map(|i| i as f64 * 0.37e-3).collect();
        let b: Vec<f64> = (1..300).map(|i| i as f64 * 1.91e-6).collect();
        let mut ha = Histogram::from_samples(&a);
        let hb = Histogram::from_samples(&b);
        ha.merge(&hb);
        let mut all = a.clone();
        all.extend(&b);
        let href = Histogram::from_samples(&all);
        assert_eq!(ha.count(), href.count());
        assert_eq!(ha.min(), href.min());
        assert_eq!(ha.max(), href.max());
        // Sum differs only by float addition order.
        assert!((ha.mean() - href.mean()).abs() / href.mean() < 1e-12);
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(ha.percentile(p), href.percentile(p), "p{p}");
        }
        assert_eq!(
            ha.buckets().collect::<Vec<_>>(),
            href.buckets().collect::<Vec<_>>()
        );
        assert_eq!(ha.count(), (a.len() + b.len()) as u64);
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let h = Histogram::from_samples(&[1e-6, 3e-4, 3.1e-4, 0.02, 7.0, -1.0]);
        let j = h.to_json();
        let back = Histogram::from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.rejected(), 1);
        for p in [25.0, 50.0, 95.0] {
            assert_eq!(back.percentile(p), h.percentile(p));
        }
        // Malformed inputs are rejected, not panicked on.
        assert!(Histogram::from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(Histogram::from_json(&Json::parse(r#"{"count":1}"#).unwrap()).is_err());
        // Counts and bucket indices are exact integers in range, never
        // silently cast.
        for bad in [
            r#""count":1.5,"buckets":[[0,1]]"#,
            r#""count":1,"buckets":[[0,-1]]"#,
            r#""count":1,"buckets":[[3000000000,1]]"#,
            r#""count":1,"buckets":[[0.5,1]]"#,
        ] {
            let doc = format!(r#"{{"rejected":0,"min":1,"max":1,"sum":1,{bad}}}"#);
            assert!(
                Histogram::from_json(&Json::parse(&doc).unwrap()).is_err(),
                "{doc}"
            );
        }
        let good = r#"{"rejected":0,"min":1,"max":1,"sum":1,"count":1,"buckets":[[0,1]]}"#;
        assert!(Histogram::from_json(&Json::parse(good).unwrap()).is_ok());
    }

    #[test]
    fn bucket_edges_are_geometric_and_cover_samples() {
        let h = Histogram::from_samples(&[1.0, 1.5, 4.0, 1000.0]);
        let mut covered = 0u64;
        for (lo, hi, n) in h.buckets() {
            assert!(lo < hi);
            assert!((hi / lo - (1.0f64 / SUB_BUCKETS).exp2()).abs() < 1e-12);
            covered += n;
        }
        assert_eq!(covered, h.count());
    }

    #[test]
    fn exact_percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(exact_percentile(&v, 0.0), 1.0);
        assert_eq!(exact_percentile(&v, 25.0), 1.0);
        assert_eq!(exact_percentile(&v, 50.0), 2.0);
        assert_eq!(exact_percentile(&v, 75.0), 3.0);
        assert_eq!(exact_percentile(&v, 100.0), 4.0);
        assert_eq!(exact_percentile(&[], 50.0), 0.0);
    }
}
