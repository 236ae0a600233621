//! The versioned on-disk tuning cache.
//!
//! One JSON document (`{"schema": N, "entries": [...]}`), hand-rolled
//! through `cscv_trace::json` — the workspace's zero-dependency
//! discipline. Entries are keyed by (fingerprint hash, operation,
//! scalar type) and carry the full fingerprint, so lookups can fall
//! back to the *nearest* stored fingerprint under
//! [`Fingerprint::distance`] when no exact hash matches.
//!
//! Stale-selection hazard: a cache written by an older build could
//! silently steer a newer kernel to a wrong (or now-invalid) config.
//! Two guards close it, both tested here:
//!
//! * the whole file is discarded when its `schema` differs from
//!   [`CACHE_SCHEMA`] — bump the constant whenever the meaning of a
//!   stored config changes;
//! * each entry stores its fingerprint's hash next to the fingerprint;
//!   an entry whose stored fields no longer rehash to `fp_hash`
//!   (a corrupted or hand-edited file, or a quantization change) is
//!   dropped at load instead of being applied;
//! * an entry whose integer fields are not exact non-negative integers,
//!   or whose blocking parameters fail [`CscvParams::try_new`], is
//!   dropped too: the hash covers only the fingerprint, so a hand-edited
//!   config would otherwise reach `CscvParams::new` and panic.
//!
//! Lookups tally `tune_cache_hits` / `tune_cache_misses` so the warm
//! path is verifiable from trace counters alone.

use crate::fingerprint::Fingerprint;
use crate::space::{Op, TunedConfig};
use cscv_core::{CscvParams, Variant};
use cscv_trace::counters::{add, Counter};
use cscv_trace::json::Json;
use std::path::{Path, PathBuf};

/// Cache schema version. v1: initial format. v2: the stored config
/// loses its thread-strategy key.
pub const CACHE_SCHEMA: u64 = 2;

/// Default fingerprint-distance threshold for near lookups.
pub const NEAR_THRESHOLD: f64 = 0.25;

/// One persisted tuning decision.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    pub fp: Fingerprint,
    /// `fp.hash()` at write time — revalidated on load.
    pub fp_hash: u64,
    /// Operation key ([`Op::key`]).
    pub op: String,
    /// Scalar type name (`Scalar::NAME`).
    pub scalar: String,
    pub config: TunedConfig,
    /// Sampled-benchmark seconds of the chosen config.
    pub tuned_secs: f64,
    /// Sampled-benchmark seconds of the static heuristic.
    pub heuristic_secs: f64,
}

/// How a lookup was answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheOutcome {
    /// Exact fingerprint-hash match.
    HitExact,
    /// Nearest stored fingerprint within the distance threshold.
    HitNear(f64),
    /// No usable entry; a search (or the heuristic) was needed.
    Miss,
}

/// The in-memory cache, with optional backing file.
#[derive(Debug, Default)]
pub struct TuneCache {
    entries: Vec<CacheEntry>,
    path: Option<PathBuf>,
}

impl TuneCache {
    /// An unbacked cache (never persisted; tests and one-shot runs).
    pub fn in_memory() -> TuneCache {
        TuneCache::default()
    }

    /// Load from `path`. A missing file yields an empty cache bound to
    /// the path; an unparsable file, a schema mismatch, or individual
    /// malformed or hash-mismatched entries are *invalidated* (dropped),
    /// never applied.
    pub fn load(path: &Path) -> TuneCache {
        let mut cache = TuneCache {
            entries: Vec::new(),
            path: Some(path.to_path_buf()),
        };
        let Ok(text) = std::fs::read_to_string(path) else {
            return cache;
        };
        let Ok(doc) = Json::parse(&text) else {
            return cache;
        };
        if doc.get("schema").and_then(Json::as_f64) != Some(CACHE_SCHEMA as f64) {
            return cache;
        }
        let Some(entries) = doc.get("entries").and_then(Json::as_arr) else {
            return cache;
        };
        for e in entries {
            if let Some(entry) = entry_from_json(e) {
                // The stale-selection guard: stored hash must match a
                // fresh rehash of the stored fingerprint.
                if entry.fp.hash() == entry.fp_hash {
                    cache.entries.push(entry);
                }
            }
        }
        cache
    }

    /// Persist to the backing file (no-op for in-memory caches).
    /// Best-effort like the manifest writers: tuning never fails
    /// because the cache directory is read-only.
    pub fn save(&self) {
        let Some(path) = &self.path else { return };
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let doc = Json::obj(vec![
            ("schema", Json::Num(CACHE_SCHEMA as f64)),
            (
                "entries",
                Json::Arr(self.entries.iter().map(entry_to_json).collect()),
            ),
        ]);
        let _ = std::fs::write(path, doc.to_string() + "\n");
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[CacheEntry] {
        &self.entries
    }

    /// Insert (or replace, keyed by `(fp_hash, op, scalar)`) an entry.
    pub fn insert(&mut self, entry: CacheEntry) {
        self.entries
            .retain(|e| (e.fp_hash, &e.op, &e.scalar) != (entry.fp_hash, &entry.op, &entry.scalar));
        self.entries.push(entry);
    }

    /// Look up a config: exact fingerprint hash first, then the nearest
    /// stored fingerprint for the same (op, scalar) within
    /// `near_threshold`. Counts `tune_cache_hits` / `tune_cache_misses`.
    pub fn lookup(
        &self,
        fp: &Fingerprint,
        op: Op,
        scalar: &str,
        near_threshold: f64,
    ) -> (Option<&CacheEntry>, CacheOutcome) {
        let key = op.key();
        let hash = fp.hash();
        if let Some(e) = self
            .entries
            .iter()
            .find(|e| e.fp_hash == hash && e.op == key && e.scalar == scalar)
        {
            add(Counter::TuneCacheHits, 1);
            return (Some(e), CacheOutcome::HitExact);
        }
        let near = self
            .entries
            .iter()
            .filter(|e| e.op == key && e.scalar == scalar)
            .map(|e| (e, fp.distance(&e.fp)))
            .filter(|(_, d)| *d <= near_threshold)
            .min_by(|a, b| a.1.total_cmp(&b.1));
        match near {
            Some((e, d)) => {
                add(Counter::TuneCacheHits, 1);
                (Some(e), CacheOutcome::HitNear(d))
            }
            None => {
                add(Counter::TuneCacheMisses, 1);
                (None, CacheOutcome::Miss)
            }
        }
    }
}

fn variant_key(v: Variant) -> &'static str {
    match v {
        Variant::Z => "Z",
        Variant::M => "M",
    }
}

fn entry_to_json(e: &CacheEntry) -> Json {
    let fp = &e.fp;
    Json::obj(vec![
        // Hex string, not a JSON number: a u64 hash does not fit f64's
        // 53-bit mantissa, and a rounded hash would fail revalidation.
        ("fp_hash", Json::Str(format!("{:016x}", e.fp_hash))),
        ("op", Json::Str(e.op.clone())),
        ("scalar", Json::Str(e.scalar.clone())),
        (
            "fp",
            Json::obj(vec![
                ("n_rows", Json::Num(fp.n_rows as f64)),
                ("n_cols", Json::Num(fp.n_cols as f64)),
                ("n_views", Json::Num(fp.n_views as f64)),
                ("n_bins", Json::Num(fp.n_bins as f64)),
                ("nnz", Json::Num(fp.nnz as f64)),
                ("density", Json::Num(fp.density)),
                ("col_cv", Json::Num(fp.col_cv)),
                ("row_cv", Json::Num(fp.row_cv)),
                ("empty_col_frac", Json::Num(fp.empty_col_frac)),
                ("band_frac", Json::Num(fp.band_frac)),
            ]),
        ),
        (
            "config",
            Json::obj(vec![
                ("variant", Json::Str(variant_key(e.config.variant).into())),
                ("s_imgb", Json::Num(e.config.s_imgb as f64)),
                ("s_vvec", Json::Num(e.config.s_vvec as f64)),
                ("s_vxg", Json::Num(e.config.s_vxg as f64)),
                ("threads", Json::Num(e.config.threads as f64)),
                ("k_tile", Json::Num(e.config.k_tile as f64)),
            ]),
        ),
        ("tuned_secs", Json::Num(e.tuned_secs)),
        ("heuristic_secs", Json::Num(e.heuristic_secs)),
    ])
}

/// Field `k` of `o` as an exact non-negative integer; `None` for a
/// fractional, negative, non-finite or absent value.
fn usize_of(o: &Json, k: &str) -> Option<usize> {
    let f = o.get(k).and_then(Json::as_f64)?;
    // 2^53: the largest range in which f64 holds every integer exactly.
    if !(0.0..=9_007_199_254_740_992.0).contains(&f) || f.fract() != 0.0 {
        return None;
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "checked above: an exact integer in [0, 2^53] converts losslessly"
    )]
    let n = f as u64;
    usize::try_from(n).ok()
}

fn entry_from_json(j: &Json) -> Option<CacheEntry> {
    let num = |o: &Json, k: &str| o.get(k).and_then(Json::as_f64);
    let fp = j.get("fp")?;
    let cfg = j.get("config")?;
    let params = CscvParams::try_new(
        usize_of(cfg, "s_imgb")?,
        usize_of(cfg, "s_vvec")?,
        usize_of(cfg, "s_vxg")?,
    )
    .ok()?;
    Some(CacheEntry {
        fp: Fingerprint {
            n_rows: usize_of(fp, "n_rows")?,
            n_cols: usize_of(fp, "n_cols")?,
            n_views: usize_of(fp, "n_views")?,
            n_bins: usize_of(fp, "n_bins")?,
            nnz: usize_of(fp, "nnz")?,
            density: num(fp, "density")?,
            col_cv: num(fp, "col_cv")?,
            row_cv: num(fp, "row_cv")?,
            empty_col_frac: num(fp, "empty_col_frac")?,
            band_frac: num(fp, "band_frac")?,
        },
        fp_hash: u64::from_str_radix(j.get("fp_hash")?.as_str()?, 16).ok()?,
        op: j.get("op")?.as_str()?.to_string(),
        scalar: j.get("scalar")?.as_str()?.to_string(),
        config: TunedConfig {
            variant: match cfg.get("variant")?.as_str()? {
                "Z" => Variant::Z,
                "M" => Variant::M,
                _ => return None,
            },
            s_imgb: params.s_imgb,
            s_vvec: params.s_vvec,
            s_vxg: params.s_vxg,
            threads: usize_of(cfg, "threads")?.max(1),
            k_tile: usize_of(cfg, "k_tile")?.max(1),
        },
        tuned_secs: num(j, "tuned_secs")?,
        heuristic_secs: num(j, "heuristic_secs")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(nnz: usize, band: f64) -> Fingerprint {
        Fingerprint {
            n_rows: 480,
            n_cols: 144,
            n_views: 24,
            n_bins: 20,
            nnz,
            density: 0.1,
            col_cv: 0.2,
            row_cv: 0.3,
            empty_col_frac: 0.0,
            band_frac: band,
        }
    }

    fn entry(nnz: usize, band: f64, op: &str, scalar: &str) -> CacheEntry {
        let f = fp(nnz, band);
        CacheEntry {
            fp: f,
            fp_hash: f.hash(),
            op: op.into(),
            scalar: scalar.into(),
            config: TunedConfig::heuristic(Op::Spmv, 4),
            tuned_secs: 1e-4,
            heuristic_secs: 2e-4,
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("cscv-tune-cache-{}-{name}", std::process::id()))
    }

    #[test]
    fn round_trips_through_disk() {
        let path = tmp("roundtrip.json");
        let mut c = TuneCache::load(&path);
        assert!(c.is_empty());
        c.insert(entry(5000, 0.1, "spmv", "f64"));
        c.insert(entry(7000, 0.5, "spmm4", "f32"));
        c.save();
        let back = TuneCache::load(&path);
        assert_eq!(back.entries(), c.entries());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn lookup_exact_near_and_miss() {
        let mut c = TuneCache::in_memory();
        c.insert(entry(5000, 0.10, "spmv", "f64"));
        let (hit, outcome) = c.lookup(&fp(5000, 0.10), Op::Spmv, "f64", NEAR_THRESHOLD);
        assert!(hit.is_some());
        assert_eq!(outcome, CacheOutcome::HitExact);
        // Slightly different nnz: no hash match, but structurally near.
        let (hit, outcome) = c.lookup(&fp(5100, 0.11), Op::Spmv, "f64", NEAR_THRESHOLD);
        assert!(hit.is_some());
        assert!(matches!(outcome, CacheOutcome::HitNear(d) if d > 0.0 && d <= NEAR_THRESHOLD));
        // Different op / scalar / far structure: all misses.
        for (f, op, sc) in [
            (fp(5000, 0.10), Op::SpmvT, "f64"),
            (fp(5000, 0.10), Op::Spmv, "f32"),
            (fp(5000, 0.95), Op::Spmv, "f64"),
        ] {
            let (hit, outcome) = c.lookup(&f, op, sc, NEAR_THRESHOLD);
            assert!(hit.is_none());
            assert_eq!(outcome, CacheOutcome::Miss);
        }
    }

    #[test]
    fn insert_replaces_same_key() {
        let mut c = TuneCache::in_memory();
        c.insert(entry(5000, 0.1, "spmv", "f64"));
        let mut e2 = entry(5000, 0.1, "spmv", "f64");
        e2.tuned_secs = 9.0;
        c.insert(e2);
        assert_eq!(c.len(), 1);
        assert_eq!(c.entries()[0].tuned_secs, 9.0);
    }

    #[test]
    fn schema_mismatch_invalidates_whole_file() {
        let path = tmp("schema.json");
        let mut c = TuneCache {
            entries: vec![entry(5000, 0.1, "spmv", "f64")],
            path: Some(path.clone()),
        };
        c.save();
        // Rewrite with a bumped schema number, entries untouched.
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap();
        let entries = doc.get("entries").unwrap().clone();
        let bumped = Json::obj(vec![
            ("schema", Json::Num((CACHE_SCHEMA + 1) as f64)),
            ("entries", entries),
        ]);
        std::fs::write(&path, bumped.to_string()).unwrap();
        let back = TuneCache::load(&path);
        assert!(back.is_empty(), "future-schema cache must be invalidated");
        // The path stays bound: saving writes the current schema again.
        c.entries.clear();
        c.save();
        assert!(TuneCache::load(&path).is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hash_mismatch_invalidates_entry_not_file() {
        let path = tmp("hash.json");
        let good = entry(5000, 0.1, "spmv", "f64");
        let mut bad = entry(7000, 0.2, "spmm2", "f64");
        bad.fp_hash ^= 0xDEAD; // simulate a stale/corrupted entry
        let c = TuneCache {
            entries: vec![good.clone(), bad],
            path: Some(path.clone()),
        };
        c.save();
        let back = TuneCache::load(&path);
        assert_eq!(back.entries(), &[good], "only the valid entry survives");
        let _ = std::fs::remove_file(&path);
    }

    /// Rewrite one `"key":old` occurrence of a saved cache file.
    fn hand_edit(path: &Path, from: &str, to: &str) {
        let text = std::fs::read_to_string(path).unwrap();
        assert!(text.contains(from), "{from} not in {text}");
        std::fs::write(path, text.replacen(from, to, 1)).unwrap();
    }

    #[test]
    fn malformed_config_fields_invalidate_entry() {
        let path = tmp("malformed.json");
        let mut e = entry(5000, 0.1, "spmv", "f64");
        e.config.threads = 3;
        let s_vvec = format!("\"s_vvec\":{}", e.config.s_vvec);
        for (from, to) in [
            (s_vvec.as_str(), "\"s_vvec\":8.5"),
            ("\"threads\":3", "\"threads\":-3"),
            ("\"threads\":3", "\"threads\":1e300"),
        ] {
            let c = TuneCache {
                entries: vec![e.clone()],
                path: Some(path.clone()),
            };
            c.save();
            assert_eq!(TuneCache::load(&path).entries(), &[e.clone()]);
            hand_edit(&path, from, to);
            assert!(TuneCache::load(&path).is_empty(), "{to} must be dropped");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_files_yield_empty_cache() {
        let path = tmp("garbage.json");
        std::fs::write(&path, "not json {{{").unwrap();
        assert!(TuneCache::load(&path).is_empty());
        std::fs::write(&path, "{\"schema\":1}").unwrap();
        assert!(TuneCache::load(&path).is_empty());
        let _ = std::fs::remove_file(&path);
    }
}
