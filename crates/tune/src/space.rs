//! The candidate configuration space and its pruning rules.
//!
//! A [`TunedConfig`] is everything the tuner may vary: variant,
//! blocking parameters, thread count, and the multi-RHS tile width.
//! [`candidates`] enumerates a *pruned* grid — small enough that a search
//! costs a handful of sampled SpMVs, guided by the fingerprint:
//!
//! * `S_ImgB` / `S_VVec` stay at the paper's per-variant recommended
//!   values (Table III): they trade against cache geometry, which the
//!   fingerprint cannot see, and the first-order knobs are the others;
//! * `S_VxG` sweeps {2, 4, 8, 16} (∩ `MAX_VXG`), but unstructured
//!   matrices (`band_frac > 0.25`) skip 16 — wide VxGs only pay off
//!   when P1/P2 hold and padding stays low;
//! * thread counts try {1, max/2, max} rather than every count — the
//!   scaling curve is monotone in between for these kernels;
//! * the multi-RHS tile width sweeps {1, 2, 4, 8} ∩ [1, k] for
//!   [`Op::Spmm`], and is fixed at 1 otherwise.
//!
//! The static heuristic ([`TunedConfig::heuristic`]) is always a grid
//! member, so the selected winner can never be slower than it on the
//! benchmark that selected it.

use crate::fingerprint::Fingerprint;
use cscv_core::kernels::MAX_VXG;
use cscv_core::{CscvParams, ExecConfig, Variant};

/// The operation being tuned for. Winners are cached per operation:
/// the best single-RHS config is routinely the wrong batched config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Single right-hand side `y = A x`.
    Spmv,
    /// Batched `Y = A X` with `k` right-hand sides.
    Spmm { k: usize },
    /// Transpose product `x = Aᵀ y`.
    SpmvT,
}

impl Op {
    /// Stable cache-key form: `spmv`, `spmm8`, `spmv-t`.
    pub fn key(&self) -> String {
        match self {
            Op::Spmv => "spmv".into(),
            Op::Spmm { k } => format!("spmm{k}"),
            Op::SpmvT => "spmv-t".into(),
        }
    }

    /// Parse the [`key`](Self::key) form.
    pub fn from_key(s: &str) -> Option<Op> {
        match s {
            "spmv" => Some(Op::Spmv),
            "spmv-t" => Some(Op::SpmvT),
            _ => s
                .strip_prefix("spmm")
                .and_then(|k| k.parse().ok())
                .filter(|&k| k > 0)
                .map(|k| Op::Spmm { k }),
        }
    }

    /// Batch width of the operation (1 for the single-RHS ops).
    pub fn k(&self) -> usize {
        match self {
            Op::Spmm { k } => *k,
            _ => 1,
        }
    }
}

/// One point of the configuration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunedConfig {
    pub variant: Variant,
    pub s_imgb: usize,
    pub s_vvec: usize,
    pub s_vxg: usize,
    /// Pool width the config was selected for.
    pub threads: usize,
    /// Multi-RHS tile width: [`Op::Spmm`] workloads are driven in
    /// slices of this many right-hand sides (1 = unbatched).
    pub k_tile: usize,
}

impl TunedConfig {
    /// The executor-construction view of this config.
    pub fn exec_config(&self) -> ExecConfig {
        ExecConfig {
            variant: self.variant,
            params: CscvParams::new(self.s_imgb, self.s_vvec, self.s_vxg),
        }
    }

    /// Today's static heuristic as a grid point: the paper's CSCV-Z
    /// defaults, all threads, and the widest supported tile for batched
    /// workloads.
    pub fn heuristic(op: Op, max_threads: usize) -> TunedConfig {
        let ec = ExecConfig::heuristic(Variant::Z);
        TunedConfig {
            variant: ec.variant,
            s_imgb: ec.params.s_imgb,
            s_vvec: ec.params.s_vvec,
            s_vxg: ec.params.s_vxg,
            threads: max_threads.max(1),
            k_tile: op.k().min(8),
        }
    }

    /// Compact human-readable form for tables and reports.
    pub fn describe(&self) -> String {
        format!(
            "{:?} vxg={} t={} k={}",
            self.variant, self.s_vxg, self.threads, self.k_tile
        )
    }
}

/// Enumerate the pruned candidate grid for one (matrix, operation)
/// pair. The heuristic is always element 0.
pub fn candidates(op: Op, fp: &Fingerprint, max_threads: usize) -> Vec<TunedConfig> {
    let max_threads = max_threads.max(1);
    let mut thread_counts = vec![1, max_threads / 2, max_threads];
    thread_counts.retain(|&t| t >= 1);
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let mut vxgs: Vec<usize> = [2usize, 4, 8, 16]
        .into_iter()
        .filter(|&v| v <= MAX_VXG)
        .filter(|&v| v <= 8 || fp.band_frac <= 0.25)
        .collect();
    for variant in [Variant::Z, Variant::M] {
        let h = ExecConfig::heuristic(variant).params.s_vxg;
        if !vxgs.contains(&h) {
            vxgs.push(h);
        }
    }
    vxgs.sort_unstable();

    let k_tiles: Vec<usize> = match op {
        Op::Spmm { k } => {
            let mut ks: Vec<usize> = [1usize, 2, 4, 8].into_iter().filter(|&t| t <= k).collect();
            if ks.is_empty() {
                ks.push(1);
            }
            ks
        }
        _ => vec![1],
    };

    let mut out = vec![TunedConfig::heuristic(op, max_threads)];
    for variant in [Variant::Z, Variant::M] {
        let base = ExecConfig::heuristic(variant).params;
        for &s_vxg in &vxgs {
            for &threads in &thread_counts {
                for &k_tile in &k_tiles {
                    let cand = TunedConfig {
                        variant,
                        s_imgb: base.s_imgb,
                        s_vvec: base.s_vvec,
                        s_vxg,
                        threads,
                        k_tile,
                    };
                    if !out.contains(&cand) {
                        out.push(cand);
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(band_frac: f64) -> Fingerprint {
        Fingerprint {
            n_rows: 1000,
            n_cols: 400,
            n_views: 50,
            n_bins: 20,
            nnz: 8000,
            density: 0.02,
            col_cv: 0.1,
            row_cv: 0.2,
            empty_col_frac: 0.0,
            band_frac,
        }
    }

    #[test]
    fn op_keys_round_trip() {
        for op in [Op::Spmv, Op::Spmm { k: 8 }, Op::Spmm { k: 3 }, Op::SpmvT] {
            assert_eq!(Op::from_key(&op.key()), Some(op));
        }
        assert_eq!(Op::from_key("spmm0"), None);
        assert_eq!(Op::from_key("nope"), None);
        assert_eq!(Op::from_key("spmmx"), None);
    }

    #[test]
    fn heuristic_is_always_first_candidate() {
        for op in [Op::Spmv, Op::Spmm { k: 4 }, Op::SpmvT] {
            let grid = candidates(op, &fp(0.1), 8);
            assert_eq!(grid[0], TunedConfig::heuristic(op, 8));
        }
    }

    #[test]
    fn banded_pruning_drops_wide_vxg_for_unstructured() {
        let structured = candidates(Op::Spmv, &fp(0.05), 4);
        let unstructured = candidates(Op::Spmv, &fp(0.8), 4);
        assert!(structured.iter().any(|c| c.s_vxg == 16));
        assert!(unstructured.iter().all(|c| c.s_vxg <= 16));
        // The heuristic (element 0) survives regardless; the *swept*
        // wide point does not.
        assert!(
            !unstructured[1..].iter().any(|c| c.s_vxg == 16),
            "unstructured grid must not sweep vxg=16"
        );
        assert!(unstructured.len() < structured.len());
    }

    #[test]
    fn k_tiles_respect_batch_width() {
        let grid = candidates(Op::Spmm { k: 3 }, &fp(0.1), 2);
        assert!(grid.iter().all(|c| c.k_tile <= 3 && c.k_tile >= 1));
        assert!(grid.iter().any(|c| c.k_tile == 2));
        let grid = candidates(Op::Spmv, &fp(0.1), 2);
        assert!(grid.iter().all(|c| c.k_tile == 1));
    }

    #[test]
    fn grid_stays_small_and_duplicate_free() {
        for op in [Op::Spmv, Op::Spmm { k: 8 }, Op::SpmvT] {
            let grid = candidates(op, &fp(0.1), 16);
            assert!(grid.len() <= 96, "{op:?}: {} candidates", grid.len());
            for (i, a) in grid.iter().enumerate() {
                assert!(!grid[i + 1..].contains(a), "duplicate {a:?}");
            }
        }
    }
}
