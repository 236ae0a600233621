//! Structure-aware differential fuzzing of the sparse-format stack.
//!
//! Each case is a [`CaseDesc`]: a generator kind (randomized CT-like
//! geometry or a degenerate family — empty columns, a single row,
//! maximum curve-offset skew, tall-skinny, oversized-dimension
//! rejection), the geometry dimensions, the CSCV blocking parameters,
//! and a PRNG seed. A case is fully deterministic: the same descriptor
//! always builds the same matrix, which is what makes shrinking and
//! the committed regression corpus possible with zero dependencies.
//!
//! For every case the harness:
//!
//! 1. round-trips COO → CSR → CSC → COO and transposes, running the
//!    [`cscv_sparse::invariants`] validators after every conversion and
//!    comparing densifications exactly (conversions permute, they never
//!    re-associate arithmetic);
//! 2. builds CSCV-Z and CSCV-M via [`cscv_core::try_build`] and runs
//!    the full invariant catalog ([`CscvMatrix::validate_full`]);
//! 3. differentially checks every executor — CSR (serial + parallel),
//!    CSC (serial + parallel), CSCV-Z/M under both parallel strategies,
//!    through `spmv`, `spmv_multi` and the transpose paths — against
//!    the dense reference within accumulation-order tolerance.
//!
//! A failing case is shrunk by greedy per-dimension halving until no
//! single reduction reproduces the failure, then reported as (and
//! optionally dumped to) a replayable `.case` line. Committed
//! reproducers live in `crates/xtask/fuzz_corpus/` and are replayed by
//! `tests/fuzz_corpus.rs` and every `fuzz --corpus` run.

use cscv_core::layout::ImageShape;
use cscv_core::{try_build, CscvExec, CscvMatrix, CscvParams, SinoLayout, Variant};
// The descriptor/generator layer lives in `cscv_harness::gen`, where
// integration tests reach it too; re-exported here to keep `.case`
// tooling paths stable.
pub use cscv_harness::gen::{generate, random_desc, CaseDesc, GenKind};
use cscv_simd::rng::XorShift64;
use cscv_sparse::formats::csc_exec::{CscParallelExec, CscSerialExec};
use cscv_sparse::formats::csr_exec::{CsrExec, CsrSerialExec};
use cscv_sparse::invariants::{validate_csc, validate_csr};
use cscv_sparse::{Coo, Csc, SpmvExecutor, ThreadPool};
use std::path::PathBuf;

/// What one fuzzing session runs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Random cases to generate.
    pub iters: u64,
    /// Session seed; case seeds derive from it.
    pub seed: u64,
    /// `.case` file or directory of `.case` files to replay first;
    /// shrunk failures are dumped here when set.
    pub corpus: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 200,
            seed: 0x0C5C_F00D,
            corpus: None,
        }
    }
}

/// One reproducible failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Shrunk (minimal) descriptor that still reproduces.
    pub desc: CaseDesc,
    /// Original (pre-shrink) descriptor.
    pub original: CaseDesc,
    pub detail: String,
}

/// Session result.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub random_cases: u64,
    pub corpus_cases: usize,
    pub session_seed: u64,
    pub failures: Vec<Failure>,
    /// Files written for shrunk reproducers (corpus dir configured).
    pub dumped: Vec<PathBuf>,
}

impl Outcome {
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.failures.is_empty() {
            out.push_str(&format!(
                "cscv-xtask fuzz: OK — {} random case(s) (seed {}) + {} corpus case(s), 0 failures\n",
                self.random_cases, self.session_seed, self.corpus_cases
            ));
            return out;
        }
        for f in &self.failures {
            out.push_str(&format!(
                "FAIL {}\n     {}\n     shrunk from: {}\n",
                f.desc.serialize(),
                f.detail,
                f.original.serialize()
            ));
        }
        for p in &self.dumped {
            out.push_str(&format!("wrote reproducer {}\n", p.display()));
        }
        out.push_str(&format!(
            "cscv-xtask fuzz: FAIL — {} random case(s) (seed {}) + {} corpus case(s), {} failure(s)\n",
            self.random_cases, self.session_seed, self.corpus_cases,
            self.failures.len()
        ));
        out
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

fn compare(tag: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{tag}: length mismatch {} vs {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        if !close(g, w) {
            return Err(format!("{tag}: element {i} differs: got {g}, want {w}"));
        }
    }
    Ok(())
}

/// Dense reference `y = A x` straight off the triplets.
fn dense_spmv(coo: &Coo<f64>, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; coo.n_rows()];
    coo.spmv_reference(x, &mut y);
    y
}

fn dense_transpose_spmv(coo: &Coo<f64>, y: &[f64]) -> Vec<f64> {
    let mut x = vec![0.0; coo.n_cols()];
    for &(r, c, v) in coo.entries() {
        x[c as usize] += v * y[r as usize];
    }
    x
}

fn violations_err(tag: &str, v: Vec<impl std::fmt::Display>) -> Result<(), String> {
    if v.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{tag}: {}",
            v.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        ))
    }
}

/// Run one case end to end. `Err` carries the first divergence.
pub fn run_case(desc: &CaseDesc) -> Result<(), String> {
    if desc.kind == GenKind::OversizeReject {
        return run_oversize_reject();
    }
    let coo = generate(desc);
    let layout = SinoLayout {
        n_views: desc.n_views,
        n_bins: desc.n_bins,
    };
    let img = ImageShape {
        nx: desc.nx,
        ny: desc.ny,
    };

    // --- format round-trips with invariant validation ------------------
    let csr = coo.to_csr();
    violations_err("Coo::to_csr", validate_csr(&csr))?;
    let csc = coo.to_csc();
    violations_err("Coo::to_csc", validate_csc(&csc))?;
    let csr_via_csc = csc.to_csr();
    violations_err("Csc::to_csr", validate_csr(&csr_via_csc))?;
    let dense = coo.to_dense();
    compare("csr round-trip dense", &csr.to_coo().to_dense(), &dense)?;
    compare(
        "csc round-trip dense",
        &csr_via_csc.to_coo().to_dense(),
        &dense,
    )?;
    let csr_t = csr.transpose();
    violations_err("Csr::transpose", validate_csr(&csr_t))?;
    let mut dense_t = vec![0.0; dense.len()];
    for r in 0..coo.n_rows() {
        for c in 0..coo.n_cols() {
            dense_t[c * coo.n_rows() + r] = dense[r * coo.n_cols() + c];
        }
    }
    compare("transpose dense", &csr_t.to_coo().to_dense(), &dense_t)?;

    // --- differential executor checks ----------------------------------
    let mut rng = XorShift64::new(desc.seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let x: Vec<f64> = (0..coo.n_cols())
        .map(|_| rng.range_f64(-1.0, 1.0))
        .collect();
    let y_ref = dense_spmv(&coo, &x);
    let pool = ThreadPool::new(2);
    let mut y = vec![0.0; coo.n_rows()];

    let execs: Vec<Box<dyn SpmvExecutor<f64>>> = vec![
        Box::new(CsrSerialExec::new(coo.to_csr())),
        Box::new(CsrExec::new(coo.to_csr())),
        Box::new(CscSerialExec::new(coo.to_csc())),
        Box::new(CscParallelExec::new(coo.to_csc())),
    ];
    for e in &execs {
        y.iter_mut().for_each(|v| *v = 0.0);
        e.spmv(&x, &mut y, &pool);
        compare(&format!("{} spmv", e.name()), &y, &y_ref)?;
    }

    // Batched path (k = 3) against per-RHS dense references.
    let k = 3usize;
    let xs: Vec<f64> = (0..k * coo.n_cols())
        .map(|_| rng.range_f64(-1.0, 1.0))
        .collect();
    let mut ys = vec![0.0; k * coo.n_rows()];
    for e in &execs {
        ys.iter_mut().for_each(|v| *v = 0.0);
        e.spmv_multi(&xs, k, &mut ys, &pool);
        for i in 0..k {
            let want = dense_spmv(&coo, &xs[i * coo.n_cols()..(i + 1) * coo.n_cols()]);
            compare(
                &format!("{} spmv_multi rhs {i}", e.name()),
                &ys[i * coo.n_rows()..(i + 1) * coo.n_rows()],
                &want,
            )?;
        }
    }

    // --- CSCV: build, validate the catalog, differential paths ---------
    let s_vxg = desc.s_vxg.min(cscv_core::kernels::MAX_VXG);
    let params = CscvParams::new(desc.s_imgb, desc.s_vvec, s_vxg);
    for variant in [Variant::Z, Variant::M] {
        let m: CscvMatrix<f64> = try_build(&csc, layout, img, params, variant)
            .map_err(|e| format!("{variant} try_build: {e}"))?;
        if let Err(v) = m.validate_full() {
            return violations_err(&format!("{variant} validate_full"), v);
        }
        let exec = CscvExec::new(m);
        y.iter_mut().for_each(|v| *v = 0.0);
        exec.spmv(&x, &mut y, &pool);
        compare(&format!("{variant} spmv"), &y, &y_ref)?;

        ys.iter_mut().for_each(|v| *v = 0.0);
        exec.spmv_multi(&xs, k, &mut ys, &pool);
        for i in 0..k {
            let want = dense_spmv(&coo, &xs[i * coo.n_cols()..(i + 1) * coo.n_cols()]);
            compare(
                &format!("{variant} spmv_multi rhs {i}"),
                &ys[i * coo.n_rows()..(i + 1) * coo.n_rows()],
                &want,
            )?;
        }

        let yt: Vec<f64> = (0..coo.n_rows())
            .map(|_| rng.range_f64(-1.0, 1.0))
            .collect();
        let mut xt = vec![0.0; coo.n_cols()];
        exec.spmv_transpose(&yt, &mut xt, &pool);
        compare(
            &format!("{variant} spmv_transpose"),
            &xt,
            &dense_transpose_spmv(&coo, &yt),
        )?;
    }
    Ok(())
}

/// Oversized dimensions must be rejected with a typed error before any
/// index narrowing happens (satellite of invariant CSCV-U32-FIT). The
/// matrices are empty, so nothing big is allocated.
fn run_oversize_reject() -> Result<(), String> {
    let layout = SinoLayout {
        n_views: i32::MAX as usize / 2 + 1,
        n_bins: 2,
    };
    let img = ImageShape { nx: 1, ny: 1 };
    let csc: Csc<f64> = Csc::from_parts(layout.n_rows(), 1, vec![0, 0], vec![], vec![]);
    let params = CscvParams::new(1, 4, 1);
    match try_build(&csc, layout, img, params, Variant::Z) {
        Err(cscv_core::BuildError::RowsExceedIndexRange { .. }) => Ok(()),
        Err(e) => Err(format!("oversize rows: wrong error {e}")),
        Ok(_) => Err("oversize rows: build accepted i32::MAX+ rows".into()),
    }
}

/// Candidate one-step reductions of a descriptor, largest first.
fn shrink_candidates(d: &CaseDesc) -> Vec<CaseDesc> {
    let mut out = Vec::new();
    let mut push = |mutated: CaseDesc| {
        if mutated != *d {
            out.push(mutated);
        }
    };
    push(CaseDesc {
        n_views: (d.n_views / 2).max(1),
        ..*d
    });
    push(CaseDesc {
        n_bins: (d.n_bins / 2).max(1),
        ..*d
    });
    push(CaseDesc {
        nx: (d.nx / 2).max(1),
        ..*d
    });
    push(CaseDesc {
        ny: (d.ny / 2).max(1),
        ..*d
    });
    push(CaseDesc {
        s_imgb: (d.s_imgb / 2).max(1),
        ..*d
    });
    push(CaseDesc {
        s_vxg: (d.s_vxg / 2).max(1),
        ..*d
    });
    if d.s_vvec > 4 {
        push(CaseDesc {
            s_vvec: d.s_vvec / 2,
            ..*d
        });
    }
    out
}

/// Greedy shrink: repeatedly adopt the first single-dimension reduction
/// that still fails, until none does (bounded by the log-sum of dims).
pub fn shrink(desc: &CaseDesc) -> CaseDesc {
    let mut cur = *desc;
    let mut budget = 64usize;
    'outer: while budget > 0 {
        for cand in shrink_candidates(&cur) {
            budget -= 1;
            if run_case(&cand).is_err() {
                cur = cand;
                continue 'outer;
            }
            if budget == 0 {
                break;
            }
        }
        break;
    }
    cur
}

fn corpus_files(path: &PathBuf) -> Result<Vec<PathBuf>, String> {
    if path.is_file() {
        return Ok(vec![path.clone()]);
    }
    if !path.is_dir() {
        return Err(format!("corpus {} does not exist", path.display()));
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("read {}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("case"))
        .collect();
    files.sort();
    Ok(files)
}

/// Run the whole session: corpus replay, then random cases, shrinking
/// and dumping failures.
pub fn run(cfg: &FuzzConfig) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        session_seed: cfg.seed,
        ..Outcome::default()
    };

    if let Some(corpus) = &cfg.corpus {
        for file in corpus_files(corpus)? {
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("read {}: {e}", file.display()))?;
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let desc = CaseDesc::parse(line).map_err(|e| format!("{}: {e}", file.display()))?;
                outcome.corpus_cases += 1;
                if let Err(detail) = run_case(&desc) {
                    outcome.failures.push(Failure {
                        desc,
                        original: desc,
                        detail: format!("corpus {}: {detail}", file.display()),
                    });
                }
            }
        }
    }

    let mut session = XorShift64::new(cfg.seed);
    for _ in 0..cfg.iters {
        let desc = random_desc(session.next_u64());
        outcome.random_cases += 1;
        if let Err(detail) = run_case(&desc) {
            let min = shrink(&desc);
            let detail = run_case(&min).err().unwrap_or(detail);
            if let Some(dir) = cfg.corpus.as_ref().filter(|p| p.is_dir()) {
                let path = dir.join(format!("shrunk-{}.case", min.seed));
                if std::fs::write(&path, format!("{}\n", min.serialize())).is_ok() {
                    outcome.dumped.push(path);
                }
            }
            outcome.failures.push(Failure {
                desc: min,
                original: desc,
                detail,
            });
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moved_generator_api_stays_reachable_here() {
        // The descriptor layer lives in cscv_harness::gen now; this
        // re-export is what keeps old `cscv_xtask::fuzz::CaseDesc`
        // paths (tests, docs, replay snippets) compiling.
        let d = random_desc(1234);
        assert_eq!(CaseDesc::parse(&d.serialize()).unwrap(), d);
    }

    #[test]
    fn every_kind_passes_one_case() {
        for (i, &kind) in GenKind::ALL.iter().enumerate() {
            let mut d = random_desc(1000 + i as u64);
            d.kind = kind;
            if kind == GenKind::SingleRow {
                d.n_views = 1;
                d.n_bins = 1;
            }
            run_case(&d).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        }
    }

    #[test]
    fn short_session_is_clean() {
        let out = run(&FuzzConfig {
            iters: 10,
            seed: 42,
            corpus: None,
        })
        .unwrap();
        assert_eq!(out.random_cases, 10);
        assert!(out.failures.is_empty(), "{}", out.render());
        assert!(out.render().contains("OK"));
    }

    #[test]
    fn shrink_candidates_reduce_dimensions() {
        let d =
            CaseDesc::parse("kind=ct-banded views=16 bins=16 nx=8 ny=8 imgb=4 vvec=8 vxg=4 seed=5")
                .unwrap();
        let cands = shrink_candidates(&d);
        assert!(!cands.is_empty());
        for c in &cands {
            let size = c.n_views * c.n_bins * c.nx * c.ny * c.s_imgb * c.s_vvec * c.s_vxg;
            let orig = d.n_views * d.n_bins * d.nx * d.ny * d.s_imgb * d.s_vvec * d.s_vxg;
            assert!(size < orig);
        }
        // A fully minimized descriptor yields no candidates.
        let min =
            CaseDesc::parse("kind=single-row views=1 bins=1 nx=1 ny=1 imgb=1 vvec=4 vxg=1 seed=5")
                .unwrap();
        assert!(shrink_candidates(&min).is_empty());
    }

    #[test]
    fn oversize_dimensions_are_rejected_with_typed_error() {
        run_oversize_reject().unwrap();
    }
}
