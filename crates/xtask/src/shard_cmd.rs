//! `cscv-xtask shard` — sharded-vs-single-process equivalence driver.
//!
//! Assembles a CT system matrix from a committed case file, simulates a
//! Shepp-Logan sinogram, then runs each requested solver twice per
//! worker count: once on the single-process [`LocalOperator`] reference
//! and once on a [`ShardedOperator`] over a freshly launched cluster
//! (real worker processes by default — `cscv-xtask shard-worker`
//! children over Unix sockets). The gate:
//!
//! * `workers = 1` must be **byte-identical** to the reference (the
//!   forward gather is placement-only and a one-shard adjoint merge is
//!   a copy — no arithmetic happens that could differ);
//! * `workers > 1` must keep the residual trajectory within `--tol`
//!   (default `1e-10` relative, per iteration) of the reference — the
//!   fixed-order tree reduction is the only floating-point difference.
//!
//! Iteration depth defaults per solver (see [`default_iters`]): the
//! stationary iterations run 12 steps, CGLS runs 8. A Krylov recurrence
//! amplifies the tree-reduction's reassociation perturbation by roughly
//! two orders of magnitude *per iteration* (measured on the committed
//! case: rel diff 7e-15 at iteration 8 grows to 2e-7 by iteration 11),
//! so deep CGLS trajectories cannot meet a 1e-10 gate *in principle* —
//! not a sharding bug, a property of conjugate-gradient arithmetic.
//! `--iters N` overrides the depth for every solver.
//!
//! Exit codes follow the xtask contract: 0 = all runs passed, 1 = an
//! equivalence gate failed, 2 = usage/IO error. Every run is also
//! recorded to the NDJSON manifest (`type: "shard"`) when
//! `CSCV_MANIFEST_DIR` is set — the artifact the `shard-smoke` CI job
//! uploads.

use cscv_core::layout::ImageShape;
use cscv_core::SinoLayout;
use cscv_ct::geometry::CtGeometry;
use cscv_ct::phantom::Phantom;
use cscv_ct::system::SystemMatrix;
use cscv_harness::manifest::{record_shard, ShardRunRecord};
use cscv_recon::driver::{bitwise_equal, run_solver, trajectory_max_rel_diff, Solver};
use cscv_shard::{Cluster, Launch, LocalOperator, PartitionMethod, ShardPlan, ShardedOperator};
use cscv_sparse::{Csr, ThreadPool};
use cscv_trace::json::Json;
use std::path::PathBuf;

/// The committed default case (embedded so the command works from any
/// working directory; `--case FILE` overrides).
pub const DEFAULT_CASE: &str = include_str!("../../shard/cases/shepp-logan-smoke.case");

/// Configuration for one `shard` invocation.
#[derive(Debug, Clone)]
pub struct ShardCmdConfig {
    /// Case file path; `None` uses the embedded default.
    pub case: Option<PathBuf>,
    /// Worker counts to exercise (e.g. `[1, 2, 4]`).
    pub workers: Vec<usize>,
    /// Solvers to run (default: all).
    pub solvers: Vec<Solver>,
    /// Solver iterations per run; `None` = per-solver [`default_iters`].
    pub iters: Option<usize>,
    /// Partitioner.
    pub method: PartitionMethod,
    /// Threads per worker pool.
    pub threads: usize,
    /// Launch in-process worker threads instead of processes.
    pub threads_launch: bool,
    /// Relative per-iteration trajectory tolerance for `workers > 1`.
    pub tol: f64,
}

impl Default for ShardCmdConfig {
    fn default() -> Self {
        ShardCmdConfig {
            case: None,
            workers: vec![1, 2, 4],
            solvers: Solver::ALL.to_vec(),
            iters: None,
            method: PartitionMethod::Stripe,
            threads: 1,
            threads_launch: false,
            tol: 1e-10,
        }
    }
}

/// Default iteration depth per solver. Stationary iterations (SIRT,
/// Landweber) are contractive fixed-point maps — a rounding-level
/// perturbation from the shards' fixed-order tree reduction stays at
/// rounding level, so they run deeper. The CGLS recurrence amplifies
/// that same perturbation ~10²× per iteration, so its default stops
/// while the `1e-10` gate still has four orders of margin.
pub fn default_iters(solver: Solver) -> usize {
    match solver {
        Solver::Cgls => 8,
        Solver::Sirt | Solver::Landweber => 12,
    }
}

/// A parsed case file (`key = value` lines, `#` comments).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCase {
    pub name: String,
    pub img: usize,
    pub bins: usize,
    pub views: usize,
    pub delta_deg: f64,
}

impl ShardCase {
    /// Parse the `key = value` format of `crates/shard/cases/*.case`.
    pub fn parse(text: &str) -> Result<ShardCase, String> {
        let mut name = None;
        let mut img = None;
        let mut bins = None;
        let mut views = None;
        let mut delta = None;
        for (ln, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| format!("case line {}: expected key = value", ln + 1))?;
            let (k, v) = (k.trim(), v.trim());
            let bad = |what: &str| format!("case line {}: bad {what}: {v}", ln + 1);
            match k {
                "name" => name = Some(v.to_string()),
                "img" => img = Some(v.parse().map_err(|_| bad("img"))?),
                "bins" => bins = Some(v.parse().map_err(|_| bad("bins"))?),
                "views" => views = Some(v.parse().map_err(|_| bad("views"))?),
                "delta" => delta = Some(v.parse().map_err(|_| bad("delta"))?),
                other => return Err(format!("case line {}: unknown key {other}", ln + 1)),
            }
        }
        let req = |o: Option<usize>, k: &str| o.ok_or_else(|| format!("case: missing {k}"));
        Ok(ShardCase {
            name: name.ok_or("case: missing name")?,
            img: req(img, "img")?,
            bins: req(bins, "bins")?,
            views: req(views, "views")?,
            delta_deg: delta.ok_or("case: missing delta")?,
        })
    }
}

/// One (solver, worker-count) run's figures and verdict.
#[derive(Debug, Clone)]
pub struct ShardRun {
    pub solver: &'static str,
    pub workers: usize,
    pub iters: usize,
    pub secs: f64,
    pub ref_secs: f64,
    pub max_rel_diff: f64,
    pub bitwise: bool,
    pub pass: bool,
    pub bytes_tx: u64,
    pub bytes_rx: u64,
    pub reduce_ns: u64,
    pub worker_busy_ns: u64,
    pub wall_ns: u64,
    /// Workers that died or desynced; their figures are those of their
    /// last good `StatsOut`.
    pub degraded_workers: u64,
    pub execs: String,
}

/// The full invocation's results.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    pub case: ShardCase,
    pub method: PartitionMethod,
    pub runs: Vec<ShardRun>,
}

impl ShardOutcome {
    /// Runs that failed their equivalence gate.
    pub fn failures(&self) -> Vec<&ShardRun> {
        self.runs.iter().filter(|r| !r.pass).collect()
    }

    /// Human-readable fixed-width table.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "case {} ({}² image, {} views × {} bins), {} partitioning\n",
            self.case.name,
            self.case.img,
            self.case.views,
            self.case.bins,
            self.method.name()
        );
        out.push_str(&format!(
            "{:<10} {:>7} {:>5} {:>9} {:>9} {:>12} {:>8} {:>10} {:>10} {:>9} {:>6}  {}\n",
            "solver",
            "workers",
            "iters",
            "secs",
            "ref-secs",
            "max-rel-diff",
            "bitwise",
            "tx-bytes",
            "rx-bytes",
            "reduce-ms",
            "pass",
            "execs"
        ));
        for r in &self.runs {
            out.push_str(&format!(
                "{:<10} {:>7} {:>5} {:>9.4} {:>9.4} {:>12.3e} {:>8} {:>10} {:>10} {:>9.3} {:>6}  {}\n",
                r.solver,
                r.workers,
                r.iters,
                r.secs,
                r.ref_secs,
                r.max_rel_diff,
                if r.bitwise { "yes" } else { "no" },
                r.bytes_tx,
                r.bytes_rx,
                r.reduce_ns as f64 / 1e6,
                if r.pass { "ok" } else { "FAIL" },
                r.execs,
            ));
        }
        let fails = self.failures().len();
        out.push_str(&format!(
            "cscv-xtask shard: {} — {} run(s), {} failure(s)\n",
            if fails == 0 { "OK" } else { "FAIL" },
            self.runs.len(),
            fails
        ));
        out
    }

    /// One JSON object per run, newline-delimited.
    pub fn render_ndjson(&self) -> String {
        let mut out = String::new();
        for r in &self.runs {
            let obj = Json::obj(vec![
                ("type", "shard".into()),
                ("case", self.case.name.as_str().into()),
                ("solver", r.solver.into()),
                ("method", self.method.name().into()),
                ("workers", (r.workers as u64).into()),
                ("iterations", (r.iters as u64).into()),
                ("secs", r.secs.into()),
                ("ref_secs", r.ref_secs.into()),
                ("max_rel_diff", r.max_rel_diff.into()),
                ("bitwise", r.bitwise.into()),
                ("pass", r.pass.into()),
                ("bytes_tx", r.bytes_tx.into()),
                ("bytes_rx", r.bytes_rx.into()),
                ("reduce_ns", r.reduce_ns.into()),
                ("worker_busy_ns", r.worker_busy_ns.into()),
                ("wall_ns", r.wall_ns.into()),
                ("degraded_workers", r.degraded_workers.into()),
                ("execs", r.execs.as_str().into()),
            ]);
            out.push_str(&obj.to_string());
            out.push('\n');
        }
        out
    }
}

/// Execute the equivalence matrix described by `cfg`.
pub fn run(cfg: &ShardCmdConfig) -> Result<ShardOutcome, String> {
    let text = match &cfg.case {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?
        }
        None => DEFAULT_CASE.to_string(),
    };
    let case = ShardCase::parse(&text)?;
    if cfg.workers.is_empty() || cfg.iters == Some(0) {
        return Err("need at least one worker count and one iteration".into());
    }

    // Assemble the system and simulate the measurement.
    let geom = CtGeometry::standard(case.img, case.bins, case.views, 0.0, case.delta_deg);
    let csc = SystemMatrix::assemble_csc::<f64>(&geom);
    let csr: Csr<f64> = csc.to_csr();
    let layout = SinoLayout {
        n_views: case.views,
        n_bins: case.bins,
    };
    let img = ImageShape {
        nx: case.img,
        ny: case.img,
    };
    let truth = Phantom::shepp_logan().rasterize(&geom.grid);
    let mut sino = vec![0.0; csr.n_rows()];
    csr.spmv_serial(&truth, &mut sino);

    // Single-process reference: the same backend code path the workers
    // run, same tuning-cache source — byte-identity's other half.
    let mut cache = cscv_shard::worker::env_cache();
    let local = LocalOperator::new(csr.clone(), Some(layout), img, cfg.threads, &mut cache);
    let pool = ThreadPool::new(1); // operators ignore it; see cscv-shard
    let row_nnz: Vec<usize> = (0..csr.n_rows()).map(|r| csr.row(r).0.len()).collect();

    let launch = if cfg.threads_launch {
        Launch::Threads
    } else {
        let exe = std::env::current_exe()
            .map_err(|e| format!("current_exe: {e}"))?
            .to_string_lossy()
            .into_owned();
        Launch::Process {
            cmd: vec![exe, "shard-worker".into()],
        }
    };

    let mut runs = Vec::new();
    for &solver in &cfg.solvers {
        let iters = cfg.iters.unwrap_or_else(|| default_iters(solver));
        let t0 = std::time::Instant::now();
        let reference = run_solver(solver, &local, &sino, iters, &pool);
        let ref_secs = t0.elapsed().as_secs_f64();
        for &w in &cfg.workers {
            let plan = ShardPlan::new(&row_nnz, w, case.bins, cfg.method);
            let cluster = Cluster::start(&csr, &plan, layout, img, cfg.threads, &launch)
                .map_err(|e| format!("cluster start ({w} workers): {e}"))?;
            let execs = cluster.exec_names().join(",");
            let sharded =
                ShardedOperator::new(cluster).map_err(|e| format!("abs-sums collective: {e}"))?;
            let t0 = std::time::Instant::now();
            let result = run_solver(solver, &sharded, &sino, iters, &pool);
            let secs = t0.elapsed().as_secs_f64();
            let stats = sharded
                .shutdown()
                .map_err(|e| format!("cluster shutdown ({w} workers): {e}"))?;

            let max_rel_diff =
                trajectory_max_rel_diff(&reference.residual_history, &result.residual_history);
            let bitwise = bitwise_equal(&reference, &result);
            let pass = if w == 1 {
                bitwise
            } else {
                max_rel_diff <= cfg.tol
            };
            let run = ShardRun {
                solver: solver.name(),
                workers: w,
                iters,
                secs,
                ref_secs,
                max_rel_diff,
                bitwise,
                pass,
                bytes_tx: stats.bytes_tx,
                bytes_rx: stats.bytes_rx,
                reduce_ns: stats.reduce_ns,
                worker_busy_ns: stats.workers.iter().map(|x| x.busy_ns).sum(),
                wall_ns: stats.wall_ns,
                degraded_workers: stats.workers.iter().filter(|x| x.degraded).count() as u64,
                execs,
            };
            record_shard(&ShardRunRecord {
                case: &case.name,
                solver: run.solver,
                method: cfg.method.name(),
                workers: w,
                iterations: iters,
                secs,
                max_rel_diff,
                bitwise,
                bytes_tx: run.bytes_tx,
                bytes_rx: run.bytes_rx,
                reduce_ns: run.reduce_ns,
                worker_busy_ns: run.worker_busy_ns,
                execs: &run.execs,
            });
            runs.push(run);
        }
    }
    Ok(ShardOutcome {
        case,
        method: cfg.method,
        runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_case_parses() {
        let c = ShardCase::parse(DEFAULT_CASE).unwrap();
        assert_eq!(c.name, "shepp-logan-smoke");
        assert_eq!(c.img, 48);
        assert_eq!(c.bins, 70);
        assert_eq!(c.views, 48);
        // Full angular coverage keeps the reconstruction well-posed.
        assert!((c.views as f64 * c.delta_deg - 180.0).abs() < 1e-9);
    }

    #[test]
    fn case_parser_rejects_malformed_input() {
        assert!(ShardCase::parse("img = 32").is_err(), "missing keys");
        assert!(ShardCase::parse("name = x\nimg = y\nbins = 1\nviews = 1\ndelta = 1").is_err());
        assert!(ShardCase::parse("bogus-line\n").is_err());
        assert!(ShardCase::parse("name=x\nimg=2\nbins=3\nviews=4\ndelta=45\nextra=1").is_err());
    }

    #[test]
    fn case_parser_handles_comments_and_spacing() {
        let c = ShardCase::parse("# hi\nname= t \n img =8\nbins=11 # inline\nviews=6\ndelta=30\n")
            .unwrap();
        assert_eq!(c.name, "t");
        assert_eq!((c.img, c.bins, c.views), (8, 11, 6));
        assert_eq!(c.delta_deg, 30.0);
    }

    /// End-to-end over thread-launched workers: small enough for a unit
    /// test, still covers partition → protocol → solve → gate.
    #[test]
    fn thread_launch_equivalence_matrix_passes() {
        let cfg = ShardCmdConfig {
            case: None,
            workers: vec![1, 2],
            solvers: vec![Solver::Sirt],
            iters: Some(4),
            threads_launch: true,
            ..ShardCmdConfig::default()
        };
        let outcome = run(&cfg).unwrap();
        assert_eq!(outcome.runs.len(), 2);
        assert!(outcome.failures().is_empty(), "{}", outcome.render_table());
        let one = &outcome.runs[0];
        assert_eq!(one.workers, 1);
        assert!(one.bitwise, "workers=1 must be byte-identical");
        // View-aligned shards must have built CSCV executors.
        assert!(one.execs.contains("CSCV"), "execs: {}", one.execs);
        let table = outcome.render_table();
        assert!(table.contains("shepp-logan-smoke"));
        let ndjson = outcome.render_ndjson();
        assert_eq!(ndjson.lines().count(), 2);
        let first = Json::parse(ndjson.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("type").and_then(Json::as_str), Some("shard"));
        assert_eq!(first.get("bitwise"), Some(&Json::Bool(true)));
        assert!(outcome.runs.iter().all(|r| r.degraded_workers == 0));
    }
}
