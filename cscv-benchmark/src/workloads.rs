//! The four workloads, their inputs and their correctness checks.
//!
//! Every workload is a closed loop: one unit of work (an image, a stack
//! of slices, or one SpMV call) starts only after the previous one has
//! finished, until the run's time budget is spent.

use crate::spans::{median, percentile, OpNames, Recorder, TimedOp};
use cscv_core::layout::ImageShape;
use cscv_core::{CscvExec, ExecConfig, SinoLayout, Variant};
use cscv_ct::system::SystemMatrix;
use cscv_ct::{CtDataset, CtGeometry, Phantom};
use cscv_recon::metrics::rel_l2;
use cscv_recon::SpmvOperator;
use cscv_recon::{sirt, sirt_batch, trajectory_max_rel_diff, CscvOperator, LinearOperator};
use cscv_shard::ShardedOperator;
use cscv_shard::{Cluster, ClusterStats, Launch, LocalOperator, PartitionMethod, ShardPlan};
use cscv_simd::rng::XorShift64;
use cscv_sparse::formats::CsrExec;
use cscv_sparse::{Csr, Scalar, SpmvExecutor, ThreadPool};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Threads in the compute pool: the two hardware threads of the
/// reference machine.
pub const POOL_THREADS: usize = 2;
/// Set-ups per run; `setup_s` is their median, so one set-up slowed by
/// a busy machine does not set it. Five is what the benchmark's total
/// time cap allows: a `spmv-512` set-up takes 2.5 s.
const SETUP_REPS: usize = 5;
/// Units every run completes even when `--seconds` is tiny, so a median
/// always exists.
const MIN_UNITS: usize = 3;
/// SIRT iterations per image: enough for the residual to fall by two
/// orders of magnitude on `recon128`.
const SIRT_ITERS: usize = 20;
/// Slices per stack: the widest register tile of the batched kernels.
const STACK: usize = 8;
/// SIRT iterations per stack: a stack then takes about 2.5 s, so a run
/// holds enough stacks for a stable median.
const STACK_ITERS: usize = 6;
/// Untimed calls per executor before `spmv-512` starts timing.
const WARMUP_CALLS: usize = 5;
/// Distinct input images `spmv-512` cycles through; `rel_err` is the
/// median over them, and 32 keeps its seed-to-seed spread near 0.5%.
const SPMV_INPUTS: usize = 32;
/// Worker processes of `shard-sirt`, one thread each.
const SHARD_WORKERS: usize = 2;
/// Calls per pool size in the thread-scaling probe.
const SCALING_CALLS: usize = 5;
/// Sweeps of the bandwidth meter (best one counts).
const STREAM_REPS: usize = 3;
/// Random ellipses inside the body ellipse of each phantom.
const PHANTOM_INNER: usize = 8;

/// `spmv-512`: relative L2 distance of every timed `y` from the serial
/// CSR product (f64; differences are accumulation order only).
const SPMV_TOL: f64 = 1e-10;
/// `recon-sirt`/`volume-sirt`: image through CSCV vs image through the
/// CSR pair, relative L2 (f32).
const CSR_PAIR_TOL: f64 = 1e-3;
/// `shard-sirt`: residual trajectory vs the single-process operator.
const SHARD_TOL: f64 = 1e-10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReconSirt,
    VolumeSirt,
    Spmv512,
    ShardSirt,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReconSirt,
        Workload::VolumeSirt,
        Workload::Spmv512,
        Workload::ShardSirt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReconSirt => "recon-sirt",
            Workload::VolumeSirt => "volume-sirt",
            Workload::Spmv512 => "spmv-512",
            Workload::ShardSirt => "shard-sirt",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes of a run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Geometry of the reconstruction workloads.
    pub recon: CtDataset,
    /// Geometry of `spmv-512`.
    pub spmv: CtDataset,
    /// Buffer of the bandwidth meter.
    pub stream_bytes: usize,
}

impl Scale {
    /// The measured sizes. `recon128` is the repository's full-coverage
    /// reconstruction set. `spmv-512` is the paper's Table II 512² row
    /// (730 bins, 0.75°) cut to 32 of its 240 views: 18.3M nonzeros, so
    /// every format's `M_Rit` (161–254 MB) is 1.5–2.4× the 105 MiB L3.
    /// The bandwidth buffer is four times that L3.
    pub fn full() -> Scale {
        Scale {
            recon: cscv_ct::datasets::recon_dataset(),
            spmv: CtDataset {
                name: "paper512-32v",
                img: 512,
                n_bins: 730,
                n_views: 32,
                delta_angle_deg: 0.75,
            },
            stream_bytes: 420 << 20,
        }
    }
}

/// Everything one run needs.
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Time budget of the measured loop.
    pub seconds: f64,
    /// Per-layer run: wrap operators in [`TimedOp`] on every other unit,
    /// and measure memory bandwidth and thread scaling.
    pub trace: bool,
    pub scale: Scale,
    /// How `shard-sirt` brings up its workers.
    pub launch: Launch,
}

/// Correctness checks attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The result of one run.
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub tally: Tally,
}

/// End-to-end metrics with their units: median set-up time, median time
/// per unit of work, median relative L2 error against the phantom, and
/// peak resident memory.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("rel_err", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics with their units, in report order. A workload that
/// does not exercise a layer reports 0 for it.
pub const LAYER_METRICS: [(&str, &str); 43] = [
    ("ct.assemble_s", "s"),
    ("sparse.to_csr_s", "s"),
    ("core.build_s.cscv-z", "s"),
    ("core.build_s.cscv-m", "s"),
    ("shard.start_s", "s"),
    ("core.spmv_ms.p50", "ms"),
    ("core.spmv_ms.p90", "ms"),
    ("core.spmv_t_ms.p50", "ms"),
    ("core.spmv_t_ms.p90", "ms"),
    ("core.spmm8_ms.p50", "ms"),
    ("core.spmm8_ms.p90", "ms"),
    ("core.spmm8_t_ms.p50", "ms"),
    ("core.spmm8_t_ms.p90", "ms"),
    ("core.gflops.cscv-z", "GFLOP/s"),
    ("core.gflops.cscv-m", "GFLOP/s"),
    ("core.gflops.csr", "GFLOP/s"),
    ("core.mrit_bytes.cscv-z", "bytes"),
    ("core.mrit_bytes.cscv-m", "bytes"),
    ("core.mrit_bytes.csr", "bytes"),
    ("core.r_nnze.cscv-z", "ratio"),
    ("core.r_nnze.cscv-m", "ratio"),
    ("core.eff_gbs.cscv-z", "GB/s"),
    ("core.eff_gbs.cscv-m", "GB/s"),
    ("core.eff_gbs.csr", "GB/s"),
    ("mem.stream_gbs", "GB/s"),
    ("core.roofline_frac.cscv-z", "ratio"),
    ("core.roofline_frac.cscv-m", "ratio"),
    ("core.roofline_frac.csr", "ratio"),
    ("sparse.pool.scaling_eff", "ratio"),
    ("recon.self_ms_per_iter", "ms"),
    ("recon.op_frac", "ratio"),
    ("shard.fwd_ms.p50", "ms"),
    ("shard.fwd_ms.p90", "ms"),
    ("shard.adj_ms.p50", "ms"),
    ("shard.adj_ms.p90", "ms"),
    ("shard.tx_bytes_per_iter", "bytes"),
    ("shard.rx_bytes_per_iter", "bytes"),
    ("shard.reduce_ms_per_iter", "ms"),
    ("shard.worker_busy_frac", "ratio"),
    ("check.fail_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("bench.units", "count"),
];

/// What a workload body measured; [`finish`] turns it into metrics.
#[derive(Default)]
struct Measured {
    setup_s: Vec<f64>,
    /// Units run on the bare operator.
    unit_s: Vec<f64>,
    /// Units run through a [`TimedOp`] (traced runs only).
    traced_unit_s: Vec<f64>,
    rel_err: Vec<f64>,
    /// `VmHWM` after the first set-up and the measured loop; read before
    /// the repeated set-ups, the reference checks and a traced run's
    /// bandwidth sweep.
    peak_rss_mb: f64,
    tally: Tally,
    /// Per-layer values with their sample counts.
    layers: BTreeMap<&'static str, (f64, usize)>,
}

impl Measured {
    fn layer(&mut self, name: &'static str, value: f64, samples: usize) {
        self.layers.insert(name, (value, samples));
    }

    /// Kernel figures of one executor from its median call time.
    fn kernel(&mut self, tag: Kernel, flops: f64, mrit: usize, calls: &[f64]) {
        let t = median(calls);
        if t <= 0.0 {
            return;
        }
        self.layer(tag.gflops, flops / t / 1e9, calls.len());
        self.layer(tag.eff_gbs, mrit as f64 / t / 1e9, calls.len());
    }
}

/// Metric names of one executor's kernel figures.
#[derive(Clone, Copy)]
struct Kernel {
    gflops: &'static str,
    eff_gbs: &'static str,
    roofline: &'static str,
}

const KERNEL_Z: Kernel = Kernel {
    gflops: "core.gflops.cscv-z",
    eff_gbs: "core.eff_gbs.cscv-z",
    roofline: "core.roofline_frac.cscv-z",
};
const KERNEL_M: Kernel = Kernel {
    gflops: "core.gflops.cscv-m",
    eff_gbs: "core.eff_gbs.cscv-m",
    roofline: "core.roofline_frac.cscv-m",
};
const KERNEL_CSR: Kernel = Kernel {
    gflops: "core.gflops.csr",
    eff_gbs: "core.eff_gbs.csr",
    roofline: "core.roofline_frac.csr",
};
const KERNELS: [Kernel; 3] = [KERNEL_Z, KERNEL_M, KERNEL_CSR];

const CSCV_OPS: OpNames = OpNames {
    apply: "core.spmv",
    apply_t: "core.spmv_t",
    apply_multi: "core.spmm8",
    apply_t_multi: "core.spmm8_t",
};
const SHARD_OPS: OpNames = OpNames {
    apply: "shard.fwd",
    apply_t: "shard.adj",
    apply_multi: "shard.fwd_multi",
    apply_t_multi: "shard.adj_multi",
};

/// Run one workload; every span lands in `rec`.
pub fn run(cfg: &Config, rec: &Recorder) -> Outcome {
    let pool = ThreadPool::new(POOL_THREADS);
    let mut m = match cfg.workload {
        Workload::ReconSirt => recon_sirt(cfg, rec, &pool),
        Workload::VolumeSirt => volume_sirt(cfg, rec, &pool),
        Workload::Spmv512 => spmv_512(cfg, rec, &pool),
        Workload::ShardSirt => shard_sirt(cfg, rec),
    };
    if cfg.trace && KERNELS.iter().any(|k| m.layers.contains_key(k.eff_gbs)) {
        let stream = stream_gbs(cfg, rec, &pool, &mut m);
        for k in KERNELS {
            if let Some(&(gbs, samples)) = m.layers.get(k.eff_gbs) {
                m.layer(k.roofline, gbs / stream, samples);
            }
        }
    }
    finish(cfg, rec, m)
}

/// A random-ellipse phantom: a fixed body ellipse of unit attenuation
/// holding [`PHANTOM_INNER`] smaller ellipses of random position, shape
/// and contrast. Coordinates are normalized to the image's `[-1, 1]²`.
/// The body is fixed because its edge dominates the reconstruction
/// error; with it fixed, `rel_err` varies little from seed to seed.
pub fn random_phantom(rng: &mut XorShift64) -> Phantom {
    use cscv_ct::phantom::Ellipse;
    let mut ellipses = vec![Ellipse {
        cx: 0.0,
        cy: 0.0,
        a: 0.78,
        b: 0.86,
        phi_deg: 0.0,
        intensity: 1.0,
    }];
    for _ in 0..PHANTOM_INNER {
        let r = rng.range_f64(0.0, 0.5);
        let t = rng.range_f64(0.0, std::f64::consts::TAU);
        ellipses.push(Ellipse {
            cx: r * t.cos(),
            cy: r * t.sin(),
            a: rng.range_f64(0.05, 0.2),
            b: rng.range_f64(0.05, 0.2),
            phi_deg: rng.range_f64(0.0, 180.0),
            intensity: rng.range_f64(-0.3, 0.3),
        });
    }
    Phantom { ellipses }
}

/// One input image: the rasterized phantom (ground truth) and its
/// analytic sinogram (the measurement the program sees).
struct Sample {
    truth: Vec<f64>,
    sino: Vec<f64>,
}

fn sample(geom: &CtGeometry, rng: &mut XorShift64) -> Sample {
    let p = random_phantom(rng);
    Sample {
        truth: p.rasterize(&geom.grid),
        sino: p.analytic_sinogram(geom),
    }
}

fn cast<T: Scalar>(v: &[f64]) -> Vec<T> {
    v.iter().map(|&x| T::from_f64(x)).collect()
}

fn layout(ds: &CtDataset) -> SinoLayout {
    SinoLayout {
        n_views: ds.n_views,
        n_bins: ds.n_bins,
    }
}

fn shape(ds: &CtDataset) -> ImageShape {
    ImageShape {
        nx: ds.img,
        ny: ds.img,
    }
}

/// Run `build` once inside a `setup` span.
fn set_up<R>(rec: &Recorder, m: &mut Measured, build: impl FnOnce() -> R) -> R {
    let g = rec.span("setup");
    let r = build();
    m.setup_s.push(g.end());
    r
}

/// The set-ups after the first, each handed to `retire` before the next
/// starts. They run once the workload has read its peak memory: the
/// allocator keeps part of what a torn-down set-up frees, and how much
/// differs from one process to the next.
fn repeat_set_up<R>(
    rec: &Recorder,
    m: &mut Measured,
    mut build: impl FnMut() -> R,
    mut retire: impl FnMut(R),
) {
    for _ in 1..SETUP_REPS {
        let r = set_up(rec, m, &mut build);
        rec.time("bench.teardown", || retire(r));
    }
}

/// Run one unit of work inside a `name` span and file its time with the
/// traced or the untraced units.
fn unit<R>(
    rec: &Recorder,
    m: &mut Measured,
    name: &'static str,
    traced: bool,
    work: impl FnOnce() -> R,
) -> R {
    let g = rec.span(name);
    let r = work();
    let t = g.end();
    if traced {
        m.traced_unit_s.push(t);
    } else {
        m.unit_s.push(t);
    }
    r
}

/// True while the measured loop should start another unit.
fn more(done: usize, start: Instant, budget: Duration) -> bool {
    done < MIN_UNITS || start.elapsed() < budget
}

/// A reconstruction is sane when it is finite and its residual fell on
/// every iteration.
pub fn image_ok<T: Scalar>(x: &[T], residuals: &[f64]) -> bool {
    x.iter().all(|v| v.to_f64().is_finite())
        && residuals.len() >= 2
        && residuals.windows(2).all(|w| w[1] < w[0])
}

/// `a` is within relative L2 distance `tol` of `reference` (false on
/// NaN).
pub fn close<T: Scalar>(a: &[T], reference: &[T], tol: f64) -> bool {
    rel_l2(a, reference) <= tol
}

/// Read-only bandwidth of the machine, measured in this run.
fn stream_gbs(cfg: &Config, rec: &Recorder, pool: &ThreadPool, m: &mut Measured) -> f64 {
    let gbs = rec.time("mem.stream", || {
        cscv_harness::membw::measure(pool, cfg.scale.stream_bytes, STREAM_REPS).read_gbs()
    });
    m.layer("mem.stream_gbs", gbs, STREAM_REPS);
    gbs
}

/// Parallel efficiency of `call` on the full pool against one thread.
fn scaling_eff(rec: &Recorder, pool: &ThreadPool, mut call: impl FnMut(&ThreadPool)) -> f64 {
    let _g = rec.span("sparse.pool.probe");
    let serial = ThreadPool::new(1);
    let mut time = |p: &ThreadPool| {
        let samples: Vec<f64> = (0..SCALING_CALLS)
            .map(|_| {
                let t = Instant::now();
                call(p);
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    };
    let t1 = time(&serial);
    let tn = time(pool);
    t1 / (pool.n_threads() as f64 * tn)
}

/// Operator-time split of the traced units: solver self time per
/// iteration and the share spent in operator calls.
fn solver_split(rec: &Recorder, m: &mut Measured, ops: OpNames, iters_per_unit: usize) {
    let unit: f64 = m.traced_unit_s.iter().sum();
    if unit <= 0.0 {
        return;
    }
    let op: f64 = [ops.apply, ops.apply_t, ops.apply_multi, ops.apply_t_multi]
        .iter()
        .map(|n| rec.durations(n).iter().sum::<f64>())
        .sum();
    let iters = m.traced_unit_s.len() * iters_per_unit;
    m.layer(
        "recon.self_ms_per_iter",
        (unit - op) * 1e3 / iters as f64,
        iters,
    );
    m.layer("recon.op_frac", op / unit, iters);
}

/// p50 and p90 of a traced span, in ms.
fn call_ms(rec: &Recorder, m: &mut Measured, span: &str, p50: &'static str, p90: &'static str) {
    let d = rec.durations(span);
    if !d.is_empty() {
        m.layer(p50, percentile(&d, 50.0) * 1e3, d.len());
        m.layer(p90, percentile(&d, 90.0) * 1e3, d.len());
    }
}

/// The single-process CSCV-Z operator of the reconstruction workloads,
/// with the executor figures the per-layer report needs.
struct CscvSetup {
    op: CscvOperator<f32>,
    csr: Csr<f32>,
    nnz: usize,
    mrit: usize,
    mrit8: usize,
    r_nnze: f64,
}

fn cscv_build(rec: &Recorder, ds: &CtDataset) -> CscvSetup {
    let geom = ds.geometry();
    let csc = rec.time("ct.assemble", || SystemMatrix::assemble_csc::<f32>(&geom));
    let csr = rec.time("sparse.to_csr", || csc.to_csr());
    let exec = rec.time("core.build.cscv-z", || {
        CscvExec::from_csc(
            &csc,
            layout(ds),
            shape(ds),
            ExecConfig::heuristic(Variant::Z),
        )
        .expect("the heuristic CSCV-Z config builds on CT matrices")
    });
    let (nnz, mrit, mrit8, r_nnze) = (
        exec.nnz_orig(),
        exec.memory_requirement(),
        exec.memory_requirement_multi(STACK),
        exec.r_nnze(),
    );
    let op = rec.time("recon.operator", || CscvOperator::new(exec, &csr));
    CscvSetup {
        op,
        csr,
        nnz,
        mrit,
        mrit8,
        r_nnze,
    }
}

fn cscv_setup(rec: &Recorder, ds: &CtDataset, m: &mut Measured) -> CscvSetup {
    let s = set_up(rec, m, || cscv_build(rec, ds));
    m.layer("core.mrit_bytes.cscv-z", s.mrit as f64, 1);
    m.layer("core.r_nnze.cscv-z", s.r_nnze, 1);
    s
}

/// The closing steps of `recon-sirt` and `volume-sirt`: read the peak
/// memory, reconstruct the first image again through the CSR pair and
/// compare, then run the remaining set-ups.
fn cscv_finish(
    rec: &Recorder,
    m: &mut Measured,
    pool: &ThreadPool,
    s: CscvSetup,
    first: (Vec<f32>, Vec<f32>),
    iters: usize,
    ds: &CtDataset,
) {
    m.peak_rss_mb = peak_rss_mib();
    let (b, x) = first;
    let ok = rec.time("check.reference", || {
        let pair = SpmvOperator::csr_pair(&s.csr);
        close(&x, &sirt(&pair, &b, iters, 1.0, pool).x, CSR_PAIR_TOL)
    });
    m.tally.record(ok);
    drop(s);
    repeat_set_up(rec, m, || cscv_build(rec, ds), drop);
}

fn recon_sirt(cfg: &Config, rec: &Recorder, pool: &ThreadPool) -> Measured {
    let mut m = Measured::default();
    let ds = cfg.scale.recon;
    let geom = ds.geometry();
    let mut rng = XorShift64::new(cfg.seed);
    let s = cscv_setup(rec, &ds, &mut m);
    let timed = TimedOp {
        inner: &s.op,
        rec,
        names: CSCV_OPS,
    };

    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut done = 0;
    let mut first = None;
    while more(done, start, budget) {
        let input = rec.time("bench.inputs", || sample(&geom, &mut rng));
        let b: Vec<f32> = cast(&input.sino);
        let traced = cfg.trace && done % 2 == 1;
        let used: &dyn LinearOperator<f32> = if traced { &timed } else { &s.op };
        let r = unit(rec, &mut m, "recon.sirt", traced, || {
            sirt(used, &b, SIRT_ITERS, 1.0, pool)
        });
        rec.time("check.verify", || {
            m.tally.record(image_ok(&r.x, &r.residual_history));
            m.rel_err.push(rel_l2(&r.x, &cast::<f32>(&input.truth)));
        });
        if done == 0 {
            first = Some((b, r.x));
        }
        done += 1;
    }

    call_ms(
        rec,
        &mut m,
        CSCV_OPS.apply,
        "core.spmv_ms.p50",
        "core.spmv_ms.p90",
    );
    call_ms(
        rec,
        &mut m,
        CSCV_OPS.apply_t,
        "core.spmv_t_ms.p50",
        "core.spmv_t_ms.p90",
    );
    let calls = rec.durations(CSCV_OPS.apply);
    m.kernel(KERNEL_Z, 2.0 * s.nnz as f64, s.mrit, &calls);
    solver_split(rec, &mut m, CSCV_OPS, SIRT_ITERS);
    if cfg.trace {
        let x = vec![1.0f32; s.op.n_cols()];
        let mut y = vec![0.0f32; s.op.n_rows()];
        let eff = scaling_eff(rec, pool, |p| s.op.apply(&x, &mut y, p));
        m.layer("sparse.pool.scaling_eff", eff, SCALING_CALLS);
    }
    let first = first.expect("MIN_UNITS is positive");
    cscv_finish(rec, &mut m, pool, s, first, SIRT_ITERS, &ds);
    m
}

fn volume_sirt(cfg: &Config, rec: &Recorder, pool: &ThreadPool) -> Measured {
    let mut m = Measured::default();
    let ds = cfg.scale.recon;
    let geom = ds.geometry();
    let mut rng = XorShift64::new(cfg.seed);
    let s = cscv_setup(rec, &ds, &mut m);
    let timed = TimedOp {
        inner: &s.op,
        rec,
        names: CSCV_OPS,
    };

    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut done = 0;
    let mut first = None;
    while more(done, start, budget) {
        let inputs: Vec<Sample> = rec.time("bench.inputs", || {
            (0..STACK).map(|_| sample(&geom, &mut rng)).collect()
        });
        let b: Vec<f32> = inputs.iter().flat_map(|i| cast::<f32>(&i.sino)).collect();
        let traced = cfg.trace && done % 2 == 1;
        let used: &dyn LinearOperator<f32> = if traced { &timed } else { &s.op };
        let r = unit(rec, &mut m, "recon.sirt_batch", traced, || {
            sirt_batch(used, &b, STACK, STACK_ITERS, 1.0, 0.0, pool)
        });
        rec.time("check.verify", || {
            for (i, input) in inputs.iter().enumerate() {
                m.tally
                    .record(image_ok(r.slice(i), &r.residual_histories[i]));
                m.rel_err
                    .push(rel_l2(r.slice(i), &cast::<f32>(&input.truth)));
            }
        });
        if done == 0 {
            first = Some((b[..s.op.n_rows()].to_vec(), r.slice(0).to_vec()));
        }
        done += 1;
    }

    call_ms(
        rec,
        &mut m,
        CSCV_OPS.apply_multi,
        "core.spmm8_ms.p50",
        "core.spmm8_ms.p90",
    );
    call_ms(
        rec,
        &mut m,
        CSCV_OPS.apply_t_multi,
        "core.spmm8_t_ms.p50",
        "core.spmm8_t_ms.p90",
    );
    let calls = rec.durations(CSCV_OPS.apply_multi);
    let flops = 2.0 * (STACK * s.nnz) as f64;
    m.kernel(KERNEL_Z, flops, s.mrit8, &calls);
    solver_split(rec, &mut m, CSCV_OPS, STACK_ITERS);
    if cfg.trace {
        let x = vec![1.0f32; STACK * s.op.n_cols()];
        let mut y = vec![0.0f32; STACK * s.op.n_rows()];
        let eff = scaling_eff(rec, pool, |p| s.op.apply_multi(&x, STACK, &mut y, p));
        m.layer("sparse.pool.scaling_eff", eff, SCALING_CALLS);
    }
    let first = first.expect("MIN_UNITS is positive");
    cscv_finish(rec, &mut m, pool, s, first, STACK_ITERS, &ds);
    m
}

fn spmv_512(cfg: &Config, rec: &Recorder, pool: &ThreadPool) -> Measured {
    let mut m = Measured::default();
    let ds = cfg.scale.spmv;
    let geom = ds.geometry();
    let mut rng = XorShift64::new(cfg.seed);
    let inputs: Vec<Sample> = rec.time("bench.inputs", || {
        (0..SPMV_INPUTS).map(|_| sample(&geom, &mut rng)).collect()
    });
    let build_all = || {
        let csc = rec.time("ct.assemble", || SystemMatrix::assemble_csc::<f64>(&geom));
        let csr = rec.time("sparse.to_csr", || csc.to_csr());
        let build = |name, variant| {
            rec.time(name, || {
                CscvExec::from_csc(
                    &csc,
                    layout(&ds),
                    shape(&ds),
                    ExecConfig::heuristic(variant),
                )
                .expect("the heuristic CSCV configs build on CT matrices")
            })
        };
        let z = build("core.build.cscv-z", Variant::Z);
        let mm = build("core.build.cscv-m", Variant::M);
        // Free the CSC before the CSR copy so peak memory holds one
        // matrix less.
        drop(csc);
        let c = rec.time("sparse.csr_exec", || CsrExec::new(csr.clone()));
        (z, mm, c, csr)
    };
    let (z, mm, csr_exec, csr) = set_up(rec, &mut m, build_all);
    let refs: Vec<Vec<f64>> = rec.time("check.reference", || {
        inputs
            .iter()
            .map(|s| {
                let mut y = vec![0.0; csr.n_rows()];
                csr.spmv_serial(&s.truth, &mut y);
                y
            })
            .collect()
    });
    drop(csr);

    let execs: [(&'static str, &dyn SpmvExecutor<f64>); 3] = [
        ("core.spmv.cscv-z", &z),
        ("core.spmv.cscv-m", &mm),
        ("sparse.spmv.csr", &csr_exec),
    ];
    let mut y = vec![0.0; z.n_rows()];
    rec.time("bench.warmup", || {
        for (_, e) in &execs {
            for _ in 0..WARMUP_CALLS {
                e.spmv(&inputs[0].truth, &mut y, pool);
            }
        }
    });
    let mut calls: [Vec<f64>; 3] = Default::default();
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut done = 0;
    while more(done, start, budget) {
        let i = done % SPMV_INPUTS;
        for (k, (name, e)) in execs.iter().enumerate() {
            // Poison the output so a call that skips rows fails its check.
            y.fill(f64::NAN);
            let g = rec.span(name);
            e.spmv(&inputs[i].truth, &mut y, pool);
            calls[k].push(g.end());
            rec.time("check.verify", || {
                m.tally.record(close(&y, &refs[i], SPMV_TOL));
                if k == 0 && done < SPMV_INPUTS {
                    m.rel_err.push(rel_l2(&y, &inputs[i].sino));
                }
            });
        }
        done += 1;
    }
    m.unit_s = calls[0].clone();

    for (tag, e, c) in [
        (KERNEL_Z, &z as &dyn SpmvExecutor<f64>, &calls[0]),
        (KERNEL_M, &mm, &calls[1]),
        (KERNEL_CSR, &csr_exec, &calls[2]),
    ] {
        m.kernel(tag, e.flops(), e.memory_requirement(), c);
    }
    m.layer("core.mrit_bytes.cscv-z", z.memory_requirement() as f64, 1);
    m.layer("core.mrit_bytes.cscv-m", mm.memory_requirement() as f64, 1);
    m.layer(
        "core.mrit_bytes.csr",
        csr_exec.memory_requirement() as f64,
        1,
    );
    m.layer("core.r_nnze.cscv-z", z.r_nnze(), 1);
    m.layer("core.r_nnze.cscv-m", mm.r_nnze(), 1);
    let ms: Vec<f64> = calls[0].iter().map(|t| t * 1e3).collect();
    m.layer("core.spmv_ms.p50", percentile(&ms, 50.0), ms.len());
    m.layer("core.spmv_ms.p90", percentile(&ms, 90.0), ms.len());
    if cfg.trace {
        let x = &inputs[0].truth;
        let eff = scaling_eff(rec, pool, |p| z.spmv(x, &mut y, p));
        m.layer("sparse.pool.scaling_eff", eff, SCALING_CALLS);
    }
    m.peak_rss_mb = peak_rss_mib();
    drop((z, mm, csr_exec));
    repeat_set_up(rec, &mut m, build_all, drop);
    m
}

fn shard_sirt(cfg: &Config, rec: &Recorder) -> Measured {
    let mut m = Measured::default();
    let ds = cfg.scale.recon;
    let geom = ds.geometry();
    let mut rng = XorShift64::new(cfg.seed);
    // The operators ignore the coordinator pool; workers own theirs.
    let pool = ThreadPool::new(1);
    let build = || {
        let csc = rec.time("ct.assemble", || SystemMatrix::assemble_csc::<f64>(&geom));
        let csr = rec.time("sparse.to_csr", || csc.to_csr());
        let op = rec.time("shard.start", || {
            let row_nnz: Vec<usize> = (0..csr.n_rows()).map(|r| csr.row(r).0.len()).collect();
            let plan = ShardPlan::new(&row_nnz, SHARD_WORKERS, ds.n_bins, PartitionMethod::Bisect);
            let cluster = Cluster::start(&csr, &plan, layout(&ds), shape(&ds), 1, &cfg.launch)
                .expect("shard cluster starts");
            ShardedOperator::new(cluster).expect("abs-sums collective")
        });
        (op, csr)
    };
    let (op, csr) = set_up(rec, &mut m, build);
    let timed = TimedOp {
        inner: &op,
        rec,
        names: SHARD_OPS,
    };

    let stats0 = op.stats().expect("cluster stats");
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut done = 0;
    let mut first = None;
    while more(done, start, budget) {
        let input = rec.time("bench.inputs", || sample(&geom, &mut rng));
        let traced = cfg.trace && done % 2 == 1;
        let used: &dyn LinearOperator<f64> = if traced { &timed } else { &op };
        // A worker that dies makes the operator panic. That image fails,
        // and the run stops: the cluster is gone, and dropping the
        // operator kills and reaps the remaining workers.
        let Ok(r) = unit(rec, &mut m, "recon.sirt", traced, || {
            catch_unwind(AssertUnwindSafe(|| {
                sirt(used, &input.sino, SIRT_ITERS, 1.0, &pool)
            }))
        }) else {
            m.tally.record(false);
            m.peak_rss_mb = peak_rss_mib();
            return m;
        };
        rec.time("check.verify", || {
            m.tally.record(image_ok(&r.x, &r.residual_history));
            m.rel_err.push(rel_l2(&r.x, &input.truth));
        });
        if done == 0 {
            first = Some((input.sino, r.residual_history));
        }
        done += 1;
    }
    let loop_s = start.elapsed().as_secs_f64();
    match op.stats() {
        Ok(stats1) => shard_layers(&mut m, &stats0, &stats1, done * SIRT_ITERS, loop_s),
        Err(_) => m.tally.record(false),
    }
    call_ms(
        rec,
        &mut m,
        SHARD_OPS.apply,
        "shard.fwd_ms.p50",
        "shard.fwd_ms.p90",
    );
    call_ms(
        rec,
        &mut m,
        SHARD_OPS.apply_t,
        "shard.adj_ms.p50",
        "shard.adj_ms.p90",
    );
    solver_split(rec, &mut m, SHARD_OPS, SIRT_ITERS);
    let healthy = rec.time("shard.shutdown", || {
        op.shutdown()
            .is_ok_and(|s| s.workers.iter().all(|w| !w.degraded))
    });
    m.tally.record(healthy);
    m.peak_rss_mb = peak_rss_mib();

    let (sino, residuals) = first.expect("MIN_UNITS is positive");
    let ok = rec.time("check.reference", || {
        let mut cache = cscv_shard::worker::env_cache();
        let local = LocalOperator::new(csr, Some(layout(&ds)), shape(&ds), 1, &mut cache);
        let reference = sirt(&local, &sino, SIRT_ITERS, 1.0, &pool);
        trajectory_max_rel_diff(&residuals, &reference.residual_history) <= SHARD_TOL
    });
    m.tally.record(ok);
    repeat_set_up(rec, &mut m, build, |(op, _)| {
        op.shutdown().expect("shard cluster shuts down");
    });
    m
}

/// Traffic, merge and worker-busy figures of the measured loop.
fn shard_layers(m: &mut Measured, s0: &ClusterStats, s1: &ClusterStats, iters: usize, loop_s: f64) {
    let per_iter = |a: u64, b: u64| b.saturating_sub(a) as f64 / iters.max(1) as f64;
    m.layer(
        "shard.tx_bytes_per_iter",
        per_iter(s0.bytes_tx, s1.bytes_tx),
        iters,
    );
    m.layer(
        "shard.rx_bytes_per_iter",
        per_iter(s0.bytes_rx, s1.bytes_rx),
        iters,
    );
    m.layer(
        "shard.reduce_ms_per_iter",
        per_iter(s0.reduce_ns, s1.reduce_ns) * 1e-6,
        iters,
    );
    let busy = |s: &ClusterStats| s.workers.iter().map(|w| w.busy_ns).sum::<u64>();
    let busy_s = busy(s1).saturating_sub(busy(s0)) as f64 * 1e-9;
    m.layer(
        "shard.worker_busy_frac",
        busy_s / (s1.workers.len().max(1) as f64 * loop_s),
        iters,
    );
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Turn a workload's measurements into the report's metrics.
fn finish(cfg: &Config, rec: &Recorder, mut m: Measured) -> Outcome {
    let values = [
        (median(&m.setup_s), m.setup_s.len()),
        (median(&m.unit_s), m.unit_s.len()),
        (median(&m.rel_err), m.rel_err.len()),
        (m.peak_rss_mb, 1),
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            value,
            unit,
            samples,
        })
        .collect();

    for (span, name) in [
        ("ct.assemble", "ct.assemble_s"),
        ("sparse.to_csr", "sparse.to_csr_s"),
        ("core.build.cscv-z", "core.build_s.cscv-z"),
        ("core.build.cscv-m", "core.build_s.cscv-m"),
        ("shard.start", "shard.start_s"),
    ] {
        let d = rec.durations(span);
        if !d.is_empty() {
            m.layer(name, median(&d), d.len());
        }
    }
    m.layer(
        "check.fail_frac",
        m.tally.fail_frac(),
        m.tally.attempted as usize,
    );
    if !m.traced_unit_s.is_empty() {
        let ratio = median(&m.traced_unit_s) / median(&m.unit_s) - 1.0;
        m.layer("trace.overhead_frac", ratio, m.traced_unit_s.len());
    }
    let units = m.unit_s.len() + m.traced_unit_s.len();
    m.layer("bench.units", units as f64, units);
    if cfg.trace {
        let spans = rec.spans();
        let frac = crate::spans::unattributed_frac(&spans, rec.wall_s());
        m.layer("trace.unattributed_frac", frac, spans.len());
    }

    let per_layer = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let (value, samples) = m.layers.get(name).copied().unwrap_or((0.0, 0));
            Metric {
                name,
                value,
                unit,
                samples,
            }
        })
        .collect();
    debug_assert!(
        m.layers
            .keys()
            .all(|k| LAYER_METRICS.iter().any(|(n, _)| n == k)),
        "undeclared per-layer metric"
    );
    Outcome {
        end_to_end,
        per_layer,
        tally: m.tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscv_trace::json::Json;

    fn tiny(workload: Workload, trace: bool) -> Config {
        let ds = cscv_ct::datasets::tiny();
        Config {
            workload,
            seed: 11,
            seconds: 0.0,
            trace,
            scale: Scale {
                recon: ds,
                spmv: ds,
                stream_bytes: 8 << 20,
            },
            // The test binary cannot serve `shard-worker`.
            launch: Launch::Threads,
        }
    }

    #[test]
    fn every_workload_passes_its_checks_at_tiny_scale() {
        for w in Workload::ALL {
            let out = run(&tiny(w, false), &Recorder::new());
            assert_eq!(out.tally.failed, 0, "{}: {:?}", w.name(), out.tally);
            assert!(out.tally.attempted >= MIN_UNITS as u64, "{}", w.name());
            for m in &out.end_to_end {
                assert!(m.value > 0.0 && m.value.is_finite(), "{}: {m:?}", w.name());
            }
        }
    }

    #[test]
    fn traced_runs_report_every_layer() {
        for w in Workload::ALL {
            let rec = Recorder::new();
            let out = run(&tiny(w, true), &rec);
            assert_eq!(out.tally.failed, 0, "{}", w.name());
            assert_eq!(out.per_layer.len(), LAYER_METRICS.len());
            let get = |n: &str| out.per_layer.iter().find(|m| m.name == n).unwrap().value;
            assert!(get("ct.assemble_s") > 0.0, "{}", w.name());
            assert!(get("bench.units") >= MIN_UNITS as f64);
            let frac = get("trace.unattributed_frac");
            assert!((0.0..1.0).contains(&frac), "{}: {frac}", w.name());
        }
    }

    #[test]
    fn peak_rss_leaves_out_the_bandwidth_sweep() {
        let mut cfg = tiny(Workload::ReconSirt, true);
        cfg.scale.stream_bytes = 64 << 20;
        let out = run(&cfg, &Recorder::new());
        let reported = out.end_to_end[3].value;
        assert_eq!(out.end_to_end[3].name, "peak_rss_mb");
        // The sweep holds its 64 MiB buffer plus 48 MiB of triad
        // vectors on top of what the workload left alive.
        let after = peak_rss_mib();
        assert!(
            reported + 64.0 < after,
            "reported {reported} MiB, after {after} MiB"
        );
    }

    #[test]
    fn corrupted_results_fail_every_check() {
        let good = [1.0f64, 2.0, 3.0];
        let mut t = Tally::default();
        t.record(close(&[1.0, 2.0, 3.1], &good, SPMV_TOL));
        t.record(close(&[1.0, f64::NAN, 3.0], &good, SPMV_TOL));
        t.record(close(
            &[1.0f32, 2.5, 3.0],
            &[1.0f32, 2.0, 3.0],
            CSR_PAIR_TOL,
        ));
        t.record(image_ok(&[1.0f32, f32::INFINITY], &[2.0, 1.0]));
        t.record(image_ok(&[1.0f32, 2.0], &[2.0, 1.0, 1.5]));
        t.record(trajectory_max_rel_diff(&[3.0, 2.0, 1.0], &[3.0, 2.0, 1.0 + 1e-9]) <= SHARD_TOL);
        assert_eq!(t.attempted, 6);
        assert_eq!(t.fail_frac(), 1.0);
        // The uncorrupted versions pass.
        assert!(close(&good, &good, SPMV_TOL));
        assert!(image_ok(&[1.0f32, 2.0], &[2.0, 1.0, 0.5]));
    }

    #[test]
    fn phantoms_are_deterministic_per_seed() {
        let draw = |seed| {
            let mut rng = XorShift64::new(seed);
            (0..3).map(|_| random_phantom(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        assert_eq!(draw(5)[0].ellipses.len(), PHANTOM_INNER + 1);
    }

    /// The names in `BENCHMARK.json` are the names this program reports.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|e| {
                    e.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        let units = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|e| {
                    e.get("unit")
                        .and_then(Json::as_str)
                        .expect("unit")
                        .to_string()
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> (Vec<String>, Vec<String>) {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .unzip()
        };
        let (e2e, e2e_units) = own(&END_TO_END);
        assert_eq!(names("end_to_end"), e2e);
        assert_eq!(units("end_to_end"), e2e_units);
        let (layer, layer_units) = own(&LAYER_METRICS);
        assert_eq!(names("per_layer"), layer);
        assert_eq!(units("per_layer"), layer_units);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), workloads);
    }
}
