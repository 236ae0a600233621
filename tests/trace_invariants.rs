//! End-to-end observability invariants (trace-enabled builds only).
//!
//! The counters wired through `cscv-core`/`cscv-sparse` are only useful
//! if they agree exactly with the paper's analytic models — a counter
//! that is "roughly" right is worse than none. These tests pin the
//! identities:
//!
//! * counted useful flops == `2·nnz(A)` per SpMV (the paper's `F`
//!   numerator), exactly, for both variants, any thread count;
//! * counted bytes == `M_Rit = M(A)+M(x)+M(y)` for single-RHS SpMV
//!   (the batched path revisits the matrix once per register-tile
//!   chunk, so it is bounded below instead);
//! * issued FMA lanes == useful lanes + padding lanes;
//! * per-thread counter shards fold without losing a single increment
//!   under pool hammering;
//! * solver timelines (iteration events, swap-compaction events) match
//!   the returned histories.

#![cfg(feature = "trace")]

use cscv_repro::harness::suite::prepare;
use cscv_repro::prelude::*;
use cscv_repro::recon::{sirt, sirt_batch, SpmvOperator};
use cscv_repro::trace::counters::{self, Counter};
use cscv_repro::trace::json::Json;
use cscv_repro::trace::{emit, export, span};
use std::sync::{Mutex, MutexGuard};

/// The trace registry is process-global; tests asserting on totals must
/// not interleave.
static LOCK: Mutex<()> = Mutex::new(());
fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn cscv_exec(variant: Variant) -> (CscvExec<f32>, usize, Vec<f32>) {
    let prep = prepare::<f32>(&cscv_repro::ct::datasets::tiny());
    let exec = CscvExec::new(build(
        &prep.csc,
        prep.layout,
        prep.img,
        CscvParams::new(8, 8, 2),
        variant,
    ));
    (exec, prep.csr.nnz(), prep.x)
}

#[test]
fn counted_flops_are_exactly_two_nnz() {
    let _g = lock();
    for variant in [Variant::Z, Variant::M] {
        let (exec, nnz, x) = cscv_exec(variant);
        let mut y = vec![0.0f32; exec.n_rows()];
        for threads in [1usize, 3] {
            let pool = ThreadPool::new(threads);
            counters::reset();
            exec.spmv(&x, &mut y, &pool);
            let t = counters::totals();
            assert_eq!(
                t.get(Counter::UsefulFlops),
                2 * nnz as u64,
                "{variant} at {threads} threads"
            );
            // Every issued lane is either a useful nonzero or counted
            // padding — no third category.
            assert_eq!(
                t.get(Counter::FmaLanes),
                t.get(Counter::UsefulFlops) / 2 + t.get(Counter::PaddingLanes),
                "{variant} lane taxonomy"
            );
        }
    }
}

#[test]
fn counted_bytes_match_memory_model() {
    let _g = lock();
    for variant in [Variant::Z, Variant::M] {
        let (exec, _, x) = cscv_exec(variant);
        let mut y = vec![0.0f32; exec.n_rows()];
        let pool = ThreadPool::new(2);
        counters::reset();
        exec.spmv(&x, &mut y, &pool);
        let t = counters::totals();
        // Loaded (matrix + x) plus stored (y) is exactly the paper's
        // M_Rit — Block::matrix_bytes is the shared definition.
        assert_eq!(
            t.get(Counter::BytesLoaded) + t.get(Counter::BytesStored),
            exec.memory_requirement() as u64,
            "{variant} byte model"
        );
        match variant {
            Variant::Z => {
                assert_eq!(t.get(Counter::DispatchZ), 1);
                assert_eq!(t.get(Counter::MaskExpands), 0);
                assert!(t.get(Counter::BlocksZ) > 0);
            }
            Variant::M => {
                assert_eq!(t.get(Counter::DispatchM), 1);
                assert!(t.get(Counter::MaskExpands) > 0);
                assert!(t.get(Counter::BlocksM) > 0);
            }
        }
        assert!(t.get(Counter::VxgGroups) > 0);
    }
}

#[test]
fn batched_flops_scale_with_k_and_bytes_amortize() {
    let _g = lock();
    let k = 3usize;
    for variant in [Variant::Z, Variant::M] {
        let (exec, nnz, x1) = cscv_exec(variant);
        let mut x = Vec::with_capacity(k * exec.n_cols());
        for _ in 0..k {
            x.extend_from_slice(&x1);
        }
        let mut y = vec![0.0f32; k * exec.n_rows()];
        let pool = ThreadPool::new(2);
        counters::reset();
        exec.spmv_multi(&x, k, &mut y, &pool);
        let t = counters::totals();
        assert_eq!(t.get(Counter::UsefulFlops), 2 * k as u64 * nnz as u64);
        // The batched kernel revisits matrix bytes once per register-tile
        // chunk — at least one full pass, at most ceil(k/1) passes — so
        // counted traffic brackets the amortized model.
        let bytes = t.get(Counter::BytesLoaded) + t.get(Counter::BytesStored);
        assert!(bytes >= exec.memory_requirement_multi(k) as u64);
        assert!(bytes <= (k * exec.memory_requirement()) as u64);
    }
}

#[test]
fn pool_hammering_loses_no_increment() {
    let _g = lock();
    counters::reset();
    let pool = ThreadPool::new(4);
    for _ in 0..10 {
        pool.run(|_| {
            for _ in 0..1_000 {
                counters::add(Counter::VxgGroups, 1);
            }
        });
    }
    let t = counters::totals();
    assert_eq!(t.get(Counter::VxgGroups), 40_000, "exact shard fold");
    assert_eq!(t.get(Counter::PoolDispatches), 10);
    assert_eq!(t.get(Counter::PoolTasks), 40);
    assert!(t.get(Counter::PoolBusyNs) > 0);

    let spans = span::events();
    assert_eq!(
        spans
            .iter()
            .filter(|(_, e)| e.is_span && e.name == "pool.run")
            .count(),
        10
    );
    let ps = emit::pool_stats();
    assert_eq!(ps.busy_threads, 4);
    assert!(ps.imbalance >= 1.0);
}

#[test]
fn solver_timeline_matches_history() {
    let _g = lock();
    let prep = prepare::<f32>(&cscv_repro::ct::datasets::tiny());
    let mut b = vec![0.0f32; prep.csr.n_rows()];
    prep.csr.spmv_serial(&prep.x, &mut b);
    let op = SpmvOperator::csr_pair(&prep.csr);
    let pool = ThreadPool::new(2);

    counters::reset();
    let res = sirt(&op, &b, 12, 1.0, &pool);
    let t = counters::totals();
    assert_eq!(t.get(Counter::SolverIters), 12);

    let events = span::events();
    let iters: Vec<_> = events
        .iter()
        .filter(|(_, e)| !e.is_span && e.name == "sirt.iter")
        .collect();
    assert_eq!(iters.len(), 12);
    // Event residuals replay the returned history, in order.
    for (i, (_, e)) in iters.iter().enumerate() {
        let iter = e.fields.iter().find(|(k, _)| *k == "iter").unwrap().1;
        let resid = e.fields.iter().find(|(k, _)| *k == "residual").unwrap().1;
        assert_eq!(iter as usize, i);
        assert!(
            (resid - res.residual_history[i]).abs() <= 1e-12 * res.residual_history[i].max(1.0)
        );
    }
    // The whole run sits inside one solver span.
    assert!(events
        .iter()
        .any(|(_, e)| e.is_span && e.name == "solver.sirt"));
}

#[test]
fn batch_retirement_emits_swap_compaction_events() {
    let _g = lock();
    let prep = prepare::<f32>(&cscv_repro::ct::datasets::tiny());
    let m = prep.csr.n_rows();
    let k = 3usize;
    let mut b = vec![0.0f32; k * m];
    for kk in 0..k {
        let mut one = vec![0.0f32; m];
        let scaled: Vec<f32> = prep.x.iter().map(|v| v * (1.0 + kk as f32)).collect();
        prep.csr.spmv_serial(&scaled, &mut one);
        b[kk * m..(kk + 1) * m].copy_from_slice(&one);
    }
    let op = SpmvOperator::csr_pair(&prep.csr);
    let pool = ThreadPool::new(2);

    counters::reset();
    let res = sirt_batch(&op, &b, k, 500, 1.0, 1e-2, &pool);
    let t = counters::totals();
    let retired = res.iterations.iter().filter(|&&it| it < 500).count() as u64;
    assert!(retired > 0, "tolerance should retire at least one slice");
    assert_eq!(t.get(Counter::SwapCompactions), retired);

    let events = span::events();
    let retire_events = events
        .iter()
        .filter(|(_, e)| !e.is_span && e.name == "batch.retire")
        .count() as u64;
    assert_eq!(retire_events, retired);
    // Per-slice iteration events exist for every recorded residual.
    let iter_events = events
        .iter()
        .filter(|(_, e)| !e.is_span && e.name == "sirt.iter")
        .count();
    let history_len: usize = res.residual_histories.iter().map(Vec::len).sum();
    assert_eq!(iter_events, history_len);
    // Every executed sweep logs its width and wall time.
    let sweeps: Vec<_> = events
        .iter()
        .filter(|(_, e)| !e.is_span && e.name == "batch.sweep")
        .collect();
    assert_eq!(
        sweeps.len(),
        *res.iterations.iter().max().unwrap(),
        "one sweep event per executed outer iteration"
    );
    for (_, e) in &sweeps {
        let field = |k: &str| e.fields.iter().find(|(n, _)| *n == k).unwrap().1;
        assert!(field("k_active") <= k as f64);
        assert!(field("sweep_ms") >= 0.0);
    }
}

#[test]
fn chrome_trace_of_a_sirt_run_round_trips() {
    let _g = lock();
    let prep = prepare::<f32>(&cscv_repro::ct::datasets::tiny());
    let mut b = vec![0.0f32; prep.csr.n_rows()];
    prep.csr.spmv_serial(&prep.x, &mut b);
    let op = SpmvOperator::csr_pair(&prep.csr);
    let pool = ThreadPool::new(2);

    counters::reset();
    sirt(&op, &b, 5, 1.0, &pool);

    let doc = export::chrome_trace(&export::snapshot());
    // Schema round-trip: serialize, re-parse, and validate the
    // trace-event invariants Perfetto relies on.
    let back = Json::parse(&doc.to_string()).expect("chrome trace must be valid JSON");
    let events = back
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut saw_sirt_span = false;
    let mut saw_iter_instant = false;
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        assert!(["X", "i", "M"].contains(&ph), "unexpected phase {ph}");
        assert!(e.get("pid").and_then(Json::as_f64).is_some());
        assert!(e.get("tid").and_then(Json::as_f64).is_some());
        match ph {
            "X" => {
                assert!(e.get("ts").and_then(Json::as_f64).is_some());
                assert!(e.get("dur").and_then(Json::as_f64).unwrap_or(-1.0) >= 0.0);
                if e.get("name").and_then(Json::as_str) == Some("solver.sirt") {
                    saw_sirt_span = true;
                }
            }
            "i" => {
                assert_eq!(e.get("s").and_then(Json::as_str), Some("t"));
                if e.get("name").and_then(Json::as_str) == Some("sirt.iter") {
                    saw_iter_instant = true;
                    let args = e.get("args").expect("iter args");
                    assert!(args.get("iter_ms").and_then(Json::as_f64).unwrap() >= 0.0);
                    assert!(args.get("residual").and_then(Json::as_f64).is_some());
                }
            }
            _ => {}
        }
    }
    assert!(saw_sirt_span, "solver.sirt must appear as a complete event");
    assert!(saw_iter_instant, "sirt.iter must appear as an instant");

    // The flamegraph view of the same snapshot attributes self time to
    // the solver stack.
    let collapsed = export::collapsed_stacks(&export::snapshot());
    assert!(collapsed.contains("solver.sirt"), "{collapsed}");
}

#[test]
fn pool_stats_split_busy_and_idle_per_thread() {
    let _g = lock();
    counters::reset();
    let pool = ThreadPool::new(3);
    for _ in 0..5 {
        pool.run(|_| {
            std::hint::black_box((0..20_000).sum::<u64>());
        });
    }
    let ps = emit::pool_stats();
    assert_eq!(ps.busy_threads, 3);
    assert!(ps.wall_ns > 0);
    assert_eq!(ps.per_thread.len(), 3);
    let sum: u64 = ps.per_thread.iter().map(|(_, ns)| *ns).sum();
    assert_eq!(sum, ps.busy_ns_total, "per-thread split is exhaustive");
    for (name, busy) in &ps.per_thread {
        let frac = ps.busy_fraction(*busy);
        assert!((0.0..=1.0).contains(&frac), "{name}: {frac}");
    }
    // The rendered table carries the busy/idle percentages.
    let table = emit::table();
    assert!(table.contains("% busy"), "{table}");
    assert!(table.contains("% idle"), "{table}");
}
