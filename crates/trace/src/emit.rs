//! Emitters: NDJSON (machine-readable) and an aligned text table
//! (human-readable), both fed from the same registry snapshot.
//!
//! NDJSON — one JSON object per line, each with a `type` discriminator —
//! is the format the bench manifests and the CI perf gate consume:
//! appendable, greppable, parseable line-by-line without a document
//! parser. Layout:
//!
//! ```text
//! {"type":"meta","enabled":true,"threads":3}
//! {"type":"counters","fma_lanes":1184,"useful_flops":1924,...}
//! {"type":"thread","thread":"cscv-worker-0","pool_busy_ns":81233,...}
//! {"type":"span","name":"pool.run","thread":"main","depth":0,"t_ns":12,"dur_ns":81954}
//! {"type":"event","name":"sirt.iter","thread":"main","depth":1,"t_ns":90211,"iter":3,"residual":0.0021}
//! ```
//!
//! Both emitters degrade gracefully in untraced builds: the NDJSON
//! output is a single `{"type":"meta","enabled":false}` line and the
//! table states that tracing is off.

use crate::counters::{self, Counter};
use crate::hist::exact_percentile;
use crate::json::Json;
use crate::span;
use std::io::Write as _;

/// Render the full trace state as NDJSON.
pub fn ndjson() -> String {
    let totals = counters::totals();
    let threads = counters::per_thread();
    let mut out = String::new();
    let meta = Json::obj(vec![
        ("type", Json::from("meta")),
        ("enabled", Json::from(crate::ENABLED)),
        ("threads", Json::from(threads.len())),
    ]);
    out.push_str(&meta.to_string());
    out.push('\n');
    if !crate::ENABLED {
        return out;
    }

    let mut line = vec![("type".to_string(), Json::from("counters"))];
    line.extend(totals.iter().map(|(k, v)| (k.to_string(), Json::from(v))));
    out.push_str(&Json::Obj(line).to_string());
    out.push('\n');

    for (name, t) in &threads {
        let mut line = vec![
            ("type".to_string(), Json::from("thread")),
            ("thread".to_string(), Json::from(name.as_str())),
        ];
        // Only the counters this thread actually touched, to keep the
        // per-thread lines short.
        line.extend(
            t.iter()
                .filter(|(_, v)| *v > 0)
                .map(|(k, v)| (k.to_string(), Json::from(v))),
        );
        out.push_str(&Json::Obj(line).to_string());
        out.push('\n');
    }

    out.push_str(&events_ndjson(&span::events()));
    out
}

/// Render the span/event lines of [`ndjson`], the ones
/// [`crate::export::from_ndjson`] parses back.
fn events_ndjson(events: &[(String, span::Event)]) -> String {
    let mut out = String::new();
    for (thread, e) in events {
        let mut line = vec![
            (
                "type".to_string(),
                Json::from(if e.is_span { "span" } else { "event" }),
            ),
            ("name".to_string(), Json::from(e.name)),
            ("thread".to_string(), Json::from(thread.as_str())),
            ("depth".to_string(), Json::from(e.depth as u64)),
            ("t_ns".to_string(), Json::from(e.t_ns)),
        ];
        if e.is_span {
            line.push(("dur_ns".to_string(), Json::from(e.dur_ns)));
        }
        // Trace-context ids are emitted only when set, so ordinary
        // single-process traces keep their compact lines.
        if e.span_id != 0 {
            line.push(("span_id".to_string(), Json::from(e.span_id)));
        }
        if e.parent != 0 {
            line.push(("parent".to_string(), Json::from(e.parent)));
        }
        line.extend(e.fields.iter().map(|(k, v)| (k.to_string(), Json::Num(*v))));
        out.push_str(&Json::Obj(line).to_string());
        out.push('\n');
    }
    out
}

/// Write [`ndjson`] to a file (parent directories created).
pub fn write_ndjson(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(ndjson().as_bytes())
}

/// Pool-level derived statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolStats {
    /// Threads that executed at least one pool task.
    pub busy_threads: usize,
    /// Total busy nanoseconds over all threads.
    pub busy_ns_total: u64,
    /// Max-over-mean busy time across active threads (1.0 = perfectly
    /// balanced; the paper's near-perfect nnz balancing should keep this
    /// close to 1).
    pub imbalance: f64,
    /// Wall-clock span of recorded activity in nanoseconds: first span
    /// start to last span end over every recorded event. When no spans
    /// were recorded (counters-only traces) this falls back to the
    /// longest per-thread busy time, so busy fractions stay ≤ 1.
    pub wall_ns: u64,
    /// Busy nanoseconds per active thread `(thread name, busy ns)`, in
    /// shard-registration order.
    pub per_thread: Vec<(String, u64)>,
}

impl PoolStats {
    /// Fraction of the observed wall span a thread spent busy
    /// (`busy_ns / wall_ns`, clamped to `[0, 1]`; `0.0` without a wall).
    pub fn busy_fraction(&self, busy_ns: u64) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        (busy_ns as f64 / self.wall_ns as f64).clamp(0.0, 1.0)
    }
}

/// Compute pool balance statistics from the per-thread shards and the
/// recorded span timeline.
pub fn pool_stats() -> PoolStats {
    let per = counters::per_thread();
    let per_thread: Vec<(String, u64)> = per
        .iter()
        .map(|(name, t)| (name.clone(), t.get(Counter::PoolBusyNs)))
        .filter(|&(_, b)| b > 0)
        .collect();
    let events = span::events();
    let start = events.iter().map(|(_, e)| e.t_ns).min();
    let end = events.iter().map(|(_, e)| e.t_ns + e.dur_ns).max();
    let max_busy = per_thread.iter().map(|&(_, b)| b).max().unwrap_or(0);
    let wall_ns = match (start, end) {
        // Span-derived wall, but never shorter than the busiest thread
        // (events may have been drained between dispatch batches).
        (Some(s), Some(e)) => (e - s).max(max_busy),
        _ => max_busy,
    };
    if per_thread.is_empty() {
        return PoolStats {
            busy_threads: 0,
            busy_ns_total: 0,
            imbalance: 1.0,
            wall_ns,
            per_thread,
        };
    }
    let total: u64 = per_thread.iter().map(|&(_, b)| b).sum();
    let mean = total as f64 / per_thread.len() as f64;
    PoolStats {
        busy_threads: per_thread.len(),
        busy_ns_total: total,
        imbalance: if mean > 0.0 {
            max_busy as f64 / mean
        } else {
            1.0
        },
        wall_ns,
        per_thread,
    }
}

/// Render a human-readable report: counters, derived ratios, pool
/// balance, and per-span aggregates.
pub fn table() -> String {
    if !crate::ENABLED {
        return "trace: disabled (build with --features trace)\n".to_string();
    }
    let totals = counters::totals();
    let mut out = String::new();
    out.push_str("== trace counters ==\n");
    let width = counters::ALL
        .iter()
        .map(|c| c.name().len())
        .max()
        .unwrap_or(0);
    for (name, v) in totals.iter() {
        out.push_str(&format!("  {name:<width$}  {v}\n"));
    }

    out.push_str("== derived ==\n");
    push_ratio(
        &mut out,
        "padding rate (lanes/useful nnz)",
        totals.get(Counter::PaddingLanes) as f64,
        totals.get(Counter::UsefulFlops) as f64 / 2.0,
    );
    push_ratio(
        &mut out,
        "bytes per useful flop",
        (totals.get(Counter::BytesLoaded) + totals.get(Counter::BytesStored)) as f64,
        totals.get(Counter::UsefulFlops) as f64,
    );
    let ps = pool_stats();
    out.push_str(&format!(
        "  pool: {} busy thread(s), {:.3} ms busy total, imbalance {:.3}, wall {:.3} ms\n",
        ps.busy_threads,
        ps.busy_ns_total as f64 / 1e6,
        ps.imbalance,
        ps.wall_ns as f64 / 1e6,
    ));
    for (name, busy) in &ps.per_thread {
        let f = ps.busy_fraction(*busy);
        out.push_str(&format!(
            "    {:<20} busy {:>10.3} ms  ({:>5.1}% busy / {:>5.1}% idle)\n",
            name,
            *busy as f64 / 1e6,
            f * 100.0,
            (1.0 - f) * 100.0
        ));
    }

    // Per-span aggregates with nearest-rank latency percentiles.
    let events = span::events();
    let mut names: Vec<&'static str> = Vec::new();
    for (_, e) in events.iter().filter(|(_, e)| e.is_span) {
        if !names.contains(&e.name) {
            names.push(e.name);
        }
    }
    if !names.is_empty() {
        out.push_str("== spans ==\n");
        out.push_str(&format!(
            "  {:<24} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            "name", "count", "total ms", "p50 us", "p90 us", "p99 us", "max us"
        ));
        for name in names {
            let mut sorted: Vec<f64> = events
                .iter()
                .filter(|(_, e)| e.is_span && e.name == name)
                .map(|(_, e)| e.dur_ns as f64)
                .collect();
            sorted.sort_by(f64::total_cmp);
            let total: f64 = sorted.iter().sum();
            let us = |p: f64| exact_percentile(&sorted, p) / 1e3;
            out.push_str(&format!(
                "  {:<24} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>12.3} {:>12.3}\n",
                name,
                sorted.len(),
                total / 1e6,
                us(50.0),
                us(90.0),
                us(99.0),
                us(100.0)
            ));
        }
    }
    let n_points = events.iter().filter(|(_, e)| !e.is_span).count();
    if n_points > 0 {
        out.push_str(&format!("== events: {n_points} point event(s) ==\n"));
    }
    out
}

fn push_ratio(out: &mut String, label: &str, num: f64, den: f64) {
    if den > 0.0 {
        out.push_str(&format!("  {label}: {:.4}\n", num / den));
    }
}

/// Honor `CSCV_TRACE_OUT`: if set, write NDJSON there; otherwise print
/// the table to stderr. No-op (beyond a single meta line check) in
/// untraced builds — drivers can call this unconditionally at exit.
pub fn report_at_exit() {
    if !crate::ENABLED {
        return;
    }
    match std::env::var("CSCV_TRACE_OUT") {
        Ok(path) if !path.is_empty() => {
            if let Err(e) = write_ndjson(std::path::Path::new(&path)) {
                eprintln!("trace: failed to write {path}: {e}");
            } else {
                eprintln!("trace: wrote {path}");
            }
        }
        _ => eprintln!("{}", table()),
    }
}

/// RAII handle that emits the end-of-run trace report on drop
/// (including on panic-unwind) — see [`report_at_exit`] for the
/// `CSCV_TRACE_OUT` routing. Install it first thing in `main`:
///
/// ```
/// let _trace = cscv_trace::report_guard();
/// // … solver / benchmark work …
/// ```
///
/// Untraced builds get a zero-cost no-op, so solvers, examples, and
/// drivers can install the guard unconditionally.
#[must_use = "the report is emitted when the guard drops"]
pub struct ReportGuard {
    _priv: (),
}

impl Drop for ReportGuard {
    fn drop(&mut self) {
        report_at_exit();
    }
}

/// Install the end-of-run trace reporter (see [`ReportGuard`]).
pub fn report_guard() -> ReportGuard {
    ReportGuard { _priv: () }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "trace"))]
    #[test]
    fn disabled_emitters_report_disabled() {
        let nd = ndjson();
        assert_eq!(nd.lines().count(), 1);
        assert!(nd.contains("\"enabled\":false"));
        assert!(table().contains("disabled"));
        let ps = pool_stats();
        assert_eq!(ps.busy_threads, 0);
        assert_eq!(ps.imbalance, 1.0);
        assert_eq!(ps.wall_ns, 0);
        assert!(ps.per_thread.is_empty());
        assert_eq!(ps.busy_fraction(123), 0.0);
        // The report guard is inert but constructible.
        let _g = report_guard();
    }

    #[cfg(feature = "trace")]
    #[test]
    fn pool_stats_busy_idle_split_per_thread() {
        let _guard = crate::registry::test_lock();
        counters::reset();
        // Two named worker threads with a 3:1 busy split, under a wall
        // span established by an enclosing span on this thread.
        {
            let _wall = span::enter("pool.test-wall");
            std::thread::scope(|s| {
                for (name, busy) in [("ps-worker-0", 3_000u64), ("ps-worker-1", 1_000u64)] {
                    std::thread::Builder::new()
                        .name(name.to_string())
                        .spawn_scoped(s, move || {
                            counters::add(Counter::PoolBusyNs, busy);
                        })
                        .unwrap();
                }
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let ps = pool_stats();
        assert_eq!(ps.busy_threads, 2);
        assert_eq!(ps.busy_ns_total, 4_000);
        // imbalance = max/mean = 3000/2000.
        assert!((ps.imbalance - 1.5).abs() < 1e-12, "{}", ps.imbalance);
        // Wall comes from the enclosing span (≥ 1 ms sleep ≫ busy ns).
        assert!(ps.wall_ns >= 1_000_000, "wall {}", ps.wall_ns);
        let busy0 = ps
            .per_thread
            .iter()
            .find(|(n, _)| n == "ps-worker-0")
            .map(|&(_, b)| b)
            .unwrap();
        assert_eq!(busy0, 3_000);
        let f = ps.busy_fraction(busy0);
        assert!(f > 0.0 && f < 1.0, "busy fraction {f}");
        // Idle complement shows up in the rendered table.
        let t = table();
        assert!(t.contains("ps-worker-0"), "{t}");
        assert!(t.contains("% idle"), "{t}");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn pool_stats_wall_falls_back_to_busiest_thread() {
        let _guard = crate::registry::test_lock();
        counters::reset();
        counters::add(Counter::PoolBusyNs, 5_000);
        // No spans recorded: wall = max busy, fraction saturates at 1.
        let ps = pool_stats();
        assert_eq!(ps.wall_ns, 5_000);
        assert_eq!(ps.busy_fraction(5_000), 1.0);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn ndjson_lines_parse_and_cover_state() {
        let _guard = crate::registry::test_lock();
        counters::reset();
        counters::add(Counter::FmaLanes, 64);
        counters::add(Counter::PoolBusyNs, 1000);
        {
            let _s = span::enter("emit.test");
            span::event("emit.point", &[("iter", 1.0)]);
        }
        let nd = ndjson();
        let mut kinds = Vec::new();
        for line in nd.lines() {
            let v = Json::parse(line).expect("every NDJSON line parses");
            kinds.push(v.get("type").unwrap().as_str().unwrap().to_string());
        }
        for want in ["meta", "counters", "thread", "span", "event"] {
            assert!(kinds.iter().any(|k| k == want), "missing {want} line");
        }
        // The counters line carries the values we added.
        let counters_line = nd
            .lines()
            .find(|l| l.contains("\"type\":\"counters\""))
            .unwrap();
        let v = Json::parse(counters_line).unwrap();
        assert_eq!(v.get("fma_lanes").unwrap().as_f64(), Some(64.0));

        let t = table();
        assert!(t.contains("fma_lanes"));
        assert!(t.contains("emit.test"));

        let ps = pool_stats();
        assert_eq!(ps.busy_threads, 1);
        assert!((ps.imbalance - 1.0).abs() < 1e-12);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn span_rows_count_every_span_and_report_exact_percentiles() {
        let _guard = crate::registry::test_lock();
        counters::reset();
        for _ in 0..5 {
            let _s = span::enter("emit.rows");
        }
        let mut durs: Vec<f64> = span::events()
            .iter()
            .filter(|(_, e)| e.name == "emit.rows")
            .map(|(_, e)| e.dur_ns as f64)
            .collect();
        durs.sort_by(f64::total_cmp);
        let t = table();
        let row: Vec<&str> = t
            .lines()
            .find(|l| l.trim_start().starts_with("emit.rows "))
            .unwrap()
            .split_whitespace()
            .collect();
        // name, count, total ms, p50/p90/p99/max us: every span counts,
        // whatever its duration, and each column is a recorded sample.
        assert_eq!(row[1], "5", "{t}");
        let us = |p: f64| format!("{:.3}", exact_percentile(&durs, p) / 1e3);
        assert_eq!(row[3..], [us(50.0), us(90.0), us(99.0), us(100.0)], "{t}");
    }

    #[cfg(feature = "trace")]
    #[test]
    fn events_ndjson_chunks_carry_trace_context() {
        let _guard = crate::registry::test_lock();
        counters::reset();
        let id = span::next_span_id();
        {
            let _d = span::enter_ctx("chunk.dispatch", id, 0);
            let _w = span::enter_ctx("chunk.compute", 0, id);
        }
        let chunk = events_ndjson(&span::events());
        // Context ids appear exactly on the spans that carry them, and
        // the chunk re-parses through the exporter.
        let evs = crate::export::from_ndjson(&chunk).unwrap();
        let dispatch = evs.iter().find(|e| e.name == "chunk.dispatch").unwrap();
        assert_eq!((dispatch.span_id, dispatch.parent), (id, 0));
        let compute = evs.iter().find(|e| e.name == "chunk.compute").unwrap();
        assert_eq!((compute.span_id, compute.parent), (0, id));
        // Ordinary spans keep their compact lines (no id keys at all).
        let plain_line = chunk.lines().find(|l| l.contains("chunk.compute")).unwrap();
        assert!(!plain_line.contains("\"span_id\""));
        assert!(plain_line.contains("\"parent\""));
    }

    #[cfg(feature = "trace")]
    #[test]
    #[cfg_attr(miri, ignore = "file IO is unsupported under Miri isolation")]
    fn write_ndjson_creates_parent_dirs() {
        let _guard = crate::registry::test_lock();
        let dir = std::env::temp_dir().join(format!("cscv-trace-test-{}", std::process::id()));
        let path = dir.join("nested").join("trace.ndjson");
        write_ndjson(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("{\"type\":\"meta\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
