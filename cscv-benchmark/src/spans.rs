//! The benchmark's own tracing: spans recorded around calls into the
//! library's public API, kept in memory and written out at exit.
//!
//! Spans are recorded on the benchmark's main thread only (the solvers
//! call their operator from the calling thread), so they nest properly
//! and a span's self time is its duration minus its direct children.

use cscv_recon::LinearOperator;
use cscv_sparse::{Scalar, ThreadPool};
use cscv_trace::export::{chrome_trace, ExportEvent};
use cscv_trace::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub depth: u16,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    depth: u16,
}

/// In-memory span store. `Sync` so a [`TimedOp`] holding it can serve as
/// a [`LinearOperator`].
pub struct Recorder {
    epoch: Instant,
    state: Mutex<State>,
}

/// An open span; records itself when ended or dropped.
pub struct Guard<'a> {
    rec: &'a Recorder,
    name: &'static str,
    start: Instant,
    depth: u16,
}

impl Guard<'_> {
    /// Close the span and return its duration in seconds.
    pub fn end(self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        let start_ns = self.start.duration_since(self.rec.epoch).as_nanos() as u64;
        // A poisoned lock means a panic elsewhere already; losing one span
        // is better than a second panic during unwinding.
        if let Ok(mut st) = self.rec.state.lock() {
            st.depth = st.depth.saturating_sub(1);
            st.spans.push(Span {
                name: self.name,
                start_ns,
                dur_ns,
                depth: self.depth,
            });
        }
    }
}

/// Per-name totals of a recording.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    pub count: usize,
    pub total_s: f64,
    pub self_s: f64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// Open a span named `name`.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let mut st = self.state.lock().expect("recorder lock");
        let depth = st.depth;
        st.depth += 1;
        Guard {
            rec: self,
            name,
            start: Instant::now(),
            depth,
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _g = self.span(name);
        f()
    }

    /// Seconds since the recorder was created.
    pub fn wall_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// All finished spans, ordered by start time (parents before their
    /// children).
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.state.lock().expect("recorder lock").spans.clone();
        spans.sort_by_key(|s| (s.start_ns, s.depth));
        spans
    }

    /// Durations in seconds of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .collect()
    }
}

/// Count, total time and self time per span name.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns = vec![0u64; spans.len()];
    // Open ancestors of the current span: (index, end).
    let mut stack: Vec<(usize, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        while stack.last().is_some_and(|&(_, end)| end <= s.start_ns) {
            stack.pop();
        }
        if let Some(&(parent, _)) = stack.last() {
            child_ns[parent] += s.dur_ns;
        }
        stack.push((i, s.start_ns + s.dur_ns));
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let l = out.entry(s.name).or_default();
        l.count += 1;
        l.total_s += s.dur_ns as f64 * 1e-9;
        l.self_s += s.dur_ns.saturating_sub(child) as f64 * 1e-9;
    }
    out
}

/// The layer table as JSON rows: one per span name plus an
/// `unattributed` row, so the self times add up to `wall_s`.
pub fn layers_json(spans: &[Span], wall_s: f64) -> Json {
    let mut rows: Vec<Json> = layers(spans)
        .iter()
        .map(|(name, l)| {
            Json::obj(vec![
                ("name", (*name).into()),
                ("count", (l.count as u64).into()),
                ("total_s", Json::Num(l.total_s)),
                ("self_s", Json::Num(l.self_s)),
                ("self_frac", Json::Num(l.self_s / wall_s)),
            ])
        })
        .collect();
    let frac = unattributed_frac(spans, wall_s);
    rows.push(Json::obj(vec![
        ("name", "unattributed".into()),
        ("self_s", Json::Num(frac * wall_s)),
        ("self_frac", Json::Num(frac)),
    ]));
    Json::Arr(rows)
}

/// Share of `wall_s` that no top-level span covers.
pub fn unattributed_frac(spans: &[Span], wall_s: f64) -> f64 {
    let covered: f64 = spans
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| s.dur_ns as f64 * 1e-9)
        .sum();
    (wall_s - covered) / wall_s
}

/// Chrome trace-event document of the recording.
pub fn chrome_json(spans: &[Span]) -> Json {
    let events: Vec<ExportEvent> = spans
        .iter()
        .map(|s| ExportEvent {
            thread: "main".into(),
            name: s.name.into(),
            depth: s.depth,
            t_ns: s.start_ns,
            dur_ns: s.dur_ns,
            is_span: true,
            span_id: 0,
            parent: 0,
            fields: Vec::new(),
        })
        .collect();
    chrome_trace(&events)
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    cscv_trace::hist::exact_percentile(&sorted, p)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Span names a [`TimedOp`] records its four products under.
#[derive(Debug, Clone, Copy)]
pub struct OpNames {
    pub apply: &'static str,
    pub apply_t: &'static str,
    pub apply_multi: &'static str,
    pub apply_t_multi: &'static str,
}

/// A [`LinearOperator`] that records a span around every product of the
/// operator it wraps.
pub struct TimedOp<'a, T: Scalar> {
    pub inner: &'a dyn LinearOperator<T>,
    pub rec: &'a Recorder,
    pub names: OpNames,
}

impl<T: Scalar> LinearOperator<T> for TimedOp<'_, T> {
    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }
    fn n_cols(&self) -> usize {
        self.inner.n_cols()
    }
    fn apply(&self, x: &[T], y: &mut [T], pool: &ThreadPool) {
        self.rec
            .time(self.names.apply, || self.inner.apply(x, y, pool))
    }
    fn apply_transpose(&self, y: &[T], x: &mut [T], pool: &ThreadPool) {
        self.rec.time(self.names.apply_t, || {
            self.inner.apply_transpose(y, x, pool)
        })
    }
    fn apply_multi(&self, x: &[T], k: usize, y: &mut [T], pool: &ThreadPool) {
        self.rec.time(self.names.apply_multi, || {
            self.inner.apply_multi(x, k, y, pool)
        })
    }
    fn apply_transpose_multi(&self, y: &[T], k: usize, x: &mut [T], pool: &ThreadPool) {
        self.rec.time(self.names.apply_t_multi, || {
            self.inner.apply_transpose_multi(y, k, x, pool)
        })
    }
    fn abs_row_sums(&self, pool: &ThreadPool) -> Vec<T> {
        self.inner.abs_row_sums(pool)
    }
    fn abs_col_sums(&self, pool: &ThreadPool) -> Vec<T> {
        self.inner.abs_col_sums(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, dur_ns: u64, depth: u16) -> Span {
        Span {
            name,
            start_ns,
            dur_ns,
            depth,
        }
    }

    #[test]
    fn percentiles_follow_the_nearest_rank_rule() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 5.0), 15.0);
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        // Rank ⌈p·n⌉: the median of an even count is the lower middle.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(
            percentile(&(1..=10).map(f64::from).collect::<Vec<_>>(), 90.0),
            9.0
        );
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_times_and_unattributed_add_up_to_wall() {
        // root [0, 100) with children [10, 40) and [50, 60); the first
        // child has a child [20, 30); a second root [100, 150).
        let spans = vec![
            span("root", 0, 100, 0),
            span("a", 10, 30, 1),
            span("leaf", 20, 10, 2),
            span("b", 50, 10, 1),
            span("root", 100, 50, 0),
        ];
        let t = layers(&spans);
        assert_eq!(t["root"].count, 2);
        assert!((t["root"].self_s - 110e-9).abs() < 1e-15);
        assert!((t["a"].self_s - 20e-9).abs() < 1e-15);
        assert!((t["leaf"].self_s - 10e-9).abs() < 1e-15);
        let wall = 200e-9;
        let sum: f64 = t.values().map(|l| l.self_s).sum();
        assert!((sum + unattributed_frac(&spans, wall) * wall - wall).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_spans() {
        let rec = Recorder::new();
        {
            let _outer = rec.span("outer");
            rec.time("inner", || std::hint::black_box(1 + 1));
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].depth), ("outer", 0));
        assert_eq!((spans[1].name, spans[1].depth), ("inner", 1));
        assert_eq!(rec.durations("inner").len(), 1);
    }
}
