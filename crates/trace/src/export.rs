//! Trace exporters for external analysis tooling.
//!
//! Two formats, both fed from the same event stream:
//!
//! * **Chrome trace-event JSON** ([`chrome_trace`]) — the
//!   `{"traceEvents":[…]}` document understood by Perfetto
//!   (<https://ui.perfetto.dev>) and `chrome://tracing`. Spans become
//!   complete (`"ph":"X"`) events, point events become instants
//!   (`"ph":"i"`), and per-thread metadata (`"ph":"M"`) names the
//!   timeline rows, so a traced run opens as one lane per pool thread
//!   with the solver/iteration markers overlaid.
//! * **Collapsed stacks** ([`collapsed_stacks`]) — the
//!   `frame;frame;frame count` text format consumed by flamegraph
//!   tooling (`flamegraph.pl`, inferno, speedscope). Stacks are
//!   reconstructed from span nesting (interval containment per thread)
//!   and weighted by *self* time, so a flamegraph shows where
//!   wall-clock actually went rather than double-counting parents.
//!
//! Both work from [`ExportEvent`] — an owned mirror of
//! [`crate::span::Event`] — sourced either from the live registry
//! ([`snapshot`]) or re-parsed from a previously written NDJSON trace
//! file ([`from_ndjson`]), which is how `cscv-xtask perf-report
//! --export-dir` converts archived traces offline.
//!
//! Always compiled: exporting operates on recorded data, not the hot
//! path. In untraced builds [`snapshot`] is simply empty.

use crate::json::Json;
use crate::span;

/// One owned span or point event, tagged with its thread.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportEvent {
    pub thread: String,
    pub name: String,
    /// Span-nesting depth at record time (0 = top level).
    pub depth: u16,
    /// Start time, monotonic nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Duration in nanoseconds; `0` for point events.
    pub dur_ns: u64,
    pub is_span: bool,
    /// Process-unique span id (`0` = unassigned).
    pub span_id: u64,
    /// Id of the causal parent span in another process (`0` = none).
    pub parent: u64,
    pub fields: Vec<(String, f64)>,
}

/// Snapshot the live registry's buffered events (sorted by start time).
pub fn snapshot() -> Vec<ExportEvent> {
    span::events()
        .into_iter()
        .map(|(thread, e)| ExportEvent {
            thread,
            name: e.name.to_string(),
            depth: e.depth,
            t_ns: e.t_ns,
            dur_ns: e.dur_ns,
            is_span: e.is_span,
            span_id: e.span_id,
            parent: e.parent,
            fields: e.fields.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        })
        .collect()
}

/// Keys on span/event NDJSON lines that are structure, not payload.
const STRUCTURAL_KEYS: [&str; 8] = [
    "type", "name", "thread", "depth", "t_ns", "dur_ns", "span_id", "parent",
];

/// Re-parse the span/event lines of an NDJSON trace (as written by
/// [`crate::emit::ndjson`]); other line types are skipped. Events come
/// back sorted by start time.
pub fn from_ndjson(text: &str) -> Result<Vec<ExportEvent>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ty = v.get("type").and_then(Json::as_str).unwrap_or("");
        let is_span = match ty {
            "span" => true,
            "event" => false,
            _ => continue,
        };
        let str_field = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("line {}: missing {k:?}", lineno + 1))
        };
        let bad = |k: &str| format!("line {}: bad {k:?}", lineno + 1);
        let int_field = |k: &str, required: bool| match v.get(k) {
            None if !required => Ok(0),
            None => Err(format!("line {}: missing {k:?}", lineno + 1)),
            Some(n) => n.as_u64().ok_or_else(|| bad(k)),
        };
        let fields = v
            .as_obj()
            .unwrap_or(&[])
            .iter()
            .filter(|(k, _)| !STRUCTURAL_KEYS.contains(&k.as_str()))
            .filter_map(|(k, val)| val.as_f64().map(|n| (k.clone(), n)))
            .collect();
        out.push(ExportEvent {
            thread: str_field("thread")?,
            name: str_field("name")?,
            depth: u16::try_from(int_field("depth", true)?).map_err(|_| bad("depth"))?,
            t_ns: int_field("t_ns", true)?,
            dur_ns: int_field("dur_ns", is_span)?,
            is_span,
            span_id: int_field("span_id", false)?,
            parent: int_field("parent", false)?,
            fields,
        });
    }
    out.sort_by_key(|e| e.t_ns);
    Ok(out)
}

/// Thread names in order of first appearance; tids are `index + 1`
/// (tid 0 is reserved for the process-name metadata row).
fn thread_order(events: &[ExportEvent]) -> Vec<&str> {
    let mut order: Vec<&str> = Vec::new();
    for e in events {
        if !order.contains(&e.thread.as_str()) {
            order.push(&e.thread);
        }
    }
    order
}

/// Build a Chrome trace-event JSON document from `events`.
///
/// Timestamps are microseconds (`f64`, the format's native unit); span
/// durations keep nanosecond resolution as fractional µs. Numeric
/// payload fields ride in `args`, so Perfetto surfaces `iter`,
/// `residual`, `iter_ms`, … in the selection panel. Spans carrying
/// trace-context ids also emit flow events (`ph:"s"` at a span that owns
/// an id, `ph:"f"` at a span parented to one), so Perfetto draws arrows
/// from a shard dispatch span to the worker spans it caused; the ids
/// also ride in `args` (`span_id` / `parent_span`).
pub fn chrome_trace(events: &[ExportEvent]) -> Json {
    // One process lane (pid 0); tid 0 carries the process name.
    const PID: u64 = 0;
    let threads = thread_order(events);
    let tid_of = |name: &str| threads.iter().position(|t| *t == name).unwrap_or(0) + 1;
    let mut trace_events: Vec<Json> = vec![Json::obj(vec![
        ("name", Json::from("process_name")),
        ("ph", Json::from("M")),
        ("pid", Json::from(PID)),
        ("tid", Json::from(0u64)),
        ("args", Json::obj(vec![("name", Json::from("cscv-trace"))])),
    ])];
    for t in &threads {
        trace_events.push(Json::obj(vec![
            ("name", Json::from("thread_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(PID)),
            ("tid", Json::from(tid_of(t))),
            ("args", Json::obj(vec![("name", Json::from(*t))])),
        ]));
    }
    for e in events {
        let ts_us = e.t_ns as f64 / 1e3;
        let tid = tid_of(&e.thread);
        let mut obj = vec![
            ("name", Json::from(e.name.as_str())),
            ("ph", Json::from(if e.is_span { "X" } else { "i" })),
            ("ts", Json::Num(ts_us)),
            ("pid", Json::from(PID)),
            ("tid", Json::from(tid)),
        ];
        if e.is_span {
            obj.push(("dur", Json::Num(e.dur_ns as f64 / 1e3)));
        } else {
            // Thread-scoped instant: renders as a marker on its lane.
            obj.push(("s", Json::from("t")));
        }
        let mut args: Vec<(String, Json)> = e
            .fields
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect();
        if e.span_id != 0 {
            args.push(("span_id".to_string(), Json::from(e.span_id)));
        }
        if e.parent != 0 {
            args.push(("parent_span".to_string(), Json::from(e.parent)));
        }
        if !args.is_empty() {
            obj.push(("args", Json::Obj(args)));
        }
        trace_events.push(Json::obj(obj));
        // Flow arrows: matched by (cat, id); the start binds to the
        // slice enclosing its ts, the finish (`bp:"e"`) likewise.
        if e.is_span && e.span_id != 0 {
            trace_events.push(Json::obj(vec![
                ("name", Json::from("shard.flow")),
                ("cat", Json::from("shard")),
                ("ph", Json::from("s")),
                ("id", Json::from(e.span_id)),
                ("ts", Json::Num(ts_us)),
                ("pid", Json::from(PID)),
                ("tid", Json::from(tid)),
            ]));
        }
        if e.is_span && e.parent != 0 {
            trace_events.push(Json::obj(vec![
                ("name", Json::from("shard.flow")),
                ("cat", Json::from("shard")),
                ("ph", Json::from("f")),
                ("bp", Json::from("e")),
                ("id", Json::from(e.parent)),
                ("ts", Json::Num(ts_us)),
                ("pid", Json::from(PID)),
                ("tid", Json::from(tid)),
            ]));
        }
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(trace_events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

/// Render collapsed flamegraph stacks: one `thread;outer;…;leaf N`
/// line per distinct stack, `N` = self-time in nanoseconds, sorted for
/// stable diffs. Point events carry no duration and are ignored.
pub fn collapsed_stacks(events: &[ExportEvent]) -> String {
    use std::collections::BTreeMap;
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();

    struct Frame {
        name: String,
        end_ns: u64,
        self_ns: u64,
    }

    for thread in thread_order(events) {
        // Sorted by start time; ties open the longer (outer) span first.
        let mut spans: Vec<&ExportEvent> = events
            .iter()
            .filter(|e| e.is_span && e.thread == thread)
            .collect();
        spans.sort_by(|a, b| a.t_ns.cmp(&b.t_ns).then(b.dur_ns.cmp(&a.dur_ns)));

        let mut stack: Vec<Frame> = Vec::new();
        let pop = |stack: &mut Vec<Frame>, weights: &mut BTreeMap<String, u64>| {
            let Some(frame) = stack.pop() else {
                return;
            };
            let mut key = String::from(thread);
            for f in stack.iter() {
                key.push(';');
                key.push_str(&f.name);
            }
            key.push(';');
            key.push_str(&frame.name);
            *weights.entry(key).or_insert(0) += frame.self_ns;
        };
        for s in spans {
            while stack.last().is_some_and(|f| f.end_ns <= s.t_ns) {
                pop(&mut stack, &mut weights);
            }
            if let Some(parent) = stack.last_mut() {
                parent.self_ns = parent.self_ns.saturating_sub(s.dur_ns);
            }
            stack.push(Frame {
                name: s.name.clone(),
                end_ns: s.t_ns.saturating_add(s.dur_ns),
                self_ns: s.dur_ns,
            });
        }
        while !stack.is_empty() {
            pop(&mut stack, &mut weights);
        }
    }

    let mut out = String::new();
    for (stack, ns) in &weights {
        if *ns > 0 {
            out.push_str(&format!("{stack} {ns}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(thread: &str, name: &str, depth: u16, t_ns: u64, dur_ns: u64) -> ExportEvent {
        ExportEvent {
            thread: thread.into(),
            name: name.into(),
            depth,
            t_ns,
            dur_ns,
            is_span: true,
            span_id: 0,
            parent: 0,
            fields: Vec::new(),
        }
    }

    fn sample_events() -> Vec<ExportEvent> {
        vec![
            span("main", "outer", 0, 100, 1000),
            span("main", "inner", 1, 200, 300),
            span("worker-0", "task", 0, 150, 400),
            ExportEvent {
                thread: "main".into(),
                name: "mark".into(),
                depth: 2,
                t_ns: 250,
                dur_ns: 0,
                is_span: false,
                span_id: 0,
                parent: 0,
                fields: vec![("iter".into(), 3.0), ("residual".into(), 0.5)],
            },
        ]
    }

    #[test]
    fn chrome_trace_schema_and_units() {
        let doc = chrome_trace(&sample_events());
        let back = Json::parse(&doc.to_string()).unwrap();
        let evs = back.get("traceEvents").unwrap().as_arr().unwrap();
        // 1 process + 2 thread metadata + 4 events.
        assert_eq!(evs.len(), 7);
        for e in evs {
            for key in ["name", "ph", "pid", "tid"] {
                assert!(e.get(key).is_some(), "every event has {key}");
            }
        }
        let outer = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("outer"))
            .unwrap();
        assert_eq!(outer.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(outer.get("ts").and_then(Json::as_f64), Some(0.1)); // 100 ns = 0.1 µs
        assert_eq!(outer.get("dur").and_then(Json::as_f64), Some(1.0));
        let mark = evs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("mark"))
            .unwrap();
        assert_eq!(mark.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(mark.get("s").and_then(Json::as_str), Some("t"));
        assert_eq!(
            mark.get("args").unwrap().get("iter").and_then(Json::as_f64),
            Some(3.0)
        );
        // main and worker-0 sit on distinct named lanes.
        let tids: Vec<f64> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .map(|e| e.get("tid").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(tids.len(), 2);
        assert_ne!(tids[0], tids[1]);
    }

    /// A sharded run under `Launch::Threads` records coordinator and
    /// worker spans in one registry, so one `chrome_trace` document holds
    /// both: the worker span sits on its own lane, keeps its timestamp
    /// (one clock, no per-process offset), and is joined to its dispatch
    /// span by the trace-context ids.
    #[test]
    fn merged_trace_lanes_offsets_and_flows() {
        // Trace-context ids: a dispatch span owning id 7 and a worker
        // span parented to it ride in `args` and are joined by a flow
        // arrow, an `s` on the dispatch lane and an `f` on the worker's.
        let mut dispatch = span("main", "shard.dispatch.spmv", 0, 2_000, 5_000);
        dispatch.span_id = 7;
        let mut compute = span("cscv-shard-serve-0", "shard.worker.spmv", 0, 2_500, 2_000);
        compute.parent = 7;
        let doc = Json::parse(&chrome_trace(&[dispatch, compute]).to_string()).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        for e in evs {
            for key in ["name", "ph", "pid", "tid"] {
                assert!(e.get(key).is_some(), "every event has {key}");
            }
        }
        let arg = |name: &str, key: &str| {
            evs.iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|e| e.get("args"))
                .and_then(|a| a.get(key))
                .and_then(Json::as_f64)
        };
        assert_eq!(arg("shard.dispatch.spmv", "span_id"), Some(7.0));
        assert_eq!(arg("shard.worker.spmv", "parent_span"), Some(7.0));
        let flow = |ph: &str| {
            evs.iter()
                .find(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .unwrap()
        };
        let (flow_s, flow_f) = (flow("s"), flow("f"));
        assert_eq!(flow_s.get("id").and_then(Json::as_f64), Some(7.0));
        assert_eq!(flow_f.get("id").and_then(Json::as_f64), Some(7.0));
        assert_ne!(flow_s.get("tid"), flow_f.get("tid"));
        assert_eq!(flow_f.get("bp").and_then(Json::as_str), Some("e"));
        assert_eq!(flow_f.get("ts").and_then(Json::as_f64), Some(2.5));
    }

    #[test]
    fn collapsed_stacks_self_time() {
        let out = collapsed_stacks(&sample_events());
        let mut lines: std::collections::BTreeMap<&str, u64> = out
            .lines()
            .map(|l| {
                let (stack, ns) = l.rsplit_once(' ').unwrap();
                (stack, ns.parse().unwrap())
            })
            .collect();
        // outer's self time excludes the nested inner span.
        assert_eq!(lines.remove("main;outer"), Some(700));
        assert_eq!(lines.remove("main;outer;inner"), Some(300));
        assert_eq!(lines.remove("worker-0;task"), Some(400));
        assert!(lines.is_empty(), "unexpected stacks: {lines:?}");
        // Total weight equals total wall time per thread (no double count).
    }

    #[test]
    fn collapsed_stacks_sequential_siblings_share_one_line() {
        let evs = vec![
            span("t", "parent", 0, 0, 1000),
            span("t", "child", 1, 100, 200),
            span("t", "child", 1, 400, 300),
        ];
        let out = collapsed_stacks(&evs);
        assert!(out.contains("t;parent;child 500\n"), "{out}");
        assert!(out.contains("t;parent 500\n"), "{out}");
    }

    #[test]
    fn ndjson_round_trip() {
        let ndjson = "\
{\"type\":\"meta\",\"enabled\":true,\"threads\":1}\n\
{\"type\":\"counters\",\"fma_lanes\":12}\n\
{\"type\":\"span\",\"name\":\"outer\",\"thread\":\"main\",\"depth\":0,\"t_ns\":100,\"dur_ns\":1000}\n\
{\"type\":\"event\",\"name\":\"mark\",\"thread\":\"main\",\"depth\":1,\"t_ns\":250,\"iter\":3,\"residual\":0.5}\n";
        let evs = from_ndjson(ndjson).unwrap();
        assert_eq!(evs.len(), 2, "meta/counters lines are skipped");
        assert_eq!(evs[0].name, "outer");
        assert!(evs[0].is_span);
        assert_eq!(evs[0].dur_ns, 1000);
        assert_eq!(evs[1].name, "mark");
        assert!(!evs[1].is_span);
        assert_eq!(
            evs[1].fields,
            vec![("iter".to_string(), 3.0), ("residual".to_string(), 0.5)]
        );
        // And the parsed events drive both exporters.
        let doc = chrome_trace(&evs);
        assert!(doc.to_string().contains("\"traceEvents\""));
        assert!(collapsed_stacks(&evs).contains("main;outer 1000\n"));
        // Malformed JSON is an error, not a panic.
        assert!(from_ndjson("{\"type\":\"span\",").is_err());
        // A span line missing dur_ns is an error; events don't need it.
        assert!(from_ndjson(
            "{\"type\":\"span\",\"name\":\"x\",\"thread\":\"t\",\"depth\":0,\"t_ns\":1}"
        )
        .is_err());
        // An integer field that is negative, fractional or out of range
        // is a typed error naming the key, never a silent cast.
        for (bad, key) in [
            ("\"depth\":0,\"t_ns\":-5", "t_ns"),
            ("\"depth\":70000,\"t_ns\":1", "depth"),
            ("\"depth\":0,\"t_ns\":1.5", "t_ns"),
        ] {
            let line = format!("{{\"type\":\"event\",\"name\":\"x\",\"thread\":\"t\",{bad}}}");
            assert_eq!(
                from_ndjson(&line).unwrap_err(),
                format!("line 1: bad {key:?}"),
                "{line}"
            );
        }
    }

    #[test]
    fn trace_context_ids_survive_ndjson() {
        let ndjson = "\
{\"type\":\"span\",\"name\":\"d\",\"thread\":\"main\",\"depth\":0,\"t_ns\":10,\"dur_ns\":50,\"span_id\":9}\n\
{\"type\":\"span\",\"name\":\"w\",\"thread\":\"s0\",\"depth\":0,\"t_ns\":20,\"dur_ns\":10,\"parent\":9}\n";
        let evs = from_ndjson(ndjson).unwrap();
        assert_eq!(evs[0].span_id, 9);
        assert_eq!(evs[0].parent, 0);
        assert_eq!(evs[1].span_id, 0);
        assert_eq!(evs[1].parent, 9);
        // Ids are structural, not payload fields.
        assert!(evs[0].fields.is_empty());
        assert!(evs[1].fields.is_empty());
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn untraced_snapshot_is_empty() {
        assert!(snapshot().is_empty());
        let doc = chrome_trace(&snapshot());
        // Still a valid document with just the process metadata row.
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 1);
    }
}
