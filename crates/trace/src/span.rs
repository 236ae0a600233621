//! Spans (timed, nestable) and point events (timestamped markers with
//! numeric fields).
//!
//! A span is RAII: [`enter`] stamps a monotonic start time and bumps the
//! calling thread's nesting depth; dropping the returned [`SpanGuard`]
//! records the completed interval into the thread's event buffer. Point
//! events ([`event`]) record a single timestamp plus `(name, f64)`
//! fields — enough for iteration timelines (`iter`, `residual`, …)
//! without dragging in an allocation-heavy attribute system.
//!
//! With the `trace` feature off, [`SpanGuard`] is a zero-sized type with
//! no `Drop` impl and both entry points are empty `#[inline(always)]`
//! bodies — the instrumentation disappears from codegen entirely.

/// One recorded span or point event (as stored and emitted).
#[derive(Debug, Clone)]
pub struct Event {
    /// Static name, e.g. `"pool.run"` or `"sirt.iter"`.
    pub name: &'static str,
    /// Span-nesting depth at record time (0 = top level).
    pub depth: u16,
    /// Start time, monotonic nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Duration in nanoseconds; `0` for point events.
    pub dur_ns: u64,
    /// `true` for spans, `false` for point events.
    pub is_span: bool,
    /// Process-unique span id (`0` = unassigned). Only spans that need
    /// cross-process parenting carry one — see [`next_span_id`].
    pub span_id: u64,
    /// Id of the causal parent span (`0` = none). Set on worker-side
    /// spans opened under a coordinator-propagated trace context.
    pub parent: u64,
    /// Numeric payload fields.
    pub fields: Vec<(&'static str, f64)>,
}

#[cfg(feature = "trace")]
mod imp {
    use super::Event;
    use crate::registry;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// RAII guard for an open span; records on drop.
    #[must_use = "a span measures the scope holding its guard"]
    pub struct SpanGuard {
        name: &'static str,
        t_ns: u64,
        depth: u16,
        span_id: u64,
        parent: u64,
    }

    // Process-global span-id allocator — a Relaxed
    // fetch_add hands out unique nonzero ids; no ordering with other
    // memory is implied or required.
    static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

    /// Allocate a fresh process-unique nonzero span id (for spans that
    /// will parent work in other processes). `0` in untraced builds.
    #[inline]
    pub fn next_span_id() -> u64 {
        NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a span on the calling thread.
    #[inline]
    pub fn enter(name: &'static str) -> SpanGuard {
        enter_ctx(name, 0, 0)
    }

    /// Open a span carrying an explicit trace context: `span_id` is this
    /// span's own id (0 = anonymous), `parent` the id of the remote span
    /// that caused it (0 = none).
    #[inline]
    pub fn enter_ctx(name: &'static str, span_id: u64, parent: u64) -> SpanGuard {
        let t_ns = registry::epoch_ns();
        let depth = registry::with_local(|l| {
            let d = l.depth.get();
            l.depth.set(d + 1);
            d
        });
        SpanGuard {
            name,
            t_ns,
            depth,
            span_id,
            parent,
        }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            // Same monotonic epoch clock as `t_ns`, so nested intervals
            // are consistent (`inner end ≤ outer end` always holds).
            let dur_ns = registry::epoch_ns().saturating_sub(self.t_ns);
            registry::with_local(|l| {
                l.depth.set(l.depth.get().saturating_sub(1));
                l.events
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .push(Event {
                        name: self.name,
                        depth: self.depth,
                        t_ns: self.t_ns,
                        dur_ns: dur_ns.max(1),
                        is_span: true,
                        span_id: self.span_id,
                        parent: self.parent,
                        fields: Vec::new(),
                    });
            });
        }
    }

    /// Record a point event with numeric fields.
    #[inline]
    pub fn event(name: &'static str, fields: &[(&'static str, f64)]) {
        let t_ns = registry::epoch_ns();
        registry::with_local(|l| {
            l.events
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(Event {
                    name,
                    depth: l.depth.get(),
                    t_ns,
                    dur_ns: 0,
                    is_span: false,
                    span_id: 0,
                    parent: 0,
                    fields: fields.to_vec(),
                });
        });
    }

    /// Snapshot all buffered events as `(thread name, event)`, sorted by
    /// start time.
    pub fn events() -> Vec<(String, Event)> {
        let mut out = registry::collect_events();
        out.sort_by_key(|(_, e)| e.t_ns);
        out
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    use super::Event;

    /// Zero-sized stand-in; holding or dropping it does nothing.
    pub struct SpanGuard {
        _priv: (),
    }

    #[inline(always)]
    pub fn enter(_name: &'static str) -> SpanGuard {
        SpanGuard { _priv: () }
    }

    #[inline(always)]
    pub fn enter_ctx(_name: &'static str, _span_id: u64, _parent: u64) -> SpanGuard {
        SpanGuard { _priv: () }
    }

    #[inline(always)]
    pub fn next_span_id() -> u64 {
        0
    }

    #[inline(always)]
    pub fn event(_name: &'static str, _fields: &[(&'static str, f64)]) {}

    #[inline(always)]
    pub fn events() -> Vec<(String, Event)> {
        Vec::new()
    }
}

pub use imp::{enter, enter_ctx, event, events, next_span_id, SpanGuard};

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(not(feature = "trace"))]
    #[test]
    fn disabled_guard_is_zero_sized_and_inert() {
        assert_eq!(std::mem::size_of::<SpanGuard>(), 0);
        assert!(!std::mem::needs_drop::<SpanGuard>());
        let _g = enter("anything");
        event("marker", &[("x", 1.0)]);
        assert!(events().is_empty());
        // The distributed-trace surface is equally inert.
        assert_eq!(next_span_id(), 0);
        let _c = enter_ctx("ctx", 1, 2);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn spans_nest_and_record_depth() {
        let _guard = crate::registry::test_lock();
        crate::counters::reset();
        {
            let _outer = enter("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = enter("inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
                event("mark", &[("iter", 3.0)]);
            }
        }
        let evs = events();
        let find = |n: &str| evs.iter().find(|(_, e)| e.name == n).unwrap();
        let (_, outer) = find("outer");
        let (_, inner) = find("inner");
        let (_, mark) = find("mark");
        assert!(outer.is_span && inner.is_span && !mark.is_span);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(mark.depth, 2, "point event inside two open spans");
        // Nesting: the inner interval lies within the outer one.
        assert!(inner.t_ns >= outer.t_ns);
        assert!(inner.t_ns + inner.dur_ns <= outer.t_ns + outer.dur_ns);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert_eq!(mark.fields, vec![("iter", 3.0)]);
    }

    #[cfg(feature = "trace")]
    #[test]
    fn span_ids_are_unique_and_context_is_recorded() {
        let _guard = crate::registry::test_lock();
        crate::counters::reset();
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        {
            let _d = enter_ctx("dispatch", a, 0);
            let _w = enter_ctx("compute", 0, a);
        }
        {
            let _plain = enter("plain");
        }
        let evs = events();
        let find = |n: &str| evs.iter().find(|(_, e)| e.name == n).unwrap();
        let (_, dispatch) = find("dispatch");
        assert_eq!((dispatch.span_id, dispatch.parent), (a, 0));
        let (_, compute) = find("compute");
        assert_eq!((compute.span_id, compute.parent), (0, a));
        let (_, plain) = find("plain");
        assert_eq!((plain.span_id, plain.parent), (0, 0));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn depth_recovers_after_drop() {
        let _guard = crate::registry::test_lock();
        crate::counters::reset();
        {
            let _a = enter("a");
        }
        {
            let _b = enter("b");
        }
        let evs = events();
        for (_, e) in evs.iter().filter(|(_, e)| e.is_span) {
            assert_eq!(e.depth, 0, "sibling spans are both top-level");
        }
    }
}
