//! Per-thread shard registration and aggregation (trace-on builds only).
//!
//! One global mutex-protected slot list; each thread takes that lock
//! exactly once (at its first instrumented call) to register its counter
//! array and event buffer, then works lock-free on its own shard.
//! Shards are `Arc`-held by both the registry and the thread-local
//! handle, so a thread exiting never invalidates aggregation.

use crate::counters::N_COUNTERS;
use crate::span::Event;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// Per-thread trace counters — each thread bumps only
// its own shard with Relaxed fetch_add and aggregation folds whatever it
// observes; no cross-thread ordering protocol exists or is needed.
pub(crate) type CounterShard = [AtomicU64; N_COUNTERS];

struct Slot {
    thread: String,
    counters: Arc<CounterShard>,
    events: Arc<Mutex<Vec<Event>>>,
}

static SLOTS: Mutex<Vec<Slot>> = Mutex::new(Vec::new());

fn slots() -> MutexGuard<'static, Vec<Slot>> {
    // A panic while holding the lock leaves only a fully-written or
    // fully-cleared list, so poisoning is recoverable.
    SLOTS.lock().unwrap_or_else(|p| p.into_inner())
}

/// The calling thread's private handle: its shard, its event buffer,
/// and its current span-nesting depth.
pub(crate) struct LocalHandle {
    pub counters: Arc<CounterShard>,
    pub events: Arc<Mutex<Vec<Event>>>,
    pub depth: Cell<u16>,
}

thread_local! {
    static LOCAL: LocalHandle = register();
}

fn register() -> LocalHandle {
    let counters: Arc<CounterShard> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
    let events = Arc::new(Mutex::new(Vec::new()));
    let mut guard = slots();
    let thread = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{}", guard.len()));
    guard.push(Slot {
        thread,
        counters: Arc::clone(&counters),
        events: Arc::clone(&events),
    });
    drop(guard);
    LocalHandle {
        counters,
        events,
        depth: Cell::new(0),
    }
}

/// Run `f` with the calling thread's handle (registering on first use).
#[inline]
pub(crate) fn with_local<R>(f: impl FnOnce(&LocalHandle) -> R) -> R {
    LOCAL.with(f)
}

/// Visit every registered counter shard (registration order).
pub(crate) fn for_each_shard(mut f: impl FnMut(&str, &CounterShard)) {
    for slot in slots().iter() {
        f(&slot.thread, &slot.counters);
    }
}

/// Snapshot every thread's buffered events, tagged with the thread name.
pub(crate) fn collect_events() -> Vec<(String, Event)> {
    let mut out = Vec::new();
    for slot in slots().iter() {
        let buf = slot.events.lock().unwrap_or_else(|p| p.into_inner());
        out.extend(buf.iter().map(|e| (slot.thread.clone(), e.clone())));
    }
    out
}

/// Zero all shards and clear all event buffers.
pub(crate) fn reset() {
    for slot in slots().iter() {
        for a in slot.counters.iter() {
            a.store(0, Ordering::Relaxed);
        }
        slot.events
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clear();
    }
}

/// Monotonic nanoseconds since the process's first instrumented call
/// (the common time base of every span and event).
pub(crate) fn epoch_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    crate::duration_ns(EPOCH.get_or_init(Instant::now).elapsed())
}

/// Serialize tests that assert on the (global) counter state.
#[cfg(test)]
pub(crate) fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}
