//! A persistent worker pool — the suite's OpenMP analog.
//!
//! The paper measures SpMV at the millisecond scale where per-call thread
//! spawning would distort minima, so workers are created once and parked on
//! a channel. [`ThreadPool::run`] hands every worker the same borrowed
//! closure (lifetime-erased behind a completion barrier) and blocks until
//! all workers acknowledge — the closure is therefore never observed after
//! `run` returns, which is what makes the erasure sound.
//!
//! A pool of one thread executes inline, so `threads = 1` measurements are
//! genuinely serial (no pool overhead), matching how the paper reports
//! single-thread numbers.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;

/// Borrowed task pointer smuggled to workers. Soundness argument: `run`
/// keeps the referent alive on its stack and does not return until every
/// worker has acknowledged completion of this exact job.
struct TaskPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the referent is Sync (shared &-calls from many threads are fine)
// and outlives all uses per the barrier protocol above.
unsafe impl Send for TaskPtr {}

struct Job {
    task: TaskPtr,
    thread_idx: usize,
}

type Ack = std::thread::Result<()>;

/// Channel endpoints used by `run`. `std::sync::mpsc::Receiver` is not
/// `Sync`, so both ends live behind the dispatch mutex — which also
/// serializes `run` calls (the ack channel carries one generation at a
/// time), so the lock does double duty.
struct Dispatch {
    /// One injection channel per worker (jobs are per-thread, not stolen).
    job_txs: Vec<Sender<Job>>,
    ack_rx: Receiver<Ack>,
}

/// Fixed-size persistent thread pool.
pub struct ThreadPool {
    n_threads: usize,
    dispatch: Mutex<Dispatch>,
    handles: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Create a pool with `n_threads` execution slots (minimum 1).
    ///
    /// `n_threads == 1` creates no OS threads; `run` executes inline.
    #[expect(
        clippy::expect_used,
        reason = "thread spawn fails only on resource exhaustion during pool construction, before any dispatched work exists to lose"
    )]
    pub fn new(n_threads: usize) -> Self {
        let n_threads = n_threads.max(1);
        let (ack_tx, ack_rx) = channel::<Ack>();
        let mut job_txs = Vec::new();
        let mut handles = Vec::new();
        if n_threads > 1 {
            for w in 0..n_threads {
                let (tx, rx) = channel::<Job>();
                let ack = ack_tx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("cscv-worker-{w}"))
                    .spawn(move || {
                        for job in rx.iter() {
                            let res = catch_unwind(AssertUnwindSafe(|| {
                                // SAFETY: see TaskPtr protocol.
                                let f = unsafe { &*job.task.0 };
                                f(job.thread_idx);
                            }));
                            // Receiver gone ⇒ pool dropped mid-run; just exit.
                            if ack.send(res).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn pool worker");
                job_txs.push(tx);
                handles.push(handle);
            }
        }
        ThreadPool {
            n_threads,
            dispatch: Mutex::new(Dispatch { job_txs, ack_rx }),
            handles,
        }
    }

    /// Number of execution slots.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Hardware parallelism of the machine (≥ 1).
    pub fn max_parallelism() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Run `f(thread_idx)` once on every slot; blocks until all complete.
    ///
    /// Panics in any slot are re-raised here (after all slots finished, so
    /// the borrow of `f` never escapes).
    ///
    /// Traced builds record the dispatch as a `pool.run` span plus
    /// per-thread busy-time counters (the busy/idle split and imbalance
    /// ratio fall out of the per-thread shards); untraced builds take
    /// the direct path with no added work.
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if !cscv_trace::ENABLED {
            self.dispatch(&f);
            return;
        }
        let _span = cscv_trace::span::enter("pool.run");
        cscv_trace::counters::add(cscv_trace::counters::Counter::PoolDispatches, 1);
        let timed = |tid: usize| {
            let t0 = std::time::Instant::now();
            f(tid);
            cscv_trace::counters::add(
                cscv_trace::counters::Counter::PoolBusyNs,
                cscv_trace::duration_ns(t0.elapsed()),
            );
            cscv_trace::counters::add(cscv_trace::counters::Counter::PoolTasks, 1);
        };
        self.dispatch(&timed);
    }

    /// The untimed dispatch protocol shared by both paths of [`run`].
    #[expect(
        clippy::expect_used,
        reason = "a dead worker leaves no way to finish the run: a send fails only if the worker already died mid-run, a recv only if it died without acking, and aborting beats returning a silently partial reduction"
    )]
    fn dispatch(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.n_threads == 1 {
            f(0);
            return;
        }
        // A panic propagated out of a previous `run` poisons the lock but
        // leaves the pool protocol consistent (all acks were drained), so
        // poisoning is recoverable here.
        let guard = self
            .dispatch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // SAFETY: erase the lifetime; workers only touch the pointer
        // before acking, and `dispatch` does not return before all acks.
        let raw: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        for (idx, tx) in guard.job_txs.iter().enumerate() {
            tx.send(Job {
                task: TaskPtr(raw),
                thread_idx: idx,
            })
            .expect("worker alive");
        }
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for _ in 0..self.n_threads {
            match guard.ack_rx.recv().expect("worker alive") {
                Ok(()) => {}
                Err(p) => panic = Some(p),
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Close the job channels; workers drain and exit.
        self.dispatch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .job_txs
            .clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Fork-join for set-up work: run `f` on every part — part 0 on the
/// calling thread, the others on scoped threads — and return the results
/// in part order. A panic in any part is re-raised here once all parts
/// have finished.
///
/// Unlike [`ThreadPool::run`], parts own their inputs (e.g. disjoint
/// `&mut` output slices) and return values, so the callers need no
/// shared mutable state.
pub fn fork_join<P: Send, R: Send>(parts: Vec<P>, f: impl Fn(P) -> R + Sync) -> Vec<R> {
    let f = &f;
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    std::thread::scope(|s| {
        let rest: Vec<_> = parts.map(|p| s.spawn(move || f(p))).collect();
        let mut out = Vec::with_capacity(rest.len() + 1);
        out.push(f(first));
        for handle in rest {
            out.push(handle.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        out
    })
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("n_threads", &self.n_threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn single_thread_runs_inline() {
        let pool = ThreadPool::new(1);
        let tid = std::thread::current().id();
        pool.run(|i| {
            assert_eq!(i, 0);
            assert_eq!(std::thread::current().id(), tid);
        });
    }

    #[test]
    fn all_slots_execute_once() {
        let pool = ThreadPool::new(4);
        let hits = AtomicUsize::new(0);
        let mask = AtomicUsize::new(0);
        pool.run(|i| {
            hits.fetch_add(1, Ordering::SeqCst);
            mask.fetch_or(1 << i, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
        assert_eq!(mask.load(Ordering::SeqCst), 0b1111);
    }

    #[test]
    fn pool_is_reusable() {
        let pool = ThreadPool::new(3);
        let count = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(|_| {
                // SeqCst: the assertion must observe every increment
                // directly, not only transitively through the ack
                // barrier's acquire/release edges.
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(count.load(Ordering::SeqCst), 150);
    }

    #[test]
    fn run_returns_only_after_every_slot_finished() {
        // Slot i finishes after i × 20 ms, so a dispatch that drained one
        // ack too few would return while the slowest slot still sleeps,
        // its flag unset. Relaxed suffices: the ack barrier orders it.
        let done: Vec<AtomicBool> = (0..4).map(|_| AtomicBool::new(false)).collect();
        let pool = ThreadPool::new(4);
        pool.run(|i| {
            std::thread::sleep(std::time::Duration::from_millis(20 * i as u64));
            done[i].store(true, Ordering::Relaxed);
        });
        assert!(done.iter().all(|d| d.load(Ordering::Relaxed)));
    }

    #[test]
    fn borrowed_state_is_visible_and_mutable_via_indices() {
        let pool = ThreadPool::new(4);
        let mut out = vec![0usize; 4];
        // Give each worker a disjoint &mut cell via raw-slice partitioning.
        let ptr = out.as_mut_ptr() as usize;
        pool.run(|i| {
            // SAFETY: disjoint indices per worker.
            unsafe { *(ptr as *mut usize).add(i) = i * 10 };
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|i| {
                if i == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool still usable afterwards.
        let count = AtomicUsize::new(0);
        pool.run(|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn zero_threads_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.n_threads(), 1);
        pool.run(|i| assert_eq!(i, 0));
    }

    #[test]
    fn fork_join_returns_results_in_part_order() {
        let caller = std::thread::current().id();
        let out = fork_join(vec![0..3, 3..6, 6..10], |r| {
            let on_caller = std::thread::current().id() == caller;
            (r.start == 0, on_caller, r.sum::<usize>())
        });
        assert_eq!(
            out,
            vec![(true, true, 3), (false, false, 12), (false, false, 30)]
        );
        assert!(fork_join(Vec::<usize>::new(), |p| p).is_empty());
    }

    #[test]
    fn fork_join_reraises_a_part_panic() {
        let result = std::panic::catch_unwind(|| {
            fork_join(vec![0, 1], |p| {
                if p == 1 {
                    panic!("part one");
                }
                p
            })
        });
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"part one"));
    }

    #[test]
    fn max_parallelism_positive() {
        assert!(ThreadPool::max_parallelism() >= 1);
    }
}
