//! Shared plumbing for parallel executors (used by this crate's baseline
//! formats and by the CSCV executors in `cscv-core`).
//!
//! # Aliasing detection (debug builds)
//!
//! Every executor's speed rests on one manual invariant: ranges of the
//! shared output handed to concurrent pool workers are pairwise
//! disjoint. In every build with debug assertions (`cargo test`, Miri,
//! the sanitizers, `cargo run` without `--release`; compiled out of
//! release builds), [`SharedSliceMut`] machine-checks that invariant at
//! runtime: [`slice_mut`](SharedSliceMut::slice_mut)
//! and [`get_raw`](SharedSliceMut::get_raw) register the claimed index
//! range in a per-buffer interval set, and any overlap between claims
//! from *different* threads panics naming both claim sites (file:line of
//! each call, captured via `#[track_caller]`). Same-thread overlaps are
//! legal — a thread may revisit its own rows sequentially — and are
//! coalesced so the interval set stays compact in scatter-heavy kernels.
//!
//! Claims live until the `SharedSliceMut` is dropped or until
//! [`claims_barrier`](SharedSliceMut::claims_barrier) declares a
//! synchronization point (executors call it between two `pool.run`
//! dispatches, where the dispatch barrier makes cross-thread reuse of
//! the same indices sound).

use crate::pool::ThreadPool;
use cscv_simd::Scalar;
use std::ops::Range;
use std::sync::Mutex;

#[cfg(debug_assertions)]
mod claims {
    //! The interval set behind the debug-build aliasing detector.
    use std::panic::Location;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    struct Claim {
        start: usize,
        end: usize,
        thread: ThreadId,
        thread_name: String,
        site: &'static Location<'static>,
    }

    /// Sorted, pairwise-disjoint claimed ranges of one shared buffer.
    /// Same-thread claims that touch are merged (keeping the earliest
    /// claim site), so the set stays small under per-element scatters.
    pub(super) struct ClaimSet(Mutex<Vec<Claim>>);

    impl ClaimSet {
        pub fn new() -> Self {
            ClaimSet(Mutex::new(Vec::new()))
        }

        pub fn clear(&self) {
            self.0.lock().unwrap_or_else(|p| p.into_inner()).clear();
        }

        /// Register `[start, end)` for the calling thread; panic with
        /// both claim sites on a cross-thread overlap.
        #[expect(
            clippy::panic,
            reason = "deliberate: an overlapping claim is a data race in the making, and a diagnostic panic beats silent UB"
        )]
        pub fn claim(&self, mut start: usize, mut end: usize, site: &'static Location<'static>) {
            if start >= end {
                return;
            }
            let current = std::thread::current();
            let me = current.id();
            let mut v = self.0.lock().unwrap_or_else(|p| p.into_inner());
            // Claims are sorted by start and pairwise disjoint, so they
            // are sorted by end too: the first candidate overlap is the
            // first claim whose end lies past our start.
            let mut i = v.partition_point(|c| c.end <= start);
            while i < v.len() && v[i].start <= end {
                let c = &v[i];
                if c.start < end && start < c.end && c.thread != me {
                    panic!(
                        "SharedSliceMut aliasing violation: thread {:?} ({me:?}) claimed \
                         [{start}..{end}) at {site}, overlapping [{}..{}) claimed by \
                         thread {:?} ({:?}) at {}",
                        current.name().unwrap_or("unnamed"),
                        c.start,
                        c.end,
                        c.thread_name,
                        c.thread,
                        c.site,
                    );
                }
                if c.thread == me {
                    // Same thread: absorb the overlapping/adjacent claim.
                    start = start.min(c.start);
                    end = end.max(c.end);
                    v.remove(i);
                } else {
                    // Other thread, merely adjacent: keep it, step past.
                    i += 1;
                }
            }
            // Merge with a same-thread left neighbor that ends exactly
            // where we start (keeps per-element scatters O(1) amortized).
            if i > 0 && v[i - 1].end == start && v[i - 1].thread == me {
                start = v[i - 1].start;
                v.remove(i - 1);
                i -= 1;
            }
            v.insert(
                i,
                Claim {
                    start,
                    end,
                    thread: me,
                    thread_name: current.name().unwrap_or("unnamed").to_string(),
                    site,
                },
            );
        }
    }
}

/// A `&mut [T]` that can be sliced disjointly from several pool workers.
///
/// Soundness contract: callers hand each worker a range, and ranges given
/// out concurrently must be pairwise disjoint. All executors in the suite
/// derive the ranges from a partition of `0..len`, which guarantees that —
/// and debug builds verify it at runtime (see the module docs).
pub struct SharedSliceMut<T> {
    ptr: *mut T,
    len: usize,
    #[cfg(debug_assertions)]
    claims: claims::ClaimSet,
}

// SAFETY: the raw pointer is just a lifetime-erased view of a `&mut [T]`
// that outlives the pool dispatch (see `ThreadPool::run`'s barrier);
// sending the view to workers is sound whenever the element type itself
// may move across threads.
unsafe impl<T: Send> Send for SharedSliceMut<T> {}
// SAFETY: shared (`&self`) use from several threads only hands out
// pairwise-disjoint `&mut` sub-slices per the type's contract, which is
// exactly the exclusive-access guarantee `&mut [T]` itself would give.
unsafe impl<T: Send> Sync for SharedSliceMut<T> {}

impl<T> SharedSliceMut<T> {
    pub fn new(slice: &mut [T]) -> Self {
        SharedSliceMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            #[cfg(debug_assertions)]
            claims: claims::ClaimSet::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Get a mutable sub-slice.
    ///
    /// # Safety
    /// `range` must be in bounds and must not overlap any other range
    /// handed out while both are alive.
    #[allow(clippy::mut_from_ref)]
    #[track_caller]
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(
            range.start <= range.end && range.end <= self.len,
            "SharedSliceMut::slice_mut out of bounds: {range:?} of len {}",
            self.len
        );
        #[cfg(debug_assertions)]
        self.claims
            .claim(range.start, range.end, std::panic::Location::caller());
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }

    /// Raw pointer to one element, for executors whose per-thread write
    /// sets are disjoint but not contiguous (CSR5 segment flushes).
    ///
    /// # Safety
    /// `idx` must be in bounds; the caller's protocol must ensure no two
    /// threads access the same index concurrently.
    #[track_caller]
    pub unsafe fn get_raw(&self, idx: usize) -> *mut T {
        debug_assert!(
            idx < self.len,
            "SharedSliceMut::get_raw out of bounds: {idx} of len {}",
            self.len
        );
        #[cfg(debug_assertions)]
        self.claims
            .claim(idx, idx + 1, std::panic::Location::caller());
        self.ptr.add(idx)
    }

    /// Declare a synchronization point: all outstanding range claims are
    /// released. Call between two `pool.run` dispatches over the same
    /// buffer — the dispatch barrier guarantees the earlier claims can no
    /// longer race with later ones. No-op (and fully compiled out) in
    /// release builds.
    #[inline]
    pub fn claims_barrier(&self) {
        #[cfg(debug_assertions)]
        self.claims.clear();
    }
}

/// Run `f(tid, &mut data[ranges[tid]])` on every pool slot — the safe
/// face of [`SharedSliceMut`] for partition-parallel writes. Ranges are
/// validated up front (in bounds, pairwise disjoint, one per slot), so
/// callers outside the audited `unsafe` whitelist can parallelize over a
/// shared output without writing `unsafe` themselves.
///
/// # Panics
/// If fewer ranges than pool slots are supplied, any range is reversed
/// or out of bounds, or two ranges overlap.
pub fn run_disjoint_mut<T, F>(pool: &ThreadPool, data: &mut [T], ranges: &[Range<usize>], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(
        ranges.len() >= pool.n_threads(),
        "run_disjoint_mut: {} ranges for {} pool slots",
        ranges.len(),
        pool.n_threads()
    );
    let mut sorted: Vec<&Range<usize>> = ranges.iter().collect();
    sorted.sort_by_key(|r| (r.start, r.end));
    for r in &sorted {
        assert!(
            r.start <= r.end && r.end <= data.len(),
            "run_disjoint_mut: range {r:?} out of bounds for len {}",
            data.len()
        );
    }
    for w in sorted.windows(2) {
        assert!(
            w[0].end <= w[1].start || w[0].start == w[0].end || w[1].start == w[1].end,
            "run_disjoint_mut: ranges {:?} and {:?} overlap",
            w[0],
            w[1]
        );
    }
    let shared = SharedSliceMut::new(data);
    pool.run(|tid| {
        // SAFETY: ranges were validated pairwise disjoint and in bounds
        // above, and each slot takes only its own range.
        // The assert above requires ranges.len() == pool.n_threads(),
        // and tid < n_threads by the dispatch contract.
        let dst = unsafe { shared.slice_mut(ranges[tid].clone()) };
        f(tid, dst);
    });
}

/// Lazily sized per-thread scratch buffers, cached across SpMV calls so
/// the measured kernels do not pay allocation on every iteration.
pub struct Scratch<T> {
    bufs: Mutex<Vec<Vec<T>>>,
}

impl<T: Scalar> Default for Scratch<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> Scratch<T> {
    pub fn new() -> Self {
        Scratch {
            bufs: Mutex::new(Vec::new()),
        }
    }

    /// Get `n_bufs` zeroed buffers of `len` elements each. The guard keeps
    /// the buffers exclusively borrowed for the duration of the SpMV call.
    pub fn take(&self, n_bufs: usize, len: usize) -> std::sync::MutexGuard<'_, Vec<Vec<T>>> {
        let mut g = self.bufs.lock().unwrap_or_else(|p| p.into_inner());
        if g.len() < n_bufs {
            g.resize_with(n_bufs, Vec::new);
        }
        for b in g.iter_mut().take(n_bufs) {
            if b.len() != len {
                b.clear();
                b.resize(len, T::ZERO);
            } else {
                b.fill(T::ZERO);
            }
        }
        g
    }
}

/// Reduce per-thread buffers into `y` in parallel: each thread sums one
/// disjoint row range across all buffers. This is the paper's "each
/// thread has its own local copy of vector y … summed up globally with
/// multi-threads".
pub fn reduce_buffers_into<T: Scalar>(pool: &ThreadPool, bufs: &[Vec<T>], y: &mut [T]) {
    let ranges = crate::partition::even_chunks(y.len(), pool.n_threads());
    run_disjoint_mut(pool, y, &ranges, |tid, dst| {
        dst.fill(T::ZERO);
        for buf in bufs {
            cscv_simd::lanes::add_assign_slice(dst, &buf[ranges[tid].clone()]);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_slice_disjoint_writes() {
        let mut data = vec![0u32; 10];
        let shared = SharedSliceMut::new(&mut data);
        assert_eq!(shared.len(), 10);
        assert!(!shared.is_empty());
        let pool = ThreadPool::new(2);
        let ranges = [0..5, 5..10];
        pool.run(|tid| {
            // SAFETY: per-thread ranges above are disjoint.
            let s = unsafe { shared.slice_mut(ranges[tid].clone()) };
            for v in s {
                *v = tid as u32 + 1;
            }
        });
        assert_eq!(&data[..5], &[1; 5]);
        assert_eq!(&data[5..], &[2; 5]);
    }

    #[test]
    fn run_disjoint_mut_partitions_safely() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0usize; 11];
        let ranges = crate::partition::even_chunks(data.len(), 3);
        run_disjoint_mut(&pool, &mut data, &ranges, |tid, dst| {
            for v in dst {
                *v = tid + 1;
            }
        });
        for (tid, r) in ranges.iter().enumerate() {
            assert!(data[r.clone()].iter().all(|&v| v == tid + 1));
        }
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn run_disjoint_mut_rejects_overlap() {
        let pool = ThreadPool::new(2);
        let mut data = vec![0u8; 8];
        run_disjoint_mut(&pool, &mut data, &[0..5, 4..8], |_, _| {});
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn run_disjoint_mut_rejects_out_of_bounds() {
        let pool = ThreadPool::new(2);
        let mut data = vec![0u8; 8];
        run_disjoint_mut(&pool, &mut data, &[0..4, 4..9], |_, _| {});
    }

    #[test]
    fn scratch_resizes_and_zeroes() {
        let scratch: Scratch<f64> = Scratch::new();
        {
            let mut g = scratch.take(2, 4);
            g[0][1] = 5.0;
            g[1][3] = 7.0;
        }
        let g = scratch.take(3, 4);
        for b in g.iter().take(3) {
            assert_eq!(b.len(), 4);
            assert!(b.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn reduce_buffers_sums_all() {
        let pool = ThreadPool::new(3);
        let bufs = vec![vec![1.0f32; 7], vec![2.0; 7], vec![3.0; 7]];
        let mut y = vec![99.0f32; 7];
        reduce_buffers_into(&pool, &bufs, &mut y);
        assert_eq!(y, vec![6.0; 7]);
    }

    #[test]
    fn get_raw_pointer_access() {
        let mut data = vec![1.0f64; 4];
        let shared = SharedSliceMut::new(&mut data);
        // SAFETY: single-threaded exclusive access; index in bounds.
        unsafe {
            *shared.get_raw(2) += 5.0;
        }
        assert_eq!(data, vec![1.0, 1.0, 6.0, 1.0]);
    }

    #[cfg(debug_assertions)]
    mod aliasing {
        use super::super::*;

        #[test]
        fn same_thread_overlap_is_legal() {
            let mut data = vec![0u32; 10];
            let shared = SharedSliceMut::new(&mut data);
            // SAFETY: sequential claims on one thread never alias live
            // references (each &mut is dropped before the next claim).
            unsafe {
                shared.slice_mut(0..6)[0] = 1;
                shared.slice_mut(3..9)[0] = 2;
                *shared.get_raw(4) = 3;
            }
        }

        #[test]
        fn cross_thread_overlap_panics_naming_both_sites() {
            let pool = ThreadPool::new(2);
            let mut data = vec![0u32; 10];
            let shared = SharedSliceMut::new(&mut data);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.run(|tid| {
                    // Overlapping on purpose: 0..6 vs 4..10.
                    let range = if tid == 0 { 0..6 } else { 4..10 };
                    // SAFETY: deliberately unsound claim — the detector
                    // must catch it before any write happens.
                    let s = unsafe { shared.slice_mut(range) };
                    std::hint::black_box(&s);
                });
            }))
            .unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string panic".into());
            assert!(msg.contains("aliasing violation"), "{msg}");
            // Both claim sites are named (this file, twice).
            assert_eq!(msg.matches("shared.rs").count(), 2, "{msg}");
        }

        #[test]
        fn claims_barrier_allows_cross_thread_reuse() {
            let pool = ThreadPool::new(2);
            let mut data = vec![0u32; 8];
            let shared = SharedSliceMut::new(&mut data);
            let ranges = [0..4, 4..8];
            pool.run(|tid| {
                // SAFETY: disjoint per-thread ranges.
                unsafe { shared.slice_mut(ranges[tid].clone()) }.fill(1);
            });
            shared.claims_barrier();
            // Swapped ownership across the barrier: sound, and the
            // detector must accept it.
            pool.run(|tid| {
                // SAFETY: disjoint per-thread ranges (swapped).
                unsafe { shared.slice_mut(ranges[1 - tid].clone()) }.fill(2);
            });
            drop(shared);
            assert_eq!(data, vec![2; 8]);
        }

        #[test]
        #[should_panic(expected = "aliasing violation")]
        fn cross_thread_point_claims_conflict() {
            let pool = ThreadPool::new(2);
            let mut data = vec![0f64; 4];
            let shared = SharedSliceMut::new(&mut data);
            pool.run(|_tid| {
                // SAFETY: deliberately unsound — both threads claim
                // index 2; the detector must panic.
                unsafe {
                    std::hint::black_box(shared.get_raw(2));
                }
            });
        }

        #[test]
        #[should_panic(expected = "out of bounds")]
        fn out_of_bounds_claim_panics() {
            let mut data = vec![0u8; 4];
            let shared = SharedSliceMut::new(&mut data);
            // SAFETY: deliberately out of bounds — the debug build
            // must abort before the slice is materialized.
            unsafe {
                let _ = shared.slice_mut(2..5);
            }
        }
    }
}
