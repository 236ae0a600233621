//! Batched reconstruction: many sinograms, one operator.
//!
//! Multi-slice CT reconstructs a stack of 2-D slices that all share the
//! same system matrix `A` — only the measured sinogram differs per
//! slice. Running the solvers slice-by-slice re-reads `A` from memory on
//! every projection; running them *batched* drives the whole stack
//! through [`LinearOperator::apply_multi`], so each iteration streams
//! the matrix once per register-tile chunk and the dominant
//! memory-traffic term is amortized `k`-fold (the paper's
//! `M_Rit`-model prediction, extended to `M_Rit(k) = M(A) + k·M(x,y)`).
//! A single image is the stack of one: [`sirt`](crate::sirt::sirt),
//! [`cgls`](crate::cgls::cgls) and [`landweber`](crate::landweber::landweber)
//! are the `k = 1` calls of the bodies here, and at active width 1 a
//! body uses the operator's single-RHS [`LinearOperator::apply`] /
//! [`LinearOperator::apply_transpose`].
//!
//! All batch buffers are packed column-major: slice `i`'s sinogram is
//! `b[i·n_rows .. (i+1)·n_rows]`, its image `x[i·n_cols .. (i+1)·n_cols]`.
//!
//! Convergence is tracked per slice. When a slice meets the tolerance it
//! is *retired*: the trailing active slice is swapped into its batch
//! slot, shrinking the working batch width — the remaining slices keep
//! amortizing while finished ones stop paying for projections (early-exit
//! masking by compaction).

use crate::operators::LinearOperator;
use crate::sirt::ReconResult;
use cscv_simd::lanes::{axpy, norm2_sq};
use cscv_sparse::{Scalar, ThreadPool};

/// Result of a batched reconstruction run over `k` slices.
#[derive(Debug, Clone)]
pub struct BatchReconResult<T> {
    /// Reconstructed images, column-major (`k · n_cols`).
    pub x: Vec<T>,
    /// Per-slice residual norm `‖b_i − A x_i‖₂` after each of that
    /// slice's iterations (lengths differ once slices retire early).
    pub residual_histories: Vec<Vec<f64>>,
    /// Update steps actually applied to each slice.
    pub iterations: Vec<usize>,
    /// Image length of one slice (`n_cols` of the operator).
    pub slice_len: usize,
}

impl<T> BatchReconResult<T> {
    /// Number of slices in the batch.
    pub fn n_slices(&self) -> usize {
        self.residual_histories.len()
    }

    /// One slice's reconstructed image.
    pub fn slice(&self, i: usize) -> &[T] {
        &self.x[i * self.slice_len..(i + 1) * self.slice_len]
    }

    /// The result of a width-1 run as a single-image result.
    pub(crate) fn into_single(mut self) -> ReconResult<T> {
        debug_assert_eq!(self.n_slices(), 1, "not a single-slice run");
        ReconResult {
            x: self.x,
            residual_history: self.residual_histories.swap_remove(0),
            iterations: self.iterations[0],
        }
    }
}

/// `Y = A X` over the first `k` batch slots: the operator's single-RHS
/// product at width 1, its batched product otherwise.
fn forward<T: Scalar>(
    op: &dyn LinearOperator<T>,
    x: &[T],
    k: usize,
    y: &mut [T],
    pool: &ThreadPool,
) {
    let (x, y) = (&x[..k * op.n_cols()], &mut y[..k * op.n_rows()]);
    if k == 1 {
        op.apply(x, y, pool);
    } else {
        op.apply_multi(x, k, y, pool);
    }
}

/// `X = Aᵀ Y` over the first `k` batch slots, chosen as in [`forward`].
fn adjoint<T: Scalar>(
    op: &dyn LinearOperator<T>,
    y: &[T],
    k: usize,
    x: &mut [T],
    pool: &ThreadPool,
) {
    let (y, x) = (&y[..k * op.n_rows()], &mut x[..k * op.n_cols()]);
    if k == 1 {
        op.apply_transpose(y, x, pool);
    } else {
        op.apply_transpose_multi(y, k, x, pool);
    }
}

/// Swap two equal-length segments of a column-major batch buffer.
fn swap_seg<T: Copy>(buf: &mut [T], len: usize, a: usize, b: usize) {
    if a == b {
        return;
    }
    let (lo, hi) = (a.min(b), a.max(b));
    let (left, right) = buf.split_at_mut(hi * len);
    left[lo * len..(lo + 1) * len].swap_with_slice(&mut right[..len]);
}

/// Shared per-slice convergence bookkeeping: slot→slice mapping,
/// residual histories (the first entry is each slice's convergence
/// reference), the retire-by-swap compaction and the per-sweep trace
/// events.
struct BatchTracker {
    /// `slots[s]` = original slice index occupying batch slot `s`.
    slots: Vec<usize>,
    /// Active batch width (slots `0..k_active` are live).
    k_active: usize,
    histories: Vec<Vec<f64>>,
    iterations: Vec<usize>,
    /// Name of the per-slice iteration event, e.g. `"sirt.iter"`.
    event: &'static str,
    /// Traced builds only: start of the current sweep, the slices that
    /// recorded a residual in it, and whether any slice was updated.
    sweep_start: Option<std::time::Instant>,
    recorded: Vec<usize>,
    updated: bool,
}

impl BatchTracker {
    fn new(k: usize, event: &'static str) -> Self {
        BatchTracker {
            slots: (0..k).collect(),
            k_active: k,
            histories: vec![Vec::new(); k],
            iterations: vec![0; k],
            event,
            sweep_start: None,
            recorded: Vec::new(),
            updated: false,
        }
    }

    /// Record one residual norm for the slice in batch slot `s`; returns
    /// whether the slice has now converged under `tol` (relative to its
    /// first recorded residual; `tol = 0` never converges early).
    fn record(&mut self, s: usize, norm: f64, tol: f64) -> bool {
        let orig = self.slots[s];
        self.histories[orig].push(norm);
        if cscv_trace::ENABLED {
            self.recorded.push(orig);
        }
        tol > 0.0 && norm <= tol * self.histories[orig][0]
    }

    /// Count one applied update step for the slice in slot `s`.
    fn bump_iter(&mut self, s: usize) {
        self.iterations[self.slots[s]] += 1;
        self.updated = true;
        if cscv_trace::ENABLED {
            cscv_trace::counters::add(cscv_trace::counters::Counter::SolverIters, 1);
        }
    }

    /// Retire the slice in slot `s` by swapping the last active slot into
    /// `s`. Every live column-major working buffer must be passed in
    /// `(buffer, segment_len)` pairs so its segments move in lockstep.
    /// Inactive slots are never read or written again, so the retired
    /// image rests in the image buffer until [`finish`](Self::finish).
    fn retire<T: Copy>(&mut self, s: usize, bufs: &mut [(&mut [T], usize)]) {
        let orig = self.slots[s];
        let last = self.k_active - 1;
        for (buf, len) in bufs.iter_mut() {
            swap_seg(buf, *len, s, last);
        }
        self.slots.swap(s, last);
        self.k_active = last;
        if cscv_trace::ENABLED {
            cscv_trace::counters::add(cscv_trace::counters::Counter::SwapCompactions, 1);
            cscv_trace::span::event(
                "batch.retire",
                &[
                    ("slice", orig as f64),
                    ("slot", s as f64),
                    ("k_active", self.k_active as f64),
                ],
            );
        }
    }

    /// Start timing one sweep (traced builds only).
    fn begin_sweep(&mut self) {
        self.sweep_start = cscv_trace::ENABLED.then(std::time::Instant::now);
    }

    /// Close one sweep: an `event` per residual recorded in it, whose
    /// `iter_ms` is the sweep's wall time, then — if any slice was
    /// updated — one `batch.sweep` event. No-op in untraced builds.
    fn end_sweep(&mut self, sweep: usize) {
        if !cscv_trace::ENABLED {
            return;
        }
        let ms = self
            .sweep_start
            .map_or(0.0, |t| t.elapsed().as_secs_f64() * 1e3);
        for orig in self.recorded.drain(..) {
            let h = &self.histories[orig];
            cscv_trace::span::event(
                self.event,
                &[
                    ("slice", orig as f64),
                    ("iter", (h.len() - 1) as f64),
                    ("residual", h[h.len() - 1]),
                    ("iter_ms", ms),
                ],
            );
        }
        if std::mem::take(&mut self.updated) {
            cscv_trace::span::event(
                "batch.sweep",
                &[
                    ("sweep", sweep as f64),
                    ("k_active", self.k_active as f64),
                    ("sweep_ms", ms),
                ],
            );
        }
    }

    /// Close out the run: put every image back in slice order (cycle
    /// sort of the slot permutation) and assemble the result.
    fn finish<T: Copy>(mut self, mut x: Vec<T>, n: usize) -> BatchReconResult<T> {
        for s in 0..self.slots.len() {
            while self.slots[s] != s {
                let t = self.slots[s];
                swap_seg(&mut x, n, s, t);
                self.slots.swap(s, t);
            }
        }
        BatchReconResult {
            x,
            residual_histories: self.histories,
            iterations: self.iterations,
            slice_len: n,
        }
    }
}

/// The loop SIRT and Landweber share. Per sweep: one forward product;
/// per slice, `residual(b_i, (A x)_i, r_i)` fills the back-projection
/// input `r_i` and returns `‖b_i − A x_i‖₂`; one adjoint product; per
/// slice, `update((Aᵀ r)_i, x_i)`. A slice retires once its residual
/// drops to `tol` × its first residual (`tol = 0` runs all
/// `iterations`).
#[allow(clippy::too_many_arguments)]
fn descent_batch<T: Scalar>(
    op: &dyn LinearOperator<T>,
    b: &[T],
    k: usize,
    iterations: usize,
    tol: f64,
    pool: &ThreadPool,
    event: &'static str,
    residual: impl Fn(&[T], &[T], &mut [T]) -> f64,
    update: impl Fn(&[T], &mut [T]),
) -> BatchReconResult<T> {
    let (m, n) = (op.n_rows(), op.n_cols());
    assert!(k > 0, "batch width must be positive");
    assert_eq!(b.len(), k * m);
    let mut x = vec![T::ZERO; k * n];
    let mut ax = vec![T::ZERO; k * m];
    let mut resid = vec![T::ZERO; k * m];
    let mut back = vec![T::ZERO; k * n];
    let mut tr = BatchTracker::new(k, event);

    for sweep in 0..iterations {
        if tr.k_active == 0 {
            break;
        }
        tr.begin_sweep();
        forward(op, &x, tr.k_active, &mut ax, pool);
        let mut s = 0usize;
        while s < tr.k_active {
            let bs = &b[tr.slots[s] * m..][..m];
            let norm = residual(bs, &ax[s * m..][..m], &mut resid[s * m..][..m]);
            if tr.record(s, norm, tol) {
                // Converged before this update: compact. The swapped-in
                // slice re-enters at the same slot, so `s` stays put; its
                // forward product moves with it.
                tr.retire(s, &mut [(&mut x, n), (&mut ax, m)]);
            } else {
                s += 1;
            }
        }
        let ka = tr.k_active;
        if ka > 0 {
            adjoint(op, &resid, ka, &mut back, pool);
            for s in 0..ka {
                update(&back[s * n..][..n], &mut x[s * n..][..n]);
                tr.bump_iter(s);
            }
        }
        tr.end_sweep(sweep);
    }
    tr.finish(x, n)
}

/// Batched SIRT over `k` sinograms sharing one operator:
/// `x_i ← x_i + λ·C·Aᵀ·R·(b_i − A·x_i)` for all slices per matrix pass,
/// with `R`, `C` the inverse row/column sums of `|A|` (zero sums get
/// weight 0, so empty rows/columns never update).
///
/// A slice retires once its residual drops to `tol` × its first
/// residual (`tol = 0` disables early exit and runs all `iterations`).
pub fn sirt_batch<T: Scalar>(
    op: &dyn LinearOperator<T>,
    b: &[T],
    k: usize,
    iterations: usize,
    relaxation: f64,
    tol: f64,
    pool: &ThreadPool,
) -> BatchReconResult<T> {
    let lambda = T::from_f64(relaxation);
    let inv = |s: T| if s == T::ZERO { T::ZERO } else { T::ONE / s };
    let r_inv: Vec<T> = op.abs_row_sums(pool).into_iter().map(inv).collect();
    let c_inv: Vec<T> = op.abs_col_sums(pool).into_iter().map(inv).collect();

    let _span = cscv_trace::span::enter("solver.sirt");
    descent_batch(
        op,
        b,
        k,
        iterations,
        tol,
        pool,
        "sirt.iter",
        |b, ax, resid| {
            let mut norm = 0.0f64;
            for i in 0..b.len() {
                let r = b[i] - ax[i];
                norm += r.to_f64() * r.to_f64();
                resid[i] = r * r_inv[i];
            }
            norm.sqrt()
        },
        |back, x| {
            for j in 0..x.len() {
                x[j] = (lambda * c_inv[j] * back[j]) + x[j];
            }
        },
    )
}

/// Batched Landweber: `x_i ← x_i + λ Aᵀ(b_i − A x_i)` with one shared
/// power-method step size (the operator, hence `σ_max`, is common to
/// the whole batch). Early exit as in [`sirt_batch`].
pub fn landweber_batch<T: Scalar>(
    op: &dyn LinearOperator<T>,
    b: &[T],
    k: usize,
    iterations: usize,
    step_scale: f64,
    tol: f64,
    pool: &ThreadPool,
) -> BatchReconResult<T> {
    let sigma2 = crate::landweber::largest_singular_value_sq(op, 20, pool);
    let step = if sigma2 > 0.0 {
        T::from_f64(step_scale / sigma2)
    } else {
        T::ZERO
    };

    let _span = cscv_trace::span::enter("solver.landweber");
    descent_batch(
        op,
        b,
        k,
        iterations,
        tol,
        pool,
        "landweber.iter",
        |b, ax, resid| {
            for i in 0..b.len() {
                resid[i] = b[i] - ax[i];
            }
            norm2_sq(resid).to_f64().sqrt()
        },
        |back, x| axpy(step, back, x),
    )
}

/// Batched CGLS on the normal equations, one Krylov process per slice
/// driven through shared batched projections. A slice retires when its
/// normal-equation residual `γ = ‖Aᵀr‖²` falls to `tol²` × its initial
/// value or to zero, or when its search direction leaves the range
/// (`‖A p‖ = 0`).
pub fn cgls_batch<T: Scalar>(
    op: &dyn LinearOperator<T>,
    b: &[T],
    k: usize,
    iterations: usize,
    tol: f64,
    pool: &ThreadPool,
) -> BatchReconResult<T> {
    let (m, n) = (op.n_rows(), op.n_cols());
    assert!(k > 0, "batch width must be positive");
    assert_eq!(b.len(), k * m);

    let mut x = vec![T::ZERO; k * n];
    // r = b − A x = b initially; s = Aᵀ r; p = s.
    let mut r = b.to_vec();
    let mut s_vec = vec![T::ZERO; k * n];
    adjoint(op, &r, k, &mut s_vec, pool);
    let mut p = s_vec.clone();
    let mut q = vec![T::ZERO; k * m];
    let mut tr = BatchTracker::new(k, "cgls.iter");
    // Per-slot `(γ, γ₀)`, kept slot-indexed through the compaction.
    let mut gamma: Vec<(f64, f64)> = (0..k)
        .map(|i| norm2_sq(&s_vec[i * n..(i + 1) * n]).to_f64())
        .map(|g| (g, g))
        .collect();

    let _span = cscv_trace::span::enter("solver.cgls");
    for sweep in 0..iterations {
        let mut s = 0usize;
        while s < tr.k_active {
            let (g, g0) = gamma[s];
            if g <= tol * tol * g0 || g == 0.0 {
                tr.retire(s, &mut [(&mut x, n), (&mut r, m), (&mut p, n)]);
                gamma.swap_remove(s);
            } else {
                s += 1;
            }
        }
        if tr.k_active == 0 {
            break;
        }
        tr.begin_sweep();
        forward(op, &p, tr.k_active, &mut q, pool);
        let mut s = 0usize;
        while s < tr.k_active {
            let qs = &q[s * m..][..m];
            let qq = norm2_sq(qs).to_f64();
            if qq == 0.0 {
                tr.retire(s, &mut [(&mut x, n), (&mut r, m), (&mut p, n), (&mut q, m)]);
                gamma.swap_remove(s);
                continue;
            }
            let alpha = gamma[s].0 / qq;
            axpy(T::from_f64(alpha), &p[s * n..][..n], &mut x[s * n..][..n]);
            let rs = &mut r[s * m..][..m];
            axpy(T::from_f64(-alpha), qs, rs);
            tr.record(s, norm2_sq(rs).to_f64().sqrt(), 0.0);
            tr.bump_iter(s);
            s += 1;
        }
        let ka = tr.k_active;
        if ka > 0 {
            adjoint(op, &r, ka, &mut s_vec, pool);
            for (s, (g, _)) in gamma.iter_mut().enumerate() {
                let gamma_new = norm2_sq(&s_vec[s * n..][..n]).to_f64();
                let beta = T::from_f64(gamma_new / *g);
                *g = gamma_new;
                for j in s * n..(s + 1) * n {
                    p[j] = s_vec[j] + beta * p[j];
                }
            }
        }
        tr.end_sweep(sweep);
    }
    tr.finish(x, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::SpmvOperator;
    use crate::{cgls, landweber, sirt};
    use cscv_sparse::{Coo, Csr};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tall_system(m: usize, n: usize, seed: u64) -> Csr<f64> {
        let mut coo = Coo::new(m, n);
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0
        };
        for r in 0..m {
            for c in 0..n {
                if (r + c) % 3 != 0 {
                    coo.push(r, c, 0.2 + rnd());
                }
            }
        }
        coo.to_csr()
    }

    /// `k` sinograms from `k` known images (scaled copies of a base).
    fn batch_rhs(csr: &Csr<f64>, k: usize) -> (Vec<f64>, Vec<f64>) {
        let n = csr.n_cols();
        let m = csr.n_rows();
        let mut xs = vec![0.0; k * n];
        let mut bs = vec![0.0; k * m];
        for kk in 0..k {
            for j in 0..n {
                xs[kk * n + j] = (1.0 + 0.1 * j as f64) * (1.0 + kk as f64 * 0.5);
            }
            let mut b = vec![0.0; m];
            csr.spmv_serial(&xs[kk * n..(kk + 1) * n], &mut b);
            bs[kk * m..(kk + 1) * m].copy_from_slice(&b);
        }
        (xs, bs)
    }

    /// Runs each batched product as `k` single-RHS products, so a batch
    /// slice does exactly the arithmetic of a width-1 run; counts the
    /// products each entry point receives.
    struct LoopOp {
        inner: SpmvOperator<f64>,
        single: AtomicUsize,
        multi: AtomicUsize,
    }

    impl LoopOp {
        fn new(csr: &Csr<f64>) -> Self {
            LoopOp {
                inner: SpmvOperator::csr_pair(csr),
                single: AtomicUsize::new(0),
                multi: AtomicUsize::new(0),
            }
        }

        /// `(single-RHS, batched)` call counts since the last take.
        fn take_counts(&self) -> (usize, usize) {
            (
                self.single.swap(0, Ordering::Relaxed),
                self.multi.swap(0, Ordering::Relaxed),
            )
        }
    }

    impl LinearOperator<f64> for LoopOp {
        fn n_rows(&self) -> usize {
            self.inner.n_rows()
        }
        fn n_cols(&self) -> usize {
            self.inner.n_cols()
        }
        fn apply(&self, x: &[f64], y: &mut [f64], pool: &ThreadPool) {
            self.single.fetch_add(1, Ordering::Relaxed);
            self.inner.apply(x, y, pool);
        }
        fn apply_transpose(&self, y: &[f64], x: &mut [f64], pool: &ThreadPool) {
            self.single.fetch_add(1, Ordering::Relaxed);
            self.inner.apply_transpose(y, x, pool);
        }
        fn apply_multi(&self, x: &[f64], _k: usize, y: &mut [f64], pool: &ThreadPool) {
            self.multi.fetch_add(1, Ordering::Relaxed);
            for (xk, yk) in x.chunks(self.n_cols()).zip(y.chunks_mut(self.n_rows())) {
                self.inner.apply(xk, yk, pool);
            }
        }
        fn apply_transpose_multi(&self, y: &[f64], _k: usize, x: &mut [f64], pool: &ThreadPool) {
            self.multi.fetch_add(1, Ordering::Relaxed);
            for (yk, xk) in y.chunks(self.n_rows()).zip(x.chunks_mut(self.n_cols())) {
                self.inner.apply_transpose(yk, xk, pool);
            }
        }
        fn abs_row_sums(&self, pool: &ThreadPool) -> Vec<f64> {
            self.inner.abs_row_sums(pool)
        }
        fn abs_col_sums(&self, pool: &ThreadPool) -> Vec<f64> {
            self.inner.abs_col_sums(pool)
        }
    }

    /// Slice `i` of `batch` is bit-identical to the single-image `runs[i]`.
    fn assert_slices_match(batch: &BatchReconResult<f64>, runs: &[ReconResult<f64>]) {
        assert_eq!(batch.n_slices(), runs.len());
        for (i, run) in runs.iter().enumerate() {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(batch.slice(i)), bits(&run.x), "slice {i} image");
            assert_eq!(
                bits(&batch.residual_histories[i]),
                bits(&run.residual_history),
                "slice {i} residuals"
            );
            assert_eq!(batch.iterations[i], run.iterations, "slice {i} iterations");
        }
    }

    #[test]
    fn sirt_batch_matches_independent_sirt_runs() {
        let csr = tall_system(40, 12, 99);
        let op = LoopOp::new(&csr);
        let pool = ThreadPool::new(2);
        let k = 3;
        let (_, bs) = batch_rhs(&csr, k);
        let batch = sirt_batch(&op, &bs, k, 30, 1.0, 0.0, &pool);
        assert_eq!(op.take_counts(), (0, 60), "width 3 runs batched products");
        let runs: Vec<_> = bs
            .chunks(40)
            .map(|b| sirt(&op, b, 30, 1.0, &pool))
            .collect();
        assert_eq!(
            op.take_counts(),
            (180, 0),
            "width 1 runs single-RHS products"
        );
        assert_slices_match(&batch, &runs);
        assert!(batch.iterations.iter().all(|&it| it == 30));
    }

    #[test]
    fn sirt_batch_early_exit_retires_slices_independently() {
        let csr = tall_system(40, 12, 7);
        let op = LoopOp::new(&csr);
        let pool = ThreadPool::new(1);
        let k = 4;
        let (_, bs) = batch_rhs(&csr, k);
        let batch = sirt_batch(&op, &bs, k, 500, 1.0, 1e-3, &pool);
        for kk in 0..k {
            let h = &batch.residual_histories[kk];
            assert!(
                h.last().unwrap() <= &(1e-3 * h[0]),
                "slice {kk} must reach tol: {} vs {}",
                h.last().unwrap(),
                h[0]
            );
            assert!(
                batch.iterations[kk] < 500,
                "slice {kk} should retire early ({} iters)",
                batch.iterations[kk]
            );
        }
        let runs: Vec<_> = bs
            .chunks(40)
            .map(|b| sirt_batch(&op, b, 1, 500, 1.0, 1e-3, &pool).into_single())
            .collect();
        assert_slices_match(&batch, &runs);
    }

    #[test]
    fn cgls_batch_matches_independent_cgls_runs() {
        let csr = tall_system(60, 20, 42);
        let op = LoopOp::new(&csr);
        let pool = ThreadPool::new(2);
        let k = 3;
        let (xs, bs) = batch_rhs(&csr, k);
        let batch = cgls_batch(&op, &bs, k, 200, 1e-12, &pool);
        for kk in 0..k {
            let err = crate::metrics::rel_l2(batch.slice(kk), &xs[kk * 20..(kk + 1) * 20]);
            assert!(err < 1e-7, "slice {kk} err {err}");
            assert!(batch.iterations[kk] < 200, "should stop early");
        }
        let runs: Vec<_> = bs
            .chunks(60)
            .map(|b| cgls(&op, b, 200, 1e-12, &pool))
            .collect();
        assert_slices_match(&batch, &runs);
    }

    #[test]
    fn landweber_batch_matches_independent_landweber_runs() {
        let csr = tall_system(40, 12, 5);
        let op = LoopOp::new(&csr);
        let pool = ThreadPool::new(2);
        let k = 2;
        let (_, bs) = batch_rhs(&csr, k);
        let batch = landweber_batch(&op, &bs, k, 40, 1.0, 0.0, &pool);
        let runs: Vec<_> = bs
            .chunks(40)
            .map(|b| landweber(&op, b, 40, 1.0, &pool))
            .collect();
        assert_slices_match(&batch, &runs);
    }

    #[test]
    fn zero_sinogram_slice_retires_immediately_in_cgls() {
        let csr = tall_system(30, 10, 3);
        let op = LoopOp::new(&csr);
        let pool = ThreadPool::new(1);
        let m = 30;
        let k = 2;
        // Slice 0 all-zero (gamma0 = 0 → immediate retire), slice 1 real.
        let (_, bs1) = batch_rhs(&csr, 1);
        let mut bs = vec![0.0; k * m];
        bs[m..].copy_from_slice(&bs1);
        let batch = cgls_batch(&op, &bs, k, 50, 1e-12, &pool);
        assert!(batch.slice(0).iter().all(|&v| v == 0.0));
        assert_eq!(batch.iterations[0], 0);
        assert!(batch.iterations[1] > 0);
        let runs: Vec<_> = bs
            .chunks(m)
            .map(|b| cgls(&op, b, 50, 1e-12, &pool))
            .collect();
        assert_slices_match(&batch, &runs);
    }

    #[test]
    fn batched_csr_pair_stays_close_to_width_one_runs() {
        let csr = tall_system(40, 12, 99);
        let op = SpmvOperator::csr_pair(&csr);
        let pool = ThreadPool::new(2);
        let k = 3;
        let (_, bs) = batch_rhs(&csr, k);
        let batch = sirt_batch(&op, &bs, k, 30, 1.0, 0.0, &pool);
        for (kk, b) in bs.chunks(40).enumerate() {
            let single = sirt(&op, b, 30, 1.0, &pool);
            let err = crate::metrics::rel_l2(batch.slice(kk), &single.x);
            assert!(err < 1e-10, "slice {kk} err {err}");
        }
    }

    #[test]
    fn swap_seg_moves_segments() {
        let mut buf = vec![0, 0, 1, 1, 2, 2];
        swap_seg(&mut buf, 2, 0, 2);
        assert_eq!(buf, vec![2, 2, 1, 1, 0, 0]);
        swap_seg(&mut buf, 2, 1, 1);
        assert_eq!(buf, vec![2, 2, 1, 1, 0, 0]);
    }
}
