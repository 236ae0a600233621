//! The coordinator side: launch workers, run collectives, merge.
//!
//! A [`Cluster`] owns one framed connection per worker. Every collective
//! is issued to all workers before any reply is read (workers compute
//! concurrently), and replies are always drained in **shard order**, so
//! the data flow is a function of the partition alone:
//!
//! * [`Cluster::spmv`] — broadcast `x`, place each shard's contiguous
//!   `y` rows. Placement only, no floating-point merge: bitwise equal to
//!   the single-process product for any worker count.
//! * [`Cluster::spmv_t`] — scatter `y` slices, expand each worker's
//!   halo-trimmed partial to full width, and merge with
//!   [`tree_reduce`] — a fixed-order pairwise reduction whose addition
//!   order depends only on shard indices, never on arrival timing.
//!   One shard degenerates to a copy (byte-identical to local).
//!
//! Two launch modes share the protocol code path end to end:
//! [`Launch::Threads`] drives in-process workers over socketpairs (fast,
//! used by the equivalence tests), [`Launch::Process`] spawns real
//! worker processes (`cscv-xtask shard-worker`) against a listening
//! Unix socket — the mode the `shard-smoke` CI job gates.
//!
//! **Accounting.** [`Cluster::stats`] asks every worker for its
//! figures (a `Stats` request, answered by one `StatsOut`) and adds the
//! coordinator's own: bytes per connection and time spent in
//! [`tree_reduce`]. A worker that fails the exchange is reported
//! `degraded`, with the figures of its last good `StatsOut`. In traced
//! builds the coordinator also records one `shard.dispatch.*` span per
//! collective; its id rides on the request, and workers parent their
//! compute spans to it.

use crate::plan::{ColWindow, ShardPlan};
use crate::protocol::{Msg, Role};
use crate::wire::Conn;
use crate::worker;
use cscv_core::layout::ImageShape;
use cscv_core::SinoLayout;
use cscv_sparse::Csr;
use cscv_trace::{duration_ns, span};
use std::io;
use std::ops::Range;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How worker endpoints are brought up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Launch {
    /// In-process worker threads over socketpairs. Exercises the full
    /// protocol (framing, trimming, reduction) without process spawns.
    Threads,
    /// Spawn `cmd` once per shard with `--socket <path>` appended; each
    /// child connects back to the coordinator's listening socket. `cmd`
    /// is typically `[current_exe, "shard-worker"]`.
    Process { cmd: Vec<String> },
}

/// Per-worker figures for reports (`-- shard` table / NDJSON rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    pub shard: usize,
    pub rows: Range<usize>,
    pub nnz: usize,
    /// Executor the worker built ("CSCV-M", "MKL-CSR(analog)", …).
    pub exec: String,
    /// Column-support (halo) window.
    pub col_lo: usize,
    pub col_hi: usize,
    pub busy_ns: u64,
    pub spmv_calls: u64,
    pub spmv_t_calls: u64,
    /// The worker died or desynced before final stats could be read;
    /// `busy_ns`/`*_calls` come from its last good `StatsOut` (zeros if
    /// it never answered one).
    pub degraded: bool,
}

/// Cluster-wide traffic and merge-cost figures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterStats {
    pub workers: Vec<WorkerReport>,
    /// Coordinator-side bytes written across all connections.
    pub bytes_tx: u64,
    /// Coordinator-side bytes read across all connections.
    pub bytes_rx: u64,
    /// Nanoseconds spent in [`tree_reduce`] merges.
    pub reduce_ns: u64,
    /// Wall-clock covered by the cluster, connect to shutdown.
    pub wall_ns: u64,
}

/// Fixed-order pairwise tree reduction: fold `bufs[i + s]` into
/// `bufs[i]` for strides `s = 1, 2, 4, …` — the addition order is a
/// function of the indices alone, so the merged vector is identical
/// across runs regardless of how replies arrived. A single buffer is
/// returned untouched (no floating-point op at all). Traced builds drop
/// one `shard.reduce.step` instant marker per stride.
pub fn tree_reduce(mut bufs: Vec<Vec<f64>>) -> Vec<f64> {
    assert!(!bufs.is_empty(), "tree_reduce needs at least one buffer");
    let n = bufs.len();
    let mut s = 1;
    while s < n {
        let mut i = 0;
        let mut merges = 0u64;
        while i + s < n {
            let (head, tail) = bufs.split_at_mut(i + s);
            let dst = &mut head[i];
            let src = &tail[0];
            debug_assert_eq!(dst.len(), src.len());
            for (d, v) in dst.iter_mut().zip(src) {
                *d += v;
            }
            merges += 1;
            i += 2 * s;
        }
        span::event(
            "shard.reduce.step",
            &[("stride", s as f64), ("merges", merges as f64)],
        );
        s *= 2;
    }
    bufs.swap_remove(0)
}

/// Process-global sequence for unique socket paths (pid alone is not
/// enough: one process may start many clusters). A Relaxed `fetch_add`
/// suffices: only uniqueness matters, never ordering.
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

enum Endpoint {
    /// Joins to whether `serve()` completed cleanly, telling a protocol
    /// shutdown apart from a thread that bailed mid-serve.
    Thread(std::thread::JoinHandle<bool>),
    Process(Child),
}

/// The figures of a worker's last good [`Msg::StatsOut`] — what its
/// report row keeps once the worker is degraded.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    busy_ns: u64,
    spmv_calls: u64,
    spmv_t_calls: u64,
}

/// What the coordinator remembers about one worker between collectives.
#[derive(Debug, Default)]
struct WorkerState {
    snapshot: Snapshot,
    degraded: bool,
}

/// Open a coordinator dispatch span and return its wire id (0 — and no
/// recorded span — in untraced builds).
fn dispatch(name: &'static str) -> (u64, span::SpanGuard) {
    let sid = span::next_span_id();
    (sid, span::enter_ctx(name, sid, 0))
}

/// A running shard cluster: one connection per worker, replies drained
/// in shard order.
pub struct Cluster {
    conns: Vec<Conn<UnixStream>>,
    endpoints: Vec<Endpoint>,
    states: Vec<WorkerState>,
    ranges: Vec<Range<usize>>,
    shard_nnz: Vec<usize>,
    windows: Vec<ColWindow>,
    execs: Vec<String>,
    n_rows: usize,
    n_cols: usize,
    reduce_ns: u64,
    started: Instant,
    socket_path: Option<PathBuf>,
}

/// Collective-input dimension check: a mismatched vector is the
/// caller's bug, but reported as an error (not a panic or a poisoned
/// worker) so a driver can surface it and keep the cluster usable.
fn check_len(what: &str, got: usize, want: usize) -> io::Result<()> {
    if got == want {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{what}: length {got}, expected {want}"),
        ))
    }
}

impl Cluster {
    /// Partition `csr` by `plan`, bring up one worker per shard via
    /// `launch`, ship each its sub-matrix, and wait for every
    /// [`Msg::MatrixAck`]. `layout` is the full sinogram layout; a shard
    /// is handed a view-aligned sub-layout iff both of its boundaries
    /// fall on a multiple of `layout.n_bins` — always the case when
    /// `plan.block_rows == layout.n_bins`, and trivially for a one-shard
    /// plan (otherwise that worker uses the CSR pair).
    ///
    /// Every `Hello` carries the cluster trace id (0 in untraced builds);
    /// worker build spans parent to it.
    pub fn start(
        csr: &Csr<f64>,
        plan: &ShardPlan,
        layout: SinoLayout,
        img: ImageShape,
        threads_per_worker: usize,
        launch: &Launch,
    ) -> io::Result<Cluster> {
        let started = Instant::now();
        let n = plan.n_shards();
        assert!(n >= 1, "cluster needs at least one shard");
        let trace_id = span::next_span_id();
        let _s = span::enter_ctx("shard.cluster.start", trace_id, 0);

        let (mut conns, endpoints, socket_path) = connect_all(n, launch)?;
        for conn in conns.iter_mut() {
            conn.enforce(Role::Coordinator);
        }
        let mut shard_nnz = Vec::with_capacity(n);
        for (i, conn) in conns.iter_mut().enumerate() {
            let range = plan.ranges[i].clone();
            // The shard's rows go from `csr` straight into the message,
            // with no intermediate shard matrix in between.
            let row_ptr = &csr.row_ptr()[range.start..=range.end];
            let (lo, hi) = (row_ptr[0], row_ptr[range.len()]);
            shard_nnz.push(hi - lo);
            Msg::Hello {
                shard: i as u64,
                n_shards: n as u64,
                threads: threads_per_worker as u64,
                trace_id,
            }
            .send(conn)?;
            let view_aligned = layout.n_bins > 0
                && range.start.is_multiple_of(layout.n_bins)
                && range.end.is_multiple_of(layout.n_bins);
            let (n_views, n_bins) = if view_aligned {
                (range.len() / layout.n_bins, layout.n_bins)
            } else {
                (0, 0)
            };
            Msg::Matrix {
                n_cols: csr.n_cols() as u64,
                row0: range.start as u64,
                n_views: n_views as u64,
                n_bins: n_bins as u64,
                nx: img.nx as u64,
                ny: img.ny as u64,
                row_ptr: row_ptr.iter().map(|&p| (p - lo) as u64).collect(),
                col_idx: csr.col_idx()[lo..hi].to_vec(),
                vals: csr.vals()[lo..hi].to_vec(),
            }
            .send(conn)?;
        }
        let mut windows = Vec::with_capacity(n);
        let mut execs = Vec::with_capacity(n);
        for conn in conns.iter_mut() {
            let Msg::MatrixAck {
                col_lo,
                col_hi,
                exec,
            } = Msg::recv(conn)?
            else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected MatrixAck",
                ));
            };
            windows.push(ColWindow::new(col_lo, col_hi, csr.n_cols())?);
            execs.push(exec);
        }
        Ok(Cluster {
            conns,
            endpoints,
            states: (0..n).map(|_| WorkerState::default()).collect(),
            ranges: plan.ranges.clone(),
            shard_nnz,
            windows,
            execs,
            n_rows: csr.n_rows(),
            n_cols: csr.n_cols(),
            reduce_ns: 0,
            started,
            socket_path,
        })
    }

    pub fn n_workers(&self) -> usize {
        self.conns.len()
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Executor names the workers reported, in shard order.
    pub fn exec_names(&self) -> &[String] {
        &self.execs
    }

    /// Forward collective `y = A x`: broadcast, then place each shard's
    /// contiguous rows. No merge arithmetic.
    pub fn spmv(&mut self, x: &[f64], y: &mut [f64]) -> io::Result<()> {
        check_len("spmv x", x.len(), self.n_cols)?;
        check_len("spmv y", y.len(), self.n_rows)?;
        let (sid, _s) = dispatch("shard.dispatch.spmv");
        for conn in self.conns.iter_mut() {
            Msg::Spmv {
                span: sid,
                x: x.to_vec(),
            }
            .send(conn)?;
        }
        for (i, conn) in self.conns.iter_mut().enumerate() {
            let Msg::SpmvOut { y: part } = Msg::recv(conn)? else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected SpmvOut",
                ));
            };
            let range = self.ranges[i].clone();
            if part.len() != range.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "SpmvOut length mismatch",
                ));
            }
            y[range].copy_from_slice(&part);
        }
        Ok(())
    }

    /// Adjoint collective `x = Aᵀ y`: scatter row slices, expand the
    /// halo-trimmed partials, merge in fixed shard order.
    pub fn spmv_t(&mut self, y: &[f64], x: &mut [f64]) -> io::Result<()> {
        check_len("spmv_t y", y.len(), self.n_rows)?;
        check_len("spmv_t x", x.len(), self.n_cols)?;
        let (sid, _s) = dispatch("shard.dispatch.spmv_t");
        for (i, conn) in self.conns.iter_mut().enumerate() {
            Msg::SpmvT {
                span: sid,
                y: y[self.ranges[i].clone()].to_vec(),
            }
            .send(conn)?;
        }
        let mut partials = Vec::with_capacity(self.conns.len());
        for (i, conn) in self.conns.iter_mut().enumerate() {
            let Msg::SpmvTOut { col_lo, partial } = Msg::recv(conn)? else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected SpmvTOut",
                ));
            };
            let w = self.windows[i];
            partials.push(w.place(col_lo, &partial, self.n_cols)?);
            span::event(
                "shard.halo_exchange",
                &[
                    ("worker", i as f64),
                    ("col_lo", w.lo as f64),
                    ("width", w.width() as f64),
                    ("bytes", (partial.len() * 8) as f64),
                ],
            );
        }
        let t0 = Instant::now();
        let merged = tree_reduce(partials);
        self.reduce_ns += duration_ns(t0.elapsed());
        x.copy_from_slice(&merged);
        Ok(())
    }

    /// `|A|` row and column sums: rows by placement, columns by the same
    /// fixed-order reduction as the adjoint.
    pub fn abs_sums(&mut self) -> io::Result<(Vec<f64>, Vec<f64>)> {
        let (sid, _s) = dispatch("shard.dispatch.abs_sums");
        for conn in self.conns.iter_mut() {
            Msg::AbsSums { span: sid }.send(conn)?;
        }
        let mut rows = vec![0.0; self.n_rows];
        let mut partials = Vec::with_capacity(self.conns.len());
        for (i, conn) in self.conns.iter_mut().enumerate() {
            let Msg::AbsSumsOut { row, col_lo, col } = Msg::recv(conn)? else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected AbsSumsOut",
                ));
            };
            let range = self.ranges[i].clone();
            if row.len() != range.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "AbsSumsOut row count mismatch",
                ));
            }
            rows[range].copy_from_slice(&row);
            partials.push(self.windows[i].place(col_lo, &col, self.n_cols)?);
        }
        let t0 = Instant::now();
        let cols = tree_reduce(partials);
        self.reduce_ns += duration_ns(t0.elapsed());
        Ok((rows, cols))
    }

    /// Snapshot worker and traffic statistics (workers keep serving). A
    /// worker that fails the exchange is marked degraded and keeps the
    /// figures of its last good `StatsOut`; healthy workers are
    /// unaffected.
    pub fn stats(&mut self) -> io::Result<ClusterStats> {
        let (sid, _s) = dispatch("shard.dispatch.stats");
        for (i, conn) in self.conns.iter_mut().enumerate() {
            if self.states[i].degraded {
                continue;
            }
            if (Msg::Stats { span: sid }).send(conn).is_err() {
                self.states[i].degraded = true;
            }
        }
        let mut workers = Vec::with_capacity(self.conns.len());
        for (i, conn) in self.conns.iter_mut().enumerate() {
            let st = &mut self.states[i];
            if !st.degraded {
                match Msg::recv(conn) {
                    Ok(Msg::StatsOut {
                        busy_ns,
                        spmv_calls,
                        spmv_t_calls,
                        ..
                    }) => {
                        st.snapshot = Snapshot {
                            busy_ns,
                            spmv_calls,
                            spmv_t_calls,
                        }
                    }
                    _ => st.degraded = true,
                }
            }
            let snap = st.snapshot;
            workers.push(WorkerReport {
                shard: i,
                rows: self.ranges[i].clone(),
                nnz: self.shard_nnz[i],
                exec: self.execs[i].clone(),
                col_lo: self.windows[i].lo,
                col_hi: self.windows[i].hi,
                busy_ns: snap.busy_ns,
                spmv_calls: snap.spmv_calls,
                spmv_t_calls: snap.spmv_t_calls,
                degraded: st.degraded,
            });
        }
        Ok(ClusterStats {
            workers,
            bytes_tx: self.conns.iter().map(|c| c.bytes_tx).sum(),
            bytes_rx: self.conns.iter().map(|c| c.bytes_rx).sum(),
            reduce_ns: self.reduce_ns,
            wall_ns: duration_ns(self.started.elapsed()),
        })
    }

    /// Collect final statistics, shut every worker down cleanly, and
    /// reap the endpoints. Workers that die during shutdown are reported
    /// `degraded`, not errors; their rows keep their last good
    /// `StatsOut`. Also publishes the `shard.*` trace counters (traced
    /// builds), exactly once per cluster.
    pub fn shutdown(mut self) -> io::Result<ClusterStats> {
        let mut stats = self.stats()?;
        let (sid, _s) = dispatch("shard.dispatch.shutdown");
        for (i, conn) in self.conns.iter_mut().enumerate() {
            if self.states[i].degraded {
                continue;
            }
            if (Msg::Shutdown { span: sid }).send(conn).is_err() {
                self.states[i].degraded = true;
            }
        }
        for (i, conn) in self.conns.iter_mut().enumerate() {
            let st = &mut self.states[i];
            if !st.degraded && !matches!(Msg::recv(conn), Ok(Msg::ShutdownAck)) {
                st.degraded = true;
            }
        }
        for (i, ep) in self.endpoints.drain(..).enumerate() {
            match ep {
                Endpoint::Thread(handle) => {
                    if !matches!(handle.join(), Ok(true)) {
                        self.states[i].degraded = true;
                    }
                }
                Endpoint::Process(mut child) => match child.wait() {
                    Ok(status) if status.success() => {}
                    _ => self.states[i].degraded = true,
                },
            }
        }
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
        // Endpoint reaping may have degraded workers after their report
        // rows were built; reconcile the flags.
        for w in stats.workers.iter_mut() {
            w.degraded |= self.states[w.shard].degraded;
        }
        stats.bytes_tx = self.conns.iter().map(|c| c.bytes_tx).sum();
        stats.bytes_rx = self.conns.iter().map(|c| c.bytes_rx).sum();
        stats.wall_ns = duration_ns(self.started.elapsed());
        if cscv_trace::ENABLED {
            use cscv_trace::counters::{add, Counter};
            add(Counter::ShardBytesTx, stats.bytes_tx);
            add(Counter::ShardBytesRx, stats.bytes_rx);
            add(Counter::ShardReduceNs, self.reduce_ns);
            add(
                Counter::ShardWorkerBusyNs,
                stats.workers.iter().map(|w| w.busy_ns).sum(),
            );
        }
        Ok(stats)
    }
}

impl Drop for Cluster {
    /// Best-effort cleanup when `shutdown` was skipped (e.g. a test
    /// failure unwound past it): kill children, drop the socket file.
    fn drop(&mut self) {
        for ep in self.endpoints.drain(..) {
            match ep {
                Endpoint::Thread(_) => {} // unblocks when its socket drops
                Endpoint::Process(mut child) => {
                    let _ = child.kill();
                    let _ = child.wait();
                }
            }
        }
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Bring up `n` worker endpoints and return their connections in shard
/// order (accept order defines shard identity for processes). Serve
/// threads are named `cscv-shard-serve-{i}` so trace exporters can tell
/// in-process worker events apart from coordinator events in the shared
/// registry.
#[allow(clippy::type_complexity)]
fn connect_all(
    n: usize,
    launch: &Launch,
) -> io::Result<(Vec<Conn<UnixStream>>, Vec<Endpoint>, Option<PathBuf>)> {
    match launch {
        Launch::Threads => {
            let mut conns = Vec::with_capacity(n);
            let mut endpoints = Vec::with_capacity(n);
            for i in 0..n {
                let (ours, theirs) = UnixStream::pair()?;
                let handle = std::thread::Builder::new()
                    .name(format!("cscv-shard-serve-{i}"))
                    .spawn(move || {
                        let mut conn = Conn::new(theirs);
                        // Errors surface on the coordinator side as broken
                        // frames; the thread itself just stops serving.
                        worker::serve(&mut conn).is_ok()
                    })?;
                endpoints.push(Endpoint::Thread(handle));
                conns.push(Conn::new(ours));
            }
            Ok((conns, endpoints, None))
        }
        Launch::Process { cmd } => {
            assert!(!cmd.is_empty(), "process launch needs a command");
            let path = std::env::temp_dir().join(format!(
                "cscv-shard-{}-{}.sock",
                std::process::id(),
                SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)?;
            let mut endpoints = Vec::with_capacity(n);
            for _ in 0..n {
                let child = Command::new(&cmd[0])
                    .args(&cmd[1..])
                    .arg("--socket")
                    .arg(&path)
                    .spawn()?;
                endpoints.push(Endpoint::Process(child));
            }
            let mut conns = Vec::with_capacity(n);
            listener.set_nonblocking(true)?;
            let deadline = Instant::now() + Duration::from_secs(60);
            while conns.len() < n {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false)?;
                        conns.push(Conn::new(stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if Instant::now() > deadline {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "workers did not connect within 60s",
                            ));
                        }
                        // A worker that died before connecting would
                        // hang the accept loop; fail fast instead.
                        for ep in endpoints.iter_mut() {
                            if let Endpoint::Process(child) = ep {
                                if let Some(status) = child.try_wait()? {
                                    return Err(io::Error::other(format!(
                                        "worker exited before connecting: {status}"
                                    )));
                                }
                            }
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok((conns, endpoints, Some(path)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PartitionMethod, ShardPlan};
    use cscv_sparse::Coo;

    #[test]
    fn tree_reduce_is_fixed_order_and_copy_for_one() {
        let a = vec![1.0, 2.0];
        assert_eq!(tree_reduce(vec![a.clone()]), a);
        // Orderings that would differ under naive accumulation still
        // produce the tree's fixed result: ((a+b)+(c+d)).
        let bufs = vec![vec![1e100], vec![-1e100], vec![1.0], vec![-1.0]];
        assert_eq!(tree_reduce(bufs), vec![0.0]);
        // Five buffers: ((a+b)+(c+d)) + e.
        let bufs = vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0], vec![5.0]];
        assert_eq!(tree_reduce(bufs), vec![15.0]);
    }

    fn banded_csr(n_rows: usize, n_cols: usize) -> Csr<f64> {
        let mut coo = Coo::new(n_rows, n_cols);
        for r in 0..n_rows {
            for k in 0..3usize {
                let c = (r * 7 + k * 3) % n_cols;
                coo.push(r, c, 1.0 + (r % 5) as f64 * 0.25 + k as f64 * 0.5);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn thread_cluster_matches_serial_products() {
        let csr = banded_csr(48, 30);
        let plan = ShardPlan::new(
            &(0..48).map(|r| csr.row(r).0.len()).collect::<Vec<_>>(),
            3,
            1,
            PartitionMethod::Stripe,
        );
        let layout = SinoLayout {
            n_views: 0,
            n_bins: 0,
        };
        let img = ImageShape { nx: 6, ny: 5 };
        let mut cluster = Cluster::start(&csr, &plan, layout, img, 1, &Launch::Threads).unwrap();
        assert_eq!(cluster.n_workers(), 3);

        let x: Vec<f64> = (0..30).map(|i| (i as f64) * 0.5 - 4.0).collect();
        let mut y = vec![0.0; 48];
        cluster.spmv(&x, &mut y).unwrap();
        let mut y_ref = vec![0.0; 48];
        csr.spmv_serial(&x, &mut y_ref);
        assert_eq!(y, y_ref);

        let yin: Vec<f64> = (0..48).map(|i| ((i % 9) as f64) - 4.0).collect();
        let mut xt = vec![0.0; 30];
        cluster.spmv_t(&yin, &mut xt).unwrap();
        let mut xt_ref = vec![0.0; 30];
        for (r, yr) in yin.iter().enumerate() {
            let (cols, vals) = csr.row(r);
            for (c, v) in cols.iter().zip(vals) {
                xt_ref[*c as usize] += v * yr;
            }
        }
        for (a, b) in xt.iter().zip(&xt_ref) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }

        let (rows, cols) = cluster.abs_sums().unwrap();
        assert_eq!(rows.len(), 48);
        assert_eq!(cols.len(), 30);
        assert!(rows.iter().all(|&v| v > 0.0));

        // Every worker answered one forward and one adjoint product.
        let mid = cluster.stats().unwrap();
        assert_eq!(mid.workers.len(), 3);
        for w in &mid.workers {
            assert_eq!((w.spmv_calls, w.spmv_t_calls), (1, 1));
            assert!(!w.degraded);
        }

        let stats = cluster.shutdown().unwrap();
        assert_eq!(stats.workers.len(), 3);
        assert!(stats.bytes_tx > mid.bytes_tx && stats.bytes_rx > mid.bytes_rx);
        assert_eq!(stats.workers.iter().map(|w| w.spmv_calls).sum::<u64>(), 3);
        assert!(stats.workers.iter().all(|w| !w.degraded));
    }

    #[test]
    fn single_shard_cluster_is_byte_identical_to_backend() {
        let csr = banded_csr(32, 20);
        let plan = ShardPlan::new(&vec![3usize; 32], 1, 1, PartitionMethod::Stripe);
        let img = ImageShape { nx: 5, ny: 4 };
        let layout = SinoLayout {
            n_views: 0,
            n_bins: 0,
        };
        let mut cluster = Cluster::start(&csr, &plan, layout, img, 1, &Launch::Threads).unwrap();
        let backend = crate::worker::ShardBackend::build(csr, None, img, 1);

        let y: Vec<f64> = (0..32).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut xt = vec![0.0; 20];
        cluster.spmv_t(&y, &mut xt).unwrap();
        let xt_ref = backend.spmv_t(&y);
        for (a, b) in xt.iter().zip(&xt_ref) {
            assert_eq!(a.to_bits(), b.to_bits(), "one shard must be bitwise equal");
        }
        cluster.shutdown().unwrap();
    }

    /// A coordinator connection that has sent Hello and Matrix and now
    /// waits for MatrixAck, plus an unchecked peer scripting the worker.
    fn coordinator_awaiting_ack() -> (Conn<UnixStream>, Conn<UnixStream>) {
        let (a, b) = UnixStream::pair().unwrap();
        let mut coord = Conn::new(a);
        coord.enforce(Role::Coordinator);
        Msg::Hello {
            shard: 0,
            n_shards: 1,
            threads: 1,
            trace_id: 0,
        }
        .send(&mut coord)
        .unwrap();
        Msg::Matrix {
            n_cols: 1,
            row0: 0,
            n_views: 0,
            n_bins: 0,
            nx: 1,
            ny: 1,
            row_ptr: vec![0],
            col_idx: vec![],
            vals: vec![],
        }
        .send(&mut coord)
        .unwrap();
        (coord, Conn::new(b))
    }

    #[test]
    fn reply_out_of_order_is_invalid_data() {
        let (mut coord, mut peer) = coordinator_awaiting_ack();
        Msg::SpmvOut { y: vec![1.0] }.send(&mut peer).unwrap();
        let e = Msg::recv(&mut coord).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("MatrixWait"), "{e}");
        assert!(e.to_string().contains("tag 5"), "{e}");
    }

    /// A worker that dies keeps the figures of its last good `StatsOut`
    /// and is marked degraded; healthy siblings stay clean.
    #[test]
    fn dead_worker_is_reported_degraded_with_last_snapshot() {
        let csr = banded_csr(40, 24);
        let plan = ShardPlan::new(&vec![3usize; 40], 2, 1, PartitionMethod::Stripe);
        let layout = SinoLayout {
            n_views: 0,
            n_bins: 0,
        };
        let img = ImageShape { nx: 6, ny: 4 };
        let mut cluster = Cluster::start(&csr, &plan, layout, img, 1, &Launch::Threads).unwrap();

        let x = vec![1.0; 24];
        let mut y = vec![0.0; 40];
        cluster.spmv(&x, &mut y).unwrap();
        let before = cluster.stats().unwrap();
        assert!(before.workers.iter().all(|w| w.spmv_calls == 1));

        // Kill worker 1 out of band: a raw Shutdown makes its serve loop
        // return cleanly from the worker's point of view, after which
        // the coordinator's Stats exchange with it fails.
        Msg::Shutdown { span: 0 }
            .send(&mut cluster.conns[1])
            .unwrap();
        assert_eq!(Msg::recv(&mut cluster.conns[1]).unwrap(), Msg::ShutdownAck);

        let stats = cluster.shutdown().unwrap();
        assert!(!stats.workers[0].degraded);
        assert!(stats.workers[1].degraded);
        assert_eq!(stats.workers[0].spmv_calls, 1);
        assert_eq!(stats.workers[1].spmv_calls, 1, "last good StatsOut kept");
    }
}
