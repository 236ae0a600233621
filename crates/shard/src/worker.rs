//! The worker side: own one shard, answer collectives.
//!
//! A worker receives its shard as a rebased CSR ([`crate::protocol::Msg::Matrix`]),
//! builds the best executor the shard admits, and then answers the
//! coordinator's collectives until told to shut down. Executor choice:
//!
//! * **View-aligned shard** (`n_views > 0` in the Matrix message, i.e.
//!   the shard's rows are whole sinogram views): convert to CSC and
//!   build a CSCV-M [`CscvExec`] from the static heuristic,
//!   `ExecConfig::heuristic(Variant::M)`. Forward and adjoint both run
//!   the CSCV kernels. A worker's product is one f64 thread streaming
//!   its whole shard, which is bandwidth-bound: the case for which the
//!   paper prescribes CSCV-M, whose value stream carries no padding
//!   zeros.
//! * **Anything else** (non-aligned boundaries, empty shards, a layout
//!   the CSCV build rejects): the CSR executor for the forward product
//!   and a serial scatter loop for the adjoint.
//!
//! Determinism: the CSCV adjoint is tile-disjoint (each column written
//! by exactly one thread, fixed in-tile order) and the CSR adjoint is
//! serial, so a worker's replies depend only on its inputs — never on
//! thread scheduling. That is what lets the coordinator's fixed-order
//! reduction make whole sharded solves reproducible.
//!
//! A worker sends nothing unasked: each request gets exactly one reply.
//! Its figures ([`WorkerStats`] plus its connection's byte counts) go
//! back only as the [`Msg::StatsOut`] reply to a `Stats` request.

use crate::plan::ColWindow;
use crate::protocol::{Msg, Role};
use crate::wire::{Conn, MAX_WORKER_THREADS};
use cscv_core::layout::ImageShape;
use cscv_core::{CscvExec, ExecConfig, SinoLayout, Variant};
use cscv_sparse::formats::CsrExec;
use cscv_sparse::{Csr, SpmvExecutor, ThreadPool};
use cscv_trace::duration_ns;
use std::io::{self, Read, Write};
use std::time::Instant;

/// Cumulative per-worker execution statistics, reported via
/// [`Msg::StatsOut`] and surfaced as the `shard.*` trace counters and
/// `-- shard` report columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Nanoseconds spent inside executor calls (build + products).
    pub busy_ns: u64,
    /// Forward products answered.
    pub spmv_calls: u64,
    /// Adjoint products answered.
    pub spmv_t_calls: u64,
}

/// The executor a worker built for its shard.
enum Exec {
    Cscv(Box<CscvExec<f64>>),
    Csr(CsrExec<f64>),
}

/// One shard's compute state: the executor (CSCV-M for a view-aligned
/// shard, the CSR pair otherwise; see the module docs), the retained
/// CSR (adjoint fallback and |A| sums), and the column-support window.
pub struct ShardBackend {
    csr: Csr<f64>,
    exec: Exec,
    /// Adjoint and column-sum replies are trimmed to this window.
    pub window: ColWindow,
    pool: ThreadPool,
}

impl ShardBackend {
    /// Build the backend for a shard. `layout`/`img` describe the
    /// shard's sinogram slice and the image; pass `None` for layout when
    /// the shard is not view-aligned to force the CSR pair. A layout
    /// that matches the shard builds CSCV-M; one that does not, or that
    /// the CSCV build rejects, falls back to the CSR pair.
    pub fn build(
        csr: Csr<f64>,
        layout: Option<SinoLayout>,
        img: ImageShape,
        threads: usize,
    ) -> ShardBackend {
        let pool = ThreadPool::new(threads.max(1));
        let window = ColWindow::of(&csr);
        let exec = match layout {
            Some(l)
                if l.n_views > 0
                    && l.n_bins > 0
                    && l.n_views.checked_mul(l.n_bins) == Some(csr.n_rows())
                    && img.nx.checked_mul(img.ny) == Some(csr.n_cols())
                    && csr.nnz() > 0 =>
            {
                // A shard the heuristic does not build for (odd layout)
                // degrades to the CSR pair.
                let cfg = ExecConfig::heuristic(Variant::M);
                match CscvExec::from_csc(&csr.to_csc(), l, img, cfg) {
                    Ok(exec) => Exec::Cscv(Box::new(exec)),
                    Err(_) => Exec::Csr(CsrExec::new(csr.clone())),
                }
            }
            _ => Exec::Csr(CsrExec::new(csr.clone())),
        };
        ShardBackend {
            csr,
            exec,
            window,
            pool,
        }
    }

    /// Executor name for reports ("CSCV-M", "MKL-CSR(analog)", …).
    pub fn exec_name(&self) -> String {
        match &self.exec {
            Exec::Cscv(e) => e.name(),
            Exec::Csr(e) => e.name(),
        }
    }

    pub fn n_rows(&self) -> usize {
        self.csr.n_rows()
    }

    pub fn n_cols(&self) -> usize {
        self.csr.n_cols()
    }

    /// Forward product for this shard's rows: `y_s = A_s x`.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.csr.n_rows()];
        match &self.exec {
            Exec::Cscv(e) => e.spmv(x, &mut y, &self.pool),
            Exec::Csr(e) => e.spmv(x, &mut y, &self.pool),
        }
        y
    }

    /// Full-width adjoint partial: `x̃ = A_sᵀ y_s` (zeros outside the
    /// column window). Deterministic — see the module docs.
    pub fn spmv_t(&self, y: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.csr.n_cols()];
        match &self.exec {
            Exec::Cscv(e) => e.spmv_transpose(y, &mut x, &self.pool),
            Exec::Csr(_) => {
                for (r, &yr) in y[..self.csr.n_rows()].iter().enumerate() {
                    let (cols, vals) = self.csr.row(r);
                    for (c, v) in cols.iter().zip(vals) {
                        x[*c as usize] += v * yr;
                    }
                }
            }
        }
        x
    }

    /// `|A_s|` row sums (one per shard row) and full-width column sums.
    pub fn abs_sums(&self) -> (Vec<f64>, Vec<f64>) {
        self.csr.abs_sums()
    }
}

fn proto_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("protocol: {what}"))
}

/// Validate a received [`Msg::Matrix`] into a CSR plus the optional
/// view-aligned layout. Only the wire-specific checks live here (`u64`
/// fields that must fit a `usize`, sizes that must not overflow); the
/// structure is checked once, by [`Csr::try_from_parts`].
fn decode_matrix(m: Msg<'_>) -> io::Result<(Csr<f64>, Option<SinoLayout>, ImageShape)> {
    let Msg::Matrix {
        n_cols,
        row0: _,
        n_views,
        n_bins,
        nx,
        ny,
        row_ptr,
        col_idx,
        vals,
    } = m
    else {
        return Err(proto_err("expected Matrix"));
    };
    let n_rows = row_ptr
        .len()
        .checked_sub(1)
        .ok_or_else(|| proto_err("empty row_ptr"))?;
    let n_cols = wire_usize(n_cols, "n_cols")?;
    let row_ptr = row_ptr
        .iter()
        .map(|&p| wire_usize(p, "row_ptr entry"))
        .collect::<io::Result<Vec<usize>>>()?;
    let (n_views, n_bins) = (
        wire_usize(n_views, "n_views")?,
        wire_usize(n_bins, "n_bins")?,
    );
    let (nx, ny) = (wire_usize(nx, "nx")?, wire_usize(ny, "ny")?);
    if n_views.checked_mul(n_bins).is_none() || nx.checked_mul(ny).is_none() {
        return Err(proto_err("sinogram or image size overflows usize"));
    }
    let csr = Csr::try_from_parts(
        n_rows,
        n_cols,
        row_ptr,
        col_idx.into_owned(),
        vals.into_owned(),
    )
    .map_err(|v| proto_err(&format!("invalid shard matrix: {v}")))?;
    let layout = (n_views > 0 && n_bins > 0).then_some(SinoLayout { n_views, n_bins });
    Ok((csr, layout, ImageShape { nx, ny }))
}

/// A wire `u64` as a `usize`, or the typed error naming `what`.
fn wire_usize(v: u64, what: &str) -> io::Result<usize> {
    usize::try_from(v).map_err(|_| proto_err(&format!("{what} {v} overflows usize")))
}

/// Serve one coordinator connection to completion: handshake, build,
/// then answer collectives until [`Msg::Shutdown`]. Returns the final
/// stats on clean shutdown. Every frame is held to the session table
/// ([`crate::protocol::TRANSITIONS`]); a malformed or out-of-order frame
/// ends the session with an [`Msg::Err`] naming the violation.
pub fn serve<S: Read + Write>(conn: &mut Conn<S>) -> io::Result<WorkerStats> {
    conn.enforce(Role::Worker);
    let result = serve_session(conn);
    if let Err(e) = &result {
        if e.kind() == io::ErrorKind::InvalidData {
            // Best effort: the coordinator may already be gone.
            let _ = Msg::Err { msg: e.to_string() }.send(conn);
        }
    }
    result
}

fn serve_session<S: Read + Write>(conn: &mut Conn<S>) -> io::Result<WorkerStats> {
    let Msg::Hello {
        threads, trace_id, ..
    } = Msg::recv(conn)?
    else {
        return Err(proto_err("expected Hello"));
    };
    // Checked before anything is spawned: the pool would otherwise try
    // to start `threads` OS threads.
    if threads > MAX_WORKER_THREADS {
        return Err(proto_err(&format!(
            "Hello.threads {threads} above MAX_WORKER_THREADS ({MAX_WORKER_THREADS})"
        )));
    }
    let threads = wire_usize(threads, "threads")?;
    let matrix = Msg::recv(conn)?;
    let t0 = Instant::now();
    let (csr, layout, img) = decode_matrix(matrix)?;
    let mut stats = WorkerStats::default();
    let backend = {
        let _s = cscv_trace::span::enter_ctx("shard.worker.build", 0, trace_id);
        ShardBackend::build(csr, layout, img, threads)
    };
    stats.busy_ns += duration_ns(t0.elapsed());
    Msg::MatrixAck {
        col_lo: backend.window.lo as u64,
        col_hi: backend.window.hi as u64,
        exec: backend.exec_name(),
    }
    .send(conn)?;

    loop {
        match Msg::recv(conn)? {
            Msg::Spmv { span, x } => {
                if x.len() != backend.n_cols() {
                    return Err(proto_err("spmv input width mismatch"));
                }
                let t0 = Instant::now();
                let y = {
                    let _s = cscv_trace::span::enter_ctx("shard.worker.spmv", 0, span);
                    backend.spmv(&x)
                };
                stats.busy_ns += duration_ns(t0.elapsed());
                stats.spmv_calls += 1;
                Msg::SpmvOut { y: y.into() }.send(conn)?;
            }
            Msg::SpmvT { span, y } => {
                if y.len() != backend.n_rows() {
                    return Err(proto_err("spmv_t input height mismatch"));
                }
                let t0 = Instant::now();
                let x = {
                    let _s = cscv_trace::span::enter_ctx("shard.worker.spmv_t", 0, span);
                    backend.spmv_t(&y)
                };
                stats.busy_ns += duration_ns(t0.elapsed());
                stats.spmv_t_calls += 1;
                Msg::SpmvTOut {
                    col_lo: backend.window.lo as u64,
                    partial: backend.window.trim(&x).into(),
                }
                .send(conn)?;
            }
            Msg::AbsSums { span } => {
                let t0 = Instant::now();
                let (row, col) = {
                    let _s = cscv_trace::span::enter_ctx("shard.worker.abs_sums", 0, span);
                    backend.abs_sums()
                };
                stats.busy_ns += duration_ns(t0.elapsed());
                Msg::AbsSumsOut {
                    row: row.into(),
                    col_lo: backend.window.lo as u64,
                    col: backend.window.trim(&col).into(),
                }
                .send(conn)?;
            }
            Msg::Stats { span: _ } => {
                Msg::StatsOut {
                    busy_ns: stats.busy_ns,
                    bytes_rx: conn.bytes_rx,
                    bytes_tx: conn.bytes_tx,
                    spmv_calls: stats.spmv_calls,
                    spmv_t_calls: stats.spmv_t_calls,
                }
                .send(conn)?;
            }
            Msg::Shutdown { span: _ } => {
                Msg::ShutdownAck.send(conn)?;
                return Ok(stats);
            }
            // Unreachable past the session check, which admits only
            // the requests above in the Ready state.
            other => return Err(proto_err(&format!("unexpected message {other:?}"))),
        }
    }
}

/// A no-op, kept only so the benchmark's shard-sirt reference call
/// site (`cscv-benchmark/src/workloads.rs`) still compiles; workers
/// read no per-process configuration.
pub fn env_cache() {}

/// Worker-process entry point: connect to the coordinator's Unix socket
/// and serve until shutdown. This is what
/// `cscv-shard-worker --socket PATH` runs.
pub fn run_process(socket: &str) -> io::Result<()> {
    let stream = std::os::unix::net::UnixStream::connect(socket)?;
    let mut conn = Conn::new(stream);
    serve(&mut conn)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cscv_sparse::Coo;

    fn toy_csr() -> Csr<f64> {
        let mut coo = Coo::new(4, 6);
        coo.push(0, 1, 2.0);
        coo.push(1, 2, -1.0);
        coo.push(2, 1, 0.5);
        coo.push(2, 4, 3.0);
        coo.push(3, 4, 1.0);
        coo.to_csr()
    }

    #[test]
    fn col_window_trims_to_support() {
        assert_eq!(ColWindow::of(&toy_csr()), ColWindow { lo: 1, hi: 5 });
        let empty: Csr<f64> = Coo::new(3, 9).to_csr();
        assert_eq!(ColWindow::of(&empty), ColWindow { lo: 0, hi: 0 });
    }

    #[test]
    fn csr_backend_products_match_reference() {
        let csr = toy_csr();
        let img = ImageShape { nx: 3, ny: 2 };
        let b = ShardBackend::build(csr.clone(), None, img, 2);
        assert_eq!(b.exec_name(), "MKL-CSR(analog)");

        let x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut y_ref = vec![0.0; 4];
        csr.spmv_serial(&x, &mut y_ref);
        assert_eq!(b.spmv(&x), y_ref);

        let y = [1.0, -2.0, 0.25, 4.0];
        let xt = b.spmv_t(&y);
        let mut xt_ref = vec![0.0; 6];
        for (r, yr) in y.iter().enumerate() {
            let (cols, vals) = csr.row(r);
            for (c, v) in cols.iter().zip(vals) {
                xt_ref[*c as usize] += v * yr;
            }
        }
        assert_eq!(xt, xt_ref);

        let (rs, cs) = b.abs_sums();
        assert_eq!(rs, vec![2.0, 1.0, 3.5, 1.0]);
        assert_eq!(cs[1], 2.5);
        assert_eq!(cs[4], 4.0);
    }

    /// Rows `views` of the tiny CT system matrix, rebased: a
    /// view-aligned shard as the planner cuts one.
    fn ct_shard(views: std::ops::Range<usize>) -> (Csr<f64>, SinoLayout, ImageShape) {
        let ds = cscv_ct::datasets::tiny();
        let csr = cscv_ct::system::SystemMatrix::assemble_csc::<f64>(&ds.geometry()).to_csr();
        let rows = views.start * ds.n_bins..views.end * ds.n_bins;
        let layout = SinoLayout {
            n_views: views.len(),
            n_bins: ds.n_bins,
        };
        let img = ImageShape {
            nx: ds.img,
            ny: ds.img,
        };
        (crate::plan::slice_rows(&csr, rows), layout, img)
    }

    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (a, b)) in got.iter().zip(want).enumerate() {
            assert!(
                (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0),
                "{what}[{i}]: {a} vs {b}"
            );
        }
    }

    #[test]
    fn view_aligned_shard_runs_cscv_m_and_odd_layouts_fall_back_to_csr() {
        let (csr, layout, img) = ct_shard(5..17);
        assert!(csr.nnz() > 0);
        let b = ShardBackend::build(csr.clone(), Some(layout), img, 1);
        assert_eq!(b.exec_name(), "CSCV-M");

        let x: Vec<f64> = (0..csr.n_cols()).map(|i| (i % 7) as f64 - 2.5).collect();
        let mut y_ref = vec![0.0; csr.n_rows()];
        csr.spmv_serial(&x, &mut y_ref);
        assert_close(&b.spmv(&x), &y_ref, "forward");

        let y: Vec<f64> = (0..csr.n_rows())
            .map(|i| (i % 5) as f64 * 0.75 - 1.0)
            .collect();
        let csr_pair = ShardBackend::build(csr.clone(), None, img, 1);
        assert_eq!(csr_pair.exec_name(), "MKL-CSR(analog)");
        assert_close(&b.spmv_t(&y), &csr_pair.spmv_t(&y), "adjoint");

        // A layout that does not tile the shard's rows is an odd layout.
        let odd = SinoLayout {
            n_views: layout.n_views + 1,
            ..layout
        };
        let b = ShardBackend::build(csr, Some(odd), img, 1);
        assert_eq!(b.exec_name(), "MKL-CSR(analog)");
    }

    /// Send one request and read the one frame that answers it.
    fn ask<S: Read + Write>(conn: &mut Conn<S>, m: Msg<'_>) -> Msg<'static> {
        m.send(conn).unwrap();
        Msg::recv(conn).unwrap()
    }

    /// A full session is strict request/reply: each request is answered
    /// by exactly its reply, and nothing follows `ShutdownAck`.
    #[test]
    fn serve_answers_a_full_session() {
        use std::os::unix::net::UnixStream;
        let (a, b) = UnixStream::pair().unwrap();
        let worker = std::thread::spawn(move || {
            let mut conn = Conn::new(b);
            serve(&mut conn).unwrap()
        });

        let mut conn = Conn::new(a);
        Msg::Hello {
            shard: 0,
            n_shards: 1,
            threads: 1,
            trace_id: 0,
        }
        .send(&mut conn)
        .unwrap();
        let csr = toy_csr();
        let matrix = Msg::Matrix {
            n_cols: 6,
            row0: 0,
            n_views: 0,
            n_bins: 0,
            nx: 3,
            ny: 2,
            row_ptr: csr
                .row_ptr()
                .iter()
                .map(|&p| p as u64)
                .collect::<Vec<_>>()
                .into(),
            col_idx: csr.col_idx().into(),
            vals: csr.vals().into(),
        };
        let Msg::MatrixAck { col_lo, col_hi, .. } = ask(&mut conn, matrix) else {
            panic!("expected MatrixAck");
        };
        assert_eq!((col_lo, col_hi), (1, 5));

        let spmv = Msg::Spmv {
            span: 0,
            x: vec![1.0; 6].into(),
        };
        assert_eq!(
            ask(&mut conn, spmv),
            Msg::SpmvOut {
                y: vec![2.0, -1.0, 3.5, 1.0].into()
            }
        );

        let spmv_t = Msg::SpmvT {
            span: 0,
            y: vec![1.0; 4].into(),
        };
        assert_eq!(
            ask(&mut conn, spmv_t),
            Msg::SpmvTOut {
                col_lo: 1,
                partial: vec![2.5, -1.0, 0.0, 4.0].into()
            }
        );

        let Msg::AbsSumsOut { row, col_lo, .. } = ask(&mut conn, Msg::AbsSums { span: 0 }) else {
            panic!("expected AbsSumsOut");
        };
        assert_eq!((&row[..], col_lo), (&[2.0, 1.0, 3.5, 1.0][..], 1));

        let Msg::StatsOut {
            spmv_calls,
            spmv_t_calls,
            ..
        } = ask(&mut conn, Msg::Stats { span: 0 })
        else {
            panic!("expected StatsOut");
        };
        assert_eq!((spmv_calls, spmv_t_calls), (1, 1));

        assert_eq!(ask(&mut conn, Msg::Shutdown { span: 0 }), Msg::ShutdownAck);
        let stats = worker.join().unwrap();
        assert_eq!(stats.spmv_calls, 1);
        let e = Msg::recv(&mut conn).unwrap_err();
        assert_eq!(
            e.kind(),
            io::ErrorKind::UnexpectedEof,
            "a frame followed ShutdownAck"
        );
    }

    #[test]
    fn out_of_order_request_ends_the_session_with_an_err_frame() {
        use std::os::unix::net::UnixStream;
        let (a, b) = UnixStream::pair().unwrap();
        let worker = std::thread::spawn(move || {
            let mut conn = Conn::new(b);
            serve(&mut conn)
        });
        let mut conn = Conn::new(a);
        Msg::Hello {
            shard: 0,
            n_shards: 1,
            threads: 1,
            trace_id: 0,
        }
        .send(&mut conn)
        .unwrap();
        // A product before any Matrix: the session has no such edge.
        Msg::Spmv {
            span: 0,
            x: vec![1.0].into(),
        }
        .send(&mut conn)
        .unwrap();
        let e = worker.join().unwrap().unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        let reply = Msg::recv(&mut conn).unwrap_err();
        assert!(reply.to_string().contains("Greeted"), "{reply}");
    }

    #[test]
    fn malformed_matrix_is_rejected() {
        let matrix = |n_cols: u64, side: u64, col_idx: Vec<u32>| Msg::Matrix {
            n_cols,
            row0: 0,
            n_views: side,
            n_bins: side,
            nx: side,
            ny: side,
            row_ptr: vec![0, col_idx.len() as u64].into(),
            vals: vec![1.0; col_idx.len()].into(),
            col_idx: col_idx.into(),
        };
        for (m, why) in [
            (
                matrix(2, 1, vec![5]),
                "[CSR-IDX] row 0: index 5 out of bounds",
            ),
            (
                matrix(2, 1, vec![1, 0]),
                "[CSR-IDX] row 0: indices not strictly sorted",
            ),
            (matrix(u64::MAX, 1, vec![0]), "[IDX-U32]"),
            (matrix(2, 1 << 33, vec![0]), "overflows usize"),
        ] {
            let e = decode_matrix(m).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(e.to_string().contains(why), "{e}");
        }
    }

    /// Oversized wire fields end the session with a typed error before
    /// any allocation or thread spawn they would size.
    #[test]
    fn oversized_hello_threads_and_image_end_the_session() {
        use std::os::unix::net::UnixStream;
        for (threads, side, why) in [
            (u64::MAX, 1, "MAX_WORKER_THREADS"),
            (1, 1 << 33, "overflows usize"),
        ] {
            let (a, b) = UnixStream::pair().unwrap();
            let worker = std::thread::spawn(move || {
                let mut conn = Conn::new(b);
                serve(&mut conn)
            });
            let mut conn = Conn::new(a);
            Msg::Hello {
                shard: 0,
                n_shards: 1,
                threads,
                trace_id: 0,
            }
            .send(&mut conn)
            .unwrap();
            // After a rejected Hello the worker may already have hung up.
            let _ = Msg::Matrix {
                n_cols: 1,
                row0: 0,
                n_views: side,
                n_bins: side,
                nx: side,
                ny: side,
                row_ptr: vec![0, 1].into(),
                col_idx: vec![0].into(),
                vals: vec![1.0].into(),
            }
            .send(&mut conn);
            let e = worker.join().unwrap().unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            assert!(e.to_string().contains(why), "{e}");
            let reply = Msg::recv(&mut conn).unwrap_err();
            assert!(reply.to_string().contains(why), "{reply}");
        }
    }
}
