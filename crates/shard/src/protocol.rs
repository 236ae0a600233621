//! The coordinator↔worker message set.
//!
//! A deliberately small RPC surface: every collective a solver needs is
//! one request/reply pair, and every request is issued to *all* workers
//! before any reply is read, so workers compute concurrently while the
//! coordinator drains replies in fixed shard order.
//!
//! ```text
//! coordinator                         worker
//!   Hello{shard,…,trace_id}       ──▶
//!   Matrix{shard CSR + layout}    ──▶  builds CscvExec / CSR pair
//!                                 ◀──  MatrixAck{col window, exec}
//!   Spmv{span,x}                  ──▶  y_s = A_s x
//!                                 ◀──  SpmvOut{y_s}
//!   SpmvT{span,y_s}               ──▶  x̃_s = A_sᵀ y_s
//!                                 ◀──  SpmvTOut{x̃_s[window]}
//!   AbsSums{span}                 ──▶
//!                                 ◀──  AbsSumsOut{row sums, col sums[window]}
//!   Stats{span}                   ──▶
//!                                 ◀──  StatsOut{busy ns, bytes, calls}
//!   Shutdown{span}                ──▶
//!                                 ◀──  ShutdownAck
//! ```
//!
//! Strict request/reply: a worker sends nothing it was not asked for,
//! and each request gets exactly one reply (or an [`Msg::Err`]). What a
//! worker did is read through `Stats`/`StatsOut`, never streamed.
//!
//! **Trace context.** Every coordinator request carries a `span` id (0
//! in untraced builds) naming the dispatch span that caused it, and
//! `Hello` carries the cluster's trace id; workers open their spans
//! parented to those ids. In-process workers (`Launch::Threads`) record
//! into the coordinator's own registry, so one trace shows dispatch and
//! compute side by side.
//!
//! Layouts are fixed little-endian ([`crate::wire`]); `Msg::encode` /
//! [`Msg::decode`] are exact inverses (round-trip tested below).
//!
//! **Session check.** [`TRANSITIONS`] is the diagram as data. Both
//! endpoints hold their connection to it ([`crate::wire::Conn::enforce`]):
//! every frame sent or received steps a per-connection [`Session`], and
//! a frame the table rejects fails with `InvalidData` instead of
//! desyncing the exchange. One table lookup per frame, always on.

use crate::wire::{Dec, Enc};
use std::io;

/// Frame tags (one per variant; `Err` is 255 so it stands out in dumps).
/// Public so wire-level tests (and debugging tools) can tally frames
/// without re-deriving the numbering.
pub mod tag {
    pub const HELLO: u8 = 1;
    pub const MATRIX: u8 = 2;
    pub const MATRIX_ACK: u8 = 3;
    pub const SPMV: u8 = 4;
    pub const SPMV_OUT: u8 = 5;
    pub const SPMV_T: u8 = 6;
    pub const SPMV_T_OUT: u8 = 7;
    pub const ABS_SUMS: u8 = 8;
    pub const ABS_SUMS_OUT: u8 = 9;
    pub const STATS: u8 = 10;
    pub const STATS_OUT: u8 = 11;
    pub const SHUTDOWN: u8 = 12;
    pub const SHUTDOWN_ACK: u8 = 13;
    pub const ERR: u8 = 255;
}

/// Which end of a connection a [`Session`] speaks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Coordinator,
    Worker,
}

/// Session states of one coordinator↔worker connection: the diagram in
/// the module docs as a state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    Init,
    Greeted,
    MatrixWait,
    Ready,
    SpmvWait,
    SpmvTWait,
    AbsSumsWait,
    StatsWait,
    ShutdownWait,
    Closed,
}

/// The request/reply transitions, `(tag, sender, from, to)`. One frame
/// stands outside the table: [`Msg::Err`], which either side may send in
/// any state and which closes the session.
pub const TRANSITIONS: &[(u8, Role, State, State)] = {
    use Role::{Coordinator as C, Worker as W};
    use State::*;
    &[
        (tag::HELLO, C, Init, Greeted),
        (tag::MATRIX, C, Greeted, MatrixWait),
        (tag::MATRIX_ACK, W, MatrixWait, Ready),
        (tag::SPMV, C, Ready, SpmvWait),
        (tag::SPMV_OUT, W, SpmvWait, Ready),
        (tag::SPMV_T, C, Ready, SpmvTWait),
        (tag::SPMV_T_OUT, W, SpmvTWait, Ready),
        (tag::ABS_SUMS, C, Ready, AbsSumsWait),
        (tag::ABS_SUMS_OUT, W, AbsSumsWait, Ready),
        (tag::STATS, C, Ready, StatsWait),
        (tag::STATS_OUT, W, StatsWait, Ready),
        (tag::SHUTDOWN, C, Ready, ShutdownWait),
        (tag::SHUTDOWN_ACK, W, ShutdownWait, Closed),
    ]
};

/// One endpoint's view of the session, stepped by every frame it sends
/// or receives (see [`crate::wire::Conn::enforce`]). A frame the table
/// does not admit is an [`io::ErrorKind::InvalidData`] error naming the
/// state and the tag, and leaves the state unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Session {
    role: Role,
    state: State,
}

impl Session {
    pub fn new(role: Role) -> Session {
        Session {
            role,
            state: State::Init,
        }
    }

    /// Admit frame `t`, which this endpoint sends (`sent`) or receives.
    pub fn step(&mut self, t: u8, sent: bool) -> io::Result<()> {
        let sender = match (self.role, sent) {
            (role, true) => role,
            (Role::Coordinator, false) => Role::Worker,
            (Role::Worker, false) => Role::Coordinator,
        };
        let next = if t == tag::ERR {
            Some(State::Closed)
        } else {
            TRANSITIONS
                .iter()
                .find(|&&(tt, s, from, _)| tt == t && s == sender && from == self.state)
                .map(|&(.., to)| to)
        };
        match next {
            Some(to) => {
                self.state = to;
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "session ({:?}): frame tag {t} {} in state {:?} is not in the protocol",
                    self.role,
                    if sent { "sent" } else { "received" },
                    self.state
                ),
            )),
        }
    }
}

/// One protocol message. See the module docs for the exchange order.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Coordinator → worker, first frame: identity, pool width and the
    /// cluster-wide trace id.
    Hello {
        shard: u64,
        n_shards: u64,
        threads: u64,
        trace_id: u64,
    },
    /// Coordinator → worker: the shard's rows as a rebased CSR, plus
    /// the view-aligned sinogram layout (`n_views = 0` means "not
    /// view-aligned; use the CSR executor pair") and image shape.
    Matrix {
        n_cols: u64,
        /// First global row of this shard (placement offset).
        row0: u64,
        n_views: u64,
        n_bins: u64,
        nx: u64,
        ny: u64,
        row_ptr: Vec<u64>,
        col_idx: Vec<u32>,
        vals: Vec<f64>,
    },
    /// Worker → coordinator: column support window (the adjoint halo)
    /// and the executor the worker built.
    MatrixAck {
        col_lo: u64,
        col_hi: u64,
        exec: String,
    },
    /// Coordinator → worker: full input vector for `y_s = A_s x`.
    /// `span` is the dispatch span id the worker parents to (0 = none).
    Spmv { span: u64, x: Vec<f64> },
    /// Worker → coordinator: this shard's contiguous output rows.
    SpmvOut { y: Vec<f64> },
    /// Coordinator → worker: this shard's slice of `y` for `x̃ = A_sᵀ y`.
    SpmvT { span: u64, y: Vec<f64> },
    /// Worker → coordinator: partial `x̃` trimmed to the column window.
    SpmvTOut { col_lo: u64, partial: Vec<f64> },
    /// Coordinator → worker: request SIRT weighting sums.
    AbsSums { span: u64 },
    /// Worker → coordinator: `|A_s|` row sums (shard rows) and column
    /// sums trimmed to the column window.
    AbsSumsOut {
        row: Vec<f64>,
        col_lo: u64,
        col: Vec<f64>,
    },
    /// Coordinator → worker: request execution statistics.
    Stats { span: u64 },
    /// Worker → coordinator: cumulative execution statistics.
    StatsOut {
        busy_ns: u64,
        bytes_rx: u64,
        bytes_tx: u64,
        spmv_calls: u64,
        spmv_t_calls: u64,
    },
    /// Coordinator → worker: drain and exit after acknowledging.
    Shutdown { span: u64 },
    /// Worker → coordinator: final frame before exit.
    ShutdownAck,
    /// Either direction: protocol failure with a reason.
    Err { msg: String },
}

impl Msg {
    /// Serialize to `(tag, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut e = Enc::new();
        match self {
            Msg::Hello {
                shard,
                n_shards,
                threads,
                trace_id,
            } => (
                tag::HELLO,
                e.u64(*shard)
                    .u64(*n_shards)
                    .u64(*threads)
                    .u64(*trace_id)
                    .finish(),
            ),
            Msg::Matrix {
                n_cols,
                row0,
                n_views,
                n_bins,
                nx,
                ny,
                row_ptr,
                col_idx,
                vals,
            } => (
                tag::MATRIX,
                e.u64(*n_cols)
                    .u64(*row0)
                    .u64(*n_views)
                    .u64(*n_bins)
                    .u64(*nx)
                    .u64(*ny)
                    .u64s(row_ptr)
                    .u32s(col_idx)
                    .f64s(vals)
                    .finish(),
            ),
            Msg::MatrixAck {
                col_lo,
                col_hi,
                exec,
            } => (
                tag::MATRIX_ACK,
                e.u64(*col_lo).u64(*col_hi).str(exec).finish(),
            ),
            Msg::Spmv { span, x } => (tag::SPMV, e.u64(*span).f64s(x).finish()),
            Msg::SpmvOut { y } => (tag::SPMV_OUT, e.f64s(y).finish()),
            Msg::SpmvT { span, y } => (tag::SPMV_T, e.u64(*span).f64s(y).finish()),
            Msg::SpmvTOut { col_lo, partial } => {
                (tag::SPMV_T_OUT, e.u64(*col_lo).f64s(partial).finish())
            }
            Msg::AbsSums { span } => (tag::ABS_SUMS, e.u64(*span).finish()),
            Msg::AbsSumsOut { row, col_lo, col } => (
                tag::ABS_SUMS_OUT,
                e.f64s(row).u64(*col_lo).f64s(col).finish(),
            ),
            Msg::Stats { span } => (tag::STATS, e.u64(*span).finish()),
            Msg::StatsOut {
                busy_ns,
                bytes_rx,
                bytes_tx,
                spmv_calls,
                spmv_t_calls,
            } => (
                tag::STATS_OUT,
                e.u64(*busy_ns)
                    .u64(*bytes_rx)
                    .u64(*bytes_tx)
                    .u64(*spmv_calls)
                    .u64(*spmv_t_calls)
                    .finish(),
            ),
            Msg::Shutdown { span } => (tag::SHUTDOWN, e.u64(*span).finish()),
            Msg::ShutdownAck => (tag::SHUTDOWN_ACK, e.finish()),
            Msg::Err { msg } => (tag::ERR, e.str(msg).finish()),
        }
    }

    /// Parse a frame back into a message.
    pub fn decode(t: u8, payload: &[u8]) -> io::Result<Msg> {
        let mut d = Dec::new(payload);
        let msg = match t {
            tag::HELLO => Msg::Hello {
                shard: d.u64()?,
                n_shards: d.u64()?,
                threads: d.u64()?,
                trace_id: d.u64()?,
            },
            tag::MATRIX => Msg::Matrix {
                n_cols: d.u64()?,
                row0: d.u64()?,
                n_views: d.u64()?,
                n_bins: d.u64()?,
                nx: d.u64()?,
                ny: d.u64()?,
                row_ptr: d.u64s()?,
                col_idx: d.u32s()?,
                vals: d.f64s()?,
            },
            tag::MATRIX_ACK => Msg::MatrixAck {
                col_lo: d.u64()?,
                col_hi: d.u64()?,
                exec: d.str()?,
            },
            tag::SPMV => Msg::Spmv {
                span: d.u64()?,
                x: d.f64s()?,
            },
            tag::SPMV_OUT => Msg::SpmvOut { y: d.f64s()? },
            tag::SPMV_T => Msg::SpmvT {
                span: d.u64()?,
                y: d.f64s()?,
            },
            tag::SPMV_T_OUT => Msg::SpmvTOut {
                col_lo: d.u64()?,
                partial: d.f64s()?,
            },
            tag::ABS_SUMS => Msg::AbsSums { span: d.u64()? },
            tag::ABS_SUMS_OUT => Msg::AbsSumsOut {
                row: d.f64s()?,
                col_lo: d.u64()?,
                col: d.f64s()?,
            },
            tag::STATS => Msg::Stats { span: d.u64()? },
            tag::STATS_OUT => Msg::StatsOut {
                busy_ns: d.u64()?,
                bytes_rx: d.u64()?,
                bytes_tx: d.u64()?,
                spmv_calls: d.u64()?,
                spmv_t_calls: d.u64()?,
            },
            tag::SHUTDOWN => Msg::Shutdown { span: d.u64()? },
            tag::SHUTDOWN_ACK => Msg::ShutdownAck,
            tag::ERR => Msg::Err { msg: d.str()? },
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown frame tag {other}"),
                ))
            }
        };
        d.finish()?;
        Ok(msg)
    }

    /// Send over a connection.
    pub fn send<S: io::Read + io::Write>(&self, conn: &mut crate::wire::Conn<S>) -> io::Result<()> {
        let (t, payload) = self.encode();
        conn.send(t, &payload)
    }

    /// Receive from a connection; a received [`Msg::Err`] becomes an
    /// `io::Error` so callers can `?` through protocol failures.
    pub fn recv<S: io::Read + io::Write>(conn: &mut crate::wire::Conn<S>) -> io::Result<Msg> {
        let (t, payload) = conn.recv()?;
        match Msg::decode(t, &payload)? {
            Msg::Err { msg } => Err(io::Error::other(format!("peer error: {msg}"))),
            m => Ok(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: Msg) {
        let (t, payload) = m.encode();
        let back = Msg::decode(t, &payload).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(Msg::Hello {
            shard: 2,
            n_shards: 4,
            threads: 3,
            trace_id: 0xfeed_beef,
        });
        round_trip(Msg::Matrix {
            n_cols: 9,
            row0: 12,
            n_views: 3,
            n_bins: 2,
            nx: 3,
            ny: 3,
            row_ptr: vec![0, 2, 2, 5, 6, 6, 7],
            col_idx: vec![0, 3, 1, 2, 8, 4, 5],
            vals: vec![1.0, -2.0, 0.5, 3.25, -0.0, 7.0, 9.0],
        });
        round_trip(Msg::MatrixAck {
            col_lo: 1,
            col_hi: 9,
            exec: "CSCV-Z".into(),
        });
        round_trip(Msg::Spmv {
            span: 17,
            x: vec![1.0, 2.0, 3.0],
        });
        round_trip(Msg::SpmvOut { y: vec![-1.5] });
        round_trip(Msg::SpmvT {
            span: 18,
            y: vec![0.25, 0.5],
        });
        round_trip(Msg::SpmvTOut {
            col_lo: 4,
            partial: vec![8.0, 9.0],
        });
        round_trip(Msg::AbsSums { span: 19 });
        round_trip(Msg::AbsSumsOut {
            row: vec![1.0],
            col_lo: 0,
            col: vec![2.0, 3.0],
        });
        round_trip(Msg::Stats { span: 0 });
        round_trip(Msg::StatsOut {
            busy_ns: 123,
            bytes_rx: 456,
            bytes_tx: 789,
            spmv_calls: 10,
            spmv_t_calls: 11,
        });
        round_trip(Msg::Shutdown { span: 20 });
        round_trip(Msg::ShutdownAck);
        round_trip(Msg::Err { msg: "boom".into() });
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_rejected() {
        assert!(Msg::decode(200, &[]).is_err());
        let (t, mut payload) = Msg::AbsSums { span: 0 }.encode();
        payload.push(0);
        assert!(Msg::decode(t, &payload).is_err());
    }

    const ALL_STATES: [State; 10] = [
        State::Init,
        State::Greeted,
        State::MatrixWait,
        State::Ready,
        State::SpmvWait,
        State::SpmvTWait,
        State::AbsSumsWait,
        State::StatsWait,
        State::ShutdownWait,
        State::Closed,
    ];
    const ROLES: [Role; 2] = [Role::Coordinator, Role::Worker];

    #[test]
    fn every_wire_tag_is_in_the_session_table() {
        // Both ways: a tag the decoder knows must be admitted somewhere,
        // and the session admits no tag the decoder does not know.
        for t in 0..=u8::MAX {
            let decodable = match Msg::decode(t, &[]) {
                Ok(_) => true,
                Err(e) => !e.to_string().contains("unknown frame tag"),
            };
            let admitted = ALL_STATES.iter().any(|&state| {
                ROLES
                    .iter()
                    .any(|&role| Session { role, state }.step(t, true).is_ok())
            });
            assert_eq!(decodable, admitted, "tag {t}");
        }
    }

    #[test]
    fn a_full_session_walks_the_table_on_both_ends() {
        use Role::{Coordinator as C, Worker as W};
        let script = [
            (tag::HELLO, C),
            (tag::MATRIX, C),
            (tag::MATRIX_ACK, W),
            (tag::SPMV, C),
            (tag::SPMV_OUT, W),
            (tag::SPMV_T, C),
            (tag::SPMV_T_OUT, W),
            (tag::ABS_SUMS, C),
            (tag::ABS_SUMS_OUT, W),
            (tag::STATS, C),
            (tag::STATS_OUT, W),
            (tag::SHUTDOWN, C),
            (tag::SHUTDOWN_ACK, W),
        ];
        let (mut coord, mut worker) = (Session::new(C), Session::new(W));
        for (t, sender) in script {
            coord.step(t, sender == C).unwrap();
            worker.step(t, sender == W).unwrap();
        }
        assert_eq!(coord.state, State::Closed);
        assert_eq!(worker.state, State::Closed);
    }

    #[test]
    fn rejection_names_state_and_tag_and_keeps_the_state() {
        let mut s = Session::new(Role::Coordinator);
        let e = s.step(tag::SPMV, true).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("tag 4"), "{e}");
        assert!(e.to_string().contains("Init"), "{e}");
        assert_eq!(s.state, State::Init);
        // Direction matters: a worker never sends Hello.
        assert!(Session::new(Role::Worker).step(tag::HELLO, true).is_err());
    }

    /// Strict request/reply: a state that awaits no reply admits no
    /// worker frame but `Err`, and each wait state admits exactly one.
    #[test]
    fn a_worker_frame_is_admitted_only_as_the_one_due_reply() {
        for state in ALL_STATES {
            let admitted: Vec<u8> = (0..=u8::MAX)
                .filter(|&t| t != tag::ERR)
                .filter(|&t| {
                    Session {
                        role: Role::Worker,
                        state,
                    }
                    .step(t, true)
                    .is_ok()
                })
                .collect();
            let awaits_reply = !matches!(
                state,
                State::Init | State::Greeted | State::Ready | State::Closed
            );
            assert_eq!(
                admitted.len(),
                usize::from(awaits_reply),
                "{state:?}: {admitted:?}"
            );
        }
    }

    #[test]
    fn err_is_legal_from_every_state_and_closes_the_session() {
        for state in ALL_STATES {
            for role in ROLES {
                for sent in [true, false] {
                    let mut s = Session { role, state };
                    s.step(tag::ERR, sent).unwrap();
                    assert_eq!(s.state, State::Closed);
                }
            }
        }
    }

    #[test]
    fn recv_turns_err_frames_into_io_errors() {
        let (a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        let mut ca = crate::wire::Conn::new(a);
        let mut cb = crate::wire::Conn::new(b);
        Msg::Err { msg: "nope".into() }.send(&mut ca).unwrap();
        let e = Msg::recv(&mut cb).unwrap_err();
        assert!(e.to_string().contains("nope"));
    }
}
