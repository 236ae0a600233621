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
//! Layouts are fixed little-endian ([`crate::wire`]). [`Msg::send`]
//! streams a message's fields, its arrays borrowed, and [`Msg::read`]
//! decodes them back as they arrive; the two are exact inverses
//! (round-trip tested below, bytes pinned in `tests/wire_golden.rs`).
//!
//! **Session check.** [`TRANSITIONS`] is the diagram as data. Both
//! endpoints hold their connection to it ([`crate::wire::Conn::enforce`]):
//! every frame sent or received steps a per-connection [`Session`], and
//! a frame the table rejects fails with `InvalidData` instead of
//! desyncing the exchange. One table lookup per frame, always on.

use crate::wire::{Conn, Field, Payload};
use std::borrow::Cow;
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
///
/// Array fields are [`Cow`]s: a sender lends its slices (a shard's
/// `col_idx`/`vals` straight out of the assembled CSR, the solver's `x`)
/// and nothing is copied before the socket; a received message owns
/// the `Vec`s its arrays were decoded into.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg<'a> {
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
        row_ptr: Cow<'a, [u64]>,
        col_idx: Cow<'a, [u32]>,
        vals: Cow<'a, [f64]>,
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
    Spmv { span: u64, x: Cow<'a, [f64]> },
    /// Worker → coordinator: this shard's contiguous output rows.
    SpmvOut { y: Cow<'a, [f64]> },
    /// Coordinator → worker: this shard's slice of `y` for `x̃ = A_sᵀ y`.
    SpmvT { span: u64, y: Cow<'a, [f64]> },
    /// Worker → coordinator: partial `x̃` trimmed to the column window.
    SpmvTOut {
        col_lo: u64,
        partial: Cow<'a, [f64]>,
    },
    /// Coordinator → worker: request SIRT weighting sums.
    AbsSums { span: u64 },
    /// Worker → coordinator: `|A_s|` row sums (shard rows) and column
    /// sums trimmed to the column window.
    AbsSumsOut {
        row: Cow<'a, [f64]>,
        col_lo: u64,
        col: Cow<'a, [f64]>,
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

impl Msg<'_> {
    /// The frame tag and the payload fields in wire order, borrowed
    /// from the message.
    fn frame(&self) -> (u8, Vec<Field<'_>>) {
        use Field::{F64s, Str, U32s, U64s, U64};
        match self {
            Msg::Hello {
                shard,
                n_shards,
                threads,
                trace_id,
            } => (
                tag::HELLO,
                vec![U64(*shard), U64(*n_shards), U64(*threads), U64(*trace_id)],
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
                vec![
                    U64(*n_cols),
                    U64(*row0),
                    U64(*n_views),
                    U64(*n_bins),
                    U64(*nx),
                    U64(*ny),
                    U64s(row_ptr),
                    U32s(col_idx),
                    F64s(vals),
                ],
            ),
            Msg::MatrixAck {
                col_lo,
                col_hi,
                exec,
            } => (tag::MATRIX_ACK, vec![U64(*col_lo), U64(*col_hi), Str(exec)]),
            Msg::Spmv { span, x } => (tag::SPMV, vec![U64(*span), F64s(x)]),
            Msg::SpmvOut { y } => (tag::SPMV_OUT, vec![F64s(y)]),
            Msg::SpmvT { span, y } => (tag::SPMV_T, vec![U64(*span), F64s(y)]),
            Msg::SpmvTOut { col_lo, partial } => {
                (tag::SPMV_T_OUT, vec![U64(*col_lo), F64s(partial)])
            }
            Msg::AbsSums { span } => (tag::ABS_SUMS, vec![U64(*span)]),
            Msg::AbsSumsOut { row, col_lo, col } => {
                (tag::ABS_SUMS_OUT, vec![F64s(row), U64(*col_lo), F64s(col)])
            }
            Msg::Stats { span } => (tag::STATS, vec![U64(*span)]),
            Msg::StatsOut {
                busy_ns,
                bytes_rx,
                bytes_tx,
                spmv_calls,
                spmv_t_calls,
            } => (
                tag::STATS_OUT,
                vec![
                    U64(*busy_ns),
                    U64(*bytes_rx),
                    U64(*bytes_tx),
                    U64(*spmv_calls),
                    U64(*spmv_t_calls),
                ],
            ),
            Msg::Shutdown { span } => (tag::SHUTDOWN, vec![U64(*span)]),
            Msg::ShutdownAck => (tag::SHUTDOWN_ACK, vec![]),
            Msg::Err { msg } => (tag::ERR, vec![Str(msg)]),
        }
    }

    /// Decode the body of a frame tagged `t`, each array into the `Vec`
    /// the message then owns. Pass it to [`Conn::recv`] to read a frame
    /// as it is on the wire (an `Err` frame included).
    pub fn read<R: io::Read>(t: u8, p: &mut Payload<'_, R>) -> io::Result<Msg<'static>> {
        Ok(match t {
            tag::HELLO => Msg::Hello {
                shard: p.u64()?,
                n_shards: p.u64()?,
                threads: p.u64()?,
                trace_id: p.u64()?,
            },
            tag::MATRIX => Msg::Matrix {
                n_cols: p.u64()?,
                row0: p.u64()?,
                n_views: p.u64()?,
                n_bins: p.u64()?,
                nx: p.u64()?,
                ny: p.u64()?,
                row_ptr: p.u64s()?.into(),
                col_idx: p.u32s()?.into(),
                vals: p.f64s()?.into(),
            },
            tag::MATRIX_ACK => Msg::MatrixAck {
                col_lo: p.u64()?,
                col_hi: p.u64()?,
                exec: p.str()?,
            },
            tag::SPMV => Msg::Spmv {
                span: p.u64()?,
                x: p.f64s()?.into(),
            },
            tag::SPMV_OUT => Msg::SpmvOut {
                y: p.f64s()?.into(),
            },
            tag::SPMV_T => Msg::SpmvT {
                span: p.u64()?,
                y: p.f64s()?.into(),
            },
            tag::SPMV_T_OUT => Msg::SpmvTOut {
                col_lo: p.u64()?,
                partial: p.f64s()?.into(),
            },
            tag::ABS_SUMS => Msg::AbsSums { span: p.u64()? },
            tag::ABS_SUMS_OUT => Msg::AbsSumsOut {
                row: p.f64s()?.into(),
                col_lo: p.u64()?,
                col: p.f64s()?.into(),
            },
            tag::STATS => Msg::Stats { span: p.u64()? },
            tag::STATS_OUT => Msg::StatsOut {
                busy_ns: p.u64()?,
                bytes_rx: p.u64()?,
                bytes_tx: p.u64()?,
                spmv_calls: p.u64()?,
                spmv_t_calls: p.u64()?,
            },
            tag::SHUTDOWN => Msg::Shutdown { span: p.u64()? },
            tag::SHUTDOWN_ACK => Msg::ShutdownAck,
            tag::ERR => Msg::Err { msg: p.str()? },
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown frame tag {other}"),
                ))
            }
        })
    }

    /// Send over a connection, streaming the arrays from where they lie.
    pub fn send<S: io::Write>(&self, conn: &mut Conn<S>) -> io::Result<()> {
        let (t, fields) = self.frame();
        conn.send(t, &fields)
    }

    /// Receive from a connection; a received [`Msg::Err`] becomes an
    /// `io::Error` so callers can `?` through protocol failures.
    pub fn recv<S: io::Read>(conn: &mut Conn<S>) -> io::Result<Msg<'static>> {
        match conn.recv(Msg::read)? {
            Msg::Err { msg } => Err(io::Error::other(format!("peer error: {msg}"))),
            m => Ok(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::wire::MAX_FRAME;

    /// The bytes `m.send` puts on the wire.
    fn encode(m: &Msg<'_>) -> Vec<u8> {
        let mut bytes = Vec::new();
        m.send(&mut Conn::new(&mut bytes)).unwrap();
        bytes
    }

    /// One frame read back from `bytes`, as it is on the wire.
    fn decode(bytes: &[u8]) -> io::Result<Msg<'static>> {
        Conn::new(bytes).recv(Msg::read)
    }

    fn round_trip(m: Msg<'_>) {
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    fn small_matrix() -> Msg<'static> {
        Msg::Matrix {
            n_cols: 9,
            row0: 12,
            n_views: 3,
            n_bins: 2,
            nx: 3,
            ny: 3,
            row_ptr: vec![0, 2, 2, 5, 6, 6, 7].into(),
            col_idx: vec![0, 3, 1, 2, 8, 4, 5].into(),
            vals: vec![1.0, -2.0, 0.5, 3.25, -0.0, 7.0, 9.0].into(),
        }
    }

    #[test]
    fn every_variant_round_trips() {
        round_trip(Msg::Hello {
            shard: 2,
            n_shards: 4,
            threads: 3,
            trace_id: 0xfeed_beef,
        });
        round_trip(small_matrix());
        round_trip(Msg::MatrixAck {
            col_lo: 1,
            col_hi: 9,
            exec: "CSCV-M".into(),
        });
        round_trip(Msg::Spmv {
            span: 17,
            x: vec![1.0, 2.0, 3.0].into(),
        });
        round_trip(Msg::SpmvOut {
            y: vec![-1.5].into(),
        });
        round_trip(Msg::SpmvT {
            span: 18,
            y: vec![0.25, 0.5].into(),
        });
        round_trip(Msg::SpmvTOut {
            col_lo: 4,
            partial: vec![8.0, 9.0].into(),
        });
        round_trip(Msg::AbsSums { span: 19 });
        round_trip(Msg::AbsSumsOut {
            row: vec![1.0].into(),
            col_lo: 0,
            col: vec![2.0, 3.0].into(),
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
        let e = decode(&[200, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap_err();
        assert!(e.to_string().contains("unknown frame tag 200"), "{e}");
        let mut bytes = encode(&Msg::AbsSums { span: 0 });
        bytes[1] += 1;
        bytes.push(0);
        let e = decode(&bytes).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("1 trailing bytes"), "{e}");
    }

    /// A `Matrix` frame cut short at any byte ends in a typed EOF.
    #[test]
    fn a_matrix_frame_cut_at_any_byte_is_a_typed_eof() {
        let full = encode(&small_matrix());
        decode(&full).unwrap();
        for cut in 0..full.len() {
            let e = decode(&full[..cut]).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}: {e}");
        }
    }

    /// Each of a `Matrix` frame's three array lengths, pointed past the
    /// frame, is refused before anything is sized from it.
    #[test]
    fn matrix_array_lengths_past_the_frame_are_refused() {
        let full = encode(&small_matrix());
        // Header, six scalars, then `row_ptr` (7 × 8 bytes), `col_idx`
        // (7 × 4) and `vals` (7 × 8), each after its length.
        let row_ptr_at = 9 + 6 * 8;
        let col_idx_at = row_ptr_at + 8 + 7 * 8;
        let vals_at = col_idx_at + 8 + 7 * 4;
        assert_eq!(vals_at + 8 + 7 * 8, full.len());
        for (name, at, elem) in [
            ("row_ptr", row_ptr_at, 8),
            ("col_idx", col_idx_at, 4),
            ("vals", vals_at, 8),
        ] {
            let room = (full.len() - at - 8) / elem;
            for lie in [room as u64 + 1, 1 << 40, u64::MAX / 4 + 1, u64::MAX] {
                let mut bytes = full.clone();
                bytes[at..at + 8].copy_from_slice(&lie.to_le_bytes());
                let e = decode(&bytes).unwrap_err();
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{name} {lie}: {e}");
                assert!(
                    e.to_string().contains("exceeds payload"),
                    "{name} {lie}: {e}"
                );
            }
        }
    }

    /// A `Matrix` frame whose header declares more bytes than are sent
    /// ends in a typed error. An array length that fits the declared
    /// frame but not the bytes sent ends in a typed EOF once the bytes
    /// run out: the array reserved at most 1 MiB, not its claimed 1 GiB.
    #[test]
    fn a_matrix_frame_longer_than_its_bytes_is_a_typed_error() {
        let full = encode(&small_matrix());
        let len = (full.len() - 9) as u64;
        for declared in [len + 1, len + 4096, MAX_FRAME] {
            let mut bytes = full.clone();
            bytes[1..9].copy_from_slice(&declared.to_le_bytes());
            let e = decode(&bytes).unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{declared}: {e}");
            assert!(e.to_string().contains("trailing bytes"), "{declared}: {e}");
            // `vals` claims 1 GiB of the declared 16 GiB; 56 bytes come.
            let vals_at = full.len() - 8 - 7 * 8;
            bytes[vals_at..vals_at + 8].copy_from_slice(&(1u64 << 27).to_le_bytes());
            let e = decode(&bytes).unwrap_err();
            let want = if declared == MAX_FRAME {
                io::ErrorKind::UnexpectedEof
            } else {
                io::ErrorKind::InvalidData
            };
            assert_eq!(e.kind(), want, "{declared}: {e}");
        }
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
            let decodable = match decode(&[t, 0, 0, 0, 0, 0, 0, 0, 0]) {
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
