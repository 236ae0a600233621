//! Wire-level contract: the coordinator↔worker socket carries no trace
//! traffic, in any build.
//!
//! A worker reports its figures only as the `StatsOut` reply to a
//! `Stats` request; spans stay in the process that records them. So a
//! full session over a real socketpair, with or without the `trace`
//! feature, carries exactly one reply frame per request and nothing else.

use cscv_shard::protocol::{tag as tags, Msg};
use cscv_shard::wire::Conn;
use std::os::unix::net::UnixStream;

/// Drive one full worker session from a scripted coordinator and tally
/// every tag the worker puts on the wire.
#[test]
fn untraced_session_carries_zero_trace_frames() {
    let (coord_end, worker_end) = UnixStream::pair().unwrap();
    let server = std::thread::spawn(move || {
        let mut conn = Conn::new(worker_end);
        cscv_shard::worker::serve(&mut conn).unwrap()
    });

    let mut conn = Conn::new(coord_end);
    let mut seen: Vec<u8> = Vec::new();
    let mut ask = |conn: &mut Conn<UnixStream>, m: Msg<'_>| {
        m.send(conn).unwrap();
        conn.recv(|tag, payload| {
            seen.push(tag);
            Msg::read(tag, payload)
        })
        .unwrap()
    };

    Msg::Hello {
        shard: 0,
        n_shards: 1,
        threads: 1,
        trace_id: 0,
    }
    .send(&mut conn)
    .unwrap();
    // 2×3 shard: rows {[0]=1, [2]=2} and {[1]=3}.
    let ack = ask(
        &mut conn,
        Msg::Matrix {
            n_cols: 3,
            row0: 0,
            n_views: 0,
            n_bins: 0,
            nx: 3,
            ny: 1,
            row_ptr: vec![0, 2, 3].into(),
            col_idx: vec![0, 2, 1].into(),
            vals: vec![1.0, 2.0, 3.0].into(),
        },
    );
    assert!(matches!(ack, Msg::MatrixAck { .. }));
    let y = ask(
        &mut conn,
        Msg::Spmv {
            span: 0,
            x: vec![1.0, -1.0, 0.5].into(),
        },
    );
    assert_eq!(
        y,
        Msg::SpmvOut {
            y: vec![2.0, -3.0].into()
        }
    );
    ask(
        &mut conn,
        Msg::SpmvT {
            span: 0,
            y: vec![1.0, 1.0].into(),
        },
    );
    ask(&mut conn, Msg::AbsSums { span: 0 });
    ask(&mut conn, Msg::Stats { span: 0 });
    let bye = ask(&mut conn, Msg::Shutdown { span: 0 });
    assert_eq!(bye, Msg::ShutdownAck);
    server.join().unwrap();

    assert_eq!(
        seen,
        vec![
            tags::MATRIX_ACK,
            tags::SPMV_OUT,
            tags::SPMV_T_OUT,
            tags::ABS_SUMS_OUT,
            tags::STATS_OUT,
            tags::SHUTDOWN_ACK,
        ],
        "the wire must carry exactly the request/reply frames"
    );
    assert_eq!(
        Msg::recv(&mut conn).unwrap_err().kind(),
        std::io::ErrorKind::UnexpectedEof,
        "a frame followed ShutdownAck"
    );
}
