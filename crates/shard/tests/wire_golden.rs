//! The wire layout, pinned byte for byte: one small frame of every
//! message, as `Msg::send` puts it on a socket.
//!
//! A frame is `[tag: u8][len: u64 LE][payload]`; scalars are `u64` LE,
//! an array is its `u64` length and then its LE elements, a string its
//! length and then its UTF-8 bytes. Any change to the codec that moves
//! a byte fails here, so both ends of a mixed-version pair still agree.
//!
//! Array fields are built with `.into()`, which fits whatever type
//! `Msg` holds them in (an owned `Vec` or a borrowing `Cow`), so the
//! pins do not depend on that choice.

#![allow(clippy::useless_conversion)]

use cscv_shard::wire::{Conn, FRAME_OVERHEAD};
use std::io::{self, Read};
use std::os::unix::net::UnixStream;

/// The bytes one `send` writes to a socket.
fn frame(send: impl FnOnce(&mut Conn<UnixStream>) -> io::Result<()>) -> Vec<u8> {
    let (ours, mut peer) = UnixStream::pair().unwrap();
    let mut conn = Conn::new(ours);
    send(&mut conn).unwrap();
    let sent = conn.bytes_tx;
    drop(conn);
    let mut bytes = Vec::new();
    peer.read_to_end(&mut bytes).unwrap();
    assert_eq!(bytes.len() as u64, sent, "bytes_tx counts the frame");
    bytes
}

/// Hex digits to bytes; whitespace only separates fields for the eye.
fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
        .collect()
}

#[test]
fn every_message_has_its_pinned_frame() {
    use cscv_shard::protocol::Msg;
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        (
            "Hello",
            frame(|c| {
                Msg::Hello {
                    shard: 2,
                    n_shards: 4,
                    threads: 3,
                    trace_id: 0xfeed_beef,
                }
                .send(c)
            }),
            "01 2000000000000000
             0200000000000000 0400000000000000 0300000000000000 efbeedfe00000000",
        ),
        (
            "Matrix",
            frame(|c| {
                Msg::Matrix {
                    n_cols: 9,
                    row0: 12,
                    n_views: 1,
                    n_bins: 2,
                    nx: 3,
                    ny: 3,
                    row_ptr: vec![0, 1, 2].into(),
                    col_idx: vec![4, 7].into(),
                    vals: vec![1.5, -0.0].into(),
                }
                .send(c)
            }),
            "02 7800000000000000
             0900000000000000 0c00000000000000 0100000000000000
             0200000000000000 0300000000000000 0300000000000000
             0300000000000000 0000000000000000 0100000000000000 0200000000000000
             0200000000000000 04000000 07000000
             0200000000000000 000000000000f83f 0000000000000080",
        ),
        (
            "MatrixAck",
            frame(|c| {
                Msg::MatrixAck {
                    col_lo: 1,
                    col_hi: 9,
                    exec: "CSCV-M".into(),
                }
                .send(c)
            }),
            "03 1e00000000000000
             0100000000000000 0900000000000000 0600000000000000 435343562d4d",
        ),
        (
            "Spmv",
            frame(|c| {
                Msg::Spmv {
                    span: 17,
                    x: vec![1.0, 2.0].into(),
                }
                .send(c)
            }),
            "04 2000000000000000
             1100000000000000 0200000000000000 000000000000f03f 0000000000000040",
        ),
        (
            "SpmvOut",
            frame(|c| {
                Msg::SpmvOut {
                    y: vec![-1.5].into(),
                }
                .send(c)
            }),
            "05 1000000000000000 0100000000000000 000000000000f8bf",
        ),
        (
            "SpmvT",
            frame(|c| {
                Msg::SpmvT {
                    span: 18,
                    y: vec![0.25].into(),
                }
                .send(c)
            }),
            "06 1800000000000000 1200000000000000 0100000000000000 000000000000d03f",
        ),
        (
            "SpmvTOut",
            frame(|c| {
                Msg::SpmvTOut {
                    col_lo: 4,
                    partial: vec![8.0].into(),
                }
                .send(c)
            }),
            "07 1800000000000000 0400000000000000 0100000000000000 0000000000002040",
        ),
        (
            "AbsSums",
            frame(|c| Msg::AbsSums { span: 19 }.send(c)),
            "08 0800000000000000 1300000000000000",
        ),
        (
            "AbsSumsOut",
            frame(|c| {
                Msg::AbsSumsOut {
                    row: vec![1.0].into(),
                    col_lo: 5,
                    col: vec![].into(),
                }
                .send(c)
            }),
            "09 2000000000000000
             0100000000000000 000000000000f03f 0500000000000000 0000000000000000",
        ),
        (
            "Stats",
            frame(|c| Msg::Stats { span: 0 }.send(c)),
            "0a 0800000000000000 0000000000000000",
        ),
        (
            "StatsOut",
            frame(|c| {
                Msg::StatsOut {
                    busy_ns: 123,
                    bytes_rx: 456,
                    bytes_tx: 789,
                    spmv_calls: 10,
                    spmv_t_calls: 11,
                }
                .send(c)
            }),
            "0b 2800000000000000
             7b00000000000000 c801000000000000 1503000000000000
             0a00000000000000 0b00000000000000",
        ),
        (
            "Shutdown",
            frame(|c| Msg::Shutdown { span: 20 }.send(c)),
            "0c 0800000000000000 1400000000000000",
        ),
        (
            "ShutdownAck",
            frame(|c| Msg::ShutdownAck.send(c)),
            "0d 0000000000000000",
        ),
        (
            "Err",
            frame(|c| Msg::Err { msg: "boom".into() }.send(c)),
            "ff 0c00000000000000 0400000000000000 626f6f6d",
        ),
    ];
    assert_eq!(cases.len(), 14, "one frame per message");
    for (name, got, want) in cases {
        let want = hex(want);
        assert_eq!(got, want, "{name}");
        let len = u64::from_le_bytes(want[1..9].try_into().unwrap());
        assert_eq!(FRAME_OVERHEAD + len, want.len() as u64, "{name} header");
    }
}

/// A shard's arrays sent straight from borrowed slices put the same
/// bytes on the wire as the same arrays sent from owned vectors.
#[test]
fn a_matrix_from_borrowed_slices_encodes_like_one_from_owned_vecs() {
    use cscv_shard::protocol::Msg;
    let row_ptr: Vec<u64> = vec![0, 2, 2, 5];
    let col_idx: Vec<u32> = vec![0, 3, 1, 2, 8];
    let vals: Vec<f64> = vec![1.0, -2.0, f64::NAN, -0.0, f64::MIN_POSITIVE / 2.0];
    let borrowed = frame(|c| {
        Msg::Matrix {
            n_cols: 9,
            row0: 3,
            n_views: 0,
            n_bins: 0,
            nx: 3,
            ny: 3,
            row_ptr: row_ptr.as_slice().into(),
            col_idx: col_idx.as_slice().into(),
            vals: vals.as_slice().into(),
        }
        .send(c)
    });
    let owned = frame(|c| {
        Msg::Matrix {
            n_cols: 9,
            row0: 3,
            n_views: 0,
            n_bins: 0,
            nx: 3,
            ny: 3,
            row_ptr: row_ptr.clone().into(),
            col_idx: col_idx.clone().into(),
            vals: vals.clone().into(),
        }
        .send(c)
    });
    assert_eq!(borrowed, owned);
    let payload = 6 * 8 + (8 + 4 * 8) + (8 + 5 * 4) + (8 + 5 * 8);
    assert_eq!(borrowed.len() as u64, FRAME_OVERHEAD + payload);
}
