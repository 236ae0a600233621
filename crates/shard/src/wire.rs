//! Framed length-prefixed transport and the little-endian codec.
//!
//! Every message on a coordinator↔worker socket is one frame:
//!
//! ```text
//! ┌─────────┬──────────────────┬──────────────┐
//! │ tag: u8 │ len: u64 (LE)    │ payload[len] │
//! └─────────┴──────────────────┴──────────────┘
//! ```
//!
//! Tags identify the [`crate::protocol::Msg`] variant; payloads are
//! fixed-layout little-endian scalars and arrays (no self-describing
//! encoding — both ends are the same binary, and the fixed layout keeps
//! the hot vectors a single `memcpy` each way). `len` is bounded by
//! [`MAX_FRAME`], and the payload buffer grows only as bytes arrive, so
//! a corrupt or lying header costs at most what the peer really sends.
//!
//! Byte counts flow through [`Conn`], which both sides use to report
//! traffic (the `shard_bytes_tx` / `shard_bytes_rx` trace counters and
//! the `-- shard` report columns).

use crate::protocol::{Role, Session};
use std::io::{self, Read, Write};

/// Upper bound on a frame payload (16 GiB): large enough for any shard
/// this suite assembles, small enough to reject corrupt headers.
pub const MAX_FRAME: u64 = 1 << 34;

/// Upper bound on the pool width a [`crate::protocol::Msg::Hello`] may
/// ask a worker for: far above any host's core count, far below a
/// thread count that would exhaust the process.
pub const MAX_WORKER_THREADS: u64 = 1024;

/// Bytes added to every payload by the frame header.
pub const FRAME_OVERHEAD: u64 = 1 + 8;

/// Payload bytes reserved before any arrive; larger frames grow the
/// buffer as they are read.
const RESERVE_UP_FRONT: u64 = 1 << 20;

/// Write one frame; returns the total bytes put on the wire.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<u64> {
    let mut header = [0u8; 9];
    header[0] = tag;
    header[1..9].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(FRAME_OVERHEAD + payload.len() as u64)
}

/// Read one frame; returns `(tag, payload, bytes read)`.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>, u64)> {
    let mut header = [0u8; 9];
    r.read_exact(&mut header)?;
    let [tag, len @ ..] = header;
    let len = u64::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME"),
        ));
    }
    let mut payload = Vec::with_capacity(len.min(RESERVE_UP_FRONT) as usize);
    r.take(len).read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame truncated: {} of {len} payload bytes", payload.len()),
        ));
    }
    Ok((tag, payload, FRAME_OVERHEAD + len))
}

/// A framed connection that tallies traffic in both directions and,
/// once an endpoint [`enforce`](Conn::enforce)s it, holds every frame to
/// the session table.
#[derive(Debug)]
pub struct Conn<S> {
    stream: S,
    /// Bytes written to the stream (headers included).
    pub bytes_tx: u64,
    /// Bytes read from the stream (headers included).
    pub bytes_rx: u64,
    /// `None` on a raw transport (wire-level tests and tools).
    session: Option<Session>,
}

impl<S: Read + Write> Conn<S> {
    pub fn new(stream: S) -> Conn<S> {
        Conn {
            stream,
            bytes_tx: 0,
            bytes_rx: 0,
            session: None,
        }
    }

    /// Start a fresh session as `role`: from here on every frame must be
    /// one [`crate::protocol::TRANSITIONS`] admits.
    pub fn enforce(&mut self, role: Role) {
        self.session = Some(Session::new(role));
    }

    /// Send one frame, tallying the bytes. A frame the session rejects
    /// is not written.
    pub fn send(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        if let Some(s) = &mut self.session {
            s.step(tag, true)?;
        }
        self.bytes_tx += write_frame(&mut self.stream, tag, payload)?;
        Ok(())
    }

    /// Receive one frame, tallying the bytes.
    pub fn recv(&mut self) -> io::Result<(u8, Vec<u8>)> {
        let (tag, payload, n) = read_frame(&mut self.stream)?;
        self.bytes_rx += n;
        if let Some(s) = &mut self.session {
            s.step(tag, false)?;
        }
        Ok((tag, payload))
    }
}

/// Little-endian payload encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    pub fn u64(&mut self, v: u64) -> &mut Enc {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// A `[u64]` slice, length-prefixed.
    pub fn u64s(&mut self, vs: &[u64]) -> &mut Enc {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// A `[u32]` slice, length-prefixed.
    pub fn u32s(&mut self, vs: &[u32]) -> &mut Enc {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
        self
    }

    /// An `[f64]` slice, length-prefixed. Bit-exact: values round-trip
    /// through `to_bits`, so NaN payloads and signed zeros survive.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Enc {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self
    }

    /// A UTF-8 string, length-prefixed.
    pub fn str(&mut self, s: &str) -> &mut Enc {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    pub fn finish(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed frame: {what}"),
    )
}

/// Little-endian payload decoder (the inverse of [`Enc`]).
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(bad("truncated payload"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn take_array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or_else(|| bad("truncated payload"))?;
        self.buf = rest;
        Ok(*head)
    }

    pub fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    fn len_prefix(&mut self, elem_bytes: usize) -> io::Result<usize> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| bad("length overflows usize"))?;
        if n.checked_mul(elem_bytes).is_none_or(|b| b > self.buf.len()) {
            return Err(bad("array length exceeds payload"));
        }
        Ok(n)
    }

    pub fn u64s(&mut self) -> io::Result<Vec<u64>> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    pub fn u32s(&mut self) -> io::Result<Vec<u32>> {
        let n = self.len_prefix(4)?;
        (0..n)
            .map(|_| Ok(u32::from_le_bytes(self.take_array()?)))
            .collect()
    }

    pub fn f64s(&mut self) -> io::Result<Vec<f64>> {
        let n = self.len_prefix(8)?;
        (0..n).map(|_| Ok(f64::from_bits(self.u64()?))).collect()
    }

    pub fn str(&mut self) -> io::Result<String> {
        let n = self.len_prefix(1)?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| bad("non-UTF-8 string"))
    }

    /// Fails unless the whole payload was consumed — catches layout
    /// drift between encoder and decoder.
    pub fn finish(self) -> io::Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(bad("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        let n = write_frame(&mut buf, 7, b"hello").unwrap();
        assert_eq!(n, FRAME_OVERHEAD + 5);
        let (tag, payload, read) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!((tag, payload.as_slice()), (7, b"hello".as_slice()));
        assert_eq!(read, n);
    }

    #[test]
    fn oversize_frame_rejected() {
        let mut buf = vec![1u8];
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn lying_header_is_a_typed_eof_not_an_allocation() {
        // Claims the largest legal payload (16 GiB), carries 10 bytes.
        let mut buf = vec![1u8];
        buf.extend_from_slice(&MAX_FRAME.to_le_bytes());
        buf.extend_from_slice(&[7u8; 10]);
        let e = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}");
        assert!(e.to_string().contains("10 of"), "{e}");
    }

    #[test]
    fn codec_round_trip_bit_exact() {
        let f = [0.5, -0.0, f64::NAN, 1.0e-308, f64::INFINITY];
        let payload = Enc::new()
            .u64(42)
            .u64s(&[1, 2, 3])
            .u32s(&[9, 8])
            .f64s(&f)
            .str("cscv")
            .finish();
        let mut d = Dec::new(&payload);
        assert_eq!(d.u64().unwrap(), 42);
        assert_eq!(d.u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.u32s().unwrap(), vec![9, 8]);
        let back = d.f64s().unwrap();
        for (a, b) in back.iter().zip(&f) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact f64 round trip");
        }
        assert_eq!(d.str().unwrap(), "cscv");
        d.finish().unwrap();
    }

    #[test]
    fn decoder_rejects_lying_lengths() {
        // Claims 1000 f64s but carries none.
        let payload = Enc::new().u64(1000).finish();
        let mut d = Dec::new(&payload);
        assert!(d.f64s().is_err());
        // Trailing garbage is caught by finish().
        let payload = Enc::new().u64(1).u64(7).finish();
        let mut d = Dec::new(&payload);
        assert_eq!(d.u64().unwrap(), 1);
        assert!(d.finish().is_err());
    }

    #[test]
    fn conn_tallies_both_directions() {
        // A loopback pair over in-memory pipes via UnixStream.
        let (a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        let mut ca = Conn::new(a);
        let mut cb = Conn::new(b);
        ca.send(3, &[1, 2, 3, 4]).unwrap();
        let (tag, payload) = cb.recv().unwrap();
        assert_eq!(tag, 3);
        assert_eq!(payload, vec![1, 2, 3, 4]);
        assert_eq!(ca.bytes_tx, FRAME_OVERHEAD + 4);
        assert_eq!(cb.bytes_rx, FRAME_OVERHEAD + 4);
    }
}
