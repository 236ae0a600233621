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
//! fixed-layout little-endian fields (no self-describing encoding —
//! both ends are the same binary): a `u64`, or an array as its `u64`
//! length and then its elements (a string is an array of UTF-8 bytes).
//!
//! **No payload buffer.** A frame streams between the socket and the
//! arrays through one fixed-size staging buffer per connection (64 KiB),
//! both ways:
//!
//! * `Conn::send` sums `len` from the field sizes, then converts the
//!   header and the fields, read from borrowed slices, into the staging
//!   buffer and writes it out each time it fills. A small frame is one
//!   `write`.
//! * [`Conn::recv`] reads the 9 header bytes, checks `len` against
//!   [`MAX_FRAME`] and runs the session check on the tag, all before any
//!   body byte is read. The decoder then pulls each field through the
//!   staging buffer into its final typed `Vec` ([`Payload`]). An array
//!   length is checked against the bytes left in the frame before
//!   anything is sized from it, the `Vec` reserves at most 1 MiB and
//!   grows only as bytes arrive, and the reader never reads past the
//!   frame. So a corrupt or lying header costs at most what the peer
//!   really sends.
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

/// Size of the staging buffer every frame passes through, both ways.
const STAGE_BYTES: usize = 64 << 10;

/// Bytes a received array reserves before any arrive; a longer array
/// grows its `Vec` as its bytes are read.
const RESERVE_UP_FRONT: usize = 1 << 20;

/// One payload field, borrowed from the message that sends it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Field<'a> {
    U64(u64),
    U64s(&'a [u64]),
    U32s(&'a [u32]),
    /// Bit-exact: values travel as their bits, so NaN payloads and
    /// signed zeros survive.
    F64s(&'a [f64]),
    Str(&'a str),
}

impl Field<'_> {
    /// Bytes the field takes on the wire.
    fn wire_len(&self) -> u64 {
        let array = |bytes: usize| 8 + bytes as u64;
        match self {
            Field::U64(_) => 8,
            Field::U64s(vs) => array(size_of_val(*vs)),
            Field::U32s(vs) => array(size_of_val(*vs)),
            Field::F64s(vs) => array(size_of_val(*vs)),
            Field::Str(s) => array(s.len()),
        }
    }
}

/// The send half of one frame: bytes gather in the staging buffer and
/// go to the stream each time it fills.
struct Staged<'c, W> {
    w: &'c mut W,
    stage: &'c mut [u8],
    fill: usize,
}

impl<W: Write> Staged<'_, W> {
    /// Convert `vs` into the staging buffer, `N` bytes per element.
    fn put<T: Copy, const N: usize>(
        &mut self,
        vs: &[T],
        le: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        let mut rest = vs;
        while !rest.is_empty() {
            let room = (self.stage.len() - self.fill) / N;
            if room == 0 {
                self.drain()?;
                continue;
            }
            let (now, later) = rest.split_at(room.min(rest.len()));
            let (dst, _) = self.stage[self.fill..].as_chunks_mut::<N>();
            for (d, &v) in dst.iter_mut().zip(now) {
                *d = le(v);
            }
            self.fill += now.len() * N;
            rest = later;
        }
        Ok(())
    }

    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&[v], u64::to_le_bytes)
    }

    /// A length-prefixed array.
    fn array<T: Copy, const N: usize>(
        &mut self,
        vs: &[T],
        le: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        self.u64(vs.len() as u64)?;
        self.put(vs, le)
    }

    fn field(&mut self, f: Field<'_>) -> io::Result<()> {
        match f {
            Field::U64(v) => self.u64(v),
            Field::U64s(vs) => self.array(vs, u64::to_le_bytes),
            Field::U32s(vs) => self.array(vs, u32::to_le_bytes),
            Field::F64s(vs) => self.array(vs, f64::to_le_bytes),
            Field::Str(s) => self.array(s.as_bytes(), |b| [b]),
        }
    }

    fn drain(&mut self) -> io::Result<()> {
        self.w.write_all(&self.stage[..self.fill])?;
        self.fill = 0;
        Ok(())
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed frame: {what}"),
    )
}

/// The body of one received frame, decoded field by field through the
/// connection's staging buffer. It never reads past the frame.
pub struct Payload<'c, R> {
    r: &'c mut R,
    stage: &'c mut [u8],
    /// Staged bytes not yet decoded: `stage[pos..end]`.
    pos: usize,
    end: usize,
    /// Frame bytes not yet read from the stream.
    unread: u64,
    /// The frame's payload length, from its header.
    len: u64,
}

impl<R: Read> Payload<'_, R> {
    /// Payload bytes not yet decoded.
    fn left(&self) -> u64 {
        self.unread + (self.end - self.pos) as u64
    }

    /// The staged bytes not yet decoded, at least one: reads more of
    /// the frame when none are staged.
    fn staged(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.end {
            if self.unread == 0 {
                return Err(bad("a field runs past the end of the frame"));
            }
            let want =
                usize::try_from(self.unread).map_or(self.stage.len(), |u| u.min(self.stage.len()));
            let n = loop {
                match self.r.read(&mut self.stage[..want]) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!(
                                "frame truncated: {} of {} payload bytes",
                                self.len - self.unread,
                                self.len
                            ),
                        ))
                    }
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            };
            self.unread -= n as u64;
            (self.pos, self.end) = (0, n);
        }
        Ok(&self.stage[self.pos..self.end])
    }

    /// The next `N` payload bytes, wherever the staging buffer splits
    /// them.
    fn take<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut out = [0u8; N];
        let mut got = 0;
        while got < N {
            let staged = self.staged()?;
            let k = staged.len().min(N - got);
            out[got..got + k].copy_from_slice(&staged[..k]);
            self.pos += k;
            got += k;
        }
        Ok(out)
    }

    pub(crate) fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take()?))
    }

    /// A length-prefixed array of `N`-byte elements. The length is
    /// checked against the frame before anything is sized from it; the
    /// elements are converted straight from the staging buffer, a
    /// staged run at a time.
    fn array<T, const N: usize>(&mut self, from_le: impl Fn([u8; N]) -> T) -> io::Result<Vec<T>> {
        let n = self.u64()?;
        let n = match n.checked_mul(N as u64) {
            Some(bytes) if bytes <= self.left() => {
                usize::try_from(n).map_err(|_| bad("array length overflows usize"))?
            }
            _ => return Err(bad("array length exceeds payload")),
        };
        let mut out = Vec::with_capacity(n.min(RESERVE_UP_FRONT / N));
        while out.len() < n {
            let staged = self.staged()?;
            let k = (staged.len() / N).min(n - out.len());
            if k == 0 {
                // One element straddles the end of the staged bytes.
                let b = self.take()?;
                out.push(from_le(b));
                continue;
            }
            let (elems, _) = staged[..k * N].as_chunks::<N>();
            out.extend(elems.iter().map(|&b| from_le(b)));
            self.pos += k * N;
        }
        Ok(out)
    }

    pub(crate) fn u64s(&mut self) -> io::Result<Vec<u64>> {
        self.array(u64::from_le_bytes)
    }

    pub(crate) fn u32s(&mut self) -> io::Result<Vec<u32>> {
        self.array(u32::from_le_bytes)
    }

    /// Bit-exact inverse of `Field::F64s`.
    pub(crate) fn f64s(&mut self) -> io::Result<Vec<f64>> {
        self.array(f64::from_le_bytes)
    }

    pub(crate) fn str(&mut self) -> io::Result<String> {
        String::from_utf8(self.array(|[b]| b)?).map_err(|_| bad("non-UTF-8 string"))
    }

    /// Fails unless the fields took the whole frame — catches layout
    /// drift between sender and receiver.
    fn finish(&self) -> io::Result<()> {
        match self.left() {
            0 => Ok(()),
            n => Err(bad(&format!("{n} trailing bytes"))),
        }
    }
}

/// A framed connection that tallies traffic in both directions and,
/// once an endpoint [`enforce`](Conn::enforce)s it, holds every frame to
/// the session table.
pub struct Conn<S> {
    stream: S,
    /// Bytes written to the stream (headers included).
    pub bytes_tx: u64,
    /// Bytes read from the stream (headers included).
    pub bytes_rx: u64,
    /// `None` on a raw transport (wire-level tests and tools).
    session: Option<Session>,
    /// The staging buffer of every frame sent or received.
    stage: Box<[u8]>,
}

impl<S> Conn<S> {
    pub fn new(stream: S) -> Conn<S> {
        Conn {
            stream,
            bytes_tx: 0,
            bytes_rx: 0,
            session: None,
            stage: vec![0; STAGE_BYTES].into_boxed_slice(),
        }
    }

    /// Start a fresh session as `role`: from here on every frame must be
    /// one [`crate::protocol::TRANSITIONS`] admits.
    pub fn enforce(&mut self, role: Role) {
        self.session = Some(Session::new(role));
    }
}

impl<S: Write> Conn<S> {
    /// Send one frame of `fields`, tallying the bytes. A frame the
    /// session rejects, or one longer than [`MAX_FRAME`], is not
    /// written.
    pub(crate) fn send(&mut self, tag: u8, fields: &[Field<'_>]) -> io::Result<()> {
        let len: u64 = fields.iter().map(Field::wire_len).sum();
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame length {len} exceeds MAX_FRAME"),
            ));
        }
        if let Some(s) = &mut self.session {
            s.step(tag, true)?;
        }
        let mut out = Staged {
            w: &mut self.stream,
            stage: &mut self.stage,
            fill: 0,
        };
        out.put(&[tag], |b| [b])?;
        out.u64(len)?;
        for &f in fields {
            out.field(f)?;
        }
        out.drain()?;
        self.stream.flush()?;
        self.bytes_tx += FRAME_OVERHEAD + len;
        Ok(())
    }
}

impl<S: Read> Conn<S> {
    /// Receive one frame, tallying the bytes. The header's length is
    /// checked against [`MAX_FRAME`] and its tag against the session
    /// before the body is read; `decode` then reads the body field by
    /// field, and must take all of it.
    pub fn recv<T>(
        &mut self,
        decode: impl FnOnce(u8, &mut Payload<'_, S>) -> io::Result<T>,
    ) -> io::Result<T> {
        let mut header = [0u8; 9];
        self.stream.read_exact(&mut header)?;
        let [tag, len @ ..] = header;
        let len = u64::from_le_bytes(len);
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds MAX_FRAME"),
            ));
        }
        if let Some(s) = &mut self.session {
            s.step(tag, false)?;
        }
        let mut body = Payload {
            r: &mut self.stream,
            stage: &mut self.stage,
            pos: 0,
            end: 0,
            unread: len,
            len,
        };
        let value = decode(tag, &mut body)?;
        body.finish()?;
        self.bytes_rx += FRAME_OVERHEAD + len;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytes of one frame of `fields`.
    fn frame(tag: u8, fields: &[Field<'_>]) -> Vec<u8> {
        let mut conn = Conn::new(Vec::new());
        conn.send(tag, fields).unwrap();
        assert_eq!(conn.bytes_tx, conn.stream.len() as u64);
        conn.stream
    }

    /// Read one frame from `bytes` with `decode`.
    fn read<T>(
        bytes: &[u8],
        decode: impl FnOnce(u8, &mut Payload<'_, &[u8]>) -> io::Result<T>,
    ) -> io::Result<T> {
        Conn::new(bytes).recv(decode)
    }

    #[test]
    fn frame_round_trip() {
        let bytes = frame(7, &[Field::Str("hello")]);
        assert_eq!(bytes.len() as u64, FRAME_OVERHEAD + 8 + 5);
        let mut conn = Conn::new(bytes.as_slice());
        let (tag, s) = conn.recv(|t, p| Ok((t, p.str()?))).unwrap();
        assert_eq!((tag, s.as_str()), (7, "hello"));
        assert_eq!(conn.bytes_rx, bytes.len() as u64);
    }

    #[test]
    fn oversize_frame_rejected() {
        let mut buf = vec![1u8];
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let e = read(&buf, |_, p| p.u64()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
    }

    #[test]
    fn lying_header_is_a_typed_eof_not_an_allocation() {
        // Claims the largest legal payload (16 GiB), carries 10 bytes,
        // and the first field is an array that claims 2 GiB of them.
        let mut buf = vec![1u8];
        buf.extend_from_slice(&MAX_FRAME.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 31).to_le_bytes());
        buf.extend_from_slice(&[7u8; 2]);
        let e = read(&buf, |_, p| p.str()).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}");
        assert!(e.to_string().contains("10 of"), "{e}");
    }

    /// An out-of-order frame is refused on its 9 header bytes, whatever
    /// length it declares: the body is never read.
    #[test]
    fn session_check_runs_on_the_header_before_the_body() {
        let mut buf = vec![crate::protocol::tag::SPMV];
        buf.extend_from_slice(&MAX_FRAME.to_le_bytes());
        buf.extend_from_slice(b"body bytes that must stay unread");
        let mut stream = buf.as_slice();
        let mut conn = Conn::new(&mut stream);
        conn.enforce(Role::Worker);
        let e = conn
            .recv(|_, _| -> io::Result<()> { panic!("the body of a refused frame was read") })
            .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("Init"), "{e}");
        assert!(e.to_string().contains("tag 4"), "{e}");
        assert_eq!(conn.bytes_rx, 0);
        drop(conn);
        assert_eq!(stream, b"body bytes that must stay unread");
    }

    #[test]
    fn codec_round_trip_bit_exact() {
        let f = [0.5, -0.0, f64::NAN, 1.0e-308, f64::INFINITY];
        let bytes = frame(
            1,
            &[
                Field::U64(42),
                Field::U64s(&[1, 2, 3]),
                Field::U32s(&[9, 8]),
                Field::F64s(&f),
                Field::Str("cscv"),
            ],
        );
        read(&bytes, |_, p| {
            assert_eq!(p.u64()?, 42);
            assert_eq!(p.u64s()?, vec![1, 2, 3]);
            assert_eq!(p.u32s()?, vec![9, 8]);
            let back = p.f64s()?;
            for (a, b) in back.iter().zip(&f) {
                assert_eq!(a.to_bits(), b.to_bits(), "bit-exact f64 round trip");
            }
            assert_eq!(p.str()?, "cscv");
            Ok(())
        })
        .unwrap();
    }

    /// Arrays the size of a shard's matrix round-trip bit for bit over
    /// a socket, every awkward f64 included, through many refills of
    /// the staging buffer on both ends.
    #[test]
    fn large_arrays_round_trip_bit_exact() {
        const N: usize = 1 << 20;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let u64s: Vec<u64> = (0..N)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        let u32s: Vec<u32> = u64s.iter().map(|&v| (v >> 17) as u32).collect();
        let special = [
            -0.0,
            0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001), // signalling NaN
            f64::from_bits(0xFFF8_DEAD_BEEF_0001), // NaN with a payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0, // subnormal
            f64::MAX,
        ];
        let f64s: Vec<f64> = u64s
            .iter()
            .enumerate()
            .map(|(i, &v)| special.get(i % 64).copied().unwrap_or(f64::from_bits(v)))
            .collect();
        // An odd-length string first, so no array starts on a staging
        // boundary and elements straddle refills.
        let fields = [
            Field::Str("odd"),
            Field::U64s(&u64s),
            Field::U32s(&u32s),
            Field::F64s(&f64s),
        ];
        let (a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        let (sent, rx, (s, back_u64s, back_u32s, back)) = std::thread::scope(|scope| {
            let sender = scope.spawn(|| {
                let mut conn = Conn::new(a);
                conn.send(2, &fields).unwrap();
                conn.bytes_tx
            });
            let mut conn = Conn::new(b);
            let got = conn
                .recv(|_, p| Ok((p.str()?, p.u64s()?, p.u32s()?, p.f64s()?)))
                .unwrap();
            (sender.join().unwrap(), conn.bytes_rx, got)
        });
        assert_eq!(sent, FRAME_OVERHEAD + 4 * 8 + 3 + (N * (8 + 4 + 8)) as u64);
        assert_eq!(rx, sent);
        assert_eq!(s, "odd");
        assert_eq!(back_u64s, u64s);
        assert_eq!(back_u32s, u32s);
        assert_eq!(back.len(), N);
        for (i, (a, b)) in back.iter().zip(&f64s).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "f64 {i}");
        }
    }

    /// The wire layout, pinned byte for byte: each array is a `u64`
    /// length and then its elements, all little-endian.
    #[test]
    fn payload_layout_is_pinned() {
        let bytes = frame(
            9,
            &[
                Field::U64(0x0102_0304_0506_0708),
                Field::U64s(&[0x1122_3344_5566_7788]),
                Field::U32s(&[0xAABB_CCDD, 1]),
                Field::F64s(&[-0.0, 1.5]),
                Field::Str("ok"),
            ],
        );
        #[rustfmt::skip]
        let want: &[u8] = &[
            9, 74, 0, 0, 0, 0, 0, 0, 0,
            8, 7, 6, 5, 4, 3, 2, 1,
            1, 0, 0, 0, 0, 0, 0, 0, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
            2, 0, 0, 0, 0, 0, 0, 0, 0xDD, 0xCC, 0xBB, 0xAA, 1, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xF8, 0x3F,
            2, 0, 0, 0, 0, 0, 0, 0, b'o', b'k',
        ];
        assert_eq!(bytes, want);
    }

    /// Every array decoder turns a cut-short or lying frame into a
    /// typed error, never a panic or an allocation the frame does not
    /// back.
    #[test]
    fn decoder_rejects_lying_lengths() {
        type Decode = fn(&mut Payload<'_, &[u8]>) -> io::Result<()>;
        let cases: [(&str, Field<'_>, Decode); 3] = [
            ("u64s", Field::U64s(&[1, 2, 3]), |p| p.u64s().map(drop)),
            ("u32s", Field::U32s(&[1, 2, 3]), |p| p.u32s().map(drop)),
            ("f64s", Field::F64s(&[1.0, 2.0, 3.0]), |p| {
                p.f64s().map(drop)
            }),
        ];
        for (name, field, decode) in cases {
            let full = frame(1, &[field]);
            read(&full, |_, p| decode(p)).unwrap();
            for cut in 0..full.len() {
                let e = read(&full[..cut], |_, p| decode(p)).unwrap_err();
                assert_eq!(
                    e.kind(),
                    io::ErrorKind::UnexpectedEof,
                    "{name} cut {cut}: {e}"
                );
            }
            for lie in [4, 1000, u64::MAX / 4 + 1, 1 << 40, u64::MAX] {
                let mut bytes = full.clone();
                bytes[9..17].copy_from_slice(&lie.to_le_bytes());
                let e = read(&bytes, |_, p| decode(p)).unwrap_err();
                assert_eq!(
                    e.kind(),
                    io::ErrorKind::InvalidData,
                    "{name} claims {lie}: {e}"
                );
                assert!(e.to_string().contains("malformed frame"), "{e}");
            }
        }
        // Bytes the fields do not take are rejected.
        let bytes = frame(1, &[Field::U64(1), Field::U64(7)]);
        let e = read(&bytes, |_, p| p.u64()).unwrap_err();
        assert!(e.to_string().contains("8 trailing bytes"), "{e}");
        // So is a field that runs past the declared frame.
        let e = read(&bytes, |_, p| {
            for _ in 0..3 {
                p.u64()?;
            }
            Ok(())
        })
        .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
    }

    #[test]
    fn conn_tallies_both_directions() {
        // A loopback pair over in-memory pipes via UnixStream.
        let (a, b) = std::os::unix::net::UnixStream::pair().unwrap();
        let mut ca = Conn::new(a);
        let mut cb = Conn::new(b);
        ca.send(3, &[Field::U32s(&[1, 2, 3, 4])]).unwrap();
        let (tag, payload) = cb.recv(|t, p| Ok((t, p.u32s()?))).unwrap();
        assert_eq!(tag, 3);
        assert_eq!(payload, vec![1, 2, 3, 4]);
        assert_eq!(ca.bytes_tx, FRAME_OVERHEAD + 8 + 16);
        assert_eq!(cb.bytes_rx, FRAME_OVERHEAD + 8 + 16);
    }
}
