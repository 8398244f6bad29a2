//! Length-prefixed JSON framing.
//!
//! Every protocol message is one frame: a 4-byte big-endian length followed
//! by that many bytes of UTF-8 JSON. Framing keeps the stream synchronized
//! without a streaming JSON parser, and the length cap bounds what a
//! misbehaving peer can make the server buffer.
//!
//! ```text
//! +----------------+---------------------------+
//! | len: u32 (BE)  | len bytes of JSON (UTF-8) |
//! +----------------+---------------------------+
//! ```
//!
//! A frame reaches the kernel as **one** write, length prefix and body
//! together, on a socket with `TCP_NODELAY` ([`set_low_latency`], the one
//! place either end sets socket options). Written as prefix-then-body on
//! a Nagle socket, the body's last partial segment waits for the peer's
//! delayed ACK — 40 ms added to every reply, measured.
//!
//! The `*_with_cap` variants take the frame cap as a parameter; the
//! public [`read_frame`] / [`write_frame`] pair fixes it at
//! [`MAX_FRAME_BYTES`]. [`read_frame_resumed`] picks up a frame whose
//! first length byte was already consumed — the server reads that byte
//! with no deadline (a connection idling between requests is fine) and
//! only arms its per-frame read timeout once a frame has started.

use std::io::{self, Read, Write};
use std::net::TcpStream;

use gpsa_graph::framed::Crc32;

use crate::json::Json;

/// Largest accepted frame body. A full value array for a 10M-vertex graph
/// (`"4294967295",` per vertex worst case) stays under this.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// CRC32 over a value chunk's little-endian bytes — the per-chunk
/// integrity check on streamed results, shared by server (stamping) and
/// client (verifying) so the two can never drift.
pub fn chunk_crc(values: &[u32]) -> u32 {
    let mut crc = Crc32::new();
    for v in values {
        crc.update(&v.to_le_bytes());
    }
    crc.finish()
}

/// Socket options for a protocol connection, applied by the client when
/// it connects and by the server when it accepts. Frames are written
/// whole, so Nagle's algorithm could only ever delay one.
pub fn set_low_latency(stream: &TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)
}

/// Write one frame, enforcing `cap` on the body size.
pub fn write_frame_with_cap<W: Write>(w: &mut W, msg: &Json, cap: usize) -> io::Result<()> {
    let mut frame = vec![0u8; 4];
    msg.encode_into(&mut frame);
    let body_len = frame.len() - 4;
    // The prefix is a u32, whatever cap the caller passed.
    if body_len > cap.min(u32::MAX as usize) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {body_len} bytes exceeds the {cap}-byte protocol cap"),
        ));
    }
    frame[..4].copy_from_slice(&(body_len as u32).to_be_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Write one frame under the protocol's [`MAX_FRAME_BYTES`] cap.
pub fn write_frame<W: Write>(w: &mut W, msg: &Json) -> io::Result<()> {
    write_frame_with_cap(w, msg, MAX_FRAME_BYTES)
}

fn read_after_prefix<R: Read>(
    r: &mut R,
    mut len_bytes: [u8; 4],
    mut filled: usize,
    cap: usize,
) -> io::Result<Option<Json>> {
    while filled < 4 {
        let n = r.read(&mut len_bytes[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-length",
            ));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > cap {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("peer announced a {len}-byte frame, over the {cap}-byte protocol cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let text = std::str::from_utf8(&body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    Json::parse(text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad JSON frame: {e}")))
}

/// Read one frame, enforcing `cap` on the announced body size. Returns
/// `Ok(None)` on a clean end-of-stream (the peer closed between frames);
/// mid-frame EOF and malformed JSON are errors.
pub fn read_frame_with_cap<R: Read>(r: &mut R, cap: usize) -> io::Result<Option<Json>> {
    read_after_prefix(r, [0u8; 4], 0, cap)
}

/// Read one frame under the protocol's [`MAX_FRAME_BYTES`] cap.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Json>> {
    read_frame_with_cap(r, MAX_FRAME_BYTES)
}

/// Read the rest of a frame whose first length byte (`first`) the caller
/// already consumed. Never returns `Ok(None)`: a frame has started, so
/// EOF from here on is a mid-frame error.
pub fn read_frame_resumed<R: Read>(r: &mut R, first: u8) -> io::Result<Json> {
    let mut len_bytes = [0u8; 4];
    len_bytes[0] = first;
    match read_after_prefix(r, len_bytes, 1, MAX_FRAME_BYTES)? {
        Some(j) => Ok(j),
        None => unreachable!("read_after_prefix with filled > 0 never yields None"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_crc_is_order_and_content_sensitive() {
        assert_eq!(chunk_crc(&[]), chunk_crc(&[]));
        assert_eq!(chunk_crc(&[1, 2, 3]), chunk_crc(&[1, 2, 3]));
        assert_ne!(chunk_crc(&[1, 2, 3]), chunk_crc(&[3, 2, 1]));
        assert_ne!(chunk_crc(&[1, 2, 3]), chunk_crc(&[1, 2]));
    }

    #[test]
    fn frames_roundtrip_back_to_back() {
        let a = Json::obj().set("op", Json::str("ping"));
        let b = Json::Arr(vec![Json::num(1), Json::num(2)]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(a));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(b));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn a_frame_reaches_the_writer_in_one_write() {
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let msg = Json::obj().set("values_u32", Json::U32s(vec![7; 100_000].into()));
        let mut w = Counting {
            writes: 0,
            bytes: Vec::new(),
        };
        write_frame(&mut w, &msg).unwrap();
        assert_eq!(w.writes, 1, "prefix and body must not be separate writes");
        let mut cursor = std::io::Cursor::new(w.bytes);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(msg));
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::str("hello world")).unwrap();
        buf.truncate(buf.len() - 3);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
        // Truncated length prefix, too.
        let mut cursor = std::io::Cursor::new(vec![0u8, 0]);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn truncated_header_every_length_is_mid_length_eof() {
        // 1, 2 and 3 bytes of a 4-byte length prefix, then EOF.
        for n in 1..4 {
            let mut cursor = std::io::Cursor::new(vec![0u8; n]);
            let err = read_frame(&mut cursor).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "prefix of {n}");
        }
        // Zero bytes is a clean close, not an error.
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn oversized_announcement_is_rejected() {
        let mut buf = (u32::MAX).to_be_bytes().to_vec();
        buf.extend_from_slice(b"{}");
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    /// A JSON string whose encoded frame body is exactly `body_len` bytes
    /// (`"...."` with body_len - 2 fill characters).
    fn frame_of_len(body_len: usize) -> Json {
        Json::str("x".repeat(body_len - 2))
    }

    #[test]
    fn exactly_cap_sized_frame_passes_both_paths() {
        let cap = 64;
        let msg = frame_of_len(cap);
        assert_eq!(msg.encode().len(), cap);
        let mut buf = Vec::new();
        write_frame_with_cap(&mut buf, &msg, cap).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame_with_cap(&mut cursor, cap).unwrap(), Some(msg));
    }

    #[test]
    fn cap_plus_one_is_rejected_on_write_and_read() {
        let cap = 64;
        let msg = frame_of_len(cap + 1);
        // Write path: refused before any byte hits the stream.
        let mut buf = Vec::new();
        let err = write_frame_with_cap(&mut buf, &msg, cap).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(buf.is_empty(), "a refused frame must write nothing");
        // Read path: the same frame written under a larger cap is refused
        // by a reader enforcing the smaller one.
        write_frame_with_cap(&mut buf, &msg, cap + 1).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame_with_cap(&mut cursor, cap).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn resumed_read_completes_a_started_frame() {
        let msg = Json::obj().set("op", Json::str("stats"));
        let mut buf = Vec::new();
        write_frame(&mut buf, &msg).unwrap();
        let first = buf[0];
        let mut cursor = std::io::Cursor::new(&buf[1..]);
        assert_eq!(read_frame_resumed(&mut cursor, first).unwrap(), msg);
        // EOF after the first byte is mid-frame, never a clean close.
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame_resumed(&mut empty, first).is_err());
    }
}
