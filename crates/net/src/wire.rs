//! Length-prefixed wire codec for the TCP backend.
//!
//! The sim backend moves `M` values through memory, so protocols never
//! need serialization there. On the wire each message becomes one
//! frame:
//!
//! ```text
//! [u32 len (LE)] [u64 from (LE)] [payload: len - 8 bytes]
//! ```
//!
//! `len` covers the sender id and the payload (not itself), and is
//! capped at [`MAX_FRAME`] so a corrupt or hostile peer cannot trigger
//! an unbounded allocation. Nor can it make the reader allocate what it
//! only claims: the payload buffer starts at most 64 KiB long and grows
//! as bytes arrive. Payload encoding is up to the message
//! type's [`Wire`] impl; the primitive helpers here keep those impls
//! short and byte-order consistent (everything little-endian).
//!
//! # Examples
//!
//! ```
//! use decent_net::wire::{get_u32, put_u32, Wire, WireError};
//!
//! #[derive(Debug, PartialEq)]
//! struct Ping(u32);
//!
//! impl Wire for Ping {
//!     fn encode(&self, buf: &mut Vec<u8>) {
//!         put_u32(buf, self.0);
//!     }
//!     fn decode(r: &mut &[u8]) -> Result<Self, WireError> {
//!         Ok(Ping(get_u32(r)?))
//!     }
//! }
//!
//! let mut buf = Vec::new();
//! Ping(7).encode(&mut buf);
//! let mut r = &buf[..];
//! assert_eq!(Ping::decode(&mut r).unwrap(), Ping(7));
//! assert!(r.is_empty());
//! ```

use std::fmt;
use std::io::{self, Read, Write};

use decent_sim::prelude::NodeId;

/// Hard cap on a frame's `len` field (sender id + payload), 1 MiB.
pub const MAX_FRAME: u32 = 1 << 20;

/// Most payload bytes [`read_frame`] allocates before any arrive.
const READ_PREALLOC: usize = 64 * 1024;

/// Decoding failure: the bytes on the wire do not form a valid message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message did.
    Truncated,
    /// The bytes decoded to an impossible value (bad tag, bad length).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::Invalid(what) => write!(f, "invalid message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Byte-level codec a message type implements to cross real sockets.
///
/// Implementations must round-trip: `decode(encode(m)) == m`, consuming
/// exactly the bytes `encode` produced (so messages can be
/// concatenated).
pub trait Wire: Sized {
    /// Appends this message's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decodes one message from the front of `r`, advancing it past the
    /// consumed bytes.
    fn decode(r: &mut &[u8]) -> Result<Self, WireError>;
}

/// Appends a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends raw bytes (no length prefix; pair with a count field).
pub fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    buf.extend_from_slice(v);
}

/// Reads a `u8`.
pub fn get_u8(r: &mut &[u8]) -> Result<u8, WireError> {
    let (&v, rest) = r.split_first().ok_or(WireError::Truncated)?;
    *r = rest;
    Ok(v)
}

/// Reads a little-endian `u32`.
pub fn get_u32(r: &mut &[u8]) -> Result<u32, WireError> {
    let mut b = [0u8; 4];
    get_exact(r, &mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads a little-endian `u64`.
pub fn get_u64(r: &mut &[u8]) -> Result<u64, WireError> {
    let mut b = [0u8; 8];
    get_exact(r, &mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads exactly `out.len()` raw bytes.
pub fn get_exact(r: &mut &[u8], out: &mut [u8]) -> Result<(), WireError> {
    if r.len() < out.len() {
        return Err(WireError::Truncated);
    }
    let (head, rest) = r.split_at(out.len());
    out.copy_from_slice(head);
    *r = rest;
    Ok(())
}

/// Writes one `[len][from][payload]` frame and flushes.
pub fn write_frame<W: Write>(w: &mut W, from: NodeId, payload: &[u8]) -> io::Result<()> {
    let len = payload
        .len()
        .checked_add(8)
        .filter(|&l| l <= MAX_FRAME as usize)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds MAX_FRAME"))?;
    let mut hdr = [0u8; 12];
    hdr[..4].copy_from_slice(&(len as u32).to_le_bytes());
    hdr[4..].copy_from_slice(&(from as u64).to_le_bytes());
    w.write_all(&hdr)?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, returning `Ok(None)` on a clean end-of-stream
/// (connection closed between frames). A stream that ends mid-frame is
/// an `UnexpectedEof` error.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<(NodeId, Vec<u8>)>> {
    let mut lenb = [0u8; 4];
    if !read_exact_or_eof(r, &mut lenb)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(lenb);
    if !(8..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length out of range",
        ));
    }
    let mut fromb = [0u8; 8];
    r.read_exact(&mut fromb)?;
    let want = len as usize - 8;
    let mut payload = Vec::with_capacity(want.min(READ_PREALLOC));
    r.take(want as u64).read_to_end(&mut payload)?;
    if payload.len() < want {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "eof mid-frame",
        ));
    }
    Ok(Some((u64::from_le_bytes(fromb) as NodeId, payload)))
}

/// Like `read_exact`, but a clean EOF before the first byte returns
/// `Ok(false)` instead of an error.
fn read_exact_or_eof<R: Read>(r: &mut R, out: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < out.len() {
        match r.read(&mut out[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 42, b"hello").unwrap();
        let mut r = &buf[..];
        let (from, payload) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(from, 42);
        assert_eq!(payload, b"hello");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn frames_concatenate() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 1, b"a").unwrap();
        write_frame(&mut buf, 2, b"bb").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), (1, b"a".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), (2, b"bb".to_vec()));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        let big = vec![0u8; MAX_FRAME as usize];
        assert!(write_frame(&mut buf, 0, &big).is_err());
        // A hostile length prefix is rejected before any allocation.
        let mut evil = Vec::new();
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        evil.extend_from_slice(&[0u8; 8]);
        let mut r = &evil[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 9, b"payload").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    /// Serves `script`, then EOF, recording the largest buffer any
    /// `read` call was offered.
    struct Recording<'a> {
        script: &'a [u8],
        largest_offer: usize,
    }

    impl Read for Recording<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_offer = self.largest_offer.max(buf.len());
            self.script.read(buf)
        }
    }

    #[test]
    fn a_lying_length_costs_only_the_bytes_sent() {
        let mut script = MAX_FRAME.to_le_bytes().to_vec();
        script.extend_from_slice(&5u64.to_le_bytes());
        script.extend_from_slice(b"abc");
        let mut r = Recording {
            script: &script,
            largest_offer: 0,
        };
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        assert!(
            r.largest_offer <= READ_PREALLOC,
            "a 1 MiB claim backed by 3 bytes was offered a {}-byte buffer",
            r.largest_offer
        );
    }

    #[test]
    fn primitive_helpers_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_bytes(&mut buf, &[1, 2, 3]);
        let mut r = &buf[..];
        assert_eq!(get_u8(&mut r).unwrap(), 7);
        assert_eq!(get_u32(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(get_u64(&mut r).unwrap(), u64::MAX - 1);
        let mut out = [0u8; 3];
        get_exact(&mut r, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3]);
        assert_eq!(get_u8(&mut r), Err(WireError::Truncated));
    }
}
