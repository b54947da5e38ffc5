//! The shared length-prefixed frame codec.
//!
//! The framing is a `u32` little-endian length prefix followed by exactly
//! that many payload bytes. [`crate::tcp`] uses it on real sockets (one
//! `write` per frame, encode scratch reused per connection).
//!
//! Hostile-input discipline: a length prefix is *untrusted*. Decoders
//! reject prefixes above [`MAX_FRAME`] before allocating, and the stream
//! reader grows its buffer only as payload bytes actually arrive — a
//! forged 4 GiB prefix can never cause a 4 GiB allocation.

use std::io::{Read, Write};

use ia_ccf_types::Wire;

/// Maximum accepted payload size (64 MiB) — guards against corrupt or
/// hostile prefixes.
///
/// Protocol layers are expected to keep every constructible message
/// under this limit: bulk transfers use the paged `FetchLedgerPage`
/// protocol, whose server-side budget clamp
/// (`ia_ccf_types::messages::PAGE_CEILING_BYTES`, 56 MiB) leaves 8 MiB
/// of headroom for the one-segment progress-guarantee overshoot. The
/// encoder asserts below as a last-resort backstop for protocol bugs,
/// not as a path any in-tree message can reach.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Size of the frame header (the `u32` length prefix).
pub const HEADER_LEN: usize = 4;

/// Per-step allocation cap while reading a frame body from a stream.
const READ_CHUNK: usize = 64 * 1024;

/// Frame decoding error. Encoding is infallible for payloads within
/// [`MAX_FRAME`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended before the frame was complete.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes the frame needs (header + payload).
        need: usize,
    },
    /// The length prefix exceeded [`MAX_FRAME`].
    Oversized(u64),
    /// An exact decode found bytes after the frame.
    TrailingBytes(usize),
    /// The frame payload failed [`Wire`] decoding.
    Malformed(ia_ccf_types::wire::CodecError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            FrameError::Oversized(len) => write!(f, "frame length {len} exceeds {MAX_FRAME}"),
            FrameError::TrailingBytes(n) => write!(f, "{n} bytes after frame"),
            FrameError::Malformed(e) => write!(f, "malformed frame payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Append one frame (header + payload) to `out`. With a reusable `out`
/// this is the zero-realloc hot-path encoder.
///
/// Panics if the payload exceeds [`MAX_FRAME`] — every receiver would
/// reject such a frame as `Oversized` and kill the connection, so an
/// over-large message is a protocol-layer bug that must fail loudly on
/// the sender, not livelock as silent reconnect churn.
pub fn encode(payload: &[u8], out: &mut Vec<u8>) {
    assert!(payload.len() as u64 <= MAX_FRAME as u64, "frame over MAX_FRAME");
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encode a [`Wire`] message as a single frame into a reusable scratch
/// buffer (cleared first); returns the frame bytes. [`Wire::encoded_len`]
/// pre-sizes the buffer so the message is encoded exactly once without
/// reallocating at steady state; the header is patched from the *actual*
/// encoded length afterwards, so a drifting `encoded_len` impl can never
/// corrupt framing.
pub fn encode_msg<'a, T: Wire>(msg: &T, scratch: &'a mut Vec<u8>) -> &'a [u8] {
    scratch.clear();
    scratch.reserve(HEADER_LEN + msg.encoded_len());
    scratch.extend_from_slice(&[0u8; HEADER_LEN]);
    msg.encode(scratch);
    let len = scratch.len() - HEADER_LEN;
    // Same rationale as `encode`: an over-MAX_FRAME message would be
    // rejected by every receiver — fail on the sender instead.
    assert!(len as u64 <= MAX_FRAME as u64, "message over MAX_FRAME");
    scratch[..HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    scratch
}

/// A frame split off the front of a buffer: the payload and the bytes
/// after it.
pub type SplitFrame<'a> = (&'a [u8], &'a [u8]);

/// Split one frame off the front of `buf` (streaming decode): returns the
/// payload and the remaining bytes, or `None` when more input is needed.
/// Errors only on an oversized prefix.
pub fn split(buf: &[u8]) -> Result<Option<SplitFrame<'_>>, FrameError> {
    let Some(header) = buf.first_chunk::<HEADER_LEN>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*header);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len as u64));
    }
    let need = HEADER_LEN + len as usize;
    if buf.len() < need {
        return Ok(None);
    }
    Ok(Some((&buf[HEADER_LEN..need], &buf[need..])))
}

/// Decode a buffer holding exactly one frame: truncation and trailing
/// bytes are errors (datagram-style transports deliver whole frames).
pub fn decode_exact(buf: &[u8]) -> Result<&[u8], FrameError> {
    match split(buf)? {
        Some((payload, [])) => Ok(payload),
        Some((_, rest)) => Err(FrameError::TrailingBytes(rest.len())),
        None => {
            let need = match buf.first_chunk::<HEADER_LEN>() {
                Some(header) => HEADER_LEN + u32::from_le_bytes(*header) as usize,
                None => HEADER_LEN,
            };
            Err(FrameError::Truncated { have: buf.len(), need })
        }
    }
}

/// Read one frame from a blocking stream into `payload` (cleared and
/// reused; retains capacity across calls). The buffer grows in bounded
/// chunks as bytes arrive, never by trusting the prefix alone.
pub fn read_frame<R: Read>(r: &mut R, payload: &mut Vec<u8>) -> std::io::Result<()> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            FrameError::Oversized(len as u64),
        ));
    }
    payload.clear();
    let mut remaining = len as usize;
    while remaining > 0 {
        let chunk = remaining.min(READ_CHUNK);
        let start = payload.len();
        payload.resize(start + chunk, 0);
        r.read_exact(&mut payload[start..])?;
        remaining -= chunk;
    }
    Ok(())
}

/// Write `payload` as a single frame through `scratch` in one `write`
/// call (header and body coalesced — half a syscall saved per message,
/// and no interleaving hazard between the two).
pub fn write_frame<W: Write>(
    w: &mut W,
    payload: &[u8],
    scratch: &mut Vec<u8>,
) -> std::io::Result<()> {
    scratch.clear();
    encode(payload, scratch);
    w.write_all(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_split_roundtrip() {
        let mut buf = Vec::new();
        encode(b"alpha", &mut buf);
        encode(b"", &mut buf);
        encode(b"beta", &mut buf);
        let (p1, rest) = split(&buf).unwrap().expect("first frame");
        assert_eq!(p1, b"alpha");
        let (p2, rest) = split(rest).unwrap().expect("second frame");
        assert_eq!(p2, b"");
        let (p3, rest) = split(rest).unwrap().expect("third frame");
        assert_eq!(p3, b"beta");
        assert!(rest.is_empty());
        assert!(split(rest).unwrap().is_none());
    }

    #[test]
    fn decode_exact_rejects_truncation_and_trailing() {
        let mut buf = Vec::new();
        encode(b"payload", &mut buf);
        assert_eq!(decode_exact(&buf).unwrap(), b"payload");
        assert!(matches!(
            decode_exact(&buf[..buf.len() - 1]),
            Err(FrameError::Truncated { .. })
        ));
        assert!(matches!(decode_exact(&buf[..2]), Err(FrameError::Truncated { .. })));
        buf.push(0xFF);
        assert_eq!(decode_exact(&buf), Err(FrameError::TrailingBytes(1)));
    }

    #[test]
    fn oversized_prefix_errors_without_allocating() {
        let mut buf = (MAX_FRAME as u64 + 1).to_le_bytes()[..4].to_vec();
        buf[3] = 0xFF; // ensure > MAX_FRAME
        let hostile = u32::from_le_bytes(buf[..4].try_into().unwrap());
        assert!(hostile > MAX_FRAME);
        assert!(matches!(split(&buf), Err(FrameError::Oversized(_))));
        assert!(matches!(decode_exact(&buf), Err(FrameError::Oversized(_))));
        let mut reader = std::io::Cursor::new(buf);
        let mut payload = Vec::new();
        let err = read_frame(&mut reader, &mut payload).expect_err("must error");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(payload.capacity(), 0, "no allocation from a hostile prefix");
    }

    #[test]
    fn stream_read_write_reuses_buffers() {
        let mut wire = Vec::new();
        let mut scratch = Vec::new();
        write_frame(&mut wire, b"first frame", &mut scratch).unwrap();
        write_frame(&mut wire, b"second", &mut scratch).unwrap();
        let mut reader = std::io::Cursor::new(wire);
        let mut payload = Vec::new();
        read_frame(&mut reader, &mut payload).unwrap();
        assert_eq!(payload, b"first frame");
        let cap = payload.capacity();
        read_frame(&mut reader, &mut payload).unwrap();
        assert_eq!(payload, b"second");
        assert_eq!(payload.capacity(), cap, "payload buffer is reused");
    }
}
