//! Per-connection state for the event-driven TCP runtime.
//!
//! A [`Conn`] is everything the event loop tracks for one socket: the
//! handshake phase, an incremental frame reassembler for the read side,
//! and a bounded outbound queue ([`TcpPeer`]) drained by readiness-driven
//! flushes on the write side. No thread ever blocks on a `Conn`; all I/O
//! is non-blocking and the loop in [`crate::tcp`] advances the state
//! machine as the poller reports readiness.
//!
//! The read side preserves the [`crate::frame`] hostile-input contract:
//! a length prefix is validated against [`frame::MAX_FRAME`] the moment
//! the 4 header bytes exist, before any payload is buffered, and the
//! reassembly buffer only ever holds bytes that actually arrived — a
//! forged 4 GiB prefix kills the connection without allocating.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::Mutex;

use crate::frame::{self, FrameError};

/// Reassembles length-prefixed frames from an arbitrary byte stream.
///
/// Bytes go in via [`extend`](Self::extend) in whatever chunks the socket
/// yields (down to one byte at a time); complete frames come out via
/// [`next_frame`](Self::next_frame). The internal buffer is compacted as
/// frames are consumed, so steady-state memory is bounded by one
/// in-flight frame plus a read chunk.
#[derive(Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by returned frames.
    pos: usize,
}

/// Compact the buffer once this many consumed bytes accumulate.
const COMPACT_THRESHOLD: usize = 64 * 1024;

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append raw bytes received from the stream.
    pub fn extend(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Try to take one complete frame off the front. Returns
    /// `Ok(None)` when more bytes are needed; errors on a length prefix
    /// over [`frame::MAX_FRAME`] — checked as soon as the header is
    /// present, before the payload is buffered or allocated.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameError> {
        match frame::split(&self.buf[self.pos..])? {
            Some((payload, rest)) => {
                let out = Bytes::copy_from_slice(payload);
                self.pos = self.buf.len() - rest.len();
                if self.pos == self.buf.len() {
                    self.buf.clear();
                    self.pos = 0;
                } else if self.pos >= COMPACT_THRESHOLD {
                    self.buf.drain(..self.pos);
                    self.pos = 0;
                }
                Ok(Some(out))
            }
            None => Ok(None),
        }
    }

    /// Bytes buffered and not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// The send half of a connection: a bounded queue of byte chunks drained
/// by the event loop when the socket is writable.
///
/// `enqueue` is the only producer-side operation and never blocks: when
/// the queue already holds [`max_outbound`](TcpNodeConfig) bytes the
/// chunk is refused and the caller sees a failed send — a slow or stuck
/// peer backpressures its sender instead of growing memory without
/// bound. One chunk is always admitted into an empty queue, so any
/// single legal frame (≤ `MAX_FRAME`) can be sent regardless of the
/// configured bound.
pub struct TcpPeer {
    token: u64,
    max_outbound: usize,
    queued_bytes: AtomicUsize,
    closed: AtomicBool,
    queue: Mutex<VecDeque<Bytes>>,
}

impl TcpPeer {
    pub(crate) fn new(token: u64, max_outbound: usize) -> Self {
        TcpPeer {
            token,
            max_outbound,
            queued_bytes: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
        }
    }

    /// The event-loop token of the connection this handle feeds.
    pub(crate) fn token(&self) -> u64 {
        self.token
    }

    /// Queue a chunk for sending. Returns `false` when the connection is
    /// closed or the queue is at its byte bound (and non-empty).
    pub(crate) fn enqueue(&self, chunk: Bytes) -> bool {
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        let mut q = self.queue.lock();
        // Re-check under the lock: mark_closed drains under it.
        if self.closed.load(Ordering::Acquire) {
            return false;
        }
        let queued = self.queued_bytes.load(Ordering::Relaxed);
        if !q.is_empty() && queued + chunk.len() > self.max_outbound {
            return false;
        }
        self.queued_bytes.store(queued + chunk.len(), Ordering::Relaxed);
        q.push_back(chunk);
        true
    }

    /// Peek the chunk at the front of the queue (cheap `Bytes` clone).
    fn front(&self) -> Option<Bytes> {
        self.queue.lock().front().cloned()
    }

    /// Drop the fully-written front chunk.
    fn pop_front(&self) {
        let mut q = self.queue.lock();
        if let Some(chunk) = q.pop_front() {
            self.queued_bytes.fetch_sub(chunk.len(), Ordering::Relaxed);
        }
    }

    /// Close the handle: future `enqueue`s fail and queued chunks are
    /// released.
    pub(crate) fn mark_closed(&self) {
        self.closed.store(true, Ordering::Release);
        let mut q = self.queue.lock();
        q.clear();
        self.queued_bytes.store(0, Ordering::Relaxed);
    }

    /// Bytes currently queued and not yet written to the socket.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes.load(Ordering::Relaxed)
    }
}

/// Where a connection is in its lifecycle.
pub(crate) enum ConnPhase {
    /// Waiting for the peer's 8-byte hello (both directions: the
    /// initiator awaits the reply hello, the acceptor awaits the opening
    /// hello). The connection is invisible to the peer registry until
    /// this completes, and is reaped at `deadline` if it doesn't.
    AwaitHello { got: usize, hello: [u8; 8] },
    /// Handshake complete: registered (or superseded) under `peer` with
    /// the registry `generation` it was inserted at.
    Active { peer: u64, generation: u64 },
}

/// What a completed flush wants from the poller.
#[derive(PartialEq, Eq, Debug, Clone, Copy)]
pub(crate) enum FlushOutcome {
    /// Queue drained; write interest can be dropped.
    Drained,
    /// Socket buffer full; keep (or add) write interest.
    WouldBlock,
}

/// One live socket owned by the event loop.
pub(crate) struct Conn {
    pub stream: TcpStream,
    /// True when this node initiated the connection (`connect`), false
    /// when it was accepted. Drives duplicate-peer resolution.
    pub initiated_here: bool,
    pub phase: ConnPhase,
    /// Handshake deadline; meaningless once `Active`.
    pub deadline: Instant,
    pub assembler: FrameAssembler,
    /// Outbound queue; the same handle lands in the peer registry when
    /// the handshake completes.
    pub handle: Arc<TcpPeer>,
    /// Bytes of the queue-front chunk already written.
    write_off: usize,
    /// A parsed inbound frame awaiting room in the node's bounded
    /// inbound queue; while occupied the loop keeps read interest off
    /// (per-peer read throttling).
    pub pending: Option<(u64, Bytes)>,
    /// Interest mask currently registered with the poller.
    pub interest: u32,
}

impl Conn {
    pub(crate) fn new(
        stream: TcpStream,
        token: u64,
        initiated_here: bool,
        deadline: Instant,
        max_outbound: usize,
    ) -> Self {
        Conn {
            stream,
            initiated_here,
            phase: ConnPhase::AwaitHello { got: 0, hello: [0u8; 8] },
            deadline,
            assembler: FrameAssembler::new(),
            handle: Arc::new(TcpPeer::new(token, max_outbound)),
            write_off: 0,
            pending: None,
            interest: 0,
        }
    }

    /// The peer address, once the handshake completed.
    pub(crate) fn peer(&self) -> Option<u64> {
        match self.phase {
            ConnPhase::Active { peer, .. } => Some(peer),
            ConnPhase::AwaitHello { .. } => None,
        }
    }

    /// Feed handshake bytes. Consumes up to the 8 hello bytes from
    /// `data` and returns `(peer, bytes_consumed)` when the hello is
    /// complete; bytes beyond the hello (a peer may pipeline frames
    /// right behind it) are *not* consumed. Returns `None` while the
    /// hello is still short.
    pub(crate) fn feed_hello(&mut self, data: &[u8]) -> (Option<u64>, usize) {
        match &mut self.phase {
            ConnPhase::AwaitHello { got, hello } => {
                let take = (8 - *got).min(data.len());
                hello[*got..*got + take].copy_from_slice(&data[..take]);
                *got += take;
                if *got == 8 {
                    (Some(u64::from_le_bytes(*hello)), take)
                } else {
                    (None, take)
                }
            }
            ConnPhase::Active { .. } => (None, 0),
        }
    }

    /// Drain the outbound queue into the socket without blocking.
    pub(crate) fn flush(&mut self) -> std::io::Result<FlushOutcome> {
        loop {
            let Some(front) = self.handle.front() else {
                return Ok(FlushOutcome::Drained);
            };
            while self.write_off < front.len() {
                match self.stream.write(&front[self.write_off..]) {
                    Ok(0) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::WriteZero,
                            "socket wrote zero bytes",
                        ))
                    }
                    Ok(n) => self.write_off += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        return Ok(FlushOutcome::WouldBlock)
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            self.handle.pop_front();
            self.write_off = 0;
        }
    }

    /// Non-blocking read into `chunk`. `Ok(Some(n))` for `n` fresh
    /// bytes, `Ok(None)` when the socket has nothing more right now,
    /// and `Err` for EOF (mapped to `UnexpectedEof`) or a real error.
    pub(crate) fn read_chunk(&mut self, chunk: &mut [u8]) -> std::io::Result<Option<usize>> {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed connection",
                    ))
                }
                Ok(n) => return Ok(Some(n)),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MAX_FRAME;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        frame::encode(payload, &mut out);
        out
    }

    #[test]
    fn assembler_reassembles_one_byte_trickle() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&framed(b"alpha"));
        wire.extend_from_slice(&framed(b""));
        wire.extend_from_slice(&framed(&[0xCD; 300]));

        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        for b in &wire {
            asm.extend(std::slice::from_ref(b));
            while let Some(f) = asm.next_frame().expect("well-formed stream") {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(&frames[0][..], b"alpha");
        assert!(frames[1].is_empty());
        assert_eq!(&frames[2][..], &[0xCD; 300][..]);
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn assembler_handles_every_split_point() {
        // Two frames, split into (prefix, suffix) at every boundary —
        // including mid-header and exactly between the frames.
        let mut wire = Vec::new();
        wire.extend_from_slice(&framed(b"first-frame"));
        wire.extend_from_slice(&framed(b"2nd"));
        for cut in 0..=wire.len() {
            let mut asm = FrameAssembler::new();
            let mut frames = Vec::new();
            for part in [&wire[..cut], &wire[cut..]] {
                asm.extend(part);
                while let Some(f) = asm.next_frame().unwrap() {
                    frames.push(f);
                }
            }
            assert_eq!(frames.len(), 2, "cut at {cut}");
            assert_eq!(&frames[0][..], b"first-frame");
            assert_eq!(&frames[1][..], b"2nd");
        }
    }

    #[test]
    fn assembler_rejects_hostile_prefix_before_buffering_payload() {
        let mut asm = FrameAssembler::new();
        // Feed only the 4 hostile header bytes: the error must fire now,
        // with nothing but those 4 bytes ever buffered.
        let hostile = (MAX_FRAME + 1).to_le_bytes();
        asm.extend(&hostile[..3]);
        assert!(matches!(asm.next_frame(), Ok(None)), "short header: need more");
        asm.extend(&hostile[3..]);
        assert!(matches!(asm.next_frame(), Err(FrameError::Oversized(_))));
        assert_eq!(asm.buffered(), 4, "only the received header is buffered");
    }

    #[test]
    fn assembler_compacts_consumed_bytes() {
        let mut asm = FrameAssembler::new();
        let big = framed(&vec![7u8; COMPACT_THRESHOLD]);
        asm.extend(&big);
        asm.extend(&framed(b"tail"));
        assert!(asm.next_frame().unwrap().is_some());
        // The big consumed prefix crossed the threshold: buffer shrank.
        assert!(asm.buffered() < COMPACT_THRESHOLD);
        assert_eq!(&asm.next_frame().unwrap().unwrap()[..], b"tail");
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn peer_queue_enforces_byte_bound_but_admits_into_empty() {
        let peer = TcpPeer::new(1, 10);
        // A chunk larger than the bound is admitted when the queue is
        // empty (progress guarantee for single legal frames)...
        assert!(peer.enqueue(Bytes::from(vec![0u8; 16])));
        assert_eq!(peer.queued_bytes(), 16);
        // ...but nothing more fits behind it.
        assert!(!peer.enqueue(Bytes::from(vec![0u8; 1])));
        peer.pop_front();
        assert_eq!(peer.queued_bytes(), 0);
        assert!(peer.enqueue(Bytes::from(vec![0u8; 4])));
        assert!(peer.enqueue(Bytes::from(vec![0u8; 6])));
        assert!(!peer.enqueue(Bytes::from(vec![0u8; 1])), "10-byte bound reached");
    }

    #[test]
    fn closed_peer_refuses_and_releases() {
        let peer = TcpPeer::new(1, 1024);
        assert!(peer.enqueue(Bytes::copy_from_slice(b"x")));
        peer.mark_closed();
        assert_eq!(peer.queued_bytes(), 0, "queued chunks released on close");
        assert!(!peer.enqueue(Bytes::copy_from_slice(b"y")));
    }
}
