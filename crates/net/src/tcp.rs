//! Event-driven TCP transport (C10K-capable).
//!
//! A real-socket transport for running IA-CCF nodes over localhost or a
//! LAN. Framing is the [`crate::frame`] codec (a `u32` little-endian
//! length prefix, then the payload).
//!
//! ## Runtime model
//!
//! One **event loop thread per node** owns the listener, every
//! connection socket, and a [`crate::poll::Poller`] (epoll). Thread
//! count is O(nodes), not O(connections): ten thousand peers cost ten
//! thousand sockets in one epoll set, not ten thousand reader threads.
//! All sockets are non-blocking; the loop advances each connection's
//! [`crate::conn::Conn`] state machine as readiness arrives:
//!
//! * **Reads** pull bounded chunks into a per-connection
//!   [`crate::conn::FrameAssembler`] which reassembles frames across
//!   arbitrary `read` boundaries and rejects a hostile length prefix the
//!   moment the header bytes exist — before any payload is buffered.
//!   Complete frames are pushed as `(peer, frame)` into the node's
//!   **bounded** inbound queue; when the queue is full the connection's
//!   read interest is switched off (per-peer read throttling), so a
//!   flooding peer backpressures into its own socket instead of growing
//!   this node's memory.
//! * **Writes** drain a bounded per-peer outbound queue
//!   ([`TcpPeer`]) when the socket is writable; [`TcpNode::send`] only
//!   enqueues and wakes the loop. A slow peer fills its queue and
//!   further sends fail (`false`) instead of buffering without limit.
//! * **Lifecycle**: a new connection is invisible until the 8-byte hello
//!   handshake completes, which must happen within a deadline — a client
//!   that connects and goes silent is reaped and can never stall the
//!   accept path (accepts are just another readiness event). Shutdown
//!   closes every socket and joins the loop thread; no thread or fd
//!   outlives [`TcpNode::shutdown`].
//!
//! ## Peer identity and duplicate resolution
//!
//! On connect, a node sends an 8-byte hello with its address; the
//! acceptor replies with its own. (In the paper the channel is
//! authenticated by MbedTLS; the hello models the session binding —
//! protocol-level signatures provide the actual evidence.) Registry
//! entries are **generation-tagged**: a dying connection only removes
//! the entry it itself installed, so a stale death can never evict a
//! fresh reconnect's entry. When a handshake completes for a peer that
//! already has an entry, resolution is deterministic:
//!
//! * same direction (a reconnect) — the **newest** connection wins and
//!   the old one is closed;
//! * opposite directions (simultaneous connect) — the connection
//!   **initiated by the higher address** wins, so both ends keep the
//!   same physical connection.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use parking_lot::Mutex;

use crate::conn::{Conn, ConnPhase, FlushOutcome};
use crate::frame;
use crate::poll::{Poller, Waker, EPOLLIN, EPOLLOUT};

pub use crate::conn::TcpPeer;

/// Tuning knobs for a [`TcpNode`]. `Default` matches production use;
/// tests shrink the timeouts and queue bounds to exercise the edges.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// How long a connection may take to complete the hello handshake
    /// before it is reaped (covers connect-and-go-silent clients).
    pub handshake_timeout: Duration,
    /// Upper bound for the blocking part of [`TcpNode::connect`] (the
    /// TCP three-way handshake; the hello exchange is asynchronous).
    pub connect_timeout: Duration,
    /// Capacity (in frames) of the shared inbound queue; when full,
    /// read interest is dropped per connection until it drains.
    pub inbound_capacity: usize,
    /// Per-peer outbound queue bound in bytes; sends beyond it fail.
    /// One chunk is always admitted into an empty queue, so any single
    /// legal frame fits regardless of this bound.
    pub max_outbound_bytes: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            handshake_timeout: Duration::from_secs(3),
            connect_timeout: Duration::from_secs(5),
            inbound_capacity: 4096,
            max_outbound_bytes: frame::MAX_FRAME as usize + 8 * 1024 * 1024,
        }
    }
}

/// Requests from the node API to its event loop.
enum Cmd {
    /// Adopt an already-connected outbound stream (hello not yet sent).
    Connect(TcpStream),
    /// Close everything and exit the loop.
    Shutdown,
}

/// A peer's registry entry: the outbound handle plus the metadata
/// duplicate resolution and generation-checked removal need.
struct PeerEntry {
    handle: Arc<TcpPeer>,
    generation: u64,
    initiated_here: bool,
}

#[derive(Default)]
struct Registry {
    entries: Mutex<HashMap<u64, PeerEntry>>,
}

/// A TCP node: listener + connections, all owned by one event loop.
pub struct TcpNode {
    address: u64,
    local_addr: SocketAddr,
    /// Incoming `(peer address, frame)` pairs from all connections.
    /// Bounded: see [`TcpConfig::inbound_capacity`].
    pub inbound: Receiver<(u64, Bytes)>,
    registry: Arc<Registry>,
    cmd_tx: Sender<Cmd>,
    dirty_tx: Sender<u64>,
    waker: Arc<Waker>,
    shutting_down: Arc<AtomicBool>,
    loop_thread: Mutex<Option<JoinHandle<()>>>,
    live_threads: Arc<AtomicUsize>,
    cfg: TcpConfig,
}

impl TcpNode {
    /// Bind a listener and start the event loop, with default tuning.
    pub fn listen(address: u64, bind: &str) -> io::Result<Arc<TcpNode>> {
        Self::listen_with(address, bind, TcpConfig::default())
    }

    /// Bind a listener and start the event loop with explicit tuning.
    pub fn listen_with(address: u64, bind: &str, cfg: TcpConfig) -> io::Result<Arc<TcpNode>> {
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let (inbound_tx, inbound) = bounded(cfg.inbound_capacity);
        let (cmd_tx, cmd_rx) = unbounded();
        let (dirty_tx, dirty_rx) = unbounded();
        let waker = Arc::new(Waker::new()?);
        let registry = Arc::new(Registry::default());
        let shutting_down = Arc::new(AtomicBool::new(false));
        let live_threads = Arc::new(AtomicUsize::new(0));

        let mut event_loop = EventLoop {
            address,
            cfg: cfg.clone(),
            poller: Poller::new()?,
            waker: Arc::clone(&waker),
            listener,
            conns: HashMap::new(),
            cmd_rx,
            dirty_rx,
            inbound_tx,
            registry: Arc::clone(&registry),
            shutting_down: Arc::clone(&shutting_down),
            next_token: FIRST_CONN_TOKEN,
            next_generation: 0,
            handshaking: 0,
            throttled: 0,
        };

        live_threads.fetch_add(1, Ordering::SeqCst);
        let gauge = Arc::clone(&live_threads);
        let loop_thread = std::thread::Builder::new()
            .name(format!("tcp-loop-{address}"))
            .spawn(move || {
                // Decrement on every exit path, panics included.
                struct Gauge(Arc<AtomicUsize>);
                impl Drop for Gauge {
                    fn drop(&mut self) {
                        self.0.fetch_sub(1, Ordering::SeqCst);
                    }
                }
                let _gauge = Gauge(gauge);
                event_loop.run();
            })
            .inspect_err(|_| {
                live_threads.fetch_sub(1, Ordering::SeqCst);
            })?;

        Ok(Arc::new(TcpNode {
            address,
            local_addr,
            inbound,
            registry,
            cmd_tx,
            dirty_tx,
            waker,
            shutting_down,
            loop_thread: Mutex::new(Some(loop_thread)),
            live_threads,
            cfg,
        }))
    }

    /// The socket address we listen on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This node's logical address.
    pub fn address(&self) -> u64 {
        self.address
    }

    /// Connect out to a peer's listener. Blocks only for the TCP
    /// handshake (bounded by [`TcpConfig::connect_timeout`]); the hello
    /// exchange happens asynchronously on the event loop with its own
    /// deadline, and the peer appears in [`connected_peers`]
    /// (and becomes sendable) once it completes.
    ///
    /// [`connected_peers`]: TcpNode::connected_peers
    pub fn connect(&self, peer_addr: &SocketAddr) -> io::Result<()> {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "node is shut down"));
        }
        let stream = TcpStream::connect_timeout(peer_addr, self.cfg.connect_timeout)?;
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        self.cmd_tx
            .send(Cmd::Connect(stream))
            .map_err(|_| io::Error::new(io::ErrorKind::NotConnected, "event loop gone"))?;
        self.waker.wake();
        Ok(())
    }

    /// Queue a frame to a connected peer and wake the event loop.
    /// Returns `false` when the peer is not connected or its bounded
    /// outbound queue is full (backpressure — the protocol layer treats
    /// it like any other lost message and retries by its own rules).
    pub fn send(&self, peer: u64, payload: &[u8]) -> bool {
        let handle = self.registry.entries.lock().get(&peer).map(|e| Arc::clone(&e.handle));
        let Some(handle) = handle else {
            return false;
        };
        let mut buf = Vec::with_capacity(frame::HEADER_LEN + payload.len());
        frame::encode(payload, &mut buf);
        if !handle.enqueue(Bytes::from(buf)) {
            return false;
        }
        let _ = self.dirty_tx.send(handle.token());
        self.waker.wake();
        true
    }

    /// Peers with a completed handshake.
    pub fn connected_peers(&self) -> Vec<u64> {
        self.registry.entries.lock().keys().copied().collect()
    }

    /// The outbound handle for a connected peer (introspection: queue
    /// depth, liveness).
    pub fn peer_handle(&self, peer: u64) -> Option<Arc<TcpPeer>> {
        self.registry.entries.lock().get(&peer).map(|e| Arc::clone(&e.handle))
    }

    /// Close every connection, stop accepting, and join the event loop.
    /// Idempotent; after it returns no transport thread or socket of
    /// this node remains.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        let _ = self.cmd_tx.send(Cmd::Shutdown);
        self.waker.wake();
        let handle = self.loop_thread.lock().take();
        if let Some(h) = handle {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
        // The loop clears these on exit; repeat for the join-skipped
        // (re-entrant) path.
        self.registry.entries.lock().clear();
    }

    /// Transport threads currently alive for this node (the event
    /// loop). 0 after a completed [`shutdown`](TcpNode::shutdown).
    pub fn live_transport_threads(&self) -> usize {
        self.live_threads.load(Ordering::SeqCst)
    }

    /// The thread gauge itself, for leak tests that outlive the node.
    #[doc(hidden)]
    pub fn thread_gauge(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.live_threads)
    }
}

impl Drop for TcpNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Chunks a connection may read per readiness event before yielding to
/// other connections (level-triggered epoll re-reports leftovers).
const READ_BUDGET: usize = 8;

/// Read chunk size; also the per-step allocation bound on the read path.
const READ_CHUNK: usize = 64 * 1024;

/// Outcome of resolving a completed handshake against the registry.
enum Resolution {
    /// Entry installed at this generation.
    Inserted(u64),
    /// Entry installed; the superseded connection must be closed.
    Replaced { old_token: u64, generation: u64 },
    /// An existing connection keeps the peer; close the new one.
    Rejected,
}

struct EventLoop {
    address: u64,
    cfg: TcpConfig,
    poller: Poller,
    waker: Arc<Waker>,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    cmd_rx: Receiver<Cmd>,
    dirty_rx: Receiver<u64>,
    inbound_tx: Sender<(u64, Bytes)>,
    registry: Arc<Registry>,
    shutting_down: Arc<AtomicBool>,
    next_token: u64,
    next_generation: u64,
    /// Connections still in the hello handshake (deadline scans run
    /// only while this is non-zero).
    handshaking: usize,
    /// Connections holding a frame the full inbound queue refused
    /// (retry scans run only while this is non-zero).
    throttled: usize,
}

impl EventLoop {
    fn run(&mut self) {
        if self.poller.add(self.listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN).is_err()
            || self.poller.add(self.waker.raw_fd(), TOKEN_WAKER, EPOLLIN).is_err()
        {
            return;
        }
        let mut events = Vec::new();
        let mut chunk = vec![0u8; READ_CHUNK];
        loop {
            events.clear();
            if self.poller.wait(&mut events, self.poll_timeout_ms()).is_err() {
                break;
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.waker.drain(),
                    token => {
                        if ev.readable() {
                            self.conn_readable(token, &mut chunk);
                        }
                        if ev.writable() {
                            self.flush_conn(token);
                        }
                    }
                }
            }
            if self.drain_commands() || self.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            self.drain_dirty();
            self.retry_throttled();
            self.expire_handshakes();
        }
        self.cleanup();
    }

    fn poll_timeout_ms(&self) -> i32 {
        if self.throttled > 0 {
            // A frame is parked waiting for inbound-queue room; retry
            // soon (the consumer has no way to signal the loop).
            5
        } else if self.handshaking > 0 {
            // Bound the latency of handshake-deadline enforcement.
            25
        } else {
            500
        }
    }

    fn alloc_token(&mut self) -> u64 {
        let t = self.next_token;
        self.next_token += 1;
        t
    }

    /// Track a brand-new connection (either direction).
    fn install_conn(&mut self, stream: TcpStream, initiated_here: bool) {
        let token = self.alloc_token();
        let deadline = Instant::now() + self.cfg.handshake_timeout;
        let conn =
            Conn::new(stream, token, initiated_here, deadline, self.cfg.max_outbound_bytes);
        if self.poller.add(conn.stream.as_raw_fd(), token, EPOLLIN).is_err() {
            let _ = conn.stream.shutdown(Shutdown::Both);
            return;
        }
        self.handshaking += 1;
        self.conns.insert(token, conn);
        if initiated_here {
            // Open with our hello; the flush registers write interest
            // if the socket buffer is somehow already full.
            let hello = Bytes::copy_from_slice(&self.address.to_le_bytes());
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.interest = EPOLLIN;
                conn.handle.enqueue(hello);
            }
            self.flush_conn(token);
        } else if let Some(conn) = self.conns.get_mut(&token) {
            conn.interest = EPOLLIN;
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.install_conn(stream, false);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept failures (EMFILE, aborted
                // connections): drop this readiness round; the
                // level-triggered poller will re-report pending
                // connections.
                Err(_) => break,
            }
        }
    }

    /// Drain the command queue. Returns true on shutdown.
    fn drain_commands(&mut self) -> bool {
        while let Ok(cmd) = self.cmd_rx.try_recv() {
            match cmd {
                Cmd::Connect(stream) => self.install_conn(stream, true),
                Cmd::Shutdown => return true,
            }
        }
        false
    }

    fn drain_dirty(&mut self) {
        while let Ok(token) = self.dirty_rx.try_recv() {
            self.flush_conn(token);
        }
    }

    fn conn_readable(&mut self, token: u64, chunk: &mut [u8]) {
        let mut completed: Option<u64> = None;
        let mut failed = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.pending.is_some() {
                // Throttled: read interest is off; a stale readiness
                // event may still race in. Leave the socket alone.
                return;
            }
            let mut budget = READ_BUDGET;
            while budget > 0 {
                budget -= 1;
                match conn.read_chunk(chunk) {
                    Ok(Some(n)) => {
                        let mut start = 0;
                        if completed.is_none() {
                            if let ConnPhase::AwaitHello { .. } = conn.phase {
                                let (peer, consumed) = conn.feed_hello(&chunk[..n]);
                                start = consumed;
                                completed = peer;
                            }
                        }
                        // Bytes behind the hello (pipelined frames) and
                        // everything after handshake go to reassembly.
                        conn.assembler.extend(&chunk[start..n]);
                    }
                    Ok(None) => break,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if let Some(peer) = completed {
            if !self.complete_handshake(token, peer) {
                return; // rejected duplicate: connection closed
            }
        }
        if failed {
            self.close_conn(token);
            return;
        }
        self.deliver_frames(token);
    }

    /// Resolve a completed hello against the registry and activate the
    /// connection. Returns false when the connection lost to an
    /// existing one and was closed.
    fn complete_handshake(&mut self, token: u64, peer: u64) -> bool {
        let (initiated_here, handle) = {
            let Some(conn) = self.conns.get(&token) else {
                return false;
            };
            (conn.initiated_here, Arc::clone(&conn.handle))
        };
        if !initiated_here {
            // Accepted side replies with its own hello.
            handle.enqueue(Bytes::copy_from_slice(&self.address.to_le_bytes()));
        }
        let resolution = {
            let mut entries = self.registry.entries.lock();
            match entries.get(&peer) {
                None => {
                    self.next_generation += 1;
                    let generation = self.next_generation;
                    entries.insert(
                        peer,
                        PeerEntry { handle, generation, initiated_here },
                    );
                    Resolution::Inserted(generation)
                }
                Some(existing) => {
                    // Same direction: a reconnect — newest wins. Opposite
                    // directions: simultaneous connect — the connection
                    // initiated by the higher address wins, so both ends
                    // deterministically keep the same physical one.
                    let new_wins = if existing.initiated_here == initiated_here {
                        true
                    } else {
                        let new_initiator = if initiated_here { self.address } else { peer };
                        new_initiator == self.address.max(peer)
                    };
                    if new_wins {
                        let old_token = existing.handle.token();
                        self.next_generation += 1;
                        let generation = self.next_generation;
                        entries.insert(
                            peer,
                            PeerEntry { handle, generation, initiated_here },
                        );
                        Resolution::Replaced { old_token, generation }
                    } else {
                        Resolution::Rejected
                    }
                }
            }
        };
        let activate = |this: &mut Self, generation: u64| {
            if let Some(conn) = this.conns.get_mut(&token) {
                conn.phase = ConnPhase::Active { peer, generation };
            }
            this.handshaking -= 1;
        };
        match resolution {
            Resolution::Inserted(generation) => {
                activate(self, generation);
                self.flush_conn(token);
                true
            }
            Resolution::Replaced { old_token, generation } => {
                activate(self, generation);
                // The superseded connection's registry entry is already
                // overwritten; generation-checked removal in close_conn
                // leaves the fresh entry alone.
                self.close_conn(old_token);
                self.flush_conn(token);
                true
            }
            Resolution::Rejected => {
                self.close_conn(token);
                false
            }
        }
    }

    /// Move parsed frames into the bounded inbound queue, throttling
    /// reads when it is full, then recompute poll interest.
    fn deliver_frames(&mut self, token: u64) {
        let mut close = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let Some(peer) = conn.peer() else {
                // Handshake incomplete: frames stay buffered until it
                // resolves (delivery re-runs then).
                return;
            };
            // Retry a frame parked by a previously-full queue first.
            if let Some(parked) = conn.pending.take() {
                match self.inbound_tx.try_send(parked) {
                    Ok(()) => self.throttled -= 1,
                    Err(TrySendError::Full(parked)) => {
                        conn.pending = Some(parked);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        self.throttled -= 1;
                        close = true;
                    }
                }
            }
            while !close && conn.pending.is_none() {
                match conn.assembler.next_frame() {
                    Ok(Some(payload)) => match self.inbound_tx.try_send((peer, payload)) {
                        Ok(()) => {}
                        Err(TrySendError::Full(parked)) => {
                            conn.pending = Some(parked);
                            self.throttled += 1;
                        }
                        Err(TrySendError::Disconnected(_)) => close = true,
                    },
                    Ok(None) => break,
                    // Oversized prefix: hostile or corrupt peer.
                    Err(_) => close = true,
                }
            }
        }
        if close {
            self.close_conn(token);
        } else {
            self.update_interest(token);
        }
    }

    /// Write queued bytes; manage write interest; close on write error.
    fn flush_conn(&mut self, token: u64) {
        let result = match self.conns.get_mut(&token) {
            Some(conn) => conn.flush(),
            None => return,
        };
        match result {
            Ok(FlushOutcome::Drained) | Ok(FlushOutcome::WouldBlock) => {
                self.update_interest(token)
            }
            Err(_) => self.close_conn(token),
        }
    }

    /// Reconcile a connection's epoll interest with its state: read
    /// unless a frame is parked (throttled), write while the outbound
    /// queue is non-empty.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut want = 0;
        if conn.pending.is_none() {
            want |= EPOLLIN;
        }
        if conn.handle.queued_bytes() > 0 {
            want |= EPOLLOUT;
        }
        if want != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_ok()
        {
            conn.interest = want;
        }
    }

    /// Retry parked frames (the consumer drained the queue, or will
    /// soon; the loop polls at a short interval while any are parked).
    fn retry_throttled(&mut self) {
        if self.throttled == 0 {
            return;
        }
        let parked: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.pending.is_some())
            .map(|(t, _)| *t)
            .collect();
        for token in parked {
            self.deliver_frames(token);
        }
    }

    /// Reap connections that failed to complete the hello in time.
    fn expire_handshakes(&mut self) {
        if self.handshaking == 0 {
            return;
        }
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.phase, ConnPhase::AwaitHello { .. }) && c.deadline <= now)
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            self.close_conn(token);
        }
    }

    /// Tear down one connection: close the socket, release the outbound
    /// queue, and remove the registry entry **only if this connection
    /// installed it** (generation check — a stale death never evicts a
    /// fresh reconnect).
    fn close_conn(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if let Some(parked) = conn.pending.take() {
            self.throttled -= 1;
            // Best effort: the frame arrived in full before the close.
            let _ = self.inbound_tx.try_send(parked);
        }
        match conn.phase {
            ConnPhase::AwaitHello { .. } => self.handshaking -= 1,
            ConnPhase::Active { peer, generation } => {
                let mut entries = self.registry.entries.lock();
                if entries.get(&peer).is_some_and(|e| e.generation == generation) {
                    entries.remove(&peer);
                }
            }
        }
        conn.handle.mark_closed();
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
    }

    /// Shutdown path: close every connection and clear the registry.
    /// Dropping the loop afterwards closes the listener, waker
    /// registration and inbound sender.
    fn cleanup(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
        self.registry.entries.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wait_for<F: Fn() -> bool>(cond: F) {
        for _ in 0..500 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("condition not met in time");
    }

    #[test]
    fn frames_roundtrip_both_directions() {
        let a = TcpNode::listen(1, "127.0.0.1:0").unwrap();
        let b = TcpNode::listen(2, "127.0.0.1:0").unwrap();
        b.connect(&a.local_addr()).unwrap();
        wait_for(|| a.connected_peers().contains(&2) && b.connected_peers().contains(&1));

        assert!(b.send(1, b"hello from b"));
        let (from, frame) = a.inbound.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(from, 2);
        assert_eq!(&frame[..], b"hello from b");

        assert!(a.send(2, b"hello from a"));
        let (from, frame) = b.inbound.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(from, 1);
        assert_eq!(&frame[..], b"hello from a");
    }

    #[test]
    fn large_and_empty_frames() {
        let a = TcpNode::listen(11, "127.0.0.1:0").unwrap();
        let b = TcpNode::listen(12, "127.0.0.1:0").unwrap();
        b.connect(&a.local_addr()).unwrap();
        wait_for(|| a.connected_peers().contains(&12));

        let big = vec![0xAB; 1 << 20];
        assert!(b.send(11, &big));
        assert!(b.send(11, b""));
        let (_, frame) = a.inbound.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(frame.len(), 1 << 20);
        let (_, frame) = a.inbound.recv_timeout(Duration::from_secs(2)).unwrap();
        assert!(frame.is_empty());
    }

    #[test]
    fn send_to_unknown_peer_fails_cleanly() {
        let a = TcpNode::listen(21, "127.0.0.1:0").unwrap();
        assert!(!a.send(99, b"nope"));
    }

    #[test]
    fn shutdown_stops_node() {
        let a = TcpNode::listen(31, "127.0.0.1:0").unwrap();
        let b = TcpNode::listen(32, "127.0.0.1:0").unwrap();
        b.connect(&a.local_addr()).unwrap();
        wait_for(|| a.connected_peers().contains(&32));
        a.shutdown();
        wait_for(|| a.connected_peers().is_empty());
    }
}
