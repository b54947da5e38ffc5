//! Regression tests for the event-driven TCP runtime.
//!
//! Each test pins one of the bugs the runtime rewrite fixed in the
//! thread-per-connection transport (all were failing-before):
//!
//! * a client that connects and sends nothing used to block the accept
//!   thread in `read_exact` and freeze all future accepts;
//! * a stale dying reader used to unconditionally `remove` its peer's
//!   registry entry, evicting a *fresh* reconnect's entry, and the
//!   replaced connection's write half leaked;
//! * `connect()` used to block forever awaiting the hello reply, and
//!   `Drop`/`shutdown` left reader threads blocked in `read_frame`;
//! * the unbounded inbound channel let one fast peer grow node memory
//!   without limit.
//!
//! Plus event-loop mechanics on live sockets: one-byte-trickle frame
//! reassembly, interleaved writes under write-backpressure, and hostile
//! length prefixes.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ia_ccf_net::frame;
use ia_ccf_net::tcp::{TcpConfig, TcpNode};

fn wait_for<F: Fn() -> bool>(what: &str, cond: F) {
    for _ in 0..1000 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("condition not met in time: {what}");
}

/// A raw framed client speaking the wire protocol by hand: 8-byte hello,
/// then length-prefixed frames over a blocking socket.
struct RawClient {
    stream: TcpStream,
    scratch: Vec<u8>,
}

impl RawClient {
    fn connect(node: &TcpNode, address: u64) -> RawClient {
        let mut stream = TcpStream::connect(node.local_addr()).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream.write_all(&address.to_le_bytes()).expect("hello");
        // Consume the node's hello reply so later frame reads start
        // clean.
        let mut reply = [0u8; 8];
        stream.read_exact(&mut reply).expect("hello reply");
        assert_eq!(u64::from_le_bytes(reply), node.address());
        RawClient { stream, scratch: Vec::new() }
    }

    fn send(&mut self, payload: &[u8]) {
        frame::write_frame(&mut self.stream, payload, &mut self.scratch).expect("send frame");
    }

    fn recv(&mut self) -> Vec<u8> {
        let mut payload = Vec::new();
        frame::read_frame(&mut self.stream, &mut payload).expect("read frame");
        payload
    }
}

// ---------------------------------------------------------------------
// Bug 1: blocking accept — a silent connector must not stall accepts.
// ---------------------------------------------------------------------

#[test]
fn silent_connector_does_not_block_other_accepts() {
    let cfg = TcpConfig { handshake_timeout: Duration::from_millis(300), ..TcpConfig::default() };
    let a = TcpNode::listen_with(100, "127.0.0.1:0", cfg).unwrap();

    // A client that connects and sends nothing — with the seed's
    // blocking `adopt` this parked the accept thread forever.
    let mut silent = TcpStream::connect(a.local_addr()).unwrap();

    // A real peer must still be able to connect and complete.
    let b = TcpNode::listen(101, "127.0.0.1:0").unwrap();
    b.connect(&a.local_addr()).unwrap();
    wait_for("peer connects past silent socket", || a.connected_peers().contains(&101));
    assert!(b.send(100, b"still accepting"));
    let (from, got) = a.inbound.recv_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!((from, &got[..]), (101, &b"still accepting"[..]));

    // The silent connection is reaped at its handshake deadline: the
    // node closes it and we observe EOF.
    silent.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 1];
    let t0 = Instant::now();
    let n = silent.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "silent connection must be closed by the node");
    assert!(t0.elapsed() < Duration::from_secs(4), "reaped by deadline, not read timeout");
    assert!(!a.connected_peers().contains(&0), "silent socket never entered the registry");
}

#[test]
fn connect_to_silent_server_returns_and_reaps() {
    // A "server" that accepts but never sends its hello reply: the
    // seed's `connect` blocked forever in `read_exact` here.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server_addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        // Hold the socket open, saying nothing, until the client gives
        // up; report whether we observed its close (EOF).
        let mut buf = [0u8; 16];
        let mut stream = stream;
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        loop {
            match stream.read(&mut buf) {
                Ok(0) => return true, // client closed
                Ok(_) => {}           // the client's hello bytes
                Err(_) => return false,
            }
        }
    });

    let cfg = TcpConfig { handshake_timeout: Duration::from_millis(300), ..TcpConfig::default() };
    let node = TcpNode::listen_with(200, "127.0.0.1:0", cfg).unwrap();
    let t0 = Instant::now();
    node.connect(&server_addr).unwrap();
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "connect must not block on the hello exchange"
    );
    // The peer never completes the handshake, so it never appears...
    std::thread::sleep(Duration::from_millis(100));
    assert!(node.connected_peers().is_empty());
    // ...and the connection is reaped at the deadline (the silent
    // server sees EOF rather than waiting out its read timeout).
    assert!(server.join().unwrap(), "node must close the timed-out outbound connection");
}

// ---------------------------------------------------------------------
// Bug 2: peer-registry clobbering on reconnect.
// ---------------------------------------------------------------------

#[test]
fn stale_connection_death_does_not_evict_fresh_reconnect() {
    let node = TcpNode::listen(300, "127.0.0.1:0").unwrap();

    // Old connection from peer 7 (e.g. a crashed process whose socket
    // lingers)...
    let old = RawClient::connect(&node, 7);
    wait_for("first handshake", || node.connected_peers().contains(&7));

    // ...then peer 7 reconnects (same direction ⇒ newest wins).
    let mut fresh = RawClient::connect(&node, 7);
    // The node replaces the entry and closes the old socket.
    let mut old_stream = old.stream;
    old_stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 8];
    let n = old_stream.read(&mut buf).unwrap_or(0);
    assert_eq!(n, 0, "superseded connection must be closed (write half not leaked)");

    // The old connection's death must NOT have evicted the fresh
    // entry (the seed's reader did `peers.remove(&peer)`
    // unconditionally). Traffic flows over the fresh socket.
    wait_for("entry survives stale death", || node.connected_peers().contains(&7));
    assert!(node.send(7, b"to the fresh connection"));
    assert_eq!(fresh.recv(), b"to the fresh connection");

    // And inbound still attributes to peer 7.
    fresh.send(b"from the fresh connection");
    let (from, got) = node.inbound.recv_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!((from, &got[..]), (7, &b"from the fresh connection"[..]));
}

#[test]
fn reconnect_after_crash_delivers_both_ways() {
    let a = TcpNode::listen(400, "127.0.0.1:0").unwrap();

    // First incarnation of peer 401 connects, then "crashes" (shutdown
    // closes its sockets like process death would).
    let b1 = TcpNode::listen(401, "127.0.0.1:0").unwrap();
    b1.connect(&a.local_addr()).unwrap();
    wait_for("first incarnation up", || a.connected_peers().contains(&401));
    b1.shutdown();

    // Second incarnation reconnects under the same address.
    let b2 = TcpNode::listen(401, "127.0.0.1:0").unwrap();
    b2.connect(&a.local_addr()).unwrap();
    wait_for("reconnect completes", || {
        a.connected_peers().contains(&401) && b2.connected_peers().contains(&400)
    });

    assert!(b2.send(400, b"reborn"));
    let (from, got) = a.inbound.recv_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!((from, &got[..]), (401, &b"reborn"[..]));
    wait_for("a can send to reborn peer", || a.send(401, b"welcome back"));
    let (from, got) = b2.inbound.recv_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!((from, &got[..]), (400, &b"welcome back"[..]));
}

#[test]
fn simultaneous_connects_resolve_deterministically() {
    let a = TcpNode::listen(500, "127.0.0.1:0").unwrap();
    let b = TcpNode::listen(501, "127.0.0.1:0").unwrap();

    // Both sides dial at once: each node ends up with exactly one
    // usable entry for the other (the higher-address initiator's
    // connection wins on both ends).
    let (aa, bb) = (Arc::clone(&a), Arc::clone(&b));
    let (addr_a, addr_b) = (a.local_addr(), b.local_addr());
    let ha = std::thread::spawn(move || aa.connect(&addr_b));
    let hb = std::thread::spawn(move || bb.connect(&addr_a));
    ha.join().unwrap().unwrap();
    hb.join().unwrap().unwrap();

    wait_for("both registries settle", || {
        a.connected_peers() == vec![501] && b.connected_peers() == vec![500]
    });
    // Give resolution a moment to close the losing duplicate, then
    // prove the surviving connection carries traffic both ways.
    std::thread::sleep(Duration::from_millis(50));
    wait_for("a -> b", || a.send(501, b"ping"));
    let (from, got) = b.inbound.recv_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!((from, &got[..]), (500, &b"ping"[..]));
    wait_for("b -> a", || b.send(500, b"pong"));
    let (from, got) = a.inbound.recv_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!((from, &got[..]), (501, &b"pong"[..]));
}

// ---------------------------------------------------------------------
// Bug 3: shutdown/Drop leaks — no thread or socket survives shutdown.
// ---------------------------------------------------------------------

#[test]
fn shutdown_joins_event_loop_and_leaves_no_threads() {
    let a = TcpNode::listen(600, "127.0.0.1:0").unwrap();
    let b = TcpNode::listen(601, "127.0.0.1:0").unwrap();
    b.connect(&a.local_addr()).unwrap();
    wait_for("mesh up", || a.connected_peers().contains(&601));
    // Park traffic both ways so shutdown has live, mid-stream
    // connections to tear down (the seed leaked readers blocked in
    // read_frame exactly here).
    assert!(a.send(601, b"x"));
    assert!(b.send(600, b"y"));

    assert_eq!(a.live_transport_threads(), 1);
    a.shutdown();
    assert_eq!(a.live_transport_threads(), 0, "shutdown must join the event loop");
    assert!(a.connected_peers().is_empty());

    // The peer observes the closed connections and cleans up too.
    wait_for("b notices a is gone", || b.connected_peers().is_empty());
    assert_eq!(b.live_transport_threads(), 1, "b's own loop is unaffected");

    // Shutdown is idempotent.
    a.shutdown();
    assert_eq!(a.live_transport_threads(), 0);
}

#[test]
fn drop_shuts_down_without_leaking_threads() {
    let gauge;
    {
        let a = TcpNode::listen(700, "127.0.0.1:0").unwrap();
        let b = TcpNode::listen(701, "127.0.0.1:0").unwrap();
        b.connect(&a.local_addr()).unwrap();
        wait_for("mesh up", || a.connected_peers().contains(&701));
        gauge = a.thread_gauge();
        assert_eq!(gauge.load(std::sync::atomic::Ordering::SeqCst), 1);
        // `a` and `b` dropped here with live connections.
    }
    assert_eq!(
        gauge.load(std::sync::atomic::Ordering::SeqCst),
        0,
        "Drop must join the event loop, not just set a flag"
    );
}

// ---------------------------------------------------------------------
// Bug 4: unbounded inbound — a flooding peer cannot grow memory.
// ---------------------------------------------------------------------

#[test]
fn flooding_peer_is_throttled_not_buffered() {
    const CAP: usize = 4;
    const PAYLOAD: usize = 32 * 1024;
    let cfg = TcpConfig { inbound_capacity: CAP, ..TcpConfig::default() };
    let node = TcpNode::listen_with(800, "127.0.0.1:0", cfg).unwrap();

    let mut flooder = RawClient::connect(&node, 9);
    wait_for("flooder registered", || node.connected_peers().contains(&9));

    // Blast frames while the node drains nothing. With the seed's
    // unbounded channel every frame landed in node memory; now the
    // inbound queue caps at CAP frames, the loop parks one frame per
    // connection and stops reading, and TCP backpressure stalls the
    // flooder's socket.
    flooder.stream.set_write_timeout(Some(Duration::from_millis(200))).unwrap();
    let payload = vec![0xEE_u8; PAYLOAD];
    let mut sent_frames = 0usize;
    let mut stalled = false;
    for _ in 0..4096 {
        let mut chunk = Vec::new();
        frame::encode(&payload, &mut chunk);
        match flooder.stream.write_all(&chunk) {
            Ok(()) => sent_frames += 1,
            Err(_) => {
                stalled = true;
                break;
            }
        }
    }
    assert!(stalled, "flooder must hit backpressure, not stream 4096 frames into memory");
    // Everything the node can hold: CAP queued frames + 1 parked per
    // connection + one partially-assembled frame + what the two socket
    // buffers swallowed. Far below the 128 MiB the 4096-frame blast
    // would have occupied unbounded.
    assert!(
        node.inbound.len() <= CAP,
        "inbound queue past its bound: {}",
        node.inbound.len()
    );
    assert!(
        sent_frames * PAYLOAD <= 32 * 1024 * 1024,
        "flooder pushed {sent_frames} frames — backpressure engaged far too late"
    );

    // Throttling is reversible: drain the queue and the stream flows
    // again, in order, no frames lost or torn.
    let mut drained = 0usize;
    while let Ok((from, frame)) = node.inbound.recv_timeout(Duration::from_secs(2)) {
        assert_eq!(from, 9);
        assert_eq!(frame.len(), PAYLOAD);
        drained += 1;
        if drained == sent_frames {
            break;
        }
    }
    assert_eq!(drained, sent_frames, "every accepted frame is eventually delivered");
}

// ---------------------------------------------------------------------
// Event-loop mechanics on live sockets.
// ---------------------------------------------------------------------

#[test]
fn one_byte_trickle_reassembles_frames() {
    let node = TcpNode::listen(900, "127.0.0.1:0").unwrap();
    let mut client = RawClient::connect(&node, 31);
    wait_for("registered", || node.connected_peers().contains(&31));

    // Two frames, delivered one byte per write: reassembly must span
    // arbitrary read boundaries (header splits included).
    let mut wire = Vec::new();
    frame::encode(b"trickled-frame", &mut wire);
    frame::encode(&[0xA5; 257], &mut wire);
    for b in wire {
        client.stream.write_all(&[b]).unwrap();
        // A flush per byte maximizes the chance each byte is its own
        // read() on the node side.
        client.stream.set_nodelay(true).unwrap();
    }
    let (_, f1) = node.inbound.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(&f1[..], b"trickled-frame");
    let (_, f2) = node.inbound.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(&f2[..], &[0xA5; 257][..]);
}

#[test]
fn write_backpressure_preserves_frame_order_and_bounds_queue() {
    const FRAME_LEN: usize = 8 * 1024;
    const QUEUE_CAP: usize = 64 * 1024;
    let cfg = TcpConfig { max_outbound_bytes: QUEUE_CAP, ..TcpConfig::default() };
    let node = TcpNode::listen_with(1000, "127.0.0.1:0", cfg).unwrap();
    let client = RawClient::connect(&node, 41);
    wait_for("registered", || node.connected_peers().contains(&41));

    // The client does not read yet, so the node's writes hit socket
    // backpressure and queue; past the bound, send() reports failure
    // instead of buffering forever.
    let mut accepted = Vec::new();
    let mut refused = 0usize;
    for i in 0..1024u32 {
        let mut payload = vec![0u8; FRAME_LEN];
        payload[..4].copy_from_slice(&i.to_le_bytes());
        if node.send(41, &payload) {
            accepted.push(i);
        } else {
            refused += 1;
        }
    }
    assert!(refused > 0, "the outbound queue must be bounded");
    let handle = node.peer_handle(41).expect("handle");
    assert!(
        handle.queued_bytes() <= QUEUE_CAP + FRAME_LEN + frame::HEADER_LEN,
        "queued bytes past the bound: {}",
        handle.queued_bytes()
    );

    // Now drain slowly: every accepted frame arrives, intact and in
    // submission order, under write-interest-driven flushing.
    let mut stream = client.stream;
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut payload = Vec::new();
    for (k, expect) in accepted.iter().enumerate() {
        frame::read_frame(&mut stream, &mut payload).expect("read frame");
        assert_eq!(payload.len(), FRAME_LEN);
        let got = u32::from_le_bytes(payload[..4].try_into().unwrap());
        assert_eq!(got, *expect, "frame {k} out of order under backpressure");
        if k % 3 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // Queue fully drained; fresh sends work again.
    wait_for("queue drains", || handle.queued_bytes() == 0);
    assert!(node.send(41, b"after-drain"));
    frame::read_frame(&mut stream, &mut payload).unwrap();
    assert_eq!(payload, b"after-drain");
}

#[test]
fn hostile_length_prefix_closes_connection_and_node_survives() {
    let node = TcpNode::listen(1100, "127.0.0.1:0").unwrap();
    let mut evil = RawClient::connect(&node, 66);
    wait_for("registered", || node.connected_peers().contains(&66));

    // A forged over-MAX_FRAME prefix on a live socket: the node must
    // kill the connection without allocating for it.
    let hostile = (frame::MAX_FRAME + 1).to_le_bytes();
    evil.stream.write_all(&hostile).unwrap();
    evil.stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 1];
    assert_eq!(evil.stream.read(&mut buf).unwrap_or(0), 0, "hostile peer must be cut off");
    wait_for("evicted from registry", || !node.connected_peers().contains(&66));

    // The node is unharmed: a well-behaved peer connects and chats.
    let mut good = RawClient::connect(&node, 67);
    wait_for("fresh peer joins", || node.connected_peers().contains(&67));
    good.send(b"normal traffic");
    let (from, got) = node.inbound.recv_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!((from, &got[..]), (67, &b"normal traffic"[..]));
}

#[test]
fn interleaved_bidirectional_traffic_under_load() {
    // Many peers, partial writes, node responses: a smoke of the whole
    // loop under concurrency. Each peer sends 20 frames; the node
    // echoes each back; everything arrives intact.
    let node = TcpNode::listen(1200, "127.0.0.1:0").unwrap();
    let node2 = Arc::clone(&node);
    let echo = std::thread::spawn(move || {
        let mut echoed = 0usize;
        while echoed < 8 * 20 {
            match node2.inbound.recv_timeout(Duration::from_secs(5)) {
                Ok((peer, frame)) => {
                    while !node2.send(peer, &frame) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    echoed += 1;
                }
                Err(_) => break,
            }
        }
        echoed
    });

    let clients: Vec<_> = (0..8u64)
        .map(|i| {
            let addr = node.local_addr();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(&(2000 + i).to_le_bytes()).unwrap();
                let mut reply = [0u8; 8];
                stream.read_exact(&mut reply).unwrap();
                let mut scratch = Vec::new();
                let mut payload = Vec::new();
                for k in 0..20u32 {
                    let msg = format!("peer-{i}-frame-{k}").into_bytes();
                    frame::write_frame(&mut stream, &msg, &mut scratch).unwrap();
                    frame::read_frame(&mut stream, &mut payload).unwrap();
                    assert_eq!(payload, msg, "echo mismatch for peer {i} frame {k}");
                }
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    assert_eq!(echo.join().unwrap(), 8 * 20);
}

// ---------------------------------------------------------------------
// Scale: connections cost sockets, not threads.
// ---------------------------------------------------------------------

#[test]
fn hundreds_of_framed_connections_share_one_event_loop() {
    const CONNS: u64 = 300;
    let node = TcpNode::listen(1300, "127.0.0.1:0").unwrap();
    let peer = TcpNode::listen(1301, "127.0.0.1:0").unwrap();
    peer.connect(&node.local_addr()).unwrap();
    wait_for("peer mesh up", || node.connected_peers().contains(&1301));

    // 300 raw clients complete the hello and stay open, all at once.
    let mut clients: Vec<RawClient> = (0..CONNS)
        .map(|i| {
            let client = RawClient::connect(&node, 5000 + i);
            assert_eq!(node.live_transport_threads(), 1, "a connection must not cost a thread");
            client
        })
        .collect();
    wait_for("every connection registered", || {
        node.connected_peers().len() as u64 == CONNS + 1
    });

    // Every one of them is live: a frame from each reaches the node.
    for (i, client) in clients.iter_mut().enumerate() {
        client.send(&(i as u64).to_le_bytes());
    }
    let mut heard = std::collections::HashSet::new();
    while (heard.len() as u64) < CONNS {
        let (from, got) = node.inbound.recv_timeout(Duration::from_secs(5)).expect("client frame");
        assert_eq!(&got[..], &(from - 5000).to_le_bytes()[..]);
        heard.insert(from);
    }

    // A real peer node still gets a frame round-trip through the crowd.
    assert!(peer.send(1300, b"ping"));
    let (from, got) = node.inbound.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!((from, &got[..]), (1301, &b"ping"[..]));
    assert!(node.send(1301, b"pong"));
    let (from, got) = peer.inbound.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!((from, &got[..]), (1300, &b"pong"[..]));

    assert_eq!(node.connected_peers().len() as u64, CONNS + 1, "every connection still held");
    assert_eq!(node.live_transport_threads(), 1);
}
