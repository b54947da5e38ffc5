//! IA-CCF over real sockets: four replica threads and a client on
//! localhost TCP with length-prefixed frames, exchanging the actual wire
//! encoding under a window of outstanding requests.
//!
//! ```sh
//! cargo run --release --example tcp_cluster
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ia_ccf::core::app::CounterApp;
use ia_ccf::core::{Input, NodeId, Output, ProtocolParams};
use ia_ccf::net::TcpNode;
use ia_ccf_client::{Client, ClientSend};
use ia_ccf_sim::ClusterSpec;
use ia_ccf_types::{ClientId, ProtocolMsg, ReplicaId, Wire};

/// Transactions driven through the cluster, and how many the client keeps
/// outstanding.
const TRANSACTIONS: usize = 200;
const WINDOW: usize = 16;

fn main() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let n = spec.genesis.n();
    let stop = Arc::new(AtomicBool::new(false));

    // Bind a listener per node (replicas 0..n, client at address 1000).
    let nodes: Vec<Arc<TcpNode>> =
        (0..n as u64).map(|a| TcpNode::listen(a, "127.0.0.1:0").expect("bind")).collect();
    let client_node = TcpNode::listen(1000, "127.0.0.1:0").expect("bind");
    // Full mesh: i connects to j for i < j; the client connects to all.
    for i in 0..n {
        for j in (i + 1)..n {
            nodes[i].connect(&nodes[j].local_addr()).expect("connect");
        }
        client_node.connect(&nodes[i].local_addr()).expect("connect");
    }
    std::thread::sleep(Duration::from_millis(100)); // mesh settles
    println!("mesh up: {} replicas + 1 client over localhost TCP", n);

    // Replica threads: decode frames from the wire, run the state machine,
    // encode outputs back to frames.
    let mut handles = Vec::new();
    for (rank, node) in nodes.iter().enumerate().take(n) {
        let mut replica = spec.build_replica(rank, Arc::new(CounterApp));
        let node = Arc::clone(node);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut last_tick = Instant::now();
            // Reusable wire-encode scratch: hot-path sends do not allocate.
            let mut scratch = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                let input = match node.inbound.recv_timeout(Duration::from_millis(1)) {
                    Ok((peer, frame)) => match ProtocolMsg::from_bytes(&frame) {
                        Ok(msg) => {
                            let from = if peer < 1000 {
                                NodeId::Replica(ReplicaId(peer as u32))
                            } else {
                                NodeId::Client(ClientId(peer))
                            };
                            Input::Message { from, msg }
                        }
                        Err(_) => continue,
                    },
                    Err(_) => Input::Tick,
                };
                let mut inputs = vec![input];
                if last_tick.elapsed() >= Duration::from_millis(1) {
                    inputs.push(Input::Tick);
                    last_tick = Instant::now();
                }
                for input in inputs {
                    for out in replica.handle(input) {
                        match out {
                            Output::SendReplica(to, msg) => {
                                node.send(to.0 as u64, msg.encode_scratch(&mut scratch));
                            }
                            Output::BroadcastReplicas(msg) => {
                                let bytes = msg.encode_scratch(&mut scratch);
                                for peer in node.connected_peers() {
                                    if peer < 1000 {
                                        node.send(peer, bytes);
                                    }
                                }
                            }
                            Output::SendClient(to, msg) => {
                                node.send(to.0, msg.encode_scratch(&mut scratch));
                            }
                            _ => {}
                        }
                    }
                }
            }
            node.shutdown();
        }));
    }

    // The client keeps a window of requests outstanding through real
    // sockets: the four replica threads batch, execute and reply under
    // load, and every completion carries a receipt the client verified.
    let (client_id, client_kp) = spec.clients[0].clone();
    let gt_hash = ia_ccf::ledger::Ledger::new(spec.genesis.clone())
        .genesis_hash()
        .expect("genesis");
    let mut client = Client::new(client_id, client_kp, gt_hash, spec.genesis.clone());
    let mut scratch = Vec::new();
    let mut finished = 0usize;
    let mut submitted = 0usize;
    let t0 = Instant::now();
    while finished < TRANSACTIONS && t0.elapsed() < Duration::from_secs(30) {
        while submitted < TRANSACTIONS && submitted - finished < WINDOW {
            client.submit(CounterApp::INCR, b"tcp-counter".to_vec());
            submitted += 1;
        }
        for send in client.poll_send() {
            match send {
                ClientSend::To(r, msg) => {
                    client_node.send(r.0 as u64, msg.encode_scratch(&mut scratch));
                }
                ClientSend::Broadcast(msg) => {
                    let bytes = msg.encode_scratch(&mut scratch);
                    for peer in client_node.connected_peers() {
                        client_node.send(peer, bytes);
                    }
                }
            }
        }
        // Wait for one frame, then take whatever else has queued behind it.
        let mut next = client_node.inbound.recv_timeout(Duration::from_millis(2)).ok();
        while let Some((peer, frame)) = next {
            if let Ok(msg) = ProtocolMsg::from_bytes(&frame) {
                client.on_message(ReplicaId(peer as u32), msg);
            }
            next = client_node.inbound.try_recv().ok();
        }
        client.on_tick();
        for tx in client.take_completed() {
            finished += 1;
            let receipt = tx.receipt.expect("receipt");
            receipt.verify(&spec.genesis).expect("receipt verifies");
            if finished.is_multiple_of(50) {
                println!(
                    "{finished} committed (index {}) — receipts with {} signers verified over TCP",
                    receipt.tx_index().expect("tx receipt").0,
                    receipt.cert.signers.count(),
                );
            }
        }
    }
    let elapsed = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    client_node.shutdown();
    for h in handles {
        let _ = h.join();
    }
    assert_eq!(finished, TRANSACTIONS, "all transactions must complete over TCP");
    println!(
        "tcp_cluster complete: {TRANSACTIONS} receipts over real sockets, {WINDOW} outstanding, {} ms",
        elapsed.as_millis()
    );
}
