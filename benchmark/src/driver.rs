//! The loopback-framed deterministic driver.
//!
//! One thread drives the sans-io replicas and clients through a FIFO of
//! *frames*: every message a node emits is `frame::encode_msg`-ed once,
//! queued per destination, and `ProtocolMsg::from_bytes`-decoded at the
//! receiver — the bytes a socket would carry, minus the socket. Delivery
//! is instant (no injected delay: latency is processor time only) and in
//! emission order; ticks are delivered only when the queue is empty. The
//! schedule therefore depends on nothing but the inputs, and ledgers and
//! byte counts repeat exactly. Delivery order equals
//! `ia_ccf_sim::DetCluster`'s, so framing changes nothing but cost (the
//! differential test at the bottom pins that).

use std::collections::VecDeque;
use std::rc::Rc;

use ia_ccf_client::{Client, ClientSend, FinishedTx};
use ia_ccf_core::{Input, NodeId, Output, Replica};
use ia_ccf_net::frame;
use ia_ccf_types::{ClientId, ProcId, ProtocolMsg, ReplicaId, Wire};

use crate::trace::{Name, Tracer};

/// Message classes the byte accounting distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    Request,
    PrePrepare,
    Prepare,
    Commit,
    Reply,
    ReplyX,
    Other,
}

pub const KINDS: usize = 7;

/// Rank whose `Output::Committed` events count batches: a backup that no
/// phase ever crashes.
pub const OBSERVER: usize = 1;

/// Class and batch sequence number (0 when the message carries none).
fn classify(msg: &ProtocolMsg) -> (Kind, u64) {
    match msg {
        ProtocolMsg::Request(_) => (Kind::Request, 0),
        ProtocolMsg::PrePrepare { pp, .. } => (Kind::PrePrepare, pp.seq().0),
        ProtocolMsg::Prepare(p) => (Kind::Prepare, p.seq.0),
        ProtocolMsg::Commit(c) => (Kind::Commit, c.seq.0),
        ProtocolMsg::Reply(r) => (Kind::Reply, r.seq.0),
        ProtocolMsg::ReplyX(rx) => (Kind::ReplyX, rx.core.seq.0),
        _ => (Kind::Other, 0),
    }
}

/// One framed message in flight to one destination. A broadcast shares
/// its bytes between its frames (encoded once, delivered — and decoded —
/// once per destination).
struct Frame {
    /// Destination: a replica's rank, or `n` + a client's index.
    to: usize,
    from: NodeId,
    kind: Kind,
    seq: u64,
    cause: u32,
    bytes: Rc<[u8]>,
}

/// Counts taken at the driver's boundaries. All repeat exactly for a seed.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Frames delivered, all links.
    pub frames: u64,
    /// Framed bytes delivered (header included), all links.
    pub bytes: u64,
    /// Framed bytes delivered per message class (`Kind as usize`).
    pub bytes_by_kind: [u64; KINDS],
    /// Frames delivered per destination: replicas by rank, then clients.
    pub frames_to: Vec<u64>,
    /// Tick rounds (every live node ticked once per round).
    pub tick_rounds: u64,
    /// Batches the observer replica committed, and their transactions.
    pub batches: u64,
    pub batch_txs: u64,
}

impl Counters {
    /// What was counted since `earlier` (a clone taken then).
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut d = self.clone();
        d.frames -= earlier.frames;
        d.bytes -= earlier.bytes;
        for (a, b) in d.bytes_by_kind.iter_mut().zip(&earlier.bytes_by_kind) {
            *a -= b;
        }
        for (a, b) in d.frames_to.iter_mut().zip(&earlier.frames_to) {
            *a -= b;
        }
        d.tick_rounds -= earlier.tick_rounds;
        d.batches -= earlier.batches;
        d.batch_txs -= earlier.batch_txs;
        d
    }
}

/// The cluster under the loopback-framed driver.
pub struct Net {
    /// Replicas by rank; `None` while crashed.
    replicas: Vec<Option<Replica>>,
    pub clients: Vec<Client>,
    client_ids: Vec<ClientId>,
    queue: VecDeque<Frame>,
    scratch: Vec<u8>,
    pub counters: Counters,
    pub tracer: Tracer,
    /// Frames whose bytes failed to decode (always 0; checked by the gate).
    pub decode_errors: u64,
}

impl Net {
    pub fn new(replicas: Vec<Replica>, clients: Vec<Client>) -> Self {
        let client_ids: Vec<ClientId> = clients.iter().map(Client::id).collect();
        let counters = Counters {
            frames_to: vec![0; replicas.len() + clients.len()],
            ..Counters::default()
        };
        Net {
            replicas: replicas.into_iter().map(Some).collect(),
            clients,
            client_ids,
            queue: VecDeque::new(),
            scratch: Vec::new(),
            counters,
            tracer: Tracer::new(),
            decode_errors: 0,
        }
    }

    pub fn n(&self) -> usize {
        self.replicas.len()
    }

    /// Frames queued and not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Whether destination `to` is a crashed replica.
    fn is_down(&self, to: usize) -> bool {
        self.replicas.get(to).is_some_and(Option::is_none)
    }

    /// The live replica at `rank`.
    pub fn replica(&self, rank: usize) -> &Replica {
        self.replicas[rank].as_ref().expect("replica is up")
    }

    pub fn replica_mut(&mut self, rank: usize) -> &mut Replica {
        self.replicas[rank].as_mut().expect("replica is up")
    }

    /// Live replicas, ascending rank.
    pub fn live(&self) -> impl Iterator<Item = &Replica> {
        self.replicas.iter().flatten()
    }

    /// Crash `rank`: its instance leaves the cluster (dropping it releases
    /// its files and joins its pool worker); frames to it are discarded.
    pub fn crash(&mut self, rank: usize) -> Replica {
        self.replicas[rank].take().expect("replica is up")
    }

    /// Put an instance into the (crashed) slot `rank`.
    pub fn revive(&mut self, rank: usize, replica: Replica) {
        assert!(self.replicas[rank].is_none(), "slot {rank} is occupied");
        self.replicas[rank] = Some(replica);
    }

    /// Sign and broadcast one request from client `ci`; returns its id.
    pub fn submit(&mut self, ci: usize, proc: ProcId, args: Vec<u8>) -> u64 {
        let span = self.tracer.open(Name::ClientSubmit, 0, 0);
        let req_id = self.clients[ci].submit(proc, args);
        self.tracer.close(span);
        self.pump_client(ci, span);
        req_id
    }

    /// Frame whatever client `ci` has queued to send.
    fn pump_client(&mut self, ci: usize, cause: u32) {
        let from = NodeId::Client(self.client_ids[ci]);
        for send in self.clients[ci].poll_send() {
            match send {
                ClientSend::To(to, msg) => self.enqueue(from, [to.0 as usize], &msg, cause),
                ClientSend::Broadcast(msg) => self.enqueue(from, 0..self.n(), &msg, cause),
            }
        }
    }

    /// Frame a replica's outputs (and count the observer's commits).
    pub fn route(&mut self, rank: usize, outputs: Vec<Output>, cause: u32) {
        let from = NodeId::Replica(ReplicaId(rank as u32));
        for out in outputs {
            match out {
                Output::SendReplica(to, msg) => self.enqueue(from, [to.0 as usize], &msg, cause),
                Output::BroadcastReplicas(msg) => {
                    let peers = (0..self.n()).filter(|r| *r != rank);
                    self.enqueue(from, peers, &msg, cause)
                }
                Output::SendClient(to, msg) => {
                    if let Some(ci) = self.client_ids.iter().position(|c| *c == to) {
                        self.enqueue(from, [self.n() + ci], &msg, cause)
                    }
                }
                Output::Committed { tx_count, .. } => {
                    if rank == OBSERVER {
                        self.counters.batches += 1;
                        self.counters.batch_txs += tx_count as u64;
                    }
                }
                Output::CheckpointTaken { .. }
                | Output::ConfigActivated { .. }
                | Output::Retired => {}
            }
        }
    }

    /// Encode `msg` once and queue one frame per live destination.
    fn enqueue(
        &mut self,
        from: NodeId,
        dests: impl IntoIterator<Item = usize>,
        msg: &ProtocolMsg,
        cause: u32,
    ) {
        let span = self.tracer.open(Name::WireEncode, cause, 0);
        let bytes: Rc<[u8]> = Rc::from(frame::encode_msg(msg, &mut self.scratch));
        self.tracer.close(span);
        let (kind, seq) = classify(msg);
        for to in dests {
            if self.is_down(to) {
                continue; // a crashed replica's link is down
            }
            self.queue.push_back(Frame {
                to,
                from,
                kind,
                seq,
                cause,
                bytes: Rc::clone(&bytes),
            });
        }
    }

    /// One step of the schedule: deliver the oldest frame, or — when
    /// nothing is in flight — tick every live node once. Transactions a
    /// client completes are appended to `done` as `(client, tx)`. Returns
    /// whether a frame was delivered.
    pub fn step(&mut self, done: &mut Vec<(usize, FinishedTx)>) -> bool {
        match self.queue.pop_front() {
            Some(frame) => {
                self.deliver(frame, done);
                true
            }
            None => {
                self.tick_round(done);
                false
            }
        }
    }

    fn deliver(&mut self, f: Frame, done: &mut Vec<(usize, FinishedTx)>) {
        if self.is_down(f.to) {
            return; // crashed while the frame was in flight
        }
        self.counters.frames += 1;
        self.counters.bytes += f.bytes.len() as u64;
        self.counters.bytes_by_kind[f.kind as usize] += f.bytes.len() as u64;
        self.counters.frames_to[f.to] += 1;

        let span = self.tracer.open(Name::WireDecode, f.cause, f.seq);
        let decoded = frame::decode_exact(&f.bytes)
            .map_err(|e| e.to_string())
            .and_then(|payload| ProtocolMsg::from_bytes(payload).map_err(|e| e.to_string()));
        self.tracer.close(span);
        let Ok(msg) = decoded else {
            self.decode_errors += 1;
            return;
        };

        if f.to < self.n() {
            let rank = f.to;
            let replica = self.replicas[rank].as_mut().expect("checked up");
            let name = handler_name(replica.is_primary(), f.kind);
            let span = self.tracer.open(name, f.cause, f.seq);
            let outputs = replica.handle(Input::Message { from: f.from, msg });
            self.tracer.close(span);
            self.route(rank, outputs, span);
        } else if let NodeId::Replica(from) = f.from {
            let ci = f.to - self.n();
            let span = self.tracer.open(Name::ClientOnMessage, f.cause, f.seq);
            let client = &mut self.clients[ci];
            client.on_message(from, msg);
            done.extend(client.take_completed().into_iter().map(|tx| (ci, tx)));
            self.tracer.close(span);
            self.pump_client(ci, span);
        }
    }

    /// Tick every live replica (ascending rank), then every client.
    fn tick_round(&mut self, done: &mut Vec<(usize, FinishedTx)>) {
        self.counters.tick_rounds += 1;
        for rank in 0..self.n() {
            let Some(replica) = self.replicas[rank].as_mut() else {
                continue;
            };
            let name = if replica.is_primary() {
                Name::PrimaryTick
            } else {
                Name::BackupTick
            };
            let span = self.tracer.open(name, 0, 0);
            let outputs = replica.handle(Input::Tick);
            self.tracer.close(span);
            self.route(rank, outputs, span);
        }
        for ci in 0..self.clients.len() {
            self.clients[ci].on_tick();
            done.extend(
                self.clients[ci]
                    .take_completed()
                    .into_iter()
                    .map(|tx| (ci, tx)),
            );
            self.pump_client(ci, 0);
        }
    }
}

fn handler_name(primary: bool, kind: Kind) -> Name {
    match (primary, kind) {
        (true, Kind::Request) => Name::PrimaryRequest,
        (true, Kind::Prepare) => Name::PrimaryPrepare,
        (true, Kind::Commit) => Name::PrimaryCommit,
        (true, _) => Name::PrimaryOther,
        (false, Kind::Request) => Name::BackupRequest,
        (false, Kind::PrePrepare) => Name::BackupPrePrepare,
        (false, Kind::Prepare) => Name::BackupPrepare,
        (false, Kind::Commit) => Name::BackupCommit,
        (false, _) => Name::BackupOther,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ia_ccf_client::FinishedTx;
    use ia_ccf_sim::{ClusterSpec, DetCluster};
    use ia_ccf_types::{LedgerIdx, ReplicaId, Wire};

    use super::*;
    use crate::cluster::{BankApp, Load, Spec, LOAD_ACCOUNTS};
    use crate::workload::Workload;

    static SMALL: Workload = Workload {
        name: "test_small",
        why: "differential test",
        clients: 2,
        outstanding: 8,
        batch_max: 4,
        skew_pct: 50,
        durable: false,
        fsync_interval_batches: 1,
        checkpoint_interval: 3,
        warmup_tx: 0,
        nominal_tx_per_s: 1,
        slice_granule: 1,
        audit_prefix_tx: 1,
    };

    /// `DetCluster::round` on the framed driver: drain, tick, drain.
    fn round(net: &mut Net, done: &mut Vec<(usize, FinishedTx)>) {
        while net.in_flight() > 0 {
            net.step(done);
        }
        assert!(!net.step(done), "an empty queue ticks");
        while net.in_flight() > 0 {
            net.step(done);
        }
    }

    /// Framing changes nothing but cost: the loopback-framed driver and
    /// `DetCluster`, fed the same requests on the same schedule, end with
    /// byte-identical ledgers and equal KV digests on every replica.
    #[test]
    fn framed_driver_and_det_cluster_build_identical_ledgers() {
        let spec = Spec::new(&SMALL, 7);
        let mut ops = Load::new(&spec);

        let replicas: Vec<_> = (0..4).map(|r| spec.new_replica(r, None).unwrap()).collect();
        let clients = spec.new_clients(replicas[0].gt_hash());
        let mut net = Net::new(replicas, clients);

        let det_spec = ClusterSpec::new(4, SMALL.clients, spec.params(None)).with_config(|c| {
            c.pipeline_depth = spec.genesis.pipeline_depth;
            c.checkpoint_interval = spec.genesis.checkpoint_interval;
        });
        assert_eq!(
            det_spec.genesis.digest(),
            spec.genesis.digest(),
            "same genesis"
        );
        let mut det = DetCluster::new(&det_spec, Arc::new(BankApp));

        let mut done = Vec::new();
        let mut submitted = 0usize;
        let submit = |net: &mut Net, det: &mut DetCluster, ci: usize, proc, args: Vec<u8>| {
            net.submit(ci, proc, args.clone());
            det.submit(det_spec.clients[ci].0, proc, args);
        };
        let load_args = [64u64.to_le_bytes(), 1_000i64.to_le_bytes()].concat();
        submit(&mut net, &mut det, 0, LOAD_ACCOUNTS, load_args);
        submitted += 1;
        for _window in 0..8 {
            for k in 0..SMALL.outstanding {
                let ci = k % SMALL.clients;
                let op = ops.next_op(ci);
                submit(&mut net, &mut det, ci, op.proc, op.args);
                submitted += 1;
            }
            let mut rounds = 0;
            while done.len() < submitted {
                round(&mut net, &mut done);
                rounds += 1;
                assert!(rounds < 500, "framed driver stalled");
            }
            assert!(det.run_until_finished(submitted, 500), "DetCluster stalled");
            assert_eq!(
                det.rounds, net.counters.tick_rounds,
                "same number of rounds"
            );
        }

        assert_eq!(net.decode_errors, 0);
        assert!(
            net.counters.batches > 8,
            "several batches and checkpoints were ordered"
        );
        for rank in 0..4 {
            let (a, b) = (net.replica(rank), det.replica(ReplicaId(rank as u32)));
            assert_eq!(
                a.ledger().len(),
                b.ledger().len(),
                "replica {rank}: ledger length"
            );
            let end = LedgerIdx(a.ledger().len());
            assert_eq!(
                a.ledger().encode_range(LedgerIdx(0), end),
                b.ledger().encode_range(LedgerIdx(0), end),
                "replica {rank}: ledger bytes"
            );
            assert_eq!(
                a.kv().digest(),
                b.kv().digest(),
                "replica {rank}: KV digest"
            );
        }
        // The framed bytes the driver counted are the messages' encodings.
        let request = &net.clients[0];
        assert_eq!(request.pending_count(), 0);
        let tx = &done[0].1;
        let framed = ProtocolMsg::Request(tx.request.clone()).to_bytes().len() + frame::HEADER_LEN;
        assert!(net.counters.bytes_by_kind[Kind::Request as usize] >= 4 * framed as u64);
    }

    #[test]
    fn counters_subtract_fieldwise() {
        let mut a = Counters {
            frames_to: vec![5, 7],
            ..Counters::default()
        };
        a.frames = 10;
        a.bytes = 1_000;
        a.bytes_by_kind[Kind::Reply as usize] = 400;
        a.tick_rounds = 3;
        let mut b = a.clone();
        b.frames = 4;
        b.bytes = 300;
        b.bytes_by_kind[Kind::Reply as usize] = 100;
        b.frames_to = vec![1, 2];
        b.tick_rounds = 1;
        let d = a.since(&b);
        assert_eq!((d.frames, d.bytes, d.tick_rounds), (6, 700, 2));
        assert_eq!(d.bytes_by_kind[Kind::Reply as usize], 300);
        assert_eq!(d.frames_to, vec![4, 5]);
    }
}
