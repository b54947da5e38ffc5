//! The deterministic cluster.
//!
//! Single-threaded: a FIFO queue of deliveries drives replicas and clients
//! to quiescence, then a tick is delivered to every node, then the queue
//! drains again — one "round". Runs are reproducible; protocol bugs show
//! up as assertion failures rather than flaky tests, and Byzantine
//! behaviours (crash, mute, tampered apps) compose with the honest logic.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use ia_ccf_client::{Client, ClientSend, FinishedTx};
use ia_ccf_core::app::App;
use ia_ccf_core::byzantine::{ByzantineReplica, Fault};
use ia_ccf_core::{Input, NodeId, Output, Replica};
use ia_ccf_types::{ClientId, ProtocolMsg, ReplicaId, SeqNum};

use crate::scenario::ClusterSpec;

/// One in-flight delivery.
#[derive(Debug, Clone)]
enum Delivery {
    ToReplica { to: ReplicaId, from: NodeId, msg: ProtocolMsg },
    ToClient { to: ClientId, from: ReplicaId, msg: ProtocolMsg },
}

impl Delivery {
    /// `from -> to: message kind`, for the livelock report.
    fn describe(&self) -> String {
        let (from, to, msg) = match self {
            Delivery::ToReplica { to, from, msg } => (*from, NodeId::Replica(*to), msg),
            Delivery::ToClient { to, from, msg } => (NodeId::Replica(*from), NodeId::Client(*to), msg),
        };
        let msg = format!("{msg:?}");
        let kind = msg.split(|c: char| !c.is_alphanumeric()).next().unwrap_or_default();
        format!("{from:?} -> {to:?}: {kind}")
    }
}

/// Deliveries one [`DetCluster::drain`] may make. The largest drain of any
/// passing test, example or benchmark-harness test in the tree makes 320;
/// a livelocked queue reaches the bound in a few seconds.
const DRAIN_BUDGET: u64 = 100_000;
/// How many of the last deliveries a livelock report counts.
const DRAIN_TAIL: u64 = 1_000;

/// The deterministic cluster.
pub struct DetCluster {
    /// Replicas by id (wrapped for fault injection).
    pub replicas: BTreeMap<ReplicaId, ByzantineReplica>,
    /// Crashed replicas: deliveries to/from them are dropped.
    pub crashed: HashSet<ReplicaId>,
    /// Clients by id.
    pub clients: HashMap<ClientId, Client>,
    queue: VecDeque<Delivery>,
    /// Completed transactions in completion order.
    pub finished: Vec<(ClientId, FinishedTx)>,
    /// Every `Output::Retired` each replica emitted, as the replica's
    /// committed frontier after the turn that emitted it.
    pub retirements: BTreeMap<ReplicaId, Vec<SeqNum>>,
    /// Rounds executed so far.
    pub rounds: u64,
    /// Every message delivered to a client, as `(from, to, message)`, while
    /// this is `Some` (it starts `None`: nothing is recorded).
    pub client_log: Option<Vec<(ReplicaId, ClientId, ProtocolMsg)>>,
}

impl DetCluster {
    /// Build a cluster from a spec, with every replica running `app`.
    pub fn new(spec: &ClusterSpec, app: Arc<dyn App>) -> Self {
        Self::with_apps(spec, |_| Arc::clone(&app))
    }

    /// Build a cluster with a per-rank app factory (for tampered-app
    /// Byzantine scenarios).
    pub fn with_apps(spec: &ClusterSpec, mut app_for: impl FnMut(usize) -> Arc<dyn App>) -> Self {
        Self::with_replica_builder(spec, |rank| spec.build_replica(rank, app_for(rank)))
    }

    /// Build a cluster with a per-rank replica factory — for clusters
    /// whose replicas need per-rank parameters, e.g. one `data_dir` each
    /// for durable-ledger scenarios.
    pub fn with_replica_builder(
        spec: &ClusterSpec,
        mut build: impl FnMut(usize) -> Replica,
    ) -> Self {
        let mut replicas = BTreeMap::new();
        for rank in 0..spec.genesis.n() {
            let replica = build(rank);
            replicas.insert(replica.id(), ByzantineReplica::new(replica, Fault::None));
        }
        let gt_hash = replicas.values().next().expect("replicas").inner.gt_hash();
        let mut clients = HashMap::new();
        for (id, kp) in &spec.clients {
            clients.insert(*id, Client::new(*id, kp.clone(), gt_hash, spec.genesis.clone()));
        }
        DetCluster {
            replicas,
            crashed: HashSet::new(),
            clients,
            queue: VecDeque::new(),
            finished: Vec::new(),
            retirements: BTreeMap::new(),
            rounds: 0,
            client_log: None,
        }
    }

    /// Set a fault on one replica.
    pub fn set_fault(&mut self, id: ReplicaId, fault: Fault) {
        if let Some(r) = self.replicas.get_mut(&id) {
            r.fault = fault;
        }
    }

    /// Crash a replica: all its future traffic is dropped.
    pub fn crash(&mut self, id: ReplicaId) {
        self.crashed.insert(id);
    }

    /// Crash a replica and remove its instance from the cluster, returning
    /// it. Dropping the returned [`Replica`] releases its durable-ledger
    /// file handles, after which the data dir can be reopened with
    /// [`Replica::restart_from_dir`] — the crash-restart path. (A plain
    /// [`DetCluster::crash`] keeps the instance alive as a "survivor" for
    /// differential comparison.)
    pub fn crash_and_drop(&mut self, id: ReplicaId) -> Option<Replica> {
        self.crashed.insert(id);
        self.replicas.remove(&id).map(|wrapped| wrapped.inner)
    }

    /// Add a fresh (already constructed) replica — e.g. one bootstrapped
    /// from a ledger for a reconfiguration.
    pub fn add_replica(&mut self, replica: Replica) {
        self.replicas.insert(replica.id(), ByzantineReplica::new(replica, Fault::None));
    }

    /// Revive a crashed slot with `replica` (typically a fresh instance
    /// with the same identity) and start a paged state transfer from
    /// `server`: the replica requests `FetchLedgerPage`s, replays them
    /// incrementally and rejoins the protocol once its
    /// [`ia_ccf_core::SyncReport`] reports completion. Drive the cluster
    /// with [`DetCluster::round`] until then.
    pub fn recover(&mut self, replica: Replica, server: ReplicaId) {
        let id = replica.id();
        self.crashed.remove(&id);
        let mut wrapped = ByzantineReplica::new(replica, Fault::None);
        let outs = wrapped.inner.begin_ledger_sync(server);
        self.replicas.insert(id, wrapped);
        self.route_outputs(id, outs);
    }

    /// Submit a request from `client`.
    pub fn submit(&mut self, client: ClientId, proc: ia_ccf_types::ProcId, args: Vec<u8>) -> u64 {
        let req_id = self.clients.get_mut(&client).expect("client exists").submit(proc, args);
        self.pump_client(client);
        req_id
    }

    /// Inject a pre-signed request (e.g. a member-signed governance
    /// transaction) as if broadcast by `from`.
    pub fn submit_raw(&mut self, from: ClientId, request: ia_ccf_types::SignedRequest) {
        let replica_ids: Vec<ReplicaId> =
            self.replicas.keys().copied().filter(|r| !self.crashed.contains(r)).collect();
        for to in replica_ids {
            self.queue.push_back(Delivery::ToReplica {
                to,
                from: NodeId::Client(from),
                msg: ProtocolMsg::Request(request.clone()),
            });
        }
    }

    /// Route one client's queued sends into the delivery queue.
    fn pump_client(&mut self, id: ClientId) {
        let replica_ids: Vec<ReplicaId> =
            self.replicas.keys().copied().filter(|r| !self.crashed.contains(r)).collect();
        let Some(client) = self.clients.get_mut(&id) else {
            return;
        };
        for send in client.poll_send() {
            match send {
                ClientSend::To(to, msg) => {
                    self.queue.push_back(Delivery::ToReplica { to, from: NodeId::Client(id), msg })
                }
                ClientSend::Broadcast(msg) => {
                    for to in &replica_ids {
                        self.queue.push_back(Delivery::ToReplica {
                            to: *to,
                            from: NodeId::Client(id),
                            msg: msg.clone(),
                        });
                    }
                }
            }
        }
    }

    fn route_outputs(&mut self, from: ReplicaId, outputs: Vec<Output>) {
        let peer_ids: Vec<ReplicaId> = self.replicas.keys().copied().collect();
        for out in outputs {
            match out {
                Output::SendReplica(to, msg) => {
                    self.queue.push_back(Delivery::ToReplica {
                        to,
                        from: NodeId::Replica(from),
                        msg,
                    });
                }
                Output::BroadcastReplicas(msg) => {
                    for to in &peer_ids {
                        if *to != from {
                            self.queue.push_back(Delivery::ToReplica {
                                to: *to,
                                from: NodeId::Replica(from),
                                msg: msg.clone(),
                            });
                        }
                    }
                }
                Output::SendClient(to, msg) => {
                    self.queue.push_back(Delivery::ToClient { to, from, msg });
                }
                Output::Retired => {
                    let committed = self.replicas[&from].inner.committed_up_to();
                    self.retirements.entry(from).or_default().push(committed);
                }
                Output::Committed { .. }
                | Output::CheckpointTaken { .. }
                | Output::ConfigActivated { .. } => {}
            }
        }
    }

    /// Drain the delivery queue completely. A queue that is still busy
    /// after [`DRAIN_BUDGET`] deliveries is a livelock: the panic names it
    /// by the `from -> to: kind` counts of the last [`DRAIN_TAIL`].
    fn drain(&mut self) {
        let mut delivered: u64 = 0;
        let mut tail: BTreeMap<String, u64> = BTreeMap::new();
        while let Some(delivery) = self.queue.pop_front() {
            delivered += 1;
            if delivered > DRAIN_BUDGET - DRAIN_TAIL {
                *tail.entry(delivery.describe()).or_default() += 1;
            }
            assert!(
                delivered < DRAIN_BUDGET,
                "delivery queue did not quiesce in {DRAIN_BUDGET} deliveries; the last {DRAIN_TAIL}:\n{}",
                tail.iter().map(|(what, n)| format!("  {n:>5} x {what}\n")).collect::<String>()
            );
            match delivery {
                Delivery::ToReplica { to, from, msg } => {
                    if self.crashed.contains(&to) {
                        continue;
                    }
                    if let NodeId::Replica(sender) = from {
                        if self.crashed.contains(&sender) {
                            continue;
                        }
                    }
                    let Some(replica) = self.replicas.get_mut(&to) else {
                        continue;
                    };
                    let outputs = replica.handle(Input::Message { from, msg });
                    self.route_outputs(to, outputs);
                }
                Delivery::ToClient { to, from, msg } => {
                    if self.crashed.contains(&from) {
                        continue;
                    }
                    if let Some(log) = &mut self.client_log {
                        log.push((from, to, msg.clone()));
                    }
                    if let Some(client) = self.clients.get_mut(&to) {
                        client.on_message(from, msg);
                    }
                    self.pump_client(to);
                    self.collect_finished(to);
                }
            }
        }
    }

    fn collect_finished(&mut self, id: ClientId) {
        if let Some(client) = self.clients.get_mut(&id) {
            for tx in client.take_completed() {
                self.finished.push((id, tx));
            }
        }
    }

    /// One round: drain, tick every node, drain again.
    pub fn round(&mut self) {
        self.drain();
        let ids: Vec<ReplicaId> = self.replicas.keys().copied().collect();
        for id in ids {
            if self.crashed.contains(&id) {
                continue;
            }
            let outputs = self.replicas.get_mut(&id).expect("exists").handle(Input::Tick);
            self.route_outputs(id, outputs);
        }
        let client_ids: Vec<ClientId> = self.clients.keys().copied().collect();
        for id in client_ids {
            if let Some(c) = self.clients.get_mut(&id) {
                c.on_tick();
            }
            self.pump_client(id);
        }
        self.drain();
        self.rounds += 1;
    }

    /// Run rounds until `pred` holds, up to `max_rounds`. Returns whether
    /// the predicate was met.
    pub fn run_until(&mut self, max_rounds: u64, mut pred: impl FnMut(&DetCluster) -> bool) -> bool {
        for _ in 0..max_rounds {
            if pred(self) {
                return true;
            }
            self.round();
        }
        pred(self)
    }

    /// Run until `count` transactions have finished (receipts verified).
    pub fn run_until_finished(&mut self, count: usize, max_rounds: u64) -> bool {
        self.run_until(max_rounds, |c| c.finished.len() >= count)
    }

    /// Submit one transaction on an otherwise idle cluster and drive it
    /// until `client` holds its receipt and every live replica has
    /// committed it — how a test makes initial state a ledger fact (e.g.
    /// SmallBank's `LOAD_ACCOUNTS` as the ledger's first transaction). The
    /// completion is returned instead of being recorded in `finished`, so
    /// the caller's own transaction counts start at zero.
    pub fn commit_setup_tx(
        &mut self,
        client: ClientId,
        proc: ia_ccf_types::ProcId,
        args: Vec<u8>,
    ) -> FinishedTx {
        let done = self.finished.len();
        self.submit(client, proc, args);
        let settled = self.run_until(200, |c| {
            c.finished.len() > done
                && c.replicas.iter().filter(|(id, _)| !c.crashed.contains(id)).all(|(_, r)| {
                    r.inner.committed_up_to() == r.inner.prepared_up_to()
                })
        });
        assert!(settled, "setup transaction did not commit");
        self.finished.pop().expect("just finished").1
    }

    /// The highest sequence number committed on every live replica.
    pub fn min_committed(&self) -> SeqNum {
        self.replicas
            .iter()
            .filter(|(id, _)| !self.crashed.contains(id))
            .map(|(_, r)| r.inner.committed_up_to())
            .min()
            .unwrap_or(SeqNum(0))
    }

    /// Reference to a replica.
    pub fn replica(&self, id: ReplicaId) -> &Replica {
        &self.replicas.get(&id).expect("replica exists").inner
    }

    /// Assert all live replicas share identical ledgers up to the shortest
    /// committed prefix and identical KV digests when fully quiesced, and
    /// governance chains that agree on their common prefix.
    /// Suffix-aware: a checkpoint-seeded replica materializes nothing
    /// before its `base()`, so the comparison starts at the largest base
    /// among the live replicas — entries below it exist only logically
    /// there and read as absent.
    pub fn assert_ledgers_consistent(&self) {
        let live: Vec<&Replica> = self
            .replicas
            .iter()
            .filter(|(id, _)| !self.crashed.contains(id))
            .map(|(_, r)| &r.inner)
            .collect();
        let min_len =
            live.iter().map(|r| r.ledger().len()).min().expect("at least one live replica");
        let start =
            live.iter().map(|r| r.ledger().base()).max().expect("at least one live replica");
        let reference = &live[0];
        for other in &live[1..] {
            for i in start..min_len {
                let a = reference.ledger().entry(ia_ccf_types::LedgerIdx(i));
                let b = other.ledger().entry(ia_ccf_types::LedgerIdx(i));
                assert_eq!(a, b, "ledger divergence at entry {i}");
            }
            // The governance sub-ledger is what the ledger records.
            let (ours, theirs) = (reference.gov_chain(), other.gov_chain());
            let (common, a, b) = (ours.len().min(theirs.len()), reference.id(), other.id());
            assert_eq!(ours[..common], theirs[..common], "governance chains {a}, {b} diverge");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_core::app::CounterApp;
    use ia_ccf_core::ProtocolParams;
    use ia_ccf_types::{LedgerEntry, View};

    fn spec(n: usize, clients: usize) -> ClusterSpec {
        let params = ProtocolParams { view_timeout_ticks: 20, ..ProtocolParams::default() };
        ClusterSpec::new(n, clients, params)
    }

    #[test]
    fn single_request_commits_and_yields_receipt() {
        let s = spec(4, 1);
        let mut cluster = DetCluster::new(&s, Arc::new(CounterApp));
        let client = s.clients[0].0;
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        assert!(cluster.run_until_finished(1, 50), "tx did not finish");
        let (cid, tx) = &cluster.finished[0];
        assert_eq!(*cid, client);
        assert!(tx.ok);
        assert_eq!(tx.output, 1u64.to_le_bytes());
        // The receipt verified inside the client; spot-check again.
        tx.receipt.as_ref().unwrap().verify(cluster.replica(ReplicaId(0)).active_config()).unwrap();
        cluster.assert_ledgers_consistent();
    }

    #[test]
    fn pipelined_batches_commit_in_order() {
        let s = spec(4, 2);
        let mut cluster = DetCluster::new(&s, Arc::new(CounterApp));
        let c0 = s.clients[0].0;
        let c1 = s.clients[1].0;
        for i in 0..10 {
            let who = if i % 2 == 0 { c0 } else { c1 };
            cluster.submit(who, CounterApp::INCR, b"shared".to_vec());
            cluster.round();
        }
        assert!(cluster.run_until_finished(10, 200), "only {} finished", cluster.finished.len());
        // The counter must be exactly 10 on every replica (serializable).
        for r in cluster.replicas.values() {
            let v = r.inner.kv().get(b"shared").expect("key exists");
            assert_eq!(v, &10u64.to_le_bytes().to_vec());
        }
        // Indices in receipts are strictly increasing per the ledger.
        let mut indices: Vec<u64> =
            cluster.finished.iter().map(|(_, t)| t.receipt.as_ref().unwrap().tx_index().unwrap().0).collect();
        let orig = indices.clone();
        indices.sort_unstable();
        indices.dedup();
        assert_eq!(indices.len(), orig.len(), "indices must be unique");
        cluster.assert_ledgers_consistent();
    }

    #[test]
    fn checkpoints_are_agreed() {
        let s = spec(4, 1).with_config(|c| c.checkpoint_interval = 5);
        let mut cluster = DetCluster::new(&s, Arc::new(CounterApp));
        let client = s.clients[0].0;
        // Push enough singleton batches to pass 2 checkpoints + marks.
        for _ in 0..20 {
            cluster.submit(client, CounterApp::INCR, b"k".to_vec());
            cluster.round();
        }
        assert!(cluster.run_until(200, |c| c.min_committed() >= SeqNum(15)));
        // Every live replica holds the checkpoint at 15 (retention keeps
        // the latest few) and all digests agree — checkpoint marks were
        // validated in-band by every backup (§3.4).
        let d15: Vec<_> = cluster
            .replicas
            .values()
            .filter_map(|r| r.inner.checkpoints().digest_at(SeqNum(15)))
            .collect();
        assert_eq!(d15.len(), 4, "all replicas checkpointed seq 15");
        assert!(d15.windows(2).all(|w| w[0] == w[1]), "checkpoint digests agree");
        cluster.assert_ledgers_consistent();
    }

    #[test]
    fn primary_crash_triggers_view_change_and_progress_continues() {
        let s = spec(4, 1);
        let mut cluster = DetCluster::new(&s, Arc::new(CounterApp));
        let client = s.clients[0].0;
        cluster.submit(client, CounterApp::INCR, b"a".to_vec());
        assert!(cluster.run_until_finished(1, 50));

        // Kill the primary of view 0 (rank 0).
        cluster.crash(ReplicaId(0));
        cluster.submit(client, CounterApp::INCR, b"a".to_vec());
        assert!(
            cluster.run_until_finished(2, 400),
            "no progress after primary crash: finished={}",
            cluster.finished.len()
        );
        // The survivors moved past view 0.
        let views: Vec<u64> = cluster
            .replicas
            .iter()
            .filter(|(id, _)| !cluster.crashed.contains(id))
            .map(|(_, r)| r.inner.view().0)
            .collect();
        assert!(views.iter().all(|v| *v >= 1), "views: {views:?}");
        cluster.assert_ledgers_consistent();
    }

    #[test]
    fn muted_backup_does_not_block_commit() {
        let s = spec(4, 1);
        let mut cluster = DetCluster::new(&s, Arc::new(CounterApp));
        cluster.set_fault(ReplicaId(3), Fault::Mute);
        let client = s.clients[0].0;
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        assert!(cluster.run_until_finished(1, 100), "f=1 must tolerate one mute replica");
    }

    #[test]
    fn dropped_replyx_is_recovered_by_refetch() {
        let s = spec(4, 1);
        let mut cluster = DetCluster::new(&s, Arc::new(CounterApp));
        // All replicas drop replyx; the client's retry asks a rotating
        // replica via FetchReceipt, which is served from batch state —
        // mute the *designated* path only: drop replyx on every replica,
        // then clear the fault after a few rounds to let refetch succeed.
        for id in 0..4 {
            cluster.set_fault(ReplicaId(id), Fault::DropReplyX);
        }
        if let Some(c) = cluster.clients.get_mut(&s.clients[0].0) {
            c.retry_ticks = 5;
        }
        let client = s.clients[0].0;
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        for _ in 0..6 {
            cluster.round();
        }
        assert!(cluster.finished.is_empty(), "replyx suppressed, nothing should finish");
        for id in 0..4 {
            cluster.set_fault(ReplicaId(id), Fault::None);
        }
        assert!(cluster.run_until_finished(1, 100), "refetch should complete the receipt");

        // The client re-broadcast the request after it was ordered: no
        // replica orders it again.
        for _ in 0..40 {
            cluster.round();
        }
        let name = cluster.finished[0].1.request.digest();
        for (id, r) in &cluster.replicas {
            let held = r
                .inner
                .ledger()
                .entries()
                .iter()
                .filter(|e| matches!(e, LedgerEntry::Tx(tx) if tx.request.digest() == name))
                .count();
            assert_eq!(held, 1, "replica {} ledger holds the request {held} times", id.0);
        }
    }

    #[test]
    fn corrupted_replyx_is_rejected_then_recovered() {
        let s = spec(4, 1);
        let mut cluster = DetCluster::new(&s, Arc::new(CounterApp));
        for id in 0..4 {
            cluster.set_fault(ReplicaId(id), Fault::CorruptReplyX);
        }
        if let Some(c) = cluster.clients.get_mut(&s.clients[0].0) {
            c.retry_ticks = 5;
        }
        let client = s.clients[0].0;
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        for _ in 0..6 {
            cluster.round();
        }
        assert!(cluster.finished.is_empty(), "corrupt replyx must not verify");
        for id in 0..4 {
            cluster.set_fault(ReplicaId(id), Fault::None);
        }
        assert!(cluster.run_until_finished(1, 100));
        assert!(cluster.finished[0].1.ok);
    }

    /// A `replyx` is one bundle per client, batch and designated replica:
    /// across a view change, with two clients sharing batches of up to 8,
    /// every committed transaction reaches its client in exactly one
    /// witness per view its batch prepared in, from the replica `H(t) mod
    /// N` designates, and no client gets two bundles from one replica for
    /// one batch. (The new view re-proposes the last `P` prepared batches,
    /// so their transactions are answered once in each view.)
    #[test]
    fn each_transaction_gets_one_witness_in_one_bundle_per_batch() {
        let params =
            ProtocolParams { view_timeout_ticks: 20, batch_max: 8, ..ProtocolParams::default() };
        let s = ClusterSpec::new(4, 2, params);
        let mut cluster = DetCluster::new(&s, Arc::new(CounterApp));
        cluster.client_log = Some(Vec::new());
        for c in cluster.clients.values_mut() {
            c.retry_ticks = u64::MAX; // no re-fetch: every witness is a first answer
        }
        let burst = |cluster: &mut DetCluster, count: usize| {
            for i in 0..count {
                cluster.submit(s.clients[i % 2].0, CounterApp::INCR, vec![b'k', i as u8 % 5]);
                if i % 6 == 5 {
                    cluster.round();
                }
            }
        };
        burst(&mut cluster, 24);
        assert!(cluster.run_until_finished(24, 200));
        // The primary stops sending pre-prepares: the backups move to view 1.
        cluster.set_fault(ReplicaId(0), Fault::DropPrePrepares);
        burst(&mut cluster, 12);
        assert!(cluster.run_until(400, |c| c.replicas.values().all(|r| r.inner.view().0 >= 1)));
        cluster.set_fault(ReplicaId(0), Fault::None);
        burst(&mut cluster, 24);
        let submitted = 60;
        assert!(cluster.run_until_finished(submitted, 400), "{}", cluster.finished.len());
        cluster.assert_ledgers_consistent();

        let config = cluster.replica(ReplicaId(1)).active_config().clone();
        let designated = |request: &ia_ccf_types::SignedRequest| {
            let h = u64::from_le_bytes(request.digest().0[..8].try_into().unwrap());
            config.replica_at_rank((h % config.n() as u64) as usize).unwrap().id
        };
        let mut bundles = HashSet::new();
        type Batch = (View, SeqNum);
        let mut witnesses: BTreeMap<(ClientId, u64), Vec<(ReplicaId, Batch)>> = BTreeMap::new();
        for (from, to, msg) in cluster.client_log.take().unwrap() {
            let ProtocolMsg::ReplyX(rx) = msg else { continue };
            let batch = (rx.core.view, rx.core.seq);
            let first = bundles.insert((to, from, batch));
            assert!(first, "{to:?} got two bundles from {from} for {batch:?}");
            for tx in rx.txs {
                witnesses.entry((to, tx.req_id)).or_default().push((from, batch));
            }
        }
        assert_eq!(cluster.finished.len(), submitted);
        assert_eq!(witnesses.len(), submitted, "a witness for an uncommitted transaction");
        for (client, tx) in &cluster.finished {
            let got = &witnesses[&(*client, tx.req_id)];
            let core = &tx.receipt.as_ref().unwrap().cert.core;
            assert!(got.contains(&(designated(&tx.request), (core.view, core.seq))));
            let views: HashSet<View> = got.iter().map(|(_, (view, _))| *view).collect();
            assert_eq!(views.len(), got.len(), "{client:?} request {}: {got:?}", tx.req_id);
            assert!(got.iter().all(|(from, _)| *from == designated(&tx.request)));
        }
        assert!(witnesses.values().any(|got| got.len() == 2), "no batch was re-proposed");
        let n = bundles.len();
        assert!(n < submitted, "{n} bundles carry {submitted} transactions: none shared");
    }

    #[test]
    fn corrupted_reply_sig_from_f_backups_does_not_block_receipts() {
        // One backup (f = 1) garbles the signature in its replies. Rank 1
        // is the lowest-ranked backup, the one certificate assembly picks
        // first; rank 3 is never picked. Either way the client must end up
        // with a verified receipt built from the honest replies.
        for byzantine in [1, 3] {
            let s = spec(4, 1);
            let mut cluster = DetCluster::new(&s, Arc::new(CounterApp));
            cluster.set_fault(ReplicaId(byzantine), Fault::CorruptReplySig);
            let client = s.clients[0].0;
            for i in 0..3u8 {
                cluster.submit(client, CounterApp::INCR, vec![b'k', i]);
            }
            assert!(
                cluster.run_until_finished(3, 300),
                "replica {byzantine} garbling Reply::sig must not deny the receipt"
            );
            let config = cluster.replica(ReplicaId(0)).active_config().clone();
            let garbler_rank = config.rank_of(ReplicaId(byzantine)).unwrap();
            for (_, tx) in &cluster.finished {
                let receipt = tx.receipt.as_ref().unwrap();
                receipt.verify(&config).unwrap();
                assert!(!receipt.cert.signers.contains(garbler_rank));
            }
        }
    }

    #[test]
    fn hundred_txs_multiple_clients() {
        let s = spec(4, 4);
        let mut cluster = DetCluster::new(&s, Arc::new(CounterApp));
        for i in 0..100u64 {
            let client = s.clients[(i % 4) as usize].0;
            cluster.submit(client, CounterApp::INCR, format!("k{}", i % 7).into_bytes());
            if i % 3 == 0 {
                cluster.round();
            }
        }
        assert!(cluster.run_until_finished(100, 500), "finished={}", cluster.finished.len());
        cluster.assert_ledgers_consistent();
        // Sum of counters equals the number of increments.
        let r = cluster.replica(ReplicaId(1));
        let total: u64 = (0..7)
            .map(|k| {
                r.kv()
                    .get(format!("k{k}").as_bytes())
                    .map(|v| u64::from_le_bytes(v.as_slice().try_into().unwrap()))
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(total, 100);
    }

    /// A registered client's request with a garbage signature, in the
    /// middle of valid ones. The primary's slice check fails, the
    /// per-job fallback locates the one bad index, and the primary must
    /// (a) propose the valid remainder *in submission order* — it used to
    /// re-queue it reversed — and (b) forget the forged body — it used
    /// to keep it in its request store forever.
    #[test]
    fn forged_request_is_evicted_and_the_rest_commit_in_order() {
        use ia_ccf_types::{LedgerIdx, Request, RequestAction, SignedRequest};

        let s = spec(4, 1);
        let mut cluster = DetCluster::new(&s, Arc::new(CounterApp));
        let client = s.clients[0].0;
        let gt_hash = cluster.replica(ReplicaId(0)).gt_hash();
        let mut forged = SignedRequest::sign(
            Request {
                action: RequestAction::App { proc: CounterApp::INCR, args: b"k".to_vec() },
                client,
                gt_hash,
                min_index: LedgerIdx(0),
                req_id: 1_000_000,
            },
            &s.clients[0].1,
        );
        forged.sig.0 = [0xa5; 64];

        // Eight valid requests with the forgery fourth in line: one
        // candidate batch of nine, long enough for the combined check.
        for i in 0..8 {
            if i == 3 {
                cluster.submit_raw(client, forged.clone());
            }
            cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        }
        assert!(cluster.run_until_finished(8, 100), "only {} finished", cluster.finished.len());

        // Submission order = request number order = ledger order, and the
        // counter saw exactly the eight valid increments.
        let mut by_index: Vec<(u64, u64)> = cluster
            .finished
            .iter()
            .map(|(_, tx)| (tx.receipt.as_ref().unwrap().tx_index().unwrap().0, tx.req_id))
            .collect();
        by_index.sort_unstable();
        let committed: Vec<u64> = by_index.iter().map(|&(_, req_id)| req_id).collect();
        let mut submitted = committed.clone();
        submitted.sort_unstable();
        assert_eq!(committed, submitted, "valid requests must commit in submission order");
        for r in cluster.replicas.values() {
            assert_eq!(r.inner.kv().get(b"k"), Some(&8u64.to_le_bytes().to_vec()));
            assert_eq!(r.inner.view().0, 0, "a forged client request must not cost a view");
        }
        cluster.assert_ledgers_consistent();

        // The primary serves request bodies out of its store: it still has
        // a valid one, and no longer has the forged one.
        let ask = |cluster: &mut DetCluster, digest| {
            let primary = &mut cluster.replicas.get_mut(&ReplicaId(0)).unwrap().inner;
            let outs = primary.handle(Input::Message {
                from: NodeId::Replica(ReplicaId(1)),
                msg: ProtocolMsg::FetchRequests { hashes: vec![digest] },
            });
            outs.iter().any(|o| {
                matches!(o, Output::SendReplica(_, ProtocolMsg::FetchRequestsResponse { .. }))
            })
        };
        let valid = cluster.finished[0].1.request.digest();
        assert!(ask(&mut cluster, valid), "a committed request body is still served");
        assert!(!ask(&mut cluster, forged.digest()), "the forged body must be gone");
    }
}
