//! The IA-CCF client (§2 ❸, §3.3, §5.2).
//!
//! A client signs requests, sends them to all replicas, and waits for
//! `N − f` matching `reply` messages plus the `replyx` from the designated
//! replica. From these it assembles a [`Receipt`] — the pre-prepare core,
//! the primary's signature, the backups' prepare signatures, the revealed
//! nonces, and the Merkle path — and verifies it (Alg. 3) under the
//! configuration determined by its cached **governance receipt chain**.
//! Clients never hold the ledger; the chain (genesis plus governance
//! receipts plus `P`-th end-of-configuration receipts) is all they need to know the
//! valid signing keys at any governance index.
//!
//! All receipts of a batch carry the same certificate, so the client keeps
//! one bounded [`VerifiedCerts`] memo: the first receipt of a batch pays
//! for the `1 + 2f` signature checks, the rest pay for their Merkle path
//! ([`Client::verified_cert_stats`] counts both). A backup whose prepare
//! signature fails is dropped from that batch's replies and the receipt is
//! re-assembled from the others, so `f` garbling backups cannot withhold
//! receipts (§3.3 liveness).
//!
//! Like the replica, the client is sans-io: feed messages with
//! [`Client::on_message`], drain sends with [`Client::poll_send`], collect
//! finished transactions with [`Client::take_completed`].

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ia_ccf_governance::chain::{ConfigHistory, GovLink, GovernanceChain};
use ia_ccf_types::{
    lowest_ranked_quorum, BatchCertificate, ClientId, Configuration, Digest, KeyPair, LedgerIdx,
    ProcId, ProtocolMsg, Receipt, ReceiptBody, ReceiptError, Reply, ReplyX, ReplicaBitmap,
    ReplicaId, Request, RequestAction, SeqNum, SignedRequest, TxWitness, VerifiedCerts, View,
};

/// Certificates the client remembers as verified: a few pipeline windows'
/// worth of batches (receipts of one batch arrive together).
const VERIFIED_CERTS_CAPACITY: usize = 64;

/// A transaction whose receipt has been assembled and verified.
#[derive(Debug, Clone)]
pub struct FinishedTx {
    /// The original signed request.
    pub request: SignedRequest,
    /// Client-chosen request number.
    pub req_id: u64,
    /// The verified receipt; always `Some` (the `Option` is what
    /// `benchmark/` reads — ROADMAP item 1).
    pub receipt: Option<Receipt>,
    /// The execution output.
    pub output: Vec<u8>,
    /// Whether the stored procedure succeeded.
    pub ok: bool,
    /// Tick the request was first sent (for latency measurement).
    pub sent_tick: u64,
    /// Tick the receipt completed.
    pub done_tick: u64,
}

/// An in-flight request.
#[derive(Debug)]
struct PendingReq {
    request: SignedRequest,
    digest: Digest,
    /// Replies keyed by (view, seq) then replica. One reply message covers
    /// every request of its batch: they share it.
    replies: BTreeMap<(View, SeqNum), BTreeMap<ReplicaId, Arc<Reply>>>,
    replyx: Option<ReplyX>,
    sent_tick: u64,
    last_action_tick: u64,
    refetch_attempts: u32,
}

/// Where a client wants a message delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientSend {
    /// To one replica.
    To(ReplicaId, ProtocolMsg),
    /// To every replica in the client's current configuration view.
    Broadcast(ProtocolMsg),
}

/// The sans-io IA-CCF client.
pub struct Client {
    id: ClientId,
    keypair: KeyPair,
    gt_hash: Digest,
    genesis: Configuration,
    chain: GovernanceChain,
    history: ConfigHistory,
    /// Highest governance index covered by the verified chain.
    verified_gov_index: LedgerIdx,
    next_req_id: u64,
    /// Largest ledger index seen in a receipt (`M_i`); requests carry
    /// `min_index = M_i + 1` to encode real-time ordering (§B.1).
    max_seen_index: u64,
    /// In-flight requests by id; ordered, so retries go out in `req_id`
    /// order and two identically driven clients send identical bytes.
    pending: BTreeMap<u64, PendingReq>,
    /// `H(t)` → request id for every pending request, so a `replyx` finds
    /// its request without scanning `pending`.
    pending_by_hash: HashMap<Digest, u64>,
    /// Batch certificates already signature-checked.
    verified_certs: VerifiedCerts,
    /// Completions stalled on missing governance receipts.
    waiting_for_gov: Vec<u64>,
    completed: Vec<FinishedTx>,
    outbox: Vec<ClientSend>,
    tick: u64,
    /// Ticks before a pending request is retried.
    pub retry_ticks: u64,
}

impl Client {
    /// A client for the service whose genesis configuration is `genesis`.
    pub fn new(id: ClientId, keypair: KeyPair, gt_hash: Digest, genesis: Configuration) -> Self {
        let chain = GovernanceChain::new();
        let history = chain.verify(&genesis).expect("empty chain verifies");
        Client {
            id,
            keypair,
            gt_hash,
            genesis,
            chain,
            history,
            verified_gov_index: LedgerIdx(0),
            next_req_id: 1,
            max_seen_index: 0,
            pending: BTreeMap::new(),
            pending_by_hash: HashMap::new(),
            verified_certs: VerifiedCerts::new(VERIFIED_CERTS_CAPACITY),
            waiting_for_gov: Vec::new(),
            completed: Vec::new(),
            outbox: Vec::new(),
            tick: 0,
            retry_ticks: 50,
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The configuration the client currently believes is active.
    pub fn current_config(&self) -> &Configuration {
        self.history.latest()
    }

    /// Number of in-flight requests.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Largest ledger index learned from receipts.
    pub fn max_seen_index(&self) -> u64 {
        self.max_seen_index
    }

    /// The verified governance chain (receipts the client caches, §5.2).
    pub fn gov_chain(&self) -> &GovernanceChain {
        &self.chain
    }

    /// `(hits, misses)` of the verified-certificate memo: receipts whose
    /// signature checks were elided, and receipts that ran them.
    pub fn verified_cert_stats(&self) -> (u64, u64) {
        (self.verified_certs.hits(), self.verified_certs.misses())
    }

    /// Build, record and queue a request invoking `proc` with `args`.
    /// Returns the request id.
    pub fn submit(&mut self, proc: ProcId, args: Vec<u8>) -> u64 {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        let request = SignedRequest::sign(
            Request {
                action: RequestAction::App { proc, args },
                client: self.id,
                gt_hash: self.gt_hash,
                min_index: LedgerIdx(self.max_seen_index + 1),
                req_id,
            },
            &self.keypair,
        );
        let digest = request.digest();
        self.pending_by_hash.insert(digest, req_id);
        self.pending.insert(
            req_id,
            PendingReq {
                request: request.clone(),
                digest,
                replies: BTreeMap::new(),
                replyx: None,
                sent_tick: self.tick,
                last_action_tick: self.tick,
                refetch_attempts: 0,
            },
        );
        self.outbox.push(ClientSend::Broadcast(ProtocolMsg::Request(request)));
        req_id
    }

    /// Feed a message from `from`.
    pub fn on_message(&mut self, from: ReplicaId, msg: ProtocolMsg) {
        match msg {
            ProtocolMsg::Reply(reply) => self.on_reply(from, reply),
            ProtocolMsg::ReplyX(rx) => self.on_replyx(rx),
            ProtocolMsg::GovReceipts { receipts } => self.on_gov_receipts(receipts),
            _ => {}
        }
    }

    /// Advance the client clock; retries stale requests, in ascending
    /// `req_id`.
    pub fn on_tick(&mut self) {
        self.tick += 1;
        let to_retry: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| self.tick.saturating_sub(p.last_action_tick) >= self.retry_ticks)
            .map(|(&req_id, _)| req_id)
            .collect();
        for req_id in to_retry {
            self.retry(req_id);
        }
    }

    /// Drain queued sends.
    pub fn poll_send(&mut self) -> Vec<ClientSend> {
        std::mem::take(&mut self.outbox)
    }

    /// Drain completed transactions.
    pub fn take_completed(&mut self) -> Vec<FinishedTx> {
        std::mem::take(&mut self.completed)
    }

    // ------------------------------------------------------------------

    fn retry(&mut self, req_id: u64) {
        let config = self.history.latest();
        let Some(p) = self.pending.get_mut(&req_id) else {
            return;
        };
        p.last_action_tick = self.tick;
        p.refetch_attempts += 1;
        // Retransmit the request and ask a rotating member for the
        // receipt parts (§3.3: "selects a different replica to send back
        // replyx").
        self.outbox.push(ClientSend::Broadcast(ProtocolMsg::Request(p.request.clone())));
        let rank = p.refetch_attempts as usize % config.n();
        if let Some(target) = config.replica_at_rank(rank) {
            let fetch = ProtocolMsg::FetchReceipt { tx_hash: p.digest };
            self.outbox.push(ClientSend::To(target.id, fetch));
        }
    }

    fn on_reply(&mut self, from: ReplicaId, reply: Reply) {
        if reply.replica != from {
            return; // authenticated channel: ignore impersonations
        }
        let key = (reply.view, reply.seq);
        let reply = Arc::new(reply);
        let mut touched = Vec::new();
        for req_id in &reply.req_ids {
            if let Some(p) = self.pending.get_mut(req_id) {
                p.replies.entry(key).or_default().insert(reply.replica, Arc::clone(&reply));
                p.last_action_tick = self.tick;
                touched.push(*req_id);
            }
        }
        for req_id in touched {
            self.try_complete(req_id);
        }
    }

    fn on_replyx(&mut self, rx: ReplyX) {
        let Some(&req_id) = self.pending_by_hash.get(&rx.tx_hash) else {
            return;
        };
        if let Some(p) = self.pending.get_mut(&req_id) {
            p.replyx = Some(rx);
            p.last_action_tick = self.tick;
        }
        self.try_complete(req_id);
    }

    fn on_gov_receipts(&mut self, receipts: Vec<(Option<SignedRequest>, Receipt)>) {
        // Replicas honor `from_index`, so a response is normally the
        // *suffix* past our verified prefix: splice it onto the cached
        // chain and re-verify the whole chain from genesis (receipts are
        // cheap to verify relative to fetch latency, and chains are
        // small, §6.4). A response that overlaps our prefix (a replica
        // predating the incremental protocol, or a `from_index = 0`
        // refetch) is treated as a full chain, as before.
        let incoming: Vec<GovLink> = receipts
            .into_iter()
            .map(|(request, receipt)| match request {
                Some(request) => GovLink::GovTx { request, receipt },
                None => GovLink::Boundary { receipt },
            })
            .collect();
        let first_incoming_idx = incoming.iter().find_map(|l| match l {
            GovLink::GovTx { receipt, .. } => receipt.tx_index(),
            GovLink::Boundary { .. } => None,
        });
        let is_suffix = !self.chain.is_empty()
            && first_incoming_idx.is_some_and(|i| i > self.verified_gov_index);
        let mut links = if is_suffix { self.chain.links.clone() } else { Vec::new() };
        links.extend(incoming);
        if links.len() <= self.chain.len() {
            return;
        }
        let chain = GovernanceChain { links };
        match chain.verify(&self.genesis) {
            Ok(history) => {
                self.verified_gov_index = chain
                    .links
                    .iter()
                    .filter_map(|l| match l {
                        GovLink::GovTx { receipt, .. } => receipt.tx_index(),
                        GovLink::Boundary { .. } => None,
                    })
                    .max()
                    .unwrap_or(LedgerIdx(0));
                self.chain = chain;
                self.history = history;
                // Unblock stalled completions.
                let waiting = std::mem::take(&mut self.waiting_for_gov);
                for req_id in waiting {
                    self.try_complete(req_id);
                }
            }
            Err(_) => {
                // A replica served an invalid chain; ignore it. (An
                // inconsistent chain pair would be fork evidence — the
                // auditor handles that path.)
            }
        }
    }

    /// Attempt receipt assembly (§3.3 "Verifying receipts").
    fn try_complete(&mut self, req_id: u64) {
        let Some(p) = self.pending.get(&req_id) else {
            return;
        };
        let Some(rx) = &p.replyx else {
            return;
        };
        // Do we have the governance receipts this receipt depends on?
        if rx.core.gov_index > self.verified_gov_index {
            if !self.waiting_for_gov.contains(&req_id) {
                self.waiting_for_gov.push(req_id);
            }
            let target = self.current_config().replicas[0].id;
            self.outbox.push(ClientSend::To(
                target,
                ProtocolMsg::FetchGovReceipts { from_index: self.verified_gov_index },
            ));
            return;
        }
        let config = self.history.config_for_gov_index(rx.core.gov_index);
        let key = (rx.core.view, rx.core.seq);
        let receipt = loop {
            let p = self.pending.get(&req_id).expect("looked up above");
            let rx = p.replyx.as_ref().expect("checked above");
            let Some(receipt) =
                p.replies.get(&key).and_then(|replies| assemble_receipt(config, rx, replies))
            else {
                return;
            };
            match receipt.verify_with(config, &mut self.verified_certs) {
                Ok(_) => break receipt,
                // One backup's signature is bad: drop its reply and try the
                // remaining ones, so up to f garbling backups cannot
                // withhold the receipt. Each round removes a reply, so the
                // loop ends.
                Err(ReceiptError::BadPrepareSig(rank)) => {
                    let Some(bad) = config.replica_at_rank(rank).map(|d| d.id) else {
                        return;
                    };
                    evict_reply(&mut self.pending, req_id, key, bad);
                }
                // Bad replyx or primary reply: wait for more replies; retry
                // will also re-fetch the replyx from a different replica.
                Err(_) => return,
            }
        };

        let p = self.remove_pending(req_id);
        let rx = p.replyx.expect("the receipt was assembled from it");
        self.max_seen_index = self.max_seen_index.max(rx.index.0);
        self.completed.push(FinishedTx {
            request: p.request,
            req_id,
            output: rx.result.output,
            ok: rx.result.ok,
            receipt: Some(receipt),
            sent_tick: p.sent_tick,
            done_tick: self.tick,
        });
    }

    fn remove_pending(&mut self, req_id: u64) -> PendingReq {
        let p = self.pending.remove(&req_id).expect("caller looked it up");
        self.pending_by_hash.remove(&p.digest);
        p
    }
}

/// Forget `bad`'s reply for batch `key`: for `req_id`, and for every
/// other pending request the same reply message covered.
fn evict_reply(
    pending: &mut BTreeMap<u64, PendingReq>,
    req_id: u64,
    key: (View, SeqNum),
    bad: ReplicaId,
) {
    let Some(reply) = batch_replies_mut(pending, req_id, key).and_then(|m| m.remove(&bad)) else {
        return;
    };
    for &other in &reply.req_ids {
        if let Some(replies) = batch_replies_mut(pending, other, key) {
            if replies.get(&bad) == Some(&reply) {
                replies.remove(&bad);
            }
        }
    }
}

fn batch_replies_mut(
    pending: &mut BTreeMap<u64, PendingReq>,
    req_id: u64,
    key: (View, SeqNum),
) -> Option<&mut BTreeMap<ReplicaId, Arc<Reply>>> {
    pending.get_mut(&req_id)?.replies.get_mut(&key)
}

/// Assemble the receipt for `rx` from one batch's replies (§3.3): the one
/// selection over the replicas that replied, the one constructor over their
/// shares. `None` until the primary's reply and a quorum are on hand.
fn assemble_receipt(
    config: &Configuration,
    rx: &ReplyX,
    batch_replies: &BTreeMap<ReplicaId, Arc<Reply>>,
) -> Option<Receipt> {
    let replied = batch_replies.keys().filter_map(|r| config.rank_of(*r));
    let primary_rank = config.rank_of(config.primary_of(rx.core.view))?;
    let signers =
        lowest_ranked_quorum(config, primary_rank, ReplicaBitmap::from_ranks(replied))?;
    let share_of = |id| batch_replies.get(&id).map(|r| (r.sig, r.nonce));
    let (core, primary_sig) = (rx.core.clone(), rx.primary_sig);
    Some(Receipt {
        cert: BatchCertificate::assemble(config, core, primary_sig, signers, share_of)?,
        body: ReceiptBody::Tx(TxWitness {
            tx_hash: rx.tx_hash,
            index: rx.index,
            result: rx.result.clone(),
            path: rx.path.clone(),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_types::config::testutil::test_config;

    fn client() -> Client {
        let (config, _, _) = test_config(4);
        Client::new(
            ClientId(7),
            KeyPair::from_label("client-7"),
            ia_ccf_crypto::hash_bytes(b"gt"),
            config,
        )
    }

    #[test]
    fn submit_queues_broadcast_and_tracks_pending() {
        let mut c = client();
        let id = c.submit(ProcId(1), b"args".to_vec());
        assert_eq!(id, 1);
        assert_eq!(c.pending_count(), 1);
        let sends = c.poll_send();
        assert_eq!(sends.len(), 1);
        assert!(matches!(&sends[0], ClientSend::Broadcast(ProtocolMsg::Request(r))
            if r.request.req_id == 1));
    }

    #[test]
    fn min_index_tracks_max_seen() {
        let mut c = client();
        c.max_seen_index = 41;
        c.submit(ProcId(1), vec![]);
        let sends = c.poll_send();
        let ClientSend::Broadcast(ProtocolMsg::Request(r)) = &sends[0] else { panic!() };
        assert_eq!(r.request.min_index, LedgerIdx(42));
    }

    #[test]
    fn retry_after_timeout_refetches_receipt() {
        let mut c = client();
        c.retry_ticks = 3;
        c.submit(ProcId(1), vec![]);
        c.poll_send();
        for _ in 0..3 {
            c.on_tick();
        }
        let sends = c.poll_send();
        assert_eq!(sends.len(), 2);
        assert!(matches!(sends[0], ClientSend::Broadcast(ProtocolMsg::Request(_))));
        assert!(matches!(sends[1], ClientSend::To(_, ProtocolMsg::FetchReceipt { .. })));
    }

    /// Receipt re-fetches rotate over the configuration's members by rank,
    /// not over raw ids: with replica 0 gone (ids 1..=4), four retries ask
    /// each of the four members once.
    #[test]
    fn retries_refetch_from_each_member_once() {
        let (mut config, _, _) = test_config(5);
        config.replicas.remove(0);
        let gt = ia_ccf_crypto::hash_bytes(b"gt");
        let mut c = Client::new(ClientId(7), KeyPair::from_label("client-7"), gt, config);
        c.retry_ticks = 1;
        c.submit(ProcId(1), vec![]);
        c.poll_send();
        let mut targets = Vec::new();
        for _ in 0..4 {
            c.on_tick();
            for send in c.poll_send() {
                if let ClientSend::To(to, ProtocolMsg::FetchReceipt { .. }) = send {
                    targets.push(to.0);
                }
            }
        }
        targets.sort_unstable();
        assert_eq!(targets, [1, 2, 3, 4]);
    }

    /// Two clients driven identically send identical retries: every timed
    /// out request is retransmitted, with its receipt fetch, in `req_id`
    /// order.
    #[test]
    fn retries_go_out_in_req_id_order() {
        let (mut a, mut b) = (client(), client());
        for c in [&mut a, &mut b] {
            c.retry_ticks = 2;
            for i in 0..24u8 {
                c.submit(ProcId(1), vec![i]);
            }
            c.poll_send();
            c.on_tick();
            c.on_tick();
        }
        let sends = a.poll_send();
        assert_eq!(sends, b.poll_send());
        let retried: Vec<u64> = sends
            .iter()
            .filter_map(|send| match send {
                ClientSend::Broadcast(ProtocolMsg::Request(r)) => Some(r.request.req_id),
                _ => None,
            })
            .collect();
        assert_eq!(retried, (1..=24).collect::<Vec<u64>>());
        assert_eq!(sends.len(), 48, "a retransmission and a receipt fetch each");
    }

    #[test]
    fn incomplete_replies_do_not_complete() {
        let mut c = client();
        c.submit(ProcId(1), vec![]);
        // A reply with no replyx can't complete anything.
        c.on_message(
            ReplicaId(0),
            ProtocolMsg::Reply(Reply {
                view: View(0),
                seq: SeqNum(1),
                replica: ReplicaId(0),
                sig: ia_ccf_types::Signature::zero(),
                nonce: ia_ccf_types::Nonce::default(),
                req_ids: vec![1],
            }),
        );
        assert!(c.take_completed().is_empty());
        assert_eq!(c.pending_count(), 1);
    }

    // Full round trips (request → receipt) are covered by the simulator
    // tests in `ia-ccf-sim` and the workspace integration tests, where a
    // real cluster produces the replies.
}
