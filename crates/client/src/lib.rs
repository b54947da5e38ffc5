//! The IA-CCF client (§2 ❸, §3.3, §5.2).
//!
//! A client signs requests, sends them to all replicas, and waits for
//! `N − f` matching `reply` messages plus the `replyx` from the designated
//! replica. A `replyx` is a bundle, one per batch and designated replica:
//! the batch's pre-prepare core and primary signature once, and a witness
//! (request id, index, result, path) per transaction. The client finds
//! each witness's request by its id, keeps the bundle's shared part once
//! behind an `Arc`, and rebuilds the witness under the `H(t)` it computed
//! when it submitted. From these it assembles a [`Receipt`] — the
//! pre-prepare core, the primary's signature, the backups' prepare
//! signatures, the revealed nonces, and the Merkle path — and verifies it
//! (Alg. 3) under the configuration determined by its cached **governance
//! receipt chain**.
//! Clients never hold the ledger; the chain (genesis plus governance
//! receipts plus `P`-th end-of-configuration receipts) is all they need to know the
//! valid signing keys at any governance index. A link is served once its
//! carrier — the batch `P` later, which ledgers its evidence — is in the
//! ledger, so the client asks a rotating member for the chain on every
//! tick while a completion waits for it.
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
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::sync::Arc;

use ia_ccf_governance::chain::{ConfigHistory, GovLink, GovernanceChain};
use ia_ccf_types::{
    lowest_ranked_quorum, BatchCertificate, ClientId, Configuration, Digest, KeyPair, LedgerIdx,
    PrePrepareCore, ProcId, ProtocolMsg, Receipt, ReceiptBody, ReceiptError, Reply, ReplyTx,
    ReplyX, ReplicaBitmap, ReplicaId, Request, RequestAction, SeqNum, Signature, SignedRequest,
    TxWitness, VerifiedCerts, View,
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
    replyx: Option<Witness>,
    sent_tick: u64,
    last_action_tick: u64,
    refetch_attempts: u32,
}

/// What every witness of one `replyx` bundle shares: the batch's
/// pre-prepare core and the primary's signature over it.
#[derive(Debug)]
struct BundleHead {
    core: PrePrepareCore,
    primary_sig: Signature,
}

/// One request's witness out of a `replyx` bundle, with the bundle's
/// shared head.
#[derive(Debug)]
struct Witness {
    head: Arc<BundleHead>,
    tx: ReplyTx,
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
    /// Batch certificates already signature-checked.
    verified_certs: VerifiedCerts,
    /// Completions stalled on missing governance receipts.
    waiting_for_gov: Vec<u64>,
    /// Governance-receipt fetches sent: the next goes to the member at
    /// rank `gov_fetches mod n`.
    gov_fetches: u64,
    completed: Vec<FinishedTx>,
    outbox: Vec<ClientSend>,
    tick: u64,
    /// Ticks before a pending request is retried.
    pub retry_ticks: u64,
}

impl Client {
    /// A client for the service whose genesis configuration is `genesis`.
    pub fn new(id: ClientId, keypair: KeyPair, gt_hash: Digest, genesis: Configuration) -> Self {
        Client {
            id,
            keypair,
            gt_hash,
            history: ConfigHistory::new(LedgerIdx(0), genesis.clone()),
            genesis,
            chain: GovernanceChain::new(),
            verified_gov_index: LedgerIdx(0),
            next_req_id: 1,
            max_seen_index: 0,
            pending: BTreeMap::new(),
            verified_certs: VerifiedCerts::new(VERIFIED_CERTS_CAPACITY),
            waiting_for_gov: Vec::new(),
            gov_fetches: 0,
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
    /// `req_id`, and asks for the governance chain again while a
    /// completion waits for it.
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
        if !self.waiting_for_gov.is_empty() {
            self.fetch_gov_receipts();
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

    /// Ask the next member in turn for the governance links past the
    /// verified chain: an answer may predate a link's carrier, or never
    /// come from a crashed member, so `on_tick` asks again while waiting.
    fn fetch_gov_receipts(&mut self) {
        let config = self.history.latest();
        let rank = (self.gov_fetches % config.n() as u64) as usize;
        self.gov_fetches += 1;
        if let Some(target) = config.replica_at_rank(rank) {
            let fetch = ProtocolMsg::FetchGovReceipts { from_index: self.verified_gov_index };
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

    /// Hand each witness of a `replyx` bundle to the pending request its
    /// `req_id` names, sharing the bundle's head between them; a witness
    /// for an unknown or finished request is dropped.
    fn on_replyx(&mut self, rx: ReplyX) {
        let head = Arc::new(BundleHead { core: rx.core, primary_sig: rx.primary_sig });
        let mut touched = Vec::with_capacity(rx.txs.len());
        for tx in rx.txs {
            let Some(p) = self.pending.get_mut(&tx.req_id) else {
                continue;
            };
            touched.push(tx.req_id);
            p.replyx = Some(Witness { head: Arc::clone(&head), tx });
            p.last_action_tick = self.tick;
        }
        for req_id in touched {
            self.try_complete(req_id);
        }
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
        let Some(witness) = self.pending.get(&req_id).and_then(|p| p.replyx.as_ref()) else {
            return;
        };
        let core = &witness.head.core;
        let (gov_index, key) = (core.gov_index, (core.view, core.seq));
        // Do we have the governance receipts this receipt depends on?
        if gov_index > self.verified_gov_index {
            if !self.waiting_for_gov.contains(&req_id) {
                self.waiting_for_gov.push(req_id);
                self.fetch_gov_receipts();
            }
            return;
        }
        let config = self.history.at(gov_index);
        let receipt = loop {
            let Some(receipt) = self.pending.get(&req_id).and_then(|p| {
                assemble_receipt(config, p.digest, p.replyx.as_ref()?, p.replies.get(&key)?)
            }) else {
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

        let Some(PendingReq { request, replyx: Some(witness), sent_tick, .. }) =
            self.pending.remove(&req_id)
        else {
            return;
        };
        let ReplyTx { index, result, .. } = witness.tx;
        self.max_seen_index = self.max_seen_index.max(index.0);
        self.completed.push(FinishedTx {
            request,
            req_id,
            output: result.output,
            ok: result.ok,
            receipt: Some(receipt),
            sent_tick,
            done_tick: self.tick,
        });
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

/// Assemble the receipt for the transaction `tx_hash` from its witness and
/// its batch's replies (§3.3): the one selection over the replicas that
/// replied, the one constructor over their shares. `None` until the
/// primary's reply and a quorum are on hand.
fn assemble_receipt(
    config: &Configuration,
    tx_hash: Digest,
    witness: &Witness,
    batch_replies: &BTreeMap<ReplicaId, Arc<Reply>>,
) -> Option<Receipt> {
    let BundleHead { core, primary_sig } = &*witness.head;
    let replied = batch_replies.keys().filter_map(|r| config.rank_of(*r));
    let primary_rank = config.rank_of(config.primary_of(core.view))?;
    let signers =
        lowest_ranked_quorum(config, primary_rank, ReplicaBitmap::from_ranks(replied))?;
    let share_of = |id| batch_replies.get(&id).map(|r| (r.sig, r.nonce));
    let tx = &witness.tx;
    Some(Receipt {
        cert: BatchCertificate::assemble(config, core.clone(), *primary_sig, signers, share_of)?,
        body: ReceiptBody::Tx(TxWitness {
            tx_hash,
            index: tx.index,
            result: tx.result.clone(),
            path: tx.path.clone(),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_types::config::testutil::test_config;
    use ia_ccf_types::receipt::testutil::make_tx_receipts;
    use ia_ccf_types::TxResult;

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

    /// A client with three pending requests, and for one batch holding
    /// them: the honestly certified receipts, and every signer's reply.
    fn batch_of_three() -> (Client, Vec<Receipt>, Vec<Reply>) {
        let (config, replica_keys, _) = test_config(4);
        let gt = ia_ccf_crypto::hash_bytes(b"gt");
        let mut c = Client::new(ClientId(7), KeyPair::from_label("client-7"), gt, config.clone());
        for i in 0..3u8 {
            c.submit(ProcId(1), vec![i]);
        }
        let entries: Vec<(Digest, LedgerIdx, TxResult)> = c
            .pending
            .values()
            .zip(10u64..)
            .map(|(p, i)| {
                let result =
                    TxResult { ok: true, output: vec![i as u8], write_set_digest: p.digest };
                (p.digest, LedgerIdx(i), result)
            })
            .collect();
        let receipts = make_tx_receipts(
            &config,
            &replica_keys,
            View(0),
            SeqNum(1),
            ia_ccf_crypto::hash_bytes(b"root-m"),
            LedgerIdx(0),
            Digest::zero(),
            &entries,
        );
        let cert = &receipts[0].cert;
        let mut prepare_sigs = cert.prepare_sigs.iter();
        let replies = cert
            .signers
            .iter()
            .zip(&cert.nonces)
            .map(|(rank, nonce)| {
                let replica = config.replicas[rank].id;
                let sig = if replica == cert.core.primary {
                    cert.primary_sig
                } else {
                    *prepare_sigs.next().unwrap()
                };
                let req_ids = vec![1, 2, 3];
                Reply { view: View(0), seq: SeqNum(1), replica, sig, nonce: *nonce, req_ids }
            })
            .collect();
        (c, receipts, replies)
    }

    /// The `replyx` bundle answering each `(req_id, receipt)` pair, its
    /// head out of the first receipt's certificate.
    fn bundle(receipts: &[(u64, &Receipt)]) -> ProtocolMsg {
        let cert = &receipts[0].1.cert;
        let txs = receipts
            .iter()
            .map(|&(req_id, r)| {
                let ReceiptBody::Tx(w) = &r.body else { panic!("a transaction receipt") };
                let (index, result, path) = (w.index, w.result.clone(), w.path.clone());
                ReplyTx { req_id, index, result, path }
            })
            .collect();
        ProtocolMsg::ReplyX(ReplyX { core: cert.core.clone(), primary_sig: cert.primary_sig, txs })
    }

    fn numbered(receipts: &[Receipt]) -> Vec<(u64, &Receipt)> {
        (1u64..).zip(receipts).collect()
    }

    fn deliver_replies(c: &mut Client, replies: &[Reply]) {
        for reply in replies {
            c.on_message(reply.replica, ProtocolMsg::Reply(reply.clone()));
        }
    }

    fn receipts_by_req_id(c: &mut Client) -> BTreeMap<u64, Receipt> {
        c.take_completed().into_iter().map(|tx| (tx.req_id, tx.receipt.unwrap())).collect()
    }

    /// One bundle naming three pending requests completes all three once
    /// the quorum's replies are in, with the receipts three one-witness
    /// bundles give, and those are the honestly certified receipts.
    #[test]
    fn one_bundle_completes_every_request_it_names() {
        let (mut one, receipts, replies) = batch_of_three();
        one.on_message(ReplicaId(2), bundle(&numbered(&receipts)));
        deliver_replies(&mut one, &replies[..2]);
        assert!(one.take_completed().is_empty(), "no quorum of replies yet");
        deliver_replies(&mut one, &replies[2..]);
        let bundled = receipts_by_req_id(&mut one);
        assert_eq!(one.pending_count(), 0);

        let (mut three, _, _) = batch_of_three();
        deliver_replies(&mut three, &replies);
        for witness in numbered(&receipts) {
            three.on_message(ReplicaId(2), bundle(&[witness]));
        }
        let singles = receipts_by_req_id(&mut three);
        assert_eq!(bundled, singles);
        assert_eq!(bundled.into_values().collect::<Vec<_>>(), receipts);
        assert_eq!(one.verified_cert_stats(), (2, 1), "one batch, one certificate check");
    }

    /// A witness whose result or path is corrupted fails its own request
    /// alone: the other two complete, and the failed one is re-fetched on
    /// retry and completes from an honest bundle of one.
    #[test]
    fn a_corrupted_witness_fails_only_its_own_request() {
        type Corrupt = fn(&mut ReplyTx);
        let corruptions: [Corrupt; 2] = [
            |tx| tx.result.output.push(0xFF),
            |tx| tx.path.siblings[0].0[0] ^= 1,
        ];
        for corrupt in corruptions {
            let (mut c, receipts, replies) = batch_of_three();
            c.retry_ticks = 2;
            let ProtocolMsg::ReplyX(mut rx) = bundle(&numbered(&receipts)) else { unreachable!() };
            corrupt(&mut rx.txs[1]);
            c.on_message(ReplicaId(2), ProtocolMsg::ReplyX(rx));
            deliver_replies(&mut c, &replies);
            let done = receipts_by_req_id(&mut c);
            assert_eq!(done.keys().copied().collect::<Vec<_>>(), [1, 3]);
            assert_eq!(c.pending_count(), 1);

            c.poll_send();
            c.on_tick();
            c.on_tick();
            let failed = c.pending[&2].digest;
            let sends = c.poll_send();
            assert!(sends.iter().any(|s| matches!(s,
                ClientSend::To(_, ProtocolMsg::FetchReceipt { tx_hash }) if *tx_hash == failed)));
            c.on_message(ReplicaId(3), bundle(&[(2, &receipts[1])]));
            assert_eq!(receipts_by_req_id(&mut c)[&2], receipts[1]);
            assert_eq!(c.pending_count(), 0);
        }
    }

    /// A witness naming an unknown request, or one already finished,
    /// changes nothing: no completion, no send, no pending request.
    #[test]
    fn a_witness_for_an_unknown_or_finished_request_changes_nothing() {
        let (mut c, receipts, replies) = batch_of_three();
        deliver_replies(&mut c, &replies);
        c.on_message(ReplicaId(2), bundle(&[(1, &receipts[0])]));
        assert_eq!(receipts_by_req_id(&mut c).len(), 1);
        c.poll_send();

        // Request 1 finished, 99 was never sent; 2 and 3 stay pending.
        c.on_message(ReplicaId(2), bundle(&[(1, &receipts[0]), (99, &receipts[1])]));
        assert!(c.take_completed().is_empty());
        assert!(c.poll_send().is_empty());
        assert_eq!(c.pending_count(), 2);
        assert!(c.pending.values().all(|p| p.replyx.is_none()));
    }

    // Full round trips (request → receipt) are covered by the simulator
    // tests in `ia-ccf-sim` and the workspace integration tests, where a
    // real cluster produces the replies.
}
