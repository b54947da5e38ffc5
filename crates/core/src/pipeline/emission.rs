//! Pipeline stage 4 — emission (Alg. 1 lines 34–38, §3.3, §5.2).
//!
//! Everything that leaves the replica for clients once a batch prepares
//! or commits: one `reply` per client per batch listing its request ids;
//! at most one `replyx` bundle per client per batch, carrying the batch's
//! pre-prepare core and the primary's signature once and a witness for
//! each of the client's transactions this replica is designated for
//! (rank `H(t) mod N`); governance receipts chained for auditors (§5.2);
//! and the fetch-serving paths (receipt re-fetch, which answers with a
//! bundle of one, evidence, ledger ranges) that let slow clients and
//! recovering replicas catch up.
//!
//! It reads executed batches from [`crate::pipeline::exec_window`]: they
//! are shared behind `Arc`, authentication paths are served by each
//! batch's tree `G`, and re-fetch locates its transaction
//! through the `tx_hash → (seq, pos)` index instead of a linear scan.
//! What a reply says of a transaction (client, request id, index, result)
//! is read from the batch's `⟨t, i, o⟩` entries in the ledger.
//! A governance batch's links are made from the certificate its evidence
//! pair proves, when the batch `P` later — the carrier — enters the ledger
//! (`close_batch`): the governance sub-ledger a replica serves is what its
//! ledger records, the same on every replica and on replay.

use std::collections::BTreeMap;

use ia_ccf_governance::chain::GovLink;
use ia_ccf_types::{
    BatchCertificate, BatchKind, ClientId, Commit, Configuration, Digest, LedgerEntry, LedgerIdx,
    Nonce, PrePrepare, Prepare, ProtocolMsg, Receipt, ReceiptBody, Reply, ReplyTx, ReplyX,
    ReplicaId, SeqNum, Signature, TxLedgerEntry, TxWitness,
};

use crate::checkpoint::CheckpointRecord;
use crate::events::Output;
use crate::pipeline::BatchExec;
use crate::replica::Replica;

impl Replica {
    /// Reply to the batch at `seq` once it prepared here: for each client,
    /// one `reply` listing its request ids (§3.3) and, right after it, at
    /// most one `replyx` bundle with a witness for each of its transactions
    /// this replica is designated for, in batch order.
    pub(crate) fn send_replies(&mut self, seq: SeqNum) {
        let (Some(exec), Some(txs)) = (self.batch_exec.get(&seq), self.ledger.tx_run(seq)) else {
            return;
        };
        let Some((pp, sig, nonce)) = self.own_share(seq) else {
            return;
        };
        let (view, replica) = (pp.view(), self.id);
        let mut per_client: BTreeMap<ClientId, (Vec<u64>, Vec<ReplyTx>)> = BTreeMap::new();
        for (pos, (tx, name)) in txs.iter().zip(&exec.names).enumerate() {
            let client = tx.request.request.client;
            if client == ClientId(0) {
                continue; // a system transaction
            }
            let (req_ids, witnesses) = per_client.entry(client).or_default();
            req_ids.push(tx.request.request.req_id);
            if self.is_designated(name) {
                witnesses.extend(witness(exec, pos as u64, tx));
            }
        }
        let mut out = Vec::with_capacity(2 * per_client.len());
        for (client, (req_ids, txs)) in per_client {
            let reply = Reply { view, seq, replica, sig, nonce, req_ids };
            out.push(Output::SendClient(client, ProtocolMsg::Reply(reply)));
            if !txs.is_empty() {
                let replyx = ReplyX { core: pp.core.clone(), primary_sig: pp.sig, txs };
                out.push(Output::SendClient(client, ProtocolMsg::ReplyX(replyx)));
            }
        }
        self.out.extend(out);
    }

    /// This replica's share in the quorum's word on the batch at `seq`, as
    /// its replies carry it: the prepared pre-prepare, and out of that
    /// pre-prepare's slot its own signature — the pre-prepare's if it was
    /// the primary, else its prepare's — and nonce. `None` until the batch
    /// prepares here: the nonce is revealed only then (Alg. 1 line 32).
    fn own_share(&self, seq: SeqNum) -> Option<(&PrePrepare, Signature, Nonce)> {
        let pp = self.prepared_pp(seq)?;
        let slot = self.msgs.slot(seq, pp.view())?;
        let sig =
            if pp.core.primary == self.id { pp.sig } else { slot.prepares.get(&self.id)?.sig };
        Some((pp, sig, slot.own_nonce?))
    }

    /// The designated replyx replica for a request: rank `H(t) mod N`
    /// ("chosen based on t", §3.3).
    pub(crate) fn is_designated(&self, tx_hash: &Digest) -> bool {
        let config = self.gov.active();
        let [b0, b1, b2, b3, b4, b5, b6, b7, ..] = tx_hash.0;
        let h = u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]);
        let rank = (h % config.n() as u64) as usize;
        config.replica_at_rank(rank).map(|r| r.id) == Some(self.id)
    }

    // ------------------------------------------------------------------
    // Governance receipts (§5.2).
    // ------------------------------------------------------------------

    /// The links a certified batch still in the window contributes to the
    /// governance sub-ledger (§5.2): a receipt per governance transaction,
    /// and the boundary receipt of the `P`-th end-of-configuration batch.
    /// Called once per carrier, by `close_batch`.
    pub(crate) fn gov_links(&self, cert: &BatchCertificate) -> Vec<GovLink> {
        let seq = cert.core.seq;
        let (Some(exec), Some(txs)) = (self.batch_exec.get(&seq), self.ledger.tx_run(seq)) else {
            return Vec::new();
        };
        let mut links = Vec::new();
        for (pos, (tx, name)) in txs.iter().zip(&exec.names).enumerate() {
            if !tx.request.is_governance() {
                continue;
            }
            let Some(path) = exec.tree.path(pos as u64) else {
                continue;
            };
            let body = ReceiptBody::Tx(TxWitness {
                tx_hash: *name,
                index: tx.index,
                result: tx.result.clone(),
                path,
            });
            let request = tx.request.clone();
            links.push(GovLink::GovTx { request, receipt: Receipt { cert: cert.clone(), body } });
        }
        if is_gov_boundary(cert.core.kind, self.config_for_seq(seq)) {
            let body = ReceiptBody::Batch { root_g: Digest::zero() };
            links.push(GovLink::Boundary { receipt: Receipt { cert: cert.clone(), body } });
        }
        links
    }

    /// Serve governance receipts from `from_index` on: a long-lived
    /// auditor that already verified the chain up to governance index
    /// `from_index` receives only the newer links, not the full chain.
    /// `from_index = 0` (a fresh client) still gets everything. A
    /// client's verified chain always ends sealed (its verification
    /// rejects a trailing unsealed referendum), so cutting at the first
    /// governance transaction past `from_index` never splits a
    /// referendum from its boundary.
    pub(crate) fn serve_gov_receipts(&mut self, client: ClientId, from_index: LedgerIdx) {
        let start = self
            .gov_chain
            .iter()
            .position(|l| l.receipt().tx_index().is_some_and(|i| i > from_index))
            .unwrap_or(self.gov_chain.len());
        let receipts = self.gov_chain[start..]
            .iter()
            .map(|l| match l {
                GovLink::GovTx { request, receipt } => {
                    (Some(request.clone()), receipt.clone())
                }
                GovLink::Boundary { receipt } => (None, receipt.clone()),
            })
            .collect();
        self.send_client(client, ProtocolMsg::GovReceipts { receipts });
    }

    /// Re-send reply + replyx for a committed transaction, the `replyx` a
    /// bundle of one: one locator lookup plus one path out of the batch's
    /// tree — O(log batch), not a scan over the retained batches.
    pub(crate) fn serve_receipt_refetch(&mut self, client: ClientId, tx_hash: Digest) {
        let Some((seq, pos, exec)) = self.batch_exec.locate(&tx_hash) else {
            return; // unknown or pruned past the retention window
        };
        if let Some((reply, replyx)) = self.assemble_refetch(seq, &exec, pos) {
            self.send_client(client, ProtocolMsg::Reply(reply));
            self.send_client(client, ProtocolMsg::ReplyX(replyx));
        }
    }

    /// Build the re-fetch response pair for the transaction at `pos` of
    /// the batch at `seq`.
    fn assemble_refetch(&self, seq: SeqNum, exec: &BatchExec, pos: u64) -> Option<(Reply, ReplyX)> {
        let tx = self.ledger.tx_at(seq, pos)?;
        let (pp, my_sig, nonce) = self.own_share(seq)?;
        let reply = Reply {
            view: pp.view(),
            seq,
            replica: self.id,
            sig: my_sig,
            nonce,
            req_ids: vec![tx.request.request.req_id],
        };
        let txs = vec![witness(exec, pos, tx)?];
        Some((reply, ReplyX { core: pp.core.clone(), primary_sig: pp.sig, txs }))
    }

    /// The seed's linear-scan re-fetch, preserved as the reference oracle
    /// for the differential tests (`tests/receipt_refetch_equiv.rs`):
    /// scan the executed batches in sequence order for the transaction
    /// and rebuild the reply pair from the prepared pre-prepare, the slot,
    /// the ledger entry at the pre-prepare's index plus one plus the
    /// position, and the tree directly, bypassing the locator, the
    /// ledger's run accessor and `own_share`. Returns the messages instead
    /// of sending them.
    #[doc(hidden)]
    pub fn refetch_oracle_linear(&self, tx_hash: Digest) -> Vec<ProtocolMsg> {
        let scan = || {
            let (seq, exec, pos) = self.batch_exec.range(..).find_map(|(seq, exec)| {
                Some((*seq, exec, exec.names.iter().position(|name| *name == tx_hash)?))
            })?;
            let pp = self.prepared_pp(seq)?;
            let (LedgerIdx(pp_at), _) = self.ledger.batch_span(seq)?;
            let Some(LedgerEntry::Tx(tx)) = self.ledger.entry(LedgerIdx(pp_at + 1 + pos as u64))
            else {
                return None;
            };
            let slot = self.msgs.slot(seq, pp.view())?;
            let mine = slot.prepares.get(&self.id).map(|p| p.sig);
            let sig = if pp.core.primary == self.id { pp.sig } else { mine? };
            let (nonce, req_ids) = (slot.own_nonce?, vec![tx.request.request.req_id]);
            let reply = Reply { view: pp.view(), seq, replica: self.id, sig, nonce, req_ids };
            let path = exec.tree.path(pos as u64)?;
            let (index, result) = (tx.index, tx.result.clone());
            let txs = vec![ReplyTx { req_id: tx.request.request.req_id, index, result, path }];
            let replyx = ReplyX { core: pp.core.clone(), primary_sig: pp.sig, txs };
            Some(vec![ProtocolMsg::Reply(reply), ProtocolMsg::ReplyX(replyx)])
        };
        scan().unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Fetch serving (recovery sync, evidence gap fill).
    // ------------------------------------------------------------------

    pub(crate) fn serve_evidence_fetch(&mut self, sender: ReplicaId, seq: SeqNum) {
        let Some(view) = self.prepared_view_of(seq) else {
            return;
        };
        let Some(slot) = self.msgs.slot(seq, view) else {
            return;
        };
        let prepares: Vec<Prepare> = slot.prepares.values().cloned().collect();
        let commits: Vec<Commit> = slot
            .commits
            .iter()
            .map(|(r, n)| Commit { view, seq, replica: *r, nonce: *n })
            .collect();
        self.send_replica(sender, ProtocolMsg::FetchEvidenceResponse { prepares, commits });
    }

    /// Serve one bounded page of the ledger suffix from `from_seq`
    /// (resumable state transfer; see [`crate::bootstrap`] for the
    /// requester-side state machine).
    ///
    /// Pages are cut at batch-segment boundaries so the continuation
    /// token stays a sequence number: whole segments (evidence pair,
    /// pre-prepare, `⟨t, i, o⟩` run, plus any inter-batch view-change
    /// entries preceding them) are appended until the budget is spent;
    /// the first segment is always included so every page makes progress.
    /// The budget is clamped to
    /// [`ia_ccf_types::messages::PAGE_CEILING_BYTES`], well under the
    /// 64 MiB frame limit, so a page response is never unframable — the
    /// seed's sender-side panic for oversized monolithic responses is no
    /// longer constructible on this path.
    ///
    /// A checkpoint-seeded server holds a *suffix* ledger — entries
    /// before its base (persisted on disk as the seed checkpoint plus
    /// suffix segments, see `ia_ccf_ledger::DurableLog::create_suffix`)
    /// read as `None` — so `fetch_start_pos` floors the page at the
    /// base: such a replica can serve its own suffix but never the
    /// pre-base prefix. Recoverees needing older history page from a
    /// full-history replica instead (the requester fails over on an
    /// empty page).
    pub(crate) fn serve_ledger_page(&mut self, sender: ReplicaId, from_seq: SeqNum, max_bytes: u64) {
        let budget =
            max_bytes.clamp(1, ia_ccf_types::messages::PAGE_CEILING_BYTES as u64);
        let len = self.ledger.len();
        let start = self.ledger.fetch_start_pos(from_seq);
        // Work is O(page), not O(remaining ledger): batch boundaries come
        // off a lazy range iterator and the page is cut from the bytes it
        // sends — each segment is encoded once and kept if it fits, so
        // only the segment that overflows the budget is encoded in vain.
        let mut entries = Vec::new();
        let mut cut = start;
        let mut total = 0u64;
        let mut next_seq = from_seq;
        let mut done = true;
        {
            let mut seqs = self.ledger.batch_seqs_iter(from_seq).peekable();
            while let Some(s) = seqs.next() {
                let seg_end = match seqs.peek() {
                    Some(next) => self.ledger.fetch_start_pos(*next),
                    None => len,
                };
                let segment = self.ledger.encode_range(LedgerIdx(cut), LedgerIdx(seg_end));
                let seg_bytes: u64 = segment.iter().map(|e| e.len() as u64 + 4).sum();
                if cut > start && total + seg_bytes > budget {
                    next_seq = s;
                    done = false;
                    break;
                }
                entries.extend(segment);
                total += seg_bytes;
                cut = seg_end;
                next_seq = s.next();
            }
        }
        if done {
            // Everything fit: include any trailing non-batch entries; the
            // final token is the next-to-assign sequence number (or the
            // request's own token when nothing was served).
            entries.extend(self.ledger.encode_range(LedgerIdx(cut), LedgerIdx(len)));
        }
        self.send_replica(sender, ProtocolMsg::FetchLedgerPageResponse { entries, next_seq, done });
    }

    /// Answer a [`ProtocolMsg::FetchLedgerTip`]: the committed frontier
    /// this replica vouches for, plus the pin of its newest *offerable*
    /// checkpoint (see [`Replica::offerable_checkpoint`]), if any.
    /// Recovering replicas collect `f + 1` of these to pin both a tip
    /// floor and, when the claims agree, a checkpoint fast-path.
    pub(crate) fn serve_ledger_tip(&mut self, sender: ReplicaId) {
        let tip = self.committed_up_to;
        let offer = self.offerable_checkpoint().map(CheckpointRecord::pin);
        self.send_replica(sender, ProtocolMsg::LedgerTipResponse { tip, offer });
    }

    /// The newest checkpoint this replica may offer a recoveree: its
    /// digest must have been agreed in-band (the mark batch at `seq + C`
    /// has committed), and the history must still be governed by the
    /// genesis configuration with no governance receipts to hand over —
    /// a checkpoint-seeded replica starts from a suffix and cannot
    /// reconstruct either, so reconfigured or governed histories fall
    /// back to full replay.
    pub(crate) fn offerable_checkpoint(&self) -> Option<&CheckpointRecord> {
        // An empty chain is a governance-free history up to any checkpoint
        // offered below: one sits at least `C` batches behind the commit
        // frontier and `C > P` (`Configuration::validate`), so the carrier
        // of a governance batch at or below it is in the ledger, and the
        // batch linked.
        if !self.gov_chain.is_empty() || self.config_first_seq.iter().count() > 1 {
            return None;
        }
        // The newest checkpoint whose mark batch (at `seq + C`) has
        // committed — a younger one exists but its digest is not yet
        // agreed in-band, so it must not be offered.
        let c = self.checkpoint_interval();
        let agreed_floor = SeqNum(self.committed_up_to.0.saturating_sub(c));
        let latest = self.checkpoints.latest_at_or_before(agreed_floor)?;
        (latest.seq.0 > 0).then_some(latest)
    }

    /// Answer a [`ProtocolMsg::FetchCheckpoint`]: the KV snapshot, the
    /// ledger-tree frontier, and the checkpoint batch's own
    /// `[pre-prepare, tx*]` seed entries — or no payload, an honest
    /// refusal (the record aged out or is not offerable), on which the
    /// requester falls back to paging from genesis.
    pub(crate) fn serve_checkpoint_fetch(&mut self, sender: ReplicaId, seq: SeqNum) {
        let payload = self.offerable_checkpoint().filter(|r| r.seq == seq).and_then(|record| {
            // The record's prefix ends just before the checkpoint batch's
            // own entries; the seed spans that pre-prepare and its tx run.
            let (start, end) = self.ledger.batch_span(seq)?;
            // Suffix no longer in this ledger (shouldn't happen for an
            // offerable record) — refuse rather than mis-seed.
            if start.0 != record.ledger_len {
                return None;
            }
            Some(record.payload(self.ledger.encode_range(start, end)))
        });
        self.send_replica(sender, ProtocolMsg::FetchCheckpointResponse { seq, payload });
    }
}

/// The `replyx` witness for `tx`, the transaction at `pos` of the batch
/// `exec`; `None` if the batch's tree holds no such leaf. Leaves were
/// appended in transaction order, so the position in the batch is the
/// leaf position.
fn witness(exec: &BatchExec, pos: u64, tx: &TxLedgerEntry) -> Option<ReplyTx> {
    Some(ReplyTx {
        req_id: tx.request.request.req_id,
        index: tx.index,
        result: tx.result.clone(),
        path: exec.tree.path(pos)?,
    })
}

/// Whether a batch of `kind` seals a configuration in the governance
/// sub-ledger: the `P`-th end-of-configuration batch of `config` (§5.2).
fn is_gov_boundary(kind: BatchKind, config: &Configuration) -> bool {
    matches!(kind, BatchKind::EndOfConfig { phase } if phase == config.pipeline_depth)
}
