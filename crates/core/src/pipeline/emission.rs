//! Pipeline stage 4 — emission (Alg. 1 lines 34–38, §3.3, §5.2).
//!
//! Everything that leaves the replica for clients once a batch prepares
//! or commits: one `reply` per client per batch listing its request ids,
//! the result-carrying `replyx` from the designated replica (rank
//! `H(t) mod N`), governance receipts chained for auditors (§5.2), and
//! the fetch-serving paths (receipt re-fetch, evidence, ledger ranges)
//! that let slow clients and recovering replicas catch up.
//!
//! It reads executed batches from [`crate::pipeline::exec_window`]: they
//! are shared behind `Arc`, authentication paths are served by each
//! batch's tree `G`, and re-fetch locates its transaction
//! through the `tx_hash → (seq, pos)` index instead of a linear scan.
//! A governance batch's certificate is assembled once, when it commits,
//! and lives on in the governance-chain links built from it.

use std::collections::BTreeMap;
use std::sync::Arc;

use ia_ccf_governance::chain::GovLink;
use ia_ccf_types::{
    BatchCertificate, BatchKind, ClientId, Commit, Configuration, Digest, LedgerEntry, LedgerIdx,
    Nonce, PrePrepare, Prepare, ProtocolMsg, Receipt, ReceiptBody, Reply, ReplyX, ReplicaId,
    SeqNum, Signature, TxWitness, View,
};

use crate::checkpoint::CheckpointRecord;
use crate::pipeline::BatchExec;
use crate::replica::Replica;

impl Replica {
    pub(crate) fn send_replies(&mut self, seq: SeqNum, view: View) {
        let Some(exec) = self.batch_exec.get(&seq) else {
            return;
        };
        let Some((pp, my_sig, nonce)) = self.own_share(seq, view) else {
            return;
        };
        let (pp, exec) = (pp.clone(), Arc::clone(exec));

        // One reply per client per batch, listing that client's request
        // ids (§3.3).
        let mut per_client: BTreeMap<ClientId, Vec<u64>> = BTreeMap::new();
        for et in &exec.txs {
            if et.client == ClientId(0) {
                continue; // system transaction
            }
            let req_id = self
                .req_store
                .get(&et.request_digest)
                .map(|r| r.request.req_id)
                .unwrap_or(0);
            per_client.entry(et.client).or_default().push(req_id);
        }
        for (client, req_ids) in per_client {
            self.send_client(
                client,
                ProtocolMsg::Reply(Reply {
                    view,
                    seq,
                    replica: self.id,
                    sig: my_sig,
                    nonce,
                    req_ids,
                }),
            );
        }
        for (pos, et) in exec.txs.iter().enumerate() {
            if et.client == ClientId(0) {
                continue;
            }
            if self.is_designated(&et.request_digest) {
                // Leaves were appended in tx order, so the enumeration
                // index IS the leaf position.
                let path = exec.path(pos as u64).expect("leaf exists");
                self.send_client(
                    et.client,
                    ProtocolMsg::ReplyX(ReplyX {
                        core: pp.core.clone(),
                        primary_sig: pp.sig,
                        tx_hash: et.request_digest,
                        index: et.index,
                        result: et.result.clone(),
                        path,
                    }),
                );
            }
        }
    }

    /// This replica's share in the quorum's word on `(seq, view)`, as its
    /// replies carry it: the batch's pre-prepare, its own signature — the
    /// pre-prepare's if it was the primary, else its prepare's — and nonce.
    fn own_share(&self, seq: SeqNum, view: View) -> Option<(&PrePrepare, Signature, Nonce)> {
        let slot = self.msgs.slot(seq, view)?;
        let (pp, _) = slot.pp.as_ref()?;
        let sig =
            if pp.core.primary == self.id { pp.sig } else { slot.prepares.get(&self.id)?.sig };
        Some((pp, sig, *self.my_nonces.get(&(view.0, seq.0))?))
    }

    /// The designated replyx replica for a request: rank `H(t) mod N`
    /// ("chosen based on t", §3.3).
    pub(crate) fn is_designated(&self, tx_hash: &Digest) -> bool {
        let config = self.gov.active();
        let rank = (u64::from_le_bytes(tx_hash.as_ref()[..8].try_into().unwrap())
            % config.n() as u64) as usize;
        config.replica_at_rank(rank).map(|r| r.id) == Some(self.id)
    }

    // ------------------------------------------------------------------
    // Governance receipts (§5.2).
    // ------------------------------------------------------------------

    /// The batch certificate for a committed batch — the same data clients
    /// assemble from replies — out of the message store: the lowest-ranked
    /// quorum's shares, assembled by `certificate_for`.
    pub fn build_batch_certificate(&self, seq: SeqNum, view: View) -> Option<BatchCertificate> {
        self.certificate_for(seq, view, None)
    }

    /// The links a certified batch contributes to the governance
    /// sub-ledger (§5.2): a receipt per governance transaction, and the
    /// boundary receipt of the `P`-th end-of-configuration batch.
    pub(crate) fn gov_links(&self, exec: &BatchExec, cert: &BatchCertificate) -> Vec<GovLink> {
        let mut links = Vec::new();
        for (pos, et) in exec.txs.iter().enumerate().filter(|(_, et)| et.is_governance) {
            let Some(request) = self.req_store.get(&et.request_digest).cloned() else {
                continue;
            };
            let body = ReceiptBody::Tx(TxWitness {
                tx_hash: et.request_digest,
                index: et.index,
                result: et.result.clone(),
                path: exec.path(pos as u64).expect("leaf exists"),
            });
            links.push(GovLink::GovTx { request, receipt: Receipt { cert: cert.clone(), body } });
        }
        if is_gov_boundary(exec.kind, self.config_for_seq(cert.core.seq)) {
            let body = ReceiptBody::Batch { root_g: Digest::zero() };
            links.push(GovLink::Boundary { receipt: Receipt { cert: cert.clone(), body } });
        }
        links
    }

    pub(crate) fn build_gov_receipts(&mut self, seq: SeqNum, view: View) {
        let Some(exec) = self.batch_exec.get(&seq).map(Arc::clone) else {
            return;
        };
        if !exec.txs.iter().any(|t| t.is_governance)
            && !is_gov_boundary(exec.kind, self.config_for_seq(seq))
        {
            return;
        }
        let Some(cert) = self.build_batch_certificate(seq, view) else {
            // Deferred until the missing commit nonce arrives.
            if !self.pending_gov_receipts.contains(&(seq, view)) {
                self.pending_gov_receipts.push((seq, view));
            }
            return;
        };
        for link in self.gov_links(&exec, &cert) {
            self.insert_gov_link(link);
        }
    }

    /// Insert a governance link keeping the chain in ledger order (deferred
    /// certificates can complete out of order).
    pub(crate) fn insert_gov_link(&mut self, link: GovLink) {
        let key = |l: &GovLink| {
            let r = l.receipt();
            (r.seq(), r.tx_index().map(|i| i.0).unwrap_or(u64::MAX))
        };
        let k = key(&link);
        if self.gov_chain.iter().any(|l| key(l) == k) {
            return; // already present (retry after partial completion)
        }
        let pos = self.gov_chain.partition_point(|l| key(l) <= k);
        self.gov_chain.insert(pos, link);
    }

    /// Retry deferred governance receipts (called when new commits arrive).
    pub(crate) fn retry_pending_gov_receipts(&mut self) {
        if self.pending_gov_receipts.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending_gov_receipts);
        for (seq, view) in pending {
            self.build_gov_receipts(seq, view);
        }
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

    /// Re-send reply + replyx for a committed transaction: one locator
    /// lookup plus one path out of the batch's tree — O(log batch), not a
    /// scan over the retained batches.
    pub(crate) fn serve_receipt_refetch(&mut self, client: ClientId, tx_hash: Digest) {
        let Some((seq, pos, exec)) = self.batch_exec.locate(&tx_hash) else {
            return; // unknown or pruned past the retention window
        };
        if let Some((reply, replyx)) = self.assemble_refetch(seq, &exec, pos, tx_hash) {
            self.send_client(client, ProtocolMsg::Reply(reply));
            self.send_client(client, ProtocolMsg::ReplyX(replyx));
        }
    }

    /// Build the re-fetch response pair for the transaction at `pos` of
    /// the batch at `seq`.
    fn assemble_refetch(
        &self,
        seq: SeqNum,
        exec: &BatchExec,
        pos: u64,
        tx_hash: Digest,
    ) -> Option<(Reply, ReplyX)> {
        let et = &exec.txs[pos as usize];
        let view = exec.view;
        let (pp, my_sig, nonce) = self.own_share(seq, view)?;
        let reply = Reply {
            view,
            seq,
            replica: self.id,
            sig: my_sig,
            nonce,
            req_ids: vec![self
                .req_store
                .get(&tx_hash)
                .map(|r| r.request.req_id)
                .unwrap_or(0)],
        };
        let replyx = ReplyX {
            core: pp.core.clone(),
            primary_sig: pp.sig,
            tx_hash,
            index: et.index,
            result: et.result.clone(),
            path: exec.path(pos).expect("leaf exists"),
        };
        Some((reply, replyx))
    }

    /// The seed's linear-scan re-fetch, preserved verbatim as the
    /// reference oracle for the differential tests
    /// (`tests/receipt_refetch_equiv.rs`): scan the executed batches in
    /// sequence order for the transaction and rebuild the reply pair from
    /// the tree directly, bypassing the locator.
    /// Returns the messages instead of sending them.
    #[doc(hidden)]
    pub fn refetch_oracle_linear(&self, tx_hash: Digest) -> Vec<ProtocolMsg> {
        for (seq, exec) in self.batch_exec.range(..) {
            if let Some(pos) = exec.txs.iter().position(|t| t.request_digest == tx_hash) {
                let et = &exec.txs[pos];
                let view = exec.view;
                let Some(slot) = self.msgs.slot(*seq, view) else {
                    return Vec::new();
                };
                let Some((pp, _)) = slot.pp.as_ref() else {
                    return Vec::new();
                };
                let my_sig = if pp.core.primary == self.id {
                    pp.sig
                } else {
                    match slot.prepares.get(&self.id) {
                        Some(p) => p.sig,
                        None => return Vec::new(),
                    }
                };
                let Some(nonce) = self.my_nonces.get(&(view.0, seq.0)).copied() else {
                    return Vec::new();
                };
                let reply = Reply {
                    view,
                    seq: *seq,
                    replica: self.id,
                    sig: my_sig,
                    nonce,
                    req_ids: vec![self
                        .req_store
                        .get(&tx_hash)
                        .map(|r| r.request.req_id)
                        .unwrap_or(0)],
                };
                let replyx = ReplyX {
                    core: pp.core.clone(),
                    primary_sig: pp.sig,
                    tx_hash,
                    index: et.index,
                    result: et.result.clone(),
                    path: exec.tree.path(pos as u64).expect("leaf exists"),
                };
                return vec![ProtocolMsg::Reply(reply), ProtocolMsg::ReplyX(replyx)];
            }
        }
        Vec::new()
    }

    // ------------------------------------------------------------------
    // Fetch serving (recovery sync, evidence gap fill).
    // ------------------------------------------------------------------

    pub(crate) fn serve_evidence_fetch(&mut self, sender: ReplicaId, seq: SeqNum) {
        let Some(&view) = self.prepared_view.get(&seq) else {
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
        if !self.gov_chain.is_empty() || self.config_first_seq.len() != 1 {
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
            let start = record.ledger_len;
            let pp_here = matches!(
                self.ledger.entry(LedgerIdx(start)),
                Some(LedgerEntry::PrePrepare(pp)) if pp.seq() == seq
            );
            // Suffix no longer in this ledger (shouldn't happen for an
            // offerable record) — refuse rather than mis-seed.
            if !pp_here {
                return None;
            }
            let mut end = start + 1;
            while matches!(self.ledger.entry(LedgerIdx(end)), Some(LedgerEntry::Tx(_))) {
                end += 1;
            }
            Some(record.payload(self.ledger.encode_range(LedgerIdx(start), LedgerIdx(end))))
        });
        self.send_replica(sender, ProtocolMsg::FetchCheckpointResponse { seq, payload });
    }
}

/// Whether a batch of `kind` seals a configuration in the governance
/// sub-ledger: the `P`-th end-of-configuration batch of `config` (§5.2).
fn is_gov_boundary(kind: BatchKind, config: &Configuration) -> bool {
    matches!(kind, BatchKind::EndOfConfig { phase } if phase == config.pipeline_depth)
}
