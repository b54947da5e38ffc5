//! Pipeline stage 2 — ordering (Alg. 1 lines 4–33).
//!
//! The consensus core: the primary assembles batches and sends
//! pre-prepares (`sendPrePrepare`, line 4), backups validate and
//! early-execute them (`receivePrePrepare`, line 15), prepares advance
//! the prepared frontier (`batchPrepared`, line 30), and revealed commit
//! nonces advance the committed frontier (line 39). Commitment evidence
//! (`P_{s−P}`, `K_{s−P}`) for the batch `P` earlier is built here and
//! ordered into the ledger by the primary (§3.1), so every replica's
//! ledger stays byte-identical.
//!
//! Ledger writes are batch-amortized: the evidence pair and the
//! pre-prepare-plus-transactions segment each go through one
//! [`ia_ccf_ledger::Ledger::append_batch`] reservation per batch instead
//! of one append per entry.

use std::collections::BTreeMap;

use ia_ccf_ledger::validity::{signed_by_view_primary, verify_replica_payload};
use ia_ccf_types::{
    evidence_target, lowest_ranked_quorum, BatchCertificate, BatchKind, Commit, Digest,
    LedgerEntry, Nonce, PrePrepare, PrePrepareCore, Prepare, ProtocolMsg, PublicKey, ReplicaBitmap,
    ReplicaId, RequestAction, SeqNum, Signature, SignedRequest, SystemOp, TxLedgerEntry, View,
};

use crate::pipeline::execution::{BatchExec, BatchMark, ExecError};
use crate::replica::Replica;

/// Ticks the primary waits before flushing a partial batch.
const BATCH_DELAY_TICKS: u64 = 1;

/// The commitment evidence a pre-prepare orders in for the batch at `seq`:
/// `P_s` and `K_s` (`E_s` rides in the pre-prepare itself). Built only by
/// expanding a certificate or by reading a ledger segment.
#[derive(Debug, Clone)]
pub(crate) struct EvidenceSet {
    pub seq: SeqNum,
    pub prepares: Vec<Prepare>,
    pub nonces: Vec<Nonce>,
}

/// What [`Replica::apply_proposed`] has yet to establish about the
/// signatures on a batch's requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RequestSigs {
    /// Nothing: each one the request pool holds no fact for is checked
    /// now, on the worker pool, while the batch executes.
    Verify,
    /// The batch is read out of a ledger, whose evidence entries say a
    /// quorum prepared it — having checked them at their batch time.
    /// (Whether a reader takes that on trust is ROADMAP item 5's question.)
    CheckedByQuorum,
}

/// Why [`Replica::apply_proposed`] refused a batch: `M̄` after the evidence
/// append or the re-executed `Ḡ` is not the signed one, a request's
/// signature did not verify, or the kind rules or execution said no.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Refused {
    RootM,
    RootG,
    ForgedRequest,
    Exec(ExecError),
}

/// The checkpoint `req` marks, when it is a checkpoint mark.
fn marked_checkpoint(req: &SignedRequest) -> Option<SeqNum> {
    match &req.request.action {
        RequestAction::System(SystemOp::CheckpointMark { checkpoint_seq, .. }) => {
            Some(*checkpoint_seq)
        }
        _ => None,
    }
}

impl Replica {
    // ------------------------------------------------------------------
    // Primary: sendPrePrepare (Alg. 1 line 4).
    // ------------------------------------------------------------------

    pub(crate) fn maybe_send_pre_prepare(&mut self) {
        loop {
            let seq = self.seq_next;
            let p = self.pipeline_depth();
            // Evidence gate: pp at `s` needs the batch at `s − P` committed
            // and its certificate on hand — asked here, before a request
            // leaves the queue, of what `send_batch` will order in.
            if seq.0 > p
                && (self.committed_up_to.0 < seq.0 - p
                    || self.evidence_for(SeqNum(seq.0 - p), None).is_none())
            {
                return;
            }
            // Reconfiguration batches take priority (§5.1).
            if self.reconfig_pending() {
                if !self.try_send_reconfig_batch() {
                    return;
                }
                continue;
            }
            // Checkpoint batches at multiples of C (digest of cp at s − C).
            if let Some(target) = self.mark_target(seq) {
                if !self.send_mark_batch(seq, target) {
                    return;
                }
                continue;
            }
            // Regular batch: need requests and either a full batch or an
            // expired batch timer.
            let (eligible, requests) =
                self.requests.take_batch(self.params.batch_max, self.next_tx_index);
            if eligible.is_empty() {
                return;
            }
            let full = eligible.len() >= self.params.batch_max;
            let timer_ok = self.tick.saturating_sub(self.last_pp_tick) >= BATCH_DELAY_TICKS;
            if !full && !timer_ok {
                // Put them back; wait for more.
                self.requests.put_back(eligible, requests);
                return;
            }
            let rejected = self.ensure_batch_verified(&requests, &eligible);
            if !rejected.is_empty() {
                // Drop the forged requests — whatever their class — and
                // retry with the valid remainder, back at the head of the
                // queue in its order.
                let (names, bodies) = eligible
                    .into_iter()
                    .zip(requests)
                    .filter(|(digest, _)| !rejected.contains(digest))
                    .unzip();
                self.requests.put_back(names, bodies);
                continue;
            }
            // Cross-batch overlap: the current batch's signatures are
            // verified; start the pool on the next batch's (the queue
            // head) before execution occupies this thread.
            self.prewarm_next_batch_verify();
            if !self.send_batch(seq, BatchKind::Regular, requests, eligible, None) {
                return;
            }
        }
    }

    /// The checkpoint a mark batch at `seq` names, where the send loop
    /// proposes one: the switch point at the reconfiguration schedule's
    /// checkpoint slot, else `seq − C` for `seq` a multiple of `C` and at
    /// least `2C`. `None` anywhere else, a reconfiguration slot included.
    fn mark_target(&self, seq: SeqNum) -> Option<SeqNum> {
        if let Some(rc) = &self.reconfig {
            if let Some(kind) = rc.expected_kind(seq) {
                return (kind == BatchKind::Checkpoint).then(|| rc.switch_seq());
            }
        }
        let c = self.checkpoint_interval();
        (seq.0.is_multiple_of(c) && seq.0 >= 2 * c).then(|| SeqNum(seq.0 - c))
    }

    /// Send the checkpoint batch at `seq`: one system transaction marking
    /// the digest of the checkpoint at `checkpoint_seq` — `seq − C` on
    /// the regular schedule, the switch point during a reconfiguration.
    /// `false` (wait) until that checkpoint's digest is known.
    pub(crate) fn send_mark_batch(&mut self, seq: SeqNum, checkpoint_seq: SeqNum) -> bool {
        let Some(record) = self.checkpoints.at(checkpoint_seq) else {
            return false;
        };
        let (kv_digest, tree_root) = (record.kv.digest(), record.frontier.root());
        let mark = SignedRequest::system(
            SystemOp::CheckpointMark { checkpoint_seq, kv_digest, tree_root },
            self.gt_hash,
        );
        let digest = mark.digest();
        self.send_batch(seq, BatchKind::Checkpoint, vec![mark], vec![digest], None)
    }

    /// Assemble, early-execute, log and broadcast the batch at `seq`.
    /// `batch_hashes[i]` is `requests[i]`'s digest (its request pool key).
    /// A batch that is not sent hands its requests back to the pool.
    pub(crate) fn send_batch(
        &mut self,
        seq: SeqNum,
        kind: BatchKind,
        requests: Vec<SignedRequest>,
        batch_hashes: Vec<Digest>,
        committed_root: Option<Digest>,
    ) -> bool {
        let view = self.view;
        // §3.1: the pre-prepare at `s > P` orders in the quorum's word on
        // `s − P`. Backups refuse one without it, so until that certificate
        // assembles the primary waits, as on a min-index race.
        let p = self.pipeline_depth();
        let mut carried = None;
        if seq.0 > p {
            let Some(found) = self.evidence_for(SeqNum(seq.0 - p), None) else {
                self.requests.put_back(batch_hashes, requests);
                return false;
            };
            carried = Some(found);
        }
        let (evidence_seq, evidence_bitmap) = match &carried {
            Some((cert, _)) => (cert.core.seq, cert.signers),
            None => (SeqNum(0), ReplicaBitmap::empty()),
        };
        let mark = self.open_batch(seq, carried.map(|(_, evidence)| evidence));

        let exec = match self.execute_batch(seq, kind, &requests, &batch_hashes) {
            Ok(exec) => exec,
            Err(_) => {
                // A correct primary only fails here on min-index races;
                // roll back and retry later.
                self.rollback_batch(seq, &mark);
                self.requests.put_back(batch_hashes, requests);
                return false;
            }
        };

        let root_m = self.ledger.root_m();
        let nonce = Nonce::random(&mut self.rng);
        self.msgs.set_own_nonce(seq, view, nonce);
        let core = PrePrepareCore {
            view,
            seq,
            root_m,
            nonce_commit: nonce.commitment(),
            evidence_seq,
            evidence_bitmap,
            gov_index: self.last_gov_index,
            checkpoint_digest: self.receipt_checkpoint_digest(seq),
            kind,
            committed_root,
            primary: self.id,
        };
        // An honest primary never proposes what the carrier clause refuses.
        debug_assert!(evidence_target(&core, p).is_ok(), "{core:?}");
        let root_g = exec.tree.root();
        let sig = self.sign_replica_payload(&PrePrepare::signing_payload(&core, &root_g));
        let pp = PrePrepare { core, root_g, sig };

        self.close_batch(pp.clone(), batch_hashes.clone(), requests, exec, mark);
        self.last_pp_tick = self.tick;
        self.broadcast(ProtocolMsg::PrePrepare { pp, batch: batch_hashes });
        // With a single replica (N = 1) the batch prepares immediately.
        self.try_advance_prepared();
        self.try_advance_committed();
        true
    }

    // ------------------------------------------------------------------
    // A batch enters the ledger: open → execute → close. The primary signs
    // in between; a backup and ledger replay go through `apply_proposed`.
    // ------------------------------------------------------------------

    /// Open the batch at `seq`: take its rollback marks (the KV store's
    /// and the replica's), then append the evidence pair (`P_{s−P}`,
    /// `K_{s−P}`) as one ledger segment write.
    fn open_batch(&mut self, seq: SeqNum, evidence: Option<EvidenceSet>) -> BatchMark {
        self.kv.begin_batch(seq.0);
        let mark = BatchMark {
            ledger_len_before: self.ledger.len(),
            tx_index_before: self.next_tx_index,
            gov_index_before: self.last_gov_index,
            gov_before: std::sync::Arc::clone(&self.gov_snapshot),
        };
        if let Some(ev) = evidence {
            self.ledger.append_batch(vec![
                LedgerEntry::Evidence { seq: ev.seq, prepares: ev.prepares },
                LedgerEntry::Nonces { seq: ev.seq, nonces: ev.nonces },
            ]);
        }
        mark
    }

    /// Close an executed batch: append its pre-prepare and `⟨t, i, o⟩`
    /// entries as one ledger segment write (one reservation per batch,
    /// §3.4) and record what a replica keeps about a batch in its ledger:
    /// the ledger holds the pre-prepare, the message store the digest its
    /// prepares are matched against.
    fn close_batch(
        &mut self,
        pp: PrePrepare,
        names: Vec<Digest>,
        requests: Vec<SignedRequest>,
        exec: BatchExec,
        mark: BatchMark,
    ) {
        let (seq, view, kind, pp_digest) = (pp.seq(), pp.view(), pp.core.kind, pp.digest());
        let mut entries = Vec::with_capacity(1 + requests.len());
        entries.push(LedgerEntry::PrePrepare(pp));
        for (req, et) in requests.into_iter().zip(&exec.txs) {
            entries.push(LedgerEntry::Tx(TxLedgerEntry {
                request: req,
                index: et.index,
                result: et.result.clone(),
            }));
        }
        self.ledger.append_batch(entries);
        self.requests.appended(&names);
        self.batch_exec.insert(seq, exec);
        self.batch_marks.insert(seq, mark);
        self.msgs.set_pp_digest(seq, view, pp_digest);
        self.seq_next = seq.next();
        self.post_append_reconfig(seq, kind);
    }

    /// Take a batch somebody else proposed — live, or through a ledger —
    /// into this replica's ledger (`receivePrePrepare`, Alg. 1 line 15,
    /// past its network half): append the evidence, compare `M̄`, apply the
    /// kind rules, execute, compare `Ḡ`, log the batch. **Atomic**: a
    /// refused batch is rolled back to its mark first, and its names and
    /// bodies are handed back to the caller. `names[i]` is `requests[i]`'s
    /// digest; the caller has checked `pp`'s signature.
    pub(crate) fn apply_proposed(
        &mut self,
        pp: PrePrepare,
        names: Vec<Digest>,
        requests: Vec<SignedRequest>,
        evidence: Option<EvidenceSet>,
        sigs: RequestSigs,
    ) -> Result<(), (Vec<Digest>, Vec<SignedRequest>)> {
        let mark = self.open_batch(pp.seq(), evidence);
        match self.execute_proposed(&pp, &names, &requests, sigs) {
            Ok(exec) => {
                self.close_batch(pp, names, requests, exec, mark);
                Ok(())
            }
            Err(why) => {
                self.debug_reject(&pp, &format!("{why:?}"));
                self.rollback_batch(pp.seq(), &mark);
                Err((names, requests))
            }
        }
    }

    /// The checks between open and close (the caller rolls back).
    fn execute_proposed(
        &mut self,
        pp: &PrePrepare,
        names: &[Digest],
        requests: &[SignedRequest],
        sigs: RequestSigs,
    ) -> Result<BatchExec, Refused> {
        // The primary's M̄ was computed after the evidence append.
        if self.ledger.root_m() != pp.core.root_m {
            return Err(Refused::RootM);
        }
        // Kind-specific validation before execution.
        self.validate_batch_kind(pp, requests).map_err(Refused::Exec)?;

        // Pipelined verify-while-execute: hand this batch's signature
        // checks to the worker pool, start verifying the *next* stashed
        // pre-prepare's signatures too (cross-batch overlap), and execute
        // the batch on this thread meanwhile. Safe because signature
        // validity is a pure function of the request bytes: if any
        // signature turns out bad, the already-executed batch rolls back
        // through its mark — the same path a root mismatch takes.
        let verify = match sigs {
            RequestSigs::Verify => {
                let verify = self.start_batch_verify(requests, names);
                self.prewarm_next_batch_verify();
                Some(verify)
            }
            RequestSigs::CheckedByQuorum => None,
        };
        let exec = self.execute_batch(pp.seq(), pp.core.kind, requests, names);
        if verify.is_some_and(|v| !self.finish_batch_verify(v).is_empty()) {
            // A correct primary never includes a forged request.
            return Err(Refused::ForgedRequest);
        }
        let exec = exec.map_err(Refused::Exec)?;
        // Early-execution agreement: the roots must match (Alg. 1 line 22).
        if exec.tree.root() != pp.root_g {
            return Err(Refused::RootG);
        }
        Ok(exec)
    }

    // ------------------------------------------------------------------
    // Backup: receivePrePrepare (Alg. 1 line 15).
    // ------------------------------------------------------------------

    /// `proven`: the key this pre-prepare's signature was proven under
    /// when it was stashed (see [`signed_by_view_primary`]); `None` off
    /// the wire.
    pub(crate) fn on_pre_prepare(
        &mut self,
        sender: ReplicaId,
        pp: PrePrepare,
        batch: Vec<Digest>,
        proven: Option<PublicKey>,
    ) {
        let config = self.gov.active().clone();
        if config.primary_of(self.view) == self.id {
            return; // primaries don't take pre-prepares
        }
        if pp.view() != self.view {
            return;
        }
        if pp.core.primary != sender || config.primary_of(pp.view()) != sender {
            return;
        }
        if pp.seq() != self.seq_next {
            // Out of order: stash future, ignore past.
            if pp.seq() > self.seq_next {
                self.stash_pp(pp, batch, None);
            }
            return;
        }
        if self.msgs.slot(pp.seq(), pp.view()).is_some_and(|s| s.own_nonce.is_some()) {
            return; // already prepared this slot in this view
        }
        // Signature check (parallelizable; sequential here, the sim layers
        // batching where it matters), then the carrier clause: evidence for
        // any batch but `s − P`, or none above `P`, is dropped like a bad
        // signature.
        if !signed_by_view_primary(&config, &pp, proven.as_ref()) {
            return;
        }
        // A stash below keeps the key, so the retry does not check again.
        let proven = config.replica_key(pp.core.primary).copied();
        let Ok(target) = evidence_target(&pp.core, self.pipeline_depth()) else {
            return;
        };
        // hasRequests: all bodies present?
        let missing: Vec<Digest> =
            batch.iter().filter(|h| self.request_body(h).is_none()).copied().collect();
        if !missing.is_empty() {
            self.send_replica(sender, ProtocolMsg::FetchRequests { hashes: missing });
            self.stash_pp(pp, batch, proven);
            return;
        }
        // hasEvidence (Alg. 1 line 17): the certificate the bitmap names,
        // out of this replica's own verified messages, held to Alg. 3
        // before anything is appended.
        let mut evidence = None;
        if let Some(target) = target {
            let Some((cert, pair)) = self.evidence_for(target, Some(pp.core.evidence_bitmap))
            else {
                // A listed share is missing or its nonce does not open:
                // fetch from the primary, which is guaranteed to have the
                // messages (§3.1).
                self.send_replica(sender, ProtocolMsg::FetchEvidence { seq: target });
                self.stash_pp(pp, batch, proven);
                return;
            };
            if cert.check_shape(self.config_for_seq(target)).is_err() {
                return;
            }
            evidence = Some(pair);
        }

        self.accept_pre_prepare(pp, batch, evidence);
    }

    /// The backup's half of `receivePrePrepare` past the network checks:
    /// take the batch into the ledger, then commit to a nonce and prepare.
    fn accept_pre_prepare(
        &mut self,
        pp: PrePrepare,
        batch: Vec<Digest>,
        evidence: Option<EvidenceSet>,
    ) {
        let (seq, view, pp_digest) = (pp.seq(), pp.view(), pp.digest());
        // Bodies move out of the pool. One named twice in the batch, or
        // ordered here before, is copied from where it is held.
        let mut requests: Vec<SignedRequest> = Vec::with_capacity(batch.len());
        for (i, h) in batch.iter().enumerate() {
            let body = match self.requests.take(h) {
                Some(body) => body,
                None => batch[..i]
                    .iter()
                    .position(|d| d == h)
                    .map(|j| requests[j].clone())
                    .or_else(|| self.request_body(h).cloned())
                    .expect("hasRequests found every body"),
            };
            requests.push(body);
        }
        if let Err((names, requests)) =
            self.apply_proposed(pp, batch, requests, evidence, RequestSigs::Verify)
        {
            self.requests.put_back(names, requests);
            return;
        }

        let nonce = Nonce::random(&mut self.rng);
        self.msgs.set_own_nonce(seq, view, nonce);
        let payload =
            Prepare::signing_payload(view, seq, self.id, &nonce.commitment(), &pp_digest);
        let prepare = Prepare {
            view,
            seq,
            replica: self.id,
            nonce_commit: nonce.commitment(),
            pp_digest,
            sig: self.sign_replica_payload(&payload),
        };
        self.msgs.put_prepare(prepare.clone());
        self.note_progress();
        self.broadcast(ProtocolMsg::Prepare(prepare));
        self.try_advance_prepared();
        self.try_advance_committed();
        self.retry_stashed();
    }

    /// Kind-specific checks a backup applies before executing (§3.4, §5.1).
    fn validate_batch_kind(
        &self,
        pp: &PrePrepare,
        batch: &[SignedRequest],
    ) -> Result<(), ExecError> {
        match pp.core.kind {
            // System requests are legal only as the single request of a
            // checkpoint batch.
            BatchKind::Regular => {
                if pp.core.committed_root.is_some()
                    || batch.iter().any(SignedRequest::is_system)
                {
                    return Err(ExecError::KindMismatch);
                }
                Ok(())
            }
            // One mark, naming the checkpoint the primary's send loop
            // would have named at this sequence number; digest equality
            // is validated during execution.
            BatchKind::Checkpoint => match (batch, self.mark_target(pp.seq())) {
                ([mark], Some(target)) if marked_checkpoint(mark) == Some(target) => Ok(()),
                _ => Err(ExecError::KindMismatch),
            },
            BatchKind::EndOfConfig { .. } | BatchKind::StartOfConfig { .. } => {
                if !batch.is_empty() {
                    return Err(ExecError::KindMismatch);
                }
                self.validate_reconfig_batch(pp)
            }
        }
    }

    // ------------------------------------------------------------------
    // Prepare / prepared (Alg. 1 lines 27–38).
    // ------------------------------------------------------------------

    pub(crate) fn on_prepare(&mut self, p: Prepare) {
        let config = self.gov.active().clone();
        if config.rank_of(p.replica).is_none() {
            return;
        }
        if !verify_replica_payload(&config, p.replica, &p.own_payload(), &p.sig) {
            return;
        }
        self.msgs.put_prepare(p);
        self.try_advance_prepared();
        self.try_advance_committed();
    }

    /// Advance the contiguous prepared frontier (batchPrepared, line 30).
    pub(crate) fn try_advance_prepared(&mut self) {
        loop {
            let next = self.prepared_up_to.next();
            // The batch must be in our ledger, executed, in our view: its
            // slot holds the pre-prepare's digest.
            let view = self.view;
            let Some(slot) = self.msgs.slot(next, view) else {
                return;
            };
            if slot.pp_digest.is_none() || !self.batch_exec.contains_key(&next) {
                return;
            }
            let quorum = self.config_for_seq(next).quorum();
            let i_am_primary = self.gov.active().primary_of(view) == self.id;
            let matching = self.msgs.matching_prepares(next, view).len();
            // The pre-prepare counts as the primary's prepare; a backup's
            // own prepare is in the store already.
            let have = matching + 1; // + primary's pre-prepare
            let own_ok = i_am_primary || slot.prepares.contains_key(&self.id);
            if have < quorum || !own_ok {
                return;
            }
            self.mark_prepared(next, view);
        }
    }

    fn mark_prepared(&mut self, seq: SeqNum, view: View) {
        self.prepared_up_to = seq;
        self.note_progress();

        // Send commit, revealing the nonce (line 32). A replica prepares
        // only a batch whose commitment it signed: as primary in the
        // pre-prepare, as a backup in the prepare `try_advance_prepared`
        // found.
        let nonce = self.msgs.slot(seq, view).and_then(|s| s.own_nonce);
        let nonce = nonce.expect("a prepared batch holds this replica's nonce");
        let commit = Commit { view, seq, replica: self.id, nonce };
        self.msgs.put_commit(&commit);
        self.broadcast(ProtocolMsg::Commit(commit));

        // Replies to clients (lines 34–38).
        self.send_replies(seq);
        self.try_advance_committed();
    }

    // ------------------------------------------------------------------
    // Commit / committed (Alg. 1 line 39).
    // ------------------------------------------------------------------

    pub(crate) fn on_commit(&mut self, sender: ReplicaId, c: Commit) {
        if c.replica != sender {
            return; // authenticated channel: senders can't impersonate
        }
        self.store_commit(&c);
        self.try_advance_committed();
        // A late commit (typically the primary's, which prepares last) may
        // unblock a deferred governance receipt.
        self.retry_pending_gov_receipts();
    }

    /// Store a commit nonce — its sender's own, or one relayed in a
    /// `FetchEvidenceResponse`, which nothing authenticates. The first
    /// nonce that opens the replica's signed commitment is kept for good:
    /// no later one can shrink a certificate already on hand.
    pub(crate) fn store_commit(&mut self, c: &Commit) {
        // A commit may arrive before this replica prepares the batch, so
        // the ledger's pre-prepare counts here whether it prepared or not.
        let stored_opens = self
            .ledger
            .pp_at(c.seq)
            .filter(|pp| pp.view() == c.view)
            .is_some_and(|pp| self.valid_commit_nonces(pp).iter().any(|(r, _)| *r == c.replica));
        if !stored_opens {
            self.msgs.put_commit(c);
        }
    }

    /// Advance the contiguous committed frontier: a batch commits once
    /// `N − f` valid nonces (matching the signed commitments) are in.
    pub(crate) fn try_advance_committed(&mut self) {
        loop {
            let next = self.committed_up_to.next();
            let Some(pp) = self.prepared_pp(next) else {
                return;
            };
            let view = pp.view();
            if self.valid_commit_nonces(pp).len() < self.config_for_seq(next).quorum() {
                return;
            }
            self.mark_committed(next, view);
        }
    }

    /// The commit nonces in the slot of the batch `pp` proposes whose
    /// hashes match the signed commitments (`pp`'s for its primary, each
    /// prepare's for a backup).
    pub(crate) fn valid_commit_nonces(&self, pp: &PrePrepare) -> Vec<(ReplicaId, Nonce)> {
        let Some(slot) = self.msgs.slot(pp.seq(), pp.view()) else {
            return Vec::new();
        };
        slot.commits
            .iter()
            .filter(|(r, nonce)| {
                let commitment = if **r == pp.core.primary {
                    Some(pp.core.nonce_commit)
                } else {
                    slot.prepares.get(r).map(|p| p.nonce_commit)
                };
                commitment.is_some_and(|c| c.opens_with(nonce))
            })
            .map(|(r, n)| (*r, *n))
            .collect()
    }

    fn mark_committed(&mut self, seq: SeqNum, view: View) {
        self.committed_up_to = seq;
        self.note_progress();
        let tx_count = self.batch_exec.get(&seq).map(|e| e.txs.len()).unwrap_or(0);
        self.out.push(crate::events::Output::Committed { seq, tx_count });

        // Build governance receipts (§5.2) while evidence is at hand.
        self.build_gov_receipts(seq, view);

        // Retirement completes once the switch batch commits (§5.1).
        self.maybe_retire();

        // Committed batches beyond the pipeline can no longer roll back.
        self.raise_rollback_floor(SeqNum(seq.0.saturating_sub(self.pipeline_depth())));
    }

    // ------------------------------------------------------------------
    // The quorum's word on a batch (§3.1, §3.3).
    // ------------------------------------------------------------------

    /// The certificate over `(seq, view)` signed by `signers` — the set a
    /// pre-prepare names, or `None` for the lowest-ranked quorum — of a
    /// batch that prepared here in `view`, out of this replica's ledger and
    /// message store. A replica's share is a verified prepare matching the
    /// prepared pre-prepare (the pre-prepare itself for its primary)
    /// **and** a commit nonce that opens the commitment it signs. `None`
    /// while a signer's share, or a quorum of them, is missing.
    pub(crate) fn certificate_for(
        &self,
        seq: SeqNum,
        view: View,
        signers: Option<ReplicaBitmap>,
    ) -> Option<BatchCertificate> {
        let pp = self.prepared_pp(seq).filter(|pp| pp.view() == view)?;
        let slot = self.msgs.slot(seq, view)?;
        let pp_digest = slot.pp_digest?;
        let config = self.config_for_seq(seq);
        let shares: BTreeMap<ReplicaId, (Signature, Nonce)> = self
            .valid_commit_nonces(pp)
            .into_iter()
            .filter_map(|(id, nonce)| {
                let sig = if id == pp.core.primary {
                    pp.sig
                } else {
                    slot.prepares.get(&id).filter(|p| p.pp_digest == pp_digest)?.sig
                };
                Some((id, (sig, nonce)))
            })
            .collect();
        let signers = match signers {
            Some(named) => named,
            None => {
                let held = shares.keys().filter_map(|id| config.rank_of(*id));
                let primary_rank = config.rank_of(pp.core.primary)?;
                lowest_ranked_quorum(config, primary_rank, ReplicaBitmap::from_ranks(held))?
            }
        };
        let share_of = |id| shares.get(&id).copied();
        BatchCertificate::assemble(config, pp.core.clone(), pp.sig, signers, share_of)
    }

    /// [`Self::certificate_for`] the batch at `target` in the view it
    /// prepared in, with its expansion into the evidence pair a later
    /// pre-prepare orders in.
    fn evidence_for(
        &self,
        target: SeqNum,
        signers: Option<ReplicaBitmap>,
    ) -> Option<(BatchCertificate, EvidenceSet)> {
        let view = self.prepared_view_of(target)?;
        let cert = self.certificate_for(target, view, signers)?;
        let pp_digest = self.msgs.slot(target, view)?.pp_digest?;
        let (prepares, nonces) = cert.to_evidence(self.config_for_seq(target), &pp_digest)?;
        Some((cert, EvidenceSet { seq: target, prepares, nonces }))
    }
}
