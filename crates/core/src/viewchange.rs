//! View changes (Alg. 2) — auditable primary replacement.
//!
//! Unlike PBFT, L-PBFT view changes must not preclude auditing: view-change
//! messages carry the last `P` *prepared* pre-prepares (whose signed roots
//! pin the ledger contents), and both the accepted view-change set and the
//! new-view message become ledger entries. The new primary re-proposes the
//! prepared-but-possibly-uncommitted tail `(s_lp − P, s_lp]` in the new
//! view with byte-identical batch content, which re-execution reproduces
//! (early execution is deterministic).

use ia_ccf_types::{
    BatchKind, Digest, LedgerEntry, NewViewMsg, PrePrepare, ProtocolMsg, ReplicaBitmap, SeqNum,
    SignedRequest, View, ViewChange, Wire,
};

use crate::replica::Replica;

/// A new-view the replica cannot finish yet because its ledger is behind
/// the chosen last-prepared batch; resolved by a ledger fetch.
#[derive(Debug, Clone)]
pub struct PendingNewView {
    /// The view being assembled/accepted.
    pub view: View,
    /// The chosen view-change quorum.
    pub vcs: Vec<ViewChange>,
    /// The new-view message (None while *we* are the assembling primary).
    pub nv: Option<NewViewMsg>,
}

/// A batch saved across the view-change reset, to be re-proposed.
struct SavedBatch {
    seq: SeqNum,
    kind: BatchKind,
    requests: Vec<SignedRequest>,
    /// The requests' digests, in batch order (the old pre-prepare's list).
    digests: Vec<Digest>,
    committed_root: Option<Digest>,
}

impl Replica {
    /// Liveness timer (Alg. 2 line 1): with pending work and no progress
    /// for `view_timeout_ticks`, suspect the primary.
    pub(crate) fn maybe_start_view_change(&mut self) {
        if self.retired {
            return;
        }
        // Only consult the timer once it could have expired; the cleanup
        // below is O(queue) and must not run on every tick under load.
        if self.tick.saturating_sub(self.last_progress_tick) < self.params.view_timeout_ticks {
            return;
        }
        // Drop requests that were already ordered (backups accumulate them
        // but never pop): they are not pending work.
        let executed = &self.executed_reqs;
        self.pending_reqs.retain(|d| !executed.contains(d));
        let has_pending_work = !self.pending_reqs.is_empty()
            || !self.stashed_pps.is_empty()
            || self.committed_up_to < self.prepared_up_to
            || self.committed_up_to.next() < self.seq_next;
        if !has_pending_work {
            self.last_progress_tick = self.tick;
            return;
        }
        self.send_view_change();
    }

    /// Move to the next view and broadcast a view-change message.
    pub(crate) fn send_view_change(&mut self) {
        let new_view = self.view.next();
        self.view = new_view;
        self.ready = false;
        self.note_progress();
        self.pending_new_view = None;

        // PP: the last P prepared pre-prepares (Alg. 2 line 3).
        let p = self.pipeline_depth() as usize;
        let mut pps: Vec<PrePrepare> = Vec::new();
        for (&seq, &v) in self.prepared_view.iter().rev().take(p) {
            if let Some(slot) = self.msgs.slot(seq, v) {
                if let Some((pp, _)) = &slot.pp {
                    pps.push(pp.clone());
                }
            }
        }
        pps.reverse();
        // Proof that the newest entry prepared: quorum − 1 matching
        // prepares (the paper fetches these; we inline them).
        let last_proof = match pps.last() {
            Some(last) => self
                .msgs
                .matching_prepares(last.seq(), last.view())
                .into_iter()
                .cloned()
                .collect(),
            None => Vec::new(),
        };
        let payload = ViewChange::signing_payload(new_view, self.id, &pps, &last_proof);
        let vc = ViewChange {
            view: new_view,
            replica: self.id,
            pps,
            last_proof,
            sig: self.sign_replica_payload(&payload),
        };
        self.msgs.put_view_change(vc.clone());
        self.broadcast(ProtocolMsg::ViewChange(vc));
        self.try_assemble_new_view();
    }

    /// Alg. 2 line 6.
    pub(crate) fn on_view_change(&mut self, vc: ViewChange) {
        if vc.view < self.view {
            return;
        }
        let config = self.gov.active().clone();
        if config.rank_of(vc.replica).is_none() {
            return;
        }
        if !self.verify_replica_payload(&config, vc.replica, &vc.own_payload(), &vc.sig) {
            return;
        }
        // hasPrepares: the last PP entry must be proven prepared.
        if let Some(last) = vc.pps.last() {
            let quorum = config.quorum();
            let ppd = last.digest();
            let mut senders = std::collections::BTreeSet::new();
            for prep in &vc.last_proof {
                if prep.pp_digest != ppd || prep.seq != last.seq() || prep.view != last.view() {
                    continue;
                }
                if prep.replica == last.core.primary {
                    continue;
                }
                if !self.verify_replica_payload(&config, prep.replica, &prep.own_payload(), &prep.sig)
                {
                    continue;
                }
                senders.insert(prep.replica);
            }
            if senders.len() + 1 < quorum {
                return; // not proven prepared
            }
        }
        self.msgs.put_view_change(vc);

        // Liveness join rule (line 9): if more than f replicas are already
        // in a later view, join it.
        let f = config.f();
        let later = self.msgs.later_view_change_senders(self.view);
        for (v, count) in later {
            if count > f && v > self.view {
                self.view = View(v.0 - 1);
                self.send_view_change();
                return;
            }
        }
        self.try_assemble_new_view();
    }

    /// New primary: once a quorum of view-changes for our view is in,
    /// assemble the new view (Alg. 2 line 12).
    pub(crate) fn try_assemble_new_view(&mut self) {
        let config = self.gov.active().clone();
        if config.primary_of(self.view) != self.id || self.ready {
            return;
        }
        let quorum = config.quorum();
        let all = self.msgs.view_changes_for(self.view);
        if all.len() < quorum {
            return;
        }
        // Deterministic choice: the quorum with the lowest replica ids.
        let vcs: Vec<ViewChange> = all.into_iter().take(quorum).cloned().collect();

        let Some((lp_seq, lp_digest)) = chosen_last_prepared(&vcs) else {
            // Nothing prepared anywhere: rebuild from the committed state.
            self.complete_new_view(vcs, SeqNum(self.committed_up_to.0), Vec::new());
            return;
        };

        // Our ledger must contain the chosen last-prepared batch.
        if self.prepared_up_to < lp_seq
            || self
                .prepared_view
                .get(&lp_seq)
                .and_then(|v| self.msgs.slot(lp_seq, *v))
                .and_then(|s| s.pp_digest)
                != Some(lp_digest)
        {
            // Behind: fetch the tail from the replica that reported it.
            let source = vcs
                .iter()
                .find(|vc| vc.pps.last().map(|pp| pp.digest()) == Some(lp_digest))
                .map(|vc| vc.replica);
            if let Some(source) = source {
                self.pending_new_view =
                    Some(PendingNewView { view: self.view, vcs, nv: None });
                let from = self.committed_up_to.next();
                self.start_vc_ledger_sync(source, from);
            }
            return;
        }

        let reset_to = SeqNum(lp_seq.0.saturating_sub(self.pipeline_depth()));
        let saved = self.save_batches(reset_to.next(), lp_seq);
        self.complete_new_view(vcs, reset_to, saved);
    }

    /// Roll back to `reset_to`, log the view-change set and new-view, and
    /// re-propose the saved tail in the new view.
    fn complete_new_view(
        &mut self,
        mut vcs: Vec<ViewChange>,
        reset_to: SeqNum,
        saved: Vec<SavedBatch>,
    ) {
        let config = self.gov.active().clone();
        vcs.sort_by_key(|vc| vc.replica);
        self.reset_to_seq(reset_to);

        let mut vc_bitmap = ReplicaBitmap::empty();
        for vc in &vcs {
            if let Some(rank) = config.rank_of(vc.replica) {
                vc_bitmap.set(rank);
            }
        }
        let set_entry = LedgerEntry::ViewChangeSet { view: self.view, view_changes: vcs.clone() };
        let vc_entry_hash = ia_ccf_crypto::hash_bytes(&set_entry.to_bytes());
        self.ledger.append(set_entry);
        let root_m = self.ledger.root_m();
        let payload =
            NewViewMsg::signing_payload(self.view, &root_m, &vc_bitmap, &vc_entry_hash);
        let nv = NewViewMsg {
            view: self.view,
            root_m,
            vc_bitmap,
            vc_entry_hash,
            sig: self.sign_replica_payload(&payload),
        };
        self.ledger.append(LedgerEntry::NewView(nv.clone()));
        self.ready = true;
        self.seq_next = reset_to.next();
        self.note_progress();
        self.broadcast(ProtocolMsg::NewView { nv, view_changes: vcs, resends: Vec::new() });

        // Re-propose the saved tail in the new view (byte-identical batch
        // content; fresh pre-prepares).
        for batch in saved {
            debug_assert_eq!(batch.seq, self.seq_next);
            self.send_batch(
                batch.seq,
                batch.kind,
                batch.requests,
                batch.digests,
                batch.committed_root,
            );
        }
        self.maybe_send_pre_prepare();
    }

    /// Backup accepting a new-view (Alg. 2 line 18).
    pub(crate) fn on_new_view(
        &mut self,
        nv: NewViewMsg,
        view_changes: Vec<ViewChange>,
        _resends: Vec<(PrePrepare, Vec<Digest>)>,
    ) {
        if nv.view < self.view {
            return;
        }
        let config = self.gov.active().clone();
        let new_primary = config.primary_of(nv.view);
        if new_primary == self.id {
            return;
        }
        if !self.verify_replica_payload(&config, new_primary, &nv.own_payload(), &nv.sig) {
            return;
        }
        let quorum = config.quorum();
        if view_changes.len() < quorum {
            return;
        }
        // Verify every view-change: correct view, valid signature, and the
        // bitmap matches the senders.
        let mut bitmap = ReplicaBitmap::empty();
        for vc in &view_changes {
            if vc.view != nv.view {
                return;
            }
            let Some(rank) = config.rank_of(vc.replica) else {
                return;
            };
            if !self.verify_replica_payload(&config, vc.replica, &vc.own_payload(), &vc.sig) {
                return;
            }
            bitmap.set(rank);
        }
        if bitmap != nv.vc_bitmap {
            return;
        }

        let lp = chosen_last_prepared(&view_changes);
        let reset_to = match &lp {
            Some((lp_seq, lp_digest)) => {
                // We must hold the chosen batch to replay the reset.
                let have = self
                    .prepared_view
                    .get(lp_seq)
                    .and_then(|v| self.msgs.slot(*lp_seq, *v))
                    .and_then(|s| s.pp_digest)
                    == Some(*lp_digest);
                if !have {
                    // Behind: page the tail in from the new primary,
                    // stash the nv (see `crate::bootstrap` for the
                    // requester-side state machine).
                    self.pending_new_view = Some(PendingNewView {
                        view: nv.view,
                        vcs: view_changes,
                        nv: Some(nv),
                    });
                    let from = self.committed_up_to.next();
                    self.start_vc_ledger_sync(new_primary, from);
                    return;
                }
                SeqNum(lp_seq.0.saturating_sub(self.pipeline_depth()))
            }
            None => SeqNum(self.committed_up_to.0),
        };

        let mut vcs = view_changes;
        vcs.sort_by_key(|vc| vc.replica);
        self.reset_to_seq(reset_to);

        let set_entry = LedgerEntry::ViewChangeSet { view: nv.view, view_changes: vcs };
        let vc_entry_hash = ia_ccf_crypto::hash_bytes(&set_entry.to_bytes());
        if vc_entry_hash != nv.vc_entry_hash {
            return; // primary lied about the set; stay unready, time out
        }
        self.ledger.append(set_entry);
        if self.ledger.root_m() != nv.root_m {
            // Our ledger disagrees with the new primary's (M̄′ ≠ M̄): undo
            // and wait for another view change (Alg. 2 line 24).
            self.ledger.truncate_to(self.ledger.len() - 1);
            return;
        }
        self.ledger.append(LedgerEntry::NewView(nv.clone()));
        self.view = nv.view;
        self.ready = true;
        self.seq_next = reset_to.next();
        self.pending_new_view = None;
        self.note_progress();
        // The re-proposed batches arrive as ordinary pre-prepares in the
        // new view and flow through the normal backup path.
    }

    /// Roll back all batches with `seq > reset_to` (ledger, KV, counters),
    /// returning requests to the pool. Also used by the recovery sync
    /// when a mid-transfer view change makes the page stream diverge from
    /// the applied-but-uncommitted tail (see [`crate::bootstrap`]).
    pub(crate) fn reset_to_seq(&mut self, reset_to: SeqNum) {
        let first_rolled = reset_to.next();
        // Re-queue the rolled-back requests (primary will re-propose or
        // re-order them).
        let mut requeue: Vec<Digest> = Vec::new();
        for (&seq, &v) in self.prepared_view.range(first_rolled..) {
            if let Some(slot) = self.msgs.slot(seq, v) {
                if let Some((_, batch)) = &slot.pp {
                    requeue.extend(batch.iter().copied());
                }
            }
        }
        // Batches that executed but never *prepared* (their prepares were
        // lost before the view change) have no prepared_view entry; their
        // requests live only in the BatchMark-guarded execution state.
        // Without re-queueing them here, the executed_reqs dedupe would
        // drop them forever once the batch rolls back. (Note: governance
        // requests carry the member id in the client field — member 0 is
        // ClientId(0) — so system requests are excluded by `is_system`
        // below, never by client id.)
        for exec in self.batch_exec.range(first_rolled..).map(|(_, e)| e) {
            requeue.extend(exec.txs.iter().map(|t| t.request_digest));
        }
        let mut seen = std::collections::HashSet::new();
        requeue.retain(|d| seen.insert(*d));
        let already_pending: std::collections::HashSet<Digest> =
            self.pending_reqs.iter().copied().collect();
        if let Some(mark) = self.batch_marks.get(&first_rolled).cloned() {
            self.rollback_batch(first_rolled, &mark);
        }
        for d in requeue {
            self.executed_reqs.remove(&d);
            // System requests (checkpoint marks) are regenerated by the
            // schedule — re-queueing one would smuggle it into a Regular
            // batch.
            let requeueable = self.req_store.get(&d).is_some_and(|r| !r.is_system());
            if requeueable && !already_pending.contains(&d) {
                self.pending_reqs.push_front(d);
            }
        }
        // Exact cache invalidation: certificates, locator entries and
        // governance-chain links of rolled-back batches die with them, so
        // a batch re-executed in the new view rebuilds fresh artifacts
        // (byte-identical content, new-view certificate).
        self.invalidate_receipt_caches_after(reset_to);
        self.batch_exec.retain(|s, _| *s <= reset_to);
        self.batch_marks.retain(|s, _| *s <= reset_to);
        self.prepared_view.retain(|s, _| *s <= reset_to);
        self.prepared_up_to = self.prepared_up_to.min(reset_to);
        self.committed_up_to = self.committed_up_to.min(reset_to);
        self.stashed_pps.clear();
    }

    /// Capture batch content before a reset so it can be re-proposed.
    fn save_batches(&self, from: SeqNum, to: SeqNum) -> Vec<SavedBatch> {
        let mut out = Vec::new();
        for seq in from.0..=to.0 {
            let seq = SeqNum(seq);
            let Some(&v) = self.prepared_view.get(&seq) else {
                continue;
            };
            let Some(slot) = self.msgs.slot(seq, v) else {
                continue;
            };
            let Some((pp, batch)) = &slot.pp else {
                continue;
            };
            let requests: Vec<SignedRequest> =
                batch.iter().filter_map(|h| self.req_store.get(h).cloned()).collect();
            if requests.len() != batch.len() {
                continue;
            }
            out.push(SavedBatch {
                seq,
                kind: pp.core.kind,
                requests,
                digests: batch.clone(),
                committed_root: pp.core.committed_root,
            });
        }
        out
    }
}

/// The deterministic "last prepared" choice over a view-change set: the
/// final pre-prepare with the highest (view, seq), identified by digest.
fn chosen_last_prepared(vcs: &[ViewChange]) -> Option<(SeqNum, Digest)> {
    vcs.iter()
        .filter_map(|vc| vc.pps.last())
        .max_by_key(|pp| (pp.view(), pp.seq()))
        .map(|pp| (pp.seq(), pp.digest()))
}
