//! View changes (Alg. 2) — auditable primary replacement.
//!
//! Unlike PBFT, L-PBFT view changes must not preclude auditing: view-change
//! messages carry the last `P` *prepared* pre-prepares (whose signed roots
//! pin the ledger contents), and both the accepted view-change set and the
//! new-view message become ledger entries. The new primary re-proposes the
//! prepared-but-possibly-uncommitted tail `(s_lp − P, s_lp]` in the new
//! view with byte-identical batch content, which re-execution reproduces
//! (early execution is deterministic).
//!
//! "Was this view change legitimate?" has one answer,
//! [`check_view_change`] and [`check_new_view`]: pure functions in
//! [`ia_ccf_ledger::validity`] that a backup, a replica loading a ledger
//! and the auditor all call. This module holds the protocol handlers and
//! the logged pair's one writer, `log_new_view` (docs/ARCHITECTURE.md
//! §1.5).

use ia_ccf_ledger::validity::{
    check_new_view, check_view_change, chosen_last_prepared, view_change_set_entry, Refused,
};
use ia_ccf_types::{
    BatchKind, Digest, LedgerEntry, NewViewMsg, PrePrepare, ProtocolMsg, ReplicaBitmap, SeqNum,
    SignedRequest, View, ViewChange, Wire,
};

use crate::replica::{Replica, Status};

/// A view change asked to reset below the rollback floor: the batches it
/// would undo are past rolling back here (see `raise_rollback_floor`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BelowFloor {
    pub reset_to: SeqNum,
    pub floor: SeqNum,
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
        if self.tick.saturating_sub(self.last_progress_tick) < self.params.view_timeout_ticks {
            return;
        }
        let has_pending_work = self.requests.has_queued()
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
        self.status = Status::ViewChange;
        self.note_progress();

        // PP: the last P prepared pre-prepares (Alg. 2 line 3), the
        // ledger's.
        let last = self.prepared_up_to.0;
        let pps: Vec<PrePrepare> = (last.saturating_sub(self.pipeline_depth()) + 1..=last)
            .filter_map(|seq| self.prepared_pp(SeqNum(seq)).cloned())
            .collect();
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
        let config = self.gov.active();
        if check_view_change(config, &vc).is_err() {
            return;
        }
        let f = config.f();
        self.msgs.put_view_change(vc);

        // Liveness join rule (line 9): if more than f replicas are already
        // in a later view, join it.
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

    /// Whether this replica's ledger holds the chosen last-prepared batch.
    /// One that does not cannot replay the reset, and no request body it
    /// could fetch stands in for a pre-prepare it never took in: it sits
    /// the new view out until its liveness timer moves it on.
    fn holds_batch(&self, (seq, digest): (SeqNum, Digest)) -> bool {
        self.prepared_view_of(seq).and_then(|v| self.msgs.slot(seq, v)?.pp_digest) == Some(digest)
    }

    /// Where a new view restarts the pipeline: `P` batches below the
    /// chosen last-prepared one, or at the committed frontier when nothing
    /// prepared anywhere. Refused below the rollback floor, which this
    /// replica cannot undo.
    fn reset_point(&self, last_prepared: Option<(SeqNum, Digest)>) -> Result<SeqNum, BelowFloor> {
        let reset_to = match last_prepared {
            Some((lp_seq, _)) => SeqNum(lp_seq.0.saturating_sub(self.pipeline_depth())),
            None => self.committed_up_to,
        };
        if reset_to < self.rollback_floor {
            let refused = BelowFloor { reset_to, floor: self.rollback_floor };
            if crate::replica::debug_enabled() {
                eprintln!("[{}] refuse view {}: {refused:?}", self.id, self.view);
            }
            return Err(refused);
        }
        Ok(reset_to)
    }

    /// New primary: once a quorum of view-changes for our view is in,
    /// assemble the new view (Alg. 2 line 12).
    pub(crate) fn try_assemble_new_view(&mut self) {
        let config = self.gov.active();
        if config.primary_of(self.view) != self.id || !matches!(self.status, Status::ViewChange) {
            return;
        }
        let quorum = config.quorum();
        let all = self.msgs.view_changes_for(self.view);
        if all.len() < quorum {
            return;
        }
        // Deterministic choice: the quorum with the lowest replica ids.
        let vcs: Vec<ViewChange> = all.into_iter().take(quorum).cloned().collect();

        let last_prepared = chosen_last_prepared(&vcs);
        if last_prepared.is_some_and(|lp| !self.holds_batch(lp)) {
            return;
        }
        let Ok(reset_to) = self.reset_point(last_prepared) else {
            return;
        };
        // Nothing prepared anywhere: nothing to re-propose.
        let saved = last_prepared
            .map_or(Vec::new(), |(lp_seq, _)| self.save_batches(reset_to.next(), lp_seq));
        self.complete_new_view(vcs, reset_to, saved);
    }

    /// Roll back to `reset_to`, log the view-change set and new-view, and
    /// re-propose the saved tail in the new view.
    fn complete_new_view(
        &mut self,
        vcs: Vec<ViewChange>,
        reset_to: SeqNum,
        saved: Vec<SavedBatch>,
    ) {
        self.reset_to_seq(reset_to);
        let Ok(Some(nv)) = self.log_new_view(self.view, vcs.clone(), None) else {
            return;
        };
        self.status = Status::Normal;
        self.note_progress();
        self.broadcast(ProtocolMsg::NewView { nv, view_changes: vcs });

        // Re-propose the saved tail in the new view (byte-identical batch
        // content; fresh pre-prepares).
        for batch in saved {
            debug_assert_eq!(batch.seq, self.seq_next);
            let sent = self.send_batch(
                batch.seq,
                batch.kind,
                batch.requests,
                batch.digests,
                batch.committed_root,
            );
            // One that must wait for the evidence it carries holds the rest
            // back; their requests are in the queue again.
            if !sent {
                break;
            }
        }
        self.maybe_send_pre_prepare();
    }

    /// Backup accepting a new-view (Alg. 2 line 18). Every check but `M̄′`
    /// comes before the rollback: a refused new-view changes nothing.
    pub(crate) fn on_new_view(&mut self, nv: NewViewMsg, view_changes: Vec<ViewChange>) {
        // Stale, or a view this replica already entered (a re-delivered
        // new-view must not restart anything).
        if nv.view < self.view
            || (nv.view == self.view && matches!(self.status, Status::Normal))
            || self.ledger.has_new_view(nv.view)
        {
            return;
        }
        let config = self.gov.active();
        if config.primary_of(nv.view) == self.id {
            return;
        }
        let Ok(facts) = check_new_view(config, &nv, &view_changes) else {
            return;
        };
        if facts.last_prepared.is_some_and(|lp| !self.holds_batch(lp)) {
            return;
        }
        let Ok(reset_to) = self.reset_point(facts.last_prepared) else {
            return;
        };
        self.reset_to_seq(reset_to);
        // A ledger that disagrees with the new primary's (M̄′ ≠ M̄) keeps its
        // status and waits for another view change (Alg. 2 line 24). The
        // re-proposed batches arrive as ordinary pre-prepares in the new
        // view and flow through the normal backup path.
        if let Ok(Some(_)) = self.log_new_view(nv.view, view_changes, Some(&nv)) {
            self.status = Status::Normal;
            self.note_progress();
        }
    }

    /// The one writer of a view's `[ViewChangeSet, NewView]` pair: append
    /// the set entry, take `M̄′` over the ledger that now ends with it, sign
    /// the new-view (`given` = `None`: this replica assembles it) or hold
    /// the given one to that root (anyone else: a different root takes the
    /// set entry out again and is refused), append the new-view and move to
    /// its view. Returns the new-view it logged; `None` when this view's
    /// pair is already in the ledger — a restarted page stream re-serves
    /// it, and the test is on ledger *content*, not on `self.view`: a
    /// divergence rollback can truncate the pair away while the view
    /// counter stays advanced, and the re-served pair must then be logged
    /// again or every later `M̄` check fails.
    pub(crate) fn log_new_view(
        &mut self,
        view: View,
        view_changes: Vec<ViewChange>,
        given: Option<&NewViewMsg>,
    ) -> Result<Option<NewViewMsg>, Refused> {
        if self.ledger.has_new_view(view) {
            return Ok(None);
        }
        let nv = match given {
            Some(nv) => {
                self.ledger.append(view_change_set_entry(view, view_changes));
                if self.ledger.root_m() != nv.root_m {
                    self.ledger.truncate_to(self.ledger.len() - 1);
                    return Err(Refused::RootM);
                }
                nv.clone()
            }
            None => {
                let config = self.gov.active();
                let vc_bitmap = ReplicaBitmap::from_ranks(
                    view_changes.iter().filter_map(|vc| config.rank_of(vc.replica)),
                );
                let set_entry = view_change_set_entry(view, view_changes);
                let vc_entry_hash = ia_ccf_crypto::hash_bytes(&set_entry.to_bytes());
                self.ledger.append(set_entry);
                let root_m = self.ledger.root_m();
                let payload =
                    NewViewMsg::signing_payload(view, &root_m, &vc_bitmap, &vc_entry_hash);
                let sig = self.sign_replica_payload(&payload);
                NewViewMsg { view, root_m, vc_bitmap, vc_entry_hash, sig }
            }
        };
        self.ledger.append(LedgerEntry::NewView(nv.clone()));
        self.view = self.view.max(view);
        Ok(Some(nv))
    }

    /// Roll back all batches with `seq > reset_to` (ledger, KV, counters,
    /// the next sequence number), returning requests to the pool. Also used
    /// by the recovery sync when a mid-transfer view change makes the page
    /// stream diverge from the applied-but-uncommitted tail (see
    /// [`crate::bootstrap`]). `reset_to` is never below the rollback floor:
    /// a view change refuses such a point (`reset_point`), and the sync
    /// resets to the committed frontier, which is never below it.
    pub(crate) fn reset_to_seq(&mut self, reset_to: SeqNum) {
        debug_assert!(reset_to >= self.rollback_floor, "reset to {reset_to} below the floor");
        let first_rolled = reset_to.next();
        // Every rolled-back request goes back to the pool, at the head of
        // the queue (the primary will re-propose or re-order it) — a batch
        // that executed but never prepared included: without it, the
        // dedupe would drop its requests for good. The ledger tail about to
        // be truncated holds the one copy of their bodies: read them first.
        let rolled: Vec<(Digest, SignedRequest)> = self
            .batch_exec
            .range(first_rolled..)
            .flat_map(|(seq, exec)| {
                let bodies = self.ledger.tx_run(*seq).unwrap_or_default();
                exec.names.iter().copied().zip(bodies.iter().map(|tx| tx.request.clone()))
            })
            .collect();
        // A governance link goes with the carrier that proved it. Carriers
        // name ascending targets, so every link from the first rolled-back
        // carrier's target on is cut (all of them when it carries none).
        if let Some(pp) = self.ledger.pp_at(first_rolled) {
            let cut = pp.core.evidence_seq;
            self.gov_chain.retain(|l| l.receipt().seq() < cut);
        }
        if let Some(mark) = self.batch_marks.get(&first_rolled).cloned() {
            self.rollback_batch(first_rolled, &mark);
        }
        for (name, body) in rolled {
            self.requests.unorder(name, body);
        }
        self.batch_exec.drop_after(reset_to);
        self.batch_marks.retain(|s, _| *s <= reset_to);
        self.msgs.forget_own_after(reset_to);
        self.prepared_up_to = self.prepared_up_to.min(reset_to);
        self.committed_up_to = self.committed_up_to.min(reset_to);
        self.seq_next = self.seq_next.min(first_rolled);
        self.stashed_pps.clear();
    }

    /// Capture batch content before a reset so it can be re-proposed: the
    /// ledger's pre-prepare and `⟨t, i, o⟩` run, and the names its
    /// executed batch holds.
    fn save_batches(&self, from: SeqNum, to: SeqNum) -> Vec<SavedBatch> {
        let mut out = Vec::new();
        for seq in from.0..=to.0 {
            let seq = SeqNum(seq);
            let (Some(pp), Some(exec), Some(txs)) =
                (self.prepared_pp(seq), self.batch_exec.get(&seq), self.ledger.tx_run(seq))
            else {
                continue;
            };
            out.push(SavedBatch {
                seq,
                kind: pp.core.kind,
                requests: txs.iter().map(|tx| tx.request.clone()).collect(),
                digests: exec.names.clone(),
                committed_root: pp.core.committed_root,
            });
        }
        out
    }
}
