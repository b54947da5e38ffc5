//! The message store `M`: the votes on each batch, indexed by slot.
//!
//! Replicas keep received prepare and commit messages until the
//! commitment evidence they make up is ordered into the ledger (§3.1) and
//! their batch leaves the receipt window: `raise_rollback_floor` compacts
//! the store where it cuts the executed batches. A batch's pre-prepare is
//! the ledger's (`Ledger::pp_at`); a slot keeps only the digest its
//! prepares are matched against. Slots are keyed `(seq, view)` so
//! sequence-ordered scans are cheap.

use std::collections::BTreeMap;

use ia_ccf_types::{Commit, Digest, Nonce, Prepare, ReplicaId, SeqNum, View, ViewChange};

/// The votes on one `(seq, view)` slot.
#[derive(Debug, Default, Clone)]
pub struct Slot {
    /// Digest of the pre-prepare this replica took into its ledger at this
    /// `(seq, view)`: what a matching prepare signs. Set when the batch
    /// closes, forgotten when it rolls back.
    pub pp_digest: Option<Digest>,
    /// Prepares by sender.
    pub prepares: BTreeMap<ReplicaId, Prepare>,
    /// Commit nonces by sender (validated lazily against commitments).
    pub commits: BTreeMap<ReplicaId, Nonce>,
    /// This replica's nonce, whose commitment its prepare (its pre-prepare,
    /// as primary) signs and its commit reveals.
    pub own_nonce: Option<Nonce>,
}

/// The message store.
#[derive(Debug, Default)]
pub struct MsgStore {
    slots: BTreeMap<(SeqNum, View), Slot>,
    /// Slots at or below this were compacted; a late vote for one is
    /// dropped.
    compacted_to: SeqNum,
    /// View-change messages by (view, sender).
    view_changes: BTreeMap<(View, ReplicaId), ViewChange>,
}

impl MsgStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot for `(seq, view)`, if it exists.
    pub fn slot(&self, seq: SeqNum, view: View) -> Option<&Slot> {
        self.slots.get(&(seq, view))
    }

    /// The slot for `(seq, view)`, created on first touch; `None` at or
    /// below the compaction point.
    fn slot_mut(&mut self, seq: SeqNum, view: View) -> Option<&mut Slot> {
        (seq > self.compacted_to).then(|| self.slots.entry((seq, view)).or_default())
    }

    /// The batch at `(seq, view)` closed with the pre-prepare digested
    /// `pp_digest`.
    pub fn set_pp_digest(&mut self, seq: SeqNum, view: View, pp_digest: Digest) {
        if let Some(slot) = self.slot_mut(seq, view) {
            slot.pp_digest = Some(pp_digest);
        }
    }

    /// This replica committed to `nonce` at `(seq, view)`.
    pub fn set_own_nonce(&mut self, seq: SeqNum, view: View, nonce: Nonce) {
        if let Some(slot) = self.slot_mut(seq, view) {
            slot.own_nonce = Some(nonce);
        }
    }

    /// Record a prepare.
    pub fn put_prepare(&mut self, p: Prepare) {
        if let Some(slot) = self.slot_mut(p.seq, p.view) {
            slot.prepares.insert(p.replica, p);
        }
    }

    /// Record a commit nonce.
    pub fn put_commit(&mut self, c: &Commit) {
        if let Some(slot) = self.slot_mut(c.seq, c.view) {
            slot.commits.insert(c.replica, c.nonce);
        }
    }

    /// Prepares in the slot whose `pp_digest` matches the closed batch's.
    pub fn matching_prepares(&self, seq: SeqNum, view: View) -> Vec<&Prepare> {
        let Some(slot) = self.slots.get(&(seq, view)) else {
            return Vec::new();
        };
        let Some(ppd) = slot.pp_digest else {
            return Vec::new();
        };
        slot.prepares.values().filter(|p| p.pp_digest == ppd).collect()
    }

    /// A rollback to `seq`: every later slot forgets its batch's digest and
    /// this replica's nonce. Other replicas' votes stay — a prepare for the
    /// next view's re-proposal can arrive before its new-view.
    pub fn forget_own_after(&mut self, seq: SeqNum) {
        for (_, slot) in self.slots.range_mut((seq.next(), View(0))..) {
            slot.pp_digest = None;
            slot.own_nonce = None;
        }
    }

    /// Record a view-change message.
    pub fn put_view_change(&mut self, vc: ViewChange) {
        self.view_changes.insert((vc.view, vc.replica), vc);
    }

    /// All view-change messages for `view`, ascending by replica id.
    pub fn view_changes_for(&self, view: View) -> Vec<&ViewChange> {
        self.view_changes
            .range((view, ReplicaId(0))..=(view, ReplicaId(u32::MAX)))
            .map(|(_, vc)| vc)
            .collect()
    }

    /// Number of distinct views strictly greater than `view` with at least
    /// one view-change, and the smallest such view (liveness rule, Alg. 2
    /// line 9).
    pub fn later_view_change_senders(&self, view: View) -> BTreeMap<View, usize> {
        let mut counts: BTreeMap<View, usize> = BTreeMap::new();
        for (v, _) in self.view_changes.keys() {
            if *v > view {
                *counts.entry(*v).or_default() += 1;
            }
        }
        counts
    }

    /// Drop slots with `seq <= upto` (their batches left the receipt window
    /// and can no longer roll back), and refuse votes for them from now on;
    /// drop view-changes for views `< upto_view`.
    pub fn compact(&mut self, upto: SeqNum, upto_view: View) {
        self.compacted_to = self.compacted_to.max(upto);
        while let Some(slot) = self.slots.first_entry().filter(|s| s.key().0 <= upto) {
            slot.remove();
        }
        self.view_changes.retain(|(v, _), _| *v >= upto_view);
    }
}

#[cfg(test)]
impl MsgStore {
    /// Every slot, ascending.
    pub(crate) fn slots(&self) -> impl Iterator<Item = (&(SeqNum, View), &Slot)> {
        self.slots.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_types::NonceCommitment;

    fn prepare(seq: u64, view: u64, replica: u32, ppd: Digest) -> Prepare {
        Prepare {
            view: View(view),
            seq: SeqNum(seq),
            replica: ReplicaId(replica),
            nonce_commit: NonceCommitment::default(),
            pp_digest: ppd,
            sig: ia_ccf_types::Signature::zero(),
        }
    }

    #[test]
    fn matching_prepares_filters_by_pp_digest() {
        let ppd = ia_ccf_crypto::hash_bytes(b"pp");
        let mut store = MsgStore::new();
        store.set_pp_digest(SeqNum(1), View(0), ppd);
        store.put_prepare(prepare(1, 0, 1, ppd));
        store.put_prepare(prepare(1, 0, 2, Digest::zero())); // mismatched
        store.put_prepare(prepare(1, 0, 3, ppd));
        let matching = store.matching_prepares(SeqNum(1), View(0));
        let ids: Vec<u32> = matching.iter().map(|p| p.replica.0).collect();
        assert_eq!(ids, vec![1, 3]);
    }

    #[test]
    fn view_changes_sorted_by_replica() {
        let mut store = MsgStore::new();
        for r in [3u32, 1, 2] {
            store.put_view_change(ViewChange {
                view: View(1),
                replica: ReplicaId(r),
                pps: vec![],
                last_proof: vec![],
                sig: ia_ccf_types::Signature::zero(),
            });
        }
        let ids: Vec<u32> = store.view_changes_for(View(1)).iter().map(|v| v.replica.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(store.view_changes_for(View(2)).is_empty());
    }

    #[test]
    fn later_view_change_counting() {
        let mut store = MsgStore::new();
        for (v, r) in [(2u64, 1u32), (2, 2), (3, 1)] {
            store.put_view_change(ViewChange {
                view: View(v),
                replica: ReplicaId(r),
                pps: vec![],
                last_proof: vec![],
                sig: ia_ccf_types::Signature::zero(),
            });
        }
        let later = store.later_view_change_senders(View(1));
        assert_eq!(later.get(&View(2)), Some(&2));
        assert_eq!(later.get(&View(3)), Some(&1));
        assert!(store.later_view_change_senders(View(3)).is_empty());
    }

    #[test]
    fn compact_drops_old_slots() {
        let mut store = MsgStore::new();
        store.put_prepare(prepare(1, 0, 1, Digest::zero()));
        store.put_prepare(prepare(5, 0, 1, Digest::zero()));
        store.compact(SeqNum(3), View(0));
        assert!(store.slot(SeqNum(1), View(0)).is_none());
        assert!(store.slot(SeqNum(5), View(0)).is_some());
    }

    #[test]
    fn a_vote_at_or_below_the_compaction_point_is_dropped() {
        let mut store = MsgStore::new();
        store.compact(SeqNum(3), View(0));
        store.put_prepare(prepare(2, 0, 1, Digest::zero()));
        store.set_own_nonce(SeqNum(3), View(0), Nonce([1; 16]));
        assert!(store.slot(SeqNum(2), View(0)).is_none());
        assert!(store.slot(SeqNum(3), View(0)).is_none());
        // The point never goes down.
        store.compact(SeqNum(1), View(0));
        store.put_prepare(prepare(2, 0, 1, Digest::zero()));
        assert!(store.slot(SeqNum(2), View(0)).is_none());
    }

    #[test]
    fn a_rollback_forgets_own_state_after_the_point_and_keeps_votes() {
        let mut store = MsgStore::new();
        for seq in [1, 2] {
            store.set_pp_digest(SeqNum(seq), View(0), Digest::zero());
            store.set_own_nonce(SeqNum(seq), View(0), Nonce([seq as u8; 16]));
            store.put_prepare(prepare(seq, 0, 1, Digest::zero()));
        }
        store.put_prepare(prepare(2, 1, 2, Digest::zero()));
        store.forget_own_after(SeqNum(1));
        let kept = store.slot(SeqNum(1), View(0)).unwrap();
        assert_eq!((kept.pp_digest, kept.own_nonce), (Some(Digest::zero()), Some(Nonce([1; 16]))));
        for view in [0, 1] {
            let slot = store.slot(SeqNum(2), View(view)).unwrap();
            assert_eq!((slot.pp_digest, slot.own_nonce), (None, None), "view {view}");
            assert_eq!(slot.prepares.len(), 1, "view {view}");
        }
    }
}
