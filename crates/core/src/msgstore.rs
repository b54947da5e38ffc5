//! The message store `M`: protocol messages indexed by slot.
//!
//! Replicas keep received pre-prepare/prepare/commit messages in
//! non-volatile storage until the corresponding commitment evidence is
//! ordered into the ledger (§3.1). Slots are keyed `(seq, view)` so
//! sequence-ordered scans are cheap.

use std::collections::BTreeMap;

use ia_ccf_types::{
    Commit, Digest, Nonce, PrePrepare, Prepare, ReplicaId, SeqNum, View, ViewChange,
};

/// Messages accumulated for one `(seq, view)` slot.
#[derive(Debug, Default, Clone)]
pub struct Slot {
    /// The pre-prepare and its batch hash list, once received/sent.
    pub pp: Option<(PrePrepare, Vec<Digest>)>,
    /// Digest of `pp`, cached.
    pub pp_digest: Option<Digest>,
    /// Prepares by sender.
    pub prepares: BTreeMap<ReplicaId, Prepare>,
    /// Commit nonces by sender (validated lazily against commitments).
    pub commits: BTreeMap<ReplicaId, Nonce>,
}

/// The message store.
#[derive(Debug, Default)]
pub struct MsgStore {
    slots: BTreeMap<(SeqNum, View), Slot>,
    /// View-change messages by (view, sender).
    view_changes: BTreeMap<(View, ReplicaId), ViewChange>,
}

impl MsgStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot for `(seq, view)`, created on first touch.
    pub fn slot_mut(&mut self, seq: SeqNum, view: View) -> &mut Slot {
        self.slots.entry((seq, view)).or_default()
    }

    /// The slot for `(seq, view)`, if it exists.
    pub fn slot(&self, seq: SeqNum, view: View) -> Option<&Slot> {
        self.slots.get(&(seq, view))
    }

    /// Record a pre-prepare (and cache its digest).
    pub fn put_pp(&mut self, pp: PrePrepare, batch: Vec<Digest>) {
        let digest = pp.digest();
        let slot = self.slot_mut(pp.seq(), pp.view());
        slot.pp_digest = Some(digest);
        slot.pp = Some((pp, batch));
    }

    /// Record a prepare.
    pub fn put_prepare(&mut self, p: Prepare) {
        self.slot_mut(p.seq, p.view).prepares.insert(p.replica, p);
    }

    /// Record a commit nonce.
    pub fn put_commit(&mut self, c: &Commit) {
        self.slot_mut(c.seq, c.view).commits.insert(c.replica, c.nonce);
    }

    /// Prepares in the slot whose `pp_digest` matches the stored
    /// pre-prepare.
    pub fn matching_prepares(&self, seq: SeqNum, view: View) -> Vec<&Prepare> {
        let Some(slot) = self.slots.get(&(seq, view)) else {
            return Vec::new();
        };
        let Some(ppd) = slot.pp_digest else {
            return Vec::new();
        };
        slot.prepares.values().filter(|p| p.pp_digest == ppd).collect()
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

    /// Drop slots with `seq <= upto` (their evidence is in the ledger and
    /// batches can no longer roll back) and view-changes for views `< upto_view`.
    pub fn compact(&mut self, upto: SeqNum, upto_view: View) {
        self.slots.retain(|(s, _), _| *s > upto);
        self.view_changes.retain(|(v, _), _| *v >= upto_view);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_crypto::KeyPair;
    use ia_ccf_types::messages::testutil::test_pp;
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
        let kp = KeyPair::from_label("p");
        let pp = test_pp(0, 1, &kp);
        let ppd = pp.digest();
        let mut store = MsgStore::new();
        store.put_pp(pp, vec![]);
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
        store.slot_mut(SeqNum(1), View(0));
        store.slot_mut(SeqNum(5), View(0));
        store.compact(SeqNum(3), View(0));
        assert!(store.slot(SeqNum(1), View(0)).is_none());
        assert!(store.slot(SeqNum(5), View(0)).is_some());
    }
}
