//! Forged view-change evidence for the hostile-input tests: what a holder
//! of replica keys can make self-consistent, so that each forgery is
//! refused for the one clause it breaks and not for a sloppy hash.

use ia_ccf_crypto::{hash_bytes, KeyPair};
use ia_ccf_merkle::Frontier;
use ia_ccf_types::{
    Digest, LedgerEntry, NewViewMsg, PrePrepare, Prepare, ReplicaBitmap, ReplicaId, View,
    ViewChange, Wire,
};

/// Root of the ledger tree `M` over `entries` (transactions are not `M`
/// leaves).
pub fn m_root<'a>(entries: impl IntoIterator<Item = &'a LedgerEntry>) -> Digest {
    let mut tree = Frontier::new();
    for entry in entries.into_iter().filter(|e| e.is_m_leaf()) {
        tree.append(entry.m_leaf());
    }
    tree.root()
}

/// A view-change from `replica`, signed with `key`.
pub fn signed_view_change(
    view: View,
    replica: ReplicaId,
    pps: Vec<PrePrepare>,
    last_proof: Vec<Prepare>,
    key: &KeyPair,
) -> ViewChange {
    let sig = key.sign(&ViewChange::signing_payload(view, replica, &pps, &last_proof));
    ViewChange { view, replica, pps, last_proof, sig }
}

/// The `[ViewChangeSet, NewView]` pair for `view` as it would follow
/// `prefix` in a ledger: `h_vc` over the sorted set entry, `M̄′` over the
/// prefix plus that entry, `E_vc` as given, signed with `key`.
pub fn forge_new_view_pair(
    prefix: &[LedgerEntry],
    view: View,
    mut view_changes: Vec<ViewChange>,
    vc_bitmap: ReplicaBitmap,
    key: &KeyPair,
) -> (LedgerEntry, NewViewMsg) {
    view_changes.sort_by_key(|vc| vc.replica);
    let set = LedgerEntry::ViewChangeSet { view, view_changes };
    let vc_entry_hash = hash_bytes(&set.to_bytes());
    let root_m = m_root(prefix.iter().chain([&set]));
    let sig = key.sign(&NewViewMsg::signing_payload(view, &root_m, &vc_bitmap, &vc_entry_hash));
    (set, NewViewMsg { view, root_m, vc_bitmap, vc_entry_hash, sig })
}
