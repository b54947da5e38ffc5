//! Ledger entries (Fig. 3).
//!
//! The ledger interleaves, per batch at sequence number `s`:
//! `… ‖ P_{s−P} ‖ K_{s−P} ‖ pp_s ‖ T_i ‖ T_{i+1} ‖ …` — commitment
//! evidence for the batch `P` earlier, the signed pre-prepare, then the
//! `⟨t, i, o⟩` transaction entries. View changes insert a view-change-set
//! entry followed by the new-view entry.
//!
//! Two leaf-hash conventions bind entries into trees:
//!
//! * **M-leaves** — every non-transaction entry hashes into the ledger tree
//!   `M` (Alg. 1 appends evidence, pre-prepares, view-change sets and
//!   new-views to `M`); transactions are *not* direct leaves of `M`, they
//!   are bound through `Ḡ` inside their batch's signed pre-prepare.
//! * **G-leaves** — `⟨t, i, o⟩` hashes into the per-batch tree `G`, which
//!   receipts prove membership in. [`g_tree`] is the one builder of `G`.

use ia_ccf_crypto::{hash_bytes, Digest, Hasher, Nonce};
use ia_ccf_merkle::MerkleTree;
use serde::{Deserialize, Serialize};

use crate::config::Configuration;
use crate::ids::{LedgerIdx, SeqNum, View};
use crate::messages::{NewViewMsg, PrePrepare, Prepare, ViewChange};
use crate::request::SignedRequest;
use crate::wire::Wire;

/// Leaf-domain byte for G-tree (per-batch) leaves.
const G_LEAF_DOMAIN: u8 = 0x20;
/// Leaf-domain byte for M-tree (ledger) leaves.
const M_LEAF_DOMAIN: u8 = 0x21;

/// The result `o` of executing a transaction: the reply output plus the
/// digest of the transaction's write set (Fig. 3).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxResult {
    /// Whether the stored procedure completed without an application error.
    pub ok: bool,
    /// The reply bytes returned to the client.
    pub output: Vec<u8>,
    /// Digest of the transaction's write set.
    pub write_set_digest: Digest,
}

impl TxResult {
    /// Canonical digest of the result.
    pub fn digest(&self) -> Digest {
        hash_bytes(&self.to_bytes())
    }
}

/// A `⟨t, i, o⟩` ledger entry: the full signed request (needed for replay
/// during audits, §4.1), the ledger index it executed at, and its result.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxLedgerEntry {
    /// The signed request `t`.
    pub request: SignedRequest,
    /// The ledger index `i`.
    pub index: LedgerIdx,
    /// The result `o`.
    pub result: TxResult,
}

impl TxLedgerEntry {
    /// The G-tree leaf for this entry. Computable from `(H(t), i, o)`
    /// alone, so receipt verifiers don't need the full request bytes.
    pub fn g_leaf(&self) -> Digest {
        g_leaf_hash(&self.request.digest(), self.index, &self.result)
    }
}

/// Compute a G-tree leaf from receipt components (Alg. 3 line 2).
pub fn g_leaf_hash(tx_hash: &Digest, index: LedgerIdx, result: &TxResult) -> Digest {
    let mut h = Hasher::new();
    h.update([G_LEAF_DOMAIN]);
    h.update(tx_hash);
    h.update(index.0.to_le_bytes());
    h.update(result.digest());
    h.finalize()
}

/// The batch tree `G` over `(H(t), i, o)` triples in batch order: what
/// execution builds and what a reader of a recorded run rebuilds.
pub fn g_tree<'a>(
    triples: impl IntoIterator<Item = (&'a Digest, LedgerIdx, &'a TxResult)>,
) -> MerkleTree {
    let triples = triples.into_iter();
    let mut leaves = Vec::with_capacity(triples.size_hint().1.unwrap_or(0));
    leaves.extend(triples.map(|(t, i, o)| g_leaf_hash(t, i, o)));
    MerkleTree::from_leaves(leaves)
}

/// One entry in the append-only ledger.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LedgerEntry {
    /// The genesis transaction `gt`: the initial configuration. Its hash is
    /// the service name (§2).
    Genesis {
        /// Configuration 0.
        config: Configuration,
    },
    /// `P_s`: the quorum−1 prepare messages evidencing that the batch at
    /// `seq` prepared (appended when the pre-prepare for `seq + P` is
    /// built).
    Evidence {
        /// The batch this evidence is for.
        seq: SeqNum,
        /// Matching prepare messages from distinct backups.
        prepares: Vec<Prepare>,
    },
    /// `K_s`: the revealed nonces of the quorum whose commitments appear in
    /// the pre-prepare/prepares for `seq`, in bitmap-rank order.
    Nonces {
        /// The batch these nonces are for.
        seq: SeqNum,
        /// Nonces in rank order of the pre-prepare's evidence bitmap.
        nonces: Vec<Nonce>,
    },
    /// A signed pre-prepare.
    PrePrepare(PrePrepare),
    /// A `⟨t, i, o⟩` transaction entry.
    Tx(TxLedgerEntry),
    /// The `N − f` view-change messages accepted by a new primary
    /// (Alg. 2: added "in order of increasing replica identifier").
    ViewChangeSet {
        /// The view being changed to.
        view: View,
        /// Accepted view-change messages, ascending by replica id.
        view_changes: Vec<ViewChange>,
    },
    /// A signed new-view message.
    NewView(NewViewMsg),
}

impl LedgerEntry {
    /// Whether this entry is a leaf of the ledger tree `M`.
    pub fn is_m_leaf(&self) -> bool {
        !matches!(self, LedgerEntry::Tx(_))
    }

    /// The M-tree leaf hash for this entry.
    pub fn m_leaf(&self) -> Digest {
        let mut h = Hasher::new();
        h.update([M_LEAF_DOMAIN]);
        h.update(self.to_bytes());
        h.finalize()
    }
}

wire_struct!(TxResult { ok, output, write_set_digest });
wire_struct!(TxLedgerEntry { request, index, result });
wire_enum!(LedgerEntry {
    0 => Genesis { config },
    1 => Evidence { seq, prepares: seq },
    2 => Nonces { seq, nonces: seq },
    3 => PrePrepare(pp),
    4 => Tx(tx),
    5 => ViewChangeSet { view, view_changes: seq },
    6 => NewView(nv),
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::testutil::test_config;
    use crate::ids::{ClientId, ProcId};
    use crate::messages::testutil::test_pp;
    use crate::request::{Request, RequestAction};
    use ia_ccf_crypto::KeyPair;

    fn tx_entry() -> TxLedgerEntry {
        let kp = KeyPair::from_label("c");
        let req = Request {
            action: RequestAction::App { proc: ProcId(1), args: b"args".to_vec() },
            client: ClientId(9),
            gt_hash: hash_bytes(b"gt"),
            min_index: LedgerIdx(0),
            req_id: 1,
        };
        TxLedgerEntry {
            request: SignedRequest::sign(req, &kp),
            index: LedgerIdx(12),
            result: TxResult { ok: true, output: b"ok".to_vec(), write_set_digest: hash_bytes(b"ws") },
        }
    }

    #[test]
    fn tx_entry_roundtrip() {
        let e = tx_entry();
        assert_eq!(TxLedgerEntry::from_bytes(&e.to_bytes()).unwrap(), e);
    }

    #[test]
    fn g_leaf_matches_component_computation() {
        // The replica computes the leaf from the full entry; the receipt
        // verifier from (H(t), i, o). They must agree (Alg. 3 line 2).
        let e = tx_entry();
        assert_eq!(e.g_leaf(), g_leaf_hash(&e.request.digest(), e.index, &e.result));
    }

    #[test]
    fn g_leaf_depends_on_all_components() {
        let e = tx_entry();
        let base = e.g_leaf();
        assert_ne!(base, g_leaf_hash(&hash_bytes(b"other"), e.index, &e.result));
        assert_ne!(base, g_leaf_hash(&e.request.digest(), LedgerIdx(13), &e.result));
        let other_result =
            TxResult { ok: false, output: b"no".to_vec(), write_set_digest: Digest::zero() };
        assert_ne!(base, g_leaf_hash(&e.request.digest(), e.index, &other_result));
    }

    #[test]
    fn ledger_entry_roundtrips() {
        let kp = KeyPair::from_label("p");
        let (config, _, _) = test_config(4);
        let entries = vec![
            LedgerEntry::Genesis { config },
            LedgerEntry::Evidence { seq: SeqNum(3), prepares: vec![] },
            LedgerEntry::Nonces { seq: SeqNum(3), nonces: vec![Nonce([1; 16]), Nonce([2; 16])] },
            LedgerEntry::PrePrepare(test_pp(0, 5, &kp)),
            LedgerEntry::Tx(tx_entry()),
            LedgerEntry::ViewChangeSet { view: View(1), view_changes: vec![] },
        ];
        for e in entries {
            assert_eq!(LedgerEntry::from_bytes(&e.to_bytes()).unwrap(), e);
        }
    }

    #[test]
    fn m_leaf_classification() {
        let kp = KeyPair::from_label("p");
        assert!(LedgerEntry::PrePrepare(test_pp(0, 1, &kp)).is_m_leaf());
        assert!(LedgerEntry::Evidence { seq: SeqNum(1), prepares: vec![] }.is_m_leaf());
        assert!(!LedgerEntry::Tx(tx_entry()).is_m_leaf());
    }

    #[test]
    fn m_leaf_distinguishes_entries() {
        let a = LedgerEntry::Nonces { seq: SeqNum(1), nonces: vec![Nonce([1; 16])] };
        let b = LedgerEntry::Nonces { seq: SeqNum(2), nonces: vec![Nonce([1; 16])] };
        assert_ne!(a.m_leaf(), b.m_leaf());
    }
}
