//! Append-only Merkle trees for IA-CCF.
//!
//! L-PBFT maintains two kinds of trees (§3.1, Fig. 3):
//!
//! * the ledger tree `M`, whose leaves are (hashes of) ledger entries —
//!   evidence entries, pre-prepare entries, view-change/new-view entries —
//!   and whose root `M̄` appears inside every signed pre-prepare, committing
//!   the replica to the entire ledger history;
//! * a small per-batch tree `G` over the `⟨t, i, o⟩` transaction entries of
//!   one batch, whose root `Ḡ` also appears in the pre-prepare. Receipts
//!   carry a sibling path `S` in `G` (§3.3).
//!
//! `G` is a [`MerkleTree`]. The structure supports:
//!
//! * O(log n) amortized [`MerkleTree::append`];
//! * [`MerkleTree::path`] / [`MerklePath::verify`] — succinct existence
//!   proofs, plus [`FrozenPaths`] — a memoized view for immutable trees
//!   that computes each level's sibling array once and answers `path(i)`
//!   by slicing (receipt emission/re-fetch serve from it);
//! * [`Frontier`] — the "newest leaf, root, and connecting branches"
//!   checkpointed in §3.4, enough to continue appending without old leaves.
//!   The ledger holds `M` as a frontier: rolling back a suffix (Appx. A
//!   Lemma 1) re-appends the surviving leaves to the frontier at the
//!   replica's rollback floor, so `M` never needs its interior.
//!
//! Interior node rule: `H(left || right)`; a node without a right sibling is
//! promoted unchanged to the next level (no self-duplication, so no
//! second-preimage ambiguity between trees of different sizes at the same
//! root position — the verifier always knows the tree length).

#![forbid(unsafe_code)]

mod frontier;
mod frozen;
mod path;
mod tree;

pub use frontier::Frontier;
pub use frozen::FrozenPaths;
pub use path::MerklePath;
pub use tree::MerkleTree;

pub use ia_ccf_crypto::{hash_bytes, hash_pair, Digest};
