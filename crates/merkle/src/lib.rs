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
//! Each tree has one representation:
//!
//! * `G` is a [`MerkleTree`], built once from its leaves
//!   ([`MerkleTree::from_leaves`], [`MerkleTree::extend`]); it serves its
//!   own succinct existence proofs, [`MerkleTree::path`] /
//!   [`MerklePath::verify`], to receipt emission and re-fetch;
//! * `M` is a [`Frontier`] — the "newest leaf, root, and connecting
//!   branches" checkpointed in §3.4, enough to keep appending without old
//!   leaves — in the replica's ledger and in the auditor alike. Rolling
//!   back a suffix (Appx. A Lemma 1) re-appends the surviving leaves to
//!   the frontier at the replica's rollback floor, so `M` never needs its
//!   interior.
//!
//! Interior node rule: `H(left || right)`; a node without a right sibling is
//! promoted unchanged to the next level (no self-duplication, so no
//! second-preimage ambiguity between trees of different sizes at the same
//! root position — the verifier always knows the tree length).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod frontier;
mod path;
mod tree;

pub use frontier::Frontier;
pub use path::MerklePath;
pub use tree::MerkleTree;

pub use ia_ccf_crypto::{hash_bytes, hash_pair, Digest};
