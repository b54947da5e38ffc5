//! Merkle existence paths.

use ia_ccf_crypto::{hash_pair, Digest};
use serde::{Deserialize, Serialize};

/// A succinct proof that a leaf occupies position `index` in a tree of
/// `tree_len` leaves with a given root.
///
/// Receipts carry such a path `S` in the per-batch tree `G` (§3.3): "the
/// client checks if `Ḡ = H(H(H(T_{i-1}) || H(⟨t,i,o⟩)) || G_1)`". Sibling
/// *sides* are not stored — they are implied by the bits of `index`, and
/// levels where the node is promoted (no right sibling) contribute no
/// hash, which the verifier detects from `index` and `tree_len`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MerklePath {
    /// Leaf position this path proves.
    pub index: u64,
    /// Total number of leaves in the tree when the path was produced.
    pub tree_len: u64,
    /// Sibling hashes from the leaf level upward.
    pub siblings: Vec<Digest>,
}

impl MerklePath {
    /// Recompute the root implied by `leaf` at this path's position.
    ///
    /// Returns `None` when the path is malformed (too few/many siblings for
    /// the claimed position and tree size).
    pub fn compute_root(&self, leaf: Digest) -> Option<Digest> {
        if self.index >= self.tree_len || self.tree_len == 0 {
            return None;
        }
        let mut h = leaf;
        let mut idx = self.index;
        let mut len = self.tree_len;
        let mut it = self.siblings.iter();
        while len > 1 {
            if idx.is_multiple_of(2) {
                if idx + 1 < len {
                    h = hash_pair(&h, it.next()?);
                }
                // else promoted: h carries up unchanged
            } else {
                h = hash_pair(it.next()?, &h);
            }
            idx /= 2;
            len = len.div_ceil(2);
        }
        if it.next().is_some() {
            return None; // trailing garbage would allow proof malleability
        }
        Some(h)
    }

    /// Check that `leaf` at this position yields `root`.
    pub fn verify(&self, leaf: Digest, root: Digest) -> bool {
        self.compute_root(leaf) == Some(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::MerkleTree;
    use ia_ccf_crypto::hash_bytes;

    #[test]
    fn malformed_paths_rejected() {
        let leaves: Vec<Digest> = (0..9).map(|i| hash_bytes(&[i])).collect();
        let t = MerkleTree::from_leaves(leaves.iter().copied());
        let good = t.path(4).unwrap();

        // Too few siblings.
        let mut short = good.clone();
        short.siblings.pop();
        assert_eq!(short.compute_root(leaves[4]), None);

        // Extra trailing sibling.
        let mut long = good.clone();
        long.siblings.push(hash_bytes(b"extra"));
        assert_eq!(long.compute_root(leaves[4]), None);

        // Index out of claimed range.
        let mut bad_idx = good.clone();
        bad_idx.index = 9;
        assert_eq!(bad_idx.compute_root(leaves[4]), None);

        // Zero-length tree claim.
        let mut zero = good;
        zero.tree_len = 0;
        assert_eq!(zero.compute_root(leaves[4]), None);
    }

    #[test]
    fn single_leaf_path_is_empty() {
        let l = hash_bytes(b"solo");
        let t = MerkleTree::from_leaves([l]);
        let p = t.path(0).unwrap();
        assert!(p.siblings.is_empty());
        assert!(p.verify(l, t.root()));
    }

    #[test]
    fn proof_len_is_logarithmic() {
        let leaves: Vec<Digest> = (0..300u32).map(|i| hash_bytes(&i.to_le_bytes())).collect();
        let t = MerkleTree::from_leaves(leaves.iter().copied());
        let p = t.path(123).unwrap();
        // ceil(log2(300)) == 9: the only non-constant receipt component
        // (§3.3) is logarithmic in the batch size.
        assert!(p.siblings.len() <= 9, "{}", p.siblings.len());
    }
}
