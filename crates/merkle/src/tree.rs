//! The append-only Merkle tree.

use ia_ccf_crypto::{hash_pair, Digest};
use serde::{Deserialize, Serialize};

use crate::path::MerklePath;

/// An append-only Merkle tree over 32-byte leaf digests.
///
/// Internally a pyramid of levels: `levels[0]` holds the leaves and
/// `levels[k + 1][j]` is `H(levels[k][2j] || levels[k][2j+1])`, or a
/// promoted copy of `levels[k][2j]` when it has no right sibling. The top
/// level holds the root. Invariant: `levels[k+1].len() == ceil(levels[k].len() / 2)`
/// and the top level has exactly one element (when the tree is non-empty).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MerkleTree {
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// An empty tree.
    pub fn new() -> Self {
        MerkleTree { levels: Vec::new() }
    }

    /// Build a tree from a leaf sequence.
    pub fn from_leaves(leaves: impl IntoIterator<Item = Digest>) -> Self {
        let mut t = Self::new();
        t.extend(leaves);
        t
    }

    /// Number of leaves.
    pub fn len(&self) -> u64 {
        self.levels.first().map_or(0, |l| l.len() as u64)
    }

    /// Whether the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The root digest. The empty tree has the all-zero sentinel root.
    pub fn root(&self) -> Digest {
        self.levels.last().and_then(|l| l.first()).copied().unwrap_or_else(Digest::zero)
    }

    /// Append many leaves at once (batch amortization, §3.4): each level
    /// of the pyramid is rebuilt in a single pass per call — one
    /// reservation and one contiguous recompute from the first dirty node.
    pub fn extend(&mut self, leaves: impl IntoIterator<Item = Digest>) {
        if self.levels.is_empty() {
            self.levels.push(Vec::new());
        }
        let old_len = self.levels[0].len();
        self.levels[0].extend(leaves);
        if self.levels[0].len() == old_len {
            return;
        }
        // Recompute parents upward starting at the first node whose
        // children changed; the old right edge may have been a promoted
        // node, so it counts as dirty.
        let mut dirty = old_len.saturating_sub(1);
        let mut lvl = 0;
        while self.levels[lvl].len() > 1 {
            let parent_len = self.levels[lvl].len().div_ceil(2);
            let first_parent = dirty / 2;
            if lvl + 1 == self.levels.len() {
                self.levels.push(Vec::new());
            }
            let (lower, upper) = self.levels.split_at_mut(lvl + 1);
            let cur = &lower[lvl];
            let up = &mut upper[0];
            up.truncate(first_parent);
            up.reserve(parent_len - first_parent);
            for pi in first_parent..parent_len {
                let left = cur[2 * pi];
                let parent = match cur.get(2 * pi + 1) {
                    Some(right) => hash_pair(&left, right),
                    None => left,
                };
                up.push(parent);
            }
            dirty = first_parent;
            lvl += 1;
        }
    }

    /// Existence path for the leaf at `index`: the sibling hashes from leaf
    /// to root (promoted levels contribute nothing). `None` when out of
    /// range.
    pub fn path(&self, index: u64) -> Option<MerklePath> {
        let n = self.len();
        if index >= n {
            return None;
        }
        let mut siblings = Vec::with_capacity(self.levels.len().saturating_sub(1));
        let mut idx = index as usize;
        let mut len = n as usize;
        let mut lvl = 0;
        while len > 1 {
            if idx.is_multiple_of(2) {
                if idx + 1 < len {
                    siblings.push(self.levels[lvl][idx + 1]);
                }
                // else: promoted, no sibling at this level
            } else {
                siblings.push(self.levels[lvl][idx - 1]);
            }
            idx /= 2;
            len = len.div_ceil(2);
            lvl += 1;
        }
        Some(MerklePath { index, tree_len: n, siblings })
    }

    /// This tree, which serves its own authentication paths through
    /// [`MerkleTree::path`]. Kept as a name only: the benchmark's
    /// `merkle.frozen_path_ns` probe calls it.
    pub fn freeze_paths(&self) -> &Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_crypto::hash_bytes;

    pub(crate) fn leaves(n: usize) -> Vec<Digest> {
        (0..n).map(|i| hash_bytes(format!("leaf-{i}").as_bytes())).collect()
    }

    /// Reference root computation: repeatedly pair up, promoting odd tails.
    pub(crate) fn naive_root(leaves: &[Digest]) -> Digest {
        if leaves.is_empty() {
            return Digest::zero();
        }
        let mut level: Vec<Digest> = leaves.to_vec();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|c| if c.len() == 2 { hash_pair(&c[0], &c[1]) } else { c[0] })
                .collect();
        }
        level[0]
    }

    #[test]
    fn empty_tree_has_zero_root() {
        assert_eq!(MerkleTree::new().root(), Digest::zero());
        assert!(MerkleTree::new().is_empty());
    }

    #[test]
    fn incremental_root_matches_naive_for_all_small_sizes() {
        let ls = leaves(65);
        let mut tree = MerkleTree::new();
        for (i, l) in ls.iter().enumerate() {
            tree.extend([*l]);
            assert_eq!(tree.root(), naive_root(&ls[..=i]), "size {}", i + 1);
        }
    }

    #[test]
    fn extend_matches_sequential_appends_for_all_small_splits() {
        let ls = leaves(48);
        for old in 0..=16usize {
            for add in 0..=16usize {
                let mut by_extend = MerkleTree::from_leaves(ls[..old].iter().copied());
                by_extend.extend(ls[old..old + add].iter().copied());

                let mut by_append = MerkleTree::new();
                for l in &ls[..old + add] {
                    by_append.extend([*l]);
                }
                assert_eq!(by_extend.root(), by_append.root(), "old={old} add={add}");
                assert_eq!(by_extend.len(), by_append.len());
                // The interior must match too, or later paths diverge.
                for i in 0..(old + add) as u64 {
                    assert_eq!(
                        by_extend.path(i).unwrap(),
                        by_append.path(i).unwrap(),
                        "old={old} add={add} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn extend_empty_batch_is_noop() {
        let mut t = MerkleTree::from_leaves(leaves(5));
        let root = t.root();
        t.extend(std::iter::empty());
        assert_eq!(t.root(), root);
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn single_leaf_root_is_leaf() {
        let l = hash_bytes(b"only");
        let t = MerkleTree::from_leaves([l]);
        assert_eq!(t.root(), l);
    }

    #[test]
    fn paths_verify_for_every_leaf_and_size() {
        for n in 1..40usize {
            let ls = leaves(n);
            let t = MerkleTree::from_leaves(ls.iter().copied());
            for (i, l) in ls.iter().enumerate() {
                let p = t.path(i as u64).expect("path exists");
                assert!(p.verify(*l, t.root()), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn path_rejects_wrong_leaf_and_wrong_root() {
        let ls = leaves(13);
        let t = MerkleTree::from_leaves(ls.iter().copied());
        let p = t.path(5).unwrap();
        assert!(!p.verify(hash_bytes(b"not-the-leaf"), t.root()));
        assert!(!p.verify(ls[5], hash_bytes(b"not-the-root")));
    }

    #[test]
    fn path_out_of_range_is_none() {
        let t = MerkleTree::from_leaves(leaves(4));
        assert!(t.path(4).is_none());
        assert!(MerkleTree::new().path(0).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{leaves, naive_root};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn root_matches_naive(n in 0usize..200) {
            let ls = leaves(n);
            let t = MerkleTree::from_leaves(ls.iter().copied());
            prop_assert_eq!(t.root(), naive_root(&ls));
        }

        #[test]
        fn every_path_verifies(n in 1usize..120, pick in 0usize..120) {
            let ls = leaves(n);
            let i = pick % n;
            let t = MerkleTree::from_leaves(ls.iter().copied());
            let p = t.path(i as u64).unwrap();
            prop_assert!(p.verify(ls[i], t.root()));
        }

        #[test]
        fn path_binds_position(n in 2usize..80, a in 0usize..80, b in 0usize..80) {
            let (a, b) = (a % n, b % n);
            prop_assume!(a != b);
            let ls = leaves(n);
            let t = MerkleTree::from_leaves(ls.iter().copied());
            // A path for position `a` must not verify the leaf at `b`.
            let p = t.path(a as u64).unwrap();
            prop_assert!(!p.verify(ls[b], t.root()) || ls[a] == ls[b]);
        }
    }
}
