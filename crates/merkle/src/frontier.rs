//! Tree frontiers: append-capable summaries of a Merkle tree.

use ia_ccf_crypto::{hash_pair, Digest};
use serde::{Deserialize, Serialize};

/// The right edge of a Merkle tree: for every level, the last node *iff*
/// that level currently has odd length (i.e. the node is unpaired and will
/// be combined with a future sibling).
///
/// A frontier is exactly the state checkpoints persist for the ledger tree
/// `M` (§3.4): it allows a replica restoring from a checkpoint to keep
/// appending leaves and computing roots without the interior of the tree,
/// and its root must match the root in the checkpoint's receipt.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Frontier {
    len: u64,
    /// `peaks[k]` is the unpaired node at level `k`, when one exists.
    peaks: Vec<Option<Digest>>,
}

impl Frontier {
    /// An empty frontier (empty tree).
    pub fn new() -> Self {
        Frontier { len: 0, peaks: Vec::new() }
    }

    /// The unpaired node (if any) at each level, ascending — together
    /// with [`Frontier::len`] the full serializable state.
    pub fn peaks(&self) -> &[Option<Digest>] {
        &self.peaks
    }

    /// Serialize as `len || peak-count || (flag, digest?)*` — the wire
    /// form checkpoint transfers carry.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 4 + self.peaks.len() * 33);
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&(self.peaks.len() as u32).to_le_bytes());
        for peak in &self.peaks {
            match peak {
                Some(d) => {
                    out.push(1);
                    out.extend_from_slice(d.as_ref());
                }
                None => out.push(0),
            }
        }
        out
    }

    /// Decode [`Frontier::to_bytes`]. Rejects truncated or trailing
    /// bytes; the peak count is bounded (a tree of 2^64 leaves has 64
    /// levels) so hostile lengths cannot force allocation.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (len_bytes, rest) = bytes.split_first_chunk::<8>()?;
        let len = u64::from_le_bytes(*len_bytes);
        let (n_bytes, mut rest) = rest.split_first_chunk::<4>()?;
        let n = u32::from_le_bytes(*n_bytes);
        if n > 64 {
            return None;
        }
        let mut peaks = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let (&flag, r) = rest.split_first()?;
            rest = r;
            match flag {
                0 => peaks.push(None),
                1 => {
                    let (d, r) = rest.split_first_chunk::<32>()?;
                    rest = r;
                    peaks.push(Some(Digest(*d)));
                }
                _ => return None,
            }
        }
        if !rest.is_empty() {
            return None;
        }
        Some(Frontier { len, peaks })
    }

    /// Number of leaves in the summarized tree.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the summarized tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a leaf. Carries only unpaired nodes: when the incoming node
    /// finds a peak at its level, the two are hashed and the combination
    /// carries to the next level, so a leaf costs a hash only per pairing.
    pub fn append(&mut self, leaf: Digest) {
        let mut carry = leaf;
        let mut lvl = 0;
        loop {
            if lvl == self.peaks.len() {
                self.peaks.push(None);
            }
            match self.peaks[lvl].take() {
                Some(peak) => {
                    carry = hash_pair(&peak, &carry);
                    lvl += 1;
                }
                None => {
                    self.peaks[lvl] = Some(carry);
                    break;
                }
            }
        }
        self.len += 1;
    }

    /// Root of the summarized tree. Under the promotion rule an unpaired
    /// node carries upward unchanged until it meets a higher subtree on its
    /// left, so peaks combine bottom-up: starting from the lowest peak,
    /// each higher peak `p` wraps the accumulator as `H(p || acc)`.
    /// Empty ⇒ zero sentinel.
    pub fn root(&self) -> Digest {
        let mut acc: Option<Digest> = None;
        for peak in self.peaks.iter().flatten() {
            acc = Some(match acc {
                None => *peak,
                Some(lower) => hash_pair(peak, &lower),
            });
        }
        acc.unwrap_or_else(Digest::zero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::MerkleTree;
    use ia_ccf_crypto::hash_bytes;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n).map(|i| hash_bytes(format!("f-{i}").as_bytes())).collect()
    }

    #[test]
    fn frontier_root_matches_tree_root_at_every_size() {
        let ls = leaves(70);
        let mut frontier = Frontier::new();
        assert_eq!(frontier.root(), MerkleTree::new().root());
        for (i, l) in ls.iter().enumerate() {
            let tree = MerkleTree::from_leaves(ls[..=i].iter().copied());
            frontier.append(*l);
            assert_eq!(frontier.root(), tree.root(), "len {}", tree.len());
            assert_eq!(frontier.len(), tree.len());
        }
    }

    #[test]
    fn extracted_frontier_continues_correctly() {
        // A frontier taken at 30 leaves (a checkpoint's) keeps appending
        // to the same roots as the whole tree.
        let ls = leaves(50);
        let mut tree = MerkleTree::from_leaves(ls[..30].iter().copied());
        let mut frontier = Frontier::new();
        for l in &ls[..30] {
            frontier.append(*l);
        }
        let mut resumed = Frontier::from_bytes(&frontier.to_bytes()).expect("roundtrip");
        assert_eq!(resumed.root(), tree.root());
        for l in &ls[30..] {
            tree.extend([*l]);
            resumed.append(*l);
            assert_eq!(resumed.root(), tree.root());
        }
    }

    #[test]
    fn bytes_roundtrip_at_every_size() {
        let ls = leaves(33);
        let mut f = Frontier::new();
        for l in &ls {
            f.append(*l);
            let bytes = f.to_bytes();
            let back = Frontier::from_bytes(&bytes).expect("roundtrip");
            assert_eq!(back, f);
            assert_eq!(back.root(), f.root());
            // Truncations and trailing garbage are rejected, not
            // misdecoded.
            assert!(Frontier::from_bytes(&bytes[..bytes.len() - 1]).is_none());
            let mut long = bytes.clone();
            long.push(0);
            assert!(Frontier::from_bytes(&long).is_none());
        }
        // A hostile peak count cannot force allocation.
        let mut forged = 0u64.to_le_bytes().to_vec();
        forged.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Frontier::from_bytes(&forged).is_none());
    }

    #[test]
    fn frontier_of_power_of_two_has_single_peak() {
        let ls = leaves(16);
        let t = MerkleTree::from_leaves(ls.iter().copied());
        let mut f = Frontier::new();
        for l in &ls {
            f.append(*l);
        }
        let peaks: Vec<usize> =
            f.peaks().iter().enumerate().filter(|(_, p)| p.is_some()).map(|(k, _)| k).collect();
        assert_eq!(peaks, [4], "16 leaves are one complete subtree");
        assert_eq!(f.peaks()[4], Some(t.root()));
        assert_eq!(f.root(), t.root());
        assert_eq!(f.len(), 16);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::tree::MerkleTree;
    use ia_ccf_crypto::hash_bytes;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn frontier_always_tracks_tree(n in 0usize..256) {
            let ls: Vec<Digest> = (0..n).map(|i| hash_bytes(&(i as u64).to_le_bytes())).collect();
            let tree = MerkleTree::from_leaves(ls.iter().copied());
            let mut frontier = Frontier::new();
            for l in &ls {
                frontier.append(*l);
            }
            prop_assert_eq!(frontier.root(), tree.root());
            prop_assert_eq!(frontier.len(), tree.len());
        }

        #[test]
        fn resume_from_any_cut(total in 1usize..200, cut_frac in 0.0f64..1.0) {
            let cut = ((total as f64) * cut_frac) as usize;
            let ls: Vec<Digest> =
                (0..total).map(|i| hash_bytes(&(i as u64).to_le_bytes())).collect();
            let tree = MerkleTree::from_leaves(ls.iter().copied());
            let mut f = Frontier::new();
            for l in &ls[..cut] {
                f.append(*l);
            }
            let mut f = Frontier::from_bytes(&f.to_bytes()).expect("roundtrip");
            for l in &ls[cut..] {
                f.append(*l);
            }
            prop_assert_eq!(f.root(), tree.root());
        }
    }
}
