//! Identifiers and protocol numbers.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A replica identifier, unique across the whole service lifetime (new
/// replicas added by governance get fresh ids; ids are never reused).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Debug, Default)]
pub struct ReplicaId(pub u32);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A client identifier (derived from the client's public signing key).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Debug, Default)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{:x}", self.0)
    }
}

/// A consortium member identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Debug, Default)]
pub struct MemberId(pub u32);

impl fmt::Display for MemberId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A view number. The primary of view `v` is the replica with rank
/// `v mod N` in the active configuration.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Debug, Default)]
pub struct View(pub u64);

impl View {
    /// The next view.
    pub fn next(self) -> View {
        View(self.0 + 1)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A batch sequence number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Debug, Default)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// The next sequence number.
    pub fn next(self) -> SeqNum {
        SeqNum(self.0 + 1)
    }
    /// Saturating `n` earlier.
    pub fn minus(self, n: u64) -> SeqNum {
        SeqNum(self.0.saturating_sub(n))
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A ledger index: the position of an entry in the append-only ledger.
/// Transactions are identified by the index of their `⟨t, i, o⟩` entry.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Debug, Default)]
pub struct LedgerIdx(pub u64);

impl LedgerIdx {
    /// The next index.
    pub fn next(self) -> LedgerIdx {
        LedgerIdx(self.0 + 1)
    }
}

impl fmt::Display for LedgerIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// A stored-procedure identifier. Service logic is invoked by procedure id
/// plus argument bytes (§2: "clients send requests to execute transactions
/// by calling stored procedures").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Debug, Default)]
pub struct ProcId(pub u16);

/// A bitmap over the *ranks* of replicas in the active configuration,
/// matching the paper's 8-byte `E` bitmaps ("our implementation uses
/// 8 bytes in the E_{s−P} bitmap to support up to 64 replicas").
///
/// Bit `k` refers to the replica with rank `k` when the configuration's
/// replicas are sorted by [`ReplicaId`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Debug, Default)]
pub struct ReplicaBitmap(pub u64);

impl ReplicaBitmap {
    /// The empty bitmap.
    pub const fn empty() -> Self {
        ReplicaBitmap(0)
    }

    /// Set the bit for `rank`.
    pub fn set(&mut self, rank: usize) {
        debug_assert!(rank < 64, "configurations are limited to 64 replicas");
        self.0 |= 1 << rank;
    }

    /// Whether the bit for `rank` is set.
    pub fn contains(&self, rank: usize) -> bool {
        rank < 64 && (self.0 >> rank) & 1 == 1
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterate over set ranks in increasing order — the paper's "sorted in
    /// increasing order of replica identifier".
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..64).filter(|r| self.contains(*r))
    }

    /// Build from an iterator of ranks.
    pub fn from_ranks(ranks: impl IntoIterator<Item = usize>) -> Self {
        let mut b = Self::empty();
        for r in ranks {
            b.set(r);
        }
        b
    }

    /// Ranks set in both bitmaps — used by blame assignment, which
    /// intersects signer sets (§4.1).
    pub fn intersect(&self, other: &ReplicaBitmap) -> ReplicaBitmap {
        ReplicaBitmap(self.0 & other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_contains_count() {
        let mut b = ReplicaBitmap::empty();
        b.set(0);
        b.set(5);
        b.set(63);
        assert!(b.contains(0) && b.contains(5) && b.contains(63));
        assert!(!b.contains(1) && !b.contains(62));
        assert_eq!(b.count(), 3);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![0, 5, 63]);
    }

    #[test]
    fn bitmap_intersection() {
        let a = ReplicaBitmap::from_ranks([0, 1, 2, 3]);
        let b = ReplicaBitmap::from_ranks([2, 3, 4]);
        assert_eq!(a.intersect(&b).iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn seq_arithmetic() {
        assert_eq!(SeqNum(5).next(), SeqNum(6));
        assert_eq!(SeqNum(2).minus(5), SeqNum(0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(ReplicaId(3).to_string(), "r3");
        assert_eq!(View(9).to_string(), "v9");
        assert_eq!(SeqNum(4).to_string(), "s4");
        assert_eq!(LedgerIdx(7).to_string(), "i7");
    }
}
