//! Key-value store checkpoints.
//!
//! §3.4: "Checkpoints include the key-value store and the Merkle tree M's
//! newest leaf, root, and the connecting branches." This module holds the
//! KV half; the Merkle frontier lives in `ia-ccf-merkle` and the two are
//! combined by the replica's checkpoint record in `ia-ccf-core`.
//!
//! A checkpoint holds the store's buckets by pointer (`buckets.rs`) and
//! their digest, so taking one costs the buckets written since the last
//! one, not the store. Its wire and seed form is `digest ‖ body`, with the
//! canonical body
//!
//! ```text
//! len: u64 ‖ (key-len: u32 ‖ key ‖ value-len: u32 ‖ value)*   (little-endian)
//! ```
//!
//! over the entries in strictly ascending key order, encoded only when the
//! checkpoint is served ([`KvCheckpoint::to_bytes`]). Every byte string has
//! at most one reading: [`KvCheckpoint::from_bytes`] refuses a body that is
//! not the canonical encoding of some store. The digest is the store digest
//! of `buckets.rs`, over the same entries.

use std::collections::BTreeMap;

use ia_ccf_crypto::Digest;

use crate::buckets::Buckets;
use crate::{Key, Value};

/// A point-in-time snapshot of the store: its entries and their digest.
///
/// Replicas create one every C sequence numbers; auditors load one to replay
/// a ledger fragment from `s_{C0}` (§4.1) instead of from genesis.
#[derive(Clone, PartialEq, Eq)]
pub struct KvCheckpoint {
    /// The digest the checkpoint advertises: the store digest when taken
    /// from a store, whatever the bytes said when decoded (see
    /// [`KvCheckpoint::verify_integrity`]).
    digest: Digest,
    /// The entries, shared with the store they were taken from.
    buckets: Buckets,
}

impl std::fmt::Debug for KvCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvCheckpoint").field("digest", &self.digest).field("len", &self.len()).finish()
    }
}

impl KvCheckpoint {
    /// Freeze `buckets` under their digest.
    pub(crate) fn of(buckets: &Buckets) -> Self {
        KvCheckpoint { digest: buckets.digest(), buckets: buckets.clone() }
    }

    /// The frozen entries, for a store to restore by pointer.
    pub(crate) fn buckets(&self) -> &Buckets {
        &self.buckets
    }

    /// Build a checkpoint from a full entry map.
    pub fn from_entries(entries: BTreeMap<Key, Value>) -> Self {
        let mut buckets = Buckets::default();
        for (k, v) in entries {
            buckets.insert(k, v);
        }
        Self::of(&buckets)
    }

    /// The checkpoint digest `d_C` referenced by pre-prepares and receipts.
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// The snapshotted entries in ascending key order.
    pub fn entries(&self) -> impl Iterator<Item = (&[u8], &[u8])> + '_ {
        self.buckets.sorted().into_iter().map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    /// Number of keys in the snapshot.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the snapshot is empty (genesis checkpoint).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Re-derive the digest from the entries, reading no cached bucket
    /// digest, and compare — used by auditors and recoverees to detect
    /// checkpoints whose advertised digest lies about their contents.
    pub fn verify_integrity(&self) -> bool {
        self.buckets.fresh_digest() == self.digest
    }

    /// Serialize for checkpoint transfer: `digest ‖ body`. The advertised
    /// digest travels with the body so the receiver can run
    /// [`KvCheckpoint::verify_integrity`] before trusting either.
    pub fn to_bytes(&self) -> Vec<u8> {
        let entries = self.buckets.sorted();
        let mut out = Vec::new();
        out.extend_from_slice(self.digest.as_ref());
        out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (k, v) in entries {
            out.extend_from_slice(&(k.len() as u32).to_le_bytes());
            out.extend_from_slice(k);
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v);
        }
        out
    }

    /// Decode [`KvCheckpoint::to_bytes`]. The body must be the canonical
    /// encoding of some store: its count matches its entries, keys are
    /// strictly ascending (no duplicates), nothing is truncated or
    /// trailing. Length prefixes are checked against the remaining input
    /// and the whole body is checked before anything is allocated per
    /// entry, so hostile counts cannot balloon memory. The decoded
    /// checkpoint's digest is whatever the bytes advertise — callers must
    /// still [`KvCheckpoint::verify_integrity`] and compare against the
    /// digest agreed through the protocol.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (digest, body) = bytes.split_first_chunk::<32>()?;
        let mut cursor = Cursor::over(body)?;
        let mut prev: Option<&[u8]> = None;
        while cursor.left > 0 {
            let (k, _) = cursor.next_entry()?;
            if prev.is_some_and(|p| p >= k) {
                return None;
            }
            prev = Some(k);
        }
        if !cursor.rest.is_empty() {
            return None;
        }
        let mut cursor = Cursor::over(body)?;
        let mut buckets = Buckets::default();
        while let Some((k, v)) = cursor.next_entry() {
            buckets.insert(k.to_vec(), v.to_vec());
        }
        Some(KvCheckpoint { digest: Digest(*digest), buckets })
    }

    /// Decode and integrity-check in one step: the loading path for
    /// checkpoints read back from untrusted bytes (a disk file, a
    /// transfer payload), where a decodable snapshot whose contents do
    /// not reproduce its advertised digest must read as absent. The
    /// caller still compares the digest against the one agreed through
    /// the protocol — integrity says the bytes are self-consistent, not
    /// that they are the *agreed* snapshot.
    pub fn from_bytes_verified(bytes: &[u8]) -> Option<Self> {
        let cp = Self::from_bytes(bytes)?;
        cp.verify_integrity().then_some(cp)
    }
}

/// A reading position in a body: the entries still announced and the
/// bytes they must come from.
struct Cursor<'a> {
    left: u64,
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Open `body` at its count.
    fn over(body: &'a [u8]) -> Option<Self> {
        let (count, rest) = body.split_first_chunk::<8>()?;
        Some(Cursor { left: u64::from_le_bytes(*count), rest })
    }

    /// The next announced entry; `None` when none is left or the bytes
    /// run out.
    fn next_entry(&mut self) -> Option<(&'a [u8], &'a [u8])> {
        if self.left == 0 {
            return None;
        }
        let (k, rest) = take_chunk(self.rest)?;
        let (v, rest) = take_chunk(rest)?;
        self.left -= 1;
        self.rest = rest;
        Some((k, v))
    }
}

/// Split one `u32`-length-prefixed chunk off `bytes`.
fn take_chunk(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len_bytes, rest) = bytes.split_first_chunk::<4>()?;
    let len = u32::from_le_bytes(*len_bytes) as usize;
    if rest.len() < len {
        return None;
    }
    Some(rest.split_at(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvStore;

    #[test]
    fn checkpoint_digest_matches_store_digest() {
        let mut kv = KvStore::new();
        kv.begin_tx().unwrap();
        kv.put(b"a".to_vec(), b"1".to_vec()).unwrap();
        kv.commit_tx().unwrap();
        let cp = kv.checkpoint();
        assert_eq!(cp.digest(), kv.digest());
        assert!(cp.verify_integrity());
        assert_eq!(cp.entries().collect::<Vec<_>>(), vec![(&b"a"[..], &b"1"[..])]);
    }

    #[test]
    fn forged_checkpoint_fails_integrity() {
        // The advertised digest travels first in the transfer encoding; a
        // server lying about the contents sends one that does not match.
        let honest = KvCheckpoint::from_entries(BTreeMap::from([(b"a".to_vec(), b"1".to_vec())]));
        let mut bytes = honest.to_bytes();
        bytes[0] ^= 1;
        let cp = KvCheckpoint::from_bytes(&bytes).expect("structurally valid");
        assert!(cp.entries().eq(honest.entries()));
        assert!(!cp.verify_integrity());
        assert!(KvCheckpoint::from_bytes_verified(&bytes).is_none());
    }

    #[test]
    fn genesis_checkpoint_is_empty() {
        let cp = KvCheckpoint::from_entries(BTreeMap::new());
        assert!(cp.is_empty());
        assert!(cp.verify_integrity());
        assert_eq!(cp.entries().count(), 0);
    }
}
