//! Key-value store checkpoints.
//!
//! §3.4: "Checkpoints include the key-value store and the Merkle tree M's
//! newest leaf, root, and the connecting branches." This module holds the
//! KV half; the Merkle frontier lives in `ia-ccf-merkle` and the two are
//! combined by the replica's checkpoint record in `ia-ccf-core`.

use std::collections::BTreeMap;

use ia_ccf_crypto::Digest;
use serde::{Deserialize, Serialize};

use crate::{Key, Value};

/// A point-in-time snapshot of the store with its digest.
///
/// Replicas create one every C sequence numbers; auditors load one to replay
/// a ledger fragment from `s_{C0}` (§4.1) instead of from genesis.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct KvCheckpoint {
    digest: Digest,
    entries: BTreeMap<Key, Value>,
}

impl KvCheckpoint {
    /// Build a checkpoint from a full entry map, computing its digest.
    pub fn from_entries(entries: BTreeMap<Key, Value>) -> Self {
        let digest = digest_of(&entries);
        KvCheckpoint { digest, entries }
    }

    /// The checkpoint digest `d_C` referenced by pre-prepares and receipts.
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// The snapshotted entries.
    pub fn entries(&self) -> &BTreeMap<Key, Value> {
        &self.entries
    }

    /// Number of keys in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty (genesis checkpoint).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Re-derive the digest from the contents and compare — used by
    /// auditors to detect checkpoints whose advertised digest lies about
    /// their contents.
    pub fn verify_integrity(&self) -> bool {
        digest_of(&self.entries) == self.digest
    }

    /// Serialize for checkpoint transfer:
    /// `digest || entry-count || (key-len, key, value-len, value)*`.
    /// The advertised digest travels with the entries so the receiver can
    /// run [`KvCheckpoint::verify_integrity`] before trusting either.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload: usize = self
            .entries
            .iter()
            .map(|(k, v)| 8 + k.len() + v.len())
            .sum();
        let mut out = Vec::with_capacity(32 + 8 + payload);
        out.extend_from_slice(self.digest.as_ref());
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for (k, v) in &self.entries {
            out.extend_from_slice(&(k.len() as u32).to_le_bytes());
            out.extend_from_slice(k);
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(v);
        }
        out
    }

    /// Decode [`KvCheckpoint::to_bytes`]. Length prefixes are checked
    /// against the remaining input before any allocation, so hostile
    /// counts cannot balloon memory; truncated or trailing bytes are
    /// rejected. The decoded checkpoint's digest is whatever the bytes
    /// advertise — callers must still [`KvCheckpoint::verify_integrity`]
    /// and compare against the digest agreed through the protocol.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let (digest, rest) = bytes.split_first_chunk::<32>()?;
        let digest = Digest(*digest);
        let (n_bytes, mut rest) = rest.split_first_chunk::<8>()?;
        let n = u64::from_le_bytes(*n_bytes);
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let (k, r) = take_chunk(rest)?;
            let (v, r) = take_chunk(r)?;
            rest = r;
            entries.insert(k.to_vec(), v.to_vec());
        }
        if !rest.is_empty() {
            return None;
        }
        Some(KvCheckpoint { digest, entries })
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

/// Split one `u32`-length-prefixed chunk off `bytes`.
fn take_chunk(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len_bytes, rest) = bytes.split_first_chunk::<4>()?;
    let len = u32::from_le_bytes(*len_bytes) as usize;
    if rest.len() < len {
        return None;
    }
    Some(rest.split_at(len))
}

fn digest_of(entries: &BTreeMap<Key, Value>) -> Digest {
    crate::digest_entries(entries.len(), entries.iter())
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
    }

    #[test]
    fn forged_checkpoint_fails_integrity() {
        // The advertised digest travels first in the transfer encoding; a
        // server lying about the contents sends one that does not match.
        let honest = KvCheckpoint::from_entries(BTreeMap::from([(b"a".to_vec(), b"1".to_vec())]));
        let mut bytes = honest.to_bytes();
        bytes[0] ^= 1;
        let cp = KvCheckpoint::from_bytes(&bytes).expect("structurally valid");
        assert_eq!(cp.entries(), honest.entries());
        assert!(!cp.verify_integrity());
        assert!(KvCheckpoint::from_bytes_verified(&bytes).is_none());
    }

    #[test]
    fn genesis_checkpoint_is_empty() {
        let cp = KvCheckpoint::from_entries(BTreeMap::new());
        assert!(cp.is_empty());
        assert!(cp.verify_integrity());
    }
}
