//! The checkpoint encoding against the code it replaced.
//!
//! A checkpoint is its canonical body `len ‖ (key-len ‖ key ‖ value-len ‖
//! value)*` and its digest is one hash of those bytes. Before, the digest
//! was streamed field by field over the map (`digest_entries`, kept below
//! as the oracle) and the checkpoint was a cloned `BTreeMap`. Every digest
//! replicas and auditors agree on must be unchanged, and a body that is not
//! the encoding of some store must not decode.

use std::collections::BTreeMap;

use ia_ccf_crypto::{hash_bytes, Digest, Hasher};
use ia_ccf_kv::{KvCheckpoint, KvStore};
use proptest::collection::vec;
use proptest::prelude::*;

/// The retired streaming digest, verbatim: the reference every store and
/// checkpoint digest is held to.
fn streaming_digest(entries: &BTreeMap<Vec<u8>, Vec<u8>>) -> Digest {
    let mut h = Hasher::new();
    h.update((entries.len() as u64).to_le_bytes());
    for (k, v) in entries {
        h.update((k.len() as u32).to_le_bytes());
        h.update(k);
        h.update((v.len() as u32).to_le_bytes());
        h.update(v);
    }
    h.finalize()
}

/// A body written by hand: `count`, then `entries` in the order given.
fn body(count: u64, entries: &[(&[u8], &[u8])]) -> Vec<u8> {
    let mut out = count.to_le_bytes().to_vec();
    for (k, v) in entries {
        out.extend_from_slice(&(k.len() as u32).to_le_bytes());
        out.extend_from_slice(k);
        out.extend_from_slice(&(v.len() as u32).to_le_bytes());
        out.extend_from_slice(v);
    }
    out
}

/// `digest ‖ body` with the digest the body hashes to, so only the
/// structure can be refused.
fn self_consistent(body: Vec<u8>) -> Vec<u8> {
    let mut out = hash_bytes(&body).as_ref().to_vec();
    out.extend(body);
    out
}

/// Apply `puts` then `deletes` to a store, returning the checkpoint bytes
/// and the store digest.
fn run(puts: &[(Vec<u8>, Vec<u8>)], deletes: &[Vec<u8>]) -> (Vec<u8>, Digest) {
    let mut kv = KvStore::new();
    kv.begin_tx().unwrap();
    for (k, v) in puts {
        kv.put(k.clone(), v.clone()).unwrap();
    }
    for k in deletes {
        kv.delete(k.clone()).unwrap();
    }
    kv.commit_tx().unwrap();
    (kv.checkpoint().to_bytes(), kv.digest())
}

proptest! {
    /// A store writes the body the model encodes, and its digest is the
    /// streaming oracle's; the bytes round-trip and restore.
    #[test]
    fn one_encoding_for_every_layout(
        puts in vec((vec(any::<u8>(), 0..4), vec(any::<u8>(), 0..12)), 0..60),
        deletes in vec(vec(any::<u8>(), 0..4), 0..10),
    ) {
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = puts.iter().cloned().collect();
        for k in &deletes {
            model.remove(k);
        }
        let want = streaming_digest(&model);
        let reference = KvCheckpoint::from_entries(model.clone());
        prop_assert_eq!(reference.digest(), want);
        prop_assert_eq!(reference.len(), model.len());
        let (bytes, digest) = run(&puts, &deletes);
        prop_assert_eq!(&bytes, &reference.to_bytes());
        prop_assert_eq!(digest, want);
        prop_assert_eq!(hash_bytes(&bytes[32..]), want);

        let decoded = KvCheckpoint::from_bytes_verified(&bytes).expect("round trip");
        prop_assert_eq!(&decoded, &reference);
        let entries: BTreeMap<Vec<u8>, Vec<u8>> =
            decoded.entries().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        prop_assert_eq!(&entries, &model);

        let mut restored = KvStore::new();
        restored.restore(&decoded);
        prop_assert_eq!(restored.digest(), want);
        prop_assert_eq!(restored.len(), model.len());
    }
}

#[test]
fn empty_store_digest_is_the_oracles() {
    let empty = BTreeMap::new();
    assert_eq!(KvStore::new().digest(), streaming_digest(&empty));
    assert_eq!(KvStore::new().checkpoint().to_bytes().len(), 32 + 8);
}

#[test]
fn truncated_and_trailing_bodies_are_refused() {
    let honest = self_consistent(body(2, &[(b"a", b"1"), (b"b", b"22")]));
    assert!(KvCheckpoint::from_bytes_verified(&honest).is_some());
    for cut in 0..honest.len() {
        assert!(KvCheckpoint::from_bytes(&honest[..cut]).is_none(), "cut at {cut}");
    }
    let mut trailing = honest.clone();
    trailing.push(0);
    assert!(KvCheckpoint::from_bytes(&trailing).is_none());
}

#[test]
fn hostile_counts_are_refused_without_allocating() {
    // Counts larger than the entries present: from one more up to u64::MAX.
    for count in [3, 4, 1 << 40, u64::MAX] {
        let bytes = self_consistent(body(count, &[(b"a", b"1"), (b"b", b"2")]));
        assert!(KvCheckpoint::from_bytes(&bytes).is_none(), "count {count}");
    }
    // One fewer: the last entry is trailing bytes.
    let bytes = self_consistent(body(1, &[(b"a", b"1"), (b"b", b"2")]));
    assert!(KvCheckpoint::from_bytes(&bytes).is_none());
    // A chunk length past the end of the input.
    let mut bytes = body(1, &[(b"a", b"1")]);
    bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(KvCheckpoint::from_bytes(&self_consistent(bytes)).is_none());
}

#[test]
fn non_ascending_and_duplicate_keys_are_refused() {
    // The old decoder sorted and de-duplicated these into a map, so each
    // decoded to *some* store; none is the encoding of one.
    let descending = self_consistent(body(2, &[(b"b", b"2"), (b"a", b"1")]));
    assert!(KvCheckpoint::from_bytes(&descending).is_none());
    let duplicate = self_consistent(body(2, &[(b"a", b"1"), (b"a", b"1")]));
    assert!(KvCheckpoint::from_bytes(&duplicate).is_none());
    let shadowed = self_consistent(body(3, &[(b"a", b"1"), (b"b", b"2"), (b"b", b"3")]));
    assert!(KvCheckpoint::from_bytes(&shadowed).is_none());
    // A prefix sorts before its extensions; the empty key before all.
    let prefixes = self_consistent(body(3, &[(b"", b"0"), (b"a", b"1"), (b"ab", b"2")]));
    assert!(KvCheckpoint::from_bytes_verified(&prefixes).is_some());
    let reversed = self_consistent(body(2, &[(b"ab", b"2"), (b"a", b"1")]));
    assert!(KvCheckpoint::from_bytes(&reversed).is_none());
}
