//! The checkpoint encoding and the store digest against a naive
//! reference.
//!
//! A checkpoint travels as `digest ‖ body`, the body its canonical
//! encoding `len ‖ (key-len ‖ key ‖ value-len ‖ value)*` in ascending key
//! order. The digest is computed over 1024 buckets (FNV-1a 64 of the key,
//! mod 1024): `H(tag ‖ len ‖ D_0 ‖ … ‖ D_1023)`, each `D_b` the single-hash
//! digest of bucket `b`'s entries. The store computes it incrementally;
//! [`streaming_digest`] computes it from scratch, and every digest
//! replicas and auditors agree on must equal it. A body that is not the
//! encoding of some store must not decode.
//!
//! A transaction's write-set digest, which `commit_tx` reads off the undo
//! log, is held the same way to [`write_set_digest`], taken over a model of
//! the transaction's final effects.

use std::collections::BTreeMap;

use ia_ccf_crypto::{Digest, Hasher};
use ia_ccf_kv::{KvCheckpoint, KvStore};
use proptest::collection::vec;
use proptest::prelude::*;

/// Buckets the digest is cut into: part of its definition.
const BUCKETS: usize = 1024;

/// FNV-1a 64 of `key`, mod [`BUCKETS`].
fn bucket_of(key: &[u8]) -> usize {
    let fnv = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    (key.iter().fold(0xcbf2_9ce4_8422_2325, fnv) % BUCKETS as u64) as usize
}

/// The store digest of `entries`, taken in the order given (ascending for
/// any store), computed from scratch: the reference every store and
/// checkpoint digest is held to.
fn streaming_digest<'a>(entries: impl IntoIterator<Item = (&'a [u8], &'a [u8])>) -> Digest {
    let mut buckets: Vec<Vec<(&[u8], &[u8])>> = vec![Vec::new(); BUCKETS];
    let mut count = 0u64;
    for (k, v) in entries {
        buckets[bucket_of(k)].push((k, v));
        count += 1;
    }
    let mut top = Hasher::new();
    top.update(b"ia-ccf/kv-store/buckets-v1");
    top.update(count.to_le_bytes());
    for bucket in buckets {
        let mut h = Hasher::new();
        h.update((bucket.len() as u64).to_le_bytes());
        for (k, v) in bucket {
            h.update((k.len() as u32).to_le_bytes());
            h.update(k);
            h.update((v.len() as u32).to_le_bytes());
            h.update(v);
        }
        top.update(h.finalize());
    }
    top.finalize()
}

/// The write-set digest of a transaction whose final effects are `writes`
/// (`None` = deleted): `count: u64 ‖ (key-len: u32 ‖ key ‖ 1 ‖ value-len:
/// u32 ‖ value | key-len: u32 ‖ key ‖ 0)*`, little-endian, ascending keys.
fn write_set_digest(writes: &BTreeMap<Vec<u8>, Option<Vec<u8>>>) -> Digest {
    let mut h = Hasher::new();
    h.update((writes.len() as u64).to_le_bytes());
    for (k, v) in writes {
        h.update((k.len() as u32).to_le_bytes());
        h.update(k);
        match v {
            Some(v) => {
                h.update([1u8]);
                h.update((v.len() as u32).to_le_bytes());
                h.update(v);
            }
            None => h.update([0u8]),
        }
    }
    h.finalize()
}

/// [`streaming_digest`] of a model store.
fn model_digest(model: &BTreeMap<Vec<u8>, Vec<u8>>) -> Digest {
    streaming_digest(model.iter().map(|(k, v)| (k.as_slice(), v.as_slice())))
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

/// `digest ‖ body(count, entries)` with the digest of `entries`, so only
/// the structure can be refused.
fn self_consistent(count: u64, entries: &[(&[u8], &[u8])]) -> Vec<u8> {
    let mut out = streaming_digest(entries.iter().copied()).as_ref().to_vec();
    out.extend(body(count, entries));
    out
}

/// A model's entries, in key order, as slices.
fn model_entries(model: &BTreeMap<Vec<u8>, Vec<u8>>) -> Vec<(&[u8], &[u8])> {
    model.iter().map(|(k, v)| (k.as_slice(), v.as_slice())).collect()
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
        let want = model_digest(&model);
        let reference = KvCheckpoint::from_entries(model.clone());
        prop_assert_eq!(reference.digest(), want);
        prop_assert_eq!(reference.len(), model.len());
        let (bytes, digest) = run(&puts, &deletes);
        prop_assert_eq!(&bytes, &reference.to_bytes());
        prop_assert_eq!(digest, want);
        prop_assert_eq!(&bytes[..32], want.as_ref());
        prop_assert_eq!(&bytes[32..], &body(model.len() as u64, &model_entries(&model))[..]);

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
    assert_eq!(KvStore::new().digest(), model_digest(&empty));
    assert_eq!(KvStore::new().checkpoint().to_bytes().len(), 32 + 8);
}

#[test]
fn truncated_and_trailing_bodies_are_refused() {
    let honest = self_consistent(2, &[(b"a", b"1"), (b"b", b"22")]);
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
        let bytes = self_consistent(count, &[(b"a", b"1"), (b"b", b"2")]);
        assert!(KvCheckpoint::from_bytes(&bytes).is_none(), "count {count}");
    }
    // One fewer: the last entry is trailing bytes.
    let bytes = self_consistent(1, &[(b"a", b"1"), (b"b", b"2")]);
    assert!(KvCheckpoint::from_bytes(&bytes).is_none());
    // A chunk length past the end of the input.
    let mut bytes = self_consistent(1, &[(b"a", b"1")]);
    bytes[32 + 8..32 + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(KvCheckpoint::from_bytes(&bytes).is_none());
}

#[test]
fn non_ascending_and_duplicate_keys_are_refused() {
    // The old decoder sorted and de-duplicated these into a map, so each
    // decoded to *some* store; none is the encoding of one.
    let descending = self_consistent(2, &[(b"b", b"2"), (b"a", b"1")]);
    assert!(KvCheckpoint::from_bytes(&descending).is_none());
    let duplicate = self_consistent(2, &[(b"a", b"1"), (b"a", b"1")]);
    assert!(KvCheckpoint::from_bytes(&duplicate).is_none());
    let shadowed = self_consistent(3, &[(b"a", b"1"), (b"b", b"2"), (b"b", b"3")]);
    assert!(KvCheckpoint::from_bytes(&shadowed).is_none());
    // A prefix sorts before its extensions; the empty key before all.
    let prefixes = self_consistent(3, &[(b"", b"0"), (b"a", b"1"), (b"ab", b"2")]);
    assert!(KvCheckpoint::from_bytes_verified(&prefixes).is_some());
    let reversed = self_consistent(2, &[(b"ab", b"2"), (b"a", b"1")]);
    assert!(KvCheckpoint::from_bytes(&reversed).is_none());
}

/// One step of [`the_incremental_digest_is_the_naive_one`]; indices pick
/// from the key pool, the held batch marks or the checkpoints taken.
#[derive(Debug, Clone)]
enum Step {
    Put(usize, u8),
    Delete(usize),
    CommitTx,
    AbortTx,
    BeginBatch,
    RollbackToBatch(usize),
    ReleaseUpTo(usize),
    Checkpoint,
    Restore(usize),
    Reload,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        6 => (0..KEY_POOL, any::<u8>()).prop_map(|(k, v)| Step::Put(k, v)),
        2 => (0..KEY_POOL).prop_map(Step::Delete),
        2 => Just(Step::CommitTx),
        1 => Just(Step::AbortTx),
        2 => Just(Step::BeginBatch),
        1 => (0..8usize).prop_map(Step::RollbackToBatch),
        1 => (0..8usize).prop_map(Step::ReleaseUpTo),
        2 => Just(Step::Checkpoint),
        1 => (0..8usize).prop_map(Step::Restore),
        1 => Just(Step::Reload),
    ]
}

/// Keys the steps write: eight in each of three buckets, so buckets hold
/// several entries and share writes, and eight spread over others.
const KEY_POOL: usize = 32;

fn key_pool() -> Vec<Vec<u8>> {
    let candidates = (0u32..).map(|i| format!("key{i}").into_bytes());
    let mut crowded: Vec<Vec<u8>> = candidates.clone().filter(|k| bucket_of(k) < 3).take(24).collect();
    crowded.extend(candidates.filter(|k| bucket_of(k) >= 3).take(KEY_POOL - 24));
    crowded
}

/// A model store.
type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// A checkpoint with what it held when taken.
struct Taken {
    cp: KvCheckpoint,
    model: Model,
    bytes: Vec<u8>,
    digest: Digest,
}

proptest! {
    /// Random interleavings of transactions, batch rollbacks and releases,
    /// checkpoints, restores and byte round trips: after every step the
    /// store digest is the naive one over a model map, and every earlier
    /// checkpoint still reads its own entries, bytes and digest. Every
    /// commit's write-set digest is the naive one over the transaction's
    /// final effects (rewrites, put-then-delete, deletes of absent keys,
    /// releases while it is open).
    #[test]
    fn the_incremental_digest_is_the_naive_one(steps in vec(step(), 1..60)) {
        let pool = key_pool();
        let mut kv = KvStore::new();
        let mut model = Model::new();
        let mut tx_start: Option<Model> = None;
        let mut tx_writes: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        let mut marks: Vec<(u64, Model)> = Vec::new();
        let mut next_seq = 1u64;
        let mut taken: Vec<Taken> = Vec::new();
        for step in steps {
            match step {
                Step::Put(..) | Step::Delete(_) if tx_start.is_none() => {
                    kv.begin_tx().unwrap();
                    tx_start = Some(model.clone());
                    tx_writes.clear();
                }
                _ => {}
            }
            match step {
                Step::Put(k, v) => {
                    kv.put(pool[k].clone(), vec![v; 1 + k % 3]).unwrap();
                    model.insert(pool[k].clone(), vec![v; 1 + k % 3]);
                    tx_writes.insert(pool[k].clone(), Some(vec![v; 1 + k % 3]));
                }
                Step::Delete(k) => {
                    kv.delete(pool[k].clone()).unwrap();
                    model.remove(&pool[k]);
                    tx_writes.insert(pool[k].clone(), None);
                }
                Step::CommitTx => {
                    if tx_start.take().is_some() {
                        prop_assert_eq!(kv.commit_tx().unwrap(), write_set_digest(&tx_writes));
                    }
                }
                Step::AbortTx => {
                    if let Some(start) = tx_start.take() {
                        kv.abort_tx().unwrap();
                        model = start;
                    }
                }
                Step::BeginBatch => {
                    if tx_start.take().is_some() {
                        prop_assert_eq!(kv.commit_tx().unwrap(), write_set_digest(&tx_writes));
                    }
                    kv.begin_batch(next_seq);
                    marks.push((next_seq, model.clone()));
                    next_seq += 1;
                }
                Step::RollbackToBatch(i) => {
                    if i < marks.len() {
                        kv.rollback_to_batch(marks[i].0).unwrap();
                        model = marks[i].1.clone();
                        marks.truncate(i);
                        tx_start = None;
                    }
                }
                Step::ReleaseUpTo(i) => {
                    if let Some(&(seq, _)) = marks.get(i) {
                        kv.release_batches_up_to(seq);
                        marks.drain(..=i);
                    }
                }
                Step::Checkpoint => {
                    let cp = kv.checkpoint();
                    prop_assert!(cp.verify_integrity());
                    let bytes = cp.to_bytes();
                    taken.push(Taken { cp, model: model.clone(), bytes, digest: model_digest(&model) });
                }
                Step::Restore(i) => {
                    if let Some(t) = taken.get(i) {
                        kv.restore(&t.cp);
                        model = t.model.clone();
                        tx_start = None;
                        marks.clear();
                    }
                }
                Step::Reload => {
                    let decoded = KvCheckpoint::from_bytes(&kv.checkpoint().to_bytes()).expect("canonical");
                    prop_assert!(decoded.verify_integrity());
                    kv.restore(&decoded);
                    tx_start = None;
                    marks.clear();
                }
            }
            prop_assert_eq!(kv.digest(), model_digest(&model), "after {:?}", step);
            prop_assert_eq!(kv.len(), model.len());
            for t in &taken {
                prop_assert_eq!(t.cp.digest(), t.digest);
                prop_assert_eq!(&t.cp.to_bytes(), &t.bytes);
                prop_assert!(t.cp.entries().eq(model_entries(&t.model)));
            }
        }
    }
}

/// Each write-set case once, by name: a rewrite, a put then a delete, a
/// delete of an absent key, an aborted transaction, and a release while a
/// transaction is open.
#[test]
fn each_write_set_case_is_the_models() {
    let (a, b, c) = (b"a".to_vec(), b"b".to_vec(), b"absent".to_vec());
    let mut kv = KvStore::new();
    kv.begin_batch(1);
    kv.begin_tx().unwrap();
    kv.put(a.clone(), b"1".to_vec()).unwrap();
    kv.put(b.clone(), b"1".to_vec()).unwrap();
    kv.abort_tx().unwrap();

    kv.begin_tx().unwrap();
    kv.put(a.clone(), b"1".to_vec()).unwrap();
    kv.put(a.clone(), b"2".to_vec()).unwrap();
    kv.put(b.clone(), b"1".to_vec()).unwrap();
    kv.release_batches_up_to(1);
    kv.delete(b.clone()).unwrap();
    kv.delete(c.clone()).unwrap();
    let want = BTreeMap::from([(a, Some(b"2".to_vec())), (b, None), (c, None)]);
    assert_eq!(kv.commit_tx().unwrap(), write_set_digest(&want));
}
