//! The store proper: copy-on-write buckets + undo log + transaction/batch
//! marks.

use ia_ccf_crypto::Digest;

use crate::buckets::Buckets;
use crate::checkpoint::KvCheckpoint;
use crate::{write_set, Key, Value};

/// Errors from misuse of the transactional API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// A data operation or commit was attempted with no open transaction.
    NoOpenTransaction,
    /// `begin_tx` was called while a transaction was already open.
    TransactionAlreadyOpen,
    /// A rollback target batch is not (or no longer) tracked.
    UnknownBatch,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::NoOpenTransaction => write!(f, "no open transaction"),
            KvError::TransactionAlreadyOpen => write!(f, "transaction already open"),
            KvError::UnknownBatch => write!(f, "unknown batch sequence number"),
        }
    }
}

impl std::error::Error for KvError {}

/// One undo record: the value `key` had before the write (None = absent).
#[derive(Debug, Clone)]
struct UndoOp {
    key: Key,
    prior: Option<Value>,
}

/// Marks where a batch's undo records begin, keyed by sequence number.
#[derive(Debug, Clone)]
struct BatchMark {
    seq: u64,
    undo_len: usize,
}

/// A strictly-serializable KV store with transaction- and batch-granularity
/// rollback and checkpointing. See the crate docs for the paper mapping.
#[derive(Debug, Default)]
pub struct KvStore {
    map: Buckets,
    undo: Vec<UndoOp>,
    /// Undo-log length at `begin_tx`: the open transaction's records, and
    /// so its write set, are `undo[mark..]`.
    open_tx: Option<usize>,
    batch_marks: Vec<BatchMark>,
}

impl KvStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.len() == 0
    }

    /// Read a key. Reads inside a transaction see the transaction's own
    /// earlier writes (read-your-writes), since writes apply in place.
    pub fn get(&self, key: &[u8]) -> Option<&Value> {
        self.map.get(key)
    }

    /// Iterate over all live entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Value)> {
        self.map.sorted().into_iter()
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Open a transaction. Exactly one may be open at a time (replicas
    /// execute serially in ledger order).
    pub fn begin_tx(&mut self) -> Result<(), KvError> {
        if self.open_tx.is_some() {
            return Err(KvError::TransactionAlreadyOpen);
        }
        self.open_tx = Some(self.undo.len());
        Ok(())
    }

    /// Write `key = value` inside the open transaction.
    pub fn put(&mut self, key: Key, value: Value) -> Result<(), KvError> {
        self.open_tx.ok_or(KvError::NoOpenTransaction)?;
        let prior = self.map.insert(key.clone(), value);
        self.undo.push(UndoOp { key, prior });
        Ok(())
    }

    /// Delete `key` inside the open transaction. Deleting an absent key
    /// still puts it in the write set.
    pub fn delete(&mut self, key: Key) -> Result<(), KvError> {
        self.open_tx.ok_or(KvError::NoOpenTransaction)?;
        let prior = self.map.remove(&key);
        self.undo.push(UndoOp { key, prior });
        Ok(())
    }

    /// Commit the open transaction, returning the digest of its write set
    /// (`write_set::digest`): the distinct keys of its undo records,
    /// each with the value it holds now. While a batch mark is held the
    /// records stay, so the *batch* can still be rolled back (Lemma 1)
    /// until [`KvStore::release_batches_up_to`] frees them; with none held
    /// nothing can read them, and they go here.
    pub fn commit_tx(&mut self) -> Result<Digest, KvError> {
        let mark = self.open_tx.take().ok_or(KvError::NoOpenTransaction)?;
        let mut writes: Vec<(&Key, Option<&Value>)> =
            self.undo[mark..].iter().map(|op| (&op.key, self.map.get(&op.key))).collect();
        writes.sort_unstable_by(|a, b| a.0.cmp(b.0));
        writes.dedup_by(|a, b| a.0 == b.0);
        let digest = write_set::digest(&writes);
        if self.batch_marks.is_empty() {
            self.undo.clear();
        }
        Ok(digest)
    }

    /// Abort the open transaction, undoing its writes.
    pub fn abort_tx(&mut self) -> Result<(), KvError> {
        let mark = self.open_tx.take().ok_or(KvError::NoOpenTransaction)?;
        self.undo_to(mark);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Batches (Lemma 1: roll back a suffix of executed batches)
    // ------------------------------------------------------------------

    /// Mark the start of batch `seq`. Batches must be begun in increasing
    /// sequence order.
    pub fn begin_batch(&mut self, seq: u64) {
        debug_assert!(self.batch_marks.last().is_none_or(|m| m.seq < seq));
        self.batch_marks.push(BatchMark { seq, undo_len: self.undo.len() });
    }

    /// Roll back every batch with sequence number `>= seq` (and any open
    /// transaction), restoring the store to the state at `seq`'s start.
    /// Refused with [`KvError::UnknownBatch`], changing nothing, unless
    /// `seq`'s own mark is held: a released or never-begun batch has no
    /// start state to restore.
    pub fn rollback_to_batch(&mut self, seq: u64) -> Result<(), KvError> {
        let pos = self
            .batch_marks
            .iter()
            .position(|m| m.seq == seq)
            .ok_or(KvError::UnknownBatch)?;
        self.open_tx = None;
        let target = self.batch_marks[pos].undo_len;
        self.undo_to(target);
        self.batch_marks.truncate(pos);
        Ok(())
    }

    /// Drop undo state for batches with sequence number `<= seq`; they are
    /// committed (prepared at N−f replicas) and can no longer be rolled back.
    /// The open transaction's records are its write set and stay.
    pub fn release_batches_up_to(&mut self, seq: u64) {
        let kept = self.batch_marks.iter().position(|m| m.seq > seq).unwrap_or(self.batch_marks.len());
        let first_kept = self.batch_marks.get(kept).map_or(self.undo.len(), |m| m.undo_len);
        let cut = self.open_tx.map_or(first_kept, |mark| mark.min(first_kept));
        self.undo.drain(..cut);
        self.batch_marks.drain(..kept);
        for m in &mut self.batch_marks {
            m.undo_len -= cut;
        }
        if let Some(mark) = self.open_tx.as_mut() {
            *mark -= cut;
        }
    }

    fn undo_to(&mut self, target: usize) {
        while self.undo.len() > target {
            let op = self.undo.pop().expect("len checked");
            match op.prior {
                Some(v) => {
                    self.map.insert(op.key, v);
                }
                None => {
                    self.map.remove(&op.key);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints
    // ------------------------------------------------------------------

    /// Deterministic digest over the full store contents, equal to its
    /// checkpoint's. Cached until the next write; after writes it
    /// re-hashes only the buckets written since the last digest,
    /// O(keys written × n / buckets) plus one hash over the bucket
    /// digests, and O(n) only for a store written everywhere (a bulk load,
    /// a restore from bytes).
    pub fn digest(&self) -> Digest {
        self.map.digest()
    }

    /// Snapshot the current state into a checkpoint: the bucket pointers,
    /// shared until the store next writes a bucket, and their digest.
    pub fn checkpoint(&self) -> KvCheckpoint {
        KvCheckpoint::of(&self.map)
    }

    /// Replace the store contents from a checkpoint, sharing its buckets;
    /// clears all undo state.
    pub fn restore(&mut self, cp: &KvCheckpoint) {
        self.map = cp.buckets().clone();
        self.undo.clear();
        self.open_tx = None;
        self.batch_marks.clear();
    }
}

/// [`crate::KvAccess`] routes straight to the inherent methods.
impl crate::KvAccess for KvStore {
    fn get(&self, key: &[u8]) -> Option<&Value> {
        KvStore::get(self, key)
    }

    fn put(&mut self, key: Key, value: Value) -> Result<(), KvError> {
        KvStore::put(self, key, value)
    }

    fn delete(&mut self, key: Key) -> Result<(), KvError> {
        KvStore::delete(self, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> Key {
        s.as_bytes().to_vec()
    }
    fn v(s: &str) -> Value {
        s.as_bytes().to_vec()
    }

    #[test]
    fn put_get_delete_inside_tx() {
        let mut kv = KvStore::new();
        kv.begin_tx().unwrap();
        kv.put(k("a"), v("1")).unwrap();
        assert_eq!(kv.get(b"a"), Some(&v("1")));
        kv.delete(k("a")).unwrap();
        assert_eq!(kv.get(b"a"), None);
        kv.commit_tx().unwrap();
    }

    #[test]
    fn ops_require_open_tx() {
        let mut kv = KvStore::new();
        assert_eq!(kv.put(k("a"), v("1")), Err(KvError::NoOpenTransaction));
        assert_eq!(kv.delete(k("a")), Err(KvError::NoOpenTransaction));
        assert_eq!(kv.commit_tx().unwrap_err(), KvError::NoOpenTransaction);
        kv.begin_tx().unwrap();
        assert_eq!(kv.begin_tx(), Err(KvError::TransactionAlreadyOpen));
    }

    #[test]
    fn abort_restores_prior_state() {
        let mut kv = KvStore::new();
        kv.begin_tx().unwrap();
        kv.put(k("a"), v("1")).unwrap();
        kv.commit_tx().unwrap();

        kv.begin_tx().unwrap();
        kv.put(k("a"), v("2")).unwrap();
        kv.put(k("b"), v("3")).unwrap();
        kv.delete(k("a")).unwrap();
        kv.abort_tx().unwrap();

        assert_eq!(kv.get(b"a"), Some(&v("1")));
        assert_eq!(kv.get(b"b"), None);
    }

    #[test]
    fn write_set_reflects_final_tx_effects() {
        let mut kv = KvStore::new();
        kv.begin_tx().unwrap();
        kv.put(k("x"), v("1")).unwrap();
        kv.put(k("x"), v("2")).unwrap();
        kv.put(k("y"), v("9")).unwrap();
        kv.delete(k("y")).unwrap();
        let ws = kv.commit_tx().unwrap();
        let (x2, y) = (v("2"), k("y"));
        assert_eq!(ws, write_set::digest(&[(&k("x"), Some(&x2)), (&y, None)]));

        // The value is the one at commit, not the one a write saw: a
        // later write in the same transaction wins.
        kv.begin_tx().unwrap();
        kv.put(k("x"), v("3")).unwrap();
        kv.put(k("x"), v("2")).unwrap();
        assert_eq!(kv.commit_tx().unwrap(), write_set::digest(&[(&k("x"), Some(&x2))]));
    }

    /// The framing is a consensus fact: pinned to values computed from the
    /// formula in `write_set`'s docs with an independent SHA-256, so a
    /// framing change fails a unit test before it fails the golden ledger.
    #[test]
    fn write_set_digests_are_pinned() {
        let mut kv = KvStore::new();
        kv.begin_tx().unwrap();
        assert_eq!(
            kv.commit_tx().unwrap().to_string(),
            "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"
        );
        // A SmallBank transfer: two account keys, `checking ‖ savings`.
        let account = |id: u64| [&[b'a'][..], &id.to_le_bytes()].concat();
        let balances = |c: i64, s: i64| [c.to_le_bytes(), s.to_le_bytes()].concat();
        kv.begin_tx().unwrap();
        kv.put(account(1), balances(1100, 1000)).unwrap();
        kv.put(account(0), balances(900, 1000)).unwrap();
        assert_eq!(
            kv.commit_tx().unwrap().to_string(),
            "a1cba3b711c6363222427a586b61164efee8709555e2b42803a4c4bf78f1d461"
        );
    }

    #[test]
    fn no_undo_record_survives_a_commit_without_a_batch_mark() {
        let mut kv = KvStore::new();
        for round in 0..3 {
            kv.begin_tx().unwrap();
            kv.put(k("a"), v("1")).unwrap();
            kv.delete(k("b")).unwrap();
            assert_eq!(kv.undo.len(), 2, "round {round}");
            kv.commit_tx().unwrap();
            assert!(kv.undo.is_empty(), "round {round}");
        }
        // A release of everything leaves the log empty too.
        kv.begin_batch(1);
        kv.begin_tx().unwrap();
        kv.put(k("c"), v("1")).unwrap();
        kv.commit_tx().unwrap();
        assert_eq!(kv.undo.len(), 1);
        kv.release_batches_up_to(1);
        kv.begin_tx().unwrap();
        kv.put(k("c"), v("2")).unwrap();
        kv.commit_tx().unwrap();
        assert!(kv.undo.is_empty());
    }

    #[test]
    fn with_a_batch_mark_held_undo_records_last_until_release() {
        let mut kv = KvStore::new();
        kv.begin_batch(1);
        for i in 0..3 {
            kv.begin_tx().unwrap();
            kv.put(k("a"), v(&i.to_string())).unwrap();
            kv.commit_tx().unwrap();
        }
        assert_eq!(kv.undo.len(), 3);
        kv.begin_batch(2);
        kv.begin_tx().unwrap();
        kv.put(k("b"), v("1")).unwrap();
        kv.commit_tx().unwrap();
        assert_eq!(kv.undo.len(), 4);
        kv.rollback_to_batch(2).unwrap();
        assert_eq!((kv.get(b"a"), kv.get(b"b")), (Some(&v("2")), None));
        kv.rollback_to_batch(1).unwrap();
        assert!(kv.is_empty() && kv.undo.is_empty());

        kv.begin_batch(3);
        kv.begin_tx().unwrap();
        kv.put(k("a"), v("1")).unwrap();
        kv.commit_tx().unwrap();
        kv.begin_batch(4);
        kv.begin_tx().unwrap();
        kv.put(k("a"), v("2")).unwrap();
        kv.commit_tx().unwrap();
        kv.release_batches_up_to(3);
        assert_eq!(kv.undo.len(), 1);
        kv.rollback_to_batch(4).unwrap();
        assert_eq!(kv.get(b"a"), Some(&v("1")));
    }

    #[test]
    fn batch_rollback_undoes_committed_txs() {
        let mut kv = KvStore::new();
        kv.begin_batch(1);
        kv.begin_tx().unwrap();
        kv.put(k("a"), v("1")).unwrap();
        kv.commit_tx().unwrap();

        kv.begin_batch(2);
        kv.begin_tx().unwrap();
        kv.put(k("a"), v("2")).unwrap();
        kv.put(k("b"), v("1")).unwrap();
        kv.commit_tx().unwrap();

        kv.begin_batch(3);
        kv.begin_tx().unwrap();
        kv.delete(k("a")).unwrap();
        kv.commit_tx().unwrap();

        kv.rollback_to_batch(2).unwrap();
        assert_eq!(kv.get(b"a"), Some(&v("1")));
        assert_eq!(kv.get(b"b"), None);

        // Batches 2 and 3 are gone; rolling back to 2 again fails.
        assert_eq!(kv.rollback_to_batch(2), Err(KvError::UnknownBatch));
        // Batch 1 can still be rolled back.
        kv.rollback_to_batch(1).unwrap();
        assert_eq!(kv.get(b"a"), None);
    }

    #[test]
    fn release_then_rollback_of_released_batch_fails() {
        let mut kv = KvStore::new();
        for s in 1..=4u64 {
            kv.begin_batch(s);
            kv.begin_tx().unwrap();
            kv.put(k(&format!("k{s}")), v("x")).unwrap();
            kv.commit_tx().unwrap();
        }
        kv.release_batches_up_to(2);
        assert_eq!(kv.rollback_to_batch(2), Err(KvError::UnknownBatch));
        assert_eq!(kv.get(b"k3"), Some(&v("x")), "a refused rollback undoes nothing");
        assert_eq!(kv.get(b"k2"), Some(&v("x")));
    }

    #[test]
    fn abort_after_a_partial_release_undoes_the_whole_tx() {
        let mut kv = KvStore::new();
        for s in 1..=2u64 {
            kv.begin_batch(s);
            kv.begin_tx().unwrap();
            kv.put(k(&format!("k{s}")), v("x")).unwrap();
            kv.commit_tx().unwrap();
        }
        kv.begin_tx().unwrap();
        kv.put(k("k1"), v("y")).unwrap();
        kv.release_batches_up_to(1);
        kv.abort_tx().unwrap();
        assert_eq!(kv.get(b"k1"), Some(&v("x")));
        kv.rollback_to_batch(2).unwrap();
        assert_eq!(kv.get(b"k2"), None);
    }

    #[test]
    fn release_all_keeps_map_and_clears_undo() {
        let mut kv = KvStore::new();
        kv.begin_batch(1);
        kv.begin_tx().unwrap();
        kv.put(k("a"), v("1")).unwrap();
        kv.commit_tx().unwrap();
        kv.release_batches_up_to(10);
        assert_eq!(kv.get(b"a"), Some(&v("1")));
        assert_eq!(kv.rollback_to_batch(1), Err(KvError::UnknownBatch));
    }

    #[test]
    fn digest_changes_with_content_and_is_order_independent_of_insertion() {
        let mut a = KvStore::new();
        let mut b = KvStore::new();
        a.begin_tx().unwrap();
        a.put(k("x"), v("1")).unwrap();
        a.put(k("y"), v("2")).unwrap();
        a.commit_tx().unwrap();
        b.begin_tx().unwrap();
        b.put(k("y"), v("2")).unwrap();
        b.put(k("x"), v("1")).unwrap();
        b.commit_tx().unwrap();
        assert_eq!(a.digest(), b.digest());

        b.begin_tx().unwrap();
        b.put(k("x"), v("3")).unwrap();
        b.commit_tx().unwrap();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let mut kv = KvStore::new();
        kv.begin_tx().unwrap();
        kv.put(k("a"), v("1")).unwrap();
        kv.put(k("b"), v("2")).unwrap();
        kv.commit_tx().unwrap();
        let cp = kv.checkpoint();
        assert_eq!(cp.digest(), kv.digest());

        kv.begin_tx().unwrap();
        kv.delete(k("a")).unwrap();
        kv.put(k("c"), v("3")).unwrap();
        kv.commit_tx().unwrap();
        assert_ne!(cp.digest(), kv.digest());

        kv.restore(&cp);
        assert_eq!(kv.digest(), cp.digest());
        assert_eq!(kv.get(b"a"), Some(&v("1")));
        assert_eq!(kv.get(b"c"), None);
    }

    #[test]
    fn empty_store_digest_is_stable() {
        assert_eq!(KvStore::new().digest(), KvStore::new().digest());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[derive(Debug, Clone)]
    enum Op {
        Put(u8, u8),
        Delete(u8),
        CommitTx,
        AbortTx,
        NewBatch,
        RollbackLastBatch,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
            any::<u8>().prop_map(Op::Delete),
            Just(Op::CommitTx),
            Just(Op::AbortTx),
            Just(Op::NewBatch),
            Just(Op::RollbackLastBatch),
        ]
    }

    proptest! {
        /// The store, driven by arbitrary op sequences, always matches a
        /// model that snapshots a HashMap at tx/batch boundaries.
        #[test]
        fn matches_snapshot_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
            let mut kv = KvStore::new();
            let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
            type Model = HashMap<Vec<u8>, Vec<u8>>;
            let mut tx_snapshot: Option<Model> = None;
            let mut batch_snapshots: Vec<(u64, Model)> = Vec::new();
            let mut next_seq = 1u64;

            kv.begin_batch(0);
            batch_snapshots.push((0, model.clone()));

            for op in ops {
                match op {
                    Op::Put(kb, vb) => {
                        if tx_snapshot.is_none() {
                            kv.begin_tx().unwrap();
                            tx_snapshot = Some(model.clone());
                        }
                        kv.put(vec![kb], vec![vb]).unwrap();
                        model.insert(vec![kb], vec![vb]);
                    }
                    Op::Delete(kb) => {
                        if tx_snapshot.is_none() {
                            kv.begin_tx().unwrap();
                            tx_snapshot = Some(model.clone());
                        }
                        kv.delete(vec![kb]).unwrap();
                        model.remove(&vec![kb]);
                    }
                    Op::CommitTx => {
                        if tx_snapshot.is_some() {
                            kv.commit_tx().unwrap();
                            tx_snapshot = None;
                        }
                    }
                    Op::AbortTx => {
                        if let Some(snap) = tx_snapshot.take() {
                            kv.abort_tx().unwrap();
                            model = snap;
                        }
                    }
                    Op::NewBatch => {
                        if tx_snapshot.is_some() {
                            kv.commit_tx().unwrap();
                            tx_snapshot = None;
                        }
                        kv.begin_batch(next_seq);
                        batch_snapshots.push((next_seq, model.clone()));
                        next_seq += 1;
                    }
                    Op::RollbackLastBatch => {
                        if let Some((seq, snap)) = batch_snapshots.pop() {
                            kv.rollback_to_batch(seq).unwrap();
                            model = snap;
                            tx_snapshot = None;
                        }
                    }
                }
                // Compare live state against the model after every step.
                for (mk, mv) in &model {
                    prop_assert_eq!(kv.get(mk), Some(mv));
                }
                prop_assert_eq!(kv.len(), model.len());
            }
        }
    }
}
