//! The store proper: copy-on-write buckets + undo log + transaction/batch
//! marks.

use ia_ccf_crypto::Digest;

use crate::buckets::Buckets;
use crate::checkpoint::KvCheckpoint;
use crate::write_set::TxWriteSet;
use crate::{Key, Value};

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
    /// Undo-log length at `begin_tx`, plus the accumulating write set.
    open_tx: Option<(usize, TxWriteSet)>,
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
        self.open_tx = Some((self.undo.len(), TxWriteSet::new()));
        Ok(())
    }

    /// Write `key = value` inside the open transaction.
    pub fn put(&mut self, key: Key, value: Value) -> Result<(), KvError> {
        let (_, ws) = self.open_tx.as_mut().ok_or(KvError::NoOpenTransaction)?;
        ws.record_put(key.clone(), value.clone());
        let prior = self.map.insert(key.clone(), value);
        self.undo.push(UndoOp { key, prior });
        Ok(())
    }

    /// Delete `key` inside the open transaction.
    pub fn delete(&mut self, key: Key) -> Result<(), KvError> {
        let (_, ws) = self.open_tx.as_mut().ok_or(KvError::NoOpenTransaction)?;
        ws.record_delete(key.clone());
        let prior = self.map.remove(&key);
        self.undo.push(UndoOp { key, prior });
        Ok(())
    }

    /// Commit the open transaction, returning its write set. The undo
    /// records are retained so the *batch* can still be rolled back
    /// (Lemma 1) until [`KvStore::release_batches_up_to`] frees them.
    pub fn commit_tx(&mut self) -> Result<TxWriteSet, KvError> {
        let (_, ws) = self.open_tx.take().ok_or(KvError::NoOpenTransaction)?;
        Ok(ws)
    }

    /// Abort the open transaction, undoing its writes.
    pub fn abort_tx(&mut self) -> Result<(), KvError> {
        let (mark, _) = self.open_tx.take().ok_or(KvError::NoOpenTransaction)?;
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
    pub fn release_batches_up_to(&mut self, seq: u64) {
        let keep_from = self.batch_marks.iter().position(|m| m.seq > seq);
        match keep_from {
            Some(0) => {}
            Some(i) => {
                let first_kept_undo = self.batch_marks[i].undo_len;
                self.undo.drain(..first_kept_undo);
                for m in &mut self.batch_marks[i..] {
                    m.undo_len -= first_kept_undo;
                }
                if let Some((m, _)) = self.open_tx.as_mut() {
                    *m = m.saturating_sub(first_kept_undo);
                }
                self.batch_marks.drain(..i);
            }
            None => {
                // Everything released. Any open tx keeps its relative mark.
                let base = self.open_tx.as_ref().map_or(self.undo.len(), |(m, _)| *m);
                self.undo.drain(..base);
                if let Some((m, _)) = self.open_tx.as_mut() {
                    *m = 0;
                }
                self.batch_marks.clear();
            }
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
        assert_eq!(ws.get(b"x"), Some(Some(v("2").as_slice())));
        assert_eq!(ws.get(b"y"), Some(None));
        assert_eq!(ws.len(), 2);
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
