//! Hash-partitioned sharding of the store.
//!
//! [`ShardedKvStore`] partitions the key space into `n` [`KvStore`] shards
//! by a stable hash of the key ([`shard_of`]). The shard layout is a
//! **local** choice, never a consensus-visible one: every externally
//! observable artifact — [`ShardedKvStore::digest`], checkpoints, write
//! sets, iteration order — is computed over the *merged* key order and is
//! byte-identical for any shard count, including 1. That is what lets each
//! replica pick a shard count matching its own parallelism while all
//! replicas (and the auditor, which replays on a plain single
//! [`KvStore`]) still agree on every digest.
//!
//! What sharding buys:
//!
//! * the execution stage can run conflict-free transaction groups
//!   speculatively (see [`crate::SpeculativeGroup`]) and merge their
//!   write sets per shard in batch order
//!   ([`ShardedKvStore::apply_write_set`]);
//! * batch rollback marks (Lemma 1) and checkpoints are maintained
//!   per shard but driven in lockstep, so the replica's rollback and
//!   checkpoint paths keep their single-store semantics.

use std::iter::Peekable;

use ia_ccf_crypto::Digest;

use crate::checkpoint::KvCheckpoint;
use crate::store::{KvError, KvStore};
use crate::write_set::TxWriteSet;
use crate::{Key, Value};

/// Stable key → shard routing: FNV-1a over the key bytes, reduced modulo
/// the shard count. Not consensus-critical (see the module docs), but kept
/// platform-stable anyway so a replica's own checkpoint/restore cycles
/// land keys where rollback marks expect them.
pub fn shard_of(key: &[u8], shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be >= 1");
    if shards <= 1 {
        return 0;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// A [`KvStore`] split into hash-partitioned shards. Mirrors the single-store
/// API; transactions may span shards (their write set is merged across
/// the touched shards), and batch marks / rollback / checkpoints are
/// driven on every shard in lockstep.
#[derive(Debug)]
pub struct ShardedKvStore {
    shards: Vec<KvStore>,
}

impl ShardedKvStore {
    /// An empty store with `shards` hash-partitioned shards (minimum 1).
    pub fn new(shards: usize) -> Self {
        ShardedKvStore { shards: (0..shards.max(1)).map(|_| KvStore::new()).collect() }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key routes to.
    pub fn shard_of_key(&self, key: &[u8]) -> usize {
        shard_of(key, self.shards.len())
    }

    /// One shard (tests and diagnostics).
    pub fn shard(&self, idx: usize) -> &KvStore {
        &self.shards[idx]
    }

    /// Total number of live keys across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether no shard holds any key.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Read a key (routed to its shard).
    pub fn get(&self, key: &[u8]) -> Option<&Value> {
        self.shards[self.shard_of_key(key)].get(key)
    }

    /// Iterate over all live entries in **global** key order (k-way merge
    /// of the per-shard cursors) — the canonical order digests use.
    pub fn iter(&self) -> MergedIter<'_> {
        MergedIter { cursors: self.shards.iter().map(|s| s.raw_iter().peekable()).collect() }
    }

    // ------------------------------------------------------------------
    // Transactions (span shards; the serial execution lane runs here)
    // ------------------------------------------------------------------

    /// Open a transaction on every shard.
    pub fn begin_tx(&mut self) -> Result<(), KvError> {
        if self.in_tx() {
            return Err(KvError::TransactionAlreadyOpen);
        }
        for s in &mut self.shards {
            s.begin_tx().expect("shards open transactions in lockstep");
        }
        Ok(())
    }

    /// Write `key = value` inside the open transaction.
    pub fn put(&mut self, key: Key, value: Value) -> Result<(), KvError> {
        let idx = self.shard_of_key(&key);
        self.shards[idx].put(key, value)
    }

    /// Delete `key` inside the open transaction.
    pub fn delete(&mut self, key: Key) -> Result<(), KvError> {
        let idx = self.shard_of_key(&key);
        self.shards[idx].delete(key)
    }

    /// Commit the open transaction, merging the per-shard write-set
    /// fragments into the transaction's canonical write set.
    pub fn commit_tx(&mut self) -> Result<TxWriteSet, KvError> {
        if !self.in_tx() {
            return Err(KvError::NoOpenTransaction);
        }
        let mut ws = TxWriteSet::new();
        for s in &mut self.shards {
            ws.absorb(s.commit_tx().expect("shards commit in lockstep"));
        }
        Ok(ws)
    }

    /// Abort the open transaction on every shard.
    pub fn abort_tx(&mut self) -> Result<(), KvError> {
        if !self.in_tx() {
            return Err(KvError::NoOpenTransaction);
        }
        for s in &mut self.shards {
            s.abort_tx().expect("shards abort in lockstep");
        }
        Ok(())
    }

    /// Whether a transaction is currently open.
    pub fn in_tx(&self) -> bool {
        self.shards[0].in_tx()
    }

    /// Apply one transaction's write set directly — the **ordered merge**
    /// step of sharded execution. The caller applies write sets in
    /// original batch order; each write routes to its shard, which records
    /// undo state so batch rollback still restores every shard.
    pub fn apply_write_set(&mut self, ws: TxWriteSet) {
        let n = self.shards.len();
        for (key, value) in ws {
            self.shards[shard_of(&key, n)].apply_one(key, value);
        }
    }

    /// Apply many transactions' write sets in order — the batched form of
    /// [`ShardedKvStore::apply_write_set`] — fanning the per-shard work
    /// out over `pool`. Each write is routed to its shard in original
    /// batch order first, then the per-shard op lists apply in parallel:
    /// a shard's op subsequence is identical to what the serial loop
    /// would feed it, so undo logs, rollback and digests cannot differ
    /// (shards are disjoint stores; cross-shard apply order was never
    /// observable). Falls back to the serial loop for a single shard, a
    /// size-1 pool, or batches too small to pay for a handoff.
    pub fn apply_write_sets(&mut self, pool: &ia_ccf_pool::WorkerPool, sets: Vec<TxWriteSet>) {
        const PAR_APPLY_MIN_OPS: usize = 64;
        let n = self.shards.len();
        let total: usize = sets.iter().map(TxWriteSet::len).sum();
        if n <= 1 || pool.threads() <= 1 || total < PAR_APPLY_MIN_OPS {
            for ws in sets {
                self.apply_write_set(ws);
            }
            return;
        }
        let mut per_shard: Vec<Vec<(Key, Option<Value>)>> = (0..n).map(|_| Vec::new()).collect();
        for ws in sets {
            for (key, value) in ws {
                per_shard[shard_of(&key, n)].push((key, value));
            }
        }
        pool.scope(|s| {
            for (shard, ops) in self.shards.iter_mut().zip(per_shard) {
                if ops.is_empty() {
                    continue;
                }
                s.spawn(move || {
                    for (key, value) in ops {
                        shard.apply_one(key, value);
                    }
                });
            }
        });
    }

    // ------------------------------------------------------------------
    // Batches (Lemma 1) — every shard carries the mark
    // ------------------------------------------------------------------

    /// Mark the start of batch `seq` on every shard.
    pub fn begin_batch(&mut self, seq: u64) {
        for s in &mut self.shards {
            s.begin_batch(seq);
        }
    }

    /// Roll back every batch with sequence number `>= seq` on every shard.
    pub fn rollback_to_batch(&mut self, seq: u64) -> Result<(), KvError> {
        // Marks are created in lockstep, so either every shard knows the
        // batch or none does. Probe the first shard before mutating any —
        // an unknown batch must leave the store untouched — and treat a
        // per-shard mismatch after that as corruption: a half-rolled-back
        // store must fail loudly, not drift.
        self.shards[0].rollback_to_batch(seq)?;
        for s in &mut self.shards[1..] {
            s.rollback_to_batch(seq).expect("shard batch marks diverged");
        }
        Ok(())
    }

    /// Release undo state for batches `<= seq` on every shard.
    pub fn release_batches_up_to(&mut self, seq: u64) {
        for s in &mut self.shards {
            s.release_batches_up_to(seq);
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints — canonical (shard-count independent)
    // ------------------------------------------------------------------

    /// Deterministic digest over the merged contents: the digest of
    /// [`Self::checkpoint`]. Byte-identical to [`KvStore::digest`] of an
    /// equivalent single store, for any shard count — checkpoint agreement
    /// must not depend on local layout.
    pub fn digest(&self) -> Digest {
        self.checkpoint().digest()
    }

    /// Snapshot the merged state into a (layout-independent) checkpoint:
    /// the canonical body written in one pass over the merged key order.
    pub fn checkpoint(&self) -> KvCheckpoint {
        KvCheckpoint::encode(self.len(), self.iter())
    }

    /// Replace the contents from a checkpoint, routing each entry to its
    /// shard; clears all undo state.
    pub fn restore(&mut self, cp: &KvCheckpoint) {
        let n = self.shards.len();
        let mut parts: Vec<Vec<(Key, Value)>> = (0..n).map(|_| Vec::new()).collect();
        for (k, v) in cp.entries() {
            parts[shard_of(k, n)].push((k.to_vec(), v.to_vec()));
        }
        for (shard, part) in self.shards.iter_mut().zip(parts) {
            shard.set_entries(part.into_iter().collect());
        }
    }
}

/// K-way merge over the per-shard cursors; shards partition the key space,
/// so the merge is a strict global key order with no duplicates.
pub struct MergedIter<'a> {
    cursors: Vec<Peekable<std::collections::btree_map::Iter<'a, Key, Value>>>,
}

impl<'a> Iterator for MergedIter<'a> {
    type Item = (&'a Key, &'a Value);

    fn next(&mut self) -> Option<Self::Item> {
        let mut best: Option<(usize, &'a Key)> = None;
        for i in 0..self.cursors.len() {
            if let Some(&(k, _)) = self.cursors[i].peek() {
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((i, k));
                }
            }
        }
        best.and_then(|(i, _)| self.cursors[i].next())
    }
}

/// [`crate::KvAccess`] over the whole sharded store: the serial execution
/// lane (governance, system transactions, apps without key hints) runs
/// against this exactly like against a single store.
impl crate::KvAccess for ShardedKvStore {
    fn get(&self, key: &[u8]) -> Option<&Value> {
        ShardedKvStore::get(self, key)
    }

    fn put(&mut self, key: Key, value: Value) -> Result<(), KvError> {
        ShardedKvStore::put(self, key, value)
    }

    fn delete(&mut self, key: Key) -> Result<(), KvError> {
        ShardedKvStore::delete(self, key)
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

    /// Drive a sharded and a single store through the same script and
    /// assert every observable artifact matches.
    fn mirror(shards: usize, script: impl Fn(&mut dyn crate::KvAccess)) -> (ShardedKvStore, KvStore) {
        let mut sharded = ShardedKvStore::new(shards);
        let mut single = KvStore::new();
        sharded.begin_tx().unwrap();
        single.begin_tx().unwrap();
        script(&mut sharded);
        script(&mut single);
        let ws_a = sharded.commit_tx().unwrap();
        let ws_b = single.commit_tx().unwrap();
        assert_eq!(ws_a, ws_b, "write sets must be layout-independent");
        (sharded, single)
    }

    #[test]
    fn digest_and_checkpoint_are_shard_count_independent() {
        for shards in [1, 2, 3, 8, 17] {
            let (sharded, single) = mirror(shards, |kv| {
                for i in 0..50u32 {
                    kv.put(i.to_le_bytes().to_vec(), v(&format!("val{i}"))).unwrap();
                }
                kv.delete(7u32.to_le_bytes().to_vec()).unwrap();
            });
            assert_eq!(sharded.digest(), single.digest(), "{shards} shards");
            assert_eq!(sharded.checkpoint().digest(), single.checkpoint().digest());
            assert_eq!(sharded.len(), single.len());
            let merged: Vec<_> = sharded.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            let flat: Vec<_> = single.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            assert_eq!(merged, flat, "merged iteration must be in global key order");
        }
    }

    #[test]
    fn shards_actually_spread_keys() {
        let mut kv = ShardedKvStore::new(4);
        kv.begin_tx().unwrap();
        for i in 0..64u64 {
            kv.put(i.to_le_bytes().to_vec(), v("x")).unwrap();
        }
        kv.commit_tx().unwrap();
        let populated = (0..4).filter(|&i| !kv.shard(i).is_empty()).count();
        assert!(populated >= 2, "64 keys landed in {populated} shard(s)");
    }

    #[test]
    fn batch_rollback_restores_every_shard() {
        let mut kv = ShardedKvStore::new(4);
        kv.begin_batch(1);
        kv.begin_tx().unwrap();
        for i in 0..16u64 {
            kv.put(i.to_le_bytes().to_vec(), v("one")).unwrap();
        }
        kv.commit_tx().unwrap();
        let digest_after_1 = kv.digest();

        kv.begin_batch(2);
        kv.begin_tx().unwrap();
        for i in 0..16u64 {
            kv.put(i.to_le_bytes().to_vec(), v("two")).unwrap();
        }
        kv.delete(3u64.to_le_bytes().to_vec()).unwrap();
        kv.commit_tx().unwrap();
        assert_ne!(kv.digest(), digest_after_1);

        kv.rollback_to_batch(2).unwrap();
        assert_eq!(kv.digest(), digest_after_1, "rollback must restore all shards");
        assert_eq!(kv.rollback_to_batch(2), Err(KvError::UnknownBatch));
    }

    #[test]
    fn apply_write_set_routes_and_is_rollbackable() {
        let mut kv = ShardedKvStore::new(4);
        kv.begin_batch(1);
        kv.begin_tx().unwrap();
        kv.put(k("keep"), v("old")).unwrap();
        kv.put(k("gone"), v("x")).unwrap();
        kv.commit_tx().unwrap();
        let before = kv.digest();

        kv.begin_batch(2);
        let mut single = KvStore::new();
        single.begin_tx().unwrap();
        single.put(k("keep"), v("new")).unwrap();
        single.delete(k("gone")).unwrap();
        single.put(k("fresh"), v("y")).unwrap();
        let ws = single.commit_tx().unwrap();
        kv.apply_write_set(ws);
        assert_eq!(kv.get(b"keep"), Some(&v("new")));
        assert_eq!(kv.get(b"gone"), None);
        assert_eq!(kv.get(b"fresh"), Some(&v("y")));

        kv.rollback_to_batch(2).unwrap();
        assert_eq!(kv.digest(), before, "merged writes must be undone by batch rollback");
    }

    #[test]
    fn parallel_apply_write_sets_matches_serial_and_rolls_back() {
        // Build a pile of write sets big enough to clear the parallel
        // threshold, apply them serially and via the pool, and require
        // identical digests — including after batch rollback.
        let make_sets = || -> Vec<TxWriteSet> {
            (0..8)
                .map(|t| {
                    let mut single = KvStore::new();
                    single.begin_tx().unwrap();
                    for i in 0..16u64 {
                        let key = format!("k{}", (t * 16 + i) % 96).into_bytes();
                        single.put(key, v(&format!("t{t}i{i}"))).unwrap();
                    }
                    if t == 5 {
                        single.delete(k("k3")).unwrap();
                    }
                    single.commit_tx().unwrap()
                })
                .collect()
        };
        let seed = |kv: &mut ShardedKvStore| {
            kv.begin_batch(1);
            kv.begin_tx().unwrap();
            for i in 0..96u64 {
                kv.put(format!("k{i}").into_bytes(), v("seed")).unwrap();
            }
            kv.commit_tx().unwrap();
        };

        let mut serial = ShardedKvStore::new(4);
        seed(&mut serial);
        serial.begin_batch(2);
        for ws in make_sets() {
            serial.apply_write_set(ws);
        }
        let want = serial.digest();
        serial.rollback_to_batch(2).unwrap();
        let want_rolled_back = serial.digest();

        for threads in [1, 2, 8] {
            let pool = ia_ccf_pool::WorkerPool::new(threads);
            let mut kv = ShardedKvStore::new(4);
            seed(&mut kv);
            kv.begin_batch(2);
            kv.apply_write_sets(&pool, make_sets());
            assert_eq!(kv.digest(), want, "{threads} pool threads");
            kv.rollback_to_batch(2).unwrap();
            assert_eq!(kv.digest(), want_rolled_back, "{threads} pool threads, rolled back");
        }
    }

    #[test]
    fn restore_partitions_checkpoint_across_shards() {
        let (sharded, single) = mirror(8, |kv| {
            for i in 0..40u32 {
                kv.put(i.to_le_bytes().to_vec(), v(&format!("{i}"))).unwrap();
            }
        });
        let cp = single.checkpoint();
        let mut fresh = ShardedKvStore::new(3);
        fresh.restore(&cp);
        assert_eq!(fresh.digest(), sharded.digest());
        assert_eq!(fresh.len(), 40);
    }

    #[test]
    fn tx_misuse_errors_match_single_store() {
        let mut kv = ShardedKvStore::new(2);
        assert_eq!(kv.put(k("a"), v("1")), Err(KvError::NoOpenTransaction));
        assert_eq!(kv.commit_tx().unwrap_err(), KvError::NoOpenTransaction);
        assert_eq!(kv.abort_tx().unwrap_err(), KvError::NoOpenTransaction);
        kv.begin_tx().unwrap();
        assert_eq!(kv.begin_tx(), Err(KvError::TransactionAlreadyOpen));
        kv.put(k("a"), v("1")).unwrap();
        kv.abort_tx().unwrap();
        assert_eq!(kv.get(b"a"), None);
    }

    #[test]
    fn shard_of_is_stable() {
        // Pin the routing function: a silent change would re-route keys
        // under existing rollback marks on live replicas.
        assert_eq!(shard_of(b"", 1), 0);
        let a = shard_of(b"account-1", 8);
        let b = shard_of(b"account-1", 8);
        assert_eq!(a, b);
        assert!(a < 8);
    }
}
