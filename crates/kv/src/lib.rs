//! Transactional key-value store for IA-CCF.
//!
//! §2: "Transactions are executed by replicas against a strictly-serializable
//! key-value store that supports roll-back at transaction granularity."
//! Appx. A Lemma 1 additionally requires rolling back a *suffix of executed
//! batches* (early execution may run ahead of agreement and must be undone on
//! divergence or view change), and §3.4 requires periodic checkpoints with
//! digests.
//!
//! This crate supplies exactly those operations:
//!
//! * [`KvStore::begin_tx`] / [`KvStore::put`] / [`KvStore::delete`] /
//!   [`KvStore::commit_tx`] / [`KvStore::abort_tx`] — transaction-granularity
//!   execution with an undo log and per-transaction write sets (whose digest
//!   goes into the ledger entry's result `o`, Fig. 3);
//! * [`KvStore::begin_batch`] / [`KvStore::rollback_to_batch`] /
//!   [`KvStore::release_batches_up_to`] — batch-suffix rollback (Lemma 1);
//! * [`KvStore::digest`] / [`KvStore::checkpoint`] / [`KvStore::restore`] —
//!   checkpoint creation and restoration (§3.4, §4.1 replay).
//!
//! Strict serializability still holds with sharded execution: replicas
//! commit effects in ledger order — conflict-free transaction groups
//! execute speculatively ([`SpeculativeGroup`]) and their write sets are
//! merged back **in original batch order**
//! ([`ShardedKvStore::apply_write_set`]), so the observable history is the
//! serial one (Lemma 2 unchanged).
//!
//! CCF uses a CHAMP map; we use ordered maps with O(log n) access, which
//! reproduces Fig. 7's "throughput decreases as the store grows" shape.
//! [`ShardedKvStore`] splits the key space into hash-partitioned shards
//! ([`shard_of`]); every digest/checkpoint is computed over the merged key
//! order and is byte-identical for any shard count.
//!
//! A store's digest is the digest of its checkpoint, and a checkpoint is
//! its canonical encoding ([`KvCheckpoint`]): one definition of the bytes
//! for the store digest, the checkpoint record, the transfer payload and
//! the restore. Checkpoint agreement and audit replay compare these
//! digests across replicas with different shard layouts.

mod checkpoint;
mod shard;
mod speculative;
mod store;
mod write_set;

pub use checkpoint::KvCheckpoint;
pub use shard::{shard_of, MergedIter, ShardedKvStore};
pub use speculative::{SpeculativeGroup, SpeculativeTx};
pub use store::{KvError, KvStore};
pub use write_set::TxWriteSet;

/// Keys are arbitrary byte strings.
pub type Key = Vec<u8>;
/// Values are arbitrary byte strings.
pub type Value = Vec<u8>;

/// Object-safe data-plane access to a store: the subset of operations a
/// stored procedure may perform. Implemented by [`KvStore`] (one shard;
/// tests), [`ShardedKvStore`] (the replica's serial execution
/// lane and, with one shard, the auditor's replay) and [`SpeculativeTx`] (conflict-free groups executing
/// in parallel). Keeping `App::execute` behind this trait is what lets the
/// execution stage swap the backing view without the application noticing.
pub trait KvAccess {
    /// Read a key (read-your-writes inside a transaction).
    fn get(&self, key: &[u8]) -> Option<&Value>;
    /// Write `key = value` inside the open transaction.
    fn put(&mut self, key: Key, value: Value) -> Result<(), KvError>;
    /// Delete `key` inside the open transaction.
    fn delete(&mut self, key: Key) -> Result<(), KvError>;
}

/// A mutable borrow of a view is a view: lets code that owns "some open
/// transaction" by value take the serial store by reference.
impl<T: KvAccess + ?Sized> KvAccess for &mut T {
    fn get(&self, key: &[u8]) -> Option<&Value> {
        (**self).get(key)
    }
    fn put(&mut self, key: Key, value: Value) -> Result<(), KvError> {
        (**self).put(key, value)
    }
    fn delete(&mut self, key: Key) -> Result<(), KvError> {
        (**self).delete(key)
    }
}
