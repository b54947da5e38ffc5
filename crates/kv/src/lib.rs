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
//!   execution with an undo log; `commit_tx` returns the digest of the
//!   transaction's write set, which goes into the ledger entry's result `o`
//!   (Fig. 3);
//! * [`KvStore::begin_batch`] / [`KvStore::rollback_to_batch`] /
//!   [`KvStore::release_batches_up_to`] — batch-suffix rollback (Lemma 1);
//! * [`KvStore::digest`] / [`KvStore::checkpoint`] / [`KvStore::restore`] —
//!   checkpoint creation and restoration (§3.4, §4.1 replay).
//!
//! Replicas and the auditor execute one transaction at a time, in ledger
//! order, so the observable history is the serial one (Lemma 2).
//!
//! A write is one bucket insert plus one undo record, the key and the
//! value it replaced. The write set is read off the open transaction's
//! undo records at commit: their distinct keys, sorted, each with the
//! value it holds then (`write_set` states the digest's framing). Undo
//! records live only as long as something can roll them back: an abort
//! reads the open transaction's, a batch rollback those since a held batch
//! mark. So a commit with no batch mark held (the auditor, seeding, tests)
//! drops the log, and [`KvStore::release_batches_up_to`] drops what a
//! released batch held, never the open transaction's records.
//!
//! CCF uses a CHAMP map and snapshots a version of it; we cut the store
//! into a fixed number of copy-on-write buckets, each an ordered map with
//! O(log n) access and a cached digest. A checkpoint shares the buckets
//! by pointer, and the store digest hashes the bucket digests, so a
//! checkpoint re-hashes only the buckets written since the last one.
//!
//! A store's digest is the digest of its checkpoint, and a checkpoint's
//! transfer form is its canonical encoding ([`KvCheckpoint`]), decoded into
//! the same buckets. Checkpoint agreement and audit replay compare these
//! digests across replicas.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod buckets;
mod checkpoint;
mod shard;
mod store;
mod write_set;

pub use checkpoint::KvCheckpoint;
#[doc(hidden)]
pub use shard::ShardedKvStore;
pub use store::{KvError, KvStore};

/// Keys are arbitrary byte strings.
pub type Key = Vec<u8>;
/// Values are arbitrary byte strings.
pub type Value = Vec<u8>;

/// Object-safe data-plane access to a store: the subset of operations a
/// stored procedure may perform. `App::execute` runs behind this trait, so
/// a procedure sees only reads and writes inside its open transaction.
pub trait KvAccess {
    /// Read a key (read-your-writes inside a transaction).
    fn get(&self, key: &[u8]) -> Option<&Value>;
    /// Write `key = value` inside the open transaction.
    fn put(&mut self, key: Key, value: Value) -> Result<(), KvError>;
    /// Delete `key` inside the open transaction.
    fn delete(&mut self, key: Key) -> Result<(), KvError>;
}
