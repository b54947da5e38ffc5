//! `ShardedKvStore`, kept as a name only.
//!
//! The store used to split into hash-partitioned shards for parallel
//! execution. That path is gone: every replica and the auditor execute on
//! one [`KvStore`]. `benchmark/` still names this type, and a product PR
//! may not touch that directory, so it stays as a newtype with the
//! `KvStore` API. Nothing in the product reads it: removed by the next
//! benchmark-only PR (ROADMAP item 8).

use std::ops::{Deref, DerefMut};

use crate::store::{KvError, KvStore};
use crate::{Key, Value};

/// A [`KvStore`] under its old name; the shard count is ignored.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct ShardedKvStore(KvStore);

impl ShardedKvStore {
    /// An empty store. The argument is the retired shard count.
    pub fn new(_shards: usize) -> Self {
        Self::default()
    }
}

impl Deref for ShardedKvStore {
    type Target = KvStore;

    fn deref(&self) -> &KvStore {
        &self.0
    }
}

impl DerefMut for ShardedKvStore {
    fn deref_mut(&mut self) -> &mut KvStore {
        &mut self.0
    }
}

impl crate::KvAccess for ShardedKvStore {
    fn get(&self, key: &[u8]) -> Option<&Value> {
        self.0.get(key)
    }

    fn put(&mut self, key: Key, value: Value) -> Result<(), KvError> {
        self.0.put(key, value)
    }

    fn delete(&mut self, key: Key) -> Result<(), KvError> {
        self.0.delete(key)
    }
}
