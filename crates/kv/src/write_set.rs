//! Per-transaction write sets.
//!
//! The ledger entry for a transaction is `⟨t, i, o⟩` where `o` "includes the
//! reply sent to the client and the hash of the transaction's write-set"
//! (Fig. 3). The write-set digest lets an auditor replaying the ledger
//! confirm a transaction's *effects*, not just its reply bytes.

use std::collections::BTreeMap;

use ia_ccf_crypto::{Digest, Hasher};

use crate::{Key, Value};

/// The net effect of one transaction: for each touched key, the final value
/// (`Some`) or deletion (`None`). Later writes to the same key overwrite
/// earlier ones, so this is canonical regardless of the write order inside
/// the transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxWriteSet {
    writes: BTreeMap<Key, Option<Value>>,
}

impl TxWriteSet {
    /// An empty write set.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_put(&mut self, key: Key, value: Value) {
        self.writes.insert(key, Some(value));
    }

    pub(crate) fn record_delete(&mut self, key: Key) {
        self.writes.insert(key, None);
    }

    /// Final effect on `key`: `None` if untouched, `Some(None)` if deleted,
    /// `Some(Some(v))` if written.
    pub fn get(&self, key: &[u8]) -> Option<Option<&[u8]>> {
        self.writes.get(key).map(|v| v.as_deref())
    }

    /// Number of touched keys.
    pub fn len(&self) -> usize {
        self.writes.len()
    }

    /// Whether the transaction touched no keys (read-only).
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }

    /// Iterate over the touched keys in order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Option<Value>)> {
        self.writes.iter()
    }

    /// Canonical digest of the write set, recorded in the ledger entry's
    /// result `o`.
    pub fn digest(&self) -> Digest {
        let mut h = Hasher::new();
        h.update((self.writes.len() as u64).to_le_bytes());
        for (k, v) in &self.writes {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_insertion_order_independent() {
        let mut a = TxWriteSet::new();
        a.record_put(b"k1".to_vec(), b"v1".to_vec());
        a.record_put(b"k2".to_vec(), b"v2".to_vec());
        let mut b = TxWriteSet::new();
        b.record_put(b"k2".to_vec(), b"v2".to_vec());
        b.record_put(b"k1".to_vec(), b"v1".to_vec());
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn digest_distinguishes_delete_from_empty_value() {
        let mut del = TxWriteSet::new();
        del.record_delete(b"k".to_vec());
        let mut empty = TxWriteSet::new();
        empty.record_put(b"k".to_vec(), Vec::new());
        assert_ne!(del.digest(), empty.digest());
    }

    #[test]
    fn last_write_wins() {
        let mut ws = TxWriteSet::new();
        ws.record_put(b"k".to_vec(), b"a".to_vec());
        ws.record_delete(b"k".to_vec());
        ws.record_put(b"k".to_vec(), b"b".to_vec());
        assert_eq!(ws.get(b"k"), Some(Some(b"b".as_slice())));
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn empty_write_set_digest_is_stable() {
        assert_eq!(TxWriteSet::new().digest(), TxWriteSet::new().digest());
        assert!(TxWriteSet::new().is_empty());
    }
}
