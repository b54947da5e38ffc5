//! The write-set digest.
//!
//! The ledger entry for a transaction is `⟨t, i, o⟩` where `o` "includes the
//! reply sent to the client and the hash of the transaction's write-set"
//! (Fig. 3). The write-set digest lets an auditor replaying the ledger
//! confirm a transaction's *effects*, not just its reply bytes.
//!
//! A transaction's write set is its net effect: each key it wrote or
//! deleted, once, with its final value (`None` for deleted), in ascending
//! key order. The store reads it off the transaction's undo records
//! ([`crate::KvStore::commit_tx`]) and nothing holds it between writes.
//! The digest is a consensus fact:
//!
//! ```text
//! H(count: u64 ‖ (key-len: u32 ‖ key ‖ 1 ‖ value-len: u32 ‖ value | key-len: u32 ‖ key ‖ 0)*)
//! ```
//!
//! little-endian, hashed in one preimage.

use ia_ccf_crypto::{hash_bytes, Digest};

use crate::{Key, Value};

/// Digest of a write set, given as distinct keys in ascending order, each
/// with its final value (`None` = deleted).
pub(crate) fn digest(writes: &[(&Key, Option<&Value>)]) -> Digest {
    let size = writes.iter().map(|(k, v)| 5 + k.len() + v.map_or(0, |v| 4 + v.len())).sum::<usize>();
    let mut preimage = Vec::with_capacity(8 + size);
    preimage.extend_from_slice(&(writes.len() as u64).to_le_bytes());
    for &(k, v) in writes {
        preimage.extend_from_slice(&(k.len() as u32).to_le_bytes());
        preimage.extend_from_slice(k);
        match v {
            Some(v) => {
                preimage.push(1);
                preimage.extend_from_slice(&(v.len() as u32).to_le_bytes());
                preimage.extend_from_slice(v);
            }
            None => preimage.push(0),
        }
    }
    hash_bytes(&preimage)
}

#[cfg(test)]
mod tests {
    use crate::KvStore;

    /// The write-set digest of one transaction on a fresh store.
    fn tx(body: impl FnOnce(&mut KvStore)) -> ia_ccf_crypto::Digest {
        let mut kv = KvStore::new();
        kv.begin_tx().unwrap();
        body(&mut kv);
        kv.commit_tx().unwrap()
    }

    #[test]
    fn digest_is_insertion_order_independent() {
        let a = tx(|kv| {
            kv.put(b"k1".to_vec(), b"v1".to_vec()).unwrap();
            kv.put(b"k2".to_vec(), b"v2".to_vec()).unwrap();
        });
        let b = tx(|kv| {
            kv.put(b"k2".to_vec(), b"v2".to_vec()).unwrap();
            kv.put(b"k1".to_vec(), b"v1".to_vec()).unwrap();
        });
        assert_eq!(a, b);
    }

    #[test]
    fn digest_distinguishes_delete_from_empty_value() {
        let deleted = tx(|kv| kv.delete(b"k".to_vec()).unwrap());
        let empty = tx(|kv| kv.put(b"k".to_vec(), Vec::new()).unwrap());
        let untouched = tx(|_| {});
        assert_ne!(deleted, empty);
        assert_ne!(deleted, untouched, "deleting an absent key is a write");
    }

    #[test]
    fn last_write_wins() {
        let rewritten = tx(|kv| {
            kv.put(b"k".to_vec(), b"a".to_vec()).unwrap();
            kv.delete(b"k".to_vec()).unwrap();
            kv.put(b"k".to_vec(), b"b".to_vec()).unwrap();
        });
        assert_eq!(rewritten, tx(|kv| kv.put(b"k".to_vec(), b"b".to_vec()).unwrap()));
    }

    #[test]
    fn empty_write_set_digest_is_stable() {
        assert_eq!(tx(|_| {}), tx(|_| {}));
    }
}
