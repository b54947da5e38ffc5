//! The store's entries, cut into [`BUCKETS`] copy-on-write buckets that
//! each cache their digest.
//!
//! A key lives in bucket `fnv1a64(key) mod BUCKETS`. The store digest is
//!
//! ```text
//! H(DOMAIN ‖ count: u64 ‖ D_0 ‖ … ‖ D_{B−1})
//! D_b = H(count_b: u64 ‖ (key-len: u32 ‖ key ‖ value-len: u32 ‖ value)*)
//! ```
//!
//! (little-endian), with bucket `b`'s entries in ascending key order, so
//! `D_b` is the single-hash digest the whole store had before it was cut
//! up, taken over one bucket. Every level carries its count and the top
//! carries a domain tag, so the framing is injective and the digest is as
//! collision-resistant as SHA-256; the bucket function decides only how
//! much is re-hashed. Keys crafted into one bucket make a checkpoint cost
//! what one full encode and hash costs, never a wrong digest.
//!
//! A bucket is shared through an [`Arc`] between the live store and every
//! checkpoint taken since its last write: a checkpoint clones [`BUCKETS`]
//! pointers, and a write to a shared bucket copies that bucket alone
//! ([`Arc::make_mut`]) and clears its cached digest and the store's. A
//! digest re-hashes only the buckets written since it was last taken; a
//! bucket never written holds no allocation and has one fixed digest.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use ia_ccf_crypto::{hash_bytes, Digest};

use crate::{Key, Value};

/// Buckets the store is cut into: a consensus fact, since the digest
/// hashes one `D_b` per bucket.
///
/// Cost model: one checkpoint interval costs about `dirty × (clone +
/// re-hash + free of n/B entries) + one hash over 32·B bytes`, `dirty`
/// being the buckets written since the previous checkpoint: the first
/// write to a bucket a checkpoint holds copies it, the checkpoint
/// re-hashes it, and evicting that checkpoint later frees its copy. The
/// first term falls with `B`, the second grows with it.
///
/// Measured at `n` = 10,000 SmallBank accounts (9-byte keys, 16-byte
/// values) on a 2-vCPU x86-64 host with SHA extensions. In a micro-run
/// (a checkpoint held across each round, medians of 200 rounds, two runs,
/// µs) after 31 uniform writes, writes and checkpoint together cost
/// 226–245 at `B` = 256, 141–152 at 512 and 132–137 at 1024 (the hash
/// over the bucket digests alone ≈ 12, 25 and 50). In `sat_hot_durable`'s
/// restart (seed 3, 40 checkpoints of ≈ 47 dirty buckets at 512, ≈ 60 at
/// 1024), `take_checkpoint` summed 12.2–17.6 ms at 512, 9.8–12.0 ms at
/// **1024**, and 45.6–60.2 ms with the single-hash checkpoint this
/// replaced; freeing evicted checkpoints was 6.6–9.3 ms of it at 512 and
/// 4.0–4.8 ms at 1024. With the final code at 1024, the micro-run reads
/// 67–71 for the checkpoint and 108–133 with the writes after 31 writes;
/// after 600 (≈ 580 distinct keys, most buckets copied) 417–433 and
/// 1,170–1,240, against 711–769 and 1,380–1,520 for the single hash.
pub(crate) const BUCKETS: usize = 1024;

/// Tag opening the top-level hash, apart from any bucket's preimage.
const DOMAIN: &[u8] = b"ia-ccf/kv-store/buckets-v1";

/// The bucket `key` lives in: FNV-1a 64 over its bytes, reduced mod
/// [`BUCKETS`]. A fixed function, never a seeded hasher, because every
/// replica and auditor must cut the store the same way.
pub(crate) fn bucket_of(key: &[u8]) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in key {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % BUCKETS as u64) as usize
}

/// One bucket's entries and, until a write clears it, their digest.
#[derive(Clone, Default)]
struct Bucket {
    entries: BTreeMap<Key, Value>,
    digest: OnceLock<Digest>,
}

impl Bucket {
    /// `D_b`, recomputed from the entries: encoded first and hashed in
    /// one call, which is faster than feeding the hasher field by field.
    fn hash(&self) -> Digest {
        let size = self.entries.iter().map(|(k, v)| 8 + k.len() + v.len()).sum::<usize>();
        let mut preimage = Vec::with_capacity(8 + size);
        preimage.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for (k, v) in &self.entries {
            preimage.extend_from_slice(&(k.len() as u32).to_le_bytes());
            preimage.extend_from_slice(k);
            preimage.extend_from_slice(&(v.len() as u32).to_le_bytes());
            preimage.extend_from_slice(v);
        }
        hash_bytes(&preimage)
    }

    /// `D_b`, from the cache when no write has cleared it.
    fn cached_hash(&self) -> Digest {
        *self.digest.get_or_init(|| self.hash())
    }
}

/// `D_b` of an empty bucket, the digest of every slot no write has
/// reached.
fn empty_digest() -> Digest {
    static EMPTY: OnceLock<Digest> = OnceLock::new();
    *EMPTY.get_or_init(|| Bucket::default().hash())
}

/// The live entries of a store, or the frozen ones of a checkpoint: one
/// pointer per bucket (none for a bucket never written), the total count
/// and, until a write clears it, the store digest.
#[derive(Clone)]
pub(crate) struct Buckets {
    buckets: Vec<Option<Arc<Bucket>>>,
    len: usize,
    digest: OnceLock<Digest>,
}

impl Default for Buckets {
    /// No entries, and the empty store's digest already cached: every
    /// replica, checkpoint store and auditor starts from one.
    fn default() -> Self {
        static EMPTY: OnceLock<Digest> = OnceLock::new();
        let empty = || Buckets { buckets: vec![None; BUCKETS], len: 0, digest: OnceLock::new() };
        let digest = *EMPTY.get_or_init(|| empty().digest());
        Buckets { digest: OnceLock::from(digest), ..empty() }
    }
}

impl std::fmt::Debug for Buckets {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Buckets").field("len", &self.len).finish_non_exhaustive()
    }
}

/// Equal entries; buckets one side shares with the other are not walked.
impl PartialEq for Buckets {
    fn eq(&self, other: &Self) -> bool {
        fn entries(b: &Option<Arc<Bucket>>) -> Option<&BTreeMap<Key, Value>> {
            b.as_ref().map(|b| &b.entries).filter(|e| !e.is_empty())
        }
        self.len == other.len
            && self.buckets.iter().zip(&other.buckets).all(|(a, b)| match (a, b) {
                (Some(a), Some(b)) if Arc::ptr_eq(a, b) => true,
                _ => entries(a) == entries(b),
            })
    }
}

impl Eq for Buckets {}

impl Buckets {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, key: &[u8]) -> Option<&Value> {
        self.buckets[bucket_of(key)].as_ref()?.entries.get(key)
    }

    /// The bucket `key` lives in, private to this holder, with its digest
    /// and the store digest cleared: every write goes through here.
    fn write(&mut self, key: &[u8]) -> &mut Bucket {
        self.digest.take();
        let bucket = Arc::make_mut(self.buckets[bucket_of(key)].get_or_insert_default());
        bucket.digest.take();
        bucket
    }

    /// Set `key = value`, returning the value it replaced.
    pub(crate) fn insert(&mut self, key: Key, value: Value) -> Option<Value> {
        let prior = self.write(&key).entries.insert(key, value);
        self.len += usize::from(prior.is_none());
        prior
    }

    /// Remove `key`, returning its value. An absent key copies and clears
    /// nothing.
    pub(crate) fn remove(&mut self, key: &[u8]) -> Option<Value> {
        self.get(key)?;
        let prior = self.write(key).entries.remove(key);
        self.len -= 1;
        prior
    }

    /// Every entry in ascending key order.
    pub(crate) fn sorted(&self) -> Vec<(&Key, &Value)> {
        let mut all: Vec<(&Key, &Value)> = self.buckets.iter().flatten().flat_map(|b| b.entries.iter()).collect();
        all.sort_unstable_by(|a, b| a.0.cmp(b.0));
        all
    }

    /// The store digest (module docs): cached until a write, and then
    /// re-hashing only the buckets whose cached digest a write cleared.
    pub(crate) fn digest(&self) -> Digest {
        *self.digest.get_or_init(|| self.top(|b| b.map_or_else(empty_digest, Bucket::cached_hash)))
    }

    /// The store digest recomputed from every entry, reading no cache.
    pub(crate) fn fresh_digest(&self) -> Digest {
        let empty = Bucket::default().hash();
        self.top(|b| b.map_or(empty, Bucket::hash))
    }

    fn top(&self, bucket_digest: impl Fn(Option<&Bucket>) -> Digest) -> Digest {
        let mut preimage = Vec::with_capacity(DOMAIN.len() + 8 + 32 * BUCKETS);
        preimage.extend_from_slice(DOMAIN);
        preimage.extend_from_slice(&(self.len as u64).to_le_bytes());
        for bucket in &self.buckets {
            preimage.extend_from_slice(bucket_digest(bucket.as_deref()).as_ref());
        }
        hash_bytes(&preimage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a 64's published test vectors: the bucket function is a
    /// consensus fact, so it is pinned to the reference, not to itself.
    #[test]
    fn bucket_of_is_fnv1a_64() {
        let fnv = |key: &[u8]| {
            key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        };
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv(b"foobar"), 0x8594_4171_f739_67e8);
        for key in [&b""[..], b"a", b"foobar", b"a\x01\x00\x00\x00\x00\x00\x00\x00"] {
            assert_eq!(bucket_of(key), (fnv(key) % BUCKETS as u64) as usize);
        }
    }

    #[test]
    fn a_write_copies_only_its_own_bucket_and_clears_only_its_digest() {
        let mut live = Buckets::default();
        for i in 0..4_000u32 {
            live.insert(i.to_le_bytes().to_vec(), vec![1]);
        }
        let before = live.digest();
        let frozen = live.clone();
        let key = 7u32.to_le_bytes();
        live.insert(key.to_vec(), vec![2]);
        let b = bucket_of(&key);
        for (i, (l, f)) in live.buckets.iter().zip(&frozen.buckets).enumerate() {
            let (Some(l), Some(f)) = (l, f) else {
                assert!(l.is_none() && f.is_none(), "bucket {i}");
                continue;
            };
            assert_eq!(Arc::ptr_eq(l, f), i != b, "bucket {i}");
            assert_eq!(l.digest.get().is_some(), i != b, "bucket {i}");
        }
        assert_eq!(frozen.digest(), before);
        assert_eq!(frozen.get(&key), Some(&vec![1]));
        assert_ne!(live.digest(), before);
        assert_eq!(live.digest(), live.fresh_digest());
    }

    #[test]
    fn removing_an_absent_key_touches_nothing_and_an_emptied_bucket_reads_empty() {
        let mut live = Buckets::default();
        live.insert(b"k".to_vec(), b"v".to_vec());
        let one = live.digest();
        let frozen = live.clone();
        assert_eq!(live.remove(b"absent"), None);
        assert!(live.buckets.iter().zip(&frozen.buckets).all(|(a, b)| match (a, b) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }));
        assert_eq!((live.len(), live.digest()), (1, one));
        assert_eq!(live.remove(b"k"), Some(b"v".to_vec()));
        assert_eq!(live.len(), 0);
        // The emptied bucket is still allocated; it reads as never written.
        assert!(live == Buckets::default());
        assert_eq!(live.digest(), Buckets::default().digest());
        assert_eq!(live.digest(), live.fresh_digest());
    }
}
