//! Ed25519 signing keys, public keys and signatures.
//!
//! Replicas sign pre-prepare/prepare/view-change/new-view messages, clients
//! sign requests, members sign governance transactions and replica-key
//! endorsements (§2, §5.1). The paper uses secp256k1; Ed25519 has the same
//! signature and public key sizes (64 B / 32 B) so ledger-entry and receipt
//! sizes (Tab. 1, §6.4) keep their shape.
//!
//! [`PublicKey`] is the 32 wire bytes; turning them into a curve point
//! costs a field square root (≈ 5 µs). The first single check under a key
//! then builds the split table it walks: 256 doublings, 240 additions and
//! one batched inversion (≈ 120 µs, seven times the ≈ 17 µs check that
//! uses it). The combined check reads the point only, so a key seen only
//! there never builds one. The table pays for itself only when a thread
//! checks the key singly about 16 times while it stays cached: over 256
//! keys each checked `r` times in a row, one check costs 137–192 µs at
//! `r` = 1 (64–76 µs with four 64-bit pieces and their ≈ 3.8 KB table),
//! about the same at `r` = 16 (28–31 against 27–28 µs) and less from
//! `r` = 32 (22–25 against 25–33 µs). Traffic with more clients than the
//! cache holds, each sending few requests at low load, pays more per
//! check than with four pieces. The protocol verifies under a small fixed
//! set of keys — the replicas, and the clients with requests in flight —
//! so [`PublicKey::verify`] and the batch kernel keep the parsed form in a
//! **thread-local, two-way set-associative cache of boxed keys**: no lock
//! for pool workers to contend on, a full 32-byte compare on every hit,
//! only successfully parsed keys stored, two keys whose first bytes meet
//! in one set both stay, a third evicts the one used less recently. It
//! changes no verdict — a miss parses exactly as before.

use ed25519_dalek::{Signer as _, Verifier as _, VerifyingKey};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;

use crate::digest::{hash_bytes, Digest};

/// Length in bytes of a serialized public key.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length in bytes of a serialized signature.
pub const SIGNATURE_LEN: usize = 64;

/// A signing key pair held by a replica, client or consortium member.
#[derive(Clone)]
pub struct KeyPair {
    signing: ed25519_dalek::SigningKey,
    public: PublicKey,
}

impl KeyPair {
    /// Generate a key pair from an OS RNG.
    pub fn generate() -> Self {
        let mut rng = rand::rngs::OsRng;
        Self::from_signing(ed25519_dalek::SigningKey::generate(&mut rng))
    }

    /// Deterministic key pair from a 32-byte seed. Used by tests and the
    /// simulator so clusters are reproducible run-to-run.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        Self::from_signing(ed25519_dalek::SigningKey::from_bytes(&seed))
    }

    /// The pair around `signing`. The public half is taken as bytes:
    /// parsing it would build verification tables nobody may use.
    fn from_signing(signing: ed25519_dalek::SigningKey) -> Self {
        let mut public = PublicKey([0; PUBLIC_KEY_LEN]);
        public.0.copy_from_slice(&signing.to_keypair_bytes()[32..]);
        KeyPair { signing, public }
    }

    /// Deterministic key pair derived from an arbitrary label.
    pub fn from_label(label: &str) -> Self {
        Self::from_seed(hash_bytes(label.as_bytes()).0)
    }

    /// The public half of the pair.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Sign a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        Signature(self.signing.sign(msg).to_bytes())
    }
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyPair(pub={})", self.public)
    }
}

/// A serializable Ed25519 public key.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PublicKey(pub [u8; PUBLIC_KEY_LEN]);

/// Sets in each thread's parsed-key cache. A set is two pointers, most
/// recently used first; a parsed key is on the heap, so only the keys in
/// use take memory: ≈ 200 B for the point, ≈ 31 KB once a single check
/// has built its split table. At most 64 keys per thread, ≈ 2 MB.
const KEY_CACHE_SETS: usize = 32;

/// One set of the cache.
type KeySet = [Option<Box<VerifyingKey>>; 2];

thread_local! {
    /// Parsed keys, in the set of the key's first byte modulo the set count.
    static KEY_CACHE: RefCell<[KeySet; KEY_CACHE_SETS]> =
        const { RefCell::new([const { [None, None] }; KEY_CACHE_SETS]) };
}

impl PublicKey {
    /// Run `f` on the parsed key, taken from this thread's cache when it
    /// is there; `None` when the bytes are not a curve point.
    pub(crate) fn with_parsed<T>(&self, f: impl FnOnce(&VerifyingKey) -> T) -> Option<T> {
        KEY_CACHE.with(|cache| {
            let set = &mut cache.borrow_mut()[self.0[0] as usize % KEY_CACHE_SETS];
            let holds = |way: &Option<Box<VerifyingKey>>| {
                way.as_ref().is_some_and(|vk| vk.to_bytes() == self.0)
            };
            if holds(&set[1]) {
                set.swap(0, 1);
            } else if !holds(&set[0]) {
                let parsed = Box::new(VerifyingKey::from_bytes(&self.0).ok()?);
                set[1] = set[0].replace(parsed);
            }
            set[0].as_deref().map(f)
        })
    }

    /// Verify `sig` over `msg` under this key.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        let s = ed25519_dalek::Signature::from_bytes(&sig.0);
        self.with_parsed(|vk| vk.verify(msg, &s).is_ok()).unwrap_or(false)
    }

    /// Whether the key is a curve point of small order, under which
    /// anyone can make a signature that verifies for any message
    /// ([`VerifyingKey::is_weak`]); `None` when the bytes are not a curve
    /// point.
    pub fn is_weak(&self) -> Option<bool> {
        self.with_parsed(VerifyingKey::is_weak)
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8; PUBLIC_KEY_LEN] {
        &self.0
    }

    /// Digest of the key, used to derive client identifiers.
    pub fn digest(&self) -> Digest {
        hash_bytes(&self.0)
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({}…)", hex::encode(&self.0[..6]))
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", hex::encode(self.0))
    }
}

/// A detached Ed25519 signature.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature(#[serde(with = "serde_bytes64")] pub [u8; SIGNATURE_LEN]);

impl Signature {
    /// An all-zero placeholder signature, used only to reserve space when
    /// measuring wire sizes. It verifies under no honestly generated key,
    /// but it is not a universal reject: `R` = 0 decodes to a point of
    /// order 4 and `s` = 0 is canonical, so under a small-order public
    /// key the equation can hold (`ed25519_oracle.rs` pins the all-zero
    /// triple).
    pub const fn zero() -> Self {
        Signature([0u8; SIGNATURE_LEN])
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8; SIGNATURE_LEN] {
        &self.0
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({}…)", hex::encode(&self.0[..6]))
    }
}

/// Serde helper for `[u8; 64]`, which lacks built-in serde impls.
///
/// Only reachable through serde-driven serialization, which the vendored
/// compile-only serde shim never invokes (see vendor/README.md) — hence
/// the `dead_code` allowance.
#[allow(dead_code)]
mod serde_bytes64 {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};

    pub fn serialize<S: Serializer>(v: &[u8; 64], s: S) -> Result<S::Ok, S::Error> {
        v.as_slice().serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<[u8; 64], D::Error> {
        let v: Vec<u8> = Vec::deserialize(d)?;
        v.try_into()
            .map_err(|_| serde::de::Error::custom("bad signature length"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::generate();
        let sig = kp.sign(b"message");
        assert!(kp.public().verify(b"message", &sig));
        assert!(!kp.public().verify(b"messagf", &sig));
    }

    #[test]
    fn wrong_key_rejects() {
        let a = KeyPair::from_label("a");
        let b = KeyPair::from_label("b");
        let sig = a.sign(b"m");
        assert!(!b.public().verify(b"m", &sig));
    }

    #[test]
    fn seeded_keys_are_deterministic() {
        let a = KeyPair::from_label("replica-0");
        let b = KeyPair::from_label("replica-0");
        assert_eq!(a.public(), b.public());
        assert_ne!(a.public(), KeyPair::from_label("replica-1").public());
    }

    #[test]
    fn zero_signature_never_verifies() {
        let kp = KeyPair::generate();
        assert!(!kp.public().verify(b"m", &Signature::zero()));
    }

    #[test]
    fn tampered_signature_rejects() {
        let kp = KeyPair::generate();
        let mut sig = kp.sign(b"m");
        sig.0[0] ^= 0xff;
        assert!(!kp.public().verify(b"m", &sig));
    }

    /// `n` keys whose first bytes map to one set.
    fn same_set(n: usize) -> Vec<KeyPair> {
        let set = |k: &KeyPair| k.public().0[0] as usize % KEY_CACHE_SETS;
        let mut keys: Vec<KeyPair> = Vec::new();
        for i in 0.. {
            let kp = KeyPair::from_label(&format!("set-{i}"));
            if keys.first().is_none_or(|first| set(first) == set(&kp)) {
                keys.push(kp);
            }
            if keys.len() == n {
                break;
            }
        }
        keys
    }

    /// The keys this thread's cache holds in `key`'s set, most recent first.
    fn cached_in_set_of(key: &PublicKey) -> Vec<[u8; PUBLIC_KEY_LEN]> {
        KEY_CACHE.with(|cache| {
            cache.borrow()[key.0[0] as usize % KEY_CACHE_SETS]
                .iter()
                .flatten()
                .map(|vk| vk.to_bytes())
                .collect()
        })
    }

    #[test]
    fn two_keys_of_one_set_both_stay_cached() {
        let keys = same_set(3);
        let (a, b, c) = (keys[0].public(), keys[1].public(), keys[2].public());
        let sigs: Vec<Signature> = keys.iter().map(|kp| kp.sign(b"m")).collect();
        for _ in 0..3 {
            assert!(a.verify(b"m", &sigs[0]) && b.verify(b"m", &sigs[1]));
            assert_eq!(cached_in_set_of(&a), vec![b.0, a.0]);
        }
        // A third key evicts the one used less recently.
        assert!(c.verify(b"m", &sigs[2]));
        assert_eq!(cached_in_set_of(&a), vec![c.0, b.0]);
        assert!(a.verify(b"m", &sigs[0]));
        assert_eq!(cached_in_set_of(&a), vec![a.0, c.0]);
    }

    #[test]
    fn key_cache_never_changes_a_verdict() {
        // Three keys whose first bytes map to one two-way set evict each
        // other; every verdict is still the key's own.
        let same_set = same_set(3);
        let sigs: Vec<Signature> = same_set.iter().map(|kp| kp.sign(b"m")).collect();
        for _ in 0..3 {
            for (i, kp) in same_set.iter().enumerate() {
                for (j, sig) in sigs.iter().enumerate() {
                    assert_eq!(kp.public().verify(b"m", sig), i == j, "key {i}, sig {j}");
                }
            }
        }
        // A key that does not parse (x = 0 with the sign bit set) is
        // rejected on every call — nothing is stored for it.
        let mut unparsable = [0u8; 32];
        unparsable[0] = 1;
        unparsable[31] = 0x80;
        let honest = KeyPair::from_label("slot-honest");
        let sig = honest.sign(b"m");
        for _ in 0..2 {
            assert!(!PublicKey(unparsable).verify(b"m", &sig));
            assert!(honest.public().verify(b"m", &sig));
        }
        // A one-byte neighbour of a cached key is a different key.
        let mut neighbour = honest.public();
        neighbour.0[31] ^= 0x01;
        assert!(!neighbour.verify(b"m", &sig));
        assert!(honest.public().verify(b"m", &sig));
    }

    /// Whether this thread's cache holds `key`'s split table; `None` when
    /// it does not hold the key.
    fn cached_split_table(key: &PublicKey) -> Option<bool> {
        KEY_CACHE.with(|cache| {
            cache.borrow()[key.0[0] as usize % KEY_CACHE_SETS]
                .iter()
                .flatten()
                .find(|vk| vk.to_bytes() == key.0)
                .map(|vk| vk.has_split_table())
        })
    }

    #[test]
    fn a_key_checked_only_in_combined_checks_builds_no_split_table() {
        use crate::batch::{verify_batch_indices, VerifyJob, VERIFY_BATCH_MIN};
        let kp = KeyPair::from_label("combined-only");
        let jobs: Vec<VerifyJob> = (0..VERIFY_BATCH_MIN as u8)
            .map(|i| VerifyJob { key: kp.public(), msg: vec![i], sig: kp.sign(&[i]) })
            .collect();
        for _ in 0..2 {
            assert!(verify_batch_indices(&jobs).is_empty());
            assert_eq!(cached_split_table(&kp.public()), Some(false), "parsed, no table");
        }
        // The first single check builds it.
        assert!(kp.public().verify(&jobs[0].msg, &jobs[0].sig));
        assert_eq!(cached_split_table(&kp.public()), Some(true));
    }

    #[test]
    fn sizes_match_constants() {
        let kp = KeyPair::generate();
        assert_eq!(kp.public().as_bytes().len(), PUBLIC_KEY_LEN);
        assert_eq!(kp.sign(b"x").as_bytes().len(), SIGNATURE_LEN);
    }
}
