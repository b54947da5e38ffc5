//! SHA-256 digests.
//!
//! All hashing in IA-CCF — Merkle tree nodes, message digests `H(pp)`,
//! checkpoint digests `d_C`, the service name `H(gt)` — goes through this
//! module so the hash function is swappable in one place.

use serde::{Deserialize, Serialize};
use sha2::{Digest as _, Sha256};
use std::fmt;

/// Length in bytes of a [`Digest`].
pub const DIGEST_LEN: usize = 32;

/// A SHA-256 digest.
///
/// `Digest::zero()` is used as a sentinel for "no digest" slots (e.g. the
/// checkpoint digest before the first checkpoint exists); it is displayed as
/// all zeroes and is distinguishable from any real SHA-256 output for all
/// practical purposes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Digest(pub [u8; DIGEST_LEN]);

impl Digest {
    /// The all-zero sentinel digest.
    pub const fn zero() -> Self {
        Digest([0u8; DIGEST_LEN])
    }

    /// Whether this is the all-zero sentinel.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|b| *b == 0)
    }

    /// Raw bytes of the digest.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }

    /// Construct from raw bytes.
    pub fn from_bytes(bytes: [u8; DIGEST_LEN]) -> Self {
        Digest(bytes)
    }

    /// Construct from a slice; returns `None` when the length is wrong.
    pub fn from_slice(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != DIGEST_LEN {
            return None;
        }
        let mut out = [0u8; DIGEST_LEN];
        out.copy_from_slice(bytes);
        Some(Digest(out))
    }

    /// Short hex prefix, handy for logs.
    pub fn short_hex(&self) -> String {
        hex::encode(&self.0[..6])
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", hex::encode(self.0))
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

// The `.into()` calls below are identity conversions against the vendored
// sha2 shim (which returns `[u8; 32]` directly) but are required for the
// real sha2 crate (which returns a `GenericArray`); keeping them preserves
// the shim-swap contract documented in vendor/README.md.

/// Hash a byte string.
pub fn hash_bytes(bytes: &[u8]) -> Digest {
    #[allow(clippy::useless_conversion)]
    Digest(Sha256::digest(bytes).into())
}

/// Hash the concatenation of two digests — the Merkle interior-node rule
/// `H(left || right)`.
pub fn hash_pair(left: &Digest, right: &Digest) -> Digest {
    let mut block = [0u8; 2 * DIGEST_LEN];
    block[..DIGEST_LEN].copy_from_slice(&left.0);
    block[DIGEST_LEN..].copy_from_slice(&right.0);
    hash_bytes(&block)
}

/// Incremental hasher for multi-part inputs (checkpoint digests, leaf
/// encodings) without intermediate allocation.
pub struct Hasher {
    inner: Sha256,
}

impl Hasher {
    /// Start a fresh hash computation.
    pub fn new() -> Self {
        Hasher { inner: Sha256::new() }
    }

    /// Feed bytes into the hash.
    pub fn update(&mut self, bytes: impl AsRef<[u8]>) {
        self.inner.update(bytes.as_ref());
    }

    /// Finish and produce the digest.
    pub fn finalize(self) -> Digest {
        #[allow(clippy::useless_conversion)]
        Digest(self.inner.finalize().into())
    }
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic() {
        assert_eq!(hash_bytes(b"ia-ccf"), hash_bytes(b"ia-ccf"));
        assert_ne!(hash_bytes(b"ia-ccf"), hash_bytes(b"ia-cce"));
    }

    #[test]
    fn hash_pair_is_order_sensitive() {
        let a = hash_bytes(b"a");
        let b = hash_bytes(b"b");
        assert_ne!(hash_pair(&a, &b), hash_pair(&b, &a));
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Hasher::new();
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finalize(), hash_bytes(b"hello world"));
    }

    #[test]
    fn zero_sentinel() {
        assert!(Digest::zero().is_zero());
        assert!(!hash_bytes(b"x").is_zero());
    }

    #[test]
    fn from_slice_roundtrip() {
        let d = hash_bytes(b"roundtrip");
        assert_eq!(Digest::from_slice(d.as_ref()), Some(d));
        assert_eq!(Digest::from_slice(&d.as_ref()[..31]), None);
    }

    #[test]
    fn display_is_hex() {
        let d = hash_bytes(b"hex");
        let s = format!("{d}");
        assert_eq!(s.len(), 64);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
