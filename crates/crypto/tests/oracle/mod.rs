//! The Ed25519 implementation `vendor/ed25519-dalek` had before PR 16,
//! kept unchanged as the differential oracle: bit-at-a-time
//! double-and-add (`EdwardsPoint::mul_scalar`), generic-`pow` inversion,
//! compress-to-compare equality, bit-serial scalar reduction. `field.rs`,
//! `point.rs` and `scalar.rs` are the old files (their unit tests run as
//! part of this test crate); the signing and verification routines below
//! are the old `SigningKey` / `VerifyingKey` method bodies.
//!
//! What this code accepts *defines* the accept set the fast
//! implementation must reproduce — do not "fix" it.

#![allow(dead_code)]

pub mod field;
pub mod point;
pub mod scalar;

use point::EdwardsPoint;
use sha2::{Digest as _, Sha512};

/// The old `SigningKey`: seed-derived scalar, nonce prefix and public
/// point.
pub struct SigningKey {
    /// Clamped scalar `a`.
    a: [u8; 32],
    /// Second half of `SHA512(seed)`, the deterministic-nonce prefix.
    prefix: [u8; 32],
    /// Compressed public point `A = a·B`.
    public: [u8; 32],
}

impl SigningKey {
    /// Derive the key from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_bytes(seed: &[u8; 32]) -> SigningKey {
        let h = Sha512::digest(seed);
        let mut a = [0u8; 32];
        a.copy_from_slice(&h[..32]);
        a[0] &= 248;
        a[31] &= 127;
        a[31] |= 64;
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
        let public = EdwardsPoint::basepoint().mul_scalar(&a).compress();
        SigningKey { a, prefix, public }
    }

    /// The compressed public key.
    pub fn public(&self) -> [u8; 32] {
        self.public
    }

    /// Sign a message; returns `R ‖ s`.
    pub fn sign(&self, msg: &[u8]) -> [u8; 64] {
        // r = H(prefix ‖ M) mod ℓ; R = r·B; k = H(R ‖ A ‖ M) mod ℓ;
        // s = k·a + r mod ℓ.
        let mut h = Sha512::new();
        h.update(self.prefix);
        h.update(msg);
        let r = scalar::reduce_bytes(&h.finalize());
        let big_r = EdwardsPoint::basepoint().mul_scalar(&r).compress();

        let mut h = Sha512::new();
        h.update(big_r);
        h.update(self.public);
        h.update(msg);
        let k = scalar::reduce_bytes(&h.finalize());
        let s = scalar::mul_add(&k, &self.a, &r);

        let mut bytes = [0u8; 64];
        bytes[..32].copy_from_slice(&big_r);
        bytes[32..].copy_from_slice(&s);
        bytes
    }
}

/// The old `VerifyingKey::from_bytes` + `verify`: `None` when the key
/// does not decode, otherwise whether `signature` verifies over `msg`.
pub fn verify(key: &[u8; 32], msg: &[u8], signature: &[u8; 64]) -> Option<bool> {
    let point = EdwardsPoint::decompress(key)?;

    let mut r_bytes = [0u8; 32];
    r_bytes.copy_from_slice(&signature[..32]);
    let mut s_bytes = [0u8; 32];
    s_bytes.copy_from_slice(&signature[32..]);

    // Reject non-canonical s (malleability guard, RFC 8032 §5.1.7).
    if !scalar::is_canonical(&s_bytes) {
        return Some(false);
    }
    let Some(big_r) = EdwardsPoint::decompress(&r_bytes) else {
        return Some(false);
    };

    let mut h = Sha512::new();
    h.update(r_bytes);
    h.update(key);
    h.update(msg);
    let k = scalar::reduce_bytes(&h.finalize());

    // Check s·B == R + k·A.
    let lhs = EdwardsPoint::basepoint().mul_scalar(&s_bytes);
    let rhs = big_r.add(&point.mul_scalar(&k));
    Some(lhs.eq_point(&rhs))
}
