//! The Ed25519 implementation `vendor/ed25519-dalek` had before PR 16,
//! kept unchanged as the differential oracle: bit-at-a-time
//! double-and-add (`EdwardsPoint::mul_scalar`), generic-`pow` inversion,
//! compress-to-compare equality, bit-serial scalar reduction. `field.rs`,
//! `point.rs` and `scalar.rs` are the old files (their unit tests run as
//! part of this test crate); the signing and verification routines below
//! are the old `SigningKey` / `VerifyingKey` method bodies (signing now
//! with an optional small-order offset on `R` or on the key, for the
//! tests that craft mixed-order signatures; the offset-free case is the
//! old body), and
//! the helpers at the end are shared by the test files that include this
//! module.
//!
//! Two verification rules sit on that arithmetic. [`verify`] is the old
//! method body, the **cofactorless** equation `s·B = R + k·A`: what every
//! ledger written before batch verification was checked with.
//! [`verify_cofactored`] is RFC 8032's `8·s·B = 8·R + 8·k·A`, and since
//! PR 17 the reference: what it accepts *defines* the accept set the fast
//! implementation — single and batch — must reproduce. It differs from
//! the old rule only in the final comparison, so it accepts everything
//! the old rule did. Do not "fix" either.

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
        self.sign_with_torsion(msg, &EdwardsPoint::identity())
    }

    /// A signature whose `R` carries the small-order component `torsion`:
    /// `R' = r·B + T`, `s = r + H(R' ‖ A ‖ M)·a`, so `s·B − k·A − R' = −T`.
    /// Only the holder of `a` can make one. The cofactorless rule rejects
    /// it unless `T` is the identity; the cofactored rule accepts it; and
    /// in a sum of several without the factor 8 the `T`s can cancel.
    pub fn sign_with_torsion(&self, msg: &[u8], torsion: &EdwardsPoint) -> [u8; 64] {
        self.sign_under(msg, torsion, &self.public)
    }

    /// The mixed-order key `A' = A + T` and a signature made with `a` as if
    /// it were `A'`'s: `k = H(R ‖ A' ‖ M)`, `s = r + k·a`, so
    /// `s·B − k·A' − R = −k·T`. The cofactored rule accepts it for every
    /// `T`; the cofactorless one only where `k·T` is the identity.
    pub fn sign_for_shifted_key(&self, msg: &[u8], torsion: &EdwardsPoint) -> ([u8; 32], [u8; 64]) {
        let shifted = EdwardsPoint::decompress(&self.public)
            .expect("A = a·B decodes")
            .add(torsion)
            .compress();
        (shifted, self.sign_under(msg, &EdwardsPoint::identity(), &shifted))
    }

    /// `R ‖ s` with `R = r·B + r_torsion` and `k` hashed over `public`.
    fn sign_under(&self, msg: &[u8], r_torsion: &EdwardsPoint, public: &[u8; 32]) -> [u8; 64] {
        // r = H(prefix ‖ M) mod ℓ; R = r·B (+ T); k = H(R ‖ A ‖ M) mod ℓ;
        // s = k·a + r mod ℓ.
        let mut h = Sha512::new();
        h.update(self.prefix);
        h.update(msg);
        let r = scalar::reduce_bytes(&h.finalize());
        let big_r = EdwardsPoint::basepoint().mul_scalar(&r).add(r_torsion).compress();

        let mut h = Sha512::new();
        h.update(big_r);
        h.update(public);
        h.update(msg);
        let k = scalar::reduce_bytes(&h.finalize());
        let s = scalar::mul_add(&k, &self.a, &r);

        let mut bytes = [0u8; 64];
        bytes[..32].copy_from_slice(&big_r);
        bytes[32..].copy_from_slice(&s);
        bytes
    }
}

/// ℓ, the order of the basepoint, little-endian.
pub const ELL: [u8; 32] = [
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10,
];

/// The eight points of small order, as `ℓ·P` for decodable `P` (ℓ kills
/// the prime-order component and leaves the torsion one), sorted by the
/// encoding `compress` gives them.
pub fn small_order_points() -> Vec<EdwardsPoint> {
    let mut found: Vec<[u8; 32]> = Vec::new();
    let mut candidate = [0u8; 32];
    let mut tried = 0u32;
    while found.len() < 8 {
        candidate[0] = candidate[0].wrapping_add(1);
        candidate[1] = candidate[1].wrapping_add(candidate[0] & 1);
        tried += 1;
        assert!(tried < 2_000, "torsion search did not converge: {} found", found.len());
        let Some(p) = EdwardsPoint::decompress(&candidate) else { continue };
        let enc = p.mul_scalar(&ELL).compress();
        if !found.contains(&enc) {
            found.push(enc);
        }
    }
    found.sort();
    found.iter().map(|enc| EdwardsPoint::decompress(enc).expect("compress output decodes")).collect()
}

/// 256-bit little-endian `a + b`, wrapping.
pub fn add_le(a: &[u8; 32], b: &[u8; 32]) -> [u8; 32] {
    let mut out = [0u8; 32];
    let mut carry = 0u16;
    for i in 0..32 {
        let t = a[i] as u16 + b[i] as u16 + carry;
        out[i] = t as u8;
        carry = t >> 8;
    }
    out
}

/// The old `VerifyingKey::from_bytes` + `verify`: `None` when the key
/// does not decode, otherwise whether `signature` verifies over `msg`
/// under the cofactorless equation.
pub fn verify(key: &[u8; 32], msg: &[u8], signature: &[u8; 64]) -> Option<bool> {
    Some(sides(key, msg, signature)?.is_some_and(|(lhs, rhs)| lhs.eq_point(&rhs)))
}

/// The reference rule: the same decoding and range checks, then
/// `8·s·B = 8·(R + k·A)`.
pub fn verify_cofactored(key: &[u8; 32], msg: &[u8], signature: &[u8; 64]) -> Option<bool> {
    let times_8 = |p: &EdwardsPoint| p.double().double().double();
    Some(sides(key, msg, signature)?.is_some_and(|(lhs, rhs)| times_8(&lhs).eq_point(&times_8(&rhs))))
}

/// `(s·B, R + k·A)`: outer `None` when the key does not decode, inner
/// `None` when `s ≥ ℓ` or `R` does not decode.
fn sides(
    key: &[u8; 32],
    msg: &[u8],
    signature: &[u8; 64],
) -> Option<Option<(EdwardsPoint, EdwardsPoint)>> {
    let point = EdwardsPoint::decompress(key)?;

    let mut r_bytes = [0u8; 32];
    r_bytes.copy_from_slice(&signature[..32]);
    let mut s_bytes = [0u8; 32];
    s_bytes.copy_from_slice(&signature[32..]);

    // Reject non-canonical s (malleability guard, RFC 8032 §5.1.7).
    if !scalar::is_canonical(&s_bytes) {
        return Some(None);
    }
    let Some(big_r) = EdwardsPoint::decompress(&r_bytes) else {
        return Some(None);
    };

    let mut h = Sha512::new();
    h.update(r_bytes);
    h.update(key);
    h.update(msg);
    let k = scalar::reduce_bytes(&h.finalize());

    let lhs = EdwardsPoint::basepoint().mul_scalar(&s_bytes);
    let rhs = big_r.add(&point.mul_scalar(&k));
    Some(Some((lhs, rhs)))
}
