//! Edwards-curve points in extended twisted-Edwards coordinates
//! `(X : Y : Z : T)` with `x = X/Z`, `y = Y/Z`, `T = XY/Z`.

use super::field::{curve_d, sqrt_m1, FieldElement};

/// A point on edwards25519.
#[derive(Clone, Copy, Debug)]
pub struct EdwardsPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

/// `2·d`, cached.
fn curve_2d() -> FieldElement {
    static CACHE: std::sync::OnceLock<FieldElement> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        let d = curve_d();
        d.add(&d)
    })
}

impl EdwardsPoint {
    /// The neutral element (0, 1).
    pub fn identity() -> EdwardsPoint {
        EdwardsPoint {
            x: FieldElement::ZERO,
            y: FieldElement::ONE,
            z: FieldElement::ONE,
            t: FieldElement::ZERO,
        }
    }

    /// The standard base point B with y = 4/5 and even x.
    pub fn basepoint() -> EdwardsPoint {
        static CACHE: std::sync::OnceLock<EdwardsPoint> = std::sync::OnceLock::new();
        *CACHE.get_or_init(|| {
            let mut enc = [0x66u8; 32];
            enc[0] = 0x58;
            EdwardsPoint::decompress(&enc).expect("standard base point decodes")
        })
    }

    /// Unified point addition (add-2008-hwcd-3).
    pub fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
        let b = self.y.add(&self.x).mul(&other.y.add(&other.x));
        let c = self.t.mul(&curve_2d()).mul(&other.t);
        let d = self.z.add(&self.z).mul(&other.z);
        let e = b.sub(&a);
        let f = d.sub(&c);
        let g = d.add(&c);
        let h = b.add(&a);
        EdwardsPoint { x: e.mul(&f), y: g.mul(&h), z: f.mul(&g), t: e.mul(&h) }
    }

    /// Point doubling (dbl-2008-hwcd).
    pub fn double(&self) -> EdwardsPoint {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square().add(&self.z.square());
        let h = a.add(&b);
        let e = h.sub(&self.x.add(&self.y).square());
        let g = a.sub(&b);
        let f = c.add(&g);
        EdwardsPoint { x: e.mul(&f), y: g.mul(&h), z: f.mul(&g), t: e.mul(&h) }
    }

    /// Scalar multiplication by a little-endian 256-bit scalar
    /// (double-and-add; not constant-time — fine for a test shim).
    pub fn mul_scalar(&self, scalar_le: &[u8; 32]) -> EdwardsPoint {
        let mut acc = EdwardsPoint::identity();
        for byte in scalar_le.iter().rev() {
            for bit in (0..8).rev() {
                acc = acc.double();
                if (byte >> bit) & 1 == 1 {
                    acc = acc.add(self);
                }
            }
        }
        acc
    }

    /// Compress to the 32-byte encoding: y with the sign of x in the
    /// top bit.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompress a 32-byte encoding; `None` when no curve point
    /// matches.
    pub fn decompress(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        let sign = bytes[31] >> 7 == 1;
        let y = FieldElement::from_bytes(bytes);
        let yy = y.square();
        let u = yy.sub(&FieldElement::ONE);
        let v = yy.mul(&curve_d()).add(&FieldElement::ONE);

        // x = sqrt(u/v) via x = u·v^3·(u·v^7)^((p-5)/8).
        let v3 = v.square().mul(&v);
        let v7 = v3.square().mul(&v);
        let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());

        let vxx = v.mul(&x.square());
        if !vxx.ct_eq(&u) {
            if vxx.ct_eq(&u.neg()) {
                x = x.mul(&sqrt_m1());
            } else {
                return None;
            }
        }
        if x.is_zero() && sign {
            return None;
        }
        if x.is_negative() != sign {
            x = x.neg();
        }
        Some(EdwardsPoint { x, y, z: FieldElement::ONE, t: x.mul(&y) })
    }

    /// Equality via compressed encodings (projective coordinates are
    /// not unique).
    pub fn eq_point(&self, other: &EdwardsPoint) -> bool {
        self.compress() == other.compress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basepoint_roundtrips() {
        let b = EdwardsPoint::basepoint();
        let enc = b.compress();
        let mut expect = [0x66u8; 32];
        expect[0] = 0x58;
        assert_eq!(enc, expect);
        assert!(EdwardsPoint::decompress(&enc).unwrap().eq_point(&b));
    }

    #[test]
    fn addition_is_commutative_and_doubling_consistent() {
        let b = EdwardsPoint::basepoint();
        let b2 = b.double();
        let b3a = b2.add(&b);
        let b3b = b.add(&b2);
        assert!(b3a.eq_point(&b3b));
        let mut four = [0u8; 32];
        four[0] = 4;
        assert!(b2.double().eq_point(&b.mul_scalar(&four)));
    }

    #[test]
    fn identity_is_neutral() {
        let b = EdwardsPoint::basepoint();
        assert!(b.add(&EdwardsPoint::identity()).eq_point(&b));
        let mut one = [0u8; 32];
        one[0] = 1;
        assert!(b.mul_scalar(&one).eq_point(&b));
        assert!(b.mul_scalar(&[0u8; 32]).eq_point(&EdwardsPoint::identity()));
    }

    #[test]
    fn group_order_annihilates() {
        // ℓ·B = identity for the basepoint order ℓ.
        let ell: [u8; 32] = [
            0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9,
            0xde, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x10,
        ];
        let b = EdwardsPoint::basepoint();
        assert!(b.mul_scalar(&ell).eq_point(&EdwardsPoint::identity()));
    }
}
