//! Arithmetic in GF(2^255 - 19), radix-51 representation.

/// A field element as five 51-bit limbs (little-endian), value
/// `l0 + l1·2^51 + l2·2^102 + l3·2^153 + l4·2^204`.
#[derive(Clone, Copy, Debug)]
pub struct FieldElement(pub [u64; 5]);

const LOW_51: u64 = (1u64 << 51) - 1;

impl FieldElement {
    /// Additive identity.
    pub const ZERO: FieldElement = FieldElement([0; 5]);
    /// Multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0, 0]);

    /// A small integer constant.
    pub fn from_u64(v: u64) -> FieldElement {
        let mut fe = FieldElement::ZERO;
        fe.0[0] = v & LOW_51;
        fe.0[1] = v >> 51;
        fe
    }

    /// Parse 32 little-endian bytes (top bit ignored, per convention).
    pub fn from_bytes(bytes: &[u8; 32]) -> FieldElement {
        let load = |i: usize| -> u64 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i..i + 8]);
            u64::from_le_bytes(chunk)
        };
        FieldElement([
            load(0) & LOW_51,
            (load(6) >> 3) & LOW_51,
            (load(12) >> 6) & LOW_51,
            (load(19) >> 1) & LOW_51,
            (load(24) >> 12) & LOW_51,
        ])
    }

    /// Serialize to 32 little-endian bytes, fully reduced mod p.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut l = self.reduce_weak().0;
        // Canonical reduction: q = floor((value + 19) / 2^255), then
        // value - q·p == value + 19·q (mod 2^255).
        let mut q = (l[0] + 19) >> 51;
        q = (l[1] + q) >> 51;
        q = (l[2] + q) >> 51;
        q = (l[3] + q) >> 51;
        q = (l[4] + q) >> 51;
        l[0] += 19 * q;
        let mut carry;
        carry = l[0] >> 51;
        l[0] &= LOW_51;
        l[1] += carry;
        carry = l[1] >> 51;
        l[1] &= LOW_51;
        l[2] += carry;
        carry = l[2] >> 51;
        l[2] &= LOW_51;
        l[3] += carry;
        carry = l[3] >> 51;
        l[3] &= LOW_51;
        l[4] += carry;
        l[4] &= LOW_51;

        let mut out = [0u8; 32];
        out[0..8].copy_from_slice(&(l[0] | (l[1] << 51)).to_le_bytes());
        out[8..16].copy_from_slice(&((l[1] >> 13) | (l[2] << 38)).to_le_bytes());
        out[16..24].copy_from_slice(&((l[2] >> 26) | (l[3] << 25)).to_le_bytes());
        out[24..32].copy_from_slice(&((l[3] >> 39) | (l[4] << 12)).to_le_bytes());
        out
    }

    /// Carry-propagate so every limb is below 2^52.
    fn reduce_weak(self) -> FieldElement {
        let mut l = self.0;
        let c0 = l[0] >> 51;
        let c1 = l[1] >> 51;
        let c2 = l[2] >> 51;
        let c3 = l[3] >> 51;
        let c4 = l[4] >> 51;
        l[0] &= LOW_51;
        l[1] &= LOW_51;
        l[2] &= LOW_51;
        l[3] &= LOW_51;
        l[4] &= LOW_51;
        l[0] += c4 * 19;
        l[1] += c0;
        l[2] += c1;
        l[3] += c2;
        l[4] += c3;
        FieldElement(l)
    }

    /// Field addition.
    pub fn add(&self, other: &FieldElement) -> FieldElement {
        let a = self.0;
        let b = other.0;
        FieldElement([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4]])
            .reduce_weak()
    }

    /// Field subtraction.
    pub fn sub(&self, other: &FieldElement) -> FieldElement {
        let a = self.0;
        let b = other.0;
        // Add 2·p before subtracting so limbs never underflow.
        FieldElement([
            a[0] + 0xfffffffffffda - b[0],
            a[1] + 0xffffffffffffe - b[1],
            a[2] + 0xffffffffffffe - b[2],
            a[3] + 0xffffffffffffe - b[3],
            a[4] + 0xffffffffffffe - b[4],
        ])
        .reduce_weak()
    }

    /// Field negation.
    pub fn neg(&self) -> FieldElement {
        FieldElement::ZERO.sub(self)
    }

    /// Field multiplication.
    pub fn mul(&self, other: &FieldElement) -> FieldElement {
        let a = self.0;
        let b = other.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;

        let r0 = m(a[0], b[0]) + 19 * (m(a[1], b[4]) + m(a[2], b[3]) + m(a[3], b[2]) + m(a[4], b[1]));
        let mut r1 = m(a[0], b[1]) + m(a[1], b[0]) + 19 * (m(a[2], b[4]) + m(a[3], b[3]) + m(a[4], b[2]));
        let mut r2 = m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + 19 * (m(a[3], b[4]) + m(a[4], b[3]));
        let mut r3 = m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + 19 * m(a[4], b[4]);
        let mut r4 = m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);

        let mut out = [0u64; 5];
        let mut carry: u128;
        carry = r0 >> 51;
        out[0] = (r0 as u64) & LOW_51;
        r1 += carry;
        carry = r1 >> 51;
        out[1] = (r1 as u64) & LOW_51;
        r2 += carry;
        carry = r2 >> 51;
        out[2] = (r2 as u64) & LOW_51;
        r3 += carry;
        carry = r3 >> 51;
        out[3] = (r3 as u64) & LOW_51;
        r4 += carry;
        carry = r4 >> 51;
        out[4] = (r4 as u64) & LOW_51;
        out[0] += (carry as u64) * 19;

        FieldElement(out).reduce_weak()
    }

    /// Field squaring.
    pub fn square(&self) -> FieldElement {
        self.mul(self)
    }

    /// Exponentiation by a little-endian 256-bit exponent.
    pub fn pow(&self, exp_le: &[u8; 32]) -> FieldElement {
        let mut result = FieldElement::ONE;
        for byte in exp_le.iter().rev() {
            for bit in (0..8).rev() {
                result = result.square();
                if (byte >> bit) & 1 == 1 {
                    result = result.mul(self);
                }
            }
        }
        result
    }

    /// Multiplicative inverse (zero maps to zero).
    pub fn invert(&self) -> FieldElement {
        // p - 2 = 2^255 - 21.
        let mut e = [0xffu8; 32];
        e[0] = 0xeb;
        e[31] = 0x7f;
        self.pow(&e)
    }

    /// `self^((p-5)/8)`, the core of the square-root computation.
    pub fn pow_p58(&self) -> FieldElement {
        // (p - 5) / 8 = 2^252 - 3.
        let mut e = [0xffu8; 32];
        e[0] = 0xfd;
        e[31] = 0x0f;
        self.pow(&e)
    }

    /// Whether the canonical form is zero.
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Low bit of the canonical form (the "sign" in point encoding).
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Constant-independent equality on canonical forms.
    pub fn ct_eq(&self, other: &FieldElement) -> bool {
        self.to_bytes() == other.to_bytes()
    }
}

/// `sqrt(-1) mod p`, computed once.
pub fn sqrt_m1() -> FieldElement {
    static CACHE: std::sync::OnceLock<FieldElement> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        // 2^((p-1)/4); (p - 1) / 4 = 2^253 - 5.
        let mut e = [0xffu8; 32];
        e[0] = 0xfb;
        e[31] = 0x1f;
        FieldElement::from_u64(2).pow(&e)
    })
}

/// The curve constant `d = -121665/121666 mod p`, computed once.
pub fn curve_d() -> FieldElement {
    static CACHE: std::sync::OnceLock<FieldElement> = std::sync::OnceLock::new();
    *CACHE.get_or_init(|| {
        FieldElement::from_u64(121665).neg().mul(&FieldElement::from_u64(121666).invert())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip() {
        let mut b = [0u8; 32];
        for (i, slot) in b.iter_mut().enumerate() {
            *slot = (i as u8).wrapping_mul(37).wrapping_add(1);
        }
        b[31] &= 0x7f;
        let fe = FieldElement::from_bytes(&b);
        assert_eq!(fe.to_bytes(), b);
    }

    #[test]
    fn add_sub_inverse() {
        let a = FieldElement::from_u64(123456789);
        let b = FieldElement::from_u64(987654321);
        let c = a.add(&b).sub(&b);
        assert!(c.ct_eq(&a));
        assert!(a.sub(&a).is_zero());
    }

    #[test]
    fn mul_matches_small_ints() {
        let a = FieldElement::from_u64(1 << 40);
        let b = FieldElement::from_u64(1 << 20);
        let c = a.mul(&b);
        let mut expect = [0u8; 32];
        expect[7] = 0x10; // 2^60
        assert_eq!(c.to_bytes(), expect);
    }

    #[test]
    fn invert_is_inverse() {
        let a = FieldElement::from_u64(0xdeadbeefcafe);
        let inv = a.invert();
        assert!(a.mul(&inv).ct_eq(&FieldElement::ONE));
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = sqrt_m1();
        let minus_one = FieldElement::ZERO.sub(&FieldElement::ONE);
        assert!(i.square().ct_eq(&minus_one));
    }

    #[test]
    fn p_reduces_to_zero() {
        // p = 2^255 - 19 in little-endian bytes.
        let mut p = [0xffu8; 32];
        p[0] = 0xed;
        p[31] = 0x7f;
        // from_bytes masks to < 2^255, so p itself parses as p ≡ 0.
        assert!(FieldElement::from_bytes(&p).is_zero());
    }
}
