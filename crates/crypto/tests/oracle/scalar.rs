//! Arithmetic modulo the basepoint order
//! `ℓ = 2^252 + 27742317777372353535851937790883648493`.
//!
//! Simple and obviously-correct rather than fast: 256-bit values as four
//! u64 limbs, 512-bit reduction by binary shift-and-subtract.

/// ℓ as four little-endian u64 limbs.
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

fn geq(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

fn sub_assign(a: &mut [u64; 4], b: &[u64; 4]) {
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d, b1) = a[i].overflowing_sub(b[i]);
        let (d, b2) = d.overflowing_sub(borrow);
        a[i] = d;
        borrow = (b1 | b2) as u64;
    }
    debug_assert_eq!(borrow, 0);
}

/// `acc = 2·acc + bit (mod ℓ)`. Caller guarantees `acc < ℓ`.
fn shift_in_bit(acc: &mut [u64; 4], bit: u64) {
    let mut carry = bit;
    for limb in acc.iter_mut() {
        let new_carry = *limb >> 63;
        *limb = (*limb << 1) | carry;
        carry = new_carry;
    }
    // acc was < ℓ < 2^253, so 2·acc + 1 < 2^254: no limb overflow.
    debug_assert_eq!(carry, 0);
    if geq(acc, &L) {
        sub_assign(acc, &L);
    }
}

/// Reduce a little-endian byte string modulo ℓ.
pub fn reduce_bytes(input: &[u8]) -> [u8; 32] {
    let mut acc = [0u64; 4];
    for byte in input.iter().rev() {
        for bit in (0..8).rev() {
            shift_in_bit(&mut acc, ((byte >> bit) & 1) as u64);
        }
    }
    limbs_to_bytes(&acc)
}

fn bytes_to_limbs(b: &[u8; 32]) -> [u64; 4] {
    let mut l = [0u64; 4];
    for (i, chunk) in b.chunks_exact(8).enumerate() {
        l[i] = u64::from_le_bytes(chunk.try_into().unwrap());
    }
    l
}

fn limbs_to_bytes(l: &[u64; 4]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, limb) in l.iter().enumerate() {
        out[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
    }
    out
}

/// `(a·b + c) mod ℓ` over little-endian 32-byte scalars.
pub fn mul_add(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    let al = bytes_to_limbs(a);
    let bl = bytes_to_limbs(b);
    // Schoolbook 4×4 → 8-limb product.
    let mut prod = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u128;
        for j in 0..4 {
            let t = al[i] as u128 * bl[j] as u128 + prod[i + j] as u128 + carry;
            prod[i + j] = t as u64;
            carry = t >> 64;
        }
        prod[i + 4] = carry as u64;
    }
    // + c (c < 2^256; the sum fits in 512 + 1 bits — track the final carry).
    let cl = bytes_to_limbs(c);
    let mut carry = 0u128;
    for i in 0..8 {
        let t = prod[i] as u128 + if i < 4 { cl[i] as u128 } else { 0 } + carry;
        prod[i] = t as u64;
        carry = t >> 64;
    }
    debug_assert_eq!(carry, 0, "a·b + c with 256-bit inputs fits in 512 bits");
    let mut bytes = [0u8; 64];
    for (i, limb) in prod.iter().enumerate() {
        bytes[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
    }
    reduce_bytes(&bytes)
}

/// Whether a 32-byte little-endian value is strictly below ℓ.
pub fn is_canonical(s: &[u8; 32]) -> bool {
    !geq(&bytes_to_limbs(s), &L)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ell_reduces_to_zero() {
        assert_eq!(reduce_bytes(&limbs_to_bytes(&L)), [0u8; 32]);
        let mut ell_plus_5 = L;
        ell_plus_5[0] += 5;
        let mut five = [0u8; 32];
        five[0] = 5;
        assert_eq!(reduce_bytes(&limbs_to_bytes(&ell_plus_5)), five);
    }

    #[test]
    fn small_values_pass_through() {
        let mut x = [0u8; 32];
        x[0] = 42;
        assert_eq!(reduce_bytes(&x), x);
        assert!(is_canonical(&x));
        assert!(!is_canonical(&limbs_to_bytes(&L)));
    }

    #[test]
    fn mul_add_small() {
        let n = |v: u64| {
            let mut b = [0u8; 32];
            b[..8].copy_from_slice(&v.to_le_bytes());
            b
        };
        assert_eq!(mul_add(&n(6), &n(7), &n(8)), n(50));
        assert_eq!(mul_add(&n(0), &n(7), &n(9)), n(9));
    }

    #[test]
    fn mul_add_wraps_mod_ell() {
        // (ℓ - 1)·2 + 3 = 2ℓ + 1 ≡ 1 (mod ℓ).
        let mut ell_minus_1 = L;
        ell_minus_1[0] -= 1;
        let a = limbs_to_bytes(&ell_minus_1);
        let two = {
            let mut b = [0u8; 32];
            b[0] = 2;
            b
        };
        let three = {
            let mut b = [0u8; 32];
            b[0] = 3;
            b
        };
        let mut one = [0u8; 32];
        one[0] = 1;
        assert_eq!(mul_add(&a, &two, &three), one);
    }

    #[test]
    fn reduce_max_512_bits() {
        // Must not panic and must produce something canonical.
        let out = reduce_bytes(&[0xffu8; 64]);
        assert!(is_canonical(&out));
    }
}
