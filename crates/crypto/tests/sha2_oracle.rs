//! Differential test of the hash layer — `vendor/sha2` behind
//! `ia_ccf_crypto::{hash_bytes, Hasher, hash_pair}` and the `Sha512` the
//! signature code hashes challenges with — against the textbook
//! implementation it had before it grew a hardware kernel and one-write
//! padding (`oracle/sha2.rs`). A request's name, a `Ḡ` leaf, a ledger
//! root and a checkpoint digest are all outputs of this function; two
//! replicas (or a replica and an auditor) on different CPUs must compute
//! the same bytes, so this file freezes them the way `ed25519_oracle.rs`
//! freezes the signature accept set. It runs whichever kernel the CPU
//! selects; `vendor/sha2`'s own unit tests hold the two kernels to each
//! other.

#[path = "oracle/sha2.rs"]
mod reference;

use ia_ccf_crypto::{hash_bytes, hash_pair, Digest, Hasher};
use sha2::{Digest as _, Sha512};

/// SplitMix64: the seeded input generator (no state shared with the
/// code under test, identical on every platform).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// `data` through `Hasher` and through a streaming `Sha512`, cut at
/// random places: runs of empty and 1-byte pieces, then pieces of up to
/// `max_piece` bytes.
fn streamed(data: &[u8], rng: &mut SplitMix, max_piece: usize) -> (Digest, [u8; 64]) {
    let mut h256 = Hasher::new();
    let mut h512 = Sha512::new();
    let mut rest = data;
    loop {
        let take = match rng.below(4) {
            0 => 0,
            1 => 1,
            _ => rng.below(max_piece + 1),
        }
        .min(rest.len());
        let (piece, tail) = rest.split_at(take);
        h256.update(piece);
        h512.update(piece);
        rest = tail;
        if rest.is_empty() {
            break;
        }
    }
    #[allow(clippy::useless_conversion)]
    (h256.finalize(), h512.finalize().into())
}

/// Every way the tree hashes `data` against the reference.
fn check(data: &[u8], rng: &mut SplitMix) {
    let want256 = reference::sha256(data);
    let want512 = reference::sha512(data);
    let len = data.len();
    assert_eq!(hash_bytes(data).0, want256, "hash_bytes, len {len}");
    #[allow(clippy::useless_conversion)]
    let got512: [u8; 64] = Sha512::digest(data).into();
    assert_eq!(got512, want512, "Sha512::digest, len {len}");
    for max_piece in [3, 70, 300] {
        let (got256, got512) = streamed(data, rng, max_piece);
        assert_eq!(got256.0, want256, "Hasher, len {len}, pieces ≤ {max_piece}");
        assert_eq!(got512, want512, "Sha512 streaming, len {len}, pieces ≤ {max_piece}");
    }
}

#[test]
fn every_length_up_to_300() {
    let mut rng = SplitMix(1);
    for len in 0..=300 {
        check(&rng.bytes(len), &mut rng);
        check(&vec![0u8; len], &mut rng);
        check(&vec![0xffu8; len], &mut rng);
    }
}

#[test]
fn padding_boundaries() {
    let mut rng = SplitMix(2);
    // Where the length field stops fitting into the last block, and one
    // byte either side of every block boundary up to eight blocks, for
    // both block sizes.
    let mut lens = vec![55, 56, 63, 64, 65, 111, 112, 119, 120, 127, 128, 129];
    for block in [64usize, 128] {
        for k in 1..=8 {
            lens.extend([k * block - 1, k * block, k * block + 1]);
            lens.extend([k * block - 9, k * block - 8, k * block - 17, k * block - 16]);
        }
    }
    for len in lens {
        check(&rng.bytes(len), &mut rng);
    }
}

#[test]
fn seeded_random_inputs_up_to_64_kib() {
    let mut rng = SplitMix(3);
    for _ in 0..48 {
        let len = rng.below(64 * 1024 + 1);
        check(&rng.bytes(len), &mut rng);
    }
    check(&rng.bytes(64 * 1024), &mut rng);
}

#[test]
fn hash_pair_is_the_hash_of_the_concatenation() {
    let mut rng = SplitMix(4);
    let mut pairs = vec![(Digest::zero(), Digest::zero()), (Digest([0xff; 32]), Digest::zero())];
    for _ in 0..200 {
        let left = Digest(rng.bytes(32).try_into().expect("32 bytes"));
        let right = Digest(rng.bytes(32).try_into().expect("32 bytes"));
        pairs.push((left, right));
    }
    for (left, right) in pairs {
        let want = reference::sha256(&[left.0, right.0].concat());
        assert_eq!(hash_pair(&left, &right).0, want);
    }
}

#[test]
fn reference_reproduces_the_fips_vectors() {
    // The oracle itself against FIPS 180-4's examples, so a mistake in
    // the kept copy cannot silently move the definition.
    assert_eq!(
        hex::encode(reference::sha256(b"abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    assert_eq!(
        hex::encode(reference::sha256(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        )),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
    assert_eq!(
        hex::encode(reference::sha512(b"abc")),
        "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a\
         2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
    );
}
