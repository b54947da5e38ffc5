//! Differential test of `vendor/ed25519-dalek` against the bit-serial
//! implementation it replaced (`oracle/`): identical public keys and
//! signature bytes, and the **same verdict** on every valid, corrupted,
//! non-canonical and small-order input. The accept set of `verify` is a
//! consensus and audit fact — a signature one replica accepts and an
//! auditor rejects (or the reverse) forks blame — so this file freezes it.
//!
//! The reference is RFC 8032's **cofactored** equation
//! (`oracle::verify_cofactored`), the rule batch verification needs: with
//! the factor 8, a random linear combination of signatures verifies iff
//! each does. The oracle also keeps the cofactorless rule every ledger
//! before PR 17 was checked with (`oracle::verify`), and every input of
//! every suite here goes through both: *old accepts ⇒ new accepts* is
//! asserted each time (old ledgers still verify), and
//! `the_two_rules_differ_only_by_small_order_residues` lists where the new
//! rule accepts more.
//!
//! Every input whose key parses also goes through `verify_batch`, once in a
//! full chunk of eight square roots and once in a padded partial one,
//! among honest signatures: the slice verdict must be the reference's too.
//!
//! Case counts are bounded: the oracle costs ≈ 0.2 ms per verification.

mod oracle;

use std::sync::OnceLock;

use ed25519_dalek::{Signature, Signer as _, SigningKey, Verifier as _, VerifyingKey};
use oracle::point::EdwardsPoint;
use oracle::{add_le, ELL};
use proptest::prelude::*;

/// The verdict of the implementation under test, in the oracle's shape:
/// `None` when the key does not parse.
fn fast_verify(key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> Option<bool> {
    let vk = VerifyingKey::from_bytes(key).ok()?;
    Some(vk.verify(msg, &Signature::from_bytes(sig)).is_ok())
}

/// Ten honest signatures under three keys: the company an input keeps in
/// [`batch_verdict`]'s slices.
struct Company {
    keys: Vec<VerifyingKey>,
    jobs: Vec<(Vec<u8>, Signature, usize)>,
}

fn company() -> &'static Company {
    static COMPANY: OnceLock<Company> = OnceLock::new();
    COMPANY.get_or_init(|| {
        let signers: Vec<SigningKey> = (0..3).map(|j| SigningKey::from_bytes(&[0xc0 + j; 32])).collect();
        let jobs = (0..10)
            .map(|i| {
                let msg = format!("company {i}").into_bytes();
                let sig = signers[i % 3].sign(&msg);
                (msg, sig, i % 3)
            })
            .collect();
        Company { keys: signers.iter().map(SigningKey::verifying_key).collect(), jobs }
    })
}

/// `verify_batch`'s verdict on a slice of eleven: the honest company with
/// the input at index `at`. Index 5 sits in the first, full chunk of eight
/// square roots; index 9 in the second, a partial chunk of three.
fn batch_verdict(key: &VerifyingKey, msg: &[u8], sig: &[u8; 64], at: usize) -> bool {
    let company = company();
    let mut keys = company.keys.clone();
    keys.push(key.clone());
    let mut jobs: Vec<(&[u8], Signature, usize)> =
        company.jobs.iter().map(|(m, s, j)| (m.as_slice(), *s, *j)).collect();
    jobs.insert(at, (msg, Signature::from_bytes(sig), keys.len() - 1));
    let messages: Vec<&[u8]> = jobs.iter().map(|job| job.0).collect();
    let signatures: Vec<Signature> = jobs.iter().map(|job| job.1).collect();
    let key_of: Vec<usize> = jobs.iter().map(|job| job.2).collect();
    ed25519_dalek::verify_batch(&messages, &signatures, &keys, &key_of).is_ok()
}

/// One input under the retired cofactorless rule and under the
/// reference: `(old, new)`. Panics when the implementation under test
/// disagrees with the reference or when the new rule is not a superset.
/// Where the key parses, [`batch_verdict`] must be the reference's too.
fn both_rules(key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> (Option<bool>, Option<bool>) {
    let old = oracle::verify(key, msg, sig);
    let new = oracle::verify_cofactored(key, msg, sig);
    let got = fast_verify(key, msg, sig);
    assert_eq!(
        got, new,
        "verdicts differ (fast vs oracle)\n key {key:02x?}\n msg {msg:02x?}\n sig {sig:02x?}"
    );
    if let Ok(vk) = VerifyingKey::from_bytes(key) {
        for at in [5, 9] {
            assert_eq!(
                Some(batch_verdict(&vk, msg, sig, at)),
                new,
                "batch verdict differs (index {at} of 11)\n key {key:02x?}\n msg {msg:02x?}\n sig {sig:02x?}"
            );
        }
    }
    assert!(
        old.is_some() == new.is_some() && (old != Some(true) || new == Some(true)),
        "not a superset: old {old:?}, new {new:?}\n key {key:02x?}\n msg {msg:02x?}\n sig {sig:02x?}"
    );
    (old, new)
}

/// The common verdict of the implementation under test and the
/// reference (see [`both_rules`] for what is asserted on the way).
fn same_verdict(key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> Option<bool> {
    both_rules(key, msg, sig).1
}

fn signature(r: &[u8; 32], s: &[u8; 32]) -> [u8; 64] {
    let mut sig = [0u8; 64];
    sig[..32].copy_from_slice(r);
    sig[32..].copy_from_slice(s);
    sig
}

fn scalar(v: u64) -> [u8; 32] {
    let mut s = [0u8; 32];
    s[..8].copy_from_slice(&v.to_le_bytes());
    s
}

/// One honest (key, message, signature) triple, checked byte-for-byte
/// against the oracle on the way.
fn honest(seed: &[u8; 32], msg: &[u8]) -> ([u8; 32], [u8; 64]) {
    let fast = SigningKey::from_bytes(seed);
    let slow = oracle::SigningKey::from_bytes(seed);
    let key = fast.verifying_key().to_bytes();
    assert_eq!(key, slow.public(), "public key bytes differ for seed {seed:02x?}");
    let sig = fast.sign(msg).to_bytes();
    assert_eq!(sig, slow.sign(msg), "signature bytes differ for seed {seed:02x?}");
    (key, sig)
}

/// The eight points of small order, in the encoding `compress` gives
/// them.
fn small_order_encodings() -> Vec<[u8; 32]> {
    oracle::small_order_points().iter().map(EdwardsPoint::compress).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Keys and signatures are byte-identical; honest signatures verify
    /// under both; one random bit flipped in each of R, s, the message
    /// and the key gets the same verdict from both.
    #[test]
    fn honest_and_randomly_corrupted_inputs_agree(
        seed in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..200),
        bit in 0usize..256,
    ) {
        let (key, sig) = honest(&seed, &msg);
        prop_assert_eq!(same_verdict(&key, &msg, &sig), Some(true));

        let mut bad_r = sig;
        bad_r[bit / 8] ^= 1 << (bit % 8);
        prop_assert_eq!(same_verdict(&key, &msg, &bad_r), Some(false));

        let mut bad_s = sig;
        bad_s[32 + bit / 8] ^= 1 << (bit % 8);
        prop_assert_eq!(same_verdict(&key, &msg, &bad_s), Some(false));

        let mut bad_key = key;
        bad_key[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(same_verdict(&bad_key, &msg, &sig), Some(true));

        if !msg.is_empty() {
            let mut bad_msg = msg.clone();
            let at = bit % (msg.len() * 8);
            bad_msg[at / 8] ^= 1 << (at % 8);
            prop_assert_eq!(same_verdict(&key, &bad_msg, &sig), Some(false));
        }
    }
}

/// Every bit position of R, s, the key and a 32-byte message, for one
/// signature.
#[test]
fn every_single_bit_corruption_gets_the_same_verdict() {
    let msg = *b"pre-prepare payload, 32 bytes ..";
    let (key, sig) = honest(&[0x42; 32], &msg);
    for bit in 0..256 {
        let (byte, mask) = (bit / 8, 1u8 << (bit % 8));
        let mut bad_r = sig;
        bad_r[byte] ^= mask;
        assert_eq!(same_verdict(&key, &msg, &bad_r), Some(false), "R bit {bit}");
        let mut bad_s = sig;
        bad_s[32 + byte] ^= mask;
        assert_eq!(same_verdict(&key, &msg, &bad_s), Some(false), "s bit {bit}");
        let mut bad_key = key;
        bad_key[byte] ^= mask;
        assert_ne!(same_verdict(&bad_key, &msg, &sig), Some(true), "key bit {bit}");
        let mut bad_msg = msg;
        bad_msg[byte] ^= mask;
        assert_eq!(same_verdict(&key, &bad_msg, &sig), Some(false), "message bit {bit}");
    }
}

/// `s ≥ ℓ` is refused by both — including `s + ℓ` of a valid signature,
/// which satisfies the group equation.
#[test]
fn non_canonical_s_is_rejected_by_both() {
    let msg = b"malleability";
    let (key, sig) = honest(&[7; 32], msg);
    let (r, s): ([u8; 32], [u8; 32]) =
        (sig[..32].try_into().unwrap(), sig[32..].try_into().unwrap());

    let s_plus_ell = add_le(&s, &ELL);
    assert_eq!(same_verdict(&key, msg, &signature(&r, &s_plus_ell)), Some(false));
    let mut ell_minus_1 = ELL;
    ell_minus_1[0] -= 1;
    for s in [ELL, add_le(&ELL, &scalar(1)), add_le(&ELL, &ELL), [0xff; 32]] {
        assert_eq!(same_verdict(&key, msg, &signature(&r, &s)), Some(false), "{s:02x?}");
    }
    // ℓ − 1 is canonical: the verdict is the equation's (false here), and
    // it must be the same one.
    assert_eq!(same_verdict(&key, msg, &signature(&r, &ell_minus_1)), Some(false));
}

/// Encodings with `y ≥ p` (`y = p + c`, `c < 19`) decode to the point
/// with `y = c` under today's rules; `x = 0` with the sign bit set does
/// not decode. As keys and as `R`, both sign bits.
#[test]
fn non_canonical_point_encodings_get_the_same_verdict() {
    let msg = b"non-canonical";
    let (key, sig) = honest(&[9; 32], msg);
    let (r, s): ([u8; 32], [u8; 32]) =
        (sig[..32].try_into().unwrap(), sig[32..].try_into().unwrap());

    let mut decodable = 0;
    for c in 0u8..19 {
        for sign in [0u8, 0x80] {
            // p + c = 2^255 − 19 + c.
            let mut enc = [0xffu8; 32];
            enc[0] = 0xed + c;
            enc[31] = 0x7f | sign;
            // As the key, under an honest signature and under s = 0, 1.
            let as_key = same_verdict(&enc, msg, &sig);
            decodable += as_key.is_some() as u32;
            same_verdict(&enc, msg, &signature(&r, &scalar(0)));
            same_verdict(&enc, msg, &signature(&enc, &scalar(0)));
            same_verdict(&enc, msg, &signature(&enc, &scalar(1)));
            // As R, under the honest key.
            assert_eq!(same_verdict(&key, msg, &signature(&enc, &s)), Some(false));
            same_verdict(&key, msg, &signature(&enc, &scalar(0)));
        }
    }
    assert!(decodable > 0, "some y = p + c must decode, or the class is not exercised");

    // y = p + 1 is a second encoding of the identity: with R the identity
    // and s = 0 the equation 0·B = R + k·A holds for every message.
    let mut identity_alias = [0xffu8; 32];
    identity_alias[0] = 0xee;
    identity_alias[31] = 0x7f;
    let mut identity = [0u8; 32];
    identity[0] = 1;
    for m in [&b"any"[..], &b"message"[..], &[][..]] {
        let sig = signature(&identity, &scalar(0));
        assert_eq!(same_verdict(&identity_alias, m, &sig), Some(true));
        let sig = signature(&identity_alias, &scalar(0));
        assert_eq!(same_verdict(&identity_alias, m, &sig), Some(true));
    }

    // x = 0 with the sign bit set: y = 1 and y = −1, canonical and not.
    let mut minus_one = [0xffu8; 32];
    minus_one[0] = 0xec;
    minus_one[31] = 0x7f;
    for mut enc in [identity, minus_one, identity_alias] {
        enc[31] |= 0x80;
        assert_eq!(same_verdict(&enc, msg, &sig), None, "{enc:02x?} must not parse as a key");
        assert_eq!(same_verdict(&key, msg, &signature(&enc, &s)), Some(false));
        assert_eq!(same_verdict(&key, msg, &signature(&enc, &scalar(0))), Some(false));
    }
}

/// Small-order `A` and `R` are **not** rejected: the verdict is whatever
/// the equation says, and it must be the same one. Includes the
/// degenerate triple `A` = identity, `R` = identity, `s = 0`, which
/// verifies for every message (whether governance should refuse such
/// keys is ROADMAP item 9's question, not this crate's).
#[test]
fn small_order_points_get_the_same_verdict() {
    let torsion = small_order_encodings();
    let mut identity = [0u8; 32];
    identity[0] = 1;
    let mut minus_one = [0xffu8; 32];
    minus_one[0] = 0xec;
    minus_one[31] = 0x7f;
    assert!(torsion.contains(&identity) && torsion.contains(&minus_one));
    assert!(torsion.contains(&[0u8; 32]), "y = 0 (order 4) is among them");

    let (honest_key, honest_sig) = honest(&[3; 32], b"m0");
    let honest_s: [u8; 32] = honest_sig[32..].try_into().unwrap();
    let messages: [&[u8]; 3] = [b"m0", b"a different message", b""];
    let mut accepted = 0u32;
    for a in &torsion {
        for r in &torsion {
            for s in [scalar(0), scalar(1), honest_s] {
                for m in messages {
                    accepted += (same_verdict(a, m, &signature(r, &s)) == Some(true)) as u32;
                }
            }
        }
        // Small-order R under an honest key, small-order A under an
        // honest signature.
        for m in messages {
            same_verdict(&honest_key, m, &signature(a, &honest_s));
            same_verdict(a, m, &honest_sig);
        }
    }
    assert!(accepted > 0, "the equation accepts some small-order triples");
    for m in messages {
        let sig = signature(&identity, &scalar(0));
        assert_eq!(same_verdict(&identity, m, &sig), Some(true), "degenerate triple");
    }

    // An honest signature shifted by torsion: R' = R + T, same s. The
    // hash changes with R', so this is just one more arbitrary input.
    let r = EdwardsPoint::decompress(honest_sig[..32].try_into().unwrap()).unwrap();
    for t in &torsion {
        let shifted = r.add(&EdwardsPoint::decompress(t).unwrap()).compress();
        let verdict = same_verdict(&honest_key, b"m0", &signature(&shifted, &honest_s));
        assert_eq!(verdict, Some(*t == identity), "torsion shift {t:02x?}");
    }
}

/// Where the cofactored rule accepts and the cofactorless one did not:
/// exactly when `s·B − k·A − R` is a non-zero point of small order. Three
/// ways to get there, each pinned with both verdicts.
#[test]
fn the_two_rules_differ_only_by_small_order_residues() {
    let torsion = small_order_encodings();
    let mut identity = [0u8; 32];
    identity[0] = 1;

    // (1) Mixed-order R under an honest key: R' = R + T with s made for
    // R'. The residue is −T. Only the key holder can produce these.
    for (seed, msg) in [([3u8; 32], &b"m0"[..]), ([0x42; 32], &b"a client request"[..])] {
        let signer = oracle::SigningKey::from_bytes(&seed);
        for t in &torsion {
            let sig = signer.sign_with_torsion(msg, &EdwardsPoint::decompress(t).unwrap());
            let verdicts = both_rules(&signer.public(), msg, &sig);
            assert_eq!(verdicts, (Some(*t == identity), Some(true)), "torsion {t:02x?}");
            // Made for one message only.
            assert_eq!(both_rules(&signer.public(), b"another", &sig), (Some(false), Some(false)));
        }
    }

    // (2) Small-order A with small-order R and s = 0: the residue is
    // −k·A − R, always of small order, zero for some (A, R, message) only.
    // With s = 1 the residue has B in it and nothing accepts.
    let messages: [&[u8]; 3] = [b"m0", b"a different message", b""];
    let (mut old_accepts, mut total) = (0u32, 0u32);
    for a in &torsion {
        for r in &torsion {
            for m in messages {
                let (old, new) = both_rules(a, m, &signature(r, &scalar(0)));
                assert_eq!(new, Some(true), "A {a:02x?} R {r:02x?}");
                old_accepts += (old == Some(true)) as u32;
                total += 1;
                assert_eq!(both_rules(a, m, &signature(r, &scalar(1))), (Some(false), Some(false)));
            }
        }
    }
    // A residue of small order is zero about one time in eight (k hashes
    // R too, so not exactly); the count is pinned.
    assert_eq!((old_accepts, total), (26, 192));

    // (3) The all-zero triple: A = R = the order-4 point with y = 0,
    // s = 0. The old verdict depended on k mod 4, i.e. on the message.
    let zero_sig = [0u8; 64];
    let pinned_old: [(&[u8], bool); 8] = [
        (b"m", false),
        (b"", false),
        (b"m7", false),
        (b"m8", true),
        (b"m11", false),
        (b"m12", true),
        (b"m26", false),
        (b"m27", true),
    ];
    for (m, old) in pinned_old {
        assert_eq!(both_rules(&[0u8; 32], m, &zero_sig), (Some(old), Some(true)), "over {m:02x?}");
    }
}

/// Mixed-order keys: `A' = A + T` for each of the eight small-order `T`,
/// signed with `A`'s scalar (residue `−k·T`). The verification table of a
/// key holds `A'` shifted by `2^(64j)`; each row must carry what is left of
/// `T` for the verdict to be the reference's — which accepts all eight,
/// while the cofactorless rule accepted only those with `k·T` zero.
#[test]
fn mixed_order_keys_get_the_same_verdict() {
    let mut identity = [0u8; 32];
    identity[0] = 1;
    for (seed, msg) in [([5u8; 32], &b"m0"[..]), ([0x42; 32], &b"a client request"[..])] {
        let signer = oracle::SigningKey::from_bytes(&seed);
        let mut old_accepts = 0;
        for t in small_order_encodings() {
            let torsion = EdwardsPoint::decompress(&t).unwrap();
            let (key, sig) = signer.sign_for_shifted_key(msg, &torsion);
            let (old, new) = both_rules(&key, msg, &sig);
            assert_eq!(new, Some(true), "torsion {t:02x?}");
            old_accepts += (old == Some(true)) as u32;
            if t == identity {
                assert_eq!((key, old), (signer.public(), Some(true)));
            }
            // Made for one message only.
            assert_eq!(both_rules(&key, b"another", &sig), (Some(false), Some(false)));
        }
        // `k·T` is zero for the identity and about one `T` in eight
        // otherwise (`k` hashes `A'` too); the count is pinned.
        assert_eq!(old_accepts, 2, "seed {seed:02x?}");
    }
}

/// `s·B − k·A` by the oracle's arithmetic, compressed, for a key of prime
/// order or the identity (where `(ℓ − k)·A` is `−k·A`).
fn oracle_s_b_minus_k_a(key: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> [u8; 32] {
    use sha2::{Digest as _, Sha512};
    let mut h = Sha512::new();
    h.update(&sig[..32]);
    h.update(key);
    h.update(msg);
    let k = oracle::scalar::reduce_bytes(&h.finalize());
    // ℓ − k, k < ℓ.
    let mut minus_k = [0u8; 32];
    let mut borrow = 0i16;
    for i in 0..32 {
        let d = ELL[i] as i16 - k[i] as i16 - borrow;
        minus_k[i] = d.rem_euclid(256) as u8;
        borrow = (d < 0) as i16;
    }
    let s: [u8; 32] = sig[32..].try_into().unwrap();
    let a = EdwardsPoint::decompress(key).expect("the key decodes");
    EdwardsPoint::basepoint().mul_scalar(&s).add(&a.mul_scalar(&minus_k)).compress()
}

/// `verify` accepts at once when `s·B − k·A` compresses to `R`'s bytes,
/// and otherwise decides by the cofactored equation. Every row gets the
/// reference verdict, whichever way it is decided: honest signatures
/// (whose `s·B − k·A` is `R`, byte for byte), `R + T` for each of the
/// eight small-order `T` (shifted after signing, and signed for), a
/// non-canonical `s`, undecodable `R`s; and under the identity key, where
/// `s·B − k·A = s·B` whatever `k`, `R` equal to that point's encoding, to
/// it with the sign bit flipped (rejected: the bytes agree in `y` only),
/// and to a non-canonical encoding of it (accepted by the equation).
#[test]
fn verify_fast_path_rows_get_the_reference_verdict() {
    let mut identity = [0u8; 32];
    identity[0] = 1;
    let signed: [([u8; 32], &[u8]); 3] = [([3; 32], b"m0"), ([0x42; 32], b"a client request"), ([0x77; 32], b"")];
    for (seed, msg) in signed {
        let (key, sig) = honest(&seed, msg);
        let (r, s): ([u8; 32], [u8; 32]) =
            (sig[..32].try_into().unwrap(), sig[32..].try_into().unwrap());
        assert_eq!(oracle_s_b_minus_k_a(&key, msg, &sig), r, "s·B − k·A is R, honestly signed");
        assert_eq!(same_verdict(&key, msg, &sig), Some(true));

        let signer = oracle::SigningKey::from_bytes(&seed);
        let big_r = EdwardsPoint::decompress(&r).unwrap();
        for t in small_order_encodings() {
            let torsion = EdwardsPoint::decompress(&t).unwrap();
            let shifted = big_r.add(&torsion).compress();
            let verdict = same_verdict(&key, msg, &signature(&shifted, &s));
            assert_eq!(verdict, Some(t == identity), "R + T {t:02x?}");
            let crafted = signer.sign_with_torsion(msg, &torsion);
            assert_eq!(
                oracle_s_b_minus_k_a(&key, msg, &crafted) == crafted[..32],
                t == identity,
                "a signature made for R + T leaves −T: only the equation accepts it"
            );
            assert_eq!(same_verdict(&key, msg, &crafted), Some(true), "signed for R + T {t:02x?}");
        }

        assert_eq!(same_verdict(&key, msg, &signature(&r, &add_le(&s, &ELL))), Some(false), "s + ℓ");
        let mut undecodable = identity;
        undecodable[31] |= 0x80;
        let no_x = (2u64..).map(scalar).find(|enc| EdwardsPoint::decompress(enc).is_none()).unwrap();
        for bad_r in [undecodable, no_x] {
            assert_eq!(same_verdict(&key, msg, &signature(&bad_r, &s)), Some(false), "R {bad_r:02x?}");
        }
        let mut flipped = r;
        flipped[31] ^= 0x80;
        assert_eq!(same_verdict(&key, msg, &signature(&flipped, &s)), Some(false), "−R");
    }

    // Under the identity key, R = s·B verifies for every message.
    let mut identity_alias = [0xffu8; 32];
    identity_alias[0] = 0xee;
    identity_alias[31] = 0x7f;
    let unsigned: [([u8; 32], &[u8]); 3] = [(scalar(1), b"m0"), (scalar(0xdead_beef), b"any"), (scalar(0), b"")];
    for (s, msg) in unsigned {
        let p = oracle_s_b_minus_k_a(&identity, msg, &signature(&identity, &s));
        assert_eq!(same_verdict(&identity, msg, &signature(&p, &s)), Some(true), "R = s·B, s {s:02x?}");
        let mut flipped = p;
        flipped[31] ^= 0x80;
        let verdict = same_verdict(&identity, msg, &signature(&flipped, &s));
        assert_eq!(verdict, Some(false), "R = −s·B, s {s:02x?}");
    }
    // s = 0: s·B is the identity, which y = p + 1 also encodes.
    assert_eq!(same_verdict(&identity, b"m0", &signature(&identity_alias, &scalar(0))), Some(true));
}

#[test]
fn all_zero_inputs_get_the_same_verdict() {
    let (key, _) = honest(&[1; 32], b"m");
    assert_eq!(same_verdict(&key, b"m", &[0u8; 64]), Some(false));
    // The all-zero key is the order-4 point (√−1, 0); it parses.
    assert!(same_verdict(&[0u8; 32], b"m", &[0u8; 64]).is_some());
    same_verdict(&[0u8; 32], b"", &[0u8; 64]);
}

/// RFC 8032 §7.1 TEST 1–3 through both implementations.
#[test]
fn rfc8032_vectors_agree() {
    let unhex = |s: &str| -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    };
    let vectors = [
        (
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            "",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        ),
        (
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            "72",
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        ),
        (
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        ),
    ];
    for (seed, pk, msg, sig) in vectors {
        let seed: [u8; 32] = unhex(seed).try_into().unwrap();
        let msg = unhex(msg);
        let (key, got) = honest(&seed, &msg);
        assert_eq!(key.to_vec(), unhex(pk));
        assert_eq!(got.to_vec(), unhex(sig));
        assert_eq!(same_verdict(&key, &msg, &got), Some(true));
    }
}
