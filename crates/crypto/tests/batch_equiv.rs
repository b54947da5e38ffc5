//! Batch ≡ singles: `verify_batch_indices` must report exactly the jobs
//! `PublicKey::verify` rejects one by one — for every slice length around
//! the combined-equation crossover, with few keys and with all-distinct
//! keys, with every kind of bad job mixed in, and however a worker pool
//! cuts the slice. Replicas check a pre-prepare's client signatures by the
//! slice; clients and auditors check one at a time; a slice verdict that
//! could differ from the singles' would fork blame.
//!
//! The sharp case is **torsion-crafted** signatures: `R' = R + T` with `T`
//! of small order and `s` made for `R'` (only the key holder can make
//! one; `oracle::SigningKey::sign_with_torsion`). Each leaves the residue
//! `−T` in the group equation. Under a cofactorless rule a single check
//! rejects it, while in a random linear combination the residues of a
//! pair can cancel — batch accepts, single rejects. Under the cofactored
//! rule both multiply the residue by 8 and both accept, whatever the
//! coefficients; this file holds the product to that, at the level of the
//! vendored `verify_batch` equation and of the index-reporting kernel on
//! top of it.

mod oracle;

use ia_ccf_crypto::batch::VERIFY_BATCH_MIN;
use ia_ccf_crypto::{
    start_verify, verify_batch_indices, PublicKey, Signature, VerifyJob, VERIFY_MIN_CHUNK,
};
use ia_ccf_pool::WorkerPool;
use oracle::point::EdwardsPoint;
use oracle::{add_le, ELL};
use proptest::prelude::*;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// What a generated job is, and therefore what every verifier must say.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Honest,
    /// `R' = R + T`, `s` made for `R'`: valid under the cofactored rule.
    Torsion,
    /// Small-order key, small-order `R`, `s = 0`: valid for any message.
    SmallOrderKey,
    BitFlippedSig,
    WrongMessage,
    /// `s + ℓ`: satisfies the group equation, refused as non-canonical.
    NonCanonicalS,
    /// `R` = `x = 0` with the sign bit set.
    UndecodableR,
    /// The key is that encoding.
    UnparsableKey,
    /// Honest signature, checked under a small-order key.
    HonestSigSmallOrderKey,
}

const VALID_KINDS: [Kind; 3] = [Kind::Honest, Kind::Torsion, Kind::SmallOrderKey];
const BAD_KINDS: [Kind; 6] = [
    Kind::BitFlippedSig,
    Kind::WrongMessage,
    Kind::NonCanonicalS,
    Kind::UndecodableR,
    Kind::UnparsableKey,
    Kind::HonestSigSmallOrderKey,
];

impl Kind {
    fn valid(self) -> bool {
        VALID_KINDS.contains(&self)
    }
}

struct Generator {
    torsion: Vec<EdwardsPoint>,
    signers: Vec<oracle::SigningKey>,
}

impl Generator {
    /// `keys` honest signers, seeds derived from `salt`.
    fn new(keys: usize, salt: u64) -> Generator {
        let mut state = salt;
        let signers = (0..keys)
            .map(|_| {
                let mut seed = [0u8; 32];
                for chunk in seed.chunks_mut(8) {
                    chunk.copy_from_slice(&splitmix(&mut state).to_le_bytes());
                }
                oracle::SigningKey::from_bytes(&seed)
            })
            .collect();
        Generator { torsion: oracle::small_order_points(), signers }
    }

    /// Job `i` of kind `kind`; `pick` selects torsion points and bits.
    fn job(&self, i: usize, kind: Kind, pick: u64) -> VerifyJob {
        let signer = &self.signers[i % self.signers.len()];
        let msg = format!("request {i} / {pick:016x}").into_bytes();
        let torsion = &self.torsion[pick as usize % 8];
        let mut undecodable = [0u8; 32];
        undecodable[0] = 1;
        undecodable[31] = 0x80;
        let (mut key, mut sig, mut msg) = (signer.public(), signer.sign(&msg), msg);
        match kind {
            Kind::Honest => {}
            Kind::Torsion => sig = signer.sign_with_torsion(&msg, torsion),
            Kind::SmallOrderKey => {
                key = torsion.compress();
                sig = [0u8; 64];
                sig[..32].copy_from_slice(&self.torsion[(pick >> 8) as usize % 8].compress());
            }
            Kind::BitFlippedSig => sig[(pick >> 8) as usize % 64] ^= 1 << (pick % 8),
            Kind::WrongMessage => msg.push(b'!'),
            Kind::NonCanonicalS => {
                let s: [u8; 32] = sig[32..].try_into().expect("32 bytes");
                sig[32..].copy_from_slice(&add_le(&s, &ELL));
            }
            Kind::UndecodableR => sig[..32].copy_from_slice(&undecodable),
            Kind::UnparsableKey => key = undecodable,
            Kind::HonestSigSmallOrderKey => key = torsion.compress(),
        }
        VerifyJob { key: PublicKey(key), msg, sig: Signature(sig) }
    }

    /// A torsion-crafted pair whose residues sum to zero: `T` and `−T`.
    fn cancelling_pair(&self, i: usize, pick: u64) -> [VerifyJob; 2] {
        let t = pick as usize % 8;
        let minus_t = (0..8)
            .find(|&u| self.torsion[t].add(&self.torsion[u]).eq_point(&EdwardsPoint::identity()))
            .expect("the small-order points form a group");
        let signer = &self.signers[i % self.signers.len()];
        [t, minus_t].map(|t| {
            let msg = format!("pair {i} / {pick:016x} / {t}").into_bytes();
            let sig = signer.sign_with_torsion(&msg, &self.torsion[t]);
            VerifyJob { key: PublicKey(signer.public()), msg, sig: Signature(sig) }
        })
    }
}

/// The vendored combined equation on the whole slice, one key slot per job
/// (`None` when a key does not parse — the product falls back to singles).
fn combined_equation(jobs: &[VerifyJob]) -> Option<bool> {
    let keys: Vec<ed25519_dalek::VerifyingKey> = jobs
        .iter()
        .map(|j| ed25519_dalek::VerifyingKey::from_bytes(&j.key.0).ok())
        .collect::<Option<_>>()?;
    let messages: Vec<&[u8]> = jobs.iter().map(|j| j.msg.as_slice()).collect();
    let signatures: Vec<ed25519_dalek::Signature> =
        jobs.iter().map(|j| ed25519_dalek::Signature::from_bytes(&j.sig.0)).collect();
    let key_of: Vec<usize> = (0..jobs.len()).collect();
    Some(ed25519_dalek::verify_batch(&messages, &signatures, &keys, &key_of).is_ok())
}

/// Every assertion of this file, on one slice whose kinds are known.
fn check_slice(jobs: &[VerifyJob], kinds: &[Kind], pools: &[WorkerPool]) {
    let singles: Vec<usize> = jobs
        .iter()
        .enumerate()
        .filter_map(|(i, j)| (!j.key.verify(&j.msg, &j.sig)).then_some(i))
        .collect();
    let expected: Vec<usize> =
        kinds.iter().enumerate().filter_map(|(i, k)| (!k.valid()).then_some(i)).collect();
    assert_eq!(singles, expected, "single verdicts are not what the kinds say: {kinds:?}");
    // The reference agrees with the singles on the crafted kinds too.
    for (job, kind) in jobs.iter().zip(kinds) {
        let reference = oracle::verify_cofactored(&job.key.0, &job.msg, &job.sig.0);
        assert_eq!(reference.unwrap_or(false), kind.valid(), "oracle on {kind:?}");
    }

    assert_eq!(verify_batch_indices(jobs), singles, "slice kernel, kinds {kinds:?}");
    if let Some(holds) = combined_equation(jobs) {
        assert_eq!(holds, singles.is_empty(), "combined equation, kinds {kinds:?}");
    }
    for pool in pools {
        let copy = jobs.iter().map(|j| VerifyJob { msg: j.msg.clone(), ..*j }).collect();
        let pooled = start_verify(pool, copy).join();
        assert_eq!(pooled, singles, "{} threads, kinds {kinds:?}", pool.threads());
    }
}

fn pools() -> Vec<WorkerPool> {
    [1, 2, 8].map(WorkerPool::new).into()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Sizes 0..=64 straddle `VERIFY_BATCH_MIN`; `clean` slices hold only
    /// valid jobs (honest, torsion-crafted, small-order) so the combined
    /// equation has to *accept* them, the others mix every bad kind in.
    #[test]
    fn slice_verdicts_equal_single_verdicts(
        n in 0usize..=64,
        coalesced in any::<bool>(),
        clean in any::<bool>(),
        salt in any::<u64>(),
    ) {
        let generator = Generator::new(if coalesced { 4 } else { n.max(1) }, salt);
        let mut state = salt ^ 0x5eed;
        let mut jobs = Vec::new();
        let mut kinds = Vec::new();
        while jobs.len() < n {
            let pick = splitmix(&mut state);
            let roll = splitmix(&mut state) % 16;
            if roll == 0 && jobs.len() + 2 <= n {
                jobs.extend(generator.cancelling_pair(jobs.len(), pick));
                kinds.extend([Kind::Torsion; 2]);
                continue;
            }
            let kind = match roll {
                1..=3 => VALID_KINDS[roll as usize % 3],
                4..=6 if !clean => BAD_KINDS[pick as usize % BAD_KINDS.len()],
                _ => Kind::Honest,
            };
            jobs.push(generator.job(jobs.len(), kind, pick));
            kinds.push(kind);
        }
        check_slice(&jobs, &kinds, &pools());
    }
}

/// Every length from empty to past the crossover, all honest and with the
/// last job forged: the boundary between singles and the combined check.
#[test]
fn crossover_lengths_locate_a_forgery() {
    let generator = Generator::new(4, 7);
    for n in 0..=2 * VERIFY_BATCH_MIN {
        let kinds = vec![Kind::Honest; n];
        let jobs: Vec<VerifyJob> = (0..n).map(|i| generator.job(i, Kind::Honest, i as u64)).collect();
        check_slice(&jobs, &kinds, &[]);
        if n > 0 {
            let mut kinds = kinds;
            kinds[n - 1] = Kind::BitFlippedSig;
            let mut jobs = jobs;
            jobs[n - 1] = generator.job(n - 1, Kind::BitFlippedSig, 99);
            check_slice(&jobs, &kinds, &[]);
        }
    }
}

/// Every edge between the kernels the combined equation's two sums take:
/// both sides of the bucket lanes' minimum (10 points; below
/// `VERIFY_BATCH_MIN` only the direct call of the vendored equation
/// reaches it), of `VERIFY_BATCH_MIN` itself (singles below, the combined
/// equation from it), of the lanes' window width's steps for 128-bit
/// scalars (48/49, 64/65), `sat_hot_durable`'s 100-request slices, both
/// sides of the scalar `BUCKET_METHOD_MIN` (128) and the auditor's
/// 256-signature chunks. Each length runs clean
/// (crafted-but-valid jobs and cancelling torsion pairs inside), then
/// with one forgery first and one last, under four keys and under all
/// distinct keys, whose full-width sum is then as long as the slice.
#[test]
fn kernel_edges_agree_with_singles() {
    let pools = pools();
    let crossover = [VERIFY_BATCH_MIN - 1, VERIFY_BATCH_MIN, VERIFY_BATCH_MIN + 1];
    let lengths = [9usize, 10, 11].into_iter().chain(crossover);
    for n in lengths.chain([48, 49, 64, 65, 100, 127, 128, 129, 256]) {
        for keys in [4, n] {
            let generator = Generator::new(keys, (1000 * n + keys) as u64);
            let mut state = n as u64 ^ 0xed9e;
            let mut kinds = vec![Kind::Honest; n];
            for i in (3..n).step_by(11) {
                kinds[i] = VALID_KINDS[i % 3];
            }
            let mut jobs: Vec<VerifyJob> = kinds
                .iter()
                .enumerate()
                .map(|(i, &kind)| generator.job(i, kind, splitmix(&mut state)))
                .collect();
            // Pairs stay clear of the first and the last job.
            for at in (1..n - 2).step_by(37) {
                let [a, b] = generator.cancelling_pair(at, splitmix(&mut state));
                (jobs[at], jobs[at + 1]) = (a, b);
                (kinds[at], kinds[at + 1]) = (Kind::Torsion, Kind::Torsion);
            }
            check_slice(&jobs, &kinds, &pools);

            for at in [0, n - 1] {
                let forged = generator.job(at, Kind::BitFlippedSig, splitmix(&mut state));
                let (saved_job, saved_kind) = (std::mem::replace(&mut jobs[at], forged), kinds[at]);
                kinds[at] = Kind::BitFlippedSig;
                check_slice(&jobs, &kinds, &pools);
                (jobs[at], kinds[at]) = (saved_job, saved_kind);
            }
        }
    }
}

/// The benchmark's batch size — the bucket-method kernel, and more than
/// one `VERIFY_MIN_CHUNK` per worker — with few keys and with 300.
#[test]
fn slices_of_300_agree_with_singles() {
    const { assert!(300 > 8 * VERIFY_MIN_CHUNK, "eight workers must each get a chunk") };
    let pools = pools();
    for keys in [4usize, 300] {
        let generator = Generator::new(keys, keys as u64);
        let mut state = 300 + keys as u64;
        let mut kinds = vec![Kind::Honest; 300];
        // Clean, with crafted-but-valid jobs and cancelling pairs inside.
        for i in (0..300).step_by(17) {
            kinds[i] = VALID_KINDS[i % 3];
        }
        let mut jobs: Vec<VerifyJob> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| generator.job(i, kind, splitmix(&mut state)))
            .collect();
        for at in [40usize, 41 + VERIFY_MIN_CHUNK, 250] {
            let [a, b] = generator.cancelling_pair(at, splitmix(&mut state));
            (jobs[at], jobs[at + 1]) = (a, b);
            (kinds[at], kinds[at + 1]) = (Kind::Torsion, Kind::Torsion);
        }
        check_slice(&jobs, &kinds, &pools);

        // One forgery: located exactly, in the first, a middle and the last
        // chunk of every pool size.
        for at in [0usize, 151, 299] {
            let (saved_job, saved_kind) =
                (std::mem::replace(&mut jobs[at], generator.job(at, Kind::BitFlippedSig, 5)), kinds[at]);
            kinds[at] = Kind::BitFlippedSig;
            check_slice(&jobs, &kinds, &pools);
            (jobs[at], kinds[at]) = (saved_job, saved_kind);
        }

        // Every bad kind at once.
        for (slot, &kind) in BAD_KINDS.iter().enumerate() {
            let at = 13 + 47 * slot;
            jobs[at] = generator.job(at, kind, splitmix(&mut state));
            kinds[at] = kind;
        }
        check_slice(&jobs, &kinds, &pools);
    }
}
