//! Batch signature verification.
//!
//! §3.4: "Signature verification is parallelized for messages received from
//! replicas and clients to improve throughput and scalability." §6.5 notes
//! the audit bottleneck is client-request signature verification — this
//! module is where a replica checks the client signatures of one
//! pre-prepare, and what an auditor replaying requests would call.
//!
//! [`verify_batch_indices`] is the kernel. A slice of at least
//! [`VERIFY_BATCH_MIN`] jobs is checked by **one** random-linear-combination
//! equation (`ed25519_dalek::verify_batch`: one multi-scalar
//! multiplication, 128-bit coefficients hashed from the whole slice, the
//! coefficients of equal keys coalesced so a client with many requests in
//! the batch costs one full-width scalar). When it holds, every job is
//! valid. When it does not — or the slice is shorter, or a key does not
//! parse — every job is checked by [`PublicKey::verify`] on its own, so
//! the failed indices are exactly the singles' verdicts (§6.5: blame is
//! per signature). A slice with one forged signature therefore costs the
//! failed combined check plus the singles, ≈ 1.2× the singles alone in a
//! slice of 300 with four keys (the combined check is ≈ 4–5 µs per
//! signature there, a single ≈ 20 µs).
//!
//! **One accept set.** The combined equation and the single check are both
//! RFC 8032's cofactored equation (see `vendor/ed25519-dalek`), which is
//! what makes them agree: a slice passes combined iff each member passes
//! singly, up to a ≈ 2⁻¹²⁸ chance that a forgery slips through the random
//! combination. How a slice is cut — whole on one thread, or per worker by
//! [`verify_batch_indices_on`] — changes the coefficients but not the
//! verdicts, so callers pick purely on whether they own a pool.
//! `tests/batch_equiv.rs` is the differential that holds this down.

use std::collections::HashMap;

use ia_ccf_pool::WorkerPool;

use crate::digest::{Digest, Hasher};
use crate::keys::{PublicKey, Signature};

/// Shortest slice the combined equation is tried on. Measured on AVX-512
/// IFMA (`R` decompressed eight at a time, bucket sums from 10 points up
/// one window per lane) against singles of ≈ 18–20 µs (the split kernel
/// over `Z = 1` tables, accepting when `s·B − k·A` compresses to `R`), in
/// two sets of runs: with keys all distinct (its worst case) 1.16–1.21×
/// their cost at 8 jobs, 1.13–1.19× at 10, 1.04–1.09× at 11, 0.95–1.03× at
/// 12, 0.91–0.98× at 13 and 0.83–0.87× at 16; with four keys coalesced
/// 0.96–0.98× at 8, 0.93–0.96× at 10, 0.84–0.89× at 11 and 0.77–0.82× at
/// 12. 13 is the first length where the worst case is ahead in both sets,
/// and a failed slice pays for both. (When singles cost ≈ 26 µs the
/// distinct keys were ahead from 8; singles got cheaper, the combined
/// check did not. Without the lanes it sat at 12 then and was not
/// re-measured.)
pub const VERIFY_BATCH_MIN: usize = 13;

/// Smallest per-worker chunk: the combined equation has a fixed cost per
/// slice (one sum over the keys and `B` with full-width scalars, a table
/// per key), so a chunk should hold enough signatures to spread it. At 24
/// a signature costs ≈ 12.5–13 µs with distinct keys and ≈ 9.3 µs with
/// four (0.69–0.71× and 0.52× a single), against ≈ 4–7.5 µs in a slice of
/// 300 and ≈ 18–20 µs singly; at 16, ≈ 15.6–15.9 and ≈ 12 µs (0.83–0.87×
/// and 0.60–0.67×). 24 stays: the benchmark's replicas run one pool thread
/// and the auditor checks its chunks unpooled, so no measured path would
/// gain from another value. Without the bucket lanes 24 cost 0.75× and
/// 0.46× of ≈ 26 µs singles; the scalar kernels reached 0.83× and 0.52×
/// only at 32.
pub const VERIFY_MIN_CHUNK: usize = 24;

/// Jobs per pool chunk when `jobs` are cut over `threads` workers: an even
/// share each, but never below [`VERIFY_MIN_CHUNK`]. The one rule for
/// [`verify_batch_indices_on`] and for a replica's own pooled admission.
pub fn verify_chunk_len(jobs: usize, threads: usize) -> usize {
    jobs.div_ceil(threads).max(VERIFY_MIN_CHUNK)
}

/// One verification work item: `sig` must verify over `msg` under `key`.
pub struct VerifyJob {
    /// Verifying key.
    pub key: PublicKey,
    /// Signed payload bytes.
    pub msg: Vec<u8>,
    /// Detached signature.
    pub sig: Signature,
}

impl VerifyJob {
    /// `H(key ‖ sig ‖ msg)` (key and signature are fixed-length): the name
    /// of exactly this check. A verifier that has seen a check pass may
    /// skip one with the same fingerprint; the same signature under another
    /// key or over other bytes has another.
    pub fn fingerprint(&self) -> Digest {
        let mut h = Hasher::new();
        h.update(self.key.as_bytes());
        h.update(self.sig.as_bytes());
        h.update(&self.msg);
        h.finalize()
    }
}

/// Whether the combined equation over all of `jobs` holds. `false` also
/// when a key does not parse: the singles then say which.
fn combined_check(jobs: &[VerifyJob]) -> bool {
    // Distinct keys first, so each is parsed (and weighs on the
    // multi-scalar multiplication) once.
    let mut slot_of: HashMap<PublicKey, usize> = HashMap::new();
    let mut keys = Vec::new();
    let mut key_of = Vec::with_capacity(jobs.len());
    for job in jobs {
        let next = keys.len();
        let slot = *slot_of.entry(job.key).or_insert(next);
        if slot == next {
            match job.key.with_parsed(ed25519_dalek::VerifyingKey::clone) {
                Some(vk) => keys.push(vk),
                None => return false,
            }
        }
        key_of.push(slot);
    }
    let messages: Vec<&[u8]> = jobs.iter().map(|j| j.msg.as_slice()).collect();
    let signatures: Vec<ed25519_dalek::Signature> =
        jobs.iter().map(|j| ed25519_dalek::Signature::from_bytes(&j.sig.0)).collect();
    ed25519_dalek::verify_batch(&messages, &signatures, &keys, &key_of).is_ok()
}

/// Verify all jobs on the calling thread; `true` iff every signature
/// verifies.
pub fn verify_batch(jobs: &[VerifyJob]) -> bool {
    verify_batch_indices(jobs).is_empty()
}

/// Verify all jobs on the calling thread and return the indices that
/// *failed*, ascending.
///
/// Auditing needs to know which signer misbehaved, not just that someone
/// did, so failures are reported individually.
pub fn verify_batch_indices(jobs: &[VerifyJob]) -> Vec<usize> {
    if jobs.len() >= VERIFY_BATCH_MIN && combined_check(jobs) {
        return Vec::new();
    }
    jobs.iter()
        .enumerate()
        .filter_map(|(i, j)| (!j.key.verify(&j.msg, &j.sig)).then_some(i))
        .collect()
}

/// [`verify_batch`] fanned out over `pool` in chunks; same answer.
pub fn verify_batch_on(pool: &WorkerPool, jobs: &[VerifyJob]) -> bool {
    verify_batch_indices_on(pool, jobs).is_empty()
}

/// [`verify_batch_indices`] run per chunk of at least
/// [`VERIFY_MIN_CHUNK`] jobs on `pool`'s workers. The failed indices come
/// back in ascending order regardless of pool size (chunk results are
/// stitched in slice order).
pub fn verify_batch_indices_on(pool: &WorkerPool, jobs: &[VerifyJob]) -> Vec<usize> {
    let chunk = verify_chunk_len(jobs.len(), pool.threads());
    let parts: Vec<&[VerifyJob]> = jobs.chunks(chunk).collect();
    pool.map_chunked(&parts, 1, |part, jobs| {
        verify_batch_indices(jobs).into_iter().map(|i| part * chunk + i).collect::<Vec<_>>()
    })
    .concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;

    fn jobs(n: usize) -> Vec<VerifyJob> {
        (0..n)
            .map(|i| {
                let kp = KeyPair::from_label(&format!("k{i}"));
                let msg = format!("message {i}").into_bytes();
                let sig = kp.sign(&msg);
                VerifyJob { key: kp.public(), msg, sig }
            })
            .collect()
    }

    #[test]
    fn all_valid_batch_passes() {
        assert!(verify_batch(&jobs(32)));
        assert!(verify_batch_indices(&jobs(32)).is_empty());
    }

    #[test]
    fn single_bad_signature_is_located() {
        let mut js = jobs(16);
        js[7].sig.0[0] ^= 1;
        assert!(!verify_batch(&js));
        assert_eq!(verify_batch_indices(&js), vec![7]);
    }

    #[test]
    fn multiple_bad_signatures_located_in_order() {
        let mut js = jobs(16);
        js[3].msg.push(b'!');
        js[11].sig.0[10] ^= 0x42;
        let mut failed = verify_batch_indices(&js);
        failed.sort_unstable();
        assert_eq!(failed, vec![3, 11]);
    }

    #[test]
    fn a_fingerprint_names_the_key_the_signature_and_the_bytes() {
        let js = jobs(2);
        let fp = |job: &VerifyJob| job.fingerprint();
        let same = VerifyJob { key: js[0].key, msg: js[0].msg.clone(), sig: js[0].sig };
        assert_eq!(fp(&same), fp(&js[0]));
        let other_key = VerifyJob { key: js[1].key, ..same };
        let other_sig = VerifyJob { sig: js[1].sig, msg: js[0].msg.clone(), ..js[0] };
        let other_msg = VerifyJob { msg: js[1].msg.clone(), ..js[0] };
        for (what, job) in [("key", other_key), ("sig", other_sig), ("msg", other_msg)] {
            assert_ne!(fp(&job), fp(&js[0]), "another {what}");
        }
    }

    #[test]
    fn empty_batch_is_vacuously_valid() {
        assert!(verify_batch(&[]));
    }

    #[test]
    fn pooled_verification_matches_sequential() {
        let mut js = jobs(3 * VERIFY_MIN_CHUNK + 1);
        js[0].sig.0[5] ^= 9;
        js[VERIFY_MIN_CHUNK].msg.push(b'x');
        js[3 * VERIFY_MIN_CHUNK].sig.0[63] ^= 1;
        let serial = verify_batch_indices(&js);
        for threads in [1, 2, 8] {
            let pool = WorkerPool::new(threads);
            assert_eq!(verify_batch_indices_on(&pool, &js), serial, "{threads} threads");
            assert!(!verify_batch_on(&pool, &js));
        }
        let pool = WorkerPool::new(4);
        assert!(verify_batch_on(&pool, &jobs(2 * VERIFY_MIN_CHUNK + 1)));
        assert!(pool.tasks_completed() > 0, "chunks must have hit the pool");
    }
}
