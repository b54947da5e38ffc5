//! Batch signature verification.
//!
//! §3.4: "Signature verification is parallelized for messages received from
//! replicas and clients to improve throughput and scalability." §6.5 notes
//! the audit bottleneck is client-request signature verification, "which can
//! be trivially parallelized" — this module is that parallelization, shared
//! by replicas and the auditor.
//!
//! [`verify_batch`] / [`verify_batch_indices`] are the **sequential**
//! kernels (one core, no pool); [`verify_batch_on`] /
//! [`verify_batch_indices_on`] fan the same work out over a persistent
//! [`ia_ccf_pool::WorkerPool`] in deterministically ordered chunks. Both
//! pairs return byte-identical answers — signature validity is a pure
//! function of the job — so callers pick purely on whether they own a
//! pool.
//!
//! "Batch" here means *many independent single verifications*: every job
//! is checked by [`PublicKey::verify`] on its own (through the calling
//! thread's parsed-key cache — pool workers each have theirs, nothing is
//! shared or locked). It is deliberately **not** random-linear-combination
//! batch verification: under the cofactorless equation a crafted
//! signature with a small-order component can pass a combined equation and
//! fail singly, so replicas (batch) and auditors (single) could disagree
//! on one client's request. Moving both paths to the cofactored equation
//! is a protocol decision of its own (ROADMAP item 1).

use ia_ccf_pool::WorkerPool;

use crate::keys::{PublicKey, Signature};

/// Smallest per-worker chunk worth a queue handoff: below this, Ed25519
/// verification (~tens of µs each) is cheaper than waking a worker.
pub const VERIFY_MIN_CHUNK: usize = 4;

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
    fn check(&self) -> bool {
        self.key.verify(&self.msg, &self.sig)
    }
}

/// Verify all jobs sequentially; `true` iff every signature verifies.
pub fn verify_batch(jobs: &[VerifyJob]) -> bool {
    jobs.iter().all(VerifyJob::check)
}

/// Verify all jobs sequentially and return the indices that *failed*.
///
/// Auditing needs to know which signer misbehaved, not just that someone
/// did, so failures are reported individually.
pub fn verify_batch_indices(jobs: &[VerifyJob]) -> Vec<usize> {
    jobs.iter()
        .enumerate()
        .filter_map(|(i, j)| (!j.check()).then_some(i))
        .collect()
}

/// [`verify_batch`] fanned out over `pool` in chunks; same answer.
pub fn verify_batch_on(pool: &WorkerPool, jobs: &[VerifyJob]) -> bool {
    verify_batch_indices_on(pool, jobs).is_empty()
}

/// [`verify_batch_indices`] fanned out over `pool` in chunks. The failed
/// indices come back in ascending order regardless of pool size (chunk
/// results are stitched in slice order).
pub fn verify_batch_indices_on(pool: &WorkerPool, jobs: &[VerifyJob]) -> Vec<usize> {
    pool.map_chunked(jobs, VERIFY_MIN_CHUNK, |i, j| (!j.check()).then_some(i))
        .into_iter()
        .flatten()
        .collect()
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
    fn empty_batch_is_vacuously_valid() {
        assert!(verify_batch(&[]));
    }

    #[test]
    fn pooled_verification_matches_sequential() {
        let mut js = jobs(33);
        js[0].sig.0[5] ^= 9;
        js[16].msg.push(b'x');
        js[32].sig.0[63] ^= 1;
        let serial = verify_batch_indices(&js);
        for threads in [1, 2, 8] {
            let pool = WorkerPool::new(threads);
            assert_eq!(verify_batch_indices_on(&pool, &js), serial, "{threads} threads");
            assert!(!verify_batch_on(&pool, &js));
        }
        let pool = WorkerPool::new(4);
        assert!(verify_batch_on(&pool, &jobs(17)));
        assert!(pool.tasks_completed() > 0, "chunks must have hit the pool");
    }
}
