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
//! failed combined check plus the singles, ≈ 1.24× the singles alone in
//! a slice of 300 with four keys (the combined check is ≈ 4.2–4.4 µs per
//! signature there, a single ≈ 18 µs).
//!
//! **One accept set.** The combined equation and the single check are both
//! RFC 8032's cofactored equation (see `vendor/ed25519-dalek`), which is
//! what makes them agree: a slice passes combined iff each member passes
//! singly, up to a ≈ 2⁻¹²⁸ chance that a forgery slips through the random
//! combination. How a slice is cut changes the coefficients but not the
//! verdicts. `tests/batch_equiv.rs` is the differential that holds this
//! down.
//!
//! **One chunker.** This module is the one place that cuts signature
//! checks over a [`WorkerPool`]: [`start_verify`] hands a slice to the
//! workers in [`verify_chunks`] chunks and returns [`PendingChecks`] to
//! join later (a replica's admission overlaps them with execution);
//! [`verify_batch_indices_on`] is its blocking form. On a one-thread pool
//! both run [`verify_batch_indices`] whole on the calling thread and queue
//! nothing.
//!
//! **One ordered queue.** [`SigQueue`] judges a ledger's signatures in
//! ledger order, a window of [`SIG_CHUNK`] at a time: on a pool for
//! recovery's pre-pass, inline for the auditor.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use ia_ccf_pool::{TaskHandle, WorkerPool};

use crate::digest::{Digest, Hasher};
use crate::keys::{PublicKey, Signature};

/// Shortest slice the combined equation is tried on. Measured on AVX-512
/// IFMA (`R` decompressed eight at a time, bucket sums from 10 points up
/// one window per lane) in three key regimes. Warm keys (parsed, split
/// table built; singles ≈ 15 µs, best of 200–400 rounds): with keys all
/// distinct the combined check costs 1.26–1.28× the singles at 12,
/// 1.20–1.25× at 13, 1.08× at 15, 1.03× at 17 and 0.99× at 18; with four
/// keys coalesced 1.01–1.04× at 12, 0.95–0.98× at 13 and 0.82–0.86× at 16.
/// Cold keys, all distinct and out of the thread's cache (a single then
/// parses the key and builds its table, ≈ 150 µs; the combined check
/// parses the point only): 0.11–0.22× at every length from 8 to 24. The
/// combined check is no dearer than with four 64-bit pieces, where 13 was
/// the first length ahead with warm distinct keys; only the singles moved.
/// 13 is kept: at 18 a cold slice of 13–17 jobs would pay 5–7× its
/// combined check in singles, at 13 a warm slice of distinct keys pays at
/// most ≈ 1.25× the singles, and no slice costs more than it did with
/// four pieces. (Against ≈ 26 µs singles that length was 8.)
pub const VERIFY_BATCH_MIN: usize = 13;

/// Smallest per-worker chunk: the combined equation has a fixed cost per
/// slice (one sum over the keys and `B` with full-width scalars), so a
/// chunk should hold enough signatures to spread it. At 24 a signature
/// costs ≈ 12.5–13 µs with distinct keys and ≈ 9.3 µs with four, against
/// ≈ 4–7.5 µs in a slice of 300. That is 0.80–0.87× and 0.63–0.70× a warm
/// single of ≈ 15 µs (0.69–0.71× and 0.52× of the ≈ 18–20 µs singles of
/// four 64-bit pieces; 32 would give 0.73–0.74× and 0.52–0.56× now), and
/// ≈ 0.13× a cold one. 24 is kept for the reason 13 is: the combined
/// check did not get dearer. The benchmark's replicas run one pool thread
/// and the auditor checks its [`SigQueue`] windows inline, so no measured
/// path moves with this value.
pub const VERIFY_MIN_CHUNK: usize = 24;

/// The pool chunks `jobs` checks are cut into over `threads` workers, in
/// order: `min(threads, max(1, jobs / VERIFY_MIN_CHUNK))` of them, whose
/// lengths differ by at most one, so no chunk falls below
/// [`VERIFY_MIN_CHUNK`] unless it is the only one. The one rule
/// [`start_verify`] and [`verify_batch_indices_on`] cut by.
pub fn verify_chunks(jobs: usize, threads: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    let count = threads.min(jobs / VERIFY_MIN_CHUNK).max(1);
    let (len, longer) = (jobs / count, jobs % count);
    (0..count).map(move |i| {
        let start = i * len + i.min(longer);
        start..start + len + usize::from(i < longer)
    })
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
    // multi-scalar multiplication) once. Only the bytes and point are
    // taken: the combined equation neither builds nor reads a split table.
    let mut slot_of: HashMap<PublicKey, usize> = HashMap::new();
    let mut keys = Vec::new();
    let mut key_of = Vec::with_capacity(jobs.len());
    for job in jobs {
        let next = keys.len();
        let slot = *slot_of.entry(job.key).or_insert(next);
        if slot == next {
            match job.key.with_parsed(ed25519_dalek::VerifyingKey::public_point) {
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

/// Signature checks started by [`start_verify`]: the failed indices of
/// what ran inline, and one task per chunk beside the chunk's first index.
pub struct PendingChecks {
    failed: Vec<usize>,
    chunks: Vec<(usize, TaskHandle<Vec<usize>>)>,
}

impl PendingChecks {
    /// Wait for every chunk and return the failed indices, ascending
    /// (chunks are joined in slice order).
    pub fn join(self) -> Vec<usize> {
        let mut failed = self.failed;
        for (base, chunk) in self.chunks {
            failed.extend(chunk.join().into_iter().map(|i| base + i));
        }
        failed
    }
}

/// Start [`verify_batch_indices`] on `jobs` without waiting for it: one
/// pool task per [`verify_chunks`] chunk. A one-thread pool has no
/// spare worker to overlap onto, so there the whole slice is checked
/// inline, now, and nothing is queued.
pub fn start_verify(pool: &WorkerPool, jobs: Vec<VerifyJob>) -> PendingChecks {
    if pool.threads() <= 1 {
        return PendingChecks { failed: verify_batch_indices(&jobs), chunks: Vec::new() };
    }
    let cuts = verify_chunks(jobs.len(), pool.threads());
    let mut jobs = jobs.into_iter();
    let chunks = cuts
        .map(|range| {
            let part: Vec<VerifyJob> = jobs.by_ref().take(range.len()).collect();
            (range.start, pool.submit(move || verify_batch_indices(&part)))
        })
        .collect();
    PendingChecks { failed: Vec::new(), chunks }
}

/// [`start_verify`] joined at once: the failed indices, ascending, for any
/// pool size. A slice of one chunk is checked inline.
pub fn verify_batch_indices_on(pool: &WorkerPool, jobs: Vec<VerifyJob>) -> Vec<usize> {
    if verify_chunks(jobs.len(), pool.threads()).len() == 1 {
        return verify_batch_indices(&jobs);
    }
    start_verify(pool, jobs).join()
}

/// Most checks one window of a [`SigQueue`] holds, which bounds the
/// payload bytes it keeps. Fixed windows are no slower than windows
/// doubling from [`VERIFY_MIN_CHUNK`]: ≈ 6.4–8.3 against ≈ 7.8–8.7 µs per
/// honest signature over 300–1,000 jobs under one to four keys (medians of
/// 7 rounds on a 2-vCPU Xeon with AVX-512 IFMA).
pub const SIG_CHUNK: usize = 256;

/// Signature checks in the order their verdicts rank, each with the
/// refusal `E` its failure reports. The refusal is the earliest failure in
/// push order, and every check that passed is proved. A check whose
/// [`VerifyJob::fingerprint`] is proved or queued is not queued again: it
/// passes exactly when its twin does, and its twin ranks first.
pub struct SigQueue<'p, E> {
    /// Where a window is checked: `None` checks it on the calling thread.
    pool: Option<&'p WorkerPool>,
    jobs: Vec<(VerifyJob, E, Digest)>,
    queued: HashSet<Digest>,
    proved: HashSet<Digest>,
}

impl<'p, E> SigQueue<'p, E> {
    /// An empty queue that checks its windows on `pool` (or inline) and
    /// takes the checks fingerprinted in `proved` as passed.
    pub fn new(pool: Option<&'p WorkerPool>, proved: HashSet<Digest>) -> Self {
        SigQueue { pool, jobs: Vec::new(), queued: HashSet::new(), proved }
    }

    /// Queue one check unless it is known; a full window is checked on the
    /// spot, and its earliest failure is returned.
    pub fn push(&mut self, job: VerifyJob, refusal: E) -> Result<(), E> {
        let fingerprint = job.fingerprint();
        if self.proved.contains(&fingerprint) || !self.queued.insert(fingerprint) {
            return Ok(());
        }
        self.jobs.push((job, refusal, fingerprint));
        if self.jobs.len() >= SIG_CHUNK {
            self.flush()?;
        }
        Ok(())
    }

    /// Check everything queued: every check that passes is proved, and the
    /// earliest failure in push order is the refusal.
    pub fn flush(&mut self) -> Result<(), E> {
        let (jobs, queued): (Vec<VerifyJob>, Vec<(E, Digest)>) =
            self.jobs.drain(..).map(|(job, refusal, fp)| (job, (refusal, fp))).unzip();
        let failed = match self.pool {
            Some(pool) => verify_batch_indices_on(pool, jobs),
            None => verify_batch_indices(&jobs),
        };
        self.queued.clear();
        let mut refusal = None;
        for (i, (why, fingerprint)) in queued.into_iter().enumerate() {
            if failed.binary_search(&i).is_err() {
                self.proved.insert(fingerprint);
            } else if refusal.is_none() {
                refusal = Some(why);
            }
        }
        refusal.map_or(Ok(()), Err)
    }

    /// The fingerprints of every check that passed.
    pub fn into_proved(self) -> HashSet<Digest> {
        self.proved
    }
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
        assert!(verify_batch_indices(&jobs(32)).is_empty());
    }

    #[test]
    fn single_bad_signature_is_located() {
        let mut js = jobs(16);
        js[7].sig.0[0] ^= 1;
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
        assert!(verify_batch_indices(&[]).is_empty());
    }

    /// Every cut covers `0..n` in order with at most `threads` chunks,
    /// none shorter than `VERIFY_MIN_CHUNK` unless it is the only one. A
    /// ceiling share floored at the minimum cut 30 jobs on two threads
    /// into 24 and 6, and the 6 fell to single checks.
    #[test]
    fn chunks_cover_the_slice_and_none_is_short() {
        for n in 1..=200 {
            for threads in 1..=8 {
                let chunks: Vec<Range<usize>> = verify_chunks(n, threads).collect();
                assert!(!chunks.is_empty() && chunks.len() <= threads, "{n} jobs, {threads} threads");
                assert_eq!(chunks[0].start, 0);
                assert_eq!(chunks.last().map(|c| c.end), Some(n));
                assert!(chunks.windows(2).all(|w| w[0].end == w[1].start), "{chunks:?}");
                let short = chunks.iter().any(|c| c.len() < VERIFY_MIN_CHUNK);
                assert!(chunks.len() == 1 || !short, "{n} jobs, {threads} threads: {chunks:?}");
            }
        }
        assert_eq!(verify_chunks(30, 2).collect::<Vec<_>>(), vec![0..30]);
        assert_eq!(verify_chunks(49, 2).collect::<Vec<_>>(), vec![0..25, 25..49]);
    }

    #[test]
    fn pooled_verification_matches_sequential() {
        let forged = || {
            let mut js = jobs(3 * VERIFY_MIN_CHUNK + 1);
            js[0].sig.0[5] ^= 9;
            js[VERIFY_MIN_CHUNK].msg.push(b'x');
            // On eight threads the last job is in the third of three chunks.
            js[3 * VERIFY_MIN_CHUNK].sig.0[63] ^= 1;
            js
        };
        let serial = verify_batch_indices(&forged());
        assert_eq!(serial, vec![0, VERIFY_MIN_CHUNK, 3 * VERIFY_MIN_CHUNK]);
        for threads in [1, 2, 8] {
            let pool = WorkerPool::new(threads);
            assert_eq!(start_verify(&pool, forged()).join(), serial, "started, {threads} threads");
            let blocking = verify_batch_indices_on(&pool, forged());
            assert_eq!(blocking, serial, "blocking, {threads} threads");
        }

        let single = WorkerPool::new(1);
        assert!(start_verify(&single, jobs(2 * VERIFY_MIN_CHUNK + 1)).join().is_empty());
        assert!(verify_batch_indices_on(&single, jobs(2 * VERIFY_MIN_CHUNK + 1)).is_empty());
        assert_eq!(single.tasks_completed(), 0, "a size-1 pool must not queue checks");
        let pool = WorkerPool::new(4);
        assert!(verify_batch_indices_on(&pool, jobs(VERIFY_MIN_CHUNK)).is_empty());
        assert_eq!(pool.tasks_completed(), 0, "one chunk runs inline");
        assert!(verify_batch_indices_on(&pool, jobs(2 * VERIFY_MIN_CHUNK + 1)).is_empty());
        assert!(pool.tasks_completed() > 0, "chunks must have hit the pool");
    }

    /// `n` honest jobs under four keys, each refused as its own position.
    fn queue_jobs(n: usize) -> Vec<VerifyJob> {
        let keys: Vec<KeyPair> = (0..4).map(|k| KeyPair::from_label(&format!("q{k}"))).collect();
        (0..n)
            .map(|i| {
                let kp = &keys[i % keys.len()];
                let msg = format!("queued {i}").into_bytes();
                let sig = kp.sign(&msg);
                VerifyJob { key: kp.public(), msg, sig }
            })
            .collect()
    }

    /// Push `jobs` in order until one refuses, then flush what is left.
    fn drain<E>(queue: &mut SigQueue<'_, E>, jobs: Vec<(VerifyJob, E)>) -> Result<(), E> {
        for (job, refusal) in jobs {
            queue.push(job, refusal)?;
        }
        queue.flush()
    }

    /// The inline queue and queues on pools of 1 and 4 threads.
    fn pools() -> [Option<WorkerPool>; 3] {
        [None, Some(WorkerPool::new(1)), Some(WorkerPool::new(4))]
    }

    #[test]
    fn the_queue_refuses_as_the_earliest_forgery_in_push_order() {
        let n = 2 * SIG_CHUNK + 88;
        let rows: [&[usize]; 7] = [
            &[0],
            &[SIG_CHUNK - 1],
            &[SIG_CHUNK],
            &[n - 1],
            &[100, SIG_CHUNK + 100],
            &[3, 200],
            &[SIG_CHUNK + 7, 2 * SIG_CHUNK + 1],
        ];
        for pool in pools() {
            let threads = pool.as_ref().map(WorkerPool::threads);
            for forged in rows {
                let mut jobs = queue_jobs(n);
                for &at in forged {
                    jobs[at].sig.0[9] ^= 1;
                }
                let mut queue = SigQueue::new(pool.as_ref(), HashSet::new());
                let got = drain(&mut queue, jobs.into_iter().zip(0..).collect());
                assert_eq!(got, Err(forged[0]), "forged at {forged:?}, pool {threads:?}");
            }
            let mut honest = SigQueue::new(pool.as_ref(), HashSet::new());
            assert_eq!(drain(&mut honest, queue_jobs(n).into_iter().zip(0..).collect()), Ok(()));
        }
    }

    #[test]
    fn a_proved_or_queued_check_is_not_checked_again() {
        for pool in pools() {
            let mut jobs = queue_jobs(3);
            jobs[0].sig.0[9] ^= 1;
            let twin = |job: &VerifyJob| VerifyJob { msg: job.msg.clone(), ..*job };

            // Taken as proved: a forgery the caller vouches for passes.
            let vouched: HashSet<Digest> = [jobs[0].fingerprint()].into();
            let mut queue = SigQueue::new(pool.as_ref(), vouched);
            assert_eq!(queue.push(twin(&jobs[0]), "vouched"), Ok(()));
            assert!(queue.jobs.is_empty(), "a proved fingerprint is not queued");
            assert_eq!(queue.flush(), Ok(()));

            // Already queued: the twin is dropped, the first refusal stands.
            let mut queue = SigQueue::new(pool.as_ref(), HashSet::new());
            queue.push(twin(&jobs[0]), "first").unwrap();
            queue.push(twin(&jobs[0]), "second").unwrap();
            assert_eq!(queue.jobs.len(), 1, "a queued fingerprint is not queued twice");
            assert_eq!(queue.flush(), Err("first"));

            // Passed in an earlier window: not queued again.
            let mut queue = SigQueue::new(pool.as_ref(), HashSet::new());
            queue.push(twin(&jobs[1]), "honest").unwrap();
            assert_eq!(queue.flush(), Ok(()));
            queue.push(twin(&jobs[1]), "honest again").unwrap();
            assert!(queue.jobs.is_empty(), "a passed check is not queued again");
        }
    }

    #[test]
    fn the_proved_set_is_exactly_the_checks_that_passed() {
        let n = SIG_CHUNK + 40;
        let forged = [5, 90, SIG_CHUNK + 3];
        for pool in pools() {
            let mut jobs = queue_jobs(n);
            for &at in &forged {
                jobs[at].msg.push(b'!');
            }
            let passed: HashSet<Digest> = (0..n)
                .filter(|i| !forged.contains(i))
                .map(|i| jobs[i].fingerprint())
                .collect();
            // Every check reaches the queue: the refusals are ignored.
            let mut queue = SigQueue::new(pool.as_ref(), HashSet::new());
            let mut refusals = Vec::new();
            for (i, job) in jobs.into_iter().enumerate() {
                refusals.extend(queue.push(job, i).err());
            }
            refusals.extend(queue.flush().err());
            assert_eq!(refusals, [5, SIG_CHUNK + 3], "each window's earliest forgery");
            assert_eq!(queue.into_proved(), passed);
        }
    }
}
