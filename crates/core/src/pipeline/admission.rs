//! Pipeline stage 1 — admission (Alg. 1 lines 1–3).
//!
//! Requests enter here: `verify(t)` checks the service binding `H(gt)`
//! and membership at admission, and the request pool
//! ([`crate::pipeline::request_pool`]) dedupes it against what it holds
//! and what is ordered, and queues it for ordering. **Batch time is
//! the one verification point**: whatever door a request body came
//! through (a client, a `FetchRequestsResponse`), it executes on the live
//! path only after its class's signature — the
//! client's key for app requests, the member's key under the active
//! configuration for governance — and its service binding were checked
//! there (§3.4: "Signature
//! verification is parallelized for messages received from replicas and
//! clients"): the batch's signatures form one job slice, handed to
//! [`ia_ccf_crypto::start_verify`] — the one place that cuts signature
//! checks over the replica's persistent [`ia_ccf_pool::WorkerPool`]:
//! checked whole and inline on a size-1 pool, in deterministically ordered
//! chunks of at least [`ia_ccf_crypto::VERIFY_MIN_CHUNK`] otherwise; a
//! failing slice or chunk is re-checked job by job, so the failed indices
//! are exact either way.
//! Verification is split into `start_batch_verify` /
//! `finish_batch_verify` halves so the ordering stage can overlap it
//! with batch execution, and `prewarm_next_batch_verify` pushes the
//! overlap across batches: while batch *n* executes, the pool verifies
//! the signatures of the *next* batch (a stashed out-of-order
//! pre-prepare on a backup, the head of the request queue on the
//! primary), harvested into the pool's signature facts at the next
//! admission. Both overlaps are determinism-safe because signature
//! validity is a pure function of the request bytes: the cache only
//! ever holds facts, never timing. Out-of-order pre-prepares waiting
//! for request bodies are stashed here too.
//!
//! **A request is named once.** `H(t)` — the pool's key, the
//! pre-prepare's batch entry, the dedupe key, the first field of the `Ḡ`
//! leaf — is computed from the bytes in `RequestPool::admit` and nowhere
//! else on the live path: every later stage is handed the batch's
//! requests *with* their names (`&[SignedRequest]` beside `&[Digest]`,
//! same order), taken from the pool's keys.

use ia_ccf_crypto::{PendingChecks, VerifyJob};
use ia_ccf_types::{Digest, PrePrepare, PublicKey, RequestAction, SignedRequest};

use crate::replica::Replica;

/// Request-signature verification started by `start_batch_verify`: the
/// checked requests' digests, in job order, and their checks.
pub(crate) struct PendingVerify {
    digests: Vec<Digest>,
    checks: PendingChecks,
    /// Requests rejected at collection time (unknown key, foreign
    /// service): not worth a check.
    rejected: Vec<Digest>,
}

impl Replica {
    pub(crate) fn on_request(&mut self, req: SignedRequest) {
        if !self.verify_request(&req) {
            return;
        }
        self.requests.admit(req);
        // Note pending work for the liveness timer.
        if self.requests.has_queued() && self.last_progress_tick == 0 {
            self.last_progress_tick = self.tick;
        }
    }

    /// `verify(t)` at the client-facing door: service binding and a known
    /// signer — a cheap filter. Signatures themselves are checked at batch
    /// time, in parallel (§3.4), for every door alike. System requests
    /// have no signer: they are never accepted from the network.
    fn verify_request(&self, req: &SignedRequest) -> bool {
        req.request.gt_hash == self.gt_hash && self.signer_key(req).is_some()
    }

    /// The key `req`'s signature must verify under: the registered client
    /// key for app requests, the member's key in the active configuration
    /// for governance. System requests are unsigned.
    fn signer_key(&self, req: &SignedRequest) -> Option<PublicKey> {
        match &req.request.action {
            RequestAction::App { .. } => self.client_keys.get(&req.request.client).copied(),
            RequestAction::Governance(_) => self
                .gov
                .active()
                .member_key(ia_ccf_governance::chain::member_of(req))
                .copied(),
            RequestAction::System(_) => None,
        }
    }

    /// Batch-verify the signatures of `requests`, caching successes. The
    /// batch's unverified requests become one [`VerifyJob`] slice fanned
    /// out over the worker pool (§3.4). Returns the digests of the
    /// requests that must not execute (forged, unkeyed, foreign); empty
    /// when the whole batch verified. `names[i]` is `requests[i]`'s digest.
    pub(crate) fn ensure_batch_verified(
        &mut self,
        requests: &[SignedRequest],
        names: &[Digest],
    ) -> Vec<Digest> {
        let pass = self.start_batch_verify(requests, names);
        self.finish_batch_verify(pass)
    }

    /// First half of batch verification: harvest any cross-batch prewarm
    /// results, collect the still-unverified jobs and start them, so the
    /// caller can execute the batch while signatures verify. On a size-1
    /// pool they are checked here, inline, like the pre-pool replica.
    pub(crate) fn start_batch_verify(
        &mut self,
        requests: &[SignedRequest],
        names: &[Digest],
    ) -> PendingVerify {
        debug_assert_eq!(requests.len(), names.len());
        self.harvest_prewarm();
        let (digests, jobs, rejected) = self.collect_verify_jobs(names.iter().zip(requests));
        let checks = ia_ccf_crypto::start_verify(&self.pool, jobs);
        PendingVerify { digests, checks, rejected }
    }

    /// Second half: join the checks, cache the valid digests, and return
    /// the rejected ones (empty: the batch verified).
    pub(crate) fn finish_batch_verify(&mut self, pass: PendingVerify) -> Vec<Digest> {
        let PendingVerify { digests, checks, mut rejected } = pass;
        let mut next_failure = checks.join().into_iter().peekable();
        for (i, digest) in digests.into_iter().enumerate() {
            if next_failure.next_if_eq(&i).is_some() {
                rejected.push(digest);
            } else {
                self.requests.note_verified(digest);
            }
        }
        rejected
    }

    /// The signature jobs of the not-yet-verified `requests` (each with its
    /// name), in order, plus the digests rejected outright: a request bound
    /// to another service, or one whose signer has no key. System requests
    /// carry no signature — a checkpoint mark is legal only where
    /// `validate_batch_kind` and the schedule put it, and is judged by the
    /// digest comparison at execution.
    fn collect_verify_jobs<'a>(
        &self,
        requests: impl Iterator<Item = (&'a Digest, &'a SignedRequest)>,
    ) -> (Vec<Digest>, Vec<VerifyJob>, Vec<Digest>) {
        let mut rejected: Vec<Digest> = Vec::new();
        let mut digests: Vec<Digest> = Vec::new();
        let mut jobs: Vec<VerifyJob> = Vec::new();
        for (&digest, r) in requests {
            if matches!(r.request.action, RequestAction::System(_))
                || self.requests.is_verified(&digest)
            {
                continue;
            }
            match self.signer_key(r).filter(|_| r.request.gt_hash == self.gt_hash) {
                Some(key) => {
                    digests.push(digest);
                    jobs.push(VerifyJob { key, msg: r.request.signing_payload(), sig: r.sig });
                }
                None => rejected.push(digest),
            }
        }
        (digests, jobs, rejected)
    }

    /// Cross-batch overlap: while the batch at `seq_next` executes, start
    /// verifying the signatures the *next* batch will need — the stashed
    /// pre-prepare for the next slot if one arrived out of order (backup),
    /// else the head of the pending-request queue (primary). Harvested by
    /// `harvest_prewarm` at the next admission; no-ops on a size-1 pool
    /// (there is no spare worker to overlap onto).
    pub(crate) fn prewarm_next_batch_verify(&mut self) {
        if self.pool.threads() <= 1 || self.prewarm_verify.is_some() {
            return;
        }
        let next_seq = self.seq_next.next();
        let stashed =
            self.stashed_pps.iter().find(|(pp, ..)| pp.seq() == next_seq && pp.view() == self.view);
        let (digests, jobs, _) = if let Some((_, batch, _)) = stashed {
            self.collect_verify_jobs(
                batch.iter().filter_map(|d| self.requests.body(d).map(|r| (d, r))),
            )
        } else if self.is_primary() {
            self.collect_verify_jobs(self.requests.head(self.params.batch_max))
        } else {
            return;
        };
        if jobs.is_empty() {
            return;
        }
        let checks = ia_ccf_crypto::start_verify(&self.pool, jobs);
        self.prewarm_verify = Some(PendingVerify { digests, checks, rejected: Vec::new() });
    }

    /// Fold a finished (or still-running: join blocks) prewarm pass into
    /// the verified-digest cache. Invalid signatures are simply not
    /// cached — the owning batch's own verification pass rejects them.
    pub(crate) fn harvest_prewarm(&mut self) {
        if let Some(pending) = self.prewarm_verify.take() {
            self.finish_batch_verify(pending);
        }
    }

    /// Hold `pp` for a retry, with the key its signature was proven under
    /// (`None` when it was stashed before the check).
    pub(crate) fn stash_pp(
        &mut self,
        pp: PrePrepare,
        batch: Vec<Digest>,
        proven: Option<PublicKey>,
    ) {
        if self.stashed_pps.iter().any(|(p, ..)| p.seq() == pp.seq() && p.view() == pp.view()) {
            return;
        }
        if self.stashed_pps.len() < 1024 {
            self.stashed_pps.push((pp, batch, proven));
        }
    }

    pub(crate) fn retry_stashed(&mut self) {
        if self.stashed_pps.is_empty() {
            return;
        }
        let stashed = std::mem::take(&mut self.stashed_pps);
        for (pp, batch, proven) in stashed {
            if pp.seq() >= self.seq_next && pp.view() == self.view {
                let sender = pp.core.primary;
                self.on_pre_prepare(sender, pp, batch, proven);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use ia_ccf_types::{LedgerEntry, LedgerIdx, ReplicaId, Request, SeqNum, SignedRequest};

    use crate::bootstrap::BootstrapError;
    use crate::test_bus::Bus;

    fn assert_no_executed_request_is_cached(bus: &Bus) {
        for r in bus.live() {
            assert!(r.requests.ordered_len() > 0);
            let stale = r.requests.verified_ordered();
            assert_eq!(stale, 0, "replica {:?} still caches executed requests", r.id());
        }
    }

    #[test]
    fn verified_cache_holds_no_executed_request() {
        let mut bus = Bus::new(4);
        for _ in 0..40 {
            bus.submit();
        }
        bus.run_until_committed(SeqNum(10));
        assert_no_executed_request_is_cached(&bus);
        for r in bus.live() {
            assert_eq!(r.requests.ordered_len(), 40);
        }
    }

    /// Replay is a door like any other: a batch it appends leaves the
    /// verified-signature cache and the body store (the ledger holds its
    /// bodies), and a segment it refuses — at execution or at `Ḡ` —
    /// leaves no body behind either.
    #[test]
    fn replay_prunes_the_verified_cache_and_keeps_no_refused_body() {
        let mut bus = Bus::new(4);
        for _ in 0..12 {
            bus.submit();
        }
        bus.run_until_committed(SeqNum(3));
        let honest = bus.replicas[0].ledger.entries().to_vec();
        let requests: Vec<SignedRequest> = honest
            .iter()
            .filter_map(|e| match e {
                LedgerEntry::Tx(tx) => Some(tx.request.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(requests.len(), 12);
        let spare = || bus.spare(bus.replicas[0].params.clone());

        // The requests reached this replica from their client and were
        // verified (a prewarm pass, a batch it later rolled back) before it
        // fell behind and replayed them out of a ledger.
        let mut behind = spare();
        let names: Vec<_> = requests.iter().map(SignedRequest::digest).collect();
        for req in &requests {
            behind.on_request(req.clone());
        }
        assert!(behind.ensure_batch_verified(&requests, &names).is_empty());
        assert_eq!(behind.requests.verified_len(), 12);
        behind.replay_entries(&honest[1..], 1).expect("honest ledger replays");
        assert_eq!(behind.requests.ordered_len(), 12);
        assert_eq!(behind.requests.verified_ordered(), 0);
        assert_eq!(behind.requests.pending_len(), 0, "appended bodies live in the ledger only");

        // The last batch's segment, with its first request swapped for
        // another the client really signed: one whose `min_index` cannot
        // be met (refused at execution), one that merely is not what the
        // primary executed (refused at `Ḡ`).
        let pp_at = honest
            .iter()
            .rposition(|e| matches!(e, LedgerEntry::PrePrepare(_)))
            .expect("a batch");
        let start = pp_at - 2;
        assert!(matches!(honest[start], LedgerEntry::Evidence { .. }));
        for min_index in [LedgerIdx(u64::MAX), LedgerIdx(0)] {
            let mut fresh = spare();
            fresh.replay_entries(&honest[1..start], 1).expect("honest prefix replays");
            assert_eq!(fresh.requests.ordered_len(), 8);
            assert_eq!(fresh.requests.pending_len(), 0, "replay keeps no body");

            let mut tampered = honest[start..].to_vec();
            let LedgerEntry::Tx(tx) = &mut tampered[3] else { panic!("a transaction") };
            tx.request = SignedRequest::sign(
                Request { min_index, req_id: 999, ..tx.request.request.clone() },
                &bus.client_key,
            );
            let refused = fresh.replay_entries(&tampered, start);
            assert_eq!(refused, Err(BootstrapError::ExecutionMismatch(SeqNum(3))));
            let kept = fresh.requests.pending_len();
            assert_eq!(kept, 0, "a refused segment's bodies must not be kept");
            assert_eq!(fresh.requests.ordered_len(), 8);
            assert_eq!(fresh.ledger.len(), start as u64);
        }
    }

    #[test]
    fn rolled_back_batch_is_verified_again_and_commits() {
        let mut bus = Bus::new(4);
        for _ in 0..4 {
            bus.submit();
        }
        bus.run_until_committed(SeqNum(1));

        // Batch 2 executes and prepares everywhere — its requests leave
        // the cache — but no commit is ever delivered.
        bus.drop_if = Some(crate::test_bus::commits);
        for _ in 0..4 {
            bus.submit();
        }
        for _ in 0..3 {
            bus.round();
        }
        for r in bus.live() {
            assert_eq!(r.prepared_up_to(), SeqNum(2));
            assert_eq!(r.committed_up_to(), SeqNum(1));
        }
        assert_no_executed_request_is_cached(&bus);

        // The primary fails; the survivors roll batch 2 back, and the new
        // primary proposes it again: the backups must check its
        // signatures afresh rather than find them cached.
        bus.crashed = Some(ReplicaId(0));
        bus.drop_if = None;
        bus.run_until_committed(SeqNum(2));
        for r in bus.live() {
            assert!(r.view().0 >= 1, "the view must have changed");
            assert_eq!(r.requests.ordered_len(), 8);
        }
        assert_no_executed_request_is_cached(&bus);
    }
}
