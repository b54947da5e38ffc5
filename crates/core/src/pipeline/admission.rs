//! Pipeline stage 1 — admission (Alg. 1 lines 1–3).
//!
//! Requests enter here: `verify(t)` checks the service binding `H(gt)`
//! and membership at admission, dedupes against the pool and the
//! executed set, and queues the request for ordering. **Batch time is
//! the one verification point**: whatever door a request body came
//! through (a client, a `FetchRequestsResponse`), it executes on the live
//! path only after its class's signature — the
//! client's key for app requests, the member's key under the active
//! configuration for governance — and its service binding were checked
//! there (§3.4: "Signature
//! verification is parallelized for messages received from replicas and
//! clients"): the batch's signatures form one job slice, checked by the
//! combined equation of [`ia_ccf_crypto::verify_batch_indices`] — whole
//! on a size-1 pool, in deterministically ordered chunks of at least
//! [`ia_ccf_crypto::VERIFY_MIN_CHUNK`] (the kernel's own cut,
//! [`ia_ccf_crypto::batch::verify_chunk_len`]) over the replica's persistent
//! [`ia_ccf_pool::WorkerPool`] otherwise; a failing slice or chunk is
//! re-checked job by job, so the failed indices are exact either way.
//! Verification is split into `start_batch_verify` /
//! `finish_batch_verify` halves so the ordering stage can overlap it
//! with batch execution, and `prewarm_next_batch_verify` pushes the
//! overlap across batches: while batch *n* executes, the pool verifies
//! the signatures of the *next* batch (a stashed out-of-order
//! pre-prepare on a backup, the head of the request queue on the
//! primary), harvested into the `verified_reqs` cache at the next
//! admission. Both overlaps are determinism-safe because signature
//! validity is a pure function of the request bytes: the cache only
//! ever holds facts, never timing. Out-of-order pre-prepares waiting
//! for request bodies are stashed here too.
//!
//! **A request is named once.** `H(t)` — the `req_store` key, the
//! pre-prepare's batch entry, the dedupe key, the first field of the `Ḡ`
//! leaf — is computed from the bytes in `admit_request` and nowhere else
//! on the live path: every later stage is handed the batch's requests
//! *with* their names (`&[SignedRequest]` beside `&[Digest]`, same
//! order), taken from the store's keys.

use ia_ccf_crypto::VerifyJob;
use ia_ccf_pool::{TaskHandle, WorkerPool};
use ia_ccf_types::{Digest, PrePrepare, PublicKey, RequestAction, SignedRequest};

use crate::replica::Replica;

/// Request-signature verification in flight on the worker pool: the
/// batch's unverified request digests, plus one [`TaskHandle`] per job
/// chunk (chunk results carry their base offset so the failed-index list
/// stitches back in ascending order).
pub(crate) struct PendingVerify {
    digests: Vec<Digest>,
    chunks: Vec<(usize, TaskHandle<Vec<usize>>)>,
    /// Requests rejected at collection time (unknown key, foreign
    /// service): not worth a pool round-trip.
    rejected: Vec<Digest>,
}

impl PendingVerify {
    /// Join every chunk and return the failed indices, ascending.
    fn join_failed(self) -> (Vec<Digest>, Vec<usize>, Vec<Digest>) {
        let mut failed = Vec::new();
        for (base, handle) in self.chunks {
            failed.extend(handle.join().into_iter().map(|i| base + i));
        }
        failed.sort_unstable();
        (self.digests, failed, self.rejected)
    }
}

/// A batch-verification pass either completed inline (serial pool or an
/// empty job list) — carrying the rejected requests' digests — or is
/// pending on the pool.
pub(crate) enum BatchVerify {
    Done(Vec<Digest>),
    Pending(PendingVerify),
}

/// Split `jobs` into per-worker chunks, each long enough for the combined
/// equation to pay, and submit each to the pool, recording the base index
/// of every chunk.
fn spawn_verify_chunks(
    pool: &WorkerPool,
    mut jobs: Vec<VerifyJob>,
) -> Vec<(usize, TaskHandle<Vec<usize>>)> {
    let chunk = ia_ccf_crypto::batch::verify_chunk_len(jobs.len(), pool.threads());
    let mut chunks = Vec::new();
    let mut base = 0;
    while !jobs.is_empty() {
        let take = chunk.min(jobs.len());
        let rest = jobs.split_off(take);
        let part = std::mem::replace(&mut jobs, rest);
        chunks.push((base, pool.submit(move || ia_ccf_crypto::verify_batch_indices(&part))));
        base += take;
    }
    chunks
}

impl Replica {
    pub(crate) fn on_request(&mut self, req: SignedRequest) {
        if !self.verify_request(&req) {
            return;
        }
        self.admit_request(req);
        // Note pending work for the liveness timer.
        if !self.pending_reqs.is_empty() && self.last_progress_tick == 0 {
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
    /// results, collect the still-unverified jobs and — when the pool
    /// has real workers — hand them off without blocking, so the caller
    /// can execute the batch while signatures verify. With a size-1 pool
    /// (or nothing to verify) the pass completes inline, byte-for-byte
    /// like the pre-pool replica.
    pub(crate) fn start_batch_verify(
        &mut self,
        requests: &[SignedRequest],
        names: &[Digest],
    ) -> BatchVerify {
        debug_assert_eq!(requests.len(), names.len());
        self.harvest_prewarm();
        let (digests, jobs, rejected) = self.collect_verify_jobs(names.iter().zip(requests));
        if jobs.is_empty() {
            return BatchVerify::Done(rejected);
        }
        if self.pool.threads() <= 1 {
            let failed = ia_ccf_crypto::verify_batch_indices(&jobs);
            return BatchVerify::Done(self.absorb_verify_results(&digests, &failed, rejected));
        }
        let chunks = spawn_verify_chunks(&self.pool, jobs);
        BatchVerify::Pending(PendingVerify { digests, chunks, rejected })
    }

    /// Second half: join the in-flight chunks (if any), cache the valid
    /// digests, and return the rejected ones (empty: the batch verified).
    pub(crate) fn finish_batch_verify(&mut self, pass: BatchVerify) -> Vec<Digest> {
        match pass {
            BatchVerify::Done(rejected) => rejected,
            BatchVerify::Pending(pending) => {
                let (digests, failed, rejected) = pending.join_failed();
                self.absorb_verify_results(&digests, &failed, rejected)
            }
        }
    }

    /// Cache every digest whose index is not in the (ascending) failed
    /// list; the failed ones join `rejected`.
    fn absorb_verify_results(
        &mut self,
        digests: &[Digest],
        failed: &[usize],
        mut rejected: Vec<Digest>,
    ) -> Vec<Digest> {
        let mut next_failure = failed.iter().peekable();
        for (i, digest) in digests.iter().enumerate() {
            if next_failure.peek() == Some(&&i) {
                next_failure.next();
                rejected.push(*digest);
            } else {
                self.verified_reqs.insert(*digest);
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
                || self.verified_reqs.contains(&digest)
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
        let candidates: Vec<Digest> = if let Some((_, batch)) = self
            .stashed_pps
            .iter()
            .find(|(pp, _)| pp.seq() == next_seq && pp.view() == self.view)
        {
            batch.clone()
        } else if self.is_primary() {
            self.pending_reqs.iter().take(self.params.batch_max).copied().collect()
        } else {
            return;
        };
        let (digests, jobs, _) = self.collect_verify_jobs(
            candidates.iter().filter_map(|d| self.req_store.get(d).map(|r| (d, r))),
        );
        if jobs.is_empty() {
            return;
        }
        let chunks = spawn_verify_chunks(&self.pool, jobs);
        self.prewarm_verify = Some(PendingVerify { digests, chunks, rejected: Vec::new() });
    }

    /// Fold a finished (or still-running: join blocks) prewarm pass into
    /// the verified-digest cache. Invalid signatures are simply not
    /// cached — the owning batch's own verification pass rejects them.
    pub(crate) fn harvest_prewarm(&mut self) {
        if let Some(pending) = self.prewarm_verify.take() {
            let (digests, failed, rejected) = pending.join_failed();
            self.absorb_verify_results(&digests, &failed, rejected);
        }
    }

    /// Name a request body — the one place bytes from outside get their
    /// `H(t)` — store it and queue it for ordering. System requests are
    /// stored only (a checkpoint batch's backups fetch the mark's
    /// body): the schedule proposes them, the queue never does.
    pub(crate) fn admit_request(&mut self, req: SignedRequest) {
        let digest = req.digest();
        if self.executed_reqs.contains(&digest) || self.req_store.contains_key(&digest) {
            // Already known. If executed and committed, re-serve the reply.
            return;
        }
        if !req.is_system() {
            self.pending_reqs.push_back(digest);
        }
        self.req_store.insert(digest, req);
    }

    /// Pop up to `batch_max` orderable requests, stopping after a
    /// governance transaction (a correct primary ends the batch there,
    /// §B.2), and deferring requests whose `min_index` is not yet
    /// satisfiable.
    pub(crate) fn take_eligible_requests(&mut self) -> Vec<Digest> {
        let mut taken = Vec::new();
        let mut deferred = Vec::new();
        let mut projected_index = self.next_tx_index;
        while taken.len() < self.params.batch_max {
            let Some(digest) = self.pending_reqs.pop_front() else {
                break;
            };
            let Some(req) = self.req_store.get(&digest) else {
                continue;
            };
            if self.executed_reqs.contains(&digest) {
                continue;
            }
            if req.request.min_index.0 > projected_index {
                deferred.push(digest);
                continue;
            }
            let is_gov = req.is_governance();
            taken.push(digest);
            projected_index += 1;
            if is_gov {
                break;
            }
        }
        for d in deferred.into_iter().rev() {
            self.pending_reqs.push_front(d);
        }
        taken
    }

    pub(crate) fn stash_pp(&mut self, pp: PrePrepare, batch: Vec<Digest>) {
        if self.stashed_pps.iter().any(|(p, _)| p.seq() == pp.seq() && p.view() == pp.view()) {
            return;
        }
        if self.stashed_pps.len() < 1024 {
            self.stashed_pps.push((pp, batch));
        }
    }

    pub(crate) fn retry_stashed(&mut self) {
        if self.stashed_pps.is_empty() {
            return;
        }
        let stashed = std::mem::take(&mut self.stashed_pps);
        for (pp, batch) in stashed {
            if pp.seq() >= self.seq_next && pp.view() == self.view {
                let sender = pp.core.primary;
                self.on_pre_prepare(sender, pp, batch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::Arc;

    use ia_ccf_types::config::testutil::test_config;
    use ia_ccf_types::{
        ClientId, KeyPair, LedgerEntry, LedgerIdx, ProtocolMsg, ReplicaId, Request, RequestAction,
        SeqNum, SignedRequest,
    };

    use crate::app::CounterApp;
    use crate::bootstrap::BootstrapError;
    use crate::events::{Input, NodeId, Output};
    use crate::params::ProtocolParams;
    use crate::replica::Replica;

    const CLIENT: ClientId = ClientId(1000);

    /// Four replicas on a FIFO bus, just enough of a cluster to commit
    /// batches and change views inside this crate.
    struct Bus {
        replicas: Vec<Replica>,
        queue: VecDeque<(ReplicaId, NodeId, ProtocolMsg)>,
        crashed: Option<ReplicaId>,
        drop_commits: bool,
        client_key: KeyPair,
        next_req_id: u64,
    }

    impl Bus {
        fn new(batch_max: usize) -> Bus {
            let (genesis, replica_keys, _) = test_config(4);
            let client_key = KeyPair::from_label("client-0");
            let params = ProtocolParams {
                batch_max,
                view_timeout_ticks: 8,
                pool_threads: 1,
                ..ProtocolParams::default()
            };
            let replicas = replica_keys
                .into_iter()
                .enumerate()
                .map(|(rank, key)| {
                    Replica::new(
                        ReplicaId(rank as u32),
                        key,
                        genesis.clone(),
                        Arc::new(CounterApp),
                        params.clone(),
                        [(CLIENT, client_key.public())],
                    )
                    .expect("build replica")
                })
                .collect();
            Bus {
                replicas,
                queue: VecDeque::new(),
                crashed: None,
                drop_commits: false,
                client_key,
                next_req_id: 1,
            }
        }

        fn submit(&mut self) {
            let request = SignedRequest::sign(
                Request {
                    action: RequestAction::App {
                        proc: CounterApp::INCR,
                        args: format!("k{}", self.next_req_id % 3).into_bytes(),
                    },
                    client: CLIENT,
                    gt_hash: self.replicas[0].gt_hash(),
                    min_index: LedgerIdx(0),
                    req_id: self.next_req_id,
                },
                &self.client_key,
            );
            self.next_req_id += 1;
            for to in 0..4 {
                let msg = ProtocolMsg::Request(request.clone());
                self.queue.push_back((ReplicaId(to), NodeId::Client(CLIENT), msg));
            }
        }

        fn route(&mut self, from: ReplicaId, outputs: Vec<Output>) {
            for out in outputs {
                match out {
                    Output::SendReplica(to, msg) => {
                        self.queue.push_back((to, NodeId::Replica(from), msg));
                    }
                    Output::BroadcastReplicas(msg) => {
                        for to in (0..4).map(ReplicaId).filter(|to| *to != from) {
                            self.queue.push_back((to, NodeId::Replica(from), msg.clone()));
                        }
                    }
                    _ => {}
                }
            }
        }

        fn drain(&mut self) {
            let crashed = self.crashed;
            while let Some((to, from, msg)) = self.queue.pop_front() {
                let from_crashed = matches!(from, NodeId::Replica(r) if crashed == Some(r));
                if crashed == Some(to) || from_crashed {
                    continue;
                }
                if self.drop_commits && matches!(msg, ProtocolMsg::Commit(_)) {
                    continue;
                }
                let outputs = self.replicas[to.0 as usize].handle(Input::Message { from, msg });
                self.route(to, outputs);
            }
        }

        /// Deliver to quiescence, tick every live replica, deliver again.
        fn round(&mut self) {
            self.drain();
            let crashed = self.crashed;
            for id in (0..4).map(ReplicaId).filter(|id| crashed != Some(*id)) {
                let outputs = self.replicas[id.0 as usize].handle(Input::Tick);
                self.route(id, outputs);
            }
            self.drain();
        }

        fn live(&self) -> impl Iterator<Item = &Replica> {
            self.replicas.iter().filter(|r| self.crashed != Some(r.id()))
        }

        fn run_until_committed(&mut self, seq: SeqNum) {
            for _ in 0..200 {
                if self.live().all(|r| r.committed_up_to() >= seq) {
                    return;
                }
                self.round();
            }
            panic!("batch {seq:?} did not commit on every live replica");
        }

        fn assert_no_executed_request_is_cached(&self) {
            for r in self.live() {
                assert!(!r.executed_reqs.is_empty());
                let stale = r.verified_reqs.intersection(&r.executed_reqs).count();
                assert_eq!(stale, 0, "replica {:?} still caches executed requests", r.id());
            }
        }
    }

    #[test]
    fn verified_cache_holds_no_executed_request() {
        let mut bus = Bus::new(4);
        for _ in 0..40 {
            bus.submit();
        }
        bus.run_until_committed(SeqNum(10));
        bus.assert_no_executed_request_is_cached();
        for r in bus.live() {
            assert_eq!(r.executed_reqs.len(), 40);
        }
    }

    /// Replay is a door like any other: a batch it appends leaves the
    /// verified-signature cache, and a segment it refuses — at execution
    /// or at `Ḡ` — leaves no body behind.
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
        let spare = || {
            let (genesis, mut replica_keys, _) = test_config(4);
            Replica::new(
                ReplicaId(3),
                replica_keys.remove(3),
                genesis,
                Arc::new(CounterApp),
                bus.replicas[0].params.clone(),
                [(CLIENT, bus.client_key.public())],
            )
            .expect("build replica")
        };

        // The requests reached this replica from their client and were
        // verified (a prewarm pass, a batch it later rolled back) before it
        // fell behind and replayed them out of a ledger.
        let mut behind = spare();
        let names: Vec<_> = requests.iter().map(SignedRequest::digest).collect();
        for req in &requests {
            behind.on_request(req.clone());
        }
        assert!(behind.ensure_batch_verified(&requests, &names).is_empty());
        assert_eq!(behind.verified_reqs.len(), 12);
        behind.replay_entries(&honest[1..], 1).expect("honest ledger replays");
        assert_eq!(behind.executed_reqs.len(), 12);
        assert_eq!(behind.verified_reqs.intersection(&behind.executed_reqs).count(), 0);

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
            let mut before: Vec<_> = fresh.req_store.keys().copied().collect();
            before.sort_unstable();
            assert_eq!(before.len(), 8);

            let mut tampered = honest[start..].to_vec();
            let LedgerEntry::Tx(tx) = &mut tampered[3] else { panic!("a transaction") };
            tx.request = SignedRequest::sign(
                Request { min_index, req_id: 999, ..tx.request.request.clone() },
                &bus.client_key,
            );
            let refused = fresh.replay_entries(&tampered, start);
            assert_eq!(refused, Err(BootstrapError::ExecutionMismatch(SeqNum(3))));
            let mut after: Vec<_> = fresh.req_store.keys().copied().collect();
            after.sort_unstable();
            assert_eq!(after, before, "a refused segment's bodies must not be kept");
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
        bus.drop_commits = true;
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
        bus.assert_no_executed_request_is_cached();

        // The primary fails; the survivors roll batch 2 back, and the new
        // primary proposes it again: the backups must check its
        // signatures afresh rather than find them cached.
        bus.crashed = Some(ReplicaId(0));
        bus.drop_commits = false;
        bus.run_until_committed(SeqNum(2));
        for r in bus.live() {
            assert!(r.view().0 >= 1, "the view must have changed");
            assert_eq!(r.executed_reqs.len(), 8);
        }
        bus.assert_no_executed_request_is_cached();
    }
}
