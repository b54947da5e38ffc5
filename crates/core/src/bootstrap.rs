//! Bootstrapping a replica from a ledger (§3.4, §5.1) and the paged
//! state-transfer state machine that feeds it.
//!
//! "A newly added replica first obtains the ledger and a recent checkpoint,
//! and replays the ledger from that checkpoint." This module implements the
//! replay: the joining replica validates the structural grammar, verifies
//! every pre-prepare signature under the configuration of its sequence
//! number, holds each batch's recorded evidence and `⟨t, i, o⟩` run to the
//! rules the auditor applies (`recorded_evidence`, `recorded_run`) before
//! anything executes, then takes the batch in as a backup would
//! (`apply_proposed`, execution reproducing each recorded `(i, o)`) and
//! every view-change pair as a backup would (`check_new_view` →
//! `log_new_view`): this module owns no ledger writer but the checkpoint
//! seed's. Governance receipts for served chains are reconstructed from
//! the in-ledger evidence entries.
//!
//! One loop, `replay_segments`, replays a whole ledger
//! ([`Replica::bootstrap`]), a restart's disk run and each sync page. It
//! proves the run's pre-prepare signatures first — each segment's
//! `view_primary_job`, the pre-prepare rule a backup and the auditor apply
//! too, on the one ordered [`ia_ccf_crypto::SigQueue`], whose windows of
//! [`ia_ccf_crypto::SIG_CHUNK`] are checked over the worker pool (§3.4
//! parallelises signature verification) — then applies the segments in
//! order. A segment is taken without a second check only when that exact
//! job passed under the key its configuration names at replay time; one
//! whose job failed, or whose key a reconfiguration earlier in the run
//! changed, is checked singly. A refusal is therefore the single checks'
//! `BootstrapError` at the same seq, with the same prefix applied.
//!
//! **Obtaining** the ledger is the resumable `FetchLedgerPage` protocol
//! ([`LedgerSyncState`]): the recovering replica requests bounded pages
//! from its own `seq_next` (the continuation token) and replays each page
//! whole through the same loop — every segment verified against the
//! signed batch artifacts and applied atomically — which must leave
//! `seq_next` at the page's token; it re-requests from there until the
//! server reports `done`. Nothing is carried between pages: an honest
//! server cuts at batch segments, a page cut inside a segment is
//! malformed, and one cut inside a transaction run fails the signed `Ḡ`.
//! A server that times out, stops progressing, sends undecodable or
//! refused pages, or a token its page does not reach is abandoned and the
//! sync fails over to the next replica, resuming from the first unapplied
//! batch. A view change landing mid-transfer shows up as a divergence
//! between the server's (post-rollback) stream and our
//! applied-but-uncommitted tail; the requester rolls its own tail back to
//! the committed frontier once per continuation point and resumes, so
//! partially-applied state is never corrupted.
//!
//! A recovery sync opens with a **tip query** ([`Phase::TipQuery`]):
//! the recoveree broadcasts `FetchLedgerTip` and waits for `f + 1`
//! replies. The `(f+1)`-th largest claimed committed tip is then a floor
//! at least one honest replica vouches for, and the final `done` page is
//! only accepted once the applied frontier has passed it — a lying
//! server advertising an early `done` cannot freeze the recoveree short
//! of the real tip (it is abandoned like any other misbehaviour). Tip
//! replies also carry each replica's newest agreed checkpoint; when
//! `f + 1` of them pin the *same* `(seq, kv digest, tree root)` triple, a
//! fresh recoveree takes the **checkpoint fast-path**
//! ([`Phase::Checkpoint`], §3.4): it fetches the KV snapshot plus the
//! ledger-tree frontier, verifies both against the pinned digests and the
//! checkpoint batch's signed pre-prepare, restores, and then pages only
//! the ledger *suffix* — O(window) I/O instead of O(history) replay. Any
//! verification failure or refusal falls back to paged replay from
//! genesis, which remains the stronger (and always-available) check.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use ia_ccf_crypto::SigQueue;
use ia_ccf_ledger::segment::{segment_entries, BatchSegment, Segment, TxRun};
use ia_ccf_ledger::validity::{
    check_new_view, recorded_evidence, recorded_run, signed_by_view_primary, view_primary_job,
    Evidenced, Refused,
};
use ia_ccf_ledger::Ledger;
use ia_ccf_types::{
    CheckpointPayload, CheckpointPin, ClientId, Configuration, EvidenceError, LedgerEntry,
    LedgerIdx, PrePrepare, ProtocolMsg, PublicKey, ReplicaId, SeqNum, View, Wire,
};

use crate::app::App;
use crate::checkpoint::CheckpointRecord;
use crate::events::Output;
use crate::params::ProtocolParams;
use crate::pipeline::ordering::{EvidenceSet, Known};
use crate::replica::{Replica, Status};
use crate::seedfile::SeedCheckpointFile;

/// Why a ledger could not be replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BootstrapError {
    /// The ledger does not begin with a genesis entry.
    NoGenesis,
    /// The entry stream violates the structural grammar.
    Malformed(String),
    /// A pre-prepare signature failed under its configuration.
    BadPrePrepareSig(SeqNum),
    /// Our re-execution diverged from the signed roots at this batch.
    ExecutionMismatch(SeqNum),
    /// The logged view-change set and new-view for this view break Alg. 2's
    /// validity rule.
    BadNewView(View, Refused),
    /// The evidence this batch's pre-prepare orders in is not a quorum's
    /// word on the batch `P` earlier.
    BadEvidence(SeqNum, EvidenceError),
}

impl std::fmt::Display for BootstrapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootstrapError::NoGenesis => write!(f, "ledger does not start with genesis"),
            BootstrapError::Malformed(e) => write!(f, "malformed ledger: {e}"),
            BootstrapError::BadPrePrepareSig(s) => write!(f, "bad pre-prepare signature at {s}"),
            BootstrapError::ExecutionMismatch(s) => write!(f, "execution mismatch at {s}"),
            BootstrapError::BadNewView(v, why) => write!(f, "bad new-view for {v}: {why:?}"),
            BootstrapError::BadEvidence(s, why) => write!(f, "bad evidence at {s}: {why:?}"),
        }
    }
}

impl std::error::Error for BootstrapError {}

/// Requester side of the paged `FetchLedgerPage` protocol: a full state
/// transfer, every page verified against the signed batch artifacts and
/// replayed through the execution machinery. Holds what every phase
/// shares; the [`Phase`] holds the rest.
#[derive(Debug, Clone)]
pub(crate) struct LedgerSyncState {
    /// The replica currently serving (tip claims aside).
    server: ReplicaId,
    /// Servers already abandoned this sync.
    tried: BTreeSet<ReplicaId>,
    /// The `(f+1)`-th largest claimed tip: a floor at least one honest
    /// replica vouches for. The final `done` is rejected until the
    /// applied frontier passes it.
    verified_tip: Option<SeqNum>,
    /// Tick the last page (or the phase's request) was seen, for the
    /// failover timeout.
    last_page_tick: u64,
    phase: Phase,
}

/// Where a recovery sync is, with the data only that phase has.
#[derive(Debug, Clone)]
pub(crate) enum Phase {
    /// Broadcasting `FetchLedgerTip` and collecting each configuration
    /// peer's claimed committed tip and checkpoint offer; nothing is
    /// applied yet.
    TipQuery { claims: BTreeMap<ReplicaId, (SeqNum, Option<CheckpointPin>)> },
    /// An `f + 1`-pinned checkpoint offer is being fetched from `server`.
    Checkpoint { pin: CheckpointPin },
    /// Paged replay toward the (verified) tip. The continuation token is
    /// the replica's own `seq_next`: every page is replayed whole and must
    /// end there.
    Paging {
        /// Continuation token at which the divergent-tail rollback already
        /// ran — a second mismatch at the same token is the server's
        /// fault, not a mid-transfer view change.
        rolled_back_at: Option<SeqNum>,
        /// Every peer failed and the sync is waiting out one timeout
        /// before retrying the rotation from scratch — backoff, so a
        /// cluster-wide outage produces one request per timeout instead of
        /// a request storm.
        paused: bool,
    },
}

/// Counters and outcome of the most recent ledger sync (kept after the
/// sync state itself is dropped; read by harnesses, tests and the
/// benchmark's `core.bootstrap.sync_*` counters).
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncReport {
    /// Pages received.
    pub pages: u64,
    /// Encoded entry bytes received across all pages.
    pub bytes: u64,
    /// Times the sync abandoned a server and moved to the next one.
    pub failovers: u64,
    /// Times the requester rolled its own uncommitted tail back after a
    /// mid-transfer view change made the server's stream diverge.
    pub tail_rollbacks: u64,
    /// Whether the sync ran to completion.
    pub complete: bool,
    /// `Some(seq)` when the sync restored the agreed checkpoint at `seq`
    /// and paged only the ledger suffix (the §3.4 fast-path); `None` for
    /// a genesis replay.
    pub checkpoint_seed: Option<SeqNum>,
}

impl Replica {
    /// Build a replica by replaying `entries` (a full ledger starting at
    /// genesis) through the normal execution machinery.
    pub fn bootstrap(
        id: ia_ccf_types::ReplicaId,
        keypair: ia_ccf_crypto::KeyPair,
        app: Arc<dyn App>,
        params: ProtocolParams,
        client_keys: impl IntoIterator<Item = (ClientId, PublicKey)>,
        entries: &[LedgerEntry],
    ) -> Result<Replica, BootstrapError> {
        let Some(LedgerEntry::Genesis { config }) = entries.first() else {
            return Err(BootstrapError::NoGenesis);
        };
        let genesis: Configuration = config.clone();
        let mut replica = Replica::new(id, keypair, genesis, app, params, client_keys)
            .map_err(|e| BootstrapError::Malformed(format!("replica init: {e}")))?;
        replica.replay_entries(&entries[1..], 1)?;
        Ok(replica)
    }

    /// Replay a stream of post-genesis entries into this replica.
    pub(crate) fn replay_entries(
        &mut self,
        entries: &[LedgerEntry],
        base: usize,
    ) -> Result<(), BootstrapError> {
        let segments = segment_entries(entries, base)
            .map_err(|e| BootstrapError::Malformed(e.to_string()))?;
        self.replay_segments(&segments)
    }

    /// The one replay loop — a whole ledger, a restart's disk run, a sync
    /// page: prove the batch segments' pre-prepare signatures in combined
    /// equations first, then validate and apply the segments in order. The
    /// first refusal stops the loop with exactly the prefix before it
    /// applied, as one single check per segment would leave it.
    fn replay_segments(&mut self, segs: &[Segment<'_>]) -> Result<(), BootstrapError> {
        let proven = self.proven_primary_keys(segs);
        for (seg, key) in segs.iter().zip(&proven) {
            self.replay_segment(seg, key.as_ref())?;
        }
        Ok(())
    }

    /// The pre-pass, which only reads: per segment, the key its
    /// pre-prepare's signature is proven under. Each batch segment's
    /// [`view_primary_job`], under its sequence number's configuration as
    /// known now, goes on one [`SigQueue`] checked on the pool, until the
    /// first failure. `None` (checked singly when applied) for a segment
    /// that is not a batch, fails the primary clause, or whose job failed
    /// or was not reached.
    fn proven_primary_keys(&self, segs: &[Segment<'_>]) -> Vec<Option<PublicKey>> {
        let mut queue = SigQueue::new(Some(&self.pool), HashSet::new());
        let mut queued = vec![None; segs.len()];
        for (seg, queued) in segs.iter().zip(&mut queued) {
            let Segment::Batch(BatchSegment { pp, .. }) = seg else {
                continue;
            };
            let Some(job) = view_primary_job(self.config_for_seq(pp.seq()), pp) else {
                continue;
            };
            *queued = Some((job.key, job.fingerprint()));
            if queue.push(job, ()).is_err() {
                break;
            }
        }
        // A failure only ends the proofs: the proved set says which passed.
        let _ = queue.flush();
        let proved = queue.into_proved();
        let proven = |(key, fingerprint)| proved.contains(&fingerprint).then_some(key);
        queued.into_iter().map(|job| job.and_then(proven)).collect()
    }

    /// Validate and apply one ledger segment, updating the frontiers
    /// incrementally. **Atomic**: on any error the segment's partial
    /// effects (evidence appends, execution state) are rolled back before
    /// the error propagates, so a paged sync can fail over to another
    /// server with a clean applied prefix. `proven`: the key the
    /// pre-pass proved a batch's pre-prepare signature under, if any.
    fn replay_segment(
        &mut self,
        seg: &Segment<'_>,
        proven: Option<&PublicKey>,
    ) -> Result<(), BootstrapError> {
        match seg {
            Segment::Genesis { .. } => {
                Err(BootstrapError::Malformed("unexpected genesis".into()))
            }
            Segment::ViewChange { view_changes, nv, .. } => {
                // The pair sits where the next batch would, so it is held
                // to the rule under that position's configuration — the
                // rule a backup held the new-view to — and logged by the
                // same writer (a pair already in the ledger is a no-op).
                let refused = |why| BootstrapError::BadNewView(nv.view, why);
                let config = self.config_for_seq(self.seq_next);
                check_new_view(config, nv, view_changes).map_err(refused)?;
                self.log_new_view(nv.view, view_changes.to_vec(), Some(nv)).map_err(refused)?;
                Ok(())
            }
            Segment::Batch(BatchSegment { evidence, pp, txs, .. }) => {
                let seq = pp.seq();
                // The primary's signature under the batch's configuration
                // as it stands now — before any state is touched. A proof
                // under another key (the configuration changed since the
                // pre-pass) is checked again, singly.
                if !signed_by_view_primary(self.config_for_seq(seq), pp, proven) {
                    return Err(BootstrapError::BadPrePrepareSig(seq));
                }

                // What the batch records, held to the auditor's rules before
                // anything is touched: the evidence pair (one for a batch
                // below a checkpoint seed moves nothing), then the run.
                let (config_at, held) = (|s| self.config_for_seq(s), |t| self.prepared_pp(t));
                let cert = match recorded_evidence(pp, *evidence, config_at, held) {
                    Ok(Evidenced::Certified(cert)) => Some(cert),
                    Ok(Evidenced::Nothing) => None,
                    Ok(Evidenced::Unheld(target)) if target <= self.committed_up_to => None,
                    Ok(Evidenced::Unheld(_)) => {
                        return Err(BootstrapError::BadEvidence(seq, EvidenceError::WrongTarget))
                    }
                    Err((_, why)) => return Err(BootstrapError::BadEvidence(seq, why)),
                };
                let (names, tree) =
                    recorded_run(pp, *txs).ok_or(BootstrapError::ExecutionMismatch(seq))?;

                // Taken in as a backup takes a batch: its bodies under the
                // names the rule hashed, the certificate beside the pair it
                // proves (which links the target's governance transactions,
                // as live). An accepted segment's bodies live on in this
                // replica's ledger only.
                let certified = cert.as_ref().map(|cert| cert.core.seq);
                let evidence = evidence.map(|pair| EvidenceSet {
                    seq: pp.core.evidence_seq,
                    prepares: pair.prepares.to_vec(),
                    nonces: pair.nonces.to_vec(),
                    cert: cert.map(|cert| *cert),
                });
                let requests = txs.iter().map(|tx| tx.request.clone()).collect();
                let known = Known::Recorded { run: *txs, tree };
                self.apply_proposed(PrePrepare::clone(pp), names, requests, evidence, known)
                    .map_err(|_| BootstrapError::ExecutionMismatch(seq))?;

                // Frontiers: a replayed batch is prepared; evidence that
                // passed the rule marks its target committed. We did not
                // participate, so we hold no nonces for these slots — the
                // evidence-fetch path covers gaps.
                self.prepared_up_to = self.prepared_up_to.max(seq);
                if let Some(target) = certified {
                    if target > self.committed_up_to {
                        self.committed_up_to = target;
                        let p = self.pipeline_depth();
                        self.raise_rollback_floor(SeqNum(target.0.saturating_sub(p)));
                    }
                }
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Paged state transfer (requester side).
    // ------------------------------------------------------------------

    /// Start a full recovery sync from `server`: query the cluster tip,
    /// optionally restore an `f + 1`-pinned checkpoint, then request
    /// pages from the first sequence number this replica has not
    /// applied, replay them incrementally, and fail over to other
    /// replicas on timeout or misbehaviour. While the sync runs the
    /// replica processes only sync responses (state transfer, not
    /// consensus). Returns the outputs to route (the tip query
    /// broadcast). Called on a freshly built or restarted replica: the
    /// sync is entered from normal operation and left to it.
    pub fn begin_ledger_sync(&mut self, server: ReplicaId) -> Vec<Output> {
        debug_assert!(matches!(self.status, Status::Normal), "sync from {:?}", self.status);
        self.sync_report = SyncReport::default();
        self.status = Status::Recovery(LedgerSyncState {
            server,
            tried: BTreeSet::new(),
            verified_tip: None,
            last_page_tick: self.tick,
            phase: Phase::TipQuery { claims: BTreeMap::new() },
        });
        self.broadcast_tip_query();
        std::mem::take(&mut self.out)
    }

    /// The active-configuration peers a sync can talk to.
    fn sync_peers(&self) -> Vec<ReplicaId> {
        let config = self.gov.active();
        (0..config.n())
            .filter_map(|rank| config.replica_at_rank(rank).map(|r| r.id))
            .filter(|id| *id != self.id)
            .collect()
    }

    /// (Re-)broadcast the tip query to every active peer.
    fn broadcast_tip_query(&mut self) {
        if let Status::Recovery(state) = &mut self.status {
            state.last_page_tick = self.tick;
        }
        for id in self.sync_peers() {
            self.send_replica(id, ProtocolMsg::FetchLedgerTip);
        }
    }

    /// One `LedgerTipResponse` arrived during the tip-query phase. Only
    /// the configuration's peers vote: a claim from any other replica id —
    /// authenticated or not — would let `f` liars and outsiders together
    /// pin a forged offer or raise the tip floor.
    pub(crate) fn on_ledger_tip(
        &mut self,
        sender: ReplicaId,
        tip: SeqNum,
        offer: Option<CheckpointPin>,
    ) {
        let peers = self.sync_peers();
        if !peers.contains(&sender) {
            return;
        }
        let Status::Recovery(LedgerSyncState { phase: Phase::TipQuery { claims }, .. }) =
            &mut self.status
        else {
            return;
        };
        claims.insert(sender, (tip, offer));
        if claims.len() >= peers.len() {
            self.finalize_tip_phase();
        }
    }

    /// Close the tip-query phase: pin the verified tip, pick the
    /// checkpoint fast-path if `f + 1` replies agree on one, else start
    /// paging. No-op until `f + 1` claims are in (the tick timeout
    /// re-broadcasts).
    fn finalize_tip_phase(&mut self) {
        let f = self.gov.active().f();
        let fresh = self.seq_next == SeqNum(1);
        let Status::Recovery(state) = &mut self.status else {
            return;
        };
        let Phase::TipQuery { claims } = &state.phase else {
            return;
        };
        let mut tips: Vec<SeqNum> = claims.values().map(|(tip, _)| *tip).collect();
        if tips.len() < f + 1 {
            return;
        }
        // The (f+1)-th largest claim: at most f liars can sit above it,
        // so at least one honest replica committed this far. Liars
        // under-claiming only lower the floor (benign — the per-server
        // `done` checks still apply); they cannot raise it.
        tips.sort_unstable_by(|a, b| b.cmp(a));
        state.verified_tip = Some(tips[f]);
        // Checkpoint fast-path: only for a fresh recoveree (a replica
        // with an applied prefix keeps it and pages the remainder), and
        // only when f + 1 replies pin the *same* (seq, kv digest, tree
        // root) — then at least one honest replica holds exactly this
        // agreed checkpoint. Highest such seq wins.
        let mut best: Option<CheckpointPin> = None;
        if fresh {
            let offers: Vec<CheckpointPin> = claims.values().filter_map(|(_, o)| *o).collect();
            for pin in &offers {
                let votes = offers.iter().filter(|o| *o == pin).count();
                if votes > f && best.is_none_or(|b| pin.seq > b.seq) {
                    best = Some(*pin);
                }
            }
        }
        let Some(pin) = best else {
            let server = state.server;
            return self.start_paging(server, false);
        };
        // Fetch from a replica that actually claimed this offer (prefer
        // the current server).
        let claimed = |id: &ReplicaId| claims.get(id).is_some_and(|(_, o)| *o == Some(pin));
        let server = if claimed(&state.server) {
            state.server
        } else {
            *claims.keys().find(|id| claimed(id)).expect("f+1 > 0 claimers")
        };
        state.server = server;
        state.phase = Phase::Checkpoint { pin };
        state.last_page_tick = self.tick;
        self.send_replica(server, ProtocolMsg::FetchCheckpoint { seq: pin.seq });
    }

    /// One `FetchCheckpointResponse` arrived during the checkpoint phase.
    pub(crate) fn on_checkpoint_payload(
        &mut self,
        sender: ReplicaId,
        seq: SeqNum,
        payload: Option<CheckpointPayload>,
    ) {
        let Status::Recovery(LedgerSyncState { server, phase: Phase::Checkpoint { pin }, .. }) =
            self.status
        else {
            return;
        };
        if server != sender {
            return;
        }
        if let Some(p) = &payload {
            self.sync_report.bytes += (p.kv_bytes.len() + p.frontier.len()) as u64
                + p.seed_entries.iter().map(|e| e.len() as u64).sum::<u64>();
        }
        if seq != pin.seq {
            return self.sync_failover("checkpoint payload for a different seq");
        }
        let Some(payload) = payload else {
            // Honest refusal (the record aged out, or the server cannot
            // vouch for a single-configuration history): page from
            // genesis on the same server.
            return self.start_paging(server, false);
        };
        // The genesis entry rides into the persisted seed: a seeded
        // restart must rebuild the service configuration and `H(gt)`
        // without a ledger prefix. Captured before the suffix ledger
        // replaces the full one.
        let genesis_entry = self.ledger.entry(LedgerIdx(0)).map(Wire::to_bytes);
        if let Err(why) = self.verify_and_restore_checkpoint(&pin, &payload) {
            return self.sync_failover(&format!("checkpoint rejected: {why}"));
        }
        self.sync_report.checkpoint_seed = Some(pin.seq);
        self.note_progress();
        // A durable replica persists what it just verified so its *next*
        // crash restarts locally (a local seeded restart runs with
        // `data_dir` unset, so this never re-persists its own input).
        if let Some(genesis_entry) = genesis_entry {
            self.persist_checkpoint_seed(SeedCheckpointFile { pin, genesis_entry, payload });
        }
        self.start_paging(server, false);
    }

    /// Verify a checkpoint payload against its pin and the checkpoint
    /// batch's signed pre-prepare, then restore: the KV store becomes the
    /// snapshot, the ledger becomes a suffix ledger seeded with the
    /// frontier plus the checkpoint batch's own entries, and the protocol
    /// frontiers move to the checkpoint's sequence number. Paged replay
    /// then covers only the suffix. The one restore, whether the pair came
    /// from `f + 1` peers or from the local seed file.
    ///
    /// Nothing mutates until every check has passed, so a rejected
    /// payload leaves the recoveree exactly where it was (free to fail
    /// over or fall back to genesis replay).
    pub(crate) fn verify_and_restore_checkpoint(
        &mut self,
        pin: &CheckpointPin,
        payload: &CheckpointPayload,
    ) -> Result<(), &'static str> {
        let record = CheckpointRecord::pinned(pin, payload)?;
        // The seed is the checkpoint batch's own [pre-prepare, tx*] run —
        // the record's (ledger_len, frontier) were captured just before
        // these entries were appended, so the restored ledger needs them
        // to end exactly at the checkpointed execution state.
        let mut decoded = Vec::with_capacity(payload.seed_entries.len());
        for bytes in &payload.seed_entries {
            decoded.push(LedgerEntry::from_bytes(bytes).map_err(|_| "undecodable seed entry")?);
        }
        let Some((LedgerEntry::PrePrepare(pp), tail)) = decoded.split_first() else {
            return Err("seed does not start with the checkpoint pre-prepare");
        };
        if pp.seq() != pin.seq {
            return Err("seed pre-prepare is not the checkpoint batch");
        }
        // The pinned tree root doubles as the batch's pre-state root: the
        // checkpoint frontier was captured at the same instant root_m was,
        // chaining the snapshot to the signed history.
        if pp.core.root_m != pin.tree_root {
            return Err("seed pre-prepare root_m differs from the pinned root");
        }
        // Signature under the active configuration (the fast-path is
        // only offered for single-configuration histories).
        if !signed_by_view_primary(self.gov.active(), pp, None) {
            return Err("seed pre-prepare signature invalid");
        }
        // The transaction run must carry contiguous indices ending at the
        // checkpoint's counter, and must build the signed Ḡ (the rule
        // replay and the auditor apply to every recorded run).
        let txs =
            TxRun::whole(tail).ok_or("seed entry after the pre-prepare is not a transaction")?;
        let base_index = record
            .next_tx_index
            .checked_sub(txs.len() as u64)
            .ok_or("seed transaction count exceeds the index counter")?;
        if !txs.iter().zip(base_index..).all(|(tx, index)| tx.index.0 == index) {
            return Err("seed transaction indices not contiguous");
        }
        let (names, _) =
            recorded_run(pp, txs).ok_or("seed transaction run does not reproduce Ḡ")?;

        // ---- everything verified: restore ----
        let (view, pp_digest) = (pp.view(), pp.digest());
        self.kv.restore(&record.kv);
        let mut ledger = Ledger::from_checkpoint(record.ledger_len, record.frontier.clone());
        for entry in decoded {
            ledger.append(entry);
        }
        self.ledger = ledger;
        self.next_tx_index = record.next_tx_index;
        self.seq_next = pin.seq.next();
        self.prepared_up_to = pin.seq;
        self.committed_up_to = pin.seq;
        // The snapshot holds no undo state below the checkpoint.
        self.raise_rollback_floor(pin.seq);
        self.view = view.max(self.view);
        // The checkpoint batch is in the ledger without having executed
        // here: its requests get the bookkeeping of any appended batch, and
        // its bodies are the ledger's.
        self.requests.appended(&names);
        self.msgs.set_pp_digest(pin.seq, view, pp_digest);
        // The restored record is this replica's own checkpoint at `seq`:
        // the in-band mark batch at `seq + C` validates against it while
        // the suffix replays, and later audits can start from it.
        self.checkpoints.insert(record, self.checkpoint_interval());
        Ok(())
    }

    /// Swap the durable directory to the seeded layout around a
    /// just-verified checkpoint restore. Ordered for crash safety: the
    /// seed file lands first (a crash here leaves the intact base-0 run,
    /// which a restart prefers), then the pre-crash prefix segments
    /// retire into `archive/`, then the suffix manifest commits the new
    /// layout and the empty suffix run attaches — the attach reconcile
    /// writes the seed batch's entries as its first bytes. Best-effort:
    /// any failure detaches durability with the one-shot warning instead
    /// of failing the restore (the replica is already correct in
    /// memory; safety rests on the quorum).
    fn persist_checkpoint_seed(&mut self, file: SeedCheckpointFile) {
        let Some(dir) = self.params.data_dir.clone() else {
            return;
        };
        let fsync = self.params.fsync_interval_batches;
        let roll = self.params.resolved_durable_roll_bytes();
        let base = file.payload.ledger_len;
        let result = (|| -> std::io::Result<()> {
            file.write_atomic(&dir)?;
            // The replaced ledger (and its open segment file handles)
            // was dropped when the suffix ledger took its place, so the
            // renames below never race an open mirror.
            ia_ccf_ledger::DurableLog::retire_to_archive(&dir, base)?;
            let log = ia_ccf_ledger::DurableLog::create_suffix(&dir, fsync, roll, base)?;
            self.ledger.attach_durable(log).map_err(std::io::Error::other)
        })();
        if let Err(e) = result {
            self.ledger.note_durability_lost(&format!("checkpoint seed persistence: {e}"));
        }
    }

    /// Counters of the most recent (or running) ledger sync.
    pub fn sync_report(&self) -> SyncReport {
        self.sync_report
    }

    /// Ask the current server for the next page.
    fn request_sync_page(&mut self) {
        let Status::Recovery(state) = &mut self.status else {
            return;
        };
        let Phase::Paging { .. } = state.phase else {
            return;
        };
        state.last_page_tick = self.tick;
        let server = state.server;
        let max_bytes = self.params.effective_sync_page_bytes();
        let from_seq = self.seq_next;
        self.send_replica(server, ProtocolMsg::FetchLedgerPage { from_seq, max_bytes });
    }

    /// Page from `server`, starting at the first batch this replica has
    /// not applied — the applied prefix is verified and never re-fetched.
    /// A `paused` start waits out one timeout before its first request.
    fn start_paging(&mut self, server: ReplicaId, paused: bool) {
        let Status::Recovery(state) = &mut self.status else {
            return;
        };
        state.server = server;
        state.last_page_tick = self.tick;
        state.phase = Phase::Paging { rolled_back_at: None, paused };
        if !paused {
            self.request_sync_page();
        }
    }

    /// Liveness check, called every tick while a sync is active: a server
    /// that has not produced a page within the timeout is abandoned; a
    /// paused sync (every peer failed) re-enters the rotation instead.
    pub(crate) fn sync_tick(&mut self) {
        let Status::Recovery(state) = &mut self.status else {
            return;
        };
        if self.tick.saturating_sub(state.last_page_tick) <= self.params.sync_timeout_ticks {
            return;
        }
        match &mut state.phase {
            // Enough claims to pin a floor? Proceed with what arrived;
            // otherwise ask again (peers may still be starting up).
            Phase::TipQuery { claims } if claims.len() > self.gov.active().f() => {
                self.finalize_tip_phase()
            }
            Phase::TipQuery { .. } => self.broadcast_tip_query(),
            Phase::Paging { paused, .. } if *paused => {
                *paused = false;
                self.request_sync_page();
            }
            _ => self.sync_failover("page timeout"),
        }
    }

    /// One `FetchLedgerPageResponse` arrived: the page is replayed whole
    /// and must leave the applied frontier at its continuation token.
    pub(crate) fn on_ledger_page(
        &mut self,
        sender: ReplicaId,
        entries: Vec<Vec<u8>>,
        next_seq: SeqNum,
        done: bool,
    ) {
        // No sync running, or a stale page while querying the tip or a
        // checkpoint: ignore it.
        let Status::Recovery(LedgerSyncState { server, phase: Phase::Paging { .. }, .. }) =
            self.status
        else {
            return;
        };
        if server != sender {
            return; // page from an abandoned server
        }
        self.sync_report.pages += 1;
        self.sync_report.bytes += entries.iter().map(|e| e.len() as u64).sum::<u64>();

        // A page must be decodable and must progress: a non-final page
        // with no entries, or a continuation that fails to advance (or
        // goes backwards), is a stalled or hostile server.
        let from_seq = self.seq_next;
        if next_seq < from_seq || (!done && (entries.is_empty() || next_seq <= from_seq)) {
            return self.sync_failover("page does not progress");
        }
        let mut decoded = Vec::with_capacity(entries.len());
        for bytes in &entries {
            match LedgerEntry::from_bytes(bytes) {
                Ok(e) => decoded.push(e),
                Err(_) => return self.sync_failover("undecodable ledger entry"),
            }
        }
        if let Status::Recovery(LedgerSyncState {
            last_page_tick,
            phase: Phase::Paging { paused, .. },
            ..
        }) = &mut self.status
        {
            *last_page_tick = self.tick;
            *paused = false;
        }

        // Replay the page, then hold it to its token: a server whose page
        // stops short of (or runs past) the continuation it advertises —
        // truncated entries, a forged token — is abandoned like any other
        // misbehaviour.
        let base = self.ledger.len() as usize; // nonzero ⇒ genesis rejected
        if let Err(e) = self.replay_entries(&decoded, base) {
            return self.sync_diverged(&e);
        }
        if self.seq_next != next_seq {
            return self.sync_failover("page short of its continuation");
        }
        if !done {
            return self.request_sync_page();
        }
        // The applied frontier must also pass the f+1-verified cluster
        // tip: a lying server that advertises an early `done` (with a
        // self-consistent continuation token) would otherwise freeze
        // this replica short of the real history.
        let Status::Recovery(LedgerSyncState { verified_tip, .. }) = self.status else {
            return;
        };
        if verified_tip.is_some_and(|t| self.seq_next <= t) {
            return self.sync_failover("done short of verified cluster tip");
        }
        self.status = Status::Normal;
        self.sync_report.complete = true;
        self.note_progress();
        // Close the commit gap: the synced tail is prepared but its
        // evidence lags by the pipeline depth; fetch the prepare/commit
        // messages so the committed frontier catches up (§3.1 gap fill).
        for s in self.committed_up_to.0 + 1..=self.prepared_up_to.0 {
            self.send_replica(server, ProtocolMsg::FetchEvidence { seq: SeqNum(s) });
        }
    }

    /// A replayed segment failed verification. The benign cause is a view
    /// change that landed mid-transfer: the server rolled back and
    /// re-proposed the uncommitted tail, so its stream no longer extends
    /// the tail *we* applied from earlier pages. Roll our own
    /// uncommitted tail back to the committed frontier (Lemma 1 rollback
    /// — partially-applied state is never left corrupt) and resume; if
    /// the mismatch repeats at the same continuation point the server
    /// itself is at fault and the sync fails over.
    fn sync_diverged(&mut self, err: &BootstrapError) {
        let token = self.committed_up_to.next();
        let can_roll_back = self.seq_next > token;
        let already = matches!(
            self.status,
            Status::Recovery(LedgerSyncState {
                phase: Phase::Paging { rolled_back_at: Some(t), .. }, ..
            }) if t == token
        );
        if !can_roll_back || already {
            return self.sync_failover(&format!("replay failed: {err}"));
        }
        self.sync_report.tail_rollbacks += 1;
        if crate::replica::debug_enabled() {
            eprintln!(
                "[{}] sync: replay diverged ({err}); rolling uncommitted tail back to {}",
                self.id, self.committed_up_to
            );
        }
        let committed = self.committed_up_to;
        self.reset_to_seq(committed);
        if let Status::Recovery(LedgerSyncState {
            phase: Phase::Paging { rolled_back_at, .. }, ..
        }) = &mut self.status
        {
            *rolled_back_at = Some(token);
        }
        self.request_sync_page();
    }

    /// Abandon the current server and page from the next replica of the
    /// active configuration. A failed checkpoint fetch (or any
    /// misbehaviour mid-phase) falls back to paged replay; the verified
    /// tip survives. The fast-path is not retried: paging is the
    /// always-available stronger check. The sync cycles forever (a
    /// recovering replica has nothing better to do): once every peer has
    /// been tried the slate is cleared and the rotation restarts after one
    /// timeout of backoff — in a two-replica cluster the sole peer must be
    /// retried rather than the sync silently dying, and the pause keeps a
    /// cluster-wide outage at one request per timeout, not a storm.
    fn sync_failover(&mut self, why: &str) {
        let peers = self.sync_peers();
        let Status::Recovery(state) = &mut self.status else {
            return;
        };
        self.sync_report.failovers += 1;
        if crate::replica::debug_enabled() {
            eprintln!("[{}] sync: abandoning server {} ({why})", self.id, state.server);
        }
        let current = state.server;
        state.tried.insert(current);
        let untried = peers.iter().find(|id| !state.tried.contains(id));
        let paused = untried.is_none();
        if paused {
            state.tried.clear();
        }
        let next = untried.or_else(|| peers.iter().find(|id| **id != current)).or(peers.first());
        if let Some(&next) = next {
            self.start_paging(next, paused);
        }
    }
}

#[cfg(test)]
mod tests {
    use ia_ccf_crypto::batch::verify_chunks;
    use ia_ccf_ledger::segment::{segment_entries, Segment};
    use ia_ccf_types::{Digest, LedgerEntry, SeqNum};

    use super::BootstrapError;
    use crate::params::ProtocolParams;
    use crate::replica::Replica;
    use crate::test_bus::Bus;


    /// `entries` with one bit flipped in the pre-prepare signature of each
    /// segment listed in `forged` (every segment a batch of its own seq).
    fn forge(entries: &[LedgerEntry], segs: &[Segment<'_>], forged: &[usize]) -> Vec<LedgerEntry> {
        let mut out = entries.to_vec();
        for &k in forged {
            let Segment::Batch(batch) = segs[k] else { panic!("not a batch segment") };
            let seq = batch.pp.seq();
            let pp = out.iter_mut().find_map(|e| match e {
                LedgerEntry::PrePrepare(pp) if pp.seq() == seq => Some(pp),
                _ => None,
            });
            pp.expect("its pre-prepare").sig.0[0] ^= 1;
        }
        out
    }

    /// A replay's verdict, and the ledger length and ordered requests it
    /// left behind.
    type Outcome = (Result<(), BootstrapError>, u64, Vec<Digest>);

    fn outcome(replica: &Replica, verdict: Result<(), BootstrapError>) -> Outcome {
        assert_eq!(replica.requests.pending_len(), 0, "replay keeps no body");
        let mut ordered: Vec<Digest> = replica.requests.ordered().copied().collect();
        ordered.sort_unstable();
        (verdict, replica.ledger.len(), ordered)
    }

    /// Replay trims undo and receipt state as live commit does: a replica
    /// that replayed a ledger holds no more executed batches and rollback
    /// marks than the live replica whose ledger it replayed. The live
    /// replica stops with two batches prepared and uncommitted, so the
    /// ledger records its whole committed frontier.
    #[test]
    fn replay_holds_no_more_undo_state_than_the_live_replica() {
        let mut bus = Bus::new(1);
        for _ in 0..80 {
            bus.submit();
        }
        bus.run_until_committed(SeqNum(80));
        bus.drop_if = Some(crate::test_bus::commits);
        bus.submit();
        bus.submit();
        for _ in 0..3 {
            bus.round();
        }
        let live = &bus.replicas[0];
        assert_eq!((live.committed_up_to, live.seq_next), (SeqNum(80), SeqNum(83)));

        let mut replayed = bus.spare(live.params.clone());
        replayed.replay_entries(&live.ledger.entries()[1..], 1).expect("an honest ledger");
        assert_eq!(replayed.committed_up_to, live.committed_up_to);
        let held = |r: &Replica| (r.batch_exec.range(..).count(), r.batch_marks.len());
        let (exec, marks) = held(&replayed);
        let (live_exec, live_marks) = held(live);
        assert!(exec <= live_exec, "{exec} executed batches held, live {live_exec}");
        assert!(marks <= live_marks, "{marks} rollback marks held, live {live_marks}");
    }

    /// Wherever forgeries sit against the pre-pass's chunks and windows, a
    /// replay gives what one segment at a time with a single check each
    /// gave: the same `BadPrePrepareSig` at the same seq, the same prefix
    /// applied and the same requests ordered. Every job fits one window of the
    /// queue; on four workers it is cut into two chunks (`verify_chunks`),
    /// on one it is checked whole.
    #[test]
    fn replay_refuses_where_single_checks_refuse() {
        let mut bus = Bus::new(1);
        for _ in 0..60 {
            bus.submit();
        }
        bus.run_until_committed(SeqNum(60));
        let ledger = bus.replicas[0].ledger.entries()[1..].to_vec();
        let segs = segment_entries(&ledger, 1).expect("an honest ledger segments");
        assert!(segs.iter().all(|seg| matches!(seg, Segment::Batch(_))));
        let chunks: Vec<_> = verify_chunks(segs.len(), 4).collect();
        assert_eq!(chunks.len(), 2, "{} jobs", segs.len());
        let edge = chunks[1].start;

        let last = segs.len() - 1;
        let rows: [(&str, Vec<usize>); 6] = [
            ("honest", vec![]),
            ("the first segment", vec![0]),
            ("one past the first chunk", vec![edge]),
            ("the last segment of the page", vec![last]),
            ("two forgeries, the earlier wins", vec![edge + 2, 3]),
            ("honest segments sharing the forgery's failed chunk replay", vec![edge - 1]),
        ];
        for threads in [1, 4] {
            let params = ProtocolParams { pool_threads: threads, ..bus.replicas[0].params.clone() };
            for (row, forged) in &rows {
                let entries = forge(&ledger, &segs, forged);
                let mut subject = bus.spare(params.clone());
                let verdict = subject.replay_entries(&entries, 1);
                let got = outcome(&subject, verdict);
                // The rule before the pre-pass: one segment at a time, each
                // pre-prepare checked singly.
                let mut reference = bus.spare(params.clone());
                let forged_segs = segment_entries(&entries, 1).expect("a forgery segments");
                let verdict =
                    forged_segs.iter().try_for_each(|seg| reference.replay_segment(seg, None));
                assert_eq!(got, outcome(&reference, verdict), "{row}, {threads} threads");
                let first = forged.iter().min().map(|&k| match segs[k] {
                    Segment::Batch(batch) => batch.pp.seq(),
                    _ => panic!("not a batch segment"),
                });
                let want = first.map_or(Ok(()), |s| Err(BootstrapError::BadPrePrepareSig(s)));
                assert_eq!(got.0, want, "{row}, {threads} threads");
            }
        }
    }
}
