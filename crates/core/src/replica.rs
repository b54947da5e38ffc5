//! The L-PBFT replica — shared state and stage dispatch.
//!
//! Normal-case operation (Alg. 1) is the staged pipeline in
//! [`crate::pipeline`]: [`crate::pipeline::admission`] verifies and
//! queues requests, [`crate::pipeline::ordering`] runs the
//! pre-prepare/prepare/commit quorum machinery,
//! [`crate::pipeline::execution`] early-executes batches and keeps their
//! rollback marks, and [`crate::pipeline::emission`] produces replies and
//! receipts. View changes live in [`crate::viewchange`], reconfiguration
//! in [`crate::reconfig`]; all of them are `impl Replica` blocks over the
//! state defined here.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use ia_ccf_crypto::hash_bytes;
use ia_ccf_governance::chain::GovLink;
use ia_ccf_governance::GovernanceState;
use ia_ccf_kv::KvStore;
use ia_ccf_ledger::Ledger;
use ia_ccf_types::{
    receipt_checkpoint_seq, ClientId, ConfigSteps, Configuration, Digest, LedgerEntry, LedgerIdx,
    PrePrepare, ProtocolMsg, PublicKey, ReplicaId, SeqNum, Signature, SignedRequest, View, Wire,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::app::App;
use crate::bootstrap::LedgerSyncState;
use crate::checkpoint::{CheckpointRecord, CheckpointStore};
use crate::events::{Input, NodeId, Output};
use crate::msgstore::MsgStore;
use crate::params::ProtocolParams;
use crate::pipeline::exec_window::ExecWindow;
use crate::pipeline::request_pool::RequestPool;
use crate::pipeline::BatchMark;

/// The mode a replica is in; [`Replica::handle`] dispatches on it once.
/// docs/ARCHITECTURE.md §1.7 lists each transition with the one function
/// that makes it.
#[derive(Debug)]
pub(crate) enum Status {
    /// Ordering batches in `view` (Alg. 1).
    Normal,
    /// Moved to `view` and waiting for its new-view (Alg. 2): takes no
    /// pre-prepare and proposes nothing.
    ViewChange,
    /// Replaying a fetched ledger before rejoining (§3.4): a state-transfer
    /// client, not a consensus participant. Entered from and left to
    /// `Normal`.
    Recovery(LedgerSyncState),
    /// Left the configuration once the switch batch that removed it
    /// committed (§5.1). One-way: takes no further input.
    Retired,
}

/// The L-PBFT replica. Construct with [`Replica::new`], drive with
/// [`Replica::handle`].
pub struct Replica {
    // Identity.
    pub(crate) id: ReplicaId,
    pub(crate) keypair: ia_ccf_crypto::KeyPair,
    pub(crate) params: ProtocolParams,

    // Governance / configuration.
    pub(crate) gov: GovernanceState,
    /// Copy-on-write mirror of `gov` for O(1) rollback marks: refreshed
    /// whenever `gov` mutates (governance execution, activation,
    /// rollback), cheaply `Arc`-cloned into every [`BatchMark`].
    pub(crate) gov_snapshot: Arc<GovernanceState>,
    pub(crate) client_keys: HashMap<ClientId, PublicKey>,

    // Protocol state.
    pub(crate) view: View,
    pub(crate) status: Status,
    pub(crate) seq_next: SeqNum,
    pub(crate) prepared_up_to: SeqNum,
    pub(crate) committed_up_to: SeqNum,

    /// The requests this replica holds outside its ledger, and the names
    /// it has ordered (see [`crate::pipeline::request_pool`]).
    pub(crate) requests: RequestPool,

    /// The votes on each batch, this replica's nonce among them.
    pub(crate) msgs: MsgStore,
    pub(crate) rng: StdRng,

    // Execution state.
    pub(crate) kv: KvStore,
    /// Persistent worker pool carrying every parallel hot path: batched
    /// client-signature verification and its cross-batch prewarm. A local
    /// knob — nothing scheduled on it may influence consensus-visible
    /// bytes. `Arc` so verification work can be handed to the pool's own
    /// workers while the replica keeps executing.
    pub(crate) pool: Arc<ia_ccf_pool::WorkerPool>,
    /// In-flight cross-batch signature verification: pre-prepare *n+1*'s
    /// client signatures verify on the pool while batch *n* executes on
    /// the replica thread; harvested at the next batch's admission
    /// (`harvest_prewarm`). Caches only pure facts (which signatures are
    /// valid), so timing can never leak into consensus state.
    pub(crate) prewarm_verify: Option<crate::pipeline::admission::PendingVerify>,
    pub(crate) app: Arc<dyn App>,
    pub(crate) ledger: Ledger,
    pub(crate) gt_hash: Digest,
    /// Logical transaction index counter (assigned to `⟨t, i, o⟩`;
    /// independent of physical entry positions so view-change re-execution
    /// reproduces identical entries — see docs/ARCHITECTURE.md §1.3).
    pub(crate) next_tx_index: u64,
    pub(crate) last_gov_index: LedgerIdx,
    /// Executed batches, shared behind `Arc`, and the `tx_hash → (seq,
    /// pos)` re-fetch locator over them: emission, governance receipts and
    /// re-fetch serving read them without deep clones. Only its own
    /// methods insert or drop a batch (see [`crate::pipeline::exec_window`]).
    pub(crate) batch_exec: ExecWindow,
    /// Rollback marks of the batches above `rollback_floor`.
    pub(crate) batch_marks: BTreeMap<SeqNum, BatchMark>,
    /// Batches at or below this never roll back. Raised, and every holder
    /// of undo state trimmed to it, only by `raise_rollback_floor`; it
    /// never goes down.
    pub(crate) rollback_floor: SeqNum,

    // Checkpoints.
    pub(crate) checkpoints: CheckpointStore,

    /// The governance sub-ledger served to clients (§5.2), in ledger
    /// order: the links each carrier's evidence pair proves, appended as
    /// the carrier enters the ledger and cut with it on a rollback —
    /// exactly what a replay of the ledger yields.
    pub(crate) gov_chain: Vec<GovLink>,

    /// The reconfiguration schedule (§5.1). A schedule, not a mode: it
    /// outlives view changes, re-proposed batches are checked against it,
    /// and ledger replay rebuilds it.
    pub(crate) reconfig: Option<crate::reconfig::ReconfigState>,
    /// Configuration history: first sequence number governed by each
    /// configuration (genesis at 0). Evidence bitmaps are interpreted
    /// under the configuration of the *evidenced* sequence number; a
    /// rollback trims it with the batches it undoes.
    pub(crate) config_first_seq: ConfigSteps<SeqNum>,

    /// Counters of the most recent paged state transfer (see
    /// `crate::bootstrap`; the transfer's own state is `Status::Recovery`).
    pub(crate) sync_report: crate::bootstrap::SyncReport,

    // Stashed pre-prepares waiting for their slot, request bodies or
    // evidence, each with the key its signature was proven under (`None`
    // when stashed before the check).
    pub(crate) stashed_pps: Vec<(PrePrepare, Vec<Digest>, Option<PublicKey>)>,

    // Timers.
    pub(crate) tick: u64,
    pub(crate) last_progress_tick: u64,
    pub(crate) last_pp_tick: u64,

    // Outputs being accumulated this turn.
    pub(crate) out: Vec<Output>,
}

/// Why [`Replica::new`] could not claim its durable data directory. A
/// replica constructed without `params.data_dir` cannot fail.
#[derive(Debug)]
pub enum ReplicaInitError {
    /// `params.data_dir` already holds durable state (segment files, a
    /// suffix manifest, or a seed checkpoint) from a previous replica
    /// instance. Claiming it would silently destroy that history;
    /// restart from the state via [`Replica::restart_from_dir`].
    DataDirNotEmpty(std::path::PathBuf),
    /// Opening or writing the durable directory failed.
    Io(std::io::Error),
    /// The freshly opened log could not attach to the genesis ledger.
    Attach(ia_ccf_ledger::AttachError),
}

impl std::fmt::Display for ReplicaInitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaInitError::DataDirNotEmpty(dir) => write!(
                f,
                "data directory {} holds durable state from a previous replica \
                 (use restart_from_dir)",
                dir.display()
            ),
            ReplicaInitError::Io(e) => write!(f, "durable data directory: {e}"),
            ReplicaInitError::Attach(e) => write!(f, "durable ledger attach: {e}"),
        }
    }
}

impl std::error::Error for ReplicaInitError {}

impl Replica {
    /// A replica starting from genesis. Fallible only when
    /// `params.data_dir` is set: claiming the directory refuses existing
    /// durable state.
    pub fn new(
        id: ReplicaId,
        keypair: ia_ccf_crypto::KeyPair,
        genesis: Configuration,
        app: Arc<dyn App>,
        params: ProtocolParams,
        client_keys: impl IntoIterator<Item = (ClientId, PublicKey)>,
    ) -> Result<Self, ReplicaInitError> {
        let ledger = Ledger::new(genesis.clone());
        let gt_hash = ledger.genesis_hash().expect("genesis present");
        let kv = KvStore::new();
        let mut checkpoints = CheckpointStore::default();
        // The genesis checkpoint: empty store at seq 0.
        let genesis_cp = CheckpointRecord {
            seq: SeqNum(0),
            kv: kv.checkpoint(),
            frontier: ledger.frontier(),
            ledger_len: ledger.len(),
            next_tx_index: 1,
        };
        checkpoints.insert(genesis_cp, genesis.checkpoint_interval);
        let seed = hash_bytes(&[gt_hash.as_ref(), &id.0.to_le_bytes()].concat());
        let gov = GovernanceState::new(genesis.clone());
        let pool = Arc::new(ia_ccf_pool::WorkerPool::new(params.resolved_pool_threads()));
        let mut replica = Replica {
            id,
            keypair,
            params,
            gov_snapshot: Arc::new(gov.clone()),
            gov,
            client_keys: client_keys.into_iter().collect(),
            view: View(0),
            status: Status::Normal,
            seq_next: SeqNum(1),
            prepared_up_to: SeqNum(0),
            committed_up_to: SeqNum(0),
            requests: RequestPool::default(),
            msgs: MsgStore::new(),
            rng: StdRng::from_seed(seed.0),
            kv,
            pool,
            prewarm_verify: None,
            app,
            ledger,
            gt_hash,
            next_tx_index: 1,
            last_gov_index: LedgerIdx(0),
            batch_exec: ExecWindow::default(),
            batch_marks: BTreeMap::new(),
            rollback_floor: SeqNum(0),
            checkpoints,
            gov_chain: Vec::new(),
            reconfig: None,
            config_first_seq: ConfigSteps::new(SeqNum(0), genesis),
            sync_report: Default::default(),
            stashed_pps: Vec::new(),
            tick: 0,
            last_progress_tick: 0,
            last_pp_tick: 0,
            out: Vec::new(),
        };
        // A data directory makes the ledger durable from the first
        // append. `new` *claims* the directory for a fresh history: a
        // directory already holding durable state is refused (silently
        // reconciling a previous instance's history down to genesis
        // destroys it). Restarting from existing state is
        // [`Replica::restart_from_dir`].
        if let Some(dir) = replica.params.data_dir.clone() {
            if ia_ccf_ledger::DurableLog::dir_is_occupied(&dir) {
                return Err(ReplicaInitError::DataDirNotEmpty(dir));
            }
            let (log, _existing) = ia_ccf_ledger::DurableLog::open_with_roll(
                &dir,
                replica.params.fsync_interval_batches,
                replica.params.resolved_durable_roll_bytes(),
            )
            .map_err(ReplicaInitError::Io)?;
            replica.ledger.attach_durable(log).map_err(ReplicaInitError::Attach)?;
        }
        Ok(replica)
    }

    /// Rebuild a crashed replica from its durable ledger directory
    /// (`params.data_dir`): open the segment files (the chunk-level
    /// torn-tail repair runs inside the open), pick the state the run
    /// continues from, cut a trailing segment whose second append the
    /// crash left off the disk (`closed_prefix`), replay the surviving
    /// run through the normal bootstrap verification, and re-attach the
    /// log so the repaired file tail matches the replayed state byte for
    /// byte. The replica then
    /// resumes — typically via [`Replica::begin_ledger_sync`], which pages
    /// only from its first missing batch (the applied prefix is never
    /// re-fetched).
    ///
    /// Two on-disk layouts restart, and they differ only in that base. A
    /// **full-history** directory (base-0 segments, no seed file) starts
    /// from the genesis entry its run opens with. A **seeded** directory —
    /// `checkpoint.cp` plus a suffix segment run whose manifest base equals
    /// the seed's ledger length — starts from the seed checkpoint, re-run
    /// through the verification chain a network fast-path would run, and
    /// leaves the paged sync to fetch just the batches past its durable
    /// frontier: the prefix costs zero network bytes.
    pub fn restart_from_dir(
        id: ReplicaId,
        keypair: ia_ccf_crypto::KeyPair,
        app: Arc<dyn App>,
        params: ProtocolParams,
        client_keys: impl IntoIterator<Item = (ClientId, PublicKey)>,
    ) -> Result<Replica, crate::bootstrap::BootstrapError> {
        use crate::bootstrap::BootstrapError;
        let Some(dir) = params.data_dir.clone() else {
            return Err(BootstrapError::Malformed(
                "restart_from_dir needs params.data_dir".into(),
            ));
        };
        let malformed = |what: &str, e: &dyn std::fmt::Display| {
            BootstrapError::Malformed(format!("{what}: {e}"))
        };
        let fsync = params.fsync_interval_batches;
        let roll = params.resolved_durable_roll_bytes();
        let (mut log, mut raw) = ia_ccf_ledger::DurableLog::open_with_roll(&dir, fsync, roll)
            .map_err(|e| malformed("durable log", &e))?;
        // A seed file next to a *non-empty base-0 run* means the crash
        // landed before the prefix retired; the full history is intact
        // and wins.
        let seed = crate::seedfile::SeedCheckpointFile::load(&dir)
            .map_err(|e| malformed("seed checkpoint", &e))?
            .filter(|_| log.base() != 0 || raw.is_empty());
        // Replay runs in memory; the held log attaches after, so replay
        // never double-writes the files it was read from (nor re-persists
        // the seed it was restored from).
        let mut boot_params = params;
        boot_params.data_dir = None;

        // Pick the base the run's entries continue from: the genesis entry
        // the run opens with, or the verified seed file.
        if seed.is_none() && log.base() != 0 {
            return Err(BootstrapError::Malformed(format!(
                "suffix segments at base {} without a seed checkpoint file",
                log.base()
            )));
        }
        let genesis_entry = match &seed {
            Some(seed) => LedgerEntry::from_bytes(&seed.genesis_entry).ok(),
            None => raw.first().cloned(),
        };
        let Some(LedgerEntry::Genesis { config: genesis }) = genesis_entry else {
            return Err(BootstrapError::NoGenesis);
        };
        let mut replica = Replica::new(id, keypair, genesis, app, boot_params, client_keys)
            .map_err(|e| malformed("replica init", &e))?;
        // How many leading entries of the run the base already covers.
        let covered = match seed {
            None => 1, // the genesis entry
            Some(seed) => {
                // `base == ledger_len` is the committed layout; an *empty*
                // base-0 log next to a seed file means the crash landed
                // after the prefix retired but before the manifest
                // committed — recreate the empty suffix run at the seed
                // point.
                if log.base() == 0 {
                    drop(log);
                    let base = seed.payload.ledger_len;
                    log = ia_ccf_ledger::DurableLog::create_suffix(&dir, fsync, roll, base)
                        .map_err(|e| malformed("durable log", &e))?;
                } else if log.base() != seed.payload.ledger_len {
                    return Err(BootstrapError::Malformed(format!(
                        "suffix log base {} does not match the seed checkpoint's ledger length {}",
                        log.base(),
                        seed.payload.ledger_len
                    )));
                }
                // The verified checkpoint restore — the one a
                // network-seeded recovery runs. The pin came from the
                // file; it was agreed in-band (through `f+1` matching
                // mark-batch offers) when the seed was persisted.
                replica
                    .verify_and_restore_checkpoint(&seed.pin, &seed.payload)
                    .map_err(|why| malformed("durable seed checkpoint rejected", &why))?;
                // The suffix run opens with the seed batch's own entries
                // (the attach reconcile wrote them at seed time). A disk
                // run that does not reproduce them byte for byte — or stops
                // short of them — is corruption or a torn reconcile: drop
                // the run entirely; the restored seed plus paged sync
                // re-covers it.
                let seed_entries = &seed.payload.seed_entries;
                let n = seed_entries.len();
                let matches = raw.len() >= n
                    && raw[..n].iter().zip(seed_entries).all(|(e, b)| &e.to_bytes() == b);
                if !matches {
                    log.truncate_entries(0).map_err(|e| malformed("durable log", &e))?;
                    raw.clear();
                }
                n.min(raw.len())
            }
        };

        // One body from here: structural repair, replay, re-attach.
        let tail = &raw[covered..];
        let base = replica.ledger.len() as usize;
        let chunk_ends = log.chunk_ends().filter_map(|end| (end as usize).checked_sub(covered));
        let keep = Self::closed_prefix(tail, base, chunk_ends);
        replica.replay_entries(&tail[..keep], base)?;
        replica.params.data_dir = Some(dir);
        replica.ledger.attach_durable(log).map_err(|e| malformed("durable log", &e))?;
        Ok(replica)
    }

    /// How much of a post-base entry run restart keeps — the structural
    /// half of torn-tail repair: the longest prefix that ends where a chunk
    /// of the durable log ends (`chunk_ends`, ascending, in entries of
    /// `tail`) and that parses into complete segments (`segment_entries`,
    /// `tail` starting at absolute ledger position `base`). The log frames
    /// each `[PrePrepare, Tx…]` run as one chunk, so a chunk end closes a
    /// transaction run. A batch's evidence pair and a view change's set
    /// are chunks of their own, so a crash between a segment's two
    /// appends leaves a run the complete grammar refuses, and the kept
    /// prefix ends at the chunk before. A refused prefix names the entry
    /// it broke at, and every longer prefix breaks there too, so the
    /// search skips the chunk ends past it: a few parses at most, however
    /// early the run breaks, never one per chunk.
    fn closed_prefix(
        tail: &[LedgerEntry],
        base: usize,
        chunk_ends: impl DoubleEndedIterator<Item = usize>,
    ) -> usize {
        let mut broken_at = usize::MAX;
        for end in chunk_ends.rev() {
            if end > broken_at {
                continue;
            }
            match ia_ccf_ledger::segment::segment_entries(&tail[..end], base) {
                Ok(_) => return end,
                Err(e) => broken_at = e.at,
            }
        }
        0
    }

    // ------------------------------------------------------------------
    // Public accessors (used by harnesses, auditors and tests).
    // ------------------------------------------------------------------

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }
    /// The current view.
    pub fn view(&self) -> View {
        self.view
    }
    /// The active configuration.
    pub fn active_config(&self) -> &Configuration {
        self.gov.active()
    }
    /// Highest contiguously committed sequence number.
    pub fn committed_up_to(&self) -> SeqNum {
        self.committed_up_to
    }
    /// Highest contiguously prepared sequence number.
    pub fn prepared_up_to(&self) -> SeqNum {
        self.prepared_up_to
    }
    /// The ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }
    /// Mutable ledger access for fault-injecting test harnesses (e.g.
    /// arming a durable write failure on the next append).
    #[doc(hidden)]
    pub fn ledger_harness_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }
    /// The key-value store.
    pub fn kv(&self) -> &KvStore {
        &self.kv
    }
    /// The persistent worker pool (stats and lifecycle test hooks).
    pub fn pool(&self) -> &ia_ccf_pool::WorkerPool {
        &self.pool
    }
    /// The checkpoint store.
    pub fn checkpoints(&self) -> &CheckpointStore {
        &self.checkpoints
    }
    /// Governance receipts collected so far (the chain clients cache).
    pub fn gov_chain(&self) -> &[GovLink] {
        &self.gov_chain
    }
    /// The service name `H(gt)`.
    pub fn gt_hash(&self) -> Digest {
        self.gt_hash
    }
    /// Whether this replica is the primary of its current view.
    pub fn is_primary(&self) -> bool {
        self.gov.active().primary_of(self.view) == self.id
    }
    /// The view in which `seq` prepared on this replica, if it has: its
    /// ledger pre-prepare's.
    pub fn prepared_view_of(&self, seq: SeqNum) -> Option<View> {
        self.prepared_pp(seq).map(PrePrepare::view)
    }

    /// The pre-prepare of the batch at `seq`, if it prepared here: the
    /// ledger's, at or below the prepared frontier. What "the batch at
    /// `seq`" means wherever the quorum's word on it is read or served;
    /// only `store_commit` also reads a batch above that frontier.
    pub(crate) fn prepared_pp(&self, seq: SeqNum) -> Option<&PrePrepare> {
        (seq <= self.prepared_up_to).then(|| self.ledger.pp_at(seq)).flatten()
    }

    // ------------------------------------------------------------------
    // Main entry point: stage dispatch.
    // ------------------------------------------------------------------

    /// Feed one input, collect the resulting outputs. The one place the
    /// replica's [`Status`] decides what runs (docs/ARCHITECTURE.md §1.7).
    pub fn handle(&mut self, input: Input) -> Vec<Output> {
        if let Input::Tick = input {
            self.tick += 1;
        }
        match (&self.status, input) {
            (Status::Retired, _) => {}
            // A state-transfer client, not a consensus participant: mixing
            // live execution with replay would corrupt the partially applied
            // ledger. What it misses is replayed from later pages or fetched
            // once the sync completes; the sync's own timeout drives
            // failover.
            (Status::Recovery(_), Input::Tick) => self.sync_tick(),
            (Status::Recovery(_), Input::Message { from: NodeId::Replica(sender), msg }) => {
                match msg {
                    ProtocolMsg::FetchLedgerPageResponse { entries, next_seq, done } => {
                        self.on_ledger_page(sender, entries, next_seq, done)
                    }
                    ProtocolMsg::LedgerTipResponse { tip, offer } => {
                        self.on_ledger_tip(sender, tip, offer)
                    }
                    ProtocolMsg::FetchCheckpointResponse { seq, payload } => {
                        self.on_checkpoint_payload(sender, seq, payload)
                    }
                    _ => {}
                }
            }
            (Status::Recovery(_), Input::Message { .. }) => {}
            // Between view-change and new-view nothing is ordered.
            (Status::ViewChange, Input::Message { msg: ProtocolMsg::PrePrepare { .. }, .. }) => {}
            (_, Input::Message { from, msg }) => self.on_message(from, msg),
            (Status::Normal, Input::Tick) if self.is_primary() => {
                self.maybe_send_pre_prepare();
                self.maybe_start_view_change();
            }
            (_, Input::Tick) => self.maybe_start_view_change(),
        }
        std::mem::take(&mut self.out)
    }

    /// Route one message to its pipeline stage (admission, ordering,
    /// emission) or to the view-change module. Each arm names the class of
    /// sender it takes; anything else — a client-bound message, a sync
    /// response outside a recovery sync, the wrong class of sender — is
    /// dropped.
    fn on_message(&mut self, from: NodeId, msg: ProtocolMsg) {
        match (from, msg) {
            (_, ProtocolMsg::Request(req)) => self.on_request(req),
            (NodeId::Replica(sender), ProtocolMsg::PrePrepare { pp, batch }) => {
                self.on_pre_prepare(sender, pp, batch, None)
            }
            (_, ProtocolMsg::Prepare(p)) => self.on_prepare(p),
            (NodeId::Replica(sender), ProtocolMsg::Commit(c)) => self.on_commit(sender, c),
            (_, ProtocolMsg::ViewChange(vc)) => self.on_view_change(vc),
            (_, ProtocolMsg::NewView { nv, view_changes }) => self.on_new_view(nv, view_changes),
            (NodeId::Replica(sender), ProtocolMsg::FetchRequests { hashes }) => {
                let requests: Vec<SignedRequest> =
                    hashes.iter().filter_map(|h| self.request_body(h).cloned()).collect();
                if !requests.is_empty() {
                    self.send_replica(sender, ProtocolMsg::FetchRequestsResponse { requests });
                }
            }
            (NodeId::Replica(_), ProtocolMsg::FetchRequestsResponse { requests }) => {
                // Bodies only: nothing here is trusted until batch time
                // verifies it (see `pipeline::admission`).
                for r in requests {
                    self.requests.admit(r);
                }
                self.retry_stashed();
            }
            (NodeId::Replica(sender), ProtocolMsg::FetchLedgerPage { from_seq, max_bytes }) => {
                self.serve_ledger_page(sender, from_seq, max_bytes)
            }
            (NodeId::Replica(sender), ProtocolMsg::FetchLedgerTip) => self.serve_ledger_tip(sender),
            (NodeId::Replica(sender), ProtocolMsg::FetchCheckpoint { seq }) => {
                self.serve_checkpoint_fetch(sender, seq)
            }
            (NodeId::Client(client), ProtocolMsg::FetchGovReceipts { from_index }) => {
                self.serve_gov_receipts(client, from_index)
            }
            (NodeId::Client(client), ProtocolMsg::FetchReceipt { tx_hash }) => {
                self.serve_receipt_refetch(client, tx_hash)
            }
            (NodeId::Replica(sender), ProtocolMsg::FetchEvidence { seq }) => {
                self.serve_evidence_fetch(sender, seq)
            }
            (NodeId::Replica(_), ProtocolMsg::FetchEvidenceResponse { prepares, commits }) => {
                for p in prepares {
                    self.on_prepare(p);
                }
                for cmt in commits {
                    self.store_commit(&cmt);
                }
                self.retry_stashed();
                self.try_advance_committed();
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Request bodies.
    // ------------------------------------------------------------------

    /// The body named `digest`, wherever this replica holds it: in the
    /// request pool while it waits for a batch, else in the ledger's `Tx`
    /// entry of an executed batch still in the window, at the position the
    /// locator gives. `None` for a body never seen, or ordered in a batch
    /// that has left the window.
    pub(crate) fn request_body(&self, digest: &Digest) -> Option<&SignedRequest> {
        if let Some(req) = self.requests.body(digest) {
            return Some(req);
        }
        let (seq, pos) = self.batch_exec.position(digest)?;
        let tx = self.ledger.tx_at(seq, pos)?;
        debug_assert_eq!(tx.request.digest(), *digest, "batch {seq} position {pos}");
        Some(&tx.request)
    }

    // ------------------------------------------------------------------
    // Crypto helpers.
    // ------------------------------------------------------------------

    pub(crate) fn sign_replica_payload(&self, payload: &[u8]) -> Signature {
        self.keypair.sign(payload)
    }

    // ------------------------------------------------------------------
    // Output helpers.
    // ------------------------------------------------------------------

    pub(crate) fn broadcast(&mut self, msg: ProtocolMsg) {
        self.out.push(Output::BroadcastReplicas(msg));
    }

    pub(crate) fn send_replica(&mut self, to: ReplicaId, msg: ProtocolMsg) {
        self.out.push(Output::SendReplica(to, msg));
    }

    pub(crate) fn send_client(&mut self, to: ClientId, msg: ProtocolMsg) {
        self.out.push(Output::SendClient(to, msg));
    }

    pub(crate) fn debug_reject(&self, pp: &PrePrepare, why: &str) {
        if debug_enabled() {
            eprintln!(
                "[{}] reject pp {} {:?} in {}: {why}",
                self.id,
                pp.seq(),
                pp.core.kind,
                pp.view()
            );
        }
    }

    pub(crate) fn note_progress(&mut self) {
        self.last_progress_tick = self.tick;
    }

    pub(crate) fn pipeline_depth(&self) -> u64 {
        self.gov.active().pipeline_depth as u64
    }

    pub(crate) fn checkpoint_interval(&self) -> u64 {
        self.gov.active().checkpoint_interval
    }

    pub(crate) fn receipt_checkpoint_digest(&self, seq: SeqNum) -> Digest {
        let scp = receipt_checkpoint_seq(seq, self.checkpoint_interval());
        self.checkpoints.digest_at(scp).unwrap_or_else(Digest::zero)
    }
}

/// Whether `IACCF_DEBUG` diagnostics are enabled. The environment is
/// consulted once per process (the flag is a launch-time switch, and the
/// debug sites sit on per-receipt hot paths).
pub(crate) fn debug_enabled() -> bool {
    static FLAG: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FLAG.get_or_init(|| std::env::var_os("IACCF_DEBUG").is_some())
}

#[cfg(test)]
mod tests {
    use ia_ccf_governance::chain::GovLink;
    use ia_ccf_types::config::testutil::test_config;
    use ia_ccf_types::{
        BatchKind, ClientId, GovAction, LedgerEntry, LedgerIdx, ProtocolMsg, ReplicaId, Request,
        RequestAction, SeqNum, SignedRequest, View,
    };

    use std::sync::Arc;

    use super::Replica;
    use crate::app::CounterApp;
    use crate::events::{Input, NodeId, Output};
    use crate::params::ProtocolParams;
    use crate::pipeline::exec_window::RETENTION_BATCHES;
    use crate::test_bus::{Bus, CLIENT};

    /// The pool holds only bodies not yet appended and queues exactly the
    /// orderable ones; every message-store slot lies above the receipt
    /// window's cut, and holds an own nonce only for the batch its ledger
    /// holds at that `(seq, view)`; and the ledger holds every batch the
    /// window holds, its `Tx` run exactly the batch's names, in order.
    fn bounded(r: &Replica) {
        r.requests.check();
        let window = r.committed_up_to.0.saturating_sub(RETENTION_BATCHES);
        let cut = r.rollback_floor.min(SeqNum(window));
        for (&(seq, view), slot) in r.msgs.slots() {
            assert!(seq > cut, "replica {}: slot ({seq}, {view}) at or below the cut {cut}", r.id);
            if slot.own_nonce.is_some() {
                let held = r.ledger.pp_at(seq).map(|pp| pp.view());
                assert_eq!(held, Some(view), "replica {}: own nonce at ({seq}, {view})", r.id);
            }
        }
        for (seq, exec) in r.batch_exec.range(..) {
            let id = r.id;
            assert!(r.ledger.pp_at(*seq).is_some(), "replica {id}: batch {seq} not in the ledger");
            let txs = r.ledger.tx_run(*seq).unwrap_or_default();
            let held: Vec<_> = txs.iter().map(|tx| tx.request.digest()).collect();
            assert_eq!(held, exec.names, "replica {id}: batch {seq}'s run");
        }
    }

    /// Submit `n` requests and run until every replica has ordered them
    /// and committed what it ordered.
    fn commit(bus: &mut Bus, n: usize) -> Vec<SignedRequest> {
        let sent: Vec<SignedRequest> = (0..n).map(|_| bus.submit()).collect();
        for _ in 0..300 {
            let done = bus.replicas.iter().all(|r| {
                r.committed_up_to().next() == r.seq_next
                    && sent.iter().all(|req| r.requests.is_ordered(&req.digest()))
            });
            if done {
                return sent;
            }
            bus.round();
        }
        panic!("{n} requests were not ordered and committed everywhere");
    }

    /// Over 230 batches — checkpoint marks every 10 and a view change
    /// that rolls back a tail that executed everywhere but never prepared,
    /// whose requests only the bodies put back from the ledger carry into
    /// the new view — every replica, after every input, stores no ordered
    /// body, queues exactly the orderable bodies it stores (a backup,
    /// which never takes from the head, included) and holds bounded
    /// per-batch maps; at the end it has ordered every request and stores
    /// no body at all.
    #[test]
    fn request_store_soak_holds_only_pending_bodies() {
        let mut bus = Bus::with_params(ProtocolParams {
            batch_max: 1,
            view_timeout_ticks: 8,
            // Live pools, sized by `IACCF_POOL_THREADS` or the host.
            pool_threads: 0,
            ..ProtocolParams::default()
        });
        bus.check = Some(bounded);
        let mut sent = commit(&mut bus, 100);

        // Batches execute everywhere but never prepare: the view changes,
        // and the tail rolls back with its requests back in the queue.
        bus.drop_if =
            Some(|_, _, msg| matches!(msg, ProtocolMsg::Prepare(_) | ProtocolMsg::Commit(_)));
        sent.extend((0..4).map(|_| bus.submit()));
        for _ in 0..3 {
            bus.round();
        }
        let new_primary = &bus.replicas[1];
        assert!(new_primary.seq_next.0 > new_primary.prepared_up_to().0 + 1, "an unprepared tail");
        bus.drop_if = None;
        sent.extend(commit(&mut bus, 110));

        for r in &bus.replicas {
            assert_eq!(r.view(), View(1), "replica {}", r.id);
            assert!(r.committed_up_to() >= SeqNum(230), "{}", r.committed_up_to());
            let stored = r.requests.pending_len();
            assert_eq!(stored, 0, "replica {} stores {stored}", r.id);
            assert!(sent.iter().all(|req| r.requests.is_ordered(&req.digest())));
        }
    }

    /// The same per-input check with batches of up to four requests, over
    /// a view change that rolls back a tail of such batches: the window's
    /// names stay each ledger run's, in order, on every replica.
    #[test]
    fn the_window_holds_each_multi_request_batch_as_its_ledger_run() {
        let mut bus = Bus::new(4);
        bus.check = Some(bounded);
        let mut sent = commit(&mut bus, 40);
        bus.drop_if =
            Some(|_, _, msg| matches!(msg, ProtocolMsg::Prepare(_) | ProtocolMsg::Commit(_)));
        sent.extend((0..12).map(|_| bus.submit()));
        for _ in 0..3 {
            bus.round();
        }
        let new_primary = &bus.replicas[1];
        assert!(new_primary.seq_next.0 > new_primary.prepared_up_to().0 + 1, "an unprepared tail");
        bus.drop_if = None;
        sent.extend(commit(&mut bus, 40));
        for r in &bus.replicas {
            assert_eq!(r.view(), View(1), "replica {}", r.id);
            let most = r.batch_exec.range(..).map(|(_, exec)| exec.names.len()).max();
            assert!(most > Some(1), "replica {}: batches of one request only", r.id);
            assert!(sent.iter().all(|req| r.requests.is_ordered(&req.digest())));
        }
    }

    /// A backup that never saw the requests asks the primary for them
    /// after the primary appended the batch: the primary serves the bodies
    /// out of its ledger, and the backup commits.
    #[test]
    fn a_backup_fetches_bodies_the_primary_holds_only_in_its_ledger() {
        let mut bus = Bus::new(4);
        bus.drop_if =
            Some(|to, _, msg| to == ReplicaId(2) && matches!(msg, ProtocolMsg::Request(_)));
        let sent = commit(&mut bus, 4);
        assert_eq!(bus.replicas[0].requests.pending_len(), 0);
        let backup = &bus.replicas[2];
        assert!(sent.iter().all(|req| backup.requests.is_ordered(&req.digest())));
    }

    /// A pre-prepare may name one request twice (nothing but the primary's
    /// queue dedupes a batch): each backup moves the body out of its store
    /// once and copies it for the second name, and the batch commits.
    #[test]
    fn a_batch_naming_a_request_twice_commits() {
        let mut bus = Bus::new(2);
        // The backups take the request off the bus before the batch.
        let req = bus.submit();
        let name = req.digest();
        let primary = &mut bus.replicas[0];
        let twice = vec![req.clone(), req];
        assert!(primary.send_batch(SeqNum(1), BatchKind::Regular, twice, vec![name; 2], None));
        let outputs = std::mem::take(&mut primary.out);
        bus.route(ReplicaId(0), outputs);
        bus.run_until_committed(SeqNum(1));
        for r in &bus.replicas {
            let (LedgerIdx(pp_at), _) = r.ledger.batch_span(SeqNum(1)).expect("batch 1");
            let txs = [pp_at + 1, pp_at + 2].map(|at| match r.ledger.entry(LedgerIdx(at)) {
                Some(LedgerEntry::Tx(tx)) => tx.request.digest(),
                other => panic!("replica {}: {other:?}", r.id),
            });
            assert_eq!(txs, [name; 2], "replica {}", r.id);
            assert_eq!(r.requests.pending_len(), 0, "replica {}", r.id);
        }
    }

    /// A receipt re-fetch for a transaction whose body has left the store
    /// carries the request's own `req_id`, the key a client matches its
    /// replies on, on every replica.
    #[test]
    fn a_refetch_after_the_body_left_the_store_carries_its_req_id() {
        let mut bus = Bus::new(1);
        let sent = commit(&mut bus, 6);
        for r in &mut bus.replicas {
            for req in &sent {
                let tx_hash = req.digest();
                assert!(r.requests.body(&tx_hash).is_none());
                let fetch = ProtocolMsg::FetchReceipt { tx_hash };
                let outputs = r.handle(Input::Message { from: NodeId::Client(CLIENT), msg: fetch });
                let msgs: Vec<ProtocolMsg> = outputs
                    .into_iter()
                    .map(|out| match out {
                        Output::SendClient(CLIENT, msg) => msg,
                        other => panic!("not a reply to the client: {other:?}"),
                    })
                    .collect();
                assert_eq!(msgs, r.refetch_oracle_linear(tx_hash));
                let [ProtocolMsg::Reply(reply), ProtocolMsg::ReplyX(replyx)] = &msgs[..] else {
                    panic!("replica {}: {msgs:?}", r.id);
                };
                assert_eq!(reply.req_ids, [req.request.req_id], "replica {}", r.id);
                let [witness] = &replyx.txs[..] else {
                    panic!("replica {}: a re-fetch is a bundle of one: {replyx:?}", r.id);
                };
                assert_eq!(witness.req_id, req.request.req_id, "replica {}", r.id);
            }
        }
    }

    /// A governance transaction that replica 1 cannot certify out of its
    /// own messages — it never gets the primary's commit, so it commits the
    /// batch without the primary's share — is linked on every replica all
    /// the same, by the evidence pair the batch `P` later records: the idle
    /// primary carries it in at most `P` empty batches, with no further
    /// client traffic, and every chain is the one a replay of its ledger
    /// yields, byte for byte.
    #[test]
    fn a_deferred_governance_certificate_still_links_its_transaction() {
        let mut bus = Bus::new(1);
        bus.drop_if = Some(|to, from, msg| {
            to == ReplicaId(1)
                && from == NodeId::Replica(ReplicaId(0))
                && matches!(msg, ProtocolMsg::Commit(_))
        });
        let (genesis, replica_keys, member_keys) = test_config(4);
        let p = u64::from(genesis.pipeline_depth);
        let mut next = genesis;
        next.number += 1;
        let propose = SignedRequest::sign(
            Request {
                action: RequestAction::Governance(GovAction::Propose {
                    proposal_id: 1,
                    new_config: next,
                }),
                client: ClientId(0),
                gt_hash: bus.replicas[0].gt_hash(),
                min_index: LedgerIdx(0),
                req_id: 1,
            },
            &member_keys[0],
        );
        bus.submit_request(ClientId(0), propose.clone());
        bus.run_until_committed(SeqNum(1));
        let deferred = &bus.replicas[1];
        assert!(deferred.certificate_for(SeqNum(1), View(0), None).is_none());
        assert!(deferred.gov_chain.is_empty());
        assert!(deferred.requests.body(&propose.digest()).is_none());

        let carrier = SeqNum(1 + p);
        bus.run_until_committed(carrier);
        for _ in 0..10 {
            bus.round();
        }
        let chain = bus.replicas[0].gov_chain.clone();
        let links: Vec<_> = chain
            .iter()
            .map(|link| match link {
                GovLink::GovTx { request, receipt } => (request, receipt.seq()),
                GovLink::Boundary { .. } => panic!("no reconfiguration ran"),
            })
            .collect();
        assert_eq!(links, [(&propose, SeqNum(1))]);
        for r in &bus.replicas {
            assert_eq!(r.seq_next, carrier.next(), "replica {}: idle past the carrier", r.id);
            assert_eq!(r.gov_chain, chain, "replica {}", r.id);
            let replayed = Replica::bootstrap(
                r.id,
                replica_keys[r.id.0 as usize].clone(),
                Arc::new(CounterApp),
                ProtocolParams { pool_threads: 1, ..ProtocolParams::default() },
                [(CLIENT, bus.client_key.public())],
                r.ledger.entries(),
            )
            .expect("the ledger replays");
            assert_eq!(replayed.gov_chain, chain, "replica {}: replay", r.id);
        }
    }
}
