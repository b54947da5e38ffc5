//! Pipeline stage 3 — batch execution (Alg. 1 lines 19–26, Lemma 1/2).
//!
//! Early execution: the primary executes a batch *before* consensus and
//! proposes the resulting Merkle root `Ḡ` inside the signed pre-prepare;
//! backups re-execute and must reproduce it bit-for-bit or reject. All
//! per-request costs are amortized across the batch (§3.4): the KV layer
//! opens one batch scope, the result leaves are collected and absorbed
//! into `Ḡ` with one [`MerkleTree::extend`] pass, and the caller appends
//! the batch's ledger entries with one [`ia_ccf_ledger::Ledger::append_batch`]
//! reservation. Every executed batch leaves a [`BatchMark`] so a view
//! change can roll it back (Lemma 1) and re-execute it identically.
//!
//! # Sharded execution
//!
//! When the store has more than one shard
//! (`ProtocolParams::execution_shards`), application transactions that
//! pre-declare their key footprint ([`crate::app::App::key_hints`]) are
//! partitioned into **conflict-free groups** (union-find over declared
//! keys) and executed speculatively in parallel on the replica's
//! persistent worker pool ([`ia_ccf_pool::WorkerPool`] — no per-batch
//! thread spawns); each group sees the pre-batch store plus its own
//! earlier writes ([`ia_ccf_kv::SpeculativeGroup`]). Transactions
//! without hints, plus every governance/system transaction, run on the
//! **serial fallback lane**, which also acts as a barrier: the batch is
//! split into segments at serial transactions so cross-lane ordering is
//! preserved. After a parallel segment completes, its write sets are
//! merged into the sharded store **in original batch order**, with the
//! per-shard apply lists themselves fanned out over the pool
//! ([`ia_ccf_kv::ShardedKvStore::apply_write_sets`]).
//!
//! The invariant the whole subsystem hangs on: ledger bytes, result
//! outputs, write-set digests, `Ḡ` leaves and receipts are byte-identical
//! to fully serial execution for **any** shard count — which is why the
//! shard count can stay a per-replica knob instead of a consensus
//! parameter. `tests/sharded_execution.rs` enforces this differentially;
//! a footprint under-declaration panics in the speculative view rather
//! than risking divergence.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use ia_ccf_crypto::Digest;
use ia_ccf_governance::GovOutcome;
use ia_ccf_kv::{Key, SpeculativeGroup, TxWriteSet};
use ia_ccf_merkle::MerkleTree;
use ia_ccf_types::{
    BatchKind, ClientId, LedgerIdx, RequestAction, SeqNum, SignedRequest, TxResult, View,
};

use crate::checkpoint::CheckpointRecord;
use crate::events::Output;
use crate::execute::{execute_tx, run_procedure, Effect, Executed, MarkCheck};
use crate::replica::Replica;

/// One conflict-free group's speculative output: `(batch position,
/// result, write set)` per transaction, in group order.
type GroupOutput = Vec<(usize, TxResult, Option<TxWriteSet>)>;

/// Result of executing one transaction, plus the bookkeeping needed for
/// replies and receipts.
#[derive(Debug, Clone)]
pub(crate) struct ExecTx {
    pub request_digest: Digest,
    pub client: ClientId,
    pub index: LedgerIdx,
    pub result: TxResult,
    pub is_governance: bool,
}

/// Everything remembered about an executed (possibly not yet committed)
/// batch.
///
/// Shared behind `Arc` on the replica (`Replica::batch_exec`): the
/// emission stage, governance receipt builder and re-fetch serving all
/// read it without deep-cloning the transaction vector or the tree.
#[derive(Debug)]
pub(crate) struct BatchExec {
    pub view: View,
    pub kind: BatchKind,
    pub txs: Vec<ExecTx>,
    pub tree: MerkleTree,
    /// Memoized authentication paths ([`ia_ccf_merkle::FrozenPaths`]):
    /// the tree is immutable once the batch executed, so the per-level
    /// sibling arrays are computed once on first path request and every
    /// later receipt/re-fetch serves from them. A rolled-back batch drops
    /// the whole `BatchExec`, so re-execution can never see stale paths.
    frozen: std::sync::OnceLock<ia_ccf_merkle::FrozenPaths>,
}

impl BatchExec {
    pub(crate) fn new(view: View, kind: BatchKind, txs: Vec<ExecTx>, tree: MerkleTree) -> Self {
        BatchExec { view, kind, txs, tree, frozen: std::sync::OnceLock::new() }
    }

    /// The authentication path for the leaf at `pos`, served from the
    /// frozen view (byte-identical to `self.tree.path(pos)`).
    pub(crate) fn path(&self, pos: u64) -> Option<ia_ccf_merkle::MerklePath> {
        self.frozen.get_or_init(|| self.tree.freeze_paths()).path(pos)
    }
}

/// Rollback information for a batch (Lemma 1).
///
/// Carries a snapshot of the governance state: `gov.apply` mutates
/// proposals *during* execution and configuration activation mutates the
/// active config, so rolling a batch back must restore both — otherwise
/// a re-executed governance transaction hits its own earlier side effects
/// (duplicate proposal / unknown proposal) and diverges from what an
/// auditor replaying the ledger from genesis computes. The snapshot is an
/// `Arc` maintained copy-on-write (`Replica::gov_snapshot` is refreshed
/// only when governance actually mutates), so gov-free batches pay one
/// refcount bump, not a deep configuration clone.
///
/// The KV side needs no extra state here: every shard carries the batch
/// mark, so `rollback_to_batch` restores all shards in lockstep —
/// including writes that arrived via the sharded-execution merge.
#[derive(Debug, Clone)]
pub(crate) struct BatchMark {
    pub ledger_len_before: u64,
    pub tx_index_before: u64,
    pub gov_index_before: LedgerIdx,
    pub gov_before: std::sync::Arc<ia_ccf_governance::GovernanceState>,
}

/// Why a batch could not be executed/accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ExecError {
    MinIndexViolated,
    CheckpointMismatch,
    GovNotLast,
    KindMismatch,
}

/// Which execution lane a request takes.
enum Lane {
    /// Declared key footprint: eligible for conflict-free grouping.
    Parallel(Vec<Key>),
    /// Unknown footprint or non-app action: serial fallback lane.
    Serial,
}

impl Replica {
    /// Execute the batch at `seq`; `names[i]` is `requests[i]`'s digest.
    pub(crate) fn execute_batch(
        &mut self,
        seq: SeqNum,
        view: View,
        kind: BatchKind,
        requests: &[SignedRequest],
        names: &[Digest],
    ) -> Result<BatchExec, ExecError> {
        debug_assert_eq!(requests.len(), names.len());
        self.kv.begin_batch(seq.0);
        // Structural validation up front (indices are assigned by batch
        // position, so both checks are order-independent of execution).
        let base_index = self.next_tx_index;
        for (pos, req) in requests.iter().enumerate() {
            if req.is_governance() && pos != requests.len() - 1 {
                return Err(ExecError::GovNotLast);
            }
            if req.request.min_index.0 > base_index + pos as u64 {
                return Err(ExecError::MinIndexViolated);
            }
        }
        let results = self.execute_requests(seq, requests)?;
        // One serial pass assigns indices and builds the leaves — this is
        // where parallel results fold back into the canonical batch order.
        let mut txs = Vec::with_capacity(requests.len());
        let mut leaves = Vec::with_capacity(requests.len());
        for ((req, &request_digest), result) in requests.iter().zip(names).zip(results) {
            let is_gov = req.is_governance();
            let index = LedgerIdx(self.next_tx_index);
            if is_gov && result.ok {
                self.last_gov_index = index;
            }
            leaves.push(ia_ccf_types::entry::g_leaf_hash(&request_digest, index, &result));
            txs.push(ExecTx {
                request_digest,
                client: req.request.client,
                index,
                result,
                is_governance: is_gov,
            });
            self.next_tx_index += 1;
        }
        // One bulk pass builds `Ḡ` (batch amortization, §3.4).
        let tree = MerkleTree::from_leaves(leaves);
        // Checkpoint after executing a batch at a multiple of C (§3.4).
        if self.params.checkpoints_enabled && seq.0.is_multiple_of(self.checkpoint_interval()) {
            self.take_checkpoint(seq);
        }
        Ok(BatchExec::new(view, kind, txs, tree))
    }

    /// Execute every request of the batch, in (observable) batch order.
    /// Chooses between the fully serial path (single shard or tiny batch)
    /// and segmented sharded execution.
    fn execute_requests(
        &mut self,
        seq: SeqNum,
        requests: &[SignedRequest],
    ) -> Result<Vec<TxResult>, ExecError> {
        if self.kv.shard_count() <= 1 || requests.len() < 2 {
            return requests.iter().map(|r| self.execute_one(seq, r)).collect();
        }
        let lanes: Vec<Lane> = requests.iter().map(|r| self.plan_lane(r)).collect();
        let mut results: Vec<Option<TxResult>> = Vec::new();
        results.resize_with(requests.len(), || None);
        let mut pos = 0;
        while pos < requests.len() {
            if matches!(lanes[pos], Lane::Serial) {
                // Serial transactions are barriers: everything before them
                // has merged, everything after sees their effects.
                results[pos] = Some(self.execute_one(seq, &requests[pos])?);
                pos += 1;
                continue;
            }
            let start = pos;
            while pos < requests.len() && matches!(lanes[pos], Lane::Parallel(_)) {
                pos += 1;
            }
            self.execute_parallel_segment(
                &requests[start..pos],
                &lanes[start..pos],
                &mut results[start..pos],
            );
        }
        Ok(results.into_iter().map(|r| r.expect("every position executed")).collect())
    }

    /// The lane a request executes on. Only app requests with declared
    /// footprints are parallel-eligible; governance and system
    /// transactions mutate replica-local state and stay serial.
    fn plan_lane(&self, req: &SignedRequest) -> Lane {
        match &req.request.action {
            RequestAction::App { proc, args } => {
                match self.app.key_hints(*proc, args, req.request.client) {
                    Some(mut keys) => {
                        keys.sort_unstable();
                        keys.dedup();
                        Lane::Parallel(keys)
                    }
                    None => Lane::Serial,
                }
            }
            _ => Lane::Serial,
        }
    }

    /// Execute one contiguous run of parallel-eligible transactions:
    /// group by footprint overlap, run groups on scoped workers, then
    /// merge the write sets into the sharded store in batch order.
    fn execute_parallel_segment(
        &mut self,
        reqs: &[SignedRequest],
        lanes: &[Lane],
        out: &mut [Option<TxResult>],
    ) {
        let n = reqs.len();
        // Union-find over segment positions, keyed by footprint keys: two
        // transactions sharing any declared key land in the same group.
        // Deterministic — driven only by batch order and key equality.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]]; // path halving
                x = parent[x];
            }
            x
        }
        let mut key_owner: HashMap<&[u8], usize> = HashMap::new();
        for (i, lane) in lanes.iter().enumerate() {
            let Lane::Parallel(keys) = lane else { unreachable!("segment is parallel-only") };
            for k in keys {
                match key_owner.entry(k.as_slice()) {
                    Entry::Occupied(o) => {
                        let (a, b) = (find(&mut parent, i), find(&mut parent, *o.get()));
                        parent[a] = b;
                    }
                    Entry::Vacant(v) => {
                        v.insert(i);
                    }
                }
            }
        }
        // Groups in first-appearance order; members stay in batch order.
        let mut group_of_root: Vec<Option<usize>> = vec![None; n];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let root = find(&mut parent, i);
            let gi = match group_of_root[root] {
                Some(g) => g,
                None => {
                    groups.push(Vec::new());
                    group_of_root[root] = Some(groups.len() - 1);
                    groups.len() - 1
                }
            };
            groups[gi].push(i);
        }

        let app = Arc::clone(&self.app);
        let outputs: Vec<GroupOutput> = {
            let base = &self.kv;
            let run_group = |members: &[usize]| -> GroupOutput {
                let mut spec = SpeculativeGroup::new(base);
                members
                    .iter()
                    .enumerate()
                    .map(|(pos_in_group, &i)| {
                        let Lane::Parallel(keys) = &lanes[i] else { unreachable!() };
                        // The group's last tx has no readers left: skip
                        // publishing its delta (singleton groups dominate
                        // uncontended batches).
                        let is_last = pos_in_group + 1 == members.len();
                        let (result, ws) = run_procedure(
                            &*app,
                            &reqs[i],
                            spec.begin_tx(keys),
                            |tx| if is_last { tx.commit_final() } else { tx.commit() },
                            |tx| tx.abort(),
                        );
                        (i, result, ws)
                    })
                    .collect()
            };
            // Worker count derives from the *pool*, not the shard count:
            // conflict groups routinely out-number shards (every
            // uncontended transaction is its own group), and capping the
            // fan-out at the key-space split was leaving workers idle.
            let workers = groups.len().min(self.pool.threads());
            if workers <= 1 {
                groups.iter().map(|g| run_group(g)).collect()
            } else {
                // Persistent pool: groups are round-robined over `workers`
                // stripes. Scheduling cannot influence results — groups
                // are key-disjoint and results are keyed by batch
                // position.
                let mut stripes: Vec<Option<GroupOutput>> = Vec::new();
                stripes.resize_with(workers, || None);
                self.pool.scope(|s| {
                    for (w, slot) in stripes.iter_mut().enumerate() {
                        let groups = &groups;
                        let run_group = &run_group;
                        s.spawn(move || {
                            let mut acc = Vec::new();
                            let mut gi = w;
                            while gi < groups.len() {
                                acc.extend(run_group(&groups[gi]));
                                gi += workers;
                            }
                            *slot = Some(acc);
                        });
                    }
                });
                stripes.into_iter().map(|s| s.expect("every stripe executed")).collect()
            }
        };

        // Ordered write-set merge: apply each transaction's effects to the
        // sharded store in original batch order, so per-shard undo logs —
        // and therefore rollback — match serial execution's state history.
        // The per-shard apply lists fan out over the pool (shards are
        // disjoint stores, order within each is preserved).
        let mut merged: Vec<Option<TxWriteSet>> = Vec::new();
        merged.resize_with(n, || None);
        for (i, result, ws) in outputs.into_iter().flatten() {
            out[i] = Some(result);
            merged[i] = ws;
        }
        let write_sets: Vec<TxWriteSet> = merged.into_iter().flatten().collect();
        self.kv.apply_write_sets(&self.pool, write_sets);
    }

    /// The serial lane: one call of the shared rule
    /// ([`crate::execute::execute_tx`]) plus the replica's own reaction to
    /// its effect.
    fn execute_one(&mut self, seq: SeqNum, req: &SignedRequest) -> Result<TxResult, ExecError> {
        let cp_digests = &self.cp_digests;
        let Executed { result, effect } =
            execute_tx(&*self.app, &mut self.gov, &mut self.kv, req, |s| {
                cp_digests.get(&s).copied()
            });
        match effect {
            Effect::None => {}
            Effect::Governance(outcome) => {
                // Governance mutated: refresh the copy-on-write rollback
                // snapshot (rejected actions never mutate).
                self.gov_snapshot = Arc::new(self.gov.clone());
                if let GovOutcome::ReferendumPassed(new_config) = outcome {
                    self.begin_reconfig(*new_config, seq);
                }
            }
            // A backup that cannot vouch for the digest rejects the batch.
            Effect::Mark(check) => {
                if self.params.checkpoints_enabled && check != MarkCheck::Matches {
                    return Err(ExecError::CheckpointMismatch);
                }
            }
        }
        Ok(result)
    }

    pub(crate) fn take_checkpoint(&mut self, seq: SeqNum) {
        let record = CheckpointRecord {
            seq,
            kv: self.kv.checkpoint(),
            frontier: self.ledger.frontier(),
            ledger_len: self.ledger.len(),
            next_tx_index: self.next_tx_index,
        };
        let digest = record.kv.digest();
        self.cp_digests.insert(seq, digest);
        self.checkpoints.insert(record);
        self.out.push(Output::CheckpointTaken { seq, kv_digest: digest });
        // Prune digests older than two intervals before the checkpoint.
        let keep_from = seq.0.saturating_sub(4 * self.checkpoint_interval());
        self.cp_digests.retain(|s, _| s.0 >= keep_from || s.0 == 0);
    }

    pub(crate) fn rollback_batch(&mut self, seq: SeqNum, mark: &BatchMark) {
        let _ = self.kv.rollback_to_batch(seq.0);
        self.ledger.truncate_to(mark.ledger_len_before);
        self.next_tx_index = mark.tx_index_before;
        self.last_gov_index = mark.gov_index_before;
        // Governance side effects (proposals recorded/voted, activations)
        // from this batch onward are undone with the snapshot; a
        // configuration that first took effect after the rolled-back
        // point loses its history entry too.
        if self.gov.active().number != mark.gov_before.active().number {
            self.verified_reqs.clear(); // back under the previous configuration's keys
        }
        self.gov = (*mark.gov_before).clone();
        self.gov_snapshot = std::sync::Arc::clone(&mark.gov_before);
        self.config_first_seq.retain(|(first, _)| first.0 <= seq.0);
        // A rolled-back batch can't have passed a referendum anymore.
        if let Some(rc) = &self.reconfig {
            if rc.vote_seq >= seq {
                self.reconfig = None;
            }
        }
        self.checkpoints.truncate_after(SeqNum(seq.0.saturating_sub(1)));
    }
}
