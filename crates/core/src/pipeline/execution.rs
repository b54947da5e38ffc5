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
//! Requests execute one after another, in batch order, through the rule
//! the auditor replays ([`crate::execute::execute_tx`]).

use std::sync::Arc;

use ia_ccf_crypto::Digest;
use ia_ccf_governance::GovOutcome;
use ia_ccf_merkle::MerkleTree;
use ia_ccf_types::{BatchKind, ClientId, LedgerIdx, SeqNum, SignedRequest, TxResult, View};

use crate::checkpoint::CheckpointRecord;
use crate::events::Output;
use crate::execute::{execute_tx, Effect, Executed, MarkCheck};
use crate::pipeline::exec_window::RETENTION_BATCHES;
use crate::replica::Replica;

/// Result of executing one transaction, plus the bookkeeping needed for
/// replies and receipts.
#[derive(Debug, Clone)]
pub(crate) struct ExecTx {
    pub request_digest: Digest,
    pub client: ClientId,
    /// The client's request id, which every reply for this transaction
    /// carries: replies and re-fetches read it here, not off the body.
    pub req_id: u64,
    pub index: LedgerIdx,
    pub result: TxResult,
    pub is_governance: bool,
}

/// Everything remembered about an executed (possibly not yet committed)
/// batch.
///
/// Shared behind `Arc` in the replica's `ExecWindow`: the emission stage,
/// governance receipt builder and re-fetch serving all read it without
/// deep-cloning the transaction vector or the tree.
#[derive(Debug)]
pub(crate) struct BatchExec {
    pub kind: BatchKind,
    pub txs: Vec<ExecTx>,
    /// The batch tree `G`, built once from the batch's leaves at
    /// execution; every receipt and re-fetch reads its paths. A
    /// rolled-back batch drops the whole `BatchExec`.
    pub tree: MerkleTree,
}

impl BatchExec {
    pub(crate) fn new(kind: BatchKind, txs: Vec<ExecTx>, tree: MerkleTree) -> Self {
        BatchExec { kind, txs, tree }
    }

    /// The authentication path for the leaf at `pos`.
    pub(crate) fn path(&self, pos: u64) -> Option<ia_ccf_merkle::MerklePath> {
        self.tree.path(pos)
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
/// The KV side needs no extra state here: the store carries the batch
/// mark, taken when the batch opens, so `rollback_to_batch` restores it.
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

impl Replica {
    /// Execute the batch at `seq`; `names[i]` is `requests[i]`'s digest.
    pub(crate) fn execute_batch(
        &mut self,
        seq: SeqNum,
        kind: BatchKind,
        requests: &[SignedRequest],
        names: &[Digest],
    ) -> Result<BatchExec, ExecError> {
        debug_assert_eq!(requests.len(), names.len());
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
        let results = requests
            .iter()
            .map(|r| self.execute_one(seq, r))
            .collect::<Result<Vec<_>, _>>()?;
        // One pass assigns indices and builds the leaves.
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
                req_id: req.request.req_id,
                index,
                result,
                is_governance: is_gov,
            });
            self.next_tx_index += 1;
        }
        // One bulk pass builds `Ḡ` (batch amortization, §3.4).
        let tree = MerkleTree::from_leaves(leaves);
        // Checkpoint after executing a batch at a multiple of C (§3.4).
        if seq.0.is_multiple_of(self.checkpoint_interval()) {
            self.take_checkpoint(seq);
        }
        Ok(BatchExec::new(kind, txs, tree))
    }

    /// One request: one call of the shared rule
    /// ([`crate::execute::execute_tx`]) plus the replica's own reaction to
    /// its effect.
    fn execute_one(&mut self, seq: SeqNum, req: &SignedRequest) -> Result<TxResult, ExecError> {
        let Executed { result, effect } =
            execute_tx(&*self.app, &mut self.gov, &mut self.kv, req, |s| {
                self.checkpoints.digest_at(s)
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
                if check != MarkCheck::Matches {
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
        let kv_digest = record.kv.digest();
        self.checkpoints.insert(record, self.checkpoint_interval());
        self.out.push(Output::CheckpointTaken { seq, kv_digest });
    }

    /// Raise the rollback floor to `floor` (it never goes down) and trim
    /// every holder of undo state to it: the KV undo log, the batch marks,
    /// the `M` leaves the ledger keeps for rollback, and the executed
    /// batches with the votes receipts and evidence read (the message
    /// store). Batches at or below the floor never roll back (Lemma 1
    /// undoes only the pipelined tail); a view change whose reset point
    /// lies below it is refused before anything moves. Live commit, ledger
    /// replay and checkpoint restore all raise it here.
    pub(crate) fn raise_rollback_floor(&mut self, floor: SeqNum) {
        let floor = self.rollback_floor.max(floor);
        self.rollback_floor = floor;
        self.kv.release_batches_up_to(floor.0);
        self.batch_marks = self.batch_marks.split_off(&floor.next());
        // Where the first batch above the floor opened.
        if let Some(mark) = self.batch_marks.values().next() {
            self.ledger.settle(mark.ledger_len_before);
        }
        // Receipts are served from a window of committed batches, which
        // never cuts above the floor. A receipt served from it reads this
        // replica's share out of the batch's slot, so the message store is
        // cut where the window is, and so are view-changes two views back.
        let window = self.committed_up_to.0.saturating_sub(RETENTION_BATCHES);
        let cut = floor.min(SeqNum(window));
        self.batch_exec.drop_up_to(cut);
        self.msgs.compact(cut, View(self.view.0.saturating_sub(2)));
    }

    /// Undo the batch at `seq` and every later one (Lemma 1). `seq` is
    /// above the rollback floor, so its KV mark, taken when it opened, is
    /// still held.
    pub(crate) fn rollback_batch(&mut self, seq: SeqNum, mark: &BatchMark) {
        let undone = self.kv.rollback_to_batch(seq.0);
        debug_assert!(undone.is_ok(), "batch {seq} below the rollback floor {}", self.rollback_floor);
        self.ledger.truncate_to(mark.ledger_len_before);
        self.next_tx_index = mark.tx_index_before;
        self.last_gov_index = mark.gov_index_before;
        // Governance side effects (proposals recorded/voted, activations)
        // from this batch onward are undone with the snapshot; a
        // configuration that first took effect after the rolled-back
        // point loses its history entry too.
        if self.gov.active().number != mark.gov_before.active().number {
            self.requests.forget_verified(); // back under the previous configuration's keys
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
