//! How `⟨t⟩` becomes `⟨i, o⟩`: the transaction-execution rule.
//!
//! State is a function of the ledger (§3.4: a joining replica "replays
//! the ledger from that checkpoint"; §4.1: the auditor replays because
//! `N − f` replicas may have lied), and this module is that function's
//! per-transaction step, written once. The replica's execution stage and
//! the auditor's replay both call it, so a recorded result can only
//! differ from a replayed one if somebody misbehaved — never because two
//! copies of the rule drifted apart.
//!
//! The rule covers what every executor must agree on byte for byte: the
//! stored-procedure call, the governance `apply` with its
//! state mirror in the store and the `GOV_OUTPUT_*` outputs,
//! the checkpoint-mark comparison, and the mapping from a verdict to the
//! recorded [`TxResult`]. What happens *because* of a transaction — a
//! replica scheduling its reconfiguration batches where the auditor just
//! activates the new configuration, a replica rejecting a batch whose
//! mark it cannot check where the auditor trusts the signed agreement —
//! is reported as an [`Effect`] and stays with the caller.

use ia_ccf_crypto::{Digest, Hasher};
use ia_ccf_governance::chain::{member_of, GOV_OUTPUT_PASSED, GOV_OUTPUT_RECORDED};
use ia_ccf_governance::{GovOutcome, GovernanceState};
use ia_ccf_kv::KvStore;
use ia_ccf_types::{RequestAction, SeqNum, SignedRequest, SystemOp, TxResult};

use crate::app::{App, AppError};

/// Key under which governance state is mirrored into the store, so
/// checkpoints capture it and governance write sets are comparable.
const GOV_STATE_KEY: &[u8] = b"\x00gov_state";

/// A checkpoint mark set against the executor's own record of the
/// checkpoint it names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkCheck {
    /// The executor holds the same digest.
    Matches,
    /// The executor holds a different digest.
    Differs,
    /// The executor has no digest for that sequence number.
    Unknown,
}

/// What a transaction did beyond its recorded result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Nothing (application transactions, rejected governance actions).
    None,
    /// Governance state changed; a passed referendum names the
    /// configuration it elected. *When* that configuration takes effect is
    /// the caller's business.
    Governance(GovOutcome),
    /// A checkpoint mark, compared with the caller's own digest.
    Mark(MarkCheck),
}

/// One executed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Executed {
    /// The result `o` recorded in `⟨t, i, o⟩`.
    pub result: TxResult,
    /// What the caller has to act on.
    pub effect: Effect,
}

/// Execute `req` against `kv` and `gov` as one transaction of its own.
/// `checkpoint_digest` answers "what did *you* compute for the checkpoint
/// at this sequence number?" for checkpoint marks.
pub fn execute_tx(
    app: &dyn App,
    gov: &mut GovernanceState,
    kv: &mut KvStore,
    req: &SignedRequest,
    checkpoint_digest: impl FnOnce(SeqNum) -> Option<Digest>,
) -> Executed {
    kv.begin_tx().expect("no nested tx");
    let commit = |kv: &mut KvStore| kv.commit_tx().expect("tx open");
    let abort = |kv: &mut KvStore| kv.abort_tx().expect("tx open");
    match &req.request.action {
        RequestAction::App { proc, args } => {
            let result = match app.execute(kv, *proc, args, req.request.client) {
                Ok(output) => committed(output, commit(kv)),
                Err(AppError(why)) => {
                    abort(kv);
                    failed(why)
                }
            };
            Executed { result, effect: Effect::None }
        }
        RequestAction::Governance(action) => match gov.apply(member_of(req), action) {
            Ok(outcome) => {
                kv.put(GOV_STATE_KEY.to_vec(), gov_state_snapshot(gov)).expect("tx open");
                let output = match outcome {
                    GovOutcome::Recorded => GOV_OUTPUT_RECORDED,
                    GovOutcome::ReferendumPassed(_) => GOV_OUTPUT_PASSED,
                };
                Executed {
                    result: committed(output.to_vec(), commit(kv)),
                    effect: Effect::Governance(outcome),
                }
            }
            Err(e) => {
                abort(kv);
                Executed { result: failed(e.to_string()), effect: Effect::None }
            }
        },
        RequestAction::System(SystemOp::CheckpointMark { checkpoint_seq, kv_digest, .. }) => {
            commit(kv);
            let check = match checkpoint_digest(*checkpoint_seq) {
                Some(own) if own == *kv_digest => MarkCheck::Matches,
                Some(_) => MarkCheck::Differs,
                None => MarkCheck::Unknown,
            };
            // System transactions carry no application write set.
            Executed {
                result: TxResult { ok: true, output: Vec::new(), write_set_digest: Digest::zero() },
                effect: Effect::Mark(check),
            }
        }
    }
}

/// `Ok ⇒ (true, output, digest of the write set)`.
fn committed(output: Vec<u8>, write_set_digest: Digest) -> TxResult {
    TxResult { ok: true, output, write_set_digest }
}

/// `Err ⇒ (false, error bytes, zero digest)`: failed transactions are
/// ordered and recorded but change nothing.
fn failed(why: String) -> TxResult {
    TxResult { ok: false, output: why.into_bytes(), write_set_digest: Digest::zero() }
}

/// Governance state (active configuration digest + open proposals) as
/// mirrored into the store. Deterministic across executors.
fn gov_state_snapshot(gov: &GovernanceState) -> Vec<u8> {
    let mut h = Hasher::new();
    h.update(gov.active().digest());
    for p in gov.proposals() {
        h.update(p.proposer.0.to_le_bytes());
        h.update(p.id.to_le_bytes());
        h.update(p.new_config.digest());
        for m in &p.approvals {
            h.update(m.0.to_le_bytes());
        }
    }
    h.finalize().as_ref().to_vec()
}
