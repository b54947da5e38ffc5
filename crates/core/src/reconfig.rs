//! Reconfiguration (§5.1).
//!
//! Executing the final `vote` of a passed referendum at sequence number `s`
//! triggers, in order:
//!
//! 1. `2P` empty **end-of-configuration** batches at `s+1 … s+2P`, whose
//!    pre-prepares carry the *committed Merkle root* (the root of `M` at
//!    `s`). The `P`-th commits the final vote; its receipt joins the
//!    governance sub-ledger. The configuration change takes effect at
//!    `s + 2P`.
//! 2. A **checkpoint** of the key-value store at `s + 2P`, recorded by a
//!    checkpoint transaction at `s + 2P + 1` — the first batch of the new
//!    configuration.
//! 3. `P` empty **start-of-configuration** batches at
//!    `s + 2P + 2 … s + 2P + 1 + P`.
//!
//! Every position in the schedule is *derived from the sequence number*
//! relative to `vote_seq`, never from counters: view changes can roll
//! back and re-propose any suffix of the schedule, and seq-derived checks
//! stay correct across rollback (counters would hold stale high-water
//! marks — see the regression test in `tests/reconfiguration.rs`).
//!
//! Replicas leaving the configuration retire once the switch batch commits
//! locally; new replicas bootstrap from the ledger ([`Replica::bootstrap`]).

use ia_ccf_types::{BatchKind, Configuration, Digest, PrePrepare, SeqNum};

use crate::events::Output;
use crate::pipeline::ExecError;
use crate::replica::{Replica, Status};

/// An in-flight reconfiguration: the target configuration and the anchor
/// sequence number. All schedule state derives from these two.
#[derive(Debug, Clone)]
pub struct ReconfigState {
    /// The configuration that will take effect.
    pub new_config: Configuration,
    /// Sequence number of the batch containing the passed final vote.
    pub vote_seq: SeqNum,
    /// Root of the ledger tree at the final-vote batch (captured when the
    /// batch's entries are in the ledger); carried by every
    /// end-of-configuration pre-prepare.
    pub committed_root: Option<Digest>,
    /// Pipeline depth of the *old* configuration, fixed at the vote (the
    /// schedule length must not change if the new configuration alters P).
    pub old_p: u64,
}

impl ReconfigState {
    /// The switch point `s + 2P`.
    pub fn switch_seq(&self) -> SeqNum {
        SeqNum(self.vote_seq.0 + 2 * self.old_p)
    }
    /// The checkpoint transaction's sequence number `s + 2P + 1`.
    pub fn checkpoint_seq(&self) -> SeqNum {
        SeqNum(self.switch_seq().0 + 1)
    }
    /// The final batch of the schedule `s + 2P + 1 + P`.
    pub fn end_seq(&self) -> SeqNum {
        SeqNum(self.checkpoint_seq().0 + self.old_p)
    }
    /// What the schedule expects at `seq`, if anything.
    pub fn expected_kind(&self, seq: SeqNum) -> Option<BatchKind> {
        if seq <= self.vote_seq {
            return None;
        }
        let offset = seq.0 - self.vote_seq.0;
        if offset <= 2 * self.old_p {
            Some(BatchKind::EndOfConfig { phase: offset as u32 })
        } else if seq == self.checkpoint_seq() {
            Some(BatchKind::Checkpoint)
        } else if seq <= self.end_seq() {
            Some(BatchKind::StartOfConfig {
                phase: (seq.0 - self.checkpoint_seq().0) as u32,
            })
        } else {
            None
        }
    }
}

impl Replica {
    /// Called while executing the governance transaction that passed the
    /// referendum; `vote_seq` is the batch being executed.
    pub(crate) fn begin_reconfig(&mut self, new_config: Configuration, vote_seq: SeqNum) {
        let old_p = self.pipeline_depth();
        self.reconfig =
            Some(ReconfigState { new_config, vote_seq, committed_root: None, old_p });
    }

    /// Primary: emit the next reconfiguration batch. Returns `true` when a
    /// batch was sent (continue the send loop) and `false` to wait.
    pub(crate) fn try_send_reconfig_batch(&mut self) -> bool {
        let Some(rc) = self.reconfig.clone() else {
            return false;
        };
        let seq = self.seq_next;
        match rc.expected_kind(seq) {
            Some(BatchKind::EndOfConfig { phase }) => {
                let Some(committed_root) = rc.committed_root else {
                    return false;
                };
                self.send_batch(
                    seq,
                    BatchKind::EndOfConfig { phase },
                    Vec::new(),
                    Vec::new(),
                    Some(committed_root),
                )
            }
            Some(BatchKind::Checkpoint) => self.send_mark_batch(seq, rc.switch_seq()),
            Some(BatchKind::StartOfConfig { phase }) => {
                self.send_batch(
                    seq,
                    BatchKind::StartOfConfig { phase },
                    Vec::new(),
                    Vec::new(),
                    None,
                )
            }
            // Past the schedule: nothing reconfiguration-specific to send
            // (the send loop's gate keeps us out of here).
            _ => false,
        }
    }

    /// Backup-side validation of a reconfiguration batch's pre-prepare
    /// against the seq-derived schedule.
    pub(crate) fn validate_reconfig_batch(&self, pp: &PrePrepare) -> Result<(), ExecError> {
        let Some(rc) = &self.reconfig else {
            return Err(ExecError::KindMismatch);
        };
        let expected = rc.expected_kind(pp.seq());
        if expected != Some(pp.core.kind) {
            return Err(ExecError::KindMismatch);
        }
        if matches!(pp.core.kind, BatchKind::EndOfConfig { .. }) {
            if pp.core.committed_root.is_none() || pp.core.committed_root != rc.committed_root {
                return Err(ExecError::KindMismatch);
            }
        } else if pp.core.committed_root.is_some() {
            return Err(ExecError::KindMismatch);
        }
        Ok(())
    }

    /// Hook run by both the primary and backups after a batch's entries
    /// are appended; drives the schedule forward. Idempotent under
    /// rollback + re-proposal.
    pub(crate) fn post_append_reconfig(&mut self, seq: SeqNum, kind: BatchKind) {
        let Some(rc) = self.reconfig.as_mut() else {
            return;
        };
        // Capture the committed Merkle root right after the final-vote
        // batch is fully in the ledger.
        if rc.committed_root.is_none() && seq == rc.vote_seq {
            rc.committed_root = Some(self.ledger.root_m());
            return;
        }
        if matches!(kind, BatchKind::EndOfConfig { .. }) && seq == rc.switch_seq() {
            self.activate_new_config(seq);
        }
        // The state is retained after the schedule completes: view changes
        // may roll back and re-propose any suffix, and validation needs
        // the anchor. A future referendum replaces it.
    }

    /// Whether the reconfiguration schedule still owns the next sequence
    /// number (the send loop's gate).
    pub(crate) fn reconfig_pending(&self) -> bool {
        self.reconfig.as_ref().is_some_and(|rc| self.seq_next <= rc.end_seq())
    }

    /// The switch at `s + 2P`: activate the new configuration, record it in
    /// the configuration history and checkpoint the store. Idempotent:
    /// re-proposal of the switch batch after a view change re-runs this
    /// harmlessly.
    fn activate_new_config(&mut self, seq: SeqNum) {
        let Some(rc) = self.reconfig.as_ref() else {
            return;
        };
        let new_config = rc.new_config.clone();
        if self.gov.active().number >= new_config.number {
            return; // already activated (view-change re-proposal)
        }
        self.gov.activate(new_config.clone());
        self.gov_snapshot = std::sync::Arc::new(self.gov.clone());
        self.requests.forget_verified(); // member keys may have changed
        if self.config_first_seq.last().map(|(s, _)| *s) != Some(seq.next()) {
            self.config_first_seq.push((seq.next(), new_config.clone()));
        }
        // "The replicas in the new configuration create a checkpoint of the
        // key-value store at sequence number s+2P."
        self.take_checkpoint(seq);
        self.out.push(Output::ConfigActivated { config: Box::new(new_config) });
    }

    /// Called when a batch commits: retire once the newest configuration in
    /// the history excludes this replica and its switch batch (`first − 1`)
    /// has committed locally — until then it still helps commit it. The
    /// history is what a rollback of the switch trims, so an undone switch
    /// retires nobody. One-way and announced once: §5.1's removed replica
    /// deletes its signing key and does not come back.
    pub(crate) fn maybe_retire(&mut self) {
        let Some((first, config)) = self.config_first_seq.last() else {
            return;
        };
        let removed = first.0 > 0
            && config.rank_of(self.id).is_none()
            && self.committed_up_to.0 >= first.0 - 1;
        if removed && !matches!(self.status, Status::Retired) {
            self.status = Status::Retired;
            self.out.push(Output::Retired);
        }
    }

    /// The configuration that was active when `seq` was prepared — needed
    /// to interpret evidence bitmaps that straddle a reconfiguration.
    pub fn config_for_seq(&self, seq: SeqNum) -> &Configuration {
        let mut chosen = self.config_first_seq.first().map(|(_, c)| c).expect("genesis config");
        for (first, config) in &self.config_first_seq {
            if *first <= seq {
                chosen = config;
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ia_ccf_types::config::testutil::test_config;
    use ia_ccf_types::{ReplicaId, SeqNum};

    use crate::app::CounterApp;
    use crate::events::Output;
    use crate::params::ProtocolParams;
    use crate::replica::{Replica, Status};

    /// Two batches past the switch that removed this replica commit in one
    /// turn — one `try_advance_committed` loop, two `maybe_retire` calls:
    /// `Output::Retired` is pushed once.
    #[test]
    fn retirement_is_announced_once() {
        let (genesis, keys, _) = test_config(4);
        let me = ReplicaId(3);
        let params = ProtocolParams::default();
        let mut replica =
            Replica::new(me, keys[3].clone(), genesis.clone(), Arc::new(CounterApp), params, [])
                .expect("build replica");
        let mut without = genesis;
        without.number = 1;
        without.replicas.retain(|r| r.id != me);
        replica.config_first_seq.push((SeqNum(7), without));
        for committed in 5..=7 {
            replica.committed_up_to = SeqNum(committed);
            replica.maybe_retire();
        }
        let announced = replica.out.iter().filter(|o| matches!(o, Output::Retired)).count();
        assert_eq!(announced, 1);
        assert!(matches!(replica.status, Status::Retired));
    }
}
