//! The propose/vote referendum state machine (§5.1).
//!
//! "Changing the configuration … is initiated by a referendum: members
//! propose an updated configuration followed by the other members voting on
//! the proposal. The number of votes required to pass the proposal is part
//! of the service's state. … Members are also limited to adding or removing
//! at most f replicas, which ensures that the configuration change does not
//! affect the service's liveness."
//!
//! Every replica runs this machine deterministically while executing
//! governance transactions, so the outcome (including *which* vote is the
//! final one) is part of the agreed history.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use ia_ccf_types::{Configuration, GovAction, MemberId};

/// An active proposal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proposal {
    /// Proposal id, unique per proposer.
    pub id: u64,
    /// The proposing member.
    pub proposer: MemberId,
    /// The configuration that will take effect if the referendum passes.
    pub new_config: Configuration,
    /// Members that have voted to approve.
    pub approvals: BTreeSet<MemberId>,
}

/// Why a governance action was rejected. Rejected actions still execute
/// (they are ordered transactions); they simply record a failed result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovError {
    /// The signer is not an active member.
    NotAMember(MemberId),
    /// Proposal id already in use by this proposer.
    DuplicateProposal(u64),
    /// Vote for an unknown proposal.
    UnknownProposal(u64),
    /// Member already voted on this proposal.
    AlreadyVoted(MemberId),
    /// Proposed configuration failed validation.
    InvalidConfig(String),
    /// Proposed configuration number is not current + 1.
    WrongConfigNumber {
        /// Number in the proposal.
        got: u64,
        /// Number required.
        want: u64,
    },
    /// The replica-set delta exceeds `f` (liveness guard).
    TooManyReplicaChanges {
        /// Replicas added plus removed.
        delta: usize,
        /// Maximum allowed (`f`).
        max: usize,
    },
}

impl std::fmt::Display for GovError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GovError::NotAMember(m) => write!(f, "{m} is not an active member"),
            GovError::DuplicateProposal(id) => write!(f, "duplicate proposal {id}"),
            GovError::UnknownProposal(id) => write!(f, "unknown proposal {id}"),
            GovError::AlreadyVoted(m) => write!(f, "{m} already voted"),
            GovError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            GovError::WrongConfigNumber { got, want } => {
                write!(f, "configuration number {got}, expected {want}")
            }
            GovError::TooManyReplicaChanges { delta, max } => {
                write!(f, "replica delta {delta} exceeds f = {max}")
            }
        }
    }
}

impl std::error::Error for GovError {}

/// Result of applying a governance action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovOutcome {
    /// The action was recorded; no referendum passed.
    Recorded,
    /// This vote was the final one: the referendum passed and
    /// reconfiguration to the contained configuration must begin *now*
    /// (the primary ends the current batch, §5.1).
    ReferendumPassed(Box<Configuration>),
}

/// Deterministic governance state, part of every replica's service state.
#[derive(Debug, Clone)]
pub struct GovernanceState {
    active: Configuration,
    /// Open proposals keyed by (proposer, id).
    proposals: BTreeMap<(MemberId, u64), Proposal>,
}

impl GovernanceState {
    /// Start from the genesis (or any later) configuration.
    pub fn new(active: Configuration) -> Self {
        GovernanceState { active, proposals: BTreeMap::new() }
    }

    /// The active configuration.
    pub fn active(&self) -> &Configuration {
        &self.active
    }

    /// Open proposals, in key order.
    pub fn proposals(&self) -> impl Iterator<Item = &Proposal> {
        self.proposals.values()
    }

    /// Apply a governance action submitted by `member`.
    pub fn apply(&mut self, member: MemberId, action: &GovAction) -> Result<GovOutcome, GovError> {
        if self.active.member_key(member).is_none() {
            return Err(GovError::NotAMember(member));
        }
        match action {
            GovAction::Propose { proposal_id, new_config } => {
                self.apply_propose(member, *proposal_id, new_config)
            }
            GovAction::Vote { proposal_id, approve } => {
                self.apply_vote(member, *proposal_id, *approve)
            }
        }
    }

    /// Switch to a new configuration after reconfiguration completes; open
    /// proposals are discarded (they were relative to the old config).
    pub fn activate(&mut self, config: Configuration) {
        self.active = config;
        self.proposals.clear();
    }

    fn apply_propose(
        &mut self,
        member: MemberId,
        id: u64,
        new_config: &Configuration,
    ) -> Result<GovOutcome, GovError> {
        if self.proposals.contains_key(&(member, id)) {
            return Err(GovError::DuplicateProposal(id));
        }
        new_config.validate().map_err(GovError::InvalidConfig)?;
        let want = self.active.number + 1;
        if new_config.number != want {
            return Err(GovError::WrongConfigNumber { got: new_config.number, want });
        }
        let delta = replica_delta(&self.active, new_config);
        let max = self.active.f();
        if delta > max {
            return Err(GovError::TooManyReplicaChanges { delta, max });
        }
        self.proposals.insert(
            (member, id),
            Proposal {
                id,
                proposer: member,
                new_config: new_config.clone(),
                approvals: BTreeSet::new(),
            },
        );
        Ok(GovOutcome::Recorded)
    }

    fn apply_vote(
        &mut self,
        member: MemberId,
        id: u64,
        approve: bool,
    ) -> Result<GovOutcome, GovError> {
        // Votes reference a proposal by id across all proposers; ids are
        // globally unique in practice because proposers namespace them.
        let key = self.proposals.keys().find(|(_, pid)| *pid == id).copied();
        let Some(Entry::Occupied(mut proposal)) = key.map(|key| self.proposals.entry(key)) else {
            return Err(GovError::UnknownProposal(id));
        };
        if !approve {
            // A rejection is recorded as an ordered transaction but does not
            // count toward the threshold.
            return Ok(GovOutcome::Recorded);
        }
        if !proposal.get_mut().approvals.insert(member) {
            return Err(GovError::AlreadyVoted(member));
        }
        if proposal.get().approvals.len() >= self.active.vote_threshold as usize {
            return Ok(GovOutcome::ReferendumPassed(Box::new(proposal.remove().new_config)));
        }
        Ok(GovOutcome::Recorded)
    }
}

/// Number of replicas added plus removed between two configurations.
fn replica_delta(old: &Configuration, new: &Configuration) -> usize {
    let old_ids: BTreeSet<_> = old.replicas.iter().map(|r| r.id).collect();
    let new_ids: BTreeSet<_> = new.replicas.iter().map(|r| r.id).collect();
    let added = new_ids.difference(&old_ids).count();
    let removed = old_ids.difference(&new_ids).count();
    added + removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_crypto::{KeyPair, PublicKey};
    use ia_ccf_types::config::testutil::test_config;
    use ia_ccf_types::{MemberDesc, ReplicaDesc, ReplicaId};

    /// A next configuration replacing one replica (delta 2 ≤ f only when
    /// f ≥ 2, so we use swap-one for N=4: delta 2 > f=1 — instead ADD one).
    fn next_config_add_replica(base: &Configuration) -> (Configuration, KeyPair, KeyPair) {
        let mut cfg = base.clone();
        cfg.number = base.number + 1;
        let new_id = ReplicaId(base.replicas.iter().map(|r| r.id.0).max().unwrap() + 1);
        let member_kp = KeyPair::from_label("member-0");
        let replica_kp = KeyPair::from_label(&format!("replica-{}", new_id.0));
        let payload = ReplicaDesc::endorsement_payload(new_id, &replica_kp.public());
        cfg.replicas.push(ReplicaDesc {
            id: new_id,
            key: replica_kp.public(),
            operator: MemberId(0),
            endorsement: member_kp.sign(&payload),
        });
        (cfg, member_kp, replica_kp)
    }

    #[test]
    fn referendum_passes_at_threshold() {
        let (config, _, _) = test_config(4); // threshold = 3
        let (next, _, _) = next_config_add_replica(&config);
        let mut gov = GovernanceState::new(config);

        let propose = GovAction::Propose { proposal_id: 1, new_config: next.clone() };
        assert_eq!(gov.apply(MemberId(0), &propose), Ok(GovOutcome::Recorded));

        let vote = |id| GovAction::Vote { proposal_id: id, approve: true };
        assert_eq!(gov.apply(MemberId(0), &vote(1)), Ok(GovOutcome::Recorded));
        assert_eq!(gov.apply(MemberId(1), &vote(1)), Ok(GovOutcome::Recorded));
        match gov.apply(MemberId(2), &vote(1)) {
            Ok(GovOutcome::ReferendumPassed(c)) => assert_eq!(*c, next),
            other => panic!("expected pass, got {other:?}"),
        }
        // Proposal is consumed.
        assert_eq!(gov.apply(MemberId(3), &vote(1)), Err(GovError::UnknownProposal(1)));
    }

    #[test]
    fn non_member_rejected() {
        let (config, _, _) = test_config(4);
        let mut gov = GovernanceState::new(config);
        let err = gov
            .apply(MemberId(99), &GovAction::Vote { proposal_id: 1, approve: true })
            .unwrap_err();
        assert_eq!(err, GovError::NotAMember(MemberId(99)));
    }

    #[test]
    fn double_vote_rejected() {
        let (config, _, _) = test_config(4);
        let (next, _, _) = next_config_add_replica(&config);
        let mut gov = GovernanceState::new(config);
        gov.apply(MemberId(0), &GovAction::Propose { proposal_id: 1, new_config: next }).unwrap();
        let vote = GovAction::Vote { proposal_id: 1, approve: true };
        gov.apply(MemberId(1), &vote).unwrap();
        assert_eq!(gov.apply(MemberId(1), &vote), Err(GovError::AlreadyVoted(MemberId(1))));
    }

    #[test]
    fn rejecting_vote_does_not_count() {
        let (config, _, _) = test_config(4);
        let (next, _, _) = next_config_add_replica(&config);
        let mut gov = GovernanceState::new(config);
        gov.apply(MemberId(0), &GovAction::Propose { proposal_id: 1, new_config: next }).unwrap();
        for m in 0..3 {
            assert_eq!(
                gov.apply(MemberId(m), &GovAction::Vote { proposal_id: 1, approve: false }),
                Ok(GovOutcome::Recorded)
            );
        }
        // Still open: no approvals yet.
        assert_eq!(gov.proposals().count(), 1);
    }

    #[test]
    fn wrong_config_number_rejected() {
        let (config, _, _) = test_config(4);
        let (mut next, _, _) = next_config_add_replica(&config);
        next.number = 7;
        let mut gov = GovernanceState::new(config);
        let err = gov
            .apply(MemberId(0), &GovAction::Propose { proposal_id: 1, new_config: next })
            .unwrap_err();
        assert_eq!(err, GovError::WrongConfigNumber { got: 7, want: 1 });
    }

    #[test]
    fn replica_delta_guard() {
        // N=10 ⇒ f=3: removing 4 replicas must be rejected.
        let (config, _, _) = test_config(10);
        let mut next = config.clone();
        next.number = 1;
        next.replicas.truncate(6);
        let mut gov = GovernanceState::new(config);
        let err = gov
            .apply(MemberId(0), &GovAction::Propose { proposal_id: 1, new_config: next })
            .unwrap_err();
        assert_eq!(err, GovError::TooManyReplicaChanges { delta: 4, max: 3 });
    }

    #[test]
    fn invalid_config_rejected() {
        let (config, _, _) = test_config(4);
        let (mut next, _, _) = next_config_add_replica(&config);
        next.replicas[0].endorsement = ia_ccf_types::Signature::zero();
        let mut gov = GovernanceState::new(config);
        assert!(matches!(
            gov.apply(MemberId(0), &GovAction::Propose { proposal_id: 1, new_config: next }),
            Err(GovError::InvalidConfig(_))
        ));
    }

    /// The eight small-order encodings, then the identity's `y = p + 1`
    /// alias: under each, `R` = identity with `s = 0` verifies for every
    /// message.
    fn weak_keys() -> Vec<PublicKey> {
        [
            "0100000000000000000000000000000000000000000000000000000000000000",
            "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
            "0000000000000000000000000000000000000000000000000000000000000080",
            "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
            "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
            "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
            "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        ]
        .iter()
        .map(|hex| {
            PublicKey(std::array::from_fn(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap()))
        })
        .collect()
    }

    /// `base` plus a replica under `key`, endorsed by its operator, and
    /// `base` plus a member under `key`: the two referendums that register
    /// a key.
    fn configs_registering(base: &Configuration, key: PublicKey) -> [Configuration; 2] {
        let (mut with_replica, member_kp, _) = next_config_add_replica(base);
        let replica = with_replica.replicas.last_mut().unwrap();
        replica.key = key;
        replica.endorsement = member_kp.sign(&ReplicaDesc::endorsement_payload(replica.id, &key));
        let mut with_member = base.clone();
        with_member.number = base.number + 1;
        with_member.members.push(MemberDesc { id: MemberId(4), key });
        [with_replica, with_member]
    }

    #[test]
    fn referendum_refuses_weak_and_undecodable_keys() {
        let (config, _, _) = test_config(4);
        // x = 0 with the sign bit set: not a curve point.
        let mut undecodable = [0u8; 32];
        undecodable[0] = 1;
        undecodable[31] = 0x80;
        let mut refused = weak_keys();
        refused.push(PublicKey(undecodable));
        for key in refused {
            for next in configs_registering(&config, key) {
                let mut gov = GovernanceState::new(config.clone());
                let propose = GovAction::Propose { proposal_id: 1, new_config: next };
                let got = gov.apply(MemberId(0), &propose);
                assert!(matches!(got, Err(GovError::InvalidConfig(_))), "{key}: {got:?}");
            }
        }
        // The same referendums with an honest key pass validation.
        for next in configs_registering(&config, KeyPair::from_label("fresh").public()) {
            let mut gov = GovernanceState::new(config.clone());
            let propose = GovAction::Propose { proposal_id: 1, new_config: next };
            assert_eq!(gov.apply(MemberId(0), &propose), Ok(GovOutcome::Recorded));
        }
    }

    #[test]
    fn activate_clears_proposals() {
        let (config, _, _) = test_config(4);
        let (next, _, _) = next_config_add_replica(&config);
        let mut gov = GovernanceState::new(config);
        gov.apply(MemberId(0), &GovAction::Propose { proposal_id: 1, new_config: next.clone() })
            .unwrap();
        gov.activate(next.clone());
        assert_eq!(gov.proposals().count(), 0);
        assert_eq!(gov.active().number, 1);
    }
}
