//! Service configurations — the governance data of §5.1.
//!
//! A configuration names the consortium members, the replicas each member
//! operates (with a member-signed endorsement of the replica's signing
//! key), and the vote threshold for referenda. Configurations are derived
//! entirely from the ledger: the genesis transaction defines configuration
//! 0 and every passed referendum produces the next one.

use ia_ccf_crypto::{PublicKey, Signature};
use serde::{Deserialize, Serialize};

use crate::ids::{MemberId, ReplicaId, View};
use crate::wire::Wire;

/// Domain-separation tag for member endorsements of replica keys.
pub const ENDORSEMENT_DOMAIN: u8 = 0x10;

/// A consortium member: identity and public signing key.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemberDesc {
    /// Member identifier, unique for the service lifetime.
    pub id: MemberId,
    /// The member's public signing key.
    pub key: PublicKey,
}

/// A replica: identity, signing key, the member operating it, and that
/// member's endorsement of the key (§5.1: "an endorsement of each replica's
/// signing key signed by the member responsible"). The endorsement is what
/// lets the enforcer translate replica blame into member punishment.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaDesc {
    /// Replica identifier, unique for the service lifetime (never reused).
    pub id: ReplicaId,
    /// The replica's public signing key.
    pub key: PublicKey,
    /// The member operating this replica.
    pub operator: MemberId,
    /// Signature by `operator` over the endorsement payload.
    pub endorsement: Signature,
}

impl ReplicaDesc {
    /// Canonical bytes the operator signs to endorse a replica key.
    pub fn endorsement_payload(id: ReplicaId, key: &PublicKey) -> Vec<u8> {
        let mut buf = vec![ENDORSEMENT_DOMAIN];
        id.encode(&mut buf);
        key.encode(&mut buf);
        buf
    }

    /// Check the operator's endorsement with `operator_key`.
    pub fn verify_endorsement(&self, operator_key: &PublicKey) -> bool {
        operator_key.verify(&Self::endorsement_payload(self.id, &self.key), &self.endorsement)
    }
}

/// The active member and replica sets at some point in the ledger.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Configuration {
    /// Configuration number: distance from genesis (genesis is 0, §B.2).
    pub number: u64,
    /// Members, sorted by id.
    pub members: Vec<MemberDesc>,
    /// Replicas, sorted by id. At most 64 (the `E` bitmaps are 8 bytes).
    pub replicas: Vec<ReplicaDesc>,
    /// Votes required to pass a referendum (part of service state, §5.1).
    pub vote_threshold: u32,
    /// Pipeline depth `P`: number of concurrently ordered batches, and the
    /// lag of commitment evidence (§3.1). Also sets the length of the
    /// end/start-of-configuration runs (§5.1). Part of service state so
    /// receipts and audits are self-describing.
    pub pipeline_depth: u32,
    /// Checkpoint interval `C` in sequence numbers (§3.4). Must exceed `P`
    /// (Appx. B relies on `C > P`).
    pub checkpoint_interval: u64,
}

impl Configuration {
    /// Number of replicas `N`.
    pub fn n(&self) -> usize {
        self.replicas.len()
    }

    /// Fault threshold `f = ⌈N/3⌉ − 1` (§2).
    pub fn f(&self) -> usize {
        self.n().div_ceil(3).saturating_sub(1)
    }

    /// Quorum size `N − f`.
    pub fn quorum(&self) -> usize {
        self.n() - self.f()
    }

    /// The primary of `view` is the replica with rank `view mod N`.
    pub fn primary_of(&self, view: View) -> ReplicaId {
        self.replicas[(view.0 % self.n() as u64) as usize].id
    }

    /// Rank (bitmap position) of a replica: its index in the id-sorted
    /// replica list.
    pub fn rank_of(&self, id: ReplicaId) -> Option<usize> {
        self.replicas.iter().position(|r| r.id == id)
    }

    /// The replica at a bitmap rank.
    pub fn replica_at_rank(&self, rank: usize) -> Option<&ReplicaDesc> {
        self.replicas.get(rank)
    }

    /// Public key of a replica in this configuration.
    pub fn replica_key(&self, id: ReplicaId) -> Option<&PublicKey> {
        self.replicas.iter().find(|r| r.id == id).map(|r| &r.key)
    }

    /// Public key of a member in this configuration.
    pub fn member_key(&self, id: MemberId) -> Option<&PublicKey> {
        self.members.iter().find(|m| m.id == id).map(|m| &m.key)
    }

    /// The member operating a replica — how uPoM blame on replicas becomes
    /// punishment of members (§4.2).
    pub fn operator_of(&self, id: ReplicaId) -> Option<MemberId> {
        self.replicas.iter().find(|r| r.id == id).map(|r| r.operator)
    }

    /// Structural validity: sorted unique ids, ≤ 64 replicas, every member
    /// and replica key a curve point of more than small order, operators
    /// exist, all endorsements verify, sane vote threshold.
    ///
    /// A small-order key is refused because under it `R` = identity,
    /// `s = 0` verifies for every message: anyone could sign as that
    /// member or replica, and blame on it would prove nothing.
    pub fn validate(&self) -> Result<(), String> {
        if self.replicas.is_empty() {
            return Err("no replicas".into());
        }
        if self.replicas.len() > 64 {
            return Err("more than 64 replicas".into());
        }
        if self.members.is_empty() {
            return Err("no members".into());
        }
        if !self.members.windows(2).all(|w| w[0].id < w[1].id) {
            return Err("member ids not sorted/unique".into());
        }
        if !self.replicas.windows(2).all(|w| w[0].id < w[1].id) {
            return Err("replica ids not sorted/unique".into());
        }
        if self.vote_threshold == 0 || self.vote_threshold as usize > self.members.len() {
            return Err("vote threshold out of range".into());
        }
        if self.pipeline_depth == 0 {
            return Err("pipeline depth must be at least 1".into());
        }
        if self.checkpoint_interval <= self.pipeline_depth as u64 {
            return Err("checkpoint interval must exceed pipeline depth".into());
        }
        for m in &self.members {
            usable_key(&m.key).map_err(|why| format!("member {} key {why}", m.id))?;
        }
        for r in &self.replicas {
            usable_key(&r.key).map_err(|why| format!("replica {} key {why}", r.id))?;
            let Some(key) = self.member_key(r.operator) else {
                return Err(format!("replica {} operator {} unknown", r.id, r.operator));
            };
            if !r.verify_endorsement(key) {
                return Err(format!("replica {} endorsement invalid", r.id));
            }
        }
        Ok(())
    }

    /// Digest identifying this configuration's contents.
    pub fn digest(&self) -> ia_ccf_crypto::Digest {
        ia_ccf_crypto::hash_bytes(&self.to_bytes())
    }
}

/// `Ok` for a key that is a curve point of more than small order;
/// otherwise what is wrong with it.
fn usable_key(key: &PublicKey) -> Result<(), &'static str> {
    match key.is_weak() {
        None => Err("is not a curve point"),
        Some(true) => Err("has small order"),
        Some(false) => Ok(()),
    }
}

wire_struct!(MemberDesc { id, key });
wire_struct!(ReplicaDesc { id, key, operator, endorsement });
wire_struct!(Configuration {
    number,
    members: seq,
    replicas: seq,
    vote_threshold,
    pipeline_depth,
    checkpoint_interval,
});

/// Test-support builders shared with downstream crates' tests.
pub mod testutil {
    use super::*;
    use ia_ccf_crypto::KeyPair;

    /// Build a configuration with `n` replicas, one member per replica.
    /// Keys are derived deterministically from labels.
    pub fn test_config(n: usize) -> (Configuration, Vec<KeyPair>, Vec<KeyPair>) {
        let member_keys: Vec<KeyPair> =
            (0..n).map(|i| KeyPair::from_label(&format!("member-{i}"))).collect();
        let replica_keys: Vec<KeyPair> =
            (0..n).map(|i| KeyPair::from_label(&format!("replica-{i}"))).collect();
        let members: Vec<MemberDesc> = member_keys
            .iter()
            .enumerate()
            .map(|(i, kp)| MemberDesc { id: MemberId(i as u32), key: kp.public() })
            .collect();
        let replicas: Vec<ReplicaDesc> = replica_keys
            .iter()
            .enumerate()
            .map(|(i, kp)| {
                let id = ReplicaId(i as u32);
                let payload = ReplicaDesc::endorsement_payload(id, &kp.public());
                ReplicaDesc {
                    id,
                    key: kp.public(),
                    operator: MemberId(i as u32),
                    endorsement: member_keys[i].sign(&payload),
                }
            })
            .collect();
        let config = Configuration {
            number: 0,
            members,
            replicas,
            vote_threshold: (n as u32 / 2) + 1,
            pipeline_depth: 2,
            checkpoint_interval: 10,
        };
        (config, replica_keys, member_keys)
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::test_config;
    use super::*;

    #[test]
    fn fault_thresholds_match_paper() {
        // N=4 ⇒ f=1, quorum 3 (the paper's dedicated-cluster setup);
        // N=10 ⇒ f=3, quorum 7 (Tab. 1's f=3 column); N=13 ⇒ f=4 (§6.5).
        let cases = [(4, 1, 3), (10, 3, 7), (13, 4, 9), (64, 21, 43)];
        for (n, f, q) in cases {
            let (c, _, _) = test_config(n);
            assert_eq!(c.f(), f, "N={n}");
            assert_eq!(c.quorum(), q, "N={n}");
        }
    }

    #[test]
    fn primary_rotates_with_view() {
        let (c, _, _) = test_config(4);
        assert_eq!(c.primary_of(View(0)), ReplicaId(0));
        assert_eq!(c.primary_of(View(3)), ReplicaId(3));
        assert_eq!(c.primary_of(View(4)), ReplicaId(0));
    }

    #[test]
    fn validate_accepts_test_config() {
        let (c, _, _) = test_config(7);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_endorsement() {
        let (mut c, _, _) = test_config(4);
        c.replicas[2].endorsement = Signature::zero();
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_unsorted_replicas() {
        let (mut c, _, _) = test_config(4);
        c.replicas.swap(0, 1);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_threshold() {
        let (mut c, _, _) = test_config(4);
        c.vote_threshold = 5;
        assert!(c.validate().is_err());
        c.vote_threshold = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn wire_roundtrip() {
        let (c, _, _) = test_config(5);
        assert_eq!(Configuration::from_bytes(&c.to_bytes()).unwrap(), c);
    }

    #[test]
    fn rank_mapping() {
        let (c, _, _) = test_config(4);
        for (rank, r) in c.replicas.iter().enumerate() {
            assert_eq!(c.rank_of(r.id), Some(rank));
            assert_eq!(c.replica_at_rank(rank).unwrap().id, r.id);
        }
        assert_eq!(c.rank_of(ReplicaId(99)), None);
    }

    #[test]
    fn digest_changes_with_contents() {
        let (a, _, _) = test_config(4);
        let (mut b, _, _) = test_config(4);
        assert_eq!(a.digest(), b.digest());
        b.vote_threshold = 1;
        assert_ne!(a.digest(), b.digest());
    }
}
