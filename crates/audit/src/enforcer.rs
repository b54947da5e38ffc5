//! The enforcer (§4.2).
//!
//! IA-CCF's one component outside the failure domain: a court or
//! arbitration body that (a) compels replicas/members to produce ledger
//! packages under a deadline — sanctioning non-production — and (b)
//! verifies uPoMs and punishes the members operating blamed replicas. The
//! member-signed endorsements of replica keys in the configuration (§5.1)
//! are what turn replica blame into member punishment.

use std::sync::Arc;

use ia_ccf_core::app::App;
use ia_ccf_governance::chain::GovernanceChain;
use ia_ccf_types::{Configuration, MemberId, ReplicaId, SeqNum};

use crate::auditor::{AuditOutcome, Auditor, StoredReceipt, Upom};
use crate::package::LedgerPackage;

/// Something that can produce a ledger package — an honest replica, a
/// Byzantine one serving tampered data, or a member compelled to produce
/// its replica's ledger.
pub trait LedgerSource {
    /// The replica this source speaks for.
    fn source_id(&self) -> ReplicaId;
    /// Produce a package spanning at least `from_seq` onward, or `None`
    /// (refusal / unresponsive — sanctioned).
    fn ledger_package(&self, from_seq: SeqNum) -> Option<LedgerPackage>;
}

impl LedgerSource for ia_ccf_core::Replica {
    fn source_id(&self) -> ReplicaId {
        self.id()
    }
    fn ledger_package(&self, from_seq: SeqNum) -> Option<LedgerPackage> {
        Some(LedgerPackage::from_replica(self, from_seq))
    }
}

/// A recorded punishment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sanction {
    /// The punished member.
    pub member: MemberId,
    /// The replica whose behaviour triggered it.
    pub replica: ReplicaId,
    /// Why.
    pub reason: String,
}

/// The enforcer: collects packages, verifies uPoMs, records sanctions.
pub struct Enforcer {
    /// Sanctions imposed so far.
    pub sanctions: Vec<Sanction>,
}

impl Default for Enforcer {
    fn default() -> Self {
        Self::new()
    }
}

impl Enforcer {
    /// A fresh enforcer.
    pub fn new() -> Self {
        Enforcer { sanctions: Vec::new() }
    }

    /// Ask each source for a package; sources that fail to produce one are
    /// sanctioned (the §4.2 deadline, collapsed to a single round in the
    /// simulator). Returns the produced packages with their source ids.
    pub fn obtain_packages(
        &mut self,
        sources: &[&dyn LedgerSource],
        from_seq: SeqNum,
        config: &Configuration,
    ) -> Vec<(ReplicaId, LedgerPackage)> {
        let mut out = Vec::new();
        for src in sources {
            match src.ledger_package(from_seq) {
                Some(pkg) => out.push((src.source_id(), pkg)),
                None => {
                    self.sanction_replica(
                        src.source_id(),
                        config,
                        "failed to produce ledger for audit by the deadline",
                    );
                }
            }
        }
        out
    }

    /// Verify a uPoM by re-running the (bounded) audit: it stands only if
    /// the audit derives its kind, its `at_seq` and exactly its blame set.
    /// Then punish the members operating the blamed replicas, mapped
    /// through the configuration that governs `at_seq`. An invalid uPoM
    /// sanctions nobody and reports `Err` (the paper punishes the auditor;
    /// we surface it to the caller).
    pub fn process_upom(
        &mut self,
        upom: &Upom,
        receipts: &[StoredReceipt],
        gov_chain: &GovernanceChain,
        package: &LedgerPackage,
        genesis: &Configuration,
        app: Arc<dyn App>,
    ) -> Result<Vec<Sanction>, String> {
        let auditor = Auditor::new(genesis.clone(), app);
        let AuditOutcome::Violation(derived) = auditor.audit(receipts, gov_chain, package) else {
            return Err("uPoM did not reverify: audit is clean".into());
        };
        let claim = |u: &Upom| (u.kind.clone(), u.at_seq, u.blamed.clone());
        let (claimed, found) = (claim(upom), claim(&derived));
        if claimed != found {
            return Err(format!("uPoM mismatch: claimed {claimed:?}, found {found:?}"));
        }
        if upom.blamed.is_empty() {
            return Ok(Vec::new());
        }
        let config = auditor.config_at(gov_chain, package, upom.at_seq)?;
        let blamed = upom.blamed.iter();
        Ok(blamed.filter_map(|&r| self.sanction_replica(r, &config, &upom.details)).collect())
    }

    /// Punish the member operating `replica` (per the configuration's
    /// operator endorsements). Returns the sanction when the replica maps
    /// to a member.
    pub fn sanction_replica(
        &mut self,
        replica: ReplicaId,
        config: &Configuration,
        reason: &str,
    ) -> Option<Sanction> {
        let member = config.operator_of(replica)?;
        let sanction = Sanction { member, replica, reason: reason.to_string() };
        self.sanctions.push(sanction.clone());
        Some(sanction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_types::config::testutil::test_config;

    struct Refusing(ReplicaId);
    impl LedgerSource for Refusing {
        fn source_id(&self) -> ReplicaId {
            self.0
        }
        fn ledger_package(&self, _from: SeqNum) -> Option<LedgerPackage> {
            None
        }
    }

    #[test]
    fn unresponsive_sources_are_sanctioned() {
        let (config, _, _) = test_config(4);
        let mut enforcer = Enforcer::new();
        let a = Refusing(ReplicaId(1));
        let b = Refusing(ReplicaId(2));
        let got = enforcer.obtain_packages(&[&a, &b], SeqNum(0), &config);
        assert!(got.is_empty());
        assert_eq!(enforcer.sanctions.len(), 2);
        let punished: Vec<MemberId> = enforcer.sanctions.iter().map(|s| s.member).collect();
        assert_eq!(punished, [MemberId(1), MemberId(2)]);
    }

    #[test]
    fn sanction_maps_replica_to_operator() {
        let (config, _, _) = test_config(4);
        let mut enforcer = Enforcer::new();
        let s = enforcer.sanction_replica(ReplicaId(3), &config, "test").unwrap();
        assert_eq!(s.member, MemberId(3));
        // Unknown replicas can't be mapped.
        assert!(enforcer.sanction_replica(ReplicaId(99), &config, "test").is_none());
    }
}
