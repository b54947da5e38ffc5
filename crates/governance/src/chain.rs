//! Client-side governance receipt chains (§5.2).
//!
//! Clients never hold the ledger. To verify transaction receipts under a
//! changing replica set, they hold the *receipts of the governance
//! sub-ledger*: one receipt per governance transaction (with the signed
//! request, so the referendum can be replayed) and one receipt for the
//! `P`-th end-of-configuration batch of every reconfiguration. Verifying
//! the chain from the genesis configuration yields the configuration — and
//! hence the signing keys — active at any governance index `i_g`.

use ia_ccf_crypto::Digest;
use ia_ccf_types::{
    BatchKind, ConfigSteps, Configuration, LedgerIdx, MemberId, Receipt, ReceiptBody,
    ReceiptError, RequestAction, SignedRequest,
};

use crate::referendum::{GovOutcome, GovernanceState};

/// Result bytes recorded for a governance transaction that passed its
/// referendum (the final `vote`).
pub const GOV_OUTPUT_PASSED: &[u8] = &[1];
/// Result bytes recorded for any other successfully executed governance
/// transaction.
pub const GOV_OUTPUT_RECORDED: &[u8] = &[0];

/// One link of the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovLink {
    /// A governance transaction: the signed request (replayed by the
    /// verifier) plus its receipt.
    GovTx {
        /// The propose/vote request.
        request: SignedRequest,
        /// Receipt proving the transaction's position and result.
        receipt: Receipt,
    },
    /// The `P`-th end-of-configuration batch receipt sealing a
    /// reconfiguration.
    Boundary {
        /// Batch-level receipt for the `P`-th end-of-configuration batch.
        receipt: Receipt,
    },
}

impl GovLink {
    /// The receipt inside the link.
    pub fn receipt(&self) -> &Receipt {
        match self {
            GovLink::GovTx { receipt, .. } => receipt,
            GovLink::Boundary { receipt } => receipt,
        }
    }
}

/// Why chain verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// A receipt failed cryptographic verification (link index given).
    ReceiptInvalid(usize, ReceiptError),
    /// A receipt's witness does not match the attached request.
    WitnessMismatch(usize),
    /// A link's request is not a governance transaction.
    NotGovernance(usize),
    /// The member signature on a governance request is invalid.
    BadMemberSig(usize),
    /// The signer is not a member of the active configuration.
    UnknownMember(usize, MemberId),
    /// The recorded result disagrees with the verifier's own replay of the
    /// referendum — replicas recorded a wrong governance outcome.
    OutcomeMismatch(usize),
    /// A boundary receipt is not a `P`-th end-of-configuration batch.
    BadBoundary(usize, &'static str),
    /// A boundary appeared with no passed referendum pending.
    UnexpectedBoundary(usize),
    /// The chain ended with a passed referendum but no sealing boundary.
    MissingBoundary,
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::ReceiptInvalid(i, e) => write!(f, "link {i}: receipt invalid: {e}"),
            ChainError::WitnessMismatch(i) => write!(f, "link {i}: witness/request mismatch"),
            ChainError::NotGovernance(i) => write!(f, "link {i}: not a governance transaction"),
            ChainError::BadMemberSig(i) => write!(f, "link {i}: bad member signature"),
            ChainError::UnknownMember(i, m) => write!(f, "link {i}: unknown member {m}"),
            ChainError::OutcomeMismatch(i) => write!(f, "link {i}: recorded outcome mismatch"),
            ChainError::BadBoundary(i, why) => write!(f, "link {i}: bad boundary: {why}"),
            ChainError::UnexpectedBoundary(i) => write!(f, "link {i}: unexpected boundary"),
            ChainError::MissingBoundary => write!(f, "chain ends before sealing boundary"),
        }
    }
}

impl std::error::Error for ChainError {}

/// The member who signed a governance request. By convention governance
/// requests carry the member id in the client field.
pub fn member_of(request: &SignedRequest) -> MemberId {
    MemberId(request.request.client.0 as u32)
}

/// A verified view of the configuration history: the configuration active
/// from each governance index on, the first step `(0, genesis)`. A receipt
/// whose `i_g` is `gov_index` is verified under `at(gov_index)`: the
/// configuration active after the last governance transaction at or before
/// that index.
pub type ConfigHistory = ConfigSteps<LedgerIdx>;

/// A governance receipt chain, from genesis.
#[derive(Debug, Clone, Default)]
pub struct GovernanceChain {
    /// The links, in ledger order.
    pub links: Vec<GovLink>,
}

impl GovernanceChain {
    /// An empty chain (service still in configuration 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Verify every link starting from `genesis`, replaying the referendum
    /// logic, and return the configuration history (§5.2: "The client
    /// verifies the governance receipts, and if successful, the replica
    /// signing keys at index i are used to validate the receipt").
    pub fn verify(&self, genesis: &Configuration) -> Result<ConfigHistory, ChainError> {
        let mut state = GovernanceState::new(genesis.clone());
        let mut steps = ConfigHistory::new(LedgerIdx(0), genesis.clone());
        let mut pending: Option<(Configuration, LedgerIdx)> = None;

        for (i, link) in self.links.iter().enumerate() {
            match link {
                GovLink::GovTx { request, receipt } => {
                    let config = state.active();
                    receipt.verify(config).map_err(|e| ChainError::ReceiptInvalid(i, e))?;
                    let ReceiptBody::Tx(witness) = &receipt.body else {
                        return Err(ChainError::WitnessMismatch(i));
                    };
                    if witness.tx_hash != request.digest() {
                        return Err(ChainError::WitnessMismatch(i));
                    }
                    let RequestAction::Governance(action) = &request.request.action else {
                        return Err(ChainError::NotGovernance(i));
                    };
                    let member = member_of(request);
                    let key = config
                        .member_key(member)
                        .ok_or(ChainError::UnknownMember(i, member))?;
                    if !request.verify_with(key) {
                        return Err(ChainError::BadMemberSig(i));
                    }

                    // Replay the referendum step and compare with the
                    // recorded outcome.
                    let outcome = state.apply(member, action);
                    let expected: (bool, &[u8]) = match &outcome {
                        Ok(GovOutcome::Recorded) => (true, GOV_OUTPUT_RECORDED),
                        Ok(GovOutcome::ReferendumPassed(_)) => (true, GOV_OUTPUT_PASSED),
                        Err(_) => (false, &[]),
                    };
                    let recorded_ok = witness.result.ok;
                    let recorded_out = witness.result.output.as_slice();
                    let matches = if expected.0 {
                        recorded_ok && recorded_out == expected.1
                    } else {
                        !recorded_ok
                    };
                    if !matches {
                        return Err(ChainError::OutcomeMismatch(i));
                    }
                    if let Ok(GovOutcome::ReferendumPassed(new_config)) = outcome {
                        pending = Some((*new_config, witness.index));
                    }
                }
                GovLink::Boundary { receipt } => {
                    let config = state.active();
                    let Some((new_config, passed_at)) = pending.take() else {
                        return Err(ChainError::UnexpectedBoundary(i));
                    };
                    receipt.verify(config).map_err(|e| ChainError::ReceiptInvalid(i, e))?;
                    let BatchKind::EndOfConfig { phase } = receipt.kind() else {
                        return Err(ChainError::BadBoundary(i, "not an end-of-config batch"));
                    };
                    if phase != config.pipeline_depth {
                        return Err(ChainError::BadBoundary(i, "not the P-th end-of-config batch"));
                    }
                    if receipt.cert.core.committed_root.is_none() {
                        return Err(ChainError::BadBoundary(i, "missing committed root"));
                    }
                    if !matches!(receipt.body, ReceiptBody::Batch { root_g } if root_g == Digest::zero())
                    {
                        return Err(ChainError::BadBoundary(i, "end-of-config batch not empty"));
                    }
                    if passed_at <= steps.last().0 {
                        return Err(ChainError::BadBoundary(i, "referendum passed out of order"));
                    }
                    state.activate(new_config.clone());
                    steps.push(passed_at, new_config);
                }
            }
        }
        if pending.is_some() {
            return Err(ChainError::MissingBoundary);
        }
        Ok(steps)
    }

    /// Append a link (clients extend their cache incrementally as they
    /// fetch missing receipts from replicas).
    pub fn push(&mut self, link: GovLink) {
        self.links.push(link);
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the chain has no links.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_types::config::testutil::test_config;

    #[test]
    fn empty_chain_yields_genesis_history() {
        let (genesis, _, _) = test_config(4);
        let chain = GovernanceChain::new();
        let history = chain.verify(&genesis).unwrap();
        assert_eq!(history, ConfigHistory::new(LedgerIdx(0), genesis.clone()));
        assert_eq!(history.latest(), &genesis);
        assert_eq!(history.at(LedgerIdx(0)), &genesis);
        assert_eq!(history.at(LedgerIdx(999)), &genesis);
    }

    #[test]
    fn config_history_lookup_picks_last_step() {
        let (a, _, _) = test_config(4);
        let mut b = a.clone();
        b.number = 1;
        let mut history = ConfigHistory::new(LedgerIdx(0), a.clone());
        history.push(LedgerIdx(50), b.clone());
        assert_eq!(history.at(LedgerIdx(0)).number, 0);
        assert_eq!(history.at(LedgerIdx(49)).number, 0);
        assert_eq!(history.at(LedgerIdx(50)).number, 1);
        assert_eq!(history.at(LedgerIdx(51)).number, 1);
    }

    // End-to-end chain verification (with real receipts spanning a
    // reconfiguration) is exercised in the integration tests, where a
    // cluster produces the receipts.
}
