//! Governance for IA-CCF (§5).
//!
//! Three pieces:
//!
//! * [`referendum`] — the propose/vote state machine replicas execute as
//!   part of the service state. Executing the final required `vote` passes
//!   the referendum and triggers reconfiguration (§5.1).
//! * [`chain`] — the client-side governance receipt chain: clients hold
//!   receipts for every governance transaction and for the `P`-th
//!   end-of-configuration batch of each reconfiguration, and verify them
//!   incrementally from the genesis transaction to learn the signing keys
//!   valid at any ledger index (§5.2).
//! * [`fork`] — governance fork detection (Appx. B Lemma 7): two
//!   non-equivalent `P`-th end-of-configuration batches for the same
//!   configuration number convict every replica that signed both.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod chain;
pub mod fork;
pub mod referendum;

pub use chain::{ChainError, GovLink, GovernanceChain};
pub use fork::{check_boundary_equivalence, find_fork, ForkEvidence};
pub use referendum::{GovError, GovOutcome, GovernanceState, Proposal};
