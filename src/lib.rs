//! # IA-CCF in Rust
//!
//! A reproduction of *IA-CCF: Individual Accountability for Permissioned
//! Ledgers* (NSDI 2022): a BFT permissioned ledger that can assign blame
//! to the individual consortium members operating misbehaving replicas —
//! even when **all** replicas misbehave.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`core`] — L-PBFT: ledger-integrated BFT replication with early
//!   execution, nonce commitments, in-ledger evidence, auditable view
//!   changes, checkpoints and reconfiguration (§3, §5).
//! * [`client`] — request signing, receipt assembly/verification, the
//!   governance receipt chain (§3.3, §5.2).
//! * [`audit`] — the auditor and enforcer: ledger packages, replay,
//!   blame assignment, uPoMs (§4).
//! * [`types`], [`crypto`], [`merkle`], [`kv`], [`ledger`],
//!   [`governance`] — the substrates.
//! * [`net`], [`sim`] — transports and cluster harnesses.
//! * [`smallbank`] — the evaluation workload (§6).
//!
//! Start with `examples/quickstart.rs`; the audit flow is demonstrated in
//! `examples/banking_audit.rs` and reconfiguration in
//! `examples/governance_reconfig.rs`.

pub use ia_ccf_audit as audit;
pub use ia_ccf_client as client;
pub use ia_ccf_core as core;
pub use ia_ccf_crypto as crypto;
pub use ia_ccf_governance as governance;
pub use ia_ccf_kv as kv;
pub use ia_ccf_ledger as ledger;
pub use ia_ccf_merkle as merkle;
pub use ia_ccf_net as net;
pub use ia_ccf_pool as pool;
pub use ia_ccf_sim as sim;
pub use ia_ccf_smallbank as smallbank;
pub use ia_ccf_types as types;
