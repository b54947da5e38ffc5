//! Protocol vocabulary for IA-CCF.
//!
//! Everything the replicas, clients, auditors and the enforcer exchange or
//! persist is defined here:
//!
//! * identifiers and protocol numbers ([`ids`]);
//! * the compact binary wire codec ([`wire`]) — ledger-entry and receipt
//!   sizes (Tab. 1, §6.4) are properties of this encoding;
//! * configurations — the governance data of §5.1 ([`config`]);
//! * client/governance/system requests ([`request`]);
//! * L-PBFT protocol messages (Alg. 1 & 2) ([`messages`]);
//! * ledger entries (Fig. 3) ([`entry`]);
//! * receipts and their verification (Alg. 3) ([`receipt`]).
//!
//! Splitting the vocabulary from the replica state machine keeps
//! `ia-ccf-core` (the protocol) auditable and lets the auditor and client
//! speak the same types without depending on replica internals.

#![forbid(unsafe_code)]

// First, so its layout macros are in scope in every module below.
#[macro_use]
pub mod wire;

pub mod config;
pub mod entry;
pub mod ids;
pub mod messages;
pub mod receipt;
pub mod request;

pub use config::{Configuration, MemberDesc, ReplicaDesc};
pub use entry::{LedgerEntry, TxLedgerEntry, TxResult};
pub use ids::{ClientId, LedgerIdx, MemberId, ProcId, ReplicaBitmap, ReplicaId, SeqNum, View};
pub use messages::{
    BatchKind, CheckpointPayload, CheckpointPin, Commit, NewViewMsg, PrePrepare, PrePrepareCore,
    Prepare, ProtocolMsg, Reply, ReplyX, ViewChange,
};
pub use receipt::{
    evidence_target, lowest_ranked_quorum, receipt_checkpoint_seq, BatchCertificate, EvidenceError,
    Receipt, ReceiptBody, ReceiptError, SigCheck, SignatureChecks, TxWitness, VerifiedCerts,
};
pub use request::{GovAction, Request, RequestAction, SignedRequest, SystemOp};
pub use wire::{CodecError, Reader, Wire};

pub use ia_ccf_crypto::{Digest, KeyPair, Nonce, NonceCommitment, PublicKey, Signature};
pub use ia_ccf_merkle::MerklePath;
