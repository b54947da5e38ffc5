//! Transaction requests.
//!
//! Alg. 1 line 1: a request is `t = ⟨request, a, c, H(gt), mi⟩σc` where `a`
//! identifies the invoked stored procedure and its arguments, `c` is the
//! client, `H(gt)` pins the request to one service instance (so requests
//! cannot be replayed on a fork of the consortium), and `mi` is the minimum
//! ledger index — the client's real-time-ordering dependency used by the
//! linearizability audit (Thm. 2).
//!
//! Three request classes share the envelope:
//!
//! * **App** — ordinary stored-procedure calls, signed by clients;
//! * **Governance** — propose/vote referendum transactions, signed by
//!   members (§5.1);
//! * **System** — protocol-generated transactions (the checkpoint
//!   transaction of §3.4). They carry no signature; every replica validates
//!   them by recomputation, and backups reject pre-prepares whose system
//!   transactions disagree with their own state.

use ia_ccf_crypto::{hash_bytes, Digest, KeyPair, PublicKey, Signature};
use serde::{Deserialize, Serialize};

use crate::config::Configuration;
use crate::ids::{ClientId, LedgerIdx, ProcId, SeqNum};
use crate::wire::{signing_buffer, Wire};

/// Domain-separation tag for request signatures.
pub const REQUEST_DOMAIN: u8 = 0x01;

/// Governance actions (§5.1): a referendum is a `Propose` followed by
/// `Vote`s; it passes when `vote_threshold` members have approved.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GovAction {
    /// Propose `new_config` as the next configuration.
    Propose {
        /// Proposal identifier, unique per proposing member.
        proposal_id: u64,
        /// The proposed configuration (validated on execution).
        new_config: Configuration,
    },
    /// Vote on an active proposal.
    Vote {
        /// The proposal voted on.
        proposal_id: u64,
        /// Approve or reject.
        approve: bool,
    },
}

/// Protocol-generated transactions.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SystemOp {
    /// The checkpoint transaction at `s + C`, recording the digest of the
    /// checkpoint taken at `checkpoint_seq` (§3.4).
    CheckpointMark {
        /// Sequence number the checkpoint was taken at.
        checkpoint_seq: SeqNum,
        /// Digest of the key-value store at that point.
        kv_digest: Digest,
        /// Root of the ledger Merkle tree `M` at that point.
        tree_root: Digest,
    },
}

/// What a request asks the service to do.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestAction {
    /// Invoke stored procedure `proc` with `args` (client-signed).
    App {
        /// Stored procedure id.
        proc: ProcId,
        /// Procedure arguments, opaque to the protocol.
        args: Vec<u8>,
    },
    /// A governance transaction (member-signed).
    Governance(GovAction),
    /// A protocol-generated transaction (validated by recomputation).
    System(SystemOp),
}

/// The signed-over request body.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// The action to execute.
    pub action: RequestAction,
    /// The submitting client (or member acting as client). Zero for
    /// system transactions.
    pub client: ClientId,
    /// Hash of the genesis transaction — the service name. Requests bind
    /// to exactly one service instance.
    pub gt_hash: Digest,
    /// Minimum ledger index this request may execute at (`mi`). Correct
    /// replicas never order the request at an index `< min_index`.
    pub min_index: LedgerIdx,
    /// Client-chosen request number, used to match replies and dedupe.
    pub req_id: u64,
}

impl Request {
    /// Canonical signed payload: domain byte plus the encoded body.
    pub fn signing_payload(&self) -> Vec<u8> {
        let mut buf = signing_buffer(REQUEST_DOMAIN, self.encoded_len());
        self.encode(&mut buf);
        buf
    }
}

/// A request plus its signature — `t` in the paper.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignedRequest {
    /// The request body.
    pub request: Request,
    /// Client/member signature over [`Request::signing_payload`]. The
    /// all-zero signature for system transactions.
    pub sig: Signature,
}

impl SignedRequest {
    /// Sign `request` with `key`.
    pub fn sign(request: Request, key: &KeyPair) -> Self {
        let sig = key.sign(&request.signing_payload());
        SignedRequest { request, sig }
    }

    /// Wrap a system transaction (no signature).
    pub fn system(op: SystemOp, gt_hash: Digest) -> Self {
        SignedRequest {
            request: Request {
                action: RequestAction::System(op),
                client: ClientId(0),
                gt_hash,
                min_index: LedgerIdx(0),
                req_id: 0,
            },
            sig: Signature::zero(),
        }
    }

    /// The request hash `H(t)` used in batch lists and receipts.
    pub fn digest(&self) -> Digest {
        hash_bytes(&self.to_bytes())
    }

    /// Verify the signature under `key` (app/governance requests).
    pub fn verify_with(&self, key: &PublicKey) -> bool {
        key.verify(&self.request.signing_payload(), &self.sig)
    }

    /// Whether this is a protocol-generated transaction.
    pub fn is_system(&self) -> bool {
        matches!(self.request.action, RequestAction::System(_))
    }

    /// Whether this is a governance transaction.
    pub fn is_governance(&self) -> bool {
        matches!(self.request.action, RequestAction::Governance(_))
    }
}

wire_enum!(GovAction {
    0 => Propose { proposal_id, new_config },
    1 => Vote { proposal_id, approve },
});
wire_enum!(SystemOp {
    0 => CheckpointMark { checkpoint_seq, kv_digest, tree_root },
});
wire_enum!(RequestAction {
    0 => App { proc, args },
    1 => Governance(g),
    2 => System(s),
});
wire_struct!(Request { action, client, gt_hash, min_index, req_id });
wire_struct!(SignedRequest { request, sig });

#[cfg(test)]
mod tests {
    use super::*;

    fn app_request() -> Request {
        Request {
            action: RequestAction::App { proc: ProcId(3), args: b"transfer 100".to_vec() },
            client: ClientId(42),
            gt_hash: hash_bytes(b"genesis"),
            min_index: LedgerIdx(17),
            req_id: 7,
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_label("client-42");
        let sr = SignedRequest::sign(app_request(), &kp);
        assert!(sr.verify_with(&kp.public()));
        assert!(!sr.verify_with(&KeyPair::from_label("other").public()));
    }

    #[test]
    fn tampered_request_fails_verification() {
        let kp = KeyPair::from_label("client-42");
        let mut sr = SignedRequest::sign(app_request(), &kp);
        sr.request.min_index = LedgerIdx(0); // lower the ordering dependency
        assert!(!sr.verify_with(&kp.public()));
    }

    #[test]
    fn moving_to_other_service_fails_verification() {
        // H(gt) is in the signed payload: a request cannot be replayed on a
        // service with a different genesis.
        let kp = KeyPair::from_label("client-42");
        let mut sr = SignedRequest::sign(app_request(), &kp);
        sr.request.gt_hash = hash_bytes(b"other-genesis");
        assert!(!sr.verify_with(&kp.public()));
    }

    #[test]
    fn wire_roundtrip_app() {
        let kp = KeyPair::from_label("c");
        let sr = SignedRequest::sign(app_request(), &kp);
        assert_eq!(SignedRequest::from_bytes(&sr.to_bytes()).unwrap(), sr);
    }

    #[test]
    fn wire_roundtrip_system() {
        let sr = SignedRequest::system(
            SystemOp::CheckpointMark {
                checkpoint_seq: SeqNum(100),
                kv_digest: hash_bytes(b"kv"),
                tree_root: hash_bytes(b"m"),
            },
            hash_bytes(b"gt"),
        );
        assert!(sr.is_system());
        assert_eq!(SignedRequest::from_bytes(&sr.to_bytes()).unwrap(), sr);
    }

    #[test]
    fn wire_roundtrip_governance() {
        let (config, _, member_keys) = crate::config::testutil::test_config(4);
        let req = Request {
            action: RequestAction::Governance(GovAction::Propose {
                proposal_id: 1,
                new_config: config,
            }),
            client: ClientId(1),
            gt_hash: hash_bytes(b"gt"),
            min_index: LedgerIdx(0),
            req_id: 1,
        };
        let sr = SignedRequest::sign(req, &member_keys[0]);
        assert!(sr.is_governance());
        assert_eq!(SignedRequest::from_bytes(&sr.to_bytes()).unwrap(), sr);
    }

    #[test]
    fn digest_distinguishes_requests() {
        let kp = KeyPair::from_label("c");
        let a = SignedRequest::sign(app_request(), &kp);
        let mut other = app_request();
        other.req_id = 8;
        let b = SignedRequest::sign(other, &kp);
        assert_ne!(a.digest(), b.digest());
    }
}
