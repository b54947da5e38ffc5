//! L-PBFT protocol messages (Alg. 1 and Alg. 2).
//!
//! Signing discipline: replicas sign **pre-prepare**, **prepare**,
//! **view-change** and **new-view** messages. **Commit** messages are
//! unsigned — they reveal the nonce whose hash was committed in the signed
//! pre-prepare/prepare (§3.1's nonce commitment scheme), and **reply**
//! messages reuse the pre-prepare/prepare signature instead of a fresh one
//! (§3.3), which is how IA-CCF gets one signature per replica per batch.

use ia_ccf_crypto::{hash_bytes, Digest, Nonce, NonceCommitment, Signature};
use serde::{Deserialize, Serialize};

use crate::entry::TxResult;
use crate::ids::{LedgerIdx, ReplicaBitmap, ReplicaId, SeqNum, View};
use crate::receipt::Receipt;
use crate::request::SignedRequest;
use crate::wire::{encode_seq, encoded_len_seq, signing_buffer, Wire};
use ia_ccf_merkle::MerklePath;

/// Server-side hard ceiling on the page budget of a
/// [`ProtocolMsg::FetchLedgerPage`] response, in encoded-entry bytes.
///
/// Deliberately well under the transport frame limit (`frame::MAX_FRAME`,
/// 64 MiB): a page may overshoot its budget by at most one batch segment
/// (the protocol always makes progress by including at least one whole
/// batch), so the 8 MiB headroom keeps every constructible page response
/// framable. A single batch segment larger than the headroom plus ceiling
/// is unservable at sequence-number granularity and still fails loudly in
/// the frame encoder.
pub const PAGE_CEILING_BYTES: u32 = 56 * 1024 * 1024;

/// Domain tags for replica signatures.
pub mod domains {
    /// Pre-prepare messages.
    pub const PRE_PREPARE: u8 = 0x02;
    /// Prepare messages.
    pub const PREPARE: u8 = 0x03;
    /// View-change messages.
    pub const VIEW_CHANGE: u8 = 0x04;
    /// New-view messages.
    pub const NEW_VIEW: u8 = 0x05;
}

/// What a batch carries. Most batches are `Regular`; the others implement
/// checkpointing (§3.4) and reconfiguration (§5.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BatchKind {
    /// Ordinary transaction batch.
    Regular,
    /// Contains the checkpoint system transaction recording the digest of
    /// the checkpoint at `s − C`.
    Checkpoint,
    /// One of the `2P` empty end-of-configuration batches; `phase` counts
    /// 1..=2P. The `P`-th and `2P`-th batches join the governance
    /// sub-ledger.
    EndOfConfig {
        /// Position within the end-of-configuration run (1-based).
        phase: u32,
    },
    /// One of the `P` empty start-of-configuration batches in the new
    /// configuration; `phase` counts 1..=P.
    StartOfConfig {
        /// Position within the start-of-configuration run (1-based).
        phase: u32,
    },
}

/// The fields of a pre-prepare other than `Ḡ` and the signature.
///
/// Receipts transmit exactly this plus the transaction witness: the
/// verifier recomputes `Ḡ` from the witness and rebuilds the signed bytes
/// (Alg. 3 line 5), so the split mirrors the protocol.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrePrepareCore {
    /// View this batch was ordered in.
    pub view: View,
    /// Batch sequence number.
    pub seq: SeqNum,
    /// `M̄`: root of the ledger Merkle tree after appending the evidence for
    /// `s − P` but before this pre-prepare's own entry. Signing it commits
    /// the primary to the entire ledger prefix (§3.1).
    pub root_m: Digest,
    /// `H(k_p)`: the primary's nonce commitment.
    pub nonce_commit: NonceCommitment,
    /// Sequence number the attached commitment evidence covers (`s − P`;
    /// explicit so fragments are self-describing under pipelining).
    pub evidence_seq: SeqNum,
    /// `E_{s−P}`: ranks of replicas whose prepares/nonces form the evidence.
    pub evidence_bitmap: ReplicaBitmap,
    /// `i_g`: ledger index of the last governance transaction (§5.2), so
    /// clients know which governance receipts they need.
    pub gov_index: LedgerIdx,
    /// `d_C`: digest of the key-value store at the penultimate checkpoint
    /// (§3.4, Appx. B), from which audits replay.
    pub checkpoint_digest: Digest,
    /// What the batch carries.
    pub kind: BatchKind,
    /// End-of-configuration batches carry the *committed Merkle root* — the
    /// root of `M` at the final `vote` batch (§5.1). `None` otherwise.
    pub committed_root: Option<Digest>,
    /// The primary that produced this pre-prepare (rank `view mod N`).
    pub primary: ReplicaId,
}

/// A signed pre-prepare message (Alg. 1 line 12).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrePrepare {
    /// All fields except `Ḡ` and the signature.
    pub core: PrePrepareCore,
    /// `Ḡ`: root of the per-batch Merkle tree over `⟨t, i, o⟩` entries.
    pub root_g: Digest,
    /// Primary's signature over [`PrePrepare::signing_payload`].
    pub sig: Signature,
}

impl PrePrepare {
    /// Canonical signed bytes for a (core, `Ḡ`) pair.
    pub fn signing_payload(core: &PrePrepareCore, root_g: &Digest) -> Vec<u8> {
        let mut buf = signing_buffer(domains::PRE_PREPARE, core.encoded_len() + root_g.encoded_len());
        core.encode(&mut buf);
        root_g.encode(&mut buf);
        buf
    }

    /// `H(pp)` over the *complete* message including the signature —
    /// Alg. 3 binds prepares to `H(pp_{σp})`.
    pub fn digest(&self) -> Digest {
        hash_bytes(&self.to_bytes())
    }

    /// Rebuild the digest from receipt components (core + recomputed `Ḡ` +
    /// primary signature), for Alg. 3 line 9.
    pub fn digest_from_parts(core: &PrePrepareCore, root_g: &Digest, sig: &Signature) -> Digest {
        let pp = PrePrepare { core: core.clone(), root_g: *root_g, sig: *sig };
        pp.digest()
    }

    /// Convenience accessors.
    pub fn view(&self) -> View {
        self.core.view
    }
    /// Sequence number of the batch.
    pub fn seq(&self) -> SeqNum {
        self.core.seq
    }
}

/// A signed prepare message (Alg. 1 line 25):
/// `⟨prepare, r, H(K[v,s]), H(pp)⟩σr`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prepare {
    /// View (redundant with `pp_digest`, kept for routing and audit).
    pub view: View,
    /// Sequence number.
    pub seq: SeqNum,
    /// The sending backup.
    pub replica: ReplicaId,
    /// `H(K[v,s])`: the backup's nonce commitment.
    pub nonce_commit: NonceCommitment,
    /// `H(pp)` of the pre-prepare being prepared (includes σp).
    pub pp_digest: Digest,
    /// Backup's signature over [`Prepare::signing_payload`].
    pub sig: Signature,
}

impl Prepare {
    /// Canonical signed bytes.
    pub fn signing_payload(
        view: View,
        seq: SeqNum,
        replica: ReplicaId,
        nonce_commit: &NonceCommitment,
        pp_digest: &Digest,
    ) -> Vec<u8> {
        let len = view.encoded_len()
            + seq.encoded_len()
            + replica.encoded_len()
            + nonce_commit.encoded_len()
            + pp_digest.encoded_len();
        let mut buf = signing_buffer(domains::PREPARE, len);
        view.encode(&mut buf);
        seq.encode(&mut buf);
        replica.encode(&mut buf);
        nonce_commit.encode(&mut buf);
        pp_digest.encode(&mut buf);
        buf
    }

    /// This message's own signed bytes.
    pub fn own_payload(&self) -> Vec<u8> {
        Self::signing_payload(self.view, self.seq, self.replica, &self.nonce_commit, &self.pp_digest)
    }
}

/// An *unsigned* commit message (Alg. 1 line 32): `⟨commit, v, s, r, K[v,s]⟩`.
/// Sent over authenticated channels; the revealed nonce is the proof.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Commit {
    /// View.
    pub view: View,
    /// Sequence number.
    pub seq: SeqNum,
    /// Sender.
    pub replica: ReplicaId,
    /// The revealed nonce `K[v,s]` whose hash was committed earlier.
    pub nonce: Nonce,
}

/// A reply to a client (Alg. 1 line 35): `⟨reply, v, s, r, σr, K[v,s]⟩`.
/// `sig` is the replica's pre-prepare/prepare signature — no new signature
/// is produced for replies.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Reply {
    /// View.
    pub view: View,
    /// Sequence number of the batch containing the client's request(s).
    pub seq: SeqNum,
    /// Sender.
    pub replica: ReplicaId,
    /// The replica's pre-prepare (if primary) or prepare (if backup)
    /// signature for this batch.
    pub sig: Signature,
    /// The replica's revealed nonce for this batch.
    pub nonce: Nonce,
    /// The client's request ids included in this batch (one reply per
    /// client per batch, §3.3).
    pub req_ids: Vec<u64>,
}

/// The result-carrying replies from the designated replica (Alg. 1 line
/// 38), bundled: one per client per batch, holding a witness for each of
/// the client's transactions this replica is designated for (rank
/// `H(t) mod N`). The paper's per-transaction
/// `⟨replyx, v, s, M̄, H(kp), E_{s−P}, i_g, d_C, H(t), i, o, S⟩` is the
/// bundle's shared pre-prepare core and primary signature plus one
/// [`ReplyTx`]; the client supplies `H(t)` itself.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplyX {
    /// Pre-prepare fields needed to rebuild the signed bytes (everything
    /// except `Ḡ`, which the client recomputes from a witness).
    pub core: PrePrepareCore,
    /// The primary's pre-prepare signature σp.
    pub primary_sig: Signature,
    /// One witness per transaction, in batch order.
    pub txs: Vec<ReplyTx>,
}

/// One transaction's witness in a [`ReplyX`] bundle.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplyTx {
    /// The client's request id: the client knows the request's `H(t)`.
    pub req_id: u64,
    /// Ledger index `i` the transaction executed at.
    pub index: LedgerIdx,
    /// The result `o`.
    pub result: TxResult,
    /// Sibling path `S` from the `⟨t, i, o⟩` leaf to `Ḡ`.
    pub path: MerklePath,
}

/// A signed view-change message (Alg. 2 line 4):
/// `⟨view-change, v, r, PP⟩σr` where `PP` holds the last `P` locally
/// prepared pre-prepares. We inline the prepare proof for the *last* entry
/// (the paper fetches it separately; inlining trades bytes for a fetch
/// round without changing what is proven).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewChange {
    /// The view being moved to.
    pub view: View,
    /// Sender.
    pub replica: ReplicaId,
    /// `PP`: the last `P` pre-prepares that prepared locally, ascending by
    /// sequence number. Used by auditors to check replicas reported what
    /// they prepared (§3.2).
    pub pps: Vec<PrePrepare>,
    /// Prepares proving the last entry of `pps` prepared (quorum − 1
    /// prepares matching it, from distinct replicas).
    pub last_proof: Vec<Prepare>,
    /// Sender's signature over [`ViewChange::signing_payload`].
    pub sig: Signature,
}

impl ViewChange {
    /// Canonical signed bytes: the message with the signature field blank.
    pub fn signing_payload(
        view: View,
        replica: ReplicaId,
        pps: &[PrePrepare],
        last_proof: &[Prepare],
    ) -> Vec<u8> {
        let len = view.encoded_len()
            + replica.encoded_len()
            + encoded_len_seq(pps)
            + encoded_len_seq(last_proof);
        let mut buf = signing_buffer(domains::VIEW_CHANGE, len);
        view.encode(&mut buf);
        replica.encode(&mut buf);
        encode_seq(pps, &mut buf);
        encode_seq(last_proof, &mut buf);
        buf
    }

    /// This message's own signed bytes.
    pub fn own_payload(&self) -> Vec<u8> {
        Self::signing_payload(self.view, self.replica, &self.pps, &self.last_proof)
    }
}

/// A signed new-view message (Alg. 2 line 15):
/// `⟨new-view, v, M̄, E_vc, h_vc⟩σr`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NewViewMsg {
    /// The new view.
    pub view: View,
    /// Root of the ledger tree after appending the view-change-set entry.
    pub root_m: Digest,
    /// `E_vc`: ranks of the replicas whose view-changes were accepted.
    pub vc_bitmap: ReplicaBitmap,
    /// `h_vc`: hash of the ledger entry holding those view-change messages.
    pub vc_entry_hash: Digest,
    /// New primary's signature over [`NewViewMsg::signing_payload`].
    pub sig: Signature,
}

impl NewViewMsg {
    /// Canonical signed bytes.
    pub fn signing_payload(
        view: View,
        root_m: &Digest,
        vc_bitmap: &ReplicaBitmap,
        vc_entry_hash: &Digest,
    ) -> Vec<u8> {
        let len = view.encoded_len()
            + root_m.encoded_len()
            + vc_bitmap.encoded_len()
            + vc_entry_hash.encoded_len();
        let mut buf = signing_buffer(domains::NEW_VIEW, len);
        view.encode(&mut buf);
        root_m.encode(&mut buf);
        vc_bitmap.encode(&mut buf);
        vc_entry_hash.encode(&mut buf);
        buf
    }

    /// This message's own signed bytes.
    pub fn own_payload(&self) -> Vec<u8> {
        Self::signing_payload(self.view, &self.root_m, &self.vc_bitmap, &self.vc_entry_hash)
    }
}

/// Everything that travels between nodes.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolMsg {
    /// A client request, sent to all replicas.
    Request(SignedRequest),
    /// Pre-prepare plus `B`, the request hashes in execution order (request
    /// bodies travel separately from clients; backups fetch what they miss).
    PrePrepare {
        /// The signed pre-prepare.
        pp: PrePrepare,
        /// `B`: request digests in execution order.
        batch: Vec<Digest>,
    },
    /// Prepare from a backup.
    Prepare(Prepare),
    /// Unsigned commit revealing the sender's nonce.
    Commit(Commit),
    /// Per-batch reply to a client.
    Reply(Reply),
    /// Result-carrying reply from the designated replica.
    ReplyX(ReplyX),
    /// View-change.
    ViewChange(ViewChange),
    /// New-view with its justification (the re-proposed batches follow as
    /// ordinary pre-prepares).
    NewView {
        /// The signed new-view message.
        nv: NewViewMsg,
        /// The quorum of view-change messages justifying it.
        view_changes: Vec<ViewChange>,
    },
    /// Ask a peer for request bodies by hash.
    FetchRequests {
        /// Hashes of the requests wanted.
        hashes: Vec<Digest>,
    },
    /// Response carrying request bodies.
    FetchRequestsResponse {
        /// The requested bodies.
        requests: Vec<SignedRequest>,
    },
    /// Ask a peer for one bounded page of its ledger suffix (resumable
    /// state transfer). The continuation token is a sequence number: the
    /// server replies with whole batch segments from `from_seq` on, cut
    /// at a batch boundary once the page budget is spent, and names the
    /// first unserved batch in `next_seq`. A recovering replica repeats
    /// the request with the returned `next_seq` until `done`.
    FetchLedgerPage {
        /// Continuation token: first batch sequence number wanted.
        from_seq: SeqNum,
        /// Requester's page budget in encoded-entry bytes. The server
        /// clamps it to [`PAGE_CEILING_BYTES`], so a page (plus at most
        /// one over-budget batch segment) always frames well under the
        /// transport's 64 MiB limit.
        max_bytes: u64,
    },
    /// One page answering a [`ProtocolMsg::FetchLedgerPage`].
    FetchLedgerPageResponse {
        /// Wire-encoded `LedgerEntry` values in ledger order.
        entries: Vec<Vec<u8>>,
        /// Continuation token for the next request: the first batch
        /// sequence number *not* contained in `entries`. Must advance
        /// strictly past the requested `from_seq` unless `done`.
        next_seq: SeqNum,
        /// Whether `entries` reaches the server's ledger tip. When set,
        /// `next_seq` is the server's next-to-assign sequence number.
        done: bool,
    },
    /// Ask a peer where its ledger ends and what checkpoint it can serve.
    /// A recovering replica queries *all* peers and cross-checks the
    /// claims (f+1 agreement) before trusting any single server's notion
    /// of the tip — a lone lying server must not be able to freeze
    /// recovery short of the real tip.
    FetchLedgerTip,
    /// Answer to [`ProtocolMsg::FetchLedgerTip`].
    LedgerTipResponse {
        /// Highest batch sequence number this replica has committed.
        tip: SeqNum,
        /// Newest *agreed* checkpoint this replica can serve (its digest
        /// is pinned by a committed checkpoint batch); `None` when it
        /// offers none — recovery then pages from genesis.
        offer: Option<CheckpointPin>,
    },
    /// Ask a peer for the checkpoint it offered in its tip response.
    FetchCheckpoint {
        /// The checkpoint's sequence number.
        seq: SeqNum,
    },
    /// The checkpoint payload answering a [`ProtocolMsg::FetchCheckpoint`].
    FetchCheckpointResponse {
        /// Which checkpoint this is.
        seq: SeqNum,
        /// The payload, or `None`: the server refuses (it no longer holds
        /// that checkpoint).
        payload: Option<CheckpointPayload>,
    },
    /// Client asks for governance receipts from an index (§5.2).
    FetchGovReceipts {
        /// Return receipts for governance entries at or after this index.
        from_index: LedgerIdx,
    },
    /// Governance receipts answering a fetch. Transaction links carry the
    /// signed request so the client can replay the referendum (§5.2);
    /// boundary links carry only the batch receipt.
    GovReceipts {
        /// `(request, receipt)` pairs in ledger order; `request` is `None`
        /// for end-of-configuration boundary receipts.
        receipts: Vec<(Option<SignedRequest>, Receipt)>,
    },
    /// Client asks a (non-designated) replica to resend the
    /// result-carrying reply for a request (§3.3: on timeout the client
    /// "selects a different replica to send back replyx").
    FetchReceipt {
        /// `H(t)` of the request.
        tx_hash: Digest,
    },
    /// Ask a peer to retransmit the prepare/commit messages evidencing a
    /// batch (§3.1: "If the backup is missing messages, it requests that
    /// the primary retransmit them").
    FetchEvidence {
        /// The evidenced batch.
        seq: SeqNum,
    },
    /// Response to [`ProtocolMsg::FetchEvidence`].
    FetchEvidenceResponse {
        /// Matching prepares for the batch.
        prepares: Vec<Prepare>,
        /// Commit messages (revealed nonces) for the batch.
        commits: Vec<Commit>,
    },
}

/// A checkpoint offer as tip replies pin it (§3.4): `f + 1` identical pins
/// mean at least one honest replica holds exactly this agreed checkpoint.
/// Whichever door a checkpoint comes through — a peer's reply or the local
/// seed file — its [`CheckpointPayload`] is checked against one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPin {
    /// Sequence number the checkpoint was taken at.
    pub seq: SeqNum,
    /// The checkpoint's KV digest `d_C`.
    pub kv_digest: Digest,
    /// Root of the ledger tree `M` at the checkpoint's restore point.
    pub tree_root: Digest,
}

/// What restoring a pinned checkpoint takes. Everything here is
/// attacker-controlled until checked: the KV bytes against the pinned
/// `d_C`, the frontier's root against the pinned tree root, and the seed
/// entries against the frontier and the pre-prepare's signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPayload {
    /// `KvCheckpoint::to_bytes` of the store snapshot.
    pub kv_bytes: Vec<u8>,
    /// `Frontier::to_bytes` of the ledger tree at the restore point.
    pub frontier: Vec<u8>,
    /// Ledger entry count at the restore point.
    pub ledger_len: u64,
    /// Next transaction index after the checkpoint batch executed.
    pub next_tx_index: u64,
    /// Wire-encoded ledger entries from the restore point through the end
    /// of the checkpoint batch's segment (its pre-prepare and tx entries)
    /// — the checkpoint is taken mid-batch, after the evidence pair but
    /// before the batch's own segment, so replay must be seeded with that
    /// segment to resume at the batch after the checkpoint.
    pub seed_entries: Vec<Vec<u8>>,
}

// ---------------------------------------------------------------------
// Wire layouts
// ---------------------------------------------------------------------

wire_enum!(BatchKind {
    0 => Regular,
    1 => Checkpoint,
    2 => EndOfConfig { phase },
    3 => StartOfConfig { phase },
});

wire_struct!(PrePrepareCore {
    view,
    seq,
    root_m,
    nonce_commit,
    evidence_seq,
    evidence_bitmap,
    gov_index,
    checkpoint_digest,
    kind,
    committed_root,
    primary,
});
wire_struct!(PrePrepare { core, root_g, sig });
wire_struct!(Prepare { view, seq, replica, nonce_commit, pp_digest, sig });
wire_struct!(Commit { view, seq, replica, nonce });
wire_struct!(Reply { view, seq, replica, sig, nonce, req_ids: seq });
wire_struct!(ReplyX { core, primary_sig, txs: seq });
wire_struct!(ReplyTx { req_id, index, result, path });
wire_struct!(ViewChange { view, replica, pps: seq, last_proof: seq, sig });
wire_struct!(NewViewMsg { view, root_m, vc_bitmap, vc_entry_hash, sig });
wire_struct!(CheckpointPin { seq, kv_digest, tree_root });
wire_struct!(CheckpointPayload {
    kv_bytes,
    frontier,
    ledger_len,
    next_tx_index,
    seed_entries: seq,
});

wire_enum!(ProtocolMsg {
    0 => Request(r),
    1 => PrePrepare { pp, batch: seq },
    2 => Prepare(p),
    3 => Commit(c),
    4 => Reply(r),
    5 => ReplyX(r),
    6 => ViewChange(vc),
    7 => NewView { nv, view_changes: seq },
    8 => FetchRequests { hashes: seq },
    9 => FetchRequestsResponse { requests: seq },
    // Tags 10, 11 and 15 are reserved: never reassign them. They decode
    // to `BadTag` like any unknown tag.
    12 => FetchGovReceipts { from_index },
    13 => GovReceipts { receipts: seq },
    14 => FetchReceipt { tx_hash },
    16 => FetchEvidence { seq },
    17 => FetchEvidenceResponse { prepares: seq, commits: seq },
    18 => FetchLedgerPage { from_seq, max_bytes },
    19 => FetchLedgerPageResponse { entries: seq, next_seq, done },
    20 => FetchLedgerTip,
    21 => LedgerTipResponse { tip, offer },
    22 => FetchCheckpoint { seq },
    23 => FetchCheckpointResponse { seq, payload },
});

/// Test-support builders shared with downstream crates' tests.
pub mod testutil {
    use super::*;
    use ia_ccf_crypto::KeyPair;

    /// A populated pre-prepare signed by `key`.
    pub fn test_pp(view: u64, seq: u64, key: &KeyPair) -> PrePrepare {
        let core = PrePrepareCore {
            view: View(view),
            seq: SeqNum(seq),
            root_m: hash_bytes(b"root-m"),
            nonce_commit: Nonce([9; 16]).commitment(),
            evidence_seq: SeqNum(seq.saturating_sub(2)),
            evidence_bitmap: ReplicaBitmap::from_ranks([0, 1, 2]),
            gov_index: LedgerIdx(0),
            checkpoint_digest: Digest::zero(),
            kind: BatchKind::Regular,
            committed_root: None,
            primary: ReplicaId(0),
        };
        let root_g = hash_bytes(b"root-g");
        let sig = key.sign(&PrePrepare::signing_payload(&core, &root_g));
        PrePrepare { core, root_g, sig }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::test_pp;
    use super::*;
    use crate::request::RequestAction;
    use ia_ccf_crypto::KeyPair;

    #[test]
    fn pre_prepare_roundtrip_and_signature() {
        let kp = KeyPair::from_label("primary");
        let pp = test_pp(0, 5, &kp);
        let decoded = PrePrepare::from_bytes(&pp.to_bytes()).unwrap();
        assert_eq!(decoded, pp);
        assert!(kp
            .public()
            .verify(&PrePrepare::signing_payload(&decoded.core, &decoded.root_g), &decoded.sig));
    }

    #[test]
    fn pp_digest_covers_signature() {
        let kp = KeyPair::from_label("primary");
        let a = test_pp(0, 5, &kp);
        let mut b = a.clone();
        b.sig.0[0] ^= 1;
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn prepare_roundtrip() {
        let kp = KeyPair::from_label("backup");
        let nc = Nonce([1; 16]).commitment();
        let ppd = hash_bytes(b"pp");
        let payload = Prepare::signing_payload(View(1), SeqNum(2), ReplicaId(3), &nc, &ppd);
        let p = Prepare {
            view: View(1),
            seq: SeqNum(2),
            replica: ReplicaId(3),
            nonce_commit: nc,
            pp_digest: ppd,
            sig: kp.sign(&payload),
        };
        let d = Prepare::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(d, p);
        assert!(kp.public().verify(&d.own_payload(), &d.sig));
    }

    #[test]
    fn commit_and_reply_roundtrip() {
        let c = Commit { view: View(1), seq: SeqNum(2), replica: ReplicaId(3), nonce: Nonce([7; 16]) };
        assert_eq!(Commit::from_bytes(&c.to_bytes()).unwrap(), c);

        let r = Reply {
            view: View(1),
            seq: SeqNum(2),
            replica: ReplicaId(3),
            sig: Signature::zero(),
            nonce: Nonce([7; 16]),
            req_ids: vec![4, 5],
        };
        assert_eq!(Reply::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn view_change_roundtrip_and_signature() {
        let kp = KeyPair::from_label("r1");
        let pps = vec![test_pp(0, 4, &kp), test_pp(0, 5, &kp)];
        let payload = ViewChange::signing_payload(View(1), ReplicaId(1), &pps, &[]);
        let vc = ViewChange {
            view: View(1),
            replica: ReplicaId(1),
            pps,
            last_proof: vec![],
            sig: kp.sign(&payload),
        };
        let d = ViewChange::from_bytes(&vc.to_bytes()).unwrap();
        assert_eq!(d, vc);
        assert!(kp.public().verify(&d.own_payload(), &d.sig));
    }

    /// Every signing payload and `to_bytes` is encoded into a buffer
    /// allocated once at its exact size: a wrong length sum would show as
    /// capacity ≠ length.
    #[test]
    fn payloads_are_encoded_into_buffers_of_their_size() {
        let kp = KeyPair::from_label("r1");
        let pp = test_pp(0, 5, &kp);
        let nc = Nonce([1; 16]).commitment();
        let request = crate::request::Request {
            action: RequestAction::App { proc: crate::ids::ProcId(3), args: vec![7; 135] },
            client: crate::ids::ClientId(9),
            gt_hash: hash_bytes(b"gt"),
            min_index: LedgerIdx(4),
            req_id: 11,
        };
        let signed = SignedRequest::sign(request.clone(), &kp);
        let payloads = [
            PrePrepare::signing_payload(&pp.core, &pp.root_g),
            Prepare::signing_payload(View(1), SeqNum(2), ReplicaId(3), &nc, &pp.digest()),
            ViewChange::signing_payload(View(1), ReplicaId(1), &[pp.clone(), pp.clone()], &[]),
            NewViewMsg::signing_payload(View(2), &nc.0, &ReplicaBitmap::from_ranks([0, 2]), &pp.root_g),
            request.signing_payload(),
            signed.to_bytes(),
            pp.to_bytes(),
            ProtocolMsg::PrePrepare { pp, batch: vec![hash_bytes(b"t1")] }.to_bytes(),
        ];
        for (i, bytes) in payloads.iter().enumerate() {
            assert_eq!(bytes.capacity(), bytes.len(), "payload {i}");
        }
    }

    #[test]
    fn protocol_msg_roundtrips() {
        let kp = KeyPair::from_label("x");
        let msgs = vec![
            ProtocolMsg::PrePrepare { pp: test_pp(0, 1, &kp), batch: vec![hash_bytes(b"t1")] },
            ProtocolMsg::Commit(Commit {
                view: View(0),
                seq: SeqNum(1),
                replica: ReplicaId(2),
                nonce: Nonce([3; 16]),
            }),
            ProtocolMsg::FetchRequests { hashes: vec![hash_bytes(b"a"), hash_bytes(b"b")] },
            ProtocolMsg::FetchGovReceipts { from_index: LedgerIdx(4) },
            ProtocolMsg::FetchLedgerPage { from_seq: SeqNum(7), max_bytes: 1 << 20 },
            ProtocolMsg::FetchLedgerPageResponse {
                entries: vec![vec![9, 9], vec![], vec![1]],
                next_seq: SeqNum(12),
                done: false,
            },
            ProtocolMsg::FetchLedgerPageResponse {
                entries: Vec::new(),
                next_seq: SeqNum(0),
                done: true,
            },
            ProtocolMsg::FetchLedgerTip,
            ProtocolMsg::LedgerTipResponse {
                tip: SeqNum(42),
                offer: Some(CheckpointPin {
                    seq: SeqNum(40),
                    kv_digest: hash_bytes(b"kv"),
                    tree_root: hash_bytes(b"tree"),
                }),
            },
            ProtocolMsg::LedgerTipResponse { tip: SeqNum(42), offer: None },
            ProtocolMsg::FetchCheckpoint { seq: SeqNum(40) },
            ProtocolMsg::FetchCheckpointResponse {
                seq: SeqNum(40),
                payload: Some(CheckpointPayload {
                    kv_bytes: vec![1, 2, 3],
                    frontier: vec![4, 5],
                    ledger_len: 123,
                    next_tx_index: 77,
                    seed_entries: vec![vec![9], vec![], vec![8, 8]],
                }),
            },
            ProtocolMsg::FetchCheckpointResponse { seq: SeqNum(40), payload: None },
        ];
        for m in msgs {
            assert_eq!(ProtocolMsg::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    /// Wire-stability pin for the recovery tip/checkpoint messages —
    /// same rationale as the page-message pin below.
    #[test]
    fn recovery_message_encoding_pin() {
        let tip_req = ProtocolMsg::FetchLedgerTip;
        let bytes = tip_req.to_bytes();
        assert_eq!(bytes, [20], "FetchLedgerTip is just its tag");
        assert_eq!(bytes.len(), tip_req.encoded_len());

        let pin = CheckpointPin {
            seq: SeqNum(4),
            kv_digest: Digest([0xAB; 32]),
            tree_root: Digest([0xCD; 32]),
        };
        let tip_resp = ProtocolMsg::LedgerTipResponse { tip: SeqNum(5), offer: Some(pin) };
        let bytes = tip_resp.to_bytes();
        assert_eq!(bytes[0], 21, "LedgerTipResponse tag");
        assert_eq!(bytes[1..9], [5, 0, 0, 0, 0, 0, 0, 0], "tip");
        assert_eq!(bytes[9], 1, "an offer follows");
        assert_eq!(bytes[10..18], [4, 0, 0, 0, 0, 0, 0, 0], "pin seq");
        assert_eq!(bytes[18..50], [0xAB; 32], "pin kv_digest");
        assert_eq!(bytes[50..82], [0xCD; 32], "pin tree_root");
        assert_eq!(bytes.len(), tip_resp.encoded_len());
        let no_offer = ProtocolMsg::LedgerTipResponse { tip: SeqNum(5), offer: None };
        assert_eq!(no_offer.to_bytes(), [21, 5, 0, 0, 0, 0, 0, 0, 0, 0], "tip, no offer");
        assert_eq!(no_offer.to_bytes().len(), no_offer.encoded_len());

        let cp_req = ProtocolMsg::FetchCheckpoint { seq: SeqNum(4) };
        let bytes = cp_req.to_bytes();
        assert_eq!(bytes[0], 22, "FetchCheckpoint tag");
        assert_eq!(bytes[1..], [4, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(bytes.len(), cp_req.encoded_len());

        let cp_resp = ProtocolMsg::FetchCheckpointResponse {
            seq: SeqNum(4),
            payload: Some(CheckpointPayload {
                kv_bytes: vec![0xEE],
                frontier: vec![0xFF, 0xFE],
                ledger_len: 9,
                next_tx_index: 3,
                seed_entries: vec![vec![0x11]],
            }),
        };
        let bytes = cp_resp.to_bytes();
        assert_eq!(bytes[0], 23, "FetchCheckpointResponse tag");
        assert_eq!(
            bytes[1..],
            [
                4, 0, 0, 0, 0, 0, 0, 0, // seq
                1, // a payload follows
                1, 0, 0, 0, 0xEE, // kv_bytes
                2, 0, 0, 0, 0xFF, 0xFE, // frontier
                9, 0, 0, 0, 0, 0, 0, 0, // ledger_len
                3, 0, 0, 0, 0, 0, 0, 0, // next_tx_index
                1, 0, 0, 0, // seed entry count
                1, 0, 0, 0, 0x11, // one 1-byte seed entry
            ],
        );
        assert_eq!(bytes.len(), cp_resp.encoded_len());
        let refusal = ProtocolMsg::FetchCheckpointResponse { seq: SeqNum(4), payload: None };
        assert_eq!(refusal.to_bytes(), [23, 4, 0, 0, 0, 0, 0, 0, 0, 0], "seq, refusal");
        assert_eq!(refusal.to_bytes().len(), refusal.encoded_len());
        assert_eq!(bytes.len(), cp_resp.encoded_len());
    }

    /// Wire-stability pin for the paged state-transfer messages: the tag
    /// bytes and field layout are load-bearing for mixed-version clusters,
    /// so the exact encodings are pinned, not just the roundtrip.
    #[test]
    fn fetch_ledger_page_encoding_pin() {
        let req = ProtocolMsg::FetchLedgerPage { from_seq: SeqNum(3), max_bytes: 0x0102 };
        let bytes = req.to_bytes();
        assert_eq!(bytes[0], 18, "FetchLedgerPage tag");
        assert_eq!(
            bytes[1..],
            [3, 0, 0, 0, 0, 0, 0, 0, 0x02, 0x01, 0, 0, 0, 0, 0, 0],
            "from_seq then max_bytes, little-endian"
        );
        assert_eq!(bytes.len(), req.encoded_len());

        let resp = ProtocolMsg::FetchLedgerPageResponse {
            entries: vec![vec![0xAA]],
            next_seq: SeqNum(4),
            done: true,
        };
        let bytes = resp.to_bytes();
        assert_eq!(bytes[0], 19, "FetchLedgerPageResponse tag");
        assert_eq!(
            bytes[1..],
            [
                1, 0, 0, 0, // entry count
                1, 0, 0, 0, 0xAA, // one 1-byte entry
                4, 0, 0, 0, 0, 0, 0, 0, // next_seq
                1, // done
            ],
            "entries, next_seq, done"
        );
        assert_eq!(bytes.len(), resp.encoded_len());
        // A done flag outside {0, 1} is a decode error, never a panic —
        // hostile peers cannot smuggle an ambiguous continuation state.
        let mut hostile = resp.to_bytes();
        *hostile.last_mut().unwrap() = 2;
        assert!(ProtocolMsg::from_bytes(&hostile).is_err());
    }

    #[test]
    fn batch_kind_roundtrip() {
        for k in [
            BatchKind::Regular,
            BatchKind::Checkpoint,
            BatchKind::EndOfConfig { phase: 3 },
            BatchKind::StartOfConfig { phase: 1 },
        ] {
            assert_eq!(BatchKind::from_bytes(&k.to_bytes()).unwrap(), k);
        }
    }
}
