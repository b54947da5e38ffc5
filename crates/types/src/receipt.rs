//! Receipts and their verification — §3.3 and Alg. 3.
//!
//! A receipt is a statement signed by `N − f` replicas that a request `t`
//! executed at ledger index `i` with result `o`. It consists of the
//! pre-prepare fields (minus `Ḡ`), the primary's signature, the backups'
//! prepare signatures `Σ_s`, the revealed nonces `K_s`, the signer bitmap
//! `E_s`, and a Merkle path `S` from the `⟨t, i, o⟩` leaf to `Ḡ`.
//!
//! Verification recomputes `Ḡ` from the witness, rebuilds the exact signed
//! bytes of the pre-prepare and each prepare, and checks every signature
//! and the primary's nonce commitment. A forged nonce cannot slip through:
//! the reconstructed prepare embeds `H(K_s[r])`, so a wrong nonce changes
//! the signed bytes and the signature check fails.
//!
//! Alg. 3 is written once, in two parts. The structural part is
//! [`BatchCertificate::check_shape`] and [`Receipt::implied_root_g`]. The
//! signature part is [`BatchCertificate::signature_checks`]: the
//! primary's signature over the pre-prepare rebuilt around `Ḡ`, then each
//! backup's prepare in rank order, each with the [`ReceiptError`] its
//! failure reports. [`Receipt::verify`] runs that list one check at a
//! time; the auditor queues it into combined equations and skips the
//! checks its ledger package already proved.
//!
//! # Verifying a certificate once per batch
//!
//! Every receipt of a batch carries the same [`BatchCertificate`], so a
//! verifier holding `k` receipts of one batch would check the same
//! `1 + 2f` Ed25519 signatures `k` times. [`VerifiedCerts`] is a bounded
//! memo of certificates whose signature checks have already **succeeded**;
//! [`Receipt::verify_with`] consults it, [`Receipt::verify`] is the same
//! code path without one (always cold). The contract:
//!
//! * **Only signature checks are elided.** [`BatchCertificate::check_shape`]
//!   (primary of the view, quorum, signer/nonce/signature counts, the
//!   primary's nonce) and the Merkle-path recomputation of `Ḡ` from *this*
//!   receipt's witness run on every call; a hit skips the primary-signature
//!   and prepare-signature checks and nothing else.
//! * **The key is everything those checks read.** SHA-256 over
//!   `(n, quorum, per signer: rank, replica id, public key; the encoded
//!   core; the recomputed Ḡ root; primary_sig; signer bitmap;
//!   prepare_sigs; nonces)`, mapped to the `pp_digest` the checks return.
//!   A differing byte anywhere — a signature, a nonce, a replica key of
//!   the configuration, a root recomputed from a tampered witness — is a
//!   different key, hence a miss, hence a full check.
//! * **Only successes are stored.** A failing check stores nothing and
//!   returns the same [`ReceiptError`] as a cold [`Receipt::verify`].
//! * **Bounded, FIFO.** At capacity the oldest entry is evicted; an
//!   evicted certificate is simply verified again.

use std::collections::{HashMap, VecDeque};

use ia_ccf_crypto::{hash_bytes, Digest, Nonce, Signature, VerifyJob};
use serde::{Deserialize, Serialize};

use crate::config::Configuration;
use crate::entry::{g_leaf_hash, TxResult};
use crate::ids::{LedgerIdx, ReplicaBitmap, ReplicaId, SeqNum, View};
use crate::messages::{BatchKind, PrePrepare, PrePrepareCore, Prepare};
use crate::wire::{encode_seq, Wire};
use ia_ccf_merkle::MerklePath;

/// Why a receipt failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReceiptError {
    /// `core.primary` is not the primary of `core.view` in this
    /// configuration.
    WrongPrimary,
    /// Fewer than `N − f` signers.
    InsufficientSigners {
        /// Signers present.
        got: usize,
        /// Quorum required.
        need: usize,
    },
    /// Signer bitmap, nonce list and signature list are inconsistent.
    Malformed(&'static str),
    /// A signer rank has no replica in this configuration.
    UnknownSigner(usize),
    /// The witness path does not produce a well-formed root.
    BadPath,
    /// The primary's signature over the reconstructed pre-prepare failed.
    BadPrimarySig,
    /// The primary's revealed nonce does not open its commitment.
    BadPrimaryNonce,
    /// A backup's prepare signature failed (rank given).
    BadPrepareSig(usize),
}

impl std::fmt::Display for ReceiptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReceiptError::WrongPrimary => write!(f, "wrong primary for view"),
            ReceiptError::InsufficientSigners { got, need } => {
                write!(f, "insufficient signers: {got} < {need}")
            }
            ReceiptError::Malformed(why) => write!(f, "malformed receipt: {why}"),
            ReceiptError::UnknownSigner(rank) => write!(f, "unknown signer rank {rank}"),
            ReceiptError::BadPath => write!(f, "bad merkle path"),
            ReceiptError::BadPrimarySig => write!(f, "bad primary signature"),
            ReceiptError::BadPrimaryNonce => write!(f, "primary nonce does not open commitment"),
            ReceiptError::BadPrepareSig(rank) => write!(f, "bad prepare signature at rank {rank}"),
        }
    }
}

impl std::error::Error for ReceiptError {}

/// Why the ledger's record of a quorum's word on a batch — the evidence
/// pair the pre-prepare at `s` orders in for `s − P` (§3.1) — is refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvidenceError {
    /// A pre-prepare at `s ≤ P` carries evidence.
    Unexpected,
    /// A pre-prepare at `s > P` carries none.
    Missing,
    /// The evidence is for a batch other than `s − P`.
    WrongTarget,
    /// Bitmap, prepares and nonces disagree in number, or name a rank
    /// outside the configuration.
    Counts,
    /// The recorded prepare at this rank is not the one the certificate
    /// implies (view, sequence number, replica or `H(pp)`).
    Prepare(usize),
    /// The nonce recorded for this rank does not open the commitment its
    /// recorded prepare signs.
    Nonce(usize),
    /// The certificate the pair encodes breaks Alg. 3.
    Certificate(ReceiptError),
}

impl From<ReceiptError> for EvidenceError {
    fn from(why: ReceiptError) -> Self {
        EvidenceError::Certificate(why)
    }
}

/// The carrier clause (Alg. 1 line 17's `hasEvidence`, App. B.1.1) under
/// pipeline depth `p`: a pre-prepare at `s ≤ P` carries no evidence and one
/// at `s > P` carries evidence for exactly `s − P`. Returns that target.
pub fn evidence_target(core: &PrePrepareCore, p: u64) -> Result<Option<SeqNum>, EvidenceError> {
    let carries = core.evidence_bitmap.count() > 0;
    match core.seq.0.checked_sub(p).filter(|target| *target > 0) {
        None if carries || core.evidence_seq != SeqNum(0) => Err(EvidenceError::Unexpected),
        None => Ok(None),
        Some(_) if !carries => Err(EvidenceError::Missing),
        Some(target) if core.evidence_seq != SeqNum(target) => Err(EvidenceError::WrongTarget),
        Some(target) => Ok(Some(SeqNum(target))),
    }
}

/// The one choice of signers (§3.3): the batch's primary plus the
/// lowest-ranked others among `available`, `N − f` in all. `None` until the
/// primary and a quorum are available.
pub fn lowest_ranked_quorum(
    config: &Configuration,
    primary_rank: usize,
    available: ReplicaBitmap,
) -> Option<ReplicaBitmap> {
    let others = available.iter().filter(|rank| *rank != primary_rank);
    let chosen = ReplicaBitmap::from_ranks(others.take(config.quorum() - 1).chain([primary_rank]));
    (available.contains(primary_rank) && chosen.count() == config.quorum()).then_some(chosen)
}

/// The quorum's signatures over one batch.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchCertificate {
    /// Pre-prepare fields (minus `Ḡ`).
    pub core: PrePrepareCore,
    /// σp: the primary's pre-prepare signature.
    pub primary_sig: Signature,
    /// `E_s`: ranks of all signers (primary included).
    pub signers: ReplicaBitmap,
    /// `Σ_s`: prepare signatures of the non-primary signers, in rank order.
    pub prepare_sigs: Vec<Signature>,
    /// `K_s`: revealed nonces of all signers, in rank order.
    pub nonces: Vec<Nonce>,
}

impl BatchCertificate {
    /// Replica ids of the signers under `config` — the set blamed when the
    /// receipt contradicts the ledger (§4.1).
    pub fn signer_ids(&self, config: &Configuration) -> Vec<ReplicaId> {
        self.signers
            .iter()
            .filter_map(|rank| config.replica_at_rank(rank).map(|r| r.id))
            .collect()
    }

    /// The one constructor: the certificate over `core` signed by
    /// `signers`, from each signer's share — its nonce, and its prepare
    /// signature (not read for the primary, whose share in `Σ_s` is
    /// `primary_sig`). `None` when a signer is unranked or has no share.
    pub fn assemble(
        config: &Configuration,
        core: PrePrepareCore,
        primary_sig: Signature,
        signers: ReplicaBitmap,
        mut share_of: impl FnMut(ReplicaId) -> Option<(Signature, Nonce)>,
    ) -> Option<Self> {
        let (mut prepare_sigs, mut nonces) = (Vec::new(), Vec::new());
        for rank in signers.iter() {
            let id = config.replica_at_rank(rank)?.id;
            let (sig, nonce) = share_of(id)?;
            nonces.push(nonce);
            if id != core.primary {
                prepare_sigs.push(sig);
            }
        }
        Some(BatchCertificate { core, primary_sig, signers, prepare_sigs, nonces })
    }

    /// The prepares this certificate stands for, with their ranks: for
    /// every signer but the primary, `⟨prepare, v, s, r, H(K_s[r]), H(pp)⟩`
    /// under its `Σ_s` signature.
    fn prepares(
        &self,
        config: &Configuration,
        pp_digest: &Digest,
    ) -> Result<Vec<(usize, Prepare)>, ReceiptError> {
        let mut sigs = self.prepare_sigs.iter();
        let mut out = Vec::with_capacity(self.prepare_sigs.len());
        for (rank, nonce) in self.signers.iter().zip(&self.nonces) {
            let desc = config.replica_at_rank(rank).ok_or(ReceiptError::UnknownSigner(rank))?;
            if desc.id == self.core.primary {
                continue;
            }
            out.push((
                rank,
                Prepare {
                    view: self.core.view,
                    seq: self.core.seq,
                    replica: desc.id,
                    nonce_commit: nonce.commitment(),
                    pp_digest: *pp_digest,
                    sig: *sigs.next().ok_or(ReceiptError::Malformed("sig underrun"))?,
                },
            ));
        }
        Ok(out)
    }

    /// The ledger encoding (§3.1): the `P_s` and `K_s` entries a later
    /// pre-prepare orders in next to `E_s = signers`. `pp_digest` is
    /// `H(pp)` of the certified pre-prepare.
    pub fn to_evidence(
        &self,
        config: &Configuration,
        pp_digest: &Digest,
    ) -> Option<(Vec<Prepare>, Vec<Nonce>)> {
        let prepares = self.prepares(config, pp_digest).ok()?;
        Some((prepares.into_iter().map(|(_, p)| p).collect(), self.nonces.clone()))
    }

    /// The inverse of [`Self::to_evidence`] over the pre-prepare `target`:
    /// refuses unless every recorded prepare is, byte for byte, the one the
    /// certificate implies.
    pub fn from_evidence(
        config: &Configuration,
        target: &PrePrepare,
        signers: ReplicaBitmap,
        prepares: &[Prepare],
        nonces: &[Nonce],
    ) -> Result<Self, EvidenceError> {
        let (mut recorded, mut revealed) = (prepares.iter(), nonces.iter());
        let cert = Self::assemble(config, target.core.clone(), target.sig, signers, |id| {
            let sig = if id == target.core.primary { target.sig } else { recorded.next()?.sig };
            Some((sig, *revealed.next()?))
        })
        .filter(|_| recorded.next().is_none() && revealed.next().is_none())
        .ok_or(EvidenceError::Counts)?;
        let implied = cert.prepares(config, &target.digest())?;
        for ((rank, implied), recorded) in implied.iter().zip(prepares) {
            if implied != recorded {
                let commit_only =
                    Prepare { nonce_commit: recorded.nonce_commit, ..implied.clone() } == *recorded;
                return Err(if commit_only {
                    EvidenceError::Nonce(*rank)
                } else {
                    EvidenceError::Prepare(*rank)
                });
            }
        }
        Ok(cert)
    }
}

/// What the receipt attests to.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReceiptBody {
    /// A transaction receipt: `⟨t, i, o⟩` plus the path to `Ḡ`.
    Tx(TxWitness),
    /// A batch-level receipt (used for the `P`-th/`2P`-th
    /// end-of-configuration batches in the governance sub-ledger, §5.2).
    /// `root_g` is carried explicitly; empty batches have the zero root.
    Batch {
        /// `Ḡ` of the certified batch.
        root_g: Digest,
    },
}

/// The transaction-level part of a receipt.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxWitness {
    /// `H(t)`.
    pub tx_hash: Digest,
    /// Ledger index `i`.
    pub index: LedgerIdx,
    /// Result `o`.
    pub result: TxResult,
    /// Sibling path `S` from the leaf to `Ḡ`.
    pub path: MerklePath,
}

/// A complete receipt `R`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Receipt {
    /// The quorum certificate.
    pub cert: BatchCertificate,
    /// The attested content.
    pub body: ReceiptBody,
}

impl Receipt {
    /// Sequence number of the certified batch.
    pub fn seq(&self) -> SeqNum {
        self.cert.core.seq
    }

    /// View of the certified batch.
    pub fn view(&self) -> View {
        self.cert.core.view
    }

    /// Batch kind.
    pub fn kind(&self) -> BatchKind {
        self.cert.core.kind
    }

    /// Ledger index of the transaction, when this is a transaction receipt.
    pub fn tx_index(&self) -> Option<LedgerIdx> {
        match &self.body {
            ReceiptBody::Tx(w) => Some(w.index),
            ReceiptBody::Batch { .. } => None,
        }
    }

    /// `i_g`: last governance transaction index at certification time.
    pub fn gov_index(&self) -> LedgerIdx {
        self.cert.core.gov_index
    }

    /// `d_C`: checkpoint digest audits replay from.
    pub fn checkpoint_digest(&self) -> Digest {
        self.cert.core.checkpoint_digest
    }

    /// `Ḡ` implied by this receipt: recomputed from the witness for
    /// transaction receipts, explicit for batch receipts.
    pub fn implied_root_g(&self) -> Result<Digest, ReceiptError> {
        match &self.body {
            ReceiptBody::Tx(w) => {
                let leaf = g_leaf_hash(&w.tx_hash, w.index, &w.result);
                w.path.compute_root(leaf).ok_or(ReceiptError::BadPath)
            }
            ReceiptBody::Batch { root_g } => Ok(*root_g),
        }
    }

    /// Verify the receipt under `config` (Alg. 3), checking every
    /// signature — the uncached entry point.
    ///
    /// On success returns the reconstructed pre-prepare digest `H(pp_{σp})`,
    /// which auditors compare against the ledger.
    pub fn verify(&self, config: &Configuration) -> Result<Digest, ReceiptError> {
        self.verify_inner(config, None)
    }

    /// [`Receipt::verify`], except that a certificate `memo` has already
    /// seen verify — byte for byte, under the same replica keys — is not
    /// signature-checked again (see the module docs for the contract).
    /// Returns exactly what `verify` returns.
    pub fn verify_with(
        &self,
        config: &Configuration,
        memo: &mut VerifiedCerts,
    ) -> Result<Digest, ReceiptError> {
        self.verify_inner(config, Some(memo))
    }

    fn verify_inner(
        &self,
        config: &Configuration,
        memo: Option<&mut VerifiedCerts>,
    ) -> Result<Digest, ReceiptError> {
        self.cert.check_shape(config)?;
        // Recompute Ḡ from this receipt's own witness (Alg. 3 lines 2–4).
        let root_g = self.implied_root_g()?;
        let Some(memo) = memo else {
            return self.cert.signature_checks(config, &root_g)?.run();
        };
        let key = self.cert.memo_key(config, &root_g);
        if let Some(pp_digest) = memo.lookup(&key) {
            return Ok(pp_digest);
        }
        let pp_digest = self.cert.signature_checks(config, &root_g)?.run()?;
        memo.insert(key, pp_digest);
        Ok(pp_digest)
    }
}

/// The sequence number whose checkpoint digest a receipt at `seq` carries:
/// the penultimate checkpoint (Appx. B):
/// `scp = 0 if s < C, else C · (⌈s/C⌉ − 2)` (clamped at zero).
pub fn receipt_checkpoint_seq(seq: SeqNum, interval: u64) -> SeqNum {
    let s = seq.0;
    if s < interval {
        return SeqNum(0);
    }
    let k = s.div_ceil(interval);
    SeqNum(interval * k.saturating_sub(2))
}

/// One of Alg. 3's signature checks, with the refusal its failure reports.
pub struct SigCheck {
    /// The key, the signature and the bytes it must sign.
    pub job: VerifyJob,
    /// What the receipt fails as when this check does.
    pub fails_as: ReceiptError,
}

impl SigCheck {
    fn passes(&self) -> bool {
        self.job.key.verify(&self.job.msg, &self.job.sig)
    }
}

/// Alg. 3's signature checks over one certificate and implied `Ḡ`, in the
/// order a one-at-a-time verifier meets them: the first failure is the
/// verdict.
pub struct SignatureChecks {
    /// `H(pp_σp)` of the pre-prepare rebuilt around `Ḡ`, what the receipt
    /// proves once every check passes.
    pub pp_digest: Digest,
    /// The primary's signature over that pre-prepare, then each backup's
    /// prepare in rank order.
    pub checks: Vec<SigCheck>,
    /// A refusal met while building the prepares (a signer rank outside
    /// the configuration). It ranks after the primary's check, which
    /// `checks` then holds alone.
    pub refused: Option<ReceiptError>,
}

impl SignatureChecks {
    /// Run the checks one at a time, in order.
    pub fn run(self) -> Result<Digest, ReceiptError> {
        if let Some(failed) = self.checks.into_iter().find(|check| !check.passes()) {
            return Err(failed.fails_as);
        }
        self.refused.map_or(Ok(self.pp_digest), Err)
    }
}

impl BatchCertificate {
    /// Alg. 3 without its signatures: `core.primary` is the primary of
    /// `core.view`, at least `N − f` signers with the primary among them,
    /// one nonce per signer and one prepare signature per backup, and the
    /// primary's nonce opens the commitment its pre-prepare signs.
    pub fn check_shape(&self, config: &Configuration) -> Result<(), ReceiptError> {
        let core = &self.core;
        // The primary is determined by the view (p = v mod N).
        if config.primary_of(core.view) != core.primary {
            return Err(ReceiptError::WrongPrimary);
        }
        let primary_rank = config.rank_of(core.primary).ok_or(ReceiptError::WrongPrimary)?;
        let signer_count = self.signers.count();
        if signer_count < config.quorum() {
            return Err(ReceiptError::InsufficientSigners {
                got: signer_count,
                need: config.quorum(),
            });
        }
        let Some(primary_at) = self.signers.iter().position(|rank| rank == primary_rank) else {
            return Err(ReceiptError::Malformed("primary not among signers"));
        };
        if self.nonces.len() != signer_count {
            return Err(ReceiptError::Malformed("nonce count mismatch"));
        }
        if self.prepare_sigs.len() != signer_count - 1 {
            return Err(ReceiptError::Malformed("prepare signature count mismatch"));
        }
        if !core.nonce_commit.opens_with(&self.nonces[primary_at]) {
            return Err(ReceiptError::BadPrimaryNonce);
        }
        Ok(())
    }

    /// Every backup's signature over the prepare the certificate stands
    /// for (Alg. 3 lines 7–9), `pp_digest` being `H(pp_{σp})`: one check
    /// per backup, in rank order, each failing as `BadPrepareSig(rank)`.
    pub fn prepare_checks(
        &self,
        config: &Configuration,
        pp_digest: &Digest,
    ) -> Result<Vec<SigCheck>, ReceiptError> {
        self.prepares(config, pp_digest)?
            .into_iter()
            .map(|(rank, prepare)| {
                let desc = config.replica_at_rank(rank).ok_or(ReceiptError::UnknownSigner(rank))?;
                let msg = prepare.own_payload();
                Ok(SigCheck {
                    job: VerifyJob { key: desc.key, msg, sig: prepare.sig },
                    fails_as: ReceiptError::BadPrepareSig(rank),
                })
            })
            .collect()
    }

    /// The signatures of Alg. 3 over `root_g`, in order (see
    /// [`SignatureChecks`]). The caller has run [`Self::check_shape`].
    pub fn signature_checks(
        &self,
        config: &Configuration,
        root_g: &Digest,
    ) -> Result<SignatureChecks, ReceiptError> {
        let key = *config.replica_key(self.core.primary).ok_or(ReceiptError::WrongPrimary)?;
        let msg = PrePrepare::signing_payload(&self.core, root_g);
        let pp_digest = PrePrepare::digest_from_parts(&self.core, root_g, &self.primary_sig);
        let primary = SigCheck {
            job: VerifyJob { key, msg, sig: self.primary_sig },
            fails_as: ReceiptError::BadPrimarySig,
        };
        let mut checks = vec![primary];
        let refused = match self.prepare_checks(config, &pp_digest) {
            Ok(prepares) => {
                checks.extend(prepares);
                None
            }
            Err(why) => Some(why),
        };
        Ok(SignatureChecks { pp_digest, checks, refused })
    }

    /// The [`VerifiedCerts`] key: a digest of every byte
    /// [`Self::signature_checks`] reads (module docs).
    fn memo_key(&self, config: &Configuration, root_g: &Digest) -> Digest {
        let mut buf = Vec::with_capacity(768);
        buf.extend_from_slice(b"ia-ccf/verified-cert");
        (config.n() as u64).encode(&mut buf);
        (config.quorum() as u64).encode(&mut buf);
        for rank in self.signers.iter() {
            (rank as u64).encode(&mut buf);
            // A rank outside the configuration fails the check; it still
            // gets a well-defined (never stored) key.
            match config.replica_at_rank(rank) {
                Some(desc) => {
                    buf.push(1);
                    desc.id.encode(&mut buf);
                    desc.key.encode(&mut buf);
                }
                None => buf.push(0),
            }
        }
        self.core.encode(&mut buf);
        root_g.encode(&mut buf);
        self.primary_sig.encode(&mut buf);
        self.signers.encode(&mut buf);
        encode_seq(&self.prepare_sigs, &mut buf);
        encode_seq(&self.nonces, &mut buf);
        hash_bytes(&buf)
    }
}

/// A bounded, success-only memo of batch certificates whose signature
/// checks have passed, keyed by a digest of everything those checks read
/// (module docs). The client keeps one for its lifetime.
#[derive(Debug)]
pub struct VerifiedCerts {
    capacity: usize,
    /// Key → the `pp_digest` the checks returned.
    verified: HashMap<Digest, Digest>,
    /// Keys in insertion order, oldest first.
    order: VecDeque<Digest>,
    hits: u64,
    misses: u64,
}

impl VerifiedCerts {
    /// An empty memo remembering at most `capacity` certificates.
    pub fn new(capacity: usize) -> Self {
        VerifiedCerts {
            capacity,
            verified: HashMap::with_capacity(capacity),
            order: VecDeque::with_capacity(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Lookups answered from the memo (signature checks elided).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing and ran the signature checks.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Certificates currently remembered.
    pub fn len(&self) -> usize {
        self.verified.len()
    }

    /// Whether nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.verified.is_empty()
    }

    fn lookup(&mut self, key: &Digest) -> Option<Digest> {
        let found = self.verified.get(key).copied();
        match found {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        found
    }

    fn insert(&mut self, key: Digest, pp_digest: Digest) {
        if self.capacity == 0 {
            return;
        }
        if self.verified.len() == self.capacity {
            if let Some(oldest) = self.order.pop_front() {
                self.verified.remove(&oldest);
            }
        }
        // `insert` follows a failed `lookup`, so the key is new.
        self.verified.insert(key, pp_digest);
        self.order.push_back(key);
    }
}

wire_struct!(BatchCertificate { core, primary_sig, signers, prepare_sigs: seq, nonces: seq });
wire_struct!(TxWitness { tx_hash, index, result, path });
wire_enum!(ReceiptBody {
    0 => Tx(w),
    1 => Batch { root_g },
});
wire_struct!(Receipt { cert, body });

/// Test-support builders producing honestly signed receipts without a
/// running cluster. Shared by this crate's tests and downstream crates.
pub mod testutil {
    use super::*;
    use crate::config::Configuration;
    use ia_ccf_crypto::KeyPair;
    use ia_ccf_merkle::MerkleTree;

    /// Build a valid receipt for `⟨t, i, o⟩` entries, certifying the batch
    /// with the first `quorum` replicas as signers. `replica_keys` must
    /// align with `config.replicas` by rank. Returns one receipt per entry.
    #[allow(clippy::too_many_arguments)]
    pub fn make_tx_receipts(
        config: &Configuration,
        replica_keys: &[KeyPair],
        view: View,
        seq: SeqNum,
        root_m: Digest,
        gov_index: LedgerIdx,
        checkpoint_digest: Digest,
        entries: &[(Digest, LedgerIdx, TxResult)],
    ) -> Vec<Receipt> {
        let n = config.n();
        let primary = config.primary_of(view);
        let primary_rank = config.rank_of(primary).unwrap();

        // Per-batch tree G.
        let mut g = MerkleTree::new();
        for (tx_hash, index, result) in entries {
            g.append(g_leaf_hash(tx_hash, *index, result));
        }
        let root_g = g.root();

        // Nonces: one per replica, deterministic for tests.
        let nonces: Vec<Nonce> =
            (0..n).map(|r| Nonce([r as u8 + 1; ia_ccf_crypto::NONCE_LEN])).collect();

        let core = PrePrepareCore {
            view,
            seq,
            root_m,
            nonce_commit: nonces[primary_rank].commitment(),
            evidence_seq: seq.minus(2),
            evidence_bitmap: ReplicaBitmap::from_ranks(0..config.quorum()),
            gov_index,
            checkpoint_digest,
            kind: BatchKind::Regular,
            committed_root: None,
            primary,
        };
        let primary_sig =
            replica_keys[primary_rank].sign(&PrePrepare::signing_payload(&core, &root_g));
        let pp_digest = PrePrepare::digest_from_parts(&core, &root_g, &primary_sig);

        let signers =
            lowest_ranked_quorum(config, primary_rank, ReplicaBitmap::from_ranks(0..n)).unwrap();
        let cert = BatchCertificate::assemble(config, core, primary_sig, signers, |id| {
            let rank = config.rank_of(id)?;
            let commit = nonces[rank].commitment();
            let payload = Prepare::signing_payload(view, seq, id, &commit, &pp_digest);
            Some((replica_keys[rank].sign(&payload), nonces[rank]))
        })
        .unwrap();

        entries
            .iter()
            .enumerate()
            .map(|(pos, (tx_hash, index, result))| Receipt {
                cert: cert.clone(),
                body: ReceiptBody::Tx(TxWitness {
                    tx_hash: *tx_hash,
                    index: *index,
                    result: result.clone(),
                    path: g.path(pos as u64).expect("leaf exists"),
                }),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::make_tx_receipts;
    use super::*;
    use crate::config::testutil::test_config;
    use ia_ccf_crypto::hash_bytes;

    fn result(out: &str) -> TxResult {
        TxResult { ok: true, output: out.as_bytes().to_vec(), write_set_digest: hash_bytes(b"ws") }
    }

    fn sample_receipts(n: usize, count: usize) -> (Configuration, Vec<Receipt>) {
        let (config, replica_keys, _) = test_config(n);
        let entries: Vec<(Digest, LedgerIdx, TxResult)> = (0..count)
            .map(|i| (hash_bytes(format!("t{i}").as_bytes()), LedgerIdx(10 + i as u64), result("r")))
            .collect();
        let receipts = make_tx_receipts(
            &config,
            &replica_keys,
            View(0),
            SeqNum(7),
            hash_bytes(b"root-m"),
            LedgerIdx(0),
            Digest::zero(),
            &entries,
        );
        (config, receipts)
    }

    #[test]
    fn valid_receipt_verifies_f1() {
        let (config, receipts) = sample_receipts(4, 3);
        for r in &receipts {
            r.verify(&config).expect("receipt valid");
        }
    }

    #[test]
    fn valid_receipt_verifies_f3() {
        let (config, receipts) = sample_receipts(10, 2);
        for r in &receipts {
            r.verify(&config).expect("receipt valid");
        }
    }

    #[test]
    fn tampered_result_fails() {
        let (config, mut receipts) = sample_receipts(4, 2);
        let ReceiptBody::Tx(w) = &mut receipts[0].body else { panic!() };
        w.result.output = b"forged".to_vec();
        // The forged result changes the leaf, hence Ḡ, hence the primary's
        // reconstructed signature check fails.
        assert_eq!(receipts[0].verify(&config), Err(ReceiptError::BadPrimarySig));
    }

    #[test]
    fn tampered_index_fails() {
        let (config, mut receipts) = sample_receipts(4, 2);
        let ReceiptBody::Tx(w) = &mut receipts[0].body else { panic!() };
        w.index = LedgerIdx(999);
        assert!(receipts[0].verify(&config).is_err());
    }

    #[test]
    fn swapped_nonce_fails() {
        let (config, mut receipts) = sample_receipts(4, 1);
        receipts[0].cert.nonces.swap(0, 1);
        assert!(receipts[0].verify(&config).is_err());
    }

    #[test]
    fn insufficient_signers_detected() {
        let (config, mut receipts) = sample_receipts(4, 1);
        // Drop one signer: below quorum of 3.
        let ranks: Vec<usize> = receipts[0].cert.signers.iter().collect();
        receipts[0].cert.signers = ReplicaBitmap::from_ranks(ranks[..2].iter().copied());
        receipts[0].cert.nonces.truncate(2);
        receipts[0].cert.prepare_sigs.truncate(1);
        assert_eq!(
            receipts[0].verify(&config),
            Err(ReceiptError::InsufficientSigners { got: 2, need: 3 })
        );
    }

    #[test]
    fn wrong_view_primary_rejected() {
        let (config, mut receipts) = sample_receipts(4, 1);
        receipts[0].cert.core.view = View(1); // primary of v1 is r1, not r0
        assert_eq!(receipts[0].verify(&config), Err(ReceiptError::WrongPrimary));
    }

    #[test]
    fn truncated_path_rejected() {
        let (config, mut receipts) = sample_receipts(4, 4);
        let ReceiptBody::Tx(w) = &mut receipts[2].body else { panic!() };
        w.path.siblings.clear();
        assert_eq!(receipts[2].verify(&config), Err(ReceiptError::BadPath));
    }

    #[test]
    fn receipt_wire_roundtrip() {
        let (_, receipts) = sample_receipts(4, 2);
        for r in &receipts {
            assert_eq!(&Receipt::from_bytes(&r.to_bytes()).unwrap(), r);
        }
    }

    #[test]
    fn verify_returns_pp_digest_matching_parts() {
        let (config, receipts) = sample_receipts(4, 1);
        let d = receipts[0].verify(&config).unwrap();
        let root_g = receipts[0].implied_root_g().unwrap();
        assert_eq!(
            d,
            PrePrepare::digest_from_parts(
                &receipts[0].cert.core,
                &root_g,
                &receipts[0].cert.primary_sig
            )
        );
    }

    /// Every way of changing one field of an honest receipt, each of which
    /// a cold `verify` rejects.
    fn single_field_mutations(honest: &Receipt) -> Vec<(String, Receipt)> {
        let mut out: Vec<(String, Receipt)> = Vec::new();
        let mut push = |name: String, mutate: &dyn Fn(&mut Receipt)| {
            let mut r = honest.clone();
            mutate(&mut r);
            out.push((name, r));
        };
        push("primary_sig".into(), &|r| r.cert.primary_sig.0[17] ^= 0x20);
        for i in 0..honest.cert.prepare_sigs.len() {
            push(format!("prepare_sig[{i}] R"), &|r| r.cert.prepare_sigs[i].0[3] ^= 1);
            push(format!("prepare_sig[{i}] s"), &|r| r.cert.prepare_sigs[i].0[40] ^= 0x80);
        }
        for i in 0..honest.cert.nonces.len() {
            push(format!("nonce[{i}]"), &|r| r.cert.nonces[i].0[0] ^= 1);
        }
        // Same count, a different backup; and one signer too many.
        push("signers swapped".into(), &|r| {
            r.cert.signers = ReplicaBitmap::from_ranks([0, 1, 3]);
        });
        push("signers extra".into(), &|r| r.cert.signers.set(3));
        push("core.view (same primary)".into(), &|r| r.cert.core.view = View(4));
        push("core.view (other primary)".into(), &|r| r.cert.core.view = View(1));
        push("core.seq".into(), &|r| r.cert.core.seq = SeqNum(8));
        push("core.root_m".into(), &|r| r.cert.core.root_m.0[0] ^= 1);
        push("core.nonce_commit".into(), &|r| r.cert.core.nonce_commit.0 .0[0] ^= 1);
        push("core.evidence_seq".into(), &|r| r.cert.core.evidence_seq = SeqNum(6));
        push("core.evidence_bitmap".into(), &|r| r.cert.core.evidence_bitmap.set(3));
        push("core.gov_index".into(), &|r| r.cert.core.gov_index = LedgerIdx(1));
        push("core.checkpoint_digest".into(), &|r| r.cert.core.checkpoint_digest.0[31] ^= 1);
        push("core.kind".into(), &|r| r.cert.core.kind = BatchKind::Checkpoint);
        push("core.committed_root".into(), &|r| {
            r.cert.core.committed_root = Some(hash_bytes(b"committed"));
        });
        push("core.primary".into(), &|r| r.cert.core.primary = ReplicaId(1));
        let witness = |r: &mut Receipt, mutate: &dyn Fn(&mut TxWitness)| {
            let ReceiptBody::Tx(w) = &mut r.body else { panic!("tx receipt") };
            mutate(w);
        };
        push("path sibling".into(), &|r| witness(r, &|w| w.path.siblings[0].0[5] ^= 1));
        push("path index".into(), &|r| witness(r, &|w| w.path.index ^= 1));
        push("result byte".into(), &|r| witness(r, &|w| w.result.output[0] ^= 1));
        push("result ok".into(), &|r| witness(r, &|w| w.result.ok = !w.result.ok));
        push("tx_hash".into(), &|r| witness(r, &|w| w.tx_hash.0[9] ^= 1));
        push("tx index".into(), &|r| witness(r, &|w| w.index = LedgerIdx(99)));
        push("batch body, wrong root".into(), &|r| {
            r.body = ReceiptBody::Batch { root_g: hash_bytes(b"not the root") };
        });
        out
    }

    #[test]
    fn memoised_verdicts_equal_cold_verdicts_for_every_mutation() {
        let (config, receipts) = sample_receipts(4, 4);
        let mut memo = VerifiedCerts::new(8);
        let pp_digest = receipts[0].verify(&config).unwrap();
        assert_eq!(receipts[0].verify_with(&config, &mut memo), Ok(pp_digest));
        assert_eq!((memo.hits(), memo.misses(), memo.len()), (0, 1, 1));

        // A configuration with the same n whose rank-1 replica has another
        // key: the certificate memoised under `config` must not carry over.
        let mut other_keys = config.clone();
        other_keys.replicas[1].key = ia_ccf_crypto::KeyPair::from_label("intruder").public();

        for honest in &receipts {
            assert_eq!(honest.verify_with(&config, &mut memo), Ok(pp_digest));
            for (name, mutated) in single_field_mutations(honest) {
                let cold = mutated.verify(&config);
                assert!(cold.is_err(), "{name}: the mutation must matter");
                assert_eq!(mutated.verify_with(&config, &mut memo), cold, "{name}");
            }
            let cold = honest.verify(&other_keys);
            assert_eq!(cold, Err(ReceiptError::BadPrepareSig(1)));
            assert_eq!(honest.verify_with(&other_keys, &mut memo), cold);
        }
        // Failures stored nothing: still the one honest certificate.
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn memo_is_keyed_by_the_signers_keys_not_the_configuration() {
        let (config, receipts) = sample_receipts(4, 2);
        let mut memo = VerifiedCerts::new(8);
        receipts[0].verify_with(&config, &mut memo).unwrap();

        // Different keys for a signer: a miss (and a failure, uncached).
        let mut config_b = config.clone();
        config_b.replicas[0].key = ia_ccf_crypto::KeyPair::from_label("other-primary").public();
        assert_eq!(
            receipts[1].verify_with(&config_b, &mut memo),
            Err(ReceiptError::BadPrimarySig)
        );
        assert_eq!((memo.hits(), memo.misses()), (0, 2));

        // A configuration differing only in a replica that did not sign
        // verifies cold, so a hit is the same answer.
        let mut config_c = config.clone();
        config_c.replicas[3].key = ia_ccf_crypto::KeyPair::from_label("bystander").public();
        assert_eq!(receipts[1].verify_with(&config_c, &mut memo), receipts[1].verify(&config_c));
        assert_eq!((memo.hits(), memo.misses()), (1, 2));
    }

    /// Alg. 3 as the auditor runs it: every check whose fingerprint is in
    /// `proved` is skipped. Also returns how many checks ran.
    fn verify_skipping(
        receipt: &Receipt,
        config: &Configuration,
        proved: &std::collections::HashSet<Digest>,
    ) -> (Result<Digest, ReceiptError>, usize) {
        let checks = receipt.cert.check_shape(config).and_then(|()| {
            let root_g = receipt.implied_root_g()?;
            receipt.cert.signature_checks(config, &root_g)
        });
        let mut checks = match checks {
            Ok(checks) => checks,
            Err(why) => return (Err(why), 0),
        };
        checks.checks.retain(|check| !proved.contains(&check.job.fingerprint()));
        let ran = checks.checks.len();
        (checks.run(), ran)
    }

    #[test]
    fn a_proved_signature_answers_only_for_its_own_key_and_bytes() {
        let (config, receipts) = sample_receipts(4, 3);
        let root_g = receipts[0].implied_root_g().unwrap();
        let checks = receipts[0].cert.signature_checks(&config, &root_g).unwrap();
        let proved = checks.checks.iter().map(|check| check.job.fingerprint()).collect();

        let pp_digest = receipts[0].verify(&config).unwrap();
        for honest in &receipts {
            assert_eq!(verify_skipping(honest, &config, &proved), (Ok(pp_digest), 0));
        }
        // The same signatures over the same bytes under another key of the
        // signer's rank.
        let mut other_keys = config.clone();
        other_keys.replicas[1].key = ia_ccf_crypto::KeyPair::from_label("intruder").public();
        let cold = receipts[0].verify(&other_keys);
        assert_eq!(cold, Err(ReceiptError::BadPrepareSig(1)));
        assert_eq!(verify_skipping(&receipts[0], &other_keys, &proved).0, cold);
        // Every field: a nonce changes the bytes its backup's signature is
        // checked over, the rest the pre-prepare's.
        for (name, mutated) in single_field_mutations(&receipts[0]) {
            assert_eq!(verify_skipping(&mutated, &config, &proved).0, mutated.verify(&config), "{name}");
        }
    }

    #[test]
    fn memo_counts_one_miss_per_batch_and_honours_capacity() {
        let (config, replica_keys, _) = test_config(4);
        let batch = |seq: u64, count: usize| -> Vec<Receipt> {
            let entries: Vec<(Digest, LedgerIdx, TxResult)> = (0..count)
                .map(|i| (hash_bytes(&[seq as u8, i as u8]), LedgerIdx(seq * 100 + i as u64), result("r")))
                .collect();
            make_tx_receipts(
                &config,
                &replica_keys,
                View(0),
                SeqNum(seq),
                hash_bytes(b"root-m"),
                LedgerIdx(0),
                Digest::zero(),
                &entries,
            )
        };
        let k = 9;
        let batches = [batch(1, k), batch(2, k), batch(3, k)];

        let mut memo = VerifiedCerts::new(2);
        for r in &batches[0] {
            r.verify_with(&config, &mut memo).unwrap();
        }
        assert_eq!((memo.hits(), memo.misses()), (k as u64 - 1, 1));
        for r in batches[1].iter().chain(&batches[2]) {
            r.verify_with(&config, &mut memo).unwrap();
        }
        assert_eq!((memo.hits(), memo.misses()), (3 * (k as u64 - 1), 3));
        assert_eq!(memo.len(), 2, "capacity bounds the memo");

        // Batch 1 was the oldest: evicted, verified afresh (correctly), and
        // in turn evicts batch 2; batch 3 is still remembered.
        assert_eq!(batches[0][0].verify_with(&config, &mut memo), batches[0][0].verify(&config));
        assert_eq!((memo.hits(), memo.misses()), (3 * (k as u64 - 1), 4));
        batches[2][0].verify_with(&config, &mut memo).unwrap();
        assert_eq!(memo.misses(), 4);
        batches[1][0].verify_with(&config, &mut memo).unwrap();
        assert_eq!(memo.misses(), 5);
        assert_eq!(memo.len(), 2);

        // Capacity 0 remembers nothing and still answers correctly.
        let mut none = VerifiedCerts::new(0);
        for r in &batches[0] {
            r.verify_with(&config, &mut none).unwrap();
        }
        assert_eq!((none.hits(), none.misses(), none.len()), (0, k as u64, 0));
        assert!(none.is_empty());
    }

    #[test]
    fn selection_is_the_primary_plus_the_lowest_ranked_others() {
        let (config, _, _) = test_config(4);
        let pick = |primary, ranks: &[usize]| {
            lowest_ranked_quorum(&config, primary, ReplicaBitmap::from_ranks(ranks.iter().copied()))
                .map(|chosen| chosen.iter().collect::<Vec<_>>())
        };
        assert_eq!(pick(0, &[0, 1, 2, 3]), Some(vec![0, 1, 2]));
        assert_eq!(pick(3, &[0, 1, 2, 3]), Some(vec![0, 1, 3]));
        assert_eq!(pick(1, &[1, 2, 3]), Some(vec![1, 2, 3]));
        assert_eq!(pick(0, &[1, 2, 3]), None, "no primary, no quorum");
        assert_eq!(pick(0, &[0, 3]), None, "two of four");
    }

    #[test]
    fn carrier_clause_is_no_evidence_up_to_p_and_exactly_s_minus_p_above() {
        let (_, receipts) = sample_receipts(4, 1);
        let carrier = |seq: u64, evidence_seq: u64, ranks: &[usize]| {
            let mut core = receipts[0].cert.core.clone();
            (core.seq, core.evidence_seq) = (SeqNum(seq), SeqNum(evidence_seq));
            core.evidence_bitmap = ReplicaBitmap::from_ranks(ranks.iter().copied());
            evidence_target(&core, 2)
        };
        assert_eq!(carrier(1, 0, &[]), Ok(None));
        assert_eq!(carrier(2, 0, &[]), Ok(None));
        assert_eq!(carrier(3, 1, &[0, 1, 2]), Ok(Some(SeqNum(1))));
        assert_eq!(carrier(2, 1, &[0, 1, 2]), Err(EvidenceError::Unexpected));
        assert_eq!(carrier(2, 1, &[]), Err(EvidenceError::Unexpected));
        assert_eq!(carrier(3, 0, &[]), Err(EvidenceError::Missing));
        assert_eq!(carrier(3, 2, &[0, 1, 2]), Err(EvidenceError::WrongTarget));
        assert_eq!(carrier(3, 1000, &[0]), Err(EvidenceError::WrongTarget));
    }

    #[test]
    fn the_ledger_encoding_round_trips_and_pins_every_prepare_field() {
        for (n, view) in [(4, View(0)), (4, View(2)), (10, View(13))] {
            let (config, keys, _) = test_config(n);
            let entries = [(hash_bytes(b"t"), LedgerIdx(3), result("r"))];
            let root_m = hash_bytes(b"root-m");
            let (seq, gov, cp) = (SeqNum(7), LedgerIdx(0), Digest::zero());
            let receipt =
                make_tx_receipts(&config, &keys, view, seq, root_m, gov, cp, &entries).remove(0);
            let cert = &receipt.cert;
            let root_g = receipt.implied_root_g().unwrap();
            let pp = PrePrepare { core: cert.core.clone(), root_g, sig: cert.primary_sig };
            let (prepares, nonces) = cert.to_evidence(&config, &pp.digest()).unwrap();
            assert_eq!((prepares.len(), nonces.len()), (config.quorum() - 1, config.quorum()));
            let back = |prepares: &[Prepare], nonces: &[Nonce]| {
                BatchCertificate::from_evidence(&config, &pp, cert.signers, prepares, nonces)
            };
            assert_eq!(back(&prepares, &nonces).as_ref(), Ok(cert));
            let failed = |cert: &BatchCertificate| -> Vec<ReceiptError> {
                let checks = cert.prepare_checks(&config, &pp.digest()).unwrap();
                checks.into_iter().filter(|c| !c.passes()).map(|c| c.fails_as).collect()
            };
            assert_eq!(failed(cert), vec![]);

            assert_eq!(back(&prepares[1..], &nonces), Err(EvidenceError::Counts));
            assert_eq!(back(&prepares, &nonces[1..]), Err(EvidenceError::Counts));
            let extra = [&nonces[..], &nonces[..1]].concat();
            assert_eq!(back(&prepares, &extra), Err(EvidenceError::Counts));
            let rank = config.rank_of(prepares[0].replica).unwrap();
            let off = |change: &dyn Fn(&mut Prepare)| {
                let mut prepares = prepares.clone();
                change(&mut prepares[0]);
                back(&prepares, &nonces).err()
            };
            assert_eq!(off(&|p| p.view = View(99)), Some(EvidenceError::Prepare(rank)));
            assert_eq!(off(&|p| p.seq = SeqNum(8)), Some(EvidenceError::Prepare(rank)));
            assert_eq!(off(&|p| p.replica = ReplicaId(63)), Some(EvidenceError::Prepare(rank)));
            assert_eq!(off(&|p| p.pp_digest.0[0] ^= 1), Some(EvidenceError::Prepare(rank)));
            assert_eq!(off(&|p| p.nonce_commit.0 .0[0] ^= 1), Some(EvidenceError::Nonce(rank)));
            // A signature is carried, not implied: checking it is
            // `prepare_checks`' job.
            let mut forged = prepares.clone();
            forged[0].sig.0[1] ^= 1;
            let carried = back(&forged, &nonces).unwrap();
            assert_eq!(failed(&carried), vec![ReceiptError::BadPrepareSig(rank)]);
        }
    }

    #[test]
    fn receipt_size_shape_tracks_f() {
        // §6.4: receipts grow with f because Σs and Ks grow. Check the
        // monotone shape (absolute numbers are properties of our codec).
        let (_, r1) = sample_receipts(4, 1);
        let (_, r3) = sample_receipts(10, 1);
        assert!(r3[0].encoded_len() > r1[0].encoded_len());
    }

    #[test]
    fn receipt_checkpoint_seq_matches_paper_formula() {
        let c = 10;
        // s < C ⇒ 0.
        assert_eq!(receipt_checkpoint_seq(SeqNum(0), c), SeqNum(0));
        assert_eq!(receipt_checkpoint_seq(SeqNum(9), c), SeqNum(0));
        // s = C: ⌈10/10⌉ = 1 ⇒ clamp to 0.
        assert_eq!(receipt_checkpoint_seq(SeqNum(10), c), SeqNum(0));
        // s in (C, 2C]: ⌈s/C⌉ = 2 ⇒ 0.
        assert_eq!(receipt_checkpoint_seq(SeqNum(15), c), SeqNum(0));
        assert_eq!(receipt_checkpoint_seq(SeqNum(20), c), SeqNum(0));
        // s in (2C, 3C]: ⌈s/C⌉ = 3 ⇒ C.
        assert_eq!(receipt_checkpoint_seq(SeqNum(21), c), SeqNum(10));
        assert_eq!(receipt_checkpoint_seq(SeqNum(30), c), SeqNum(10));
        // s = 45: ⌈45/10⌉ = 5 ⇒ 30.
        assert_eq!(receipt_checkpoint_seq(SeqNum(45), c), SeqNum(30));
    }
}
