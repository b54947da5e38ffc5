//! Ledger packages and well-formedness (§B.1.1).
//!
//! A ledger package is what a replica hands the enforcer for an audit: a
//! ledger fragment `F`, the checkpoint `cp` the fragment starts from, and
//! the governance sub-ledger `N`. *Well-formedness* is checked without
//! re-executing transactions: the structural grammar (shared with
//! `ia-ccf-ledger`), every pre-prepare/prepare signature, every revealed
//! nonce against its commitment, and the `M̄` root progression. A fragment
//! that fails any of these incriminates the replica that served it; one
//! that passes but replays incorrectly incriminates its signers (§4.1).

use std::collections::{BTreeSet, HashMap, HashSet};

use ia_ccf_crypto::SigQueue;
use ia_ccf_kv::KvCheckpoint;
use ia_ccf_ledger::segment::{segment_entries, Segment};
use ia_ccf_ledger::validity::{check_new_view, view_primary_job};
use ia_ccf_merkle::MerkleTree;
use ia_ccf_types::{
    evidence_target, BatchCertificate, Configuration, Digest, EvidenceError, LedgerEntry,
    PrePrepare, ReceiptError, ReplicaId, SeqNum, View, Wire,
};

/// A ledger package served for auditing.
#[derive(Debug, Clone)]
pub struct LedgerPackage {
    /// The full ledger from genesis (our replicas keep full ledgers; the
    /// auditor slices the fragment it needs). Entry 0 must be genesis.
    pub entries: Vec<LedgerEntry>,
    /// The checkpoint whose digest the oldest relevant receipt references,
    /// when the audit does not start from genesis.
    pub checkpoint: Option<(SeqNum, KvCheckpoint)>,
}

impl LedgerPackage {
    /// Build a package from a (possibly Byzantine) replica's state: its
    /// full ledger plus the checkpoint at `checkpoint_seq` when retained.
    pub fn from_replica(replica: &ia_ccf_core::Replica, checkpoint_seq: SeqNum) -> LedgerPackage {
        LedgerPackage {
            entries: replica.ledger().entries().to_vec(),
            checkpoint: replica
                .checkpoints()
                .at(checkpoint_seq)
                .map(|r| (r.seq, r.kv.clone())),
        }
    }
}

/// Why a package is not well-formed (incriminates the server).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackageError {
    /// Structural grammar violation.
    Malformed(String),
    /// Bad pre-prepare signature at a sequence number.
    BadPrePrepareSig(SeqNum),
    /// Bad prepare signature inside an evidence entry.
    BadEvidenceSig(SeqNum),
    /// A revealed nonce does not open its signed commitment.
    BadNonce(SeqNum),
    /// The recomputed ledger-tree root does not match a signed `M̄`.
    RootMismatch(SeqNum),
    /// Evidence bitmap inconsistent with the evidence entries.
    EvidenceShape(SeqNum),
    /// A required view-change set is missing or malformed.
    BadViewChange(View),
}

impl std::fmt::Display for PackageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PackageError::Malformed(e) => write!(f, "malformed fragment: {e}"),
            PackageError::BadPrePrepareSig(s) => write!(f, "bad pre-prepare signature at {s}"),
            PackageError::BadEvidenceSig(s) => write!(f, "bad evidence signature for {s}"),
            PackageError::BadNonce(s) => write!(f, "nonce does not open commitment for {s}"),
            PackageError::RootMismatch(s) => write!(f, "M̄ mismatch at {s}"),
            PackageError::EvidenceShape(s) => write!(f, "evidence shape mismatch for {s}"),
            PackageError::BadViewChange(v) => write!(f, "bad view-change for {v}"),
        }
    }
}

impl std::error::Error for PackageError {}

/// A validated view of one batch inside a package.
#[derive(Debug, Clone)]
pub struct ValidatedBatch {
    /// Sequence number.
    pub seq: SeqNum,
    /// View.
    pub view: View,
    /// The pre-prepare.
    pub pp: PrePrepare,
    /// Digest of the pre-prepare (`H(pp_σp)`).
    pub pp_digest: Digest,
    /// Entry indices of the batch's transactions.
    pub tx_at: Vec<usize>,
    /// Replica ids that provably prepared the batch at `seq − P` (from the
    /// evidence this pre-prepare carries), i.e. the signers of that
    /// earlier batch.
    pub evidenced_signers: Vec<ReplicaId>,
}

/// One view-change set's report: `(view, senders, reported (seq, Ḡ)
/// pairs)`.
pub type ViewChangeReport = (View, Vec<ReplicaId>, Vec<(SeqNum, Digest)>);

/// The result of validating a package: per-batch views plus the
/// view-change sets found, for the Lemma 5 case analysis.
#[derive(Debug, Clone, Default)]
pub struct ValidatedPackage {
    /// Batches ascending by position in the fragment.
    pub batches: Vec<ValidatedBatch>,
    /// Per view-change set: `(view, senders, reported (seq, Ḡ) pairs)` —
    /// the prepared batches the set's members claimed (Lemma 5 needs to
    /// distinguish honest reports from omissions).
    pub view_change_reports: Vec<ViewChangeReport>,
    /// The [`ia_ccf_crypto::VerifyJob::fingerprint`] of every signature
    /// the validation proved: each pre-prepare's and each evidence
    /// prepare's, under the configuration governing its position.
    pub proved: HashSet<Digest>,
    /// Per sequence number, the position in `batches` of its latest batch.
    latest: HashMap<SeqNum, usize>,
    /// Per sequence number, the position of the first batch whose evidence
    /// names its signers.
    first_evidence: HashMap<SeqNum, usize>,
}

impl ValidatedPackage {
    /// The latest validated batch for a sequence number (re-proposals in a
    /// later view supersede earlier ones).
    pub fn batch_at(&self, seq: SeqNum) -> Option<&ValidatedBatch> {
        self.latest.get(&seq).map(|&at| &self.batches[at])
    }

    /// The replicas that provably signed (prepared) the batch at `seq`:
    /// the signers the first batch evidencing it names, falling back to the
    /// primary of the batch's own pre-prepare.
    pub fn signers_of(&self, seq: SeqNum) -> BTreeSet<ReplicaId> {
        match self.first_evidence.get(&seq) {
            Some(&at) => self.batches[at].evidenced_signers.iter().copied().collect(),
            None => self.batch_at(seq).map(|b| [b.pp.core.primary].into()).unwrap_or_default(),
        }
    }

    fn push(&mut self, batch: ValidatedBatch) {
        let at = self.batches.len();
        self.latest.insert(batch.seq, at);
        if !batch.evidenced_signers.is_empty() {
            self.first_evidence.entry(batch.pp.core.evidence_seq).or_insert(at);
        }
        self.batches.push(batch);
    }
}

/// Validate `entries` (a full ledger starting at genesis) without
/// executing transactions: grammar, signatures, nonces, root progression.
/// `config_for_seq` supplies the configuration governing each sequence
/// number (derived from the governance sub-ledger).
///
/// The pre-prepare and evidence-prepare signatures go on one
/// [`SigQueue`], checked inline a window of [`ia_ccf_crypto::SIG_CHUNK`]
/// at a time by one combined equation. The verdict is still the first
/// failing check in ledger order: a structural refusal is reported only
/// once every signature queued before it has passed.
pub fn validate_package(
    entries: &[LedgerEntry],
    config_for_seq: &dyn Fn(SeqNum) -> Configuration,
) -> Result<ValidatedPackage, PackageError> {
    let mut pending = SigQueue::new(None, HashSet::new());
    match walk(entries, config_for_seq, &mut pending) {
        Ok(mut out) => {
            pending.flush()?;
            out.proved = pending.into_proved();
            Ok(out)
        }
        Err(why) => Err(pending.flush().err().unwrap_or(why)),
    }
}

/// [`validate_package`]'s walk, with every signature check queued on
/// `pending` rather than run.
fn walk(
    entries: &[LedgerEntry],
    config_for_seq: &dyn Fn(SeqNum) -> Configuration,
    pending: &mut SigQueue<'_, PackageError>,
) -> Result<ValidatedPackage, PackageError> {
    let segments =
        segment_entries(entries, 0).map_err(|e| PackageError::Malformed(e.to_string()))?;
    let mut out = ValidatedPackage::default();
    let mut tree = MerkleTree::new();

    for seg in &segments {
        match seg {
            Segment::Genesis { at } => {
                tree.append(entries[*at].m_leaf());
            }
            Segment::ViewChange { set_at, nv_at, view } => {
                let (LedgerEntry::ViewChangeSet { view_changes, .. }, LedgerEntry::NewView(nv)) =
                    (&entries[*set_at], &entries[*nv_at])
                else {
                    unreachable!("segmenter guarantees");
                };
                // The pair sits where the next batch would: it is held to
                // the replicas' own rule under the configuration governing
                // that position, not a later one that may have dropped a
                // sender — plus `M̄′` over the tree this walk has built.
                let position = out.batches.last().map_or(SeqNum(1), |b| b.seq.next());
                let config = config_for_seq(position);
                let facts = check_new_view(&config, nv, view_changes)
                    .map_err(|_| PackageError::BadViewChange(*view))?;
                tree.append(entries[*set_at].m_leaf());
                if nv.root_m != tree.root() {
                    return Err(PackageError::BadViewChange(*view));
                }
                tree.append(entries[*nv_at].m_leaf());
                out.view_change_reports.push((*view, facts.senders, facts.reported));
            }
            Segment::Batch { evidence_at, nonces_at, pp_at, tx_at, seq, view } => {
                let LedgerEntry::PrePrepare(pp) = &entries[*pp_at] else {
                    unreachable!("segmenter guarantees");
                };
                let config = config_for_seq(*seq);

                // Evidence first (it precedes the pp in the ledger and in
                // M): the replicas' own rule — carrier clause, the
                // certificate the pair encodes over the evidenced
                // pre-prepare, Alg. 3's shape — then the prepare signatures,
                // the one part a replica checks as the messages arrive. The
                // evidenced pre-prepare's own signature was queued at its
                // segment.
                let p = config.pipeline_depth as u64;
                let target = evidence_target(&pp.core, p)
                    .map_err(|why| evidence_refusal(*seq, why))?;
                let mut evidenced_signers = Vec::new();
                if let (Some(ev_at), Some(no_at)) = (evidence_at, nonces_at) {
                    let (
                        LedgerEntry::Evidence { prepares, .. },
                        LedgerEntry::Nonces { nonces, .. },
                    ) = (&entries[*ev_at], &entries[*no_at])
                    else {
                        unreachable!("segmenter guarantees");
                    };
                    let ev_seq = pp.core.evidence_seq;
                    let Some(evidenced) = target.and_then(|t| out.batch_at(t)) else {
                        return Err(PackageError::EvidenceShape(ev_seq));
                    };
                    let ev_config = config_for_seq(ev_seq);
                    let cert = BatchCertificate::from_evidence(
                        &ev_config,
                        &evidenced.pp,
                        pp.core.evidence_bitmap,
                        prepares,
                        nonces,
                    )
                    .and_then(|cert| {
                        cert.check_shape(&ev_config)?;
                        Ok(cert)
                    })
                    .map_err(|why| evidence_refusal(ev_seq, why))?;
                    let checks = cert
                        .prepare_checks(&ev_config, &evidenced.pp_digest)
                        .map_err(|why| evidence_refusal(ev_seq, why.into()))?;
                    for check in checks {
                        pending.push(check.job, PackageError::BadEvidenceSig(ev_seq))?;
                    }
                    evidenced_signers = cert.signer_ids(&ev_config);
                    tree.append(entries[*ev_at].m_leaf());
                    tree.append(entries[*no_at].m_leaf());
                }

                // M̄ commits the ledger up to here (§3.1).
                if pp.core.root_m != tree.root() {
                    return Err(PackageError::RootMismatch(*seq));
                }
                // The primary's signature: the replicas' own rule.
                let unsigned = PackageError::BadPrePrepareSig(*seq);
                let job = view_primary_job(&config, pp).ok_or(unsigned.clone())?;
                pending.push(job, unsigned)?;
                // Ḡ over the recorded ⟨t, i, o⟩ entries.
                let mut g = MerkleTree::new();
                for &ti in tx_at {
                    let LedgerEntry::Tx(tx) = &entries[ti] else {
                        unreachable!("segmenter guarantees");
                    };
                    g.append(tx.g_leaf());
                }
                if g.root() != pp.root_g {
                    return Err(PackageError::RootMismatch(*seq));
                }

                tree.append(entries[*pp_at].m_leaf());
                out.push(ValidatedBatch {
                    seq: *seq,
                    view: *view,
                    pp: pp.clone(),
                    pp_digest: ia_ccf_crypto::hash_bytes(&pp.to_bytes()),
                    tx_at: tx_at.clone(),
                    evidenced_signers,
                });
            }
        }
    }
    Ok(out)
}

/// A refusal of the replicas' evidence rule, in this module's terms.
fn evidence_refusal(seq: SeqNum, why: EvidenceError) -> PackageError {
    match why {
        EvidenceError::Nonce(_) | EvidenceError::Certificate(ReceiptError::BadPrimaryNonce) => {
            PackageError::BadNonce(seq)
        }
        EvidenceError::Certificate(ReceiptError::BadPrepareSig(_)) => {
            PackageError::BadEvidenceSig(seq)
        }
        _ => PackageError::EvidenceShape(seq),
    }
}
