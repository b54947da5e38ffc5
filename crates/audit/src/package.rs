//! Ledger packages and well-formedness (§B.1.1).
//!
//! A ledger package is what a replica hands the enforcer for an audit: a
//! ledger fragment `F`, the checkpoint `cp` the fragment starts from, and
//! the governance sub-ledger `N`. *Well-formedness* is checked without
//! re-executing transactions: the structural grammar (shared with
//! `ia-ccf-ledger`), every pre-prepare/prepare signature, every revealed
//! nonce against its commitment, the `M̄` root progression, and each
//! batch's recorded evidence and `⟨t, i, o⟩` run under the rules replay
//! applies ([`ia_ccf_ledger::validity::recorded_evidence`] and
//! [`ia_ccf_ledger::validity::recorded_run`]). A fragment that fails any of
//! these incriminates the replica that served it; one that passes but
//! replays incorrectly incriminates its signers (§4.1).

use std::collections::{BTreeSet, HashMap, HashSet};

use ia_ccf_crypto::SigQueue;
use ia_ccf_kv::KvCheckpoint;
use ia_ccf_ledger::segment::{segment_entries, BatchSegment, Segment, TxRun};
use ia_ccf_ledger::validity::{
    check_new_view, recorded_evidence, recorded_run, view_primary_job, Evidenced,
};
use ia_ccf_merkle::Frontier;
use ia_ccf_types::{
    Configuration, Digest, EvidenceError, LedgerEntry, PrePrepare, ReceiptError, ReplicaId,
    SeqNum, View, Wire,
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

/// A validated view of one batch inside a package, borrowed from its
/// entries.
#[derive(Debug, Clone)]
pub struct ValidatedBatch<'a> {
    /// Sequence number.
    pub seq: SeqNum,
    /// The pre-prepare (its view is the batch's).
    pub pp: &'a PrePrepare,
    /// Digest of the pre-prepare (`H(pp_σp)`).
    pub pp_digest: Digest,
    /// The batch's `⟨t, i, o⟩` entries.
    pub txs: TxRun<'a>,
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
pub struct ValidatedPackage<'a> {
    /// Batches ascending by position in the fragment.
    pub batches: Vec<ValidatedBatch<'a>>,
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

impl<'a> ValidatedPackage<'a> {
    /// The latest validated batch for a sequence number (re-proposals in a
    /// later view supersede earlier ones).
    pub fn batch_at(&self, seq: SeqNum) -> Option<&ValidatedBatch<'a>> {
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

    fn push(&mut self, batch: ValidatedBatch<'a>) {
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
pub fn validate_package<'a, 'c>(
    entries: &'a [LedgerEntry],
    config_for_seq: &dyn Fn(SeqNum) -> &'c Configuration,
) -> Result<ValidatedPackage<'a>, PackageError> {
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
fn walk<'a, 'c>(
    entries: &'a [LedgerEntry],
    config_for_seq: &dyn Fn(SeqNum) -> &'c Configuration,
    pending: &mut SigQueue<'_, PackageError>,
) -> Result<ValidatedPackage<'a>, PackageError> {
    let segments =
        segment_entries(entries, 0).map_err(|e| PackageError::Malformed(e.to_string()))?;
    let mut out = ValidatedPackage::default();
    // `M` as the replicas hold it: a frontier, appended to and read at its
    // root.
    let mut tree = Frontier::new();

    for seg in segments {
        match seg {
            Segment::Genesis(entry) => {
                tree.append(entry.m_leaf());
            }
            Segment::ViewChange { view_changes, nv, entries: [set_entry, nv_entry] } => {
                // The pair sits where the next batch would: it is held to
                // the replicas' own rule under the configuration governing
                // that position, not a later one that may have dropped a
                // sender — plus `M̄′` over the tree this walk has built.
                let position = out.batches.last().map_or(SeqNum(1), |b| b.seq.next());
                let config = config_for_seq(position);
                let facts = check_new_view(config, nv, view_changes)
                    .map_err(|_| PackageError::BadViewChange(nv.view))?;
                tree.append(set_entry.m_leaf());
                if nv.root_m != tree.root() {
                    return Err(PackageError::BadViewChange(nv.view));
                }
                tree.append(nv_entry.m_leaf());
                out.view_change_reports.push((nv.view, facts.senders, facts.reported));
            }
            Segment::Batch(BatchSegment { evidence, pp, pp_entry, txs }) => {
                let seq = pp.seq();
                let config = config_for_seq(seq);

                // Evidence first (it precedes the pp in the ledger and in
                // M): the replicas' own rule, then the prepare signatures,
                // the one part a replica checks as the messages arrive. The
                // evidenced pre-prepare's own signature was queued at its
                // segment.
                let mut ev_digest = Digest::zero();
                let held = |t| out.batch_at(t).inspect(|b| ev_digest = b.pp_digest).map(|b| b.pp);
                let mut evidenced_signers = Vec::new();
                match recorded_evidence(pp, evidence, config_for_seq, held) {
                    Err((at, why)) => return Err(evidence_refusal(at, why)),
                    Ok(Evidenced::Unheld(at)) => return Err(PackageError::EvidenceShape(at)),
                    Ok(Evidenced::Nothing) => {}
                    Ok(Evidenced::Certified(cert)) => {
                        let (ev_seq, ev_config) = (cert.core.seq, config_for_seq(cert.core.seq));
                        let checks = cert
                            .prepare_checks(ev_config, &ev_digest)
                            .map_err(|why| evidence_refusal(ev_seq, why.into()))?;
                        for check in checks {
                            pending.push(check.job, PackageError::BadEvidenceSig(ev_seq))?;
                        }
                        evidenced_signers = cert.signer_ids(ev_config);
                    }
                }
                for entry in evidence.iter().flat_map(|pair| pair.entries) {
                    tree.append(entry.m_leaf());
                }

                // M̄ commits the ledger up to here (§3.1).
                if pp.core.root_m != tree.root() {
                    return Err(PackageError::RootMismatch(seq));
                }
                // The primary's signature: the replicas' own rule.
                let unsigned = PackageError::BadPrePrepareSig(seq);
                let job = view_primary_job(config, pp).ok_or(unsigned.clone())?;
                pending.push(job, unsigned)?;
                // The recorded ⟨t, i, o⟩ run against Ḡ: the rule replay
                // applies. Who executed it wrongly is the replay's question.
                recorded_run(pp, txs).ok_or(PackageError::RootMismatch(seq))?;

                tree.append(pp_entry.m_leaf());
                out.push(ValidatedBatch {
                    seq,
                    pp,
                    pp_digest: ia_ccf_crypto::hash_bytes(&pp.to_bytes()),
                    txs,
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
