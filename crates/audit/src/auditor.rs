//! The auditor — Alg. 4.
//!
//! Input: a set of receipts (with their requests) that a client believes
//! inconsistent, the supporting governance chain, and a source of ledger
//! packages (via the enforcer). Output: [`AuditOutcome::Clean`], or a
//! [`Upom`] blaming at least `f + 1` replicas:
//!
//! 1. **auditReceipts** — verify every receipt cryptographically and check
//!    each request's `min_index` was honoured (real-time ordering, Thm. 2).
//!    Receipts of one batch share a certificate, so each audit keeps a
//!    [`VerifiedCerts`] memo for its own duration: a certificate's
//!    signatures are checked once, every further receipt of the batch
//!    costs its Merkle path. The memo is built per [`Auditor::audit`] call
//!    and dropped on return — audits stay independent of each other — and
//!    starts with the certificates step 2 proved for the receipts'
//!    batches, so step 2 runs first; its verdict is still reported second;
//! 2. **getCheckpointAndLedger** — obtain a well-formed package spanning
//!    the receipts (a malformed one incriminates its server; checkpoint
//!    digests must match the receipts' `d_C`);
//! 3. **verifyReceiptsInLedger** — a receipt whose batch is missing or
//!    different convicts the intersection of its signers with the ledger's
//!    signers or with a view-change quorum (Lemma 5's three cases);
//! 4. **replayLedger** — re-execute every transaction from the checkpoint;
//!    any divergence convicts the signers of the containing batch (§4.1:
//!    "N − f or more replicas may have misbehaved, so it is necessary to
//!    replay").

use std::collections::BTreeSet;
use std::sync::Arc;

use ia_ccf_core::app::App;
use ia_ccf_core::checkpoint::receipt_checkpoint_seq;
use ia_ccf_core::execute::{execute_tx, Effect, Executed, MarkCheck};
use ia_ccf_governance::chain::{ConfigHistory, GovernanceChain};
use ia_ccf_governance::fork::find_fork;
use ia_ccf_governance::{GovOutcome, GovernanceState};
use ia_ccf_kv::KvStore;
use ia_ccf_types::{
    Configuration, Digest, LedgerEntry, Receipt, ReplicaId, SeqNum, SignedRequest, VerifiedCerts,
};

use crate::package::{validate_package, LedgerPackage, PackageError, ValidatedPackage};

/// Certificates one audit remembers as verified. Stored receipts come
/// grouped by batch (clients complete a batch's requests together), so a
/// window of recent batches is all a hit needs.
const VERIFIED_CERTS_CAPACITY: usize = 256;

/// A receipt together with the request it certifies — what clients store
/// "to resolve future disputes" (§3.3).
#[derive(Debug, Clone)]
pub struct StoredReceipt {
    /// The signed request `t`.
    pub request: SignedRequest,
    /// The receipt for `⟨t, i, o⟩`.
    pub receipt: Receipt,
}

/// Why the uPoM blames its replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpomKind {
    /// A receipt failed cryptographic verification.
    InvalidReceipt,
    /// A receipt's request was ordered below its `min_index` (real-time
    /// ordering violation, Thm. 2).
    MinIndexViolation,
    /// The package server produced a malformed fragment (or none at all).
    BadPackage,
    /// The checkpoint does not match the receipt's `d_C`.
    BadCheckpoint,
    /// Lemma 5 case (i): same view, different batch — signers of both the
    /// receipt and the ledger's evidence are blamed.
    ReceiptContradictsLedger,
    /// Lemma 5 cases (ii)/(iii): a view-change quorum claimed not to have
    /// prepared a batch its members signed a receipt for.
    ViewChangeOmission,
    /// Replay of the ledger produced a different result (wrong execution).
    WrongExecution,
    /// Two non-equivalent P-th end-of-configuration batches (Lemma 7).
    GovernanceFork,
}

/// A universal proof-of-misbehaviour: `⟨i, F, cp, R⟩` in the paper. We
/// carry the identifying pieces; the enforcer re-derives the rest when
/// verifying.
#[derive(Debug, Clone)]
pub struct Upom {
    /// Why blame is assigned.
    pub kind: UpomKind,
    /// The blamed replicas (at least `f + 1` for quorum-certified batches).
    pub blamed: BTreeSet<ReplicaId>,
    /// The sequence number at which misbehaviour was found.
    pub at_seq: SeqNum,
    /// Human-readable details.
    pub details: String,
    /// The receipts involved.
    pub receipts: Vec<Receipt>,
}

/// The outcome of an audit.
#[derive(Debug, Clone)]
pub enum AuditOutcome {
    /// Everything consistent: the receipts are explained by the ledger.
    Clean,
    /// Misbehaviour proven.
    Violation(Box<Upom>),
}

impl AuditOutcome {
    /// The uPoM, if a violation was found.
    pub fn upom(&self) -> Option<&Upom> {
        match self {
            AuditOutcome::Clean => None,
            AuditOutcome::Violation(u) => Some(u),
        }
    }
}

/// The auditor. Anyone can run one: it needs only the genesis
/// configuration and the (deterministic) stored procedures.
pub struct Auditor {
    app: Arc<dyn App>,
    genesis: Configuration,
}

impl Auditor {
    /// An auditor for the service defined by `genesis` running `app`.
    pub fn new(genesis: Configuration, app: Arc<dyn App>) -> Self {
        Auditor { genesis, app }
    }

    /// Run an audit of `receipts` against `package` (obtained via the
    /// enforcer), using `gov_chain` to determine signing keys.
    pub fn audit(
        &self,
        receipts: &[StoredReceipt],
        gov_chain: &GovernanceChain,
        package: &LedgerPackage,
    ) -> AuditOutcome {
        // Governance first: the chain determines every configuration.
        let history = match gov_chain.verify(&self.genesis) {
            Ok(h) => h,
            Err(e) => {
                return violation(Upom {
                    kind: UpomKind::InvalidReceipt,
                    blamed: BTreeSet::new(),
                    at_seq: SeqNum(0),
                    details: format!("governance chain invalid: {e}"),
                    receipts: vec![],
                })
            }
        };

        // Governance forks among the supplied boundary receipts (Lemma 7).
        if let Some(upom) = self.check_governance_forks(gov_chain, &history) {
            return violation(upom);
        }

        // 2. Validate the package (well-formedness; Lemma 4). Run first so
        // that step 1 need not re-check what it proves; reported second.
        let config_for_seq = seq_config_fn(&package.entries, &history);
        let validated = validate_package(&package.entries, &config_for_seq);

        // 1. auditReceipts.
        if let Some(upom) = self.audit_receipts(receipts, &history, validated.as_ref().ok()) {
            return violation(upom);
        }

        let validated = match validated {
            Ok(v) => v,
            Err(e) => {
                return violation(Upom {
                    kind: UpomKind::BadPackage,
                    blamed: BTreeSet::new(), // blames the serving replica (enforcer knows it)
                    at_seq: package_error_seq(&e),
                    details: format!("package not well-formed: {e}"),
                    receipts: vec![],
                })
            }
        };

        // Order receipts by (seq, index, view) (§B.1.3).
        let mut ordered: Vec<&StoredReceipt> = receipts.iter().collect();
        ordered.sort_by_key(|r| {
            (r.receipt.seq(), r.receipt.tx_index().unwrap_or_default(), r.receipt.view())
        });

        // Checkpoint consistency with the earliest receipt's d_C.
        if let Some(first) = ordered.first() {
            if let Some(upom) = self.check_checkpoint(first, package, &history) {
                return violation(upom);
            }
        }

        // 3. verifyReceiptsInLedger (Lemma 5).
        for sr in &ordered {
            if let Some(upom) = self.verify_receipt_in_ledger(sr, &validated, &history) {
                return violation(upom);
            }
        }

        // 4. replayLedger (§4.1).
        if let Some(upom) = self.replay_ledger(package, &validated, &history, &ordered) {
            return violation(upom);
        }

        AuditOutcome::Clean
    }

    /// Compare two independently valid governance chains for the same
    /// service (§B.2, Lemma 7): if they seal the same configuration number
    /// with non-equivalent P-th end-of-configuration batches, the replicas
    /// that signed both boundary receipts are blamed — a **governance
    /// fork** proves misbehaving replicas rewrote or forked the ledger.
    pub fn check_fork_between_chains(
        &self,
        chain_a: &GovernanceChain,
        chain_b: &GovernanceChain,
    ) -> Result<Option<Upom>, String> {
        use ia_ccf_governance::chain::GovLink;
        let history_a =
            chain_a.verify(&self.genesis).map_err(|e| format!("chain A invalid: {e}"))?;
        let _history_b =
            chain_b.verify(&self.genesis).map_err(|e| format!("chain B invalid: {e}"))?;
        let boundaries = |c: &GovernanceChain| -> Vec<Receipt> {
            c.links
                .iter()
                .filter_map(|l| match l {
                    GovLink::Boundary { receipt } => Some(receipt.clone()),
                    _ => None,
                })
                .collect()
        };
        for (i, a) in boundaries(chain_a).iter().enumerate() {
            for (j, b) in boundaries(chain_b).iter().enumerate() {
                if i != j {
                    continue; // same configuration number = same position
                }
                if let Some(fork) = find_fork(a, b) {
                    // Both certificates are from the same preceding
                    // configuration: resolve ranks under it.
                    let config = history_a.config_for_gov_index(a.gov_index());
                    return Ok(Some(Upom {
                        kind: UpomKind::GovernanceFork,
                        blamed: fork.blamed_ids(config).into_iter().collect(),
                        at_seq: a.seq(),
                        details: format!(
                            "two valid governance chains seal configuration step {} differently",
                            i + 1
                        ),
                        receipts: vec![a.clone(), b.clone()],
                    }));
                }
            }
        }
        Ok(None)
    }

    // ------------------------------------------------------------------

    /// Step 1. `proved` is the package, when it is well-formed: the
    /// certificates it proved for a receipt's batch go into the memo first,
    /// so a receipt carrying one byte for byte under the same keys is not
    /// signature-checked again.
    fn audit_receipts(
        &self,
        receipts: &[StoredReceipt],
        history: &ConfigHistory,
        proved: Option<&ValidatedPackage>,
    ) -> Option<Upom> {
        // Local to this audit: repeated audits share nothing.
        let mut verified_certs = VerifiedCerts::new(VERIFIED_CERTS_CAPACITY);
        for sr in receipts {
            for entry in proved.into_iter().flat_map(|v| v.proved_at(sr.receipt.seq())) {
                verified_certs.insert_verified(entry);
            }
            let config = history.config_for_gov_index(sr.receipt.gov_index());
            if let Err(e) = sr.receipt.verify_with(config, &mut verified_certs) {
                return Some(Upom {
                    kind: UpomKind::InvalidReceipt,
                    blamed: BTreeSet::new(),
                    at_seq: sr.receipt.seq(),
                    details: format!("receipt failed verification: {e}"),
                    receipts: vec![sr.receipt.clone()],
                });
            }
            // Witness must certify the request it is stored with.
            let Some(index) = sr.receipt.tx_index() else { continue };
            let matches = match &sr.receipt.body {
                ia_ccf_types::ReceiptBody::Tx(w) => w.tx_hash == sr.request.digest(),
                _ => true,
            };
            if !matches {
                return Some(Upom {
                    kind: UpomKind::InvalidReceipt,
                    blamed: BTreeSet::new(),
                    at_seq: sr.receipt.seq(),
                    details: "receipt does not certify the stored request".into(),
                    receipts: vec![sr.receipt.clone()],
                });
            }
            // Thm. 2: `i ≥ mi` or every signer is blamed.
            if index < sr.request.request.min_index {
                let config = history.config_for_gov_index(sr.receipt.gov_index());
                return Some(Upom {
                    kind: UpomKind::MinIndexViolation,
                    blamed: sr.receipt.cert.signer_ids(config).into_iter().collect(),
                    at_seq: sr.receipt.seq(),
                    details: format!(
                        "request with min_index {} executed at {} — real-time ordering violated",
                        sr.request.request.min_index, index
                    ),
                    receipts: vec![sr.receipt.clone()],
                });
            }
        }
        None
    }

    fn check_governance_forks(
        &self,
        chain: &GovernanceChain,
        history: &ConfigHistory,
    ) -> Option<Upom> {
        use ia_ccf_governance::chain::GovLink;
        let boundaries: Vec<&Receipt> = chain
            .links
            .iter()
            .filter_map(|l| match l {
                GovLink::Boundary { receipt } => Some(receipt),
                _ => None,
            })
            .collect();
        for (i, a) in boundaries.iter().enumerate() {
            for b in &boundaries[i + 1..] {
                // Same preceding configuration ⇒ same gov_index.
                if a.gov_index() != b.gov_index() {
                    continue;
                }
                if let Some(fork) = find_fork(a, b) {
                    let config = history.config_for_gov_index(a.gov_index());
                    return Some(Upom {
                        kind: UpomKind::GovernanceFork,
                        blamed: fork.blamed_ids(config).into_iter().collect(),
                        at_seq: a.seq(),
                        details: "two non-equivalent P-th end-of-configuration batches".into(),
                        receipts: vec![(*a).clone(), (*b).clone()],
                    });
                }
            }
        }
        None
    }

    fn check_checkpoint(
        &self,
        first: &StoredReceipt,
        package: &LedgerPackage,
        history: &ConfigHistory,
    ) -> Option<Upom> {
        let d_c = first.receipt.checkpoint_digest();
        if d_c.is_zero() {
            return None; // audit runs from genesis
        }
        let config = history.config_for_gov_index(first.receipt.gov_index());
        let interval = config.checkpoint_interval;
        let scp = receipt_checkpoint_seq(first.receipt.seq(), interval);
        let Some((checkpoint_seq, cp)) = &package.checkpoint else {
            return Some(Upom {
                kind: UpomKind::BadCheckpoint,
                blamed: BTreeSet::new(),
                at_seq: scp,
                details: "package missing required checkpoint".into(),
                receipts: vec![first.receipt.clone()],
            });
        };
        if *checkpoint_seq != scp || cp.digest() != d_c || !cp.verify_integrity() {
            return Some(Upom {
                kind: UpomKind::BadCheckpoint,
                blamed: first.receipt.cert.signer_ids(config).into_iter().collect(),
                at_seq: scp,
                details: format!(
                    "checkpoint at {checkpoint_seq} (digest {}) does not match receipt d_C {}",
                    cp.digest().short_hex(),
                    d_c.short_hex()
                ),
                receipts: vec![first.receipt.clone()],
            });
        }
        None
    }

    /// Lemma 5: compare a receipt with the ledger's batch at its sequence
    /// number.
    fn verify_receipt_in_ledger(
        &self,
        sr: &StoredReceipt,
        validated: &ValidatedPackage,
        history: &ConfigHistory,
    ) -> Option<Upom> {
        let receipt = &sr.receipt;
        let config = history.config_for_gov_index(receipt.gov_index());
        let receipt_signers: BTreeSet<ReplicaId> =
            receipt.cert.signer_ids(config).into_iter().collect();
        let v_r = receipt.view();
        let s_r = receipt.seq();

        // Reconstruct H(pp) from the receipt (verified earlier, so this
        // succeeds).
        let root_g = receipt.implied_root_g().ok()?;
        let receipt_pp_digest = ia_ccf_types::PrePrepare::digest_from_parts(
            &receipt.cert.core,
            &root_g,
            &receipt.cert.primary_sig,
        );

        match validated.batch_at(s_r) {
            Some(batch) if batch.pp_digest == receipt_pp_digest => None, // identical batch
            // An honest view change re-proposes the *same content* in a
            // later view: the pre-prepare differs but `Ḡ` (hence every
            // ⟨t, i, o⟩) is identical — the receipt matches the batch
            // (Alg. 4's isReceiptInBatch is content-based).
            Some(batch) if batch.pp.root_g == root_g => None,
            Some(batch) => {
                let v_l = batch.view;
                if v_l == v_r {
                    // Case (i): same view, contradictory batches. Blame the
                    // intersection of the receipt's signers and the
                    // replicas evidenced to have prepared the ledger's
                    // batch.
                    let ledger_signers = self.signers_of(validated, s_r);
                    let blamed: BTreeSet<ReplicaId> =
                        receipt_signers.intersection(&ledger_signers).copied().collect();
                    Some(Upom {
                        kind: UpomKind::ReceiptContradictsLedger,
                        blamed: if blamed.is_empty() { receipt_signers } else { blamed },
                        at_seq: s_r,
                        details: format!("receipt and ledger disagree at {s_r} in {v_r}"),
                        receipts: vec![receipt.clone()],
                    })
                } else {
                    // Cases (ii)/(iii): the batch content changed across a
                    // view change. A *correct* view-change participant that
                    // prepared the receipt's batch reports its pre-prepare
                    // in its view-change message; a set whose members
                    // signed the receipt but omitted the batch is the
                    // contradiction (Lemma 5). Blame receipt-signers ∩
                    // omitting-view-change senders.
                    let (lo, hi) =
                        if v_l > v_r { (v_r, v_l) } else { (v_l, v_r) };
                    for (view, senders, reported) in &validated.view_change_reports {
                        if *view > lo && *view <= hi.next() {
                            // Did this set report the receipt's batch?
                            let reported_it = reported
                                .iter()
                                .any(|(seq, g)| *seq == s_r && *g == root_g);
                            if reported_it {
                                continue; // honest report; not evidence
                            }
                            let vc_set: BTreeSet<ReplicaId> = senders.iter().copied().collect();
                            let blamed: BTreeSet<ReplicaId> =
                                receipt_signers.intersection(&vc_set).copied().collect();
                            if !blamed.is_empty() {
                                return Some(Upom {
                                    kind: UpomKind::ViewChangeOmission,
                                    blamed,
                                    at_seq: s_r,
                                    details: format!(
                                        "view-change to {view} omitted batch {s_r} certified in {v_r}"
                                    ),
                                    receipts: vec![receipt.clone()],
                                });
                            }
                        }
                    }
                    Some(Upom {
                        kind: UpomKind::ViewChangeOmission,
                        blamed: receipt_signers,
                        at_seq: s_r,
                        details: format!("no view-change justifies replacing batch {s_r}"),
                        receipts: vec![receipt.clone()],
                    })
                }
            }
            None => {
                // Fragment too short for a valid receipt: view-change
                // misbehaviour (Lemma 4's tail case).
                Some(Upom {
                    kind: UpomKind::ViewChangeOmission,
                    blamed: receipt_signers,
                    at_seq: s_r,
                    details: format!("ledger has no batch at {s_r} despite a valid receipt"),
                    receipts: vec![receipt.clone()],
                })
            }
        }
    }

    /// The replicas that provably signed (prepared) the batch at `seq`:
    /// from the evidence carried by the batch at `seq + P`, falling back to
    /// the batch's own pre-prepare signer set.
    fn signers_of(&self, validated: &ValidatedPackage, seq: SeqNum) -> BTreeSet<ReplicaId> {
        for b in &validated.batches {
            if b.pp.core.evidence_seq == seq && !b.evidenced_signers.is_empty() {
                return b.evidenced_signers.iter().copied().collect();
            }
        }
        validated
            .batch_at(seq)
            .map(|b| [b.pp.core.primary].into_iter().collect())
            .unwrap_or_default()
    }

    /// Replay every transaction from the checkpoint (or genesis), checking
    /// results, write sets, checkpoint digests and governance outcomes.
    fn replay_ledger(
        &self,
        package: &LedgerPackage,
        validated: &ValidatedPackage,
        history: &ConfigHistory,
        receipts: &[&StoredReceipt],
    ) -> Option<Upom> {
        let mut kv = KvStore::new();
        let mut next_tx_index: u64 = 1;
        let mut start_seq = SeqNum(0);
        if let Some((checkpoint_seq, cp)) = &package.checkpoint {
            kv.restore(cp);
            start_seq = *checkpoint_seq;
        }
        let mut gov = GovernanceState::new(self.genesis.clone());
        let mut cp_digests: Vec<(SeqNum, Digest)> =
            vec![(SeqNum(0), KvStore::new().digest())];
        // Before the replay window only governance state is carried
        // forward (governance transactions are rare, §6.4): the rule runs
        // against a scratch store, so nothing pre-window reaches `kv`.
        let mut scratch = KvStore::new();

        for batch in &validated.batches {
            let replaying = batch.seq > start_seq;
            for &ti in &batch.tx_at {
                let LedgerEntry::Tx(recorded) = &package.entries[ti] else { unreachable!() };
                if !replaying {
                    // Resume the tx-index counter from the recorded entries
                    // (their positions were validated structurally).
                    next_tx_index = recorded.index.0 + 1;
                    if recorded.request.is_governance() && recorded.result.ok {
                        let tx = &recorded.request;
                        let warmed = execute_tx(&*self.app, &mut gov, &mut scratch, tx, |_| None);
                        if let Effect::Governance(GovOutcome::ReferendumPassed(cfg)) = warmed.effect
                        {
                            gov.activate(*cfg);
                        }
                    }
                    continue;
                }
                let expected_index = next_tx_index;
                next_tx_index += 1;
                let mismatch = |details: String| {
                    Some(self.wrong_execution(validated, history, receipts, batch.seq, details))
                };
                if recorded.index.0 != expected_index {
                    return mismatch(format!(
                        "transaction at ledger index {} recorded as {}",
                        expected_index, recorded.index
                    ));
                }
                // Re-execute with the rule the replicas ran.
                let Executed { result, effect } =
                    execute_tx(&*self.app, &mut gov, &mut kv, &recorded.request, |seq| {
                        cp_digests.iter().find(|(s, _)| *s == seq).map(|(_, d)| *d)
                    });
                match effect {
                    // The auditor needs no reconfiguration schedule: the
                    // elected configuration simply becomes the active one.
                    Effect::Governance(GovOutcome::ReferendumPassed(cfg)) => gov.activate(*cfg),
                    Effect::Mark(MarkCheck::Differs) => {
                        return mismatch(format!(
                            "checkpoint digest mismatch in the mark at index {}",
                            recorded.index
                        ));
                    }
                    // `Unknown` is a mark outside our replay horizon: trust
                    // the signed agreement (backups verified it in-band).
                    _ => {}
                }
                if result.ok != recorded.result.ok || result.output != recorded.result.output {
                    return mismatch(format!("result mismatch at index {}", recorded.index));
                }
                if result.write_set_digest != recorded.result.write_set_digest {
                    return mismatch(format!("write-set mismatch at index {}", recorded.index));
                }
            }
            // Checkpoint bookkeeping while replaying.
            if replaying {
                let config = history.config_for_gov_index(batch.pp.core.gov_index);
                if batch.seq.0 % config.checkpoint_interval == 0 {
                    cp_digests.push((batch.seq, kv.digest()));
                }
            }
        }
        None
    }

    fn wrong_execution(
        &self,
        validated: &ValidatedPackage,
        history: &ConfigHistory,
        receipts: &[&StoredReceipt],
        seq: SeqNum,
        details: String,
    ) -> Upom {
        // Blame everyone who provably signed the faulty batch: the
        // replicas evidenced in the ledger, the primary, and the signers
        // of any receipt the auditor holds for that batch (§4.1: "assign
        // blame to any replica that signed the batch that contains the
        // transaction").
        let mut blamed = self.signers_of(validated, seq);
        if let Some(b) = validated.batch_at(seq) {
            blamed.insert(b.pp.core.primary);
        }
        let mut evidence_receipts = Vec::new();
        for sr in receipts {
            if sr.receipt.seq() == seq {
                let config = history.config_for_gov_index(sr.receipt.gov_index());
                blamed.extend(sr.receipt.cert.signer_ids(config));
                evidence_receipts.push(sr.receipt.clone());
            }
        }
        Upom {
            kind: UpomKind::WrongExecution,
            blamed,
            at_seq: seq,
            details,
            receipts: evidence_receipts,
        }
    }
}

fn violation(upom: Upom) -> AuditOutcome {
    AuditOutcome::Violation(Box::new(upom))
}

/// Derive the configuration per sequence number from the package itself:
/// configuration boundaries are visible as end-of-configuration batches.
fn seq_config_fn<'a>(
    entries: &'a [LedgerEntry],
    history: &'a ConfigHistory,
) -> impl Fn(SeqNum) -> Configuration + 'a {
    // Build (first_seq, config) steps: a new configuration governs from
    // the sequence number after the 2P-th end-of-config batch.
    let mut steps: Vec<(SeqNum, Configuration)> = vec![(SeqNum(0), history.steps[0].1.clone())];
    let mut next_cfg = 1usize;
    for e in entries {
        if let LedgerEntry::PrePrepare(pp) = e {
            if let ia_ccf_types::BatchKind::EndOfConfig { phase } = pp.core.kind {
                let config = &steps.last().expect("non-empty").1;
                if phase == 2 * config.pipeline_depth && next_cfg < history.steps.len() {
                    steps.push((pp.seq().next(), history.steps[next_cfg].1.clone()));
                    next_cfg += 1;
                }
            }
        }
    }
    move |seq: SeqNum| {
        let mut chosen = &steps[0].1;
        for (first, cfg) in &steps {
            if *first <= seq {
                chosen = cfg;
            }
        }
        chosen.clone()
    }
}

fn package_error_seq(e: &PackageError) -> SeqNum {
    match e {
        PackageError::BadPrePrepareSig(s)
        | PackageError::BadEvidenceSig(s)
        | PackageError::BadNonce(s)
        | PackageError::RootMismatch(s)
        | PackageError::EvidenceShape(s) => *s,
        PackageError::Malformed(_) | PackageError::BadViewChange(_) => SeqNum(0),
    }
}
