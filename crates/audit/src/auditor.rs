//! The auditor — Alg. 4.
//!
//! Input: a set of receipts (with their requests) that a client believes
//! inconsistent, the supporting governance chain, and a source of ledger
//! packages (via the enforcer). Output: [`AuditOutcome::Clean`], or a
//! [`Upom`] blaming at least `f + 1` replicas:
//!
//! 1. **auditReceipts** — verify every receipt cryptographically and check
//!    each request's `min_index` was honoured (real-time ordering, Thm. 2).
//!    Alg. 3's structural part runs on the spot. Its signature checks go
//!    on the queue the package's validation uses ([`SigQueue`],
//!    [`SIG_CHUNK`](ia_ccf_crypto::SIG_CHUNK) per combined equation), and
//!    a check the package proved (same key, signature and bytes) is not
//!    run again; so step 2 runs first, and its verdict is
//!    still reported second. A receipt with the previous receipt's
//!    certificate and `Ḡ` (receipts of a batch arrive together) adds no
//!    check. The verdict is the one-at-a-time rule's: the first failing
//!    receipt in input order, a structural refusal reported only once
//!    every signature queued before it has passed;
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

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use ia_ccf_core::app::App;
use ia_ccf_core::execute::{execute_tx, Effect, Executed, MarkCheck};
use ia_ccf_crypto::SigQueue;
use ia_ccf_governance::chain::{ConfigHistory, GovLink, GovernanceChain};
use ia_ccf_governance::fork::find_fork;
use ia_ccf_governance::{GovOutcome, GovernanceState};
use ia_ccf_kv::KvStore;
use ia_ccf_types::{
    receipt_checkpoint_seq, BatchCertificate, Configuration, Digest, LedgerEntry, Receipt,
    ReceiptError, ReplicaId, SeqNum, SignedRequest,
};

use crate::package::{validate_package, LedgerPackage, PackageError, ValidatedPackage};

/// The auditor's receipt queue, checked inline: a failure names the
/// receipt's position.
type ReceiptSigs = SigQueue<'static, (usize, ReceiptError)>;

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
        let mut validated = validate_package(&package.entries, &config_for_seq);

        // 1. auditReceipts. Step 1 is the last reader of the proved set.
        let proved =
            validated.as_mut().map(|v| std::mem::take(&mut v.proved)).unwrap_or_default();
        if let Some(upom) = self.audit_receipts(receipts, &history, proved) {
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

    /// The configuration that governs `seq`, as an audit of `package` under
    /// `gov_chain` derives it (the package's end-of-configuration batches).
    pub(crate) fn config_at(
        &self,
        gov_chain: &GovernanceChain,
        package: &LedgerPackage,
        seq: SeqNum,
    ) -> Result<Configuration, String> {
        let history =
            gov_chain.verify(&self.genesis).map_err(|e| format!("governance chain invalid: {e}"))?;
        let config_for_seq = seq_config_fn(&package.entries, &history);
        Ok(config_for_seq(seq))
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
        let history_a = chain_a.verify(&self.genesis).map_err(|e| format!("chain A invalid: {e}"))?;
        chain_b.verify(&self.genesis).map_err(|e| format!("chain B invalid: {e}"))?;
        // The same configuration number is the same position.
        let mut pairs = boundaries(chain_a).into_iter().zip(boundaries(chain_b)).enumerate();
        Ok(pairs.find_map(|(i, (a, b))| {
            let details =
                format!("two valid governance chains seal configuration step {} differently", i + 1);
            governance_fork(a, b, &history_a, details)
        }))
    }

    // ------------------------------------------------------------------

    /// Step 1. `proved` holds the fingerprints of the signatures the
    /// package proved (empty when it is not well-formed): a receipt's check
    /// among them is not run again.
    fn audit_receipts(
        &self,
        receipts: &[StoredReceipt],
        history: &ConfigHistory,
        proved: HashSet<Digest>,
    ) -> Option<Upom> {
        let mut pending = ReceiptSigs::new(None, proved);
        let refused = queue_receipts(receipts, history, &mut pending).err();
        // A structural refusal ranks after every signature queued before it.
        match pending.flush() {
            Err((at, why)) => Some(invalid_receipt(&receipts[at].receipt, &why)),
            Ok(()) => refused,
        }
    }

    fn check_governance_forks(
        &self,
        chain: &GovernanceChain,
        history: &ConfigHistory,
    ) -> Option<Upom> {
        let boundaries = boundaries(chain);
        boundaries.iter().enumerate().find_map(|(i, a)| {
            // Same preceding configuration ⇒ same gov_index.
            boundaries[i + 1..].iter().filter(|b| a.gov_index() == b.gov_index()).find_map(|b| {
                let details = "two non-equivalent P-th end-of-configuration batches".into();
                governance_fork(a, b, history, details)
            })
        })
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
                    let ledger_signers = validated.signers_of(s_r);
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
        let mut blamed = validated.signers_of(seq);
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

/// The boundary receipts of `chain`, in chain order.
fn boundaries(chain: &GovernanceChain) -> Vec<&Receipt> {
    chain
        .links
        .iter()
        .filter_map(|l| match l {
            GovLink::Boundary { receipt } => Some(receipt),
            _ => None,
        })
        .collect()
}

/// The Lemma 7 uPoM when boundary receipts `a` and `b` fork: both
/// certificates are from the same preceding configuration, so ranks are
/// resolved under it.
fn governance_fork(
    a: &Receipt,
    b: &Receipt,
    history: &ConfigHistory,
    details: String,
) -> Option<Upom> {
    let fork = find_fork(a, b)?;
    let config = history.config_for_gov_index(a.gov_index());
    Some(Upom {
        kind: UpomKind::GovernanceFork,
        blamed: fork.blamed_ids(config).into_iter().collect(),
        at_seq: a.seq(),
        details,
        receipts: vec![a.clone(), b.clone()],
    })
}

/// Walk `receipts` in input order: Alg. 3's structural part, the request
/// match and `min_index` on the spot, every signature check queued on
/// `pending`, owned by its receipt's position. `Err` is the first refusal
/// met, a signature's only if a full chunk failed; what is still queued
/// ranks before it.
fn queue_receipts<'a>(
    receipts: &'a [StoredReceipt],
    history: &ConfigHistory,
    pending: &mut ReceiptSigs,
) -> Result<(), Upom> {
    let mut previous: Option<(&'a BatchCertificate, Digest)> = None;
    for (at, sr) in receipts.iter().enumerate() {
        let receipt = &sr.receipt;
        let invalid = |why: ReceiptError| invalid_receipt(receipt, &why);
        let config = history.config_for_gov_index(receipt.gov_index());
        receipt.cert.check_shape(config).map_err(invalid)?;
        let root_g = receipt.implied_root_g().map_err(invalid)?;
        // Receipts of one batch arrive together: the first one's checks
        // stand for the rest.
        if previous != Some((&receipt.cert, root_g)) {
            let sigs = receipt.cert.signature_checks(config, &root_g).map_err(invalid)?;
            for check in sigs.checks {
                pending
                    .push(check.job, (at, check.fails_as))
                    .map_err(|(owner, why)| invalid_receipt(&receipts[owner].receipt, &why))?;
            }
            if let Some(why) = sigs.refused {
                return Err(invalid(why));
            }
            previous = Some((&receipt.cert, root_g));
        }
        // Witness must certify the request it is stored with.
        let Some(index) = receipt.tx_index() else { continue };
        let matches = match &receipt.body {
            ia_ccf_types::ReceiptBody::Tx(w) => w.tx_hash == sr.request.digest(),
            _ => true,
        };
        if !matches {
            return Err(Upom {
                kind: UpomKind::InvalidReceipt,
                blamed: BTreeSet::new(),
                at_seq: receipt.seq(),
                details: "receipt does not certify the stored request".into(),
                receipts: vec![receipt.clone()],
            });
        }
        // Thm. 2: `i ≥ mi` or every signer is blamed.
        if index < sr.request.request.min_index {
            return Err(Upom {
                kind: UpomKind::MinIndexViolation,
                blamed: receipt.cert.signer_ids(config).into_iter().collect(),
                at_seq: receipt.seq(),
                details: format!(
                    "request with min_index {} executed at {} — real-time ordering violated",
                    sr.request.request.min_index, index
                ),
                receipts: vec![receipt.clone()],
            });
        }
    }
    Ok(())
}

/// The uPoM of a receipt that fails Alg. 3. It blames nobody: a receipt a
/// quorum did not sign proves nothing about the quorum.
fn invalid_receipt(receipt: &Receipt, why: &ReceiptError) -> Upom {
    Upom {
        kind: UpomKind::InvalidReceipt,
        blamed: BTreeSet::new(),
        at_seq: receipt.seq(),
        details: format!("receipt failed verification: {why}"),
        receipts: vec![receipt.clone()],
    }
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
