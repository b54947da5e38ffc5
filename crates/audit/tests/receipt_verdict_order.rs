//! The auditor's first step queues receipt signatures into the chunks the
//! package's validation checks by one combined equation, and skips what the
//! package proved; its verdict must still be the one-at-a-time rule's:
//! `Receipt::verify`, then the request match, then `min_index`, receipt by
//! receipt, the first failure winning. Each row doctors a run of receipts
//! (one to three per batch, none of their signatures in the ledger, so every
//! one is queued) and holds the audit's uPoM to that rule's, field by field.

use std::collections::BTreeSet;
use std::sync::Arc;

use ia_ccf_audit::{Auditor, LedgerPackage, StoredReceipt, Upom, UpomKind};
use ia_ccf_core::app::CounterApp;
use ia_ccf_core::ProtocolParams;
use ia_ccf_crypto::SIG_CHUNK;
use ia_ccf_governance::chain::GovernanceChain;
use ia_ccf_sim::ClusterSpec;
use ia_ccf_types::receipt::testutil::make_tx_receipts;
use ia_ccf_types::{
    BatchCertificate, Configuration, Digest, LedgerEntry, LedgerIdx, Nonce, Receipt, ReceiptBody,
    ReceiptError, ReplicaId, Request, RequestAction, SeqNum, SignedRequest, TxResult, View,
};

/// Batches in the run; their sizes cycle through 1, 2 and 3 receipts.
const BATCHES: usize = 100;

/// The rule the auditor must agree with, written out one receipt at a time.
fn one_by_one(receipts: &[StoredReceipt], config: &Configuration) -> Option<Upom> {
    for sr in receipts {
        let receipt = &sr.receipt;
        let upom = |kind, blamed, details| Upom {
            kind,
            blamed,
            at_seq: receipt.seq(),
            details,
            receipts: vec![receipt.clone()],
        };
        if let Err(why) = receipt.verify(config) {
            let details = format!("receipt failed verification: {why}");
            return Some(upom(UpomKind::InvalidReceipt, BTreeSet::new(), details));
        }
        let ReceiptBody::Tx(witness) = &receipt.body else { continue };
        if witness.tx_hash != sr.request.digest() {
            let details = "receipt does not certify the stored request".to_string();
            return Some(upom(UpomKind::InvalidReceipt, BTreeSet::new(), details));
        }
        if witness.index < sr.request.request.min_index {
            let details = format!(
                "request with min_index {} executed at {} — real-time ordering violated",
                sr.request.request.min_index, witness.index
            );
            let blamed = receipt.cert.signer_ids(config).into_iter().collect();
            return Some(upom(UpomKind::MinIndexViolation, blamed, details));
        }
    }
    None
}

type Verdict = (UpomKind, BTreeSet<ReplicaId>, SeqNum, String, Vec<Receipt>);

fn verdict(upom: &Upom) -> Verdict {
    let u = upom.clone();
    (u.kind, u.blamed, u.at_seq, u.details, u.receipts)
}

struct Run {
    spec: ClusterSpec,
    auditor: Auditor,
    /// A ledger of genesis alone: it proves no receipt signature.
    package: LedgerPackage,
    receipts: Vec<StoredReceipt>,
}

impl Run {
    fn new() -> Run {
        let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
        let auditor = Auditor::new(spec.genesis.clone(), Arc::new(CounterApp));
        let package = LedgerPackage {
            entries: vec![LedgerEntry::Genesis { config: spec.genesis.clone() }],
            checkpoint: None,
        };
        let mut run = Run { spec, auditor, package, receipts: Vec::new() };
        let mut index = 1;
        for b in 0..BATCHES {
            let batch: Vec<_> = (0..1 + b % 3)
                .map(|_| {
                    index += 1;
                    (LedgerIdx(index), LedgerIdx(0))
                })
                .collect();
            let seq = SeqNum(b as u64 + 1);
            run.receipts.extend(run.batch(seq, &batch));
        }
        run
    }

    /// One batch at `seq`, a receipt per `(ledger index, min_index)`, each
    /// for a request of its own.
    fn batch(&self, seq: SeqNum, txs: &[(LedgerIdx, LedgerIdx)]) -> Vec<StoredReceipt> {
        let (client, key) = &self.spec.clients[0];
        let requests: Vec<SignedRequest> = txs
            .iter()
            .map(|(index, min_index)| {
                let args = index.0.to_le_bytes().to_vec();
                let request = Request {
                    action: RequestAction::App { proc: CounterApp::INCR, args },
                    client: *client,
                    gt_hash: ia_ccf_crypto::hash_bytes(b"any-service"),
                    min_index: *min_index,
                    req_id: index.0,
                };
                SignedRequest::sign(request, key)
            })
            .collect();
        let result = TxResult { ok: true, output: vec![], write_set_digest: Digest::zero() };
        let entries: Vec<_> = requests
            .iter()
            .zip(txs)
            .map(|(request, (index, _))| (request.digest(), *index, result.clone()))
            .collect();
        let receipts = make_tx_receipts(
            &self.spec.genesis,
            &self.spec.replica_keys,
            View(0),
            seq,
            ia_ccf_crypto::hash_bytes(b"m"),
            LedgerIdx(0),
            Digest::zero(),
            &entries,
        );
        requests
            .into_iter()
            .zip(receipts)
            .map(|(request, receipt)| StoredReceipt { request, receipt })
            .collect()
    }

    /// Whether receipt `at` has the certificate and `Ḡ` of the one before.
    fn shares_previous(&self, at: usize) -> bool {
        let same = |r: &Receipt| (r.cert.clone(), r.implied_root_g().ok());
        at > 0 && same(&self.receipts[at].receipt) == same(&self.receipts[at - 1].receipt)
    }

    /// The first receipt of a batch at or after `at`.
    fn first_of_batch(&self, at: usize) -> usize {
        (at..self.receipts.len()).find(|at| !self.shares_previous(*at)).expect("a batch")
    }

    /// Audit `receipts`; the verdict must be `one_by_one`'s, and `row` must
    /// be a step-1 refusal.
    fn check(&self, row: &str, receipts: &[StoredReceipt]) -> Verdict {
        let expected = one_by_one(receipts, &self.spec.genesis)
            .unwrap_or_else(|| panic!("{row}: the row must fail the one-by-one rule"));
        let outcome = self.auditor.audit(receipts, &GovernanceChain::new(), &self.package);
        let got = outcome.upom().unwrap_or_else(|| panic!("{row}: the audit found nothing"));
        assert_eq!(verdict(got), verdict(&expected), "{row}");
        verdict(got)
    }
}

fn forge_primary(cert: &mut BatchCertificate) {
    cert.primary_sig.0[7] ^= 1;
}

fn forge_prepare(cert: &mut BatchCertificate, slot: usize) {
    cert.prepare_sigs[slot].0[7] ^= 1;
}

/// A shape refusal: one nonce short.
fn malform(cert: &mut BatchCertificate) {
    cert.nonces.pop();
}

#[test]
fn honest_receipts_pass_step_one() {
    let run = Run::new();
    assert!(one_by_one(&run.receipts, &run.spec.genesis).is_none());
    let outcome = run.auditor.audit(&run.receipts, &GovernanceChain::new(), &run.package);
    // Step 1 passes; the ledger holds none of these batches (Lemma 5).
    assert_eq!(outcome.upom().map(|u| u.kind.clone()), Some(UpomKind::ViewChangeOmission));
}

#[test]
fn forged_signatures_give_the_first_failing_check() {
    let run = Run::new();
    let at = run.first_of_batch(7);
    let doctor = |change: &dyn Fn(&mut BatchCertificate)| {
        let mut receipts = run.receipts.clone();
        change(&mut receipts[at].receipt.cert);
        receipts
    };
    let (kind, ..) = run.check("a forged primary signature", &doctor(&forge_primary));
    assert_eq!(kind, UpomKind::InvalidReceipt);
    for slot in 0..run.receipts[at].receipt.cert.prepare_sigs.len() {
        let (_, _, _, details, _) = run.check(
            &format!("a forged prepare in slot {slot}"),
            &doctor(&|c| forge_prepare(c, slot)),
        );
        assert!(details.contains("bad prepare signature"), "{details}");
    }
    let both = doctor(&|c| {
        forge_primary(c);
        forge_prepare(c, 1);
    });
    let (_, _, _, details, _) = run.check("a forged primary signature and prepare", &both);
    assert_eq!(details, format!("receipt failed verification: {}", ReceiptError::BadPrimarySig));

    // A fourth signer of rank 5, which no configuration of four has: its
    // refusal ranks after the primary's signature.
    let unknown = |c: &mut BatchCertificate| {
        c.signers.set(5);
        c.nonces.push(Nonce([9; ia_ccf_crypto::NONCE_LEN]));
        c.prepare_sigs.push(c.prepare_sigs[0]);
    };
    let (_, _, _, details, _) = run.check("an unknown signer", &doctor(&unknown));
    assert_eq!(details, format!("receipt failed verification: {}", ReceiptError::UnknownSigner(5)));
    let (_, _, _, details, _) = run.check(
        "an unknown signer and a forged primary signature",
        &doctor(&|c| {
            unknown(c);
            forge_primary(c);
        }),
    );
    assert_eq!(details, format!("receipt failed verification: {}", ReceiptError::BadPrimarySig));
}

#[test]
fn a_structural_refusal_waits_for_the_signatures_queued_before_it() {
    let run = Run::new();
    let (third, seventh) = (run.first_of_batch(3), run.first_of_batch(7));
    assert!(third < seventh);
    for (forged, malformed) in [(third, seventh), (seventh, third)] {
        let mut receipts = run.receipts.clone();
        forge_prepare(&mut receipts[forged].receipt.cert, 0);
        malform(&mut receipts[malformed].receipt.cert);
        let (_, _, at_seq, ..) =
            run.check(&format!("a forgery in {forged}, a shape error in {malformed}"), &receipts);
        assert_eq!(at_seq, run.receipts[forged.min(malformed)].receipt.seq());
    }

    // A forgery and a request mismatch in one receipt; the mismatch alone
    // before a later forgery.
    let (at, later) = (run.first_of_batch(5), run.first_of_batch(9));
    let mut receipts = run.receipts.clone();
    receipts[at].request = run.receipts[later].request.clone();
    let (_, _, _, details, _) = run.check("a request mismatch", &receipts);
    assert_eq!(details, "receipt does not certify the stored request");
    forge_prepare(&mut receipts[later].receipt.cert, 0);
    run.check("a request mismatch, then a forgery", &receipts);
    forge_prepare(&mut receipts[at].receipt.cert, 0);
    let (kind, ..) = run.check("a forgery and a request mismatch", &receipts);
    assert_eq!(kind, UpomKind::InvalidReceipt);

    // A `min_index` violation before a forgery, and after one.
    let mut receipts = run.receipts.clone();
    let seq = receipts[at].receipt.seq();
    let index = receipts[at].receipt.tx_index().expect("a transaction");
    receipts[at] = run.batch(seq, &[(index, LedgerIdx(index.0 + 50))]).remove(0);
    let (kind, blamed, ..) = run.check("a min_index violation", &receipts);
    assert_eq!((kind, blamed.len()), (UpomKind::MinIndexViolation, run.spec.genesis.quorum()));
    forge_prepare(&mut receipts[later].receipt.cert, 1);
    run.check("a min_index violation, then a forgery", &receipts);
    forge_primary(&mut receipts[run.first_of_batch(2)].receipt.cert);
    let (kind, ..) = run.check("a forgery, then a min_index violation", &receipts);
    assert_eq!(kind, UpomKind::InvalidReceipt);
}

/// A receipt of a batch whose witness was doctored carries the previous
/// receipt's certificate but implies another `Ḡ`: its checks are its own.
#[test]
fn a_receipt_of_the_same_batch_with_another_root_is_checked() {
    let run = Run::new();
    let at = (1..run.receipts.len()).find(|at| run.shares_previous(*at)).expect("a shared batch");
    let mut receipts = run.receipts.clone();
    let ReceiptBody::Tx(witness) = &mut receipts[at].receipt.body else { unreachable!() };
    witness.result.output.push(1);
    let (_, _, _, details, _) = run.check("another result under the same certificate", &receipts);
    assert_eq!(details, format!("receipt failed verification: {}", ReceiptError::BadPrimarySig));
}

/// A forgery whose check is queued after the first `SIG_CHUNK` checks, and
/// one in the last receipt.
#[test]
fn a_forgery_in_a_later_chunk_is_found() {
    let run = Run::new();
    let per_batch = 1 + run.receipts[0].receipt.cert.prepare_sigs.len();
    let mut queued = 0;
    let past = (0..run.receipts.len())
        .find(|at| {
            let fresh = !run.shares_previous(*at);
            let past = fresh && queued >= SIG_CHUNK;
            queued += if fresh { per_batch } else { 0 };
            past
        })
        .expect("more than one chunk of checks");
    let mut receipts = run.receipts.clone();
    forge_prepare(&mut receipts[past].receipt.cert, 1);
    let (_, _, at_seq, ..) = run.check("a forgery in the second chunk", &receipts);
    assert_eq!(at_seq, run.receipts[past].receipt.seq());

    let last = run.receipts.len() - 1;
    let mut receipts = run.receipts.clone();
    forge_primary(&mut receipts[last].receipt.cert);
    run.check("a forgery in the last receipt", &receipts);
}
