//! End-to-end audit scenarios: a real cluster produces ledgers and
//! receipts; the auditor either finds them consistent or produces a uPoM
//! blaming at least f + 1 replicas — including when **all** replicas
//! collude (§4.1).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use ia_ccf_audit::package::validate_package;
use ia_ccf_audit::{
    AuditOutcome, Auditor, Enforcer, LedgerPackage, StoredReceipt, Upom, UpomKind,
};
use ia_ccf_core::app::CounterApp;
use ia_ccf_core::byzantine::TamperedApp;
use ia_ccf_core::ProtocolParams;
use ia_ccf_governance::chain::GovernanceChain;
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_types::receipt::testutil::make_tx_receipts;
use ia_ccf_types::{
    receipt_checkpoint_seq, BatchCertificate, ClientId, Configuration, Digest, LedgerEntry,
    LedgerIdx, MemberId, Nonce, PrePrepare, Prepare, ProcId, Receipt, ReceiptError, ReplicaBitmap,
    ReplicaId, Request, RequestAction, SeqNum, Signature, SignedRequest, TxResult, View,
};

fn spec(n: usize) -> ClusterSpec {
    ClusterSpec::new(n, 1, ProtocolParams::default())
}

/// Run `tx_count` increments on an honest (or tampered) cluster and return
/// the cluster plus the stored receipts.
fn run_cluster(
    spec: &ClusterSpec,
    app_for: impl FnMut(usize) -> Arc<dyn ia_ccf_core::App>,
    tx_count: usize,
) -> (DetCluster, Vec<StoredReceipt>) {
    let mut cluster = DetCluster::with_apps(spec, app_for);
    let client = spec.clients[0].0;
    for i in 0..tx_count {
        let proc =
            if i % 3 == 2 { CounterApp::READ } else { CounterApp::INCR };
        cluster.submit(client, proc, b"acct".to_vec());
        cluster.round();
    }
    assert!(
        cluster.run_until_finished(tx_count, 400),
        "only {}/{} finished",
        cluster.finished.len(),
        tx_count
    );
    let receipts = cluster
        .finished
        .iter()
        .map(|(_, tx)| StoredReceipt {
            request: tx.request.clone(),
            receipt: tx.receipt.clone().expect("receipts enabled"),
        })
        .collect();
    (cluster, receipts)
}

#[test]
fn honest_cluster_audits_clean() {
    let s = spec(4);
    let counter: Arc<dyn ia_ccf_core::App> = Arc::new(CounterApp);
    let (cluster, receipts) = run_cluster(&s, |_| Arc::clone(&counter), 12);
    let replica = cluster.replica(ReplicaId(1));
    let package = LedgerPackage::from_replica(replica, SeqNum(0));
    let auditor = Auditor::new(s.genesis.clone(), Arc::new(CounterApp));
    let outcome = auditor.audit(&receipts, &GovernanceChain::new(), &package);
    assert!(matches!(outcome, AuditOutcome::Clean), "{:?}", outcome.upom());
}

#[test]
fn colluding_quorum_wrong_execution_is_caught_by_replay() {
    // ALL FOUR replicas run tampered logic: reads of "acct" claim 999.
    // The protocol runs "correctly" over the lie, clients hold valid
    // receipts — only replay against the honest app exposes it (§4.1).
    let s = spec(4);
    let make_tampered = || -> Arc<dyn ia_ccf_core::App> {
        Arc::new(TamperedApp::new(Arc::new(CounterApp), |proc, args, _| {
            (proc == CounterApp::READ && args == b"acct")
                .then(|| 999u64.to_le_bytes().to_vec())
        }))
    };
    let (cluster, receipts) = run_cluster(&s, |_| make_tampered(), 12);
    // The client accepted the forged read — receipts all verified.
    let forged = receipts
        .iter()
        .find(|r| {
            matches!(&r.request.request.action, RequestAction::App { proc, .. }
                if *proc == CounterApp::READ)
        })
        .expect("a read receipt");
    assert!(forged.receipt.verify(&s.genesis).is_ok());

    let replica = cluster.replica(ReplicaId(0));
    let package = LedgerPackage::from_replica(replica, SeqNum(0));
    let auditor = Auditor::new(s.genesis.clone(), Arc::new(CounterApp));
    let outcome = auditor.audit(&receipts, &GovernanceChain::new(), &package);
    let upom = outcome.upom().expect("violation found").clone();
    assert_eq!(upom.kind, UpomKind::WrongExecution);
    assert!(
        upom.blamed.len() > s.genesis.f(),
        "blamed {:?}, need ≥ f+1 = {}",
        upom.blamed,
        s.genesis.f() + 1
    );

    // The enforcer re-verifies the uPoM and punishes the operators.
    let mut enforcer = Enforcer::new();
    let sanctions = enforcer
        .process_upom(
            &upom,
            &receipts,
            &GovernanceChain::new(),
            &package,
            &s.genesis,
            Arc::new(CounterApp),
        )
        .expect("uPoM verifies");
    assert!(sanctions.len() > s.genesis.f());
}

/// A cluster of `n` whose ranks in `tampered` run an app that claims 999
/// for reads of "acct", its receipts, the package of replica 0 (a
/// tamperer) and the honest audit's uPoM.
fn tampered_audit(
    n: usize,
    tampered: std::ops::Range<usize>,
) -> (ClusterSpec, Vec<StoredReceipt>, LedgerPackage, Upom) {
    let s = spec(n);
    let (cluster, receipts) = run_cluster(
        &s,
        |rank| -> Arc<dyn ia_ccf_core::App> {
            if !tampered.contains(&rank) {
                return Arc::new(CounterApp);
            }
            Arc::new(TamperedApp::new(Arc::new(CounterApp), |proc, args, _| {
                (proc == CounterApp::READ && args == b"acct").then(|| 999u64.to_le_bytes().to_vec())
            }))
        },
        12,
    );
    let package = LedgerPackage::from_replica(cluster.replica(ReplicaId(0)), SeqNum(0));
    let auditor = Auditor::new(s.genesis.clone(), Arc::new(CounterApp));
    let outcome = auditor.audit(&receipts, &GovernanceChain::new(), &package);
    let upom = outcome.upom().expect("the audit finds the lie").clone();
    (s, receipts, package, upom)
}

/// What the enforcer makes of `upom`: its verdict and the sanctions it
/// recorded.
fn enforce(
    s: &ClusterSpec,
    receipts: &[StoredReceipt],
    package: &LedgerPackage,
    upom: &Upom,
) -> (Result<Vec<MemberId>, String>, usize) {
    let mut enforcer = Enforcer::new();
    let verdict = enforcer
        .process_upom(upom, receipts, &GovernanceChain::new(), package, &s.genesis, Arc::new(CounterApp))
        .map(|sanctions| sanctions.iter().map(|sanction| sanction.member).collect());
    (verdict, enforcer.sanctions.len())
}

/// The uPoM of a cluster of seven, five of them tampering, altered by
/// `alter`, is refused and sanctions nobody, while the uPoM as the audit
/// derived it stands.
fn assert_refused_when_altered(alter: impl Fn(&mut Upom)) {
    let (s, receipts, package, upom) = tampered_audit(7, 0..5);
    assert_eq!(upom.kind, UpomKind::WrongExecution);
    let mut altered = upom.clone();
    alter(&mut altered);
    let (verdict, recorded) = enforce(&s, &receipts, &package, &altered);
    assert!(verdict.is_err(), "{verdict:?}");
    assert_eq!(recorded, 0, "nobody is sanctioned");
    let (verdict, _) = enforce(&s, &receipts, &package, &upom);
    assert_eq!(verdict.map(|members| members.len()), Ok(upom.blamed.len()));
}

/// A uPoM names exactly the blame set the enforcer derives: an innocent
/// replica added to it is not punished with the rest.
#[test]
fn an_inflated_blame_set_is_refused() {
    assert_refused_when_altered(|upom| {
        assert!(upom.blamed.insert(ReplicaId(5)), "replica 5 ran the honest app");
    });
}

#[test]
fn a_deflated_blame_set_is_refused() {
    assert_refused_when_altered(|upom| {
        upom.blamed.pop_first();
    });
}

#[test]
fn a_wrong_at_seq_is_refused() {
    assert_refused_when_altered(|upom| upom.at_seq = upom.at_seq.next());
}

/// At n = 7 with five replicas running the lie (a quorum of them) and two
/// honest ones, the honest uPoM sanctions exactly the five tamperers'
/// members, and a claim that adds the honest two is refused.
#[test]
fn the_honest_upom_sanctions_exactly_the_tamperers() {
    let (s, receipts, package, upom) = tampered_audit(7, 0..5);
    let tamperers: BTreeSet<ReplicaId> = (0..5).map(ReplicaId).collect();
    assert_eq!(upom.blamed, tamperers);
    let members: Vec<MemberId> =
        (0..5).map(|r| s.genesis.operator_of(ReplicaId(r)).expect("an operator")).collect();
    assert_eq!(enforce(&s, &receipts, &package, &upom), (Ok(members), 5));

    let mut everyone = upom.clone();
    everyone.blamed.extend([ReplicaId(5), ReplicaId(6)]);
    let (verdict, recorded) = enforce(&s, &receipts, &package, &everyone);
    assert!(verdict.is_err(), "{verdict:?}");
    assert_eq!(recorded, 0);
}

#[test]
fn bogus_upom_is_rejected_by_enforcer() {
    let s = spec(4);
    let counter: Arc<dyn ia_ccf_core::App> = Arc::new(CounterApp);
    let (cluster, receipts) = run_cluster(&s, |_| Arc::clone(&counter), 6);
    let package = LedgerPackage::from_replica(cluster.replica(ReplicaId(0)), SeqNum(0));
    let fake = Upom {
        kind: UpomKind::WrongExecution,
        blamed: [ReplicaId(0), ReplicaId(1)].into_iter().collect(),
        at_seq: SeqNum(1),
        details: "fabricated".into(),
        receipts: vec![],
    };
    let mut enforcer = Enforcer::new();
    let err = enforcer
        .process_upom(
            &fake,
            &receipts,
            &GovernanceChain::new(),
            &package,
            &s.genesis,
            Arc::new(CounterApp),
        )
        .unwrap_err();
    assert!(err.contains("clean"), "{err}");
    assert!(enforcer.sanctions.is_empty());
}

#[test]
fn tampered_ledger_fragment_is_not_well_formed() {
    let s = spec(4);
    let counter: Arc<dyn ia_ccf_core::App> = Arc::new(CounterApp);
    let (cluster, receipts) = run_cluster(&s, |_| Arc::clone(&counter), 8);
    let mut package = LedgerPackage::from_replica(cluster.replica(ReplicaId(0)), SeqNum(0));
    // A misbehaving replica rewrites a result in its served copy.
    let target = package
        .entries
        .iter()
        .position(|e| matches!(e, LedgerEntry::Tx(tx) if !tx.result.output.is_empty()))
        .expect("some tx entry");
    if let LedgerEntry::Tx(tx) = &mut package.entries[target] {
        tx.result.output[0] ^= 0xFF;
    }
    let auditor = Auditor::new(s.genesis.clone(), Arc::new(CounterApp));
    let outcome = auditor.audit(&receipts, &GovernanceChain::new(), &package);
    let upom = outcome.upom().expect("violation");
    // The forged entry breaks Ḡ against the signed pre-prepare.
    assert_eq!(upom.kind, UpomKind::BadPackage);
}

/// The checks of `receipt`'s signatures that `proved` does not name, as
/// the refusals they report.
fn unproved(receipt: &Receipt, config: &Configuration, proved: &HashSet<Digest>) -> Vec<ReceiptError> {
    let root_g = receipt.implied_root_g().expect("a valid receipt");
    let sigs = receipt.cert.signature_checks(config, &root_g).expect("a ranked primary");
    sigs.checks
        .into_iter()
        .filter(|check| !proved.contains(&check.job.fingerprint()))
        .map(|check| check.fails_as)
        .collect()
}

/// An honest cluster's receipts, its replica 0's package, what that package
/// proves, and the position of a receipt every signature of which it
/// proves.
fn proved_receipt(s: &ClusterSpec) -> (Vec<StoredReceipt>, LedgerPackage, HashSet<Digest>, usize) {
    let counter: Arc<dyn ia_ccf_core::App> = Arc::new(CounterApp);
    let (cluster, receipts) = run_cluster(s, |_| Arc::clone(&counter), 8);
    let package = LedgerPackage::from_replica(cluster.replica(ReplicaId(0)), SeqNum(0));
    let validated = validate_package(&package.entries, &|_| s.genesis.clone()).expect("well-formed");
    let at = receipts
        .iter()
        .position(|sr| unproved(&sr.receipt, &s.genesis, &validated.proved).is_empty())
        .expect("the ledger proves every signature of some receipt");
    (receipts, package, validated.proved, at)
}

/// The uPoM of `receipt` failing Alg. 3 with `why`.
fn invalid(receipt: &Receipt, why: ReceiptError) -> (UpomKind, SeqNum, String, Vec<Receipt>) {
    let details = format!("receipt failed verification: {why}");
    (UpomKind::InvalidReceipt, receipt.seq(), details, vec![receipt.clone()])
}

fn verdict(upom: Option<&Upom>) -> Option<(UpomKind, SeqNum, String, Vec<Receipt>)> {
    upom.map(|u| (u.kind.clone(), u.at_seq, u.details.clone(), u.receipts.clone()))
}

/// The package is validated before the receipts are (a signature it
/// proves is not checked again), yet a bad receipt is still reported
/// before a bad package, and a receipt one signature of which differs from
/// what the ledger proved has that signature checked.
#[test]
fn receipts_are_judged_first_and_only_proved_bytes_skip_their_checks() {
    let s = spec(4);
    let (receipts, honest, proved_sigs, proved) = proved_receipt(&s);

    let mut forged = receipts.clone();
    forged[proved].receipt.cert.prepare_sigs[0].0[7] ^= 1;
    let rank = backup_rank(&forged[proved].receipt.cert, &s.genesis, 0);
    assert_eq!(
        unproved(&forged[proved].receipt, &s.genesis, &proved_sigs),
        vec![ReceiptError::BadPrepareSig(rank)],
        "only the forged signature is left to check"
    );
    let mut tampered = honest.clone();
    let at = tampered
        .entries
        .iter()
        .rposition(|e| matches!(e, LedgerEntry::Tx(_)))
        .expect("a transaction");
    let LedgerEntry::Tx(tx) = &mut tampered.entries[at] else { unreachable!() };
    tx.result.output.push(0xFF);

    let auditor = Auditor::new(s.genesis.clone(), Arc::new(CounterApp));
    let kind = |receipts: &[StoredReceipt], package: &LedgerPackage| {
        auditor.audit(receipts, &GovernanceChain::new(), package).upom().map(|u| u.kind.clone())
    };
    assert_eq!(kind(&receipts, &honest), None);
    assert_eq!(kind(&forged, &honest), Some(UpomKind::InvalidReceipt));
    assert_eq!(kind(&forged, &tampered), Some(UpomKind::InvalidReceipt));
    assert_eq!(kind(&receipts, &tampered), Some(UpomKind::BadPackage));
    let upom = auditor.audit(&forged, &GovernanceChain::new(), &honest);
    let forged_receipt = &forged[proved].receipt;
    assert_eq!(
        verdict(upom.upom()),
        Some(invalid(forged_receipt, ReceiptError::BadPrepareSig(rank)))
    );
}

/// The rank of the backup whose prepare is `cert.prepare_sigs[slot]`.
fn backup_rank(cert: &BatchCertificate, config: &Configuration, slot: usize) -> usize {
    let primary = config.rank_of(cert.core.primary).expect("a ranked primary");
    cert.signers.iter().filter(|rank| *rank != primary).nth(slot).expect("a backup")
}

/// `receipt`'s certificate with its highest-ranked backup replaced by a
/// replica outside its quorum, which prepares the same pre-prepare
/// honestly under a nonce of its own. Returns it and the newcomer's rank.
fn swap_one_backup(s: &ClusterSpec, receipt: &Receipt) -> (BatchCertificate, usize) {
    let (cert, config) = (&receipt.cert, &s.genesis);
    let primary = config.rank_of(cert.core.primary).expect("a ranked primary");
    let outsider = (0..config.n()).find(|rank| !cert.signers.contains(*rank)).expect("n > quorum");
    let dropped = backup_rank(cert, config, cert.prepare_sigs.len() - 1);
    let signers =
        ReplicaBitmap::from_ranks(cert.signers.iter().filter(|r| *r != dropped).chain([outsider]));

    // Every signer's share as the certificate holds it, and the newcomer's.
    let mut prepare_sigs = cert.prepare_sigs.iter();
    let mut shares: HashMap<usize, (Signature, Nonce)> = cert
        .signers
        .iter()
        .zip(&cert.nonces)
        .map(|(rank, nonce)| {
            let sig = if rank == primary { cert.primary_sig } else { *prepare_sigs.next().unwrap() };
            (rank, (sig, *nonce))
        })
        .collect();
    let root_g = receipt.implied_root_g().expect("a valid receipt");
    let pp_digest = PrePrepare::digest_from_parts(&cert.core, &root_g, &cert.primary_sig);
    let nonce = Nonce([0x5A; ia_ccf_crypto::NONCE_LEN]);
    let id = config.replica_at_rank(outsider).expect("ranked").id;
    let payload =
        Prepare::signing_payload(cert.core.view, cert.core.seq, id, &nonce.commitment(), &pp_digest);
    shares.insert(outsider, (s.replica_keys[outsider].sign(&payload), nonce));

    let swapped = BatchCertificate::assemble(config, cert.core.clone(), cert.primary_sig, signers, |id| {
        shares.get(&config.rank_of(id)?).copied()
    });
    (swapped.expect("every signer has a share"), outsider)
}

/// The `lat_single` shape: a client builds its quorum from the first
/// replies, the primary its evidence from the shares it holds, so a
/// receipt's signers may differ from the ledger's in one backup. The
/// signatures the package proved are skipped and the other one is
/// checked: honest, the audit is clean; forged, the receipt is convicted.
#[test]
fn a_receipt_one_signer_off_the_ledger_evidence_has_that_signature_checked() {
    let s = spec(4);
    let (receipts, package, proved, at) = proved_receipt(&s);
    let (cert, outsider) = swap_one_backup(&s, &receipts[at].receipt);
    let mut swapped = receipts.clone();
    swapped[at].receipt.cert = cert;
    assert_eq!(
        unproved(&swapped[at].receipt, &s.genesis, &proved),
        vec![ReceiptError::BadPrepareSig(outsider)]
    );
    let auditor = Auditor::new(s.genesis.clone(), Arc::new(CounterApp));
    let outcome = auditor.audit(&swapped, &GovernanceChain::new(), &package);
    assert!(matches!(outcome, AuditOutcome::Clean), "{:?}", outcome.upom());

    let mut forged = swapped;
    let cert = &mut forged[at].receipt.cert;
    let slot = (0..cert.prepare_sigs.len())
        .find(|slot| backup_rank(cert, &s.genesis, *slot) == outsider)
        .expect("the newcomer signs a prepare");
    cert.prepare_sigs[slot].0[7] ^= 1;
    let outcome = auditor.audit(&forged, &GovernanceChain::new(), &package);
    assert_eq!(
        verdict(outcome.upom()),
        Some(invalid(&forged[at].receipt, ReceiptError::BadPrepareSig(outsider)))
    );
}

/// A proved key and signature are proved over their own bytes only: the
/// same prepare signature presented over another nonce commitment is
/// checked, and refused.
#[test]
fn a_proved_signature_over_other_bytes_is_checked() {
    let s = spec(4);
    let (receipts, package, proved, at) = proved_receipt(&s);
    let mut moved = receipts.clone();
    let cert = &mut moved[at].receipt.cert;
    let rank = backup_rank(cert, &s.genesis, 0);
    let slot = cert.signers.iter().position(|r| r == rank).expect("a signer");
    cert.nonces[slot].0[0] ^= 1;
    let receipt = &moved[at].receipt;
    assert_eq!(receipt.verify(&s.genesis), Err(ReceiptError::BadPrepareSig(rank)));
    assert_eq!(
        unproved(receipt, &s.genesis, &proved),
        vec![ReceiptError::BadPrepareSig(rank)],
        "key and signature proved, the bytes not"
    );
    let auditor = Auditor::new(s.genesis.clone(), Arc::new(CounterApp));
    let outcome = auditor.audit(&moved, &GovernanceChain::new(), &package);
    assert_eq!(verdict(outcome.upom()), Some(invalid(receipt, ReceiptError::BadPrepareSig(rank))));
}

#[test]
fn receipt_contradicting_ledger_blames_intersection() {
    // Replicas sign a *different* batch for a sequence number that the
    // ledger also contains — signed contradictory statements (case i of
    // Lemma 5).
    let s = spec(4);
    let counter: Arc<dyn ia_ccf_core::App> = Arc::new(CounterApp);
    let (cluster, receipts) = run_cluster(&s, |_| Arc::clone(&counter), 10);
    let package = LedgerPackage::from_replica(cluster.replica(ReplicaId(0)), SeqNum(0));

    // Forge: the same replica keys certify a phantom transaction at an
    // existing sequence number (pick one with in-ledger evidence).
    let target_seq = SeqNum(3);
    let client_kp = &s.clients[0].1;
    let phantom_req = SignedRequest::sign(
        Request {
            action: RequestAction::App { proc: CounterApp::INCR, args: b"phantom".to_vec() },
            client: s.clients[0].0,
            gt_hash: cluster.replica(ReplicaId(0)).gt_hash(),
            min_index: LedgerIdx(0),
            req_id: 777,
        },
        client_kp,
    );
    let phantom_result = TxResult {
        ok: true,
        output: 1u64.to_le_bytes().to_vec(),
        write_set_digest: Digest::zero(),
    };
    let forged = make_tx_receipts(
        &s.genesis,
        &s.replica_keys,
        View(0),
        target_seq,
        ia_ccf_crypto::hash_bytes(b"fake-root-m"),
        LedgerIdx(0),
        Digest::zero(),
        &[(phantom_req.digest(), LedgerIdx(2), phantom_result)],
    )
    .remove(0);

    let mut stored: Vec<StoredReceipt> = receipts;
    stored.push(StoredReceipt { request: phantom_req, receipt: forged });

    let auditor = Auditor::new(s.genesis.clone(), Arc::new(CounterApp));
    let outcome = auditor.audit(&stored, &GovernanceChain::new(), &package);
    let upom = outcome.upom().expect("violation");
    assert_eq!(upom.kind, UpomKind::ReceiptContradictsLedger);
    assert!(upom.blamed.len() > s.genesis.f(), "blamed: {:?}", upom.blamed);
}

#[test]
fn min_index_violation_blames_signers() {
    // Misbehaving replicas execute a request below its min_index — the
    // real-time-ordering violation of Thm. 2. We forge the (valid,
    // replica-signed) receipt directly.
    let s = spec(4);
    let client_kp = &s.clients[0].1;
    let req = SignedRequest::sign(
        Request {
            action: RequestAction::App { proc: CounterApp::INCR, args: b"x".to_vec() },
            client: s.clients[0].0,
            gt_hash: ia_ccf_crypto::hash_bytes(b"any-service"),
            min_index: LedgerIdx(50), // must execute at index ≥ 50
            req_id: 1,
        },
        client_kp,
    );
    let result =
        TxResult { ok: true, output: vec![], write_set_digest: Digest::zero() };
    let receipt = make_tx_receipts(
        &s.genesis,
        &s.replica_keys,
        View(0),
        SeqNum(2),
        ia_ccf_crypto::hash_bytes(b"m"),
        LedgerIdx(0),
        Digest::zero(),
        &[(req.digest(), LedgerIdx(7), result)], // executed at 7 < 50
    )
    .remove(0);

    let stored = vec![StoredReceipt { request: req, receipt }];
    let auditor = Auditor::new(s.genesis.clone(), Arc::new(CounterApp));
    // The package is irrelevant: the violation is receipt-internal.
    let package = LedgerPackage {
        entries: vec![LedgerEntry::Genesis { config: s.genesis.clone() }],
        checkpoint: None,
    };
    let outcome = auditor.audit(&stored, &GovernanceChain::new(), &package);
    let upom = outcome.upom().expect("violation");
    assert_eq!(upom.kind, UpomKind::MinIndexViolation);
    assert_eq!(upom.blamed.len(), s.genesis.quorum());
}

#[test]
fn audit_from_checkpoint_is_bounded_and_clean() {
    // Enough traffic to cross two checkpoint intervals, then audit only
    // the recent receipts starting from the checkpoint (§4.1: the enforcer
    // replays at most the transactions between two checkpoints).
    let s = spec(4).with_config(|c| c.checkpoint_interval = 6);
    let counter: Arc<dyn ia_ccf_core::App> = Arc::new(CounterApp);
    let (cluster, receipts) = run_cluster(&s, |_| Arc::clone(&counter), 30);
    // Keep only receipts whose penultimate checkpoint is still retained by
    // the replicas (the freshest group): those are the ones a real client
    // would audit soon after the fact.
    let retained = cluster.replica(ReplicaId(2)).checkpoints().seqs();
    let scp_of = |seq| receipt_checkpoint_seq(seq, s.genesis.checkpoint_interval);
    let max_scp = receipts
        .iter()
        .map(|r| scp_of(r.receipt.seq()))
        .filter(|scp| scp.0 > 0 && retained.contains(scp))
        .max()
        .expect("some receipt references a retained checkpoint");
    let late: Vec<StoredReceipt> = receipts
        .into_iter()
        .filter(|r| scp_of(r.receipt.seq()) == max_scp)
        .collect();
    assert!(!late.is_empty(), "need receipts referencing checkpoint {max_scp}");
    let scp = max_scp;
    let package = LedgerPackage::from_replica(cluster.replica(ReplicaId(2)), scp);
    assert!(package.checkpoint.is_some(), "replica retains the checkpoint");
    let auditor = Auditor::new(s.genesis.clone(), Arc::new(CounterApp));
    let outcome = auditor.audit(&late, &GovernanceChain::new(), &package);
    assert!(matches!(outcome, AuditOutcome::Clean), "{:?}", outcome.upom());
}

#[test]
fn unknown_client_receipt_fails_verification() {
    let s = spec(4);
    let counter: Arc<dyn ia_ccf_core::App> = Arc::new(CounterApp);
    let (cluster, mut receipts) = run_cluster(&s, |_| Arc::clone(&counter), 4);
    // Corrupt a receipt: swap its witness result.
    if let ia_ccf_types::ReceiptBody::Tx(w) = &mut receipts[0].receipt.body {
        w.result.output = b"changed".to_vec();
    }
    let package = LedgerPackage::from_replica(cluster.replica(ReplicaId(0)), SeqNum(0));
    let auditor = Auditor::new(s.genesis.clone(), Arc::new(CounterApp));
    let outcome = auditor.audit(&receipts, &GovernanceChain::new(), &package);
    assert_eq!(outcome.upom().expect("violation").kind, UpomKind::InvalidReceipt);
}

#[test]
fn designated_client_id_zero_not_used() {
    // Regression guard: ClientId(0) is reserved for system transactions.
    let s = spec(4);
    assert!(s.clients.iter().all(|(id, _)| *id != ClientId(0)));
    let _ = ProcId(0);
}
