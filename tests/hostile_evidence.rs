//! The quorum's word on a batch, held to one rule at every door (§3.1,
//! Alg. 1 line 17, Alg. 3, App. B.1.1; docs/ARCHITECTURE.md §1.6).
//!
//! The evidence pair the pre-prepare at `s` orders in for `s − P` is the
//! only part of the ledger that says *who* vouched for a batch, so every
//! blame set is computed from it. One table of hostile evidence — each row
//! otherwise self-consistent: `M̄` re-chained over the doctored entries, the
//! pre-prepare re-signed with the primary's key — runs against the pure
//! rule in `ia_ccf_types`, a live backup (`Replica::handle`), ledger replay
//! (`Replica::bootstrap`) and the auditor (`validate_package`), which must
//! agree. The invariant that matters closes the file: whatever one faulty
//! primary does, no honest replica ends up holding a ledger the auditor
//! would blame it for.

mod common;

use std::sync::Arc;

use common::{forge_new_view_pair, m_root, signed_view_change};
use ia_ccf::audit::package::validate_package;
use ia_ccf::audit::{AuditOutcome, Auditor, LedgerPackage, PackageError, StoredReceipt};
use ia_ccf::core::app::CounterApp;
use ia_ccf::core::byzantine::Fault;
use ia_ccf::core::{BootstrapError, Input, NodeId, Output, ProtocolParams, Replica};
use ia_ccf::crypto::{VerifyJob, SIG_CHUNK};
use ia_ccf::governance::chain::GovernanceChain;
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_types::{
    evidence_target, BatchCertificate, Commit, Configuration, EvidenceError, LedgerEntry, Nonce,
    PrePrepare, Prepare, ProtocolMsg, ReceiptError, ReplicaBitmap, ReplicaId, SeqNum,
    SignedRequest, View,
};

/// Pipeline depth of the test configuration: batch 3 is the first carrier.
const P: u64 = 2;
const GARBAGE: Nonce = Nonce([0xAB; 16]);
const BACKUP: ReplicaId = ReplicaId(2);

fn spec() -> ClusterSpec {
    let params = ProtocolParams { view_timeout_ticks: 15, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 1, params);
    assert_eq!(spec.genesis.pipeline_depth as u64, P);
    spec
}

/// A deterministic cluster after `requests` committed `INCR`s, one per
/// batch. `mute_commits` names a replica whose commit messages never leave
/// it (its nonces still reach clients, so receipts are issued).
fn cluster_after(
    spec: &ClusterSpec,
    requests: usize,
    mute_commits: Option<ReplicaId>,
) -> DetCluster {
    let mut cluster = DetCluster::new(spec, Arc::new(CounterApp));
    if let Some(id) = mute_commits {
        cluster.set_fault(id, Fault::DropCommits);
    }
    for done in 0..requests {
        cluster.submit(spec.clients[0].0, CounterApp::INCR, b"k".to_vec());
        assert!(cluster.run_until_finished(done + 1, 200), "request {done}");
    }
    cluster
}

/// What an honest run of five batches recorded: the ledger before batch
/// 3's segment (the first carrier), every batch's pre-prepare and
/// transaction entry, and the evidence batches 3 and 4 order in for batches
/// 1 and 2.
struct Honest {
    prefix: Vec<LedgerEntry>,
    pp: Vec<PrePrepare>,
    tx: Vec<LedgerEntry>,
    for_s1: Evidence,
    for_s2: Evidence,
}

/// An evidence pair and the bitmap its carrier names.
#[derive(Clone)]
struct Evidence {
    seq: SeqNum,
    ranks: Vec<usize>,
    prepares: Vec<Prepare>,
    nonces: Vec<Nonce>,
}

fn honest(spec: &ClusterSpec) -> Honest {
    let cluster = cluster_after(spec, 5, None);
    let ledger = cluster.replica(BACKUP).ledger();
    let entries = ledger.entries();
    let pp = (1..=5).map(|s| ledger.pp_at(SeqNum(s)).expect("batch").clone()).collect();
    let tx = entries.iter().filter(|e| matches!(e, LedgerEntry::Tx(_))).cloned().collect();
    let carried_by = |carrier: u64| {
        let at = entries
            .iter()
            .position(|e| matches!(e, LedgerEntry::PrePrepare(pp) if pp.seq() == SeqNum(carrier)))
            .expect("carrier");
        let (LedgerEntry::Evidence { seq, prepares }, LedgerEntry::Nonces { nonces, .. }) =
            (&entries[at - 2], &entries[at - 1])
        else {
            panic!("batch {carrier} carries evidence");
        };
        let ranks = ledger.pp_at(SeqNum(carrier)).unwrap().core.evidence_bitmap.iter().collect();
        let evidence =
            Evidence { seq: *seq, ranks, prepares: prepares.clone(), nonces: nonces.clone() };
        (at, evidence)
    };
    let (pp3_at, for_s1) = carried_by(3);
    let (_, for_s2) = carried_by(4);
    assert_eq!((for_s1.seq, &for_s1.ranks[..]), (SeqNum(1), &[0, 1, 2][..]));
    Honest { prefix: entries[..pp3_at - 2].to_vec(), pp, tx, for_s1, for_s2 }
}

impl Honest {
    /// Batch `s`'s segment as it would follow `prefix` in `view` with
    /// `evidence` ordered in: `M̄` re-chained over the entries, the
    /// pre-prepare signed by that view's primary.
    fn carrier(
        &self,
        spec: &ClusterSpec,
        prefix: &[LedgerEntry],
        view: View,
        s: usize,
        evidence: Option<&Evidence>,
    ) -> (PrePrepare, Vec<LedgerEntry>) {
        let mut segment = Vec::new();
        let mut core = self.pp[s - 1].core.clone();
        (core.evidence_seq, core.evidence_bitmap) = (SeqNum(0), ReplicaBitmap::empty());
        if let Some(ev) = evidence {
            (core.evidence_seq, core.evidence_bitmap) =
                (ev.seq, ReplicaBitmap::from_ranks(ev.ranks.iter().copied()));
            segment.push(LedgerEntry::Evidence { seq: ev.seq, prepares: ev.prepares.clone() });
            segment.push(LedgerEntry::Nonces { seq: ev.seq, nonces: ev.nonces.clone() });
        }
        (core.view, core.primary) = (view, spec.genesis.primary_of(view));
        core.root_m = m_root(prefix.iter().chain(&segment));
        let key = &spec.replica_keys[spec.genesis.rank_of(core.primary).unwrap()];
        let root_g = self.pp[s - 1].root_g;
        let sig = key.sign(&PrePrepare::signing_payload(&core, &root_g));
        let pp = PrePrepare { core, root_g, sig };
        segment.extend([LedgerEntry::PrePrepare(pp.clone()), self.tx[s - 1].clone()]);
        (pp, segment)
    }

    /// The request batch `s` orders.
    fn request(&self, s: usize) -> SignedRequest {
        let LedgerEntry::Tx(tx) = &self.tx[s - 1] else { panic!("a transaction entry") };
        tx.request.clone()
    }
}

/// `prepare` with `change` applied and the sender's signature redone: what
/// a holder of that replica's key can make self-consistent.
fn resigned(
    spec: &ClusterSpec,
    rank: usize,
    prepare: &Prepare,
    change: impl Fn(&mut Prepare),
) -> Prepare {
    let mut p = prepare.clone();
    change(&mut p);
    p.sig = spec.replica_keys[rank].sign(&p.own_payload());
    p
}

/// One hostile way of ordering evidence in at batch 3.
struct Row {
    name: &'static str,
    evidence: Option<Evidence>,
    /// The replica whose commit nonce the live backup holds as garbage.
    garbled: Option<ReplicaId>,
    /// The clause the pure rule refuses it for.
    rule: EvidenceError,
    /// What the auditor calls a ledger recording it.
    package: PackageError,
    /// Replay verifies no prepare signature (ARCHITECTURE §1.6's ✗).
    replays: bool,
}

fn rows(spec: &ClusterSpec, h: &Honest) -> Vec<Row> {
    let e = &h.for_s1;
    let with = |change: &dyn Fn(&mut Evidence)| {
        let mut ev = e.clone();
        change(&mut ev);
        Some(ev)
    };
    let prepare_off = |change: &dyn Fn(&mut Prepare)| {
        with(&|ev| ev.prepares[0] = resigned(spec, 1, &e.prepares[0], change))
    };
    let row = |name, evidence, rule, package| {
        Row { name, evidence, garbled: None, rule, package, replays: false }
    };
    let shape = |why| EvidenceError::Certificate(why);
    let s1 = SeqNum(1);
    // A share for rank 3, which the honest evidence does not list.
    let n3 = Nonce([3; 16]);
    let p3 = resigned(spec, 3, &e.prepares[0], |p| {
        (p.replica, p.nonce_commit) = (ReplicaId(3), n3.commitment());
    });
    vec![
        Row {
            garbled: Some(ReplicaId(0)),
            ..row(
                "the primary's nonce is garbage",
                with(&|ev| ev.nonces[0] = GARBAGE),
                shape(ReceiptError::BadPrimaryNonce),
                PackageError::BadNonce(s1),
            )
        },
        Row {
            garbled: Some(ReplicaId(1)),
            ..row(
                "a backup's nonce is garbage",
                with(&|ev| ev.nonces[1] = GARBAGE),
                EvidenceError::Nonce(1),
                PackageError::BadNonce(s1),
            )
        },
        row(
            "omitted above P",
            None,
            EvidenceError::Missing,
            PackageError::EvidenceShape(SeqNum(3)),
        ),
        row(
            "the primary alone",
            with(&|ev| (ev.ranks, ev.prepares, ev.nonces) = (vec![0], vec![], vec![e.nonces[0]])),
            shape(ReceiptError::InsufficientSigners { got: 1, need: 3 }),
            PackageError::EvidenceShape(s1),
        ),
        row(
            "a quorum without the evidenced batch's primary",
            with(&|ev| {
                ev.ranks = vec![1, 2, 3];
                ev.prepares.push(p3.clone());
                ev.nonces = vec![e.nonces[1], e.nonces[2], n3];
            }),
            shape(ReceiptError::Malformed("primary not among signers")),
            // The grammar allows one prepare fewer than signers.
            PackageError::Malformed(String::new()),
        ),
        row(
            "evidence for s − 1",
            Some(h.for_s2.clone()),
            EvidenceError::WrongTarget,
            PackageError::EvidenceShape(SeqNum(3)),
        ),
        row(
            "evidence for s1000",
            with(&|ev| {
                ev.seq = SeqNum(1000);
                for (rank, p) in [1, 2].into_iter().zip(&mut ev.prepares) {
                    *p = resigned(spec, rank, p, |p| p.seq = SeqNum(1000));
                }
            }),
            EvidenceError::WrongTarget,
            PackageError::EvidenceShape(SeqNum(3)),
        ),
        row(
            "a prepare for another view",
            prepare_off(&|p| p.view = View(4)),
            EvidenceError::Prepare(1),
            PackageError::EvidenceShape(s1),
        ),
        row(
            "a prepare from another replica",
            prepare_off(&|p| p.replica = ReplicaId(3)),
            EvidenceError::Prepare(1),
            PackageError::EvidenceShape(s1),
        ),
        row(
            "a prepare for another pre-prepare",
            prepare_off(&|p| p.pp_digest = h.pp[1].digest()),
            EvidenceError::Prepare(1),
            PackageError::EvidenceShape(s1),
        ),
        row(
            "a prepare committing to another nonce",
            prepare_off(&|p| p.nonce_commit = GARBAGE.commitment()),
            EvidenceError::Nonce(1),
            PackageError::BadNonce(s1),
        ),
        Row {
            replays: true,
            ..row(
                "a prepare nobody signed",
                with(&|ev| ev.prepares[0].sig.0[7] ^= 1),
                shape(ReceiptError::BadPrepareSig(1)),
                PackageError::BadEvidenceSig(s1),
            )
        },
    ]
}

/// The rule as its callers compose it, over a carrier's core and the pair
/// it orders in.
fn rule(
    config: &Configuration,
    h: &Honest,
    carrier: &PrePrepare,
    evidence: Option<&Evidence>,
) -> Result<Option<BatchCertificate>, EvidenceError> {
    let Some(target) = evidence_target(&carrier.core, P)? else {
        return Ok(None);
    };
    let ev = evidence.expect("the carrier clause found a bitmap");
    let target = &h.pp[target.0 as usize - 1];
    let signers = carrier.core.evidence_bitmap;
    let cert = BatchCertificate::from_evidence(config, target, signers, &ev.prepares, &ev.nonces)?;
    cert.check_shape(config)?;
    let checks = cert.prepare_checks(config, &target.digest())?;
    let passes = |job: &VerifyJob| job.key.verify(&job.msg, &job.sig);
    if let Some(failed) = checks.into_iter().find(|check| !passes(&check.job)) {
        return Err(failed.fails_as.into());
    }
    Ok(Some(cert))
}

fn bootstrap(spec: &ClusterSpec, ledger: &[LedgerEntry]) -> Result<Replica, BootstrapError> {
    Replica::bootstrap(
        ReplicaId(3),
        spec.replica_keys[3].clone(),
        Arc::new(CounterApp),
        spec.params.clone(),
        spec.client_keys(),
        ledger,
    )
}

/// The live backup just before batch 3: two batches committed, the third
/// request's body on hand. With `garbled`, that replica's own commits never
/// arrived and a garbage nonce under its name did.
fn backup_before_s3(spec: &ClusterSpec, h: &Honest, garbled: Option<ReplicaId>) -> DetCluster {
    let mut cluster = cluster_after(spec, 2, garbled);
    let backup = &mut cluster.replicas.get_mut(&BACKUP).expect("backup").inner;
    assert_eq!(backup.ledger().entries(), &h.prefix[..], "the twin holds the same ledger");
    let client = NodeId::Client(spec.clients[0].0);
    backup.handle(Input::Message { from: client, msg: ProtocolMsg::Request(h.request(3)) });
    if let Some(replica) = garbled {
        for seq in [SeqNum(1), SeqNum(2)] {
            let commit = Commit { view: View(0), seq, replica, nonce: GARBAGE };
            let from = NodeId::Replica(replica);
            backup.handle(Input::Message { from, msg: ProtocolMsg::Commit(commit) });
        }
    }
    cluster
}

fn sent_prepare(out: &[Output]) -> bool {
    out.iter().any(|o| matches!(o, Output::BroadcastReplicas(ProtocolMsg::Prepare(_))))
}

#[test]
fn hostile_evidence_gets_one_verdict_at_every_door() {
    let spec = spec();
    let config = &spec.genesis;
    let h = honest(&spec);
    let genesis_config = |_: SeqNum| spec.genesis.clone();
    let state = |c: &DetCluster| {
        let r = c.replica(BACKUP);
        (r.view(), r.ledger().len(), r.prepared_up_to(), r.kv().digest())
    };
    let primary = NodeId::Replica(ReplicaId(0));

    // Control: the same construction over the honest evidence is batch 3 as
    // the honest primary proposed it, and passes every door.
    let (pp, segment) = h.carrier(&spec, &h.prefix, View(0), 3, Some(&h.for_s1));
    assert_eq!(pp, h.pp[2], "the construction reproduces the honest pre-prepare");
    let cert = rule(config, &h, &pp, Some(&h.for_s1)).expect("honest").expect("carried");
    assert_eq!(cert.signers, pp.core.evidence_bitmap);
    let ledger = [&h.prefix[..], &segment[..]].concat();
    let loaded = bootstrap(&spec, &ledger).expect("honest ledger");
    assert_eq!((loaded.committed_up_to(), loaded.prepared_up_to()), (SeqNum(1), SeqNum(3)));
    let validated = validate_package(&ledger, &genesis_config).expect("honest ledger");
    assert_eq!(validated.batch_at(SeqNum(3)).unwrap().evidenced_signers, cert.signer_ids(config));
    let mut cluster = backup_before_s3(&spec, &h, None);
    let msg = ProtocolMsg::PrePrepare { pp, batch: vec![h.request(3).digest()] };
    let backup = &mut cluster.replicas.get_mut(&BACKUP).unwrap().inner;
    assert!(sent_prepare(&backup.handle(Input::Message { from: primary, msg })));
    assert_eq!(cluster.replica(BACKUP).ledger().entries(), &ledger[..]);

    for row in rows(&spec, &h) {
        let what = row.name;
        let (pp, segment) = h.carrier(&spec, &h.prefix, View(0), 3, row.evidence.as_ref());

        // (i) The pure rule: one clause, one refusal.
        let verdict = rule(config, &h, &pp, row.evidence.as_ref());
        assert_eq!(verdict.err(), Some(row.rule.clone()), "{what}");

        // (ii) A live backup, from the primary's id and from a client's:
        // nothing appended, executed, rolled back or prepared.
        for from in [primary, NodeId::Client(spec.clients[0].0)] {
            let mut cluster = backup_before_s3(&spec, &h, row.garbled);
            let before = state(&cluster);
            let batch = vec![h.request(3).digest()];
            let msg = ProtocolMsg::PrePrepare { pp: pp.clone(), batch };
            let backup = &mut cluster.replicas.get_mut(&BACKUP).unwrap().inner;
            let out = backup.handle(Input::Message { from, msg });
            assert!(!sent_prepare(&out), "{what}: a backup must not prepare it");
            assert_eq!(state(&cluster), before, "{what}: a refused pre-prepare changes nothing");
            // A share the backup holds no opening nonce for may yet arrive:
            // it asks the primary. Everything else is dropped in silence.
            let fetch = ProtocolMsg::FetchEvidence { seq: SeqNum(1) };
            match (row.garbled, from) {
                (Some(_), NodeId::Replica(p)) => match &out[..] {
                    [Output::SendReplica(to, msg)] => assert_eq!((*to, msg), (p, &fetch), "{what}"),
                    _ => panic!("{what}: {} outputs", out.len()),
                },
                _ => assert!(out.is_empty(), "{what}: {} outputs", out.len()),
            }
        }

        // (iii) Replay and the auditor read the same ledger the same way.
        let ledger = [&h.prefix[..], &segment[..]].concat();
        match (bootstrap(&spec, &ledger), &row.package) {
            (Ok(_), _) if row.replays => {}
            (Err(BootstrapError::Malformed(_)), PackageError::Malformed(_)) => {}
            (Err(BootstrapError::BadEvidence(at, why)), _) => {
                assert_eq!((at, why), (SeqNum(3), row.rule.clone()), "{what}");
            }
            (other, _) => panic!("{what}: bootstrap said {:?}", other.map(|r| r.committed_up_to())),
        }
        match (validate_package(&ledger, &genesis_config).err(), row.package) {
            (Some(PackageError::Malformed(_)), PackageError::Malformed(_)) => {}
            (got, want) => assert_eq!(got, Some(want), "{what}"),
        }
    }
}

/// The prepares a certificate implies carry the *evidenced* batch's view,
/// not the carrier's: a batch re-proposed after a view change orders in the
/// old view's certificate unchanged, and prepares relabelled to the new
/// view are not that certificate.
#[test]
fn evidence_is_read_under_the_evidenced_batchs_view() {
    let spec = spec();
    let h = honest(&spec);
    let view = View(1);
    let nothing_prepared = |r: u32| {
        signed_view_change(view, ReplicaId(r), vec![], vec![], &spec.replica_keys[r as usize])
    };
    let quorum = vec![nothing_prepared(1), nothing_prepared(2), nothing_prepared(3)];
    let bitmap = ReplicaBitmap::from_ranks([1, 2, 3]);
    let (set, nv) = forge_new_view_pair(&h.prefix, view, quorum, bitmap, &spec.replica_keys[1]);
    let prefix = [h.prefix.clone(), vec![set, LedgerEntry::NewView(nv)]].concat();
    let genesis_config = |_: SeqNum| spec.genesis.clone();

    let (_, segment) = h.carrier(&spec, &prefix, view, 3, Some(&h.for_s1));
    let ledger = [&prefix[..], &segment[..]].concat();
    let loaded = bootstrap(&spec, &ledger).expect("view-0 evidence under a view-1 carrier");
    assert_eq!((loaded.view(), loaded.committed_up_to()), (view, SeqNum(1)));
    validate_package(&ledger, &genesis_config).expect("well-formed");

    let mut relabelled = h.for_s1.clone();
    for (rank, p) in [1, 2].into_iter().zip(&mut relabelled.prepares) {
        *p = resigned(&spec, rank, p, |p| p.view = view);
    }
    let (_, segment) = h.carrier(&spec, &prefix, view, 3, Some(&relabelled));
    let ledger = [&prefix[..], &segment[..]].concat();
    assert_eq!(
        bootstrap(&spec, &ledger).err(),
        Some(BootstrapError::BadEvidence(SeqNum(3), EvidenceError::Prepare(1)))
    );
    assert_eq!(
        validate_package(&ledger, &genesis_config).err(),
        Some(PackageError::EvidenceShape(SeqNum(1)))
    );
}

/// The auditor checks a package's signatures a chunk at a time, and its
/// verdict is still the first failing check in ledger order: of two forged
/// signatures the earlier, a forged prepare before a structural refusal the
/// prepare, and a forgery in the second chunk is still found.
#[test]
fn validate_package_reports_the_first_failure_in_ledger_order() {
    let spec = spec();
    let h = honest(&spec);
    let genesis_config = |_: SeqNum| spec.genesis.clone();
    let verdict = |segment: &[LedgerEntry]| {
        validate_package(&[&h.prefix[..], segment].concat(), &genesis_config).err()
    };
    let forged_prepare = {
        let mut ev = h.for_s1.clone();
        ev.prepares[0].sig.0[7] ^= 1;
        ev
    };
    let (_, segment) = h.carrier(&spec, &h.prefix, View(0), 3, Some(&forged_prepare));
    let pp_at = segment.len() - 2;

    // The prepare (ledger order: evidence before its carrier) and the
    // carrier's own signature.
    let mut both = segment.clone();
    let LedgerEntry::PrePrepare(pp) = &mut both[pp_at] else { panic!("the carrier") };
    pp.sig.0[7] ^= 1;
    assert_eq!(verdict(&both), Some(PackageError::BadEvidenceSig(SeqNum(1))), "two forgeries");
    let (_, honest_evidence) = h.carrier(&spec, &h.prefix, View(0), 3, Some(&h.for_s1));
    let mut carrier_only = honest_evidence.clone();
    let LedgerEntry::PrePrepare(pp) = &mut carrier_only[pp_at] else { panic!("the carrier") };
    pp.sig.0[7] ^= 1;
    assert_eq!(verdict(&carrier_only), Some(PackageError::BadPrePrepareSig(SeqNum(3))));

    // A forged prepare, then a transaction that does not hash to `Ḡ`.
    let mut then_root = segment.clone();
    let LedgerEntry::Tx(tx) = &mut then_root[pp_at + 1] else { panic!("the transaction") };
    tx.result.output.push(0xFF);
    assert_eq!(verdict(&then_root), Some(PackageError::BadEvidenceSig(SeqNum(1))), "then Ḡ");
    let mut root_only = honest_evidence;
    root_only[pp_at + 1] = then_root[pp_at + 1].clone();
    assert_eq!(verdict(&root_only), Some(PackageError::RootMismatch(SeqNum(3))));

    // Past a chunk: the first pre-prepare whose signature the walk meets
    // after the first `SIG_CHUNK`, as the last batch of a ledger that ends
    // there, its signature forged.
    let ledger = cluster_after(&spec, 95, None).replica(BACKUP).ledger().entries().to_vec();
    let mut sigs = 0;
    let past = ledger
        .iter()
        .position(|e| {
            let before = sigs;
            match e {
                LedgerEntry::Evidence { prepares, .. } => sigs += prepares.len(),
                LedgerEntry::PrePrepare(_) => sigs += 1,
                _ => {}
            }
            before >= SIG_CHUNK && matches!(e, LedgerEntry::PrePrepare(_))
        })
        .expect("a ledger long enough for two chunks");
    let txs = ledger[past + 1..].iter().take_while(|e| matches!(e, LedgerEntry::Tx(_))).count();
    let end = past + 1 + txs;
    let mut tail = ledger[..end].to_vec();
    validate_package(&tail, &genesis_config).expect("the honest ledger is well-formed");
    let LedgerEntry::PrePrepare(pp) = &mut tail[past] else { unreachable!() };
    let seq = pp.seq();
    pp.sig.0[7] ^= 1;
    assert_eq!(
        validate_package(&tail, &genesis_config).err(),
        Some(PackageError::BadPrePrepareSig(seq)),
        "a forgery in the second chunk"
    );
}

/// Never blame the innocent. A faulty primary — one replica, within `f` —
/// keeps its commit nonces from the backups and sends them garbage in their
/// place, orders that garbage in as the evidence for batches 1 and 2,
/// leaves the evidence for batch 3 out, and goes silent. The backups used to
/// write all of it down (their own `M̄` matched: they read the same bytes out
/// of the same store), prepare and commit it past the next view change's
/// reach — after which every honest replica's ledger was `BadNonce(s1)` to
/// the auditor, the verdict that incriminates the *server*. Now they refuse
/// to write what an auditor would refuse to read, vote the primary out, and
/// every honest ledger is well-formed and audits clean against every
/// receipt.
#[test]
fn a_faulty_primary_cannot_get_honest_replicas_blamed() {
    let spec = spec();
    let h = honest(&spec);
    let client = spec.clients[0].0;
    let mut cluster = cluster_after(&spec, 2, Some(ReplicaId(0)));
    cluster.crash(ReplicaId(0));
    let backups = [1, 2, 3].map(ReplicaId);

    // What the primary sends before it falls silent: its garbage nonces,
    // and batches 3–5 as described.
    let from = NodeId::Replica(ReplicaId(0));
    let mut hostile: Vec<ProtocolMsg> = [SeqNum(1), SeqNum(2)]
        .map(|seq| Commit { view: View(0), seq, replica: ReplicaId(0), nonce: GARBAGE })
        .map(ProtocolMsg::Commit)
        .into();
    let mut ledger = h.prefix.clone();
    for (s, honest_evidence) in [(3, Some(&h.for_s1)), (4, Some(&h.for_s2)), (5, None)] {
        let garbage = honest_evidence.map(|ev| {
            let nonces = [&[GARBAGE][..], &ev.nonces[1..]].concat();
            Evidence { nonces, ..ev.clone() }
        });
        let (pp, segment) = h.carrier(&spec, &ledger, View(0), s, garbage.as_ref());
        ledger.extend(segment);
        hostile.push(ProtocolMsg::PrePrepare { pp, batch: vec![h.request(s).digest()] });
    }
    // Delivered to every backup, with the request bodies; whatever the
    // backups say to each other in response is delivered too.
    let mut queue = std::collections::VecDeque::new();
    for to in backups {
        for s in 3..=5 {
            let msg = ProtocolMsg::Request(h.request(s));
            queue.push_back((NodeId::Client(client), to, msg));
        }
        queue.extend(hostile.iter().map(|msg| (from, to, msg.clone())));
    }
    while let Some((from, to, msg)) = queue.pop_front() {
        let replica = &mut cluster.replicas.get_mut(&to).expect("backup").inner;
        for out in replica.handle(Input::Message { from, msg }) {
            let sender = NodeId::Replica(to);
            match out {
                Output::BroadcastReplicas(msg) => {
                    assert!(!matches!(msg, ProtocolMsg::Prepare(_)), "{to} prepared garbage");
                    let peers = backups.iter().filter(|peer| **peer != to);
                    queue.extend(peers.map(|peer| (sender, *peer, msg.clone())));
                }
                Output::SendReplica(peer, msg) if backups.contains(&peer) => {
                    queue.push_back((sender, peer, msg));
                }
                _ => {}
            }
        }
    }
    for id in backups {
        assert_eq!(cluster.replica(id).ledger().entries(), &h.prefix[..], "{id} wrote it down");
    }

    // A client still waiting gets the survivors to change view; the queued
    // requests and its own are then served.
    cluster.submit(client, CounterApp::INCR, b"j".to_vec());
    assert!(cluster.run_until_finished(3, 600), "finished {}", cluster.finished.len());
    cluster.assert_ledgers_consistent();
    for id in backups {
        let ordered = cluster.replica(id).ledger().entries().iter();
        assert_eq!(ordered.filter(|e| matches!(e, LedgerEntry::Tx(_))).count(), 6, "{id}");
    }

    let receipts: Vec<StoredReceipt> = cluster
        .finished
        .iter()
        .map(|(_, tx)| StoredReceipt {
            request: tx.request.clone(),
            receipt: tx.receipt.clone().expect("receipts"),
        })
        .collect();
    let under_the_faulty_primary = |r: &StoredReceipt| r.receipt.view() == View(0);
    assert!(receipts.iter().any(under_the_faulty_primary));
    let auditor = Auditor::new(spec.genesis.clone(), Arc::new(CounterApp));
    for id in backups {
        let replica = cluster.replica(id);
        assert!(replica.view() > View(0), "{id} voted the primary out");
        let package = LedgerPackage::from_replica(replica, SeqNum(0));
        validate_package(&package.entries, &|_| spec.genesis.clone())
            .unwrap_or_else(|e| panic!("{id}: an honest replica's ledger is ill-formed: {e}"));
        let outcome = auditor.audit(&receipts, &GovernanceChain::new(), &package);
        assert!(matches!(outcome, AuditOutcome::Clean), "{id}: {:?}", outcome.upom());
    }
}
