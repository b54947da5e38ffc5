//! Auditing a ledger that contains a view change (§3.2: "view changes are
//! auditable"): an honest run whose primary crashed mid-stream must audit
//! **clean** — receipts certified in view 0 for batches re-proposed in
//! view 1 match by content — while a content change across the view change
//! still convicts.

mod common;

use std::sync::Arc;

use common::{forge_new_view_pair, m_root, signed_view_change};
use ia_ccf::audit::package::validate_package;
use ia_ccf::audit::{AuditOutcome, Auditor, LedgerPackage, PackageError, StoredReceipt, UpomKind};
use ia_ccf::core::app::CounterApp;
use ia_ccf::core::{Input, NodeId, ProtocolParams, Replica};
use ia_ccf::governance::chain::GovernanceChain;
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_types::{
    Digest, LedgerEntry, NewViewMsg, PrePrepare, ProtocolMsg, ReplicaBitmap, ReplicaId, SeqNum,
    Signature, View,
};

/// Six requests in view 0, the primary crashes, six more in view 1.
fn honest_view_change_run() -> (ClusterSpec, DetCluster) {
    let params = ProtocolParams { view_timeout_ticks: 15, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 1, params);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let client = spec.clients[0].0;

    for _ in 0..6 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until_finished(6, 200));

    // Crash the view-0 primary; survivors change view and continue.
    cluster.crash(ReplicaId(0));
    for _ in 0..6 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until_finished(12, 600), "finished {}", cluster.finished.len());
    (spec, cluster)
}

#[test]
fn honest_view_change_audits_clean() {
    let (spec, cluster) = honest_view_change_run();

    let receipts: Vec<StoredReceipt> = cluster
        .finished
        .iter()
        .map(|(_, tx)| StoredReceipt {
            request: tx.request.clone(),
            receipt: tx.receipt.clone().expect("receipts"),
        })
        .collect();
    // Receipts span both views.
    let views: std::collections::BTreeSet<u64> =
        receipts.iter().map(|r| r.receipt.view().0).collect();
    assert!(views.len() >= 2, "views: {views:?}");

    // Audit against a survivor's ledger (which contains the view-change
    // set and new-view entries): must be clean.
    let package = LedgerPackage::from_replica(cluster.replica(ReplicaId(2)), SeqNum(0));
    let has_vc = package
        .entries
        .iter()
        .any(|e| matches!(e, LedgerEntry::ViewChangeSet { .. }));
    assert!(has_vc, "ledger must contain the view change");
    let auditor = Auditor::new(spec.genesis.clone(), Arc::new(CounterApp));
    let outcome = auditor.audit(&receipts, &GovernanceChain::new(), &package);
    assert!(matches!(outcome, AuditOutcome::Clean), "{:?}", outcome.upom());
}

#[test]
fn view_change_ledger_still_convicts_wrong_execution() {
    // Same crash scenario, but every replica runs tampered logic: the
    // audit must still convict from the post-view-change ledger.
    use ia_ccf::core::byzantine::TamperedApp;
    let params = ProtocolParams { view_timeout_ticks: 15, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 1, params);
    let tampered = |_: usize| -> Arc<dyn ia_ccf::core::App> {
        Arc::new(TamperedApp::new(Arc::new(CounterApp), |proc, args, _| {
            (proc == CounterApp::READ && args == b"k").then(|| 424242u64.to_le_bytes().to_vec())
        }))
    };
    let mut cluster = DetCluster::with_apps(&spec, tampered);
    let client = spec.clients[0].0;

    for _ in 0..4 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until_finished(4, 200));
    cluster.crash(ReplicaId(0));
    cluster.submit(client, CounterApp::READ, b"k".to_vec()); // the lie
    assert!(cluster.run_until_finished(5, 600));

    let receipts: Vec<StoredReceipt> = cluster
        .finished
        .iter()
        .map(|(_, tx)| StoredReceipt {
            request: tx.request.clone(),
            receipt: tx.receipt.clone().expect("receipts"),
        })
        .collect();
    let package = LedgerPackage::from_replica(cluster.replica(ReplicaId(1)), SeqNum(0));
    let auditor = Auditor::new(spec.genesis.clone(), Arc::new(CounterApp));
    let outcome = auditor.audit(&receipts, &GovernanceChain::new(), &package);
    let upom = outcome.upom().expect("wrong execution must be found");
    assert_eq!(upom.kind, ia_ccf::audit::UpomKind::WrongExecution);
    assert!(upom.blamed.len() > spec.genesis.f(), "blamed: {:?}", upom.blamed);
}

/// View-change signatures verify under the configuration governing the
/// view change's own position. Checking them under the *latest*
/// configuration would make an honest ledger whose view change predates a
/// reconfiguration that removed one of its senders fail with
/// `BadViewChange` — and incriminate the server that handed it over.
#[test]
fn view_change_senders_are_checked_under_the_configuration_of_their_position() {
    let (spec, cluster) = honest_view_change_run();
    let entries = cluster.replica(ReplicaId(2)).ledger().entries().to_vec();

    // The set, one of its senders, and the sequence number it sits at: the
    // one after the last batch before it.
    let set_at = entries
        .iter()
        .position(|e| matches!(e, LedgerEntry::ViewChangeSet { .. }))
        .expect("ledger must contain the view change");
    let LedgerEntry::ViewChangeSet { view, view_changes } = &entries[set_at] else {
        unreachable!()
    };
    assert_eq!(*view, View(1));
    let sender = view_changes[0].replica;
    let seq_of = |e: &LedgerEntry| match e {
        LedgerEntry::PrePrepare(pp) => Some(pp.seq()),
        _ => None,
    };
    let position = entries[..set_at].iter().rev().find_map(seq_of).expect("batches").next();
    let last = entries.iter().rev().find_map(seq_of).expect("batches");
    assert!(position <= last, "batches follow the view change");

    let genesis = &spec.genesis;
    let mut without_sender = genesis.clone();
    without_sender.replicas.retain(|r| r.id != sender);
    let without_sender = &without_sender;
    let dropped_from =
        |first: SeqNum| move |seq: SeqNum| if seq >= first { without_sender } else { genesis };

    // Removed by a later reconfiguration: the view change stays valid.
    let validated = validate_package(&entries, &dropped_from(last.next()));
    assert!(validated.is_ok(), "{:?}", validated.err());
    // Not a replica at the view change's own position: rejected.
    assert_eq!(
        validate_package(&entries, &dropped_from(position)).err(),
        Some(PackageError::BadViewChange(View(1)))
    );
}

/// A view-change set nobody (or one replica) signed must incriminate the
/// replica that serves it — never the signers of an honest receipt.
///
/// World A is an honest cluster: one `INCR`, and its receipt for sequence
/// number 1 in view 0. World B is the same service with replica 0 down
/// from the start: the survivors change view and order a *different*
/// request at sequence number 1 in view 1. Replica 1, holding only its own
/// key, serves world B's `[genesis, set, new-view, pre-prepare, tx]` with
/// the set swapped for one it can forge, `M̄′` and the pre-prepare's `M̄`
/// re-chained and both re-signed. Taken as a valid view change, the ledger
/// "proves" that the receipt's signers omitted a prepared batch (Lemma 5).
#[test]
fn forged_view_change_sets_incriminate_their_server_not_the_receipt_signers() {
    let params = ProtocolParams { view_timeout_ticks: 15, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 1, params);
    let client = spec.clients[0].0;

    let mut world_a = DetCluster::new(&spec, Arc::new(CounterApp));
    world_a.submit(client, CounterApp::INCR, b"k".to_vec());
    assert!(world_a.run_until_finished(1, 200));
    let (_, tx) = &world_a.finished[0];
    let receipt = StoredReceipt {
        request: tx.request.clone(),
        receipt: tx.receipt.clone().expect("receipt"),
    };
    assert_eq!((receipt.receipt.seq(), receipt.receipt.view()), (SeqNum(1), View(0)));

    let mut world_b = DetCluster::new(&spec, Arc::new(CounterApp));
    world_b.crash(ReplicaId(0));
    world_b.submit(client, CounterApp::INCR, b"another key".to_vec());
    assert!(world_b.run_until_finished(1, 600));
    let honest = world_b.replica(ReplicaId(1)).ledger().entries()[..5].to_vec();
    use LedgerEntry::{Genesis, NewView, PrePrepare as Pp, Tx, ViewChangeSet};
    let [Genesis { .. }, ViewChangeSet { .. }, NewView(_), Pp(pp), Tx(_)] = &honest[..] else {
        panic!("world B's ledger opens with the view change: {honest:?}");
    };
    assert_eq!((pp.seq(), pp.view()), (SeqNum(1), View(1)));

    let key = &spec.replica_keys[1];
    let own = || signed_view_change(View(1), ReplicaId(1), vec![], vec![], key);
    // What replica 1 can put where the set was, and the rest of the ledger
    // made to follow from it.
    let forged_with = |view_changes: Vec<_>, ranks: &[usize]| {
        let bitmap = ReplicaBitmap::from_ranks(ranks.iter().copied());
        let (set, nv) = forge_new_view_pair(&honest[..1], View(1), view_changes, bitmap, key);
        let mut entries = vec![honest[0].clone(), set, LedgerEntry::NewView(nv)];
        let mut pp = pp.clone();
        pp.core.root_m = m_root(&entries);
        pp.sig = key.sign(&PrePrepare::signing_payload(&pp.core, &pp.root_g));
        entries.extend([LedgerEntry::PrePrepare(pp), honest[4].clone()]);
        entries
    };
    // A pair that is not even self-consistent: garbage signature, zero root.
    let garbage = vec![
        honest[0].clone(),
        LedgerEntry::ViewChangeSet { view: View(1), view_changes: vec![] },
        LedgerEntry::NewView(NewViewMsg {
            view: View(1),
            root_m: Digest::zero(),
            vc_bitmap: ReplicaBitmap::empty(),
            vc_entry_hash: Digest::zero(),
            sig: Signature([0xa5; 64]),
        }),
    ];

    let config_for_seq = |_: SeqNum| &spec.genesis;
    let load = |entries: &[LedgerEntry]| {
        Replica::bootstrap(
            ReplicaId(2),
            spec.replica_keys[2].clone(),
            Arc::new(CounterApp),
            spec.params.clone(),
            spec.client_keys(),
            entries,
        )
    };
    let auditor = Auditor::new(spec.genesis.clone(), Arc::new(CounterApp));
    // The receipt's `d_C` is the genesis checkpoint; the server hands it over.
    let checkpoint =
        LedgerPackage::from_replica(world_b.replica(ReplicaId(1)), SeqNum(0)).checkpoint;

    // The honest ledger is a well-formed package and loads.
    assert!(validate_package(&honest, &config_for_seq).is_ok());
    assert_eq!(load(&honest).map(|r| r.view()).map_err(|e| e.to_string()), Ok(View(1)));

    for (what, entries) in [
        ("a set nobody signed", forged_with(vec![], &[])),
        ("one signer three times", forged_with(vec![own(), own(), own()], &[1])),
        ("a garbage new-view over an empty set", garbage),
    ] {
        assert_eq!(
            validate_package(&entries, &config_for_seq).err(),
            Some(PackageError::BadViewChange(View(1))),
            "{what}"
        );
        assert!(load(&entries).is_err(), "{what}: a replica must not load it");
        let package = LedgerPackage { entries, checkpoint: checkpoint.clone() };
        let outcome =
            auditor.audit(std::slice::from_ref(&receipt), &GovernanceChain::new(), &package);
        let upom = outcome.upom().expect("an ill-formed package is a violation");
        assert_eq!(upom.kind, UpomKind::BadPackage, "{what}: {}", upom.details);
        assert!(upom.blamed.is_empty(), "{what}: blamed {:?}", upom.blamed);
    }
}

/// The genuine new-view of a view a replica is already in, delivered once
/// more — by anyone — is dropped before it can start anything. It used to
/// look like news: the chosen batch has since been re-proposed under a new
/// digest, so the replica "lacked" it and started a ledger sync whose
/// completion re-entered the same path, without end.
#[test]
fn redelivered_new_view_is_dropped() {
    let (spec, mut cluster) = honest_view_change_run();
    let client = spec.clients[0].0;
    let target = ReplicaId(2);
    let ledger = cluster.replica(target).ledger().entries();
    let msg = ledger
        .windows(2)
        .find_map(|pair| match pair {
            [LedgerEntry::ViewChangeSet { view_changes, .. }, LedgerEntry::NewView(nv)] => {
                Some(ProtocolMsg::NewView { nv: nv.clone(), view_changes: view_changes.clone() })
            }
            _ => None,
        })
        .expect("ledger must contain the view change");

    let state = |c: &DetCluster| {
        let r = c.replica(target);
        (r.view(), r.ledger().len(), r.prepared_up_to(), r.committed_up_to(), r.kv().digest())
    };
    let before = state(&cluster);
    let committed_before = cluster.min_committed();
    for from in [NodeId::Client(client), NodeId::Replica(ReplicaId(3))] {
        let replica = &mut cluster.replicas.get_mut(&target).expect("survivor").inner;
        let out = replica.handle(Input::Message { from, msg: msg.clone() });
        assert!(out.is_empty(), "a re-delivered new-view sends nothing (no sync either)");
        assert_eq!(state(&cluster), before);
    }

    for _ in 0..3 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until_finished(15, 200), "finished {}", cluster.finished.len());
    assert!(
        cluster.run_until(200, |c| c.min_committed() >= SeqNum(committed_before.0 + 3)),
        "every survivor commits the three new batches"
    );
    cluster.assert_ledgers_consistent();
}
