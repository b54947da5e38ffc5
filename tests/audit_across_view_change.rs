//! Auditing a ledger that contains a view change (§3.2: "view changes are
//! auditable"): an honest run whose primary crashed mid-stream must audit
//! **clean** — receipts certified in view 0 for batches re-proposed in
//! view 1 match by content — while a content change across the view change
//! still convicts.

use std::sync::Arc;

use ia_ccf::audit::package::validate_package;
use ia_ccf::audit::{AuditOutcome, Auditor, LedgerPackage, PackageError, StoredReceipt};
use ia_ccf::core::app::CounterApp;
use ia_ccf::core::ProtocolParams;
use ia_ccf::governance::chain::GovernanceChain;
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_types::{LedgerEntry, ReplicaId, SeqNum, View};

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

    let genesis = spec.genesis.clone();
    let mut without_sender = genesis.clone();
    without_sender.replicas.retain(|r| r.id != sender);
    let dropped_from = |first: SeqNum| {
        let (genesis, without_sender) = (genesis.clone(), without_sender.clone());
        move |seq: SeqNum| if seq >= first { without_sender.clone() } else { genesis.clone() }
    };

    // Removed by a later reconfiguration: the view change stays valid.
    let validated = validate_package(&entries, &dropped_from(last.next()));
    assert!(validated.is_ok(), "{:?}", validated.err());
    // Not a replica at the view change's own position: rejected.
    assert_eq!(
        validate_package(&entries, &dropped_from(position)).err(),
        Some(PackageError::BadViewChange(View(1)))
    );
}
