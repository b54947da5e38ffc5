//! Determinism smoke test: the single-threaded simulator must be fully
//! reproducible — two clusters built from the same spec ("seed") and
//! driven by the same schedule produce byte-identical ledgers, identical
//! KV digests and identical receipt indices. This is what makes protocol
//! bugs replayable instead of flaky (see `ia_ccf_sim::det`), and what the
//! auditor's replay relies on (§4: re-executing the ledger must be
//! deterministic to compare results against receipts).

use std::sync::Arc;

use ia_ccf::core::app::CounterApp;
use ia_ccf::core::ProtocolParams;
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_types::{LedgerIdx, ReplicaId, Wire};

/// Per-replica wire-encoded ledger entries.
type EncodedLedgers = Vec<Vec<Vec<u8>>>;

/// Drive one cluster through a fixed mixed schedule and return
/// everything observable: per-replica encoded ledgers, KV digests, and
/// the receipt indices in completion order.
fn run_schedule(spec: &ClusterSpec) -> (EncodedLedgers, Vec<[u8; 32]>, Vec<u64>) {
    let mut cluster = DetCluster::new(spec, Arc::new(CounterApp));
    let mut submitted = 0usize;
    for i in 0..30u64 {
        let client = spec.clients[(i % spec.clients.len() as u64) as usize].0;
        cluster.submit(client, CounterApp::INCR, format!("k{}", i % 5).into_bytes());
        submitted += 1;
        if i % 3 == 0 {
            cluster.round();
        }
    }
    assert!(
        cluster.run_until_finished(submitted, 500),
        "only {}/{submitted} finished",
        cluster.finished.len()
    );
    cluster.assert_ledgers_consistent();

    let n = spec.genesis.n() as u32;
    let mut ledgers = Vec::new();
    let mut kv_digests = Vec::new();
    for r in 0..n {
        let replica = cluster.replica(ReplicaId(r));
        let len = replica.ledger().len();
        let entries: Vec<Vec<u8>> = (0..len)
            .map(|i| replica.ledger().entry(LedgerIdx(i)).expect("entry exists").to_bytes())
            .collect();
        ledgers.push(entries);
        kv_digests.push(*replica.kv().digest().as_bytes());
    }
    let indices: Vec<u64> = cluster
        .finished
        .iter()
        .map(|(_, tx)| tx.receipt.as_ref().expect("receipt").tx_index().expect("tx index").0)
        .collect();
    (ledgers, kv_digests, indices)
}

#[test]
fn same_seed_same_schedule_identical_ledgers() {
    let spec_a = ClusterSpec::new(4, 2, ProtocolParams::default());
    let spec_b = ClusterSpec::new(4, 2, ProtocolParams::default());

    let (ledgers_a, kv_a, idx_a) = run_schedule(&spec_a);
    let (ledgers_b, kv_b, idx_b) = run_schedule(&spec_b);

    assert!(!ledgers_a[0].is_empty(), "schedule must produce ledger entries");
    assert_eq!(ledgers_a, ledgers_b, "ledgers must be byte-identical run-to-run");
    assert_eq!(kv_a, kv_b, "KV digests must match run-to-run");
    assert_eq!(idx_a, idx_b, "receipt indices must match run-to-run");
}

#[test]
fn different_schedules_diverge() {
    // Sanity check that the comparison above is not vacuous: a different
    // schedule produces a different ledger.
    let spec = ClusterSpec::new(4, 2, ProtocolParams::default());
    let (ledgers_a, ..) = run_schedule(&spec);

    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    cluster.submit(spec.clients[0].0, CounterApp::INCR, b"other-key".to_vec());
    assert!(cluster.run_until_finished(1, 200));
    let replica = cluster.replica(ReplicaId(0));
    let entries: Vec<Vec<u8>> = (0..replica.ledger().len())
        .map(|i| replica.ledger().entry(LedgerIdx(i)).expect("entry").to_bytes())
        .collect();
    assert_ne!(ledgers_a[0], entries);
}

/// SHA-256 of replica 0's encoded ledger and its final KV digest after the
/// golden run below. Re-pinned once when the store digest moved to
/// bucket digests (99 entries, 20,343 encoded bytes, as before: only the
/// digests in checkpoint marks, pre-prepares and the store moved); any
/// drift in the hash function, the wire codec, the store digest or the
/// name a request is executed under changes them, on any CPU, without
/// running the parent.
const GOLDEN_LEDGER_SHA256: &str =
    "e79289a865fd8cdb1e1bc9e4b4000fbd6b524d3a01a56e3d533a387b60866365";
const GOLDEN_KV_DIGEST: &str = "11a5adda5571c3346a49cf81cfacb2cad3541ff70e03e57de2defcb606754aa3";

#[test]
fn golden_smallbank_ledger_is_pinned() {
    use ia_ccf_smallbank::{load_accounts, SmallBankApp, Workload};

    // Batches of at most 8, a checkpoint every 4 batches: the run crosses
    // sequence number 8, where the first checkpoint mark is ordered.
    let params = ProtocolParams { batch_max: 8, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 2, params)
        .with_config(|c| c.checkpoint_interval = 4)
        .with_pool_threads(1);
    let mut cluster = DetCluster::new(&spec, Arc::new(SmallBankApp));
    let load = load_accounts(16, 1_000);
    assert!(cluster.commit_setup_tx(spec.clients[0].0, load.proc, load.args).ok);
    let mut workload = Workload::new(16, 19);
    let total = 60usize;
    for i in 0..total {
        let op = workload.next_op();
        cluster.submit(spec.clients[i % 2].0, op.proc, op.args);
        if i % 6 == 5 {
            cluster.round();
        }
    }
    assert!(cluster.run_until_finished(total, 500), "finished {}", cluster.finished.len());
    cluster.assert_ledgers_consistent();

    let replica = cluster.replica(ReplicaId(0));
    let mut marks = 0;
    let mut encoded = Vec::new();
    for i in 0..replica.ledger().len() {
        let entry = replica.ledger().entry(LedgerIdx(i)).expect("entry exists");
        if let ia_ccf_types::LedgerEntry::Tx(tx) = &entry {
            marks += usize::from(tx.request.is_system());
        }
        encoded.extend_from_slice(&entry.to_bytes());
    }
    assert!(marks >= 1, "the run must order a checkpoint mark");
    assert_eq!(ia_ccf::crypto::hash_bytes(&encoded).to_string(), GOLDEN_LEDGER_SHA256);
    assert_eq!(replica.kv().digest().to_string(), GOLDEN_KV_DIGEST);
}
