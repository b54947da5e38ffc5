//! Differential harness for the worker-pool size.
//!
//! Execution is serial: a replica runs a batch's requests one after
//! another through the rule the auditor replays. The worker pool
//! (`ProtocolParams::pool_threads`) carries batched client-signature
//! verification and its cross-batch prewarm, and is a local knob, never a
//! consensus parameter: for **any** pool size a replica produces
//! byte-identical ledger entries, KV digests, receipts and outputs to an
//! inline replica (pool = 1) driven by the same schedule. This harness
//! proves it differentially: proptest-generated SmallBank schedules, with
//! a conflict-skew parameter sweeping hot-key contention from 0% to 100%
//! ([`ia_ccf_smallbank::HOT_ACCOUNTS`]), run on pooled clusters (pool
//! threads ∈ {2, 8}) and an inline cluster from the same seed. On top of
//! byte equality, every ledger must replay **clean through the auditor**.

use std::sync::Arc;

use ia_ccf::audit::{AuditOutcome, Auditor, LedgerPackage, StoredReceipt, UpomKind};
use ia_ccf::core::ProtocolParams;
use ia_ccf::governance::chain::GovernanceChain;
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_smallbank::{load_accounts, SmallBankApp, Workload, WorkloadOp};
use ia_ccf_types::{
    ClientId, GovAction, LedgerEntry, LedgerIdx, MemberId, PrePrepare, ReplicaId, Request,
    RequestAction, SeqNum, SignedRequest, SystemOp, TxLedgerEntry, Wire,
};
use proptest::prelude::*;

const ACCOUNTS: u64 = 12; // small account set → frequent contention
const INITIAL: i64 = 500;
const N_CLIENTS: usize = 3;

/// Everything observable about one run: per-replica encoded ledgers, KV
/// digests, and the encoded receipts + outputs in completion order.
#[derive(PartialEq, Eq, Debug)]
struct Observed {
    ledgers: Vec<Vec<Vec<u8>>>,
    kv_digests: Vec<[u8; 32]>,
    receipts: Vec<Vec<u8>>,
    outputs: Vec<(bool, Vec<u8>)>,
}

/// Drive one cluster with `pool` worker-pool threads through `ops` and
/// collect everything observable; also audit the resulting ledger against
/// the receipts. The second return is the total number of tasks the
/// replicas' worker pools executed — zero proves a run stayed fully
/// inline.
fn run(pool: usize, ops: &[WorkloadOp]) -> (Observed, u64) {
    let spec =
        ClusterSpec::new(4, N_CLIENTS, ProtocolParams::default()).with_pool_threads(pool);
    let mut cluster = DetCluster::new(&spec, Arc::new(SmallBankApp));
    let load = load_accounts(ACCOUNTS, INITIAL);
    assert!(cluster.commit_setup_tx(spec.clients[0].0, load.proc, load.args).ok);

    for (i, op) in ops.iter().enumerate() {
        let client = spec.clients[i % N_CLIENTS].0;
        cluster.submit(client, op.proc, op.args.clone());
        if i % 4 == 3 {
            cluster.round();
        }
    }
    assert!(
        cluster.run_until_finished(ops.len(), 1_000),
        "{pool} pool threads: finished {}/{}",
        cluster.finished.len(),
        ops.len()
    );
    cluster.assert_ledgers_consistent();

    // Audit: replay the ledger against every receipt the clients
    // collected.
    let receipts: Vec<StoredReceipt> = cluster
        .finished
        .iter()
        .map(|(_, tx)| StoredReceipt {
            request: tx.request.clone(),
            receipt: tx.receipt.clone().expect("receipts enabled"),
        })
        .collect();
    let package = LedgerPackage::from_replica(cluster.replica(ReplicaId(1)), SeqNum(0));
    let auditor = Auditor::new(spec.genesis.clone(), Arc::new(SmallBankApp));
    let outcome = auditor.audit(&receipts, &GovernanceChain::new(), &package);
    assert!(
        matches!(outcome, AuditOutcome::Clean),
        "{pool} pool threads: audit not clean: {:?}",
        outcome.upom()
    );

    let n = spec.genesis.n() as u32;
    let mut ledgers = Vec::new();
    let mut kv_digests = Vec::new();
    for r in 0..n {
        let replica = cluster.replica(ReplicaId(r));
        ledgers.push(
            (0..replica.ledger().len())
                .map(|i| replica.ledger().entry(LedgerIdx(i)).expect("entry").to_bytes())
                .collect(),
        );
        kv_digests.push(*replica.kv().digest().as_bytes());
    }
    let pool_tasks = (0..n).map(|r| cluster.replica(ReplicaId(r)).pool().tasks_completed()).sum();
    (
        Observed {
            ledgers,
            kv_digests,
            receipts: cluster
                .finished
                .iter()
                .map(|(_, tx)| tx.receipt.as_ref().expect("receipt").to_bytes())
                .collect(),
            outputs: cluster.finished.iter().map(|(_, tx)| (tx.ok, tx.output.clone())).collect(),
        },
        pool_tasks,
    )
}

fn schedule(seed: u64, skew_pct: u8, len: usize) -> Vec<WorkloadOp> {
    let mut w = Workload::with_skew(ACCOUNTS, seed, skew_pct);
    (0..len).map(|_| w.next_op()).collect()
}

/// The sweep: pool sizes at representative skews, fixed seed —
/// byte-identical everything.
#[test]
fn pool_size_sweep_is_byte_identical_across_skews() {
    for skew in [0u8, 50, 100] {
        let ops = schedule(4242 + skew as u64, skew, 32);
        let (inline, inline_tasks) = run(1, &ops);
        assert_eq!(inline_tasks, 0, "a 1-thread pool must never dispatch tasks");
        assert!(!inline.ledgers[0].is_empty(), "schedule produced no entries");
        assert_eq!(inline.receipts.len(), ops.len());
        for pool in [2usize, 8] {
            let (pooled, tasks) = run(pool, &ops);
            assert_eq!(pooled, inline, "skew {skew}%: {pool} pool threads diverged from inline");
            assert!(tasks > 0, "skew {skew}%: {pool} pool threads never engaged the pool");
        }
    }
}

/// A history with every kind of transaction the execution rule knows —
/// the accounts' bulk load, successful and failing (insufficient funds)
/// application transactions, a referendum that passes, in-band checkpoint
/// marks and the reconfiguration schedule's own mark — with `pool`
/// worker-pool threads. Returns the spec, a replica's ledger, the
/// governance chain and the clients' receipts.
fn mixed_history(
    pool: usize,
) -> (ClusterSpec, Vec<LedgerEntry>, GovernanceChain, Vec<StoredReceipt>) {
    const C: u64 = 4;
    let spec = ClusterSpec::new(4, N_CLIENTS, ProtocolParams::default())
        .with_config(|c| c.checkpoint_interval = C)
        .with_pool_threads(pool);
    let mut cluster = DetCluster::new(&spec, Arc::new(SmallBankApp));
    let load = load_accounts(ACCOUNTS, INITIAL);
    assert!(cluster.commit_setup_tx(spec.clients[0].0, load.proc, load.args).ok);

    // Three requests a round — two drawn from the workload, one transfer
    // no account can afford — until the history holds checkpoint marks.
    let mut workload = Workload::with_skew(ACCOUNTS, 7, 50);
    let mut submitted = 0;
    let mut traffic = |cluster: &mut DetCluster, rounds: u64| {
        for round in 0..rounds {
            let overdraft = WorkloadOp {
                proc: ia_ccf_smallbank::TRANSFER,
                args: [
                    (round % ACCOUNTS).to_le_bytes(),
                    ((round + 1) % ACCOUNTS).to_le_bytes(),
                    (100 * INITIAL).to_le_bytes(),
                ]
                .concat(),
            };
            let ops = [workload.next_op(), overdraft, workload.next_op()];
            for (i, op) in ops.into_iter().enumerate() {
                cluster.submit(spec.clients[i].0, op.proc, op.args);
                submitted += 1;
            }
            cluster.round();
        }
        assert!(
            cluster.run_until_finished(submitted, 1_000),
            "{pool} pool threads: finished {}/{submitted}",
            cluster.finished.len()
        );
    };
    traffic(&mut cluster, 3 * C);

    // A referendum re-electing the same replicas as configuration 1:
    // propose, then votes up to the threshold.
    let gt_hash = cluster.replica(ReplicaId(0)).gt_hash();
    let mut new_config = spec.genesis.clone();
    new_config.number = 1;
    let govern = |cluster: &mut DetCluster, member: u32, action: GovAction, req_id: u64| {
        let request = Request {
            action: RequestAction::Governance(action),
            client: ClientId(member as u64),
            gt_hash,
            min_index: LedgerIdx(0),
            req_id,
        };
        let signed = SignedRequest::sign(request, &spec.member_keys[MemberId(member).0 as usize]);
        cluster.submit_raw(ClientId(member as u64), signed);
        cluster.round();
    };
    govern(&mut cluster, 0, GovAction::Propose { proposal_id: 1, new_config }, 1);
    for member in 0..spec.genesis.vote_threshold {
        govern(&mut cluster, member, GovAction::Vote { proposal_id: 1, approve: true }, 10);
    }
    assert!(
        cluster
            .run_until(400, |c| c.replicas.values().all(|r| r.inner.active_config().number == 1)),
        "{pool} pool threads: configuration 1 never activated"
    );
    traffic(&mut cluster, C);
    cluster.assert_ledgers_consistent();

    let replica = cluster.replica(ReplicaId(1));
    let mut chain = GovernanceChain::new();
    for link in replica.gov_chain() {
        chain.push(link.clone());
    }
    let receipts = cluster
        .finished
        .iter()
        .map(|(_, tx)| StoredReceipt {
            request: tx.request.clone(),
            receipt: tx.receipt.clone().expect("receipts enabled"),
        })
        .collect();
    (spec, replica.ledger().entries().to_vec(), chain, receipts)
}

/// The differential for the shared execution rule
/// (`ia_ccf::core::execute`): what the replicas recorded — inline or on a
/// pool — is what the auditor's replay from the empty store recomputes,
/// for every kind of transaction; and a ledger that records anything
/// else, by as little as one output byte or one digest bit, convicts.
#[test]
fn mixed_history_audits_clean_and_any_other_recorded_result_convicts() {
    let (spec, inline, chain, receipts) = mixed_history(1);
    let (_, pooled, _, _) = mixed_history(2);
    assert_eq!(
        inline.iter().map(Wire::to_bytes).collect::<Vec<_>>(),
        pooled.iter().map(Wire::to_bytes).collect::<Vec<_>>(),
        "2 pool threads diverged from inline"
    );

    let tx_of = |e: &LedgerEntry| match e {
        LedgerEntry::Tx(tx) => Some(tx.clone()),
        _ => None,
    };
    let txs: Vec<TxLedgerEntry> = pooled.iter().filter_map(tx_of).collect();
    let is_app = |tx: &TxLedgerEntry| !tx.request.is_governance() && !tx.request.is_system();
    assert!(txs.iter().any(|tx| is_app(tx) && !tx.result.ok), "no failing app transaction");
    assert!(
        txs.iter().any(|tx| tx.request.is_governance()
            && tx.result.output == ia_ccf::governance::chain::GOV_OUTPUT_PASSED),
        "no passed referendum"
    );
    assert!(txs.iter().filter(|tx| tx.request.is_system()).count() >= 3, "too few marks");

    // Seq 0 is the empty store by construction: the audit replays the
    // whole history, bulk load included.
    let auditor = Auditor::new(spec.genesis.clone(), Arc::new(SmallBankApp));
    let genesis_cp = ia_ccf::kv::KvCheckpoint::from_entries(Default::default());
    let audit = |entries: Vec<LedgerEntry>, receipts: &[StoredReceipt]| {
        let package = LedgerPackage { entries, checkpoint: Some((SeqNum(0), genesis_cp.clone())) };
        auditor.audit(receipts, &chain, &package)
    };
    for ledger in [&inline, &pooled] {
        let outcome = audit(ledger.clone(), &receipts);
        assert!(matches!(outcome, AuditOutcome::Clean), "audit not clean: {:?}", outcome.upom());
    }

    // A ledger cut after the batch holding the first transaction `pick`
    // selects, with `lie` applied to that entry and the batch's
    // pre-prepare re-sealed over the lie by its primary: well-formed,
    // signed, and wrong.
    let lying_ledger = |pick: &dyn Fn(&TxLedgerEntry) -> bool, lie: &dyn Fn(&mut TxLedgerEntry)| {
        let at = pooled
            .iter()
            .position(|e| tx_of(e).is_some_and(|tx| pick(&tx)))
            .expect("the history holds such a transaction");
        let pp_at =
            (0..at).rev().find(|&i| matches!(pooled[i], LedgerEntry::PrePrepare(_))).unwrap();
        let end =
            (at..pooled.len()).find(|&i| tx_of(&pooled[i]).is_none()).unwrap_or(pooled.len());
        let mut entries = pooled[..end].to_vec();
        let LedgerEntry::Tx(tx) = &mut entries[at] else { unreachable!() };
        lie(tx);
        let leaves = entries[pp_at + 1..].iter().map(|e| tx_of(e).expect("tx run").g_leaf());
        let root_g = ia_ccf::merkle::MerkleTree::from_leaves(leaves).root();
        let LedgerEntry::PrePrepare(pp) = &mut entries[pp_at] else { unreachable!() };
        pp.root_g = root_g;
        let primary = &spec.replica_keys[pp.core.primary.0 as usize];
        pp.sig = primary.sign(&PrePrepare::signing_payload(&pp.core, &root_g));
        let seq = pp.seq();
        (entries, seq)
    };
    type Pick = Box<dyn Fn(&TxLedgerEntry) -> bool>;
    type Lie = Box<dyn Fn(&mut TxLedgerEntry)>;
    let lies: Vec<(&str, Pick, Lie)> = vec![
        (
            "a failed transfer's error text",
            Box::new(move |tx| is_app(tx) && !tx.result.ok),
            Box::new(|tx| tx.result.output[0] ^= 1),
        ),
        (
            "a committed transaction's output",
            Box::new(move |tx| is_app(tx) && tx.result.ok && tx.index.0 > 1),
            Box::new(|tx| tx.result.output[0] ^= 1),
        ),
        (
            "a failed transaction recorded as committed",
            Box::new(move |tx| is_app(tx) && !tx.result.ok),
            Box::new(|tx| tx.result.ok = true),
        ),
        (
            "the passing vote's write-set digest",
            Box::new(|tx| tx.result.output == ia_ccf::governance::chain::GOV_OUTPUT_PASSED),
            Box::new(|tx| tx.result.write_set_digest.0[31] ^= 1),
        ),
        (
            "the passing vote recorded as merely recorded",
            Box::new(|tx| tx.result.output == ia_ccf::governance::chain::GOV_OUTPUT_PASSED),
            Box::new(|tx| {
                tx.result.output = ia_ccf::governance::chain::GOV_OUTPUT_RECORDED.to_vec()
            }),
        ),
        (
            "a checkpoint mark's digest",
            Box::new(|tx| tx.request.is_system()),
            Box::new(|tx| {
                let RequestAction::System(SystemOp::CheckpointMark { kv_digest, .. }) =
                    &mut tx.request.request.action
                else {
                    unreachable!()
                };
                kv_digest.0[0] ^= 1;
            }),
        ),
        (
            "a checkpoint mark given a write set",
            Box::new(|tx| tx.request.is_system()),
            Box::new(|tx| tx.result.write_set_digest.0[0] ^= 1),
        ),
    ];
    for (what, pick, lie) in &lies {
        let (entries, seq) = lying_ledger(pick, lie);
        // Receipts of earlier batches only: one for the lying batch itself
        // would contradict the ledger before replay got to it.
        let earlier: Vec<StoredReceipt> =
            receipts.iter().filter(|r| r.receipt.seq() < seq).cloned().collect();
        let outcome = audit(entries, &earlier);
        let upom = outcome.upom().unwrap_or_else(|| panic!("{what}: audited clean"));
        assert_eq!(upom.kind, UpomKind::WrongExecution, "{what}: {}", upom.details);
        assert_eq!(upom.at_seq, seq, "{what}: {}", upom.details);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Random schedules and skews: pooled (2 and 8 threads) ≡ inline,
    /// and every ledger audits clean (asserted inside `run`).
    #[test]
    fn differential_pooled_vs_inline(
        seed in any::<u64>(),
        skew in 0..=100u8,
        len in 8..36usize,
    ) {
        let ops = schedule(seed, skew, len);
        let (inline, _) = run(1, &ops);
        for pool in [2usize, 8] {
            let (pooled, _) = run(pool, &ops);
            prop_assert_eq!(
                &pooled, &inline,
                "seed {} skew {}% len {}: {} pool threads diverged", seed, skew, len, pool
            );
        }
    }
}
