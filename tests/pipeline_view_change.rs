//! Pipelined batches across a view change (Lemma 1): a batch that was
//! *executed but not committed* when the view changed must be rolled back
//! via its `BatchMark` and re-executed identically in the new view — same
//! request, same transaction index, same result, byte-identical ledger
//! `⟨t, i, o⟩` entry — and the post-view-change ledger must still audit
//! clean.
//!
//! The scenario: every replica drops its outbound commits
//! (`Fault::DropCommits`), so the batch's pre-prepare and prepares flow —
//! every replica early-executes and *prepares* the batch — but nobody can
//! ever commit it. Then the primary crashes and the survivors run a view
//! change: the new primary resets the pipeline, rolls the executed batch
//! back to its `BatchMark`, and re-proposes it with byte-identical
//! content in the new view, where re-execution must reproduce it exactly
//! (early execution is deterministic, Lemma 2).

mod common;

use std::sync::Arc;

use common::{forge_new_view_pair, signed_view_change};
use ia_ccf::audit::package::validate_package;
use ia_ccf::audit::{
    AuditOutcome, Auditor, LedgerPackage, PackageError, StoredReceipt, UpomKind,
};
use ia_ccf::core::app::CounterApp;
use ia_ccf::core::byzantine::Fault;
use ia_ccf::core::{BootstrapError, Input, NodeId, Output, ProtocolParams, Replica};
use ia_ccf::governance::chain::{GovLink, GovernanceChain};
use ia_ccf::ledger::validity::{check_new_view, check_view_change, Refused};
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_types::{
    ClientId, Commit, GovAction, KeyPair, LedgerEntry, MemberDesc, MemberId, NonceCommitment,
    PrePrepare, Prepare, ProtocolMsg, Reply, ReplicaBitmap, ReplicaDesc, ReplicaId, Request,
    RequestAction, SeqNum, Signature, SignedRequest, View, Wire,
};

/// The wire bytes of every `⟨t, i, o⟩` entry in a replica's ledger.
fn tx_entries(cluster: &DetCluster, id: ReplicaId) -> Vec<Vec<u8>> {
    cluster
        .replica(id)
        .ledger()
        .entries()
        .iter()
        .filter(|e| matches!(e, LedgerEntry::Tx(_)))
        .map(|e| e.to_bytes())
        .collect()
}

/// Drive a cluster into the frozen state: one batch executed and prepared
/// on every replica, committed nowhere.
fn freeze_one_batch(cluster: &mut DetCluster, client: ia_ccf_types::ClientId) {
    for r in 0..4 {
        cluster.set_fault(ReplicaId(r), Fault::DropCommits);
    }
    cluster.submit(client, CounterApp::INCR, b"k".to_vec());
    for _ in 0..5 {
        cluster.round();
    }
    for r in 0..4 {
        let replica = cluster.replica(ReplicaId(r));
        assert_eq!(replica.prepared_up_to(), SeqNum(1), "replica {r} must prepare");
        assert_eq!(replica.committed_up_to(), SeqNum(0), "replica {r} must not commit it");
    }
}

#[test]
fn executed_uncommitted_batch_rolls_back_and_reexecutes_identically() {
    let params = ProtocolParams { view_timeout_ticks: 15, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 1, params);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let client = spec.clients[0].0;

    freeze_one_batch(&mut cluster, client);
    // The executed batch is in every ledger; capture a backup's copy.
    let before: Vec<Vec<u8>> = tx_entries(&cluster, ReplicaId(1));
    assert_eq!(before.len(), 1, "batch must be executed (ledgered) before the view change");

    // Crash the view-0 primary and heal the survivors. Their liveness
    // timers fire (prepared-but-uncommitted work is pending work) and
    // view 1 takes over.
    cluster.crash(ReplicaId(0));
    for r in 1..4 {
        cluster.set_fault(ReplicaId(r), Fault::None);
    }
    assert!(
        cluster.run_until(400, |c| c.min_committed() >= SeqNum(1)),
        "rolled-back batch must recommit in the new view"
    );

    // The survivors moved past view 0 and the batch committed there.
    for r in 1..4 {
        assert!(cluster.replica(ReplicaId(r)).view().0 >= 1, "replica {r} stuck in view 0");
    }
    // The new view re-executed the batch *identically*: same request,
    // same transaction index, same result — the ledger's ⟨t, i, o⟩ entry
    // is byte-for-byte the one that was rolled back.
    for r in 1..4 {
        let after = tx_entries(&cluster, ReplicaId(r));
        assert_eq!(after, before, "replica {r}: re-executed entry must be byte-identical");
    }
    // Exactly-once execution: the counter is 1, not 2 — rollback undid
    // the first execution's state before the re-execution.
    for r in 1..4 {
        let v = cluster.replica(ReplicaId(r)).kv().get(b"k").expect("key exists");
        assert_eq!(v, &1u64.to_le_bytes().to_vec(), "replica {r}: rollback must undo state");
    }
    // And the re-proposal went through a fresh pre-prepare in view 1.
    let survivor = cluster.replica(ReplicaId(1));
    let pp = survivor.ledger().pp_at(SeqNum(1)).expect("re-proposed pre-prepare");
    assert!(pp.view().0 >= 1, "seq 1 must be governed by the new view's pre-prepare");
    cluster.assert_ledgers_consistent();
}

#[test]
fn rolled_back_governance_tx_reexecutes_identically() {
    // A governance transaction mutates replica-local governance state
    // *during* execution (the proposal book), so rollback must restore
    // that too — otherwise re-execution in the new view collides with its
    // own earlier side effects (duplicate proposal) and produces a
    // different result than the rolled-back run, breaking both ledger
    // byte-identity and audit replay.
    let params = ProtocolParams { view_timeout_ticks: 15, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 1, params);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let gt = cluster.replica(ReplicaId(0)).gt_hash();

    for r in 0..4 {
        cluster.set_fault(ReplicaId(r), Fault::DropCommits);
    }
    // Member 0 proposes a *valid* next configuration (number + 1, one
    // endorsed replica added) so the first execution genuinely mutates
    // the proposal book (outcome: Recorded, ok = true).
    let mut next = spec.genesis.clone();
    next.number = spec.genesis.number + 1;
    let member_kp = KeyPair::from_label("member-4");
    let replica_kp = KeyPair::from_label("replica-4");
    next.members.push(MemberDesc { id: MemberId(4), key: member_kp.public() });
    let payload = ReplicaDesc::endorsement_payload(ReplicaId(4), &replica_kp.public());
    next.replicas.push(ReplicaDesc {
        id: ReplicaId(4),
        key: replica_kp.public(),
        operator: MemberId(4),
        endorsement: member_kp.sign(&payload),
    });
    let propose = SignedRequest::sign(
        Request {
            action: RequestAction::Governance(GovAction::Propose {
                proposal_id: 1,
                new_config: next,
            }),
            client: ClientId(0),
            gt_hash: gt,
            min_index: ia_ccf_types::LedgerIdx(0),
            req_id: 1,
        },
        &spec.member_keys[0],
    );
    cluster.submit_raw(ClientId(0), propose);
    for _ in 0..5 {
        cluster.round();
    }
    for r in 0..4 {
        let replica = cluster.replica(ReplicaId(r));
        assert_eq!(replica.prepared_up_to(), SeqNum(1), "replica {r} must prepare");
        assert_eq!(replica.committed_up_to(), SeqNum(0), "replica {r} must not commit");
    }
    let before = tx_entries(&cluster, ReplicaId(1));
    assert_eq!(before.len(), 1, "the governance tx must be executed (ledgered)");
    match LedgerEntry::from_bytes(&before[0]).unwrap() {
        LedgerEntry::Tx(tx) => assert!(tx.result.ok, "the propose must have been recorded"),
        other => panic!("expected tx entry, got {other:?}"),
    }

    cluster.crash(ReplicaId(0));
    for r in 1..4 {
        cluster.set_fault(ReplicaId(r), Fault::None);
    }
    assert!(
        cluster.run_until(400, |c| c.min_committed() >= SeqNum(1)),
        "governance batch must recommit in the new view"
    );
    for r in 1..4 {
        let after = tx_entries(&cluster, ReplicaId(r));
        assert_eq!(
            after, before,
            "replica {r}: re-executed governance entry must be byte-identical \
             (a result mismatch means governance state was not rolled back)"
        );
    }
    cluster.assert_ledgers_consistent();
}

#[test]
fn sharded_batch_rolls_back_and_reexecutes_identically() {
    // Rollback under a pooled replica: a multi-transaction SmallBank batch
    // is executed, prepared everywhere, committed nowhere — with the
    // admission stage's signature verification overlapping execution on
    // the pool. The view change must roll the store back via the
    // `BatchMark` and the new view's re-execution must be byte-identical —
    // and identical to an inline (1 pool thread) cluster driven through
    // the exact same schedule, crash included. The sweep covers pool sizes.
    let run = |pool: usize| -> (Vec<Vec<u8>>, Vec<[u8; 32]>) {
        let params = ProtocolParams {
            view_timeout_ticks: 15,
            pool_threads: pool,
            ..ProtocolParams::default()
        };
        let spec = ClusterSpec::new(4, 1, params);
        let mut cluster = DetCluster::new(&spec, Arc::new(ia_ccf_smallbank::SmallBankApp));
        let client = spec.clients[0].0;
        // The accounts are the ledger's first transaction (batch 1); the
        // batch under test is batch 2.
        let load = ia_ccf_smallbank::load_accounts(8, 1_000);
        assert!(cluster.commit_setup_tx(client, load.proc, load.args).ok);

        for r in 0..4 {
            cluster.set_fault(ReplicaId(r), Fault::DropCommits);
        }
        // One batch, six transactions: two transfers sharing account 1,
        // independent ops on other accounts, and an overdraft that fails.
        let amount = |v: i64| v.to_le_bytes();
        let acct = |a: u64| a.to_le_bytes();
        let ops: Vec<(ia_ccf_types::ProcId, Vec<u8>)> = vec![
            (ia_ccf_smallbank::TRANSFER, [acct(0), acct(1), amount(100)].concat()),
            (ia_ccf_smallbank::TRANSFER, [acct(1), acct(2), amount(50)].concat()),
            (ia_ccf_smallbank::DEPOSIT, [acct(3), amount(250)].concat()),
            (ia_ccf_smallbank::WITHDRAW, [acct(4), amount(40)].concat()),
            (ia_ccf_smallbank::BALANCE, acct(5).to_vec()),
            (ia_ccf_smallbank::TRANSFER, [acct(6), acct(7), amount(9_999)].concat()),
        ];
        for (proc, args) in ops {
            cluster.submit(client, proc, args);
        }
        for _ in 0..5 {
            cluster.round();
        }
        for r in 0..4 {
            let replica = cluster.replica(ReplicaId(r));
            assert_eq!(replica.prepared_up_to(), SeqNum(2), "replica {r} must prepare");
            assert_eq!(replica.committed_up_to(), SeqNum(1), "replica {r} must not commit");
        }
        let before = tx_entries(&cluster, ReplicaId(1));
        assert_eq!(before.len(), 1 + 6, "the load and all six txs must be executed (ledgered)");

        cluster.crash(ReplicaId(0));
        for r in 1..4 {
            cluster.set_fault(ReplicaId(r), Fault::None);
        }
        assert!(
            cluster.run_until(400, |c| c.min_committed() >= SeqNum(2)),
            "{pool} pool threads: batch must recommit in the new view"
        );
        for r in 1..4 {
            let after = tx_entries(&cluster, ReplicaId(r));
            assert_eq!(
                after, before,
                "{pool} pool threads, replica {r}: re-execution must be byte-identical"
            );
        }
        // Exactly-once: the deposit landed once, not twice — rollback
        // restored account 3 before re-execution.
        for r in 1..4 {
            let kv = cluster.replica(ReplicaId(r)).kv();
            let b = ia_ccf_smallbank::Balances::from_bytes(
                kv.get(&ia_ccf_smallbank::account_key(3)).expect("account 3"),
            );
            assert_eq!(b.savings, 1_250, "replica {r}: deposit must apply exactly once");
        }
        cluster.assert_ledgers_consistent();
        (
            tx_entries(&cluster, ReplicaId(2)),
            (1..4)
                .map(|r| *cluster.replica(ReplicaId(r)).kv().digest().as_bytes())
                .collect(),
        )
    };

    let inline = run(1);
    for pool in [8, 2] {
        assert_eq!(
            run(pool),
            inline,
            "{pool} pool threads: rollback/re-execution diverged from the inline run"
        );
    }
}

/// The member proposal every governance row below orders at seq 1: a
/// recorded, non-passing `Propose`, so it is one link and no boundary.
fn submit_proposal(cluster: &mut DetCluster, spec: &ClusterSpec) -> SignedRequest {
    let mut next = spec.genesis.clone();
    next.number = spec.genesis.number + 1;
    let propose = SignedRequest::sign(
        Request {
            action: RequestAction::Governance(GovAction::Propose {
                proposal_id: 1,
                new_config: next,
            }),
            client: ClientId(0),
            gt_hash: cluster.replica(ReplicaId(0)).gt_hash(),
            min_index: ia_ccf_types::LedgerIdx(0),
            req_id: 1,
        },
        &spec.member_keys[0],
    );
    cluster.submit_raw(ClientId(0), propose.clone());
    propose
}

/// The governance sub-ledger a replay of `id`'s ledger yields.
fn replayed_gov_chain(cluster: &DetCluster, spec: &ClusterSpec, id: ReplicaId) -> Vec<GovLink> {
    let replayed = Replica::bootstrap(
        id,
        spec.replica_keys[id.0 as usize].clone(),
        Arc::new(CounterApp),
        spec.params.clone(),
        spec.client_keys(),
        cluster.replica(id).ledger().entries(),
    )
    .expect("the ledger replays");
    replayed.gov_chain().to_vec()
}

/// After a view change, each survivor's chain is the one link for the
/// proposal at seq 1, in `view`, verifies from genesis and is what a
/// replay of its own ledger yields, byte for byte.
fn assert_relinked(cluster: &DetCluster, spec: &ClusterSpec, view: View) {
    let reference = cluster.replica(ReplicaId(1)).gov_chain().to_vec();
    for r in 1..4 {
        let id = ReplicaId(r);
        let chain = cluster.replica(id).gov_chain();
        assert_eq!(chain.len(), 1, "replica {r}: exactly one governance link");
        assert_eq!(chain[0].receipt().seq(), SeqNum(1));
        assert_eq!(chain[0].receipt().view(), view, "replica {r}: the link's view");
        let rebuilt = GovernanceChain { links: chain.to_vec() };
        assert!(rebuilt.verify(&spec.genesis).is_ok(), "replica {r}: chain verifies");
        assert_eq!(chain, &reference[..], "replica {r}: chains agree");
        assert_eq!(chain, &replayed_gov_chain(cluster, spec, id)[..], "replica {r}: replay");
    }
    cluster.assert_ledgers_consistent();
}

#[test]
fn view_change_evicts_cached_receipt_artifacts() {
    // A governance batch's link is made when its carrier — the batch P
    // later, which ledgers its evidence — enters the ledger. Here the
    // carrier enters every ledger but prepares nowhere, so a view change
    // resets below the governance batch although that batch committed:
    // the batch rolls back with its link, is re-proposed byte-identically
    // and re-commits in the new view, and its new carrier links it again
    // under the new view's certificate — the chain a replay yields.
    let params = ProtocolParams { view_timeout_ticks: 15, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 1, params);
    let p = spec.genesis.pipeline_depth as u64;
    assert_eq!(p, 2, "the layout below is for P = 2");
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));

    // Batch 1: the proposal commits everywhere in view 0.
    submit_proposal(&mut cluster, &spec);
    assert!(
        cluster.run_until(50, |c| c.min_committed() >= SeqNum(1)),
        "governance batch must commit in view 0"
    );
    let before = tx_entries(&cluster, ReplicaId(1));
    assert_eq!(before.len(), 1);

    // Batch 2: the idle primary's first empty batch prepares everywhere
    // and commits nowhere.
    for r in 0..4 {
        cluster.set_fault(ReplicaId(r), Fault::DropCommits);
    }
    cluster.round();
    // Batch 3, the carrier: every backup ledgers it, and links batch 1,
    // but no prepare leaves a backup, so it prepares nowhere.
    for r in 1..4 {
        cluster.set_fault(ReplicaId(r), Fault::Mute);
    }
    cluster.round();
    for r in 0..4 {
        let replica = cluster.replica(ReplicaId(r));
        assert_eq!(replica.ledger().pp_at(SeqNum(1 + p)).map(|pp| pp.view()), Some(View(0)));
        assert_eq!(replica.gov_chain().len(), 1, "replica {r}: linked by the carrier");
        assert_eq!(replica.gov_chain()[0].receipt().view(), View(0));
    }
    for r in 1..4 {
        let replica = cluster.replica(ReplicaId(r));
        assert_eq!(replica.prepared_up_to(), SeqNum(2), "replica {r}");
        assert_eq!(replica.committed_up_to(), SeqNum(1), "replica {r}");
    }

    // View change: the last prepared batch is 2, the reset point 2 − P =
    // 0, so batch 1 rolls back with its carrier and its link.
    cluster.crash(ReplicaId(0));
    for r in 1..4 {
        cluster.set_fault(ReplicaId(r), Fault::None);
    }
    let relinked = |c: &DetCluster| {
        (1..4).all(|r| {
            let replica = c.replica(ReplicaId(r));
            replica.committed_up_to() >= SeqNum(1 + p) && !replica.gov_chain().is_empty()
        })
    };
    assert!(cluster.run_until(400, relinked), "batch 1 and its carrier must recommit");
    let new_view = cluster.replica(ReplicaId(1)).view();
    assert!(new_view.0 >= 1, "stuck in view 0");
    assert_relinked(&cluster, &spec, new_view);

    // The re-executed ⟨t, i, o⟩ entry is the rolled-back one, bit for bit.
    for r in 1..4 {
        let after = tx_entries(&cluster, ReplicaId(r));
        assert_eq!(&after[..1], &before[..], "replica {r}: gov entry must be byte-identical");
    }
}

/// The other rollback: the carrier rolls back while the governance batch
/// it proved stays committed. The link goes with the carrier and comes
/// back when the carrier is re-proposed, still with the view-0
/// certificate the new carrier records — one link, not two.
#[test]
fn a_rolled_back_carrier_takes_its_link_and_relinks() {
    let params = ProtocolParams { view_timeout_ticks: 15, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 1, params);
    let p = spec.genesis.pipeline_depth as u64;
    assert_eq!(p, 2, "the layout below is for P = 2");
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));

    submit_proposal(&mut cluster, &spec);
    assert!(cluster.run_until(50, |c| c.min_committed() >= SeqNum(1)));

    // Batches 2 and 3 (the carrier) prepare everywhere, commit nowhere.
    for r in 0..4 {
        cluster.set_fault(ReplicaId(r), Fault::DropCommits);
    }
    for _ in 0..p {
        cluster.round();
    }
    for r in 0..4 {
        let replica = cluster.replica(ReplicaId(r));
        assert_eq!(replica.prepared_up_to(), SeqNum(1 + p), "replica {r}");
        assert_eq!(replica.committed_up_to(), SeqNum(1), "replica {r}");
        assert_eq!(replica.gov_chain().len(), 1, "replica {r}: linked by the carrier");
    }

    // View change: last prepared 3, reset point 1 — the carrier rolls back,
    // batch 1 stays.
    cluster.crash(ReplicaId(0));
    for r in 1..4 {
        cluster.set_fault(ReplicaId(r), Fault::None);
    }
    let carried_again = |c: &DetCluster| {
        (1..4).all(|r| {
            let replica = c.replica(ReplicaId(r));
            let carrier = replica.ledger().pp_at(SeqNum(1 + p)).map(|pp| pp.view());
            replica.committed_up_to() >= SeqNum(1 + p) && carrier.is_some_and(|v| v.0 >= 1)
        })
    };
    assert!(cluster.run_until(400, carried_again), "the carrier must recommit in a new view");
    for r in 1..4 {
        let pp = cluster.replica(ReplicaId(r)).ledger().pp_at(SeqNum(1)).map(|pp| pp.view());
        assert_eq!(pp, Some(View(0)), "replica {r}: batch 1 stayed");
    }
    assert_relinked(&cluster, &spec, View(0));
}

#[test]
fn view_change_mid_ledger_sync_does_not_corrupt_partial_state() {
    // Paged state transfer interrupted by a view change (and new
    // commits): a recovering replica has applied a *prefix* of the
    // server's ledger — including an executed-but-uncommitted batch —
    // when a view change rolls that batch back cluster-side and
    // re-proposes it in the new view. The requester must notice that the
    // server's stream no longer extends its applied tail, roll its own
    // uncommitted tail back (Lemma 1), resume from the committed
    // frontier, and finish with a ledger byte-identical to the
    // cluster's — partially-applied state is never left corrupt.
    let params = ProtocolParams {
        view_timeout_ticks: 15,
        // One batch segment per page: the interruption lands between
        // pages, not inside one.
        sync_page_bytes: 1,
        ..ProtocolParams::default()
    };
    let spec = ClusterSpec::new(4, 1, params.clone());
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let client = spec.clients[0].0;

    // A committed prefix, then *two* frozen (executed + prepared, never
    // committed) batches at seqs 3 and 4 — the interruption must land
    // after the first frozen batch crossed the wire but before the
    // stream ends, so the transfer is genuinely mid-flight.
    for _ in 0..2 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until(100, |c| c.min_committed() >= SeqNum(2)));
    for r in 0..4 {
        cluster.set_fault(ReplicaId(r), Fault::DropCommits);
    }
    for _ in 0..2 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        for _ in 0..5 {
            cluster.round();
        }
    }
    for r in 0..4 {
        let replica = cluster.replica(ReplicaId(r));
        assert_eq!(replica.prepared_up_to(), SeqNum(4), "replica {r} must prepare both");
        assert_eq!(replica.committed_up_to(), SeqNum(2), "replica {r} must commit neither");
    }

    // The recovering replica is a second instance of replica 3's
    // identity held *outside* the cluster and pumped by hand, so the
    // transfer can be interrupted at an exact page boundary (inside the
    // simulator a sync resolves within one round).
    let mut fresh = spec.build_replica(3, Arc::new(CounterApp));
    let server = ReplicaId(1);
    // Answer the sync's opening tip query from every peer; the page
    // request that follows (to `server`) seeds the hand-pumped queue.
    let mut requests: Vec<ia_ccf_types::ProtocolMsg> = Vec::new();
    for out in fresh.begin_ledger_sync(server) {
        let ia_ccf::core::Output::SendReplica(peer, msg) = out else { continue };
        let replies = cluster
            .replicas
            .get_mut(&peer)
            .expect("peer")
            .inner
            .handle(ia_ccf::core::Input::Message {
                from: ia_ccf::core::NodeId::Replica(fresh.id()),
                msg,
            });
        for reply in replies {
            if let ia_ccf::core::Output::SendReplica(to, msg) = reply {
                if to != fresh.id() {
                    continue;
                }
                let outs = fresh.handle(ia_ccf::core::Input::Message {
                    from: ia_ccf::core::NodeId::Replica(peer),
                    msg,
                });
                requests.extend(outs.into_iter().filter_map(|o| match o {
                    ia_ccf::core::Output::SendReplica(to, msg) if to == server => Some(msg),
                    _ => None,
                }));
            }
        }
    }

    // Pump exactly three pages (batches 1–3): the first frozen batch has
    // crossed the wire in its view-0 form and been applied, and the `done`
    // page for batch 4 is never delivered: the transfer stops mid-flight.
    for _ in 0..3 {
        let msg = requests.pop().expect("page request in flight");
        let outs = cluster
            .replicas
            .get_mut(&server)
            .expect("server")
            .inner
            .handle(ia_ccf::core::Input::Message {
                from: ia_ccf::core::NodeId::Replica(fresh.id()),
                msg,
            });
        for out in outs {
            if let ia_ccf::core::Output::SendReplica(to, msg) = out {
                if to != fresh.id() {
                    continue;
                }
                let outs = fresh.handle(ia_ccf::core::Input::Message {
                    from: ia_ccf::core::NodeId::Replica(server),
                    msg,
                });
                requests.extend(outs.into_iter().filter_map(|o| match o {
                    ia_ccf::core::Output::SendReplica(to, msg) if to == server => Some(msg),
                    _ => None,
                }));
            }
        }
    }
    assert!(!fresh.sync_report().complete, "transfer must still be mid-flight");
    assert!(fresh.sync_report().pages >= 3, "three pages delivered");
    // Each page is replayed whole: batches 1 and 2 and the view-0 frozen
    // batch 3 are applied, the last to be found divergent when the stream
    // resumes.
    assert_eq!(fresh.prepared_up_to(), SeqNum(3), "every delivered page applied");

    // Mid-transfer interruption: view change rolls the frozen batch back
    // cluster-side, re-proposes it in view ≥ 1, and new commits land.
    cluster.crash(ReplicaId(0));
    for r in 1..4 {
        cluster.set_fault(ReplicaId(r), Fault::None);
    }
    assert!(
        cluster.run_until(400, |c| c.min_committed() >= SeqNum(4)),
        "frozen batches must recommit in the new view"
    );
    for _ in 0..2 {
        cluster.submit(client, CounterApp::INCR, b"post-vc".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until(400, |c| c.min_committed() >= SeqNum(6)));

    // Resume the transfer: the very next page diverges from the applied
    // view-0 tail; the requester rolls back to its committed frontier
    // and replays the view change + re-proposed batches to completion.
    let mut hops = 0;
    while !fresh.sync_report().complete {
        hops += 1;
        assert!(hops < 100, "resumed sync did not converge: {:?}", fresh.sync_report());
        let msg = requests.pop().expect("page request in flight");
        let outs = cluster
            .replicas
            .get_mut(&server)
            .expect("server")
            .inner
            .handle(ia_ccf::core::Input::Message {
                from: ia_ccf::core::NodeId::Replica(fresh.id()),
                msg,
            });
        for out in outs {
            if let ia_ccf::core::Output::SendReplica(to, msg) = out {
                if to != fresh.id() {
                    continue;
                }
                let outs = fresh.handle(ia_ccf::core::Input::Message {
                    from: ia_ccf::core::NodeId::Replica(server),
                    msg,
                });
                requests.extend(outs.into_iter().filter_map(|o| match o {
                    ia_ccf::core::Output::SendReplica(to, msg) if to == server => Some(msg),
                    _ => None,
                }));
            }
        }
    }
    let report = fresh.sync_report();
    assert!(
        report.tail_rollbacks >= 1,
        "divergence must be healed by a tail rollback, not ignored: {report:?}"
    );
    assert_eq!(report.failovers, 0, "an honest server must not be abandoned: {report:?}");

    // The recovered ledger is byte-identical to the cluster's — view
    // change entries, re-proposed batches, post-view-change commits and
    // all — and re-execution reproduced the KV state.
    let survivor = cluster.replica(server);
    assert_eq!(fresh.ledger().len(), survivor.ledger().len());
    for i in 0..survivor.ledger().len() {
        use ia_ccf_types::{LedgerIdx, Wire};
        assert_eq!(
            fresh.ledger().entry(LedgerIdx(i)).map(Wire::to_bytes),
            survivor.ledger().entry(LedgerIdx(i)).map(Wire::to_bytes),
            "ledger divergence at entry {i}"
        );
    }
    assert_eq!(fresh.kv().digest(), survivor.kv().digest());
    assert!(fresh.view().0 >= 1, "the replayed view change must advance the view");
    cluster.assert_ledgers_consistent();
}

/// Deliver `msg` from the hand-held `fresh` to cluster replica `to`, hand
/// `fresh` every reply addressed to it, and return what `fresh` sends next.
fn relay(
    cluster: &mut DetCluster,
    fresh: &mut Replica,
    to: ReplicaId,
    msg: ProtocolMsg,
) -> Vec<(ReplicaId, ProtocolMsg)> {
    let from = NodeId::Replica(fresh.id());
    let peer = &mut cluster.replicas.get_mut(&to).expect("peer").inner;
    let mut next = Vec::new();
    for reply in peer.handle(Input::Message { from, msg }) {
        let Output::SendReplica(dest, msg) = reply else { continue };
        if dest != fresh.id() {
            continue;
        }
        for out in fresh.handle(Input::Message { from: NodeId::Replica(to), msg }) {
            if let Output::SendReplica(peer, msg) = out {
                next.push((peer, msg));
            }
        }
    }
    next
}

/// Each kind of message by name. No wildcard arm: a new kind does not
/// compile until it is named here, and the table below counts the names.
fn kind(msg: &ProtocolMsg) -> &'static str {
    match msg {
        ProtocolMsg::Request(_) => "Request",
        ProtocolMsg::PrePrepare { .. } => "PrePrepare",
        ProtocolMsg::Prepare(_) => "Prepare",
        ProtocolMsg::Commit(_) => "Commit",
        ProtocolMsg::Reply(_) => "Reply",
        ProtocolMsg::ReplyX(_) => "ReplyX",
        ProtocolMsg::ViewChange(_) => "ViewChange",
        ProtocolMsg::NewView { .. } => "NewView",
        ProtocolMsg::FetchRequests { .. } => "FetchRequests",
        ProtocolMsg::FetchRequestsResponse { .. } => "FetchRequestsResponse",
        ProtocolMsg::FetchLedgerPage { .. } => "FetchLedgerPage",
        ProtocolMsg::FetchLedgerTip => "FetchLedgerTip",
        ProtocolMsg::FetchCheckpoint { .. } => "FetchCheckpoint",
        ProtocolMsg::FetchGovReceipts { .. } => "FetchGovReceipts",
        ProtocolMsg::GovReceipts { .. } => "GovReceipts",
        ProtocolMsg::FetchReceipt { .. } => "FetchReceipt",
        ProtocolMsg::FetchEvidence { .. } => "FetchEvidence",
        ProtocolMsg::FetchEvidenceResponse { .. } => "FetchEvidenceResponse",
        // The three a recovery sync takes.
        ProtocolMsg::FetchLedgerPageResponse { .. } => "FetchLedgerPageResponse",
        ProtocolMsg::LedgerTipResponse { .. } => "LedgerTipResponse",
        ProtocolMsg::FetchCheckpointResponse { .. } => "FetchCheckpointResponse",
    }
}

/// A replica in a recovery sync is a state-transfer client: every kind of
/// message but the three sync responses — each built from the cluster's
/// own traffic and ledger, each from a replica and from a client — gets no
/// answer and moves nothing (view, frontier, ledger, sync counters). The
/// sync then finishes byte-identical to its server.
#[test]
fn a_recovering_replica_takes_only_sync_responses() {
    let params = ProtocolParams {
        view_timeout_ticks: 15,
        // One batch segment per page: the sync is still paging below.
        sync_page_bytes: 1,
        ..ProtocolParams::default()
    };
    let spec = ClusterSpec::new(4, 1, params);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let (client, client_key) = spec.clients[0].clone();
    for _ in 0..4 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until_finished(4, 200));

    // A second instance of replica 3, pumped by hand: the tip query, then
    // three pages.
    let server = ReplicaId(1);
    let mut fresh = spec.build_replica(3, Arc::new(CounterApp));
    let mut sends: Vec<(ReplicaId, ProtocolMsg)> = fresh
        .begin_ledger_sync(server)
        .into_iter()
        .filter_map(|o| match o {
            Output::SendReplica(to, msg) => Some((to, msg)),
            _ => None,
        })
        .collect();
    for (to, msg) in std::mem::take(&mut sends) {
        sends.extend(relay(&mut cluster, &mut fresh, to, msg));
    }
    for _ in 0..3 {
        let (to, msg) = sends.pop().expect("a page request in flight");
        sends.extend(relay(&mut cluster, &mut fresh, to, msg));
    }
    assert!(!fresh.sync_report().complete, "the sync must still be paging");
    assert!(fresh.prepared_up_to() > SeqNum(0), "a prefix is applied");

    // One message of each kind.
    let keys = &spec.replica_keys;
    let ledger = cluster.replica(server).ledger().entries().to_vec();
    let next = fresh.prepared_up_to().next();
    let at = ledger
        .iter()
        .position(|e| matches!(e, LedgerEntry::PrePrepare(pp) if pp.seq() == next))
        .expect("the next batch");
    let LedgerEntry::PrePrepare(pp) = ledger[at].clone() else { unreachable!() };
    let batch: Vec<_> = ledger[at + 1..]
        .iter()
        .map_while(|e| match e {
            LedgerEntry::Tx(tx) => Some(tx.request.digest()),
            _ => None,
        })
        .collect();
    let prepares = ledger
        .iter()
        .find_map(|e| match e {
            LedgerEntry::Evidence { prepares, .. } => Some(prepares.clone()),
            _ => None,
        })
        .expect("an evidence entry");
    let nonces = ledger
        .iter()
        .find_map(|e| match e {
            LedgerEntry::Nonces { nonces, .. } => Some(nonces.clone()),
            _ => None,
        })
        .expect("a nonces entry");
    let prepare = prepares[0].clone();
    let (view, seq) = (prepare.view, prepare.seq);
    let commit = Commit { view, seq, replica: prepare.replica, nonce: nonces[0] };
    let finished = cluster.finished[0].1.request.clone();
    let tx_hash = finished.digest();
    let replyx = cluster
        .replicas
        .get_mut(&server)
        .expect("server")
        .inner
        .handle(Input::Message {
            from: NodeId::Client(client),
            msg: ProtocolMsg::FetchReceipt { tx_hash },
        })
        .into_iter()
        .find_map(|o| match o {
            Output::SendClient(_, msg @ ProtocolMsg::ReplyX(_)) => Some(msg),
            _ => None,
        })
        .expect("the server re-serves a receipt");
    let request = SignedRequest::sign(
        Request {
            action: RequestAction::App { proc: CounterApp::INCR, args: b"k".to_vec() },
            client,
            gt_hash: fresh.gt_hash(),
            min_index: ia_ccf_types::LedgerIdx(0),
            req_id: 99,
        },
        &client_key,
    );
    let next_view = View(1);
    let vcs: Vec<_> = (1..4u32)
        .map(|r| signed_view_change(next_view, ReplicaId(r), vec![], vec![], &keys[r as usize]))
        .collect();
    let bitmap = ReplicaBitmap::from_ranks([1, 2, 3]);
    let prefix = fresh.ledger().entries().to_vec();
    let (_, nv) = forge_new_view_pair(&prefix, next_view, vcs.clone(), bitmap, &keys[1]);
    let messages = vec![
        ProtocolMsg::Request(request.clone()),
        ProtocolMsg::PrePrepare { pp, batch: batch.clone() },
        ProtocolMsg::Prepare(prepare.clone()),
        ProtocolMsg::Commit(commit.clone()),
        ProtocolMsg::Reply(Reply {
            view,
            seq,
            replica: prepare.replica,
            sig: prepare.sig,
            nonce: nonces[0],
            req_ids: vec![1],
        }),
        replyx,
        ProtocolMsg::ViewChange(vcs[0].clone()),
        ProtocolMsg::NewView { nv, view_changes: vcs },
        ProtocolMsg::FetchRequests { hashes: batch },
        ProtocolMsg::FetchRequestsResponse { requests: vec![request] },
        ProtocolMsg::FetchLedgerPage { from_seq: SeqNum(1), max_bytes: 1 << 16 },
        ProtocolMsg::FetchLedgerTip,
        ProtocolMsg::FetchCheckpoint { seq: SeqNum(0) },
        ProtocolMsg::FetchGovReceipts { from_index: ia_ccf_types::LedgerIdx(0) },
        ProtocolMsg::GovReceipts { receipts: vec![] },
        ProtocolMsg::FetchReceipt { tx_hash },
        ProtocolMsg::FetchEvidence { seq },
        ProtocolMsg::FetchEvidenceResponse { prepares, commits: vec![commit] },
    ];
    let kinds: std::collections::BTreeSet<_> = messages.iter().map(kind).collect();
    assert_eq!(kinds.len(), messages.len(), "one message per kind");
    assert_eq!(kinds.len(), 18, "every kind but the three sync responses");

    let state = |r: &Replica| {
        let report = format!("{:?}", r.sync_report());
        (r.view(), r.prepared_up_to(), r.ledger().len(), report)
    };
    let before = state(&fresh);
    for msg in messages {
        for from in [NodeId::Replica(ReplicaId(0)), NodeId::Client(client)] {
            let what = format!("{} from {from:?}", kind(&msg));
            let out = fresh.handle(Input::Message { from, msg: msg.clone() });
            assert!(out.is_empty(), "{what}: a recovering replica answered");
            assert_eq!(state(&fresh), before, "{what}: a recovering replica moved");
        }
    }

    // The sync runs to the end, byte-identical to the server.
    let mut hops = 0;
    while !fresh.sync_report().complete {
        hops += 1;
        assert!(hops < 100, "the sync did not finish: {:?}", fresh.sync_report());
        let (to, msg) = sends.pop().expect("a page request in flight");
        sends.extend(relay(&mut cluster, &mut fresh, to, msg));
    }
    let survivor = cluster.replica(server);
    assert_eq!(fresh.ledger().len(), survivor.ledger().len());
    for i in 0..survivor.ledger().len() {
        let i = ia_ccf_types::LedgerIdx(i);
        assert_eq!(
            fresh.ledger().entry(i).map(Wire::to_bytes),
            survivor.ledger().entry(i).map(Wire::to_bytes),
            "ledger divergence at entry {i:?}"
        );
    }
    assert_eq!(fresh.kv().digest(), survivor.kv().digest());
}

/// Cluster replica `r`, driven by hand.
fn held(cluster: &mut DetCluster, r: u32) -> &mut Replica {
    &mut cluster.replicas.get_mut(&ReplicaId(r)).expect("replica").inner
}

/// A replica that has moved to a view and not yet taken its new-view
/// orders nothing: a genuine pre-prepare for that view, from its primary,
/// whose request body the replica lacks, gets no answer (taken, it would
/// ask for the body) and moves nothing. Once the new-view is in, the
/// primary's pre-prepares for the view are taken.
#[test]
fn a_replica_between_view_change_and_new_view_drops_a_pre_prepare() {
    let params = ProtocolParams { view_timeout_ticks: 15, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 1, params);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let (client, client_key) = spec.clients[0].clone();
    cluster.submit(client, CounterApp::INCR, b"k".to_vec());
    assert!(cluster.run_until_finished(1, 200));

    // The view-0 primary goes. The survivors hold one pending request;
    // a second one reaches only replica 1, the primary of view 1.
    cluster.crash(ReplicaId(0));
    cluster.submit(client, CounterApp::INCR, b"k".to_vec());
    cluster.round();
    let only_primary = SignedRequest::sign(
        Request {
            action: RequestAction::App { proc: CounterApp::INCR, args: b"k".to_vec() },
            client,
            gt_hash: cluster.replica(ReplicaId(1)).gt_hash(),
            min_index: ia_ccf_types::LedgerIdx(0),
            req_id: 99,
        },
        &client_key,
    );
    let msg = ProtocolMsg::Request(only_primary);
    held(&mut cluster, 1).handle(Input::Message { from: NodeId::Client(client), msg });

    // Each survivor's own clock moves it to view 1; the messages are held.
    let mut vcs = std::collections::BTreeMap::new();
    for r in 1..4u32 {
        for _ in 0..100 {
            let out = held(&mut cluster, r).handle(Input::Tick);
            if let Some(vc) = out.into_iter().find_map(|o| match o {
                Output::BroadcastReplicas(ProtocolMsg::ViewChange(vc)) => Some(vc),
                _ => None,
            }) {
                vcs.insert(r, vc);
                break;
            }
        }
        assert_eq!(cluster.replica(ReplicaId(r)).view(), View(1), "replica {r} moved");
    }

    // Replica 1 takes the other two view-changes and opens view 1.
    let mut outs = Vec::new();
    for r in [2, 3] {
        let msg = ProtocolMsg::ViewChange(vcs[&r].clone());
        outs.extend(held(&mut cluster, 1).handle(Input::Message {
            from: NodeId::Replica(ReplicaId(r)),
            msg,
        }));
    }
    for _ in 0..3 {
        outs.extend(held(&mut cluster, 1).handle(Input::Tick));
    }
    let broadcast: Vec<ProtocolMsg> = outs
        .into_iter()
        .filter_map(|o| match o {
            Output::BroadcastReplicas(msg) => Some(msg),
            _ => None,
        })
        .collect();
    let new_view = broadcast
        .iter()
        .find(|m| matches!(m, ProtocolMsg::NewView { .. }))
        .expect("the new-view")
        .clone();
    let pre_prepare = |seq: u64| {
        broadcast
            .iter()
            .find(|m| matches!(m, ProtocolMsg::PrePrepare { pp, .. } if pp.seq() == SeqNum(seq)))
            .unwrap_or_else(|| panic!("the view-1 pre-prepare at {seq}"))
            .clone()
    };

    // Replica 3 is at seq 2 in view 1, waiting for the new-view: the
    // pre-prepare at 2 names its next slot, but it is not taken.
    let from = NodeId::Replica(ReplicaId(1));
    let state = |r: &Replica| (r.view(), r.prepared_up_to(), r.ledger().len());
    let backup = held(&mut cluster, 3);
    let before = state(backup);
    let out = backup.handle(Input::Message { from, msg: pre_prepare(2) });
    assert!(out.is_empty(), "a replica between views answered a pre-prepare: {out:?}");
    assert_eq!(state(backup), before, "a replica between views moved");

    // With the new-view in, the view's pre-prepares are taken.
    assert!(backup.handle(Input::Message { from, msg: new_view }).is_empty());
    let out = backup.handle(Input::Message { from, msg: pre_prepare(1) });
    assert!(
        out.iter().any(|o| matches!(o, Output::BroadcastReplicas(ProtocolMsg::Prepare(_)))),
        "the re-proposed batch is prepared in view 1: {out:?}"
    );
    let out = backup.handle(Input::Message { from, msg: pre_prepare(2) });
    assert!(
        out.iter().any(|o| matches!(o, Output::SendReplica(_, ProtocolMsg::FetchRequests { .. }))),
        "the missing body is fetched: {out:?}"
    );
}

#[test]
fn post_rollback_ledger_audits_clean() {
    // Same rollback scenario, then more traffic; a survivor's ledger —
    // which contains the view change and the re-executed batch — must
    // audit clean against every receipt the clients collected.
    let params = ProtocolParams { view_timeout_ticks: 15, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 1, params);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let client = spec.clients[0].0;

    freeze_one_batch(&mut cluster, client);
    cluster.crash(ReplicaId(0));
    for r in 1..4 {
        cluster.set_fault(ReplicaId(r), Fault::None);
    }
    assert!(cluster.run_until(400, |c| c.min_committed() >= SeqNum(1)));

    for _ in 0..4 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until_finished(5, 400), "finished {}", cluster.finished.len());

    let receipts: Vec<StoredReceipt> = cluster
        .finished
        .iter()
        .map(|(_, tx)| StoredReceipt {
            request: tx.request.clone(),
            receipt: tx.receipt.clone().expect("receipts"),
        })
        .collect();
    let package = LedgerPackage::from_replica(cluster.replica(ReplicaId(2)), SeqNum(0));
    assert!(
        package
            .entries
            .iter()
            .any(|e| matches!(e, LedgerEntry::ViewChangeSet { .. })),
        "ledger must contain the view change"
    );
    let auditor = Auditor::new(spec.genesis.clone(), Arc::new(CounterApp));
    let outcome = auditor.audit(&receipts, &GovernanceChain::new(), &package);
    assert!(matches!(outcome, AuditOutcome::Clean), "{:?}", outcome.upom());
}

/// Alg. 2 line 18 at its three doors: a new-view moves a backup, and a
/// logged pair passes ledger replay and the auditor, only if its
/// justification is a quorum of distinct, signed, proof-carrying
/// view-changes for that view under the bitmap it names, each reported
/// pre-prepare signed by its view's primary. Every hostile row is
/// otherwise consistent — `h_vc` and `M̄′` computed over the backup's own
/// ledger, the new-view signed with the would-be primary's key — so each
/// is refused for the one clause it breaks: by the pure rule, by the live
/// backup before anything is rolled back or sent, by `Replica::bootstrap`
/// and by `validate_package`. The genuine new-view for the same view is
/// then accepted.
#[test]
fn hostile_new_views_leave_a_backup_untouched() {
    let params = ProtocolParams { view_timeout_ticks: 15, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 1, params);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let client = spec.clients[0].0;
    for _ in 0..3 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until_finished(3, 200));

    let backup = ReplicaId(2);
    let view = View(1);
    let keys = &spec.replica_keys;
    let ledger = cluster.replica(backup).ledger().entries().to_vec();
    let nothing_prepared =
        |r: u32| signed_view_change(view, ReplicaId(r), vec![], vec![], &keys[r as usize]);
    // The backup's last batch, reported as prepared on the strength of one
    // prepare (a quorum of 3 needs two besides the primary's pre-prepare).
    let last_pp = cluster.replica(backup).ledger().pp_at(SeqNum(3)).expect("three batches").clone();
    let prepare = |pp: &PrePrepare, r: u32| {
        let (view, seq, replica) = (pp.view(), pp.seq(), ReplicaId(r));
        let (nonce_commit, pp_digest) = (NonceCommitment::default(), pp.digest());
        let payload = Prepare::signing_payload(view, seq, replica, &nonce_commit, &pp_digest);
        let sig = keys[r as usize].sign(&payload);
        Prepare { view, seq, replica, nonce_commit, pp_digest, sig }
    };
    let one_prepare = prepare(&last_pp, 2);
    // Replica 3 reports `pps`, the last one proven prepared by a genuine
    // quorum of prepares for exactly its bytes.
    let proven = |pps: Vec<PrePrepare>| {
        let last = pps.last().expect("a reported batch");
        let proof = vec![prepare(last, 2), prepare(last, 3)];
        signed_view_change(view, ReplicaId(3), pps.clone(), proof, &keys[3])
    };
    // A batch with garbage where the primary's signature was.
    let unsigned = |seq: u64| {
        let pp = cluster.replica(backup).ledger().pp_at(SeqNum(seq)).expect("three batches");
        PrePrepare { sig: Signature([0xa5; 64]), ..pp.clone() }
    };
    let earlier_pp = cluster.replica(backup).ledger().pp_at(SeqNum(2)).expect("batch 2").clone();
    let honest = proven(vec![earlier_pp, last_pp.clone()]);
    assert_eq!(check_view_change(&spec.genesis, &honest), Ok(()), "the proof is a quorum's");
    let outsider = KeyPair::from_label("not-a-replica");

    let rows: Vec<(&str, Vec<ia_ccf_types::ViewChange>, Vec<usize>, Refused)> = vec![
        (
            "one signer three times",
            vec![nothing_prepared(1), nothing_prepared(1), nothing_prepared(1)],
            vec![1],
            Refused::NoQuorum,
        ),
        (
            "third member outside the configuration",
            vec![
                nothing_prepared(1),
                nothing_prepared(2),
                signed_view_change(view, ReplicaId(9), vec![], vec![], &outsider),
            ],
            vec![1, 2],
            Refused::UnknownSender(ReplicaId(9)),
        ),
        (
            "one member changing to another view",
            vec![
                nothing_prepared(1),
                nothing_prepared(2),
                signed_view_change(View(2), ReplicaId(3), vec![], vec![], &keys[3]),
            ],
            vec![1, 2, 3],
            Refused::WrongView(ReplicaId(3)),
        ),
        (
            "one member signed by somebody else",
            vec![
                nothing_prepared(1),
                nothing_prepared(2),
                signed_view_change(view, ReplicaId(3), vec![], vec![], &keys[2]),
            ],
            vec![1, 2, 3],
            Refused::BadSignature(ReplicaId(3)),
        ),
        (
            "a reported pre-prepare with no proof",
            vec![
                nothing_prepared(1),
                nothing_prepared(2),
                signed_view_change(view, ReplicaId(3), vec![last_pp.clone()], vec![], &keys[3]),
            ],
            vec![1, 2, 3],
            Refused::NotPrepared(ReplicaId(3)),
        ),
        (
            "a reported pre-prepare with an under-sized proof",
            vec![
                nothing_prepared(1),
                nothing_prepared(2),
                signed_view_change(
                    view,
                    ReplicaId(3),
                    vec![last_pp.clone()],
                    vec![one_prepare],
                    &keys[3],
                ),
            ],
            vec![1, 2, 3],
            Refused::NotPrepared(ReplicaId(3)),
        ),
        (
            "a proven pre-prepare its primary never signed",
            vec![nothing_prepared(1), nothing_prepared(2), proven(vec![unsigned(3)])],
            vec![1, 2, 3],
            Refused::UnsignedPrePrepare(ReplicaId(3)),
        ),
        (
            // The chosen batch is the backup's own: only this clause stands
            // between the live backup and the new view.
            "an earlier reported pre-prepare its primary never signed",
            vec![nothing_prepared(1), nothing_prepared(2), proven(vec![unsigned(2), last_pp])],
            vec![1, 2, 3],
            Refused::UnsignedPrePrepare(ReplicaId(3)),
        ),
        (
            "a correct set under a bitmap with an extra rank",
            vec![nothing_prepared(1), nothing_prepared(2), nothing_prepared(3)],
            vec![0, 1, 2, 3],
            Refused::Bitmap,
        ),
    ];

    // Control for the forgeries' consistency: the same construction over a
    // real quorum is a pair that a replica loading the ledger takes (`M̄′`
    // included) — the rows above are wrong in their one clause only.
    let quorum = vec![nothing_prepared(1), nothing_prepared(2), nothing_prepared(3)];
    let (set, nv) =
        forge_new_view_pair(&ledger, view, quorum, ReplicaBitmap::from_ranks([1, 2, 3]), &keys[1]);
    let with_pair = [ledger.clone(), vec![set, LedgerEntry::NewView(nv)]].concat();
    let loaded = ia_ccf::core::Replica::bootstrap(
        ReplicaId(3),
        keys[3].clone(),
        Arc::new(CounterApp),
        spec.params.clone(),
        spec.client_keys(),
        &with_pair,
    );
    assert_eq!(loaded.map(|r| r.view()).map_err(|e| e.to_string()), Ok(view));

    let state = |c: &DetCluster| {
        let r = c.replica(backup);
        (r.view(), r.ledger().len(), r.prepared_up_to(), r.kv().digest())
    };
    let config_for_seq = |_: SeqNum| &spec.genesis;
    let before = state(&cluster);
    for (what, view_changes, ranks, clause) in rows {
        let bitmap = ReplicaBitmap::from_ranks(ranks);
        let (set, nv) = forge_new_view_pair(&ledger, view, view_changes.clone(), bitmap, &keys[1]);
        assert_eq!(
            check_new_view(&spec.genesis, &nv, &view_changes).err(),
            Some(clause),
            "{what}"
        );
        let logged = [ledger.clone(), vec![set, LedgerEntry::NewView(nv.clone())]].concat();
        let replayed = ia_ccf::core::Replica::bootstrap(
            ReplicaId(3),
            keys[3].clone(),
            Arc::new(CounterApp),
            spec.params.clone(),
            spec.client_keys(),
            &logged,
        );
        assert_eq!(replayed.err(), Some(BootstrapError::BadNewView(view, clause)), "{what}");
        assert_eq!(
            validate_package(&logged, &config_for_seq).err(),
            Some(PackageError::BadViewChange(view)),
            "{what}: the auditor"
        );
        for from in [NodeId::Replica(ReplicaId(1)), NodeId::Client(client)] {
            let msg = ProtocolMsg::NewView { nv: nv.clone(), view_changes: view_changes.clone() };
            let replica = &mut cluster.replicas.get_mut(&backup).expect("backup").inner;
            let out = replica.handle(Input::Message { from, msg });
            assert!(out.is_empty(), "{what}: a refused new-view sends nothing");
            assert_eq!(state(&cluster), before, "{what}: a refused new-view changes nothing");
        }
    }

    // The genuine article for the same view: crash the primary, the
    // survivors assemble and accept it, and the service goes on.
    cluster.crash(ReplicaId(0));
    cluster.submit(client, CounterApp::INCR, b"k".to_vec());
    assert!(cluster.run_until_finished(4, 600), "finished {}", cluster.finished.len());
    assert_eq!(cluster.replica(backup).view(), view);
    assert!(cluster.replica(backup).ledger().len() > before.1);
    cluster.assert_ledgers_consistent();
}

/// A backup that lacks the chosen last-prepared batch cannot replay the
/// new view's reset, and sits it out until its liveness timer moves it on.
/// It used to page the new primary's ledger in for *request bodies* — which
/// cannot supply the pre-prepare it missed — and the sync's completion
/// re-entered `on_new_view`, which started the same sync again, without end
/// (the delivery queue never drained). How such a replica catches up is a
/// recovery sync's job (ROADMAP item 3).
#[test]
fn backup_behind_the_chosen_batch_sits_the_new_view_out() {
    let params = ProtocolParams { view_timeout_ticks: 15, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 1, params);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let client = spec.clients[0].0;
    cluster.submit(client, CounterApp::INCR, b"k".to_vec());
    assert!(cluster.run_until_finished(1, 200));

    // Batch 2 prepares on replicas 0–2 and commits nowhere; replica 3 is
    // cut off and never sees its pre-prepare.
    let behind = ReplicaId(3);
    cluster.crash(behind);
    for r in 0..3 {
        cluster.set_fault(ReplicaId(r), Fault::DropCommits);
    }
    cluster.submit(client, CounterApp::INCR, b"k".to_vec());
    for _ in 0..5 {
        cluster.round();
    }
    assert_eq!(cluster.replica(ReplicaId(1)).prepared_up_to(), SeqNum(2));
    assert_eq!(cluster.replica(behind).prepared_up_to(), SeqNum(1));

    // Replica 3 is back, the primary is gone: view 1's new-view chooses
    // batch 2, which replica 3 does not hold.
    cluster.crashed.remove(&behind);
    cluster.crash(ReplicaId(0));
    for r in 1..3 {
        cluster.set_fault(ReplicaId(r), Fault::None);
    }
    assert!(cluster.run_until(60, |c| c.replica(ReplicaId(2)).view() == View(1)));
    assert!(
        cluster.run_until(60, |c| c.replica(behind).view() >= View(2)),
        "the liveness timer moves the replica on"
    );
    assert_eq!(cluster.replica(behind).sync_report().pages, 0, "nothing was paged in");
}

/// A view change may not reset below a replica's rollback floor: batches
/// committed beyond the pipeline never roll back. Eight batches commit in
/// view 0; the primary crashes, and every pre-prepare the view-1 primary
/// sends is lost, though its new-view arrives. The view-2 reset then asks
/// for a point below every survivor's floor. A survivor that took it used
/// to undo less than it was asked (its store kept two committed batches
/// its ledger dropped), re-execute them, rewrite its committed prefix and
/// convict itself under audit. Liveness is not asserted: until a view
/// change carries the rolled-back tail's prepared certificates, the
/// survivors refuse the reset and stall (ROADMAP item 3).
#[test]
fn a_reset_below_the_rollback_floor_is_refused() {
    let params = ProtocolParams { view_timeout_ticks: 15, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 1, params);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let client = spec.clients[0].0;
    for done in 1..=8 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        assert!(cluster.run_until_finished(done, 200), "request {done}");
    }
    assert!(cluster.run_until(200, |c| c.min_committed() >= SeqNum(8)));
    let committed_in_view_0 = tx_entries(&cluster, ReplicaId(1));
    assert_eq!(committed_in_view_0.len(), 8);
    // One transaction per batch: the floor is `committed − P` batches in.
    let floor = 8 - spec.genesis.pipeline_depth as usize;
    let receipts: Vec<StoredReceipt> = cluster
        .finished
        .iter()
        .map(|(_, tx)| StoredReceipt {
            request: tx.request.clone(),
            receipt: tx.receipt.clone().expect("receipts"),
        })
        .collect();

    cluster.crash(ReplicaId(0));
    cluster.set_fault(ReplicaId(1), Fault::DropPrePrepares);
    cluster.submit(client, CounterApp::INCR, b"k".to_vec());
    let live = [ReplicaId(1), ReplicaId(2), ReplicaId(3)];
    assert!(
        cluster.run_until(400, |c| live.iter().all(|&r| c.replica(r).view() >= View(2))),
        "views: {:?}",
        live.map(|r| cluster.replica(r).view())
    );

    let auditor = Auditor::new(spec.genesis.clone(), Arc::new(CounterApp));
    for r in live {
        let replica = cluster.replica(r);
        let replayed = Replica::bootstrap(
            r,
            spec.replica_keys[r.0 as usize].clone(),
            Arc::new(CounterApp),
            spec.params.clone(),
            spec.client_keys(),
            replica.ledger().entries(),
        )
        .unwrap_or_else(|e| panic!("replica {r}: its own ledger does not load: {e}"));
        assert_eq!(
            replayed.kv().digest(),
            replica.kv().digest(),
            "replica {r}: its store is not the one its ledger executes to"
        );
        // Batches above the floor may roll back (Lemma 1), so the ledger
        // may hold fewer of them; none it holds is rewritten.
        let txs = tx_entries(&cluster, r);
        let common = txs.len().min(committed_in_view_0.len());
        assert!(common >= floor, "replica {r}: a batch at or below the floor rolled back");
        assert!(
            txs[..common] == committed_in_view_0[..common],
            "replica {r}: the transactions committed in view 0 were rewritten"
        );
        // Audited with the receipts of the batches that can no longer
        // roll back.
        let package = LedgerPackage::from_replica(replica, SeqNum(0));
        let outcome = auditor.audit(&receipts[..floor], &GovernanceChain::new(), &package);
        assert!(matches!(outcome, AuditOutcome::Clean), "replica {r}: {:?}", outcome.upom());
        // All eight receipts meet a known defect (ROADMAP "Known open
        // defects"): `reset_to_seq` drops the proof that batch 7 prepared,
        // the next view change omits it, and the audit of r2's and r3's
        // ledgers blames a quorum that includes r2, which is honest. These
        // are the verdicts observed; ROADMAP item 20 (3 (d)) inverts them,
        // after which every survivor must audit `Clean`.
        let all = auditor.audit(&receipts, &GovernanceChain::new(), &package);
        let verdict = all.upom().map(|u| (u.kind.clone(), u.at_seq, u.blamed.clone()));
        let expected = match r {
            ReplicaId(1) => None,
            _ => {
                let blamed = [ReplicaId(0), ReplicaId(1), ReplicaId(2)].into();
                Some((UpomKind::ViewChangeOmission, SeqNum(7), blamed))
            }
        };
        assert_eq!(verdict, expected, "replica {r}: all eight receipts");
    }
}
