//! No request executes on the live path unless its class's signature was
//! verified — whatever door its body came through.
//!
//! Request bodies reach a replica through four doors: a client's
//! `Request`, a peer's `FetchRequestsResponse`, a view-change ledger
//! page, and a ledger replayed at bootstrap or recovery (the last test:
//! replay goes through the backup's own acceptance, kind rules included).
//! Only the first used to check governance signatures, and the
//! second did not even look at its sender, so anyone — no key needed —
//! could hand the primary a governance action "from member 0" signed by a
//! random key, or a `System(CheckpointMark)`, and have it ordered and
//! executed with `ok = true` on every replica. Batch time is now the one
//! verification point; these regressions pin it from both sides: hostile
//! bodies injected into honest replicas, and a Byzantine primary
//! proposing a forged body to honest backups.

use std::sync::Arc;

use ia_ccf::core::app::CounterApp;
use ia_ccf::core::{BootstrapError, Fault, Input, NodeId, ProtocolParams, Replica};
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_types::{
    BatchKind, ClientId, Digest, GovAction, KeyPair, LedgerEntry, LedgerIdx, MemberId, PrePrepare,
    ProtocolMsg, ReplicaId, Request, RequestAction, SeqNum, SignedRequest, SystemOp,
    TxLedgerEntry, TxResult,
};

fn gov_request(member: MemberId, key: &KeyPair, gt_hash: Digest, req_id: u64) -> SignedRequest {
    // Any proposal will do: an invalid one still *executes* (recording a
    // failed result), which is exactly what must not happen to a forgery.
    let mut new_config = ia_ccf_types::config::testutil::test_config(4).0;
    new_config.number = 1;
    SignedRequest::sign(
        Request {
            action: RequestAction::Governance(GovAction::Propose {
                proposal_id: req_id,
                new_config,
            }),
            client: ClientId(member.0 as u64),
            gt_hash,
            min_index: LedgerIdx(0),
            req_id,
        },
        key,
    )
}

/// Governance and system `⟨t, i, o⟩` entries in a replica's ledger.
fn privileged_txs(cluster: &DetCluster, id: ReplicaId) -> Vec<SignedRequest> {
    cluster
        .replica(id)
        .ledger()
        .entries()
        .iter()
        .filter_map(|e| match e {
            LedgerEntry::Tx(tx) if tx.request.is_governance() || tx.request.is_system() => {
                Some(tx.request.clone())
            }
            _ => None,
        })
        .collect()
}

/// Request ids in ledger-index order.
fn commit_order(cluster: &DetCluster) -> Vec<u64> {
    let mut by_index: Vec<(u64, u64)> = cluster
        .finished
        .iter()
        .map(|(_, tx)| (tx.receipt.as_ref().unwrap().tx_index().unwrap().0, tx.req_id))
        .collect();
    by_index.sort_unstable();
    by_index.into_iter().map(|(_, req_id)| req_id).collect()
}

#[test]
fn forged_governance_and_system_bodies_through_fetch_response_never_execute() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let client = spec.clients[0].0;
    let senders = [NodeId::Client(client), NodeId::Replica(ReplicaId(2))];
    let targets: [&[u32]; 2] = [&[0], &[0, 1, 2, 3]];

    for (sender, target) in senders.iter().flat_map(|s| targets.iter().map(move |t| (*s, *t))) {
        let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
        let gt_hash = cluster.replica(ReplicaId(0)).gt_hash();
        // "From member 0", signed by a key nobody registered.
        let forged = gov_request(MemberId(0), &KeyPair::from_label("nobody"), gt_hash, 77);
        // A mark the replicas would find *correct* if they executed it:
        // the genesis checkpoint's own digests.
        let genesis_cp = cluster.replica(ReplicaId(0)).checkpoints().at(SeqNum(0)).unwrap();
        let mark = SignedRequest::system(
            SystemOp::CheckpointMark {
                checkpoint_seq: SeqNum(0),
                kv_digest: genesis_cp.kv.digest(),
                tree_root: genesis_cp.frontier.root(),
            },
            gt_hash,
        );
        let hostile =
            ProtocolMsg::FetchRequestsResponse { requests: vec![forged.clone(), mark.clone()] };
        for &r in target {
            let replica = &mut cluster.replicas.get_mut(&ReplicaId(r)).unwrap().inner;
            let outs = replica.handle(Input::Message { from: sender, msg: hostile.clone() });
            assert!(outs.is_empty(), "an unsolicited response must not make a replica talk");
        }

        // Honest requests queued alongside still commit, in order, in view 0.
        for _ in 0..6 {
            cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        }
        assert!(
            cluster.run_until_finished(6, 200),
            "{sender:?} → {target:?}: only {} of 6 finished",
            cluster.finished.len()
        );
        let committed = commit_order(&cluster);
        let mut submitted = committed.clone();
        submitted.sort_unstable();
        assert_eq!(committed, submitted, "valid requests must commit in submission order");
        cluster.assert_ledgers_consistent();
        for r in (0..4).map(ReplicaId) {
            assert_eq!(
                privileged_txs(&cluster, r),
                Vec::new(),
                "{sender:?} → {target:?}: replica {r} executed a forged governance/system request"
            );
            assert_eq!(cluster.replica(r).view().0, 0, "a forged body must not cost a view");
            assert_eq!(cluster.replica(r).kv().get(b"k"), Some(&6u64.to_le_bytes().to_vec()));
        }

        // A genuine member-signed proposal still goes through.
        let genuine = gov_request(MemberId(0), &spec.member_keys[0], gt_hash, 78);
        cluster.submit_raw(ClientId(0), genuine.clone());
        assert!(cluster.run_until(200, |c| {
            (0..4).all(|r| privileged_txs(c, ReplicaId(r)).len() == 1)
        }));
        for r in (0..4).map(ReplicaId) {
            assert_eq!(privileged_txs(&cluster, r), vec![genuine.clone()]);
        }
    }
}

#[test]
fn byzantine_primary_proposing_a_forged_governance_body_gets_no_prepares() {
    let params = ProtocolParams { view_timeout_ticks: 20, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 1, params);
    let client = spec.clients[0].0;
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let gt_hash = cluster.replica(ReplicaId(0)).gt_hash();
    let forged = gov_request(MemberId(0), &KeyPair::from_label("nobody"), gt_hash, 77);

    // Only the primary holds the body: the backups obtain it through the
    // FetchRequests round trip, from the primary itself.
    cluster.set_fault(ReplicaId(0), Fault::ProposeUnverified);
    let primary = &mut cluster.replicas.get_mut(&ReplicaId(0)).unwrap().inner;
    primary.handle(Input::Message {
        from: NodeId::Client(ClientId(0)),
        msg: ProtocolMsg::Request(forged.clone()),
    });
    for _ in 0..6 {
        cluster.round();
    }
    assert_eq!(
        privileged_txs(&cluster, ReplicaId(0)),
        vec![forged.clone()],
        "the faulty primary executed and proposed the forgery"
    );
    for r in (1..4).map(ReplicaId) {
        let backup = cluster.replica(r);
        assert_eq!(backup.prepared_up_to(), SeqNum(0), "backup {r} must refuse to prepare");
        assert_eq!(privileged_txs(&cluster, r), Vec::new());
    }

    // The batch never prepares; the view change replaces the primary, the
    // new one evicts the forgery at its own batch time, and honest
    // requests commit.
    for _ in 0..4 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
    }
    assert!(
        cluster.run_until_finished(4, 600),
        "only {} of 4 finished",
        cluster.finished.len()
    );
    for r in (0..4).map(ReplicaId) {
        assert!(cluster.replica(r).view().0 >= 1, "replica {r} never left the faulty view");
        assert_eq!(privileged_txs(&cluster, r), Vec::new(), "replica {r}");
    }
    cluster.assert_ledgers_consistent();
}

/// The ledger through the whole batch at `seq`, with that batch's
/// pre-prepare handed to `forge` and re-signed with its primary's key —
/// what a page server colluding with the primary could serve. The batch
/// is the last one kept, so no later `M̄` covers the forged entry.
fn ledger_with_forged_batch(
    spec: &ClusterSpec,
    honest: &[LedgerEntry],
    seq: SeqNum,
    forge: impl FnOnce(&mut PrePrepare, &mut Vec<LedgerEntry>),
) -> Vec<LedgerEntry> {
    let at = honest
        .iter()
        .position(|e| matches!(e, LedgerEntry::PrePrepare(pp) if pp.seq() == seq))
        .expect("batch in ledger");
    let txs = honest[at + 1..].iter().take_while(|e| matches!(e, LedgerEntry::Tx(_))).count();
    let mut ledger = honest[..at].to_vec();
    let LedgerEntry::PrePrepare(mut pp) = honest[at].clone() else { unreachable!() };
    let mut run = honest[at + 1..at + 1 + txs].to_vec();
    forge(&mut pp, &mut run);
    let payload = PrePrepare::signing_payload(&pp.core, &pp.root_g);
    pp.sig = spec.replica_keys[pp.core.primary.0 as usize].sign(&payload);
    ledger.push(LedgerEntry::PrePrepare(pp));
    ledger.extend(run);
    ledger
}

#[test]
fn ledger_replay_applies_the_kind_rules_a_backup_applies() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default())
        .with_config(|c| c.checkpoint_interval = 2);
    let client = spec.clients[0].0;
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    // A mark naming the genesis checkpoint with its true digests: correct
    // in content, so only where it sits and what it names can refuse it.
    let genesis = cluster.replica(ReplicaId(0)).checkpoints().at(SeqNum(0)).unwrap();
    let names_genesis = SignedRequest::system(
        SystemOp::CheckpointMark {
            checkpoint_seq: SeqNum(0),
            kv_digest: genesis.kv.digest(),
            tree_root: genesis.frontier.root(),
        },
        cluster.replica(ReplicaId(0)).gt_hash(),
    );
    for done in 1..=5 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        assert!(cluster.run_until_finished(done, 200));
    }
    let honest = cluster.replica(ReplicaId(0)).ledger().entries().to_vec();
    let kind_of = |seq| {
        honest.iter().find_map(|e| match e {
            LedgerEntry::PrePrepare(pp) if pp.seq() == seq => Some(pp.core.kind),
            _ => None,
        })
    };
    // With C = 2 the first checkpoint batch is the fourth.
    let (regular, checkpoint) = (SeqNum(3), SeqNum(4));
    assert_eq!(kind_of(regular), Some(BatchKind::Regular));
    assert_eq!(kind_of(checkpoint), Some(BatchKind::Checkpoint));

    let bootstrap = |ledger: &[LedgerEntry]| {
        Replica::bootstrap(
            ReplicaId(3),
            spec.replica_keys[3].clone(),
            Arc::new(CounterApp),
            spec.params.clone(),
            spec.client_keys(),
            ledger,
        )
        .map(|replica| replica.prepared_up_to())
    };

    // Untouched (re-signing included), both prefixes replay.
    for seq in [regular, checkpoint] {
        let ledger = ledger_with_forged_batch(&spec, &honest, seq, |_, _| {});
        assert_eq!(bootstrap(&ledger), Ok(seq));
    }

    // The checkpoint mark ordered as a Regular batch; a Regular batch
    // claiming a committed root; a Checkpoint batch carrying its mark
    // twice (indices and Ḡ made consistent, so only the kind rule objects).
    let relabelled = ledger_with_forged_batch(&spec, &honest, checkpoint, |pp, _| {
        pp.core.kind = BatchKind::Regular;
    });
    let with_root = ledger_with_forged_batch(&spec, &honest, regular, |pp, _| {
        pp.core.committed_root = Some(pp.root_g);
    });
    let doubled = ledger_with_forged_batch(&spec, &honest, checkpoint, |pp, run| {
        let [LedgerEntry::Tx(mark)] = &run[..] else { panic!("one mark expected") };
        let mut again = mark.clone();
        again.index = LedgerIdx(mark.index.0 + 1);
        let leaves = vec![mark.g_leaf(), again.g_leaf()];
        pp.root_g = ia_ccf::merkle::MerkleTree::from_leaves(leaves).root();
        run.push(LedgerEntry::Tx(again));
    });
    // The batch's one transaction replaced by the genesis mark, at the
    // same index and with the result any mark records; Ḡ made consistent.
    let mark_genesis = |pp: &mut PrePrepare, run: &mut Vec<LedgerEntry>| {
        let LedgerEntry::Tx(first) = &run[0] else { panic!("a transaction expected") };
        let mark = TxLedgerEntry {
            request: names_genesis.clone(),
            index: first.index,
            result: TxResult { ok: true, output: Vec::new(), write_set_digest: Digest::zero() },
        };
        pp.root_g = ia_ccf::merkle::MerkleTree::from_leaves(vec![mark.g_leaf()]).root();
        *run = vec![LedgerEntry::Tx(mark)];
    };
    let names_the_wrong_checkpoint =
        ledger_with_forged_batch(&spec, &honest, checkpoint, mark_genesis);
    let off_schedule = ledger_with_forged_batch(&spec, &honest, regular, |pp, run| {
        pp.core.kind = BatchKind::Checkpoint;
        mark_genesis(pp, run);
    });
    for (what, ledger, seq) in [
        ("checkpoint batch relabelled Regular", relabelled, checkpoint),
        ("Regular batch with a committed root", with_root, regular),
        ("checkpoint batch with two requests", doubled, checkpoint),
        ("mark at s4 naming s0, not s2", names_the_wrong_checkpoint, checkpoint),
        ("Regular batch at s3 relabelled Checkpoint", off_schedule, regular),
    ] {
        assert_eq!(bootstrap(&ledger), Err(BootstrapError::ExecutionMismatch(seq)), "{what}");
    }
}
