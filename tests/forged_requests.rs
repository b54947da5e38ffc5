//! No request executes on the live path unless its class's signature was
//! verified — whatever door its body came through.
//!
//! Request bodies reach a replica through three doors: a client's
//! `Request`, a peer's `FetchRequestsResponse`, and a view-change ledger
//! page. Only the first used to check governance signatures, and the
//! second did not even look at its sender, so anyone — no key needed —
//! could hand the primary a governance action "from member 0" signed by a
//! random key, or a `System(CheckpointMark)`, and have it ordered and
//! executed with `ok = true` on every replica. Batch time is now the one
//! verification point; these regressions pin it from both sides: hostile
//! bodies injected into honest replicas, and a Byzantine primary
//! proposing a forged body to honest backups.

use std::sync::Arc;

use ia_ccf::core::app::CounterApp;
use ia_ccf::core::{Fault, Input, NodeId, ProtocolParams};
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_types::{
    ClientId, Digest, GovAction, KeyPair, LedgerEntry, LedgerIdx, MemberId, ProtocolMsg,
    ReplicaId, Request, RequestAction, SeqNum, SignedRequest, SystemOp,
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
