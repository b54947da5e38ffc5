//! Differential harness for the cache-backed receipt read path.
//!
//! `serve_receipt_refetch` finds a transaction through the executed-batch
//! window's `tx_hash → (seq, pos)` locator and serves its path from the
//! batch's frozen Merkle paths, where the seed scanned every retained
//! batch. The contract: the *bytes* a client receives are unchanged — for
//! any schedule, for hits and for misses (unknown transactions,
//! transactions pruned past the retention window of 64 batches). This harness proves it differentially against
//! `Replica::refetch_oracle_linear`, the seed's scan preserved as a
//! reference oracle, and pins the incremental governance-receipt serving
//! (`from_index`) semantics and how a client waiting for governance
//! receipts gets them (a quiet cluster, a crashed rank 0).

use std::collections::VecDeque;
use std::sync::Arc;

use ia_ccf::core::app::CounterApp;
use ia_ccf::core::{Input, NodeId, Output, ProtocolParams, Replica};
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_types::{
    ClientId, Commit, Digest, GovAction, LedgerIdx, Nonce, ProtocolMsg, ReplicaId, Request,
    RequestAction, SeqNum, SignedRequest, View, Wire,
};
use proptest::prelude::*;

/// The encoded client-bound messages a replica emits for one input.
fn client_sends(outputs: Vec<Output>) -> Vec<(ClientId, Vec<u8>)> {
    outputs
        .into_iter()
        .filter_map(|o| match o {
            Output::SendClient(to, msg) => Some((to, msg.to_bytes())),
            _ => None,
        })
        .collect()
}

/// Ask `replica` for a receipt re-fetch through the production (indexed)
/// path and through the linear-scan oracle; both as encoded bytes.
#[allow(clippy::type_complexity)]
fn refetch_both(
    cluster: &mut DetCluster,
    id: ReplicaId,
    client: ClientId,
    tx_hash: Digest,
) -> (Vec<(ClientId, Vec<u8>)>, Vec<Vec<u8>>) {
    let replica = &mut cluster.replicas.get_mut(&id).expect("replica").inner;
    let oracle: Vec<Vec<u8>> =
        replica.refetch_oracle_linear(tx_hash).iter().map(|m| m.to_bytes()).collect();
    let indexed = client_sends(replica.handle(Input::Message {
        from: NodeId::Client(client),
        msg: ProtocolMsg::FetchReceipt { tx_hash },
    }));
    (indexed, oracle)
}

/// Drive a cluster through `n_txs` counter increments with a round every
/// `cadence` submissions, then compare indexed vs. linear re-fetch on
/// every live replica for every executed transaction plus unknown ones.
fn check_schedule(n_txs: usize, cadence: usize) {
    let spec = ClusterSpec::new(4, 2, ProtocolParams::default());
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    for i in 0..n_txs {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, format!("k{}", i % 5).into_bytes());
        if (i + 1) % cadence == 0 {
            cluster.round();
        }
    }
    assert!(
        cluster.run_until_finished(n_txs, 1_000),
        "finished {}/{n_txs}",
        cluster.finished.len()
    );

    let mut hashes: Vec<Digest> =
        cluster.finished.iter().map(|(_, tx)| tx.request.digest()).collect();
    // Unknown transactions: misses must be silent on both paths.
    hashes.push(ia_ccf_crypto::hash_bytes(b"never-submitted-1"));
    hashes.push(ia_ccf_crypto::hash_bytes(b"never-submitted-2"));

    let client = spec.clients[0].0;
    let mut hits = 0usize;
    for r in 0..4u32 {
        let id = ReplicaId(r);
        for &h in &hashes {
            let (indexed, oracle) = refetch_both(&mut cluster, id, client, h);
            let indexed_bytes: Vec<Vec<u8>> =
                indexed.iter().map(|(_, b)| b.clone()).collect();
            assert_eq!(
                indexed_bytes, oracle,
                "replica {r}: indexed re-fetch diverged from the linear oracle"
            );
            assert!(indexed.iter().all(|(to, _)| *to == client));
            if !indexed.is_empty() {
                hits += 1;
            }
        }
    }
    // Transactions inside the retention window must actually be served
    // (the differential check alone would pass if both paths went mute).
    assert!(hits > 0, "no re-fetch was served at all");

    // The production path went through the locator, not a scan.
    let stats = cluster.replica(ReplicaId(1)).receipt_cache_stats();
    assert!(stats.locator_hits + stats.locator_misses > 0, "locator index was bypassed");
}

#[test]
fn refetch_equivalence_simple_schedule() {
    check_schedule(10, 3);
}

#[test]
fn refetch_equivalence_with_gc_misses() {
    // 80 singleton batches push the early transactions out of the
    // 64-batch window, so re-fetching them is a miss — on both paths,
    // byte-for-byte (i.e. silence).
    check_schedule(80, 1);
}

/// After 72 singleton batches the first transaction has left the 64-batch
/// window on every replica and the last is served. So is every
/// transaction 33–63 batches behind the committed frontier: this
/// replica's share of those batches is kept as long as the batches are.
/// Every locator hit is a re-fetch served.
#[test]
fn gc_prunes_locator_and_serving_window() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let client = spec.clients[0].0;
    for i in 0..72 {
        cluster.submit(client, CounterApp::INCR, format!("g{i}").into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(72, 500));
    let receipted: Vec<(SeqNum, Digest)> = cluster
        .finished
        .iter()
        .map(|(_, tx)| (tx.receipt.as_ref().expect("receipt").seq(), tx.request.digest()))
        .collect();
    let (first, last) = (receipted[0].1, receipted[receipted.len() - 1].1);
    for r in 0..4 {
        let id = ReplicaId(r);
        let (idx_first, oracle_first) = refetch_both(&mut cluster, id, client, first);
        assert!(idx_first.is_empty(), "replica {r}: pruned tx must not be served");
        assert!(oracle_first.is_empty(), "replica {r}: oracle must agree on the miss");

        let committed = cluster.replica(id).committed_up_to().0;
        let behind = |seq: &SeqNum| committed.checked_sub(seq.0);
        let far: Vec<Digest> = receipted
            .iter()
            .filter(|(seq, _)| behind(seq).is_some_and(|b| (33..64).contains(&b)))
            .map(|(_, tx)| *tx)
            .collect();
        assert!(far.len() >= 20, "replica {r}: {} transactions 33-63 batches back", far.len());
        let mut served = 0;
        for tx in far.into_iter().chain([last]) {
            let (indexed, oracle) = refetch_both(&mut cluster, id, client, tx);
            assert!(!indexed.is_empty(), "replica {r}: a tx inside the window must be served");
            assert_eq!(indexed.into_iter().map(|(_, b)| b).collect::<Vec<_>>(), oracle);
            served += 1;
        }
        let stats = cluster.replica(id).receipt_cache_stats();
        assert_eq!(stats.locator_hits, served, "replica {r}: a locator hit served nothing");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// For random schedules, inside the retention window and past it
    /// (64 more singleton batches), the indexed re-fetch is
    /// byte-identical to the seed's linear scan on every replica — hits
    /// and misses alike.
    #[test]
    fn refetch_matches_linear_oracle(
        n_txs in 4usize..28,
        cadence in 1usize..5,
        past_the_window in any::<bool>(),
    ) {
        if past_the_window {
            check_schedule(n_txs + 64, 1);
        } else {
            check_schedule(n_txs, cadence);
        }
    }
}

// ----------------------------------------------------------------------
// Incremental governance-receipt serving (`from_index`).
// ----------------------------------------------------------------------

/// Commit one governance transaction, then fetch the chain with various
/// `from_index` values: 0 serves everything, an index at the last
/// verified transaction serves nothing new.
#[test]
fn gov_receipts_served_incrementally() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let gt = cluster.replica(ReplicaId(0)).gt_hash();

    // A recorded (non-passing) proposal: one governance link, no boundary.
    let mut next = spec.genesis.clone();
    next.number = spec.genesis.number + 1;
    let propose = SignedRequest::sign(
        Request {
            action: RequestAction::Governance(GovAction::Propose {
                proposal_id: 1,
                new_config: next,
            }),
            client: ClientId(0),
            gt_hash: gt,
            min_index: LedgerIdx(0),
            req_id: 1,
        },
        &spec.member_keys[0],
    );
    cluster.submit_raw(ClientId(0), propose);
    for _ in 0..8 {
        cluster.round();
    }
    let replica = &mut cluster.replicas.get_mut(&ReplicaId(1)).expect("replica").inner;
    assert!(!replica.gov_chain().is_empty(), "governance receipt must be chained");
    let gov_index = replica.gov_chain()[0]
        .receipt()
        .tx_index()
        .expect("governance links carry a tx index");

    let fetch = |replica: &mut ia_ccf::core::Replica, from: LedgerIdx| -> usize {
        let outs = replica.handle(Input::Message {
            from: NodeId::Client(ClientId(1)),
            msg: ProtocolMsg::FetchGovReceipts { from_index: from },
        });
        match client_sends(outs).as_slice() {
            [(_, bytes)] => match ProtocolMsg::from_bytes(bytes).expect("decodes") {
                ProtocolMsg::GovReceipts { receipts } => receipts.len(),
                other => panic!("expected GovReceipts, got {other:?}"),
            },
            other => panic!("expected one response, got {}", other.len()),
        }
    };

    assert_eq!(fetch(replica, LedgerIdx(0)), 1, "fresh client gets the full chain");
    assert_eq!(
        fetch(replica, gov_index),
        0,
        "a client already verified up to the link gets an empty (incremental) response"
    );
    assert_eq!(
        fetch(replica, LedgerIdx(gov_index.0.saturating_sub(1))),
        1,
        "an index below the link still serves it"
    );
}

/// Order a recorded (non-passing) member proposal at seq 1 and run until
/// every replica committed it.
fn commit_proposal(cluster: &mut DetCluster, spec: &ClusterSpec) {
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
            min_index: LedgerIdx(0),
            req_id: 1,
        },
        &spec.member_keys[0],
    );
    cluster.submit_raw(ClientId(0), propose);
    assert!(cluster.run_until(50, |c| c.min_committed() >= SeqNum(1)), "the proposal commits");
}

/// A request that follows a committed governance transaction on an
/// otherwise quiet cluster completes. Its receipt names the new
/// governance index, so the client first needs the proposal's link, and a
/// link is made only when the batch `P` later — which ledgers the
/// proposal's evidence — enters the ledger: the idle primary proposes it,
/// empty, when no request would. The client asks for the chain again on
/// every tick while it waits, so the wait is a few batches, not a retry
/// period. Every replica's chain is then the one a replay of its ledger
/// yields.
#[test]
fn a_request_after_a_proposal_completes_on_a_quiet_cluster() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let p = u64::from(spec.genesis.pipeline_depth);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    commit_proposal(&mut cluster, &spec);
    let start = cluster.rounds;
    cluster.submit(spec.clients[0].0, CounterApp::INCR, b"k".to_vec());
    assert!(cluster.run_until_finished(1, 2_000), "the request never completed");
    let waited = cluster.rounds - start;
    assert!(waited <= 2 * p, "{waited} rounds: the client waited for a retry");

    for r in 0..4 {
        let id = ReplicaId(r);
        let replica = cluster.replica(id);
        assert_eq!(replica.gov_chain().len(), 1, "replica {r}: the proposal's link");
        let replayed = Replica::bootstrap(
            id,
            spec.replica_keys[r as usize].clone(),
            Arc::new(CounterApp),
            spec.params.clone(),
            spec.client_keys(),
            replica.ledger().entries(),
        )
        .expect("the ledger replays");
        assert_eq!(replayed.gov_chain(), replica.gov_chain(), "replica {r}: replay");
    }
    cluster.assert_ledgers_consistent();
}

/// A client that needs governance receipts asks a rotating member for
/// them, as it does for a receipt: with replica 0 crashed after the
/// proposal was linked, a request ordered in the next view still
/// completes. (Asking rank 0 every time stalled it for good.)
#[test]
fn a_client_fetches_governance_receipts_past_a_crashed_member() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    commit_proposal(&mut cluster, &spec);
    for _ in 0..10 {
        cluster.round();
    }
    cluster.crash(ReplicaId(0));
    cluster.submit(spec.clients[0].0, CounterApp::INCR, b"k".to_vec());
    assert!(cluster.run_until_finished(1, 3_000), "the request never completed");
    let receipt = cluster.finished[0].1.receipt.as_ref().expect("a verified receipt");
    assert!(receipt.view() >= View(1), "ordered after the crash, in view {}", receipt.view());
}

// ----------------------------------------------------------------------
// Hostile `FetchEvidenceResponse`: relayed commits are unauthenticated.
// ----------------------------------------------------------------------

/// A `FetchEvidenceResponse` relays *other* replicas' commit nonces, so
/// nothing authenticates them. It used to be accepted from any sender and
/// to overwrite stored nonces: one client (or one Byzantine replica)
/// could replace a backup's valid nonces with garbage, costing it the
/// commit quorum and the batch certificate for that slot. Pin the fix on
/// a hand-driven 4-replica round: the victim backup holds two valid
/// nonces (its own and the primary's) when the garbage arrives, from a
/// client id and from a replica id; the two late commits must still
/// complete the quorum, the certificate must assemble and the receipt
/// re-fetch must serve.
type Queue = VecDeque<(ReplicaId, ReplicaId, ProtocolMsg)>;

fn enqueue(from: ReplicaId, outs: Vec<Output>, queue: &mut Queue) {
    for out in outs {
        match out {
            Output::SendReplica(to, msg) => queue.push_back((from, to, msg)),
            Output::BroadcastReplicas(msg) => {
                for to in (0..4).map(ReplicaId).filter(|to| *to != from) {
                    queue.push_back((from, to, msg.clone()));
                }
            }
            _ => {}
        }
    }
}

/// One hand-driven ordering round of a single counter increment on four
/// fresh replicas, holding back every replica-to-replica message `hold`
/// picks. Returns the replicas, the request's digest and the held
/// messages as `(from, msg)`, sorted by sender.
fn round_holding(
    spec: &ClusterSpec,
    hold: impl Fn(ReplicaId, &ProtocolMsg) -> bool,
) -> (Vec<Replica>, Digest, Vec<(ReplicaId, ProtocolMsg)>) {
    let mut replicas: Vec<Replica> =
        (0..4).map(|rank| spec.build_replica(rank, Arc::new(CounterApp))).collect();
    let (client, kp) = (spec.clients[0].0, &spec.clients[0].1);
    let req = SignedRequest::sign(
        Request {
            action: RequestAction::App { proc: CounterApp::INCR, args: b"k".to_vec() },
            client,
            gt_hash: replicas[0].gt_hash(),
            min_index: LedgerIdx(0),
            req_id: 1,
        },
        kp,
    );
    let mut queue = Queue::new();
    for r in replicas.iter_mut() {
        let outs = r.handle(Input::Message {
            from: NodeId::Client(client),
            msg: ProtocolMsg::Request(req.clone()),
        });
        enqueue(r.id(), outs, &mut queue);
    }
    for _ in 0..5 {
        let outs = replicas[0].handle(Input::Tick);
        enqueue(ReplicaId(0), outs, &mut queue);
    }
    let mut held: Vec<(ReplicaId, ProtocolMsg)> = Vec::new();
    while let Some((from, to, msg)) = queue.pop_front() {
        if hold(to, &msg) {
            held.push((from, msg));
            continue;
        }
        let outs = replicas[to.0 as usize]
            .handle(Input::Message { from: NodeId::Replica(from), msg });
        enqueue(to, outs, &mut queue);
    }
    held.sort_by_key(|(from, _)| *from);
    (replicas, req.digest(), held)
}

#[test]
fn garbage_evidence_response_cannot_displace_valid_commit_nonces() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let victim = ReplicaId(1);
    let client = spec.clients[0].0;
    // One ordering round, with every commit addressed to the victim held
    // back: it prepares batch 1 but stores only its own nonce.
    let (mut replicas, tx_hash, held) =
        round_holding(&spec, |to, msg| to == victim && matches!(msg, ProtocolMsg::Commit(_)));
    assert_eq!(held.iter().map(|(from, _)| from.0).collect::<Vec<_>>(), [0, 2, 3]);
    let v = &mut replicas[victim.0 as usize];
    assert_eq!(v.prepared_view_of(SeqNum(1)), Some(View(0)), "victim prepared batch 1");
    assert_eq!(v.committed_up_to(), SeqNum(0));

    let garbage = ProtocolMsg::FetchEvidenceResponse {
        prepares: Vec::new(),
        commits: (0..4)
            .map(|r| Commit {
                view: View(0),
                seq: SeqNum(1),
                replica: ReplicaId(r),
                nonce: Nonce([0xAB; 16]),
            })
            .collect(),
    };
    let deliver = |v: &mut Replica, from: NodeId, msg: &ProtocolMsg| {
        v.handle(Input::Message { from, msg: msg.clone() })
    };

    // The primary's commit arrives (two valid nonces stored), then the
    // garbage, then the last two commits.
    deliver(v, NodeId::Replica(held[0].0), &held[0].1);
    deliver(v, NodeId::Client(client), &garbage);
    deliver(v, NodeId::Replica(ReplicaId(2)), &garbage);
    assert_eq!(v.committed_up_to(), SeqNum(0), "garbage nonces must not form a quorum");
    for (from, commit) in &held[1..] {
        deliver(v, NodeId::Replica(*from), commit);
    }
    assert_eq!(v.committed_up_to(), SeqNum(1), "batch 1 must commit despite the garbage");

    // Same attack after the commit.
    deliver(v, NodeId::Client(client), &garbage);
    deliver(v, NodeId::Replica(ReplicaId(2)), &garbage);
    // And through the other door: each peer's own, authenticated `Commit`
    // with a second nonce. The first one that opened stays.
    for r in [0, 2, 3].map(ReplicaId) {
        let second = Commit { view: View(0), seq: SeqNum(1), replica: r, nonce: Nonce([0xCD; 16]) };
        deliver(v, NodeId::Replica(r), &ProtocolMsg::Commit(second));
    }
    // The store kept each signer's first, opening nonce: the evidence a
    // peer fetches for batch 1 relays the valid commits, none of the
    // garbage ones.
    let fetch = ProtocolMsg::FetchEvidence { seq: SeqNum(1) };
    let fetched = deliver(v, NodeId::Replica(ReplicaId(2)), &fetch);
    let [Output::SendReplica(ReplicaId(2), ProtocolMsg::FetchEvidenceResponse { commits, .. })] =
        &fetched[..]
    else {
        panic!("the victim must serve its evidence for batch 1: {fetched:?}");
    };
    let signers: Vec<u32> = commits.iter().map(|c| c.replica.0).collect();
    assert_eq!(signers, [0, 1, 2, 3], "one nonce per replica");
    for (_, held_commit) in &held {
        let ProtocolMsg::Commit(valid) = held_commit else {
            panic!("only commits are held: {held_commit:?}");
        };
        assert!(commits.contains(valid), "replica {}'s valid nonce is relayed", valid.replica);
    }
    let forged = [Nonce([0xAB; 16]), Nonce([0xCD; 16])];
    assert!(commits.iter().all(|c| !forged.contains(&c.nonce)), "{commits:?}");
    let refetch = ProtocolMsg::FetchReceipt { tx_hash };
    let served = client_sends(deliver(v, NodeId::Client(client), &refetch));
    assert_eq!(served.len(), 2, "re-fetch serves the Reply/ReplyX pair");
}

/// A re-fetch reveals this replica's nonce only once the batch prepared
/// here, as its first reply does (Alg. 1 lines 32–38): a backup that
/// executed batch 1 and sent its prepare, but holds no prepare quorum,
/// serves nothing on either path. Once the held prepares arrive it
/// prepares and serves the pair, byte-identical to the oracle's.
#[test]
fn refetch_before_prepared_serves_nothing() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let victim = ReplicaId(1);
    let client = spec.clients[0].0;
    let (mut replicas, tx_hash, held) =
        round_holding(&spec, |to, msg| to == victim && matches!(msg, ProtocolMsg::Prepare(_)));
    assert_eq!(held.iter().map(|(from, _)| from.0).collect::<Vec<_>>(), [2, 3]);
    let v = &mut replicas[victim.0 as usize];
    assert!(v.ledger().pp_at(SeqNum(1)).is_some(), "victim took batch 1 in");
    assert_eq!(v.prepared_view_of(SeqNum(1)), None, "victim has no prepare quorum");

    let refetch = ProtocolMsg::FetchReceipt { tx_hash };
    let both = |v: &mut Replica| {
        let oracle: Vec<Vec<u8>> =
            v.refetch_oracle_linear(tx_hash).iter().map(|m| m.to_bytes()).collect();
        let indexed = client_sends(
            v.handle(Input::Message { from: NodeId::Client(client), msg: refetch.clone() }),
        );
        (indexed.into_iter().map(|(_, b)| b).collect::<Vec<_>>(), oracle)
    };
    let (indexed, oracle) = both(v);
    assert!(indexed.is_empty(), "an unprepared batch's re-fetch revealed the nonce");
    assert!(oracle.is_empty(), "the oracle must agree on the silence");

    for (from, prepare) in held {
        v.handle(Input::Message { from: NodeId::Replica(from), msg: prepare });
    }
    assert_eq!(v.prepared_view_of(SeqNum(1)), Some(View(0)), "victim prepared batch 1");
    let (indexed, oracle) = both(v);
    assert_eq!(indexed.len(), 2, "re-fetch serves the Reply/ReplyX pair once prepared");
    assert_eq!(indexed, oracle);
}
