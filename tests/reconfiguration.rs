//! End-to-end reconfiguration (§5): a referendum adds a member and a
//! replica; the protocol runs the end-of-configuration / checkpoint /
//! start-of-configuration schedule; a new replica bootstraps from the
//! ledger and joins; clients verify receipts across the boundary through
//! the governance receipt chain. A later referendum removes a replica,
//! which retires once the switch batch commits.

use std::sync::Arc;

use ia_ccf::core::app::CounterApp;
use ia_ccf::core::{Input, NodeId, ProtocolParams, Replica};
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_types::{
    ClientId, Configuration, GovAction, KeyPair, LedgerIdx, MemberDesc, MemberId, ProtocolMsg,
    ReplicaDesc, ReplicaId, Request, RequestAction, SeqNum, SignedRequest, Wire,
};

/// Build the next configuration: same members plus member 4, who operates
/// new replica 4.
fn next_config(genesis: &Configuration) -> (Configuration, KeyPair, KeyPair) {
    let mut config = genesis.clone();
    config.number = genesis.number + 1;
    let member_kp = KeyPair::from_label("member-4");
    let replica_kp = KeyPair::from_label("replica-4");
    config.members.push(MemberDesc { id: MemberId(4), key: member_kp.public() });
    let payload = ReplicaDesc::endorsement_payload(ReplicaId(4), &replica_kp.public());
    config.replicas.push(ReplicaDesc {
        id: ReplicaId(4),
        key: replica_kp.public(),
        operator: MemberId(4),
        endorsement: member_kp.sign(&payload),
    });
    (config, member_kp, replica_kp)
}

fn gov_request(
    member: MemberId,
    key: &KeyPair,
    gt_hash: ia_ccf_types::Digest,
    action: GovAction,
    req_id: u64,
) -> SignedRequest {
    SignedRequest::sign(
        Request {
            action: RequestAction::Governance(action),
            client: ClientId(member.0 as u64),
            gt_hash,
            min_index: LedgerIdx(0),
            req_id,
        },
        key,
    )
}

#[test]
fn referendum_reconfigures_and_new_replica_joins() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let client = spec.clients[0].0;
    let gt = cluster.replica(ReplicaId(0)).gt_hash();
    let (new_config, _m4, replica4_kp) = next_config(&spec.genesis);

    // Warm up with some app traffic.
    for _ in 0..3 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until_finished(3, 100));

    // --- Referendum: propose + votes from 3 members (threshold = 3). ---
    cluster.submit_raw(
        ClientId(0),
        gov_request(
            MemberId(0),
            &spec.member_keys[0],
            gt,
            GovAction::Propose { proposal_id: 1, new_config: new_config.clone() },
            1,
        ),
    );
    cluster.round();
    for m in 0..3u32 {
        cluster.submit_raw(
            ClientId(m as u64),
            gov_request(
                MemberId(m),
                &spec.member_keys[m as usize],
                gt,
                GovAction::Vote { proposal_id: 1, approve: true },
                10 + m as u64,
            ),
        );
        cluster.round();
    }

    // Drive until every original replica activates configuration 1.
    assert!(
        cluster.run_until(400, |c| {
            c.replicas
                .iter()
                .filter(|(id, _)| id.0 < 4)
                .all(|(_, r)| r.inner.active_config().number == 1)
        }),
        "configuration 1 never activated: views/configs: {:?}",
        cluster
            .replicas
            .values()
            .map(|r| (r.inner.view(), r.inner.active_config().number))
            .collect::<Vec<_>>()
    );

    // The governance chain served to clients now contains the referendum
    // and the boundary receipt, and verifies from genesis.
    let chain_links = cluster.replica(ReplicaId(1)).gov_chain();
    assert!(
        chain_links.len() >= 5,
        "expect propose + 3 votes + boundary, got {}",
        chain_links.len()
    );
    let mut chain = ia_ccf::governance::chain::GovernanceChain::new();
    for l in chain_links {
        chain.push(l.clone());
    }
    let history = chain.verify(&spec.genesis).expect("governance chain verifies");
    assert_eq!(history.latest().number, 1);
    assert_eq!(history.latest().n(), 5);

    // --- A new replica bootstraps from a current ledger and joins. ---
    let entries = cluster.replica(ReplicaId(0)).ledger().entries().to_vec();
    let new_replica = Replica::bootstrap(
        ReplicaId(4),
        replica4_kp,
        Arc::new(CounterApp),
        ProtocolParams::default(),
        spec.client_keys(),
        &entries,
    )
    .expect("bootstrap replays the ledger");
    assert_eq!(new_replica.active_config().number, 1);
    cluster.add_replica(new_replica);

    // --- Post-reconfiguration traffic: client receipts verify across the
    // boundary via the governance chain (§5.2). ---
    for _ in 0..5 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        cluster.round();
    }
    assert!(
        cluster.run_until_finished(8, 400),
        "post-reconfig transactions stalled: finished = {}",
        cluster.finished.len()
    );
    for (_, tx) in &cluster.finished[3..] {
        let receipt = tx.receipt.as_ref().expect("receipt");
        // Verified by the client already (under config 1, via the fetched
        // governance chain); double-check under the new configuration.
        receipt.verify(history.latest()).expect("receipt valid under config 1");
    }

    // The new replica executes and stays consistent.
    assert!(
        cluster.run_until(200, |c| c.replica(ReplicaId(4)).committed_up_to()
            >= c.replica(ReplicaId(0)).committed_up_to().minus(2)),
        "new replica lags: {} vs {}",
        cluster.replica(ReplicaId(4)).committed_up_to(),
        cluster.replica(ReplicaId(0)).committed_up_to()
    );
    let counter = |r: &Replica| {
        r.kv()
            .get(b"k")
            .map(|v| u64::from_le_bytes(v.as_slice().try_into().unwrap()))
            .unwrap_or(0)
    };
    assert_eq!(counter(cluster.replica(ReplicaId(4))), 8);
    cluster.assert_ledgers_consistent();
}

#[test]
fn rejected_referendum_changes_nothing() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let gt = cluster.replica(ReplicaId(0)).gt_hash();
    let (new_config, _, _) = next_config(&spec.genesis);

    cluster.submit_raw(
        ClientId(0),
        gov_request(
            MemberId(0),
            &spec.member_keys[0],
            gt,
            GovAction::Propose { proposal_id: 9, new_config },
            1,
        ),
    );
    cluster.round();
    // Only rejections arrive.
    for m in 0..4u32 {
        cluster.submit_raw(
            ClientId(m as u64),
            gov_request(
                MemberId(m),
                &spec.member_keys[m as usize],
                gt,
                GovAction::Vote { proposal_id: 9, approve: false },
                20 + m as u64,
            ),
        );
        cluster.round();
    }
    for _ in 0..20 {
        cluster.round();
    }
    for r in cluster.replicas.values() {
        assert_eq!(r.inner.active_config().number, 0, "no reconfiguration may happen");
    }
}

#[test]
fn non_member_governance_is_ignored() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let gt = cluster.replica(ReplicaId(0)).gt_hash();
    let (new_config, _, _) = next_config(&spec.genesis);
    let outsider = KeyPair::from_label("not-a-member");

    cluster.submit_raw(
        ClientId(99),
        gov_request(
            MemberId(99),
            &outsider,
            gt,
            GovAction::Propose { proposal_id: 1, new_config },
            1,
        ),
    );
    for _ in 0..10 {
        cluster.round();
    }
    for r in cluster.replicas.values() {
        assert_eq!(r.inner.active_config().number, 0);
        assert_eq!(r.inner.gov_chain().len(), 0, "no governance tx may be recorded");
    }
}

/// Submit a proposal for `config` from member 0 and approving votes from
/// members 0–2 (the threshold), one round each.
fn pass_referendum(cluster: &mut DetCluster, spec: &ClusterSpec, config: Configuration) {
    let gt = cluster.replica(ReplicaId(0)).gt_hash();
    let proposal_id = config.number;
    let req_id = 100 * config.number;
    let propose = GovAction::Propose { proposal_id, new_config: config };
    let request = gov_request(MemberId(0), &spec.member_keys[0], gt, propose, req_id);
    cluster.submit_raw(ClientId(0), request);
    cluster.round();
    for m in 0..3u32 {
        let vote = GovAction::Vote { proposal_id, approve: true };
        let key = &spec.member_keys[m as usize];
        let request = gov_request(MemberId(m), key, gt, vote, req_id + 1 + m as u64);
        cluster.submit_raw(ClientId(m as u64), request);
        cluster.round();
    }
}

/// A referendum removes replica 3. Governance moves at most `f` = 1
/// replica per referendum, so swapping replica 3 for replica 4 at n = 4
/// takes two: configuration 1 adds replica 4 (n = 5), configuration 2
/// drops replica 3 (n = 4 again). Replica 3 helps commit the switch batch
/// that removes it, retires exactly once after its own committed frontier
/// reaches it, and answers nothing afterwards; the survivors keep
/// committing under configuration 2.
#[test]
fn referendum_removes_a_replica_that_retires_once() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let client = spec.clients[0].0;
    let (added, _m4, replica4_kp) = next_config(&spec.genesis);
    let removed = ReplicaId(3);
    let survivors = [0, 1, 2, 4].map(ReplicaId);

    for _ in 0..3 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until_finished(3, 100));

    // Configuration 1: replica 4 joins.
    pass_referendum(&mut cluster, &spec, added.clone());
    let active = |c: &DetCluster, id: &ReplicaId| c.replica(*id).active_config().number;
    assert!(
        cluster.run_until(400, |c| c.replicas.keys().all(|id| active(c, id) == 1)),
        "configuration 1 never activated"
    );
    let entries = cluster.replica(ReplicaId(0)).ledger().entries().to_vec();
    let replica4 = Replica::bootstrap(
        ReplicaId(4),
        replica4_kp,
        Arc::new(CounterApp),
        ProtocolParams::default(),
        spec.client_keys(),
        &entries,
    )
    .expect("bootstrap replays the ledger");
    cluster.add_replica(replica4);
    cluster.submit(client, CounterApp::INCR, b"k".to_vec());
    assert!(cluster.run_until_finished(4, 400), "configuration 1 does not commit");

    // Configuration 2: replica 3 leaves (its operator stays a member).
    let mut without = added.clone();
    without.number = 2;
    without.replicas.retain(|r| r.id != removed);
    pass_referendum(&mut cluster, &spec, without.clone());
    assert!(
        cluster.run_until(400, |c| survivors.iter().all(|id| active(c, id) == 2)
            && c.retirements.contains_key(&removed)),
        "configuration 2 never activated, or replica 3 never retired: retirements {:?}",
        cluster.retirements
    );

    // Exactly once, and only once replica 3's own frontier reached the
    // switch batch — the last one of configuration 1.
    let survivor = cluster.replica(ReplicaId(0));
    let first = (1..=survivor.committed_up_to().0)
        .map(SeqNum)
        .find(|s| survivor.config_for_seq(*s).number == 2)
        .expect("configuration 2 governs a committed batch");
    let switch = SeqNum(first.0 - 1);
    assert_eq!(survivor.config_for_seq(switch).number, 1);
    let emitted = cluster.retirements[&removed].clone();
    assert_eq!(emitted.len(), 1, "Output::Retired emitted at frontiers {emitted:?}");
    assert!(emitted[0] >= switch, "retired at {} before the switch batch {switch}", emitted[0]);
    assert_eq!(cluster.retirements.len(), 1, "only replica 3 retires");

    // The survivors keep committing; receipts verify under configuration 2.
    let committed = |c: &DetCluster, id: &ReplicaId| c.replica(*id).committed_up_to();
    let before = survivors.map(|id| committed(&cluster, &id));
    let finished = cluster.finished.len();
    for _ in 0..4 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        cluster.round();
    }
    assert!(
        cluster.run_until_finished(finished + 4, 400),
        "post-removal transactions stalled: finished = {}",
        cluster.finished.len()
    );
    assert!(cluster.run_until(100, |c| survivors.iter().zip(&before).all(|(id, b)| {
        committed(c, id) > *b && committed(c, id) == committed(c, &ReplicaId(0))
    })));
    for (_, tx) in &cluster.finished[finished..] {
        let receipt = tx.receipt.as_ref().expect("receipt");
        receipt.verify(&without).expect("receipt valid under configuration 2");
    }

    // Retired for good: its frontier never moved again, and no input — the
    // clock, a client's request or refetch, a peer's tip query — gets an
    // answer.
    assert_eq!(cluster.replica(removed).committed_up_to(), emitted[0]);
    assert_eq!(cluster.retirements[&removed].len(), 1);
    let tx_hash = cluster.finished[finished].1.request.digest();
    let request = cluster.finished[finished].1.request.clone();
    let view_timeout = ProtocolParams::default().view_timeout_ticks;
    let inputs = (0..=view_timeout).map(|_| Input::Tick).chain([
        Input::Message { from: NodeId::Client(client), msg: ProtocolMsg::Request(request) },
        Input::Message {
            from: NodeId::Client(client),
            msg: ProtocolMsg::FetchReceipt { tx_hash },
        },
        Input::Message { from: NodeId::Replica(ReplicaId(0)), msg: ProtocolMsg::FetchLedgerTip },
    ]);
    let retired = &mut cluster.replicas.get_mut(&removed).expect("still present").inner;
    for input in inputs {
        let what = format!("{input:?}");
        assert!(retired.handle(input).is_empty(), "a retired replica answered {what}");
    }

    // The survivors agree, replica 4 included.
    cluster.crash(removed);
    cluster.assert_ledgers_consistent();

    // A replica that replays this whole history — both switches inside one
    // run, so the replay pre-pass proves every pre-prepare under the
    // genesis keys — holds a survivor's bytes.
    let survivor = cluster.replica(ReplicaId(0));
    let entries = survivor.ledger().entries().to_vec();
    let replayed = Replica::bootstrap(
        ReplicaId(4),
        KeyPair::from_label("replica-4"),
        Arc::new(CounterApp),
        ProtocolParams::default(),
        spec.client_keys(),
        &entries,
    )
    .expect("bootstrap replays both reconfigurations");
    assert_eq!(replayed.active_config().number, 2);
    assert_eq!(replayed.ledger().len(), survivor.ledger().len());
    for (i, entry) in entries.iter().enumerate() {
        let at = LedgerIdx(i as u64);
        assert_eq!(replayed.ledger().entry(at).map(Wire::to_bytes), Some(entry.to_bytes()), "{i}");
    }
    assert_eq!(replayed.kv().digest(), survivor.kv().digest());
}
