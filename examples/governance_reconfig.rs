//! Live reconfiguration (§5): a referendum adds a fifth member and
//! replica; the service runs the end-of-configuration schedule, the new
//! replica bootstraps from the ledger, and a client verifies receipts
//! across the configuration boundary using only its governance receipt
//! chain — no ledger required.
//!
//! ```sh
//! cargo run --release --example governance_reconfig
//! ```

use std::sync::Arc;

use ia_ccf::core::app::CounterApp;
use ia_ccf::core::{ProtocolParams, Replica};
use ia_ccf::governance::chain::GovernanceChain;
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_types::{
    ClientId, GovAction, KeyPair, LedgerIdx, MemberDesc, MemberId, ReplicaDesc, ReplicaId,
    Request, RequestAction, SignedRequest,
};

fn main() {
    let spec = ClusterSpec::new(4, 1, ProtocolParams::default());
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let client = spec.clients[0].0;
    let gt = cluster.replica(ReplicaId(0)).gt_hash();

    // The proposed configuration: everyone from genesis, plus member 4
    // operating new replica 4 (with the member's key endorsement, §5.1).
    let mut new_config = spec.genesis.clone();
    new_config.number = 1;
    let member4 = KeyPair::from_label("member-4");
    let replica4 = KeyPair::from_label("replica-4");
    new_config.members.push(MemberDesc { id: MemberId(4), key: member4.public() });
    let endorsement =
        member4.sign(&ReplicaDesc::endorsement_payload(ReplicaId(4), &replica4.public()));
    new_config.replicas.push(ReplicaDesc {
        id: ReplicaId(4),
        key: replica4.public(),
        operator: MemberId(4),
        endorsement,
    });

    // Pre-referendum traffic.
    for _ in 0..3 {
        cluster.submit(client, CounterApp::INCR, b"counter".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until_finished(3, 100));
    println!("3 transactions committed under configuration 0 (N=4)");

    // The referendum: member 0 proposes; members 0–2 vote (threshold 3).
    let gov = |member: MemberId, key: &KeyPair, action: GovAction, req_id: u64| {
        SignedRequest::sign(
            Request {
                action: RequestAction::Governance(action),
                client: ClientId(member.0 as u64),
                gt_hash: gt,
                min_index: LedgerIdx(0),
                req_id,
            },
            key,
        )
    };
    cluster.submit_raw(
        ClientId(0),
        gov(
            MemberId(0),
            &spec.member_keys[0],
            GovAction::Propose { proposal_id: 1, new_config: new_config.clone() },
            1,
        ),
    );
    cluster.round();
    for m in 0..3u32 {
        cluster.submit_raw(
            ClientId(m as u64),
            gov(
                MemberId(m),
                &spec.member_keys[m as usize],
                GovAction::Vote { proposal_id: 1, approve: true },
                10 + m as u64,
            ),
        );
        cluster.round();
        println!("member {m} voted to approve");
    }

    assert!(cluster.run_until(400, |c| {
        c.replicas.values().all(|r| r.inner.active_config().number == 1)
    }));
    println!("referendum passed; configuration 1 active (N=5, end-of-config schedule complete)");

    // The new replica bootstraps by replaying a ledger copy (§3.4/§5.1) —
    // re-executing every batch and checking every signed Merkle root.
    let entries = cluster.replica(ReplicaId(0)).ledger().entries().to_vec();
    let new_replica = Replica::bootstrap(
        ReplicaId(4),
        replica4,
        Arc::new(CounterApp),
        ProtocolParams::default(),
        spec.client_keys(),
        &entries,
    )
    .expect("ledger replay succeeds");
    println!(
        "replica 4 bootstrapped: replayed {} ledger entries, config number {}",
        entries.len(),
        new_replica.active_config().number
    );
    cluster.add_replica(new_replica);

    // Post-reconfiguration traffic. The client's receipts reference the
    // new governance index; it fetches the governance receipt chain and
    // verifies under the new signing keys (§5.2).
    for _ in 0..4 {
        cluster.submit(client, CounterApp::INCR, b"counter".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until_finished(7, 400));
    println!("4 more transactions committed under configuration 1");

    // Rebuild the chain a fresh verifier would use.
    let mut chain = GovernanceChain::new();
    for link in cluster.replica(ReplicaId(2)).gov_chain() {
        chain.push(link.clone());
    }
    let history = chain.verify(&spec.genesis).expect("chain verifies from genesis");
    println!(
        "governance chain: {} links; configurations: {:?}",
        chain.len(),
        history.iter().map(|(i, c)| (i.0, c.number, c.n())).collect::<Vec<_>>()
    );
    for (_, tx) in &cluster.finished[3..] {
        let receipt = tx.receipt.as_ref().expect("receipt");
        let config = history.at(receipt.gov_index());
        receipt.verify(config).expect("verifies under the chain-derived configuration");
    }
    println!("all post-reconfiguration receipts verify via the governance chain alone");
}
