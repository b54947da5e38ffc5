//! One accept set, end to end: a client signature with a small-order
//! component in `R` gets the same verdict from every verifier in the
//! system, however each of them cuts the batch.
//!
//! `R' = R + T`, `s = r + H(R' ‖ A ‖ M)·a` (made with the client's own
//! scalar by the bit-serial oracle of `crates/crypto/tests/oracle`) leaves
//! the residue `−T` in the group equation. The retired cofactorless rule
//! rejected it singly, yet a random linear combination of several could
//! let the residues cancel: a primary proposing a cancelling pair — which
//! only a Byzantine one would have — could have had a backup that checks
//! the whole batch in one slice accept, a backup whose worker pool cuts the
//! pair apart reject, and an auditor checking one by one reject. Under the
//! cofactored rule all of them accept, so the batch commits in view 0 on
//! every replica, a pool of 1 (whole-batch kernel) and a pool of 4
//! (per-chunk kernels, the pair straddling a chunk boundary) write the
//! same ledger, a batch too short for the combined equation (singles) takes
//! one too, and the stock auditor finds the ledger clean.

#[path = "../crates/crypto/tests/oracle/mod.rs"]
mod oracle;

use std::sync::Arc;

use ia_ccf::audit::{AuditOutcome, Auditor, LedgerPackage, StoredReceipt};
use ia_ccf::core::app::CounterApp;
use ia_ccf::core::ProtocolParams;
use ia_ccf::governance::chain::GovernanceChain;
use ia_ccf_crypto::{hash_bytes, Signature, VERIFY_MIN_CHUNK};
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_types::{
    Digest, LedgerEntry, LedgerIdx, ReplicaId, Request, RequestAction, SeqNum, SignedRequest, Wire,
};
use oracle::point::EdwardsPoint;

/// Requests in the large batch.
const BATCH: usize = 80;

/// An order-8 point and its negative, an order-4 and the order-2 point.
fn torsion() -> [EdwardsPoint; 4] {
    let order_8 = oracle::small_order_points()
        .into_iter()
        .find(|t| !t.double().double().eq_point(&EdwardsPoint::identity()))
        .expect("four of the eight have order 8");
    let mut seven = [0u8; 32];
    seven[0] = 7;
    [order_8, order_8.mul_scalar(&seven), order_8.double(), order_8.double().double()]
}

/// The request a client would send, signed by `sign` over its payload.
fn request(
    spec: &ClusterSpec,
    gt_hash: Digest,
    client: usize,
    req_id: u64,
    sign: impl FnOnce(&[u8]) -> [u8; 64],
) -> SignedRequest {
    let request = Request {
        action: RequestAction::App { proc: CounterApp::INCR, args: b"k".to_vec() },
        client: spec.clients[client].0,
        gt_hash,
        min_index: LedgerIdx(1),
        req_id,
    };
    let sig = Signature(sign(&request.signing_payload()));
    SignedRequest { request, sig }
}

/// The digests of the committed transactions, in ledger order.
fn committed_digests(cluster: &DetCluster, replica: u32) -> Vec<Digest> {
    cluster
        .replica(ReplicaId(replica))
        .ledger()
        .entries()
        .iter()
        .filter_map(|e| match e {
            LedgerEntry::Tx(tx) => Some(tx.request.digest()),
            _ => None,
        })
        .collect()
}

/// Drive one cluster: a batch of [`BATCH`] with four crafted requests in
/// it, then a batch of three with one. Returns the wire bytes of every
/// transaction entry.
fn run(pool_threads: usize) -> Vec<Vec<u8>> {
    let params = ProtocolParams { view_timeout_ticks: 20, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 2, params).with_pool_threads(pool_threads);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let gt_hash = cluster.replica(ReplicaId(0)).gt_hash();
    // The spec's client keys are seeded from their labels; the oracle
    // derives the same key pair and exposes the scalar.
    let signers: Vec<oracle::SigningKey> = (0..2)
        .map(|i| oracle::SigningKey::from_bytes(&hash_bytes(format!("client-{i}").as_bytes()).0))
        .collect();
    for (signer, (_, kp)) in signers.iter().zip(&spec.clients) {
        assert_eq!(signer.public(), kp.public().0);
    }
    let [t8, minus_t8, t4, t2] = torsion();
    assert!(t8.add(&minus_t8).eq_point(&EdwardsPoint::identity()));

    // The cancelling pair sits on both sides of the first chunk boundary a
    // pool of 4 cuts (chunks of VERIFY_MIN_CHUNK): each chunk sees one lone
    // residue, the whole-batch slice sees them cancel.
    let crafted_at = [
        (VERIFY_MIN_CHUNK - 1, 0usize, t8),
        (VERIFY_MIN_CHUNK, 0, minus_t8),
        (50, 1, t4),
        (BATCH - 1, 1, t2),
    ];
    let mut crafted: Vec<SignedRequest> = Vec::new();
    for position in 0..BATCH {
        match crafted_at.iter().find(|(at, _, _)| *at == position) {
            Some((_, client, t)) => {
                let r = request(&spec, gt_hash, *client, 1_000 + position as u64, |payload| {
                    signers[*client].sign_with_torsion(payload, t)
                });
                assert!(r.verify_with(&spec.clients[*client].1.public()), "single check accepts");
                let old_rule = oracle::verify(&signers[*client].public(), &r.request.signing_payload(), &r.sig.0);
                assert_eq!(old_rule, Some(false), "the cofactorless rule rejected it");
                cluster.submit_raw(spec.clients[*client].0, r.clone());
                crafted.push(r);
            }
            None => {
                cluster.submit(spec.clients[position % 2].0, CounterApp::INCR, b"k".to_vec());
            }
        }
    }
    let honest = BATCH - crafted_at.len();
    assert!(cluster.run_until_finished(honest, 200), "only {} finished", cluster.finished.len());
    assert_eq!(cluster.min_committed(), SeqNum(1), "everything went into one batch");
    for r in 0..4 {
        let digests = committed_digests(&cluster, r);
        assert_eq!(digests.len(), BATCH, "replica {r} committed the crafted requests too");
        for ((at, _, _), request) in crafted_at.iter().zip(&crafted) {
            assert_eq!(digests[*at], request.digest(), "replica {r}, position {at}");
        }
    }

    // A batch of three — below the combined equation's crossover, so every
    // replica checks these singly.
    let small = request(&spec, gt_hash, 0, 2_000, |payload| signers[0].sign_with_torsion(payload, &t4));
    cluster.submit(spec.clients[0].0, CounterApp::INCR, b"k".to_vec());
    cluster.submit_raw(spec.clients[0].0, small.clone());
    cluster.submit(spec.clients[1].0, CounterApp::INCR, b"k".to_vec());
    assert!(cluster.run_until_finished(honest + 2, 200));
    assert!(cluster.run_until(50, |c| c.min_committed() >= SeqNum(2)));
    for r in 0..4 {
        let replica = cluster.replica(ReplicaId(r));
        assert_eq!(replica.view().0, 0, "replica {r}: nobody disagreed with the primary");
        assert_eq!(committed_digests(&cluster, r)[BATCH + 1], small.digest());
        let total = (BATCH + 3) as u64;
        assert_eq!(replica.kv().get(b"k"), Some(&total.to_le_bytes().to_vec()));
    }
    cluster.assert_ledgers_consistent();

    // The stock auditor, with every receipt the honest clients hold.
    let receipts: Vec<StoredReceipt> = cluster
        .finished
        .iter()
        .map(|(_, tx)| StoredReceipt {
            request: tx.request.clone(),
            receipt: tx.receipt.clone().expect("receipts"),
        })
        .collect();
    let package = LedgerPackage::from_replica(cluster.replica(ReplicaId(2)), SeqNum(0));
    let auditor = Auditor::new(spec.genesis.clone(), Arc::new(CounterApp));
    let outcome = auditor.audit(&receipts, &GovernanceChain::new(), &package);
    assert!(matches!(outcome, AuditOutcome::Clean), "{:?}", outcome.upom());

    cluster
        .replica(ReplicaId(1))
        .ledger()
        .entries()
        .iter()
        .filter(|e| matches!(e, LedgerEntry::Tx(_)))
        .map(Wire::to_bytes)
        .collect()
}

#[test]
fn torsion_crafted_client_signatures_split_nobody() {
    let whole_batch = run(1);
    let per_chunk = run(4);
    assert_eq!(whole_batch, per_chunk, "pool size must not show in the ledger");
}
