//! The paper's deterministic size claims — Tab. 1 (ledger entries) and
//! §6.4 (the governance sub-ledger) — asserted exactly, as the
//! `Wire::encoded_len` of entries and votes on ledgers that replicas
//! wrote, at f = 1 (n = 4) and f = 3 (n = 10). A pinned figure
//! that moves means a ledger or receipt encoding changed size: that is a
//! consensus fact, so move the pin in the same change and say why.
//!
//! | entry (bytes)        | paper f=1 / f=3 | ours f=1 / f=3 |
//! | -------------------- | --------------- | -------------- |
//! | transaction          | 216–358         | 197–215        |
//! | pre-prepare          | 277 / 277       | 239 / 239      |
//! | prepare evidence     | 298 / 894       | 309 / 901      |
//! | nonces               | 32 / 64         | 61 / 125       |
//! | governance receipt   | 623 / 1,565     | 497 / 817      |
//! | vote request         | —               | 131 / 131      |
//!
//! The *shapes* are the paper's: a pre-prepare does not grow with f;
//! evidence is a constant plus one prepare per backup in the quorum (the
//! paper's 298 / 894 is 149 B each with no header; ours 148 B each plus a
//! 13-byte tag, `seq` and count); nonces a constant plus 16 B per quorum
//! member (the paper's 32 / 64 fits 16 B × (f + 1)); a governance receipt
//! grows by one signature and one nonce per quorum member — ×1.64 from
//! f = 1 to f = 3 where the paper has ×2.51. The synthetic fixtures these
//! checks replace (`tab1`, `governance_size`, gone with `crates/bench`)
//! printed the same 239, 309 / 901, 61 / 125, 497 / 817 and 131.
//!
//! The paper does not size `replyx`, but it is most of what a client
//! receives, so its framed bytes per transaction are pinned the same way
//! (a regular batch of 300 leaves, SmallBank's 8-byte outputs):
//!
//! | `replyx` per transaction (bytes)                | retired | bundle |
//! | ----------------------------------------------- | ------- | ------ |
//! | 1 witness (a re-fetch)                          | 604     | 584    |
//! | 23 witnesses (`sat_uniform`'s share of a batch) | 595.7   | 370    |
//!
//! The retired layout sent the batch's pre-prepare core, the primary's
//! signature and `H(t)` with every transaction; a bundle carries the
//! first two once per client, batch and designated replica (215 B with
//! its frame) and no `H(t)` (the client knows it), so a witness costs its
//! request id, index, result and path: 369 B for a 9-sibling path.

use std::sync::Arc;

use ia_ccf::audit::{AuditOutcome, Auditor, LedgerPackage, StoredReceipt};
use ia_ccf::core::ProtocolParams;
use ia_ccf::governance::chain::{GovLink, GovernanceChain};
use ia_ccf::merkle::MerkleTree;
use ia_ccf::net::frame::HEADER_LEN;
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_smallbank::{load_accounts, SmallBankApp, Workload};
use ia_ccf_types::messages::testutil::test_pp;
use ia_ccf_types::{
    ClientId, Digest, GovAction, KeyPair, LedgerEntry, LedgerIdx, ProtocolMsg, ReplicaId, ReplyTx,
    ReplyX, Request, RequestAction, SeqNum, SignedRequest, TxResult, Wire,
};

const ACCOUNTS: u64 = 40;
const TRANSACTIONS: usize = 60;

/// The byte sizes one run measured, each a `(min, max)` over every entry
/// of its kind in replica 0's ledger (or vote in its governance chain).
#[derive(Debug, PartialEq)]
struct Sizes {
    pre_prepare: (usize, usize),
    evidence: (usize, usize),
    nonces: (usize, usize),
    transaction: (usize, usize),
    gov_receipt: (usize, usize),
    vote_request: (usize, usize),
}

fn is_app(t: &SignedRequest) -> bool {
    !t.is_governance() && !t.is_system()
}

fn span(lens: impl Iterator<Item = usize>) -> (usize, usize) {
    let (min, max) = lens.fold((usize::MAX, 0), |(lo, hi), len| (lo.min(len), hi.max(len)));
    assert!(min <= max, "the run wrote no entry of this kind");
    (min, max)
}

/// SmallBank over `n` replicas, then a referendum that passes (the same
/// members under configuration 1), then more SmallBank; every receipt is
/// verified under the governance chain and the ledger audited.
fn run(n: usize) -> Sizes {
    let spec =
        ClusterSpec::new(n, 2, ProtocolParams::default()).with_pool_threads(1);
    let mut cluster = DetCluster::new(&spec, Arc::new(SmallBankApp));
    let load = load_accounts(ACCOUNTS, 1_000);
    let loaded = cluster.commit_setup_tx(spec.clients[0].0, load.proc, load.args);
    assert!(loaded.ok);

    let mut workload = Workload::new(ACCOUNTS, 99);
    let mut submitted = 0;
    let mut bank = |cluster: &mut DetCluster, count: usize| {
        for i in 0..count {
            let op = workload.next_op();
            cluster.submit(spec.clients[i % 2].0, op.proc, op.args);
            if i % 5 == 4 {
                cluster.round();
            }
        }
        submitted += count;
        assert!(cluster.run_until_finished(submitted, 2_000), "{}", cluster.finished.len());
    };
    bank(&mut cluster, TRANSACTIONS / 2);

    let gt_hash = cluster.replica(ReplicaId(0)).gt_hash();
    let gov = |member: u32, action: GovAction, req_id: u64| {
        let request = Request {
            action: RequestAction::Governance(action),
            client: ClientId(member as u64),
            gt_hash,
            min_index: LedgerIdx(0),
            req_id,
        };
        SignedRequest::sign(request, &spec.member_keys[member as usize])
    };
    let mut new_config = spec.genesis.clone();
    new_config.number = 1;
    cluster.submit_raw(ClientId(0), gov(0, GovAction::Propose { proposal_id: 1, new_config }, 1));
    cluster.round();
    for m in 0..spec.genesis.vote_threshold {
        let vote = GovAction::Vote { proposal_id: 1, approve: true };
        cluster.submit_raw(ClientId(m as u64), gov(m, vote, 10 + m as u64));
        cluster.round();
    }
    let in_config_1 =
        |c: &DetCluster| c.replicas.values().all(|r| r.inner.active_config().number == 1);
    assert!(cluster.run_until(1_000, in_config_1), "the referendum never took effect");
    bank(&mut cluster, TRANSACTIONS / 2);
    cluster.assert_ledgers_consistent();

    // Every receipt verifies under the configuration its governance index
    // names, and the stock auditor finds the ledger clean.
    let replica = cluster.replica(ReplicaId(0));
    let mut chain = GovernanceChain::new();
    for link in replica.gov_chain() {
        chain.push(link.clone());
    }
    let history = chain.verify(&spec.genesis).expect("chain verifies from genesis");
    let receipts: Vec<StoredReceipt> = std::iter::once(&loaded)
        .chain(cluster.finished.iter().map(|(_, tx)| tx))
        .map(|tx| {
            let receipt = tx.receipt.clone().expect("receipt");
            receipt.verify(history.at(receipt.gov_index())).expect("verifies");
            StoredReceipt { request: tx.request.clone(), receipt }
        })
        .collect();
    assert_eq!(receipts.len(), TRANSACTIONS + 1);
    // Seq 0 is the empty store by construction: the audit replays the
    // whole history, bulk load included.
    let package = LedgerPackage {
        entries: replica.ledger().entries().to_vec(),
        checkpoint: Some((SeqNum(0), ia_ccf::kv::KvCheckpoint::from_entries(Default::default()))),
    };
    let auditor = Auditor::new(spec.genesis.clone(), Arc::new(SmallBankApp));
    let outcome = auditor.audit(&receipts, &chain, &package);
    assert!(matches!(outcome, AuditOutcome::Clean), "{:?}", outcome.upom());

    // Every pre-prepare names the digest `d_C` of a checkpoint its
    // replicas still held, the switch checkpoint's interval included:
    // none falls back to the zero digest.
    let entries = replica.ledger().entries();
    let zero_d_c = |e: &&LedgerEntry| {
        matches!(e, LedgerEntry::PrePrepare(pp) if pp.core.checkpoint_digest.is_zero())
    };
    assert_eq!(entries.iter().filter(zero_d_c).count(), 0, "pre-prepares without d_C");
    let of = |pick: fn(&LedgerEntry) -> bool| {
        span(entries.iter().filter(|e| pick(e)).map(Wire::encoded_len))
    };
    let votes = || {
        replica.gov_chain().iter().filter_map(|link| match link {
            GovLink::GovTx { request, receipt } => match request.request.action {
                RequestAction::Governance(GovAction::Vote { .. }) => Some((request, receipt)),
                _ => None,
            },
            GovLink::Boundary { .. } => None,
        })
    };
    Sizes {
        pre_prepare: of(|e| matches!(e, LedgerEntry::PrePrepare(_))),
        evidence: of(|e| matches!(e, LedgerEntry::Evidence { .. })),
        nonces: of(|e| matches!(e, LedgerEntry::Nonces { .. })),
        transaction: of(|e| matches!(e, LedgerEntry::Tx(tx) if is_app(&tx.request))),
        gov_receipt: span(votes().map(|(_, receipt)| receipt.encoded_len())),
        vote_request: span(votes().map(|(request, _)| request.encoded_len())),
    }
}

#[test]
fn tab1_and_governance_sizes_are_pinned_at_f1_and_f3() {
    // Quorum 3 of n = 4, quorum 7 of n = 10.
    let (f1, f3) = (run(4), run(10));

    // Tab. 1, pre-prepare: 239 B for a regular batch, 275 B for the
    // batches of the end-of-configuration schedule (they carry a committed
    // root) — neither grows with f.
    assert_eq!(f1.pre_prepare, (239, 275));
    assert_eq!(f3.pre_prepare, f1.pre_prepare);
    // Tab. 1, evidence: 13 + 148 × (quorum − 1), every entry alike.
    assert_eq!(f1.evidence, (13 + 148 * 2, 13 + 148 * 2));
    assert_eq!(f3.evidence, (13 + 148 * 6, 13 + 148 * 6));
    // Tab. 1, nonces: 13 + 16 × quorum.
    assert_eq!(f1.nonces, (13 + 16 * 3, 13 + 16 * 3));
    assert_eq!(f3.nonces, (13 + 16 * 7, 13 + 16 * 7));
    // Tab. 1, SmallBank `⟨t, i, o⟩` entries: the same requests at either
    // size, so the same band.
    assert_eq!(f1.transaction, (197, 215));
    assert_eq!(f3.transaction, f1.transaction);
    // §6.4: a vote's receipt is 257 + (64 + 16) × quorum, its request 131.
    assert_eq!(f1.gov_receipt, (257 + 80 * 3, 257 + 80 * 3));
    assert_eq!(f3.gov_receipt, (257 + 80 * 7, 257 + 80 * 7));
    assert_eq!((f1.vote_request, f3.vote_request), ((131, 131), (131, 131)));
    let ratio = f3.gov_receipt.0 as f64 / f1.gov_receipt.0 as f64;
    assert!((1.6..1.7).contains(&ratio), "f = 3 : f = 1 governance receipt is {ratio:.2}");
}

/// `replyx` framed bytes per transaction out of a regular batch of 300
/// leaves: a bundle of 1 witness (every re-fetch, and `lat_single`'s
/// one-transaction batches) and of 23 spread over the batch (a
/// `sat_uniform` client's share of one designated replica's witnesses),
/// each next to the retired layout that sent the pre-prepare core, σp and
/// `H(t)` with every transaction.
#[test]
fn replyx_bytes_per_transaction_are_pinned() {
    let pp = test_pp(0, 5, &KeyPair::from_label("primary"));
    let tree = MerkleTree::from_leaves((0..300u32).map(|i| Digest([i as u8; 32])));
    let result = TxResult { ok: true, output: vec![7; 8], write_set_digest: Digest([9; 32]) };
    let witness = |pos: u64| ReplyTx {
        req_id: pos + 1,
        index: LedgerIdx(1_000 + pos),
        result: result.clone(),
        path: tree.path(pos).expect("a leaf of the batch"),
    };
    let bundle = |positions: &[u64]| {
        let txs = positions.iter().map(|&pos| witness(pos)).collect();
        let msg = ProtocolMsg::ReplyX(ReplyX { core: pp.core.clone(), primary_sig: pp.sig, txs });
        HEADER_LEN + msg.encoded_len()
    };
    // The retired layout: tag, core, σp, `H(t)`, index, result, path.
    let retired = |positions: &[u64]| -> usize {
        let one = |w: ReplyTx| {
            let body = w.index.encoded_len() + w.result.encoded_len() + w.path.encoded_len();
            HEADER_LEN + 1 + pp.core.encoded_len() + 64 + 32 + body
        };
        positions.iter().map(|&pos| one(witness(pos))).sum()
    };

    // A witness: request id, index, result and a 9-sibling path. What a
    // bundle shares, frame included, is 215 B.
    assert_eq!(witness(0).encoded_len(), 369);
    assert_eq!((retired(&[0]), bundle(&[0])), (604, 369 + 215));
    // Spread over the batch, 3 of the 23 paths are 7 siblings long.
    let spread: Vec<u64> = (0..23).map(|k| k * 13).collect();
    let witnesses: usize = spread.iter().map(|&pos| witness(pos).encoded_len()).sum();
    assert_eq!(witnesses, 20 * 369 + 3 * 305);
    assert_eq!((retired(&spread), bundle(&spread)), (13_700, 215 + witnesses));
    assert_eq!(bundle(&spread) as f64 / 23.0, 370.0);
}
