//! Differential harness for the paged FetchLedger protocol.
//!
//! Contract under test: paging is *invisible* in the transferred bytes.
//! For any committed schedule, any `from_seq` and any page budget —
//! including budgets of one byte (one batch segment per page) and budgets
//! larger than the whole remainder — the concatenation of
//! `FetchLedgerPageResponse` entries is byte-identical to the
//! monolithic whole-suffix oracle
//! (`whole_suffix`, encoded straight from the server's ledger). On top of the byte-level
//! equivalence, a replica that crashes, misses traffic and recovers
//! through the paged state transfer must end with a ledger and KV digest
//! byte-identical to a replica that never crashed — and must detect and
//! fail over from Byzantine page servers (truncated pages, stalled
//! pages, forged pre-prepare signatures) to an honest one.

use std::sync::Arc;

use ia_ccf::core::app::CounterApp;
use ia_ccf::core::byzantine::Fault;
use ia_ccf::core::{Input, NodeId, Output, ProtocolParams, Replica};
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_types::{LedgerIdx, ProtocolMsg, ReplicaId, SeqNum, Wire};
use proptest::prelude::*;

/// The monolithic whole-suffix fetch response from `from_seq`: every
/// entry from the ledger's fetch start to its tip, encoded.
fn whole_suffix(replica: &Replica, from_seq: SeqNum) -> Vec<Vec<u8>> {
    let ledger = replica.ledger();
    ledger.encode_range(LedgerIdx(ledger.fetch_start_pos(from_seq)), LedgerIdx(ledger.len()))
}

/// Commit `n_txs` counter increments with a round every `cadence`
/// submissions on a 4-replica cluster.
fn committed_cluster(n_txs: usize, cadence: usize, params: ProtocolParams) -> (ClusterSpec, DetCluster) {
    let spec = ClusterSpec::new(4, 2, params);
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
    (spec, cluster)
}

/// One page `server` serves from `from_seq`: its entries, continuation
/// token and `done` flag.
fn serve_page(
    cluster: &mut DetCluster,
    server: ReplicaId,
    from_seq: SeqNum,
    max_bytes: u64,
) -> (Vec<Vec<u8>>, SeqNum, bool) {
    let replica = cluster.replicas.get_mut(&server).expect("server");
    let outs = replica.inner.handle(Input::Message {
        from: NodeId::Replica(ReplicaId(9)),
        msg: ProtocolMsg::FetchLedgerPage { from_seq, max_bytes },
    });
    outs.into_iter()
        .find_map(|o| match o {
            Output::SendReplica(
                _,
                ProtocolMsg::FetchLedgerPageResponse { entries, next_seq, done },
            ) => Some((entries, next_seq, done)),
            _ => None,
        })
        .expect("page served")
}

/// Drive the paged protocol against `server` to completion; returns the
/// concatenated entries and the number of pages.
fn fetch_all_pages(
    cluster: &mut DetCluster,
    server: ReplicaId,
    from_seq: u64,
    max_bytes: u64,
) -> (Vec<Vec<u8>>, usize) {
    let mut token = from_seq;
    let mut all = Vec::new();
    let mut pages = 0;
    loop {
        let (entries, next_seq, done) = serve_page(cluster, server, SeqNum(token), max_bytes);
        pages += 1;
        assert!(pages < 10_000, "paging did not terminate");
        all.extend(entries);
        if done {
            return (all, pages);
        }
        assert!(next_seq.0 > token, "continuation must advance");
        token = next_seq.0;
    }
}

/// Assert two replicas' full ledgers are byte-identical.
fn assert_ledgers_byte_identical(cluster: &DetCluster, a: ReplicaId, b: ReplicaId) {
    let (ra, rb) = (cluster.replica(a), cluster.replica(b));
    assert_eq!(ra.ledger().len(), rb.ledger().len(), "{a:?} vs {b:?}: ledger length");
    for i in 0..ra.ledger().len() {
        assert_eq!(
            ra.ledger().entry(LedgerIdx(i)).map(Wire::to_bytes),
            rb.ledger().entry(LedgerIdx(i)).map(Wire::to_bytes),
            "{a:?} vs {b:?}: ledger divergence at entry {i}"
        );
    }
    assert_eq!(ra.kv().digest(), rb.kv().digest(), "{a:?} vs {b:?}: KV digest");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Paged transfer is byte-identical to the monolithic oracle for
    /// random schedules, offsets and page budgets.
    #[test]
    fn paged_transfer_matches_monolithic_oracle(
        n_txs in 1usize..14,
        cadence in 1usize..4,
        from_off in 0u64..16,
        budget_pick in 0usize..5,
    ) {
        // Budgets: 1 byte (every page = exactly one batch segment), tiny,
        // mid, large, unbounded (single page covering the remainder).
        let budget = [1u64, 300, 1500, 64 * 1024, u64::MAX][budget_pick];
        let (_spec, mut cluster) = committed_cluster(n_txs, cadence, ProtocolParams::default());
        let max_seq = cluster.replica(ReplicaId(0)).prepared_up_to().0;
        // from_seq sweeps below, inside and past the served range.
        let from_seq = from_off.min(max_seq + 2);
        let (paged, pages) = fetch_all_pages(&mut cluster, ReplicaId(0), from_seq, budget);
        let oracle = whole_suffix(cluster.replica(ReplicaId(0)), SeqNum(from_seq));
        prop_assert_eq!(&paged, &oracle, "paged != monolithic for from_seq={}", from_seq);
        // A one-byte budget forces batch-granular pages: as many pages as
        // batches in range (plus none when the range is empty).
        if budget == 1 {
            let batches = cluster
                .replica(ReplicaId(0))
                .ledger()
                .batch_seqs_iter(SeqNum(from_seq))
                .count();
            prop_assert_eq!(pages, batches.max(1), "one segment per page at budget 1");
        }
    }

    /// A replica that crashed and recovered through paged state transfer
    /// is byte-identical to one that never crashed — across random
    /// schedules and page budgets — and rejoins consensus.
    #[test]
    fn recovered_replica_matches_survivor(
        n_before in 1usize..6,
        n_missed in 1usize..8,
        budget in prop_oneof![Just(1u64), Just(400u64), Just(4096u64), Just(u64::MAX)],
    ) {
        let params = ProtocolParams {
            sync_page_bytes: budget,
            view_timeout_ticks: 80,
            ..ProtocolParams::default()
        };
        let (spec, mut cluster) = committed_cluster(n_before, 2, params);
        // Replica 3 goes dark and misses a window of commits.
        cluster.crash(ReplicaId(3));
        for i in 0..n_missed {
            let client = spec.clients[i % 2].0;
            cluster.submit(client, CounterApp::INCR, format!("m{}", i % 3).into_bytes());
            cluster.round();
        }
        let total = n_before + n_missed;
        prop_assert!(cluster.run_until_finished(total, 1_000));

        // Recover through the paged protocol from replica 0.
        cluster.recover(spec.build_replica(3, Arc::new(CounterApp)), ReplicaId(0));
        prop_assert!(
            cluster.run_until(60, |c| c.replica(ReplicaId(3)).sync_report().complete),
            "sync did not complete: {:?}",
            cluster.replica(ReplicaId(3)).sync_report()
        );
        let report = cluster.replica(ReplicaId(3)).sync_report();
        prop_assert_eq!(report.failovers, 0, "honest server: no failover");
        prop_assert!(report.pages >= 1);

        // The recovered replica rejoins consensus: new traffic lands on
        // its ledger like everyone else's.
        for i in 0..3 {
            let client = spec.clients[i % 2].0;
            cluster.submit(client, CounterApp::INCR, b"post".to_vec());
            cluster.round();
        }
        prop_assert!(cluster.run_until_finished(total + 3, 1_000));
        assert_ledgers_byte_identical(&cluster, ReplicaId(3), ReplicaId(1));
        cluster.assert_ledgers_consistent();
    }
}

// ----------------------------------------------------------------------
// Byzantine page servers (fault injection).
// ----------------------------------------------------------------------

/// Shared scaffold: commit a window with replica 3 dark, put `fault` on
/// replica 1, recover replica 3 *from* replica 1 and demand it completes
/// sync anyway — from an honest server, after detecting the misbehaviour.
fn recover_from_byzantine_server(fault: Fault) -> ia_ccf::core::SyncReport {
    let params = ProtocolParams {
        // Small pages so the fault hits mid-transfer, not just at `done`.
        sync_page_bytes: 400,
        view_timeout_ticks: 80,
        ..ProtocolParams::default()
    };
    let (spec, mut cluster) = committed_cluster(4, 2, params);
    cluster.crash(ReplicaId(3));
    for i in 0..6 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, format!("b{}", i % 3).into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(10, 1_000));

    cluster.set_fault(ReplicaId(1), fault);
    cluster.recover(spec.build_replica(3, Arc::new(CounterApp)), ReplicaId(1));
    assert!(
        cluster.run_until(120, |c| c.replica(ReplicaId(3)).sync_report().complete),
        "sync must complete from an honest server: {:?}",
        cluster.replica(ReplicaId(3)).sync_report()
    );
    cluster.set_fault(ReplicaId(1), Fault::None);
    let report = cluster.replica(ReplicaId(3)).sync_report();
    assert_ledgers_byte_identical(&cluster, ReplicaId(3), ReplicaId(2));
    report
}

#[test]
fn truncated_pages_are_detected_and_failed_over() {
    let report = recover_from_byzantine_server(Fault::TruncateLedgerPages);
    assert!(
        report.failovers >= 1,
        "the truncating server must be abandoned: {report:?}"
    );
}

#[test]
fn stalled_pages_are_detected_and_failed_over() {
    let report = recover_from_byzantine_server(Fault::StallLedgerPages);
    assert!(
        report.failovers >= 1,
        "the stalling server must be abandoned: {report:?}"
    );
}

/// A server whose pages carry a forged pre-prepare signature: the page's
/// pre-pass fails that job, its single check refuses it, and the sync
/// abandons the server.
#[test]
fn forged_page_signatures_are_detected_and_failed_over() {
    let report = recover_from_byzantine_server(Fault::ForgeLedgerPageSig);
    assert!(
        report.failovers >= 1,
        "the forging server must be abandoned: {report:?}"
    );
}

/// A server that goes silent entirely (crashes mid-transfer) is caught by
/// the page timeout rather than a malformed page.
#[test]
fn silent_server_times_out_and_fails_over() {
    let params = ProtocolParams {
        sync_page_bytes: 400,
        sync_timeout_ticks: 4,
        view_timeout_ticks: 80,
        ..ProtocolParams::default()
    };
    let (spec, mut cluster) = committed_cluster(6, 2, params);
    cluster.crash(ReplicaId(3));
    for i in 0..4 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, b"w".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until_finished(10, 1_000));

    // Crash the chosen server *before* recovery starts: every page
    // request vanishes and only the timeout can save the sync.
    cluster.crash(ReplicaId(1));
    cluster.recover(spec.build_replica(3, Arc::new(CounterApp)), ReplicaId(1));
    assert!(
        cluster.run_until(200, |c| c.replica(ReplicaId(3)).sync_report().complete),
        "sync must fail over past a silent server: {:?}",
        cluster.replica(ReplicaId(3)).sync_report()
    );
    let report = cluster.replica(ReplicaId(3)).sync_report();
    assert!(report.failovers >= 1, "timeout must have fired: {report:?}");
    assert_ledgers_byte_identical(&cluster, ReplicaId(3), ReplicaId(2));
}

/// In a two-replica cluster the sole peer is the only possible server: a
/// stalled peer must be retried (with backoff) instead of the sync
/// silently dying, and the sync must complete once the peer heals.
#[test]
fn two_replica_recovery_retries_the_sole_peer() {
    let params = ProtocolParams {
        sync_page_bytes: 400,
        sync_timeout_ticks: 3,
        view_timeout_ticks: 200,
        ..ProtocolParams::default()
    };
    let spec = ClusterSpec::new(2, 1, params);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    let client = spec.clients[0].0;
    for i in 0..4 {
        cluster.submit(client, CounterApp::INCR, format!("t{i}").into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(4, 400));
    cluster.crash(ReplicaId(1));

    // The only peer stalls every page: the sync must keep cycling
    // (failover → backoff pause → retry), never complete, never vanish.
    cluster.set_fault(ReplicaId(0), Fault::StallLedgerPages);
    cluster.recover(spec.build_replica(1, Arc::new(CounterApp)), ReplicaId(0));
    for _ in 0..30 {
        cluster.round();
    }
    let report = cluster.replica(ReplicaId(1)).sync_report();
    assert!(!report.complete, "stalled sole peer: sync cannot have completed");
    assert!(
        report.failovers >= 2,
        "the sole peer must be abandoned and retried repeatedly: {report:?}"
    );

    // Peer heals: the next retry completes the transfer.
    cluster.set_fault(ReplicaId(0), Fault::None);
    assert!(
        cluster.run_until(100, |c| c.replica(ReplicaId(1)).sync_report().complete),
        "sync must complete once the sole peer heals: {:?}",
        cluster.replica(ReplicaId(1)).sync_report()
    );
    assert_ledgers_byte_identical(&cluster, ReplicaId(1), ReplicaId(0));
}

/// A hostile page — an endless transaction stream among them — is refused
/// on the page it arrives in: a page is replayed whole and must end at its
/// own continuation token, so nothing of it waits for the next page, and
/// nothing is buffered to bound. Each row hands a fresh recoveree one
/// page (`done = false`) from its first server, which must be abandoned
/// at once: the next page request goes to another replica, from the first
/// batch the recoveree has not applied, and no refused batch is applied.
#[test]
fn endless_transaction_stream_is_bounded_and_abandoned() {
    use ia_ccf_types::{
        ClientId, KeyPair, LedgerEntry, ProcId, ReplicaBitmap, Request, RequestAction,
        SignedRequest, TxLedgerEntry, TxResult,
    };
    let params = ProtocolParams { batch_max: 4, sync_page_bytes: 1, ..ProtocolParams::default() };
    let (spec, mut cluster) = committed_cluster(6, 3, params);
    let first_server = ReplicaId(0);
    // A one-byte budget serves one batch segment: batch 1 alone, a bare
    // pre-prepare and its transaction run.
    let (honest, token, _) = serve_page(&mut cluster, first_server, SeqNum(1), 1);
    assert_eq!(token, SeqNum(2));
    assert!(honest.len() >= 3, "batch 1 holds at least two transactions");

    // A pre-prepare no primary signed, then eight transactions (twice
    // `batch_max`) running to the end of the page.
    let kp = KeyPair::from_label("hostile");
    let tx_kp = KeyPair::from_label("hostile-client");
    let gt = cluster.replica(first_server).gt_hash();
    let junk_tx = |i: u64| {
        LedgerEntry::Tx(TxLedgerEntry {
            request: SignedRequest::sign(
                Request {
                    action: RequestAction::App { proc: ProcId(1), args: vec![] },
                    client: ClientId(1),
                    gt_hash: gt,
                    min_index: LedgerIdx(0),
                    req_id: i,
                },
                &tx_kp,
            ),
            index: LedgerIdx(i),
            result: TxResult {
                ok: true,
                output: vec![],
                write_set_digest: ia_ccf_crypto::Digest::zero(),
            },
        })
        .to_bytes()
    };
    let mut pp = ia_ccf_types::messages::testutil::test_pp(0, 1, &kp);
    pp.core.evidence_bitmap = ReplicaBitmap::empty();
    let mut forged = vec![LedgerEntry::PrePrepare(pp).to_bytes()];
    forged.extend((1..=8).map(junk_tx));

    let cut = honest[..honest.len() - 1].to_vec();
    // (row, page entries, continuation token, batches held after the page)
    let rows = [
        ("a forged pre-prepare opening an endless transaction run", forged, SeqNum(2), SeqNum(0)),
        ("an honest batch under a token past it", honest.clone(), SeqNum(3), SeqNum(1)),
        ("an honest batch missing its last transaction", cut, SeqNum(2), SeqNum(0)),
    ];
    for (row, entries, next_seq, applied) in rows {
        let kept = if applied == SeqNum(0) { 0 } else { honest.len() as u64 };
        let mut fresh = spec.build_replica(3, Arc::new(CounterApp));
        // The sync opens with the tip query; answer it from every peer (no
        // checkpoint offers) so it proceeds to paging from `first_server`.
        let outs = fresh.begin_ledger_sync(first_server);
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::SendReplica(_, ProtocolMsg::FetchLedgerTip))));
        let mut outs = Vec::new();
        for r in 0..3 {
            outs = fresh.handle(Input::Message {
                from: NodeId::Replica(ReplicaId(r)),
                msg: ProtocolMsg::LedgerTipResponse { tip: SeqNum(0), offer: None },
            });
        }
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::SendReplica(r, ProtocolMsg::FetchLedgerPage { .. }) if *r == first_server
        )));

        let outs = fresh.handle(Input::Message {
            from: NodeId::Replica(first_server),
            msg: ProtocolMsg::FetchLedgerPageResponse { entries, next_seq, done: false },
        });
        assert_eq!(fresh.sync_report().failovers, 1, "{row}: abandoned on this page");
        let requests: Vec<(ReplicaId, SeqNum)> = outs
            .iter()
            .filter_map(|o| match o {
                Output::SendReplica(r, ProtocolMsg::FetchLedgerPage { from_seq, .. }) => {
                    Some((*r, *from_seq))
                }
                _ => None,
            })
            .collect();
        assert_eq!(requests, vec![(ReplicaId(1), applied.next())], "{row}: the next page request");
        assert_eq!(fresh.prepared_up_to(), applied, "{row}");
        assert_eq!(fresh.ledger().len(), 1 + kept, "{row}: only genesis and verified batches");
    }
}

// ----------------------------------------------------------------------
// Serving-side pins.
// ----------------------------------------------------------------------

/// A fetch from past the tip is an empty, immediately-done page whose
/// token does not move — the requester-side "nothing to sync" signal.
#[test]
fn fetch_past_the_tip_is_empty_and_done() {
    let (_spec, mut cluster) = committed_cluster(3, 1, ProtocolParams::default());
    let tip = cluster.replica(ReplicaId(0)).prepared_up_to().0;
    let replica = cluster.replicas.get_mut(&ReplicaId(0)).expect("replica 0");
    let outs = replica.inner.handle(Input::Message {
        from: NodeId::Replica(ReplicaId(9)),
        msg: ProtocolMsg::FetchLedgerPage { from_seq: SeqNum(tip + 10), max_bytes: u64::MAX },
    });
    let page = outs
        .into_iter()
        .find_map(|o| match o {
            Output::SendReplica(_, m @ ProtocolMsg::FetchLedgerPageResponse { .. }) => Some(m),
            _ => None,
        })
        .expect("page served");
    let ProtocolMsg::FetchLedgerPageResponse { entries, next_seq, done } = page else {
        unreachable!()
    };
    assert!(entries.is_empty());
    assert!(done);
    assert_eq!(next_seq, SeqNum(tip + 10));
}
