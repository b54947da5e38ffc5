//! Paged ledger fetch vs the frame size limit.
//!
//! A response carrying the *entire* remaining ledger in one message
//! cannot be framed past [`ia_ccf_net::frame::MAX_FRAME`] (64 MiB): the
//! frame encoder asserts on the sender, so a recovering replica could
//! never sync a large ledger that way. The paged `FetchLedgerPage`
//! protocol has no such cliff: the server cuts bounded pages at
//! batch-segment boundaries, clamped to [`PAGE_CEILING_BYTES`] (well under
//! `MAX_FRAME`), and the requester resumes with the returned continuation
//! token. These tests pin both sides of that contract:
//!
//! * a ledger whose remaining suffix exceeds `MAX_FRAME` transfers
//!   completely — every page frames, the concatenation is byte-identical
//!   to the monolithic oracle, and a recovering replica replays it to a
//!   byte-identical ledger (no panic anywhere);
//! * a suffix under the page ceiling still arrives as a **single page**
//!   (the fast path: one round trip, exactly the seed's useful behavior);
//! * pages respect the requester's budget up to the one-segment
//!   progress-guarantee overshoot.

use std::sync::Arc;

use ia_ccf::core::app::{App, AppError};
use ia_ccf::core::{Input, NodeId, Output, ProtocolParams, Replica};
use ia_ccf_kv::KvAccess;
use ia_ccf_net::frame;
use ia_ccf_sim::{ClusterSpec, DetCluster};
use ia_ccf_types::messages::PAGE_CEILING_BYTES;
use ia_ccf_types::{
    ClientId, KeyPair, LedgerEntry, LedgerIdx, ProcId, ProtocolMsg, ReplicaId, SeqNum, Wire,
};

/// An app whose outputs are `size`-byte blobs — the cheapest way to grow
/// a ledger toward the frame limit (outputs are embedded in `⟨t, i, o⟩`
/// entries). Writes nothing.
struct BlobApp {
    size: usize,
}

impl App for BlobApp {
    fn execute(
        &self,
        _kv: &mut dyn KvAccess,
        _proc: ProcId,
        _args: &[u8],
        _client: ClientId,
    ) -> Result<Vec<u8>, AppError> {
        Ok(vec![0xAB; self.size])
    }
}

const BLOB: usize = 4 * 1024 * 1024;

/// Grow a single-replica cluster's ledger to roughly `txs * BLOB` bytes
/// and return the cluster (replica 0 holds the ledger).
fn grown_cluster(txs: usize) -> (ClusterSpec, DetCluster) {
    // No checkpoint falls in the run: the sync replays from genesis.
    let spec = ClusterSpec::new(1, 1, ProtocolParams::default())
        .with_config(|c| c.checkpoint_interval = 1 << 20);
    let mut cluster = DetCluster::new(&spec, Arc::new(BlobApp { size: BLOB }));
    let client = spec.clients[0].0;
    for _ in 0..txs {
        cluster.submit(client, ProcId(1), Vec::new());
        cluster.round();
    }
    assert!(
        cluster.run_until_finished(txs, 200),
        "finished {}/{txs}",
        cluster.finished.len()
    );
    (spec, cluster)
}

/// Ask replica 0 for one ledger page and return it.
fn fetch_page(
    cluster: &mut DetCluster,
    from_seq: u64,
    max_bytes: u64,
) -> (Vec<Vec<u8>>, SeqNum, bool) {
    let replica = cluster.replicas.get_mut(&ReplicaId(0)).expect("replica 0");
    let outs = replica.inner.handle(Input::Message {
        from: NodeId::Replica(ReplicaId(9)),
        msg: ProtocolMsg::FetchLedgerPage { from_seq: SeqNum(from_seq), max_bytes },
    });
    outs.into_iter()
        .find_map(|o| match o {
            Output::SendReplica(
                _,
                ProtocolMsg::FetchLedgerPageResponse { entries, next_seq, done },
            ) => Some((entries, next_seq, done)),
            _ => None,
        })
        .expect("serve_ledger_page must answer")
}

/// Drive the paged protocol to completion, asserting every page frames
/// under `MAX_FRAME` and tokens strictly advance; returns the
/// concatenated entries and the page count.
fn fetch_all_pages(
    cluster: &mut DetCluster,
    from_seq: u64,
    max_bytes: u64,
) -> (Vec<Vec<u8>>, usize) {
    let mut token = from_seq;
    let mut all = Vec::new();
    let mut pages = 0;
    let mut scratch = Vec::new();
    loop {
        let (entries, next_seq, done) = fetch_page(cluster, token, max_bytes);
        let msg = ProtocolMsg::FetchLedgerPageResponse {
            entries: entries.clone(),
            next_seq,
            done,
        };
        // The retired cliff: in the seed this encode panicked past
        // MAX_FRAME; a page response must always frame.
        let framed = frame::encode_msg(&msg, &mut scratch);
        assert!(
            framed.len() as u64 <= frame::MAX_FRAME as u64 + frame::HEADER_LEN as u64,
            "page frame oversized: {} bytes",
            framed.len()
        );
        pages += 1;
        all.extend(entries);
        if done {
            return (all, pages);
        }
        assert!(next_seq.0 > token, "continuation must advance: {next_seq} after {token}");
        token = next_seq.0;
    }
}

#[test]
fn oversized_ledger_suffix_transfers_fully_via_pages() {
    // 18 × 4 MiB of outputs ≈ 72 MiB of ledger — past MAX_FRAME, the
    // seed's sender-side panic territory. The paged protocol must move
    // the whole suffix in several bounded frames, byte-identical to the
    // monolithic oracle.
    let (spec, mut cluster) = grown_cluster(18);
    let (paged, pages) = fetch_all_pages(&mut cluster, 1, u64::MAX);
    assert!(pages >= 2, "a 72 MiB suffix cannot be one page (got {pages})");

    let oracle = cluster.replica(ReplicaId(0)).ledger_fetch_oracle(SeqNum(1));
    assert_eq!(paged, oracle, "concatenated pages must equal the monolithic response");
    let ledger_len = cluster.replica(ReplicaId(0)).ledger().len();
    assert_eq!(paged.len() as u64, ledger_len - 1, "everything after genesis is served");

    // And the point of it all: a recovering replica ingests the pages,
    // replays them with full verification, and ends byte-identical.
    let mut fresh = Replica::new(
        ReplicaId(9),
        KeyPair::from_label("recovering"),
        spec.genesis.clone(),
        Arc::new(BlobApp { size: BLOB }),
        ProtocolParams::default(),
        spec.client_keys(),
    )
    .expect("fresh replica");
    let mut inbox: Vec<ProtocolMsg> = fresh
        .begin_ledger_sync(ReplicaId(0))
        .into_iter()
        .filter_map(|o| match o {
            Output::SendReplica(ReplicaId(0), msg) => Some(msg),
            _ => None,
        })
        .collect();
    let mut hops = 0;
    while !fresh.sync_report().complete {
        hops += 1;
        assert!(hops < 100, "sync did not converge");
        let msg = inbox.pop().expect("request in flight");
        let server = cluster.replicas.get_mut(&ReplicaId(0)).expect("server");
        let responses = server.inner.handle(Input::Message {
            from: NodeId::Replica(ReplicaId(9)),
            msg,
        });
        for out in responses {
            if let Output::SendReplica(ReplicaId(9), msg) = out {
                let outs = fresh.handle(Input::Message {
                    from: NodeId::Replica(ReplicaId(0)),
                    msg,
                });
                inbox.extend(outs.into_iter().filter_map(|o| match o {
                    Output::SendReplica(ReplicaId(0), msg) => Some(msg),
                    _ => None,
                }));
            }
        }
    }
    let report = fresh.sync_report();
    assert!(report.pages >= 2, "recovery must have paged ({} pages)", report.pages);
    assert_eq!(report.failovers, 0, "honest server: no failover");
    let server = cluster.replica(ReplicaId(0));
    assert_eq!(fresh.ledger().len(), server.ledger().len());
    for i in 0..server.ledger().len() {
        assert_eq!(
            fresh.ledger().entry(LedgerIdx(i)).map(Wire::to_bytes),
            server.ledger().entry(LedgerIdx(i)).map(Wire::to_bytes),
            "ledger divergence at entry {i}"
        );
    }
    assert_eq!(fresh.kv().digest(), server.kv().digest(), "replayed KV state matches");
}

#[test]
fn suffix_under_the_ceiling_is_a_single_page_fast_path() {
    // 12 × 4 MiB ≈ 48 MiB — under the page ceiling. One round trip moves
    // everything (the seed's useful single-shot behavior, now bounded),
    // and the frame round-trips into exactly the ledger entries a
    // recovering replica would apply.
    let (_spec, mut cluster) = grown_cluster(12);
    let (entries, next_seq, done) = fetch_page(&mut cluster, 1, PAGE_CEILING_BYTES as u64);
    assert!(done, "a 48 MiB suffix must be one page");
    assert!(!entries.is_empty());

    let msg = ProtocolMsg::FetchLedgerPageResponse {
        entries: entries.clone(),
        next_seq,
        done,
    };
    let mut scratch = Vec::new();
    let framed = frame::encode_msg(&msg, &mut scratch).to_vec();
    assert!(
        framed.len() as u64 <= frame::MAX_FRAME as u64 + frame::HEADER_LEN as u64,
        "frame unexpectedly oversized: {} bytes",
        framed.len()
    );

    // Receiver side: exact-decode the frame, then the message, then every
    // ledger entry — byte-identical to what the sender's ledger holds.
    let payload = frame::decode_exact(&framed).expect("one whole frame");
    let decoded = ProtocolMsg::from_bytes(payload).expect("message decodes");
    let ProtocolMsg::FetchLedgerPageResponse { entries: received, done: true, .. } = decoded
    else {
        panic!("wrong message kind after roundtrip");
    };
    assert_eq!(received, entries, "entries must survive the frame roundtrip");
    let parsed: Vec<LedgerEntry> = received
        .iter()
        .map(|e| LedgerEntry::from_bytes(e).expect("entry decodes"))
        .collect();
    assert!(
        parsed.iter().any(|e| matches!(e, LedgerEntry::Tx(_))),
        "response must carry the transaction entries"
    );
    // The served range covers everything from the first batch to the tip
    // — the whole ledger minus the genesis entry.
    let ledger_len = cluster.replica(ReplicaId(0)).ledger().len();
    assert_eq!(received.len() as u64, ledger_len - 1);
}

#[test]
fn pages_respect_the_budget_up_to_one_segment() {
    // With a 5 MiB budget and ~4 MiB batch segments, each page carries
    // one or two segments: never an empty page, never more than budget +
    // one segment (the progress guarantee's only permitted overshoot).
    let (_spec, mut cluster) = grown_cluster(6);
    let budget = 5 * 1024 * 1024u64;
    let seg = (BLOB + 4096) as u64; // one blob entry + pp/evidence slack
    let mut token = 1;
    let mut pages = 0;
    loop {
        let (entries, next_seq, done) = fetch_page(&mut cluster, token, budget);
        let bytes: u64 = entries.iter().map(|e| e.len() as u64 + 4).sum();
        assert!(!entries.is_empty(), "every page makes progress");
        assert!(
            bytes <= budget + seg,
            "page of {bytes} bytes exceeds budget {budget} + one segment"
        );
        pages += 1;
        if done {
            break;
        }
        token = next_seq.0;
    }
    assert!(pages >= 3, "6 × 4 MiB at a 5 MiB budget must take several pages, got {pages}");
}
