//! Hostile checkpoint offers and payloads (§3.4: a joining replica
//! "obtains the ledger and a recent checkpoint, and replays the ledger
//! from that checkpoint").
//!
//! Two parts:
//!
//! * **Who may vote for a pin.** Tip claims count only from the active
//!   configuration's peers: one lying member plus an authenticated replica
//!   outside the configuration must not put `f + 1` votes behind a forged
//!   checkpoint offer.
//! * **One table of doctored payloads under honest pins**, each row
//!   breaking one clause of the restore. Through the network door a fresh
//!   recoveree fails over, pages from genesis and ends byte-identical to a
//!   survivor with no checkpoint seed; through the disk door a doctored
//!   `checkpoint.cp` makes `restart_from_dir` return `Err`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use ia_ccf::core::app::CounterApp;
use ia_ccf::core::{Input, NodeId, Output, ProtocolParams, Replica, SeedCheckpointFile};
use ia_ccf_kv::KvCheckpoint;
use ia_ccf_merkle::Frontier;
use ia_ccf_sim::{ClusterSpec, DetCluster, TempDir};
use ia_ccf_types::{
    CheckpointPayload, CheckpointPin, Digest, LedgerEntry, LedgerIdx, ProtocolMsg, ReplicaId,
    SeqNum, Wire,
};

/// Checkpoint interval `C` of every cluster here.
const C: u64 = 5;
/// Messages plus ticks one recoveree may take before the pump gives up.
const MAX_STEPS: usize = 4_000;

fn spec(params: ProtocolParams) -> ClusterSpec {
    ClusterSpec::new(4, 2, params).with_config(|c| c.checkpoint_interval = C)
}

fn params() -> ProtocolParams {
    ProtocolParams { view_timeout_ticks: 80, ..ProtocolParams::default() }
}

/// Commit `n` counter transactions.
fn traffic(cluster: &mut DetCluster, spec: &ClusterSpec, n: usize) {
    let done = cluster.finished.len();
    for i in 0..n {
        cluster.submit(spec.clients[i % 2].0, CounterApp::INCR, format!("k{}", i % 4).into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(done + n, 2_000), "traffic did not commit");
}

// ----------------------------------------------------------------------
// Message shapes.
// ----------------------------------------------------------------------

/// The tip and offer of a tip reply.
fn tip_of(msg: &ProtocolMsg) -> Option<(SeqNum, Option<CheckpointPin>)> {
    match msg {
        ProtocolMsg::LedgerTipResponse { tip, offer } => Some((*tip, *offer)),
        _ => None,
    }
}

/// The seq and payload of a checkpoint reply that offers one.
fn payload_of(msg: &ProtocolMsg) -> Option<(SeqNum, CheckpointPayload)> {
    match msg {
        ProtocolMsg::FetchCheckpointResponse { seq, payload: Some(p) } => Some((*seq, p.clone())),
        _ => None,
    }
}

// ----------------------------------------------------------------------
// The recoveree's side of the wire, driven by hand.
// ----------------------------------------------------------------------

/// Drive `fresh`'s sync against the cluster's replicas one hop at a time —
/// ticking `fresh` whenever nothing is in flight — until it completes or
/// [`MAX_STEPS`] pass. Every reply a peer sends `fresh` goes through
/// `tamper` first. Returns every message `fresh` sent, in order.
fn pump(
    fresh: &mut Replica,
    cluster: &mut DetCluster,
    outs: Vec<Output>,
    mut tamper: impl FnMut(ReplicaId, ProtocolMsg) -> ProtocolMsg,
) -> Vec<(ReplicaId, ProtocolMsg)> {
    let sends = |outs: Vec<Output>| {
        outs.into_iter().filter_map(|o| match o {
            Output::SendReplica(to, msg) => Some((to, msg)),
            _ => None,
        })
    };
    let mut pending: VecDeque<(ReplicaId, ProtocolMsg)> = sends(outs).collect();
    let mut sent = Vec::new();
    for _ in 0..MAX_STEPS {
        if fresh.sync_report().complete {
            break;
        }
        let Some((peer, msg)) = pending.pop_front() else {
            pending.extend(sends(fresh.handle(Input::Tick)));
            continue;
        };
        sent.push((peer, msg.clone()));
        let Some(server) = cluster.replicas.get_mut(&peer) else {
            continue;
        };
        for reply in server.handle(Input::Message { from: NodeId::Replica(fresh.id()), msg }) {
            let Output::SendReplica(to, m) = reply else {
                continue;
            };
            if to == fresh.id() {
                let m = tamper(peer, m);
                pending.extend(sends(
                    fresh.handle(Input::Message { from: NodeId::Replica(peer), msg: m }),
                ));
            }
        }
    }
    sent
}

/// `fresh` holds what `survivor` holds, entry for entry from its base, and
/// the same KV digest.
fn assert_matches_survivor(fresh: &Replica, survivor: &Replica, what: &str) {
    let (a, b) = (fresh.ledger(), survivor.ledger());
    assert_eq!(a.len(), b.len(), "{what}: ledger length");
    for i in a.base()..a.len() {
        assert_eq!(
            a.entry(LedgerIdx(i)).map(Wire::to_bytes),
            b.entry(LedgerIdx(i)).map(Wire::to_bytes),
            "{what}: ledger divergence at entry {i}"
        );
    }
    assert_eq!(fresh.kv().digest(), survivor.kv().digest(), "{what}: KV digest");
}

/// A cluster with enough history that every replica offers an agreed
/// checkpoint, replica 3 crashed.
fn grown_cluster() -> (ClusterSpec, DetCluster) {
    let spec = spec(params());
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    traffic(&mut cluster, &spec, 35);
    cluster.crash(ReplicaId(3));
    (spec, cluster)
}

/// What `replica` answers a tip query with.
fn tip_claim(cluster: &mut DetCluster, replica: ReplicaId) -> (SeqNum, Option<CheckpointPin>) {
    let outs = cluster.replicas.get_mut(&replica).expect("replica").handle(Input::Message {
        from: NodeId::Replica(ReplicaId(3)),
        msg: ProtocolMsg::FetchLedgerTip,
    });
    outs.iter()
        .find_map(|o| match o {
            Output::SendReplica(_, msg) => tip_of(msg),
            _ => None,
        })
        .expect("a tip reply")
}

// ----------------------------------------------------------------------
// Part 1: tip claims from outside the configuration do not vote.
// ----------------------------------------------------------------------

/// With n = 4 and f = 1, a lying member (replica 1) and an authenticated
/// non-member (`ReplicaId(7)`) both claim a forged offer one checkpoint
/// above the agreed one: the liar's own record at that seq — honest
/// frontier and seed batch — with a self-consistent but forged KV
/// snapshot. Two votes are more than f, but only one of them comes from
/// the configuration: the recoveree must never fetch the forged offer, must
/// seed from the honest pin, and must end where a survivor is.
#[test]
fn tip_claims_from_outside_the_configuration_do_not_vote() {
    let (spec, mut cluster) = grown_cluster();
    let (tip, honest) = tip_claim(&mut cluster, ReplicaId(0));
    let honest = honest.expect("replica 0 offers an agreed checkpoint");
    assert_eq!(tip_claim(&mut cluster, ReplicaId(2)).1, Some(honest));

    // The liar's record one checkpoint later, with a forged snapshot.
    let forged_seq = SeqNum(honest.seq.0 + C);
    let liar = cluster.replica(ReplicaId(1));
    let record = liar.checkpoints().at(forged_seq).expect("the liar holds the next checkpoint");
    let mut entries: BTreeMap<Vec<u8>, Vec<u8>> =
        record.kv.entries().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
    entries.insert(b"forged".to_vec(), b"1".to_vec());
    let forged_kv = KvCheckpoint::from_entries(entries);
    let forged_pin = CheckpointPin { kv_digest: forged_kv.digest(), ..record.pin() };
    let mut seed_entries = Vec::new();
    let mut at = record.ledger_len;
    while let Some(entry) = liar.ledger().entry(LedgerIdx(at)) {
        if at > record.ledger_len && !matches!(entry, LedgerEntry::Tx(_)) {
            break;
        }
        seed_entries.push(entry.to_bytes());
        at += 1;
    }
    let forged_payload =
        CheckpointPayload { kv_bytes: forged_kv.to_bytes(), ..record.payload(seed_entries) };

    let mut fresh = spec.build_replica(3, Arc::new(CounterApp));
    let mut outs = fresh.begin_ledger_sync(ReplicaId(1));
    // The outsider's claim lands first.
    outs.extend(fresh.handle(Input::Message {
        from: NodeId::Replica(ReplicaId(7)),
        msg: ProtocolMsg::LedgerTipResponse { tip, offer: Some(forged_pin) },
    }));
    let sent = pump(&mut fresh, &mut cluster, outs, |peer, msg| {
        if peer != ReplicaId(1) {
            return msg;
        }
        match msg {
            ProtocolMsg::LedgerTipResponse { tip, .. } => {
                ProtocolMsg::LedgerTipResponse { tip, offer: Some(forged_pin) }
            }
            ProtocolMsg::FetchCheckpointResponse { seq, .. } if seq == forged_seq => {
                ProtocolMsg::FetchCheckpointResponse { seq, payload: Some(forged_payload.clone()) }
            }
            other => other,
        }
    });

    let fetched: Vec<SeqNum> = sent
        .iter()
        .filter_map(|(_, m)| match m {
            ProtocolMsg::FetchCheckpoint { seq } => Some(*seq),
            _ => None,
        })
        .collect();
    assert!(
        !fetched.contains(&forged_seq),
        "the forged offer was pinned by a member and an outsider and fetched: {fetched:?}"
    );
    let report = fresh.sync_report();
    assert!(report.complete, "sync did not complete: {report:?}");
    assert_eq!(report.checkpoint_seed, Some(honest.seq), "seeded from the honest pin: {report:?}");
    assert_matches_survivor(&fresh, cluster.replica(ReplicaId(2)), "outsider claim");
}

// ----------------------------------------------------------------------
// Part 2: one table of doctored payloads under honest pins.
// ----------------------------------------------------------------------

/// One clause of the restore each.
#[derive(Debug, Clone, Copy)]
enum Row {
    UndecodableKv,
    KvIntegrityLie,
    KvDigestNotPinned,
    /// The honest entries under the honest digest, in another order.
    NonCanonicalKv,
    UndecodableFrontier,
    FrontierRootNotPinned,
    UndecodableSeedEntry,
    SeedWithoutPrePrepare,
    SeedPrePrepareWrongSeq,
    SeedRootMNotPinned,
    SeedBadSignature,
    MoreTxThanIndexCounter,
    NonTxSeedEntry,
    NonContiguousIndices,
    GbarMismatch,
    /// Network only: the reply names another checkpoint than the pin.
    ReplyForAnotherSeq,
}

const ROWS: [Row; 16] = [
    Row::UndecodableKv,
    Row::KvIntegrityLie,
    Row::KvDigestNotPinned,
    Row::NonCanonicalKv,
    Row::UndecodableFrontier,
    Row::FrontierRootNotPinned,
    Row::UndecodableSeedEntry,
    Row::SeedWithoutPrePrepare,
    Row::SeedPrePrepareWrongSeq,
    Row::SeedRootMNotPinned,
    Row::SeedBadSignature,
    Row::MoreTxThanIndexCounter,
    Row::NonTxSeedEntry,
    Row::NonContiguousIndices,
    Row::GbarMismatch,
    Row::ReplyForAnotherSeq,
];

/// The honest payload with the one clause of `row` broken.
fn doctored(row: Row, honest: &CheckpointPayload) -> CheckpointPayload {
    let mut p = honest.clone();
    assert!(p.seed_entries.len() >= 2, "the checkpoint batch carries a transaction");
    let edit_pp = |p: &mut CheckpointPayload, f: &dyn Fn(&mut ia_ccf_types::PrePrepare)| {
        let Ok(LedgerEntry::PrePrepare(mut pp)) = LedgerEntry::from_bytes(&p.seed_entries[0])
        else {
            panic!("the seed opens with the checkpoint pre-prepare");
        };
        f(&mut pp);
        p.seed_entries[0] = LedgerEntry::PrePrepare(pp).to_bytes();
    };
    match row {
        Row::UndecodableKv => p.kv_bytes = vec![0xFF],
        // The advertised digest travels first: flip it.
        Row::KvIntegrityLie => p.kv_bytes[0] ^= 1,
        Row::KvDigestNotPinned => {
            p.kv_bytes = KvCheckpoint::from_entries(BTreeMap::new()).to_bytes()
        }
        // Descending keys: a decoder that sorts them back into a map finds
        // the honest store, and the honest digest, in bytes that are not its
        // encoding.
        Row::NonCanonicalKv => {
            let honest = KvCheckpoint::from_bytes(&p.kv_bytes).expect("the honest body decodes");
            let entries: Vec<(&[u8], &[u8])> = honest.entries().collect();
            assert!(entries.len() >= 2, "the snapshot holds two keys to swap");
            let mut bytes = p.kv_bytes[..32 + 8].to_vec();
            for (k, v) in entries.iter().rev() {
                bytes.extend_from_slice(&(k.len() as u32).to_le_bytes());
                bytes.extend_from_slice(k);
                bytes.extend_from_slice(&(v.len() as u32).to_le_bytes());
                bytes.extend_from_slice(v);
            }
            p.kv_bytes = bytes;
        }
        Row::UndecodableFrontier => p.frontier = vec![0xFF],
        Row::FrontierRootNotPinned => p.frontier = Frontier::new().to_bytes(),
        Row::UndecodableSeedEntry => p.seed_entries[1] = vec![0xFF],
        Row::SeedWithoutPrePrepare => {
            p.seed_entries.remove(0);
        }
        Row::SeedPrePrepareWrongSeq => edit_pp(&mut p, &|pp| pp.core.seq = pp.core.seq.next()),
        Row::SeedRootMNotPinned => edit_pp(&mut p, &|pp| pp.core.root_m = Digest::zero()),
        Row::SeedBadSignature => edit_pp(&mut p, &|pp| pp.sig.0[0] ^= 1),
        Row::MoreTxThanIndexCounter => p.next_tx_index = 0,
        Row::NonTxSeedEntry => {
            let pp = p.seed_entries[0].clone();
            p.seed_entries.insert(1, pp);
        }
        Row::NonContiguousIndices => p.next_tx_index += 1,
        Row::GbarMismatch => {
            let Ok(LedgerEntry::Tx(mut tx)) = LedgerEntry::from_bytes(&p.seed_entries[1]) else {
                panic!("the pre-prepare is followed by its transactions");
            };
            tx.result.output.push(0xFF);
            p.seed_entries[1] = LedgerEntry::Tx(tx).to_bytes();
        }
        Row::ReplyForAnotherSeq => {}
    }
    p
}

/// Through the network door: the honest pins are agreed, the server's reply
/// is doctored. The recoveree must refuse it, fail over, page from genesis
/// and end byte-identical to a survivor, with no checkpoint seed.
#[test]
fn doctored_checkpoint_replies_fail_over_to_genesis_paging() {
    let (spec, mut cluster) = grown_cluster();
    for row in ROWS {
        let mut fresh = spec.build_replica(3, Arc::new(CounterApp));
        let outs = fresh.begin_ledger_sync(ReplicaId(0));
        let mut doctored_one = false;
        pump(&mut fresh, &mut cluster, outs, |_, msg| match payload_of(&msg) {
            Some((seq, honest)) => {
                doctored_one = true;
                let seq = match row {
                    Row::ReplyForAnotherSeq => SeqNum(seq.0 + C),
                    _ => seq,
                };
                ProtocolMsg::FetchCheckpointResponse { seq, payload: Some(doctored(row, &honest)) }
            }
            None => msg,
        });
        assert!(doctored_one, "{row:?}: the honest pins led to a checkpoint fetch");
        let report = fresh.sync_report();
        assert!(report.complete, "{row:?}: sync did not complete: {report:?}");
        assert!(report.failovers >= 1, "{row:?}: the doctored server was abandoned: {report:?}");
        assert_eq!(report.checkpoint_seed, None, "{row:?}: nothing was seeded: {report:?}");
        assert_eq!(fresh.ledger().base(), 0, "{row:?}: a genesis replay");
        assert_matches_survivor(&fresh, cluster.replica(ReplicaId(2)), &format!("{row:?}"));
    }
}

/// Through the disk door: a seeded replica's `checkpoint.cp`, doctored
/// row by row, makes `restart_from_dir` return `Err` (no panic); the
/// untouched file restarts.
#[test]
fn doctored_seed_files_refuse_to_restart() {
    let tmp = TempDir::new("hostile-seed").expect("tempdir");
    let spec = spec(ProtocolParams { fsync_interval_batches: 1, ..params() });
    let mut cluster = DetCluster::with_replica_builder(&spec, |rank| {
        let mut p = spec.params.clone();
        p.data_dir = Some(tmp.subdir(&format!("r{rank}")).expect("subdir"));
        spec.build_replica_with(rank, Arc::new(CounterApp), p)
    });
    traffic(&mut cluster, &spec, 30);

    // Replica 3 loses its disk; its durable replacement is seeded over the
    // network and persists the seeded layout.
    drop(cluster.crash_and_drop(ReplicaId(3)).expect("replica 3 present"));
    std::fs::remove_dir_all(tmp.path().join("r3")).expect("lose the disk");
    let mut params3 = spec.params.clone();
    params3.data_dir = Some(tmp.subdir("r3").expect("subdir"));
    cluster
        .recover(spec.build_replica_with(3, Arc::new(CounterApp), params3.clone()), ReplicaId(0));
    assert!(cluster.run_until(300, |c| c.replica(ReplicaId(3)).sync_report().complete));
    assert!(cluster.replica(ReplicaId(3)).sync_report().checkpoint_seed.is_some());
    drop(cluster.crash_and_drop(ReplicaId(3)).expect("replica 3 present"));

    let path = tmp.path().join("r3").join(ia_ccf_ledger::CHECKPOINT_FILE);
    let original = std::fs::read(&path).expect("the seeded layout has a checkpoint file");
    let file = SeedCheckpointFile::from_bytes(&original).expect("the seed file decodes");
    let honest = file.payload.clone();
    let restart = || spec.restart_replica(3, Arc::new(CounterApp), params3.clone());
    for row in ROWS.into_iter().filter(|r| !matches!(r, Row::ReplyForAnotherSeq)) {
        let bad = SeedCheckpointFile { payload: doctored(row, &honest), ..file.clone() };
        std::fs::write(&path, bad.to_bytes()).expect("write the doctored seed");
        assert!(restart().is_err(), "{row:?}: a doctored seed file restarted");
    }
    std::fs::write(&path, &original).expect("restore the seed");
    let restarted = restart().expect("the untouched seed file restarts");
    assert!(restarted.ledger().base() > 0, "restarted from the seed");
}
