//! Crash-restart differential harness for the durable ledger.
//!
//! Contract under test: a replica killed mid-commit — at *any* crash
//! point, including between the write and the fsync — restarts from its
//! data directory, repairs the torn tail without ever parsing a partial
//! batch into state, resumes the transfer from its first missing batch
//! (never from genesis), and ends byte-identical to a replica that never
//! crashed. On top of that, the recovery fast-path restores a recent
//! agreed checkpoint and pages only the ledger suffix — O(window) bytes
//! instead of O(history) — and a page server lying about the ledger tip
//! is unmasked by cross-checking the claim against f+1 replicas.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use ia_ccf::core::app::{App, CounterApp};
use ia_ccf::core::byzantine::Fault;
use ia_ccf::core::{Input, NodeId, Output, ProtocolParams, Replica};
use ia_ccf_sim::{ClusterSpec, DetCluster, TempDir};
use ia_ccf_types::{LedgerEntry, LedgerIdx, ProtocolMsg, ReplicaId, SeqNum, Wire};
use proptest::prelude::*;

fn durable_params(fsync_interval_batches: u64) -> ProtocolParams {
    ProtocolParams { fsync_interval_batches, view_timeout_ticks: 80, ..ProtocolParams::default() }
}

/// Build a cluster where every replica persists its ledger under its own
/// subdirectory of `tmp`.
fn durable_cluster(spec: &ClusterSpec, tmp: &TempDir) -> DetCluster {
    durable_cluster_running(spec, tmp, Arc::new(CounterApp))
}

/// [`durable_cluster`] for any application.
fn durable_cluster_running(spec: &ClusterSpec, tmp: &TempDir, app: Arc<dyn App>) -> DetCluster {
    DetCluster::with_replica_builder(spec, |rank| {
        let mut params = spec.params.clone();
        params.data_dir = Some(tmp.subdir(&format!("r{rank}")).expect("subdir"));
        spec.build_replica_with(rank, Arc::clone(&app), params)
    })
}

/// Assert two replicas' full ledgers and KV stores are byte-identical.
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

/// Total encoded bytes a from-genesis transfer would move (the oracle a
/// recovering replica's `SyncReport::bytes` is measured against).
fn genesis_transfer_bytes(cluster: &DetCluster, server: ReplicaId) -> u64 {
    whole_suffix(cluster.replica(server), SeqNum(1)).iter().map(|e| e.len() as u64).sum()
}

/// The monolithic whole-suffix fetch response from `from_seq`: every
/// entry from the ledger's fetch start to its tip, encoded.
fn whole_suffix(replica: &Replica, from_seq: SeqNum) -> Vec<Vec<u8>> {
    let ledger = replica.ledger();
    ledger.encode_range(LedgerIdx(ledger.fetch_start_pos(from_seq)), LedgerIdx(ledger.len()))
}

// ----------------------------------------------------------------------
// The differential harness: kill mid-commit, restart from disk, rejoin.
// ----------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Kill replica 3 mid-commit at a randomized crash point — the tail
    /// file is truncated to a random byte inside `[synced, written]`,
    /// emulating the OS page cache dying between the write and the fsync
    /// — then restart it from the data dir, re-sync the missed window and
    /// demand a ledger and KV digest byte-identical to a survivor that
    /// never crashed. Sweeps `fsync_interval_batches` ∈ {1, 8, 64}.
    #[test]
    fn killed_mid_commit_replica_restarts_and_matches_survivor(
        fsync_pick in 0usize..3,
        n_before in 2usize..6,
        n_missed in 1usize..6,
        cut_pct in 0u64..=100,
    ) {
        let fsync = [1u64, 8, 64][fsync_pick];
        let tmp = TempDir::new("crash-restart").expect("tempdir");
        let spec = ClusterSpec::new(4, 2, durable_params(fsync));
        let mut cluster = durable_cluster(&spec, &tmp);
        for i in 0..n_before {
            let client = spec.clients[i % 2].0;
            cluster.submit(client, CounterApp::INCR, format!("k{}", i % 3).into_bytes());
            cluster.round();
        }
        prop_assert!(cluster.run_until_finished(n_before, 1_000));

        // Kill mid-commit: a request is in flight (submitted, not yet
        // driven to quiescence) when the replica dies, and whatever of
        // the tail file had not reached stable storage dies with it.
        let client = spec.clients[0].0;
        cluster.submit(client, CounterApp::INCR, b"in-flight".to_vec());
        let dead = cluster.crash_and_drop(ReplicaId(3)).expect("replica 3 present");
        let log = dead.ledger().durable().expect("durable log attached");
        let (synced, written, tail) = (log.synced_len(), log.written_len(), log.tail_file_path());
        let completed = log.completed_len();
        drop(dead);
        // Watermarks are global byte offsets; the tail file starts at
        // `completed`.
        let cut = synced + (written - synced) * cut_pct / 100;
        let file = std::fs::OpenOptions::new().write(true).open(&tail).expect("tail file");
        file.set_len(cut - completed).expect("truncate to crash point");
        drop(file);

        // Survivors commit the in-flight request plus a missed window.
        for i in 0..n_missed {
            let client = spec.clients[i % 2].0;
            cluster.submit(client, CounterApp::INCR, format!("m{}", i % 3).into_bytes());
            cluster.round();
        }
        let total = n_before + 1 + n_missed;
        prop_assert!(cluster.run_until_finished(total, 1_000));

        // Restart from the data dir: torn tail repaired, durable prefix
        // replayed, then the missed suffix paged in from a survivor.
        let mut params3 = spec.params.clone();
        params3.data_dir = Some(tmp.path().join("r3"));
        let restarted =
            spec.restart_replica(3, Arc::new(CounterApp), params3).expect("restart from dir");
        prop_assert!(!restarted.ledger().is_empty(), "genesis always survives repair");
        cluster.recover(restarted, ReplicaId(0));
        prop_assert!(
            cluster.run_until(200, |c| c.replica(ReplicaId(3)).sync_report().complete),
            "re-sync did not complete: {:?}",
            cluster.replica(ReplicaId(3)).sync_report()
        );

        // The restarted replica rejoins consensus and matches a survivor
        // byte-for-byte.
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
// Regression: a page server lying about the ledger tip.
// ----------------------------------------------------------------------

/// A server advertising a self-consistent early `done` (token and entries
/// agree with its under-claimed tip) used to freeze the recoveree short
/// of the real tip. The fix cross-checks the claimed tip against f+1
/// replicas' tip responses: the (f+1)-th largest claim is reachable even
/// if f servers under-claim, so a `done` short of it forces a failover.
#[test]
fn lying_tip_server_is_cross_checked_and_abandoned() {
    let params = ProtocolParams {
        sync_page_bytes: 400,
        view_timeout_ticks: 80,
        ..ProtocolParams::default()
    };
    let spec = ClusterSpec::new(4, 2, params);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    for i in 0..4 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, format!("k{i}").into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(4, 400));
    cluster.crash(ReplicaId(3));
    for i in 0..6 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, format!("m{i}").into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(10, 1_000));
    let real_tip = cluster.replica(ReplicaId(0)).committed_up_to();
    assert!(real_tip >= SeqNum(8), "enough history for the lie to matter");

    // Replica 1 claims the ledger ends at seq 2 and serves pages that
    // agree with the claim. Recover replica 3 *from the liar*.
    cluster.set_fault(ReplicaId(1), Fault::LieAboutLedgerTip { claim: SeqNum(2) });
    cluster.recover(spec.build_replica(3, Arc::new(CounterApp)), ReplicaId(1));
    assert!(
        cluster.run_until(300, |c| c.replica(ReplicaId(3)).sync_report().complete),
        "sync must complete past the liar: {:?}",
        cluster.replica(ReplicaId(3)).sync_report()
    );
    cluster.set_fault(ReplicaId(1), Fault::None);
    let report = cluster.replica(ReplicaId(3)).sync_report();
    assert!(report.failovers >= 1, "the lying server must be unmasked: {report:?}");
    assert!(
        cluster.replica(ReplicaId(3)).prepared_up_to() >= real_tip,
        "recoveree must reach the real tip, not the claimed one"
    );
    assert_ledgers_byte_identical(&cluster, ReplicaId(3), ReplicaId(2));
}

// ----------------------------------------------------------------------
// Regression: crash mid-sync must resume, not restart from genesis.
// ----------------------------------------------------------------------

/// Drive `fresh`'s ledger sync by hand against the cluster's replicas,
/// one message hop at a time, until `stop` holds (or `max_hops` passes).
fn pump_sync_until(
    fresh: &mut Replica,
    cluster: &mut DetCluster,
    outs: Vec<Output>,
    mut stop: impl FnMut(&Replica) -> bool,
    max_hops: usize,
) -> bool {
    let mut pending: VecDeque<(ReplicaId, ProtocolMsg)> = outs
        .into_iter()
        .filter_map(|o| match o {
            Output::SendReplica(to, msg) => Some((to, msg)),
            _ => None,
        })
        .collect();
    for _ in 0..max_hops {
        if stop(fresh) {
            return true;
        }
        let Some((peer, msg)) = pending.pop_front() else {
            return stop(fresh);
        };
        let replies = cluster
            .replicas
            .get_mut(&peer)
            .expect("peer exists")
            .handle(Input::Message { from: NodeId::Replica(fresh.id()), msg });
        for reply in replies {
            let Output::SendReplica(to, m) = reply else { continue };
            if to != fresh.id() {
                continue;
            }
            let outs = fresh.handle(Input::Message { from: NodeId::Replica(peer), msg: m });
            pending.extend(outs.into_iter().filter_map(|o| match o {
                Output::SendReplica(to, msg) => Some((to, msg)),
                _ => None,
            }));
        }
    }
    stop(fresh)
}

/// A replica that crashes mid-state-transfer used to restart the whole
/// transfer from genesis despite holding a valid durable prefix of what
/// it had already applied. The fix: applied batches persist through the
/// durable log, so the restarted replica bootstraps to the frontier it
/// reached and the resumed sync requests only the first missing batch
/// onward — strictly fewer bytes than a genesis transfer.
#[test]
fn crash_mid_sync_resumes_from_durable_prefix() {
    let params = ProtocolParams {
        sync_page_bytes: 300, // many small pages so the crash is mid-flight
        view_timeout_ticks: 80,
        ..ProtocolParams::default()
    };
    let tmp = TempDir::new("mid-sync").expect("tempdir");
    let spec = ClusterSpec::new(4, 2, params);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    cluster.crash_and_drop(ReplicaId(3));
    for i in 0..12 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, format!("k{}", i % 4).into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(12, 1_000));

    // First recovery attempt: durable recoveree, driven by hand so it can
    // be killed with the transfer genuinely mid-flight.
    let mut params3 = spec.params.clone();
    params3.data_dir = Some(tmp.subdir("r3").expect("subdir"));
    let mut fresh = spec.build_replica_with(3, Arc::new(CounterApp), params3.clone());
    let outs = fresh.begin_ledger_sync(ReplicaId(0));
    let partially_synced = pump_sync_until(
        &mut fresh,
        &mut cluster,
        outs,
        |r| r.prepared_up_to() >= SeqNum(3) && !r.sync_report().complete,
        200,
    );
    assert!(partially_synced, "sync must be mid-flight: {:?}", fresh.sync_report());
    let tip_at_crash = fresh.prepared_up_to();
    assert!(tip_at_crash >= SeqNum(3), "a real prefix was applied before the crash");
    drop(fresh); // the crash: instance gone, durable prefix stays on disk

    // Restart: the applied prefix is back without any network traffic,
    // through the crash tip: every applied batch's chunk closed its
    // transaction run.
    let resumed =
        spec.restart_replica(3, Arc::new(CounterApp), params3).expect("restart from dir");
    let resumed_tip = resumed.prepared_up_to();
    assert_eq!(resumed_tip, tip_at_crash, "the applied frontier must survive the crash");
    assert!(resumed_tip > SeqNum(0), "resume must not restart from genesis");

    // The resumed sync moves only the missing suffix.
    let genesis_bytes = genesis_transfer_bytes(&cluster, ReplicaId(0));
    let suffix_bytes: u64 = whole_suffix(cluster.replica(ReplicaId(0)), resumed_tip.next())
        .iter()
        .map(|e| e.len() as u64)
        .sum();
    assert!(suffix_bytes < genesis_bytes, "prefix non-empty, so the suffix is smaller");
    cluster.recover(resumed, ReplicaId(0));
    assert!(
        cluster.run_until(200, |c| c.replica(ReplicaId(3)).sync_report().complete),
        "resumed sync did not complete: {:?}",
        cluster.replica(ReplicaId(3)).sync_report()
    );
    let report = cluster.replica(ReplicaId(3)).sync_report();
    assert!(
        report.bytes <= suffix_bytes,
        "resume must transfer only the suffix: {} moved, suffix is {suffix_bytes}, \
         a genesis restart would move {genesis_bytes}",
        report.bytes
    );
    assert_ledgers_byte_identical(&cluster, ReplicaId(3), ReplicaId(1));
}

// ----------------------------------------------------------------------
// Differential: a ledger that was synced is on disk as one that was lived.
// ----------------------------------------------------------------------

/// Every file of a (flat) durable data directory, by name.
fn dir_files(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("data dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().into_string().expect("utf-8 file name");
            (name, std::fs::read(entry.path()).expect("data file"))
        })
        .collect()
}

/// Replay used to write a batch entry by entry where the live path writes
/// two chunks (evidence pair; pre-prepare + transactions), so a replica
/// that *synced* a history held different bytes from one that *accepted*
/// it, and the per-batch fsync fired on the pre-prepare's own chunk —
/// before the batch's transactions were written. Replay now enters
/// batches through the backup's body: same chunks, same fsync points.
#[test]
fn synced_replica_holds_the_same_files_as_one_that_accepted_every_batch() {
    let tmp = TempDir::new("sync-vs-accept").expect("tempdir");
    // No checkpoint falls in the run: the sync replays the whole history
    // from genesis.
    let spec = ClusterSpec::new(4, 2, durable_params(1))
        .with_config(|c| c.checkpoint_interval = 1 << 20);
    let mut cluster = durable_cluster(&spec, &tmp);
    drop(cluster.crash_and_drop(ReplicaId(3)));
    for batch in 0..20 {
        for i in 0..10 {
            let client = spec.clients[i % 2].0;
            cluster.submit(client, CounterApp::INCR, format!("k{}", i % 4).into_bytes());
        }
        assert!(cluster.run_until_finished((batch + 1) * 10, 400), "batch {batch}");
    }
    let survivor = cluster.replica(ReplicaId(1));
    let multi_tx_batches = survivor
        .ledger()
        .entries()
        .windows(3)
        .filter(|w| {
            matches!(w, [LedgerEntry::PrePrepare(_), LedgerEntry::Tx(_), LedgerEntry::Tx(_)])
        })
        .count();
    assert!(multi_tx_batches >= 20, "only {multi_tx_batches} multi-transaction batches");

    let mut params3 = spec.params.clone();
    params3.data_dir = Some(tmp.subdir("r3-synced").expect("subdir"));
    let fresh = spec.build_replica_with(3, Arc::new(CounterApp), params3);
    cluster.recover(fresh, ReplicaId(0));
    assert!(
        cluster.run_until(200, |c| c.replica(ReplicaId(3)).sync_report().complete),
        "sync did not complete: {:?}",
        cluster.replica(ReplicaId(3)).sync_report()
    );
    assert_eq!(cluster.replica(ReplicaId(3)).sync_report().checkpoint_seed, None);
    assert_ledgers_byte_identical(&cluster, ReplicaId(3), ReplicaId(1));

    let log = cluster.replica(ReplicaId(3)).ledger().durable().expect("durable log attached");
    assert_eq!(
        log.written_len(),
        log.synced_len(),
        "fsync_interval_batches = 1: nothing of a synced batch may sit unsynced"
    );
    let (synced, accepted) =
        (dir_files(&tmp.path().join("r3-synced")), dir_files(&tmp.path().join("r1")));
    assert_eq!(
        synced.iter().map(|(name, bytes)| (name, bytes.len())).collect::<Vec<_>>(),
        accepted.iter().map(|(name, bytes)| (name, bytes.len())).collect::<Vec<_>>(),
        "file names and sizes"
    );
    assert!(synced == accepted, "same names and sizes, different bytes");
}

/// Pages and checkpoint seeds are encoded from memory; the disk is read
/// only when a replica restarts. A view change that rolls back a durable
/// survivor's tail cuts both copies (`truncate_to` mirrors the cut into
/// the segment files): a batch executes and prepares everywhere but
/// commits nowhere, and the view change after the primary's crash rolls
/// it back and re-proposes it. A fresh replica synced from that survivor
/// must then hold its ledger byte for byte; the survivor's directory must
/// decode to its ledger, and a restart from a copy of it must replay the
/// same bytes.
#[test]
fn a_rolled_back_durable_tail_syncs_and_restarts_byte_identical() {
    let tmp = TempDir::new("rollback-mirror").expect("tempdir");
    let params = ProtocolParams { view_timeout_ticks: 15, ..durable_params(1) };
    let spec = ClusterSpec::new(4, 1, params).with_config(|c| c.checkpoint_interval = 1 << 20);
    let mut cluster = durable_cluster(&spec, &tmp);
    let client = spec.clients[0].0;
    for r in 0..4 {
        cluster.set_fault(ReplicaId(r), Fault::DropCommits);
    }
    cluster.submit(client, CounterApp::INCR, b"k".to_vec());
    for _ in 0..5 {
        cluster.round();
    }
    let survivor = ReplicaId(1);
    let views_of_seq_1 = |cluster: &DetCluster| -> Vec<u64> {
        let entries = cluster.replica(survivor).ledger().entries();
        let pps = entries.iter().filter_map(|e| match e {
            LedgerEntry::PrePrepare(pp) if pp.seq() == SeqNum(1) => Some(pp.view().0),
            _ => None,
        });
        pps.collect()
    };
    assert_eq!(cluster.replica(survivor).prepared_up_to(), SeqNum(1));
    assert_eq!(cluster.replica(survivor).committed_up_to(), SeqNum(0));
    assert_eq!(views_of_seq_1(&cluster), [0], "batch 1 is on disk in view 0");

    drop(cluster.crash_and_drop(ReplicaId(0)).expect("replica 0 present"));
    for r in 1..4 {
        cluster.set_fault(ReplicaId(r), Fault::None);
    }
    assert!(cluster.run_until_finished(1, 400), "the rolled-back batch recommits");
    // One more batch, so the rolled-back one is not the ledger's last.
    cluster.submit(client, CounterApp::INCR, b"k".to_vec());
    assert!(cluster.run_until_finished(2, 400), "the new view keeps committing");
    let views = views_of_seq_1(&cluster);
    assert!(views.len() == 1 && views[0] >= 1, "batch 1 rolled back and re-proposed: {views:?}");
    let ledger = cluster.replica(survivor).ledger();
    assert!(ledger.durable().is_some() && !ledger.durability_lost(), "the mirror stayed attached");

    // A fresh replica synced from the survivor holds its ledger.
    let mut fresh = spec.params.clone();
    fresh.data_dir = Some(tmp.subdir("r0-fresh").expect("subdir"));
    cluster.recover(spec.build_replica_with(0, Arc::new(CounterApp), fresh), survivor);
    assert!(
        cluster.run_until(200, |c| c.replica(ReplicaId(0)).sync_report().complete),
        "sync did not complete: {:?}",
        cluster.replica(ReplicaId(0)).sync_report()
    );
    assert_ledgers_byte_identical(&cluster, ReplicaId(0), survivor);

    // The survivor's directory decodes to its ledger.
    let copy = tmp.subdir("r1-copy").expect("subdir");
    for (name, bytes) in dir_files(&tmp.path().join("r1")) {
        std::fs::write(copy.join(name), bytes).expect("copy data file");
    }
    let ledger = cluster.replica(survivor).ledger();
    let (log, on_disk) = ia_ccf::ledger::DurableLog::open(&copy, 1).expect("open the copy");
    drop(log);
    assert!(on_disk == ledger.entries(), "the disk holds the survivor's ledger");

    // A restart from the copy replays the same bytes through the
    // re-proposed batch, and keeps the run's last batch: its chunk closed
    // its transaction run.
    let mut params = spec.params.clone();
    params.data_dir = Some(copy);
    let restarted =
        spec.restart_replica(1, Arc::new(CounterApp), params).expect("restart from the copy");
    let restarted = restarted.ledger();
    assert!(restarted.pp_at(SeqNum(1)).is_some_and(|pp| pp.view().0 >= 1));
    assert_eq!(restarted.len(), ledger.len(), "the run's last batch is not cut");
    let end = LedgerIdx(restarted.len());
    assert!(
        restarted.encode_range(LedgerIdx(0), end) == ledger.encode_range(LedgerIdx(0), end),
        "the restart replays the survivor's bytes"
    );
}

// ----------------------------------------------------------------------
// Whole-cluster restart: no receipted batch is lost.
// ----------------------------------------------------------------------

/// Every replica of a cluster restarts from its own directory after six
/// receipted batches (n = 4 and n = 7, `fsync_interval_batches` = 1, no
/// fault). There is no live peer to page a lost batch from, so each
/// restarted ledger must hold all 21 entries its disk closed (genesis, two
/// bare batches, four with their evidence pair), and the six receipts must
/// audit `Clean` against each. Cutting the last batch instead turns the
/// sixth receipt into a view-change omission that blames honest
/// replicas.
///
/// Then every restarted replica rejoins the cluster and the cluster
/// stalls; this test pins the stall. Replay marks batches 5 and 6
/// prepared, but the prepares that proved it lived in memory only: no
/// replica can assemble the evidence for batch 5 that a seventh batch must
/// carry, and every view change it sends reports batch 6 without a proof,
/// so every replica refuses it (`NotPrepared`). Every replica stays at
/// `committed_up_to` 4 and the seventh request gets no receipt. A prepare
/// proof that survives a restart (ROADMAP item 20) is what inverts these
/// assertions.
#[test]
fn whole_cluster_restart_keeps_every_receipted_batch() {
    use ia_ccf::audit::{AuditOutcome, Auditor, LedgerPackage, StoredReceipt};
    use ia_ccf::governance::chain::GovernanceChain;

    for n in [4, 7] {
        let tmp = TempDir::new(&format!("whole-cluster-{n}")).expect("tempdir");
        let spec = ClusterSpec::new(n, 1, durable_params(1));
        let mut cluster = durable_cluster(&spec, &tmp);
        let client = spec.clients[0].0;
        for i in 1..=6 {
            cluster.submit(client, CounterApp::INCR, b"k".to_vec());
            assert!(cluster.run_until_finished(i, 400), "n = {n}: batch {i} commits");
        }
        let receipts: Vec<StoredReceipt> = cluster
            .finished
            .iter()
            .map(|(_, tx)| StoredReceipt {
                request: tx.request.clone(),
                receipt: tx.receipt.clone().expect("receipts"),
            })
            .collect();
        let written: Vec<Vec<Vec<u8>>> = (0..n as u32)
            .map(|r| {
                let ledger = cluster.replica(ReplicaId(r)).ledger();
                ledger.encode_range(LedgerIdx(0), LedgerIdx(ledger.len()))
            })
            .collect();
        for r in 0..n as u32 {
            drop(cluster.crash_and_drop(ReplicaId(r)).expect("replica present"));
        }

        let auditor = Auditor::new(spec.genesis.clone(), Arc::new(CounterApp));
        for (r, written) in written.iter().enumerate() {
            let mut params = spec.params.clone();
            params.data_dir = Some(tmp.path().join(format!("r{r}")));
            let restarted = spec
                .restart_replica(r, Arc::new(CounterApp), params)
                .unwrap_or_else(|e| panic!("n = {n}, replica {r} restarts: {e:?}"));
            let ledger = restarted.ledger();
            assert_eq!(ledger.len(), 21, "n = {n}, replica {r}: every closed batch is kept");
            assert!(
                ledger.encode_range(LedgerIdx(0), LedgerIdx(ledger.len())) == *written,
                "n = {n}, replica {r}: the restart holds the bytes it wrote"
            );
            let package = LedgerPackage::from_replica(&restarted, SeqNum(0));
            let outcome = auditor.audit(&receipts, &GovernanceChain::new(), &package);
            let clean = matches!(outcome, AuditOutcome::Clean);
            assert!(clean, "n = {n}, replica {r}: {:?}", outcome.upom());
            cluster.crashed.remove(&restarted.id());
            cluster.add_replica(restarted);
        }

        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        assert!(!cluster.run_until_finished(7, 1_000), "n = {n}: the seventh request commits");
        for r in 0..n as u32 {
            let committed = cluster.replica(ReplicaId(r)).committed_up_to();
            assert_eq!(committed, SeqNum(4), "n = {n}, replica {r}");
        }
    }
}

/// Every chunk boundary of an untorn segment file, from its start: the
/// byte offset and how many entries the chunks before it hold.
fn chunk_boundaries(bytes: &[u8]) -> Vec<(u64, usize)> {
    let mut boundaries: Vec<(u64, usize)> = vec![(0, 0)];
    let (mut pos, mut entries_so_far) = (0usize, 0usize);
    while pos + 8 <= bytes.len() {
        let payload_len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let entry_count = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap()) as usize;
        pos += 8 + payload_len;
        assert!(pos <= bytes.len(), "reference log must not itself be torn");
        entries_so_far += entry_count;
        boundaries.push((pos as u64, entries_so_far));
    }
    boundaries
}

/// A run whose structure breaks early: the first batch written with an
/// evidence pair loses its `[PrePrepare, Tx…]` chunk, and whole batches
/// follow. Restart keeps exactly the entries before the dangling pair.
#[test]
fn a_run_broken_early_restarts_to_the_chunk_before_the_break() {
    let tmp = TempDir::new("broken-early").expect("tempdir");
    let spec = ClusterSpec::new(4, 1, durable_params(1));
    let mut cluster = durable_cluster(&spec, &tmp);
    let client = spec.clients[0].0;
    for i in 1..=12 {
        cluster.submit(client, CounterApp::INCR, b"k".to_vec());
        assert!(cluster.run_until_finished(i, 400), "batch {i} commits");
    }
    let dead = cluster.crash_and_drop(ReplicaId(3)).expect("replica 3");
    let reference: Vec<LedgerEntry> = (0..dead.ledger().len())
        .map(|i| dead.ledger().entry(LedgerIdx(i)).expect("entry").clone())
        .collect();
    drop(dead);

    let seg = tmp.path().join("r3").join("ledger-000000.seg");
    let bytes = std::fs::read(&seg).expect("segment file");
    let boundaries = chunk_boundaries(&bytes);
    assert_eq!(boundaries.last().unwrap().1, reference.len(), "every entry is on disk");
    // Chunk `ev` holds the first evidence pair; chunk `ev + 1` is its
    // batch's pre-prepare run, the one dropped.
    let ev = boundaries
        .iter()
        .position(|&(_, at)| matches!(reference.get(at), Some(LedgerEntry::Evidence { .. })))
        .expect("an evidence pair in the ledger");
    let (start, after) = (boundaries[ev + 1].0 as usize, boundaries[ev + 2].0 as usize);
    assert!(boundaries.len() - (ev + 2) >= 10, "ten chunks or more follow the break");
    std::fs::write(&seg, [&bytes[..start], &bytes[after..]].concat()).expect("rewrite");

    let mut params = spec.params.clone();
    params.data_dir = Some(tmp.path().join("r3"));
    let restarted =
        spec.restart_replica(3, Arc::new(CounterApp), params).expect("restart from a broken run");
    let keep = boundaries[ev].1;
    assert_eq!(restarted.ledger().len() as usize, keep, "kept up to the dangling evidence pair");
    for (i, entry) in reference[..keep].iter().enumerate() {
        assert_eq!(
            restarted.ledger().entry(LedgerIdx(i as u64)).map(Wire::to_bytes),
            Some(entry.to_bytes()),
            "kept entry {i} is the one written"
        );
    }
}

// ----------------------------------------------------------------------
// Torn-tail crash-point sweep across a view change.
// ----------------------------------------------------------------------

/// Truncate a durable ledger containing inter-batch view-change entries
/// at every chunk boundary (±1 byte) and a stride of interior points, and
/// prove the startup repair is safe at each: the restart succeeds, yields
/// an exact entry-prefix of the reference, grows monotonically with the
/// cut, never keeps a dangling `ViewChangeSet` without its `NewView`, and
/// recovers everything when nothing was torn.
#[test]
fn torn_tail_sweep_across_view_change_never_parses_partial_state() {
    let tmp = TempDir::new("torn-sweep").expect("tempdir");
    let spec = ClusterSpec::new(4, 2, durable_params(1));
    let mut cluster = durable_cluster(&spec, &tmp);
    for i in 0..3 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, format!("k{i}").into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(3, 400));
    // Kill the primary: the survivors (replica 3 among them) run a view
    // change whose entries land *between* batch segments in the ledger.
    cluster.crash(ReplicaId(0));
    for i in 0..3 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, format!("v{i}").into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(6, 1_000), "no progress after view change");
    assert!(cluster.replica(ReplicaId(3)).view().0 >= 1, "view change must have happened");

    // Reference: replica 3's full ledger, then release its file handles.
    let dead = cluster.crash_and_drop(ReplicaId(3)).expect("replica 3");
    let reference: Vec<LedgerEntry> =
        (0..dead.ledger().len())
            .map(|i| dead.ledger().entry(LedgerIdx(i)).expect("entry").clone())
            .collect();
    let vc_idx = reference
        .iter()
        .position(|e| matches!(e, LedgerEntry::ViewChangeSet { .. }))
        .expect("view-change entries in the ledger");
    assert!(
        matches!(reference[vc_idx + 1], LedgerEntry::NewView(_)),
        "the new-view follows its view-change set"
    );
    drop(dead);

    let seg = tmp.path().join("r3").join("ledger-000000.seg");
    let bytes = std::fs::read(&seg).expect("segment file");
    let boundaries = chunk_boundaries(&bytes);
    assert_eq!(boundaries.last().unwrap().1, reference.len(), "every entry is on disk");

    // Crash points: every chunk boundary ±1, plus an interior stride.
    let mut cuts: Vec<u64> = Vec::new();
    for &(b, _) in &boundaries {
        for c in [b.saturating_sub(1), b, b + 1] {
            if c <= bytes.len() as u64 {
                cuts.push(c);
            }
        }
    }
    let stride = (bytes.len() as u64 / 120).max(1);
    cuts.extend((0..bytes.len() as u64).step_by(stride as usize));
    cuts.sort_unstable();
    cuts.dedup();

    let scratch = tmp.subdir("scratch").expect("scratch");
    let mut prev_keep = 0u64;
    let mut keep_at = std::collections::BTreeMap::new();
    for &cut in &cuts {
        std::fs::write(scratch.join("ledger-000000.seg"), &bytes[..cut as usize])
            .expect("write truncated copy");
        let mut params3 = spec.params.clone();
        params3.data_dir = Some(scratch.clone());
        // A cut inside the genesis chunk leaves nothing to restart from —
        // the one legitimate failure, equivalent to an empty data dir.
        let restarted = match spec.restart_replica(3, Arc::new(CounterApp), params3) {
            Ok(r) => r,
            Err(ia_ccf::core::BootstrapError::NoGenesis) => {
                assert!(
                    cut < boundaries[1].0,
                    "cut {cut}: genesis lost although its chunk was intact"
                );
                continue;
            }
            Err(e) => panic!("restart must repair any torn tail (cut {cut}): {e:?}"),
        };
        let keep = restarted.ledger().len();
        // Exact prefix of the reference — partial batches never reach state.
        for i in 0..keep {
            assert_eq!(
                restarted.ledger().entry(LedgerIdx(i)).map(|e| e.to_bytes()),
                Some(reference[i as usize].to_bytes()),
                "cut {cut}: repaired ledger diverged at entry {i}"
            );
        }
        // A view-change set is only ever kept together with its new-view.
        if keep as usize > vc_idx {
            assert!(
                keep as usize > vc_idx + 1,
                "cut {cut}: dangling view-change set without its new-view"
            );
        }
        assert!(keep >= prev_keep, "cut {cut}: repair must be monotone in the crash point");
        prev_keep = keep;
        keep_at.insert(cut, keep);
        drop(restarted);
    }
    // Nothing torn ⇒ everything survives, the trailing batch included:
    // its chunk closed its transaction run.
    let full_keep = keep_at[&(bytes.len() as u64)];
    assert_eq!(
        full_keep as usize,
        reference.len(),
        "untorn restart must retain every entry (VC at {vc_idx})"
    );
}

// ----------------------------------------------------------------------
// Checkpoint fast-path: O(window) recovery instead of O(history).
// ----------------------------------------------------------------------

/// A fresh recoveree restores a recent agreed checkpoint (pinned by the
/// f+1-cross-checked tip claims and verified against the committed
/// pre-prepare chain before anything is applied) and pages only the
/// ledger suffix: it moves under half the bytes of a replay from genesis
/// (`genesis_transfer_bytes`; `paged_fetch_equiv` holds such a replay to
/// exactly those bytes).
#[test]
fn checkpoint_seeded_recovery_moves_o_window_bytes() {
    let params = ProtocolParams { view_timeout_ticks: 80, ..ProtocolParams::default() };
    let spec = ClusterSpec::new(4, 2, params).with_config(|c| c.checkpoint_interval = 5);
    let mut cluster = DetCluster::new(&spec, Arc::new(CounterApp));
    for i in 0..35 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, format!("k{}", i % 4).into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(35, 2_000));
    // Replica 3 dies and is replaced by a fresh instance that must catch
    // up on the whole history.
    cluster.crash(ReplicaId(3));
    let genesis_bytes = genesis_transfer_bytes(&cluster, ReplicaId(0));

    cluster.recover(spec.build_replica(3, Arc::new(CounterApp)), ReplicaId(0));
    assert!(
        cluster.run_until(300, |c| c.replica(ReplicaId(3)).sync_report().complete),
        "sync did not complete: {:?}",
        cluster.replica(ReplicaId(3)).sync_report()
    );
    // A checkpoint-seeded replica holds a suffix ledger: every entry from
    // its base onward must match the survivor byte-for-byte, and the KV
    // digests must agree.
    let (r3, r1) = (cluster.replica(ReplicaId(3)), cluster.replica(ReplicaId(1)));
    assert_eq!(r3.ledger().len(), r1.ledger().len(), "global ledger length");
    for i in r3.ledger().base()..r3.ledger().len() {
        assert_eq!(
            r3.ledger().entry(LedgerIdx(i)).map(Wire::to_bytes),
            r1.ledger().entry(LedgerIdx(i)).map(Wire::to_bytes),
            "suffix divergence at entry {i}"
        );
    }
    assert_eq!(r3.kv().digest(), r1.kv().digest(), "KV digest");
    let committed = r1.committed_up_to();
    let seeded = r3.sync_report();
    let seed = seeded.checkpoint_seed.expect("the fast-path must have been taken");
    assert!(
        committed.0 - seed.0 <= 3 * 5,
        "the seeded checkpoint must be recent: seed {seed:?}, tip {committed:?}"
    );
    assert!(
        seeded.bytes < genesis_bytes / 2,
        "checkpoint + suffix must be far below a full replay: moved {} of {genesis_bytes}",
        seeded.bytes
    );
}

// ----------------------------------------------------------------------
// Double crash: a checkpoint-seeded replica stays durable across its
// next crash and restarts locally.
// ----------------------------------------------------------------------

/// The seeded layout's crash-repair contract end to end: replica 3 dies
/// and loses its disk, a durable replacement takes the checkpoint
/// fast-path (persisting `checkpoint.cp` plus a suffix segment run),
/// commits more history, then dies again mid-commit with a torn tail.
/// The second restart must come back *locally* — seed verified from
/// disk, suffix tail structurally repaired — and fetch only the batches
/// past its durable frontier: zero network bytes for the prefix.
#[test]
fn double_crashed_seeded_replica_restarts_locally_and_matches_survivor() {
    let tmp = TempDir::new("double-crash").expect("tempdir");
    let params = ProtocolParams {
        fsync_interval_batches: 1,
        view_timeout_ticks: 80,
        durable_roll_bytes: 2048, // small: the suffix run spans files
        ..ProtocolParams::default()
    };
    let spec = ClusterSpec::new(4, 2, params).with_config(|c| c.checkpoint_interval = 5);
    let mut cluster = durable_cluster(&spec, &tmp);
    for i in 0..30 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, format!("k{}", i % 4).into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(30, 2_000));

    // First crash: the replica dies and its disk dies with it.
    cluster.crash_and_drop(ReplicaId(3)).expect("replica 3 present");
    std::fs::remove_dir_all(tmp.path().join("r3")).expect("lose the disk");

    // The durable replacement recovers over the network; the fast-path
    // must seed it and persist the seeded layout.
    let mut params3 = spec.params.clone();
    params3.data_dir = Some(tmp.subdir("r3").expect("subdir"));
    cluster.recover(spec.build_replica_with(3, Arc::new(CounterApp), params3.clone()), ReplicaId(0));
    assert!(
        cluster.run_until(300, |c| c.replica(ReplicaId(3)).sync_report().complete),
        "first recovery did not complete: {:?}",
        cluster.replica(ReplicaId(3)).sync_report()
    );
    let first = cluster.replica(ReplicaId(3)).sync_report();
    assert!(first.checkpoint_seed.is_some(), "first recovery must take the fast-path: {first:?}");
    {
        let r3 = cluster.replica(ReplicaId(3));
        let log = r3.ledger().durable().expect("durability re-attached after seeding");
        assert!(log.base() > 0, "the on-disk run must be a suffix, not full history");
        assert!(!r3.ledger().durability_lost(), "seeding must not burn the gauge");
    }

    // More committed history on the seeded suffix, then the second
    // crash: a request in flight and a torn tail (mid-fsync-window cut).
    for i in 0..6 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, format!("m{i}").into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(36, 1_000));
    cluster.submit(spec.clients[0].0, CounterApp::INCR, b"in-flight".to_vec());
    let dead = cluster.crash_and_drop(ReplicaId(3)).expect("replica 3 present");
    let log = dead.ledger().durable().expect("durable log attached");
    let (synced, written, tail) = (log.synced_len(), log.written_len(), log.tail_file_path());
    let completed = log.completed_len();
    drop(dead);
    let cut = synced + (written - synced) / 2;
    let file = std::fs::OpenOptions::new().write(true).open(&tail).expect("tail file");
    file.set_len(cut - completed).expect("truncate to crash point");
    drop(file);

    // Survivors keep going while replica 3 is down.
    for i in 0..3 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, format!("p{i}").into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(40, 1_000));

    // Second restart: local. The seed file and suffix segments rebuild
    // the replica to its durable frontier with no network traffic.
    let restarted =
        spec.restart_replica(3, Arc::new(CounterApp), params3).expect("seeded local restart");
    assert!(restarted.ledger().base() > 0, "restarted as a suffix ledger");
    let durable_tip = restarted.prepared_up_to();
    assert!(
        durable_tip >= first.checkpoint_seed.unwrap(),
        "local restart must reach at least the seed point: {durable_tip:?}"
    );
    let genesis_bytes = genesis_transfer_bytes(&cluster, ReplicaId(0));
    let suffix_bytes: u64 = whole_suffix(cluster.replica(ReplicaId(0)), durable_tip.next())
        .iter()
        .map(|e| e.len() as u64)
        .sum();

    cluster.recover(restarted, ReplicaId(0));
    assert!(
        cluster.run_until(300, |c| c.replica(ReplicaId(3)).sync_report().complete),
        "second recovery did not complete: {:?}",
        cluster.replica(ReplicaId(3)).sync_report()
    );
    let report = cluster.replica(ReplicaId(3)).sync_report();
    assert!(
        report.checkpoint_seed.is_none(),
        "the prefix must come from disk, not a second network seed: {report:?}"
    );
    assert!(
        report.bytes <= suffix_bytes,
        "only the missed suffix crosses the network: moved {} of suffix {suffix_bytes} \
         (a genesis transfer would be {genesis_bytes})",
        report.bytes
    );

    // Rejoin consensus, then demand the suffix is byte-identical to a
    // never-crashed survivor and durability is attached again.
    for i in 0..3 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, b"post".to_vec());
        cluster.round();
    }
    assert!(cluster.run_until_finished(43, 1_000));
    let (r3, r1) = (cluster.replica(ReplicaId(3)), cluster.replica(ReplicaId(1)));
    assert_eq!(r3.ledger().len(), r1.ledger().len(), "global ledger length");
    for i in r3.ledger().base()..r3.ledger().len() {
        assert_eq!(
            r3.ledger().entry(LedgerIdx(i)).map(Wire::to_bytes),
            r1.ledger().entry(LedgerIdx(i)).map(Wire::to_bytes),
            "suffix divergence at entry {i}"
        );
    }
    assert_eq!(r3.kv().digest(), r1.kv().digest(), "KV digest");
    let log = r3.ledger().durable().expect("durable again after the second restart");
    assert!(log.base() > 0, "still the suffix layout");
    cluster.assert_ledgers_consistent();
}

// ----------------------------------------------------------------------
// State is a function of the ledger: a loaded service restarts from disk.
// ----------------------------------------------------------------------

/// A SmallBank cluster whose accounts were loaded by the ledger's first
/// transaction (`LOAD_ACCOUNTS`) crashes and comes back through
/// `restart_from_dir` — from a full-history directory, then from a seeded
/// one — with the survivors' KV digest. While accounts could be primed
/// behind the ledger's back, replay started from a store no ledger
/// described and this restart failed with `ExecutionMismatch(SeqNum(1))`.
#[test]
fn ledger_loaded_smallbank_restarts_from_full_history_and_from_a_seed() {
    use ia_ccf_smallbank::{account_key, load_accounts, SmallBankApp, Workload};
    const ACCOUNTS: u64 = 16;

    let tmp = TempDir::new("loaded-restart").expect("tempdir");
    let spec = ClusterSpec::new(4, 2, durable_params(1)).with_config(|c| c.checkpoint_interval = 5);
    let app: Arc<dyn App> = Arc::new(SmallBankApp);
    let mut cluster = durable_cluster_running(&spec, &tmp, Arc::clone(&app));
    let load = load_accounts(ACCOUNTS, 1_000);
    assert!(cluster.commit_setup_tx(spec.clients[0].0, load.proc, load.args).ok);

    let mut workload = Workload::new(ACCOUNTS, 5);
    let mut finished = 0;
    let mut traffic = |cluster: &mut DetCluster, n: usize| {
        for i in 0..n {
            let op = workload.next_op();
            cluster.submit(spec.clients[i % 2].0, op.proc, op.args);
            cluster.round();
        }
        finished += n;
        assert!(cluster.run_until_finished(finished, 2_000), "finished {}", cluster.finished.len());
    };
    let mut params3 = spec.params.clone();
    params3.data_dir = Some(tmp.path().join("r3"));
    // Crash replica 3, let the survivors move on, restart it from its
    // directory and re-sync; returns the restart's own view of itself.
    type Traffic<'a> = &'a mut dyn FnMut(&mut DetCluster, usize);
    let crash_and_restart = |cluster: &mut DetCluster, traffic: Traffic| {
        drop(cluster.crash_and_drop(ReplicaId(3)).expect("replica 3 present"));
        traffic(cluster, 3);
        let restarted = spec
            .restart_replica(3, Arc::clone(&app), params3.clone())
            .expect("a ledger-loaded store replays from its own ledger");
        assert!(restarted.kv().get(&account_key(ACCOUNTS - 1)).is_some(), "accounts replayed");
        let (base, tip) = (restarted.ledger().base(), restarted.prepared_up_to());
        cluster.recover(restarted, ReplicaId(0));
        assert!(
            cluster.run_until(300, |c| c.replica(ReplicaId(3)).sync_report().complete),
            "re-sync did not complete: {:?}",
            cluster.replica(ReplicaId(3)).sync_report()
        );
        traffic(cluster, 3);
        let (r3, r1) = (cluster.replica(ReplicaId(3)), cluster.replica(ReplicaId(1)));
        assert_eq!(r3.kv().digest(), r1.kv().digest(), "KV digest after restart");
        cluster.assert_ledgers_consistent();
        (base, tip)
    };

    // Full history on disk: replay from the run's genesis entry.
    traffic(&mut cluster, 12);
    let (base, tip) = crash_and_restart(&mut cluster, &mut traffic);
    assert_eq!(base, 0, "full-history layout");
    assert!(tip >= SeqNum(12), "the durable prefix replayed locally: {tip:?}");
    assert_ledgers_byte_identical(&cluster, ReplicaId(3), ReplicaId(1));

    // Lose the disk: the replacement is seeded over the network and
    // persists the seeded layout — checkpoint file plus suffix run.
    traffic(&mut cluster, 12);
    drop(cluster.crash_and_drop(ReplicaId(3)).expect("replica 3 present"));
    std::fs::remove_dir_all(tmp.path().join("r3")).expect("lose the disk");
    let mut fresh = params3.clone();
    fresh.data_dir = Some(tmp.subdir("r3").expect("subdir"));
    cluster.recover(spec.build_replica_with(3, Arc::clone(&app), fresh), ReplicaId(0));
    assert!(cluster.run_until(300, |c| c.replica(ReplicaId(3)).sync_report().complete));
    let seed = cluster.replica(ReplicaId(3)).sync_report().checkpoint_seed;
    assert!(seed.is_some(), "the replacement must take the checkpoint fast-path");

    // Seeded directory: restore the verified seed, replay the suffix run.
    traffic(&mut cluster, 4);
    let (base, tip) = crash_and_restart(&mut cluster, &mut traffic);
    assert!(base > 0, "seeded layout");
    assert!(tip >= seed.unwrap(), "restart reaches at least the seed point: {tip:?}");
}

// ----------------------------------------------------------------------
// A fresh replica must not silently destroy an occupied data dir.
// ----------------------------------------------------------------------

/// `Replica::new` used to claim a `data_dir` holding a previous
/// instance's segment files and silently reconcile that history down to
/// genesis — destroying it. Pin the fix: occupied directories are a
/// typed refusal, and `restart_from_dir` remains the restart path.
#[test]
fn fresh_replica_refuses_occupied_data_dir() {
    use ia_ccf::core::ReplicaInitError;
    let tmp = TempDir::new("occupied-dir").expect("tempdir");
    let dir = tmp.subdir("r0").expect("subdir");
    let spec = ClusterSpec::new(4, 2, durable_params(1));
    let mut cluster = DetCluster::with_replica_builder(&spec, |rank| {
        let mut p = spec.params.clone();
        if rank == 0 {
            p.data_dir = Some(dir.clone());
        }
        spec.build_replica_with(rank, Arc::new(CounterApp), p)
    });
    for i in 0..2 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, format!("k{i}").into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(2, 400));
    let dead = cluster.crash_and_drop(ReplicaId(0)).expect("replica 0 present");
    let history_len = dead.ledger().len();
    assert!(history_len > 1, "real history on disk");
    drop(dead);

    let mut params0 = spec.params.clone();
    params0.data_dir = Some(dir.clone());
    let fresh = Replica::new(
        ReplicaId(0),
        spec.replica_keys[0].clone(),
        spec.genesis.clone(),
        Arc::new(CounterApp),
        params0.clone(),
        spec.client_keys(),
    );
    assert!(
        matches!(fresh, Err(ReplicaInitError::DataDirNotEmpty(ref d)) if *d == dir),
        "occupied directory must be a typed refusal"
    );

    // The legitimate restart path still works and keeps the history.
    let restarted = spec.restart_replica(0, Arc::new(CounterApp), params0).expect("restart");
    assert!(restarted.ledger().len() > 1, "history survived the refusal");
}

// ----------------------------------------------------------------------
// Durable I/O failure on the consensus hot path: detach, don't die.
// ----------------------------------------------------------------------

/// A durable write failure mid-consensus used to panic the replica via
/// `.expect` on the append path. Now it detaches the mirror with a
/// one-shot warning, latches the `durability_lost` gauge and keeps
/// committing — safety rests on the quorum, not this replica's disk.
#[test]
fn durable_write_failure_mid_consensus_detaches_but_keeps_committing() {
    let tmp = TempDir::new("durable-fault").expect("tempdir");
    let spec = ClusterSpec::new(4, 2, durable_params(1));
    let mut cluster = durable_cluster(&spec, &tmp);
    for i in 0..2 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, format!("k{i}").into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(2, 400));

    // Arm a one-shot write failure on replica 2's next durable append.
    {
        let r2 = &mut cluster.replicas.get_mut(&ReplicaId(2)).expect("replica 2").inner;
        assert!(!r2.ledger().durability_lost());
        r2.ledger_harness_mut().durable_mut().expect("attached").inject_write_error();
    }

    // Consensus continues across the failure — including replica 2.
    for i in 0..4 {
        let client = spec.clients[i % 2].0;
        cluster.submit(client, CounterApp::INCR, format!("m{i}").into_bytes());
        cluster.round();
    }
    assert!(cluster.run_until_finished(6, 1_000), "consensus must survive the disk failure");
    let r2 = cluster.replica(ReplicaId(2));
    assert!(r2.ledger().durability_lost(), "the gauge must latch");
    assert!(r2.ledger().durable().is_none(), "the mirror must detach");
    assert_ledgers_byte_identical(&cluster, ReplicaId(2), ReplicaId(1));
    cluster.assert_ledgers_consistent();
}
