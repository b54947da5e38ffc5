//! The phases of a run, in order: set-up → commit (sliced) → recover →
//! failover → audit, and the correctness gate over what they leave.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ia_ccf_audit::{AuditOutcome, Auditor, LedgerPackage, StoredReceipt};
use ia_ccf_client::FinishedTx;
use ia_ccf_core::{Replica, SyncReport};
use ia_ccf_crypto::Hasher;
use ia_ccf_governance::chain::GovernanceChain;
use ia_ccf_types::{Configuration, Digest, LedgerEntry, LedgerIdx, ReplicaId, SeqNum};

use crate::calib::{Calibrator, Timed};
use crate::cluster::{build, Built, Load, Spec};
use crate::driver::{Counters, Net};
use crate::stats;
use crate::sys::{self, ScratchDir};
use crate::trace::Name;
use crate::workload::{AUDIT_REPS, BUILDS, RECOVER_REPS, SLICES};

/// Rank crashed and recovered by the recover epilogue.
pub const RECOVERED: usize = 3;
/// Rank crashed by the failover epilogue (the view-0 primary).
pub const PRIMARY: usize = 0;
/// A backup no phase crashes: page server, audit source, reference ledger.
pub const SURVIVOR: usize = crate::driver::OBSERVER;

// ----------------------------------------------------------------------
// Set-up
// ----------------------------------------------------------------------

pub struct Setup {
    /// Each of the [`BUILDS`] sequential builds.
    pub builds: Vec<Timed>,
    /// Seconds of construction alone, per build.
    pub construct_s: Vec<f64>,
}

/// [`BUILDS`] sequential fresh builds; the last one is kept.
pub fn setup(
    spec: &Spec,
    scratch: &ScratchDir,
    cal: &mut Calibrator,
) -> Result<(Built, Setup), String> {
    let mut builds = Vec::with_capacity(BUILDS);
    let mut construct_s = Vec::with_capacity(BUILDS);
    let mut kept = None;
    for _ in 0..BUILDS {
        drop(kept.take()); // the previous build releases its data dirs first
        let (built, timed) = cal.timed(|cal| build(spec, scratch, cal));
        let built = built?;
        builds.push(timed);
        construct_s.push(built.construct_s);
        kept = Some(built);
    }
    Ok((
        kept.expect("BUILDS >= 1"),
        Setup {
            builds,
            construct_s,
        },
    ))
}

// ----------------------------------------------------------------------
// Commit phase
// ----------------------------------------------------------------------

/// One commit-phase slice (equal transaction counts).
#[derive(Clone, Debug)]
pub struct Slice {
    pub tx: usize,
    pub timed: Timed,
    /// Median `submit` → receipt latency of the receipts in this slice.
    pub p50_ns: u64,
    pub traced: bool,
}

pub struct Commit {
    pub slices: Vec<Slice>,
    pub whole: Timed,
    pub measured_tx: usize,
    /// Driver counts over the phase.
    pub counts: Counters,
    /// Encoded bytes replica 0's ledger grew by.
    pub ledger_bytes: u64,
    /// Every latency of the phase, ascending.
    pub latencies_ns: Vec<u64>,
}

/// Drive `slice_tx × SLICES` transactions to receipts in a closed loop,
/// reading the clocks at every slice boundary. With `trace`, every other
/// slice records spans (the untraced ones in between give the overhead).
pub fn commit(
    spec: &Spec,
    built: &mut Built,
    cal: &mut Calibrator,
    slice_tx: usize,
    trace: bool,
) -> Result<Commit, String> {
    let Built { net, load, .. } = built;
    let measured_tx = slice_tx * SLICES;
    let counts_before = net.counters.clone();
    let ledger_len_before = net.replica(PRIMARY).ledger().len();

    let mut slices: Vec<Slice> = Vec::with_capacity(SLICES);
    let mut all: Vec<u64> = Vec::with_capacity(measured_tx);
    let mut in_slice: Vec<u64> = Vec::with_capacity(slice_tx);

    let trace_slice = |k: usize| trace && k.is_multiple_of(2) && k < SLICES;
    net.tracer.enabled = trace_slice(0);
    let mut slice_span = net.tracer.open(Name::DriverSlice, 0, 0);
    let phase_start = cal.mark();
    let mut slice_start = phase_start;

    let outstanding = spec.workload.outstanding_per_client();
    load.run(
        net,
        cal,
        measured_tx,
        outstanding,
        |net, cal, completed, latency_ns| {
            in_slice.push(latency_ns);
            if completed % slice_tx != 0 {
                return;
            }
            net.tracer.close(slice_span);
            let timed = cal.since(slice_start);
            in_slice.sort_unstable();
            let k = slices.len();
            slices.push(Slice {
                tx: slice_tx,
                timed,
                p50_ns: stats::quantile_sorted(&in_slice, 0.5),
                traced: trace_slice(k),
            });
            all.append(&mut in_slice);
            net.tracer.enabled = trace_slice(k + 1);
            slice_span = net.tracer.open(Name::DriverSlice, 0, 0);
            slice_start = cal.mark();
        },
    )?;
    net.tracer.enabled = false;
    let whole = cal.since(phase_start);

    all.sort_unstable();
    let primary = net.replica(PRIMARY).ledger();
    Ok(Commit {
        slices,
        whole,
        measured_tx,
        counts: net.counters.since(&counts_before),
        ledger_bytes: primary
            .encoded_range_len(LedgerIdx(ledger_len_before), LedgerIdx(primary.len())),
        latencies_ns: all,
    })
}

// ----------------------------------------------------------------------
// Recover epilogue
// ----------------------------------------------------------------------

pub struct Recover {
    /// Each repetition (restart + sync).
    pub reps: Vec<Timed>,
    /// Seconds of the restart alone (construction / local replay).
    pub restart_s: Vec<f64>,
    /// Committed transactions the recovered replica holds.
    pub recovered_tx: u64,
    /// Sync counters of the kept repetition.
    pub report: SyncReport,
    /// Pool gauges of every instance the phase created.
    pub pool_gauges: Vec<Arc<AtomicUsize>>,
}

/// Transactions in a replica's ledger.
pub fn ledger_tx_count(replica: &Replica) -> u64 {
    replica
        .ledger()
        .entries()
        .iter()
        .filter(|e| matches!(e, LedgerEntry::Tx(_)))
        .count() as u64
}

/// Crash replica [`RECOVERED`] and bring it back [`RECOVER_REPS`] times
/// from identical copies of the crashed state; the last instance stays.
///
/// Durable workload: the crash discards everything its log wrote after
/// the last fsync (the tail file is cut to `synced_len`), and it comes
/// back through `Replica::restart_from_dir` + paged sync of what it
/// lacks. In-memory workloads: nothing survives; a fresh instance comes
/// back through `begin_ledger_sync` and replays the whole ledger.
pub fn recover(
    spec: &Spec,
    net: &mut Net,
    scratch: &ScratchDir,
    cal: &mut Calibrator,
) -> Result<Recover, String> {
    let dead = net.crash(RECOVERED);
    let mut copies: Vec<PathBuf> = Vec::new();
    if spec.workload.durable {
        let log = dead
            .ledger()
            .durable()
            .ok_or("durable workload without a durable log")?;
        let (synced, completed, tail) =
            (log.synced_len(), log.completed_len(), log.tail_file_path());
        let dir = tail
            .parent()
            .ok_or("tail file without a directory")?
            .to_path_buf();
        drop(dead);
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&tail)
            .map_err(|e| format!("open tail: {e}"))?;
        file.set_len(synced - completed)
            .map_err(|e| format!("cut tail: {e}"))?;
        drop(file);
        for rep in 0..RECOVER_REPS {
            let copy = scratch
                .fresh_subdir(&format!("r{RECOVERED}-crash{rep}"))
                .map_err(|e| format!("crash copy: {e}"))?;
            sys::copy_dir(&dir, &copy).map_err(|e| format!("crash copy: {e}"))?;
            copies.push(copy);
        }
    } else {
        drop(dead);
    }

    let mut out = Recover {
        reps: Vec::new(),
        restart_s: Vec::new(),
        recovered_tx: 0,
        report: SyncReport::default(),
        pool_gauges: Vec::new(),
    };
    for rep in 0..RECOVER_REPS {
        let copy = copies.get(rep).cloned();
        let (result, timed) = cal.timed(|cal| -> Result<f64, String> {
            let t0 = std::time::Instant::now();
            let replica = match copy {
                Some(dir) => spec.restart_replica(RECOVERED, dir)?,
                None => spec.new_replica(RECOVERED, None)?,
            };
            let restart_s = t0.elapsed().as_secs_f64();
            out.pool_gauges.push(replica.pool().thread_gauge());
            net.revive(RECOVERED, replica);
            let outputs = net
                .replica_mut(RECOVERED)
                .begin_ledger_sync(ReplicaId(SURVIVOR as u32));
            net.route(RECOVERED, outputs, 0);
            let mut done = Vec::new();
            let stall_limit = net.counters.tick_rounds + 2_000;
            while !net.replica(RECOVERED).sync_report().complete {
                if net.counters.tick_rounds >= stall_limit {
                    return Err(format!(
                        "recovery {rep} did not complete: {:?}",
                        net.replica(RECOVERED).sync_report()
                    ));
                }
                net.step(&mut done);
                cal.poll();
            }
            if !done.is_empty() {
                return Err("a client completed a transaction during recovery".into());
            }
            Ok(restart_s)
        });
        out.restart_s.push(result?);
        out.reps.push(timed);
        if rep + 1 < RECOVER_REPS {
            drop(net.crash(RECOVERED));
        }
    }
    let recovered = net.replica(RECOVERED);
    out.report = recovered.sync_report();
    out.recovered_tx = ledger_tx_count(recovered);
    if ledger_digest(recovered) != ledger_digest(net.replica(SURVIVOR)) {
        return Err("recovered ledger differs from the survivor's".into());
    }
    Ok(out)
}

/// SHA-256 over a replica's whole encoded ledger, entry by entry.
pub fn ledger_digest(replica: &Replica) -> Digest {
    let ledger = replica.ledger();
    let mut h = Hasher::new();
    h.update(ledger.len().to_le_bytes());
    for entry in ledger.encode_range(LedgerIdx(0), LedgerIdx(ledger.len())) {
        h.update((entry.len() as u64).to_le_bytes());
        h.update(&entry);
    }
    h.finalize()
}

// ----------------------------------------------------------------------
// Failover epilogue
// ----------------------------------------------------------------------

pub struct Failover {
    pub seconds: f64,
    /// Tick rounds the view change and the window took.
    pub ticks: u64,
    pub tx: usize,
}

/// Crash the primary and drive one more window to receipts in the next
/// view (the recovered replica is part of the quorum that forms it).
pub fn failover(
    spec: &Spec,
    net: &mut Net,
    load: &mut Load,
    cal: &mut Calibrator,
) -> Result<Failover, String> {
    drop(net.crash(PRIMARY));
    let ticks_before = net.counters.tick_rounds;
    let w = spec.workload;
    let t0 = std::time::Instant::now();
    load.run(
        net,
        cal,
        w.outstanding,
        w.outstanding_per_client(),
        |_, _, _, _| {},
    )
    .map_err(|e| format!("failover {e}"))?;
    let seconds = t0.elapsed().as_secs_f64();
    if net.live().any(|r| r.view().0 == 0) {
        return Err("failover window completed without a view change".into());
    }
    Ok(Failover {
        seconds,
        ticks: net.counters.tick_rounds - ticks_before,
        tx: w.outstanding,
    })
}

// ----------------------------------------------------------------------
// Audit epilogue
// ----------------------------------------------------------------------

pub struct Audit {
    /// The one audit of the whole ledger (the gate's; view change included).
    pub whole: Timed,
    /// Each audit of the ledger's opening stretch.
    pub reps: Vec<Timed>,
    /// Transactions in the whole ledger / in the opening stretch.
    pub ledger_tx: u64,
    pub prefix_tx: u64,
    /// Client 0's receipts: all of them / those within the stretch.
    pub receipts: usize,
    pub prefix_receipts: usize,
}

/// The stored receipts of one client's finished transactions.
pub fn stored_receipts(finished: &[FinishedTx]) -> Vec<StoredReceipt> {
    finished
        .iter()
        .filter_map(|tx| {
            Some(StoredReceipt {
                request: tx.request.clone(),
                receipt: tx.receipt.clone()?,
            })
        })
        .collect()
}

/// The audit package of a survivor: its whole ledger and the checkpoint
/// at sequence number 0, the empty store every replica starts from. A
/// replica retains only its newest checkpoints, so where checkpoints are
/// live the genesis one is supplied here.
pub fn audit_package(replica: &Replica) -> LedgerPackage {
    let mut package = LedgerPackage::from_replica(replica, SeqNum(0));
    if package.checkpoint.is_none() {
        package.checkpoint = Some((SeqNum(0), ia_ccf_kv::KvStore::new().checkpoint()));
    }
    package
}

/// The package of the ledger as it stood at its first `len` entries.
fn stretch_package(replica: &Replica, len: usize) -> LedgerPackage {
    LedgerPackage {
        entries: replica.ledger().entries()[..len].to_vec(),
        checkpoint: Some((SeqNum(0), ia_ccf_kv::KvStore::new().checkpoint())),
    }
}

/// One full audit; `Err` describes a violation.
pub fn audit_once(
    auditor: &Auditor,
    receipts: &[StoredReceipt],
    package: &LedgerPackage,
) -> Result<(), String> {
    match auditor.audit(receipts, &GovernanceChain::new(), package) {
        AuditOutcome::Clean => Ok(()),
        AuditOutcome::Violation(upom) => Err(format!(
            "audit found a violation: {:?} — {}",
            upom.kind, upom.details
        )),
    }
}

/// Where the ledger's opening stretch ends: the first batch boundary with
/// at least `min_tx` transactions before it, as `(entries, transactions,
/// first sequence number beyond)`. The ledger as it stood at that moment.
fn opening_stretch(replica: &Replica, min_tx: u64) -> (usize, u64, SeqNum) {
    let ledger = replica.ledger();
    let mut tx = 0u64;
    for entry in ledger.entries() {
        match entry {
            LedgerEntry::Tx(_) => tx += 1,
            LedgerEntry::PrePrepare(pp) if tx >= min_tx => {
                return (ledger.fetch_start_pos(pp.seq()) as usize, tx, pp.seq());
            }
            _ => {}
        }
    }
    (ledger.len() as usize, tx, SeqNum(u64::MAX))
}

/// The audit epilogue. Once: `LedgerPackage::from_replica` (a survivor) +
/// `Auditor::audit` over the **whole** ledger, view change included, with
/// client 0's receipts — the outcome the gate needs. Then [`AUDIT_REPS`]
/// times package + audit of the ledger's opening stretch (the ledger as
/// it stood after `audit_prefix_tx` transactions, with the receipts
/// client 0 held then): an audit is one long call with no step to sample
/// the host's speed in, so the timed unit is kept short and repeated.
/// Every outcome must be `Clean`.
pub fn audit(spec: &Spec, net: &Net, load: &Load, cal: &mut Calibrator) -> Result<Audit, String> {
    let survivor = net.replica(SURVIVOR);
    let receipts = stored_receipts(&load.finished[0]);
    let auditor = Auditor::new(spec.genesis.clone(), Arc::clone(&spec.app));
    let (outcome, whole) = cal.timed(|_| audit_once(&auditor, &receipts, &audit_package(survivor)));
    outcome?;

    let (len, prefix_tx, beyond) = opening_stretch(survivor, spec.workload.audit_prefix_tx);
    let held = receipts.partition_point(|r| r.receipt.seq() < beyond);
    let mut reps = Vec::with_capacity(AUDIT_REPS);
    for _ in 0..AUDIT_REPS {
        let (outcome, timed) =
            cal.timed(|_| audit_once(&auditor, &receipts[..held], &stretch_package(survivor, len)));
        outcome?;
        reps.push(timed);
    }
    Ok(Audit {
        whole,
        reps,
        ledger_tx: ledger_tx_count(survivor),
        prefix_tx,
        receipts: receipts.len(),
        prefix_receipts: held,
    })
}

// ----------------------------------------------------------------------
// Correctness gate
// ----------------------------------------------------------------------

/// Deliver whatever is still in flight (no ticks).
pub fn quiesce(net: &mut Net) -> Result<(), String> {
    let mut done = Vec::new();
    while net.in_flight() > 0 {
        net.step(&mut done);
    }
    if done.is_empty() {
        Ok(())
    } else {
        Err("a transaction completed after its phase ended".into())
    }
}

/// Every receipt of `finished` verifies under `config`. Receipts of one
/// batch share their certificate, and `Receipt::verify` is a function of
/// the certificate and the root the witness implies: a receipt whose
/// certificate and implied root equal those of the previous (fully
/// verified) receipt needs no second signature check.
pub fn verify_receipts(finished: &[FinishedTx], config: &Configuration) -> Result<u64, String> {
    let mut verified = 0u64;
    let mut last = None;
    for tx in finished {
        let receipt = tx
            .receipt
            .as_ref()
            .ok_or("finished transaction without a receipt")?;
        let root = receipt
            .implied_root_g()
            .map_err(|e| format!("req {}: {e}", tx.req_id))?;
        if last != Some((&receipt.cert, root)) {
            receipt
                .verify(config)
                .map_err(|e| format!("req {}: {e}", tx.req_id))?;
            last = Some((&receipt.cert, root));
        }
        verified += 1;
    }
    Ok(verified)
}

/// The gate over the final state: live ledgers byte-identical, KV digests
/// equal, durability intact, no frame failed to decode, every receipt
/// re-verifies — client 0's `audited` receipts were verified one by one
/// by the whole-ledger audit, the other clients' are verified here.
/// Returns the common ledger digest.
pub fn gate(net: &mut Net, load: &Load, audited: usize) -> Result<Digest, String> {
    quiesce(net)?;
    if net.decode_errors > 0 {
        return Err(format!("{} frames failed to decode", net.decode_errors));
    }
    let reference = net.replica(SURVIVOR);
    let digest = ledger_digest(reference);
    let kv = reference.kv().digest();
    for replica in net.live() {
        if ledger_digest(replica) != digest {
            return Err(format!(
                "ledger of {:?} differs from the survivor's",
                replica.id()
            ));
        }
        if replica.kv().digest() != kv {
            return Err(format!(
                "KV digest of {:?} differs from the survivor's",
                replica.id()
            ));
        }
        if replica.ledger().durability_lost() {
            return Err(format!("{:?} lost durability", replica.id()));
        }
    }
    let config = reference.active_config().clone();
    let mut verified = audited as u64;
    for finished in &load.finished[1..] {
        verified += verify_receipts(finished, &config)?;
    }
    if verified != load.submitted {
        return Err(format!(
            "{verified} verified receipts for {} requests",
            load.submitted
        ));
    }
    Ok(digest)
}

/// After the replicas are dropped no pool worker may be left alive.
pub fn pool_threads_left(gauges: &[Arc<AtomicUsize>]) -> usize {
    gauges.iter().map(|g| g.load(Ordering::SeqCst)).sum()
}
