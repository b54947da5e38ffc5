//! Per-layer probes: each layer's public functions called standalone on
//! inputs captured from the workload that just ran — its signed requests,
//! its ledger entries, its frames, its receipts. Traced runs only; never
//! gated. Each probe repeats a fixed amount of work [`REPS`] times and
//! reports the median, in reference seconds like every other time here.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ia_ccf_audit::Auditor;
use ia_ccf_core::{Input, NodeId, Output};
use ia_ccf_crypto::{hash_bytes, verify_batch_indices, KeyPair, VerifyJob};
use ia_ccf_kv::ShardedKvStore;
use ia_ccf_ledger::{DurableLog, Ledger};
use ia_ccf_merkle::MerkleTree;
use ia_ccf_net::{frame, TcpNode};
use ia_ccf_pool::WorkerPool;
use ia_ccf_types::{
    ClientId, Digest, LedgerEntry, LedgerIdx, ProtocolMsg, ReplicaId, RequestAction, SeqNum,
    SignedRequest, Wire,
};

use crate::calib::Calibrator;
use crate::cluster::{Load, Spec, LOAD_ACCOUNTS};
use crate::driver::Net;
use crate::metrics::Values;
use crate::phases::{audit_once, audit_package, ledger_tx_count, stored_receipts};
use crate::phases::{RECOVERED, SURVIVOR};
use crate::stats;
use crate::sys::ScratchDir;
use crate::workload::{ACCOUNTS, INITIAL_BALANCE};

const REPS: usize = 3;

/// Where probes time themselves and leave their values.
struct Ctx<'a> {
    cal: &'a mut Calibrator,
    out: &'a mut Values,
}

impl Ctx<'_> {
    /// Reference seconds of one run of `f`: the median of [`REPS`] runs.
    fn time(&mut self, mut f: impl FnMut()) -> f64 {
        let runs: Vec<f64> = (0..REPS)
            .map(|_| self.cal.timed(|_| f()).1.work_s())
            .collect();
        stats::median(&runs)
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }
}

/// Run every probe. `net` is the cluster after the epilogues (replica 0
/// crashed, view 1); `load` holds every finished transaction.
pub fn run(
    spec: &Spec,
    net: &mut Net,
    load: &Load,
    scratch: &ScratchDir,
    cal: &mut Calibrator,
    out: &mut Values,
) -> Result<(), String> {
    let ctx = &mut Ctx { cal, out };
    let requests: Vec<SignedRequest> = load.finished[0]
        .iter()
        .rev()
        .take(300)
        .map(|tx| tx.request.clone())
        .collect();
    let entries: Vec<LedgerEntry> = net.replica(SURVIVOR).ledger().entries().to_vec();
    crypto(ctx, spec, &requests, &entries);
    merkle(ctx, &requests);
    kv(ctx, spec, &requests)?;
    ledger(ctx, spec, &entries, scratch)?;
    receipts(ctx, net, load)?;
    emission(ctx, net, load)?;
    audit(ctx, spec, net, load)?;
    net_frame(ctx, &requests)?;
    tcp(ctx, &requests)?;
    pool(ctx)
}

fn crypto(ctx: &mut Ctx, spec: &Spec, requests: &[SignedRequest], entries: &[LedgerEntry]) {
    let payloads: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| r.request.signing_payload())
        .collect();
    let n = payloads.len() as f64;
    let signer = KeyPair::from_label("probe-signer");
    let s = ctx.time(|| {
        for p in &payloads {
            std::hint::black_box(signer.sign(p));
        }
    });
    ctx.put("crypto.sign_us", s * 1e6 / n);

    let key = spec.client_public(0);
    let s = ctx.time(|| {
        for (p, r) in payloads.iter().zip(requests) {
            assert!(key.verify(p, &r.sig), "a captured signature verifies");
        }
    });
    ctx.put("crypto.verify_us", s * 1e6 / n);

    let jobs: Vec<VerifyJob> = payloads
        .iter()
        .zip(requests)
        .take(spec.workload.batch_max)
        .map(|(p, r)| VerifyJob {
            key,
            msg: p.clone(),
            sig: r.sig,
        })
        .collect();
    let s = ctx.time(|| assert!(verify_batch_indices(&jobs).is_empty(), "one batch verifies"));
    ctx.put(
        "crypto.verify_batch_us_per_sig",
        s * 1e6 / jobs.len() as f64,
    );

    let encoded: Vec<Vec<u8>> = entries.iter().take(20_000).map(Wire::to_bytes).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let s = ctx.time(|| {
        for e in &encoded {
            std::hint::black_box(hash_bytes(e));
        }
    });
    ctx.put("crypto.hash_mb_per_s", bytes as f64 / 1e6 / s);
}

fn merkle(ctx: &mut Ctx, requests: &[SignedRequest]) {
    let leaves: Vec<Digest> = requests.iter().map(SignedRequest::digest).collect();
    const ROUNDS: usize = 20;
    let s = ctx.time(|| {
        for _ in 0..ROUNDS {
            let mut tree = MerkleTree::new();
            tree.extend(leaves.iter().copied());
            std::hint::black_box(tree.root());
        }
    });
    ctx.put(
        "merkle.extend_ns_per_leaf",
        s * 1e9 / (ROUNDS * leaves.len()) as f64,
    );

    let tree = MerkleTree::from_leaves(leaves.iter().copied());
    const ROOTS: usize = 100_000;
    let s = ctx.time(|| {
        for _ in 0..ROOTS {
            std::hint::black_box(std::hint::black_box(&tree).root());
        }
    });
    ctx.put("merkle.root_ns", s * 1e9 / ROOTS as f64);

    let s = ctx.time(|| {
        for _ in 0..ROUNDS {
            let frozen = tree.freeze_paths();
            for i in 0..tree.len() {
                std::hint::black_box(frozen.path(i));
            }
        }
    });
    ctx.put(
        "merkle.frozen_path_ns",
        s * 1e9 / (ROUNDS as u64 * tree.len()) as f64,
    );
}

fn kv(ctx: &mut Ctx, spec: &Spec, requests: &[SignedRequest]) -> Result<(), String> {
    let mut store = ShardedKvStore::new(1);
    let exec = |store: &mut ShardedKvStore, proc, args: &[u8]| -> Result<(), String> {
        store.begin_tx().map_err(|e| e.to_string())?;
        match spec.app.execute(store, proc, args, ClientId(1000)) {
            Ok(_) => store.commit_tx().map(|_| ()).map_err(|e| e.to_string()),
            Err(_) => store.abort_tx().map_err(|e| e.to_string()),
        }
    };
    let load_args = [ACCOUNTS.to_le_bytes(), INITIAL_BALANCE.to_le_bytes()].concat();
    exec(&mut store, LOAD_ACCOUNTS, &load_args)?;
    let mut failed = None;
    let s = ctx.time(|| {
        for r in requests {
            if let RequestAction::App { proc, args } = &r.request.action {
                if let Err(e) = exec(&mut store, *proc, args) {
                    failed = Some(e);
                }
            }
        }
    });
    if let Some(e) = failed {
        return Err(format!("kv probe: {e}"));
    }
    ctx.put("kv.exec_us_per_tx", s * 1e6 / requests.len() as f64);
    let s = ctx.time(|| {
        std::hint::black_box(store.checkpoint());
    });
    ctx.put("kv.checkpoint_ms", s * 1e3);
    let s = ctx.time(|| {
        std::hint::black_box(store.digest());
    });
    ctx.put("kv.digest_ms", s * 1e3);
    Ok(())
}

/// The post-genesis entries cut into the chunks they were appended in:
/// an evidence pair, then a pre-prepare with its transactions.
fn append_chunks(entries: &[LedgerEntry]) -> Vec<Vec<LedgerEntry>> {
    let mut chunks: Vec<Vec<LedgerEntry>> = Vec::new();
    for e in entries.iter().skip(1).take(20_000) {
        let starts = matches!(e, LedgerEntry::Evidence { .. } | LedgerEntry::PrePrepare(_));
        if starts || chunks.is_empty() {
            chunks.push(Vec::new());
        }
        chunks.last_mut().expect("pushed").push(e.clone());
    }
    chunks
}

fn ledger(
    ctx: &mut Ctx,
    spec: &Spec,
    entries: &[LedgerEntry],
    scratch: &ScratchDir,
) -> Result<(), String> {
    let chunks = append_chunks(entries);
    let is_batch = |c: &&Vec<LedgerEntry>| matches!(c[0], LedgerEntry::PrePrepare(_));
    let batches = chunks.iter().filter(is_batch).count();
    let bytes: usize = chunks.iter().flatten().map(|e| e.encoded_len()).sum();
    let fill = |ledger: &mut Ledger| {
        for c in &chunks {
            ledger.append_batch(c.clone());
        }
    };

    let mut filled = Ledger::new(spec.genesis.clone());
    let s = ctx.time(|| {
        filled = Ledger::new(spec.genesis.clone());
        fill(&mut filled);
    });
    ctx.put("ledger.append_us_per_batch", s * 1e6 / batches as f64);
    ctx.put("ledger.append_mb_per_s", bytes as f64 / 1e6 / s);
    let s = ctx.time(|| {
        std::hint::black_box(filled.encode_range(LedgerIdx(1), LedgerIdx(filled.len())));
    });
    ctx.put("ledger.read_range_mb_per_s", bytes as f64 / 1e6 / s);

    // Durable: the same appends mirrored into segment files, the fsync
    // interval out of reach (write cost alone); then one forced fsync per
    // batch (median fsync time).
    let open = |name: String| -> Result<Ledger, String> {
        let dir = scratch.fresh_subdir(&name).map_err(|e| e.to_string())?;
        let (log, _) = DurableLog::open(&dir, u64::MAX).map_err(|e| e.to_string())?;
        let mut ledger = Ledger::new(spec.genesis.clone());
        ledger.attach_durable(log).map_err(|e| e.to_string())?;
        Ok(ledger)
    };
    let mut fresh = (0..REPS)
        .map(|rep| open(format!("probe-append{rep}")))
        .collect::<Result<Vec<Ledger>, String>>()?;
    let mut next = fresh.iter_mut();
    let s = ctx.time(|| fill(next.next().expect("one ledger per repetition")));
    if fresh.iter().any(Ledger::durability_lost) {
        return Err("durable append probe lost durability".into());
    }
    ctx.put("ledger.durable_append_mb_per_s", bytes as f64 / 1e6 / s);

    let mut ledger = open("probe-fsync".into())?;
    let (fsync_ms, timed) = ctx.cal.timed(|_| -> Result<Vec<f64>, String> {
        let mut fsync_ms = Vec::new();
        for c in chunks.iter().filter(is_batch).take(40) {
            ledger.append_batch(c.clone());
            let log = ledger.durable_mut().ok_or("fsync probe lost its log")?;
            let t0 = Instant::now();
            log.fsync_tail().map_err(|e| format!("fsync: {e}"))?;
            fsync_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        Ok(fsync_ms)
    });
    ctx.put(
        "ledger.fsync_ms_p50",
        stats::median(&fsync_ms?) * timed.speed(),
    );
    Ok(())
}

fn receipts(ctx: &mut Ctx, net: &Net, load: &Load) -> Result<(), String> {
    let config = net.replica(SURVIVOR).active_config().clone();
    let sample: Vec<_> = load.finished[0]
        .iter()
        .rev()
        .take(100)
        .filter_map(|tx| tx.receipt.as_ref())
        .collect();
    let mut bad = false;
    let s = ctx.time(|| {
        for r in &sample {
            bad |= r.verify(&config).is_err();
        }
    });
    if bad {
        return Err("receipt probe: a receipt failed to verify".into());
    }
    ctx.put("types.receipt.verify_us", s * 1e6 / sample.len() as f64);
    let bytes: usize = sample.iter().map(|r| r.encoded_len()).sum();
    ctx.put("types.receipt.bytes", bytes as f64 / sample.len() as f64);
    Ok(())
}

fn emission(ctx: &mut Ctx, net: &mut Net, load: &Load) -> Result<(), String> {
    // Receipt re-fetch: the newest 16 transactions are within every
    // replica's retention window even at one transaction per batch.
    let newest = load.finished[0].last().ok_or("no finished transaction")?;
    let client = newest.request.request.client;
    let hashes: Vec<Digest> = load.finished[0]
        .iter()
        .rev()
        .take(16)
        .map(|tx| tx.request.digest())
        .collect();
    const LOOKUPS: usize = 2_000;
    let before = net.replica(SURVIVOR).receipt_cache_stats();
    let mut served = 0usize;
    let s = ctx.time(|| {
        for i in 0..LOOKUPS {
            let outs = net.replica_mut(SURVIVOR).handle(Input::Message {
                from: NodeId::Client(client),
                msg: ProtocolMsg::FetchReceipt {
                    tx_hash: hashes[i % hashes.len()],
                },
            });
            served += usize::from(!outs.is_empty());
        }
    });
    if served != LOOKUPS * REPS {
        return Err(format!(
            "re-fetch probe: {served}/{} lookups served",
            LOOKUPS * REPS
        ));
    }
    let after = net.replica(SURVIVOR).receipt_cache_stats();
    ctx.put("core.emission.refetch_us", s * 1e6 / LOOKUPS as f64);
    ctx.put(
        "core.emission.locator_hits",
        (after.locator_hits - before.locator_hits) as f64,
    );
    ctx.put(
        "core.emission.locator_misses",
        (after.locator_misses - before.locator_misses) as f64,
    );

    // Page serving: the whole ledger in 1 MiB pages, as a recovering
    // replica would ask for it.
    let mut bytes = 0u64;
    let mut stuck = false;
    let s = ctx.time(|| {
        bytes = 0;
        let mut from_seq = SeqNum(1);
        loop {
            let outs = net.replica_mut(SURVIVOR).handle(Input::Message {
                from: NodeId::Replica(ReplicaId(RECOVERED as u32)),
                msg: ProtocolMsg::FetchLedgerPage {
                    from_seq,
                    max_bytes: 1 << 20,
                },
            });
            let page = outs.into_iter().find_map(|o| match o {
                Output::SendReplica(
                    _,
                    ProtocolMsg::FetchLedgerPageResponse {
                        entries,
                        next_seq,
                        done,
                    },
                ) => Some((entries, next_seq, done)),
                _ => None,
            });
            let Some((entries, next_seq, done)) = page else {
                stuck = true;
                break;
            };
            bytes += entries.iter().map(|e| e.len() as u64).sum::<u64>();
            if done || next_seq <= from_seq {
                stuck |= !done;
                break;
            }
            from_seq = next_seq;
        }
    });
    if stuck {
        return Err("page-serving probe: the survivor stopped serving pages".into());
    }
    ctx.put("core.emission.serve_page_mb_per_s", bytes as f64 / 1e6 / s);
    Ok(())
}

/// One audit without receipts (package validation + replay) and one with
/// client 0's: the difference is what the receipts cost.
fn audit(ctx: &mut Ctx, spec: &Spec, net: &Net, load: &Load) -> Result<(), String> {
    let survivor = net.replica(SURVIVOR);
    let auditor = Auditor::new(spec.genesis.clone(), Arc::clone(&spec.app));
    let package = audit_package(survivor);
    let receipts = stored_receipts(&load.finished[0]);
    let (outcome, replay) = ctx.cal.timed(|_| audit_once(&auditor, &[], &package));
    outcome?;
    let (outcome, full) = ctx.cal.timed(|_| audit_once(&auditor, &receipts, &package));
    outcome?;
    ctx.put(
        "audit.replay_us_per_tx",
        replay.work_s() * 1e6 / ledger_tx_count(survivor) as f64,
    );
    ctx.put(
        "audit.receipt_us_per_receipt",
        (full.work_s() - replay.work_s()).max(0.0) * 1e6 / receipts.len() as f64,
    );
    Ok(())
}

/// The captured requests as wire messages.
fn request_payloads(requests: &[SignedRequest]) -> Vec<Vec<u8>> {
    requests
        .iter()
        .map(|r| ProtocolMsg::Request(r.clone()).to_bytes())
        .collect()
}

fn net_frame(ctx: &mut Ctx, requests: &[SignedRequest]) -> Result<(), String> {
    let mut stream = Vec::new();
    for p in request_payloads(requests) {
        frame::encode(&p, &mut stream);
    }
    const ROUNDS: usize = 200;
    let mut frames = 0usize;
    let s = ctx.time(|| {
        frames = 0;
        for _ in 0..ROUNDS {
            let mut rest: &[u8] = &stream;
            while let Ok(Some((payload, tail))) = frame::split(std::hint::black_box(rest)) {
                std::hint::black_box(payload);
                rest = tail;
                frames += 1;
            }
        }
    });
    if frames != ROUNDS * requests.len() {
        return Err("frame probe: recorded frames did not split cleanly".into());
    }
    ctx.put("net.frame.split_ns", s * 1e9 / frames as f64);
    Ok(())
}

/// Two `TcpNode`s on loopback, the recorded request frames sent one way.
/// With the pool probe's worker, the only threads the harness ever
/// starts: each node's event loop, joined by `shutdown` before returning.
fn tcp(ctx: &mut Ctx, requests: &[SignedRequest]) -> Result<(), String> {
    let payloads = request_payloads(requests);
    let a = TcpNode::listen(1, "127.0.0.1:0").map_err(|e| format!("tcp probe: {e}"))?;
    let b = TcpNode::listen(2, "127.0.0.1:0").map_err(|e| format!("tcp probe: {e}"))?;
    const FRAMES: usize = 6_000;
    let result = (|| -> Result<f64, String> {
        a.connect(&b.local_addr())
            .map_err(|e| format!("tcp probe: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(5);
        while !a.connected_peers().contains(&2) || !b.connected_peers().contains(&1) {
            if Instant::now() > deadline {
                return Err("tcp probe: loopback mesh did not settle".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut lost = None;
        let s = ctx.time(|| {
            let (mut sent, mut received) = (0usize, 0usize);
            while received < FRAMES {
                // Keep the pipe full without overrunning the bounded
                // inbound queue; drain what has arrived.
                while sent < FRAMES && sent - received < 2_000 {
                    if !a.send(2, &payloads[sent % payloads.len()]) {
                        break;
                    }
                    sent += 1;
                }
                if b.inbound.recv_timeout(Duration::from_secs(5)).is_err() {
                    lost = Some(received);
                    return;
                }
                received += 1;
            }
        });
        match lost {
            Some(received) => Err(format!("tcp probe: {received}/{FRAMES} frames arrived")),
            None => Ok(s),
        }
    })();
    a.shutdown();
    b.shutdown();
    if a.live_transport_threads() + b.live_transport_threads() != 0 {
        return Err("tcp probe: a transport thread outlived shutdown".into());
    }
    ctx.put("net.tcp.frames_per_s", FRAMES as f64 / result?);
    Ok(())
}

fn pool(ctx: &mut Ctx) -> Result<(), String> {
    let pool = WorkerPool::new(1);
    let gauge = pool.thread_gauge();
    const TASKS: usize = 2_000;
    let s = ctx.time(|| {
        for i in 0..TASKS {
            std::hint::black_box(pool.submit(move || i).join());
        }
    });
    ctx.put("pool.submit_join_us", s * 1e6 / TASKS as f64);
    drop(pool);
    if gauge.load(std::sync::atomic::Ordering::SeqCst) != 0 {
        return Err("pool probe: a worker outlived its pool".into());
    }
    Ok(())
}
