//! The threaded real-time cluster.
//!
//! Used by the benchmark binaries (Fig. 4–7, Tab. 2–3): replicas run on
//! their own threads over the `ia-ccf-net` bus (with a latency model),
//! closed-loop client threads drive load, and the harness measures
//! throughput at the primary (as the paper does, §6) and end-to-end
//! request→receipt latency at the clients.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ia_ccf_client::{Client, ClientSend};
use ia_ccf_core::app::App;
use ia_ccf_core::{Input, NodeId, Output};
use ia_ccf_net::{Bus, LatencyModel};
use ia_ccf_types::{ClientId, ProtocolMsg, ReplicaId};
use parking_lot::Mutex;

use crate::metrics::{Histogram, Throughput};
use crate::scenario::ClusterSpec;

/// Knobs for a real-time run.
pub struct RtConfig {
    /// Injected one-way network latency.
    pub latency: LatencyModel,
    /// Measurement duration.
    pub duration: Duration,
    /// Closed-loop window per client (outstanding requests).
    pub outstanding_per_client: usize,
    /// Tick cadence for replicas and clients.
    pub tick_every: Duration,
    /// Whether clients require receipts (off for the NoReceipt baseline).
    pub clients_require_receipts: bool,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            latency: LatencyModel::Zero,
            duration: Duration::from_secs(3),
            outstanding_per_client: 64,
            tick_every: Duration::from_millis(1),
            clients_require_receipts: true,
        }
    }
}

/// Results of a run.
#[derive(Debug)]
pub struct RtReport {
    /// Transactions committed at the primary over the run.
    pub committed_tx: u64,
    /// Wall-clock the run took.
    pub elapsed: Duration,
    /// Client-observed request→completion latencies.
    pub latency: Histogram,
    /// Client-side completions.
    pub finished_ops: u64,
}

impl RtReport {
    /// Primary-side throughput.
    pub fn throughput(&self) -> Throughput {
        Throughput { ops: self.committed_tx, elapsed: self.elapsed }
    }
}

type WireMsg = (NodeId, ProtocolMsg);

/// Run a cluster under closed-loop load.
///
/// `op_source` yields `(proc, args)` per request, keyed by client index.
/// Its very first operation is the run's **setup transaction**: client 0
/// submits it alone and drives it to completion before the clock starts
/// and the other clients begin. A service that needs initial state makes
/// it the bulk load (SmallBank's `LOAD_ACCOUNTS`), so that state is a
/// ledger fact — the ledger's first transaction — and not something
/// installed behind the ledger's back; for any other source it is one
/// warm-up request.
pub fn run_cluster(
    spec: &ClusterSpec,
    app: Arc<dyn App>,
    cfg: &RtConfig,
    op_source: Arc<dyn Fn(usize) -> (ia_ccf_types::ProcId, Vec<u8>) + Send + Sync>,
) -> RtReport {
    let bus: Bus<WireMsg> = Bus::new(cfg.latency);
    let stop = Arc::new(AtomicBool::new(false));
    let set_up = Arc::new(AtomicBool::new(false));
    let committed_at_primary = Arc::new(AtomicU64::new(0));
    let n = spec.genesis.n();

    let mut replica_handles = Vec::new();
    for rank in 0..n {
        let mut replica = spec.build_replica(rank, Arc::clone(&app));
        let endpoint = bus.register(rank as u64);
        let stop = Arc::clone(&stop);
        let committed = Arc::clone(&committed_at_primary);
        let replica_addrs: Vec<u64> = (0..n as u64).collect();
        let tick_every = cfg.tick_every;
        let is_rank0 = rank == 0;
        replica_handles.push(
            std::thread::Builder::new()
                .name(format!("replica-{rank}"))
                .spawn(move || {
                    let mut last_tick = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        let mut inputs: Vec<Input> = Vec::with_capacity(2);
                        match endpoint.recv_timeout(tick_every) {
                            Some(env) => {
                                let from = if env.from < 1000 {
                                    NodeId::Replica(ReplicaId(env.from as u32))
                                } else {
                                    NodeId::Client(ClientId(env.from))
                                };
                                let (claimed, msg) = env.msg;
                                // The bus stamps the sender; the claimed id
                                // must match (authenticated channels).
                                if claimed == from {
                                    inputs.push(Input::Message { from, msg });
                                }
                            }
                            None => inputs.push(Input::Tick),
                        }
                        if last_tick.elapsed() >= tick_every {
                            inputs.push(Input::Tick);
                            last_tick = Instant::now();
                        }
                        for input in inputs {
                            for out in replica.handle(input) {
                                match out {
                                    Output::SendReplica(to, msg) => endpoint
                                        .send(to.0 as u64, (NodeId::Replica(replica.id()), msg)),
                                    Output::BroadcastReplicas(msg) => endpoint.send_many(
                                        replica_addrs.iter().copied(),
                                        (NodeId::Replica(replica.id()), msg),
                                    ),
                                    Output::SendClient(to, msg) => endpoint
                                        .send(to.0, (NodeId::Replica(replica.id()), msg)),
                                    Output::Committed { tx_count, .. }
                                        if is_rank0 => {
                                            committed
                                                .fetch_add(tx_count as u64, Ordering::Relaxed);
                                        }
                                    _ => {}
                                }
                            }
                        }
                    }
                })
                .expect("spawn replica thread"),
        );
    }

    // Client threads (closed loop).
    let total_finished = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Mutex<Histogram>> = Arc::new(Mutex::new(Histogram::new()));
    let mut client_handles = Vec::new();
    for (ci, (client_id, keypair)) in spec.clients.iter().enumerate() {
        let endpoint = bus.register(client_id.0);
        let stop = Arc::clone(&stop);
        let set_up = Arc::clone(&set_up);
        let finished_ctr = Arc::clone(&total_finished);
        let latencies = Arc::clone(&latencies);
        let op_source = Arc::clone(&op_source);
        let genesis = spec.genesis.clone();
        let gt_hash = ia_ccf_ledger::Ledger::new(genesis.clone())
            .genesis_hash()
            .expect("genesis");
        let window = cfg.outstanding_per_client;
        let tick_every = cfg.tick_every;
        let require_receipt = cfg.clients_require_receipts;
        let client_id = *client_id;
        let keypair = keypair.clone();
        client_handles.push(
            std::thread::Builder::new()
                .name(format!("client-{ci}"))
                .spawn(move || {
                    let mut client = Client::new(client_id, keypair, gt_hash, genesis.clone());
                    client.require_receipt = require_receipt;
                    client.retry_ticks = 1000;
                    let replica_addrs: Vec<u64> = (0..genesis.n() as u64).collect();
                    let mut inflight: std::collections::HashMap<u64, Instant> =
                        std::collections::HashMap::new();
                    let mut local_hist = Histogram::new();
                    let mut last_tick = Instant::now();
                    while !stop.load(Ordering::Relaxed) {
                        // Until the setup transaction completes, client 0
                        // keeps exactly that one request outstanding.
                        let measuring = set_up.load(Ordering::Acquire);
                        let window = if measuring { window } else { usize::from(ci == 0) };
                        while inflight.len() < window {
                            let (proc, args) = op_source(ci);
                            let req_id = client.submit(proc, args);
                            inflight.insert(req_id, Instant::now());
                        }
                        for send in client.poll_send() {
                            match send {
                                ClientSend::To(r, msg) => endpoint
                                    .send(r.0 as u64, (NodeId::Client(client_id), msg)),
                                ClientSend::Broadcast(msg) => endpoint.send_many(
                                    replica_addrs.iter().copied(),
                                    (NodeId::Client(client_id), msg),
                                ),
                            }
                        }
                        if let Some(env) = endpoint.recv_timeout(tick_every) {
                            if env.from < 1000 {
                                let (_, msg) = env.msg;
                                client.on_message(ReplicaId(env.from as u32), msg);
                            }
                        }
                        if last_tick.elapsed() >= tick_every {
                            client.on_tick();
                            last_tick = Instant::now();
                        }
                        for tx in client.take_completed() {
                            let Some(t0) = inflight.remove(&tx.req_id) else { continue };
                            if measuring {
                                local_hist.record(t0.elapsed());
                                finished_ctr.fetch_add(1, Ordering::Relaxed);
                            } else {
                                set_up.store(true, Ordering::Release);
                            }
                        }
                    }
                    latencies.lock().merge(&local_hist);
                })
                .expect("spawn client thread"),
        );
    }

    while !set_up.load(Ordering::Acquire) {
        std::thread::sleep(cfg.tick_every);
    }
    let committed_before = committed_at_primary.load(Ordering::Relaxed);
    let t0 = Instant::now();
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    let elapsed = t0.elapsed();
    for h in client_handles {
        let _ = h.join();
    }
    for h in replica_handles {
        let _ = h.join();
    }

    RtReport {
        committed_tx: committed_at_primary.load(Ordering::Relaxed) - committed_before,
        elapsed,
        latency: Arc::try_unwrap(latencies)
            .map(|m| m.into_inner())
            .unwrap_or_else(|arc| arc.lock().clone()),
        finished_ops: total_finished.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_core::app::CounterApp;
    use ia_ccf_core::ProtocolParams;

    #[test]
    fn threaded_cluster_commits_under_load() {
        let spec = ClusterSpec::new(4, 2, ProtocolParams::default());
        let cfg = RtConfig {
            duration: Duration::from_millis(1500),
            outstanding_per_client: 16,
            ..RtConfig::default()
        };
        let report = run_cluster(
            &spec,
            Arc::new(CounterApp),
            &cfg,
            Arc::new(|_| (CounterApp::INCR, b"k".to_vec())),
        );
        assert!(report.committed_tx > 0, "no commits: {report:?}");
        assert!(report.finished_ops > 0, "no client completions: {report:?}");
        assert!(!report.latency.is_empty());
    }
}
