//! A Hyperledger-Fabric-style execute-order-validate pipeline (§6.1).
//!
//! The paper's analysis of Fabric's throughput names two causes: "Fabric's
//! execute-order-validate model requires that replicas issue a signature
//! for each executed transaction, while IA-CCF replicas only require one
//! signature per batch; and Fabric suffers from documented inefficiencies
//! related to its key-value store." This baseline reproduces the first
//! cause faithfully (per-transaction endorsement signatures, per-
//! transaction validation verifies) over a crash-fault-tolerant single
//! orderer (Fabric v2.2's Raft tolerates crashes only; we model the
//! ordering service as a sequencer, which is its steady-state behaviour).
//!
//! Pipeline: client → 2 endorsers (execute + sign) → client assembles the
//! endorsed envelope → orderer batches envelopes into blocks → peers
//! validate every endorsement signature and apply → reply to client.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ia_ccf_core::app::App;
use ia_ccf_crypto::{hash_bytes, Digest, KeyPair, PublicKey, Signature};
use ia_ccf_kv::KvStore;
use ia_ccf_net::{Bus, LatencyModel};
use ia_ccf_sim::Histogram;
use ia_ccf_types::{ClientId, ProcId};
use parking_lot::Mutex;

use crate::BaselineReport;

/// A transaction proposal.
#[derive(Debug, Clone)]
pub struct Proposal {
    /// Submitting client address.
    pub client: u64,
    /// Client-local request id.
    pub req_id: u64,
    /// Stored procedure.
    pub proc: ProcId,
    /// Arguments.
    pub args: Vec<u8>,
}

impl Proposal {
    fn digest(&self) -> Digest {
        let mut h = ia_ccf_crypto::Hasher::new();
        h.update(self.client.to_le_bytes());
        h.update(self.req_id.to_le_bytes());
        h.update(self.proc.0.to_le_bytes());
        h.update(hash_bytes(&self.args));
        h.finalize()
    }
}

/// Messages in the pipeline.
#[derive(Debug, Clone)]
pub enum FabricMsg {
    /// Client → endorser.
    Endorse(Proposal),
    /// Endorser → client: signature over the proposal digest.
    Endorsement {
        /// The endorsed proposal digest.
        digest: Digest,
        /// Endorser index.
        endorser: usize,
        /// Per-transaction signature (the cost driver).
        sig: Signature,
    },
    /// Client → orderer: proposal plus the endorsement policy's signatures.
    Submit(Proposal, Vec<(usize, Signature)>),
    /// Orderer → peers: an ordered block of endorsed transactions.
    Block(Vec<(Proposal, Vec<(usize, Signature)>)>),
    /// Peer → client.
    Reply {
        /// Request id.
        req_id: u64,
    },
}

/// Run the pipeline with `n` peers (peer 0 doubles as the orderer). Peers
/// start from the empty store; initial state, if the service needs any,
/// is `op_source`'s first operation.
#[allow(clippy::too_many_arguments)]
pub fn run_fabric(
    n: usize,
    clients: usize,
    outstanding: usize,
    block_max: usize,
    latency: LatencyModel,
    duration: Duration,
    app: Arc<dyn App>,
    op_source: Arc<dyn Fn(usize) -> (ProcId, Vec<u8>) + Send + Sync>,
) -> BaselineReport {
    let bus: Bus<FabricMsg> = Bus::new(latency);
    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicU64::new(0));
    let keypairs: Vec<KeyPair> =
        (0..n).map(|i| KeyPair::from_label(&format!("fabric-{i}"))).collect();
    let keys: Vec<PublicKey> = keypairs.iter().map(|k| k.public()).collect();

    let mut handles = Vec::new();
    for (index, keypair) in keypairs.iter().enumerate() {
        let endpoint = bus.register(index as u64);
        let stop = Arc::clone(&stop);
        let committed = Arc::clone(&committed);
        let keypair = keypair.clone();
        let keys = keys.clone();
        let app = Arc::clone(&app);
        let mut kv = KvStore::new();
        let peer_addrs: Vec<u64> = (0..n as u64).collect();
        handles.push(std::thread::spawn(move || {
            let is_orderer = index == 0;
            let mut mempool: Vec<(Proposal, Vec<(usize, Signature)>)> = Vec::new();
            let mut applied: u64 = 0;
            while !stop.load(Ordering::Relaxed) {
                let env = endpoint.recv_timeout(Duration::from_millis(1));
                match env.map(|e| e.msg) {
                    Some(FabricMsg::Endorse(p)) => {
                        // Execute speculatively and sign per transaction —
                        // Fabric's signature-per-tx cost.
                        kv.begin_tx().ok();
                        let _ = app.execute(&mut kv, p.proc, &p.args, ClientId(p.client));
                        let _ = kv.abort_tx(); // endorsement doesn't commit
                        let sig = keypair.sign(p.digest().as_ref());
                        endpoint.send(
                            p.client,
                            FabricMsg::Endorsement { digest: p.digest(), endorser: index, sig },
                        );
                    }
                    Some(FabricMsg::Submit(p, endorsements)) if is_orderer => {
                        mempool.push((p, endorsements));
                        if mempool.len() >= block_max {
                            let block: Vec<_> = std::mem::take(&mut mempool);
                            endpoint
                                .send_many(peer_addrs.iter().copied(), FabricMsg::Block(block.clone()));
                            // The orderer is also a peer: process locally.
                            applied += apply_block(&mut kv, &app, &keys, &endpoint, &block);
                        }
                    }
                    Some(FabricMsg::Block(block)) => {
                        applied += apply_block(&mut kv, &app, &keys, &endpoint, &block);
                    }
                    Some(_) => {}
                    None => {
                        // Flush partial blocks on idle.
                        if is_orderer && !mempool.is_empty() {
                            let block: Vec<_> = std::mem::take(&mut mempool);
                            endpoint
                                .send_many(peer_addrs.iter().copied(), FabricMsg::Block(block.clone()));
                            applied += apply_block(&mut kv, &app, &keys, &endpoint, &block);
                        }
                    }
                }
                if index == 0 {
                    committed.store(applied, Ordering::Relaxed);
                }
            }
        }));
    }

    // Clients.
    let finished = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Mutex<Histogram>> = Arc::new(Mutex::new(Histogram::new()));
    let mut client_handles = Vec::new();
    for ci in 0..clients {
        let addr = 10_000 + ci as u64;
        let endpoint = bus.register(addr);
        let stop = Arc::clone(&stop);
        let finished = Arc::clone(&finished);
        let latencies = Arc::clone(&latencies);
        let op_source = Arc::clone(&op_source);
        client_handles.push(std::thread::spawn(move || {
            let mut next_req: u64 = 1;
            struct Pending {
                t0: Instant,
                proposal: Proposal,
                endorsements: Vec<(usize, Signature)>,
                submitted: bool,
            }
            let mut inflight: HashMap<u64, Pending> = HashMap::new();
            let mut by_digest: HashMap<Digest, u64> = HashMap::new();
            let mut hist = Histogram::new();
            while !stop.load(Ordering::Relaxed) {
                while inflight.len() < outstanding {
                    let (proc, args) = op_source(ci);
                    let p = Proposal { client: addr, req_id: next_req, proc, args };
                    by_digest.insert(p.digest(), next_req);
                    // Endorsement policy: two endorsers (1 and 2 mod n).
                    endpoint.send(1 % n as u64, FabricMsg::Endorse(p.clone()));
                    endpoint.send(2 % n as u64, FabricMsg::Endorse(p.clone()));
                    inflight.insert(
                        next_req,
                        Pending {
                            t0: Instant::now(),
                            proposal: p,
                            endorsements: Vec::new(),
                            submitted: false,
                        },
                    );
                    next_req += 1;
                }
                if let Some(env) = endpoint.recv_timeout(Duration::from_millis(1)) {
                    match env.msg {
                        FabricMsg::Endorsement { digest, endorser, sig } => {
                            if let Some(req_id) = by_digest.get(&digest) {
                                if let Some(pend) = inflight.get_mut(req_id) {
                                    pend.endorsements.push((endorser, sig));
                                    if pend.endorsements.len() >= 2 && !pend.submitted {
                                        pend.submitted = true;
                                        endpoint.send(
                                            0,
                                            FabricMsg::Submit(
                                                pend.proposal.clone(),
                                                pend.endorsements.clone(),
                                            ),
                                        );
                                    }
                                }
                            }
                        }
                        FabricMsg::Reply { req_id } => {
                            if let Some(pend) = inflight.remove(&req_id) {
                                by_digest.remove(&pend.proposal.digest());
                                hist.record(pend.t0.elapsed());
                                finished.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        _ => {}
                    }
                }
            }
            latencies.lock().merge(&hist);
        }));
    }

    let t0 = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let elapsed = t0.elapsed();
    for h in client_handles {
        let _ = h.join();
    }
    for h in handles {
        let _ = h.join();
    }
    BaselineReport {
        committed_tx: committed.load(Ordering::Relaxed),
        elapsed,
        latency: Arc::try_unwrap(latencies)
            .map(|m| m.into_inner())
            .unwrap_or_else(|arc| arc.lock().clone()),
        finished_ops: finished.load(Ordering::Relaxed),
    }
}

/// Validate and apply a block at a peer: verify every endorsement
/// signature (per transaction — the cost the paper measures), re-execute,
/// and reply to clients (peer 1 is the designated replier).
fn apply_block(
    kv: &mut KvStore,
    app: &Arc<dyn App>,
    keys: &[PublicKey],
    endpoint: &ia_ccf_net::BusEndpoint<FabricMsg>,
    block: &[(Proposal, Vec<(usize, Signature)>)],
) -> u64 {
    let mut applied = 0;
    for (p, endorsements) in block {
        let digest = p.digest();
        let valid = endorsements.len() >= 2
            && endorsements.iter().all(|(e, sig)| {
                keys.get(*e).map(|k| k.verify(digest.as_ref(), sig)).unwrap_or(false)
            });
        if !valid {
            continue;
        }
        kv.begin_tx().ok();
        match app.execute(kv, p.proc, &p.args, ClientId(p.client)) {
            Ok(_) => {
                kv.commit_tx().ok();
            }
            Err(_) => {
                kv.abort_tx().ok();
            }
        }
        applied += 1;
        if endpoint.address() == 1 {
            endpoint.send(p.client, FabricMsg::Reply { req_id: p.req_id });
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_core::app::CounterApp;

    #[test]
    fn fabric_pipeline_executes_and_replies() {
        let report = run_fabric(
            4,
            2,
            8,
            32,
            LatencyModel::Zero,
            Duration::from_millis(1200),
            Arc::new(CounterApp),
            Arc::new(|_| (CounterApp::INCR, b"k".to_vec())),
        );
        assert!(report.committed_tx > 0, "{report:?}");
        assert!(report.finished_ops > 0, "{report:?}");
    }
}
