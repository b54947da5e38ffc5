//! Cluster construction (one *build*) and the closed-loop load.
//!
//! A build = keys + genesis + `Replica::new` × 4 (data dirs included) +
//! clients + the bulk load of the SmallBank accounts + one warm-up window
//! of transactions driven to verified receipts. Inputs come from `--seed`
//! only: client `i` draws its operations from
//! `Workload::with_skew(accounts, seed · 1000 + i, skew)`.

use std::path::PathBuf;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::Instant;

use ia_ccf_client::{Client, FinishedTx};
use ia_ccf_core::app::{App, AppError};
use ia_ccf_core::{ProtocolParams, Replica};
use ia_ccf_kv::{Key, KvAccess};
use ia_ccf_smallbank::{account_key, Balances, SmallBankApp};
use ia_ccf_types::config::testutil::test_config;
use ia_ccf_types::{ClientId, Configuration, KeyPair, ProcId, PublicKey, ReplicaId};

use crate::calib::Calibrator;
use crate::driver::Net;
use crate::sys::ScratchDir;
use crate::workload::{Workload, ACCOUNTS, INITIAL_BALANCE, N};

/// Bulk load: create `accounts` accounts holding `initial` in both
/// balances. Arguments: `accounts: u64 LE, initial: i64 LE`.
pub const LOAD_ACCOUNTS: ProcId = ProcId(20);

/// `SmallBankApp` plus the bulk-load procedure.
///
/// The accounts are loaded by a *transaction* — the first one of every
/// ledger — and not by `Replica::prime_kv`, because state primed outside
/// the ledger cannot be replayed: `Replica::restart_from_dir` (the
/// durable workload's recovery) and a from-genesis audit both start from
/// an empty store. The load declares no key footprint, so it runs on the
/// serial lane; every other procedure is SmallBank's own.
pub struct BankApp;

impl App for BankApp {
    fn execute(
        &self,
        kv: &mut dyn KvAccess,
        proc: ProcId,
        args: &[u8],
        client: ClientId,
    ) -> Result<Vec<u8>, AppError> {
        if proc != LOAD_ACCOUNTS {
            return SmallBankApp.execute(kv, proc, args, client);
        }
        let field = |at: usize| -> Result<[u8; 8], AppError> {
            args.get(at..at + 8)
                .and_then(|s| s.try_into().ok())
                .ok_or_else(|| AppError("short args".into()))
        };
        let accounts = u64::from_le_bytes(field(0)?);
        let initial = i64::from_le_bytes(field(8)?);
        let opening = Balances {
            checking: initial,
            savings: initial,
        }
        .to_bytes();
        for a in 0..accounts {
            kv.put(account_key(a), opening.clone())
                .map_err(|e| AppError(e.to_string()))?;
        }
        Ok(accounts.to_le_bytes().to_vec())
    }

    fn key_hints(&self, proc: ProcId, args: &[u8], client: ClientId) -> Option<Vec<Key>> {
        if proc == LOAD_ACCOUNTS {
            None
        } else {
            SmallBankApp.key_hints(proc, args, client)
        }
    }
}

/// Everything fixed for a run: identities, genesis, parameters, the app.
pub struct Spec {
    pub workload: &'static Workload,
    pub seed: u64,
    pub genesis: Configuration,
    replica_keys: Vec<KeyPair>,
    clients: Vec<(ClientId, KeyPair)>,
    pub app: Arc<dyn App>,
}

impl Spec {
    pub fn new(workload: &'static Workload, seed: u64) -> Self {
        let (mut genesis, replica_keys, _members) = test_config(N);
        genesis.pipeline_depth = 2;
        genesis.checkpoint_interval = workload.checkpoint_interval;
        let clients = (0..workload.clients)
            .map(|i| {
                (
                    ClientId(1000 + i as u64),
                    KeyPair::from_label(&format!("client-{i}")),
                )
            })
            .collect();
        Spec {
            workload,
            seed,
            genesis,
            replica_keys,
            clients,
            app: Arc::new(BankApp),
        }
    }

    /// Public key of client `ci`.
    pub fn client_public(&self, ci: usize) -> PublicKey {
        self.clients[ci].1.public()
    }

    fn client_keys(&self) -> Vec<(ClientId, PublicKey)> {
        self.clients
            .iter()
            .map(|(id, kp)| (*id, kp.public()))
            .collect()
    }

    /// Replica parameters: everything inline on the calling thread
    /// (`pool_threads: 1`, `execution_shards: 1`).
    pub fn params(&self, data_dir: Option<PathBuf>) -> ProtocolParams {
        ProtocolParams {
            batch_max: self.workload.batch_max,
            pool_threads: 1,
            execution_shards: 1,
            fsync_interval_batches: self.workload.fsync_interval_batches,
            data_dir,
            ..ProtocolParams::default()
        }
    }

    /// A fresh replica at `rank`.
    pub fn new_replica(&self, rank: usize, data_dir: Option<PathBuf>) -> Result<Replica, String> {
        Replica::new(
            ReplicaId(rank as u32),
            self.replica_keys[rank].clone(),
            self.genesis.clone(),
            Arc::clone(&self.app),
            self.params(data_dir),
            self.client_keys(),
        )
        .map_err(|e| format!("replica {rank}: {e}"))
    }

    /// Restart the replica at `rank` from the durable ledger in `data_dir`.
    pub fn restart_replica(&self, rank: usize, data_dir: PathBuf) -> Result<Replica, String> {
        Replica::restart_from_dir(
            ReplicaId(rank as u32),
            self.replica_keys[rank].clone(),
            Arc::clone(&self.app),
            self.params(Some(data_dir)),
            self.client_keys(),
        )
        .map_err(|e| format!("restart replica {rank}: {e:?}"))
    }

    pub fn new_clients(&self, gt_hash: ia_ccf_types::Digest) -> Vec<Client> {
        self.clients
            .iter()
            .map(|(id, kp)| Client::new(*id, kp.clone(), gt_hash, self.genesis.clone()))
            .collect()
    }
}

/// The closed-loop load generator and its bookkeeping.
pub struct Load {
    gens: Vec<ia_ccf_smallbank::Workload>,
    /// `submit` time of each request on the calibrator's work clock, by
    /// client, indexed by `req_id − 1`.
    submit_ns: Vec<Vec<u64>>,
    /// Every completed transaction, by client, in completion order.
    pub finished: Vec<Vec<FinishedTx>>,
    pub submitted: u64,
}

impl Load {
    pub fn new(spec: &Spec) -> Self {
        let w = spec.workload;
        let gens = (0..w.clients)
            .map(|i| {
                ia_ccf_smallbank::Workload::with_skew(
                    ACCOUNTS,
                    spec.seed * 1000 + i as u64,
                    w.skew_pct,
                )
            })
            .collect();
        Load {
            gens,
            submit_ns: vec![Vec::new(); w.clients],
            finished: vec![Vec::new(); w.clients],
            submitted: 0,
        }
    }

    pub fn completed(&self) -> u64 {
        self.finished.iter().map(|f| f.len() as u64).sum()
    }

    fn submit(&mut self, net: &mut Net, cal: &Calibrator, ci: usize, proc: ProcId, args: Vec<u8>) {
        let now = cal.work_clock_ns();
        let req_id = net.submit(ci, proc, args);
        self.submit_ns[ci].push(now);
        assert_eq!(
            req_id as usize,
            self.submit_ns[ci].len(),
            "request ids are sequential"
        );
        self.submitted += 1;
    }

    /// The next generated operation of client `ci`.
    pub fn next_op(&mut self, ci: usize) -> ia_ccf_smallbank::WorkloadOp {
        self.gens[ci].next_op()
    }

    fn submit_next(&mut self, net: &mut Net, cal: &Calibrator, ci: usize) {
        let op = self.next_op(ci);
        self.submit(net, cal, ci, op.proc, op.args);
    }

    /// Drive `count` more transactions to verified receipts, keeping up to
    /// `per_client` requests of each client outstanding. `on_done` sees
    /// every completion: the net, the completions so far in this call and
    /// the transaction's `submit` → receipt latency in nanoseconds.
    pub fn run(
        &mut self,
        net: &mut Net,
        cal: &mut Calibrator,
        count: usize,
        per_client: usize,
        on_done: impl FnMut(&mut Net, &mut Calibrator, usize, u64),
    ) -> Result<(), String> {
        let clients = self.gens.len();
        let window = (per_client * clients).min(count);
        for slot in 0..window {
            self.submit_next(net, cal, slot % clients);
        }
        self.drive(net, cal, count, count - window, on_done)
    }

    /// Step the net until `count` more transactions have completed; each
    /// of the first `refill` completions makes its client submit its next
    /// request (the closed loop).
    fn drive(
        &mut self,
        net: &mut Net,
        cal: &mut Calibrator,
        count: usize,
        mut refill: usize,
        mut on_done: impl FnMut(&mut Net, &mut Calibrator, usize, u64),
    ) -> Result<(), String> {
        let mut completed = 0usize;
        let mut done: Vec<(usize, FinishedTx)> = Vec::new();
        let stall_limit = net.counters.tick_rounds + 5_000;
        while completed < count {
            if net.counters.tick_rounds >= stall_limit {
                return Err(format!("stalled: {completed}/{count} receipts"));
            }
            net.step(&mut done);
            cal.poll();
            for (ci, tx) in done.drain(..) {
                let latency = cal.work_clock_ns() - self.submit_ns[ci][tx.req_id as usize - 1];
                self.finished[ci].push(tx);
                completed += 1;
                on_done(net, cal, completed, latency);
                if refill > 0 {
                    self.submit_next(net, cal, ci);
                    refill -= 1;
                }
            }
        }
        Ok(())
    }

    /// The bulk load: client 0's first transaction, driven to its receipt.
    fn load_accounts(&mut self, net: &mut Net, cal: &mut Calibrator) -> Result<(), String> {
        let args = [ACCOUNTS.to_le_bytes(), INITIAL_BALANCE.to_le_bytes()].concat();
        self.submit(net, cal, 0, LOAD_ACCOUNTS, args);
        self.drive(net, cal, 1, 0, |_, _, _, _| {})?;
        match self.finished[0].last() {
            Some(tx) if tx.ok => Ok(()),
            _ => Err("bulk load failed".into()),
        }
    }
}

/// One built cluster, warmed up.
pub struct Built {
    pub net: Net,
    pub load: Load,
    /// Live-thread gauges of every replica pool of this build.
    pub pool_gauges: Vec<Arc<AtomicUsize>>,
    /// Seconds for construction alone (before the load and the warm-up).
    pub construct_s: f64,
}

/// One build (see the module docs). `scratch` holds the replicas' data
/// dirs on the durable workload; they are emptied first.
pub fn build(spec: &Spec, scratch: &ScratchDir, cal: &mut Calibrator) -> Result<Built, String> {
    let t0 = Instant::now();
    let mut replicas = Vec::with_capacity(N);
    for rank in 0..N {
        let dir = if spec.workload.durable {
            let name = format!("r{rank}");
            Some(
                scratch
                    .fresh_subdir(&name)
                    .map_err(|e| format!("data dir: {e}"))?,
            )
        } else {
            None
        };
        replicas.push(spec.new_replica(rank, dir)?);
    }
    let pool_gauges = replicas.iter().map(|r| r.pool().thread_gauge()).collect();
    let clients = spec.new_clients(replicas[0].gt_hash());
    let mut net = Net::new(replicas, clients);
    let mut load = Load::new(spec);
    let construct_s = t0.elapsed().as_secs_f64();
    load.load_accounts(&mut net, cal)?;
    let w = spec.workload;
    load.run(
        &mut net,
        cal,
        w.warmup_tx,
        w.outstanding_per_client(),
        |_, _, _, _| {},
    )
    .map_err(|e| format!("warm-up {e}"))?;
    Ok(Built {
        net,
        load,
        pool_gauges,
        construct_s,
    })
}
