//! Canned cluster constructions shared by tests and examples.

use std::sync::Arc;

use ia_ccf_core::app::App;
use ia_ccf_core::{ProtocolParams, Replica};
use ia_ccf_crypto::KeyPair;
use ia_ccf_types::config::testutil::test_config;
use ia_ccf_types::{ClientId, Configuration, PublicKey, ReplicaId};

/// Everything needed to stand up a cluster.
pub struct ClusterSpec {
    /// The genesis configuration.
    pub genesis: Configuration,
    /// Replica signing keys, by rank.
    pub replica_keys: Vec<KeyPair>,
    /// Member signing keys, by member id.
    pub member_keys: Vec<KeyPair>,
    /// Protocol parameters applied to every replica.
    pub params: ProtocolParams,
    /// Client identities to provision.
    pub clients: Vec<(ClientId, KeyPair)>,
}

impl ClusterSpec {
    /// A spec with `n` replicas (one member each) and `n_clients` clients,
    /// deterministic keys throughout.
    pub fn new(n: usize, n_clients: usize, params: ProtocolParams) -> Self {
        let (genesis, replica_keys, member_keys) = test_config(n);
        let clients = (0..n_clients)
            .map(|i| {
                let kp = KeyPair::from_label(&format!("client-{i}"));
                (ClientId(1000 + i as u64), kp)
            })
            .collect();
        ClusterSpec { genesis, replica_keys, member_keys, params, clients }
    }

    /// Adjust protocol parameters (pipeline depth / checkpoint interval
    /// live in the configuration, the rest in [`ProtocolParams`]).
    pub fn with_config(mut self, f: impl FnOnce(&mut Configuration)) -> Self {
        f(&mut self.genesis);
        self
    }

    /// Pin the worker-pool thread count on every replica. A local knob
    /// (artifacts are pool-size independent — the pool-size sweeps
    /// enforce it); pinning keeps simulated runs
    /// reproducible regardless of the host's core count or the
    /// `IACCF_POOL_THREADS` environment.
    pub fn with_pool_threads(mut self, threads: usize) -> Self {
        self.params.pool_threads = threads;
        self
    }

    /// Client key provisioning list.
    pub fn client_keys(&self) -> Vec<(ClientId, PublicKey)> {
        self.clients.iter().map(|(id, kp)| (*id, kp.public())).collect()
    }

    /// Build the replica with rank `rank` running `app`.
    pub fn build_replica(&self, rank: usize, app: Arc<dyn App>) -> Replica {
        self.build_replica_with(rank, app, self.params.clone())
    }

    /// Build the replica with rank `rank` running `app`, overriding the
    /// spec-wide parameters — e.g. a per-replica `data_dir` for durable
    /// clusters, where every replica needs its own directory.
    pub fn build_replica_with(
        &self,
        rank: usize,
        app: Arc<dyn App>,
        params: ProtocolParams,
    ) -> Replica {
        Replica::new(
            ReplicaId(rank as u32),
            self.replica_keys[rank].clone(),
            self.genesis.clone(),
            app,
            params,
            self.client_keys(),
        )
        .expect("build replica")
    }

    /// Restart the replica with rank `rank` from its on-disk ledger.
    /// `params.data_dir` must point at the directory a previous instance
    /// wrote; a torn tail is repaired and the durable prefix replayed
    /// before the replica is returned. Drop (or
    /// [`crate::DetCluster::crash_and_drop`]) the previous instance first
    /// so its file handles are released.
    pub fn restart_replica(
        &self,
        rank: usize,
        app: Arc<dyn App>,
        params: ProtocolParams,
    ) -> Result<Replica, ia_ccf_core::BootstrapError> {
        Replica::restart_from_dir(
            ReplicaId(rank as u32),
            self.replica_keys[rank].clone(),
            app,
            params,
            self.client_keys(),
        )
    }
}
