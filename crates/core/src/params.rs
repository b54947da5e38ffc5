//! Protocol parameters.

/// Tunable parameters of one replica. Defaults mirror the paper's LAN
/// setup (§6: `P = 2`, batch ≤ 300, checkpoint every 10k) scaled to the
/// simulator.
#[derive(Debug, Clone)]
pub struct ProtocolParams {
    /// Maximum transactions per batch (300 LAN / 800 WAN in the paper).
    pub batch_max: usize,
    /// Ticks without progress before a backup starts a view change.
    pub view_timeout_ticks: u64,
    /// Take checkpoints and agree their digests.
    pub checkpoints_enabled: bool,
    /// Ignored: execution is serial. `benchmark/` still sets it, and a
    /// product PR may not touch that directory: removed by the next
    /// benchmark-only PR (ROADMAP item 8).
    #[doc(hidden)]
    pub execution_shards: usize,
    /// Worker threads in the replica's persistent pool
    /// ([`ia_ccf_pool::WorkerPool`]), which carries every parallel hot
    /// path — each a signature check, cut into chunks by the one chunker
    /// [`ia_ccf_crypto::start_verify`]: batched client-signature
    /// verification, the cross-batch overlap (verify pre-prepare *n+1*'s
    /// signatures while batch *n* executes) and recovery's pre-prepare
    /// pre-pass. `0` resolves to the `IACCF_POOL_THREADS` environment
    /// variable if set, else the machine's available parallelism (capped
    /// at 8); `1` disables all pool offload — every check runs inline, in
    /// one `verify_batch_indices` call, and nothing is queued. **Local** knob: ledger
    /// bytes, digests and receipts are byte-identical for any value
    /// (pool-size sweeps in `tests/sharded_execution.rs` and
    /// `tests/pipeline_view_change.rs` enforce this), so replicas of one
    /// cluster may differ.
    pub pool_threads: usize,
    /// How many committed batches of execution state (and with them the
    /// receipt-serving caches: locator entries, certificates, frozen
    /// paths) are retained for receipt re-fetch. Older transactions
    /// answer re-fetch with silence and the client retries another
    /// replica. Floored at `2 × pipeline_depth` so in-flight rollback
    /// always finds its state. **Local** knob — never visible in ledger
    /// bytes or receipts.
    pub exec_retention_batches: u64,
    /// Page budget (encoded-entry bytes) this replica asks for in each
    /// `FetchLedgerPage` during state transfer. Clamped on both sides to
    /// [`ia_ccf_types::messages::PAGE_CEILING_BYTES`], which sits well
    /// under the 64 MiB frame limit — an oversized ledger now transfers
    /// as many bounded pages instead of one unframable response.
    /// **Local** knob: servers serve whatever budget a requester names
    /// (clamped), so replicas of one cluster may differ.
    pub sync_page_bytes: u64,
    /// Ticks a syncing replica waits for the next ledger page before it
    /// fails over to another server. Also bounds how long a stalled or
    /// crashed page server can hold up recovery. **Local** knob.
    pub sync_timeout_ticks: u64,
    /// Per-replica data directory for the durable ledger. `None` (the
    /// default) keeps the ledger purely in memory — the seed behaviour,
    /// and what the simulation harnesses use unless a test opts into
    /// real disk. When set, every ledger append is mirrored into
    /// append-only segment files under this directory and a crashed
    /// replica can restart from them ([`crate::Replica::restart_from_dir`]).
    /// **Local** knob: never visible in ledger bytes or digests.
    pub data_dir: Option<std::path::PathBuf>,
    /// How many committed batches may accumulate between `fsync`s of the
    /// durable ledger. `1` syncs after every batch (strongest durability,
    /// most write amplification); larger values batch the flushes and
    /// accept that a crash may lose up to that many tail batches — the
    /// torn-tail repair at restart truncates whatever suffix did not
    /// survive, and the replica re-pages it from its peers. **Local**
    /// knob.
    pub fsync_interval_batches: u64,
    /// Segment roll size for the durable ledger, in bytes. `0` (the
    /// default) resolves to [`ia_ccf_ledger::DurableLog::DEFAULT_ROLL_BYTES`]
    /// (8 MiB); tests set tiny values to exercise multi-file logs and
    /// roll-boundary crash windows without megabytes of entries.
    /// **Local** knob.
    pub durable_roll_bytes: u64,
}

impl Default for ProtocolParams {
    fn default() -> Self {
        ProtocolParams {
            batch_max: 300,
            view_timeout_ticks: 40,
            checkpoints_enabled: true,
            execution_shards: 0,
            pool_threads: 0,
            exec_retention_batches: 64,
            sync_page_bytes: 1 << 20,
            sync_timeout_ticks: 8,
            data_dir: None,
            fsync_interval_batches: 1,
            durable_roll_bytes: 0,
        }
    }
}

impl ProtocolParams {
    /// The worker-thread count `pool_threads` resolves to on this
    /// machine. An explicit value always wins; `0` (auto) consults
    /// `IACCF_POOL_THREADS` first — that is what lets CI pin a
    /// multi-thread pool on a single-core runner without touching test
    /// code — and falls back to available parallelism capped at 8.
    pub fn resolved_pool_threads(&self) -> usize {
        if self.pool_threads != 0 {
            return self.pool_threads;
        }
        if let Some(n) = std::env::var("IACCF_POOL_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
        {
            if n >= 1 {
                return n;
            }
        }
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).clamp(1, 8)
    }

    /// The segment roll size `durable_roll_bytes` resolves to: the
    /// default 8 MiB unless a test pinned a small one.
    pub fn resolved_durable_roll_bytes(&self) -> u64 {
        match self.durable_roll_bytes {
            0 => ia_ccf_ledger::DurableLog::DEFAULT_ROLL_BYTES,
            n => n,
        }
    }

    /// The page budget this replica actually requests: the configured
    /// knob clamped into `[1, PAGE_CEILING_BYTES]`.
    pub fn effective_sync_page_bytes(&self) -> u64 {
        self.sync_page_bytes.clamp(1, ia_ccf_types::messages::PAGE_CEILING_BYTES as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_page_bytes_clamps_under_frame_limit() {
        let ceiling = ia_ccf_types::messages::PAGE_CEILING_BYTES as u64;
        let d = ProtocolParams::default();
        assert!(d.effective_sync_page_bytes() <= ceiling);
        assert!(d.effective_sync_page_bytes() >= 1);
        let huge = ProtocolParams { sync_page_bytes: u64::MAX, ..ProtocolParams::default() };
        assert_eq!(huge.effective_sync_page_bytes(), ceiling);
        let zero = ProtocolParams { sync_page_bytes: 0, ..ProtocolParams::default() };
        assert_eq!(zero.effective_sync_page_bytes(), 1, "a zero budget still pages one batch");
    }

    #[test]
    fn pool_threads_resolve_sanely() {
        // Auto stays in a sane band whether or not IACCF_POOL_THREADS is
        // set in the environment (CI pins it for the multi-thread job).
        let auto = ProtocolParams::default();
        assert!(auto.resolved_pool_threads() >= 1);
        // An explicit value always beats the environment override.
        let pinned = ProtocolParams { pool_threads: 5, ..ProtocolParams::default() };
        assert_eq!(pinned.resolved_pool_threads(), 5);
        let serial = ProtocolParams { pool_threads: 1, ..ProtocolParams::default() };
        assert_eq!(serial.resolved_pool_threads(), 1);
    }
}
