//! The three workloads. Later issues refer to these names.
//!
//! Every workload is a closed loop: a client sends its next request only
//! when one of its outstanding requests has a verified receipt. Work is
//! fixed by **transaction counts**; `--seconds` only scales the counts
//! (from a nominal per-workload rate), so for a given `--seed` and
//! `--seconds` the ledger and every byte count repeat exactly.

/// `run_seconds` of `BENCHMARK.json`: what `--seconds` defaults to.
pub const RUN_SECONDS: u64 = 15;
/// Slices the commit phase is cut into.
pub const SLICES: usize = 20;
/// Replicas (f = 1).
pub const N: usize = 4;
/// SmallBank accounts.
pub const ACCOUNTS: u64 = 10_000;
/// Opening balance of each account (checking and savings).
pub const INITIAL_BALANCE: i64 = 10_000;
/// Sequential fresh builds per run; `setup_s` is their median and the
/// last one is the cluster the run measures.
pub const BUILDS: usize = 5;
/// Repetitions of the recover epilogue (median reported).
pub const RECOVER_REPS: usize = 5;
/// Timed audits of the ledger's opening stretch (median reported).
pub const AUDIT_REPS: usize = 7;

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub clients: usize,
    /// Requests kept outstanding, all clients together (P × `batch_max`
    /// on the saturating workloads).
    pub outstanding: usize,
    pub batch_max: usize,
    /// Share (percent) of account draws routed to the 4 hot accounts.
    pub skew_pct: u8,
    /// Replicas keep their ledger in segment files under a data dir.
    pub durable: bool,
    pub fsync_interval_batches: u64,
    pub checkpoint_interval: u64,
    /// Transactions of the warm-up window that ends each build.
    pub warmup_tx: usize,
    /// Measured transactions per second of `--seconds` (a nominal rate of
    /// this box; see `measured_tx`).
    pub nominal_tx_per_s: usize,
    /// Slice lengths are multiples of this many transactions.
    pub slice_granule: usize,
    /// Transactions in the ledger's opening stretch, the unit the audit
    /// epilogue times (about a quarter of a second of auditing).
    pub audit_prefix_tx: u64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "sat_uniform",
        why: "window kept full, uniform accounts, in-memory ledger: per-transaction work \
              dominates (client-signature checks, execution, Merkle leaves, receipts)",
        clients: 4,
        outstanding: 600,
        batch_max: 300,
        skew_pct: 0,
        durable: false,
        fsync_interval_batches: 1,
        checkpoint_interval: 1_000_000,
        warmup_tx: 600,
        nominal_tx_per_s: 720,
        slice_granule: 600,
        audit_prefix_tx: 1_800,
    },
    Workload {
        name: "sat_hot_durable",
        why: "window kept full, 90% of draws on 4 hot accounts, ledger on disk with fsync, \
              live checkpoints, 3x the batches per transaction: the same layers used differently",
        clients: 4,
        outstanding: 200,
        batch_max: 100,
        skew_pct: 90,
        durable: true,
        fsync_interval_batches: 4,
        checkpoint_interval: 4,
        warmup_tx: 200,
        nominal_tx_per_s: 720,
        slice_granule: 600,
        audit_prefix_tx: 1_800,
    },
    Workload {
        name: "lat_single",
        why: "one client, one request outstanding: per-batch work dominates (ordering messages, \
              one signature per replica per batch); the unloaded two-round-trip receipt latency",
        clients: 1,
        outstanding: 1,
        batch_max: 300,
        skew_pct: 0,
        durable: false,
        fsync_interval_batches: 1,
        checkpoint_interval: 1_000_000,
        warmup_tx: 64,
        nominal_tx_per_s: 265,
        slice_granule: 1,
        audit_prefix_tx: 300,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// Transactions per slice for a run of `seconds`: the nominal rate
    /// times the seconds, split into [`SLICES`] slices, rounded up to the
    /// slice granule (whole batches, whole checkpoint periods).
    pub fn slice_tx(&self, seconds: u64) -> usize {
        let per_slice = (self.nominal_tx_per_s * seconds as usize).div_ceil(SLICES);
        per_slice.div_ceil(self.slice_granule).max(1) * self.slice_granule
    }

    /// Transactions of the commit phase for a run of `seconds`.
    pub fn measured_tx(&self, seconds: u64) -> usize {
        self.slice_tx(seconds) * SLICES
    }

    pub fn outstanding_per_client(&self) -> usize {
        self.outstanding / self.clients
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_scale_with_seconds_and_stay_sliceable() {
        for w in &WORKLOADS {
            assert_eq!(w.outstanding % w.clients, 0, "{}", w.name);
            for seconds in [1, 5, 15, 60] {
                let slice = w.slice_tx(seconds);
                assert!(slice >= 1);
                assert_eq!(slice % w.slice_granule, 0, "{} @ {seconds}s", w.name);
                assert_eq!(w.measured_tx(seconds), slice * SLICES);
            }
            assert!(w.measured_tx(30) > w.measured_tx(15), "{}", w.name);
        }
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(Workload::by_name(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(Workload::by_name("nope").is_none());
    }
}
