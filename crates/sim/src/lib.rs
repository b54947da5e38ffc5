//! Cluster harnesses for IA-CCF.
//!
//! * [`det`] — a deterministic single-threaded cluster: replicas, clients
//!   and a FIFO message queue driven to quiescence, with fault injection
//!   (crash, mute, tampered apps). All protocol tests, the audit scenarios
//!   and the examples run on this.
//! * [`scenario`] — canned cluster constructions shared by tests and
//!   examples.
//! * [`testdir`] — std-only temporary directories for the durable-ledger
//!   crash-restart harnesses.

pub mod det;
pub mod scenario;
pub mod testdir;

pub use det::DetCluster;
pub use scenario::ClusterSpec;
pub use testdir::TempDir;
