//! L-PBFT — the IA-CCF core protocol (§3, §5).
//!
//! L-PBFT is PBFT restructured around a ledger:
//!
//! * the primary **early-executes** batches and proposes the results (`Ḡ`)
//!   inside the signed pre-prepare; backups re-execute and must reproduce
//!   the identical Merkle roots or reject (Alg. 1);
//! * replicas commit a **nonce hash** inside each signed
//!   pre-prepare/prepare and reveal the nonce in an *unsigned* commit —
//!   one signature per replica per batch (Lemma 3);
//! * **commitment evidence** (`P_{s−P}`, `K_{s−P}`) for each batch is
//!   ordered into the ledger by the primary `P` batches later, so every
//!   replica's ledger is byte-identical and receipts/audits can bind
//!   replicas to it;
//! * **view changes** are auditable: view-change messages carry the last
//!   `P` prepared pre-prepares, and the accepted set plus the new-view are
//!   ledger entries (Alg. 2);
//! * every `C` batches the state is **checkpointed** and the digest is
//!   agreed in-band (§3.4); reconfigurations run the §5.1 schedule of
//!   end/start-of-configuration batches.
//!
//! The replica is a sans-io state machine ([`Replica`]): feed it
//! [`Input`]s, collect [`Output`]s. Transports live in `ia-ccf-net`; the
//! deterministic simulator in `ia-ccf-sim`. Byzantine behaviours for tests
//! and audit demonstrations are in [`byzantine`].

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod app;
pub mod bootstrap;
pub mod byzantine;
pub mod checkpoint;
pub mod events;
pub mod execute;
pub mod msgstore;
pub mod params;
pub mod pipeline;
pub mod reconfig;
pub mod replica;
pub mod seedfile;
mod test_bus;
pub mod viewchange;

pub use app::{App, AppError, NullApp};
pub use bootstrap::{BootstrapError, SyncReport};
pub use byzantine::{ByzantineReplica, Fault};
pub use checkpoint::{CheckpointRecord, CheckpointStore};
pub use events::{Input, NodeId, Output};
pub use params::ProtocolParams;
pub use pipeline::ReceiptCacheStats;
pub use replica::{Replica, ReplicaInitError};
pub use seedfile::SeedCheckpointFile;
