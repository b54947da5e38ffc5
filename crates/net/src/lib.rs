//! Transports for IA-CCF.
//!
//! The paper runs replicas on a 16-machine cluster and Azure LAN/WAN
//! (§6, Testbeds); this crate supplies the substitution documented in
//! docs/ARCHITECTURE.md §6:
//!
//! * [`frame`] — the single length-prefixed frame codec: scratch-buffer
//!   encoding (no per-message allocation on the hot path) and
//!   hostile-prefix-safe decoding.
//! * [`tcp`] — a real-socket TCP transport speaking [`frame`] frames on an
//!   **event-driven runtime**: one epoll loop per node owns the listener
//!   and every connection (O(nodes) threads for O(10k) connections),
//!   with deadline-bounded handshakes, generation-tagged peer entries,
//!   bounded inbound/outbound queues and readiness-driven flushing. Used
//!   by the `tcp_cluster` example and the benchmark's loopback probe.
//! * [`poll`] — the minimal vendored epoll/eventfd poller the runtime
//!   is built on.
//! * [`conn`] — per-connection state: incremental frame reassembly
//!   ([`conn::FrameAssembler`]) and the bounded outbound queue.

pub mod conn;
pub mod frame;
pub mod poll;
pub mod tcp;

pub use conn::FrameAssembler;
pub use frame::FrameError;
pub use tcp::{TcpConfig, TcpNode, TcpPeer};
