//! The append-only ledger (§2 ❷, Fig. 3).
//!
//! The ledger stores, per batch: the commitment evidence for the batch `P`
//! earlier (`P_{s−P}`, `K_{s−P}`), the signed pre-prepare, and the
//! `⟨t, i, o⟩` transaction entries — plus view-change/new-view entries and
//! the genesis transaction. Non-transaction entries are leaves of the
//! Merkle tree `M`, whose root every signed pre-prepare carries, committing
//! each replica to the entire history.
//!
//! Four facilities live here:
//!
//! * [`Ledger`] — the replica-side structure: append, rollback
//!   ([`Ledger::truncate_to`], Lemma 1), roots, lookups;
//! * [`segment`] — the shared structural grammar ("well-formedness" in
//!   Appx. B terms) used by replicas validating fetched fragments and by
//!   the auditor;
//! * [`validity`] — the signed half of validity: the pre-prepare and
//!   view-change rules a backup, ledger replay and the auditor all call;
//! * [`durable`] — the disk-backed segment files behind a durable
//!   replica: chunk-framed appends, batched fsync, torn-tail repair.

#![forbid(unsafe_code)]

pub mod durable;
pub mod segment;
pub mod store;
pub mod validity;

pub use durable::{DurableLog, ARCHIVE_DIR, CHECKPOINT_FILE, MANIFEST_FILE};
pub use segment::{segment_entries, Segment, SegmentError};
pub use store::{AttachError, Ledger};
