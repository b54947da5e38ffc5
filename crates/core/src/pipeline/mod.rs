//! The staged normal-case pipeline (Alg. 1).
//!
//! The replica's normal-case operation is an explicit four-stage
//! pipeline over the shared state in [`crate::replica::Replica`]; each
//! stage is an `impl Replica` block in its own module, and each stage is
//! batch-amortized — the per-request work the paper defers (client
//! signature checks, Merkle appends, ledger writes) is done once per
//! batch, not once per request (§3.4, §6):
//!
//! | stage | module | Alg. 1 steps |
//! |---|---|---|
//! | [`admission`] | verify/dedupe/queue requests | lines 1–3 (`verify(t)`, request pool) |
//! | [`ordering`] | pre-prepare / prepare / commit quorum tracking | lines 4–33 (`sendPrePrepare`, `receivePrePrepare`, `batchPrepared`, commit nonces) |
//! | [`execution`] | batch execute + rollback marks | lines 19–26 (early execution, Lemma 1/2) |
//! | [`emission`] | replies, receipts, checkpoint/evidence serving | lines 34–38 (`reply`, `replyx`) and §5.2 receipts |
//!
//! Requests waiting for a batch have one owner, [`request_pool`]: the
//! pending bodies, the primary's queue over them, their signature facts
//! and the names already ordered, changed only by one method per step of
//! a request's life, so a name is queued exactly while its orderable body
//! waits.
//!
//! Executed batches have one owner, [`exec_window`]: the batches behind
//! `Arc` (each with its tree `G`, which serves its receipt paths) and the
//! `tx_hash → (seq, pos)` re-fetch locator over them. Rollback and the GC
//! drop batches only through it, so a locator entry never outlives its
//! batch.
//!
//! View changes (Alg. 2) and reconfiguration (§5.1) stay outside the
//! pipeline in [`crate::viewchange`] and [`crate::reconfig`]: they
//! interrupt it, roll back its uncommitted tail via the
//! [`execution::BatchMark`]s, and restart it in a new view or
//! configuration.

pub(crate) mod admission;
pub(crate) mod emission;
pub(crate) mod exec_window;
pub(crate) mod execution;
pub(crate) mod ordering;
pub(crate) mod request_pool;

pub use exec_window::ReceiptCacheStats;

pub(crate) use execution::{BatchExec, BatchMark, ExecError};
