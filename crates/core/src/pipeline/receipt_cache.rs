//! The emission-stage receipt cache (§3.3, §5.2).
//!
//! Receipts are the artifact clients and auditors depend on, and they are
//! re-requested long after the batch committed (re-fetch, governance chain
//! serving, audits). The seed rebuilt them from scratch each time: deep
//! clones of [`BatchExec`], a full message-store walk per certificate, and
//! an O(batches × txs) linear scan to locate a transaction. This module
//! makes the read path cache-backed:
//!
//! * **certificates** — [`Replica::batch_certificate`] memoizes
//!   [`Replica::build_batch_certificate`] per `(seq, view)`, so the
//!   message-store walk, nonce validation and signer sort run at most once
//!   per committed batch version;
//! * **transaction locator** — a `tx_hash → (seq, position)` index
//!   maintained alongside `batch_exec`, so re-fetch is one hash lookup
//!   plus an O(log n) path slice instead of a scan;
//! * **paths** — memoized per batch inside [`BatchExec`] (see
//!   `BatchExec::path`), populated lazily behind the shared `Arc`.
//!
//! **Invalidation contract.** Entries live exactly as long as their batch
//! version: a view change rolls back batches via
//! `Replica::reset_to_seq`, which calls [`Replica::invalidate_receipt_caches_after`]
//! — every certificate, locator entry, governance-chain link and pending
//! receipt for a rolled-back sequence number is dropped, so a batch
//! re-executed in a new view rebuilds fresh (byte-identical) artifacts.
//! The ordering-stage GC prunes via [`Replica::prune_receipt_caches_up_to`]
//! in lockstep with the `batch_exec` retention window, so a cache entry
//! never outlives the execution state that backs it.

use std::collections::HashMap;

use ia_ccf_types::{BatchCertificate, Digest, SeqNum, View};

use crate::pipeline::BatchExec;
use crate::replica::Replica;

/// Cache effectiveness counters (exposed for tests and the bench harness;
/// not part of the protocol).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReceiptCacheStats {
    /// Certificate assemblies actually executed (message-store walks).
    pub cert_builds: u64,
    /// Certificate requests answered from the cache.
    pub cert_hits: u64,
    /// Re-fetch lookups answered via the locator index.
    pub locator_hits: u64,
    /// Re-fetch lookups for unknown/pruned transactions.
    pub locator_misses: u64,
}

/// The cache state owned by the replica.
#[derive(Debug, Default)]
pub(crate) struct ReceiptCache {
    /// Memoized batch certificates per committed `(seq, view)`.
    certs: HashMap<(SeqNum, View), BatchCertificate>,
    /// `tx_hash → (seq, position-in-batch)` for every live `batch_exec`.
    locator: HashMap<Digest, (SeqNum, u64)>,
    pub(crate) stats: ReceiptCacheStats,
}

impl ReceiptCache {
    pub(crate) fn cached_cert(&mut self, seq: SeqNum, view: View) -> Option<&BatchCertificate> {
        let cert = self.certs.get(&(seq, view));
        if cert.is_some() {
            self.stats.cert_hits += 1;
        }
        cert
    }

    pub(crate) fn insert_cert(&mut self, seq: SeqNum, view: View, cert: BatchCertificate) {
        self.stats.cert_builds += 1;
        self.certs.insert((seq, view), cert);
    }

    pub(crate) fn has_cert(&self, seq: SeqNum, view: View) -> bool {
        self.certs.contains_key(&(seq, view))
    }

    pub(crate) fn locate(&mut self, tx_hash: &Digest) -> Option<(SeqNum, u64)> {
        match self.locator.get(tx_hash).copied() {
            Some(found) => {
                self.stats.locator_hits += 1;
                Some(found)
            }
            None => {
                self.stats.locator_misses += 1;
                None
            }
        }
    }
}

impl Replica {
    /// Insert an executed batch into `batch_exec` behind `Arc` and index
    /// its transactions in the re-fetch locator. The single entry point —
    /// every insertion site (primary, backup, bootstrap replay) goes
    /// through here so the index can never drift from the map.
    pub(crate) fn insert_batch_exec(&mut self, seq: SeqNum, exec: BatchExec) {
        for (pos, et) in exec.txs.iter().enumerate() {
            self.receipt_cache.locator.insert(et.request_digest, (seq, pos as u64));
        }
        self.batch_exec.insert(seq, std::sync::Arc::new(exec));
    }

    /// The memoized batch certificate for a committed `(seq, view)`:
    /// assembled from the message store at most once, then served from
    /// the cache until the batch is rolled back or pruned.
    pub fn batch_certificate(&mut self, seq: SeqNum, view: View) -> Option<BatchCertificate> {
        if let Some(cert) = self.receipt_cache.cached_cert(seq, view) {
            return Some(cert.clone());
        }
        let cert = self.build_batch_certificate(seq, view)?;
        self.receipt_cache.insert_cert(seq, view, cert.clone());
        Some(cert)
    }

    /// Whether a certificate for `(seq, view)` is currently cached
    /// (test hook for the invalidation contract).
    pub fn has_cached_certificate(&self, seq: SeqNum, view: View) -> bool {
        self.receipt_cache.has_cert(seq, view)
    }

    /// Cache effectiveness counters.
    pub fn receipt_cache_stats(&self) -> ReceiptCacheStats {
        self.receipt_cache.stats
    }

    /// Drop cached certificates and locator entries for the batches in
    /// `dropped` (the `batch_exec` range about to be discarded). `keep`
    /// decides which sequence numbers *survive*; both cache maps are
    /// swept with it so they can never drift from `batch_exec`.
    fn sweep_receipt_caches(
        certs: &mut HashMap<(SeqNum, View), BatchCertificate>,
        locator: &mut HashMap<Digest, (SeqNum, u64)>,
        dropped: impl Iterator<Item = (SeqNum, std::sync::Arc<BatchExec>)>,
        keep: impl Fn(SeqNum) -> bool,
    ) {
        certs.retain(|(s, _), _| keep(*s));
        for (s, exec) in dropped {
            for et in &exec.txs {
                if locator.get(&et.request_digest).map(|(ls, _)| *ls) == Some(s) {
                    locator.remove(&et.request_digest);
                }
            }
        }
    }

    /// Rollback invalidation: drop every cached artifact for batches with
    /// `seq > reset_to`. Called from the view-change reset *before*
    /// `batch_exec` itself is truncated (the locator sweep reads it).
    pub(crate) fn invalidate_receipt_caches_after(&mut self, reset_to: SeqNum) {
        Self::sweep_receipt_caches(
            &mut self.receipt_cache.certs,
            &mut self.receipt_cache.locator,
            self.batch_exec.range(reset_to.next()..).map(|(s, e)| (*s, e.clone())),
            |s| s <= reset_to,
        );
        // Governance receipts for rolled-back batches carry the old view's
        // certificate; drop them (and any deferred builds) so the re-
        // committed batch rebuilds fresh links in its new view.
        self.gov_chain.retain(|l| l.receipt().seq() <= reset_to);
        self.pending_gov_receipts.retain(|(s, _)| *s <= reset_to);
    }

    /// GC pruning: drop cached artifacts for batches at or below
    /// `keep_from`, in lockstep with the `batch_exec` retention window.
    /// Called *before* `batch_exec` is pruned (the locator sweep reads
    /// the entries being dropped).
    pub(crate) fn prune_receipt_caches_up_to(&mut self, keep_from: SeqNum) {
        Self::sweep_receipt_caches(
            &mut self.receipt_cache.certs,
            &mut self.receipt_cache.locator,
            self.batch_exec.range(..=keep_from).map(|(s, e)| (*s, e.clone())),
            |s| s > keep_from,
        );
    }
}
