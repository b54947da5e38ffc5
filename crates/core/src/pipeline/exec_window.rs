//! The executed batches a replica still serves receipts from (§3.3).
//!
//! [`ExecWindow`] is the one owner of what a receipt re-fetch reads: the
//! executed batches, shared behind `Arc`, and a `tx_hash → (seq,
//! position)` locator over their transactions. Only its methods insert or
//! drop a batch, and each drop un-indexes exactly the batches it removes,
//! so a locator entry never outlives its batch: a view change drops the
//! rolled-back tail ([`ExecWindow::drop_after`]), raising the rollback
//! floor what falls out of the window ([`ExecWindow::drop_up_to`]).
//!
//! The locator also finds the body of an ordered request: it is the
//! ledger's `Tx` entry at the batch's pre-prepare plus one plus the
//! position (`Replica::request_body`).

use std::collections::{btree_map, BTreeMap, HashMap};
use std::ops::RangeBounds;
use std::sync::Arc;

use ia_ccf_types::{Digest, SeqNum};

use crate::pipeline::BatchExec;
use crate::replica::Replica;

/// Committed batches kept for receipt re-fetch. The window never cuts
/// above the rollback floor, so a rollback always finds its batches.
/// Older transactions are not served; the client asks another replica.
pub(crate) const RETENTION_BATCHES: u64 = 64;

/// Re-fetch counters, read by the benchmark harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReceiptCacheStats {
    /// Re-fetch lookups that found their transaction.
    pub locator_hits: u64,
    /// Re-fetch lookups for unknown or pruned transactions.
    pub locator_misses: u64,
}

/// Executed batches by sequence number, and the locator over them.
#[derive(Debug, Default)]
pub(crate) struct ExecWindow {
    batches: BTreeMap<SeqNum, Arc<BatchExec>>,
    /// `tx_hash → (seq, position-in-batch)` for every batch in `batches`.
    locator: HashMap<Digest, (SeqNum, u64)>,
    stats: ReceiptCacheStats,
}

impl ExecWindow {
    /// Hold the batch executed at `seq` (replacing one already there) and
    /// index its transactions.
    pub(crate) fn insert(&mut self, seq: SeqNum, exec: BatchExec) {
        if let Some(old) = self.batches.remove(&seq) {
            self.unindex(seq, &old);
        }
        for (pos, et) in exec.txs.iter().enumerate() {
            self.locator.insert(et.request_digest, (seq, pos as u64));
        }
        self.batches.insert(seq, Arc::new(exec));
    }

    pub(crate) fn get(&self, seq: &SeqNum) -> Option<&Arc<BatchExec>> {
        self.batches.get(seq)
    }

    pub(crate) fn contains_key(&self, seq: &SeqNum) -> bool {
        self.batches.contains_key(seq)
    }

    pub(crate) fn range(
        &self,
        seqs: impl RangeBounds<SeqNum>,
    ) -> btree_map::Range<'_, SeqNum, Arc<BatchExec>> {
        self.batches.range(seqs)
    }

    /// Where `tx_hash` sits: its batch's seq and its position in that
    /// batch. Not counted: the counters are for re-fetches.
    pub(crate) fn position(&self, tx_hash: &Digest) -> Option<(SeqNum, u64)> {
        self.locator.get(tx_hash).copied()
    }

    /// The batch holding `tx_hash`, its seq and the transaction's position
    /// in it; counted as a hit or a miss.
    pub(crate) fn locate(&mut self, tx_hash: &Digest) -> Option<(SeqNum, u64, Arc<BatchExec>)> {
        let found = self.locator.get(tx_hash).and_then(|&(seq, pos)| {
            self.batches.get(&seq).map(|exec| (seq, pos, Arc::clone(exec)))
        });
        match found {
            Some(_) => self.stats.locator_hits += 1,
            None => self.stats.locator_misses += 1,
        }
        found
    }

    /// Rollback: drop every batch above `seq`.
    pub(crate) fn drop_after(&mut self, seq: SeqNum) {
        for (s, exec) in self.batches.split_off(&seq.next()) {
            self.unindex(s, &exec);
        }
    }

    /// GC: drop every batch at or below `seq`.
    pub(crate) fn drop_up_to(&mut self, seq: SeqNum) {
        let kept = self.batches.split_off(&seq.next());
        for (s, exec) in std::mem::replace(&mut self.batches, kept) {
            self.unindex(s, &exec);
        }
    }

    /// Remove the batch at `seq`'s locator entries that still point at it:
    /// a transaction re-indexed at a later seq keeps its entry.
    fn unindex(&mut self, seq: SeqNum, exec: &BatchExec) {
        for et in &exec.txs {
            if self.locator.get(&et.request_digest).map(|(s, _)| *s) == Some(seq) {
                self.locator.remove(&et.request_digest);
            }
        }
    }
}

impl Replica {
    /// Re-fetch counters.
    pub fn receipt_cache_stats(&self) -> ReceiptCacheStats {
        self.batch_exec.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::execution::ExecTx;
    use ia_ccf_merkle::MerkleTree;
    use ia_ccf_types::{BatchKind, ClientId, LedgerIdx, TxResult};

    fn tx(label: &str) -> Digest {
        ia_ccf_crypto::hash_bytes(label.as_bytes())
    }

    fn batch(txs: &[&str]) -> BatchExec {
        let txs = txs
            .iter()
            .map(|label| ExecTx {
                request_digest: tx(label),
                client: ClientId(1),
                req_id: 0,
                index: LedgerIdx(0),
                result: TxResult { ok: true, output: Vec::new(), write_set_digest: Digest::zero() },
                is_governance: false,
            })
            .collect();
        BatchExec::new(BatchKind::Regular, txs, MerkleTree::new())
    }

    /// Batches 1..=4 holding `a`, `b c`, `d`, `e`.
    fn window() -> ExecWindow {
        let mut w = ExecWindow::default();
        for (seq, txs) in [(1, &["a"][..]), (2, &["b", "c"]), (3, &["d"]), (4, &["e"])] {
            w.insert(SeqNum(seq), batch(txs));
        }
        w
    }

    /// Where each label is found, `None` for a miss.
    fn found(w: &mut ExecWindow, labels: &[&str]) -> Vec<Option<(u64, u64)>> {
        labels
            .iter()
            .map(|label| {
                w.locate(&tx(label)).map(|(seq, pos, exec)| {
                    assert_eq!(exec.txs[pos as usize].request_digest, tx(label), "{label}");
                    (seq.0, pos)
                })
            })
            .collect()
    }

    #[test]
    fn locate_hits_and_misses_are_counted() {
        let mut w = window();
        assert_eq!(
            found(&mut w, &["a", "c", "e", "zz"]),
            [Some((1, 0)), Some((2, 1)), Some((4, 0)), None]
        );
        let stats = w.stats;
        assert_eq!((stats.locator_hits, stats.locator_misses), (3, 1));
    }

    #[test]
    fn each_drop_unindexes_exactly_its_batches() {
        type Row = (&'static str, fn(&mut ExecWindow), &'static [u64]);
        let rows: [Row; 5] = [
            ("drop_after(2)", |w| w.drop_after(SeqNum(2)), &[1, 2]),
            ("drop_after(0)", |w| w.drop_after(SeqNum(0)), &[]),
            ("drop_after(4)", |w| w.drop_after(SeqNum(4)), &[1, 2, 3, 4]),
            ("drop_up_to(2)", |w| w.drop_up_to(SeqNum(2)), &[3, 4]),
            ("drop_up_to(0)", |w| w.drop_up_to(SeqNum(0)), &[1, 2, 3, 4]),
        ];
        let all = [("a", (1, 0)), ("b", (2, 0)), ("c", (2, 1)), ("d", (3, 0)), ("e", (4, 0))];
        for (name, cut, kept) in rows {
            let mut w = window();
            cut(&mut w);
            let want: Vec<_> =
                all.iter().map(|(_, at)| kept.contains(&at.0).then_some(*at)).collect();
            assert_eq!(found(&mut w, &all.map(|(label, _)| label)), want, "{name}");
            assert_eq!(w.range(..).map(|(s, _)| s.0).collect::<Vec<_>>(), kept, "{name}");
            assert_eq!(w.locator.len(), want.iter().flatten().count(), "{name}: stale entries");
        }
    }

    #[test]
    fn a_transaction_reindexed_later_survives_dropping_the_earlier_seq() {
        let mut w = window();
        w.insert(SeqNum(5), batch(&["x", "a"]));
        w.drop_up_to(SeqNum(1));
        assert_eq!(found(&mut w, &["a"]), [Some((5, 1))]);
        assert!(w.get(&SeqNum(1)).is_none());
        // Replacing a batch in place un-indexes what it held.
        w.insert(SeqNum(5), batch(&["y"]));
        assert_eq!(found(&mut w, &["a", "x", "y"]), [None, None, Some((5, 0))]);
    }
}
