//! Checkpoints (§3.4).
//!
//! Every `C` sequence numbers a replica snapshots its key-value store and
//! the ledger tree frontier. The *digest* of the checkpoint at `s` is
//! agreed in-band: the batch at `s + C` carries a checkpoint system
//! transaction recording it, and backups refuse the pre-prepare unless
//! their own digest matches. Receipts reference the *penultimate*
//! checkpoint digest `d_C`, which bounds audit replay to at most `2C`
//! sequence numbers.

use std::collections::BTreeMap;

use ia_ccf_kv::KvCheckpoint;
use ia_ccf_merkle::Frontier;
use ia_ccf_types::{CheckpointPayload, CheckpointPin, Digest, SeqNum};

/// One checkpoint: the KV snapshot plus the ledger-tree frontier and the
/// ledger length, taken after executing batch `seq`.
#[derive(Debug, Clone)]
pub struct CheckpointRecord {
    /// Sequence number the checkpoint was taken at.
    pub seq: SeqNum,
    /// Key-value store snapshot with digest.
    pub kv: KvCheckpoint,
    /// Ledger tree `M` frontier at that point.
    pub frontier: Frontier,
    /// Ledger length (entry count) at that point.
    pub ledger_len: u64,
    /// Logical transaction index counter at that point.
    pub next_tx_index: u64,
}

impl CheckpointRecord {
    /// The pin a tip reply offers for this checkpoint.
    pub fn pin(&self) -> CheckpointPin {
        CheckpointPin {
            seq: self.seq,
            kv_digest: self.kv.digest(),
            tree_root: self.frontier.root(),
        }
    }

    /// The payload a checkpoint reply carries for it, given the checkpoint
    /// batch's own encoded `[pre-prepare, tx*]` entries.
    pub fn payload(&self, seed_entries: Vec<Vec<u8>>) -> CheckpointPayload {
        CheckpointPayload {
            kv_bytes: self.kv.to_bytes(),
            frontier: self.frontier.to_bytes(),
            ledger_len: self.ledger_len,
            next_tx_index: self.next_tx_index,
            seed_entries,
        }
    }

    /// The pin check, whichever door the payload came through: the KV
    /// bytes are a canonical body (`KvCheckpoint::from_bytes`) that hashes
    /// to its advertised digest, and that digest is the pinned one; the
    /// frontier bytes decode to a frontier with the pinned root. Returns
    /// the record the payload describes.
    pub(crate) fn pinned(
        pin: &CheckpointPin,
        payload: &CheckpointPayload,
    ) -> Result<Self, &'static str> {
        let kv = KvCheckpoint::from_bytes(&payload.kv_bytes).ok_or("undecodable KV checkpoint")?;
        if !kv.verify_integrity() {
            return Err("KV digest lies about contents");
        }
        if kv.digest() != pin.kv_digest {
            return Err("KV digest differs from the pinned digest");
        }
        let frontier = Frontier::from_bytes(&payload.frontier).ok_or("undecodable frontier")?;
        if frontier.root() != pin.tree_root {
            return Err("frontier root differs from the pinned root");
        }
        Ok(CheckpointRecord {
            seq: pin.seq,
            kv,
            frontier,
            ledger_len: payload.ledger_len,
            next_tx_index: payload.next_tx_index,
        })
    }
}

/// A replica's recent checkpoints: the one holder of checkpoint state,
/// digests included.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    by_seq: BTreeMap<SeqNum, CheckpointRecord>,
}

impl CheckpointStore {
    /// Insert a checkpoint and drop every one taken more than `2 · interval`
    /// sequence numbers before it. Nothing older is read again: the mark
    /// at `s` reads `s − C` or the switch checkpoint just before it, and
    /// the pre-prepare at `s` reads `d_C` at `C · (⌈s/C⌉ − 2) ≥ s − 2C`,
    /// where `s` is never below the newest checkpoint. A count would not
    /// do: a switch checkpoint adds a record inside an interval.
    pub fn insert(&mut self, record: CheckpointRecord, interval: u64) {
        let keep_from = SeqNum(record.seq.0.saturating_sub(2 * interval));
        self.by_seq.insert(record.seq, record);
        self.by_seq = self.by_seq.split_off(&keep_from);
    }

    /// The checkpoint at exactly `seq`.
    pub fn at(&self, seq: SeqNum) -> Option<&CheckpointRecord> {
        self.by_seq.get(&seq)
    }

    /// The KV digest of the checkpoint at `seq`, if retained.
    pub fn digest_at(&self, seq: SeqNum) -> Option<Digest> {
        self.by_seq.get(&seq).map(|r| r.kv.digest())
    }

    /// The most recent checkpoint at or before `seq`.
    pub fn latest_at_or_before(&self, seq: SeqNum) -> Option<&CheckpointRecord> {
        self.by_seq.range(..=seq).next_back().map(|(_, r)| r)
    }

    /// Sequence numbers of retained checkpoints, ascending.
    pub fn seqs(&self) -> Vec<SeqNum> {
        self.by_seq.keys().copied().collect()
    }

    /// Drop checkpoints newer than `seq` (rollback during view change).
    pub fn truncate_after(&mut self, seq: SeqNum) {
        self.by_seq.retain(|s, _| *s <= seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_kv::KvStore;

    fn record(seq: u64) -> CheckpointRecord {
        CheckpointRecord {
            seq: SeqNum(seq),
            kv: KvStore::new().checkpoint(),
            frontier: Frontier::new(),
            ledger_len: seq * 3,
            next_tx_index: seq * 2,
        }
    }

    /// Records more than `2C` before the newest go, and a switch
    /// checkpoint inside an interval (15, `C` = 10) pushes nothing out:
    /// the pre-prepare at 20 reads `d_C` at 0.
    #[test]
    fn retention_evicts_oldest() {
        let mut store = CheckpointStore::default();
        for seq in [0, 10, 15, 20] {
            store.insert(record(seq), 10);
        }
        assert_eq!(store.seqs(), vec![SeqNum(0), SeqNum(10), SeqNum(15), SeqNum(20)]);
        store.insert(record(30), 10);
        assert!(store.at(SeqNum(0)).is_none());
        assert_eq!(store.seqs(), vec![SeqNum(10), SeqNum(15), SeqNum(20), SeqNum(30)]);
    }

    #[test]
    fn latest_at_or_before_picks_correctly() {
        let mut store = CheckpointStore::default();
        store.insert(record(10), 10);
        store.insert(record(20), 10);
        assert_eq!(store.latest_at_or_before(SeqNum(15)).unwrap().seq, SeqNum(10));
        assert_eq!(store.latest_at_or_before(SeqNum(20)).unwrap().seq, SeqNum(20));
        assert!(store.latest_at_or_before(SeqNum(9)).is_none());
    }

    #[test]
    fn truncate_after_drops_new() {
        let mut store = CheckpointStore::default();
        store.insert(record(10), 10);
        store.insert(record(20), 10);
        store.truncate_after(SeqNum(15));
        assert!(store.at(SeqNum(20)).is_none());
        assert!(store.at(SeqNum(10)).is_some());
    }
}
