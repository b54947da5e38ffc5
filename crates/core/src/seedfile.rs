//! The on-disk seed checkpoint of a durable fast-path recoveree.
//!
//! When a checkpoint-seeded recovery succeeds (the verified `KvCheckpoint`
//! plus Merkle frontier replace the replica's state, §3.4), a replica
//! running with a `data_dir` persists exactly what it verified into
//! `checkpoint.cp` next to its suffix segment files. On the replica's
//! *next* crash, [`crate::Replica::restart_from_dir`] reads this file
//! back, re-runs the same verification chain against the pinned
//! digests — which were agreed in-band through `f+1` matching mark-batch
//! checkpoint offers — and restarts locally with **zero network bytes
//! for the prefix**.
//!
//! The file is written atomically (tmp + fsync + rename + directory
//! fsync) and is entirely self-contained: besides the checkpoint pin and
//! payload it stores the genesis entry bytes (the restart path must
//! rebuild the service configuration and `H(gt)` without a ledger prefix).

use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::Path;

use ia_ccf_ledger::CHECKPOINT_FILE;
use ia_ccf_types::{CheckpointPayload, CheckpointPin, Reader, Wire};

use crate::checkpoint::CheckpointRecord;

const MAGIC: &[u8; 16] = b"IACCF-SEED-CP-02";

/// The persisted form of a verified checkpoint seed: the input
/// [`crate::Replica`]'s checkpoint restore takes — the pin agreed in-band
/// plus the payload that must reproduce it — and the genesis entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedCheckpointFile {
    /// The agreed checkpoint (the mark batch's `f+1` matching offers).
    pub pin: CheckpointPin,
    /// Encoded genesis ledger entry (rebuilds the configuration and
    /// `H(gt)` locally).
    pub genesis_entry: Vec<u8>,
    /// What the restore verified; its `ledger_len` is the base of the
    /// suffix ledger and of the suffix segment run.
    pub payload: CheckpointPayload,
}

impl SeedCheckpointFile {
    /// Serialize: the magic, then pin, genesis entry and payload in their
    /// wire encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        self.pin.encode(&mut out);
        self.genesis_entry.encode(&mut out);
        self.payload.encode(&mut out);
        out
    }

    /// Decode [`SeedCheckpointFile::to_bytes`]. Purely structural —
    /// truncated, oversized or trailing bytes reject; the pin check is
    /// [`SeedCheckpointFile::load`]'s job.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut r = Reader::new(bytes.strip_prefix(MAGIC.as_slice())?);
        let file = SeedCheckpointFile {
            pin: CheckpointPin::decode(&mut r).ok()?,
            genesis_entry: Vec::<u8>::decode(&mut r).ok()?,
            payload: CheckpointPayload::decode(&mut r).ok()?,
        };
        (r.remaining() == 0).then_some(file)
    }

    /// Write to `dir/checkpoint.cp` crash-atomically: tmp file, fsync,
    /// rename, directory fsync. A crash mid-write leaves either the old
    /// file or none — never a torn seed.
    pub fn write_atomic(&self, dir: &Path) -> io::Result<()> {
        let tmp = dir.join("checkpoint.cp.tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(&self.to_bytes())?;
        f.sync_all()?;
        fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
        File::open(dir)?.sync_all()
    }

    /// Load `dir/checkpoint.cp` if present and its payload passes the pin
    /// check ([`CheckpointRecord::pinned`]) — bit rot or tampering in any
    /// section fails here before the restart path commits to the seed.
    /// Returns `Ok(None)` when the file is absent; undecodable or
    /// pin-inconsistent contents are an error (the directory claims a
    /// seeded layout it cannot back).
    pub fn load(dir: &Path) -> io::Result<Option<Self>> {
        let bytes = match fs::read(dir.join(CHECKPOINT_FILE)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let seed = Self::from_bytes(&bytes)
            .ok_or_else(|| io::Error::other("seed checkpoint file does not decode"))?;
        CheckpointRecord::pinned(&seed.pin, &seed.payload).map_err(io::Error::other)?;
        Ok(Some(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_merkle::Frontier;
    use ia_ccf_types::{Digest, SeqNum};

    fn sample() -> SeedCheckpointFile {
        let mut kv = ia_ccf_kv::KvStore::new();
        kv.begin_tx().unwrap();
        kv.put(b"k".to_vec(), b"v".to_vec()).unwrap();
        kv.commit_tx().unwrap();
        let mut frontier = Frontier::new();
        frontier.append(ia_ccf_crypto::hash_bytes(b"leaf"));
        let record = CheckpointRecord {
            seq: SeqNum(40),
            kv: kv.checkpoint(),
            frontier,
            ledger_len: 123,
            next_tx_index: 99,
        };
        SeedCheckpointFile {
            pin: record.pin(),
            genesis_entry: vec![1, 2, 3],
            payload: record.payload(vec![vec![4, 5], vec![6]]),
        }
    }

    fn pin_holds(seed: &SeedCheckpointFile) -> bool {
        CheckpointRecord::pinned(&seed.pin, &seed.payload).is_ok()
    }

    #[test]
    fn roundtrip_and_digest_check() {
        let seed = sample();
        assert!(pin_holds(&seed));
        let decoded = SeedCheckpointFile::from_bytes(&seed.to_bytes()).unwrap();
        assert_eq!(decoded, seed);
        // Truncations never decode.
        let bytes = seed.to_bytes();
        for cut in 0..bytes.len() {
            assert!(SeedCheckpointFile::from_bytes(&bytes[..cut]).is_none(), "cut {cut}");
        }
        // Trailing garbage rejects.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(SeedCheckpointFile::from_bytes(&extended).is_none());
    }

    #[test]
    fn digest_check_catches_payload_rot() {
        let mut seed = sample();
        // Flip a byte deep inside the KV payload.
        let n = seed.payload.kv_bytes.len();
        seed.payload.kv_bytes[n - 1] ^= 0xff;
        assert!(!pin_holds(&seed));

        let mut seed = sample();
        seed.pin.tree_root = Digest::zero();
        assert!(!pin_holds(&seed));
    }

    #[test]
    fn atomic_write_and_load() {
        let dir = std::env::temp_dir()
            .join(format!("iaccf-seedfile-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        assert!(SeedCheckpointFile::load(&dir).unwrap().is_none(), "absent file is None");
        let seed = sample();
        seed.write_atomic(&dir).unwrap();
        assert_eq!(SeedCheckpointFile::load(&dir).unwrap().unwrap(), seed);
        // A corrupted file is a hard error, not a silent None.
        fs::write(dir.join(CHECKPOINT_FILE), b"garbage").unwrap();
        assert!(SeedCheckpointFile::load(&dir).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
