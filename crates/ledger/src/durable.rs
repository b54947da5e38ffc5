//! Disk-backed ledger segments.
//!
//! The paper assumes replicas keep the ledger on stable storage so a
//! crashed replica restarts from its local prefix and re-pages only the
//! suffix (§3.4). This module is that storage layer: a directory of
//! append-only segment files, written chunk-at-a-time, fsynced in batches
//! on the [`fsync_interval_batches`] knob, and repaired at open time by
//! truncating any torn trailing chunk.
//!
//! # Chunk framing and the torn-tail contract
//!
//! Every append call becomes one *chunk*:
//!
//! ```text
//! chunk := payload-len:u32  entry-count:u32  (entry-len:u32 entry-bytes)*
//! ```
//!
//! The live replica appends at batch granularity (the evidence pair and
//! the `[PrePrepare, Tx...]` run are each one `append_batch` call, and
//! view-change entries are single appends), so a chunk never splits a
//! batch. A crash mid-write leaves a *prefix* of a chunk on disk; the
//! open-time scan detects it (missing payload bytes, or an entry that no
//! longer decodes) and truncates the file back to the chunk boundary —
//! a torn chunk is therefore **never parsed into state**. The decoded
//! prefix is handed to the caller, which applies the structural
//! (grammar-level) repair on top.
//!
//! Chunk framing also means every historical truncation point (the view
//! change path only ever drops whole entries that were appended
//! individually) lands on a chunk boundary; for the general case
//! [`DurableLog::truncate_entries`] truncates to the chunk *floor* and
//! reports how many entries survived so the caller can re-append the
//! remainder.
//!
//! # Suffix logs and the seeded layout
//!
//! A checkpoint-seeded replica holds a *suffix* ledger whose first entry
//! sits at an absolute index `base > 0`. The on-disk form records that
//! base in a tiny `manifest` file (magic + `base:u64`, written atomically
//! via tmp + rename + directory fsync): segment files only ever store
//! relative positions, so the manifest is the single source of truth for
//! where the run begins. The seeded directory layout is
//!
//! ```text
//! data_dir/
//!   checkpoint.cp        verified KvCheckpoint + frontier + seed batch
//!   manifest             base index of the segment run (absent ⇒ 0)
//!   ledger-000000.seg …  suffix segments, chunk-framed as always
//!   archive/upto-NNN/    retired pre-crash prefix segments
//! ```
//!
//! Retirement ([`DurableLog::retire_to_archive`]) renames the stale
//! prefix segments highest-index-first, so a crash mid-retirement leaves
//! a shorter but valid full-history prefix, never a gapped one; the
//! manifest write in [`DurableLog::create_suffix`] is the commit point
//! after which the directory reads as a suffix log.
//!
//! [`fsync_interval_batches`]: DurableLog::open

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use ia_ccf_types::{LedgerEntry, Wire};

/// Manifest file recording the base entry index of the segment run.
pub const MANIFEST_FILE: &str = "manifest";
/// Seed checkpoint file a fast-path recoveree persists next to its
/// suffix segments (written by the core crate; named here because it is
/// part of the durable directory layout).
pub const CHECKPOINT_FILE: &str = "checkpoint.cp";
/// Directory retired pre-crash prefix segments are archived into.
pub const ARCHIVE_DIR: &str = "archive";

const MANIFEST_MAGIC: &[u8; 16] = b"IACCF-SEG-BASE-1";

/// Where one entry's encoded bytes live on disk.
#[derive(Debug, Clone, Copy)]
struct EntryLoc {
    file: u32,
    offset: u64,
    len: u32,
}

/// One chunk's extent: which file, where it ends there, and through which
/// entry it reaches — what truncation needs to find the chunk floor.
#[derive(Debug, Clone, Copy)]
struct ChunkMeta {
    file: u32,
    end: u64,
    entry_end: u64,
}

/// An append-only, chunk-framed, crash-repairing ledger store.
#[derive(Debug)]
pub struct DurableLog {
    dir: PathBuf,
    files: Vec<File>,
    /// Byte length of each file (the tail file's may exceed `synced`).
    file_lens: Vec<u64>,
    entries: Vec<EntryLoc>,
    chunks: Vec<ChunkMeta>,
    /// Absolute ledger index of the first entry this segment run holds.
    base: u64,
    /// Total bytes in completed (non-tail) files — all durable, since a
    /// roll fsyncs the old tail before moving on.
    completed_bytes: u64,
    /// Bytes of the tail file known to have reached stable storage.
    synced: u64,
    /// Batches (PrePrepare-bearing chunks) appended since the last fsync.
    unsynced_batches: u64,
    fsync_interval_batches: u64,
    roll_bytes: u64,
    /// Test hook: fail the next write-path operation with an injected
    /// I/O error.
    fail_next_write: bool,
}

fn seg_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("ledger-{idx:06}.seg"))
}

fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

fn read_manifest(dir: &Path) -> io::Result<u64> {
    match fs::read(dir.join(MANIFEST_FILE)) {
        Ok(bytes) => {
            if bytes.len() == 24 && &bytes[..16] == MANIFEST_MAGIC {
                Ok(u64::from_le_bytes(bytes[16..24].try_into().unwrap()))
            } else {
                Err(io::Error::other("corrupt segment manifest"))
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(e),
    }
}

fn write_manifest(dir: &Path, base: u64) -> io::Result<()> {
    let tmp = dir.join("manifest.tmp");
    let mut bytes = Vec::with_capacity(24);
    bytes.extend_from_slice(MANIFEST_MAGIC);
    bytes.extend_from_slice(&base.to_le_bytes());
    let mut file = File::create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
    sync_dir(dir)
}

impl DurableLog {
    /// Default segment roll size; page serving and repair never need to
    /// touch more than one file's tail.
    pub const DEFAULT_ROLL_BYTES: u64 = 8 << 20;

    /// Open (or create) the log under `dir`, repair any torn tail, and
    /// return the log together with the decoded entry prefix that
    /// survived. A fresh directory yields an empty log.
    pub fn open(
        dir: &Path,
        fsync_interval_batches: u64,
    ) -> io::Result<(Self, Vec<LedgerEntry>)> {
        Self::open_with_roll(dir, fsync_interval_batches, Self::DEFAULT_ROLL_BYTES)
    }

    /// [`DurableLog::open`] with an explicit roll size — tests use a tiny
    /// one to exercise multi-file logs without megabytes of entries.
    pub fn open_with_roll(
        dir: &Path,
        fsync_interval_batches: u64,
        roll_bytes: u64,
    ) -> io::Result<(Self, Vec<LedgerEntry>)> {
        fs::create_dir_all(dir)?;
        let base = read_manifest(dir)?;
        let mut log = DurableLog {
            dir: dir.to_path_buf(),
            files: Vec::new(),
            file_lens: Vec::new(),
            entries: Vec::new(),
            chunks: Vec::new(),
            base,
            completed_bytes: 0,
            synced: 0,
            unsynced_batches: 0,
            fsync_interval_batches: fsync_interval_batches.max(1),
            roll_bytes: roll_bytes.max(1),
            fail_next_write: false,
        };
        let mut decoded = Vec::new();
        let mut idx = 0;
        loop {
            let path = seg_path(dir, idx);
            if !path.exists() {
                break;
            }
            let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            let good = log.scan_file(idx as u32, &bytes, &mut decoded);
            if good < bytes.len() as u64 {
                // Torn (or corrupt) tail: truncate back to the last chunk
                // boundary so the partial chunk can never be re-read, and
                // drop any later files — they were written after the torn
                // point and nothing before them survived.
                file.set_len(good)?;
                file.sync_all()?;
                log.files.push(file);
                log.file_lens.push(good);
                let mut later = idx + 1;
                while seg_path(dir, later).exists() {
                    fs::remove_file(seg_path(dir, later))?;
                    later += 1;
                }
                sync_dir(dir)?;
                break;
            }
            log.files.push(file);
            log.file_lens.push(good);
            idx += 1;
        }
        if log.files.is_empty() {
            log.push_new_file()?;
        }
        log.completed_bytes =
            log.file_lens[..log.file_lens.len() - 1].iter().sum();
        log.synced = *log.file_lens.last().expect("at least one file");
        Ok((log, decoded))
    }

    /// Create a fresh *suffix* log under `dir` whose first entry will sit
    /// at absolute ledger index `base`: writes the manifest (the commit
    /// point of the seeded layout) and opens the empty run. Fails if the
    /// directory still holds segment files — the caller retires those via
    /// [`DurableLog::retire_to_archive`] first.
    pub fn create_suffix(
        dir: &Path,
        fsync_interval_batches: u64,
        roll_bytes: u64,
        base: u64,
    ) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        // Tolerate *empty* leftovers: a probing `open` on a
        // mid-transition directory (retired but no manifest yet) creates
        // an empty seg-0 before the caller detects the seeded layout.
        // Anything with bytes in it is real state and must be retired
        // first.
        let mut n = 0;
        while seg_path(dir, n).exists() {
            if fs::metadata(seg_path(dir, n))?.len() > 0 {
                return Err(io::Error::other(
                    "suffix log directory still holds segment files",
                ));
            }
            n += 1;
        }
        for idx in 0..n {
            fs::remove_file(seg_path(dir, idx))?;
        }
        write_manifest(dir, base)?;
        let (log, existing) = Self::open_with_roll(dir, fsync_interval_batches, roll_bytes)?;
        debug_assert!(existing.is_empty());
        Ok(log)
    }

    /// Retire every segment file (and any stale manifest) under `dir`
    /// into `archive/upto-<base>/`, fsyncing both directories. Renames
    /// run highest-index-first so a crash mid-retirement leaves a shorter
    /// but valid full-history prefix, never a gapped run.
    pub fn retire_to_archive(dir: &Path, upto_base: u64) -> io::Result<()> {
        let mut n = 0;
        while seg_path(dir, n).exists() {
            n += 1;
        }
        let stale_manifest = dir.join(MANIFEST_FILE);
        if n == 0 && !stale_manifest.exists() {
            return Ok(());
        }
        let archive = dir.join(ARCHIVE_DIR).join(format!("upto-{upto_base:012}"));
        fs::create_dir_all(&archive)?;
        for idx in (0..n).rev() {
            fs::rename(seg_path(dir, idx), archive.join(format!("ledger-{idx:06}.seg")))?;
        }
        if stale_manifest.exists() {
            fs::rename(&stale_manifest, archive.join(MANIFEST_FILE))?;
        }
        File::open(&archive)?.sync_all()?;
        sync_dir(dir)
    }

    /// Whether `dir` already holds durable state (segment files, a
    /// manifest, or a seed checkpoint) from a previous replica instance.
    pub fn dir_is_occupied(dir: &Path) -> bool {
        seg_path(dir, 0).exists()
            || dir.join(MANIFEST_FILE).exists()
            || dir.join(CHECKPOINT_FILE).exists()
    }

    /// Parse one file's bytes, recording entry/chunk locations and
    /// decoding entries into `decoded`. Returns the byte length of the
    /// valid chunk prefix.
    fn scan_file(&mut self, file: u32, bytes: &[u8], decoded: &mut Vec<LedgerEntry>) -> u64 {
        let mut pos = 0usize;
        loop {
            let chunk_start = pos;
            let Some(header) = bytes.get(pos..pos + 8) else { return chunk_start as u64 };
            let payload_len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
            let entry_count = u32::from_le_bytes(header[4..].try_into().unwrap()) as usize;
            pos += 8;
            let Some(payload) = bytes.get(pos..pos + payload_len) else {
                return chunk_start as u64;
            };
            // Parse the payload tentatively: nothing is committed to the
            // log's state unless the whole chunk is well formed.
            let mut locs = Vec::with_capacity(entry_count);
            let mut parsed = Vec::with_capacity(entry_count);
            let mut p = 0usize;
            for _ in 0..entry_count {
                let Some(lb) = payload.get(p..p + 4) else { return chunk_start as u64 };
                let elen = u32::from_le_bytes(lb.try_into().unwrap()) as usize;
                p += 4;
                let Some(ebytes) = payload.get(p..p + elen) else { return chunk_start as u64 };
                let Ok(entry) = LedgerEntry::from_bytes(ebytes) else {
                    return chunk_start as u64;
                };
                locs.push(EntryLoc {
                    file,
                    offset: (pos + p) as u64,
                    len: elen as u32,
                });
                parsed.push(entry);
                p += elen;
            }
            if p != payload_len {
                return chunk_start as u64;
            }
            pos += payload_len;
            self.entries.extend(locs);
            decoded.extend(parsed);
            self.chunks.push(ChunkMeta {
                file,
                end: pos as u64,
                entry_end: self.entries.len() as u64,
            });
        }
    }

    fn push_new_file(&mut self) -> io::Result<()> {
        let idx = self.files.len();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(seg_path(&self.dir, idx))?;
        sync_dir(&self.dir)?;
        self.completed_bytes += self.file_lens.last().copied().unwrap_or(0);
        self.files.push(file);
        self.file_lens.push(0);
        self.synced = 0;
        Ok(())
    }

    /// Number of entries the log holds (relative to [`DurableLog::base`]).
    pub fn entry_count(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Absolute ledger index of the first entry this segment run
    /// represents: `0` for a full-history log, the seed checkpoint's
    /// ledger length for a suffix log.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Global byte offset (across *all* segment files) known to have
    /// reached stable storage. A crash may lose anything in
    /// `[synced_len, written_len)` — which always lies inside the tail
    /// file, since a roll fsyncs the outgoing file; the crash harness
    /// truncates into that window to emulate losing the OS page cache,
    /// using [`DurableLog::completed_len`] to map the global offset onto
    /// the tail file.
    pub fn synced_len(&self) -> u64 {
        self.completed_bytes + self.synced
    }

    /// Global byte offset written (not necessarily synced) across all
    /// segment files.
    pub fn written_len(&self) -> u64 {
        self.completed_bytes + *self.file_lens.last().expect("at least one file")
    }

    /// Total bytes in completed (non-tail) segment files — the global
    /// offset at which the tail file begins.
    pub fn completed_len(&self) -> u64 {
        self.completed_bytes
    }

    /// Path of the tail segment file (the only file with unsynced bytes).
    pub fn tail_file_path(&self) -> PathBuf {
        seg_path(&self.dir, self.files.len() - 1)
    }

    /// Test hook: make the next write-path call (`append_chunk` or
    /// `truncate_entries`) fail with an injected I/O error, so harnesses
    /// can exercise the graceful durability-detach path without a real
    /// disk fault.
    #[doc(hidden)]
    pub fn inject_write_error(&mut self) {
        self.fail_next_write = true;
    }

    fn take_injected_error(&mut self) -> io::Result<()> {
        if self.fail_next_write {
            self.fail_next_write = false;
            return Err(io::Error::other("injected write failure"));
        }
        Ok(())
    }

    /// Append one chunk of entries. `counts_as_batch` marks chunks that
    /// carry a pre-prepare — the unit [`fsync_interval_batches`] counts.
    /// Rolls to a new file when the tail exceeds the roll size, and
    /// fsyncs when the batch interval is reached (and always on roll, so
    /// completed files are durable before the log moves on).
    ///
    /// [`fsync_interval_batches`]: DurableLog::open
    pub fn append_chunk(
        &mut self,
        entries: &[LedgerEntry],
        counts_as_batch: bool,
    ) -> io::Result<()> {
        self.take_injected_error()?;
        if *self.file_lens.last().unwrap() >= self.roll_bytes {
            self.fsync_tail()?;
            self.push_new_file()?;
        }
        let file_idx = (self.files.len() - 1) as u32;
        let base = *self.file_lens.last().unwrap();
        let mut payload = Vec::new();
        let mut locs = Vec::with_capacity(entries.len());
        for entry in entries {
            let ebytes = entry.to_bytes();
            locs.push(EntryLoc {
                file: file_idx,
                // + 8 for the chunk header that precedes the payload.
                offset: base + 8 + (payload.len() + 4) as u64,
                len: ebytes.len() as u32,
            });
            payload.extend_from_slice(&(ebytes.len() as u32).to_le_bytes());
            payload.extend_from_slice(&ebytes);
        }
        let mut chunk = Vec::with_capacity(8 + payload.len());
        chunk.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        chunk.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        chunk.extend_from_slice(&payload);
        let file = self.files.last_mut().unwrap();
        file.seek(SeekFrom::Start(base))?;
        file.write_all(&chunk)?;
        self.entries.extend(locs);
        *self.file_lens.last_mut().unwrap() = base + chunk.len() as u64;
        self.chunks.push(ChunkMeta {
            file: file_idx,
            end: base + chunk.len() as u64,
            entry_end: self.entries.len() as u64,
        });
        if counts_as_batch {
            self.unsynced_batches += 1;
            if self.unsynced_batches >= self.fsync_interval_batches {
                self.fsync_tail()?;
            }
        }
        Ok(())
    }

    /// Force everything written so far onto stable storage.
    pub fn fsync_tail(&mut self) -> io::Result<()> {
        self.files.last().unwrap().sync_all()?;
        self.synced = *self.file_lens.last().unwrap();
        self.unsynced_batches = 0;
        Ok(())
    }

    /// Truncate the log so at most `keep` entries remain (`keep` is
    /// relative to the log's base, like [`DurableLog::entry_count`]).
    /// Truncation happens at chunk granularity: the log is cut at the
    /// last chunk boundary not exceeding `keep` and the number of
    /// surviving entries (the chunk floor, ≤ `keep`) is returned — the
    /// caller re-appends the gap from its in-memory copy. In practice
    /// every live truncation (the view-change rollback drops
    /// individually-appended entries) already lands on a boundary.
    pub fn truncate_entries(&mut self, keep: u64) -> io::Result<u64> {
        self.take_injected_error()?;
        while self.chunks.last().is_some_and(|c| c.entry_end > keep) {
            self.chunks.pop();
        }
        let floor = self.chunks.last().map_or(0, |c| c.entry_end);
        self.entries.truncate(floor as usize);
        let (keep_file, keep_len) = match self.chunks.last() {
            Some(c) => (c.file as usize, c.end),
            None => (0, 0),
        };
        while self.files.len() > keep_file + 1 {
            self.files.pop();
            self.file_lens.pop();
            fs::remove_file(seg_path(&self.dir, self.files.len()))?;
        }
        let file = self.files.last_mut().unwrap();
        file.set_len(keep_len)?;
        file.sync_all()?;
        *self.file_lens.last_mut().unwrap() = keep_len;
        self.completed_bytes =
            self.file_lens[..self.file_lens.len() - 1].iter().sum();
        self.synced = keep_len;
        self.unsynced_batches = 0;
        sync_dir(&self.dir)?;
        Ok(floor)
    }

    /// Read the encoded bytes of entries `[from, to_exclusive)` (indices
    /// relative to the log's base) straight from the segment files — the
    /// page-serving read path. Out-of-range indices clamp to what the log
    /// holds.
    pub fn read_encoded_range(&self, from: u64, to_exclusive: u64) -> io::Result<Vec<Vec<u8>>> {
        let to = to_exclusive.min(self.entries.len() as u64);
        let mut out = Vec::with_capacity(to.saturating_sub(from) as usize);
        for loc in self.entries.iter().skip(from as usize).take(to.saturating_sub(from) as usize)
        {
            let mut buf = vec![0u8; loc.len as usize];
            self.files[loc.file as usize].read_exact_at(&mut buf, loc.offset)?;
            out.push(buf);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_types::{Nonce, SeqNum};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Minimal std-only tempdir with drop cleanup.
    struct TestDir(PathBuf);
    impl TestDir {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "iaccf-durable-{tag}-{}-{n}",
                std::process::id()
            ));
            fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }
    }
    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn nonce_entry(s: u64) -> LedgerEntry {
        LedgerEntry::Nonces { seq: SeqNum(s), nonces: vec![Nonce([s as u8; 16])] }
    }

    #[test]
    fn append_reopen_roundtrip() {
        let td = TestDir::new("roundtrip");
        let all: Vec<LedgerEntry> = (0..20).map(nonce_entry).collect();
        {
            let (mut log, prefix) = DurableLog::open(&td.0, 1).unwrap();
            assert!(prefix.is_empty());
            for chunk in all.chunks(3) {
                log.append_chunk(chunk, true).unwrap();
            }
            assert_eq!(log.entry_count(), 20);
        }
        let (log, prefix) = DurableLog::open(&td.0, 1).unwrap();
        assert_eq!(prefix, all);
        assert_eq!(log.entry_count(), 20);
        assert_eq!(log.base(), 0, "manifest-less directory reads as base 0");
        // The disk read path serves the same bytes the entries encode to.
        let encoded = log.read_encoded_range(5, 9).unwrap();
        for (bytes, entry) in encoded.iter().zip(&all[5..9]) {
            assert_eq!(&LedgerEntry::from_bytes(bytes).unwrap(), entry);
        }
    }

    #[test]
    fn rolls_across_files_and_reopens() {
        let td = TestDir::new("roll");
        let all: Vec<LedgerEntry> = (0..64).map(nonce_entry).collect();
        {
            let (mut log, _) = DurableLog::open_with_roll(&td.0, 1, 128).unwrap();
            for e in &all {
                log.append_chunk(std::slice::from_ref(e), true).unwrap();
            }
            assert!(log.files.len() > 1, "tiny roll size must produce several files");
        }
        let (log, prefix) = DurableLog::open_with_roll(&td.0, 1, 128).unwrap();
        assert_eq!(prefix, all);
        let encoded = log.read_encoded_range(0, 64).unwrap();
        assert_eq!(encoded.len(), 64);
        for (bytes, entry) in encoded.iter().zip(&all) {
            assert_eq!(&LedgerEntry::from_bytes(bytes).unwrap(), entry);
        }
    }

    /// The torn-tail contract, byte by byte: truncating the tail file at
    /// *every* possible length must reopen to a chunk-boundary prefix —
    /// never a partially-parsed chunk, never a lost complete chunk.
    #[test]
    fn torn_tail_byte_sweep() {
        let td = TestDir::new("sweep");
        let all: Vec<LedgerEntry> = (0..12).map(nonce_entry).collect();
        let (chunk_floors, full_len) = {
            let (mut log, _) = DurableLog::open(&td.0, 1).unwrap();
            for chunk in all.chunks(2) {
                log.append_chunk(chunk, true).unwrap();
            }
            let floors: Vec<(u64, u64)> =
                log.chunks.iter().map(|c| (c.end, c.entry_end)).collect();
            (floors, log.written_len())
        };
        let path = seg_path(&td.0, 0);
        let pristine = fs::read(&path).unwrap();
        assert_eq!(pristine.len() as u64, full_len);
        for cut in 0..=pristine.len() {
            fs::write(&path, &pristine[..cut]).unwrap();
            let (log, prefix) = DurableLog::open(&td.0, 1).unwrap();
            // Expected survivors: every chunk wholly inside the cut.
            let want = chunk_floors
                .iter()
                .take_while(|(end, _)| *end <= cut as u64)
                .last()
                .map_or(0, |(_, entries)| *entries);
            assert_eq!(log.entry_count(), want, "cut at byte {cut}");
            assert_eq!(prefix, all[..want as usize], "cut at byte {cut}");
            // Repair must have truncated the file to the floor.
            assert_eq!(
                fs::metadata(&path).unwrap().len(),
                chunk_floors
                    .iter()
                    .take_while(|(end, _)| *end <= cut as u64)
                    .last()
                    .map_or(0, |(end, _)| *end),
                "cut at byte {cut}"
            );
        }
    }

    #[test]
    fn truncate_entries_cuts_at_chunk_floor() {
        let td = TestDir::new("trunc");
        let all: Vec<LedgerEntry> = (0..10).map(nonce_entry).collect();
        let (mut log, _) = DurableLog::open(&td.0, 1).unwrap();
        for chunk in all.chunks(3) {
            log.append_chunk(chunk, true).unwrap();
        }
        // Entry 7 sits mid-chunk (chunks are 0..3, 3..6, 6..9, 9..10):
        // the floor is 6 and the caller re-appends 6..7.
        let floor = log.truncate_entries(7).unwrap();
        assert_eq!(floor, 6);
        log.append_chunk(&all[6..7], true).unwrap();
        assert_eq!(log.entry_count(), 7);
        drop(log);
        let (_, prefix) = DurableLog::open(&td.0, 1).unwrap();
        assert_eq!(prefix, all[..7]);
    }

    #[test]
    fn truncate_entries_drops_later_files() {
        let td = TestDir::new("trunc-files");
        let all: Vec<LedgerEntry> = (0..40).map(nonce_entry).collect();
        let (mut log, _) = DurableLog::open_with_roll(&td.0, 1, 128).unwrap();
        for e in &all {
            log.append_chunk(std::slice::from_ref(e), true).unwrap();
        }
        let n_files = log.files.len();
        assert!(n_files > 2);
        let floor = log.truncate_entries(3).unwrap();
        assert_eq!(floor, 3, "single-entry chunks truncate exactly");
        assert!(!seg_path(&td.0, n_files - 1).exists(), "later files removed");
        drop(log);
        let (log, prefix) = DurableLog::open_with_roll(&td.0, 1, 128).unwrap();
        assert_eq!(prefix, all[..3]);
        // And the log keeps appending fine after the cut.
        drop(log);
        let (mut log, _) = DurableLog::open_with_roll(&td.0, 1, 128).unwrap();
        log.append_chunk(&all[3..4], true).unwrap();
        drop(log);
        let (_, prefix) = DurableLog::open_with_roll(&td.0, 1, 128).unwrap();
        assert_eq!(prefix, all[..4]);
    }

    #[test]
    fn fsync_interval_tracks_synced_watermark() {
        let td = TestDir::new("fsync");
        let (mut log, _) = DurableLog::open(&td.0, 4).unwrap();
        for i in 0..3 {
            log.append_chunk(&[nonce_entry(i)], true).unwrap();
        }
        // Three of four batches in: written has advanced, synced has not.
        assert_eq!(log.synced_len(), 0);
        assert!(log.written_len() > 0);
        log.append_chunk(&[nonce_entry(3)], true).unwrap();
        assert_eq!(log.synced_len(), log.written_len(), "interval reached → fsync");
        // Non-batch chunks (view-change entries) never bump the counter.
        log.append_chunk(&[nonce_entry(4)], false).unwrap();
        assert!(log.synced_len() < log.written_len());
    }

    /// Watermarks are global byte offsets: after a roll they keep
    /// growing monotonically instead of resetting to the new tail file,
    /// and the `[synced, written)` crash window always sits inside the
    /// tail (mapped there by `completed_len`).
    #[test]
    fn watermarks_are_global_across_rolls() {
        let td = TestDir::new("global-marks");
        let (mut log, _) = DurableLog::open_with_roll(&td.0, 4, 128).unwrap();
        let mut last_written = 0;
        let mut total_files_seen = 1;
        for i in 0..64 {
            log.append_chunk(&[nonce_entry(i)], true).unwrap();
            assert!(
                log.written_len() > last_written,
                "global written watermark must be monotonic across rolls"
            );
            last_written = log.written_len();
            assert!(log.synced_len() <= log.written_len());
            assert!(
                log.synced_len() >= log.completed_len(),
                "completed files are always durable: a roll fsyncs the old tail"
            );
            total_files_seen = total_files_seen.max(log.files.len());
        }
        assert!(total_files_seen > 2, "roll size must have produced several files");
        // The written watermark equals the sum of all file lengths on disk.
        let disk_total: u64 = (0..log.files.len())
            .map(|i| fs::metadata(seg_path(&td.0, i)).unwrap().len())
            .sum();
        assert_eq!(log.written_len(), disk_total);
        // And reopening reports the same global offsets.
        drop(log);
        let (log, _) = DurableLog::open_with_roll(&td.0, 4, 128).unwrap();
        assert_eq!(log.written_len(), disk_total);
        assert_eq!(log.synced_len(), disk_total, "a clean reopen is fully synced");
    }

    /// A rollback whose floor lands in an *earlier* segment file, under a
    /// crash sweep of the re-appended tail: every cut point must reopen
    /// to a consistent chunk-boundary prefix of the post-rollback
    /// history.
    #[test]
    fn truncate_across_file_boundary_under_crash_sweep() {
        let td = TestDir::new("trunc-boundary");
        let all: Vec<LedgerEntry> = (0..40).map(nonce_entry).collect();
        let rewritten: Vec<LedgerEntry> = (100..106).map(nonce_entry).collect();
        let (mut log, _) = DurableLog::open_with_roll(&td.0, 1, 128).unwrap();
        for e in &all {
            log.append_chunk(std::slice::from_ref(e), true).unwrap();
        }
        let n_files = log.files.len();
        assert!(n_files > 2);
        // Pick a keep-count that lives in the first file: the truncation
        // spans every later segment file.
        let keep = log
            .chunks
            .iter()
            .take_while(|c| c.file == 0)
            .last()
            .map(|c| c.entry_end)
            .unwrap();
        let floor = log.truncate_entries(keep).unwrap();
        assert_eq!(floor, keep, "single-entry chunks truncate exactly");
        assert_eq!(log.files.len(), 1, "later files dropped by the rollback");
        assert_eq!(log.completed_len(), 0);
        // Divergent history replaces the dropped suffix and rolls again.
        for e in &rewritten {
            log.append_chunk(std::slice::from_ref(e), true).unwrap();
        }
        let expect: Vec<LedgerEntry> =
            all[..keep as usize].iter().chain(&rewritten).cloned().collect();
        let synced = log.synced_len();
        let written = log.written_len();
        let completed = log.completed_len();
        assert_eq!(synced, written, "fsync interval 1 syncs every batch");
        let tail = log.tail_file_path();
        drop(log);
        // Crash sweep: cut the tail file at every byte length from empty
        // to fully written (global offsets mapped onto the tail file).
        let pristine = fs::read(&tail).unwrap();
        for cut in (completed..=written).rev() {
            let tail_cut = cut - completed;
            let f = OpenOptions::new().write(true).open(&tail).unwrap();
            f.set_len(tail_cut).unwrap();
            drop(f);
            let (log, prefix) = DurableLog::open_with_roll(&td.0, 1, 128).unwrap();
            assert!(
                expect.starts_with(&prefix),
                "cut at global byte {cut}: prefix must be a chunk-boundary prefix"
            );
            assert!(prefix.len() >= keep as usize, "cut never reaches completed files");
            assert_eq!(log.entry_count(), prefix.len() as u64);
            drop(log);
            fs::write(&tail, &pristine).unwrap();
        }
    }

    /// The suffix layout: `create_suffix` writes a manifest that survives
    /// reopen, `retire_to_archive` moves the old run aside, and a suffix
    /// log round-trips entries with relative indexing.
    #[test]
    fn suffix_log_manifest_and_archive_roundtrip() {
        let td = TestDir::new("suffix");
        let old: Vec<LedgerEntry> = (0..10).map(nonce_entry).collect();
        {
            let (mut log, _) = DurableLog::open_with_roll(&td.0, 1, 64).unwrap();
            for e in &old {
                log.append_chunk(std::slice::from_ref(e), true).unwrap();
            }
            assert!(log.files.len() > 1);
        }
        assert!(DurableLog::dir_is_occupied(&td.0));
        DurableLog::retire_to_archive(&td.0, 10).unwrap();
        assert!(!seg_path(&td.0, 0).exists(), "old segments moved out of the way");
        let archive = td.0.join(ARCHIVE_DIR).join("upto-000000000010");
        assert!(archive.join("ledger-000000.seg").exists());
        let suffix: Vec<LedgerEntry> = (10..16).map(nonce_entry).collect();
        {
            let mut log = DurableLog::create_suffix(&td.0, 1, 64, 10).unwrap();
            assert_eq!(log.base(), 10);
            assert_eq!(log.entry_count(), 0);
            for e in &suffix {
                log.append_chunk(std::slice::from_ref(e), true).unwrap();
            }
        }
        let (log, prefix) = DurableLog::open_with_roll(&td.0, 1, 64).unwrap();
        assert_eq!(log.base(), 10, "manifest base survives reopen");
        assert_eq!(prefix, suffix);
        // Reads are relative to the run, not absolute.
        let encoded = log.read_encoded_range(0, 2).unwrap();
        assert_eq!(LedgerEntry::from_bytes(&encoded[0]).unwrap(), suffix[0]);
        // create_suffix refuses a directory that still holds segments.
        assert!(DurableLog::create_suffix(&td.0, 1, 64, 20).is_err());
    }

    /// The injected-fault hook: a failed write surfaces as an error (for
    /// the owner to detach on) and the log object stays usable for the
    /// next call.
    #[test]
    fn injected_write_error_fails_once() {
        let td = TestDir::new("inject");
        let (mut log, _) = DurableLog::open(&td.0, 1).unwrap();
        log.append_chunk(&[nonce_entry(0)], true).unwrap();
        log.inject_write_error();
        assert!(log.append_chunk(&[nonce_entry(1)], true).is_err());
        log.append_chunk(&[nonce_entry(1)], true).unwrap();
        log.inject_write_error();
        assert!(log.truncate_entries(1).is_err());
        assert_eq!(log.truncate_entries(1).unwrap(), 1);
    }
}
