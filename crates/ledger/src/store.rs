//! The replica-side ledger structure.

use std::collections::BTreeMap;

use ia_ccf_merkle::Frontier;
use ia_ccf_types::{
    Configuration, Digest, LedgerEntry, LedgerIdx, PrePrepare, SeqNum, TxLedgerEntry, View, Wire,
};

use crate::durable::DurableLog;
use crate::segment::TxRun;

/// Why a [`DurableLog`] could not be attached to a [`Ledger`].
#[derive(Debug)]
pub enum AttachError {
    /// The log's segment run starts at a different absolute index than
    /// the ledger — e.g. a full-history log offered to a suffix ledger
    /// or vice versa. Attaching would silently misindex every entry.
    BaseMismatch {
        /// First absolute index the on-disk run represents.
        log_base: u64,
        /// First absolute index the ledger materializes.
        ledger_base: u64,
    },
    /// Disk I/O failed while reconciling the log with the ledger.
    Io(std::io::Error),
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::BaseMismatch { log_base, ledger_base } => write!(
                f,
                "durable log base {log_base} does not match ledger base {ledger_base}"
            ),
            AttachError::Io(e) => write!(f, "durable log reconcile I/O error: {e}"),
        }
    }
}

impl std::error::Error for AttachError {}

impl From<std::io::Error> for AttachError {
    fn from(e: std::io::Error) -> Self {
        AttachError::Io(e)
    }
}

/// The Merkle tree `M` as a replica needs it (§3.4): the frontier at the
/// rollback floor, the leaves appended since, and the live frontier.
/// Appending and rolling back need no interior of the tree. Nothing below
/// the floor rolls back: [`Ledger::settle`] raises it, and a
/// [`Ledger::from_checkpoint`] suffix starts at its restore point.
#[derive(Debug, Clone)]
struct MTree {
    /// Ledger length at the floor; no truncation may cut below it.
    floor_len: u64,
    /// The frontier over the M-leaves of the entries below `floor_len`.
    floor: Frontier,
    /// `(entry index, leaf)` of each M-leaf since the floor, ascending.
    leaves: Vec<(u64, Digest)>,
    /// `floor` advanced over `leaves`.
    cur: Frontier,
}

impl MTree {
    fn at(floor_len: u64, floor: Frontier) -> Self {
        MTree { floor_len, cur: floor.clone(), floor, leaves: Vec::new() }
    }

    fn extend(&mut self, new: Vec<(u64, Digest)>) {
        for (_, l) in &new {
            self.cur.append(*l);
        }
        self.leaves.extend(new);
    }

    /// Drop the leaves of entries at or past `new_len`: the live frontier
    /// is the floor advanced over the leaves that stay.
    fn truncate(&mut self, new_len: u64) {
        assert!(
            new_len >= self.floor_len,
            "rollback below the ledger's rollback floor (the floor is committed)"
        );
        let keep = self.leaves.partition_point(|&(idx, _)| idx < new_len);
        if keep == self.leaves.len() {
            return;
        }
        self.leaves.truncate(keep);
        self.cur = self.floor.clone();
        for (_, l) in &self.leaves {
            self.cur.append(*l);
        }
    }

    /// Fold the leaves of entries below `len` into the floor.
    fn settle(&mut self, len: u64) {
        if len <= self.floor_len {
            return;
        }
        let settled = self.leaves.partition_point(|&(idx, _)| idx < len);
        for (_, l) in self.leaves.drain(..settled) {
            self.floor.append(l);
        }
        self.floor_len = len;
    }
}

/// Where a batch sits: its pre-prepare's entry index `at`, the end
/// (exclusive) of the `⟨t, i, o⟩` run after it, and — for a re-proposal —
/// the position in `Ledger::pps` of the batch its seq named before.
#[derive(Debug, Clone, Copy)]
struct BatchAt {
    at: u64,
    end: u64,
    seq: SeqNum,
    replaced: Option<usize>,
}

/// The append-only ledger of one replica.
///
/// Every entry has a [`LedgerIdx`] (its position). Non-transaction entries
/// are additionally leaves of the ledger Merkle tree `M`; `⟨t, i, o⟩`
/// entries are bound through `Ḡ` inside their batch's pre-prepare instead
/// (Alg. 1 appends only evidence/pre-prepare/view-change/new-view entries
/// to `M`).
///
/// `M` is held as the frontier at the rollback floor plus the leaves
/// since. Rolling back ([`Ledger::truncate_to`]) never cuts below the
/// floor, which [`Ledger::settle`] raises as batches commit.
///
/// The entries in memory are the one source of every byte the ledger
/// serves. Two orthogonal modes change what else is kept, not the tree:
///
/// * **Durable** ([`Ledger::attach_durable`]): every append/rollback is
///   mirrored into an on-disk [`DurableLog`], written and never read back
///   while the replica runs; a restart reads it once, when it opens.
/// * **Suffix** ([`Ledger::from_checkpoint`]): the ledger holds only the
///   entries after a checkpoint restore point; `base()` entries before it
///   exist logically (indices stay absolute) but are not materialized.
///   Its floor starts at the restore point.
#[derive(Debug)]
pub struct Ledger {
    /// Entries from `base` onward (all entries when `base == 0`).
    entries: Vec<LedgerEntry>,
    /// Number of pre-`entries` ledger positions not materialized. `0`
    /// except after [`Ledger::from_checkpoint`].
    base: u64,
    tree: MTree,
    /// Position in `pps` of the batch currently governing each sequence
    /// number. A re-proposal in a later view overwrites the earlier
    /// mapping; rolling the re-proposal back restores it.
    pp_by_seq: BTreeMap<SeqNum, usize>,
    /// Every batch in ledger order: a rollback pops the ones it cuts, and
    /// a `Tx` appended extends the last one's run.
    pps: Vec<BatchAt>,
    /// `(entry index, view)` of each new-view entry, ascending; lets a
    /// paged sync decide whether a re-served view-change pair is already
    /// applied (dedup must key on ledger *content*: a rollback can remove
    /// the entries while the replica's view number stays advanced).
    nv_entries: Vec<(u64, View)>,
    /// On-disk mirror, when this replica runs durable. A suffix-mode
    /// ledger attaches a suffix log whose base matches its own.
    durable: Option<DurableLog>,
    /// Latched when a durable I/O failure forced the mirror off mid-run
    /// (consensus keeps going; safety rests on the quorum, not one disk).
    durability_lost: bool,
}

impl Clone for Ledger {
    /// Clones the in-memory state only: the durable sink holds exclusive
    /// file handles and stays with the original (clones are used by
    /// harnesses and the auditor, which must not write the replica's
    /// files).
    fn clone(&self) -> Self {
        Ledger {
            entries: self.entries.clone(),
            base: self.base,
            tree: self.tree.clone(),
            pp_by_seq: self.pp_by_seq.clone(),
            pps: self.pps.clone(),
            nv_entries: self.nv_entries.clone(),
            durable: None,
            durability_lost: self.durability_lost,
        }
    }
}

impl Ledger {
    /// A ledger seeded with the genesis transaction.
    pub fn new(genesis_config: Configuration) -> Self {
        let mut ledger = Ledger {
            entries: Vec::new(),
            base: 0,
            tree: MTree::at(0, Frontier::new()),
            pp_by_seq: BTreeMap::new(),
            pps: Vec::new(),
            nv_entries: Vec::new(),
            durable: None,
            durability_lost: false,
        };
        ledger.append(LedgerEntry::Genesis { config: genesis_config });
        ledger
    }

    /// A *suffix* ledger restored from a checkpoint: the `base_entries`
    /// positions before the restore point exist logically but are not
    /// held; the tree continues from `frontier` (whose root the caller
    /// has verified against the agreed checkpoint digest). Appends,
    /// rollback (down to the restore point), roots and page serving for
    /// the suffix all work; entries before `base()` read as absent.
    pub fn from_checkpoint(base_entries: u64, frontier: Frontier) -> Self {
        Ledger {
            entries: Vec::new(),
            base: base_entries,
            tree: MTree::at(base_entries, frontier),
            pp_by_seq: BTreeMap::new(),
            pps: Vec::new(),
            nv_entries: Vec::new(),
            durable: None,
            durability_lost: false,
        }
    }

    /// Number of leading ledger positions not materialized (0 unless this
    /// is a [`Ledger::from_checkpoint`] suffix).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Attach an on-disk mirror. The log's base must equal the ledger's
    /// ([`AttachError::BaseMismatch`] otherwise): a full-history ledger
    /// takes a base-0 log, a checkpoint-seeded suffix ledger takes a
    /// suffix log created at its restore point. The log and the
    /// in-memory state are then reconciled — the log is truncated to the
    /// ledger's materialized length (structural repair may have cut
    /// entries the byte-level repair kept) and any in-memory entries the
    /// log is missing are appended — so afterwards the two always hold
    /// the same entries.
    pub fn attach_durable(&mut self, mut log: DurableLog) -> Result<(), AttachError> {
        if log.base() != self.base {
            return Err(AttachError::BaseMismatch {
                log_base: log.base(),
                ledger_base: self.base,
            });
        }
        let want = self.entries.len() as u64;
        if log.entry_count() > want {
            log.truncate_entries(want)?;
        }
        while log.entry_count() < want {
            let i = log.entry_count() as usize;
            let entry = &self.entries[i];
            log.append_chunk(
                std::slice::from_ref(entry),
                matches!(entry, LedgerEntry::PrePrepare(_)),
            )?;
        }
        log.fsync_tail()?;
        self.durable = Some(log);
        self.durability_lost = false;
        Ok(())
    }

    /// Whether a durable I/O failure forced the on-disk mirror off while
    /// the replica kept running — the operator-facing gauge behind the
    /// one-shot warning.
    pub fn durability_lost(&self) -> bool {
        self.durability_lost
    }

    /// Drop the durable mirror after an unrecoverable write error,
    /// latching the [`Ledger::durability_lost`] gauge and warning once.
    /// Consensus continues in-memory: safety rests on the quorum, and a
    /// lost mirror only costs this replica its local fast restart.
    pub fn note_durability_lost(&mut self, why: &str) {
        if !self.durability_lost {
            eprintln!(
                "[ia-ccf] WARNING: durable ledger detached ({why}); \
                 continuing without the on-disk mirror — this replica \
                 will re-page from peers after its next restart"
            );
        }
        self.durability_lost = true;
        self.durable = None;
    }

    /// The attached durable log, if any (harness access: sync watermarks,
    /// tail path for crash injection).
    pub fn durable(&self) -> Option<&DurableLog> {
        self.durable.as_ref()
    }

    /// Mutable access to the attached durable log (harness: force syncs).
    pub fn durable_mut(&mut self) -> Option<&mut DurableLog> {
        self.durable.as_mut()
    }

    /// The hash of the genesis transaction — the service name `H(gt)`.
    pub fn genesis_hash(&self) -> Option<Digest> {
        if self.base != 0 {
            return None;
        }
        match self.entries.first() {
            Some(e @ LedgerEntry::Genesis { .. }) => Some(ia_ccf_crypto::hash_bytes(&e.to_bytes())),
            _ => None,
        }
    }

    /// Append an entry as a chunk of its own, returning its index.
    pub fn append(&mut self, entry: LedgerEntry) -> LedgerIdx {
        self.append_batch(vec![entry])
    }

    /// Append a whole batch's entries with one reservation per backing
    /// store — the entry list grows once and the Merkle tree `M` absorbs
    /// all the batch's leaves in one pass (§3.4: per-request cost
    /// amortized across the batch). In memory the same as appending each
    /// entry in order; on disk the batch is one chunk. Returns the index of the first appended entry (the batch's
    /// segment start).
    pub fn append_batch(&mut self, batch: Vec<LedgerEntry>) -> LedgerIdx {
        let first = self.base + self.entries.len() as u64;
        let mut m_leaves = Vec::new();
        for (off, entry) in batch.iter().enumerate() {
            let idx = first + off as u64;
            if entry.is_m_leaf() {
                m_leaves.push((idx, entry.m_leaf()));
            }
            match entry {
                LedgerEntry::PrePrepare(pp) => {
                    let replaced = self.pp_by_seq.insert(pp.seq(), self.pps.len());
                    self.pps.push(BatchAt { at: idx, end: idx + 1, seq: pp.seq(), replaced });
                }
                LedgerEntry::Tx(_) => {
                    if let Some(last) = self.pps.last_mut().filter(|last| last.end == idx) {
                        last.end = idx + 1;
                    }
                }
                LedgerEntry::NewView(nv) => self.nv_entries.push((idx, nv.view)),
                _ => {}
            }
        }
        let mut write_err = None;
        if let Some(log) = &mut self.durable {
            // One batch = one chunk: the torn-tail repair unit. A chunk
            // counts toward the fsync interval iff it carries the batch's
            // pre-prepare (the evidence-pair chunk of the same batch does
            // not double-count it).
            if let Err(e) = log.append_chunk(
                &batch,
                batch.iter().any(|e| matches!(e, LedgerEntry::PrePrepare(_))),
            ) {
                write_err = Some(e);
            }
        }
        if let Some(e) = write_err {
            self.note_durability_lost(&format!("append failed: {e}"));
        }
        self.tree.extend(m_leaves);
        self.entries.reserve(batch.len());
        self.entries.extend(batch);
        LedgerIdx(first)
    }

    /// Number of entries (absolute: includes the un-materialized prefix
    /// of a suffix ledger).
    pub fn len(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry at `idx` (`None` below a suffix ledger's `base()`).
    pub fn entry(&self, idx: LedgerIdx) -> Option<&LedgerEntry> {
        self.entries.get(usize::try_from(idx.0.checked_sub(self.base)?).ok()?)
    }

    /// The materialized entries, in order. For a suffix ledger this is
    /// the tail starting at `base()` — pair with [`Ledger::base`] when
    /// absolute indices matter.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Current root of the ledger tree `M` (`M̄` for the next pre-prepare).
    pub fn root_m(&self) -> Digest {
        self.tree.cur.root()
    }

    /// The tree frontier — persisted in checkpoints so a restoring replica
    /// can continue appending without the interior of `M` (§3.4).
    pub fn frontier(&self) -> Frontier {
        self.tree.cur.clone()
    }

    /// Where the batch currently governing `seq` sits.
    fn batch_at(&self, seq: SeqNum) -> Option<&BatchAt> {
        self.pps.get(*self.pp_by_seq.get(&seq)?)
    }

    /// The pre-prepare entry for `seq`, if any.
    pub fn pp_at(&self, seq: SeqNum) -> Option<&PrePrepare> {
        match self.entry(LedgerIdx(self.batch_at(seq)?.at))? {
            LedgerEntry::PrePrepare(pp) => Some(pp),
            _ => None,
        }
    }

    /// The `⟨t, i, o⟩` run of the batch governing `seq`, in O(1).
    pub fn tx_run(&self, seq: SeqNum) -> Option<TxRun<'_>> {
        let batch = self.batch_at(seq)?;
        let (lo, hi) = self.clamp_range(LedgerIdx(batch.at + 1), LedgerIdx(batch.end));
        Some(TxRun::new(self.entries.get(lo..hi)?))
    }

    /// The transaction at position `pos` of the batch governing `seq`.
    pub fn tx_at(&self, seq: SeqNum, pos: u64) -> Option<&TxLedgerEntry> {
        self.tx_run(seq)?.get(usize::try_from(pos).ok()?)
    }

    /// The `[pre-prepare, tx*]` span of the batch governing `seq`: the
    /// pre-prepare's index and the end (exclusive) of its transaction run.
    pub fn batch_span(&self, seq: SeqNum) -> Option<(LedgerIdx, LedgerIdx)> {
        self.batch_at(seq).map(|batch| (LedgerIdx(batch.at), LedgerIdx(batch.end)))
    }

    /// First entry position a ledger fetch from `from_seq` must serve: the
    /// end of the segment of the last batch *before* `from_seq` (its
    /// pre-prepare plus its trailing `⟨t, i, o⟩` run). Inter-batch entries
    /// — view-change sets, new-views — belong to the *suffix*, so a
    /// fetch resumed at any batch token never skips them. With no batch
    /// before `from_seq` the whole post-genesis ledger is the suffix.
    pub fn fetch_start_pos(&self, from_seq: SeqNum) -> u64 {
        match self.pp_by_seq.range(..from_seq).next_back().and_then(|(_, &k)| self.pps.get(k)) {
            Some(batch) => batch.end,
            // A suffix ledger cannot serve below its base; a requester
            // needing earlier entries fails validation and fails over to
            // a replica with full history.
            None => self.base.max(1.min(self.len())),
        }
    }

    /// Sequence numbers of batches at or after `from_seq`, in ledger
    /// order (page-boundary candidates for a paged fetch), lazily — a
    /// page server stops at its budget, not at the ledger tip, so the
    /// remaining-batch list must never be materialized per request.
    pub fn batch_seqs_iter(&self, from_seq: SeqNum) -> impl Iterator<Item = SeqNum> + '_ {
        self.pp_by_seq.range(from_seq..).map(|(s, _)| *s)
    }

    /// Whether a new-view entry for `view` is present. Keyed on ledger
    /// *content*, not the replica's view counter: a rollback can truncate
    /// the entries away while the counter stays advanced, and a paged
    /// sync must then re-apply the re-served pair.
    pub fn has_new_view(&self, view: View) -> bool {
        self.nv_entries.iter().any(|(_, v)| *v == view)
    }

    /// Exact framed size of entries `[from, to_exclusive)` as a fetch
    /// response carries them: encoded bytes plus the `u32` length prefix
    /// each (the benchmark's `ledger_bytes_per_tx`). Costs an encode per
    /// entry, so a page server sizes what it has already encoded instead.
    pub fn encoded_range_len(&self, from: LedgerIdx, to_exclusive: LedgerIdx) -> u64 {
        let (lo, hi) = self.clamp_range(from, to_exclusive);
        self.entries[lo..hi].iter().map(|e| e.encoded_len() as u64 + 4).sum()
    }

    /// Map an absolute `[from, to)` range to indices into the
    /// materialized `entries`, clamped on both sides.
    fn clamp_range(&self, from: LedgerIdx, to_exclusive: LedgerIdx) -> (usize, usize) {
        let lo = (from.0.saturating_sub(self.base) as usize).min(self.entries.len());
        let hi = (to_exclusive.0.saturating_sub(self.base) as usize).min(self.entries.len());
        (lo, hi.max(lo))
    }

    /// Raise the rollback floor to ledger length `len` (never lowers it):
    /// the `M` leaves of the entries below it fold into the floor
    /// frontier. The entries themselves stay.
    pub fn settle(&mut self, len: u64) {
        debug_assert!(len <= self.len(), "settle past the ledger's end");
        self.tree.settle(len);
    }

    /// Roll back to the first `new_len` entries (Lemma 1): truncates the
    /// entry list, the Merkle tree and the sequence index together.
    /// `new_len` is never below the rollback floor ([`Ledger::settle`], a
    /// suffix ledger's restore point): the floor is committed, and a
    /// replica refuses a view change that would reset below it.
    /// The sequence index changes in O(cut tail): each batch cut, latest
    /// first, gives its seq back the mapping it replaced.
    pub fn truncate_to(&mut self, new_len: u64) {
        if new_len >= self.len() {
            return;
        }
        self.tree.truncate(new_len);
        self.entries.truncate((new_len - self.base) as usize);
        let kept_nvs = self.nv_entries.partition_point(|(idx, _)| *idx < new_len);
        self.nv_entries.truncate(kept_nvs);
        let kept_pps = self.pps.partition_point(|batch| batch.at < new_len);
        for cut in self.pps.drain(kept_pps..).rev() {
            match cut.replaced {
                Some(earlier) => self.pp_by_seq.insert(cut.seq, earlier),
                None => self.pp_by_seq.remove(&cut.seq),
            };
        }
        // Only the last batch left can have had its run cut.
        if let Some(last) = self.pps.last_mut() {
            last.end = last.end.min(new_len);
        }
        let mut write_err = None;
        if let Some(log) = &mut self.durable {
            // Mirror the cut (in log-relative entries): the log truncates
            // to the chunk floor and the gap (if the cut landed mid-chunk)
            // is re-appended from the surviving in-memory entries.
            match log.truncate_entries(new_len - self.base) {
                Err(e) => write_err = Some(e),
                Ok(floor) => {
                    for e in &self.entries[floor as usize..] {
                        if let Err(e) = log.append_chunk(
                            std::slice::from_ref(e),
                            matches!(e, LedgerEntry::PrePrepare(_)),
                        ) {
                            write_err = Some(e);
                            break;
                        }
                    }
                }
            }
        }
        if let Some(e) = write_err {
            self.note_durability_lost(&format!("rollback mirror failed: {e}"));
        }
    }

    /// Serialize a range of entries for transmission (ledger fragments,
    /// fetch responses, checkpoint seeds), encoded from memory.
    pub fn encode_range(&self, from: LedgerIdx, to_exclusive: LedgerIdx) -> Vec<Vec<u8>> {
        let (lo, hi) = self.clamp_range(from, to_exclusive);
        self.entries[lo..hi].iter().map(|e| e.to_bytes()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_crypto::KeyPair;
    use ia_ccf_types::config::testutil::test_config;
    use ia_ccf_types::messages::testutil::test_pp;
    use ia_ccf_types::{Nonce, SeqNum};

    fn ledger4() -> (Ledger, Vec<KeyPair>) {
        let (config, rk, _) = test_config(4);
        (Ledger::new(config), rk)
    }

    #[test]
    fn genesis_is_entry_zero() {
        let (ledger, _) = ledger4();
        assert_eq!(ledger.len(), 1);
        assert!(matches!(ledger.entry(LedgerIdx(0)), Some(LedgerEntry::Genesis { .. })));
        assert!(ledger.genesis_hash().is_some());
        assert_eq!(ledger.frontier().len(), 1);
    }

    #[test]
    fn append_updates_tree_only_for_m_leaves() {
        let (mut ledger, rk) = ledger4();
        let before = ledger.root_m();
        // A tx entry does not touch M.
        let kp = KeyPair::from_label("c");
        let req = ia_ccf_types::SignedRequest::sign(
            ia_ccf_types::Request {
                action: ia_ccf_types::RequestAction::App {
                    proc: ia_ccf_types::ProcId(1),
                    args: vec![],
                },
                client: ia_ccf_types::ClientId(1),
                gt_hash: ledger.genesis_hash().unwrap(),
                min_index: LedgerIdx(0),
                req_id: 1,
            },
            &kp,
        );
        ledger.append(LedgerEntry::Tx(ia_ccf_types::TxLedgerEntry {
            request: req,
            index: LedgerIdx(1),
            result: ia_ccf_types::TxResult {
                ok: true,
                output: vec![],
                write_set_digest: Digest::zero(),
            },
        }));
        assert_eq!(ledger.root_m(), before);
        assert_eq!(ledger.frontier().len(), 1);

        // A pre-prepare does.
        ledger.append(LedgerEntry::PrePrepare(test_pp(0, 1, &rk[0])));
        assert_ne!(ledger.root_m(), before);
        assert_eq!(ledger.frontier().len(), 2);
    }

    #[test]
    fn pp_lookup_by_seq() {
        let (mut ledger, rk) = ledger4();
        ledger.append(LedgerEntry::PrePrepare(test_pp(0, 1, &rk[0])));
        ledger.append(LedgerEntry::PrePrepare(test_pp(0, 2, &rk[0])));
        assert_eq!(ledger.pp_at(SeqNum(1)).unwrap().seq(), SeqNum(1));
        assert_eq!(ledger.pp_at(SeqNum(2)).unwrap().seq(), SeqNum(2));
        assert!(ledger.pp_at(SeqNum(3)).is_none());
        assert_eq!(ledger.batch_seqs_iter(SeqNum(0)).last(), Some(SeqNum(2)));
    }

    #[test]
    fn truncate_restores_root_and_index() {
        let (mut ledger, rk) = ledger4();
        let root1 = ledger.root_m();
        let len1 = ledger.len();

        ledger.append(LedgerEntry::Nonces { seq: SeqNum(1), nonces: vec![Nonce([1; 16])] });
        ledger.append(LedgerEntry::PrePrepare(test_pp(0, 1, &rk[0])));
        let root2 = ledger.root_m();
        let len2 = ledger.len();

        ledger.append(LedgerEntry::Nonces { seq: SeqNum(2), nonces: vec![Nonce([2; 16])] });
        ledger.append(LedgerEntry::PrePrepare(test_pp(0, 2, &rk[0])));
        assert_ne!(ledger.root_m(), root2);

        ledger.truncate_to(len2);
        assert_eq!(ledger.root_m(), root2);
        assert!(ledger.pp_at(SeqNum(2)).is_none());
        assert!(ledger.pp_at(SeqNum(1)).is_some());

        ledger.truncate_to(len1);
        assert_eq!(ledger.root_m(), root1);
        assert!(ledger.pp_at(SeqNum(1)).is_none());
    }

    #[test]
    fn truncate_restores_older_view_pp_mapping() {
        let (mut ledger, rk) = ledger4();
        ledger.append(LedgerEntry::PrePrepare(test_pp(0, 1, &rk[0])));
        let idx_v0 = ledger.batch_span(SeqNum(1)).unwrap();
        // Re-proposal of seq 1 in view 1 overwrites the mapping.
        ledger.append(LedgerEntry::PrePrepare(test_pp(1, 1, &rk[1])));
        assert_ne!(ledger.batch_span(SeqNum(1)).unwrap(), idx_v0);
        // Rolling back the re-proposal restores the view-0 mapping.
        ledger.truncate_to(ledger.len() - 1);
        assert_eq!(ledger.batch_span(SeqNum(1)).unwrap(), idx_v0);
    }

    /// One sequence number proposed in three views, each proposal with a
    /// transaction run and another batch after it, rolled back one view at
    /// a time: every cut gives back the proposal before it, run included.
    #[test]
    fn truncate_restores_each_older_view_in_turn() {
        let (mut ledger, rk) = ledger4();
        let tx = LedgerEntry::Tx(ia_ccf_types::TxLedgerEntry {
            request: ia_ccf_types::SignedRequest::system(
                ia_ccf_types::SystemOp::CheckpointMark {
                    checkpoint_seq: SeqNum(0),
                    kv_digest: Digest::zero(),
                    tree_root: Digest::zero(),
                },
                Digest::zero(),
            ),
            index: LedgerIdx(0),
            result: ia_ccf_types::TxResult {
                ok: true,
                output: vec![],
                write_set_digest: Digest::zero(),
            },
        });
        // View v proposes seq 1 with v + 1 transactions, then seq 2.
        let mut cuts = Vec::new();
        for v in 0..3u64 {
            cuts.push(ledger.len());
            let mut batch = vec![LedgerEntry::PrePrepare(test_pp(v, 1, &rk[v as usize]))];
            batch.extend(std::iter::repeat_n(tx.clone(), v as usize + 1));
            ledger.append_batch(batch);
            ledger.append(LedgerEntry::PrePrepare(test_pp(v, 2, &rk[v as usize])));
        }
        let held = |l: &Ledger| {
            let pp = l.pp_at(SeqNum(1)).map(|pp| pp.view().0);
            (pp, l.tx_run(SeqNum(1)).map(|run| run.len()), l.pp_at(SeqNum(2)).map(|pp| pp.view().0))
        };
        assert_eq!(held(&ledger), (Some(2), Some(3), Some(2)));
        let want = [(Some(1), Some(2), Some(1)), (Some(0), Some(1), Some(0)), (None, None, None)];
        for (cut, want) in cuts.into_iter().rev().zip(want) {
            ledger.truncate_to(cut);
            assert_eq!(held(&ledger), want, "cut at {cut}");
        }
        // A cut inside a run shortens it, and the next `Tx` extends it again.
        let pp = LedgerEntry::PrePrepare(test_pp(0, 1, &rk[0]));
        ledger.append_batch(vec![pp, tx.clone(), tx.clone()]);
        ledger.truncate_to(ledger.len() - 1);
        assert_eq!(ledger.tx_run(SeqNum(1)).map(|run| run.len()), Some(1));
        ledger.append(tx);
        assert_eq!(ledger.tx_run(SeqNum(1)).map(|run| run.len()), Some(2));
        assert_eq!(ledger.batch_span(SeqNum(1)), Some((LedgerIdx(1), LedgerIdx(4))));
    }

    #[test]
    fn fetch_start_pos_covers_inter_batch_entries() {
        let (mut ledger, rk) = ledger4();
        let gt = ledger.genesis_hash().unwrap();
        let tx = move |i: u64| {
            let kp = KeyPair::from_label("c");
            LedgerEntry::Tx(ia_ccf_types::TxLedgerEntry {
                request: ia_ccf_types::SignedRequest::sign(
                    ia_ccf_types::Request {
                        action: ia_ccf_types::RequestAction::App {
                            proc: ia_ccf_types::ProcId(1),
                            args: vec![],
                        },
                        client: ia_ccf_types::ClientId(1),
                        gt_hash: gt,
                        min_index: LedgerIdx(0),
                        req_id: i,
                    },
                    &kp,
                ),
                index: LedgerIdx(i),
                result: ia_ccf_types::TxResult {
                    ok: true,
                    output: vec![],
                    write_set_digest: Digest::zero(),
                },
            })
        };
        // No batches at all: everything after genesis is the suffix.
        assert_eq!(ledger.fetch_start_pos(SeqNum(1)), 1);
        assert_eq!(ledger.fetch_start_pos(SeqNum(9)), 1);
        // [genesis, pp1, tx, tx, vc-set, nv, pp2, tx]
        ledger.append(LedgerEntry::PrePrepare(test_pp(0, 1, &rk[0]))); // 1
        ledger.append(tx(1)); // 2
        ledger.append(tx(2)); // 3
        ledger.append(LedgerEntry::ViewChangeSet { view: ia_ccf_types::View(1), view_changes: vec![] }); // 4
        ledger.append(LedgerEntry::NewView(ia_ccf_types::NewViewMsg {
            view: ia_ccf_types::View(1),
            root_m: ledger.root_m(),
            vc_bitmap: ia_ccf_types::ReplicaBitmap::empty(),
            vc_entry_hash: Digest::zero(),
            sig: ia_ccf_types::Signature::zero(),
        })); // 5
        ledger.append(LedgerEntry::PrePrepare(test_pp(1, 2, &rk[1]))); // 6
        ledger.append(tx(3)); // 7
        // From seq 1: segment of "previous batch" does not exist → 1.
        assert_eq!(ledger.fetch_start_pos(SeqNum(1)), 1);
        // From seq 2: end of batch 1's segment (pp at 1 + two txs) = 4 —
        // the view-change pair at 4/5 is part of the suffix, not skipped.
        assert_eq!(ledger.fetch_start_pos(SeqNum(2)), 4);
        // Past the tip: the trailing entries after batch 2's segment.
        assert_eq!(ledger.fetch_start_pos(SeqNum(3)), 8);
        let seqs_from = |s| ledger.batch_seqs_iter(SeqNum(s)).collect::<Vec<_>>();
        assert_eq!(seqs_from(1), vec![SeqNum(1), SeqNum(2)]);
        assert_eq!(seqs_from(2), vec![SeqNum(2)]);
        assert!(seqs_from(3).is_empty());
    }

    #[test]
    fn has_new_view_tracks_appends_and_truncation() {
        let (mut ledger, rk) = ledger4();
        assert!(!ledger.has_new_view(ia_ccf_types::View(1)));
        ledger.append(LedgerEntry::PrePrepare(test_pp(0, 1, &rk[0])));
        let before_vc = ledger.len();
        ledger.append(LedgerEntry::ViewChangeSet {
            view: ia_ccf_types::View(1),
            view_changes: vec![],
        });
        ledger.append(LedgerEntry::NewView(ia_ccf_types::NewViewMsg {
            view: ia_ccf_types::View(1),
            root_m: ledger.root_m(),
            vc_bitmap: ia_ccf_types::ReplicaBitmap::empty(),
            vc_entry_hash: Digest::zero(),
            sig: ia_ccf_types::Signature::zero(),
        }));
        assert!(ledger.has_new_view(ia_ccf_types::View(1)));
        assert!(!ledger.has_new_view(ia_ccf_types::View(2)));
        // Rollback removes the pair: the index must say so (a paged sync
        // keys its duplicate-skip on this — a stale `true` after
        // truncation would make it skip re-applying the pair forever).
        ledger.truncate_to(before_vc);
        assert!(!ledger.has_new_view(ia_ccf_types::View(1)));
    }

    #[test]
    fn encoded_range_len_matches_encode_range() {
        let (mut ledger, rk) = ledger4();
        ledger.append(LedgerEntry::PrePrepare(test_pp(0, 1, &rk[0])));
        ledger.append(LedgerEntry::Nonces { seq: SeqNum(1), nonces: vec![Nonce([1; 16])] });
        for lo in 0..=ledger.len() {
            for hi in lo..=ledger.len() + 1 {
                let encoded = ledger.encode_range(LedgerIdx(lo), LedgerIdx(hi));
                let framed: u64 = encoded.iter().map(|e| e.len() as u64 + 4).sum();
                assert_eq!(
                    ledger.encoded_range_len(LedgerIdx(lo), LedgerIdx(hi)),
                    framed,
                    "size-only pass must agree with the encoded bytes ({lo}..{hi})"
                );
            }
        }
    }

    #[test]
    fn frontier_tracks_tree() {
        let (mut ledger, rk) = ledger4();
        for s in 1..=5 {
            ledger.append(LedgerEntry::Nonces { seq: SeqNum(s), nonces: vec![] });
            ledger.append(LedgerEntry::PrePrepare(test_pp(0, s, &rk[0])));
        }
        assert_eq!(ledger.frontier().root(), ledger.root_m());
    }

    #[test]
    fn append_batch_matches_sequential_appends() {
        let (mut batched, rk) = ledger4();
        let (mut sequential, _) = ledger4();
        let entries: Vec<LedgerEntry> = vec![
            LedgerEntry::Nonces { seq: SeqNum(1), nonces: vec![Nonce([1; 16])] },
            LedgerEntry::PrePrepare(test_pp(0, 1, &rk[0])),
            LedgerEntry::Nonces { seq: SeqNum(2), nonces: vec![Nonce([2; 16])] },
            LedgerEntry::PrePrepare(test_pp(0, 2, &rk[0])),
        ];
        let first = batched.append_batch(entries.clone());
        assert_eq!(first, LedgerIdx(1), "segment starts after genesis");
        for e in entries {
            sequential.append(e);
        }
        assert_eq!(batched.len(), sequential.len());
        assert_eq!(batched.root_m(), sequential.root_m());
        assert_eq!(batched.frontier().len(), sequential.frontier().len());
        for i in 0..batched.len() {
            assert_eq!(batched.entry(LedgerIdx(i)), sequential.entry(LedgerIdx(i)), "entry {i}");
        }
        assert_eq!(
            batched.batch_span(SeqNum(2)),
            sequential.batch_span(SeqNum(2)),
            "seq index tracks batched appends"
        );
        // Truncation still unwinds batched appends entry by entry.
        batched.truncate_to(3);
        sequential.truncate_to(3);
        assert_eq!(batched.root_m(), sequential.root_m());
        assert!(batched.pp_at(SeqNum(2)).is_none());
    }

    #[test]
    fn append_batch_empty_is_noop() {
        let (mut ledger, _) = ledger4();
        let len = ledger.len();
        let root = ledger.root_m();
        let first = ledger.append_batch(Vec::new());
        assert_eq!(first, LedgerIdx(len));
        assert_eq!(ledger.len(), len);
        assert_eq!(ledger.root_m(), root);
    }

    #[test]
    fn encode_range_roundtrips() {
        let (mut ledger, rk) = ledger4();
        ledger.append(LedgerEntry::PrePrepare(test_pp(0, 1, &rk[0])));
        let encoded = ledger.encode_range(LedgerIdx(0), LedgerIdx(99));
        assert_eq!(encoded.len(), 2);
        for (bytes, entry) in encoded.iter().zip(ledger.entries()) {
            assert_eq!(&LedgerEntry::from_bytes(bytes).unwrap(), entry);
        }
    }

    #[test]
    fn suffix_ledger_tracks_full_ledger() {
        // A full ledger and a suffix ledger cut at a mid point must agree
        // on every absolute-index observation from the cut onward.
        let (mut full, rk) = ledger4();
        full.append(LedgerEntry::Nonces { seq: SeqNum(1), nonces: vec![Nonce([1; 16])] });
        full.append(LedgerEntry::PrePrepare(test_pp(0, 1, &rk[0])));
        let cut = full.len();
        let mut suffix = Ledger::from_checkpoint(cut, full.frontier());
        assert_eq!(suffix.len(), full.len());
        assert_eq!(suffix.root_m(), full.root_m());
        assert!(suffix.entry(LedgerIdx(0)).is_none(), "below base reads absent");

        let tail: Vec<LedgerEntry> = vec![
            LedgerEntry::Nonces { seq: SeqNum(2), nonces: vec![Nonce([2; 16])] },
            LedgerEntry::PrePrepare(test_pp(0, 2, &rk[0])),
            LedgerEntry::Nonces { seq: SeqNum(3), nonces: vec![Nonce([3; 16])] },
            LedgerEntry::PrePrepare(test_pp(0, 3, &rk[0])),
        ];
        let rollback_to = full.len() + 2;
        for e in tail {
            full.append(e.clone());
            suffix.append(e);
        }
        assert_eq!(suffix.len(), full.len());
        assert_eq!(suffix.root_m(), full.root_m());
        assert_eq!(suffix.frontier(), full.frontier());
        assert_eq!(suffix.frontier().len(), full.frontier().len());
        let last_seq = |l: &Ledger| l.batch_seqs_iter(SeqNum(0)).last();
        assert_eq!(last_seq(&suffix), last_seq(&full));
        assert_eq!(
            suffix.batch_span(SeqNum(3)),
            full.batch_span(SeqNum(3)),
            "absolute indices agree"
        );
        assert_eq!(suffix.pp_at(SeqNum(2)), full.pp_at(SeqNum(2)));
        assert_eq!(
            suffix.fetch_start_pos(SeqNum(3)),
            full.fetch_start_pos(SeqNum(3)),
            "page boundaries agree within the suffix"
        );
        assert_eq!(
            suffix.encode_range(LedgerIdx(cut), LedgerIdx(full.len())),
            full.encode_range(LedgerIdx(cut), LedgerIdx(full.len()))
        );
        // Rollback within the window agrees too (tree rebuilt from the
        // restore-point frontier).
        full.truncate_to(rollback_to);
        suffix.truncate_to(rollback_to);
        assert_eq!(suffix.root_m(), full.root_m());
        assert_eq!(suffix.len(), full.len());
        assert!(suffix.pp_at(SeqNum(3)).is_none());
    }

    #[test]
    fn durable_mirror_survives_reopen_and_rollback() {
        let dir = std::env::temp_dir()
            .join(format!("iaccf-store-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut ledger, rk) = ledger4();
        let (log, prefix) = crate::durable::DurableLog::open(&dir, 1).unwrap();
        assert!(prefix.is_empty());
        ledger.attach_durable(log).unwrap();

        ledger.append_batch(vec![
            LedgerEntry::Nonces { seq: SeqNum(1), nonces: vec![Nonce([1; 16])] },
            LedgerEntry::PrePrepare(test_pp(0, 1, &rk[0])),
        ]);
        ledger.append(LedgerEntry::ViewChangeSet {
            view: View(1),
            view_changes: vec![],
        });
        // Rollback of the individually-appended entry lands on a chunk
        // boundary — the mirror follows.
        ledger.truncate_to(ledger.len() - 1);
        ledger.append_batch(vec![
            LedgerEntry::Nonces { seq: SeqNum(2), nonces: vec![Nonce([2; 16])] },
            LedgerEntry::PrePrepare(test_pp(0, 2, &rk[0])),
        ]);

        // Reopening the directory yields exactly the live entries, and
        // they encode to the bytes the ledger serves.
        let expect = ledger.entries().to_vec();
        let served = ledger.encode_range(LedgerIdx(0), LedgerIdx(ledger.len()));
        drop(ledger);
        let (_, reopened) = crate::durable::DurableLog::open(&dir, 1).unwrap();
        assert_eq!(reopened, expect);
        let reencoded: Vec<Vec<u8>> = reopened.iter().map(|e| e.to_bytes()).collect();
        assert_eq!(reencoded, served);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attach_durable_reconciles_both_directions() {
        let dir = std::env::temp_dir()
            .join(format!("iaccf-store-reconcile-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Log ahead of the ledger (structural repair cut entries): attach
        // truncates the log.
        let (mut ledger, rk) = ledger4();
        ledger.append(LedgerEntry::Nonces { seq: SeqNum(1), nonces: vec![Nonce([1; 16])] });
        ledger.append(LedgerEntry::PrePrepare(test_pp(0, 1, &rk[0])));
        {
            let (mut log, _) = crate::durable::DurableLog::open(&dir, 1).unwrap();
            for e in ledger.entries() {
                log.append_chunk(std::slice::from_ref(e), false).unwrap();
            }
            // An extra dangling entry the structural repair rejected.
            log.append_chunk(
                &[LedgerEntry::Nonces { seq: SeqNum(9), nonces: vec![] }],
                false,
            )
            .unwrap();
        }
        let (log, on_disk) = crate::durable::DurableLog::open(&dir, 1).unwrap();
        assert_eq!(on_disk.len() as u64, ledger.len() + 1);
        ledger.attach_durable(log).unwrap();
        assert_eq!(ledger.durable().unwrap().entry_count(), ledger.len());
        let expect = ledger.entries().to_vec();
        drop(ledger);
        let (_, reopened) = crate::durable::DurableLog::open(&dir, 1).unwrap();
        assert_eq!(reopened, expect, "attach cut the log back to the ledger");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn attach_base_mismatch_is_a_typed_error() {
        let dir = std::env::temp_dir()
            .join(format!("iaccf-store-mismatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A full-history (base-0) log offered to a suffix ledger.
        let (full, _) = crate::durable::DurableLog::open(&dir, 1).unwrap();
        let mut suffix = Ledger::from_checkpoint(7, Frontier::new());
        match suffix.attach_durable(full) {
            Err(AttachError::BaseMismatch { log_base: 0, ledger_base: 7 }) => {}
            other => panic!("expected BaseMismatch, got {other:?}"),
        }
        assert!(suffix.durable().is_none());
        let _ = std::fs::remove_dir_all(&dir);

        // And the other direction: a suffix log on a full ledger.
        let dir2 = std::env::temp_dir()
            .join(format!("iaccf-store-mismatch2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir2);
        let log = crate::durable::DurableLog::create_suffix(
            &dir2,
            1,
            crate::durable::DurableLog::DEFAULT_ROLL_BYTES,
            7,
        )
        .unwrap();
        let (mut ledger, _) = ledger4();
        assert!(matches!(
            ledger.attach_durable(log),
            Err(AttachError::BaseMismatch { log_base: 7, ledger_base: 0 })
        ));
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn suffix_ledger_attaches_suffix_log_and_serves_from_disk() {
        let dir = std::env::temp_dir()
            .join(format!("iaccf-store-suffix-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (full, rk) = {
            let (mut full, rk) = ledger4();
            full.append(LedgerEntry::Nonces { seq: SeqNum(1), nonces: vec![Nonce([1; 16])] });
            full.append(LedgerEntry::PrePrepare(test_pp(0, 1, &rk[0])));
            (full, rk)
        };
        let cut = full.len();
        let mut suffix = Ledger::from_checkpoint(cut, full.frontier());
        let log = crate::durable::DurableLog::create_suffix(
            &dir,
            1,
            crate::durable::DurableLog::DEFAULT_ROLL_BYTES,
            cut,
        )
        .unwrap();
        suffix.attach_durable(log).unwrap();
        suffix.append_batch(vec![
            LedgerEntry::Nonces { seq: SeqNum(2), nonces: vec![Nonce([2; 16])] },
            LedgerEntry::PrePrepare(test_pp(0, 2, &rk[0])),
        ]);
        // The mirror counts the suffix at relative positions; pages are
        // served from memory at absolute ones.
        assert_eq!(suffix.durable().unwrap().entry_count(), 2);
        let served = suffix.encode_range(LedgerIdx(cut), LedgerIdx(suffix.len()));
        let from_mem: Vec<Vec<u8>> =
            suffix.entries().iter().map(|e| e.to_bytes()).collect();
        assert_eq!(served, from_mem);
        // Rollback inside the suffix mirrors at relative indices too.
        suffix.truncate_to(suffix.len() - 1);
        assert_eq!(suffix.durable().unwrap().entry_count(), 1);
        let expect = suffix.entries().to_vec();
        drop(suffix);
        let (log, reopened) = crate::durable::DurableLog::open(&dir, 1).unwrap();
        assert_eq!(log.base(), cut, "suffix base survives reopen");
        assert_eq!(reopened, expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A write failure on the consensus hot path must detach the mirror
    /// and latch the gauge — never panic — and the ledger keeps taking
    /// appends and rollbacks afterwards.
    #[test]
    fn durable_write_failure_detaches_instead_of_panicking() {
        let dir = std::env::temp_dir()
            .join(format!("iaccf-store-faulty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut ledger, rk) = ledger4();
        let (log, _) = crate::durable::DurableLog::open(&dir, 1).unwrap();
        ledger.attach_durable(log).unwrap();
        assert!(!ledger.durability_lost());

        ledger.durable_mut().unwrap().inject_write_error();
        ledger.append(LedgerEntry::Nonces { seq: SeqNum(1), nonces: vec![Nonce([1; 16])] });
        assert!(ledger.durable().is_none(), "failed append detaches the mirror");
        assert!(ledger.durability_lost(), "gauge latched");
        assert_eq!(ledger.len(), 2, "the in-memory append still happened");

        // Consensus-path operations keep working without the mirror.
        ledger.append_batch(vec![
            LedgerEntry::Nonces { seq: SeqNum(2), nonces: vec![Nonce([2; 16])] },
            LedgerEntry::PrePrepare(test_pp(0, 2, &rk[0])),
        ]);
        ledger.truncate_to(2);
        assert_eq!(ledger.len(), 2);
        assert!(ledger.durability_lost());

        // Same contract on the batch-append and rollback paths.
        let (mut l2, rk2) = ledger4();
        let dir2 = std::env::temp_dir()
            .join(format!("iaccf-store-faulty2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir2);
        let (log2, _) = crate::durable::DurableLog::open(&dir2, 1).unwrap();
        l2.attach_durable(log2).unwrap();
        l2.durable_mut().unwrap().inject_write_error();
        l2.append_batch(vec![
            LedgerEntry::Nonces { seq: SeqNum(1), nonces: vec![Nonce([1; 16])] },
            LedgerEntry::PrePrepare(test_pp(0, 1, &rk2[0])),
        ]);
        assert!(l2.durability_lost() && l2.durable().is_none());
        assert_eq!(l2.len(), 3);

        let (mut l3, rk3) = ledger4();
        let dir3 = std::env::temp_dir()
            .join(format!("iaccf-store-faulty3-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir3);
        let (log3, _) = crate::durable::DurableLog::open(&dir3, 1).unwrap();
        l3.attach_durable(log3).unwrap();
        l3.append(LedgerEntry::PrePrepare(test_pp(0, 1, &rk3[0])));
        l3.durable_mut().unwrap().inject_write_error();
        l3.truncate_to(1);
        assert!(l3.durability_lost() && l3.durable().is_none());
        assert_eq!(l3.len(), 1, "the in-memory rollback still happened");

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
        let _ = std::fs::remove_dir_all(&dir3);
    }
}

#[cfg(test)]
mod rollback_properties {
    use super::*;
    use ia_ccf_crypto::{KeyPair, Signature};
    use ia_ccf_types::config::testutil::test_config;
    use ia_ccf_types::messages::testutil::test_pp;
    use ia_ccf_types::{NewViewMsg, PrePrepare, ReplicaBitmap, TxLedgerEntry};

    const VIEWS: u64 = 3;
    const SEQS: u64 = 8;

    /// xorshift64: the cases are reproducible from their index.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        /// Uniform in `lo..=hi`.
        fn between(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.below(hi - lo + 1)
        }
    }

    /// One of each entry kind, pre-prepares signed once up front.
    struct Pool {
        config: Configuration,
        pps: Vec<PrePrepare>,
        tx: TxLedgerEntry,
    }

    impl Pool {
        fn new() -> Self {
            let (config, rk, _) = test_config(4);
            let pps = (0..VIEWS)
                .flat_map(|v| (1..=SEQS).map(move |s| (v, s)))
                .map(|(v, s)| test_pp(v, s, &rk[0]))
                .collect();
            let request = ia_ccf_types::SignedRequest::sign(
                ia_ccf_types::Request {
                    action: ia_ccf_types::RequestAction::App {
                        proc: ia_ccf_types::ProcId(1),
                        args: vec![],
                    },
                    client: ia_ccf_types::ClientId(1),
                    gt_hash: Digest::zero(),
                    min_index: LedgerIdx(0),
                    req_id: 1,
                },
                &KeyPair::from_label("c"),
            );
            let tx = TxLedgerEntry {
                request,
                index: LedgerIdx(0),
                result: ia_ccf_types::TxResult {
                    ok: true,
                    output: vec![],
                    write_set_digest: Digest::zero(),
                },
            };
            Pool { config, pps, tx }
        }

        fn entry(&self, rng: &mut Rng) -> LedgerEntry {
            match rng.below(5) {
                0 => LedgerEntry::PrePrepare(self.pps[rng.below(VIEWS * SEQS) as usize].clone()),
                1 => LedgerEntry::Tx(TxLedgerEntry {
                    index: LedgerIdx(rng.below(100)),
                    ..self.tx.clone()
                }),
                2 => LedgerEntry::Nonces { seq: SeqNum(rng.between(1, SEQS)), nonces: vec![] },
                3 => LedgerEntry::ViewChangeSet { view: View(rng.below(VIEWS)), view_changes: vec![] },
                _ => LedgerEntry::NewView(NewViewMsg {
                    view: View(rng.below(VIEWS)),
                    root_m: Digest::zero(),
                    vc_bitmap: ReplicaBitmap::empty(),
                    vc_entry_hash: Digest::zero(),
                    sig: Signature::zero(),
                }),
            }
        }
    }

    /// What a ledger built fresh from the same entries reads.
    fn assert_matches_fresh(ledger: &Ledger, pool: &Pool, case: u64, step: usize) {
        let mut fresh = Ledger::new(pool.config.clone());
        fresh.append_batch(ledger.entries()[1..].to_vec());
        let at = format!("case {case}, step {step}");
        assert_eq!(ledger.len(), fresh.len(), "{at}");
        assert_eq!(ledger.root_m(), fresh.root_m(), "{at}");
        assert_eq!(ledger.frontier(), fresh.frontier(), "{at}");
        for s in 0..=SEQS + 1 {
            let seq = SeqNum(s);
            assert_eq!(ledger.pp_at(seq), fresh.pp_at(seq), "{at}: pp_at({s})");
            assert_eq!(ledger.batch_span(seq), fresh.batch_span(seq), "{at}: batch_span({s})");
            assert_eq!(ledger.fetch_start_pos(seq), fresh.fetch_start_pos(seq), "{at}: {s}");
        }
        for v in 0..=VIEWS {
            assert_eq!(ledger.has_new_view(View(v)), fresh.has_new_view(View(v)), "{at}");
        }
    }

    /// Random `append_batch`, `settle` and `truncate_to` calls, never
    /// truncating below the floor, read the same `M`, pre-prepare index,
    /// transaction runs and new-view set as a ledger built fresh from the
    /// entries that survive. `PROPTEST_CASES` sets the case count (default 64).
    #[test]
    fn rollback_matches_a_fresh_ledger() {
        let cases = std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok());
        let pool = Pool::new();
        for case in 0..cases.unwrap_or(64u64) {
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (case + 1));
            let mut ledger = Ledger::new(pool.config.clone());
            let mut floor = 1;
            for step in 0..rng.between(1, 16) as usize {
                match rng.below(4) {
                    0 | 1 => {
                        let batch = (0..rng.between(1, 4)).map(|_| pool.entry(&mut rng)).collect();
                        ledger.append_batch(batch);
                    }
                    2 => {
                        floor = rng.between(floor, ledger.len());
                        ledger.settle(floor);
                    }
                    _ => ledger.truncate_to(rng.between(floor, ledger.len())),
                }
                assert_matches_fresh(&ledger, &pool, case, step);
            }
        }
    }
}
