//! Structural segmentation of an entry stream — the mechanical half of
//! Appx. B "well-formedness".
//!
//! A well-formed ledger obeys the grammar (Fig. 3, Alg. 1/2):
//!
//! ```text
//! ledger   := genesis? element*
//! element  := batch | viewchange
//! batch    := (evidence nonces)? pre-prepare tx*
//! viewchange := view-change-set new-view
//! ```
//!
//! with the side conditions that evidence/nonce entries must be referenced
//! by the immediately following pre-prepare (same `evidence_seq`, matching
//! counts) and sequence numbers advance by one per batch within a view.
//! Deeper *validity* is layered on top: who must have signed what is
//! [`crate::validity`]'s, shared by replicas and the auditor; Merkle roots
//! and execution correctness are checked by `ia-ccf-core` (for fetched
//! fragments) and `ia-ccf-audit` (Alg. 4).
//!
//! This module is where the grammar is known: a [`Segment`] is a typed view
//! borrowed from the stream, so replay, `validate_package` and the auditor
//! match no entry variant, and [`crate::Ledger::tx_run`] hands a live
//! replica the same [`TxRun`] type.

use ia_ccf_types::{
    LedgerEntry, NewViewMsg, Nonce, PrePrepare, Prepare, TxLedgerEntry, ViewChange,
};

/// One structural unit of the ledger, borrowed from the entry stream and
/// typed. The parts that are `M` leaves keep their entries too, for the
/// readers that rebuild `M`.
#[derive(Debug, Clone, Copy)]
pub enum Segment<'a> {
    /// The genesis entry (index 0 of a full ledger).
    Genesis(&'a LedgerEntry),
    /// A batch: optional evidence pair, the pre-prepare, its transactions.
    Batch(BatchSegment<'a>),
    /// A view change: the accepted view-change set and the new-view, whose
    /// view is the set's.
    ViewChange {
        /// The accepted view-change messages.
        view_changes: &'a [ViewChange],
        /// The new-view message.
        nv: &'a NewViewMsg,
        /// The set's entry and the new-view's.
        entries: [&'a LedgerEntry; 2],
    },
}

/// A batch segment: `(evidence nonces)? pre-prepare tx*`.
#[derive(Debug, Clone, Copy)]
pub struct BatchSegment<'a> {
    /// The evidence pair the pre-prepare orders in, if any.
    pub evidence: Option<EvidencePair<'a>>,
    /// The pre-prepare.
    pub pp: &'a PrePrepare,
    /// The pre-prepare's entry, whose `M` leaf follows the evidence pair's.
    pub pp_entry: &'a LedgerEntry,
    /// The batch's `⟨t, i, o⟩` entries.
    pub txs: TxRun<'a>,
}

/// `P_{s−P}` and `K_{s−P}`, held by the segmenter to the pre-prepare's
/// `evidence_seq` and bitmap counts.
#[derive(Debug, Clone, Copy)]
pub struct EvidencePair<'a> {
    /// The prepares of every signer but the primary.
    pub prepares: &'a [Prepare],
    /// The revealed nonces, one per signer.
    pub nonces: &'a [Nonce],
    /// The two entries, whose `M` leaves precede the pre-prepare's.
    pub entries: [&'a LedgerEntry; 2],
}

/// A batch's `⟨t, i, o⟩` entries: a run of entries that are all `Tx`, built
/// only by this crate (the segmenter, [`crate::Ledger::tx_run`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct TxRun<'a>(&'a [LedgerEntry]);

impl<'a> TxRun<'a> {
    /// `entries`, which the caller found to be all `Tx`.
    pub(crate) fn new(entries: &'a [LedgerEntry]) -> Self {
        debug_assert!(entries.iter().all(|e| matches!(e, LedgerEntry::Tx(_))));
        TxRun(entries)
    }

    /// All of `entries`, when every one is a `Tx` (a checkpoint seed's
    /// run after its pre-prepare).
    pub fn whole(entries: &'a [LedgerEntry]) -> Option<Self> {
        let run = tx_run(entries, 0);
        (run.len() == entries.len()).then_some(run)
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the batch holds no transaction.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The transaction at `pos`.
    pub fn get(&self, pos: usize) -> Option<&'a TxLedgerEntry> {
        self.0.get(pos).and_then(as_tx)
    }

    /// The transactions in batch order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &'a TxLedgerEntry> + 'a {
        self.0.iter().filter_map(as_tx)
    }
}

fn as_tx(entry: &LedgerEntry) -> Option<&TxLedgerEntry> {
    match entry {
        LedgerEntry::Tx(tx) => Some(tx),
        _ => None,
    }
}

/// Structural violation at an entry index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentError {
    /// Index of the offending entry.
    pub at: usize,
    /// What was wrong.
    pub what: &'static str,
}

impl std::fmt::Display for SegmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed ledger at entry {}: {}", self.at, self.what)
    }
}

impl std::error::Error for SegmentError {}

/// Parse an entry stream into segments, enforcing the grammar above.
/// `base` is the absolute index of `entries[0]` (fragments don't start at
/// zero), used only to report genesis placement. The stream must be
/// complete: end-of-input closes a trailing batch's transaction run, and
/// a segment cut off mid-way (dangling evidence, a view-change set with
/// no new-view) is malformed.
pub fn segment_entries(
    entries: &[LedgerEntry],
    base: usize,
) -> Result<Vec<Segment<'_>>, SegmentError> {
    let mut segments = Vec::new();
    let mut i = 0usize;
    while let Some(entry) = entries.get(i) {
        let err = |at, what| Err(SegmentError { at, what });
        match entry {
            LedgerEntry::Genesis { .. } => {
                if base + i != 0 {
                    return err(i, "genesis not at index 0");
                }
                segments.push(Segment::Genesis(entry));
                i += 1;
            }
            LedgerEntry::Evidence { seq: ev_seq, prepares } => {
                // Must be followed by nonces then a pre-prepare referencing them.
                let next = entries.get(i + 1);
                let Some(nonces_entry @ LedgerEntry::Nonces { seq: n_seq, nonces }) = next else {
                    return err(i, "evidence not followed by nonces");
                };
                if n_seq != ev_seq {
                    return err(i + 1, "nonce seq != evidence seq");
                }
                let Some(pp_entry @ LedgerEntry::PrePrepare(pp)) = entries.get(i + 2) else {
                    return err(i, "evidence not followed by pre-prepare");
                };
                if pp.core.evidence_seq != *ev_seq {
                    return err(i + 2, "pre-prepare evidence_seq mismatch");
                }
                let expected = pp.core.evidence_bitmap.count();
                if nonces.len() != expected {
                    return err(i + 1, "nonce count != bitmap");
                }
                if expected > 0 && prepares.len() != expected - 1 {
                    return err(i, "prepare count != bitmap − 1");
                }
                let entries_pair = [entry, nonces_entry];
                let evidence = Some(EvidencePair { prepares, nonces, entries: entries_pair });
                let txs = tx_run(entries, i + 3);
                segments.push(Segment::Batch(BatchSegment { evidence, pp, pp_entry, txs }));
                i += 3 + txs.len();
            }
            LedgerEntry::Nonces { .. } => {
                return err(i, "nonces without preceding evidence");
            }
            LedgerEntry::PrePrepare(pp) => {
                // A bare pre-prepare: legal only when it carries no evidence
                // (startup, or evidence for a seq before the fragment).
                if pp.core.evidence_bitmap.count() != 0 {
                    return err(i, "pre-prepare claims evidence but none precedes");
                }
                let txs = tx_run(entries, i + 1);
                let batch = BatchSegment { evidence: None, pp, pp_entry: entry, txs };
                segments.push(Segment::Batch(batch));
                i += 1 + txs.len();
            }
            LedgerEntry::Tx(_) => {
                return err(i, "transaction outside a batch");
            }
            LedgerEntry::ViewChangeSet { view, view_changes } => {
                let Some(nv_entry @ LedgerEntry::NewView(nv)) = entries.get(i + 1) else {
                    return err(i, "view-change set not followed by new-view");
                };
                if nv.view != *view {
                    return err(i + 1, "new-view view mismatch");
                }
                segments.push(Segment::ViewChange { view_changes, nv, entries: [entry, nv_entry] });
                i += 2;
            }
            LedgerEntry::NewView(_) => {
                return err(i, "new-view without view-change set");
            }
        }
    }
    Ok(segments)
}

/// The `Tx` run of `entries` starting at `from` (empty past the end).
fn tx_run(entries: &[LedgerEntry], from: usize) -> TxRun<'_> {
    let rest = entries.get(from..).unwrap_or_default();
    let len = rest.iter().take_while(|e| matches!(e, LedgerEntry::Tx(_))).count();
    TxRun::new(&rest[..len])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_crypto::KeyPair;
    use ia_ccf_types::config::testutil::test_config;
    use ia_ccf_types::messages::testutil::test_pp;
    use ia_ccf_types::{
        ClientId, LedgerIdx, Nonce, PrePrepare, ProcId, ReplicaBitmap, Request, RequestAction,
        SeqNum, SignedRequest, TxLedgerEntry, TxResult, View,
    };

    fn pp_no_evidence(view: u64, seq: u64) -> PrePrepare {
        let kp = KeyPair::from_label("p");
        let mut pp = test_pp(view, seq, &kp);
        pp.core.evidence_bitmap = ReplicaBitmap::empty();
        pp
    }

    fn pp_with_evidence(view: u64, seq: u64, ev_seq: u64, signers: usize) -> PrePrepare {
        let kp = KeyPair::from_label("p");
        let mut pp = test_pp(view, seq, &kp);
        pp.core.evidence_seq = SeqNum(ev_seq);
        pp.core.evidence_bitmap = ReplicaBitmap::from_ranks(0..signers);
        pp
    }

    fn tx_entry(i: u64) -> LedgerEntry {
        let kp = KeyPair::from_label("c");
        LedgerEntry::Tx(TxLedgerEntry {
            request: SignedRequest::sign(
                Request {
                    action: RequestAction::App { proc: ProcId(1), args: vec![] },
                    client: ClientId(1),
                    gt_hash: ia_ccf_crypto::hash_bytes(b"gt"),
                    min_index: LedgerIdx(0),
                    req_id: i,
                },
                &kp,
            ),
            index: LedgerIdx(i),
            result: TxResult {
                ok: true,
                output: vec![],
                write_set_digest: ia_ccf_crypto::Digest::zero(),
            },
        })
    }

    fn genesis() -> LedgerEntry {
        let (config, _, _) = test_config(4);
        LedgerEntry::Genesis { config }
    }

    fn evidence(seq: u64, signers: usize) -> [LedgerEntry; 2] {
        // `signers − 1` prepares and `signers` nonces, matching the bitmap.
        let kp = KeyPair::from_label("b");
        let prepares = (1..signers)
            .map(|r| ia_ccf_types::Prepare {
                view: View(0),
                seq: SeqNum(seq),
                replica: ia_ccf_types::ReplicaId(r as u32),
                nonce_commit: Nonce([r as u8; 16]).commitment(),
                pp_digest: ia_ccf_crypto::hash_bytes(b"pp"),
                sig: kp.sign(b"x"),
            })
            .collect();
        let nonces = (0..signers).map(|r| Nonce([r as u8; 16])).collect();
        [
            LedgerEntry::Evidence { seq: SeqNum(seq), prepares },
            LedgerEntry::Nonces { seq: SeqNum(seq), nonces },
        ]
    }

    #[test]
    fn well_formed_stream_segments() {
        let [ev, no] = evidence(1, 3);
        let entries = vec![
            genesis(),
            LedgerEntry::PrePrepare(pp_no_evidence(0, 1)),
            tx_entry(2),
            tx_entry(3),
            ev,
            no,
            LedgerEntry::PrePrepare(pp_with_evidence(0, 2, 1, 3)),
            tx_entry(7),
        ];
        let segs = segment_entries(&entries, 0).unwrap();
        assert_eq!(segs.len(), 3);
        assert!(matches!(segs[0], Segment::Genesis(entry) if std::ptr::eq(entry, &entries[0])));
        let Segment::Batch(first) = segs[1] else { panic!("{:?}", segs[1]) };
        assert!(first.evidence.is_none() && std::ptr::eq(first.pp_entry, &entries[1]));
        assert_eq!(first.pp.seq(), SeqNum(1));
        let index = |run: TxRun<'_>| run.iter().map(|tx| tx.index.0).collect::<Vec<_>>();
        assert_eq!(index(first.txs), [2, 3]);
        let Segment::Batch(second) = segs[2] else { panic!("{:?}", segs[2]) };
        let evidence = second.evidence.expect("an evidence pair");
        assert_eq!((evidence.prepares.len(), evidence.nonces.len()), (2, 3));
        assert_eq!(evidence.entries, [&entries[4], &entries[5]]);
        assert!(std::ptr::eq(second.pp_entry, &entries[6]));
        assert_eq!(index(second.txs), [7]);
        assert_eq!(second.txs.get(0).map(|tx| tx.index.0), Some(7));
        assert!(second.txs.get(1).is_none());
    }

    #[test]
    fn view_change_pair_segments() {
        let [set, nv] = view_change_pair(1);
        let entries = vec![set, nv, LedgerEntry::PrePrepare(pp_no_evidence(1, 1))];
        let segs = segment_entries(&entries, 7).unwrap();
        let Segment::ViewChange { view_changes, nv, entries: [set_entry, nv_entry] } = segs[0]
        else {
            panic!("{:?}", segs[0])
        };
        assert_eq!((nv.view, view_changes.len()), (View(1), 0));
        assert!(std::ptr::eq(set_entry, &entries[0]) && std::ptr::eq(nv_entry, &entries[1]));
        assert!(matches!(segs[1], Segment::Batch(b) if b.txs.is_empty()));
    }

    fn view_change_pair(view: u64) -> [LedgerEntry; 2] {
        [
            LedgerEntry::ViewChangeSet { view: View(view), view_changes: vec![] },
            LedgerEntry::NewView(ia_ccf_types::NewViewMsg {
                view: View(view),
                root_m: ia_ccf_crypto::hash_bytes(b"m"),
                vc_bitmap: ReplicaBitmap::empty(),
                vc_entry_hash: ia_ccf_crypto::hash_bytes(b"vc"),
                sig: ia_ccf_types::Signature::zero(),
            }),
        ]
    }

    #[test]
    fn genesis_mid_stream_rejected() {
        let entries = vec![LedgerEntry::PrePrepare(pp_no_evidence(0, 1)), genesis()];
        let err = segment_entries(&entries, 0).unwrap_err();
        assert_eq!(err.what, "genesis not at index 0");
    }

    #[test]
    fn orphan_tx_rejected() {
        let entries = vec![genesis(), tx_entry(1)];
        let err = segment_entries(&entries, 0).unwrap_err();
        assert_eq!(err.what, "transaction outside a batch");
    }

    #[test]
    fn orphan_nonces_rejected() {
        let entries = vec![LedgerEntry::Nonces { seq: SeqNum(1), nonces: vec![] }];
        assert!(segment_entries(&entries, 5).is_err());
    }

    #[test]
    fn evidence_without_pp_rejected() {
        let [ev, no] = evidence(1, 3);
        let entries = vec![ev, no, tx_entry(2)];
        let err = segment_entries(&entries, 3).unwrap_err();
        assert_eq!(err.what, "evidence not followed by pre-prepare");
    }

    #[test]
    fn evidence_seq_mismatch_rejected() {
        let [ev, no] = evidence(1, 3);
        let entries = vec![ev, no, LedgerEntry::PrePrepare(pp_with_evidence(0, 2, 9, 3))];
        let err = segment_entries(&entries, 3).unwrap_err();
        assert_eq!(err.what, "pre-prepare evidence_seq mismatch");
    }

    #[test]
    fn nonce_count_mismatch_rejected() {
        let [ev, _] = evidence(1, 3);
        let wrong_nonces = LedgerEntry::Nonces { seq: SeqNum(1), nonces: vec![Nonce([1; 16])] };
        let entries = vec![ev, wrong_nonces, LedgerEntry::PrePrepare(pp_with_evidence(0, 2, 1, 3))];
        let err = segment_entries(&entries, 3).unwrap_err();
        assert_eq!(err.what, "nonce count != bitmap");
    }

    #[test]
    fn pp_claiming_missing_evidence_rejected() {
        let entries = vec![LedgerEntry::PrePrepare(pp_with_evidence(0, 2, 1, 3))];
        let err = segment_entries(&entries, 3).unwrap_err();
        assert_eq!(err.what, "pre-prepare claims evidence but none precedes");
    }

    #[test]
    fn new_view_without_set_rejected() {
        let entries = vec![LedgerEntry::NewView(ia_ccf_types::NewViewMsg {
            view: View(1),
            root_m: ia_ccf_crypto::hash_bytes(b"m"),
            vc_bitmap: ReplicaBitmap::empty(),
            vc_entry_hash: ia_ccf_crypto::hash_bytes(b"vc"),
            sig: ia_ccf_types::Signature::zero(),
        })];
        let err = segment_entries(&entries, 1).unwrap_err();
        assert_eq!(err.what, "new-view without view-change set");
    }
}
