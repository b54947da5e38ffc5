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

use ia_ccf_types::{LedgerEntry, SeqNum, View};

/// One structural unit of the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// The genesis entry (index 0 of a full ledger).
    Genesis {
        /// Entry index.
        at: usize,
    },
    /// A batch: optional evidence pair, the pre-prepare, its transactions.
    Batch {
        /// Entry index of the `P_{s−P}` evidence, when present.
        evidence_at: Option<usize>,
        /// Entry index of the `K_{s−P}` nonces, when present.
        nonces_at: Option<usize>,
        /// Entry index of the pre-prepare.
        pp_at: usize,
        /// Entry indices of the batch's `⟨t, i, o⟩` entries.
        tx_at: Vec<usize>,
        /// The batch's sequence number.
        seq: SeqNum,
        /// The batch's view.
        view: View,
    },
    /// A view change: the accepted view-change set and the new-view.
    ViewChange {
        /// Entry index of the view-change set.
        set_at: usize,
        /// Entry index of the new-view message.
        nv_at: usize,
        /// The new view.
        view: View,
    },
}

impl Segment {
    /// The sequence number, for batch segments.
    pub fn seq(&self) -> Option<SeqNum> {
        match self {
            Segment::Batch { seq, .. } => Some(*seq),
            _ => None,
        }
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
pub fn segment_entries(entries: &[LedgerEntry], base: usize) -> Result<Vec<Segment>, SegmentError> {
    let mut segments = Vec::new();
    let mut i = 0usize;
    while i < entries.len() {
        match &entries[i] {
            LedgerEntry::Genesis { .. } => {
                if base + i != 0 {
                    return Err(SegmentError { at: i, what: "genesis not at index 0" });
                }
                segments.push(Segment::Genesis { at: i });
                i += 1;
            }
            LedgerEntry::Evidence { seq: ev_seq, prepares } => {
                // Must be followed by nonces then a pre-prepare referencing them.
                let Some(LedgerEntry::Nonces { seq: n_seq, nonces }) = entries.get(i + 1) else {
                    return Err(SegmentError { at: i, what: "evidence not followed by nonces" });
                };
                if n_seq != ev_seq {
                    return Err(SegmentError { at: i + 1, what: "nonce seq != evidence seq" });
                }
                let Some(LedgerEntry::PrePrepare(pp)) = entries.get(i + 2) else {
                    return Err(SegmentError { at: i, what: "evidence not followed by pre-prepare" });
                };
                if pp.core.evidence_seq != *ev_seq {
                    return Err(SegmentError {
                        at: i + 2,
                        what: "pre-prepare evidence_seq mismatch",
                    });
                }
                let expected = pp.core.evidence_bitmap.count();
                if nonces.len() != expected {
                    return Err(SegmentError { at: i + 1, what: "nonce count != bitmap" });
                }
                if expected > 0 && prepares.len() != expected - 1 {
                    return Err(SegmentError { at: i, what: "prepare count != bitmap − 1" });
                }
                let txs = collect_txs(entries, i + 3);
                let end = i + 3 + txs.len();
                segments.push(Segment::Batch {
                    evidence_at: Some(i),
                    nonces_at: Some(i + 1),
                    pp_at: i + 2,
                    tx_at: txs,
                    seq: pp.seq(),
                    view: pp.view(),
                });
                i = end;
            }
            LedgerEntry::Nonces { .. } => {
                return Err(SegmentError { at: i, what: "nonces without preceding evidence" });
            }
            LedgerEntry::PrePrepare(pp) => {
                // A bare pre-prepare: legal only when it carries no evidence
                // (startup, or evidence for a seq before the fragment).
                if pp.core.evidence_bitmap.count() != 0 {
                    return Err(SegmentError {
                        at: i,
                        what: "pre-prepare claims evidence but none precedes",
                    });
                }
                let txs = collect_txs(entries, i + 1);
                let end = i + 1 + txs.len();
                segments.push(Segment::Batch {
                    evidence_at: None,
                    nonces_at: None,
                    pp_at: i,
                    tx_at: txs,
                    seq: pp.seq(),
                    view: pp.view(),
                });
                i = end;
            }
            LedgerEntry::Tx(_) => {
                return Err(SegmentError { at: i, what: "transaction outside a batch" });
            }
            LedgerEntry::ViewChangeSet { view, .. } => {
                let Some(LedgerEntry::NewView(nv)) = entries.get(i + 1) else {
                    return Err(SegmentError {
                        at: i,
                        what: "view-change set not followed by new-view",
                    });
                };
                if nv.view != *view {
                    return Err(SegmentError { at: i + 1, what: "new-view view mismatch" });
                }
                segments.push(Segment::ViewChange { set_at: i, nv_at: i + 1, view: *view });
                i += 2;
            }
            LedgerEntry::NewView(_) => {
                return Err(SegmentError { at: i, what: "new-view without view-change set" });
            }
        }
    }
    Ok(segments)
}

fn collect_txs(entries: &[LedgerEntry], from: usize) -> Vec<usize> {
    let mut txs = Vec::new();
    let mut j = from;
    while matches!(entries.get(j), Some(LedgerEntry::Tx(_))) {
        txs.push(j);
        j += 1;
    }
    txs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ia_ccf_crypto::KeyPair;
    use ia_ccf_types::config::testutil::test_config;
    use ia_ccf_types::messages::testutil::test_pp;
    use ia_ccf_types::{
        ClientId, LedgerIdx, Nonce, PrePrepare, ProcId, ReplicaBitmap, Request, RequestAction,
        SignedRequest, TxLedgerEntry, TxResult,
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
        assert!(matches!(segs[0], Segment::Genesis { at: 0 }));
        assert!(
            matches!(&segs[1], Segment::Batch { evidence_at: None, tx_at, seq, .. }
                if tx_at.len() == 2 && *seq == SeqNum(1))
        );
        assert!(
            matches!(&segs[2], Segment::Batch { evidence_at: Some(4), nonces_at: Some(5), tx_at, .. }
                if tx_at.len() == 1)
        );
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
