//! Property tests over the wire codec: every protocol message and ledger
//! entry round-trips, `encoded_len` is exact, the shared [`frame`] codec
//! round-trips and survives hostile input (truncated frames and oversized
//! length prefixes error — never panic, never over-allocate), and
//! decoding never panics on arbitrary bytes (hostile-input safety for the
//! TCP transport).

use ia_ccf_net::frame;
use proptest::prelude::*;

use ia_ccf_types::{
    BatchCertificate, BatchKind, CheckpointPayload, CheckpointPin, ClientId, CodecError, Commit,
    Digest, GovAction, LedgerEntry, LedgerIdx, MerklePath, NewViewMsg, Nonce, NonceCommitment,
    PrePrepare, PrePrepareCore, Prepare, ProcId, ProtocolMsg, Receipt, ReceiptBody, Reply,
    ReplicaBitmap, ReplicaId, ReplyX, Request, RequestAction, SeqNum, Signature, SignedRequest,
    SystemOp, TxLedgerEntry, TxResult, TxWitness, View, ViewChange, Wire,
};

fn arb_digest() -> impl Strategy<Value = Digest> {
    any::<[u8; 32]>().prop_map(Digest::from_bytes)
}

fn arb_sig() -> impl Strategy<Value = Signature> {
    any::<[u8; 32]>().prop_map(|half| {
        let mut s = [0u8; 64];
        s[..32].copy_from_slice(&half);
        s[32..].copy_from_slice(&half);
        Signature(s)
    })
}

fn arb_kind() -> impl Strategy<Value = BatchKind> {
    prop_oneof![
        Just(BatchKind::Regular),
        Just(BatchKind::Checkpoint),
        (1u32..9).prop_map(|phase| BatchKind::EndOfConfig { phase }),
        (1u32..5).prop_map(|phase| BatchKind::StartOfConfig { phase }),
    ]
}

prop_compose! {
    fn arb_core()(
        view in 0u64..1000,
        seq in 0u64..100_000,
        root_m in arb_digest(),
        nonce_commit in arb_digest(),
        evidence_seq in 0u64..100_000,
        bitmap in any::<u64>(),
        gov_index in 0u64..100_000,
        checkpoint_digest in arb_digest(),
        kind in arb_kind(),
        committed_root in proptest::option::of(arb_digest()),
        primary in 0u32..64,
    ) -> PrePrepareCore {
        PrePrepareCore {
            view: View(view),
            seq: SeqNum(seq),
            root_m,
            nonce_commit: NonceCommitment(nonce_commit),
            evidence_seq: SeqNum(evidence_seq),
            evidence_bitmap: ReplicaBitmap(bitmap),
            gov_index: LedgerIdx(gov_index),
            checkpoint_digest,
            kind,
            committed_root,
            primary: ReplicaId(primary),
        }
    }
}

prop_compose! {
    fn arb_request()(
        proc in any::<u16>(),
        args in proptest::collection::vec(any::<u8>(), 0..64),
        client in any::<u64>(),
        gt in arb_digest(),
        min_index in 0u64..100_000,
        req_id in any::<u64>(),
        sig in arb_sig(),
    ) -> SignedRequest {
        SignedRequest {
            request: Request {
                action: RequestAction::App { proc: ProcId(proc), args },
                client: ClientId(client),
                gt_hash: gt,
                min_index: LedgerIdx(min_index),
                req_id,
            },
            sig,
        }
    }
}

proptest! {
    #[test]
    fn pre_prepare_roundtrips(core in arb_core(), root_g in arb_digest(), sig in arb_sig()) {
        let pp = PrePrepare { core, root_g, sig };
        prop_assert_eq!(PrePrepare::from_bytes(&pp.to_bytes()).unwrap(), pp);
    }

    #[test]
    fn signed_request_roundtrips(req in arb_request()) {
        prop_assert_eq!(SignedRequest::from_bytes(&req.to_bytes()).unwrap(), req);
    }

    #[test]
    fn tx_entry_roundtrips(
        req in arb_request(),
        index in 0u64..100_000,
        ok in any::<bool>(),
        output in proptest::collection::vec(any::<u8>(), 0..64),
        ws in arb_digest(),
    ) {
        let entry = LedgerEntry::Tx(TxLedgerEntry {
            request: req,
            index: LedgerIdx(index),
            result: TxResult { ok, output, write_set_digest: ws },
        });
        prop_assert_eq!(LedgerEntry::from_bytes(&entry.to_bytes()).unwrap(), entry);
    }

    #[test]
    fn protocol_messages_roundtrip(
        core in arb_core(),
        root_g in arb_digest(),
        sig in arb_sig(),
        nonce in any::<[u8; 16]>(),
        hashes in proptest::collection::vec(arb_digest(), 0..8),
        req_ids in proptest::collection::vec(any::<u64>(), 0..4),
    ) {
        let msgs = vec![
            ProtocolMsg::PrePrepare {
                pp: PrePrepare { core: core.clone(), root_g, sig },
                batch: hashes.clone(),
            },
            ProtocolMsg::Prepare(Prepare {
                view: core.view,
                seq: core.seq,
                replica: core.primary,
                nonce_commit: core.nonce_commit,
                pp_digest: root_g,
                sig,
            }),
            ProtocolMsg::Commit(Commit {
                view: core.view,
                seq: core.seq,
                replica: core.primary,
                nonce: Nonce(nonce),
            }),
            ProtocolMsg::Reply(Reply {
                view: core.view,
                seq: core.seq,
                replica: core.primary,
                sig,
                nonce: Nonce(nonce),
                req_ids,
            }),
            ProtocolMsg::FetchRequests { hashes },
            ProtocolMsg::FetchEvidence { seq: core.seq },
        ];
        for m in msgs {
            prop_assert_eq!(ProtocolMsg::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    /// Hostile input: decoding arbitrary bytes must error, never panic or
    /// over-allocate.
    #[test]
    fn decoding_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = ProtocolMsg::from_bytes(&bytes);
        let _ = LedgerEntry::from_bytes(&bytes);
        let _ = SignedRequest::from_bytes(&bytes);
        let _ = PrePrepare::from_bytes(&bytes);
    }

    /// `encoded_len` must agree exactly with the materialized encoding for
    /// every message variant and every ledger entry (framing layers size
    /// buffers from it, and a drifting impl must show up here).
    #[test]
    fn encoded_len_is_exact(
        core in arb_core(),
        root_g in arb_digest(),
        sig in arb_sig(),
        req in arb_request(),
        nonce in any::<[u8; 16]>(),
        hashes in proptest::collection::vec(arb_digest(), 0..8),
        req_ids in proptest::collection::vec(any::<u64>(), 0..4),
        output in proptest::collection::vec(any::<u8>(), 0..64),
        ok in any::<bool>(),
    ) {
        let pp = PrePrepare { core: core.clone(), root_g, sig };
        let prepare = Prepare {
            view: core.view,
            seq: core.seq,
            replica: core.primary,
            nonce_commit: core.nonce_commit,
            pp_digest: root_g,
            sig,
        };
        let result = TxResult { ok, output: output.clone(), write_set_digest: root_g };
        let path = MerklePath { index: 2, tree_len: 5, siblings: hashes.clone() };
        let view_change = ViewChange {
            view: core.view,
            replica: core.primary,
            pps: vec![pp.clone()],
            last_proof: vec![prepare.clone()],
            sig,
        };
        let nv = NewViewMsg {
            view: core.view,
            root_m: root_g,
            vc_bitmap: core.evidence_bitmap,
            vc_entry_hash: root_g,
            sig,
        };
        let cert = BatchCertificate {
            core: core.clone(),
            primary_sig: sig,
            signers: core.evidence_bitmap,
            prepare_sigs: vec![sig; hashes.len()],
            nonces: vec![Nonce(nonce); req_ids.len()],
        };
        let tx_receipt = Receipt {
            cert: cert.clone(),
            body: ReceiptBody::Tx(TxWitness {
                tx_hash: root_g,
                index: core.gov_index,
                result: result.clone(),
                path: path.clone(),
            }),
        };
        let batch_receipt = Receipt { cert, body: ReceiptBody::Batch { root_g } };
        let pin = CheckpointPin { seq: core.seq, kv_digest: root_g, tree_root: core.root_m };
        let msgs = vec![
            ProtocolMsg::Request(req.clone()),
            ProtocolMsg::PrePrepare { pp: pp.clone(), batch: hashes.clone() },
            ProtocolMsg::Prepare(prepare.clone()),
            ProtocolMsg::Commit(Commit {
                view: core.view,
                seq: core.seq,
                replica: core.primary,
                nonce: Nonce(nonce),
            }),
            ProtocolMsg::Reply(Reply {
                view: core.view,
                seq: core.seq,
                replica: core.primary,
                sig,
                nonce: Nonce(nonce),
                req_ids,
            }),
            ProtocolMsg::FetchRequests { hashes: hashes.clone() },
            ProtocolMsg::FetchRequestsResponse { requests: vec![req.clone()] },
            ProtocolMsg::FetchLedgerPage { from_seq: core.seq, max_bytes: 1 << 20 },
            ProtocolMsg::FetchLedgerPageResponse {
                entries: vec![output.clone(), Vec::new()],
                next_seq: core.seq,
                done: ok,
            },
            ProtocolMsg::FetchGovReceipts { from_index: core.gov_index },
            ProtocolMsg::FetchReceipt { tx_hash: root_g },
            ProtocolMsg::FetchEvidence { seq: core.seq },
            ProtocolMsg::FetchEvidenceResponse {
                prepares: vec![prepare.clone()],
                commits: Vec::new(),
            },
            ProtocolMsg::ReplyX(ReplyX {
                core: core.clone(),
                primary_sig: sig,
                tx_hash: root_g,
                index: core.gov_index,
                result: result.clone(),
                path,
            }),
            ProtocolMsg::ViewChange(view_change.clone()),
            ProtocolMsg::NewView {
                nv: nv.clone(),
                view_changes: vec![view_change.clone()],
            },
            ProtocolMsg::GovReceipts {
                receipts: vec![(Some(req.clone()), tx_receipt), (None, batch_receipt)],
            },
            ProtocolMsg::FetchLedgerTip,
            ProtocolMsg::LedgerTipResponse { tip: core.seq, offer: Some(pin) },
            ProtocolMsg::LedgerTipResponse { tip: core.seq, offer: None },
            ProtocolMsg::FetchCheckpoint { seq: core.seq },
            ProtocolMsg::FetchCheckpointResponse {
                seq: core.seq,
                payload: Some(CheckpointPayload {
                    kv_bytes: output.clone(),
                    frontier: root_g.as_bytes().to_vec(),
                    ledger_len: core.gov_index.0,
                    next_tx_index: core.evidence_seq.0,
                    seed_entries: vec![output.clone(), Vec::new()],
                }),
            },
            ProtocolMsg::FetchCheckpointResponse { seq: core.seq, payload: None },
        ];
        for m in msgs {
            prop_assert_eq!(m.encoded_len(), m.to_bytes().len());
        }
        let entries = vec![
            LedgerEntry::Genesis { config: ia_ccf_types::config::testutil::test_config(4).0 },
            LedgerEntry::Evidence { seq: core.evidence_seq, prepares: vec![prepare] },
            LedgerEntry::Nonces { seq: core.evidence_seq, nonces: vec![Nonce(nonce); hashes.len()] },
            LedgerEntry::PrePrepare(pp),
            LedgerEntry::Tx(TxLedgerEntry { request: req, index: core.gov_index, result }),
            LedgerEntry::ViewChangeSet { view: core.view, view_changes: vec![view_change] },
            LedgerEntry::NewView(nv),
        ];
        for entry in entries {
            prop_assert_eq!(entry.encoded_len(), entry.to_bytes().len());
        }
    }

    /// Frame round-trip: any payload survives encode → decode_exact, and
    /// any sequence of frames splits back into its payloads.
    #[test]
    fn frames_roundtrip(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..256), 1..6),
    ) {
        let mut buf = Vec::new();
        for p in &payloads {
            frame::encode(p, &mut buf);
        }
        let mut rest: &[u8] = &buf;
        for p in &payloads {
            let (payload, tail) = frame::split(rest).unwrap().expect("frame present");
            prop_assert_eq!(payload, &p[..]);
            rest = tail;
        }
        prop_assert!(rest.is_empty());
        // Single-frame exact decode.
        let mut single = Vec::new();
        frame::encode(&payloads[0], &mut single);
        prop_assert_eq!(frame::decode_exact(&single).unwrap(), &payloads[0][..]);
        // The stream reader reproduces the same payloads.
        let mut reader = std::io::Cursor::new(&buf);
        let mut scratch = Vec::new();
        for p in &payloads {
            frame::read_frame(&mut reader, &mut scratch).unwrap();
            prop_assert_eq!(&scratch, p);
        }
    }

    /// Truncated frames must error (exact decode) or report incomplete
    /// (streaming split) — never panic.
    #[test]
    fn truncated_frames_error(
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut in any::<usize>(),
    ) {
        let mut buf = Vec::new();
        frame::encode(&payload, &mut buf);
        let cut = cut % buf.len(); // strictly shorter
        let truncated =
            matches!(frame::decode_exact(&buf[..cut]), Err(frame::FrameError::Truncated { .. }));
        prop_assert!(truncated);
        prop_assert!(frame::split(&buf[..cut]).unwrap().is_none());
        let mut reader = std::io::Cursor::new(&buf[..cut]);
        let mut scratch = Vec::new();
        prop_assert!(frame::read_frame(&mut reader, &mut scratch).is_err());
    }

    /// Oversized length prefixes must error, never panic or over-allocate
    /// — memory use is bounded by bytes actually received, not by the
    /// hostile prefix.
    #[test]
    fn oversized_prefixes_never_allocate(
        over in (frame::MAX_FRAME as u64 + 1)..=u32::MAX as u64,
        tail in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut buf = (over as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&tail);
        prop_assert!(matches!(frame::split(&buf), Err(frame::FrameError::Oversized(_))));
        prop_assert!(matches!(frame::decode_exact(&buf), Err(frame::FrameError::Oversized(_))));
        let mut reader = std::io::Cursor::new(&buf);
        let mut scratch = Vec::new();
        prop_assert!(frame::read_frame(&mut reader, &mut scratch).is_err());
        prop_assert_eq!(scratch.capacity(), 0, "hostile prefix must not allocate");
    }

    /// Arbitrary garbage through every frame decoder: errors or clean
    /// splits only, never a panic.
    #[test]
    fn frame_decoders_survive_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = frame::split(&bytes);
        let _ = frame::decode_exact(&bytes);
        let mut reader = std::io::Cursor::new(&bytes);
        let mut scratch = Vec::new();
        let _ = frame::read_frame(&mut reader, &mut scratch);
    }

    /// A wire message framed through the scratch encoder decodes back —
    /// the path every hot-path send takes.
    #[test]
    fn framed_messages_roundtrip(core in arb_core(), root_g in arb_digest(), sig in arb_sig()) {
        let msg = ProtocolMsg::PrePrepare {
            pp: PrePrepare { core, root_g, sig },
            batch: vec![root_g],
        };
        let mut scratch = Vec::new();
        let framed = frame::encode_msg(&msg, &mut scratch);
        let payload = frame::decode_exact(framed).unwrap();
        prop_assert_eq!(ProtocolMsg::from_bytes(payload).unwrap(), msg);
    }

    /// Truncation of a valid encoding must error, never panic.
    #[test]
    fn truncated_messages_error(core in arb_core(), root_g in arb_digest(), sig in arb_sig(), cut in 0usize..100) {
        let pp = PrePrepare { core, root_g, sig };
        let bytes = pp.to_bytes();
        let cut = cut.min(bytes.len().saturating_sub(1));
        prop_assert!(PrePrepare::from_bytes(&bytes[..cut]).is_err());
    }

    /// Hostile input per variant: an arbitrary body behind *every*
    /// `ProtocolMsg` tag byte (valid tags and invalid ones alike) must
    /// decode to `Ok` or `Err` — never panic or over-allocate. This
    /// drives every variant's decoder with garbage, not just whichever
    /// tags random bytes happen to start with.
    #[test]
    fn every_variant_tag_survives_garbage_bodies(
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Tags 0..=16 are the current variants; a few beyond must error.
        for tag in 0u8..=20 {
            let mut bytes = Vec::with_capacity(body.len() + 1);
            bytes.push(tag);
            bytes.extend_from_slice(&body);
            let _ = ProtocolMsg::from_bytes(&bytes);
        }
    }

    /// Tags 10, 11 and 15 are reserved (the retired single-shot ledger
    /// fetch and the PeerReview ack): a frame carrying one is rejected on
    /// the tag byte, whatever follows — including a body that opens with a
    /// forged `u32::MAX` entry count, which must never be read as a length
    /// to allocate from.
    #[test]
    fn reserved_tags_always_error(
        body in proptest::collection::vec(any::<u8>(), 0..256),
        forge_count in any::<bool>(),
    ) {
        for tag in [10u8, 11, 15] {
            let mut payload = vec![tag];
            if forge_count {
                payload.extend_from_slice(&u32::MAX.to_le_bytes());
            }
            payload.extend_from_slice(&body);
            let mut framed = Vec::new();
            frame::encode(&payload, &mut framed);
            let decoded = ProtocolMsg::from_bytes(frame::decode_exact(&framed).unwrap());
            prop_assert_eq!(decoded, Err(CodecError::BadTag { context: "ProtocolMsg", tag }));
        }
    }

    /// Hostile input for the paged state-transfer messages: every decoded
    /// page must be internally consistent or rejected — flipped `done`
    /// bytes, backwards continuation tokens, forged entry counts and
    /// oversized entry length prefixes can corrupt a transfer's *content*
    /// only in ways the requester-side checks see, never crash the
    /// decoder or cause a hostile allocation.
    #[test]
    fn fetch_ledger_page_variants_survive_hostility(
        entries in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48), 0..5),
        from in any::<u64>(),
        next in any::<u64>(),
        done_byte in any::<u8>(),
        forged_count in any::<u32>(),
        flip_pos in any::<usize>(),
        flip_mask in 1u8..=255,
    ) {
        // Roundtrip holds for any payload, including empty entry lists
        // and a `next_seq` *behind* `from_seq` — the wire layer carries
        // them faithfully; rejecting non-progressing tokens is the
        // requester state machine's job (tests/paged_fetch_equiv.rs).
        let req = ProtocolMsg::FetchLedgerPage { from_seq: SeqNum(from), max_bytes: next };
        prop_assert_eq!(ProtocolMsg::from_bytes(&req.to_bytes()).unwrap(), req);
        let resp = ProtocolMsg::FetchLedgerPageResponse {
            entries: entries.clone(),
            next_seq: SeqNum(next),
            done: done_byte % 2 == 0,
        };
        let bytes = resp.to_bytes();
        prop_assert_eq!(ProtocolMsg::from_bytes(&bytes).unwrap(), resp);
        prop_assert_eq!(bytes.len(), ProtocolMsg::FetchLedgerPageResponse {
            entries: entries.clone(),
            next_seq: SeqNum(next),
            done: done_byte % 2 == 0,
        }.encoded_len());

        // Flipped done flag: the trailing byte is the `done` bool; any
        // value outside {0, 1} must be a decode error, never a panic or
        // a silently-ambiguous continuation state.
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() = done_byte;
        match ProtocolMsg::from_bytes(&flipped) {
            Ok(ProtocolMsg::FetchLedgerPageResponse { done, .. }) => {
                prop_assert!(done_byte <= 1 && done == (done_byte == 1));
            }
            Ok(other) => prop_assert!(false, "decoded into {other:?}"),
            Err(_) => prop_assert!(done_byte > 1),
        }

        // Forged entry count: overwrite the count prefix with an
        // arbitrary u32. Decoding must error (the claimed entries are
        // not there) or produce a consistent message — and must never
        // allocate for the forged count up front.
        let mut forged = bytes.clone();
        forged[1..5].copy_from_slice(&forged_count.to_le_bytes());
        if let Ok(decoded) = ProtocolMsg::from_bytes(&forged) {
            prop_assert_eq!(ProtocolMsg::from_bytes(&decoded.to_bytes()).unwrap(), decoded);
        }

        // An oversized length prefix on the first entry (when present):
        // error, not a multi-gigabyte allocation.
        if !entries.is_empty() {
            let mut oversized = bytes.clone();
            oversized[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
            prop_assert!(ProtocolMsg::from_bytes(&oversized).is_err());
        }

        // Arbitrary single-byte corruption anywhere: no panics.
        let mut corrupt = bytes;
        let pos = flip_pos % corrupt.len();
        corrupt[pos] ^= flip_mask;
        let _ = ProtocolMsg::from_bytes(&corrupt);
    }

    /// Hostile input per variant: byte-level corruption of *valid*
    /// encodings of every constructible variant must never panic, and a
    /// successful decode of a corrupted buffer must still be internally
    /// consistent (re-encoding round-trips).
    #[test]
    fn corrupted_valid_encodings_never_panic(
        core in arb_core(),
        root_g in arb_digest(),
        sig in arb_sig(),
        req in arb_request(),
        nonce in any::<[u8; 16]>(),
        hashes in proptest::collection::vec(arb_digest(), 0..4),
        flip_pos in any::<u64>(),
        flip_mask in 1u8..=255,
    ) {
        let msgs = vec![
            ProtocolMsg::Request(req.clone()),
            ProtocolMsg::PrePrepare {
                pp: PrePrepare { core: core.clone(), root_g, sig },
                batch: hashes.clone(),
            },
            ProtocolMsg::Prepare(Prepare {
                view: core.view,
                seq: core.seq,
                replica: core.primary,
                nonce_commit: core.nonce_commit,
                pp_digest: root_g,
                sig,
            }),
            ProtocolMsg::Commit(Commit {
                view: core.view,
                seq: core.seq,
                replica: core.primary,
                nonce: Nonce(nonce),
            }),
            ProtocolMsg::Reply(Reply {
                view: core.view,
                seq: core.seq,
                replica: core.primary,
                sig,
                nonce: Nonce(nonce),
                req_ids: vec![req.request.req_id],
            }),
            ProtocolMsg::FetchRequests { hashes: hashes.clone() },
            ProtocolMsg::FetchRequestsResponse { requests: vec![req.clone()] },
            ProtocolMsg::FetchGovReceipts { from_index: core.gov_index },
            ProtocolMsg::FetchReceipt { tx_hash: root_g },
            ProtocolMsg::FetchEvidence { seq: core.seq },
            ProtocolMsg::FetchEvidenceResponse { prepares: Vec::new(), commits: Vec::new() },
            ProtocolMsg::FetchLedgerPage { from_seq: core.seq, max_bytes: flip_pos },
            ProtocolMsg::FetchLedgerPageResponse {
                entries: vec![vec![1, 2, 3], Vec::new()],
                next_seq: core.seq,
                done: true,
            },
        ];
        for msg in msgs {
            let mut bytes = msg.to_bytes();
            let pos = (flip_pos as usize) % bytes.len();
            bytes[pos] ^= flip_mask;
            if let Ok(decoded) = ProtocolMsg::from_bytes(&bytes) {
                // A decode that survives corruption must still be a
                // well-formed message.
                prop_assert_eq!(
                    ProtocolMsg::from_bytes(&decoded.to_bytes()).unwrap(),
                    decoded
                );
            }
        }
    }
}

/// One fixed instance of every layout the ledger, receipts and the
/// protocol rest on, each pinned by the SHA-256 of its encoding. A round
/// trip cannot catch a reordered field or a wrong tag — a generated
/// `encode` and `decode` always agree with each other — so the bytes
/// themselves are pinned. A pin that moves is a wire-format change: every
/// stored ledger, receipt and uPoM moves with it.
#[test]
fn every_variant_encodes_to_its_pinned_bytes() {
    let d = |b: u8| Digest([b; 32]);
    let sig = |b: u8| Signature([b; 64]);
    let core = |kind, committed_root| PrePrepareCore {
        view: View(3),
        seq: SeqNum(17),
        root_m: d(1),
        nonce_commit: NonceCommitment(d(2)),
        evidence_seq: SeqNum(15),
        evidence_bitmap: ReplicaBitmap(0b1011),
        gov_index: LedgerIdx(9),
        checkpoint_digest: d(3),
        kind,
        committed_root,
        primary: ReplicaId(3),
    };
    let pp = PrePrepare { core: core(BatchKind::Regular, None), root_g: d(4), sig: sig(5) };
    let prepare = Prepare {
        view: View(3),
        seq: SeqNum(17),
        replica: ReplicaId(1),
        nonce_commit: NonceCommitment(d(6)),
        pp_digest: d(7),
        sig: sig(8),
    };
    let commit = Commit { view: View(3), seq: SeqNum(17), replica: ReplicaId(2), nonce: Nonce([9; 16]) };
    let config = ia_ccf_types::config::testutil::test_config(4).0;
    let request = |action, client| SignedRequest {
        request: Request {
            action,
            client: ClientId(client),
            gt_hash: d(10),
            min_index: LedgerIdx(4),
            req_id: 11,
        },
        sig: sig(12),
    };
    let app = request(RequestAction::App { proc: ProcId(2), args: b"args".to_vec() }, 7);
    let propose = GovAction::Propose { proposal_id: 1, new_config: config.clone() };
    let vote = GovAction::Vote { proposal_id: 1, approve: true };
    let mark = SignedRequest::system(
        SystemOp::CheckpointMark { checkpoint_seq: SeqNum(10), kv_digest: d(13), tree_root: d(14) },
        d(10),
    );
    let result = TxResult { ok: true, output: b"out".to_vec(), write_set_digest: d(15) };
    let path = MerklePath { index: 2, tree_len: 5, siblings: vec![d(16), d(17)] };
    let cert = BatchCertificate {
        core: core(BatchKind::Checkpoint, None),
        primary_sig: sig(18),
        signers: ReplicaBitmap(0b0111),
        prepare_sigs: vec![sig(19), sig(20)],
        nonces: vec![Nonce([21; 16]), Nonce([22; 16]), Nonce([23; 16])],
    };
    let tx_receipt = Receipt {
        cert: cert.clone(),
        body: ReceiptBody::Tx(TxWitness {
            tx_hash: d(24),
            index: LedgerIdx(40),
            result: result.clone(),
            path: path.clone(),
        }),
    };
    let batch_receipt = Receipt {
        cert: BatchCertificate { core: core(BatchKind::EndOfConfig { phase: 2 }, Some(d(25))), ..cert },
        body: ReceiptBody::Batch { root_g: d(26) },
    };
    let view_change = ViewChange {
        view: View(4),
        replica: ReplicaId(1),
        pps: vec![pp.clone()],
        last_proof: vec![prepare.clone()],
        sig: sig(27),
    };
    let nv = NewViewMsg {
        view: View(4),
        root_m: d(28),
        vc_bitmap: ReplicaBitmap(0b1110),
        vc_entry_hash: d(29),
        sig: sig(30),
    };
    let pin = CheckpointPin { seq: SeqNum(10), kv_digest: d(13), tree_root: d(14) };
    let payload = CheckpointPayload {
        kv_bytes: vec![1, 2, 3],
        frontier: vec![4, 5],
        ledger_len: 77,
        next_tx_index: 41,
        seed_entries: vec![vec![6], Vec::new()],
    };
    let gov_request = request(RequestAction::Governance(vote.clone()), 1);

    let msgs = [
        ("Request", ProtocolMsg::Request(app.clone())),
        ("PrePrepare", ProtocolMsg::PrePrepare { pp: pp.clone(), batch: vec![d(31), d(32)] }),
        ("Prepare", ProtocolMsg::Prepare(prepare.clone())),
        ("Commit", ProtocolMsg::Commit(commit.clone())),
        (
            "Reply",
            ProtocolMsg::Reply(Reply {
                view: View(3),
                seq: SeqNum(17),
                replica: ReplicaId(2),
                sig: sig(33),
                nonce: Nonce([34; 16]),
                req_ids: vec![11, 12],
            }),
        ),
        (
            "ReplyX",
            ProtocolMsg::ReplyX(ReplyX {
                core: core(BatchKind::StartOfConfig { phase: 1 }, None),
                primary_sig: sig(35),
                tx_hash: d(24),
                index: LedgerIdx(40),
                result: result.clone(),
                path,
            }),
        ),
        ("ViewChange", ProtocolMsg::ViewChange(view_change.clone())),
        (
            "NewView",
            ProtocolMsg::NewView { nv: nv.clone(), view_changes: vec![view_change.clone()] },
        ),
        ("FetchRequests", ProtocolMsg::FetchRequests { hashes: vec![d(36)] }),
        (
            "FetchRequestsResponse",
            ProtocolMsg::FetchRequestsResponse { requests: vec![app.clone(), mark.clone()] },
        ),
        ("FetchGovReceipts", ProtocolMsg::FetchGovReceipts { from_index: LedgerIdx(5) }),
        (
            "GovReceipts",
            ProtocolMsg::GovReceipts {
                receipts: vec![(Some(gov_request), tx_receipt.clone()), (None, batch_receipt.clone())],
            },
        ),
        ("FetchReceipt", ProtocolMsg::FetchReceipt { tx_hash: d(24) }),
        ("FetchEvidence", ProtocolMsg::FetchEvidence { seq: SeqNum(15) }),
        (
            "FetchEvidenceResponse",
            ProtocolMsg::FetchEvidenceResponse { prepares: vec![prepare.clone()], commits: vec![commit] },
        ),
        ("FetchLedgerPage", ProtocolMsg::FetchLedgerPage { from_seq: SeqNum(8), max_bytes: 1 << 20 }),
        (
            "FetchLedgerPageResponse",
            ProtocolMsg::FetchLedgerPageResponse {
                entries: vec![vec![7, 8], Vec::new()],
                next_seq: SeqNum(9),
                done: true,
            },
        ),
        ("FetchLedgerTip", ProtocolMsg::FetchLedgerTip),
        ("LedgerTipResponse", ProtocolMsg::LedgerTipResponse { tip: SeqNum(12), offer: Some(pin) }),
        ("FetchCheckpoint", ProtocolMsg::FetchCheckpoint { seq: SeqNum(10) }),
        (
            "FetchCheckpointResponse",
            ProtocolMsg::FetchCheckpointResponse { seq: SeqNum(10), payload: Some(payload) },
        ),
    ];
    let entries = [
        ("Genesis", LedgerEntry::Genesis { config: config.clone() }),
        ("Evidence", LedgerEntry::Evidence { seq: SeqNum(15), prepares: vec![prepare] }),
        ("Nonces", LedgerEntry::Nonces { seq: SeqNum(15), nonces: vec![Nonce([37; 16])] }),
        ("PrePrepare", LedgerEntry::PrePrepare(pp)),
        ("Tx", LedgerEntry::Tx(TxLedgerEntry { request: mark, index: LedgerIdx(40), result })),
        ("ViewChangeSet", LedgerEntry::ViewChangeSet { view: View(4), view_changes: vec![view_change] }),
        ("NewView", LedgerEntry::NewView(nv)),
    ];
    let kinds = [
        BatchKind::Regular,
        BatchKind::Checkpoint,
        BatchKind::EndOfConfig { phase: 3 },
        BatchKind::StartOfConfig { phase: 1 },
    ];

    let mut encodings: Vec<(String, Vec<u8>)> = Vec::new();
    encodings.extend(msgs.iter().map(|(name, m)| (format!("ProtocolMsg::{name}"), m.to_bytes())));
    encodings.extend(entries.iter().map(|(name, e)| (format!("LedgerEntry::{name}"), e.to_bytes())));
    encodings.push(("Receipt(Tx)".into(), tx_receipt.to_bytes()));
    encodings.push(("Receipt(Batch)".into(), batch_receipt.to_bytes()));
    encodings.push(("GovAction::Propose".into(), propose.to_bytes()));
    encodings.push(("GovAction::Vote".into(), vote.to_bytes()));
    encodings.push(("Configuration".into(), config.to_bytes()));
    encodings.extend(kinds.iter().map(|k| (format!("BatchKind::{k:?}"), k.to_bytes())));

    let pinned = [
        ("ProtocolMsg::Request", "2a6a51efce008d09d380297523adf2681f76ce92739be53d410475f6d76ca4d6"),
        ("ProtocolMsg::PrePrepare", "fb3997779a34cff8fa876a21648044fdc2572bc13b47e9b588cfee49839d938f"),
        ("ProtocolMsg::Prepare", "53a1644d17225117d705c7b17e732cb42d133e19b21ee40748685431336a3df4"),
        ("ProtocolMsg::Commit", "05af270d6357f99715c8142afaed6563bba660ceabb99dd193d99e67dc771e98"),
        ("ProtocolMsg::Reply", "f937b4fc5418eb73e1e9b07b7d234ed69df2e12e5dcaeeda8542d8b41b06f843"),
        ("ProtocolMsg::ReplyX", "d42b5e2797c8864a631c30995a5aedf0205fd50a15addecdf166d1c11a597273"),
        ("ProtocolMsg::ViewChange", "cf3ff7f714609f8cf70c8c8149c118c3519501d165b88208161857099b175f91"),
        ("ProtocolMsg::NewView", "a2bc0b2c117bfa76740961eeb299caf5a0c0f82c18c104d3c3cf61ed04e67dd7"),
        ("ProtocolMsg::FetchRequests", "f65c65cf707dadb35b35c2289e2a3e3efa96ff7ae19eeddac4de4a297d5a02e0"),
        ("ProtocolMsg::FetchRequestsResponse", "2a0a0d299c6a424e819028c3cbecd6fb4a5b45a55f7fdfb27dbc53e0e63929ac"),
        ("ProtocolMsg::FetchGovReceipts", "79838d2e03061e5326760c3394d9dda6fd31f9de8893bb69d62ad53ff9f124ee"),
        ("ProtocolMsg::GovReceipts", "b5e761630fd5a10cccd58b99719d7abb79486c03edfeae178fd488952be3b706"),
        ("ProtocolMsg::FetchReceipt", "833d348ed00dd6812c1c5964e1fec9bfdc0fcd4f3c5fbfc99c6631cf52759f76"),
        ("ProtocolMsg::FetchEvidence", "9a7e54463249882e7b29e88e0be4d2c0db0570c72302f19bbcbc34873335c602"),
        ("ProtocolMsg::FetchEvidenceResponse", "8c18a91451faef63ee19d05c3b2ac166f1611db5197c8e866566c6dc7649f911"),
        ("ProtocolMsg::FetchLedgerPage", "9d370a7d59d3269a19b660948a170cd8b96070fee122290eb5c68a5259352ca7"),
        ("ProtocolMsg::FetchLedgerPageResponse", "8de078709df18af39d93ae3bdbfa540cb1c4fdd4d79a7bf1249aaae1df2c7b2f"),
        ("ProtocolMsg::FetchLedgerTip", "83891d7fe85c33e52c8b4e5814c92fb6a3b9467299200538a6babaa8b452d879"),
        ("ProtocolMsg::LedgerTipResponse", "de047ebd7b14ffafcc289e11a3ff0a8c9e64bfa457f23c47731ac4a537f30276"),
        ("ProtocolMsg::FetchCheckpoint", "555762594b5ef91f992957c16fa19c4de699d193d99a27f0287613661ce3bbd8"),
        ("ProtocolMsg::FetchCheckpointResponse", "ead23295e0415f73d01b8d9c3a37e635475ac226f13ada203d90a4f252b2f69b"),
        ("LedgerEntry::Genesis", "bd0e322f38e7b617f69ad5a14e23695a8a8eb593fd8ea4ae7962261912a68207"),
        ("LedgerEntry::Evidence", "3c33a24334f9a9e1117bce37552904356444ca2a4e1f27e6aae481c3159512ff"),
        ("LedgerEntry::Nonces", "4e61d98a3dd003c3e8aca0428fb8770a7936c8d12b55fb87c78e09ce014454d9"),
        ("LedgerEntry::PrePrepare", "f0238f1169624e94dcdeb68bdcb176ebea701c5412f780ebca4c1d06125009d1"),
        ("LedgerEntry::Tx", "58cd00b09be0bdaf7a6cf0a8647d55f263502545bd62175aecaad0602805ad1c"),
        ("LedgerEntry::ViewChangeSet", "cc0f1b29121c6bcff0521ed3b86de41e8b66e818d58645232a06456d4ae547dc"),
        ("LedgerEntry::NewView", "0c7354c7d383866bee003a812a070be414831cb507b006f9453b96f6ec143004"),
        ("Receipt(Tx)", "824ebde99bd34cbbf2a23dbbb0a618e48b7cf37add0983603fe9850f2e1f764e"),
        ("Receipt(Batch)", "6f4e4cd2cf575d96ffda5e0c9adee04bfedf0d9ee8818d75e133a4fcfc4376f2"),
        ("GovAction::Propose", "c911709bec78d82f62a7158bead907c282b8409991ccf29047d1b65af134d7f4"),
        ("GovAction::Vote", "eb52bdaca91ec03c5f17216695b93acbc2e18ee88da59167cf3fbc4e4a1de445"),
        ("Configuration", "7004595d24e1f49bea4e3d4068dc41fa26ecf05cb02ba2e7ee4c5e15d0b60f42"),
        ("BatchKind::Regular", "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
        ("BatchKind::Checkpoint", "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a"),
        ("BatchKind::EndOfConfig { phase: 3 }", "d646946b266cab1b9dd80687664cf12f224aaea2cc914488a0f3c3016564d05b"),
        ("BatchKind::StartOfConfig { phase: 1 }", "395c561424653325a9316b52fcd2aa36785264da11d4dcd9e288d6974a7006a7"),
    ];
    let actual: Vec<(String, String)> = encodings
        .iter()
        .map(|(name, bytes)| (name.clone(), ia_ccf_crypto::hash_bytes(bytes).to_string()))
        .collect();
    let moved: Vec<String> = actual
        .iter()
        .zip(pinned)
        .filter(|((name, hex), pin)| (name.as_str(), hex.as_str()) != *pin)
        .map(|((name, hex), _)| format!("(\"{name}\", \"{hex}\")"))
        .collect();
    assert_eq!(actual.len(), pinned.len(), "one pin per encoding");
    assert!(moved.is_empty(), "encodings moved:\n{}", moved.join("\n"));
}
