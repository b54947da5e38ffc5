//! Property tests over the wire codec: every protocol message and ledger
//! entry round-trips, `encoded_len` is exact, the shared [`frame`] codec
//! round-trips and survives hostile input (truncated frames and oversized
//! length prefixes error — never panic, never over-allocate), and
//! decoding never panics on arbitrary bytes (hostile-input safety for the
//! TCP transport).

use ia_ccf_net::frame;
use proptest::prelude::*;

use ia_ccf_types::{
    BatchKind, ClientId, CodecError, Commit, Digest, LedgerEntry, LedgerIdx, Nonce,
    NonceCommitment, PrePrepare, PrePrepareCore, Prepare, ProcId, ProtocolMsg, Reply,
    ReplicaBitmap, ReplicaId, Request, RequestAction, SeqNum, Signature, SignedRequest,
    TxLedgerEntry, TxResult, View, Wire,
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
    /// every message variant with a hand-written impl (framing layers size
    /// buffers from it, and a drifting impl must show up here).
    /// `GovReceipts` is the one variant not constructed: its `Receipt`
    /// payload uses the default `encoded_len` (encode-and-count), which is
    /// exact by construction and cannot drift.
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
            ProtocolMsg::ReplyX(ia_ccf_types::messages::ReplyX {
                core: core.clone(),
                primary_sig: sig,
                tx_hash: root_g,
                index: core.gov_index,
                result: TxResult {
                    ok,
                    output: output.clone(),
                    write_set_digest: root_g,
                },
                path: ia_ccf_types::MerklePath {
                    index: 2,
                    tree_len: 5,
                    siblings: hashes.clone(),
                },
            }),
            ProtocolMsg::ViewChange(ia_ccf_types::messages::ViewChange {
                view: core.view,
                replica: core.primary,
                pps: vec![pp.clone()],
                last_proof: vec![prepare],
                sig,
            }),
            ProtocolMsg::NewView {
                nv: ia_ccf_types::messages::NewViewMsg {
                    view: core.view,
                    root_m: root_g,
                    vc_bitmap: core.evidence_bitmap,
                    vc_entry_hash: root_g,
                    sig,
                },
                view_changes: Vec::new(),
            },
        ];
        for m in msgs {
            prop_assert_eq!(m.encoded_len(), m.to_bytes().len());
        }
        let entry = LedgerEntry::Tx(TxLedgerEntry {
            request: req,
            index: core.gov_index,
            result: TxResult { ok, output, write_set_digest: root_g },
        });
        prop_assert_eq!(entry.encoded_len(), entry.to_bytes().len());
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
