//! Differential property for the verified-certificate memo
//! (`ia_ccf_types::VerifiedCerts`): whatever has been memoised before,
//! `Receipt::verify_with` returns exactly what the cold `Receipt::verify`
//! returns — the same `Ok(pp_digest)` or the same `ReceiptError` — for
//! honest receipts and for receipts with an arbitrary bit of their wire
//! encoding flipped. The memo may only ever save work, never change a
//! verdict.

use ia_ccf::types::config::testutil::test_config;
use ia_ccf::types::receipt::testutil::make_tx_receipts;
use ia_ccf::types::{
    Digest, LedgerIdx, Receipt, SeqNum, TxResult, VerifiedCerts, View, Wire,
};
use ia_ccf::crypto::hash_bytes;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn memoised_verification_equals_cold_verification(
        n in prop_oneof![Just(4usize), Just(7usize)],
        view in 0u64..3,
        batch_sizes in proptest::collection::vec(1usize..12, 1..4),
        capacity in 0usize..4,
        // (batch, receipt, bit) selectors for the corrupted probes.
        flips in proptest::collection::vec((any::<u16>(), any::<u16>(), any::<u32>()), 1..12),
    ) {
        let (config, replica_keys, _) = test_config(n);
        let batches: Vec<Vec<Receipt>> = batch_sizes
            .iter()
            .enumerate()
            .map(|(b, &count)| {
                let entries: Vec<(Digest, LedgerIdx, TxResult)> = (0..count)
                    .map(|i| {
                        let result = TxResult {
                            ok: i % 3 != 0,
                            output: vec![b as u8, i as u8, 7],
                            write_set_digest: hash_bytes(&[b as u8, i as u8]),
                        };
                        (hash_bytes(&[1, b as u8, i as u8]), LedgerIdx((b * 100 + i) as u64), result)
                    })
                    .collect();
                make_tx_receipts(
                    &config,
                    &replica_keys,
                    View(view),
                    SeqNum(b as u64 + 1),
                    hash_bytes(b"root-m"),
                    LedgerIdx(0),
                    Digest::zero(),
                    &entries,
                )
            })
            .collect();

        let mut memo = VerifiedCerts::new(capacity);
        let probe = |receipt: &Receipt, memo: &mut VerifiedCerts| -> Result<(), TestCaseError> {
            let cold = receipt.verify(&config);
            prop_assert_eq!(receipt.verify_with(&config, memo), cold);
            prop_assert!(memo.len() <= capacity);
            Ok(())
        };

        // Honest receipts, batch by batch, corrupted probes interleaved so
        // they meet the memo in every state: empty, warm, evicting.
        let mut flips = flips.into_iter();
        for batch in &batches {
            let hits_before = memo.hits();
            for receipt in batch {
                prop_assert!(receipt.verify(&config).is_ok());
                probe(receipt, &mut memo)?;
            }
            // Within one batch's run every receipt after the first hits.
            if capacity > 0 {
                prop_assert!(memo.hits() - hits_before >= batch.len() as u64 - 1);
            } else {
                prop_assert_eq!(memo.hits(), 0);
            }

            for (b, r, bit) in flips.by_ref().take(4) {
                let victim_batch = &batches[b as usize % batches.len()];
                let victim = &victim_batch[r as usize % victim_batch.len()];
                let mut bytes = victim.to_bytes();
                let at = bit as usize % (bytes.len() * 8);
                bytes[at / 8] ^= 1 << (at % 8);
                if let Ok(corrupted) = Receipt::from_bytes(&bytes) {
                    probe(&corrupted, &mut memo)?;
                }
            }
        }
    }
}
