//! `ConfigSteps` answers "which configuration is in force at a position"
//! for a replica and the auditor's package walk (by sequence number) and
//! for a verified governance chain (by governance index). Each used to
//! answer it with its own list; the oracle here is the linear scan they
//! ran: the last step, in the order the steps came, whose key is at or
//! below the position, and the first step below every key.

use ia_ccf_types::{ConfigSteps, SeqNum};
use proptest::collection::vec;
use proptest::prelude::*;

/// Positions asked about: every one up to past the last key.
const KEYS: u64 = 64;

fn scan(steps: &[(u64, u32)], key: u64) -> u32 {
    let mut chosen = steps[0].1;
    for &(first, config) in steps {
        if first <= key {
            chosen = config;
        }
    }
    chosen
}

fn answers(steps: &ConfigSteps<SeqNum, u32>) -> Vec<u32> {
    (0..KEYS).map(|key| *steps.at(SeqNum(key))).collect()
}

fn oracle(steps: &[(u64, u32)]) -> Vec<u32> {
    (0..KEYS).map(|key| scan(steps, key)).collect()
}

proptest! {
    /// Ascending steps — a replica's activations — read as the scan reads
    /// them, before and after a rollback cuts them at `cut`.
    #[test]
    fn lookup_is_the_linear_scan(gaps in vec(1u64..5, 0..12), cut in 0u64..KEYS) {
        let mut raw = vec![(0u64, 0u32)];
        let mut steps = ConfigSteps::new(SeqNum(0), 0u32);
        for (config, gap) in (1u32..).zip(gaps) {
            let key = raw[raw.len() - 1].0 + gap;
            raw.push((key, config));
            steps.push(SeqNum(key), config);
        }
        prop_assert_eq!(answers(&steps), oracle(&raw));
        prop_assert_eq!(*steps.latest(), raw[raw.len() - 1].1);
        prop_assert_eq!(steps.iter().count(), raw.len());

        steps.truncate_from(SeqNum(cut));
        raw.retain(|&(key, _)| key == 0 || key < cut);
        prop_assert_eq!(answers(&steps), oracle(&raw));
        prop_assert_eq!(*steps.latest(), raw[raw.len() - 1].1);
    }

    /// Steps in any order — the auditor's end-of-configuration batches,
    /// re-proposed lower after a view change — cut at each new key before
    /// it is pushed: the scan over the steps as they came gives the same
    /// answers, and the same latest step.
    #[test]
    fn cutting_before_each_push_is_the_scan_in_arrival_order(keys in vec(1u64..KEYS, 0..12)) {
        let mut raw = vec![(0u64, 0u32)];
        let mut steps = ConfigSteps::new(SeqNum(0), 0u32);
        for (config, key) in (1u32..).zip(keys) {
            raw.push((key, config));
            steps.truncate_from(SeqNum(key));
            steps.push(SeqNum(key), config);
        }
        prop_assert_eq!(answers(&steps), oracle(&raw));
        prop_assert_eq!(*steps.latest(), raw[raw.len() - 1].1);
    }
}

/// A step at or below the last one is refused loudly: a replica's
/// activations only ascend.
#[test]
#[should_panic(expected = "configuration step")]
fn a_step_that_does_not_ascend_panics() {
    let mut steps = ConfigSteps::new(SeqNum(0), 0u32);
    steps.push(SeqNum(5), 1);
    steps.push(SeqNum(5), 2);
}
