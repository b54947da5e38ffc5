//! The estimators behind every reported number.
//!
//! Every repeated measurement reports its **median**: the 20 commit-phase
//! slices, the five builds, the repetitions of an epilogue. Times are
//! scaled to the host's speed while they were taken (`calib`), so a
//! disturbance can push a value either way and the median is the
//! estimator that takes no side; the whole-run values are printed next to
//! them so a stall that hits only some slices stays visible. Probes (raw
//! wall-clock, one-sided noise) report their fastest repetition.

/// Which direction of a metric is favourable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when `new` is better).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Higher => (old - new) / old,
            Better::Lower => (new - old) / old,
        }
    }
}

/// The most favourable value.
pub fn best(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "best of nothing");
    let pick = match better {
        Better::Higher => f64::max,
        Better::Lower => f64::min,
    };
    values.iter().copied().reduce(pick).expect("non-empty")
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99 / p90 / p50 that still has at least ten samples
/// beyond it in a sample of `n`.
pub fn highest_supported_quantile(n: usize) -> f64 {
    let beyond = |percent: usize| n - (percent * n).div_ceil(100);
    [99, 90]
        .into_iter()
        .find(|p| beyond(*p) >= 10)
        .map_or(0.5, |p| p as f64 / 100.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method) — what the acceptance check uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn iqr_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// (max − min) / median.
pub fn range_spread(values: &[f64]) -> f64 {
    let lo = best(values, Better::Lower);
    let hi = best(values, Better::Higher);
    (hi - lo) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_takes_the_favourable_end() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0, 100.0];
        assert_eq!(best(&v, Better::Lower), 1.0);
        assert_eq!(best(&v, Better::Higher), 100.0);
    }

    #[test]
    fn median_handles_even_and_odd_and_ignores_a_stalled_slice() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // Nineteen slices at ~750 tx/s and one that stalled.
        let mut slices = vec![750.0; 19];
        slices.push(90.0);
        assert_eq!(median(&slices), 750.0);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50);
        assert_eq!(quantile_sorted(&v, 0.99), 99);
        assert_eq!(quantile_sorted(&v, 1.0), 100);
        assert_eq!(quantile_sorted(&[7], 0.5), 7);
    }

    #[test]
    fn tail_quantile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_quantile(1000), 0.99);
        assert_eq!(highest_supported_quantile(999), 0.9);
        assert_eq!(highest_supported_quantile(100), 0.9);
        assert_eq!(highest_supported_quantile(99), 0.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(iqr_spread(&v), 1.0);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert_eq!(Better::Higher.worsening(100.0, 90.0), 0.1);
        assert_eq!(Better::Lower.worsening(100.0, 110.0), 0.1);
        assert!(Better::Lower.worsening(100.0, 90.0) < 0.0);
    }
}
