//! Latency histograms and throughput counters for the benchmark harness.

use std::time::Duration;

/// A simple collect-then-sort latency histogram.
#[derive(Debug, Default, Clone)]
pub struct Histogram {
    samples_us: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample.
    pub fn record(&mut self, d: Duration) {
        self.samples_us.push(d.as_micros() as u64);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples_us.sort_unstable();
            self.sorted = true;
        }
    }

    /// The `q`-quantile (0.0–1.0) in microseconds.
    pub fn quantile_us(&mut self, q: f64) -> u64 {
        if self.samples_us.is_empty() {
            return 0;
        }
        self.sort();
        let rank = ((self.samples_us.len() as f64 - 1.0) * q).floor() as usize;
        self.samples_us[rank.min(self.samples_us.len() - 1)]
    }

    /// 99th percentile latency in microseconds.
    pub fn p99_us(&mut self) -> u64 {
        self.quantile_us(0.99)
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> u64 {
        if self.samples_us.is_empty() {
            return 0;
        }
        (self.samples_us.iter().sum::<u64>() as f64 / self.samples_us.len() as f64) as u64
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples_us.extend_from_slice(&other.samples_us);
        self.sorted = false;
    }
}

/// Throughput over a measured interval.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Operations completed.
    pub ops: u64,
    /// Interval they completed in.
    pub elapsed: Duration,
}

impl Throughput {
    /// Operations per second.
    pub fn per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_on_known_distribution() {
        let mut h = Histogram::new();
        for i in 1..=100u64 {
            h.record(Duration::from_micros(i));
        }
        assert_eq!(h.quantile_us(0.50), 50);
        assert_eq!(h.p99_us(), 99);
        assert_eq!(h.quantile_us(1.0), 100);
        assert_eq!(h.quantile_us(0.0), 1);
        assert_eq!(h.quantile_us(0.25), 25);
        assert_eq!(h.mean_us(), 50);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile_us(0.50), 0);
        assert_eq!(h.mean_us(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = Histogram::new();
        a.record(Duration::from_micros(10));
        let mut b = Histogram::new();
        b.record(Duration::from_micros(30));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.mean_us(), 20);
    }

    #[test]
    fn throughput_math() {
        let t = Throughput { ops: 500, elapsed: Duration::from_millis(250) };
        assert!((t.per_sec() - 2000.0).abs() < 1e-9);
    }
}
