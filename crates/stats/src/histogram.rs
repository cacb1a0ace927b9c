//! Logarithmic latency histograms.
//!
//! Latency distributions in a contended wormhole network are heavy-tailed
//! (a blocked worm waits for whole upstream worms to drain), so the
//! interesting structure spans orders of magnitude. This histogram uses
//! power-of-two buckets, prints compactly, and supports quantile queries —
//! used by the streaming example for jitter analysis and by tests that
//! assert tail behaviour.

/// Power-of-two-bucketed histogram of byte-time samples.
///
/// ```
/// use wormcast_stats::LogHistogram;
/// let h: LogHistogram = [120u64, 130, 95_000].into_iter().collect();
/// assert_eq!(h.count(), 3);
/// assert!(h.quantile(0.5) <= 256);
/// assert!(h.quantile(1.0) >= 95_000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LogHistogram {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))`; bucket 0 also takes
    /// the value 0.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    max: u64,
}

impl LogHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(v: u64) -> usize {
        (64 - v.max(1).leading_zeros() - 1) as usize
    }

    pub fn record(&mut self, v: u64) {
        let b = Self::bucket_of(v);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket containing the q-quantile (q in [0, 1]).
    /// A bucketed approximation: exact to within a factor of 2, which is
    /// the right resolution for heavy-tailed latency data.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Render as `range: count (bar)` lines, skipping empty leading buckets.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let peak = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let bar = "#".repeat(((c as f64 / peak as f64) * 40.0).ceil() as usize);
            let _ = writeln!(out, "{:>10}..{:<10} {:>8} {}", 1u64 << i, 1u64 << (i + 1), c, bar);
        }
        out
    }
}

impl FromIterator<u64> for LogHistogram {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        let mut h = LogHistogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 0);
        assert_eq!(LogHistogram::bucket_of(2), 1);
        assert_eq!(LogHistogram::bucket_of(3), 1);
        assert_eq!(LogHistogram::bucket_of(4), 2);
        assert_eq!(LogHistogram::bucket_of(1023), 9);
        assert_eq!(LogHistogram::bucket_of(1024), 10);
    }

    #[test]
    fn mean_and_count() {
        let h: LogHistogram = [10u64, 20, 30].into_iter().collect();
        assert_eq!(h.count(), 3);
        assert!((h.mean() - 20.0).abs() < 1e-9);
        assert_eq!(h.max(), 30);
    }

    #[test]
    fn quantiles_bound_the_data() {
        let h: LogHistogram = (1..=1000u64).collect();
        // p50 of 1..=1000 is 500: bucket [256,512) -> upper bound 512.
        assert_eq!(h.quantile(0.5), 512);
        assert_eq!(h.quantile(1.0), 1024);
        assert!(h.quantile(0.01) <= 16);
    }

    #[test]
    fn merge_combines() {
        let mut a: LogHistogram = [1u64, 2].into_iter().collect();
        let b: LogHistogram = [1000u64].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 1000);
    }

    #[test]
    fn render_skips_empty_buckets() {
        let h: LogHistogram = [1u64, 1_000_000].into_iter().collect();
        let r = h.render();
        assert_eq!(r.lines().count(), 2);
        assert!(r.contains('#'));
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.render().is_empty());
    }
}
