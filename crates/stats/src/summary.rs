//! Basic sample statistics.

/// Mean / spread summary of a sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub var: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarise a sample (unbiased variance). Empty samples yield zeros.
    pub fn of(xs: &[f64]) -> Self {
        Self::over(xs.len(), || xs.iter().copied())
    }

    /// Summarise integer byte-time samples, converting each as it is read
    /// (the same sums, in the same order, as [`Summary::of`] on a copy).
    pub fn of_u64(xs: &[u64]) -> Self {
        Self::over(xs.len(), || xs.iter().map(|&x| x as f64))
    }

    /// The summary of the `n` samples each call of `xs` yields, in order.
    fn over<I: Iterator<Item = f64>>(n: usize, xs: impl Fn() -> I) -> Self {
        if n == 0 {
            return Summary::default();
        }
        let mean = xs().sum::<f64>() / n as f64;
        let var = if n > 1 {
            xs().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let min = xs().fold(f64::INFINITY, f64::min);
        let max = xs().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            var,
            min,
            max,
        }
    }

    pub fn stddev(&self) -> f64 {
        self.var.sqrt()
    }

    /// Half-width of the ~95% confidence interval on the mean (normal
    /// approximation; fine for the sample sizes the experiments produce).
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        1.96 * self.stddev() / (self.n as f64).sqrt()
    }
}

/// Percentile of a sample (nearest-rank). `p` in [0, 100].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.saturating_sub(1).min(v.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.var - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn empty_sample_is_zeros() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.ci95(), 0.0);
    }

    #[test]
    fn singleton_has_zero_variance() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.var, 0.0);
        assert_eq!(s.ci95(), 0.0);
    }

    #[test]
    fn ci_shrinks_with_n() {
        let small = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        let big_v: Vec<f64> = (0..400).map(|i| 1.0 + (i % 4) as f64).collect();
        let big = Summary::of(&big_v);
        assert!(big.ci95() < small.ci95());
    }

    #[test]
    fn percentiles() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn of_u64_converts() {
        let s = Summary::of_u64(&[10, 20, 30]);
        assert!((s.mean - 20.0).abs() < 1e-12);
    }

    #[test]
    fn of_u64_sums_as_a_copied_f64_sample_does() {
        // Values past 2^53 round on conversion, so any change of order or
        // of conversion point would show in the last bits.
        let xs: Vec<u64> = (0..1000u64)
            .map(|i| (i * 7919 + 13) % 65_537 + (1 << 53) * (i % 3))
            .collect();
        let s = Summary::of_u64(&xs);
        let v: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
        let n = v.len() as f64;
        let mean = v.iter().sum::<f64>() / n;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(s.n, v.len());
        for (got, want) in [(s.mean, mean), (s.var, var), (s.min, min), (s.max, max)] {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}
