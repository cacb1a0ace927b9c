//! The estimators every reported number goes through.

/// Five-number summary of a sample of repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dist {
    pub n: usize,
    pub min: f64,
    pub p25: f64,
    pub median: f64,
    pub p75: f64,
    pub max: f64,
}

impl Dist {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
    /// (the "exclusive" method: position `i·(n+1)/4`, linear interpolation,
    /// clamped to the sample), so that a spread computed here equals the one
    /// the driver computes from the same values. A single value is its own
    /// quartiles.
    pub fn of(values: &[f64]) -> Dist {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
        let n = v.len();
        let quartile = |i: usize| -> f64 {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Dist {
            n,
            min: v[0],
            p25: quartile(1),
            median,
            p75: quartile(3),
            max: v[n - 1],
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Dist::of(values).median
}

/// `x` with six significant digits, for tables (files keep every digit).
pub fn sig6(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return format!("{x}");
    }
    let decimals = (5 - x.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{x:.decimals$}")
}

/// Nearest-rank percentile of an ascending sample (`p` in 0..=100).
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty() && (0.0..=100.0).contains(&p));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let d = Dist::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((d.p25, d.median, d.p75), (2.75, 5.5, 8.25));
        assert_eq!((d.n, d.min, d.max), (10, 1.0, 10.0));
        assert!((d.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let d = Dist::of(&[4.0, 1.0, 2.0]);
        assert_eq!((d.p25, d.median, d.p75), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5] clamps to
        // the interpolation between the only two points.
        let d = Dist::of(&[3.0, 5.0]);
        assert_eq!((d.p25, d.median, d.p75), (2.5, 4.0, 5.5));
    }

    #[test]
    fn median_of_nine_ignores_two_outliers() {
        let v = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.0, 7.0, 0.1];
        assert_eq!(median(&v), 1.0);
        assert_eq!(Dist::of(&[2.5]).spread(), 0.0);
    }

    #[test]
    fn six_significant_digits() {
        assert_eq!(sig6(1255059.173984), "1255059");
        assert_eq!(sig6(16.597656), "16.5977");
        assert_eq!(sig6(0.000550123), "0.000550123");
        assert_eq!(sig6(-2441.529285), "-2441.53");
        assert_eq!(sig6(0.0), "0");
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile_sorted(&v, 99.0), 198);
        assert_eq!(percentile_sorted(&v, 100.0), 200);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }
}
