//! Worm length distributions.

use rand::rngs::SmallRng;
use rand::Rng;

/// Myrinet's maximum worm size (a LANai control-program limit).
pub const MAX_WORM_BYTES: u32 = 9 * 1024;

/// Payload length distribution for generated worms.
#[derive(Clone, Copy, Debug)]
pub enum LengthDist {
    /// Every worm has exactly this many payload bytes.
    Fixed(u32),
    /// Geometric with the given mean, minimum 1 byte, clamped to
    /// [`MAX_WORM_BYTES`]. The paper's simulations use mean 400.
    Geometric { mean: u32 },
}

impl LengthDist {
    /// Sample a payload length.
    pub fn sample(&self, rng: &mut SmallRng) -> u32 {
        match *self {
            LengthDist::Fixed(n) => n.min(MAX_WORM_BYTES),
            LengthDist::Geometric { mean } => {
                assert!(mean >= 1, "geometric mean must be >= 1");
                // Geometric on {1, 2, ...} with mean m: success prob 1/m.
                // Inverse CDF: ceil(ln(1-u) / ln(1-p)).
                let p = 1.0 / mean as f64;
                let u: f64 = rng.gen();
                let k = if p >= 1.0 {
                    1.0
                } else {
                    ((1.0 - u).ln() / (1.0 - p).ln()).ceil()
                };
                (k as u32).clamp(1, MAX_WORM_BYTES)
            }
        }
    }

    /// The distribution's mean (after clamping effects are ignored —
    /// negligible for the paper's 400-byte mean vs 9 KB cap).
    pub fn mean(&self) -> f64 {
        match *self {
            LengthDist::Fixed(n) => n.min(MAX_WORM_BYTES) as f64,
            LengthDist::Geometric { mean } => mean as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::host_stream;

    #[test]
    fn fixed_is_fixed() {
        let mut rng = host_stream(1, 1);
        let d = LengthDist::Fixed(777);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 777);
        }
    }

    #[test]
    fn fixed_clamps_to_max() {
        let mut rng = host_stream(1, 1);
        assert_eq!(LengthDist::Fixed(1 << 20).sample(&mut rng), MAX_WORM_BYTES);
    }

    #[test]
    fn geometric_mean_converges_to_400() {
        let mut rng = host_stream(2, 0);
        let d = LengthDist::Geometric { mean: 400 };
        let n = 200_000u32;
        let total: u64 = (0..n).map(|_| d.sample(&mut rng) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 400.0).abs() < 8.0,
            "sample mean {mean} too far from 400"
        );
    }

    #[test]
    fn geometric_bounds() {
        let mut rng = host_stream(3, 0);
        let d = LengthDist::Geometric { mean: 4000 };
        for _ in 0..50_000 {
            let s = d.sample(&mut rng);
            assert!((1..=MAX_WORM_BYTES).contains(&s));
        }
    }

    #[test]
    fn geometric_mean_one_is_degenerate() {
        let mut rng = host_stream(4, 0);
        let d = LengthDist::Geometric { mean: 1 };
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 1);
        }
    }
}
