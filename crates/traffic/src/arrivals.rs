//! Poisson arrival processes parameterised by offered load.
//!
//! The paper's load axis is "output link utilization per host": a host at
//! offered load ρ injects, on average, ρ bytes per byte-time. With a mean
//! worm wire length of `L` bytes, that is a Poisson process with rate
//! `ρ / L` worms per byte-time, i.e. exponential interarrivals with mean
//! `L / ρ`.

use crate::rng::exponential;
use rand::rngs::SmallRng;

/// Exponential interarrival generator for a target offered load.
#[derive(Clone, Copy, Debug)]
pub struct PoissonArrivals {
    /// Mean interarrival time in byte-times.
    pub mean_interarrival: f64,
}

impl PoissonArrivals {
    /// From offered load (bytes per byte-time per host, in (0, 1]) and the
    /// mean worm wire length in bytes.
    pub fn from_offered_load(load: f64, mean_worm_bytes: f64) -> Self {
        assert!(load > 0.0, "offered load must be positive, got {load}");
        assert!(mean_worm_bytes >= 1.0);
        PoissonArrivals {
            mean_interarrival: mean_worm_bytes / load,
        }
    }

    /// Sample the next interarrival gap in byte-times (at least 1).
    pub fn next_gap(&self, rng: &mut SmallRng) -> u64 {
        exponential(rng, self.mean_interarrival).round().max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::host_stream;

    #[test]
    fn rate_matches_offered_load() {
        // Load 0.1 with 400-byte worms -> mean gap 4000 byte-times.
        let p = PoissonArrivals::from_offered_load(0.1, 400.0);
        assert!((p.mean_interarrival - 4000.0).abs() < 1e-9);
        let mut rng = host_stream(5, 0);
        let n = 100_000u64;
        let total: u64 = (0..n).map(|_| p.next_gap(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - 4000.0).abs() < 60.0,
            "sample mean gap {mean} too far from 4000"
        );
    }

    #[test]
    fn gaps_are_at_least_one() {
        let p = PoissonArrivals::from_offered_load(1.0, 1.0);
        let mut rng = host_stream(6, 0);
        for _ in 0..10_000 {
            assert!(p.next_gap(&mut rng) >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_load_rejected() {
        let _ = PoissonArrivals::from_offered_load(0.0, 400.0);
    }
}
