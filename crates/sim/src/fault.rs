//! Fault injection.
//!
//! The paper assumes a physically reliable network ("network sources can
//! normally assume that if they send out a packet ... it will eventually be
//! received"), so all reproduction experiments run fault-free. For testing
//! protocol *reliability machinery* (timeouts, retransmission, the
//! return-to-origin confirmation of the Hamiltonian scheme) the simulator
//! can corrupt a configurable fraction of worms: a corrupted worm still
//! occupies wire and buffer resources end to end, but fails its checksum at
//! the destination adapter and is silently discarded — exactly how a link
//! error manifests on a real Myrinet.

/// Fault-injection knobs, in the spirit of smoltcp's `--corrupt-chance`
/// example options. Folded into a configuration with
/// [`crate::config::NetworkConfigBuilder::faults`], whose `build` rejects
/// a probability outside [0, 1].
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultConfig {
    /// Probability in [0, 1] that an injected worm is corrupted in transit.
    pub corrupt_prob: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;

    #[test]
    fn try_new_validates() {
        let build = |p| {
            NetworkConfig::builder()
                .faults(FaultConfig { corrupt_prob: p })
                .build()
        };
        for p in [0.0, 0.25, 1.0] {
            assert_eq!(build(p).expect("in range").corrupt_prob, p);
        }
        for p in [1.5, -0.1, f64::NAN] {
            assert!(build(p).is_err());
        }
    }
}
