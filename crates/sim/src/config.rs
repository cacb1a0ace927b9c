//! Validating configuration builders.
//!
//! Every knob of a [`NetworkConfig`] is set through a builder method,
//! [`NetworkConfigBuilder::build`] checks the whole configuration with
//! [`NetworkConfig::validate`], and violations come back as a typed
//! [`ConfigError`] instead of an abort.

use crate::fault::FaultConfig;
use crate::network::{NetworkConfig, SimMode};
use crate::switch::SlackCfg;
use crate::switchcast::SwitchcastMode;
use crate::time::SimTime;
use crate::trace::TraceConfig;
use std::fmt;

/// A rejected configuration value.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A numeric knob fell outside its legal interval.
    OutOfRange {
        field: &'static str,
        value: f64,
        min: f64,
        max: f64,
    },
    /// A structural invariant failed (e.g. inverted slack watermarks).
    Invalid {
        field: &'static str,
        reason: String,
    },
    /// A link was declared with zero propagation delay — the simulator
    /// needs at least one byte-time per hop (`index` names which entry
    /// of `field` was zero).
    ZeroDelay { field: &'static str, index: usize },
    /// The sharded engine cannot reproduce the sequential schedule with
    /// this feature enabled (switch-level multicast or fault injection —
    /// both need the global event order).
    Unshardable { feature: &'static str },
    /// A channel crosses two shards with zero propagation delay, leaving
    /// the conservative synchronization without lookahead.
    ZeroLookahead { ch: u32, from: u32, to: u32 },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::OutOfRange {
                field,
                value,
                min,
                max,
            } => write!(f, "{field} = {value} is outside [{min}, {max}]"),
            ConfigError::Invalid { field, reason } => write!(f, "{field}: {reason}"),
            ConfigError::ZeroDelay { field, index } => {
                write!(f, "{field}[{index}]: link delay must be >= 1 byte-time")
            }
            ConfigError::Unshardable { feature } => {
                write!(f, "sharded execution requires {feature} to be off")
            }
            ConfigError::ZeroLookahead { ch, from, to } => {
                write!(
                    f,
                    "channel {ch} crosses shards {from}->{to} with zero latency (no lookahead)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`NetworkConfig`]. Obtain one with
/// [`NetworkConfig::builder`]; finish with
/// [`build`](NetworkConfigBuilder::build).
#[derive(Clone, Debug, Default)]
pub struct NetworkConfigBuilder {
    cfg: NetworkConfig,
}

impl NetworkConfigBuilder {
    /// Slack buffer configuration; the default derives a safe one per link
    /// delay.
    pub fn slack(mut self, slack: SlackCfg) -> Self {
        self.cfg.slack = Some(slack);
        self
    }

    /// Logical worm header length in bytes (on-wire, after the route).
    pub fn header_len(mut self, header_len: u32) -> Self {
        self.cfg.header_len = header_len;
        self
    }

    /// Master seed for all per-host RNG streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Liveness watchdog period; 0 disables it.
    pub fn watchdog_interval(mut self, interval: SimTime) -> Self {
        self.cfg.watchdog_interval = interval;
        self
    }

    /// Select the trace sink (default: [`TraceConfig::Off`]).
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.cfg.trace = trace;
        self
    }

    /// Switch-level multicast mode (Section 3 of the paper).
    pub fn switchcast(mut self, mode: SwitchcastMode) -> Self {
        self.cfg.switchcast = mode;
        self
    }

    /// Link-transmission engine mode.
    pub fn mode(mut self, mode: SimMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Fold fault injection into the configuration (replaces the old
    /// `FaultConfig::apply`).
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.cfg.corrupt_prob = faults.corrupt_prob;
        self
    }

    /// Lanes per switch-to-switch link (virtual channels). 1 — the
    /// default — reproduces the paper's single-lane Myrinet byte-for-byte.
    pub fn lanes(mut self, lanes: u8) -> Self {
        self.cfg.lanes = lanes;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<NetworkConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl NetworkConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> NetworkConfigBuilder {
        NetworkConfigBuilder::default()
    }

    /// Check every invariant among the knobs. The builder and
    /// [`crate::network::Network::try_build`] (which also takes
    /// hand-assembled configurations) both call this.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.lanes == 0 {
            return Err(ConfigError::OutOfRange {
                field: "lanes",
                value: 0.0,
                min: 1.0,
                max: u8::MAX as f64,
            });
        }
        if self.lanes > 1 && self.switchcast != SwitchcastMode::Off {
            return Err(ConfigError::Invalid {
                field: "lanes",
                reason: "switch-level multicast requires single-lane links".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.corrupt_prob) {
            return Err(ConfigError::OutOfRange {
                field: "corrupt_prob",
                value: self.corrupt_prob,
                min: 0.0,
                max: 1.0,
            });
        }
        if self.header_len == 0 {
            return Err(ConfigError::OutOfRange {
                field: "header_len",
                value: 0.0,
                min: 1.0,
                max: u32::MAX as f64,
            });
        }
        if let Some(slack) = &self.slack {
            slack.validate().map_err(|reason| ConfigError::Invalid {
                field: "slack",
                reason,
            })?;
        }
        if let TraceConfig::Ring { capacity } = self.trace {
            if capacity == 0 {
                return Err(ConfigError::OutOfRange {
                    field: "trace ring capacity",
                    value: 0.0,
                    min: 1.0,
                    max: usize::MAX as f64,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build() {
        let cfg = NetworkConfig::builder().build().expect("defaults are valid");
        assert_eq!(cfg.seed, NetworkConfig::default().seed);
        assert_eq!(cfg.trace, TraceConfig::Off);
    }

    #[test]
    fn builder_sets_every_knob() {
        let cfg = NetworkConfig::builder()
            .slack(SlackCfg::for_delay(3))
            .header_len(4)
            .seed(42)
            .watchdog_interval(5_000)
            .trace(TraceConfig::Ring { capacity: 16 })
            .switchcast(SwitchcastMode::IdleFlush)
            .mode(SimMode::PerByte)
            .faults(FaultConfig { corrupt_prob: 0.5 })
            .build()
            .expect("valid");
        assert_eq!(cfg.header_len, 4);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.watchdog_interval, 5_000);
        assert_eq!(cfg.trace, TraceConfig::Ring { capacity: 16 });
        assert_eq!(cfg.switchcast, SwitchcastMode::IdleFlush);
        assert_eq!(cfg.mode, SimMode::PerByte);
        assert_eq!(cfg.corrupt_prob, 0.5);
        assert!(cfg.slack.is_some());
    }

    #[test]
    fn rejects_bad_corrupt_prob() {
        let err = NetworkConfig::builder()
            .faults(FaultConfig { corrupt_prob: 1.5 })
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::OutOfRange { field: "corrupt_prob", .. }));
        assert!(err.to_string().contains("corrupt_prob"));
    }

    #[test]
    fn rejects_zero_header() {
        let err = NetworkConfig::builder().header_len(0).build().unwrap_err();
        assert!(matches!(err, ConfigError::OutOfRange { field: "header_len", .. }));
    }

    #[test]
    fn rejects_inverted_slack() {
        let err = NetworkConfig::builder()
            .slack(SlackCfg {
                capacity: 100,
                stop_mark: 10,
                go_mark: 20,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Invalid { field: "slack", .. }));
    }

    #[test]
    fn rejects_empty_ring() {
        let err = NetworkConfig::builder()
            .trace(TraceConfig::Ring { capacity: 0 })
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::OutOfRange { .. }));
    }

    #[test]
    fn rejects_zero_lanes() {
        let err = NetworkConfig::builder().lanes(0).build().unwrap_err();
        assert!(matches!(err, ConfigError::OutOfRange { field: "lanes", .. }));
    }

    #[test]
    fn rejects_lanes_with_switchcast() {
        let err = NetworkConfig::builder()
            .lanes(2)
            .switchcast(SwitchcastMode::IdleFlush)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Invalid { field: "lanes", .. }));
    }

    #[test]
    fn lanes_round_trip() {
        let cfg = NetworkConfig::builder().lanes(4).build().expect("valid");
        assert_eq!(cfg.lanes, 4);
    }

    #[test]
    fn zero_delay_error_displays_location() {
        let e = ConfigError::ZeroDelay { field: "links", index: 3 };
        assert!(e.to_string().contains("links[3]"));
    }
}
