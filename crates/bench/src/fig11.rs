//! Figure 11: average delay vs load for varying multicast proportions on
//! the 24-node bidirectional shufflenet.
//!
//! Paper parameters: four multicast groups of six members, link
//! propagation delay 1000 byte-times, tree vs Hamiltonian circuit, with
//! the multicast generation probability swept over {0.05, 0.10, 0.15,
//! 0.20} and offered load over ≈ 0.03–0.07.
//!
//! Expected shape (paper): the tree sits below the Hamiltonian at every
//! proportion, and delay grows with both load and proportion (each
//! multicast worm is retransmitted several times, so raising the
//! proportion raises the actual carried traffic).

use crate::runner::{run_parallel, RunReport, SimSetup, SimSetupBuilder};
use crate::schemes::Scheme;
use wormcast_core::HcConfig;
use wormcast_stats::Series;
use wormcast_topo::shufflenet::shufflenet24;
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

/// The paper's propagation delay for this experiment (byte-times).
pub const LINK_DELAY: u64 = 1000;

#[derive(Clone, Copy, Debug)]
pub struct Fig11Config {
    pub loads: &'static [f64],
    pub proportions: &'static [f64],
    pub warmup: u64,
    pub measure: u64,
    pub drain: u64,
    pub seed: u64,
}

impl Fig11Config {
    pub fn full() -> Self {
        Fig11Config {
            loads: &[0.030, 0.035, 0.040, 0.045, 0.050, 0.055, 0.060, 0.065, 0.070],
            proportions: &[0.05, 0.10, 0.15, 0.20],
            warmup: 200_000,
            measure: 900_000,
            drain: 200_000,
            seed: 0xF1611,
        }
    }

    pub fn quick() -> Self {
        Fig11Config {
            loads: &[0.03, 0.05, 0.07],
            proportions: &[0.05, 0.20],
            warmup: 60_000,
            measure: 250_000,
            drain: 120_000,
            seed: 0xF1611,
        }
    }
}

/// The two schemes of Figure 11 (both store-and-forward, as in the paper's
/// shufflenet runs). The tree is the same origin-rooted topology-aware
/// configuration as Figure 10 (see `fig10::figure_tree_scheme`).
pub fn schemes() -> Vec<Scheme> {
    vec![
        crate::fig10::figure_tree_scheme(),
        Scheme::Hc(HcConfig::store_and_forward()),
    ]
}

/// The builder for one experiment point of the figure, as
/// `fig10::builder`: callers that rerun the point under another engine
/// mode or trace sink set those through the validating builder.
pub fn builder(scheme: Scheme, load: f64, proportion: f64, cfg: &Fig11Config) -> SimSetupBuilder {
    let mut grng = host_stream(cfg.seed, 0x6111);
    let groups = GroupSet::random(24, 4, 6, &mut grng);
    let workload = PaperWorkload {
        offered_load: load,
        multicast_prob: proportion,
        lengths: LengthDist::Geometric { mean: 400 },
        stop_at: None,
    };
    SimSetup::builder(shufflenet24(LINK_DELAY), groups, scheme, workload)
        .seed(cfg.seed)
        .windows(cfg.warmup, cfg.measure, cfg.drain)
}

fn setup(scheme: Scheme, load: f64, proportion: f64, cfg: &Fig11Config) -> SimSetup {
    builder(scheme, load, proportion, cfg)
        .build()
        .expect("figure 11 parameters are valid")
}

/// Run the figure: one series per (proportion, scheme) pair.
pub fn run_figure(cfg: &Fig11Config) -> Vec<(Series, Vec<RunReport>)> {
    let mut out = Vec::new();
    for &prop in cfg.proportions {
        for scheme in schemes() {
            let setups: Vec<SimSetup> = cfg
                .loads
                .iter()
                .map(|&load| setup(scheme, load, prop, cfg))
                .collect();
            let results = run_parallel(setups);
            let label = match scheme {
                Scheme::Tree(..) => format!("prop={prop:.2},tree"),
                _ => format!("prop={prop:.2},hc"),
            };
            let mut series = Series::new(label);
            for (&load, r) in cfg.loads.iter().zip(&results) {
                series.push(load, r.multicast.per_delivery.mean, r.multicast.per_delivery.ci95());
            }
            out.push((series, results));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shufflenet_point_delivers_with_long_links() {
        let cfg = Fig11Config {
            loads: &[0.03],
            proportions: &[0.10],
            warmup: 30_000,
            measure: 120_000,
            drain: 120_000,
            seed: 3,
        };
        let s = setup(crate::fig10::figure_tree_scheme(), 0.03, 0.10, &cfg);
        let r = crate::runner::run(&s);
        assert!(r.multicast.deliveries > 0);
        // With 1000-byte-time links every adapter hop costs >= 2000
        // byte-times of propagation alone; latencies must reflect that.
        assert!(
            r.multicast.per_delivery.mean > 2000.0,
            "latency {} ignores propagation delay",
            r.multicast.per_delivery.mean
        );
    }
}
