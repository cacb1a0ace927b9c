//! Figure 10: average multicast latency vs offered load on the 8×8 torus.
//!
//! Paper parameters (Section 7.1): 64 hosts, ten multicast groups of ten
//! members chosen at random, multicast generation probability 0.10,
//! Poisson arrivals, geometric worm lengths with mean 400 bytes, unicast
//! destinations uniform, up/down routing with a fixed path per pair.
//! Offered load (per-host output-link utilization) sweeps 0.04–0.12.
//!
//! Expected shape (paper): tree below Hamiltonian store-and-forward
//! everywhere; Hamiltonian cut-through below the tree at light load and
//! above it at heavy load; the Hamiltonian curves saturate earlier.

use crate::runner::{run_parallel, RunReport, SimSetup, SimSetupBuilder};
use crate::schemes::Scheme;
use wormcast_core::{HcConfig, Reliability, TreeConfig, TreeMode};
use wormcast_stats::Series;
use wormcast_topo::torus::torus;
use wormcast_topo::tree::TreeShape;
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

/// Experiment scale. `Full` is the paper's configuration; `Quick` shrinks
/// the measurement window for CI-friendly runs with the same shape.
#[derive(Clone, Copy, Debug)]
pub struct Fig10Config {
    pub loads: &'static [f64],
    pub warmup: u64,
    pub measure: u64,
    pub drain: u64,
    pub seed: u64,
}

impl Fig10Config {
    pub fn full() -> Self {
        Fig10Config {
            loads: &[0.04, 0.045, 0.05, 0.055, 0.06, 0.065, 0.07, 0.08, 0.10, 0.12],
            warmup: 150_000,
            measure: 800_000,
            drain: 150_000,
            seed: 0xF1610,
        }
    }

    pub fn quick() -> Self {
        Fig10Config {
            loads: &[0.04, 0.08, 0.12],
            warmup: 50_000,
            measure: 200_000,
            drain: 80_000,
            seed: 0xF1610,
        }
    }
}

/// The tree configuration used in the figures: broadcast on a
/// topology-aware (greedy hop-cost, ID-ordered) tree, full reassembly at
/// each adapter. The paper observes that "the average hop length for each
/// link of the tree is less than the average hop length for all pairs" —
/// which is only true of a topology-aware tree — and its Figure 10 tree
/// curve beats the Hamiltonian, which requires the origin-rooted
/// (non-serialized) variant; the root-serialized variant funnels every
/// group's traffic through one adapter and loses that advantage (shown in
/// the tree-shape ablation bench).
pub fn figure_tree_scheme() -> Scheme {
    Scheme::Tree(
        TreeConfig {
            mode: TreeMode::BroadcastFromOrigin,
            cut_through_first: false,
            reliability: Reliability::None,
        },
        TreeShape::GreedyHop,
    )
}

/// The three schemes of Figure 10.
pub fn schemes() -> Vec<Scheme> {
    vec![
        Scheme::Hc(HcConfig::store_and_forward()),
        Scheme::Hc(HcConfig::cut_through()),
        figure_tree_scheme(),
    ]
}

/// The builder for one experiment point of the figure, so callers that
/// rerun the operating point under another engine mode, lane count, shard
/// plan or trace sink set those through the validating builder.
pub fn builder(scheme: Scheme, load: f64, cfg: &Fig10Config) -> SimSetupBuilder {
    let mut grng = host_stream(cfg.seed, 0x6071);
    let groups = GroupSet::random(64, 10, 10, &mut grng);
    let workload = PaperWorkload {
        offered_load: load,
        multicast_prob: 0.10,
        lengths: LengthDist::Geometric { mean: 400 },
        stop_at: None,
    };
    SimSetup::builder(torus(8, 1), groups, scheme, workload)
        .seed(cfg.seed)
        .windows(cfg.warmup, cfg.measure, cfg.drain)
}

/// One experiment point of the figure.
pub fn setup(scheme: Scheme, load: f64, cfg: &Fig10Config) -> SimSetup {
    builder(scheme, load, cfg)
        .build()
        .expect("figure 10 parameters are valid")
}

/// Run the full figure: one series per scheme, one point per load.
pub fn run_figure(cfg: &Fig10Config) -> Vec<(Series, Vec<RunReport>)> {
    schemes()
        .into_iter()
        .map(|scheme| {
            let setups: Vec<SimSetup> = cfg
                .loads
                .iter()
                .map(|&load| setup(scheme, load, cfg))
                .collect();
            let results = run_parallel(setups);
            let mut series = Series::new(scheme_label(&scheme));
            for (&load, r) in cfg.loads.iter().zip(&results) {
                series.push(load, r.multicast.per_delivery.mean, r.multicast.per_delivery.ci95());
            }
            (series, results)
        })
        .collect()
}

fn scheme_label(s: &Scheme) -> String {
    match s {
        Scheme::Hc(c) if c.cut_through => "Hamiltonian cycle, cut-thru".into(),
        Scheme::Hc(_) => "Hamiltonian cycle".into(),
        _ => "Rooted tree".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single light-load point behaves sanely (fast, so part of the unit
    /// suite; the full figure lives in the bench target).
    #[test]
    fn light_load_point_delivers() {
        let cfg = Fig10Config {
            loads: &[0.03],
            warmup: 10_000,
            measure: 50_000,
            drain: 60_000,
            seed: 7,
        };
        let s = setup(figure_tree_scheme(), 0.03, &cfg);
        let r = crate::runner::run(&s);
        assert!(r.multicast.deliveries > 0, "no multicast deliveries");
        assert!(r.delivery_ratio > 0.95, "ratio {}", r.delivery_ratio);
        // Latency at light load: a few worm times — an order of magnitude
        // below the >100k byte-times a saturated point shows. (Wide bound:
        // this short window is noisy; the figure bench uses long windows.)
        assert!(
            r.multicast.per_delivery.mean > 300.0
                && r.multicast.per_delivery.mean < 9000.0,
            "implausible light-load latency {}",
            r.multicast.per_delivery.mean
        );
    }
}
