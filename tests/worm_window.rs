//! The worm window: a run's worm storage holds the worms still in the
//! fabric, not every worm the run has injected.

use wormcast::topo::torus::torus;
use wormcast_bench::fig10::{figure_tree_scheme, Fig10Config};
use wormcast_bench::runner::{build_network, SimSetup};
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

/// The Figure 10 tree scheme at load 0.04, below the knee, stepped every
/// 10 000 byte-times until it has injected 10 000 worms: the window never
/// holds more than 500 of them, and the audit (the window holds exactly
/// the worms with a sink to resolve) passes at every step.
#[test]
fn a_long_fig10_run_keeps_a_bounded_worm_window() {
    let seed = Fig10Config::quick().seed;
    let mut grng = host_stream(seed, 0x6071);
    let groups = GroupSet::random(64, 10, 10, &mut grng);
    let workload = PaperWorkload {
        offered_load: 0.04,
        multicast_prob: 0.10,
        lengths: LengthDist::Geometric { mean: 400 },
        stop_at: None,
    };
    let setup = SimSetup::builder(torus(8, 1), groups, figure_tree_scheme(), workload)
        .seed(seed)
        .windows(0, 100_000_000, 0)
        .build()
        .expect("valid setup");
    let mut net = build_network(&setup);
    let (mut t, mut widest) = (0, 0);
    while net.stats.worms_injected < 10_000 {
        t += 10_000;
        net.advance_to(t);
        widest = widest.max(net.worm_window());
        net.audit().unwrap_or_else(|e| panic!("t={t}: {e}"));
    }
    assert!(
        widest <= 500,
        "the window held {widest} worms after {} injected by t={t}",
        net.stats.worms_injected
    );
    assert!(net.live_worms().count() <= net.worm_window());
}
