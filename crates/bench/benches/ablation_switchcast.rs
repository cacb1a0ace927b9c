//! Ablation A6: switch-level multicast (Section 3) variants against each
//! other and against the host-adapter schemes.
//!
//! * **V1 restricted+IDLE** — every worm (unicast too) confined to the
//!   up/down spanning tree; blocked multicasts idle-fill their branches.
//!   Lowest multicast latency, but unicast pays for the unused crosslinks.
//! * **V2 root-serialized interrupt/resume** — unicasts route freely;
//!   multicasts are serialized through the root and fragment when blocked.
//! * **V3 multicast-IDLE flush** — multicasts on the tree with IDLE fills;
//!   unicasts route freely but are flushed (and retransmitted) when stuck
//!   behind a multicast-IDLE port.
//! * **hc-adapter** — the Section 5 host-adapter Hamiltonian circuit, for
//!   the fabric-vs-adapter comparison the paper's conclusions draw.
//!
//! The paper's claim to check: switch-level multicast gives the lowest
//! multicast latency (no per-hop reassembly in adapters), at the cost of
//! fabric complexity and (V1) reduced unicast bandwidth.
//!
//! Run with `cargo bench --bench ablation_switchcast`.

use wormcast_bench::{run_parallel, Scheme, SimSetup};
use wormcast_core::switchcast::SwitchcastVariant;
use wormcast_core::HcConfig;
use wormcast_topo::torus::torus;
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

fn setup(scheme: Scheme, load: f64, measure: u64) -> SimSetup {
    let mut grng = host_stream(0xAB6, 0x6071);
    let groups = GroupSet::random(16, 4, 6, &mut grng);
    let workload = PaperWorkload {
        offered_load: load,
        multicast_prob: 0.10,
        lengths: LengthDist::Geometric { mean: 400 },
        stop_at: None,
    };
    SimSetup::builder(torus(4, 1), groups, scheme, workload)
        .seed(0xAB6)
        .windows(40_000, measure, 150_000)
        .build()
        .expect("valid setup")
}

fn main() {
    let quick = std::env::var_os("WORMCAST_QUICK").is_some();
    let measure = if quick { 150_000 } else { 400_000 };
    let arms = [
        (
            "v1-restricted-idle",
            Scheme::Switch(SwitchcastVariant::RestrictedIdle),
        ),
        (
            "v2-rooted-interrupt",
            Scheme::Switch(SwitchcastVariant::RootedInterrupt),
        ),
        (
            "v3-idle-flush",
            Scheme::Switch(SwitchcastVariant::IdleFlush),
        ),
        ("hc-adapter", Scheme::Hc(HcConfig::store_and_forward())),
    ];
    println!("# Ablation A6: switch-level multicast variants, 4x4 torus,");
    println!("# 4 groups x 6 members, p(mcast)=0.10");
    println!(
        "{:>8} {:>20} {:>14} {:>14} {:>10}",
        "load", "scheme", "mcast-latency", "uni-latency", "flushes"
    );
    for load in [0.02, 0.04, 0.06] {
        let setups = arms
            .iter()
            .map(|&(_, scheme)| setup(scheme, load, measure))
            .collect();
        for ((name, _), r) in arms.iter().zip(run_parallel(setups)) {
            assert!(
                r.outcome.deadlock.is_none(),
                "{name}: deadlock {:?}",
                r.outcome.deadlock
            );
            println!(
                "{load:>8.2} {name:>20} {:>14.0} {:>14.0} {:>10}",
                r.multicast.per_delivery.mean,
                r.unicast.per_delivery.mean,
                r.stats().worms_flushed
            );
        }
    }
}
