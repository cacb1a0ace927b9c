//! Ablation A1: the two-buffer-class rule (Figures 6–7) vs a single merged
//! pool of the same total capacity, under deliberately tight buffers.
//!
//! With the rule ON, a worm that has passed the circuit's ID reversal
//! draws from the class-2 pool, which by construction always has room for
//! one maximum-size worm — buffer waits cannot cycle, every NACKed forward
//! eventually succeeds, and delivery completes. With the rule OFF, the
//! Figure 6 cycle is live: opposing multicasts each hold the merged pool
//! at one adapter while waiting for the other's, and forwards starve into
//! NACK/retry storms (the retries are visible as extra injected worms; at
//! the retry cap the engine gives up and the delivery ratio drops).
//!
//! Run with `cargo bench --bench ablation_buffer_classes`.

use wormcast_bench::{run_parallel, Scheme, SimSetup};
use wormcast_core::buffers::PoolConfig;
use wormcast_core::reliable::{AckNackConfig, Reliability};
use wormcast_core::HcConfig;
use wormcast_topo::TopoBuilder;
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

const WORM_BYTES: u32 = 1000;
const SEED: u64 = 0xAB1;

fn setup(single_class: bool, load: f64) -> SimSetup {
    // A ring of 8 switches, one host each; one group of all 8 hosts, so
    // every multicast wraps the ID space (exercising the class reversal).
    let mut b = TopoBuilder::new(8);
    for s in 0..8 {
        b.link(s, (s + 1) % 8, 1);
    }
    for s in 0..8 {
        b.host(s);
    }
    let groups = GroupSet::random(8, 1, 8, &mut host_stream(SEED, 1));
    let reliability = Reliability::AckNack(AckNackConfig {
        pool: PoolConfig::tight(WORM_BYTES + 64),
        single_class,
        retry_timeout: 15_000,
        retry_jitter: 10_000,
        max_retries: 40,
    });
    let scheme = Scheme::Hc(HcConfig {
        reliability,
        ..HcConfig::store_and_forward()
    });
    let workload = PaperWorkload {
        offered_load: load,
        multicast_prob: 1.0, // all multicast: maximum buffer pressure
        lengths: LengthDist::Fixed(WORM_BYTES),
        stop_at: None,
    };
    SimSetup::builder(b.build(), groups, scheme, workload)
        .seed(SEED)
        .windows(50_000, 400_000, 750_000)
        .build()
        .expect("valid setup")
}

fn main() {
    println!("# Ablation A1: two-buffer-class rule vs single merged pool");
    println!("# ring of 8 hosts, one group of all 8, fixed 1000-byte worms,");
    println!("# pools sized to ONE worm per class (Figure 6 pressure)");
    println!(
        "{:>8} {:>14} {:>12} {:>10} {:>10} {:>10}",
        "load", "classes", "latency", "injected", "refused", "ratio"
    );
    let arms = [("two-class", false), ("single", true)];
    for load in [0.05, 0.10, 0.15] {
        let setups = arms
            .iter()
            .map(|&(_, single)| setup(single, load))
            .collect();
        for ((name, _), r) in arms.iter().zip(run_parallel(setups)) {
            let s = r.stats();
            println!(
                "{load:>8.2} {name:>14} {:>12.0} {:>10} {:>10} {:>10.3}",
                r.multicast.per_delivery.mean, s.worms_injected, s.worms_refused, r.delivery_ratio
            );
        }
    }
}
