//! The paper's stated future work, implemented: "evaluating (via
//! simulation) the actual contention for buffers (and the probability of
//! [drops]) in various load and traffic pattern conditions. When the
//! probability of [dropping] is not very significant, and the application
//! tolerates it, it may be possible to use less reliable multicast
//! schemes ... much simpler to implement."
//!
//! This bench runs the Hamiltonian circuit in three reliability modes —
//! infinite buffers (the Figures 10/11 assumption), finite buffers with
//! ACK/NACK retransmission, and finite buffers with silent drops — across
//! loads and buffer sizes, reporting the message-loss probability and the
//! latency each mode pays. The interesting row is silent-drop at light
//! load: when buffers cover a few worms, loss is near zero and the simple
//! scheme is indeed viable, exactly as the conclusion conjectures.
//!
//! Run with `cargo bench --bench ablation_buffer_contention`.

use wormcast_bench::{run_parallel, Scheme, SimSetup};
use wormcast_core::buffers::PoolConfig;
use wormcast_core::reliable::{AckNackConfig, Reliability};
use wormcast_core::HcConfig;
use wormcast_topo::torus::torus;
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

const SEED: u64 = 0xAB7;

fn setup(mode: Reliability, load: f64, measure: u64) -> SimSetup {
    let groups = GroupSet::random(16, 4, 6, &mut host_stream(SEED, 0x6071));
    let scheme = Scheme::Hc(HcConfig {
        reliability: mode,
        ..HcConfig::store_and_forward()
    });
    let workload = PaperWorkload {
        offered_load: load,
        multicast_prob: 0.25,
        lengths: LengthDist::Geometric { mean: 400 },
        stop_at: None,
    };
    SimSetup::builder(torus(4, 1), groups, scheme, workload)
        .seed(SEED)
        .windows(40_000, measure, 400_000)
        .build()
        .expect("valid setup")
}

fn main() {
    let quick = std::env::var_os("WORMCAST_QUICK").is_some();
    let measure = if quick { 150_000 } else { 400_000 };
    println!("# Future-work study: buffer contention and the viability of");
    println!("# unreliable (silent-drop) multicast. 4x4 torus, p(mcast)=0.25.");
    println!(
        "{:>8} {:>10} {:>16} {:>12} {:>10} {:>10} {:>10}",
        "load", "buffers", "mode", "latency", "loss", "refused", "injected"
    );
    for load in [0.02, 0.04, 0.06] {
        for pool_worms in [2u32, 8] {
            let pool = PoolConfig {
                class1: pool_worms * 500,
                class2: pool_worms * 500,
                dma_extension: 0,
            };
            let arms = [
                ("infinite", Reliability::None),
                (
                    "acknack-retry",
                    Reliability::AckNack(AckNackConfig {
                        pool,
                        single_class: false,
                        retry_timeout: 15_000,
                        retry_jitter: 10_000,
                        max_retries: 60,
                    }),
                ),
                (
                    "silent-drop",
                    Reliability::FiniteDrop {
                        pool,
                        single_class: false,
                    },
                ),
            ];
            let setups = arms
                .iter()
                .map(|&(_, mode)| setup(mode, load, measure))
                .collect();
            for ((name, _), r) in arms.iter().zip(run_parallel(setups)) {
                let loss = (1.0 - r.delivery_ratio).max(0.0);
                let s = r.stats();
                println!(
                    "{load:>8.2} {:>9}w {name:>16} {:>12.0} {:>9.2}% {:>10} {:>10}",
                    2 * pool_worms,
                    r.multicast.per_delivery.mean,
                    loss * 100.0,
                    s.worms_refused,
                    s.worms_injected
                );
            }
        }
    }
}
