//! MBone-style continuous media over the wormhole LAN.
//!
//! The paper lists the real-time MBone service among the multicast
//! applications that motivate network-level multicast. This example
//! streams periodic video frames from one source to a group and reports
//! latency, jitter, and delivery under fault injection — in the spirit of
//! smoltcp's `--corrupt-chance` example knobs:
//!
//!     cargo run --release --example video_mbone -- [corrupt_percent] [reliable]
//!
//! e.g. `cargo run --release --example video_mbone -- 10 reliable`
//! corrupts 10% of worms in transit and turns on the paper's ACK/NACK
//! implicit-reservation machinery, which recovers every frame at a jitter
//! cost; without `reliable`, corrupted frames are simply lost.

use std::sync::Arc;
use wormcast::core::buffers::PoolConfig;
use wormcast::core::reliable::{AckNackConfig, Reliability};
use wormcast::core::{HcConfig, HcProtocol, Membership};
use wormcast::sim::engine::HostId;
use wormcast::sim::protocol::{Destination, SourceMessage};
use wormcast::sim::{FaultConfig, Network, NetworkConfig};
use wormcast::stats::summary::percentile;
use wormcast::stats::LogHistogram;
use wormcast::topo::torus::torus;
use wormcast::topo::UpDown;
use wormcast::traffic::script::install_script;

const FRAME_BYTES: u32 = 5_000; // one compressed video frame (~5 KB)
const FRAME_PERIOD: u64 = 2_700_000; // 30 fps at 640 Mb/s byte-times
const FRAMES: u64 = 40;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let corrupt_percent: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let reliable = args.iter().any(|a| a == "reliable");

    let topo = torus(4, 1);
    let ud = UpDown::compute(&topo, 0);
    let routes = ud.route_table(&topo, false);
    let cfg = NetworkConfig::builder()
        .faults(FaultConfig {
            corrupt_prob: corrupt_percent / 100.0,
        })
        .build()
        .unwrap_or_else(|e| panic!("corruption percentage must be 0-100: {e}"));
    let mut net = Network::build(&topo.to_fabric_spec(), routes, cfg);

    let members: Vec<HostId> = vec![1, 3, 6, 9, 12, 14].into_iter().map(HostId).collect();
    let groups = Membership::from_groups([(0u8, members.clone())]);
    let reliability = if reliable {
        Reliability::AckNack(AckNackConfig {
            pool: PoolConfig::myrinet_default(),
            single_class: false,
            retry_timeout: 60_000,
            retry_jitter: 30_000,
            max_retries: 30,
        })
    } else {
        Reliability::None
    };
    let cfg = HcConfig {
        cut_through: true, // lowest latency at streaming loads
        reliability,
        ..HcConfig::store_and_forward()
    };
    for h in 0..16u32 {
        net.set_protocol(
            HostId(h),
            Box::new(HcProtocol::new(HostId(h), cfg, Arc::clone(&groups))),
        );
    }

    // Host 1 is the video source.
    let items = (0..FRAMES)
        .map(|k| {
            (
                1_000 + k * FRAME_PERIOD,
                SourceMessage {
                    dest: Destination::Multicast(0),
                    payload_len: FRAME_BYTES,
                },
            )
        })
        .collect();
    install_script(&mut net, HostId(1), items);

    let horizon = 1_000 + FRAMES * FRAME_PERIOD + 50_000_000;
    net.run_until(horizon);
    net.audit().expect("conservation invariant");

    let expected = FRAMES * (members.len() as u64 - 1);
    let latencies: Vec<f64> = net
        .msgs
        .deliveries
        .iter()
        .map(|d| {
            let created = net
                .msgs
                .created
                .iter()
                .find(|c| c.msg == d.msg)
                .expect("created record")
                .created;
            (d.at - created) as f64
        })
        .collect();
    let got = latencies.len() as u64;
    println!(
        "video multicast: {FRAMES} frames x {} receivers, {corrupt_percent}% corruption, \
         reliability {}",
        members.len() - 1,
        if reliable { "ON (ACK/NACK)" } else { "OFF" }
    );
    println!(
        "  frames delivered : {got}/{expected} ({:.1}% loss)",
        100.0 * (expected - got) as f64 / expected as f64
    );
    if !latencies.is_empty() {
        let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
        let p50 = percentile(&latencies, 50.0);
        let p99 = percentile(&latencies, 99.0);
        println!("  latency mean     : {mean:>10.0} byte-times ({:.1} us)", mean * 0.0125);
        println!("  latency p50      : {p50:>10.0} byte-times");
        println!(
            "  latency p99      : {p99:>10.0} byte-times (jitter p99/p50 = {:.1}x)",
            p99 / p50.max(1.0)
        );
    }
    println!(
        "  corrupted worms  : {} (each recovered by retransmission: {})",
        net.stats.worms_corrupt,
        reliable && got == expected
    );
    if !latencies.is_empty() {
        let h: LogHistogram = latencies.iter().map(|&l| l as u64).collect();
        println!("\n  latency distribution (byte-times):");
        print!("{}", h.render());
    }
}
