//! The Section 8 measurements (Figures 12 and 13).
//!
//! Testbed: a four-switch Myrinet with eight hosts (two per switch,
//! switches in a line), a multicast group of all eight members on the
//! Hamiltonian circuit, and saturating application-space senders.
//!
//! * Figure 12: per-host **throughput vs packet size** (1–8 KB), for a
//!   single transmitting host and for all eight transmitting at once.
//! * Figure 13: per-host **reception loss vs packet size** in the
//!   all-senders case (the single-sender case measured no loss, which the
//!   model reproduces).

use crate::lanai::LanaiModel;
use crate::prototype::{pump_kick, PrototypeProtocol};
use wormcast_sim::engine::HostId;
use wormcast_sim::network::NetworkConfig;
use wormcast_sim::time::{utilization_to_mbps, SimTime};
use wormcast_sim::Network;
use wormcast_topo::{TopoBuilder, Topology, UpDown};

/// Number of hosts on the testbed.
pub const NUM_HOSTS: usize = 8;

/// One prototype run.
#[derive(Clone, Copy, Debug)]
pub struct PrototypeConfig {
    /// Application payload per packet, bytes (the paper sweeps 1–8 KB).
    pub packet_size: u32,
    /// All eight hosts send (Figure 12's dashed curve / Figure 13), or
    /// only host 0 (the solid curve).
    pub all_senders: bool,
    pub lanai: LanaiModel,
    /// Measurement duration in byte-times.
    pub duration: SimTime,
    pub seed: u64,
}

impl PrototypeConfig {
    pub fn new(packet_size: u32, all_senders: bool) -> Self {
        PrototypeConfig {
            packet_size,
            all_senders,
            lanai: LanaiModel::default(),
            duration: 4_000_000, // 50 ms of 640 Mb/s time
            seed: 0x5EC8,
        }
    }
}

/// Measured outcomes of one run.
#[derive(Clone, Debug)]
pub struct PrototypeResult {
    /// Payload goodput delivered to each host, Mb/s.
    pub per_host_rx_mbps: Vec<f64>,
    /// Mean over receiving hosts — the Figure 12 y-value.
    pub throughput_mbps: f64,
    /// Per-host fraction of arriving worms dropped at the input buffer.
    pub loss_per_host: Vec<f64>,
    /// Mean over hosts — the Figure 13 y-value.
    pub loss: f64,
    pub packets_delivered: u64,
    pub packets_dropped: u64,
}

/// The four-switch, eight-host testbed topology: switches in a line, two
/// hosts per switch, host IDs ascending with switch position.
pub fn testbed_topology() -> Topology {
    let mut b = TopoBuilder::new(4);
    b.link(0, 1, 2);
    b.link(1, 2, 2);
    b.link(2, 3, 2);
    for sw in 0..4 {
        b.host(sw);
        b.host(sw);
    }
    b.build()
}

/// Run one prototype measurement.
pub fn run_prototype(cfg: &PrototypeConfig) -> PrototypeResult {
    let topo = testbed_topology();
    let ud = UpDown::compute(&topo, 0);
    let routes = ud.route_table(&topo, false);
    let net_cfg = NetworkConfig::builder()
        .seed(cfg.seed)
        .build()
        .expect("valid config");
    let mut net = Network::build(&topo.to_fabric_spec(), routes, net_cfg);
    let circuit: Vec<HostId> = (0..NUM_HOSTS as u32).map(HostId).collect();
    // Let the pump stop early enough for in-flight worms to drain before
    // the deadline, so counters are not skewed by truncation.
    let pump_until = cfg.duration.saturating_sub(200_000);
    for h in 0..NUM_HOSTS as u32 {
        let is_sender = cfg.all_senders || h == 0;
        let p = PrototypeProtocol::new(
            HostId(h),
            cfg.lanai,
            circuit.clone(),
            cfg.packet_size,
            is_sender,
            pump_until,
        );
        net.set_protocol(HostId(h), Box::new(p));
        if is_sender {
            // Stagger pump starts a little, as real processes would.
            let kick_at = 64 * h as SimTime;
            net.set_source(
                HostId(h),
                Box::new(wormcast_traffic::script::OneShot::new(pump_kick())),
                kick_at,
            );
        }
    }
    let out = net.run_until(cfg.duration);
    assert!(out.deadlock.is_none(), "prototype run deadlocked");
    net.audit().expect("conservation");

    // "Received data rate at each host" is what reaches the application
    // (host-DMA completions = DeliverLocal records), not what crosses the
    // wire into the adapter.
    let mut host_delivered = vec![0u64; NUM_HOSTS];
    for d in &net.msgs.deliveries {
        host_delivered[d.host.0 as usize] += 1;
    }
    let mut per_host_rx_mbps = Vec::with_capacity(NUM_HOSTS);
    let mut loss_per_host = Vec::with_capacity(NUM_HOSTS);
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    for (a, &got) in net.adapters.iter().zip(&host_delivered) {
        let rx_payload_bytes = got * cfg.packet_size as u64;
        per_host_rx_mbps.push(utilization_to_mbps(
            rx_payload_bytes as f64 / cfg.duration as f64,
        ));
        let arrived = a.counters.worms_received + a.counters.worms_refused;
        loss_per_host.push(if arrived == 0 {
            0.0
        } else {
            a.counters.worms_refused as f64 / arrived as f64
        });
        delivered += got;
        dropped += a.counters.worms_refused;
    }
    // Figure 12 averages over hosts that *receive*: with a single sender,
    // the sender itself receives nothing (the worm stops one hop short).
    let receiving: Vec<f64> = if cfg.all_senders {
        per_host_rx_mbps.clone()
    } else {
        per_host_rx_mbps[1..].to_vec()
    };
    let throughput_mbps = receiving.iter().sum::<f64>() / receiving.len() as f64;
    let loss = if delivered + dropped == 0 {
        0.0
    } else {
        dropped as f64 / (delivered + dropped) as f64
    };
    PrototypeResult {
        per_host_rx_mbps,
        throughput_mbps,
        loss_per_host,
        loss,
        packets_delivered: delivered,
        packets_dropped: dropped,
    }
}

/// The packet sizes of Figures 12/13.
pub fn packet_sizes() -> Vec<u32> {
    (1..=8).map(|k| k * 1024).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug builds are ~25x slower; shrink horizons so `cargo test`
    /// stays quick while release CI runs the full windows.
    fn dur(full: SimTime) -> SimTime {
        if cfg!(debug_assertions) {
            full / 4
        } else {
            full
        }
    }

    #[test]
    fn testbed_shape() {
        let t = testbed_topology();
        assert_eq!(t.num_switches(), 4);
        assert_eq!(t.num_hosts(), 8);
        assert!(t.is_connected());
        // Hosts 0,1 on switch 0; 6,7 on switch 3.
        assert_eq!(t.hosts[0].switch, 0);
        assert_eq!(t.hosts[7].switch, 3);
    }

    #[test]
    fn single_sender_no_loss_and_sane_throughput() {
        let mut cfg = PrototypeConfig::new(4096, false);
        cfg.duration = dur(1_500_000);
        let r = run_prototype(&cfg);
        assert_eq!(r.packets_dropped, 0, "single sender must not overflow");
        assert!(
            (30.0..=200.0).contains(&r.throughput_mbps),
            "throughput {} Mb/s out of the Figure 12 ballpark",
            r.throughput_mbps
        );
        // Every non-sender host hears the stream at the same rate.
        let rates = &r.per_host_rx_mbps[1..];
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        assert!(max - min < 15.0, "uneven rates: {rates:?}");
    }

    #[test]
    fn all_senders_lose_packets_at_large_sizes() {
        let mut cfg = PrototypeConfig::new(8192, true);
        cfg.duration = dur(1_500_000);
        let r = run_prototype(&cfg);
        assert!(
            r.loss > 0.05,
            "all-senders at 8 KB must overflow input buffers (loss {})",
            r.loss
        );
    }

    #[test]
    fn throughput_grows_with_packet_size_single_sender() {
        let mut small = PrototypeConfig::new(1024, false);
        small.duration = dur(1_200_000);
        let mut large = PrototypeConfig::new(8192, false);
        large.duration = dur(1_200_000);
        let rs = run_prototype(&small);
        let rl = run_prototype(&large);
        assert!(
            rl.throughput_mbps > rs.throughput_mbps * 1.5,
            "8 KB ({}) must beat 1 KB ({}) clearly",
            rl.throughput_mbps,
            rs.throughput_mbps
        );
    }
}
