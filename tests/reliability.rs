//! End-to-end reliability: the ACK/NACK + retransmission machinery must
//! deliver exactly once despite corrupted worms and tiny buffers.

use std::sync::Arc;
use wormcast::core::buffers::PoolConfig;
use wormcast::core::ordering::check_total_order;
use wormcast::core::reliable::{AckNackConfig, Reliability};
use wormcast::core::{HcConfig, HcProtocol, Membership, TreeConfig, TreeProtocol};
use wormcast::sim::engine::HostId;
use wormcast::sim::protocol::{Destination, SourceMessage};
use wormcast::sim::{FaultConfig, Network, NetworkConfig};
use wormcast::topo::tree::{MulticastTree, TreeShape};
use wormcast::topo::{TopoBuilder, Topology, UpDown};
use wormcast::traffic::script::install_script;

fn line4() -> Topology {
    let mut b = TopoBuilder::new(4);
    for s in 0..3 {
        b.link(s, s + 1, 1);
    }
    for s in 0..4 {
        b.host(s);
    }
    b.build()
}

fn acknack() -> Reliability {
    Reliability::AckNack(AckNackConfig {
        pool: PoolConfig {
            class1: 4_000,
            class2: 4_000,
            dma_extension: 0,
        },
        single_class: false,
        retry_timeout: 10_000,
        retry_jitter: 5_000,
        max_retries: 200,
    })
}

fn build(corrupt_prob: f64, seed: u64) -> Network {
    let topo = line4();
    let ud = UpDown::compute(&topo, 0);
    let routes = ud.route_table(&topo, false);
    let cfg = NetworkConfig::builder()
        .faults(FaultConfig { corrupt_prob })
        .seed(seed)
        .build()
        .unwrap_or_else(|e| panic!("invalid config: {e}"));
    Network::build(&topo.to_fabric_spec(), routes, cfg)
}

fn hc_all(net: &mut Network, cfg: HcConfig, groups: &Arc<Membership>) {
    for h in 0..net.num_hosts() as u32 {
        net.set_protocol(
            HostId(h),
            Box::new(HcProtocol::new(HostId(h), cfg, Arc::clone(groups))),
        );
    }
}

fn send_bursts(net: &mut Network, per_host: u64) {
    for h in 0..4u32 {
        let items = (0..per_host)
            .map(|i| {
                (
                    100 + h as u64 * 13 + i * 6_000,
                    SourceMessage {
                        dest: Destination::Multicast(0),
                        payload_len: 900,
                    },
                )
            })
            .collect();
        install_script(net, HostId(h), items);
    }
}

#[test]
fn corruption_is_recovered_by_retransmission() {
    let mut net = build(0.15, 42);
    let groups = Membership::from_groups([(0u8, (0..4).map(HostId).collect())]);
    let cfg = HcConfig {
        reliability: acknack(),
        ..HcConfig::store_and_forward()
    };
    hc_all(&mut net, cfg, &groups);
    send_bursts(&mut net, 5);
    let out = net.run_until(20_000_000);
    net.audit().expect("conservation");
    assert!(out.deadlock.is_none());
    assert!(
        net.stats.worms_corrupt > 0,
        "the fault injector must actually corrupt something \
         (injected {})",
        net.stats.worms_injected
    );
    // 20 messages x 3 other members each, delivered exactly once.
    assert_eq!(
        net.msgs.deliveries.len(),
        20 * 3,
        "reliable multicast must deliver exactly once per member \
         (corrupt={}, injected={})",
        net.stats.worms_corrupt,
        net.stats.worms_injected
    );
    // No duplicates per (message, host).
    let mut seen = std::collections::HashSet::new();
    for d in &net.msgs.deliveries {
        assert!(
            seen.insert((d.msg, d.host)),
            "duplicate delivery of {:?} at {:?}",
            d.msg,
            d.host
        );
    }
}

#[test]
fn unreliable_mode_loses_corrupted_worms() {
    let mut net = build(0.15, 42);
    let groups = Membership::from_groups([(0u8, (0..4).map(HostId).collect())]);
    hc_all(&mut net, HcConfig::store_and_forward(), &groups);
    send_bursts(&mut net, 5);
    net.run_until(20_000_000);
    net.audit().expect("conservation");
    assert!(
        net.msgs.deliveries.len() < 60,
        "without ACK/NACK, corruption must cost deliveries (got {})",
        net.msgs.deliveries.len()
    );
}

#[test]
fn serialized_hc_is_totally_ordered_and_reliable_together() {
    let mut net = build(0.10, 7);
    let members: Vec<HostId> = (0..4).map(HostId).collect();
    let groups = Membership::from_groups([(0u8, members.clone())]);
    let cfg = HcConfig {
        serialize: true,
        reliability: acknack(),
        ..HcConfig::store_and_forward()
    };
    hc_all(&mut net, cfg, &groups);
    send_bursts(&mut net, 4);
    let out = net.run_until(30_000_000);
    net.audit().expect("conservation");
    assert!(out.deadlock.is_none());
    assert!(
        check_total_order(&net.msgs, 0, &members).is_none(),
        "serialized Hamiltonian must deliver in one total order"
    );
    // 16 messages, every member but the origin hears each.
    assert_eq!(net.msgs.deliveries.len(), 16 * 3);
}

#[test]
fn root_serialized_tree_is_totally_ordered() {
    let mut net = build(0.0, 3);
    let members: Vec<HostId> = (0..4).map(HostId).collect();
    let groups = Membership::from_groups([(0u8, members.clone())]);
    let _ = groups;
    let tree = MulticastTree::build(&members, TreeShape::BinaryHeap, None);
    let mut trees = std::collections::HashMap::new();
    trees.insert(0u8, tree);
    let trees = Arc::new(trees);
    for h in 0..4u32 {
        net.set_protocol(
            HostId(h),
            Box::new(TreeProtocol::new(
                HostId(h),
                TreeConfig::store_and_forward(),
                Arc::clone(&trees),
            )),
        );
    }
    send_bursts(&mut net, 6);
    let out = net.run_until(20_000_000);
    assert!(out.drained);
    net.audit().expect("conservation");
    assert!(
        check_total_order(&net.msgs, 0, &members).is_none(),
        "root-serialized tree must deliver in one total order"
    );
    assert_eq!(net.msgs.deliveries.len(), 24 * 3);
}
