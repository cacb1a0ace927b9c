//! End-to-end integration: topology -> up/down routes -> fabric -> protocols.

mod common;

use common::ring4;
use std::sync::Arc;
use wormcast::core::{HcConfig, HcProtocol, Membership, TreeConfig, TreeProtocol};
use wormcast::sim::engine::HostId;
use wormcast::sim::protocol::{Destination, SourceMessage};
use wormcast::sim::trace::TraceConfig;
use wormcast::sim::{Network, NetworkConfig};
use wormcast::topo::tree::{MulticastTree, TreeShape};
use wormcast::topo::{Topology, UpDown};
use wormcast::traffic::script::{install_one_shot, install_script};

fn build_net(topo: &Topology, trace: TraceConfig) -> Network {
    let ud = UpDown::compute(topo, 0);
    let routes = ud.route_table(topo, false);
    let cfg = NetworkConfig::builder()
        .trace(trace)
        .build()
        .expect("valid config");
    Network::build(&topo.to_fabric_spec(), routes, cfg)
}

fn install_hc(net: &mut Network, cfg: HcConfig, groups: &Arc<Membership>) {
    for h in 0..net.num_hosts() as u32 {
        let p = HcProtocol::new(HostId(h), cfg, Arc::clone(groups));
        net.set_protocol(HostId(h), Box::new(p));
    }
}

#[test]
fn unicast_delivery_and_latency() {
    let topo = ring4();
    let mut net = build_net(&topo, TraceConfig::Off);
    let groups = Membership::from_groups([(0u8, vec![HostId(0), HostId(2)])]);
    install_hc(&mut net, HcConfig::store_and_forward(), &groups);
    install_one_shot(&mut net, HostId(0), 100, SourceMessage {
        dest: Destination::Unicast(HostId(1)),
        payload_len: 100,
    });
    let out = net.run_until(10_000);
    assert!(out.drained, "one message must drain");
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    assert_eq!(net.msgs.deliveries.len(), 1);
    let d = &net.msgs.deliveries[0];
    assert_eq!(d.host, HostId(1));
    // Wire length: 2 route bytes (switch hop + host port) + 8 header +
    // 100 payload + 1 tail = 111; plus per-hop pipeline latencies.
    let latency = d.at - 100;
    assert!(
        (111..=140).contains(&latency),
        "unexpected unicast latency {latency}"
    );
}

#[test]
fn all_pairs_unicast_conservation_and_determinism() {
    let run = |seed: u64| {
        let topo = ring4();
        let ud = UpDown::compute(&topo, 0);
        let routes = ud.route_table(&topo, false);
        let cfg = NetworkConfig::builder()
            .seed(seed)
            .build()
            .expect("valid config");
        let mut net = Network::build(&topo.to_fabric_spec(), routes, cfg);
        let groups = Membership::from_groups([(0u8, vec![HostId(0)])]);
        install_hc(&mut net, HcConfig::store_and_forward(), &groups);
        for src in 0..4u32 {
            let mut items = Vec::new();
            for (i, dst) in (0..4u32).filter(|&d| d != src).enumerate() {
                items.push((
                    50 + 37 * src as u64 + 400 * i as u64,
                    SourceMessage {
                        dest: Destination::Unicast(HostId(dst)),
                        payload_len: 200 + dst,
                    },
                ));
            }
            install_script(&mut net, HostId(src), items);
        }
        let out = net.run_until(1_000_000);
        assert!(out.drained);
        assert!(out.deadlock.is_none());
        net.audit().expect("conservation");
        assert_eq!(net.msgs.deliveries.len(), 12, "4 hosts x 3 destinations");
        net.msgs.deliveries.clone()
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "identical seeds must replay identically"
    );
}

#[test]
fn hamiltonian_multicast_reaches_all_members() {
    let topo = ring4();
    let mut net = build_net(&topo, TraceConfig::Memory);
    let members: Vec<HostId> = (0..4).map(HostId).collect();
    let groups = Membership::from_groups([(0u8, members.clone())]);
    install_hc(&mut net, HcConfig::store_and_forward(), &groups);
    install_one_shot(&mut net, HostId(2), 100, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 400,
    });
    let out = net.run_until(100_000);
    assert!(out.drained);
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    let mut delivered: Vec<u32> = net.msgs.deliveries.iter().map(|d| d.host.0).collect();
    delivered.sort_unstable();
    assert_eq!(delivered, vec![0, 1, 3], "everyone but the origin");
    // Circuit order from origin 2: 3 first, then 0, then 1.
    let mut by_time = net.msgs.deliveries.clone();
    by_time.sort_by_key(|d| d.at);
    let order: Vec<u32> = by_time.iter().map(|d| d.host.0).collect();
    assert_eq!(order, vec![3, 0, 1], "store-and-forward circuit order");
}

#[test]
fn hamiltonian_cut_through_is_faster_at_light_load() {
    let run = |cfg: HcConfig| {
        let topo = ring4();
        let mut net = build_net(&topo, TraceConfig::Off);
        let members: Vec<HostId> = (0..4).map(HostId).collect();
        let groups = Membership::from_groups([(0u8, members)]);
        install_hc(&mut net, cfg, &groups);
        install_one_shot(&mut net, HostId(0), 100, SourceMessage {
            dest: Destination::Multicast(0),
            payload_len: 1000,
        });
        let out = net.run_until(1_000_000);
        assert!(out.drained);
        net.audit().expect("conservation");
        // Time the last member hears the message.
        net.msgs.deliveries.iter().map(|d| d.at).max().unwrap()
    };
    let snf = run(HcConfig::store_and_forward());
    let ct = run(HcConfig::cut_through());
    assert!(
        ct + 500 < snf,
        "cut-through ({ct}) must beat store-and-forward ({snf}) when idle"
    );
}

#[test]
fn tree_multicast_reaches_all_members() {
    let topo = ring4();
    let mut net = build_net(&topo, TraceConfig::Off);
    let members: Vec<HostId> = (0..4).map(HostId).collect();
    let tree = MulticastTree::build(&members, TreeShape::BinaryHeap, None);
    let mut trees = std::collections::HashMap::new();
    trees.insert(0u8, tree);
    let trees = Arc::new(trees);
    for h in 0..4u32 {
        let p = TreeProtocol::new(HostId(h), TreeConfig::store_and_forward(), Arc::clone(&trees));
        net.set_protocol(HostId(h), Box::new(p));
    }
    install_one_shot(&mut net, HostId(3), 100, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 400,
    });
    let out = net.run_until(100_000);
    assert!(out.drained);
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    let mut delivered: Vec<u32> = net.msgs.deliveries.iter().map(|d| d.host.0).collect();
    delivered.sort_unstable();
    assert_eq!(delivered, vec![0, 1, 2], "all members except origin 3");
}

#[test]
fn contention_is_resolved_by_backpressure_without_loss() {
    // Two hosts blast the same destination at the same instant; the switch
    // serialises the worms, nothing is dropped.
    let topo = ring4();
    let mut net = build_net(&topo, TraceConfig::Memory);
    let groups = Membership::from_groups([(0u8, vec![HostId(0)])]);
    install_hc(&mut net, HcConfig::store_and_forward(), &groups);
    for src in [0u32, 2u32] {
        let items = (0..5u64)
            .map(|i| {
                (
                    100 + i * 10,
                    SourceMessage {
                        dest: Destination::Unicast(HostId(1)),
                        payload_len: 2000,
                    },
                )
            })
            .collect();
        install_script(&mut net, HostId(src), items);
    }
    let out = net.run_until(1_000_000);
    assert!(out.drained);
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    assert_eq!(net.msgs.deliveries.len(), 10, "no loss under contention");
    assert_eq!(net.stats.worms_refused, 0);
    // Backpressure must actually have engaged: 10 x 2 KB worms racing for
    // one 1-byte/byte-time host link.
    use wormcast::sim::trace::TraceEvent;
    let stops = net
        .trace
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, TraceEvent::StopInForce { .. }))
        .count();
    assert!(stops > 0, "expected STOP/GO activity under contention");
}
