//! End-to-end behaviour of the two baselines the paper argues against.

use std::collections::HashMap;
use std::sync::Arc;
use wormcast::core::credit::{CreditConfig, CreditProtocol};
use wormcast::core::ordering::check_total_order;
use wormcast::core::{Membership, UnicastRepeatConfig, UnicastRepeatProtocol};
use wormcast::sim::engine::HostId;
use wormcast::sim::protocol::{Destination, SourceMessage};
use wormcast::sim::{Network, NetworkConfig};
use wormcast::topo::tree::{MulticastTree, TreeShape};
use wormcast::topo::{TopoBuilder, Topology, UpDown};
use wormcast::traffic::script::{install_one_shot, install_script};

fn star_topology() -> Topology {
    // A root switch with 3 leaf switches, 2 hosts each (8 hosts total).
    let mut b = TopoBuilder::new(4);
    b.link(0, 1, 1);
    b.link(0, 2, 1);
    b.link(0, 3, 1);
    for s in 0..4 {
        b.host(s);
        b.host(s);
    }
    b.build()
}

fn build(topo: &Topology) -> Network {
    let ud = UpDown::compute(topo, 0);
    Network::build(
        &topo.to_fabric_spec(),
        ud.route_table(topo, false),
        NetworkConfig::builder().build().expect("valid config"),
    )
}

#[test]
fn credit_scheme_delivers_and_totally_orders() {
    let topo = star_topology();
    let mut net = build(&topo);
    let members: Vec<HostId> = vec![0, 2, 4, 6].into_iter().map(HostId).collect();
    let membership = Membership::from_groups([(0u8, members.clone())]);
    let tree = MulticastTree::build(&members, TreeShape::BinaryHeap, None);
    let mut trees = HashMap::new();
    trees.insert(0u8, tree);
    let trees = Arc::new(trees);
    let cfg = CreditConfig {
        manager: HostId(0),
        num_hosts: 8,
        initial_credits: 6_000, // enough for ~3 multicasts before the token
        token_period: 40_000,
    };
    for h in 0..8u32 {
        net.set_protocol(
            HostId(h),
            Box::new(CreditProtocol::new(
                HostId(h),
                cfg,
                Arc::clone(&membership),
                Arc::clone(&trees),
            )),
        );
    }
    // More multicast bytes than the initial credit pool: later messages
    // must wait for the credit-gathering token to replenish the manager.
    for (i, &m) in members.iter().enumerate() {
        let items = (0..3u64)
            .map(|k| {
                (
                    100 + i as u64 * 37 + k * 5_000,
                    SourceMessage {
                        dest: Destination::Multicast(0),
                        payload_len: 600,
                    },
                )
            })
            .collect();
        install_script(&mut net, m, items);
    }
    let out = net.run_until(20_000_000);
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    // 12 messages x 3 other members each.
    assert_eq!(net.msgs.deliveries.len(), 12 * 3, "credit scheme must deliver all");
    assert!(
        check_total_order(&net.msgs, 0, &members).is_none(),
        "sequenced grants must give a total order"
    );
}

#[test]
fn broadcast_filter_baseline_wastes_receptions() {
    let topo = star_topology();
    let mut net = build(&topo);
    let members: Vec<HostId> = vec![1, 3, 5].into_iter().map(HostId).collect();
    let membership = Membership::from_groups([(0u8, members)]);
    for h in 0..8u32 {
        net.set_protocol(
            HostId(h),
            Box::new(UnicastRepeatProtocol::new(
                HostId(h),
                UnicastRepeatConfig {
                    broadcast_filter: true,
                    num_hosts: 8,
                },
                Arc::clone(&membership),
            )),
        );
    }
    install_one_shot(&mut net, HostId(1), 100, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 400,
    });
    let out = net.run_until(1_000_000);
    assert!(out.drained);
    net.audit().expect("conservation");
    // 7 copies hit the wire (every other host), only 2 members deliver.
    assert_eq!(net.stats.worms_injected, 7);
    assert_eq!(net.msgs.deliveries.len(), 2);
    // The five non-member receptions were wasted work — the paper's
    // complaint about the stock broadcast facility.
    assert_eq!(net.stats.worms_delivered, 7, "all copies consumed adapters");
}
