//! End-to-end dynamic group membership: the manager extension
//! (`core::manager`) running over the real fabric — joins and leaves
//! propagate, and multicasts always follow the current membership.

use std::collections::BTreeSet;
use wormcast::core::manager::{GroupOp, ManagedHcProtocol};
use wormcast::core::{HcConfig, HcProtocol, Membership};
use wormcast::sim::engine::HostId;
use wormcast::sim::protocol::{Destination, SourceMessage};
use wormcast::sim::{Network, NetworkConfig};
use wormcast::topo::{TopoBuilder, UpDown};
use wormcast::traffic::script::install_one_shot;

const GROUP: u8 = 3;

/// Six hosts on three switches; host 0 is the group manager.
fn build() -> (Network, Vec<Vec<u64>>) {
    let mut b = TopoBuilder::new(3);
    b.link(0, 1, 1);
    b.link(1, 2, 1);
    for s in 0..3 {
        b.host(s);
        b.host(s);
    }
    let topo = b.build();
    let ud = UpDown::compute(&topo, 0);
    let routes = ud.route_table(&topo, false);
    let mut net = Network::build(&topo.to_fabric_spec(), routes, NetworkConfig::builder().build().expect("valid config"));
    // Membership timeline (times in byte-times):
    //   t=100..: hosts 0, 2, 4 join
    //   t=20_000: host 5 joins
    //   t=40_000: host 2 leaves
    let mut tokens: Vec<Vec<u64>> = vec![Vec::new(); 6];
    for h in 0..6u32 {
        let mut p = ManagedHcProtocol::new(HostId(h), HostId(0));
        match h {
            0 | 2 | 4 => tokens[h as usize].push(p.script(GroupOp::Join(GROUP))),
            5 => tokens[5].push(p.script(GroupOp::Join(GROUP))),
            _ => {}
        }
        if h == 2 {
            tokens[2].push(p.script(GroupOp::Leave(GROUP)));
        }
        net.set_protocol(HostId(h), Box::new(p));
    }
    // Post the scripted ops through the driver API.
    net.post_timer(HostId(0), 100, tokens[0][0]);
    net.post_timer(HostId(2), 120, tokens[2][0]);
    net.post_timer(HostId(4), 140, tokens[4][0]);
    net.post_timer(HostId(5), 20_000, tokens[5][0]);
    net.post_timer(HostId(2), 40_000, tokens[2][1]);
    (net, tokens)
}

#[test]
fn multicasts_track_joins_and_leaves() {
    let (mut net, _tokens) = build();
    let mcast = SourceMessage {
        dest: Destination::Multicast(GROUP),
        payload_len: 300,
    };
    // Phase 1 (after initial joins, before host 5 joins) and phase 3
    // (after host 2 left): origin 0. One script per host — a host has one
    // traffic source.
    wormcast::traffic::script::install_script(
        &mut net,
        HostId(0),
        vec![(10_000, mcast), (60_000, mcast)],
    );
    // Phase 2 (after host 5 joined): origin 4.
    install_one_shot(&mut net, HostId(4), 30_000, mcast);
    let out = net.run_until(500_000);
    assert!(out.drained, "dynamic-group run must drain");
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");

    // Collect per-phase delivery sets.
    let phase = |lo: u64, hi: u64| -> Vec<u32> {
        let mut v: Vec<u32> = net
            .msgs
            .deliveries
            .iter()
            .filter(|d| d.at >= lo && d.at < hi)
            .map(|d| d.host.0)
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(phase(10_000, 30_000), vec![2, 4], "initial members minus origin");
    assert_eq!(phase(30_000, 60_000), vec![0, 2, 5], "host 5 now included");
    assert_eq!(phase(60_000, 500_000), vec![4, 5], "host 2 no longer receives");
}

#[test]
fn leave_of_unknown_member_is_harmless() {
    let mut b = TopoBuilder::new(1);
    b.host(0);
    b.host(0);
    let topo = b.build();
    let ud = UpDown::compute(&topo, 0);
    let mut net = Network::build(
        &topo.to_fabric_spec(),
        ud.route_table(&topo, false),
        NetworkConfig::builder().build().expect("valid config"),
    );
    let mut mgr = ManagedHcProtocol::new(HostId(0), HostId(0));
    let t = mgr.script(GroupOp::Leave(GROUP));
    net.set_protocol(HostId(0), Box::new(mgr));
    let mut other = ManagedHcProtocol::new(HostId(1), HostId(0));
    let t2 = other.script(GroupOp::Leave(GROUP));
    net.set_protocol(HostId(1), Box::new(other));
    net.post_timer(HostId(0), 10, t);
    net.post_timer(HostId(1), 20, t2);
    let out = net.run_until(100_000);
    assert!(out.drained);
    net.audit().expect("conservation");
}

/// Two overlapping groups on a four-switch ring, three hosts per switch;
/// every host belongs to at least one, host 4 to both, and the manager
/// (host 0) to one.
const GROUP_A: u8 = 3;
const GROUP_B: u8 = 7;
const MEMBERS_A: [u32; 7] = [1, 2, 4, 5, 8, 10, 11];
const MEMBERS_B: [u32; 6] = [0, 3, 4, 6, 7, 9];

fn ring_of_four() -> Network {
    let mut b = TopoBuilder::new(4);
    for s in 0..4 {
        b.link(s, (s + 1) % 4, 1);
        for _ in 0..3 {
            b.host(s);
        }
    }
    let topo = b.build();
    let ud = UpDown::compute(&topo, 0);
    Network::build(
        &topo.to_fabric_spec(),
        ud.route_table(&topo, false),
        NetworkConfig::builder().build().expect("valid config"),
    )
}

/// The `k`-th multicast of host `h`: five per host from `start` on,
/// cycling through the groups it belongs to (a host learns only its own
/// groups' membership from the manager, so only members send).
fn schedule(groups: &Membership, h: u32, start: u64) -> Vec<(u64, u8)> {
    let mine: Vec<u8> = groups.group_ids().filter(|&g| groups.is_member(g, HostId(h))).collect();
    (0..5u64)
        .map(|k| (start + 10_000 * k + 97 * h as u64, mine[k as usize % mine.len()]))
        .collect()
}

/// Run the schedule of every host to completion; returns the deliveries
/// as `(msg, host, time)` triples.
fn deliveries(mut net: Network, groups: &Membership, start: u64) -> BTreeSet<(u64, u32, u64)> {
    for h in 0..12u32 {
        let items = schedule(groups, h, start)
            .into_iter()
            .map(|(at, g)| {
                let dest = Destination::Multicast(g);
                (at, SourceMessage { dest, payload_len: 300 })
            })
            .collect();
        wormcast::traffic::script::install_script(&mut net, HostId(h), items);
    }
    let out = net.run_until(5_000_000);
    assert!(out.drained, "run must drain");
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    net.msgs.deliveries.iter().map(|d| (d.msg.0, d.host.0, d.at)).collect()
}

#[test]
fn converged_manager_delivers_like_the_static_circuit() {
    let ids = |m: &[u32]| m.iter().map(|&h| HostId(h)).collect::<Vec<_>>();
    let groups = Membership::from_groups([(GROUP_A, ids(&MEMBERS_A)), (GROUP_B, ids(&MEMBERS_B))]);
    let start = 100_000;

    let mut net = ring_of_four();
    for h in 0..12u32 {
        let p = HcProtocol::new(HostId(h), HcConfig::store_and_forward(), groups.clone());
        net.set_protocol(HostId(h), Box::new(p));
    }
    let fixed = deliveries(net, &groups, start);

    // Every member joins through the manager long before the first send.
    let mut net = ring_of_four();
    let mut posts = Vec::new();
    for h in 0..12u32 {
        let mut p = ManagedHcProtocol::new(HostId(h), HostId(0));
        for g in groups.group_ids().filter(|&g| groups.is_member(g, HostId(h))) {
            posts.push((h, p.script(GroupOp::Join(g))));
        }
        net.set_protocol(HostId(h), Box::new(p));
    }
    for (i, &(h, token)) in posts.iter().enumerate() {
        net.post_timer(HostId(h), 100 + 300 * i as u64, token);
    }
    let managed = deliveries(net, &groups, start);

    let sends: Vec<(u32, u8)> = (0..12u32)
        .flat_map(|h| schedule(&groups, h, start).into_iter().map(move |(_, g)| (h, g)))
        .collect();
    assert_eq!(sends.len(), 60);
    assert!(sends.iter().any(|&(_, g)| g == GROUP_A) && sends.iter().any(|&(_, g)| g == GROUP_B));
    let expected: usize =
        sends.iter().map(|&(h, g)| groups.expected_deliveries(g, HostId(h))).sum();
    assert_eq!(fixed.len(), expected, "the static circuit reaches every other member once");
    // Converged views leave an idle fabric behind, so even the delivery
    // times agree, not just the (msg, host) sets.
    assert_eq!(managed, fixed, "same (msg, host, time) deliveries");
}
