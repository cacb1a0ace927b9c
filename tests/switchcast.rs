//! Switch-level multicast (Section 3) end to end: worm replication in the
//! crossbar under all three deadlock-handling variants, plus the broadcast
//! special case.

mod common;

use common::scripted_net;
use wormcast::core::switchcast::SwitchcastVariant;
use wormcast::sim::deadlock::graph_from_edges;
use wormcast::sim::engine::HostId;
use wormcast::sim::protocol::{Destination, SourceMessage};
use wormcast::sim::trace::{TraceConfig, TraceEvent};
use wormcast::sim::Network;
use wormcast::topo::{TopoBuilder, Topology};
use wormcast::traffic::script::{install_one_shot, install_script};
use wormcast_bench::runner::build_network;
use wormcast_bench::{fig10, perf, Scheme};

/// 5 switches: a root (0) with two subtrees (1-2 and 3-4) plus a crosslink
/// between 2 and 4; two hosts per switch.
fn topo() -> Topology {
    let mut b = TopoBuilder::new(5);
    b.link(0, 1, 1);
    b.link(1, 2, 1);
    b.link(0, 3, 1);
    b.link(3, 4, 1);
    b.link(2, 4, 1); // crosslink (unused under tree-restricted routing)
    for s in 0..5 {
        b.host(s);
        b.host(s);
    }
    b.build()
}

fn setup(variant: SwitchcastVariant, members: Vec<HostId>) -> Network {
    scripted_net(topo(), members, Scheme::Switch(variant), TraceConfig::Off)
}

fn delivered_hosts(net: &Network) -> Vec<u32> {
    let mut v: Vec<u32> = net.msgs.deliveries.iter().map(|d| d.host.0).collect();
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn v1_restricted_idle_replicates_in_the_fabric() {
    let members: Vec<HostId> = vec![1, 4, 7, 9].into_iter().map(HostId).collect();
    let mut net = setup(SwitchcastVariant::RestrictedIdle, members.clone());
    install_one_shot(&mut net, HostId(4), 100, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 600,
    });
    let out = net.run_until(1_000_000);
    assert!(out.drained, "replication must drain");
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    assert_eq!(delivered_hosts(&net), vec![1, 7, 9], "members minus origin");
    // Exactly ONE worm was injected — the fabric did the copying.
    assert_eq!(net.stats.worms_injected, 1);
    assert_eq!(net.stats.sinks_injected, 3);
}

#[test]
fn v2_rooted_interrupt_serializes_and_delivers() {
    let members: Vec<HostId> = vec![0, 3, 5, 8].into_iter().map(HostId).collect();
    let mut net = setup(SwitchcastVariant::RootedInterrupt, members.clone());
    // Two concurrent multicasts from different origins.
    install_one_shot(&mut net, HostId(3), 100, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 700,
    });
    install_one_shot(&mut net, HostId(8), 130, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 700,
    });
    let out = net.run_until(1_000_000);
    assert!(out.drained);
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    // Each origin's worm covers ALL members (its own copy is filtered at
    // delivery), so every member hears the other's message and the
    // non-origin members hear both.
    let n = net.msgs.deliveries.len();
    assert_eq!(n, 3 + 3, "3 deliveries per message");
    assert_eq!(net.stats.worms_injected, 2);
    assert_eq!(net.stats.sinks_injected, 2 * members.len() as u64);
}

#[test]
fn v2_fragments_under_contention_and_reassembles() {
    // Saturate one subtree so a replica blocks: hosts 1..=9 all receive a
    // long multicast while unicast cross-traffic fights for the same links.
    let members: Vec<HostId> = (0..10).map(HostId).collect();
    let mut net = setup(SwitchcastVariant::RootedInterrupt, members.clone());
    install_one_shot(&mut net, HostId(2), 100, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 3_000,
    });
    // Unicast stream hammering the 0->3 subtree during the multicast.
    let items = (0..6u64)
        .map(|i| {
            (
                50 + i * 900,
                SourceMessage {
                    dest: Destination::Unicast(HostId(9)),
                    payload_len: 800,
                },
            )
        })
        .collect();
    install_script(&mut net, HostId(1), items);
    let out = net.run_until(2_000_000);
    assert!(out.drained, "contended V2 run must still drain");
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    // 9 multicast deliveries (everyone but origin) + 6 unicasts.
    assert_eq!(net.msgs.deliveries.len(), 9 + 6);
}

/// V3 with two unicasts that wait on ports a long multicast holds with
/// IDLE fill, so both are flushed and retransmitted.
fn v3_flush_scenario(trace: TraceConfig) -> Network {
    let members: Vec<HostId> = vec![1, 4, 7, 9].into_iter().map(HostId).collect();
    let mut net = scripted_net(topo(), members, Scheme::Switch(SwitchcastVariant::IdleFlush), trace);
    // A long unicast on switch 4 holds the port to host 9...
    install_one_shot(&mut net, HostId(8), 0, SourceMessage {
        dest: Destination::Unicast(HostId(9)),
        payload_len: 3_000,
    });
    // ...so a long multicast's branch to host 9 blocks, its replicas on
    // switches 4, 3 and 0 fill up, and the branches to hosts 7 and 1 hold
    // their ports with IDLE fill...
    install_one_shot(&mut net, HostId(4), 100, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 6_000,
    });
    // ...while a unicast waits on each of those two ports.
    for (src, dest) in [(6u32, 7u32), (0, 1)] {
        install_one_shot(&mut net, HostId(src), 400, SourceMessage {
            dest: Destination::Unicast(HostId(dest)),
            payload_len: 500,
        });
    }
    net
}

#[test]
fn v3_flushes_blocked_unicasts_and_they_retransmit() {
    let mut net = v3_flush_scenario(TraceConfig::Off);
    let out = net.run_until(3_000_000);
    assert!(out.drained, "flush scheme must drain");
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    // Everything is eventually delivered: the multicast to 3 members and
    // all 3 unicasts (the flushed ones come back by retransmission).
    assert_eq!(net.msgs.deliveries.len(), 3 + 3);
    assert!(net.stats.worms_flushed >= 2, "both waiting unicasts are flushed");
}

/// A flushed worm stays in the worm window while its bytes may still be on
/// a wire, and leaves it after. Stepped a byte-time at a time up to its
/// second flush, the window still holds each flushed worm at the step of
/// its flush; once the run drains, the window is empty.
#[test]
fn a_v3_run_that_flushes_ends_with_an_empty_window() {
    let mut net = v3_flush_scenario(TraceConfig::Memory);
    let (mut t, mut seen, mut flushed) = (0, 0, Vec::new());
    while flushed.len() < 2 {
        assert!(t < 100_000, "the scenario flushes both waiting unicasts");
        t += 1;
        net.advance_to(t);
        for (_, ev) in &net.trace.events()[seen..] {
            if let TraceEvent::WormFlushed { worm, .. } = ev {
                assert!(net.worm_by_name(*worm).is_some(), "t={t}: flushed worm left at once");
                flushed.push(*worm);
            }
        }
        seen = net.trace.events().len();
        net.audit().unwrap_or_else(|e| panic!("t={t}: {e}"));
    }
    let out = net.run_until(3_000_000);
    assert!(out.drained);
    net.audit().expect("an empty window at quiescence");
    assert!(flushed.iter().all(|&w| net.worm_by_name(w).is_none()));
    assert_eq!((net.worm_window(), net.live_worms().count()), (0, 0));
}

#[test]
fn broadcast_address_floods_every_host_once() {
    let members: Vec<HostId> = (0..10).map(HostId).collect();
    let mut net = setup(SwitchcastVariant::Broadcast, members);
    install_one_shot(&mut net, HostId(7), 100, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 500,
    });
    let out = net.run_until(1_000_000);
    assert!(out.drained);
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    // Every host except the origin delivers exactly once.
    let mut hosts: Vec<u32> = net.msgs.deliveries.iter().map(|d| d.host.0).collect();
    hosts.sort_unstable();
    assert_eq!(hosts, vec![0, 1, 2, 3, 4, 5, 6, 8, 9]);
    assert_eq!(net.stats.sinks_injected, 10, "origin's echo counts as a sink");
}

/// V1 on the paper's own 8×8 torus wedges from load 0.02, and the run's
/// one deadlock verdict — the wait-for analysis where `run_until` ends —
/// reports the cycle. Run on, the wedge stays put: every wait on that
/// cycle still holds, while the lanes keep carrying IDLE fill. A count of
/// moving bytes therefore never sees this deadlock; only the wait-for
/// graph does.
#[test]
fn v1_wedge_on_the_fig10_torus_is_the_runs_deadlock_verdict() {
    let v1 = Scheme::Switch(SwitchcastVariant::RestrictedIdle);
    let setup = fig10::builder(v1, 0.02, &perf::CFG).build().expect("valid setup");
    let mut net = build_network(&setup);
    let idles = |net: &Network| -> u64 {
        net.lanes().iter().map(|l| l.stats().idles_carried).sum()
    };
    let first = net.run_until(setup.drain_until);
    let wedge = first.deadlock.expect("V1 at load 0.02 wedges");
    assert!(!wedge.cycle.is_empty(), "a deadline verdict names its cycle: {wedge}");
    let idles_at_verdict = idles(&net);
    let later = net.run_until(setup.drain_until + 30_000);
    let again = later.deadlock.expect("the wedge persists");
    // Check the waits, not the cycle the report names: with several
    // cycles in the wedge the analysis may name another one first.
    let graph = graph_from_edges(&again.edges);
    let n = wedge.cycle.len();
    for (i, from) in wedge.cycle.iter().enumerate() {
        let to = wedge.cycle[(i + 1) % n];
        assert!(
            graph.get(from).is_some_and(|succ| succ.contains(&to)),
            "{from} -> {to} no longer waits: {again}"
        );
    }
    assert!(
        idles(&net) > idles_at_verdict,
        "the wedged lanes keep carrying IDLE fill"
    );
}

#[test]
fn broadcast_with_filtering_only_delivers_to_members() {
    let members: Vec<HostId> = vec![2, 5, 8].into_iter().map(HostId).collect();
    let mut net = setup(SwitchcastVariant::Broadcast, members);
    install_one_shot(&mut net, HostId(2), 100, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 500,
    });
    let out = net.run_until(1_000_000);
    assert!(out.drained);
    net.audit().expect("conservation");
    assert_eq!(delivered_hosts(&net), vec![5, 8], "non-members filter");
}
