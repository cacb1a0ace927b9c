//! Worm-lifecycle tracing end to end: every transition the trace subsystem
//! promises (DESIGN.md §3.2) must actually appear, in order, when the
//! corresponding fabric behavior is provoked — including the V2 fragment
//! park/resume pair and the V3 Backward-Reset flush, which only show up
//! under real crossbar contention.

mod common;

use common::scripted_net;
use wormcast::core::switchcast::SwitchcastVariant;
use wormcast::core::HcConfig;
use wormcast::sim::engine::HostId;
use wormcast::sim::protocol::{Destination, SourceMessage};
use wormcast::sim::trace::{BlockCause, TraceConfig, TraceEvent};
use wormcast::sim::Network;
use wormcast::topo::{TopoBuilder, Topology};
use wormcast::traffic::script::{install_one_shot, install_script};
use wormcast_bench::Scheme;

/// 5 switches: a root (0) with two subtrees (1-2 and 3-4) plus a crosslink
/// between 2 and 4; two hosts per switch (same fabric as tests/switchcast.rs).
fn topo() -> Topology {
    let mut b = TopoBuilder::new(5);
    b.link(0, 1, 1);
    b.link(1, 2, 1);
    b.link(0, 3, 1);
    b.link(3, 4, 1);
    b.link(2, 4, 1);
    for s in 0..5 {
        b.host(s);
        b.host(s);
    }
    b.build()
}

fn switchcast_net(variant: SwitchcastVariant, members: Vec<HostId>, trace: TraceConfig) -> Network {
    scripted_net(topo(), members, Scheme::Switch(variant), trace)
}

/// Plain HC unicast network over the same fabric, with tracing.
fn hc_net(trace: TraceConfig) -> Network {
    let scheme = Scheme::Hc(HcConfig::store_and_forward());
    scripted_net(topo(), vec![HostId(0)], scheme, trace)
}

fn count(net: &Network, pred: impl Fn(&TraceEvent) -> bool) -> usize {
    net.trace.events().iter().filter(|(_, e)| pred(e)).count()
}

#[test]
fn unicast_lifecycle_is_fully_traced_in_order() {
    let mut net = hc_net(TraceConfig::Memory);
    install_one_shot(&mut net, HostId(2), 100, SourceMessage {
        dest: Destination::Unicast(HostId(9)),
        payload_len: 400,
    });
    let out = net.run_until(100_000);
    assert!(out.drained && out.deadlock.is_none());

    // host 2 (switch 1) -> host 9 (switch 4) crosses several switches:
    // one injection, one route byte consumed per switch hop, reception and
    // delivery at host 9 — in that causal order.
    let mut injected_at = None;
    let mut received_at = None;
    let mut delivered_at = None;
    let mut route_consumed = 0usize;
    for (t, ev) in net.trace.events() {
        match ev {
            TraceEvent::WormInjected { host, .. } => {
                assert_eq!(host.0, 2);
                injected_at = Some(*t);
            }
            TraceEvent::RouteConsumed { .. } => route_consumed += 1,
            TraceEvent::WormReceived { host, .. } => {
                assert_eq!(host.0, 9);
                received_at = Some(*t);
            }
            TraceEvent::Delivered { host, .. } => {
                assert_eq!(host.0, 9);
                delivered_at = Some(*t);
            }
            _ => {}
        }
    }
    let (i, r, d) = (
        injected_at.expect("injection traced"),
        received_at.expect("reception traced"),
        delivered_at.expect("delivery traced"),
    );
    assert!(i < r && r <= d, "lifecycle out of order: {i} {r} {d}");
    assert!(route_consumed >= 2, "multi-hop route must consume bytes at switches");

    // An uncontended run has no blocking to report.
    assert_eq!(count(&net, |e| matches!(e, TraceEvent::WormBlocked { .. })), 0);
    assert_eq!(count(&net, |e| matches!(e, TraceEvent::StopInForce { .. })), 0);
}

#[test]
fn contention_traces_blocked_resumed_and_stop_go_pairs() {
    // Hosts 0 and 2 both stream long worms at host 9; they meet at switch
    // 0's output toward the 3-4 subtree, so one queues (OutputBusy) and
    // STOP backpressure propagates while the winner transmits.
    let mut net = hc_net(TraceConfig::Memory);
    for (src, at) in [(0u32, 100u64), (2, 110)] {
        let items = (0..3u64)
            .map(|i| {
                (
                    at + i * 500,
                    SourceMessage {
                        dest: Destination::Unicast(HostId(9)),
                        payload_len: 900,
                    },
                )
            })
            .collect();
        install_script(&mut net, HostId(src), items);
    }
    let out = net.run_until(200_000);
    assert!(out.drained && out.deadlock.is_none());
    net.audit().expect("conservation");

    let blocked_busy = count(
        &net,
        |e| matches!(e, TraceEvent::WormBlocked { cause: BlockCause::OutputBusy { .. }, .. }),
    );
    let resumed_busy = count(
        &net,
        |e| matches!(e, TraceEvent::WormResumed { cause: BlockCause::OutputBusy { .. }, .. }),
    );
    assert!(blocked_busy > 0, "contention must trace OutputBusy blocks");
    assert_eq!(
        blocked_busy, resumed_busy,
        "every blocked worm resumed (the run drained)"
    );

    let stops = count(&net, |e| matches!(e, TraceEvent::StopInForce { .. }));
    let gos = count(&net, |e| matches!(e, TraceEvent::GoReceived { .. }));
    assert!(stops > 0, "long worms through one output must raise STOP");
    assert_eq!(stops, gos, "every STOP lifted by a GO (the run drained)");

    // Blocked-time histograms pair up cleanly from this trace.
    let bt = wormcast::stats::blocked_times(&net.trace);
    assert!(bt.output_busy.count() > 0);
    assert_eq!(bt.unresolved, 0, "drained run leaves no open intervals");
}

#[test]
fn v2_fragmentation_traces_park_and_resume() {
    // The V2 contention scenario of tests/switchcast.rs: a long multicast
    // to everyone while unicast cross-traffic fights for the same links —
    // replica branches get interrupted, so receivers park fragments and
    // resume them when the branch is re-driven.
    let members: Vec<HostId> = (0..10).map(HostId).collect();
    let mut net = switchcast_net(
        SwitchcastVariant::RootedInterrupt,
        members,
        TraceConfig::Memory,
    );
    install_one_shot(&mut net, HostId(2), 100, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 3_000,
    });
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
    assert!(out.drained && out.deadlock.is_none());
    net.audit().expect("conservation");
    assert_eq!(net.msgs.deliveries.len(), 9 + 6);

    let parked = count(&net, |e| matches!(e, TraceEvent::FragmentParked { .. }));
    let resumed = count(&net, |e| matches!(e, TraceEvent::FragmentResumed { .. }));
    assert!(parked > 0, "contended V2 must fragment");
    assert!(resumed > 0, "parked fragments must resume");
    assert!(resumed >= parked, "every park eventually resumes (run drained)");

    // Park/resume pairs carry monotonically growing reassembly progress
    // per (worm, host).
    use std::collections::HashMap;
    let mut progress: HashMap<(u64, u32), u64> = HashMap::new();
    for (_, ev) in net.trace.events() {
        if let TraceEvent::FragmentParked { worm, host, body_got }
        | TraceEvent::FragmentResumed { worm, host, body_got } = ev
        {
            let p = progress.entry((*worm, host.0)).or_insert(0);
            assert!(
                *body_got >= *p,
                "reassembly progress went backwards for worm {worm:?} at host {host:?}"
            );
            *p = *body_got;
        }
    }
    assert!(!progress.is_empty());
}

#[test]
fn v3_flush_traces_worm_flushed_and_retransmission() {
    // Provoke an actual Backward-Reset flush: the multicast's branch
    // toward host 9 stalls behind a pre-existing long unicast holding
    // switch 4's host-9 output, so the replica IDLE-fills its released
    // branches (including switch 0 -> host 1). A unicast then requests
    // that IDLE-filling output; when the port is flagged multicast-IDLE
    // (512 idle byte-times), V3 flushes the waiter back to its source,
    // which retransmits after a timeout.
    let members: Vec<HostId> = vec![1, 4, 7, 9].into_iter().map(HostId).collect();
    let mut net = switchcast_net(SwitchcastVariant::IdleFlush, members, TraceConfig::Memory);
    // Hold switch 4's output to host 9 before the multicast arrives.
    install_one_shot(&mut net, HostId(8), 100, SourceMessage {
        dest: Destination::Unicast(HostId(9)),
        payload_len: 3_000,
    });
    install_one_shot(&mut net, HostId(4), 200, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 6_000,
    });
    // Requests switch 0's host-1 output while the multicast IDLE-fills it
    // (host 0 sits on switch 0 itself, so no other multicast-held link is
    // in the way).
    install_one_shot(&mut net, HostId(0), 300, SourceMessage {
        dest: Destination::Unicast(HostId(1)),
        payload_len: 1_000,
    });
    let out = net.run_until(3_000_000);
    assert!(out.drained && out.deadlock.is_none());
    net.audit().expect("conservation");
    // Everything still arrives: the multicast to 3 members plus both
    // unicasts (the flushed one by retransmission).
    assert_eq!(net.msgs.deliveries.len(), 3 + 2);

    let flushed = count(&net, |e| matches!(e, TraceEvent::WormFlushed { .. }));
    assert!(flushed > 0, "V3 must flush the blocked unicast");
    // Each flushed worm is re-injected as a fresh worm, so injections
    // exceed the three application messages.
    let injected = count(&net, |e| matches!(e, TraceEvent::WormInjected { .. }));
    assert!(
        injected > 3,
        "flushed unicast must retransmit: {injected} injections for 3 messages"
    );
    // Flush events name the injecting host so forensics can attribute them.
    for (_, ev) in net.trace.events() {
        if let TraceEvent::WormFlushed { host, .. } = ev {
            assert_eq!(host.0, 0, "only the contending unicast sender flushes");
        }
    }
}

#[test]
fn ring_sink_keeps_newest_events_and_counts_drops() {
    let run = |trace: TraceConfig| {
        let mut net = hc_net(trace);
        for (src, at) in [(0u32, 100u64), (2, 110)] {
            install_one_shot(&mut net, HostId(src), at, SourceMessage {
                dest: Destination::Unicast(HostId(9)),
                payload_len: 1_200,
            });
        }
        let out = net.run_until(100_000);
        assert!(out.drained);
        net
    };
    let full = run(TraceConfig::Memory);
    let total = full.trace.len();
    assert!(total > 8, "need enough events to overflow the ring");

    let ring = run(TraceConfig::Ring { capacity: 8 });
    assert_eq!(ring.trace.len(), 8, "ring holds exactly its capacity");
    assert_eq!(
        ring.trace.dropped() as usize,
        total - 8,
        "every evicted event is counted"
    );
    // The ring keeps the newest suffix: identical to the tail of the full
    // trace, so post-mortem analysis sees the events closest to the end.
    let tail: Vec<_> = full.trace.events()[total - 8..].to_vec();
    assert_eq!(ring.trace.events(), &tail[..]);

    let off = run(TraceConfig::Off);
    assert!(off.trace.is_empty(), "disabled sink records nothing");
    assert_eq!(off.trace.dropped(), 0);
}
