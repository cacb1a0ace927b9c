//! Fabric-level switch-multicast tests with hand-built routes, checking
//! the replication machinery at the byte level (the protocol-level view is
//! covered by `switchcast.rs`).

mod common;

use common::{assert_drains_alike, Echoless};
use wormcast::sim::adapter::RxState;
use wormcast::sim::deadlock::{wait_edges, WaitCause, WaitEdge, WaitNode};
use wormcast::sim::engine::{HostId, SwitchId};
use wormcast::sim::link::PortId;
use wormcast::sim::network::{FabricSpec, HostAttach, LinkSpec, RouteTable, SimMode};
use wormcast::sim::protocol::{
    AdapterProtocol, AppMessage, Destination, ProtocolCtx, SendSpec, SourceMessage,
};
use wormcast::sim::switch::{InState, SlackCfg};
use wormcast::sim::switchcast::{encode, Directive, Subroute, SwitchcastMode};
use wormcast::sim::trace::{TraceConfig, TraceEvent};
use wormcast::sim::worm::{ByteKind, RouteSym, WormInstance, WormKind, HEADER_LEN};
use wormcast::sim::{Network, NetworkConfig};
use wormcast::traffic::script::{install_one_shot, install_script};

/// Injects a pre-encoded switch-multicast worm for each multicast message
/// and a plain unicast for each unicast one; delivers on receive.
struct Injector {
    route: Vec<RouteSym>,
    sinks: u32,
}

impl AdapterProtocol for Injector {
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, msg: AppMessage) {
        if let Destination::Unicast(d) = msg.dest {
            return ctx.send(SendSpec::data(&msg, d, WormKind::Unicast));
        }
        let mut spec = SendSpec::data(&msg, HostId(1), WormKind::SwitchMulticast { group: 0 });
        spec.route_override = Some(self.route.clone());
        spec.sinks = self.sinks;
        ctx.send(spec);
    }
    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        ctx.deliver_local(worm.meta.msg);
    }
}

/// One switch, three hosts on ports 0, 1, 2.
fn one_switch() -> (FabricSpec, RouteTable) {
    let spec = FabricSpec {
        switch_ports: vec![3],
        hosts: vec![
            HostAttach { switch: 0, port: 0 },
            HostAttach { switch: 0, port: 1 },
            HostAttach { switch: 0, port: 2 },
        ],
        links: vec![],
        host_link_delay: 1,
    };
    let mut rt = RouteTable::new(3);
    for s in 0..3u32 {
        for d in 0..3u32 {
            if s != d {
                rt.set(HostId(s), HostId(d), vec![d as u8]);
            }
        }
    }
    (spec, rt)
}

#[test]
fn single_switch_replicates_to_both_host_ports() {
    let (spec, rt) = one_switch();
    let mut net = Network::build(
        &spec,
        rt,
        NetworkConfig::builder()
            .switchcast(SwitchcastMode::RestrictedIdle)
            .build()
            .expect("valid config"),
    );
    let directive = Directive {
        branches: vec![(1, Subroute::Host), (2, Subroute::Host)],
    };
    net.set_protocol(
        HostId(0),
        Box::new(Injector {
            route: encode(&directive).unwrap(),
            sinks: 2,
        }),
    );
    net.set_protocol(HostId(1), Box::new(Echoless));
    net.set_protocol(HostId(2), Box::new(Echoless));
    install_one_shot(&mut net, HostId(0), 10, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 500,
    });
    let out = net.run_until(100_000);
    assert!(out.drained);
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    assert_eq!(net.stats.worms_injected, 1, "fabric does the copying");
    assert_eq!(net.stats.sinks_injected, 2);
    let mut hosts: Vec<u32> = net.msgs.deliveries.iter().map(|d| d.host.0).collect();
    hosts.sort_unstable();
    assert_eq!(hosts, vec![1, 2]);
    // Both copies arrived complete at the same byte count.
    assert_eq!(
        net.adapters[1].counters.bytes_received,
        net.adapters[2].counters.bytes_received
    );
}

/// Two switches: directive at switch 0 stamps a subtree route for switch 1.
#[test]
fn nested_directive_stamps_subtree_prefix() {
    let spec = FabricSpec {
        switch_ports: vec![3, 3],
        hosts: vec![
            HostAttach { switch: 0, port: 0 }, // host 0
            HostAttach { switch: 0, port: 1 }, // host 1
            HostAttach { switch: 1, port: 1 }, // host 2
            HostAttach { switch: 1, port: 2 }, // host 3
        ],
        // Switch 0 port 2 <-> switch 1 port 0.
        links: vec![LinkSpec {
            a: (0, PortId(2)),
            b: (1, PortId(0)),
            delay: 1,
        }],
        host_link_delay: 1,
    };
    let mut rt = RouteTable::new(4);
    rt.set(HostId(0), HostId(1), vec![1]);
    rt.set(HostId(0), HostId(2), vec![2, 1]);
    rt.set(HostId(0), HostId(3), vec![2, 2]);
    rt.set(HostId(1), HostId(0), vec![0]);
    rt.set(HostId(2), HostId(0), vec![0, 0]);
    rt.set(HostId(3), HostId(0), vec![0, 0]);
    rt.set(HostId(1), HostId(2), vec![2, 1]);
    rt.set(HostId(1), HostId(3), vec![2, 2]);
    rt.set(HostId(2), HostId(3), vec![2]);
    rt.set(HostId(3), HostId(2), vec![1]);
    rt.set(HostId(2), HostId(1), vec![0, 1]);
    rt.set(HostId(3), HostId(1), vec![0, 1]);
    let mut net = Network::build(
        &spec,
        rt,
        NetworkConfig::builder()
            .switchcast(SwitchcastMode::RestrictedIdle)
            .build()
            .expect("valid config"),
    );
    // From host 0: replicate at switch 0 to host 1 and to switch 1, where a
    // nested directive replicates to hosts 2 and 3.
    let directive = Directive {
        branches: vec![
            (1, Subroute::Host),
            (
                2,
                Subroute::Next(Directive {
                    branches: vec![(1, Subroute::Host), (2, Subroute::Host)],
                }),
            ),
        ],
    };
    net.set_protocol(
        HostId(0),
        Box::new(Injector {
            route: encode(&directive).unwrap(),
            sinks: 3,
        }),
    );
    for h in 1..4u32 {
        net.set_protocol(HostId(h), Box::new(Echoless));
    }
    install_one_shot(&mut net, HostId(0), 10, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 1_000,
    });
    let out = net.run_until(200_000);
    assert!(out.drained);
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    assert_eq!(net.stats.worms_injected, 1);
    assert_eq!(net.stats.sinks_injected, 3);
    let mut hosts: Vec<u32> = net.msgs.deliveries.iter().map(|d| d.host.0).collect();
    hosts.sort_unstable();
    assert_eq!(hosts, vec![1, 2, 3], "nested replication covers the tree");
}

/// V2 (RootedInterrupt): a replica branch that has sent every body byte
/// but not yet received the tail ends its fragment there, and its
/// receiver takes that fragment for the whole worm (the body is
/// complete). When the tail arrives the branch is done: it must not
/// resume with a fragment of the tail alone, which the receiver would
/// take for a new worm that the next one then interleaves with.
///
/// One switch, four hosts. Host 3 holds the output to host 2 with a long
/// unicast; host 0's 10-byte multicast to hosts 1 and 2 then fills its
/// input (the branch to host 2 is blocked, so nothing is released) until
/// the STOP holds its tail back at host 0, while the branch to host 1 has
/// sent the whole body. Host 1 then receives each byte of its two worms
/// once, and a later unicast from host 3 finds its receiver idle.
#[test]
fn v2_fragment_cut_after_the_whole_body_ends_the_worm() {
    let mut net = contended_multicast(SwitchcastMode::RootedInterrupt);
    let out = net.run_until(100_000);
    assert!(out.drained);
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    let mut hosts: Vec<u32> = net.msgs.deliveries.iter().map(|d| d.host.0).collect();
    hosts.sort_unstable();
    assert_eq!(hosts, vec![1, 1, 2, 2], "both copies and both unicasts");
    // Host 1 receives the multicast's 2-byte payload and host 3's 100-byte
    // unicast (`contended_multicast`): header, payload and tail of each.
    let to_host_1: u64 = [2, 100].iter().map(|p| HEADER_LEN as u64 + p + 1).sum();
    assert_eq!(
        net.adapters[1].counters.bytes_received, to_host_1,
        "host 1 received a tail twice"
    );
    for a in &net.adapters {
        assert_eq!(a.rx, RxState::Idle, "host {:?} still receiving", a.id);
    }
}

/// A replica branch queued for a port that another worm holds waits on
/// that worm, as a queued head does: the wait-for graph has the
/// `OutputHeldBy` edge from the replicating input to the port's owner.
/// Under V1 host 0's branch to host 2 waits for host 3's long unicast.
#[test]
fn a_branch_waiting_for_its_port_waits_on_the_ports_owner() {
    let mut net = contended_multicast(SwitchcastMode::RestrictedIdle);
    net.run_until(1_000);
    let first_of = |host: u32| {
        let w = net.live_worms().find(|w| w.meta.injector == HostId(host));
        w.expect("injected").id
    };
    let edges = wait_edges(&net);
    let waits = |e: &&WaitEdge| {
        e.cause
            == WaitCause::OutputHeldBy {
                switch: SwitchId(0),
                out: 2,
            }
    };
    let edge = edges
        .iter()
        .find(waits)
        .unwrap_or_else(|| panic!("no branch edge among {edges:?}"));
    assert_eq!(
        (edge.from, edge.to),
        (
            WaitNode::SwitchIn(SwitchId(0), 0),
            WaitNode::SwitchIn(SwitchId(0), 3)
        )
    );
    assert_eq!(
        (edge.worm, edge.holds),
        (Some(first_of(0)), Some(first_of(3)))
    );
    let out = net.run_until(100_000);
    assert!(out.drained && out.deadlock.is_none());
}

/// A replica whose tail is in its slack buffer sends each branch through
/// to that tail whatever the other branches do. A head queued for a port
/// such a branch holds therefore waits on that branch alone, not on the
/// replicating input, whose other edges belong to the other branches.
/// Under V1 host 0's multicast fits in input 0's enlarged slack buffer;
/// its branch to host 2 waits for host 3's long unicast, then sends the
/// buffered worm while host 1's unicast to host 2 queues behind it. A host
/// port never STOPs, so that head waits on nothing.
#[test]
fn a_head_behind_a_buffered_replica_branch_waits_on_no_sibling() {
    let mut net = contended_multicast(SwitchcastMode::RestrictedIdle);
    net.switches[0].inputs[0].slack = SlackCfg {
        capacity: 64,
        stop_mark: 48,
        go_mark: 4,
    };
    install_one_shot(&mut net, HostId(1), 100, SourceMessage {
        dest: Destination::Unicast(HostId(2)),
        payload_len: 100,
    });
    let mut t = 1_000;
    while net.switches[0].outputs[2].owner != Some(0) {
        t += 1;
        assert!(t < 10_000, "the branch to host 2 was never granted");
        net.run_until(t);
    }
    let sw = &net.switches[0];
    let buf = &sw.inputs[0].buf;
    let buffered = buf.runs().any(|(b, _)| b.kind == ByteKind::Tail);
    assert!(buffered, "the multicast's tail is not in the slack buffer");
    assert!(matches!(
        sw.inputs[1].state,
        InState::Requesting { out: 2, .. }
    ));
    let edges = wait_edges(&net);
    let queued = WaitNode::SwitchIn(SwitchId(0), 1);
    assert!(
        edges.iter().all(|e| e.from != queued),
        "the queued head waits: {edges:?}"
    );
    let out = net.run_until(100_000);
    assert!(out.drained && out.deadlock.is_none());
    assert_eq!(net.msgs.deliveries.len(), 5, "two copies, three unicasts");
}

/// Switch-level multicast on two-lane trunks. A replica branch requests its
/// physical port and holds the output slot it is granted, so on switch 1,
/// whose trunk takes slots 0–1, every host port's slot differs from its
/// port number. V1, V2, V3 and broadcast each pass the per-byte ≡
/// span-batched harness, scripted worms drained with no deadlock verdict.
/// Each variant has both lanes of the trunk out of switch 0 carry a worm at
/// once.
#[test]
fn switch_level_multicast_runs_on_two_lane_trunks() {
    let cases = [
        ("v1", SwitchcastMode::RestrictedIdle, false),
        ("v2", SwitchcastMode::RootedInterrupt, false),
        ("v3", SwitchcastMode::IdleFlush, false),
        ("broadcast", SwitchcastMode::RootedInterrupt, true),
    ];
    for (label, mode, broadcast) in cases {
        let mk = |sim, trace| two_lane_pair(mode, broadcast, sim, trace);
        // The modes agree on every lane's byte count and on `NetStats`.
        let net = assert_drains_alike(mk, 200_000, label).spans;
        assert_eq!(net.stats.worms_delivered, net.stats.sinks_injected, "{label}");
        let trunk = net.link_lanes(net.lanes()[0].link());
        let both_lanes = trunk.iter().all(|l| l.stats().bytes_carried > 0);
        assert!(both_lanes, "{label}: a trunk lane carried nothing");
    }
}

/// Two switches joined by a two-lane trunk (switch 0 port 3 — switch 1
/// port 0), hosts 0–2 on switch 0 ports 0–2 and hosts 3–5 on switch 1
/// ports 1–3. Host 0 multicasts to every other host at 10 and again at
/// 4 000, host 5 at 2 500 — by directive, or by the broadcast address with
/// switch 0 as the root. Unicasts cross the trunk both ways, and host 4
/// holds the port to host 5 from time 0.
fn two_lane_pair(
    mode: SwitchcastMode,
    broadcast: bool,
    sim: SimMode,
    trace: TraceConfig,
) -> Network {
    let port_of = |h: u32| if h < 3 { h as u8 } else { h as u8 - 2 };
    let spec = FabricSpec {
        switch_ports: vec![4, 4],
        hosts: (0..6u32)
            .map(|h| HostAttach {
                switch: h / 3,
                port: port_of(h),
            })
            .collect(),
        links: vec![LinkSpec {
            a: (0, PortId(3)),
            b: (1, PortId(0)),
            delay: 2,
        }],
        host_link_delay: 1,
    };
    let mut rt = RouteTable::new(6);
    for s in 0..6u32 {
        for d in (0..6u32).filter(|&d| d != s) {
            let route = match (s / 3, d / 3) {
                (0, 1) => vec![3, port_of(d)],
                (1, 0) => vec![0, port_of(d)],
                _ => vec![port_of(d)],
            };
            rt.set(HostId(s), HostId(d), route);
        }
    }
    let cfg = NetworkConfig::builder()
        .switchcast(mode)
        .mode(sim)
        .trace(trace)
        .lanes(2)
        .build()
        .expect("valid config");
    let mut net = Network::build(&spec, rt, cfg);
    net.set_broadcast_ports(vec![vec![0, 1, 2, 3], vec![1, 2, 3]]);
    let hosts = |ports: &[u8]| ports.iter().map(|&p| (p, Subroute::Host)).collect();
    let directive = |near: &[u8], trunk: u8, far: &[u8]| {
        let far = Directive { branches: hosts(far) };
        let mut d = Directive { branches: hosts(near) };
        d.branches.push((trunk, Subroute::Next(far)));
        encode(&d).unwrap()
    };
    let (from_0, from_5, sinks) = if broadcast {
        (vec![RouteSym::Broadcast], vec![RouteSym::Port(0), RouteSym::Broadcast], 6)
    } else {
        (directive(&[1, 2], 3, &[1, 2, 3]), directive(&[1, 2], 0, &[0, 1, 2]), 5)
    };
    for h in 0..6u32 {
        let route = match h {
            0 => from_0.clone(),
            5 => from_5.clone(),
            _ => Vec::new(),
        };
        net.set_protocol(HostId(h), Box::new(Injector { route, sinks }));
    }
    let multicast = |payload_len: u32| SourceMessage {
        dest: Destination::Multicast(0),
        payload_len,
    };
    let unicast = |to: u32, payload_len: u32| SourceMessage {
        dest: Destination::Unicast(HostId(to)),
        payload_len,
    };
    let scripts = [
        (0, vec![(10, multicast(1_500)), (4_000, multicast(800))]),
        (1, vec![(0, unicast(4, 2_000))]),
        (2, vec![(20, unicast(3, 600))]),
        (3, vec![(5, unicast(1, 1_500))]),
        (4, vec![(0, unicast(5, 3_000))]),
        (5, vec![(2_500, multicast(1_200))]),
    ];
    for (h, script) in scripts {
        install_script(&mut net, HostId(h), script);
    }
    net
}

/// One switch, four hosts, `mode` on. Host 3 holds the output to host 2
/// with a 2 000-byte unicast from time 0 and sends host 1 a short one at
/// 3 000; host 0 sends a 2-byte multicast to hosts 1 and 2 at 50.
fn contended_multicast(mode: SwitchcastMode) -> Network {
    let spec = FabricSpec {
        switch_ports: vec![4],
        hosts: (0..4u8)
            .map(|p| HostAttach { switch: 0, port: p })
            .collect(),
        links: vec![],
        host_link_delay: 1,
    };
    let mut rt = RouteTable::new(4);
    for s in 0..4u32 {
        for d in 0..4u32 {
            if s != d {
                rt.set(HostId(s), HostId(d), vec![d as u8]);
            }
        }
    }
    let mut net = Network::build(
        &spec,
        rt,
        NetworkConfig::builder()
            .switchcast(mode)
            .build()
            .expect("valid config"),
    );
    let directive = Directive {
        branches: vec![(1, Subroute::Host), (2, Subroute::Host)],
    };
    net.set_protocol(
        HostId(0),
        Box::new(Injector {
            route: encode(&directive).unwrap(),
            sinks: 2,
        }),
    );
    for h in 1..4u32 {
        net.set_protocol(HostId(h), Box::new(Echoless));
    }
    install_one_shot(&mut net, HostId(0), 50, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 2,
    });
    let unicast = |to: u32, payload_len: u32| SourceMessage {
        dest: Destination::Unicast(HostId(to)),
        payload_len,
    };
    install_script(&mut net, HostId(3), vec![(0, unicast(2, 2_000)), (3_000, unicast(1, 100))]);
    net
}

/// Two switches joined by a trunk of delay 20, so a STOP holds bytes back
/// for a round trip of 40 byte-times and `go_mark: 4` lets a drained
/// buffer run dry. Host 0 sits on switch 0; hosts 1–4 on switch 1 (ports
/// 1–4), whose port 0 is the trunk. Hosts 3 and 4 hold the outputs to
/// hosts 1 and 2 with `block`-byte unicasts from time 0, and host 0 sends
/// a `payload`-byte multicast to hosts 1 and 2 at 10: replicated at switch
/// 1 after a transit hop at switch 0, or (`nested`) by a one-branch
/// directive at switch 0 whose subtree replicates at switch 1.
fn lagging_tail(
    sim: SimMode,
    trace: TraceConfig,
    payload: u32,
    block: u32,
    nested: bool,
) -> Network {
    let spec = FabricSpec {
        switch_ports: vec![3, 5],
        hosts: vec![
            HostAttach { switch: 0, port: 0 },
            HostAttach { switch: 1, port: 1 },
            HostAttach { switch: 1, port: 2 },
            HostAttach { switch: 1, port: 3 },
            HostAttach { switch: 1, port: 4 },
        ],
        links: vec![LinkSpec {
            a: (0, PortId(2)),
            b: (1, PortId(0)),
            delay: 20,
        }],
        host_link_delay: 1,
    };
    let mut rt = RouteTable::new(5);
    for s in 0..5u32 {
        for d in (0..5u32).filter(|&d| d != s) {
            let route = match (s, d) {
                (0, d) => vec![2, d as u8],
                (_, 0) => vec![0, 0],
                (_, d) => vec![d as u8],
            };
            rt.set(HostId(s), HostId(d), route);
        }
    }
    let cfg = NetworkConfig::builder()
        .switchcast(SwitchcastMode::RootedInterrupt)
        .mode(sim)
        .trace(trace)
        .build()
        .expect("valid config");
    let mut net = Network::build(&spec, rt, cfg);
    let at_switch_1 = Directive {
        branches: vec![(1, Subroute::Host), (2, Subroute::Host)],
    };
    let route = if nested {
        encode(&Directive {
            branches: vec![(2, Subroute::Next(at_switch_1))],
        })
        .unwrap()
    } else {
        let mut r = vec![RouteSym::Port(2)];
        r.extend(encode(&at_switch_1).unwrap());
        r
    };
    net.set_protocol(HostId(0), Box::new(Injector { route, sinks: 2 }));
    for h in 1..5u32 {
        net.set_protocol(HostId(h), Box::new(Echoless));
    }
    install_one_shot(&mut net, HostId(0), 10, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: payload,
    });
    for (from, to) in [(3, 1), (4, 2)] {
        install_one_shot(&mut net, HostId(from), 0, SourceMessage {
            dest: Destination::Unicast(HostId(to)),
            payload_len: block,
        });
    }
    net
}

/// V2 (RootedInterrupt): when both branches run dry after the whole
/// body, each cuts its fragment there and its receiver takes it for the
/// whole worm, so every sink resolves while the real tail is still held
/// upstream. The worm must stay in the worm window until that tail has
/// been taken at the replicating switch: switch 0 still forwards it, and
/// (traced) the STOP/GO attributions there name it. With a 59-byte payload
/// the blocked replica at switch 1 fills its input until the STOP holds
/// exactly the tail back at switch 0; the GO reaches switch 0 only 20
/// byte-times after the branches have drained the buffer.
#[test]
fn v2_worm_outlives_its_sinks_until_its_real_tail_is_taken() {
    for nested in [false, true] {
        let label = if nested {
            "one-branch directive at switch 0"
        } else {
            "transit at switch 0"
        };
        let mk = |sim, trace| lagging_tail(sim, trace, 59, 300, nested);
        assert_drains_alike(mk, 5_000, label);
        let mut net = mk(SimMode::SpanBatched, TraceConfig::Memory);
        let multicast_live = |net: &Network| {
            net.live_worms()
                .any(|w| matches!(w.meta.kind, WormKind::SwitchMulticast { .. }))
        };
        let mut sinks_resolved_at = None;
        let mut released_at = None;
        for t in 1..5_000 {
            net.advance_to(t);
            // Quiescent means no byte is left anywhere: not while the real
            // tail still crosses the trunk after both sinks resolved.
            assert!(
                !net.is_quiescent() || net.lanes().iter().all(|l| l.in_flight() == 0),
                "{label}: quiescent at {t} with a byte on a wire"
            );
            assert!(
                !(multicast_live(&net) && net.is_quiescent()),
                "{label}: quiescent at {t} with the multicast still in the window"
            );
            let copies = net.msgs.deliveries.iter().filter(|d| d.msg.0 >> 40 == 0).count();
            if copies == 2 && sinks_resolved_at.is_none() {
                assert!(multicast_live(&net), "{label}: released with its tail upstream");
                assert!(
                    !matches!(net.switches[0].inputs[0].state, InState::Idle),
                    "{label}: switch 0 holds the tail"
                );
                sinks_resolved_at = Some(t);
            }
            if sinks_resolved_at.is_some() && !multicast_live(&net) {
                released_at = Some(t);
                break;
            }
        }
        let resolved = sinks_resolved_at.expect("both copies delivered");
        let released = released_at.expect("the worm leaves the window");
        assert!(released > resolved + 20, "{label}: the tail lagged a trunk's delay");
        assert_eq!(net.worm_window(), 0, "{label}: the tail taken, the window is empty");
        let parked = net
            .trace
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::FragmentParked { .. }))
            .count();
        assert_eq!(parked, 0, "{label}: each branch was cut after the whole body");
        // Header, payload and tail of the multicast copy and of the blocking
        // unicast: the fragment tail counts once, the real one never arrives.
        let to_each: u64 = [59, 300].iter().map(|p| HEADER_LEN as u64 + p + 1).sum();
        for h in [1, 2] {
            assert_eq!(net.adapters[h].counters.bytes_received, to_each, "{label}: host {h}");
        }
    }
}
