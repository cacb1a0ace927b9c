//! Fabric-level switch-multicast tests with hand-built routes, checking
//! the replication machinery at the byte level (the protocol-level view is
//! covered by the workspace integration tests).

use wormcast_sim::engine::HostId;
use wormcast_sim::link::PortId;
use wormcast_sim::network::{FabricSpec, HostAttach, LinkSpec, RouteTable};
use wormcast_sim::protocol::{
    AdapterProtocol, AppMessage, Destination, ProtocolCtx, SendSpec, SourceMessage,
};
use wormcast_sim::switchcast::{encode, Directive, Subroute, SwitchcastMode};
use wormcast_sim::worm::{RouteSym, WormInstance, WormKind};
use wormcast_sim::{Network, NetworkConfig};

/// Injects one pre-encoded switch-multicast worm on generate; delivers on
/// receive.
struct Injector {
    route: Vec<RouteSym>,
    sinks: u32,
}

impl AdapterProtocol for Injector {
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, msg: AppMessage) {
        let mut spec = SendSpec::data(&msg, HostId(1), WormKind::SwitchMulticast { group: 0 });
        spec.route_override = Some(self.route.clone());
        spec.sinks = self.sinks;
        ctx.send(spec);
    }
    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        ctx.deliver_local(worm.meta.msg);
    }
}

struct Sink;
impl AdapterProtocol for Sink {
    fn on_generate(&mut self, _ctx: &mut ProtocolCtx, _msg: AppMessage) {}
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
    net.set_protocol(HostId(1), Box::new(Sink));
    net.set_protocol(HostId(2), Box::new(Sink));
    net.set_source(
        HostId(0),
        Box::new(wormcast_sim_test_oneshot(SourceMessage {
            dest: Destination::Multicast(0),
            payload_len: 500,
        })),
        10,
    );
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
        net.set_protocol(HostId(h), Box::new(Sink));
    }
    net.set_source(
        HostId(0),
        Box::new(wormcast_sim_test_oneshot(SourceMessage {
            dest: Destination::Multicast(0),
            payload_len: 1_000,
        })),
        10,
    );
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

/// Minimal one-shot source (the traffic crate depends on this crate and
/// cannot be used here).
fn wormcast_sim_test_oneshot(msg: SourceMessage) -> impl wormcast_sim::protocol::TrafficSource {
    struct OneShot(Option<SourceMessage>);
    impl wormcast_sim::protocol::TrafficSource for OneShot {
        fn next(&mut self, _now: u64, _host: HostId) -> (Option<SourceMessage>, Option<u64>) {
            (self.0.take(), None)
        }
    }
    OneShot(Some(msg))
}
