//! Property-based, end-to-end invariants of the fabric simulator itself.
//!
//! These use a minimal in-crate unicast protocol (the real protocols live
//! in `wormcast-core`) so the fabric can be exercised without a dependency
//! cycle.

#![allow(clippy::needless_range_loop, clippy::manual_memcpy)] // index math mirrors ports

use proptest::prelude::*;
use wormcast_sim::engine::HostId;
use wormcast_sim::link::PortId;
use wormcast_sim::network::{FabricSpec, HostAttach, LinkSpec, RouteTable};
use wormcast_sim::protocol::{
    AdapterProtocol, AppMessage, Destination, ProtocolCtx, SendSpec, SourceMessage,
};
use wormcast_sim::worm::{WormInstance, WormKind};
use wormcast_sim::{Network, NetworkConfig};

/// Minimal unicast-only protocol: send on generate, deliver on receive.
struct Echoless;

impl AdapterProtocol for Echoless {
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, msg: AppMessage) {
        if let Destination::Unicast(d) = msg.dest {
            ctx.send(SendSpec::data(&msg, d, WormKind::Unicast));
        }
    }
    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        ctx.deliver_local(worm.meta.msg);
    }
}

/// A line of `n` switches with one host each, explicit routes.
fn line_fabric(n: usize, delay: u64) -> (FabricSpec, RouteTable) {
    // Ports per switch: left link (except first), right link (except last),
    // then the host port.
    let mut switch_ports = vec![0u8; n];
    let mut links = Vec::new();
    let mut next_port = vec![0u8; n];
    for s in 0..n - 1 {
        let a = next_port[s];
        next_port[s] += 1;
        let b = next_port[s + 1];
        next_port[s + 1] += 1;
        links.push(LinkSpec {
            a: (s as u32, PortId(a)),
            b: ((s + 1) as u32, PortId(b)),
            delay,
        });
    }
    let mut hosts = Vec::new();
    for s in 0..n {
        hosts.push(HostAttach {
            switch: s as u32,
            port: next_port[s],
        });
        next_port[s] += 1;
    }
    for s in 0..n {
        switch_ports[s] = next_port[s];
    }
    // Routes: walk right or left then the host port. Port conventions per
    // the allocation above: at switch s, the right link is port 1 for
    // interior switches (0 for the first), the left link is port 0.
    let right_port = |s: usize| if s == 0 { 0u8 } else { 1u8 };
    let left_port = |_s: usize| 0u8;
    let mut rt = RouteTable::new(n);
    for src in 0..n {
        for dst in 0..n {
            if src == dst {
                continue;
            }
            let mut ports = Vec::new();
            let mut cur = src;
            while cur != dst {
                if dst > cur {
                    ports.push(right_port(cur));
                    cur += 1;
                } else {
                    ports.push(left_port(cur));
                    cur -= 1;
                }
            }
            ports.push(hosts[dst].port);
            rt.set(HostId(src as u32), HostId(dst as u32), ports);
        }
    }
    (
        FabricSpec {
            switch_ports,
            hosts,
            links,
            host_link_delay: 1,
        },
        rt,
    )
}

fn run_line(
    n: usize,
    delay: u64,
    seed: u64,
    sends: &[(u8, u8, u32, u64)], // (src, dst, len, at)
) -> (Vec<(u64, u32, u64)>, Network) {
    let (spec, rt) = line_fabric(n, delay);
    let mut net = Network::build(
        &spec,
        rt,
        NetworkConfig::builder().seed(seed).build().expect("valid config"),
    );
    for h in 0..n as u32 {
        net.set_protocol(HostId(h), Box::new(Echoless));
    }
    // Group sends per source into ascending scripts.
    let mut per_src: Vec<Vec<(u64, SourceMessage)>> = vec![Vec::new(); n];
    for &(s, d, len, at) in sends {
        let s = (s as usize) % n;
        let mut d = (d as usize) % n;
        if d == s {
            d = (d + 1) % n;
        }
        per_src[s].push((at, SourceMessage {
            dest: Destination::Unicast(HostId(d as u32)),
            payload_len: len,
        }));
    }
    for (s, mut items) in per_src.into_iter().enumerate() {
        items.sort_by_key(|&(t, _)| t);
        // Deduplicate times (script requires strictly ascending).
        let mut t_last = None;
        for it in &mut items {
            if Some(it.0) <= t_last {
                it.0 = t_last.unwrap() + 1;
            }
            t_last = Some(it.0);
        }
        if !items.is_empty() {
            wormcast_traffic_free_install(&mut net, HostId(s as u32), items);
        }
    }
    let out = net.run_until(50_000_000);
    assert!(out.drained, "finite workload must drain");
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    let mut log: Vec<(u64, u32, u64)> = net
        .msgs
        .deliveries
        .iter()
        .map(|d| (d.msg.0, d.host.0, d.at))
        .collect();
    log.sort_unstable();
    (log, net)
}

/// Local stand-in for `wormcast_traffic::script::install_script` (the
/// traffic crate depends on this one, so it cannot be used here).
fn wormcast_traffic_free_install(
    net: &mut Network,
    host: HostId,
    items: Vec<(u64, SourceMessage)>,
) {
    struct Script {
        items: Vec<(u64, SourceMessage)>,
        ix: usize,
    }
    impl wormcast_sim::protocol::TrafficSource for Script {
        fn next(
            &mut self,
            now: u64,
            _host: HostId,
        ) -> (Option<SourceMessage>, Option<u64>) {
            let Some(&(_, msg)) = self.items.get(self.ix) else {
                return (None, None);
            };
            self.ix += 1;
            let gap = self.items.get(self.ix).map(|&(t, _)| t - now);
            (Some(msg), gap)
        }
    }
    let first = items[0].0;
    net.set_source(host, Box::new(Script { items, ix: 0 }), first);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary finite unicast workloads on a line fabric: everything is
    /// delivered exactly once, conservation holds, and the run is
    /// deterministic in its seed.
    #[test]
    fn random_workloads_deliver_and_replay(
        n in 2usize..6,
        delay in 1u64..20,
        seed in 0u64..1000,
        sends in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), 1u32..3_000, 0u64..30_000), 1..25),
    ) {
        let (log_a, net_a) = run_line(n, delay, seed, &sends);
        prop_assert_eq!(log_a.len(), sends.len(), "one delivery per message");
        prop_assert_eq!(net_a.stats.worms_injected as usize, sends.len());
        // Determinism: identical run.
        let (log_b, _) = run_line(n, delay, seed, &sends);
        prop_assert_eq!(log_a, log_b);
    }

    /// Latency lower bound: a worm can never beat wire time — delivery is
    /// at least (wire length + per-hop pipeline) after creation.
    #[test]
    fn latency_respects_wire_time(
        n in 2usize..6,
        delay in 1u64..50,
        len in 1u32..5_000,
    ) {
        let sends = [(0u8, (n - 1) as u8, len, 100u64)];
        let (log, net) = run_line(n, delay, 0, &sends);
        prop_assert_eq!(log.len(), 1);
        let (_, _, at) = log[0];
        let hops = n; // n-1 switch links + host link, roughly
        let wire = net.worms[0].wire_len();
        let min_latency = wire + hops as u64 * delay;
        prop_assert!(
            at - 100 >= min_latency - delay, // head start pipelining slack
            "latency {} below physical minimum {}",
            at - 100,
            min_latency
        );
    }
}
