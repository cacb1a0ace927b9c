//! End-to-end deadlock forensics: a ring of switches with deliberately
//! cyclic routes (the exact pattern up/down routing exists to forbid)
//! wedges four long worms into a circular wait. Both engines must detect
//! it, and the *sharded* engine must reconstruct the same wait-for story
//! even though the cycle's edges cross the shard boundary — each edge
//! still names the blocked channel, the holding worm, and the cause. One
//! walk (`deadlock::wait_edges_multi`) serves both, so the two reports are
//! also compared edge for edge, and a one-engine report is pinned.

use wormcast_sim::deadlock::DeadlockReport;
use wormcast_sim::engine::HostId;
use wormcast_sim::link::PortId;
use wormcast_sim::network::{FabricSpec, HostAttach, LinkSpec, RouteTable, SimMode};
use wormcast_sim::protocol::{
    AdapterProtocol, AppMessage, Destination, ProtocolCtx, SendSpec, SourceMessage, TrafficSource,
};
use wormcast_sim::shard::ShardedNetwork;
use wormcast_sim::worm::{WormInstance, WormKind};
use wormcast_sim::{Network, NetworkConfig};

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

struct OneShot {
    msg: Option<SourceMessage>,
}

impl TrafficSource for OneShot {
    fn next(&mut self, _now: u64, _host: HostId) -> (Option<SourceMessage>, Option<u64>) {
        (self.msg.take(), None)
    }
}

/// Four switches in a directed ring (sw i port 0 → sw (i+1)%4 port 1),
/// one host per switch on port 2. Host i routes to host (i+2)%4 going
/// clockwise through two ring links — every worm must grab two
/// consecutive ring links, so four simultaneous long worms form a
/// textbook circular wait.
fn ring_fabric() -> (FabricSpec, RouteTable) {
    let n = 4usize;
    let mut links = Vec::new();
    for i in 0..n {
        links.push(LinkSpec {
            a: (i as u32, PortId(0)),
            b: (((i + 1) % n) as u32, PortId(1)),
            delay: 1,
        });
    }
    let hosts: Vec<HostAttach> = (0..n)
        .map(|i| HostAttach {
            switch: i as u32,
            port: 2,
        })
        .collect();
    let mut rt = RouteTable::new(n);
    for i in 0..n {
        // At sw i: out port 0; at sw i+1: out port 0; at sw i+2: host port 2.
        rt.set(
            HostId(i as u32),
            HostId(((i + 2) % n) as u32),
            vec![0, 0, 2],
        );
    }
    let spec = FabricSpec {
        switch_ports: vec![3; n],
        hosts,
        links,
        host_link_delay: 1,
    };
    (spec, rt)
}

/// Build one engine over the ring; traffic sources only on `owned` hosts
/// (`None` = all of them), so the same builder serves the sequential run
/// and each shard of the sharded run.
fn ring_net(owned: Option<&[u32]>) -> Network {
    let (spec, rt) = ring_fabric();
    let cfg = NetworkConfig::builder()
        .seed(3)
        .mode(SimMode::SpanBatched)
        .build()
        .expect("valid config");
    let mut net = Network::build(&spec, rt, cfg);
    for h in 0..4u32 {
        net.set_protocol(HostId(h), Box::new(Echoless));
        if owned.is_none_or(|o| o.contains(&h)) {
            let msg = SourceMessage {
                dest: Destination::Unicast(HostId((h + 2) % 4)),
                payload_len: 2_000,
            };
            net.set_source(HostId(h), Box::new(OneShot { msg: Some(msg) }), 10);
        }
    }
    net
}

#[test]
fn sequential_engine_reports_the_ring_deadlock() {
    let mut net = ring_net(None);
    let out = net.run_until(50_000);
    assert!(!out.drained, "a wedged ring cannot drain");
    let report = out.deadlock.expect("deadlock must be detected");
    assert_eq!(report.stuck_worms, 4);
    assert!(report.cycle.len() >= 2, "cycle: {:?}", report.cycle);
    let dump = report.to_string();
    assert!(dump.contains("holds worm"), "no holder named:\n{dump}");
    assert!(dump.contains("ch"), "no channel named:\n{dump}");
}

#[test]
fn sharded_engine_reconstructs_the_cycle_across_the_boundary() {
    // Shard 0 owns switches {0,1}, shard 1 owns {2,3}: two of the four
    // ring links (and two of the four wait-cycle hops) cross the cut.
    let switch_owner = vec![0u32, 0, 1, 1];
    let nets = vec![ring_net(Some(&[0, 1])), ring_net(Some(&[2, 3]))];
    let mut sharded = ShardedNetwork::new(nets, switch_owner.clone()).expect("shardable");
    let out = sharded.run_until(50_000);
    assert!(!out.drained, "a wedged ring cannot drain");
    let report = out.deadlock.expect("merged deadlock must be detected");
    assert_eq!(report.stuck_worms, 4);
    assert!(report.cycle.len() >= 2, "cycle: {:?}", report.cycle);

    // The merged wait-for graph must contain edges whose endpoints live
    // in different shards, and those edges must still carry the full
    // forensics story: the waiting worm, the holding worm, and a cause
    // that names the blocked resource.
    let shard_of = |node: &wormcast_sim::deadlock::WaitNode| -> u32 {
        match node {
            wormcast_sim::deadlock::WaitNode::SwitchIn(sw, _) => switch_owner[sw.0 as usize],
            wormcast_sim::deadlock::WaitNode::HostTx(h) => switch_owner[h.0 as usize],
        }
    };
    let cross: Vec<_> = report
        .edges
        .iter()
        .filter(|e| shard_of(&e.from) != shard_of(&e.to))
        .collect();
    assert!(
        !cross.is_empty(),
        "no cross-shard wait edges in:\n{report}"
    );
    for e in &cross {
        assert!(e.worm.is_some(), "cross-shard edge lost its worm: {e}");
        assert!(e.holds.is_some(), "cross-shard edge lost its holder: {e}");
        let line = e.to_string();
        assert!(
            line.contains("ch") || line.contains("output"),
            "cause does not name the blocked resource: {line}"
        );
    }

    // Same-tick worm naming is canonical across shards: a worm named in
    // two different shards' edges resolves to one id, so the four stuck
    // worms appear as exactly four distinct ids in the merged graph.
    let mut ids: Vec<u32> = report
        .edges
        .iter()
        .filter_map(|e| e.worm.map(|w| w.0))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), 4, "expected 4 canonical worms in:\n{report}");
}

/// What a report says of the wait-for graph, minus the worm names (which a
/// sharded run re-numbers): the `(from, to, cause)` edges, sorted. Equal
/// edge sets have equal cycles; `report.cycle` is one of them, found by
/// walking a `HashMap`, and is not compared.
fn edge_set(report: &DeadlockReport) -> Vec<String> {
    let mut edges: Vec<String> = report
        .edges
        .iter()
        .map(|e| format!("{} -> {}: {}", e.from, e.to, e.cause))
        .collect();
    edges.sort();
    edges
}

/// One walk serves both engines, so both must read the same graph off the
/// same wedged ring — every edge, not just some edge across the cut.
#[test]
fn sequential_and_sharded_reports_hold_the_same_edges() {
    let sequential = ring_net(None)
        .run_until(50_000)
        .deadlock
        .expect("deadlock must be detected");
    let nets = vec![ring_net(Some(&[0, 1])), ring_net(Some(&[2, 3]))];
    let mut sharded = ShardedNetwork::new(nets, vec![0, 0, 1, 1]).expect("shardable");
    let merged = sharded
        .run_until(50_000)
        .deadlock
        .expect("merged deadlock must be detected");
    assert_eq!(edge_set(&sequential).len(), 12);
    assert_eq!(edge_set(&sequential), edge_set(&merged));
}

/// The one-engine report of `examples/deadlock_demo`'s clockwise ring
/// (`TopoBuilder`'s port numbering, the demo's routes and timing), as the
/// dedicated one-engine walk printed it before the two walks merged: same
/// edges in the same order, the engine's own worm ids, same text.
#[test]
fn one_engine_report_reads_as_before_the_walks_merged() {
    // link(s, s+1): sw0 p0–sw1 p0, sw1 p1–sw2 p0, sw2 p1–sw3 p0, sw3 p1–sw0 p1.
    let cw_port = [0u8, 1, 1, 1];
    let links = (0..4usize)
        .map(|s| LinkSpec {
            a: (s as u32, PortId(cw_port[s])),
            b: (((s + 1) % 4) as u32, PortId(u8::from(s == 3))),
            delay: 1,
        })
        .collect();
    let spec = FabricSpec {
        switch_ports: vec![3; 4],
        hosts: (0..4)
            .map(|switch| HostAttach { switch, port: 2 })
            .collect(),
        links,
        host_link_delay: 1,
    };
    let mut routes = RouteTable::new(4);
    for src in 0..4usize {
        let route = vec![cw_port[src], cw_port[(src + 1) % 4], 2];
        routes.set(HostId(src as u32), HostId(((src + 2) % 4) as u32), route);
    }
    let mut net = Network::build(&spec, routes, NetworkConfig::default());
    for h in 0..4u32 {
        net.set_protocol(HostId(h), Box::new(Echoless));
        let msg = SourceMessage {
            dest: Destination::Unicast(HostId((h + 2) % 4)),
            payload_len: 2_000,
        };
        net.set_source(HostId(h), Box::new(OneShot { msg: Some(msg) }), 100);
    }
    let report = net
        .run_until(500_000)
        .deadlock
        .expect("clockwise ring routing must deadlock");

    let dump = report.to_string();
    let (edges, cycle) = dump.rsplit_once("\n  cycle: ").expect("a cycle line");
    assert_eq!(
        edges,
        "deadlock forensics: 4 stuck worm(s), 12 wait-for edge(s)
  sw0:in1 [worm 3] -> sw0:in2 [holds worm 0]: output sw0:out0 held
  sw0:in2 [worm 0] -> sw1:in0 [holds worm 0]: STOP in force on ch0
  sw1:in0 [worm 0] -> sw1:in2 [holds worm 1]: output sw1:out1 held
  sw1:in2 [worm 1] -> sw2:in0 [holds worm 1]: STOP in force on ch2
  sw2:in0 [worm 1] -> sw2:in2 [holds worm 2]: output sw2:out1 held
  sw2:in2 [worm 2] -> sw3:in0 [holds worm 2]: STOP in force on ch4
  sw3:in0 [worm 2] -> sw3:in2 [holds worm 3]: output sw3:out1 held
  sw3:in2 [worm 3] -> sw0:in1 [holds worm 3]: STOP in force on ch6
  host0:tx [worm 0] -> sw0:in2 [holds worm 0]: host link ch8 STOPped
  host1:tx [worm 1] -> sw1:in2 [holds worm 1]: host link ch10 STOPped
  host2:tx [worm 2] -> sw2:in2 [holds worm 2]: host link ch12 STOPped
  host3:tx [worm 3] -> sw3:in2 [holds worm 3]: host link ch14 STOPped"
    );
    // The ring's one cycle, from whichever node the search entered it.
    let ring = [
        "sw0:in1", "sw0:in2", "sw1:in0", "sw1:in2", "sw2:in0", "sw2:in2", "sw3:in0", "sw3:in2",
    ];
    let hops: Vec<&str> = cycle.split(" -> ").collect();
    let entry = ring
        .iter()
        .position(|n| *n == hops[0])
        .expect("on the ring");
    let expected: Vec<&str> = (0..=8).map(|i| ring[(entry + i) % 8]).collect();
    assert_eq!(hops, expected);
}
