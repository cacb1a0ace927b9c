//! Deadlock demonstrations and preventions — the paper's core claims.
//!
//! 1. Violating up/down routing creates a circular channel wait in the
//!    fabric (the situation of Figure 3); the simulator detects the cycle.
//! 2. The same traffic under up/down routes always completes.
//! 3. Opposing multicasts with a single merged buffer pool starve each
//!    other (Figure 6); the two-buffer-class rule (Figure 7) fixes it.
//! 4. Bytes and control symbols still on a long wire are latency, not a
//!    wait: a busy up/down fabric cut off mid-flight shows no cycle.

use std::sync::Arc;
use wormcast::core::buffers::PoolConfig;
use wormcast::core::reliable::{AckNackConfig, Reliability};
use wormcast::core::{HcConfig, HcProtocol, Membership};
use wormcast::sim::engine::HostId;
use wormcast::sim::network::RouteTable;
use wormcast::sim::protocol::{Destination, SourceMessage};
use wormcast::sim::{Network, NetworkConfig};
use wormcast::topo::{TopoBuilder, Topology, UpDown};
use wormcast::traffic::script::install_one_shot;

/// Ring of 4 switches, one host each. Ports: link i connects switch i
/// (port allocated in order) to switch i+1.
fn ring4() -> Topology {
    let mut b = TopoBuilder::new(4);
    b.link(0, 1, 1); // sw0 port0 <-> sw1 port0
    b.link(1, 2, 1); // sw1 port1 <-> sw2 port0
    b.link(2, 3, 1); // sw2 port1 <-> sw3 port0
    b.link(3, 0, 1); // sw3 port1 <-> sw0 port1
    for s in 0..4 {
        b.host(s); // host port = 2 on each switch
    }
    b.build()
}

/// Hand-built CLOCKWISE routes for host i -> host (i+2) % 4: two switch
/// hops always in the ring direction. This deliberately violates up/down —
/// together the four routes form a channel-dependency cycle.
fn clockwise_routes() -> RouteTable {
    let mut rt = RouteTable::new(4);
    // Clockwise out-port at switch s towards s+1: switch 0: port 0;
    // switch 1: port 1; switch 2: port 1; switch 3: port 1.
    let cw_port = [0u8, 1, 1, 1];
    let host_port = 2u8;
    for src in 0..4usize {
        let dst = (src + 2) % 4;
        let mid = (src + 1) % 4;
        rt.set(
            HostId(src as u32),
            HostId(dst as u32),
            vec![cw_port[src], cw_port[mid], host_port],
        );
    }
    rt
}

fn install_plain_hc(net: &mut Network) {
    let groups = Membership::from_groups([(0u8, vec![HostId(0)])]);
    for h in 0..net.num_hosts() as u32 {
        let p = HcProtocol::new(HostId(h), HcConfig::store_and_forward(), Arc::clone(&groups));
        net.set_protocol(HostId(h), Box::new(p));
    }
}

/// All four hosts simultaneously send a long worm two hops clockwise.
fn inject_cycle_traffic(net: &mut Network) {
    for src in 0..4u32 {
        install_one_shot(net, HostId(src), 100, SourceMessage {
            dest: Destination::Unicast(HostId((src + 2) % 4)),
            payload_len: 2000, // far larger than the total ring slack
        });
    }
}

#[test]
fn cyclic_routes_deadlock_and_the_cycle_is_reconstructed() {
    let topo = ring4();
    let mut net = Network::build(
        &topo.to_fabric_spec(),
        clockwise_routes(),
        NetworkConfig::builder().build().expect("valid config"),
    );
    install_plain_hc(&mut net);
    inject_cycle_traffic(&mut net);
    let out = net.run_until(1_000_000);
    let report = out.deadlock.expect("clockwise ring routing must deadlock");
    assert!(
        report.stuck_worms > 0,
        "worms must be stuck: {report:?}"
    );
    assert!(
        report.cycle.len() >= 2,
        "the wait-for cycle must be reconstructed: {report:?}"
    );
    assert!(
        net.stats.worms_delivered < 4,
        "not all worms may complete under a cyclic wait"
    );

    // Forensics: the report carries annotated wait-for edges naming the
    // blocked worms, the channels they wait on, and the worms holding them.
    assert!(!report.edges.is_empty(), "forensics must list wait-for edges");
    assert!(
        report.edges.iter().any(|e| e.worm.is_some()),
        "some edge must name the worm that is waiting: {report}"
    );
    assert!(
        report.edges.iter().any(|e| e.holds.is_some()),
        "some edge must name the worm holding the contended resource: {report}"
    );
    // The human-readable dump names switches, worms, and wait causes.
    let dump = report.to_string();
    assert!(dump.contains("deadlock forensics"), "dump header: {dump}");
    assert!(dump.contains("worm"), "dump must name worms: {dump}");
    assert!(dump.contains("cycle:"), "dump must render the cycle: {dump}");
    assert!(
        dump.contains("STOP in force on ch") || dump.contains("held"),
        "dump must explain why each edge waits: {dump}"
    );
}

#[test]
fn updown_routes_complete_the_same_traffic() {
    let topo = ring4();
    let ud = UpDown::compute(&topo, 0);
    let routes = ud.route_table(&topo, false);
    let mut net = Network::build(&topo.to_fabric_spec(), routes, NetworkConfig::builder().build().expect("valid config"));
    install_plain_hc(&mut net);
    inject_cycle_traffic(&mut net);
    let out = net.run_until(1_000_000);
    assert!(out.drained, "up/down traffic must drain");
    assert!(out.deadlock.is_none(), "up/down routing is deadlock-free");
    net.audit().expect("conservation");
    assert_eq!(net.msgs.deliveries.len(), 4);
}

/// Ring of 8 switches/hosts, one group of all 8, every host multicasting
/// at once with pools that hold exactly one worm — maximum buffer
/// pressure, exercising the circuit's ID reversal.
fn buffer_pressure_net(single_class: bool) -> Network {
    let mut b = TopoBuilder::new(8);
    for s in 0..8 {
        b.link(s, (s + 1) % 8, 1);
    }
    for s in 0..8 {
        b.host(s);
    }
    let topo = b.build();
    let ud = UpDown::compute(&topo, 0);
    let routes = ud.route_table(&topo, false);
    let mut net = Network::build(&topo.to_fabric_spec(), routes, NetworkConfig::builder().build().expect("valid config"));
    let members: Vec<HostId> = (0..8).map(HostId).collect();
    let groups = Membership::from_groups([(0u8, members)]);
    let cfg = HcConfig {
        reliability: Reliability::AckNack(AckNackConfig {
            pool: PoolConfig::tight(1100),
            single_class,
            retry_timeout: 8_000,
            retry_jitter: 4_000,
            max_retries: 120,
        }),
        ..HcConfig::store_and_forward()
    };
    for h in 0..8u32 {
        let p = HcProtocol::new(HostId(h), cfg, Arc::clone(&groups));
        net.set_protocol(HostId(h), Box::new(p));
    }
    // Sustained pressure: six messages per host, closely spaced, so the
    // single-pool arm cannot ride out one transient contention episode.
    for h in 0..8u32 {
        let items = (0..6u64)
            .map(|i| {
                (
                    100 + h as u64 + i * 2_500,
                    SourceMessage {
                        dest: Destination::Multicast(0),
                        payload_len: 1000,
                    },
                )
            })
            .collect();
        wormcast::traffic::script::install_script(&mut net, HostId(h), items);
    }
    net
}

#[test]
fn two_buffer_classes_complete_under_pressure() {
    let mut net = buffer_pressure_net(false);
    let out = net.run_until(60_000_000);
    net.audit().expect("conservation");
    assert!(out.deadlock.is_none());
    // 48 messages x 7 receivers each.
    assert_eq!(
        net.msgs.deliveries.len(),
        48 * 7,
        "every delivery must complete with the two-class rule \
         (refused={} injected={})",
        net.stats.worms_refused,
        net.stats.worms_injected
    );
}

#[test]
fn single_class_pool_thrashes_under_the_same_pressure() {
    let mut two = buffer_pressure_net(false);
    two.run_until(60_000_000);
    two.audit().expect("conservation");
    let mut one = buffer_pressure_net(true);
    one.run_until(60_000_000);
    one.audit().expect("conservation");
    eprintln!(
        "two-class: delivered {} injected {} refused {}",
        two.msgs.deliveries.len(),
        two.stats.worms_injected,
        two.stats.worms_refused
    );
    eprintln!(
        "single:    delivered {} injected {} refused {}",
        one.msgs.deliveries.len(),
        one.stats.worms_injected,
        one.stats.worms_refused
    );
    // The merged pool must visibly thrash: many more NACK-drops and
    // retransmissions for the same workload (the Figure 6 cycles keep
    // re-forming until timeouts randomize them apart), and it may fail to
    // complete some deliveries at all.
    assert!(
        one.stats.worms_refused > 2 * two.stats.worms_refused.max(1),
        "single-class refusals ({}) should dwarf two-class ({})",
        one.stats.worms_refused,
        two.stats.worms_refused
    );
}

/// Found by the span fuzzer, in both engine modes: at a deadline that cuts
/// a loaded fabric of 100-byte-time links off mid-flight, an input whose
/// bytes were all on the wire counted as starved while its upstream
/// counted as stopped by a STOP whose GO was already on its way back —
/// a two-node "cycle" on an up/down fabric.
#[test]
fn bytes_and_symbols_on_a_long_wire_are_not_a_wait_cycle() {
    use wormcast::sim::network::SimMode;
    use wormcast::topo::irregular::{irregular, IrregularSpec};
    use wormcast_bench::runner::{build_network, SimSetup};
    use wormcast_bench::Scheme;
    use wormcast_traffic::rng::host_stream;
    use wormcast_traffic::workload::PaperWorkload;
    use wormcast_traffic::{GroupSet, LengthDist};

    let seed = 58_473;
    let spec = IrregularSpec {
        num_switches: 8,
        extra_links: 3,
        hosts_per_switch: 3,
        link_delay: 100,
    };
    for mode in [SimMode::PerByte, SimMode::SpanBatched] {
        let mut grng = host_stream(seed ^ 0xA5A5, 0x6131);
        let groups = GroupSet::random(24, 2, 3, &mut grng);
        let workload = PaperWorkload {
            offered_load: 0.24,
            multicast_prob: 0.10,
            lengths: LengthDist::Geometric { mean: 40 },
            stop_at: None,
        };
        let scheme = Scheme::Hc(HcConfig::cut_through());
        let setup = SimSetup::builder(irregular(spec, seed), groups, scheme, workload)
            .seed(seed)
            .mode(mode)
            .windows(2_000, 12_000, 10_000)
            .build()
            .expect("valid setup");
        let mut net = build_network(&setup);
        let out = net.run_until(setup.drain_until);
        assert!(!out.drained, "{mode:?}: the deadline must cut the run off mid-flight");
        assert!(out.deadlock.is_none(), "{mode:?}: {}", out.deadlock.unwrap());
    }
}
