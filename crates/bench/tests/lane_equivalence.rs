//! Lane-layer differential harness: multi-lane links must be a pure
//! *capacity* feature. With one lane per link — the default, and the
//! paper's Myrinet — the redesigned lane-port engine must reproduce the
//! pre-lane engine's results **byte for byte**, across topology families,
//! both [`SimMode`]s, and the sequential and sharded engines. The pinned
//! counters below were captured from the single-channel engine immediately
//! before the lane refactor landed; any drift is a semantics change, not
//! noise.
//!
//! The multi-lane tests then check the one property lanes must add
//! (per-lane STOP isolation: a stopped lane never blocks its siblings)
//! without re-deriving throughput claims — those are gated by
//! `perf check lanes` against the `lanes` rows of
//! `results/BENCH_perf.json`.

use wormcast_bench::runner::{build_network, build_sharded, SimSetup};
use wormcast_bench::Scheme;
use wormcast_core::{HcConfig, TreeConfig};
use wormcast_sim::network::SimMode;
use wormcast_topo::irregular::{irregular, IrregularSpec};
use wormcast_topo::shufflenet::shufflenet24;
use wormcast_topo::torus::torus;
use wormcast_topo::tree::TreeShape;
use wormcast_topo::Topology;
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

const DRAIN_UNTIL: u64 = 26_000;

/// Counters pinned from the pre-lane single-channel engine (seed 23,
/// windows 2k/12k/12k, load 0.08): `(bytes_moved, worms_injected,
/// worms_delivered, messages_generated, deliveries)`.
type Pins = (u64, u64, u64, u64, usize);

fn families() -> Vec<(&'static str, Topology, Scheme, Pins)> {
    vec![
        (
            "torus",
            torus(4, 1),
            Scheme::Hc(HcConfig::store_and_forward()),
            (72_125, 47, 47, 47, 47),
        ),
        (
            "shufflenet",
            shufflenet24(1),
            Scheme::Tree(TreeConfig::store_and_forward(), TreeShape::BinaryHeap),
            (203_184, 101, 101, 73, 97),
        ),
        (
            "tree",
            irregular(
                IrregularSpec {
                    num_switches: 12,
                    extra_links: 0,
                    hosts_per_switch: 2,
                    link_delay: 1,
                },
                5,
            ),
            Scheme::Tree(TreeConfig::store_and_forward(), TreeShape::GreedyHop),
            (189_552, 101, 101, 73, 97),
        ),
        (
            "irregular",
            irregular(
                IrregularSpec {
                    num_switches: 14,
                    extra_links: 6,
                    hosts_per_switch: 2,
                    link_delay: 2,
                },
                9,
            ),
            Scheme::Hc(HcConfig::cut_through()),
            (190_450, 110, 110, 82, 110),
        ),
    ]
}

fn setup_on(topo: Topology, scheme: Scheme, mode: SimMode, lanes: u8) -> SimSetup {
    let hosts = topo.num_hosts();
    let mut grng = host_stream(11, 0x6071);
    let groups = GroupSet::random(hosts, 3, (hosts / 3).max(2), &mut grng);
    let workload = PaperWorkload {
        offered_load: 0.08,
        multicast_prob: 0.1,
        lengths: LengthDist::Geometric { mean: 400 },
        stop_at: None,
    };
    SimSetup::builder(topo, groups, scheme, workload)
        .seed(23)
        .mode(mode)
        .lanes(lanes)
        .windows(2_000, 12_000, 12_000)
        .build()
        .expect("valid setup")
}

fn assert_pins(name: &str, pins: Pins, got: Pins) {
    assert_eq!(
        got, pins,
        "{name}: (bytes_moved, worms_injected, worms_delivered, \
         messages_generated, deliveries) drifted from the pre-lane engine"
    );
}

/// Sequential engine, both modes, default lane count (1): every family
/// replays the pre-lane counters exactly.
#[test]
fn single_lane_replays_pinned_counters_sequential() {
    for (name, topo, scheme, pins) in families() {
        for mode in [SimMode::PerByte, SimMode::SpanBatched] {
            let setup = setup_on(topo.clone(), scheme, mode, 1);
            let mut net = build_network(&setup);
            let out = net.run_until(DRAIN_UNTIL);
            assert!(out.deadlock.is_none(), "{name}: deadlock {out:?}");
            net.audit().expect("conservation");
            assert_pins(
                &format!("{name} {mode:?} sequential"),
                pins,
                (
                    out.stats.bytes_moved,
                    out.stats.worms_injected,
                    out.stats.worms_delivered,
                    out.stats.messages_generated,
                    net.msgs.deliveries.len(),
                ),
            );
        }
    }
}

/// Sharded engine (2 shards, derived contiguous plan), explicit
/// `.lanes(1)`: same pins — lanes compose with Chandy–Misra–Bryant
/// sharding without changing a single counter.
#[test]
fn single_lane_replays_pinned_counters_sharded() {
    for (name, topo, scheme, pins) in families() {
        let mut setup = setup_on(topo.clone(), scheme, SimMode::SpanBatched, 1);
        setup.shards = 2;
        let mut sharded = build_sharded(&setup).expect("shardable setup");
        let out = sharded.run_until(DRAIN_UNTIL);
        assert!(out.deadlock.is_none(), "{name}: deadlock {out:?}");
        sharded.audit().expect("sharded conservation");
        let msgs = sharded.msgs();
        assert_pins(
            &format!("{name} sharded"),
            pins,
            (
                out.stats.bytes_moved,
                out.stats.worms_injected,
                out.stats.worms_delivered,
                out.stats.messages_generated,
                msgs.deliveries.len(),
            ),
        );
    }
}

/// Per-lane STOP isolation, end to end: permanently stop lane 0 of every
/// two-lane trunk before any traffic flows. A worm the arbiter grants to a
/// stopped lane stalls there (STOP is honored), but the *sibling* lane
/// keeps carrying traffic — the fabric routes around the backpressure and
/// still delivers. Under the old single-channel model this configuration
/// would halt every trunk outright.
#[test]
fn stopped_lane_never_blocks_its_sibling() {
    let setup = setup_on(
        torus(4, 1),
        Scheme::Hc(HcConfig::store_and_forward()),
        SimMode::SpanBatched,
        2,
    );
    let mut net = build_network(&setup);
    let trunks: Vec<_> = net
        .links()
        .iter()
        .filter(|l| l.num_lanes() == 2)
        .copied()
        .collect();
    assert!(!trunks.is_empty(), "expected two-lane trunks");
    for link in &trunks {
        net.lane_mut(link.lane_id(0)).stop(0);
    }
    // Worms parked on stopped lanes never drain, so the run ends
    // non-quiescent by design: no audit, no deadlock assertion.
    net.run_until(DRAIN_UNTIL);
    let mut sibling_bytes = 0;
    for link in &trunks {
        let stopped = net.lane(link.lane_id(0));
        assert!(stopped.is_stopped(), "STOP must hold without a GO");
        assert_eq!(
            stopped.stats().bytes_carried,
            0,
            "stopped lane {:?} carried data",
            stopped.id()
        );
        assert!(
            stopped.stall_time(DRAIN_UNTIL) > 0,
            "stall accounting missed the stopped interval"
        );
        sibling_bytes += net.lane(link.lane_id(1)).stats().bytes_carried;
    }
    assert!(sibling_bytes > 0, "sibling lanes carried no traffic");
    assert!(
        !net.msgs.deliveries.is_empty(),
        "no deliveries with every trunk's sibling lane free"
    );
}

/// Multi-lane runs stay conservation-clean and deadlock-free: the same
/// operating point at 2 and 4 lanes delivers at least as much as one lane
/// (capacity can only help), and the audit passes.
#[test]
fn multi_lane_delivers_no_less_than_single_lane() {
    let mut delivered = Vec::new();
    for lanes in [1u8, 2, 4] {
        let setup = setup_on(
            torus(4, 1),
            Scheme::Hc(HcConfig::store_and_forward()),
            SimMode::SpanBatched,
            lanes,
        );
        let mut net = build_network(&setup);
        let out = net.run_until(DRAIN_UNTIL);
        assert!(out.deadlock.is_none(), "lanes={lanes}: deadlock {out:?}");
        net.audit().expect("multi-lane conservation");
        delivered.push(out.stats.worms_delivered);
    }
    assert!(
        delivered.windows(2).all(|w| w[0] <= w[1]),
        "delivered worms decreased with more lanes: {delivered:?}"
    );
}
