//! Differential equivalence of the span-batched link engine.
//!
//! `SimMode::SpanBatched` is an engine optimisation, never a semantic mode:
//! running the same seeded workload under `PerByte` and `SpanBatched` must
//! produce bit-identical delivery records and network statistics — only the
//! `events_scheduled` / `events_fired` engine-cost counters may differ (the
//! whole point of the optimisation is that they do). These tests drive both
//! modes over the paper's three fabric families (8×8 torus, 24-node
//! shufflenet, the Myrinet testbed line) and over random irregular
//! topologies, then compare everything — including the rendered JSONL
//! lifecycle trace: a traced span-batched run keeps the fast path live
//! and records exactly the events of the per-byte run, so the raw JSONL
//! of the two modes is byte-identical (DESIGN.md §3.2).

mod common;

use common::assert_equivalent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wormcast::topo::irregular::{irregular, IrregularSpec};
use wormcast::topo::shufflenet::shufflenet24;
use wormcast::topo::torus::torus;
use wormcast::topo::{TopoBuilder, Topology};
use wormcast_bench::fig10::figure_tree_scheme;
use wormcast_bench::runner::SimSetup;
use wormcast_bench::Scheme;
use wormcast_core::HcConfig;
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

fn paper_workload(load: f64) -> PaperWorkload {
    PaperWorkload {
        offered_load: load,
        multicast_prob: 0.10,
        lengths: LengthDist::Geometric { mean: 400 },
        stop_at: None,
    }
}

fn setup_on(topo: Topology, groups: GroupSet, scheme: Scheme, load: f64, seed: u64) -> SimSetup {
    SimSetup::builder(topo, groups, scheme, paper_workload(load))
        .seed(seed)
        .build()
        .expect("valid setup")
}

#[test]
fn torus_modes_agree_and_spans_win() {
    // The Figure 10 fabric at a moderately loaded point, both headline
    // schemes. Also the cost claim: span batching must cut scheduled
    // events by a large factor here.
    for scheme in [Scheme::Hc(HcConfig::store_and_forward()), figure_tree_scheme()] {
        let mk = || {
            let mut grng = host_stream(0x5EED0, 0x6071);
            let groups = GroupSet::random(64, 10, 10, &mut grng);
            setup_on(torus(8, 1), groups, scheme, 0.06, 0x5EED0).windows(5_000, 25_000, 15_000)
        };
        // `assert_equivalent` pinned traced == untraced event counts, so
        // this also proves the fast path stayed live under tracing.
        let (e_ref, e_span) = assert_equivalent(mk, "torus8");
        // One span per hop once a worm's head is in its sink: ≈30× here.
        assert!(
            e_span * 15 < e_ref,
            "span batching too weak on the torus: {e_ref} -> {e_span}"
        );
    }
}

#[test]
fn torus_lanes2_traced_modes_agree() {
    // Two-lane links: STOP/GO lines carry the lane field, and the trace
    // must still match per-byte byte-for-byte.
    let mk = || {
        let mut grng = host_stream(0x5EED7, 0x6071);
        let groups = GroupSet::random(64, 10, 10, &mut grng);
        let mut s = setup_on(
            torus(8, 1),
            groups,
            Scheme::Hc(HcConfig::store_and_forward()),
            0.06,
            0x5EED7,
        )
        .windows(5_000, 25_000, 15_000);
        s.lanes = 2;
        s
    };
    assert_equivalent(mk, "torus8-lanes2");
}

#[test]
fn shufflenet_modes_agree() {
    // The Figure 11 fabric: 1000 byte-time links make in-flight windows
    // (and STOP truncation) far larger than the torus case. Worms longer
    // than a trunk's delay, and loads at which worms follow each other
    // back to back, fill a trunk's wire with the worm its receiver is
    // already forwarding. `gate` is the least factor by which spans must
    // cut the per-byte engine's events.
    for (mean, load, gate) in [(400, 0.05, 75), (1500, 0.05, 40), (400, 0.07, 60)] {
        let mk = || {
            let mut grng = host_stream(0x5EED1, 0x6111);
            let groups = GroupSet::random(24, 4, 6, &mut grng);
            let workload = PaperWorkload {
                lengths: LengthDist::Geometric { mean },
                ..paper_workload(load)
            };
            let scheme = Scheme::Hc(HcConfig::store_and_forward());
            SimSetup::builder(shufflenet24(1000), groups, scheme, workload)
                .seed(0x5EED1)
                .windows(50_000, 150_000, 100_000)
                .build()
                .expect("valid setup")
        };
        let label = format!("shufflenet24 mean={mean} load={load}");
        let (e_ref, e_span) = assert_equivalent(mk, &label);
        // A mean worm is over before its head has crossed one trunk, so
        // the clear-circuit case alone leaves the host links' 8-byte room
        // in charge (7× fewer events than per-byte at mean 400 and load
        // 0.05). The drain windows the trunks certify carry whole worms
        // onto them (60×, 25× at mean 1500, 44× at load 0.07). Where a
        // trunk's wire holds the worm its receiver forwards, the crossing
        // test's certain drain lets each run leave the receiver behind it.
        assert!(
            e_span * gate < e_ref,
            "{label}: spans should carry whole worms across the trunks: {e_ref} vs {e_span}"
        );
    }
}

#[test]
fn myrinet_testbed_modes_agree() {
    // The Figures 12/13 prototype testbed shape: a line of four switches,
    // two hosts each, delay-2 links — the topology the paper actually
    // measured. Cut-through stresses the follower pacing path.
    let testbed = || {
        let mut b = TopoBuilder::new(4);
        b.link(0, 1, 2);
        b.link(1, 2, 2);
        b.link(2, 3, 2);
        for sw in 0..4 {
            b.host(sw);
            b.host(sw);
        }
        b.build()
    };
    for scheme in [
        Scheme::Hc(HcConfig::cut_through()),
        Scheme::Hc(HcConfig::store_and_forward()),
    ] {
        let mk = || {
            let mut grng = host_stream(0x5EED2, 0x6121);
            let groups = GroupSet::random(8, 2, 4, &mut grng);
            setup_on(testbed(), groups, scheme, 0.10, 0x5EED2).windows(2_000, 20_000, 15_000)
        };
        assert_equivalent(mk, "myrinet-testbed");
    }
}

/// Random small irregular fabrics (the shape real Myrinet installs have):
/// whatever the topology, both engine modes must agree. Six seeded draws.
#[test]
fn irregular_topologies_modes_agree() {
    for case in 0..6 {
        let rng = &mut SmallRng::seed_from_u64(case);
        let topo_seed = rng.gen_range(0..1000u64);
        let n_switches = rng.gen_range(3..7usize);
        let spec = IrregularSpec {
            num_switches: n_switches,
            extra_links: rng.gen_range(0..4usize),
            hosts_per_switch: 2,
            link_delay: rng.gen_range(1..4u64),
        };
        let load = rng.gen_range(4..10u32) as f64 / 100.0;
        let nh = n_switches * 2;
        let mk = || {
            let mut grng = host_stream(topo_seed ^ 0xA5A5, 0x6131);
            let groups = GroupSet::random(nh, 2, 3.min(nh), &mut grng);
            let scheme = Scheme::Hc(HcConfig::store_and_forward());
            setup_on(irregular(spec, topo_seed), groups, scheme, load, topo_seed)
                .windows(2_000, 12_000, 10_000)
        };
        assert_equivalent(mk, &format!("irregular, case {case}: {spec:?} load {load}"));
    }
}
