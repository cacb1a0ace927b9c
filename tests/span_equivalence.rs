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
use proptest::prelude::*;
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
    // (and STOP truncation) far larger than the torus case.
    let mk = || {
        let mut grng = host_stream(0x5EED1, 0x6111);
        let groups = GroupSet::random(24, 4, 6, &mut grng);
        setup_on(
            shufflenet24(1000),
            groups,
            Scheme::Hc(HcConfig::store_and_forward()),
            0.05,
            0x5EED1,
        )
        .windows(50_000, 150_000, 100_000)
    };
    let (e_ref, e_span) = assert_equivalent(mk, "shufflenet24");
    // A mean worm is over before its head has crossed one trunk, so the
    // clear-circuit case alone leaves the host links' 8-byte room in
    // charge (7× fewer events than per-byte); the drain windows the trunks
    // certify carry whole worms (46×; 60× with the route bytes in the spans).
    assert!(
        e_span * 25 < e_ref,
        "drain windows should carry whole worms onto the trunks: {e_ref} vs {e_span}"
    );
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random small irregular fabrics (the shape real Myrinet installs
    /// have): whatever the topology, both engine modes must agree.
    #[test]
    fn irregular_topologies_modes_agree(
        topo_seed in 0u64..1000,
        n_switches in 3usize..7,
        extra in 0usize..4,
        delay in 1u64..4,
        load_pct in 4u32..10,
    ) {
        let spec = IrregularSpec {
            num_switches: n_switches,
            extra_links: extra,
            hosts_per_switch: 2,
            link_delay: delay,
        };
        let nh = n_switches * 2;
        let mk = || {
            let mut grng = host_stream(topo_seed ^ 0xA5A5, 0x6131);
            let groups = GroupSet::random(nh, 2, 3.min(nh), &mut grng);
            setup_on(
                irregular(spec, topo_seed),
                groups,
                Scheme::Hc(HcConfig::store_and_forward()),
                load_pct as f64 / 100.0,
                topo_seed,
            )
            .windows(2_000, 12_000, 10_000)
        };
        assert_equivalent(mk, "irregular");
    }
}
