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

use proptest::prelude::*;
use wormcast::sim::network::{NetStats, SimMode};
use wormcast::sim::trace::TraceConfig;
use wormcast::topo::irregular::{irregular, IrregularSpec};
use wormcast::topo::shufflenet::shufflenet24;
use wormcast::topo::torus::torus;
use wormcast::topo::{TopoBuilder, Topology};
use wormcast_bench::fig10::figure_tree_scheme;
use wormcast_bench::runner::{build_network, SimSetup};
use wormcast_bench::trace_io::validate_jsonl;
use wormcast_bench::Scheme;
use wormcast_core::HcConfig;
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

/// Everything a run observably produces: sorted `(msg, host, time)`
/// delivery triples, the statistics block, the rendered JSONL lifecycle
/// trace and the number of events the sink holds. Deliveries are sorted
/// because batching k simultaneous byte arrivals into one event
/// legitimately permutes the processing order *within* a tick — the
/// timestamps themselves must still match bit-for-bit. The JSONL needs no such help: `to_jsonl` renders in the
/// canonical `(t, line)` order by contract.
type Observed = (Vec<(u64, u32, u64)>, NetStats, String, usize);

fn observe(mut setup: SimSetup, mode: SimMode, trace: TraceConfig) -> Observed {
    setup.mode = mode;
    setup.trace = trace;
    let mut net = build_network(&setup);
    let out = net.run_until(setup.drain_until);
    assert!(out.deadlock.is_none(), "{mode:?}: deadlock {out:?}");
    net.audit()
        .unwrap_or_else(|e| panic!("{mode:?}: conservation audit failed: {e}"));
    let mut deliveries: Vec<(u64, u32, u64)> = net
        .msgs
        .deliveries
        .iter()
        .map(|d| (d.msg.0, d.host.0, d.at))
        .collect();
    deliveries.sort_unstable();
    (
        deliveries,
        net.stats.clone(),
        net.trace.to_jsonl(),
        net.trace.len(),
    )
}

/// Statistics equality with the engine-cost counters (the one
/// legitimately mode-dependent pair) masked out.
fn assert_stats_eq(mut a: NetStats, mut b: NetStats, label: &str, what: &str) {
    a.events_scheduled = 0;
    a.events_fired = 0;
    b.events_scheduled = 0;
    b.events_fired = 0;
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "{label}: {what} NetStats diverged between engine modes"
    );
}

/// Run `setup` under both modes, traced and untraced, and require
/// bit-identical observables — the raw JSONL included: the span engine
/// records nothing of its own, so the sink holds the same events in both
/// modes. Tracing itself must be a pure observer: the traced and untraced
/// runs must agree too, down to the scheduled-event count (the fast path
/// stays live with a sink attached). Returns the per-byte and
/// span-batched scheduled-event counts for callers that assert on cost.
fn assert_equivalent(mk: impl Fn() -> SimSetup, label: &str) -> (u64, u64) {
    let (d_ref, s_ref, j_ref, n_ref) = observe(mk(), SimMode::PerByte, TraceConfig::Memory);
    let (d_span, s_span, j_span, n_span) = observe(mk(), SimMode::SpanBatched, TraceConfig::Memory);
    assert_eq!(
        d_ref, d_span,
        "{label}: traced delivery records diverged between engine modes"
    );
    assert!(
        j_ref == j_span,
        "{label}: span-batched trace diverged from the per-byte trace\n{}",
        first_diff(&j_ref, &j_span)
    );
    assert!(!j_ref.is_empty(), "{label}: trace captured nothing");
    // The sink scales with lifecycle events, not engine events.
    assert_eq!(
        n_ref, n_span,
        "{label}: the trace sink holds a different number of events per engine mode"
    );
    let violations = validate_jsonl(&j_span);
    assert!(
        violations.is_empty(),
        "{label}: trace violates the schema: {violations:?}"
    );
    let (e_traced_ref, e_traced_span) = (s_ref.events_scheduled, s_span.events_scheduled);
    assert_stats_eq(s_ref, s_span, label, "traced");

    let (d_off_ref, s_off_ref, _, _) = observe(mk(), SimMode::PerByte, TraceConfig::Off);
    let (d_off_span, s_off_span, _, _) = observe(mk(), SimMode::SpanBatched, TraceConfig::Off);
    assert_eq!(
        d_off_ref, d_off_span,
        "{label}: delivery records diverged between engine modes"
    );
    assert_eq!(
        d_ref, d_off_ref,
        "{label}: attaching a trace sink changed the delivery records"
    );
    let (e_ref, e_span) = (s_off_ref.events_scheduled, s_off_span.events_scheduled);
    assert_eq!(
        (e_traced_ref, e_traced_span),
        (e_ref, e_span),
        "{label}: attaching a trace sink changed the engine's event counts"
    );
    assert_stats_eq(s_off_ref, s_off_span, label, "untraced");
    (e_ref, e_span)
}

/// The first differing line of two JSONL streams, for a readable failure.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}:\n  per-byte: {la}\n  spans:    {lb}", i + 1);
        }
    }
    format!(
        "line counts differ: {} vs {}",
        a.lines().count(),
        b.lines().count()
    )
}

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
        assert!(
            e_span * 3 < e_ref,
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
    assert_equivalent(mk, "shufflenet24");
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
