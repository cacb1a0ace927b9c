//! Shared test kit: the one per-byte ≡ span-batched differential harness
//! ([`assert_modes_agree`], and [`assert_equivalent`] over a `SimSetup`),
//! the minimal unicast protocol [`Echoless`], and the traffic-free
//! networks the scripted tests drive ([`line_fabric`], [`ring4`],
//! [`scripted_net`]).

#![allow(dead_code)] // each test binary uses its own subset

use wormcast::core::switchcast::SwitchcastVariant;
use wormcast::sim::adapter::AdapterCounters;
use wormcast::sim::deadlock::DeadlockReport;
use wormcast::sim::engine::HostId;
use wormcast::sim::link::Lane;
use wormcast::sim::network::{NetStats, SimMode};
use wormcast::sim::protocol::{AdapterProtocol, AppMessage, Destination, ProtocolCtx, SendSpec};
use wormcast::sim::trace::TraceConfig;
use wormcast::sim::worm::{WormInstance, WormKind};
use wormcast::sim::{Network, NetworkConfig};
use wormcast::topo::{TopoBuilder, Topology, UpDown};
use wormcast::traffic::workload::PaperWorkload;
use wormcast::traffic::{GroupSet, LengthDist};
use wormcast_bench::runner::{build_network, build_unloaded, SimSetup};
use wormcast_bench::trace_io::validate_jsonl;
use wormcast_bench::Scheme;

/// Minimal unicast protocol: send on generate, deliver on receive (the
/// paper's protocols live in `wormcast::core`).
pub struct Echoless;

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

/// A line of `n` switches joined by `delay`-byte-time trunks, host `h` on
/// switch `hosts_on[h]` behind a 1-byte-time link, routed up/down (on a
/// line, the only routes there are), [`Echoless`] on every host. A
/// switch's first port is its trunk to the left (to the right on switch
/// 0), its next the trunk to the right. Trunk `s`–`s+1` is lanes `2s`
/// (rightward) and `2s + 1`; host `h`'s uplink is lane `2(n − 1) + 2h`,
/// its downlink the next.
pub fn line_fabric(n: usize, delay: u64, hosts_on: &[usize], cfg: NetworkConfig) -> Network {
    let mut b = TopoBuilder::new(n);
    for s in 1..n {
        b.link(s - 1, s, delay);
    }
    for &s in hosts_on {
        b.host(s);
    }
    let topo = b.build();
    let routes = UpDown::compute(&topo, 0).route_table(&topo, false);
    let mut net = Network::build(&topo.to_fabric_spec(), routes, cfg);
    for h in 0..hosts_on.len() as u32 {
        net.set_protocol(HostId(h), Box::new(Echoless));
    }
    net
}

/// A ring of 4 switches, one host each on port 2. Link `i` joins switch
/// `i` (port 0 on switch 0, else port 1) to switch `i + 1` (port 0, or
/// port 1 on switch 0).
pub fn ring4() -> Topology {
    let mut b = TopoBuilder::new(4);
    for s in 0..4 {
        b.link(s, (s + 1) % 4, 1);
    }
    for s in 0..4 {
        b.host(s);
    }
    b.build()
}

/// `scheme` over `topo`, assembled as every experiment is, with one group
/// (`members`) and no traffic source: the caller scripts its messages.
pub fn scripted_net(
    topo: Topology,
    members: Vec<HostId>,
    scheme: Scheme,
    trace: TraceConfig,
) -> Network {
    let groups = GroupSet::from_members(topo.num_hosts(), vec![members]);
    let unused = PaperWorkload {
        offered_load: 0.0,
        multicast_prob: 0.0,
        lengths: LengthDist::Geometric { mean: 1 },
        stop_at: None,
    };
    let setup = SimSetup::builder(topo, groups, scheme, unused)
        .trace(trace)
        .build()
        .expect("valid setup");
    build_unloaded(&setup)
}

/// One scenario as [`assert_modes_agree`] found it: both engine modes'
/// traced networks at the deadline, and what the modes agreed on.
pub struct Twin {
    pub per_byte: Network,
    pub spans: Network,
    /// The runs drained by the deadline.
    pub drained: bool,
    /// The per-byte run's deadlock verdict (the span run reached one too).
    pub deadlock: Option<DeadlockReport>,
    /// Scheduled events of the per-byte and the span-batched run, traced
    /// or not (the two agree).
    pub events: (u64, u64),
}

/// The per-byte ≡ span-batched differential harness. Run `mk`'s scenario
/// to `deadline` under both engine modes, traced and untraced, and
/// require bit-identical observables:
/// - the raw JSONL (the span engine records nothing of its own), the
///   number of events the sink holds, and a schema-valid trace;
/// - sorted `(msg, host, time)` deliveries — sorted because batching k
///   simultaneous byte arrivals into one event legitimately permutes the
///   processing order *within* a tick, while the timestamps must match;
/// - `NetStats` with the engine-cost counters masked, and every lane's
///   statistics but `in_flight` and every adapter's counters;
/// - whether the runs drained, and whether they reached a deadlock
///   verdict; a clean conservation audit of every run.
///
/// Tracing must be a pure observer: the traced and untraced runs agree
/// too, down to the scheduled-event count (the fast path stays live with
/// a sink attached). Last, an untraced pair steps through the run in
/// lockstep, one byte-time at a time (`Network::advance_to`), and at
/// every horizon agrees on `bytes_moved` and on the same lane and adapter
/// counters: a deadline that falls inside a span counts only the
/// bytes whose slots have passed, and a byte that leaves or lands a
/// byte-time early shows even when a later event sets the delivery time.
/// Event counts come from the unstepped runs: each step schedules a
/// `Stop` of its own.
pub fn assert_modes_agree(
    mk: impl Fn(SimMode, TraceConfig) -> Network,
    deadline: u64,
    label: &str,
) -> Twin {
    let run = |mode, trace| {
        let mut net = mk(mode, trace);
        let out = net.run_until(deadline);
        net.audit()
            .unwrap_or_else(|e| panic!("{label} {mode:?}: conservation audit failed: {e}"));
        (net, out)
    };
    let (per_byte, out) = run(SimMode::PerByte, TraceConfig::Memory);
    let (spans, out_span) = run(SimMode::SpanBatched, TraceConfig::Memory);
    assert_eq!(
        (out.drained, out.deadlock.is_some()),
        (out_span.drained, out_span.deadlock.is_some()),
        "{label}: the engine modes disagree on (drained, deadlock verdict)"
    );
    assert_same_end(&per_byte, &spans, label, "traced");
    let (j_ref, j_span) = (per_byte.trace.to_jsonl(), spans.trace.to_jsonl());
    assert!(
        j_ref == j_span,
        "{label}: span-batched trace diverged from the per-byte trace\n{}",
        first_diff(&j_ref, &j_span)
    );
    assert!(!j_ref.is_empty(), "{label}: trace captured nothing");
    // The sink scales with lifecycle events, not engine events.
    assert_eq!(
        per_byte.trace.len(),
        spans.trace.len(),
        "{label}: the trace sink holds a different number of events per engine mode"
    );
    let violations = validate_jsonl(&j_span);
    assert!(
        violations.is_empty(),
        "{label}: trace violates the schema: {violations:?}"
    );

    let (off_ref, _) = run(SimMode::PerByte, TraceConfig::Off);
    let (off_span, _) = run(SimMode::SpanBatched, TraceConfig::Off);
    assert_same_end(&off_ref, &off_span, label, "untraced");
    assert_eq!(
        deliveries(&per_byte),
        deliveries(&off_ref),
        "{label}: attaching a trace sink changed the delivery records"
    );
    let events = (
        off_ref.stats.events_scheduled,
        off_span.stats.events_scheduled,
    );
    assert_eq!(
        (
            per_byte.stats.events_scheduled,
            spans.stats.events_scheduled
        ),
        events,
        "{label}: attaching a trace sink changed the engine's event counts"
    );

    let (mut a, mut b) = (
        mk(SimMode::PerByte, TraceConfig::Off),
        mk(SimMode::SpanBatched, TraceConfig::Off),
    );
    for t in 1..=deadline {
        a.advance_to(t);
        b.advance_to(t);
        if a.stats.bytes_moved != b.stats.bytes_moved || !same_counters(&a, &b) {
            assert_eq!(
                (a.stats.bytes_moved, counters(&a)),
                (b.stats.bytes_moved, counters(&b)),
                "{label}: (bytes_moved, {COUNTERS}) diverged at t={t}"
            );
        }
    }
    for (net, mode) in [(&a, SimMode::PerByte), (&b, SimMode::SpanBatched)] {
        net.audit().unwrap_or_else(|e| {
            panic!("{label} {mode:?}: conservation audit failed after stepping: {e}")
        });
        assert_eq!(
            deliveries(net),
            deliveries(&off_ref),
            "{label} {mode:?}: stepping the run changed the delivery records"
        );
    }
    Twin {
        per_byte,
        spans,
        drained: out.drained,
        deadlock: out.deadlock,
        events,
    }
}

/// [`assert_modes_agree`] over `mk`'s experiment, run as every experiment
/// is to its `drain_until`. Every caller routes up/down: a deadlock
/// verdict, in either mode, is a bug in the engine or in the wait-for
/// analysis — except under the IDLE-filling switch-level variants V1 and
/// V3, which can wedge as modelled (ROADMAP, "V1 and V3 wedge on the
/// paper's own torus"). There the verdict is one more observable both
/// modes must agree on. Returns the per-byte and span-batched
/// scheduled-event counts for callers that assert on cost.
pub fn assert_equivalent(mk: impl Fn() -> SimSetup, label: &str) -> (u64, u64) {
    let setup = mk();
    let build = |mode, trace| {
        let mut s = mk();
        s.mode = mode;
        s.trace = trace;
        build_network(&s)
    };
    let twin = assert_modes_agree(build, setup.drain_until, label);
    let may_wedge = matches!(
        setup.scheme,
        Scheme::Switch(SwitchcastVariant::RestrictedIdle | SwitchcastVariant::IdleFlush)
    );
    if let Some(report) = twin.deadlock.filter(|_| !may_wedge) {
        panic!("{label}: deadlock {report}");
    }
    twin.events
}

/// [`assert_modes_agree`] over scripted worms, which must drain by
/// `deadline` with no deadlock verdict.
pub fn assert_drains_alike(
    mk: impl Fn(SimMode, TraceConfig) -> Network,
    deadline: u64,
    label: &str,
) -> Twin {
    let twin = assert_modes_agree(mk, deadline, label);
    assert!(
        twin.drained,
        "{label}: the scripted worms drain by {deadline}"
    );
    if let Some(report) = &twin.deadlock {
        panic!("{label}: deadlock {report}");
    }
    twin
}

/// Sorted `(msg, host, time)` delivery triples.
pub fn deliveries(net: &Network) -> Vec<(u64, u32, u64)> {
    let mut out: Vec<(u64, u32, u64)> = net
        .msgs
        .deliveries
        .iter()
        .map(|d| (d.msg.0, d.host.0, d.at))
        .collect();
    out.sort_unstable();
    out
}

/// What [`counters`] holds, for failure messages.
const COUNTERS: &str =
    "((bytes_carried, idles_carried, stalls, stall_total, stopped) per lane, AdapterCounters per adapter)";

/// A lane's [`Lane::stats`] but `in_flight`, which counts a span's bytes
/// from its emission on.
type LaneCounters = (u64, u64, u64, u64, bool);

/// `lane`'s [`LaneCounters`].
fn lane_counters(lane: &Lane) -> LaneCounters {
    let s = lane.stats();
    (
        s.bytes_carried,
        s.idles_carried,
        s.stalls,
        s.stall_total,
        s.stopped,
    )
}

/// Every lane's [`lane_counters`] and every adapter's [`AdapterCounters`],
/// as the statistics readers see them.
fn counters(net: &Network) -> (Vec<LaneCounters>, Vec<AdapterCounters>) {
    (
        net.lanes().iter().map(lane_counters).collect(),
        net.adapters.iter().map(|a| a.counters.clone()).collect(),
    )
}

/// [`counters`] of both networks agree, compared without collecting: the
/// lockstep pair asks at every byte-time.
fn same_counters(a: &Network, b: &Network) -> bool {
    let (la, lb) = (a.lanes(), b.lanes());
    let (aa, ab) = (&a.adapters, &b.adapters);
    (0..la.len()).all(|i| lane_counters(&la[i]) == lane_counters(&lb[i]))
        && (0..aa.len()).all(|i| aa[i].counters == ab[i].counters)
}

/// Two modes' runs end alike: deliveries, byte counters, and `NetStats`
/// with the engine-cost counters (the one legitimately mode-dependent
/// pair) masked out.
fn assert_same_end(a: &Network, b: &Network, label: &str, what: &str) {
    assert_eq!(
        deliveries(a),
        deliveries(b),
        "{label}: {what} delivery records diverged between engine modes"
    );
    assert_eq!(
        counters(a),
        counters(b),
        "{label}: {what} {COUNTERS} diverged between engine modes"
    );
    assert_eq!(
        masked(&a.stats),
        masked(&b.stats),
        "{label}: {what} NetStats diverged between engine modes"
    );
}

fn masked(stats: &NetStats) -> String {
    format!("{:?}", stats.simulated())
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
