//! The layer run: one instrumented repetition of one workload, in which the
//! benchmark's own files record spans and counts around the calls into each
//! layer's public functions. Its times are never end-to-end metrics; the
//! cost of the spans themselves is `host.layer_run_overhead_ratio`.
//!
//! Four phases, each a top-level span:
//! * `layer.point`: point 0 of the run, set up stage by stage and run with
//!   counting protocols, against its uninstrumented twin;
//! * `layer.trace_probe`: the workload's setup at its shorter probe windows,
//!   untraced then with an in-memory sink (for `torus_traced` the probe
//!   windows are the workload's own);
//! * `layer.shard_probe`: the untraced probe again on two shards;
//! * `layer.micro`: the timing wheel and the traffic source driven alone.

use crate::clock;
use crate::decorator::{install_counting, CallbackCounters, KINDS};
use crate::point::{self, extract, measure, Point};
use crate::run::{operations, RunResult, CONTENDED};
use crate::spans::Recorder;
use crate::workloads::{sub_seed, Workload};
use std::sync::Arc;
use wormcast_bench::runner::{build_network, build_sharded, membership_of, SimSetup};
use wormcast_bench::schemes::Scheme;
use wormcast_sim::engine::HostId;
use wormcast_sim::network::NetworkConfig;
use wormcast_sim::protocol::TrafficSource;
use wormcast_sim::trace::TraceConfig;
use wormcast_sim::wheel::TimingWheel;
use wormcast_sim::Network;
use wormcast_stats::blocking::blocked_times;
use wormcast_topo::hostgraph::HostGraph;
use wormcast_topo::UpDown;
use wormcast_traffic::workload::{install_paper_sources, PaperSource};

type Metrics = Vec<(&'static str, f64)>;

/// Set the point up stage by stage, as `runner::build_network` does in one
/// call, with a span around each stage and counting protocols installed.
fn staged_build(
    w: &Workload,
    setup: &SimSetup,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> (Network, Arc<CallbackCounters>) {
    let (topo, spec) = rec.span("topo.build", || {
        let topo = w.topology();
        let spec = topo.to_fabric_spec();
        (topo, spec)
    });
    let groups = rec.span("traffic.groups", || w.groups(setup.seed));
    let (updown, routes) = rec.span("topo.updown", || {
        let ud = UpDown::compute(&topo, setup.updown_root);
        let routes = ud.route_table(&topo, false);
        (ud, routes)
    });
    let graph = rec.span("topo.hostgraph", || HostGraph::from_routes(&routes));
    let cfg = NetworkConfig::builder()
        .seed(setup.seed)
        .mode(setup.mode)
        .trace(setup.trace)
        .build()
        .expect("the workload's network configuration is valid");
    let mut net = rec.span("network.build", || Network::build(&spec, routes, cfg));
    let membership = membership_of(&groups);
    // Only the tree scheme's installation builds trees.
    let trees = match w.scheme {
        Scheme::Tree(..) => rec.span("topo.trees", || w.scheme.build_trees(&membership, &graph)),
        _ => Arc::default(),
    };
    let counters = Arc::new(CallbackCounters::default());
    rec.span("network.install", || {
        install_counting(&w.scheme, &mut net, &membership, &trees, &counters);
        let mut traffic = w.traffic();
        traffic.stop_at = Some(setup.generate_until);
        install_paper_sources(&mut net, traffic, &Arc::new(groups), setup.seed);
    });
    m.push(("topo.mean_hops", updown.mean_hops(&topo, false)));
    (net, counters)
}

/// Counters the `link` and `adapter` layers keep, read after the run.
fn link_and_adapter_metrics(net: &Network, elapsed: u64, m: &mut Metrics) {
    let lanes = net.lanes();
    let n = lanes.len() as f64;
    let util: Vec<f64> = lanes.iter().map(|l| l.utilization(elapsed)).collect();
    let stall: Vec<f64> = lanes.iter().map(|l| l.stall_fraction(elapsed)).collect();
    let sum_u64 = |f: fn(&wormcast_sim::link::LinkStats) -> u64| -> f64 {
        lanes.iter().map(|l| f(&l.stats())).sum::<u64>() as f64
    };
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    m.push(("link.bytes_carried", sum_u64(|s| s.bytes_carried)));
    m.push(("link.util_mean", util.iter().sum::<f64>() / n));
    m.push(("link.util_max", max(&util)));
    m.push(("link.stall_frac_mean", stall.iter().sum::<f64>() / n));
    m.push(("link.stall_frac_max", max(&stall)));
    m.push(("link.stop_intervals", sum_u64(|s| s.stalls)));
    m.push(("link.idles_carried", sum_u64(|s| s.idles_carried)));

    let a = &net.adapters;
    let total = |f: fn(&wormcast_sim::adapter::AdapterCounters) -> u64| -> f64 {
        a.iter().map(|x| f(&x.counters)).sum::<u64>() as f64
    };
    m.push(("adapter.worms_sent", total(|c| c.worms_sent)));
    m.push(("adapter.worms_received", total(|c| c.worms_received)));
    m.push(("adapter.worms_refused", total(|c| c.worms_refused)));
    m.push(("adapter.bytes_sent", total(|c| c.bytes_sent)));
    m.push((
        "adapter.tx_backlog_max_end",
        a.iter().map(|x| x.tx_backlog()).max().unwrap_or(0) as f64,
    ));
    m.push((
        "adapter.host_tx_util_mean",
        net.mean_host_tx_utilization(elapsed),
    ));
}

/// CPU nanoseconds per push+pop pair of a `TimingWheel<u64>` in steady
/// state (64 entries pending), each entry re-pushed `delta` slots ahead.
fn wheel_push_pop_ns(pairs: u64, delta: std::ops::RangeInclusive<u64>) -> f64 {
    let span = delta.end() - delta.start() + 1;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next_delta = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        delta.start() + x % span
    };
    let mut wheel = TimingWheel::<u64>::new();
    for i in 0..64 {
        wheel.push(next_delta(), i);
    }
    let t0 = clock::cpu_ns();
    for _ in 0..pairs {
        let (t, item) = wheel.pop().expect("the wheel never empties");
        wheel.push(t + next_delta(), item);
    }
    let dt = clock::cpu_ns() - t0;
    std::hint::black_box(wheel.len());
    dt as f64 / pairs as f64
}

/// CPU nanoseconds per `PaperSource::next`, driven alone.
fn source_next_ns(w: &Workload, seed: u64) -> f64 {
    const DRAWS: u64 = 1_000_000;
    let hosts = w.topology().num_hosts();
    let mut src = PaperSource::new(
        w.traffic(),
        Arc::new(w.groups(seed)),
        hosts,
        seed,
        HostId(0),
    );
    let mut now = 0;
    let t0 = clock::cpu_ns();
    for _ in 0..DRAWS {
        let (msg, gap) = src.next(now, HostId(0));
        now += gap.expect("an unbounded source always schedules its next draw");
        std::hint::black_box(msg);
    }
    (clock::cpu_ns() - t0) as f64 / DRAWS as f64
}

/// The workload's setup at its probe windows with the given sink, built by
/// the runner and measured under `rec`.
fn probe(w: &Workload, seed0: u64, trace: TraceConfig, rec: &mut Recorder) -> (Network, Point) {
    let setup = w.setup(seed0, w.probe, w.mode, trace);
    measure(build_network(&setup), &setup, rec)
}

/// What the later phases need from `layer.point`.
struct PointPhase {
    point: Point,
    run_span: usize,
    run_cpu_s: f64,
}

/// Point 0, set up stage by stage and run with counting protocols, against
/// its uninstrumented twin.
fn point_phase(
    w: &Workload,
    seed0: u64,
    rec: &mut Recorder,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) -> PointPhase {
    let phase = rec.open("layer.point");
    let setup = w.point(seed0);
    let (net, counters) = staged_build(w, &setup, rec, m);
    let (net, point) = measure(net, &setup, rec);
    let run_span = point.region.run_span;
    let clock_cost = clock::thread_clock_cost_ns();
    for (k, kind) in KINDS.iter().enumerate() {
        let (calls, ns) = (counters.calls_of(k), counters.cpu_ns_of(k, clock_cost));
        rec.aggregate(run_span, &format!("core.{kind}"), calls, ns);
    }
    rec.close(phase);
    point.failures_into("instrumented point", failures);

    let twin = point::run(&setup);
    twin.failures_into("uninstrumented twin", failures);
    if twin.sample != point.sample {
        failures
            .push("the staged, decorated point does not reproduce the runner's counters".into());
    }
    let (region, sample) = (&point.region, &point.sample);
    let wall_per_cpu = region.wall_s / region.cpu_s;
    if wall_per_cpu > CONTENDED {
        eprintln!(
            "warning: {} layer run: wall/CPU = {wall_per_cpu:.2} (> {CONTENDED}); the machine is contended",
            w.name
        );
    }
    m.push(("host.wall_per_cpu", wall_per_cpu));
    m.push((
        "host.layer_run_overhead_ratio",
        region.cpu_s / twin.region.cpu_s,
    ));

    for (metric, span) in [
        ("topo.build_s", "topo.build"),
        ("topo.updown_s", "topo.updown"),
        ("topo.hostgraph_s", "topo.hostgraph"),
        ("topo.trees_s", "topo.trees"),
        ("traffic.groups_s", "traffic.groups"),
        ("network.build_s", "network.build"),
        ("network.install_s", "network.install"),
        ("network.audit_s", "network.audit"),
        ("stats.latencies_s", "stats.latencies"),
    ] {
        m.push((metric, rec.cpu_s_in(phase, span)));
    }
    let stats = &region.outcome.stats;
    let run = rec.get(run_span);
    let run_cpu_s = run.cpu_s();
    m.push((
        "traffic.messages_generated",
        stats.messages_generated as f64,
    ));
    m.push(("network.run_cpu_s", run_cpu_s));
    m.push(("network.run_wall_s", run.wall_s()));
    m.push(("network.events_scheduled", stats.events_scheduled as f64));
    m.push(("network.events_fired", stats.events_fired as f64));
    m.push(("network.bytes_moved", stats.bytes_moved as f64));
    m.push((
        "network.cpu_ns_per_event",
        run_cpu_s * 1e9 / stats.events_fired as f64,
    ));
    m.push((
        "network.bytes_per_event",
        stats.bytes_moved as f64 / stats.events_fired as f64,
    ));
    m.push((
        "stats.mcast_deliveries",
        sample.mcast_latencies.len() as f64,
    ));
    m.push(("stats.unicast_deliveries", sample.unicast_deliveries as f64));
    link_and_adapter_metrics(&net, setup.drain_until, m);
    let call_metrics = [
        "core.on_generate_calls",
        "core.on_header_calls",
        "core.on_worm_received_calls",
        "core.on_tx_complete_calls",
        "core.on_timer_calls",
    ];
    for (k, name) in call_metrics.into_iter().enumerate() {
        m.push((name, counters.calls_of(k) as f64));
    }
    let generated = counters.calls_of(0).max(1) as f64;
    m.push((
        "core.commands_per_message",
        counters.commands() as f64 / generated,
    ));
    let callback_ns = counters.total_cpu_ns(clock_cost) as f64;
    m.push(("core.callback_cpu_s", callback_ns * 1e-9));
    m.push((
        "core.callback_ns_mean",
        callback_ns / counters.total_calls().max(1) as f64,
    ));
    PointPhase {
        point,
        run_span,
        run_cpu_s,
    }
}

/// The workload's setup at its probe windows, untraced then with an
/// in-memory sink. Returns the untraced probe and the span it ran under, the
/// sequential reference of the shard probe.
fn trace_probe(
    w: &Workload,
    seed0: u64,
    rec: &mut Recorder,
    m: &mut Metrics,
    failures: &mut Vec<String>,
) -> (Point, usize) {
    let phase = rec.open("layer.trace_probe");
    let untraced_phase = rec.open("probe.untraced");
    let untraced = probe(w, seed0, TraceConfig::Off, rec).1;
    rec.close(untraced_phase);
    let traced_phase = rec.open("probe.traced");
    let (net, traced) = probe(w, seed0, TraceConfig::Memory, rec);
    rec.close(traced_phase);
    rec.close(phase);
    untraced.failures_into("untraced probe", failures);
    traced.failures_into("traced probe", failures);
    if !traced.sample.same_simulation(&untraced.sample) {
        failures.push("the traced probe's statistics differ from the untraced probe's".into());
    }
    let recorded = net.trace.len() as f64;
    let lines_out = traced.sample.trace_lines as f64;
    m.push(("trace.events_recorded", recorded));
    m.push(("trace.dropped", net.trace.dropped() as f64));
    m.push((
        "trace.record_overhead_ratio",
        rec.cpu_s_in(traced_phase, "network.run_until")
            / rec.cpu_s_in(untraced_phase, "network.run_until"),
    ));
    m.push((
        "trace.to_jsonl_s",
        rec.cpu_s_in(traced_phase, "trace.to_jsonl"),
    ));
    m.push(("trace.raw_bytes", traced.region.raw_trace_bytes as f64));
    m.push((
        "trace_io.expand_s",
        rec.cpu_s_in(traced_phase, "trace_io.expand_spans"),
    ));
    m.push((
        "trace_io.validate_s",
        rec.cpu_s_in(traced_phase, "trace_io.validate_jsonl"),
    ));
    m.push(("trace_io.lines_out", lines_out));
    m.push(("trace_io.kept_ratio", lines_out / recorded.max(1.0)));
    let blocked = blocked_times(&net.trace);
    let mut every_cause = blocked.stop.clone();
    every_cause.merge(&blocked.output_busy);
    every_cause.merge(&blocked.branch_wait);
    m.push(("switch.blocked_stop_count", blocked.stop.count() as f64));
    m.push((
        "switch.blocked_output_busy_count",
        blocked.output_busy.count() as f64,
    ));
    m.push(("switch.blocked_bt_mean", every_cause.mean()));
    m.push(("switch.blocked_bt_p99", every_cause.quantile(0.99) as f64));
    m.push(("switch.unresolved", blocked.unresolved as f64));
    (untraced, untraced_phase)
}

/// The untraced probe again, on two shards, against its sequential run.
fn shard_probe(
    w: &Workload,
    seed0: u64,
    rec: &mut Recorder,
    m: &mut Metrics,
    failures: &mut Vec<String>,
    (sequential, sequential_phase): (&Point, usize),
) -> Result<(), String> {
    let phase = rec.open("layer.shard_probe");
    let mut setup = w.setup(seed0, w.probe, w.mode, TraceConfig::Off);
    setup.shards = 2;
    setup.shard_plan = Some(w.two_shard_plan());
    let mut sharded = rec.span("shard.build", || build_sharded(&setup))?;
    let run_span = rec.open("shard.run_until");
    let outcome = sharded.run_until(setup.drain_until);
    rec.close(run_span);
    rec.close(phase);
    if let Err(e) = sharded.audit() {
        failures.push(format!("2-shard probe: audit: {e}"));
    }
    if outcome.deadlock.is_some() {
        failures.push("2-shard probe: deadlock".into());
    }
    let sample = extract(&sharded.msgs(), &outcome.stats, &setup, 0);
    let counters_match = sample.same_simulation(&sequential.sample);
    if !counters_match {
        failures.push("the 2-shard probe does not reproduce the sequential counters".into());
    }
    let run = rec.get(run_span);
    let sequential_wall_s = rec
        .find_in(sequential_phase, "network.run_until")
        .map_or(0.0, |s| s.wall_s());
    m.push(("shard.build_s", rec.cpu_s_in(phase, "shard.build")));
    m.push(("shard.run_wall_s", run.wall_s()));
    m.push(("shard.run_cpu_s", run.cpu_s()));
    m.push((
        "shard.event_inflation",
        outcome.stats.events_fired as f64 / sequential.region.outcome.stats.events_fired as f64,
    ));
    m.push(("shard.counters_match", f64::from(u8::from(counters_match))));
    m.push((
        "shard.wall_speedup_vs_seq",
        sequential_wall_s / run.wall_s(),
    ));
    if clock::cpus() < 4 {
        eprintln!(
            "note: {}: shard.wall_speedup_vs_seq is unresolved on {} cpus (two spinning workers need 4 dedicated cores)",
            w.name,
            clock::cpus()
        );
    }
    Ok(())
}

/// The wheel and the traffic source, driven alone.
fn micro_phase(w: &Workload, seed0: u64, rec: &mut Recorder, m: &mut Metrics, point: &PointPhase) {
    let phase = rec.open("layer.micro");
    let near = rec.span("wheel.near", || wheel_push_pop_ns(2_000_000, 1..=64));
    let far = rec.span("wheel.far", || wheel_push_pop_ns(1_000_000, 1000..=3000));
    let overflow = rec.span("wheel.overflow", || {
        wheel_push_pop_ns(1_000_000, 5000..=20_000)
    });
    let next_ns = rec.span("traffic.source_next", || source_next_ns(w, seed0));
    rec.close(phase);
    let stats = &point.point.region.outcome.stats;
    m.push(("wheel.near_push_pop_ns", near));
    m.push(("wheel.far_push_pop_ns", far));
    m.push(("wheel.overflow_push_pop_ns", overflow));
    m.push((
        "wheel.share_est",
        near * 1e-9 * stats.events_fired as f64 / point.run_cpu_s,
    ));
    m.push(("traffic.source_next_ns", next_ns));

    // The source's draws inside the run are too short to span one by one
    // and cannot be wrapped from outside; their total is the standalone
    // cost per draw times the draws made.
    rec.aggregate(
        point.run_span,
        "traffic.source_next(estimated)",
        stats.messages_generated,
        (next_ns * stats.messages_generated as f64) as u64,
    );
    m.push(("network.self_cpu_s", rec.self_cpu_s(point.run_span)));
}

pub fn layer_run(w: &Workload, seed: u64, out_dir: &str) -> Result<RunResult, String> {
    let mut rec = Recorder::new(w.name, 0);
    let mut m: Metrics = Vec::new();
    let mut failures = Vec::new();
    let seed0 = sub_seed(seed, 0);
    m.push(("host.cpus", clock::cpus() as f64));
    m.push(("host.calib_ns", clock::calib_ns()));

    let point = point_phase(w, seed0, &mut rec, &mut m, &mut failures);
    let (untraced, untraced_phase) = trace_probe(w, seed0, &mut rec, &mut m, &mut failures);
    shard_probe(
        w,
        seed0,
        &mut rec,
        &mut m,
        &mut failures,
        (&untraced, untraced_phase),
    )?;
    micro_phase(w, seed0, &mut rec, &mut m, &point);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;
    let path = format!("{out_dir}/spans.{}.jsonl", w.name);
    std::fs::write(&path, rec.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;

    // Manifest order, every per-layer metric exactly once.
    let metrics: Metrics = crate::schema::PER_LAYER
        .iter()
        .map(|p| {
            let mut hits = m.iter().filter(|(n, _)| *n == p.name);
            let value = hits
                .next()
                .unwrap_or_else(|| panic!("layer run took no {}", p.name))
                .1;
            assert!(hits.next().is_none(), "layer run took {} twice", p.name);
            (p.name, value)
        })
        .collect();
    assert_eq!(
        metrics.len(),
        m.len(),
        "layer run took a metric the schema does not list"
    );

    let (attempted, mut failed) = operations(w, std::slice::from_ref(&point.point));
    if !failures.is_empty() {
        failed = attempted;
    }
    Ok(RunResult {
        metrics,
        attempted,
        failed,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Windows};

    /// The pass-through decorator and the staged set-up change nothing: a
    /// decorated 20k-byte-time run equals the undecorated one, counter for
    /// counter and latency for latency, on a tree and on a circuit scheme.
    #[test]
    fn decorated_run_equals_undecorated_run() {
        for name in ["torus_light", "torus_saturated"] {
            let mut w = workloads::by_name(name).expect("workload");
            w.windows = Windows {
                warmup: 4_000,
                measure: 12_000,
                drain: 4_000,
            };
            let setup = w.point(sub_seed(3, 0));
            let mut rec = Recorder::new(name, 0);
            let mut m = Vec::new();
            let (net, counters) = staged_build(&w, &setup, &mut rec, &mut m);
            let decorated = measure(net, &setup, &mut rec).1;
            let plain = point::run(&setup);
            assert!(
                decorated.region.failures.is_empty(),
                "{name}: {:?}",
                decorated.region.failures
            );
            assert_eq!(decorated.sample, plain.sample, "{name}");
            assert_eq!(
                counters.calls_of(0),
                decorated.sample.stats.messages_generated,
                "{name}: one on_generate per message"
            );
            assert!(counters.commands() > 0);
        }
    }

    #[test]
    fn wheel_cost_is_positive_and_grows_with_pairs() {
        assert!(wheel_push_pop_ns(10_000, 1..=64) > 0.0);
        let t0 = clock::cpu_ns();
        wheel_push_pop_ns(50_000, 5000..=20_000);
        let short = clock::cpu_ns() - t0;
        let t0 = clock::cpu_ns();
        wheel_push_pop_ns(1_000_000, 5000..=20_000);
        assert!(
            clock::cpu_ns() - t0 > short,
            "black_box kept the loop alive"
        );
    }
}
