//! One simulated sweep point: the timed region a user waits for, and the
//! simulated statistics and output checks taken from the same run.

use crate::clock::Stopwatch;
use crate::spans::Recorder;
use std::collections::HashMap;
use wormcast_bench::runner::{membership_of, SimSetup};
use wormcast_bench::trace_io::{expand_spans, validate_jsonl};
use wormcast_sim::network::{MessageLog, NetStats, RunOutcome};
use wormcast_sim::protocol::Destination;
use wormcast_sim::Network;
use wormcast_stats::latency::{latencies, Kind, LatencyReport};

/// The counters every engine mode, sink and shard count must reproduce:
/// all of `NetStats` but `events_*`, the one pair that measures engine cost.
fn simulated_counters(s: &NetStats) -> [u64; 9] {
    [
        s.worms_injected,
        s.sinks_injected,
        s.worms_delivered,
        s.worms_refused,
        s.worms_corrupt,
        s.worms_flushed,
        s.active_worms as u64,
        s.bytes_moved,
        s.messages_generated,
    ]
}

/// Simulated statistics of one point. Deterministic: two runs of the same
/// setup must produce equal `Sample`s, bit for bit.
#[derive(Clone, Debug)]
pub struct Sample {
    pub stats: NetStats,
    /// Creation→delivery time of every multicast delivery of a message
    /// created in the measurement window, ascending (a sharded run logs the
    /// same deliveries in another order).
    pub mcast_latencies: Vec<u64>,
    pub unicast_latency_sum: u64,
    pub unicast_deliveries: u64,
    /// Application payload bytes delivered for window messages.
    pub payload_delivered: u64,
    /// Deliveries expected for window messages (1 per unicast, one per
    /// other member per multicast).
    pub expected_deliveries: u64,
    /// Lines of the expanded canonical trace (0 without a sink).
    pub trace_lines: u64,
}

impl PartialEq for Sample {
    fn eq(&self, other: &Sample) -> bool {
        self.same_simulation(other)
            && self.stats.events_scheduled == other.stats.events_scheduled
            && self.stats.events_fired == other.stats.events_fired
            && self.trace_lines == other.trace_lines
    }
}

impl Sample {
    pub fn observed_deliveries(&self) -> u64 {
        self.mcast_latencies.len() as u64 + self.unicast_deliveries
    }

    /// Worms the network lost: refused, corrupt or flushed.
    pub fn lost_worms(&self) -> u64 {
        self.stats.worms_refused + self.stats.worms_corrupt + self.stats.worms_flushed
    }

    /// Equality on everything a different engine mode, sink or shard count
    /// must reproduce (all but `events_*` and the trace size).
    pub fn same_simulation(&self, other: &Sample) -> bool {
        simulated_counters(&self.stats) == simulated_counters(&other.stats)
            && self.mcast_latencies == other.mcast_latencies
            && self.unicast_latency_sum == other.unicast_latency_sum
            && self.unicast_deliveries == other.unicast_deliveries
            && self.payload_delivered == other.payload_delivered
            && self.expected_deliveries == other.expected_deliveries
    }
}

/// What the timed region produced, before the sample is extracted.
pub struct Region {
    pub cpu_s: f64,
    pub wall_s: f64,
    pub outcome: RunOutcome,
    pub multicast: LatencyReport,
    pub unicast: LatencyReport,
    /// Span id of `network.run_until` (for aggregate children).
    pub run_span: usize,
    pub raw_trace_bytes: u64,
    pub trace_lines: u64,
    pub failures: Vec<String>,
}

/// The timed region: `run_until(drain_until)` + `audit()` + report
/// extraction, and for a traced setup also `to_jsonl` + `expand_spans` +
/// `validate_jsonl`, which a user who wants a trace waits for. With a
/// disabled recorder no span is taken.
pub fn timed_region(net: &mut Network, setup: &SimSetup, rec: &mut Recorder) -> Region {
    let mut failures = Vec::new();
    let region = rec.open("point.timed_region");
    let watch = Stopwatch::start();

    let run_span = rec.open("network.run_until");
    let outcome = net.run_until(setup.drain_until);
    rec.close(run_span);

    if let Err(e) = rec.span("network.audit", || net.audit()) {
        failures.push(format!("audit: {e}"));
    }
    let (multicast, unicast) = rec.span("stats.latencies", || {
        let (from, until) = (setup.warmup, setup.generate_until);
        (
            latencies(&net.msgs, Kind::Multicast, from, until, None),
            latencies(&net.msgs, Kind::Unicast, from, until, None),
        )
    });
    std::hint::black_box(net.mean_host_tx_utilization(setup.drain_until));

    let (mut raw_trace_bytes, mut trace_lines) = (0, 0);
    if net.trace.enabled() {
        let raw = rec.span("trace.to_jsonl", || net.trace.to_jsonl());
        let expanded = rec.span("trace_io.expand_spans", || expand_spans(&raw));
        let violations = rec.span("trace_io.validate_jsonl", || validate_jsonl(&expanded));
        if !violations.is_empty() {
            failures.push(format!(
                "expanded trace has {} schema violations, first: {:?}",
                violations.len(),
                violations[0]
            ));
        }
        raw_trace_bytes = raw.len() as u64;
        trace_lines = expanded.lines().count() as u64;
    }

    let (cpu_s, wall_s) = watch.elapsed();
    rec.close(region);

    if let Some(d) = &outcome.deadlock {
        failures.push(format!("deadlock: {d}"));
    }
    if net.trace.dropped() != 0 {
        failures.push(format!("trace dropped {} events", net.trace.dropped()));
    }
    Region {
        cpu_s,
        wall_s,
        outcome,
        multicast,
        unicast,
        run_span,
        raw_trace_bytes,
        trace_lines,
        failures,
    }
}

/// Extract the simulated statistics of a finished run from its message log
/// and counters (outside the timed region).
pub fn extract(msgs: &MessageLog, stats: &NetStats, setup: &SimSetup, trace_lines: u64) -> Sample {
    let membership = membership_of(&setup.groups);
    // Window messages: id → (created, multicast?, payload).
    let mut window: HashMap<u64, (u64, bool, u32)> = HashMap::new();
    let mut expected = 0u64;
    for rec in &msgs.created {
        if rec.created < setup.warmup || rec.created >= setup.generate_until {
            continue;
        }
        let mcast = match rec.dest {
            Destination::Unicast(_) => {
                expected += 1;
                false
            }
            Destination::Multicast(g) => {
                expected += membership.expected_deliveries(g, rec.origin) as u64;
                true
            }
        };
        window.insert(rec.msg.0, (rec.created, mcast, rec.payload_len));
    }
    let mut s = Sample {
        stats: stats.clone(),
        mcast_latencies: Vec::new(),
        unicast_latency_sum: 0,
        unicast_deliveries: 0,
        payload_delivered: 0,
        expected_deliveries: expected,
        trace_lines,
    };
    for d in &msgs.deliveries {
        let Some(&(created, mcast, payload)) = window.get(&d.msg.0) else {
            continue;
        };
        let latency = d.at - created;
        s.payload_delivered += payload as u64;
        if mcast {
            s.mcast_latencies.push(latency);
        } else {
            s.unicast_latency_sum += latency;
            s.unicast_deliveries += 1;
        }
    }
    s.mcast_latencies.sort_unstable();
    s
}

/// Cross-check a sample against `stats::latency`'s report of the same run:
/// two independent readings of one message log must agree. Returns what
/// does not.
fn cross_check(s: &Sample, multicast: &LatencyReport, unicast: &LatencyReport) -> Vec<String> {
    let mut failures = Vec::new();
    let mut agree = |what: &str, n: u64, sum: u64, report: &LatencyReport| {
        let mean = if n == 0 { 0.0 } else { sum as f64 / n as f64 };
        if report.deliveries as u64 != n
            || (report.per_delivery.mean - mean).abs() > 1e-6 * mean.max(1.0)
        {
            failures.push(format!(
                "{what}: stats::latency reports {} deliveries, mean {}; the message log gives {n}, mean {mean}",
                report.deliveries, report.per_delivery.mean
            ));
        }
    };
    let mcast_n = s.mcast_latencies.len() as u64;
    agree(
        "multicast",
        mcast_n,
        s.mcast_latencies.iter().sum(),
        multicast,
    );
    agree(
        "unicast",
        s.unicast_deliveries,
        s.unicast_latency_sum,
        unicast,
    );
    if s.observed_deliveries() > s.expected_deliveries {
        failures.push(format!(
            "{} deliveries observed, only {} expected",
            s.observed_deliveries(),
            s.expected_deliveries
        ));
    }
    if mcast_n == 0 || s.unicast_deliveries == 0 {
        failures.push("a window without multicast or unicast deliveries".into());
    }
    failures
}

/// One point: what its timed region produced and its simulated statistics.
pub struct Point {
    pub region: Region,
    pub sample: Sample,
}

impl Point {
    /// Append this point's failed checks to `out`, each prefixed with `what`.
    pub fn failures_into(&self, what: &str, out: &mut Vec<String>) {
        out.extend(self.region.failures.iter().map(|f| format!("{what}: {f}")));
    }
}

/// Run the timed region on a built network under `rec`, then sample the run
/// and cross-check the sample.
pub fn measure(mut net: Network, setup: &SimSetup, rec: &mut Recorder) -> (Network, Point) {
    let mut region = timed_region(&mut net, setup, rec);
    let sample = extract(&net.msgs, &region.outcome.stats, setup, region.trace_lines);
    let disagreements = cross_check(&sample, &region.multicast, &region.unicast);
    region.failures.extend(disagreements);
    (net, Point { region, sample })
}

/// One point through the runner's own path, uninstrumented.
pub fn run(setup: &SimSetup) -> Point {
    let net = wormcast_bench::runner::build_network(setup);
    measure(net, setup, &mut Recorder::disabled()).1
}
