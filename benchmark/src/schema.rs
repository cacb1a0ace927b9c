//! The benchmark's names: every metric with its unit, direction and bound,
//! and `BENCHMARK.json` generated from these tables (`manifest`
//! subcommand), so the manifest and the program cannot drift apart.

use crate::workloads;
use serde_json::Value;

/// `run_seconds` of the manifest: the `--seconds` at which a run times
/// `run::NOMINAL_POINTS` points.
pub const NOMINAL_SECONDS: u64 = 10;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read on. Host metrics are noisy and compared
/// against their bound; simulated metrics are deterministic, so two runs of
/// one seed must agree exactly and the bound only absorbs the difference
/// between seeds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    Host,
    Simulated,
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub clock: Clock,
    /// Listed in `BENCHMARK.json`, so the builder's driver gates on it. The
    /// driver compares medians over runs of *different* seeds; a metric
    /// whose value depends on the seed more than its bound allows would
    /// make that gate a coin toss, so it is reported by `all`, compared
    /// exactly by `compare` on equal seeds, and left out of the manifest.
    pub gated: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        clock: Clock::Host,
        gated: true,
    }
}

const fn simulated(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    gated: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        clock: Clock::Simulated,
        gated,
    }
}

/// The end-to-end metrics, per workload. A bound is at least three times the
/// widest spread seen over ten seeds on any workload (README, "Noise"); the
/// three latency metrics cannot meet that on the two short-window workloads
/// (spreads of 14–52 %) and are not gated.
pub const END_TO_END: [EndToEnd; 8] = [
    host("setup_s", "s", Better::Lower, 0.25),
    host("sim_byte_times_per_cpu_s", "bt/s", Better::Higher, 0.25),
    host("peak_rss_mib", "MiB", Better::Lower, 0.25),
    simulated("mcast_latency_mean_bt", "bt", Better::Lower, 0.25, false),
    simulated("mcast_latency_p99_bt", "bt", Better::Lower, 0.25, false),
    simulated("unicast_latency_mean_bt", "bt", Better::Lower, 0.25, false),
    simulated(
        "goodput_bytes_per_bt",
        "bytes/bt",
        Better::Higher,
        0.10,
        true,
    ),
    simulated("delivery_ratio", "fraction", Better::Higher, 0.10, true),
];

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics of the layer run, `<layer>.<metric>`. Counts of
/// work done carry "lower" (less work for the same simulation is the
/// cheaper engine); ratios of useful work carry "higher".
pub const PER_LAYER: [PerLayer; 71] = [
    lo("topo.build_s", "s"),
    lo("topo.updown_s", "s"),
    lo("topo.hostgraph_s", "s"),
    lo("topo.trees_s", "s"),
    lo("topo.mean_hops", "hops"),
    lo("traffic.groups_s", "s"),
    lo("traffic.source_next_ns", "ns"),
    hi("traffic.messages_generated", "count"),
    lo("network.build_s", "s"),
    lo("network.install_s", "s"),
    lo("network.run_cpu_s", "s"),
    lo("network.run_wall_s", "s"),
    lo("network.audit_s", "s"),
    lo("network.events_scheduled", "count"),
    lo("network.events_fired", "count"),
    hi("network.bytes_moved", "count"),
    lo("network.cpu_ns_per_event", "ns"),
    hi("network.bytes_per_event", "bytes"),
    lo("network.self_cpu_s", "s"),
    lo("wheel.near_push_pop_ns", "ns"),
    lo("wheel.far_push_pop_ns", "ns"),
    lo("wheel.overflow_push_pop_ns", "ns"),
    lo("wheel.share_est", "fraction"),
    hi("link.bytes_carried", "count"),
    hi("link.util_mean", "fraction"),
    hi("link.util_max", "fraction"),
    lo("link.stall_frac_mean", "fraction"),
    lo("link.stall_frac_max", "fraction"),
    lo("link.stop_intervals", "count"),
    lo("link.idles_carried", "count"),
    lo("switch.blocked_stop_count", "count"),
    lo("switch.blocked_output_busy_count", "count"),
    lo("switch.blocked_bt_mean", "bt"),
    lo("switch.blocked_bt_p99", "bt"),
    lo("switch.unresolved", "count"),
    hi("adapter.worms_sent", "count"),
    hi("adapter.worms_received", "count"),
    lo("adapter.worms_refused", "count"),
    hi("adapter.bytes_sent", "count"),
    lo("adapter.tx_backlog_max_end", "count"),
    hi("adapter.host_tx_util_mean", "fraction"),
    lo("core.on_generate_calls", "count"),
    lo("core.on_header_calls", "count"),
    lo("core.on_worm_received_calls", "count"),
    lo("core.on_tx_complete_calls", "count"),
    lo("core.on_timer_calls", "count"),
    lo("core.commands_per_message", "count"),
    lo("core.callback_cpu_s", "s"),
    lo("core.callback_ns_mean", "ns"),
    lo("trace.events_recorded", "count"),
    lo("trace.dropped", "count"),
    lo("trace.record_overhead_ratio", "ratio"),
    lo("trace.to_jsonl_s", "s"),
    lo("trace.raw_bytes", "bytes"),
    lo("trace_io.expand_s", "s"),
    lo("trace_io.validate_s", "s"),
    lo("trace_io.lines_out", "count"),
    hi("trace_io.kept_ratio", "ratio"),
    lo("shard.build_s", "s"),
    lo("shard.run_wall_s", "s"),
    lo("shard.run_cpu_s", "s"),
    lo("shard.event_inflation", "ratio"),
    hi("shard.counters_match", "count"),
    hi("shard.wall_speedup_vs_seq", "ratio"),
    lo("stats.latencies_s", "s"),
    hi("stats.mcast_deliveries", "count"),
    hi("stats.unicast_deliveries", "count"),
    hi("host.cpus", "count"),
    lo("host.calib_ns", "ns"),
    lo("host.wall_per_cpu", "ratio"),
    lo("host.layer_run_overhead_ratio", "ratio"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    end_to_end(name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

fn s(x: &str) -> Value {
    Value::Str(x.to_string())
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `BENCHMARK.json`, in the shape the builder's contract gives.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj(vec![
        (
            "command",
            Value::Array(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::U64(NOMINAL_SECONDS)),
        (
            "workloads",
            Value::Array(
                workloads::all()
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .filter(|m| m.gated)
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The vendored `serde_json` prints `Serialize` types, and its `Value` is
/// not one: this hands a finished tree to the printer.
pub struct Json(pub Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

pub fn manifest_text() -> String {
    let mut text = serde_json::to_string_pretty(&Json(manifest())).expect("serialize manifest");
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The builder's rule for a name: starts with a letter or digit, at most 64
    /// of letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    /// The builder's rule for a unit: at most 16 of letters, digits, `_`, `/`,
    /// `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn name_and_unit_rules() {
        for good in ["setup_s", "wheel.near_push_pop_ns", "9lives", "a-b.c_d"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "slash/name",
            "µs",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ms", "1/s", "bytes/bt", "%", "MiB"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "byte times", "bytes_per_byte_time", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(workloads::all().iter().map(|w| w.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
            assert_eq!(
                names.iter().filter(|m| m == &n).count(),
                1,
                "{n} used twice"
            );
            if let Some(u) = unit_of(n) {
                assert!(valid_unit(u), "{n}: {u}");
            }
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for w in workloads::all() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    /// The committed manifest is the generated one, byte for byte, so the
    /// names `result.json` is keyed by are the names `BENCHMARK.json` lists.
    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest_text(),
            "regenerate with the `manifest` subcommand"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
