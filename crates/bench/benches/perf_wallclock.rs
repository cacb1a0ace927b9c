//! Wall-clock engine throughput at the Figure 10 operating points.
//!
//! Event counts (`results/BENCH_engine.json`) prove the span engine
//! schedules less work; this bench proves the work is *faster*: it times
//! `Network::run_until` (network construction excluded) over the Fig 10
//! load sweep in both [`SimMode`]s and reports **simulated byte-times per
//! wall-clock second**.
//!
//! Writes `results/BENCH_wallclock.json`. Before/after comparisons of an
//! engine change are `benchmark compare`'s job (BENCHMARK.json), not this
//! file's.
//!
//! The run at load 0.08 doubles as a drift check: its counters must match
//! the checked-in `results/BENCH_engine.json` rows byte for byte.

use serde::Serialize;
use std::time::Instant;
use wormcast_bench::fig10::{self, Fig10Config};
use wormcast_bench::perf::{self, field_u64, machine_desc};
use wormcast_bench::runner;
use wormcast_sim::network::SimMode;

/// The sweep: a light, the reference (0.08, shared with BENCH_engine.json)
/// and a saturating Fig 10 load.
const LOADS: &[f64] = &[0.04, 0.08, 0.12];

/// Same windows as `BENCH_engine.json` so the 0.08 counters are comparable.
const CFG: Fig10Config = Fig10Config {
    loads: LOADS,
    warmup: 20_000,
    measure: 100_000,
    drain: 40_000,
    seed: 0xF1610,
};

#[derive(Serialize)]
struct PointRow {
    load: f64,
    scheme: String,
    mode: String,
    wall_seconds: f64,
    sim_byte_times: u64,
    sim_byte_times_per_sec: f64,
    events_scheduled: u64,
    events_fired: u64,
    bytes_moved: u64,
    worms_delivered: u64,
}

#[derive(Serialize)]
struct PhaseDump {
    machine: String,
    rows: Vec<PointRow>,
    /// Aggregate simulated byte-times per wall-clock second, per mode.
    per_byte_rate: f64,
    span_batched_rate: f64,
}

#[derive(Serialize)]
struct WallclockDump {
    experiment: String,
    loads: Vec<f64>,
    windows: (u64, u64, u64),
    /// Named `after` since the days this file also carried a `before`
    /// snapshot; `perf_shard` reads its rows under that key.
    after: PhaseDump,
}

fn mode_name(mode: SimMode) -> &'static str {
    match mode {
        SimMode::PerByte => "per_byte",
        SimMode::SpanBatched => "span_batched",
    }
}

fn measure_phase() -> PhaseDump {
    let sim_horizon = CFG.warmup + CFG.measure + CFG.drain;
    let mut rows = Vec::new();
    let mut wall = [0.0f64; 2];
    let mut sim = [0u64; 2];
    for &load in LOADS {
        for scheme in fig10::schemes() {
            for (mi, mode) in [SimMode::PerByte, SimMode::SpanBatched].into_iter().enumerate() {
                let mut setup = fig10::setup(scheme, load, &CFG);
                setup.mode = mode;
                let mut net = runner::build_network(&setup);
                let t0 = Instant::now();
                let outcome = net.run_until(sim_horizon);
                let secs = t0.elapsed().as_secs_f64();
                net.audit().expect("conservation invariant");
                wall[mi] += secs;
                sim[mi] += sim_horizon;
                let rate = sim_horizon as f64 / secs;
                eprintln!(
                    "wallclock load={load:.2} {scheme:?} {}: {secs:.3}s = {rate:.0} byte-times/s",
                    mode_name(mode)
                );
                rows.push(PointRow {
                    load,
                    scheme: format!("{scheme:?}"),
                    mode: mode_name(mode).into(),
                    wall_seconds: secs,
                    sim_byte_times: sim_horizon,
                    sim_byte_times_per_sec: rate,
                    events_scheduled: outcome.stats.events_scheduled,
                    events_fired: outcome.stats.events_fired,
                    bytes_moved: outcome.stats.bytes_moved,
                    worms_delivered: outcome.stats.worms_delivered,
                });
            }
        }
    }
    PhaseDump {
        machine: machine_desc(),
        rows,
        per_byte_rate: sim[0] as f64 / wall[0],
        span_batched_rate: sim[1] as f64 / wall[1],
    }
}

/// Cross-check the 0.08 rows against the checked-in engine-event baseline:
/// a scheduler change must not alter what gets simulated.
fn check_against_engine_baseline(phase: &PhaseDump, results_dir: &str) {
    let path = format!("{results_dir}/BENCH_engine.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!("wallclock: no {path}; skipping drift check");
        return;
    };
    let baseline = serde_json::parse_value(&text).expect("parse BENCH_engine.json");
    for row in perf::rows(&baseline) {
        let Some(serde_json::Value::Str(scheme)) = row.get("scheme") else {
            panic!("BENCH_engine.json row without scheme");
        };
        for mode in ["per_byte", "span_batched"] {
            let b = row.get(mode).expect("mode counters");
            let ours = phase
                .rows
                .iter()
                .find(|r| r.load == 0.08 && &r.scheme == scheme && r.mode == mode)
                .unwrap_or_else(|| panic!("no wallclock row for {scheme} {mode}"));
            let expect = (
                field_u64(b, "events_scheduled"),
                field_u64(b, "bytes_moved"),
                field_u64(b, "worms_delivered"),
            );
            let got = (ours.events_scheduled, ours.bytes_moved, ours.worms_delivered);
            assert_eq!(
                got, expect,
                "engine drift vs BENCH_engine.json for {scheme} {mode} \
                 (events_scheduled, bytes_moved, worms_delivered)"
            );
        }
    }
    eprintln!("wallclock: 0.08 counters match BENCH_engine.json");
}

fn main() {
    // Under `cargo bench` the harness receives filter args; ignore them.
    let results_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(results_dir).expect("create results dir");
    let phase = measure_phase();
    check_against_engine_baseline(&phase, results_dir);
    let dump = WallclockDump {
        experiment: "fig10 8x8 torus sweep, 10 groups x 10 members, p(mcast)=0.10".into(),
        loads: LOADS.to_vec(),
        windows: (CFG.warmup, CFG.measure, CFG.drain),
        after: phase,
    };
    let path = format!("{results_dir}/BENCH_wallclock.json");
    let json = serde_json::to_string_pretty(&dump).expect("serialize dump");
    std::fs::write(&path, json).expect("write BENCH_wallclock.json");
    eprintln!("wallclock: wrote {path}");
}
