//! CI perf-smoke: one Fig 10 operating point, wall-clock timed, with an
//! engine-drift gate.
//!
//! Runs load 0.08 (the point `results/BENCH_engine.json` pins) across the
//! three Figure 10 schemes in both [`SimMode`]s, writes the measurements to
//! `results/perf_smoke.json` (uploaded as a CI artifact), and exits
//! non-zero if any `events_scheduled`/`bytes_moved`/`worms_delivered`
//! counter drifts from the checked-in baseline — an engine change that
//! alters *what* is simulated, not just how fast, must re-pin the baseline
//! deliberately.

use serde::Serialize;
use std::time::Instant;
use wormcast_bench::fig10::{self, Fig10Config};
use wormcast_bench::perf::{self, field_u64};
use wormcast_bench::runner;
use wormcast_sim::network::SimMode;

/// The BENCH_engine.json operating point: load 0.08, same windows and seed.
const LOAD: f64 = 0.08;
const CFG: Fig10Config = Fig10Config {
    loads: &[LOAD],
    warmup: 20_000,
    measure: 100_000,
    drain: 40_000,
    seed: 0xF1610,
};

#[derive(Serialize)]
struct SmokeRow {
    scheme: String,
    mode: String,
    wall_seconds: f64,
    sim_byte_times_per_sec: f64,
    events_scheduled: u64,
    bytes_moved: u64,
    worms_delivered: u64,
}

fn main() {
    let results_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let sim_horizon = CFG.warmup + CFG.measure + CFG.drain;
    let mut rows = Vec::new();
    for scheme in fig10::schemes() {
        for mode in [SimMode::PerByte, SimMode::SpanBatched] {
            let mut setup = fig10::setup(scheme, LOAD, &CFG);
            setup.mode = mode;
            let mut net = runner::build_network(&setup);
            let t0 = Instant::now();
            let outcome = net.run_until(sim_horizon);
            let secs = t0.elapsed().as_secs_f64();
            net.audit().expect("conservation invariant");
            let mode_name = match mode {
                SimMode::PerByte => "per_byte",
                SimMode::SpanBatched => "span_batched",
            };
            eprintln!(
                "perf-smoke {scheme:?} {mode_name}: {secs:.3}s = {:.0} byte-times/s",
                sim_horizon as f64 / secs
            );
            rows.push(SmokeRow {
                scheme: format!("{scheme:?}"),
                mode: mode_name.into(),
                wall_seconds: secs,
                sim_byte_times_per_sec: sim_horizon as f64 / secs,
                events_scheduled: outcome.stats.events_scheduled,
                bytes_moved: outcome.stats.bytes_moved,
                worms_delivered: outcome.stats.worms_delivered,
            });
        }
    }

    let out = format!("{results_dir}/perf_smoke.json");
    std::fs::write(&out, serde_json::to_string_pretty(&rows).expect("serialize"))
        .expect("write perf_smoke.json");
    eprintln!("perf-smoke: wrote {out}");

    // Drift gate against the checked-in baseline.
    let path = format!("{results_dir}/BENCH_engine.json");
    let text = std::fs::read_to_string(&path).expect("read BENCH_engine.json");
    let baseline = serde_json::parse_value(&text).expect("parse BENCH_engine.json");
    let brows = perf::rows(&baseline);
    let mut drift = false;
    for brow in brows {
        let Some(serde_json::Value::Str(scheme)) = brow.get("scheme") else {
            panic!("BENCH_engine.json row without scheme");
        };
        for mode in ["per_byte", "span_batched"] {
            let b = brow.get(mode).expect("mode counters");
            let ours = rows
                .iter()
                .find(|r| &r.scheme == scheme && r.mode == mode)
                .unwrap_or_else(|| panic!("no smoke row for {scheme} {mode}"));
            let expect = (
                field_u64(b, "events_scheduled"),
                field_u64(b, "bytes_moved"),
                field_u64(b, "worms_delivered"),
            );
            let got = (ours.events_scheduled, ours.bytes_moved, ours.worms_delivered);
            if got != expect {
                eprintln!(
                    "perf-smoke: DRIFT for {scheme} {mode}: \
                     (events_scheduled, bytes_moved, worms_delivered) \
                     got {got:?}, baseline {expect:?}"
                );
                drift = true;
            }
        }
    }
    if drift {
        eprintln!("perf-smoke: counters drifted from results/BENCH_engine.json");
        std::process::exit(1);
    }
    eprintln!("perf-smoke: counters match results/BENCH_engine.json");
}
