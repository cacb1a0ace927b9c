//! Lane-scaling bench at the Figure 10 operating points.
//!
//! Runs the figure's tree scheme on the 8×8 torus over a lanes × load
//! grid — single-lane links (the paper's Myrinet) as the baseline, then
//! the same fabric with 2 and 4 lanes per trunk — and writes
//! `results/BENCH_lanes.json`.
//!
//! Two gates, both always on:
//!
//! * **Counter drift:** the single-lane run at load 0.08 must reproduce
//!   the checked-in `results/BENCH_engine.json` tree-scheme counters
//!   exactly — the lane-port redesign must never change what a one-lane
//!   fabric simulates. Exits non-zero on drift.
//! * **Monotone capacity:** at every load, delivered worms must not
//!   decrease as lanes are added, and at the saturating load the 2-lane
//!   fabric must deliver strictly more than the 1-lane fabric (extra
//!   trunk capacity must show up as throughput once the single lane is
//!   the bottleneck).

use serde::Serialize;
use std::time::Instant;
use wormcast_bench::fig10::{self, figure_tree_scheme, Fig10Config};
use wormcast_bench::perf::{self, field_u64};
use wormcast_bench::runner;

/// Same windows and seed as `BENCH_engine.json`, so counters line up.
const LOADS: &[f64] = &[0.08, 0.12];
const LANES: &[u8] = &[1, 2, 4];
const CFG: Fig10Config = Fig10Config {
    loads: LOADS,
    warmup: 20_000,
    measure: 100_000,
    drain: 40_000,
    seed: 0xF1610,
};
/// The load where one lane saturates and extra lanes must pay off.
const GATE_LOAD: f64 = 0.12;

#[derive(Serialize, Clone)]
struct LaneRow {
    load: f64,
    lanes: u8,
    wall_seconds: f64,
    bytes_moved: u64,
    worms_delivered: u64,
    multicast_deliveries: u64,
    /// Delivered worms relative to the 1-lane run at the same load,
    /// measured in this same process.
    delivered_vs_single_lane: f64,
}

#[derive(Serialize)]
struct LaneDump {
    experiment: String,
    scheme: String,
    arbiter: String,
    loads: Vec<f64>,
    lane_counts: Vec<u8>,
    windows: (u64, u64, u64),
    rows: Vec<LaneRow>,
}

/// The single-lane load-0.08 point must reproduce the checked-in engine
/// baseline's counters (the tree-scheme span-batched row).
fn check_against_engine_baseline(rows: &[LaneRow], results_dir: &str) -> bool {
    let path = format!("{results_dir}/BENCH_engine.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!("perf-lanes: no {path}; skipping baseline check");
        return true;
    };
    let baseline = serde_json::parse_value(&text).expect("parse BENCH_engine.json");
    let brows = perf::rows(&baseline);
    let scheme = format!("{:?}", figure_tree_scheme());
    let b = brows
        .iter()
        .find(|r| matches!(r.get("scheme"), Some(serde_json::Value::Str(s)) if *s == scheme))
        .expect("no BENCH_engine row for the tree scheme");
    let span = b.get("span_batched").expect("span_batched block");
    let expect = (field_u64(span, "bytes_moved"), field_u64(span, "worms_delivered"));
    let row = rows
        .iter()
        .find(|r| r.load == 0.08 && r.lanes == 1)
        .expect("single-lane 0.08 point measured");
    let got = (row.bytes_moved, row.worms_delivered);
    if got != expect {
        eprintln!(
            "perf-lanes: DRIFT vs BENCH_engine.json at load 0.08 lanes 1: \
             (bytes_moved, worms_delivered) got {got:?}, baseline {expect:?}"
        );
        return false;
    }
    eprintln!("perf-lanes: single-lane counters match BENCH_engine.json");
    true
}

fn main() {
    let results_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(results_dir).expect("create results dir");
    let sim_horizon = CFG.warmup + CFG.measure + CFG.drain;
    let mut rows: Vec<LaneRow> = Vec::new();
    let mut ok = true;

    for &load in LOADS {
        let mut single_lane_delivered = 0u64;
        for &lanes in LANES {
            let mut setup = fig10::setup(figure_tree_scheme(), load, &CFG);
            setup.lanes = lanes;
            let mut net = runner::build_network(&setup);
            let t0 = Instant::now();
            let outcome = net.run_until(sim_horizon);
            let secs = t0.elapsed().as_secs_f64();
            net.audit().expect("conservation");
            assert!(outcome.deadlock.is_none(), "deadlock: {outcome:?}");
            if lanes == 1 {
                single_lane_delivered = outcome.stats.worms_delivered;
            }
            let ratio =
                outcome.stats.worms_delivered as f64 / single_lane_delivered.max(1) as f64;
            eprintln!(
                "perf-lanes load={load:.2} lanes={lanes}: {secs:.3}s, {} worms \
                 delivered ({ratio:.2}x vs single lane)",
                outcome.stats.worms_delivered
            );
            rows.push(LaneRow {
                load,
                lanes,
                wall_seconds: secs,
                bytes_moved: outcome.stats.bytes_moved,
                worms_delivered: outcome.stats.worms_delivered,
                multicast_deliveries: net.msgs.deliveries.len() as u64,
                delivered_vs_single_lane: ratio,
            });
        }
    }

    ok &= check_against_engine_baseline(&rows, results_dir);

    for &load in LOADS {
        let per_load: Vec<&LaneRow> = rows.iter().filter(|r| r.load == load).collect();
        if !per_load.windows(2).all(|w| w[0].worms_delivered <= w[1].worms_delivered) {
            eprintln!(
                "perf-lanes: FAIL — delivered worms decreased with more lanes at \
                 load {load}: {:?}",
                per_load.iter().map(|r| r.worms_delivered).collect::<Vec<_>>()
            );
            ok = false;
        }
    }
    let gate: Vec<&LaneRow> = rows.iter().filter(|r| r.load == GATE_LOAD).collect();
    let (one, two) = (gate[0].worms_delivered, gate[1].worms_delivered);
    if two <= one {
        eprintln!(
            "perf-lanes: FAIL — at load {GATE_LOAD}, 2 lanes delivered {two} worms, \
             need strictly more than the single lane's {one}"
        );
        ok = false;
    } else {
        eprintln!(
            "perf-lanes: 2 lanes deliver {:.2}x the single lane at load {GATE_LOAD}",
            two as f64 / one as f64
        );
    }

    let dump = LaneDump {
        experiment: "fig10 8x8 torus, tree scheme, lane scaling".into(),
        scheme: format!("{:?}", figure_tree_scheme()),
        arbiter: "round-robin".into(),
        loads: LOADS.to_vec(),
        lane_counts: LANES.to_vec(),
        windows: (CFG.warmup, CFG.measure, CFG.drain),
        rows,
    };
    let path = format!("{results_dir}/BENCH_lanes.json");
    std::fs::write(&path, serde_json::to_string_pretty(&dump).expect("serialize"))
        .expect("write BENCH_lanes.json");
    eprintln!("perf-lanes: wrote {path}");
    if !ok {
        std::process::exit(1);
    }
}
