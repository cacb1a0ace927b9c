//! Shard-scaling bench at the Figure 10 operating points.
//!
//! Runs the figure's tree scheme on the 8×8 torus over a shards × load
//! grid — the sequential engine as the 1-shard baseline, then the
//! quadrant-partitioned parallel engine at 2 and 4 shards — and writes
//! `results/BENCH_shard.json` with wall-clock speedups per point.
//!
//! Three gates:
//!
//! * **Counter drift (always on):** every sharded run's `bytes_moved` /
//!   `worms_delivered` must equal the sequential baseline measured in the
//!   same process, and the 0.08/0.12 span-batched points must also match
//!   the checked-in `results/BENCH_wallclock.json` "after" rows — sharding
//!   must never change *what* is simulated. Every row's
//!   `events_scheduled` is also held to the checked-in
//!   `results/BENCH_shard.json` — exactly for the sequential rows, within
//!   `SHARDED_EVENTS_TOLERANCE` for the sharded ones (see there) — so a
//!   change to the cross-shard protocol's cost re-pins deliberately.
//!   Exits non-zero on drift, before the results file is rewritten.
//! * **Event inflation (always on):** the 4-shard run at the saturating
//!   load must schedule at most 1.3× the sequential engine's events. This
//!   pins the receive-side span admission protocol (DESIGN.md §3.4): if
//!   cut links regress to per-byte crossing, inflation shoots back toward
//!   3× and the bench fails regardless of hardware.
//! * **Speedup (gated on hardware):** when the machine has at least 4
//!   CPUs, the 4-shard run at the saturating load must be ≥ 2.5× the
//!   sequential baseline. On smaller machines the ratio is recorded but
//!   not enforced — conservative parallelism cannot beat sequential on a
//!   single core. Any sub-1.0× sharded point prints a visible warning
//!   either way.

use serde::Serialize;
use std::time::Instant;
use wormcast_bench::fig10::{self, figure_tree_scheme, Fig10Config};
use wormcast_bench::perf::{self, cpus, field_u64, machine_desc};
use wormcast_bench::runner::{self, SimSetup};
use wormcast_topo::ShardPlan;

/// Same windows and seed as `BENCH_wallclock.json`, so counters line up.
const LOADS: &[f64] = &[0.08, 0.12];
const SHARDS: &[u32] = &[1, 2, 4];
const CFG: Fig10Config = Fig10Config {
    loads: LOADS,
    warmup: 20_000,
    measure: 100_000,
    drain: 40_000,
    seed: 0xF1610,
};
/// The saturating load whose 4-shard speedup the acceptance gate checks.
const GATE_LOAD: f64 = 0.12;
const GATE_SPEEDUP: f64 = 2.5;
/// Hardware-independent ceiling on 4-shard event inflation vs sequential.
const GATE_INFLATION: f64 = 1.3;
/// Relative band around a sharded row's pinned `events_scheduled`. A
/// sharded run's *results* are deterministic, its event count only nearly:
/// `switch_span_ready` sizes spans off `Lane::foreign_span_backlog`, which
/// sees an optimistic span from the moment the worker thread drains it out
/// of the mailbox, so thread timing moves a few hundred events per million
/// (largest seen on 2 cpus: 0.12 % at 4 shards, none at 2). The stale pins
/// this gate was added for were off by 0.15–0.37 %.
const SHARDED_EVENTS_TOLERANCE: f64 = 0.002;

#[derive(Serialize, Clone)]
struct ShardRow {
    load: f64,
    shards: u32,
    wall_seconds: f64,
    sim_byte_times_per_sec: f64,
    /// Wall-clock ratio vs the 1-shard (sequential engine) run at the
    /// same load, measured in this same process.
    speedup_vs_sequential: f64,
    bytes_moved: u64,
    worms_delivered: u64,
    events_scheduled: u64,
    /// `events_scheduled` ÷ the sequential run's at the same load (1.0 for
    /// the baseline row itself) — the engine-cost overhead of sharding.
    event_inflation: f64,
}

#[derive(Serialize)]
struct ShardDump {
    experiment: String,
    scheme: String,
    loads: Vec<f64>,
    shard_counts: Vec<u32>,
    windows: (u64, u64, u64),
    machine: String,
    cpus: usize,
    /// Whether the ≥ 2.5× @ 4 shards gate was enforced (needs ≥ 4 cpus).
    speedup_gate_enforced: bool,
    rows: Vec<ShardRow>,
}

fn point(load: f64, shards: u32) -> SimSetup {
    let mut setup = fig10::setup(figure_tree_scheme(), load, &CFG);
    if shards > 1 {
        setup.shards = shards;
        setup.shard_plan = Some(ShardPlan::torus_grid(8, shards).expect("torus plan"));
    }
    setup
}

/// The sharded points must reproduce the checked-in sequential wall-clock
/// baseline's counters at the shared operating points.
fn check_against_wallclock_baseline(rows: &[ShardRow], results_dir: &str) -> bool {
    let path = format!("{results_dir}/BENCH_wallclock.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!("perf-shard: no {path}; skipping baseline check");
        return true;
    };
    let baseline = serde_json::parse_value(&text).expect("parse BENCH_wallclock.json");
    let brows = perf::rows(baseline.get("after").expect("after phase"));
    let scheme = format!("{:?}", figure_tree_scheme());
    let mut ok = true;
    for &load in LOADS {
        let b = brows
            .iter()
            .find(|r| {
                matches!(r.get("load"), Some(&serde_json::Value::F64(l)) if l == load)
                    && matches!(r.get("scheme"), Some(serde_json::Value::Str(s)) if *s == scheme)
                    && matches!(r.get("mode"), Some(serde_json::Value::Str(m)) if m == "span_batched")
            })
            .unwrap_or_else(|| panic!("no BENCH_wallclock row for load {load}"));
        let expect = (field_u64(b, "bytes_moved"), field_u64(b, "worms_delivered"));
        for row in rows.iter().filter(|r| r.load == load) {
            let got = (row.bytes_moved, row.worms_delivered);
            if got != expect {
                eprintln!(
                    "perf-shard: DRIFT vs BENCH_wallclock.json at load {load} shards \
                     {}: (bytes_moved, worms_delivered) got {got:?}, baseline {expect:?}",
                    row.shards
                );
                ok = false;
            }
        }
    }
    if ok {
        eprintln!("perf-shard: counters match BENCH_wallclock.json");
    }
    ok
}

/// Every row's `events_scheduled` must match the checked-in
/// `BENCH_shard.json` row for the same (load, shards) — exactly at one
/// shard, within [`SHARDED_EVENTS_TOLERANCE`] above that: drift means the
/// engine's (or the cross-shard protocol's) cost changed and the pin must
/// move on purpose.
fn check_against_shard_baseline(rows: &[ShardRow], results_dir: &str) -> bool {
    let path = format!("{results_dir}/BENCH_shard.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        eprintln!("perf-shard: no {path}; skipping events_scheduled check");
        return true;
    };
    let baseline = serde_json::parse_value(&text).expect("parse BENCH_shard.json");
    let brows = perf::rows(&baseline);
    let mut ok = true;
    for row in rows {
        let b = brows
            .iter()
            .find(|b| {
                matches!(b.get("load"), Some(&serde_json::Value::F64(l)) if l == row.load)
                    && field_u64(b, "shards") == u64::from(row.shards)
            })
            .unwrap_or_else(|| {
                panic!(
                    "no BENCH_shard row for load {} shards {}",
                    row.load, row.shards
                )
            });
        let expect = field_u64(b, "events_scheduled");
        let slack = if row.shards == 1 {
            0
        } else {
            (expect as f64 * SHARDED_EVENTS_TOLERANCE) as u64
        };
        if row.events_scheduled.abs_diff(expect) > slack {
            eprintln!(
                "perf-shard: DRIFT vs BENCH_shard.json at load {} shards {}: \
                 events_scheduled got {}, baseline {expect} (±{slack})",
                row.load, row.shards, row.events_scheduled
            );
            ok = false;
        }
    }
    if ok {
        eprintln!("perf-shard: events_scheduled matches BENCH_shard.json");
    }
    ok
}

fn main() {
    let results_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    std::fs::create_dir_all(results_dir).expect("create results dir");
    let sim_horizon = CFG.warmup + CFG.measure + CFG.drain;
    let mut rows: Vec<ShardRow> = Vec::new();
    let mut ok = true;

    for &load in LOADS {
        let mut seq_wall = 0.0f64;
        let mut seq_counters = (0u64, 0u64);
        let mut seq_events = 0u64;
        for &shards in SHARDS {
            let setup = point(load, shards);
            let (secs, stats) = if shards == 1 {
                let mut net = runner::build_network(&setup);
                let t0 = Instant::now();
                let outcome = net.run_until(sim_horizon);
                let secs = t0.elapsed().as_secs_f64();
                net.audit().expect("sequential conservation");
                (secs, outcome.stats)
            } else {
                let mut sharded = runner::build_sharded(&setup).expect("shardable point");
                let t0 = Instant::now();
                let outcome = sharded.run_until(sim_horizon);
                let secs = t0.elapsed().as_secs_f64();
                sharded.audit().expect("sharded conservation");
                (secs, outcome.stats)
            };
            if shards == 1 {
                seq_wall = secs;
                seq_counters = (stats.bytes_moved, stats.worms_delivered);
                seq_events = stats.events_scheduled;
            } else if (stats.bytes_moved, stats.worms_delivered) != seq_counters {
                eprintln!(
                    "perf-shard: DRIFT at load {load}: {shards} shards moved \
                     ({}, {}) vs sequential {seq_counters:?}",
                    stats.bytes_moved, stats.worms_delivered
                );
                ok = false;
            }
            let speedup = seq_wall / secs;
            let inflation = if shards == 1 {
                1.0
            } else {
                stats.events_scheduled as f64 / seq_events as f64
            };
            eprintln!(
                "perf-shard load={load:.2} shards={shards}: {secs:.3}s = {:.0} \
                 byte-times/s ({speedup:.2}x vs sequential, {inflation:.2}x events)",
                sim_horizon as f64 / secs
            );
            if shards > 1 && speedup < 1.0 {
                eprintln!(
                    "perf-shard: WARNING — sharding made this point SLOWER than \
                     sequential ({speedup:.2}x at load {load:.2}, {shards} shards)"
                );
            }
            rows.push(ShardRow {
                load,
                shards,
                wall_seconds: secs,
                sim_byte_times_per_sec: sim_horizon as f64 / secs,
                speedup_vs_sequential: speedup,
                bytes_moved: stats.bytes_moved,
                worms_delivered: stats.worms_delivered,
                events_scheduled: stats.events_scheduled,
                event_inflation: inflation,
            });
        }
    }

    ok &= check_against_wallclock_baseline(&rows, results_dir);
    ok &= check_against_shard_baseline(&rows, results_dir);
    if !ok {
        eprintln!("perf-shard: counters drifted; results/BENCH_shard.json left as checked in");
        std::process::exit(1);
    }

    let gate_enforced = cpus() >= 4;
    let dump = ShardDump {
        experiment: "fig10 8x8 torus, tree scheme, quadrant-sharded scaling".into(),
        scheme: format!("{:?}", figure_tree_scheme()),
        loads: LOADS.to_vec(),
        shard_counts: SHARDS.to_vec(),
        windows: (CFG.warmup, CFG.measure, CFG.drain),
        machine: machine_desc(),
        cpus: cpus(),
        speedup_gate_enforced: gate_enforced,
        rows: rows.clone(),
    };
    let path = format!("{results_dir}/BENCH_shard.json");
    std::fs::write(&path, serde_json::to_string_pretty(&dump).expect("serialize"))
        .expect("write BENCH_shard.json");
    eprintln!("perf-shard: wrote {path}");

    let gate_row = rows
        .iter()
        .find(|r| r.load == GATE_LOAD && r.shards == 4)
        .expect("gate point measured");
    if gate_row.event_inflation > GATE_INFLATION {
        eprintln!(
            "perf-shard: FAIL — {:.2}x event inflation at 4 shards (load \
             {GATE_LOAD}), ceiling {GATE_INFLATION}x (cut links regressed to per-byte?)",
            gate_row.event_inflation
        );
        ok = false;
    } else {
        eprintln!(
            "perf-shard: {:.2}x event inflation at 4 shards (load {GATE_LOAD}) \
             <= {GATE_INFLATION}x",
            gate_row.event_inflation
        );
    }
    if gate_enforced {
        if gate_row.speedup_vs_sequential < GATE_SPEEDUP {
            eprintln!(
                "perf-shard: FAIL — {:.2}x at 4 shards (load {GATE_LOAD}), need {GATE_SPEEDUP}x",
                gate_row.speedup_vs_sequential
            );
            ok = false;
        } else {
            eprintln!(
                "perf-shard: {:.2}x at 4 shards (load {GATE_LOAD}) >= {GATE_SPEEDUP}x",
                gate_row.speedup_vs_sequential
            );
        }
    } else {
        eprintln!(
            "perf-shard: {} cpu(s) — speedup gate not enforced ({:.2}x recorded)",
            cpus(),
            gate_row.speedup_vs_sequential
        );
    }
    if !ok {
        std::process::exit(1);
    }
}
