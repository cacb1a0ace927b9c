//! The perf harness: one grid of Figure 10 operating points, one
//! [`measure`], one [`Row`] schema, one checked-in baseline
//! (`results/BENCH_perf.json`) and one [`diff`] against it. `bin/perf.rs`
//! exposes it as `perf check [grid…]` and `perf pin`.
//!
//! The harness pins *what* each point simulates and what it costs the
//! engine in events — exact counters only, so the baseline changes when
//! behaviour does and never with the machine. It times nothing: the grid's
//! span-batched rows run in tens of milliseconds, where a single-sample
//! wall ratio is noise. Speed is `benchmark/`'s job (BENCHMARK.json:
//! medians, spreads, child-process isolation, `compare` for two commits).
//!
//! Every point appears exactly once: the single-lane, sequential, untraced
//! span-batched run of the tree scheme *is* the `lanes(1)` and `shards(1)`
//! row of the lane- and shard-scaling curves.

use crate::fig10::{self, figure_tree_scheme, Fig10Config};
use crate::runner::run_traced;
use crate::schemes::Scheme;
use crate::trace_io::validate_jsonl;
use serde::{Deserialize, Serialize};
use wormcast_sim::network::SimMode;
use wormcast_sim::trace::TraceConfig;
use wormcast_topo::ShardPlan;

/// Windows and seed shared by every grid point; `loads` is the sweep: a
/// light, the reference and a saturating Fig 10 load.
pub const CFG: Fig10Config = Fig10Config {
    loads: &[0.04, 0.08, 0.12],
    warmup: 20_000,
    measure: 100_000,
    drain: 40_000,
    seed: 0xF1610,
};
/// The reference load: traced points run here.
const REF_LOAD: f64 = 0.08;
/// The saturating load, where one lane is the bottleneck (the strict
/// lane-capacity gate) and the 4-shard event inflation is reported.
const GATE_LOAD: f64 = 0.12;
/// Loads of the lane- and shard-scaling curves.
const SCALING_LOADS: [f64; 2] = [REF_LOAD, GATE_LOAD];
const MODES: [SimMode; 2] = [SimMode::PerByte, SimMode::SpanBatched];

/// Relative band around a sharded row's pinned event counts. A sharded
/// run's *results* are deterministic, its event count only nearly:
/// `switch_span_ready` sizes spans off `Lane::foreign_span_backlog`, which
/// sees an optimistic span from the moment the worker thread drains it out
/// of the mailbox, so thread timing moves a few hundred events per million
/// (largest seen on 2 cpus: 0.12 % at 4 shards, none at 2). The stale pins
/// this gate was added for were off by 0.15–0.37 %.
const SHARDED_EVENTS_TOLERANCE: f64 = 0.002;

/// The named sub-grids `perf check` accepts.
pub const GRIDS: [&str; 5] = ["engine", "sweep", "lanes", "shard", "trace"];

/// One run of the grid.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    pub scheme: Scheme,
    pub load: f64,
    pub mode: SimMode,
    pub lanes: u8,
    pub shards: u32,
    pub traced: bool,
}

impl Point {
    /// Whether the named sub-grid (one of [`GRIDS`]) needs this point,
    /// baselines of its scaling curves and ratios included.
    pub fn in_grid(&self, grid: &str) -> bool {
        let plain = self.lanes == 1 && self.shards == 1 && !self.traced;
        let scaling = matches!(self.scheme, Scheme::Tree(..))
            && self.mode == SimMode::SpanBatched
            && !self.traced
            && SCALING_LOADS.contains(&self.load);
        match grid {
            "engine" => plain && self.load == REF_LOAD,
            "sweep" => plain,
            "lanes" => scaling && self.shards == 1,
            "shard" => scaling && self.lanes == 1,
            "trace" => self.load == REF_LOAD && self.lanes == 1 && self.shards == 1,
            other => panic!("unknown grid {other:?}"),
        }
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} load={} {:?} lanes={} shards={}{}",
            self.scheme.label(),
            self.load,
            self.mode,
            self.lanes,
            self.shards,
            if self.traced { " traced" } else { "" }
        )
    }
}

/// Every run of the harness: the Fig 10 sweep in both engine modes, the
/// lane- and shard-scaling points above one lane / one shard, and the
/// traced points.
pub fn grid() -> Vec<Point> {
    let plain = |scheme, load, mode| Point {
        scheme,
        load,
        mode,
        lanes: 1,
        shards: 1,
        traced: false,
    };
    let mut grid = Vec::new();
    for scheme in fig10::schemes() {
        for &load in CFG.loads {
            grid.extend(MODES.map(|mode| plain(scheme, load, mode)));
        }
    }
    for load in SCALING_LOADS {
        let base = plain(figure_tree_scheme(), load, SimMode::SpanBatched);
        grid.extend([2, 4].map(|lanes| Point { lanes, ..base }));
        grid.extend([2, 4].map(|shards| Point { shards, ..base }));
    }
    for scheme in fig10::schemes() {
        grid.extend(MODES.map(|mode| Point {
            traced: true,
            ..plain(scheme, REF_LOAD, mode)
        }));
    }
    grid
}

/// One measured (or pinned) grid point: its key and the counters the
/// baseline pins.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Row {
    pub scheme: String,
    pub load: f64,
    pub mode: SimMode,
    pub lanes: u8,
    pub shards: u32,
    pub traced: bool,
    pub events_scheduled: u64,
    pub events_fired: u64,
    pub bytes_moved: u64,
    pub worms_delivered: u64,
    /// Multicast deliveries of messages created inside the measurement
    /// window (`RunReport::multicast.deliveries`).
    pub multicast_deliveries: u64,
    /// Lines of the rendered JSONL trace (0 when untraced).
    pub trace_lines: u64,
}

impl Row {
    fn is_at(&self, p: &Point) -> bool {
        self.scheme == p.scheme.label()
            && self.load == p.load
            && self.mode == p.mode
            && self.lanes == p.lanes
            && self.shards == p.shards
            && self.traced == p.traced
    }

    /// What the run simulated, as opposed to what it cost the engine.
    fn results(&self) -> (u64, u64, u64) {
        (
            self.bytes_moved,
            self.worms_delivered,
            self.multicast_deliveries,
        )
    }
}

/// The baseline file: where and when it was measured, then one [`Row`]
/// per grid point.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchFile {
    pub machine: String,
    pub cpus: usize,
    pub git_rev: String,
    /// (warmup, measure, drain) byte-times.
    pub windows: (u64, u64, u64),
    pub seed: u64,
    pub rows: Vec<Row>,
}

impl BenchFile {
    /// `rows` under a header describing this machine and checkout.
    pub fn describe(rows: Vec<Row>) -> Self {
        BenchFile {
            machine: machine_desc(),
            cpus: cpus(),
            git_rev: git_rev(),
            windows: (CFG.warmup, CFG.measure, CFG.drain),
            seed: CFG.seed,
            rows,
        }
    }
}

/// CPUs available to this process (1 when the OS will not say).
pub fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `uname -srm` plus the CPU count (sharded rows run one thread per shard).
pub fn machine_desc() -> String {
    format!("{} ({} cpus)", command_line("uname", &["-srm"]), cpus())
}

fn git_rev() -> String {
    command_line("git", &["describe", "--always", "--dirty"])
}

/// A measured point: its row plus, for a traced point, the rendered JSONL
/// (the trace-identity gate compares it across engine modes).
pub struct Run {
    pub row: Row,
    pub jsonl: Option<String>,
}

/// Run one grid point. Panics — failing the harness — on a conservation
/// audit failure, a deadlock or a dropped trace event.
pub fn measure(p: &Point) -> Run {
    let mut builder = fig10::builder(p.scheme, p.load, &CFG)
        .mode(p.mode)
        .lanes(p.lanes)
        .trace(if p.traced {
            TraceConfig::Memory
        } else {
            TraceConfig::Off
        });
    if p.shards > 1 {
        builder = builder.shard_plan(ShardPlan::torus_grid(8, p.shards).expect("torus plan"));
    }
    let setup = builder.build().expect("grid points are valid setups");
    // `run_traced` audits conservation after the run.
    let (report, trace) = run_traced(&setup);
    assert!(
        report.outcome.deadlock.is_none(),
        "deadlock at {p}: {:?}",
        report.outcome
    );
    assert_eq!(report.trace_dropped, 0, "memory sink dropped events at {p}");
    let jsonl = p.traced.then(|| trace.to_jsonl());
    let stats = report.stats();
    let row = Row {
        scheme: p.scheme.label(),
        load: p.load,
        mode: p.mode,
        lanes: p.lanes,
        shards: p.shards,
        traced: p.traced,
        events_scheduled: stats.events_scheduled,
        events_fired: stats.events_fired,
        bytes_moved: stats.bytes_moved,
        worms_delivered: stats.worms_delivered,
        multicast_deliveries: report.multicast.deliveries as u64,
        trace_lines: jsonl.as_ref().map_or(0, |j| j.lines().count() as u64),
    };
    Run { row, jsonl }
}

/// Compare measured `rows` with the `baseline` rows; every returned line
/// is a failure. The baseline must hold exactly one row per [`grid`]
/// point (whichever subset was measured), and every measured counter must
/// equal its pin — except a sharded row's event counts, which get
/// `SHARDED_EVENTS_TOLERANCE`.
pub fn diff(rows: &[Row], baseline: &[Row]) -> Vec<String> {
    let grid = grid();
    let mut problems = Vec::new();
    for p in &grid {
        match baseline.iter().filter(|b| b.is_at(p)).count() {
            1 => {}
            0 => problems.push(format!("{p}: missing from the baseline")),
            n => problems.push(format!("{p}: {n} baseline rows share this key")),
        }
    }
    for b in baseline {
        if !grid.iter().any(|p| b.is_at(p)) {
            problems.push(format!("baseline row matches no grid point: {b:?}"));
        }
    }
    for row in rows {
        let Some(p) = grid.iter().find(|p| row.is_at(p)) else {
            problems.push(format!("measured row matches no grid point: {row:?}"));
            continue;
        };
        let Some(pin) = baseline.iter().find(|b| b.is_at(p)) else {
            continue; // reported as missing above
        };
        let band = if row.shards > 1 {
            SHARDED_EVENTS_TOLERANCE
        } else {
            0.0
        };
        for (name, got, want, tolerance) in [
            (
                "events_scheduled",
                row.events_scheduled,
                pin.events_scheduled,
                band,
            ),
            ("events_fired", row.events_fired, pin.events_fired, band),
            ("bytes_moved", row.bytes_moved, pin.bytes_moved, 0.0),
            (
                "worms_delivered",
                row.worms_delivered,
                pin.worms_delivered,
                0.0,
            ),
            (
                "multicast_deliveries",
                row.multicast_deliveries,
                pin.multicast_deliveries,
                0.0,
            ),
            ("trace_lines", row.trace_lines, pin.trace_lines, 0.0),
        ] {
            let slack = (want as f64 * tolerance) as u64;
            if got.abs_diff(want) > slack {
                problems.push(format!("{p}: {name} got {got}, pinned {want} (±{slack})"));
            }
        }
    }
    problems
}

/// How one gate judged one measured point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Fail,
    /// Printed, not enforced.
    Note,
}

/// One gate applied at one measured point.
pub struct Finding {
    pub gate: &'static str,
    pub verdict: Verdict,
    pub text: String,
}

/// The cross-row gates, each at whichever of its points `runs` holds.
pub fn gates(runs: &[Run]) -> Vec<Finding> {
    let find = |p: Point| runs.iter().find(|r| r.row.is_at(&p));
    let mut findings = Vec::new();
    for p in grid() {
        let Some(run) = find(p) else { continue };
        let row = &run.row;
        let mut gate = |gate, verdict, text: String| {
            findings.push(Finding {
                gate,
                verdict,
                text: format!("{p}: {text}"),
            })
        };
        let pass = |ok| if ok { Verdict::Ok } else { Verdict::Fail };
        let span = p.mode == SimMode::SpanBatched;

        let per_byte = find(Point {
            mode: SimMode::PerByte,
            ..p
        });
        if let (true, Some(pb)) = (span, per_byte) {
            gate(
                "mode-equivalence",
                pass(pb.row.results() == row.results()),
                format!(
                    "(bytes_moved, worms_delivered, multicast_deliveries) {:?}, per-byte {:?}",
                    row.results(),
                    pb.row.results()
                ),
            );
            if let Some(jsonl) = &run.jsonl {
                let violations = validate_jsonl(jsonl);
                gate(
                    "trace-identity",
                    pass(violations.is_empty() && run.jsonl == pb.jsonl),
                    format!(
                        "JSONL must be schema-valid ({} violations) and byte-identical to \
                         the per-byte trace",
                        violations.len()
                    ),
                );
            }
        }
        if let (true, true, Some(untraced)) = (span, p.traced, find(Point { traced: false, ..p })) {
            // A sink must not stand the span fast path down: the traced
            // run schedules and fires exactly the untraced run's events.
            let events = |r: &Row| (r.events_scheduled, r.events_fired);
            gate(
                "trace-fast-path",
                pass(events(row) == events(&untraced.row)),
                format!(
                    "(events_scheduled, events_fired) {:?}, untraced {:?}",
                    events(row),
                    events(&untraced.row)
                ),
            );
        }
        if let (2.., Some(seq)) = (p.shards, find(Point { shards: 1, ..p })) {
            gate(
                "shard-equivalence",
                pass(seq.row.results() == row.results()),
                format!(
                    "(bytes_moved, worms_delivered, multicast_deliveries) {:?}, sequential {:?}",
                    row.results(),
                    seq.row.results()
                ),
            );
            // A shard engine refuses the drain-window rule (its mirrors of
            // foreign switches are dead state), so it pays per-slack-window
            // spans where the sequential engine pays one per hop: evidence
            // for ROADMAP's sharding verdict, not a gate.
            if p.shards == 4 && p.load == GATE_LOAD {
                let inflation = row.events_scheduled as f64 / seq.row.events_scheduled as f64;
                gate(
                    "shard-inflation",
                    Verdict::Note,
                    format!("{inflation:.2}x sequential events_scheduled"),
                );
            }
        }
        let fewer = p.lanes / 2;
        if let (2.., Some(prev)) = (p.lanes, find(Point { lanes: fewer, ..p })) {
            let (got, before) = (row.worms_delivered, prev.row.worms_delivered);
            // Once one lane is the bottleneck, a second must pay off.
            let strict = p.lanes == 2 && p.load == GATE_LOAD;
            gate(
                "lane-capacity",
                pass(if strict { got > before } else { got >= before }),
                format!(
                    "delivered {got} worms, {:.2}x the {before} of {fewer} lane(s) (need {})",
                    got as f64 / before as f64,
                    if strict { "strictly more" } else { "no fewer" }
                ),
            );
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A baseline with one fabricated row per grid point.
    fn baseline() -> Vec<Row> {
        grid()
            .iter()
            .map(|p| Row {
                scheme: p.scheme.label(),
                load: p.load,
                mode: p.mode,
                lanes: p.lanes,
                shards: p.shards,
                traced: p.traced,
                events_scheduled: 1_000_000,
                events_fired: 999_000,
                bytes_moved: 5_000_000,
                worms_delivered: 2_000,
                multicast_deliveries: 900,
                trace_lines: if p.traced { 50_000 } else { 0 },
            })
            .collect()
    }

    fn index_of(rows: &[Row], pred: impl Fn(&Row) -> bool) -> usize {
        rows.iter().position(pred).expect("grid holds such a point")
    }

    #[test]
    fn grid_is_32_distinct_points() {
        let grid = grid();
        assert_eq!(grid.len(), 32);
        let base = baseline();
        for p in &grid {
            assert_eq!(base.iter().filter(|r| r.is_at(p)).count(), 1, "{p}");
        }
        for name in GRIDS {
            assert!(grid.iter().any(|p| p.in_grid(name)), "{name} is empty");
        }
    }

    #[test]
    fn identical_rows_pass() {
        let base = baseline();
        assert_eq!(diff(&base, &base), Vec::<String>::new());
    }

    #[test]
    fn exact_counter_off_by_one_is_drift() {
        let base = baseline();
        let seq = index_of(&base, |r| r.shards == 1);
        for bump in [
            (|r: &mut Row| r.events_scheduled += 1) as fn(&mut Row),
            |r| r.events_fired -= 1,
            |r| r.bytes_moved += 1,
            |r| r.worms_delivered -= 1,
            |r| r.multicast_deliveries += 1,
            |r| r.trace_lines += 1,
        ] {
            let mut row = base[seq].clone();
            bump(&mut row);
            let problems = diff(&[row], &base);
            assert_eq!(problems.len(), 1, "{problems:?}");
        }
    }

    #[test]
    fn sharded_event_counts_get_the_band_and_results_stay_exact() {
        let base = baseline();
        let sharded = index_of(&base, |r| r.shards == 4);
        let mut row = base[sharded].clone();
        row.events_scheduled += 2_000; // 0.2 % of 1 000 000: the band's edge
        row.events_fired -= 1_998; // 0.2 % of 999 000
        assert_eq!(
            diff(std::slice::from_ref(&row), &base),
            Vec::<String>::new()
        );
        row.events_scheduled += 1;
        let problems = diff(std::slice::from_ref(&row), &base);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("events_scheduled"), "{problems:?}");

        for bump in [(|r: &mut Row| r.bytes_moved += 1) as fn(&mut Row), |r| {
            r.worms_delivered += 1
        }] {
            let mut row = base[sharded].clone();
            bump(&mut row);
            assert_eq!(diff(&[row], &base).len(), 1);
        }
    }

    #[test]
    fn missing_extra_and_duplicate_baseline_rows_are_errors() {
        let full = baseline();

        let mut missing = full.clone();
        missing.remove(3);
        let problems = diff(&[], &missing);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("missing from the baseline"));

        let mut extra = full.clone();
        extra.push(Row {
            lanes: 3,
            ..full[0].clone()
        });
        let problems = diff(&[], &extra);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("matches no grid point"));

        let mut duplicated = full.clone();
        duplicated.push(full[5].clone());
        let problems = diff(&[], &duplicated);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("share this key"));
    }

    /// One event more under a sink means the sink changed what the span
    /// engine did.
    #[test]
    fn traced_row_with_an_extra_event_fails_trace_fast_path() {
        let base = baseline();
        let traced = index_of(&base, |r| r.traced && r.mode == SimMode::SpanBatched);
        let untraced = index_of(&base, |r| {
            let mut twin = base[traced].clone();
            twin.traced = false;
            twin.trace_lines = 0;
            *r == twin
        });
        let verdicts = |rows: [Row; 2]| -> Vec<Verdict> {
            let runs = rows.map(|row| Run { row, jsonl: None });
            gates(&runs)
                .iter()
                .filter(|f| f.gate == "trace-fast-path")
                .map(|f| f.verdict)
                .collect()
        };
        let same = [base[traced].clone(), base[untraced].clone()];
        assert_eq!(verdicts(same), [Verdict::Ok]);
        let mut extra = base[traced].clone();
        extra.events_fired += 1;
        assert_eq!(verdicts([extra, base[untraced].clone()]), [Verdict::Fail]);
    }

    /// A hand-edited baseline fails here, not only in the CI perf job.
    #[test]
    fn checked_in_baseline_holds_one_row_per_grid_point() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_perf.json");
        let text = std::fs::read_to_string(path).expect("read results/BENCH_perf.json");
        let file: BenchFile = serde_json::from_str(&text).expect("parse results/BENCH_perf.json");
        assert_eq!(file.rows.len(), grid().len());
        assert_eq!(diff(&[], &file.rows), Vec::<String>::new());
        assert_eq!(file.windows, (CFG.warmup, CFG.measure, CFG.drain));
        assert_eq!(file.seed, CFG.seed);
    }
}
