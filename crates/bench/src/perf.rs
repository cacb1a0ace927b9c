//! The perf harness: one grid of Figure 10 operating points and one
//! Figure 11 point, one [`measure`], one [`Row`] schema, one checked-in
//! baseline (`results/BENCH_perf.json`) and one [`diff`] against it. `bin/perf.rs`
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
use crate::fig11::{self, Fig11Config};
use crate::json::{self, array, boolean, field, float, string, uint};
use crate::runner::run_traced;
use crate::schemes::Scheme;
use crate::trace_io::validate_jsonl;
use serde_json::Value;
use wormcast_core::switchcast::SwitchcastVariant;
use wormcast_core::HcConfig;
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
/// The load of the traced switch-level points: V1 and V3 wedge on this
/// torus from 0.02 on, and the harness fails a run that deadlocks.
const SWITCH_LOAD: f64 = 0.01;
/// The Figure 11 point's load and multicast proportion (the quick sweep's
/// highest), under the quick sweep's windows and seed.
const LONGLINK_LOAD: f64 = 0.05;
const LONGLINK_PROPORTION: f64 = 0.20;
const MODES: [SimMode; 2] = [SimMode::PerByte, SimMode::SpanBatched];

/// The named sub-grids `perf check` accepts.
pub const GRIDS: [&str; 6] = ["engine", "sweep", "lanes", "shard", "trace", "longlink"];

/// The fabric a grid point runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fabric {
    /// Figure 10's 8×8 torus, delay-1 links, under [`CFG`].
    Torus,
    /// Figure 11's shufflenet, 1000-byte-time links.
    Shufflenet,
}

/// One run of the grid.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    pub fabric: Fabric,
    pub scheme: Scheme,
    pub load: f64,
    pub mode: SimMode,
    pub lanes: u8,
    pub shards: u32,
    pub traced: bool,
}

impl Point {
    /// The `scheme` of this point's [`Row`]: the scheme's label, prefixed
    /// `shufflenet/` off the torus.
    fn label(&self) -> String {
        match self.fabric {
            Fabric::Torus => self.scheme.label(),
            Fabric::Shufflenet => format!("shufflenet/{}", self.scheme.label()),
        }
    }

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
            "trace" => {
                (self.load == REF_LOAD || self.traced) && self.lanes == 1 && self.shards == 1
            }
            "longlink" => self.fabric == Fabric::Shufflenet,
            other => panic!("unknown grid {other:?}"),
        }
    }
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} load={} {:?} lanes={} shards={}{}",
            self.label(),
            self.load,
            self.mode,
            self.lanes,
            self.shards,
            if self.traced { " traced" } else { "" }
        )
    }
}

/// Every run of the harness: the Fig 10 sweep in both engine modes, the
/// lane- and shard-scaling points above one lane / one shard, the traced
/// points — the Fig 10 schemes', and switch-level multicast's (Section 3,
/// each variant and the broadcast address) on the same torus — and last
/// the traced Fig 11 point in both modes, the long-link fabric where drain
/// windows and the crossing test's certain drain carry spans across the
/// trunks.
pub fn grid() -> Vec<Point> {
    let plain = |scheme, load, mode| Point {
        fabric: Fabric::Torus,
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
    let traced = |scheme, load| {
        MODES.map(|mode| Point {
            traced: true,
            ..plain(scheme, load, mode)
        })
    };
    for scheme in fig10::schemes() {
        grid.extend(traced(scheme, REF_LOAD));
    }
    for variant in [
        SwitchcastVariant::RestrictedIdle,
        SwitchcastVariant::RootedInterrupt,
        SwitchcastVariant::IdleFlush,
        SwitchcastVariant::Broadcast,
    ] {
        grid.extend(traced(Scheme::Switch(variant), SWITCH_LOAD));
    }
    let hc = Scheme::Hc(HcConfig::store_and_forward());
    grid.extend(traced(hc, LONGLINK_LOAD).map(|p| Point {
        fabric: Fabric::Shufflenet,
        ..p
    }));
    grid
}

/// One measured (or pinned) grid point: its key and the counters the
/// baseline pins.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub scheme: String,
    pub load: f64,
    /// The engine mode's name, as `SimMode` prints it with `{:?}`.
    pub mode: String,
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
        self.scheme == p.label()
            && self.load == p.load
            && self.mode == format!("{:?}", p.mode)
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

    /// The pinned counters, by field name, in the file's order.
    fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("events_scheduled", self.events_scheduled),
            ("events_fired", self.events_fired),
            ("bytes_moved", self.bytes_moved),
            ("worms_delivered", self.worms_delivered),
            ("multicast_deliveries", self.multicast_deliveries),
            ("trace_lines", self.trace_lines),
        ]
    }

    fn to_value(&self) -> Value {
        let key = [
            ("scheme", Value::Str(self.scheme.clone())),
            ("load", Value::F64(self.load)),
            ("mode", Value::Str(self.mode.clone())),
            ("lanes", Value::U64(self.lanes.into())),
            ("shards", Value::U64(self.shards.into())),
            ("traced", Value::Bool(self.traced)),
        ];
        let counters = self.counters().map(|(name, n)| (name, Value::U64(n)));
        json::object(key.into_iter().chain(counters))
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(Row {
            scheme: field(v, "scheme", string)?,
            load: field(v, "load", float)?,
            mode: field(v, "mode", string)?,
            lanes: field(v, "lanes", uint)?,
            shards: field(v, "shards", uint)?,
            traced: field(v, "traced", boolean)?,
            events_scheduled: field(v, "events_scheduled", uint)?,
            events_fired: field(v, "events_fired", uint)?,
            bytes_moved: field(v, "bytes_moved", uint)?,
            worms_delivered: field(v, "worms_delivered", uint)?,
            multicast_deliveries: field(v, "multicast_deliveries", uint)?,
            trace_lines: field(v, "trace_lines", uint)?,
        })
    }
}

/// The baseline file: where and when it was measured, then one [`Row`]
/// per grid point.
#[derive(Clone, Debug)]
pub struct BenchFile {
    pub machine: String,
    pub cpus: usize,
    pub git_rev: String,
    /// (warmup, measure, drain) byte-times of the torus points; the
    /// shufflenet point runs `Fig11Config::quick`'s.
    pub windows: (u64, u64, u64),
    /// The torus points' seed; the shufflenet point runs
    /// `Fig11Config::quick`'s.
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

    /// The file's text: pretty-printed JSON, newline-terminated.
    pub fn to_json(&self) -> String {
        let (warmup, measure, drain) = self.windows;
        let file = json::object([
            ("machine", Value::Str(self.machine.clone())),
            ("cpus", Value::U64(self.cpus as u64)),
            ("git_rev", Value::Str(self.git_rev.clone())),
            ("windows", Value::Array([warmup, measure, drain].map(Value::U64).into())),
            ("seed", Value::U64(self.seed)),
            ("rows", Value::Array(self.rows.iter().map(Row::to_value).collect())),
        ]);
        serde_json::to_string_pretty(&file).expect("a Value always prints") + "\n"
    }

    /// Read [`BenchFile::to_json`]'s text back; an error names the field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = serde_json::parse_value(text).map_err(|e| e.to_string())?;
        let windows = |w: &Value| match array(w)? {
            [a, b, c] => Ok((uint(a)?, uint(b)?, uint(c)?)),
            items => Err(format!("expected 3 items, got {}", items.len())),
        };
        let rows = |rows: &Value| {
            array(rows)?
                .iter()
                .enumerate()
                .map(|(i, row)| Row::from_value(row).map_err(|e| format!("row {i}: {e}")))
                .collect()
        };
        Ok(BenchFile {
            machine: field(&v, "machine", string)?,
            cpus: field(&v, "cpus", uint)?,
            git_rev: field(&v, "git_rev", string)?,
            windows: field(&v, "windows", windows)?,
            seed: field(&v, "seed", uint)?,
            rows: field(&v, "rows", rows)?,
        })
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
    let builder = match p.fabric {
        Fabric::Torus => fig10::builder(p.scheme, p.load, &CFG),
        Fabric::Shufflenet => {
            fig11::builder(p.scheme, p.load, LONGLINK_PROPORTION, &Fig11Config::quick())
        }
    };
    let mut builder = builder
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
        scheme: p.label(),
        load: p.load,
        mode: format!("{:?}", p.mode),
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
/// equal its pin, sharded rows' event counts included.
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
        for ((name, got), (_, want)) in row.counters().into_iter().zip(pin.counters()) {
            if got != want {
                problems.push(format!("{p}: {name} got {got}, pinned {want}"));
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
                scheme: p.label(),
                load: p.load,
                mode: format!("{:?}", p.mode),
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
    fn grid_points_are_distinct() {
        let grid = grid();
        assert_eq!(grid.len(), 42);
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

    /// Every counter is pinned exactly, on a sharded row as on any other.
    #[test]
    fn exact_counter_off_by_one_is_drift() {
        let base = baseline();
        let seq = index_of(&base, |r| r.shards == 1);
        let sharded = index_of(&base, |r| r.shards == 4);
        for at in [seq, sharded] {
            for bump in [
                (|r: &mut Row| r.events_scheduled += 1) as fn(&mut Row),
                |r| r.events_fired -= 1,
                |r| r.bytes_moved += 1,
                |r| r.worms_delivered -= 1,
                |r| r.multicast_deliveries += 1,
                |r| r.trace_lines += 1,
            ] {
                let mut row = base[at].clone();
                bump(&mut row);
                let problems = diff(&[row], &base);
                assert_eq!(problems.len(), 1, "{problems:?}");
            }
        }
    }

    /// A sharded row's event counts get a band of width zero: drift at the
    /// edge of the old 0.2 % band is reported on both counters, and one
    /// event either way is drift too, while its results stay exact.
    #[test]
    fn sharded_event_counts_get_the_band_and_results_stay_exact() {
        let base = baseline();
        let sharded = index_of(&base, |r| r.shards == 4);
        assert_eq!(
            diff(std::slice::from_ref(&base[sharded]), &base),
            Vec::<String>::new()
        );

        let mut row = base[sharded].clone();
        row.events_scheduled += 2_000;
        row.events_fired -= 1_998;
        let problems = diff(std::slice::from_ref(&row), &base);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("events_scheduled"), "{problems:?}");
        assert!(problems[1].contains("events_fired"), "{problems:?}");

        for bump in [
            (|r: &mut Row| r.events_scheduled += 1) as fn(&mut Row),
            |r| r.events_fired += 1,
            |r| r.bytes_moved += 1,
            |r| r.worms_delivered += 1,
        ] {
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
        let traced = index_of(&base, |r| r.traced && r.mode == "SpanBatched");
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

    fn checked_in_baseline() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_perf.json");
        std::fs::read_to_string(path).expect("read results/BENCH_perf.json")
    }

    /// A hand-edited baseline fails here, not only in the CI perf job; and
    /// the hand-written reader and writer give back the file's bytes.
    #[test]
    fn checked_in_baseline_holds_one_row_per_grid_point() {
        let text = checked_in_baseline();
        let file = BenchFile::from_json(&text).expect("parse results/BENCH_perf.json");
        assert_eq!(file.rows.len(), grid().len());
        assert_eq!(diff(&[], &file.rows), Vec::<String>::new());
        assert_eq!(file.windows, (CFG.warmup, CFG.measure, CFG.drain));
        assert_eq!(file.seed, CFG.seed);
        assert!(file.to_json() == text, "rendering the parsed baseline changed its bytes");
    }

    #[test]
    fn a_row_without_a_counter_is_rejected() {
        let text = checked_in_baseline().replacen("\"events_fired\"", "\"events_fire\"", 1);
        assert_eq!(
            BenchFile::from_json(&text).map(|_| ()),
            Err("field `rows`: row 0: missing field `events_fired`".into())
        );
    }
}
