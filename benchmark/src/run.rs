//! One end-to-end run of one workload: what the builder's driver invokes,
//! and what `all` spawns as a fresh child process per repetition.
//!
//! A run is one discarded warm-up point, the set-up repeated until half a
//! CPU second has accumulated, then a fixed number of timed points (nine at
//! the manifest's `run_seconds`), each with its own sub-seed. A timing
//! metric is the **median over the nine points**: it shrugs off a burst of
//! interference that hits a few of them and averages what the seed changes.
//! Nothing here is instrumented; the layer run (`layers.rs`) is a separate
//! invocation.

use crate::clock;
use crate::point::{self, Point, Sample};
use crate::schema::{self, NOMINAL_SECONDS};
use crate::stat::{median, percentile_sorted, sig6};
use crate::workloads::{sub_seed, Workload};
use wormcast_bench::runner::build_network;
use wormcast_sim::network::SimMode;
use wormcast_sim::trace::TraceConfig;

/// Timed points of a run at the manifest's `run_seconds`.
pub const NOMINAL_POINTS: u64 = 9;

/// The point count is a function of the `--seconds` argument, never of the
/// clock, so that the simulated statistics of a (seed, seconds) pair are the
/// same on every machine and commit.
pub fn points_for(seconds: u64) -> u64 {
    (NOMINAL_POINTS * seconds).div_ceil(NOMINAL_SECONDS).max(3)
}

/// Wall ÷ CPU above which a repetition is called out as contended.
pub const CONTENDED: f64 = 1.25;

pub struct RunResult {
    /// (metric name, value), in manifest order.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Every metric by name, with its unit.
    pub fn table(&self, workload: &str) -> String {
        let lines: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = schema::unit_of(name).expect("metric is in the schema");
                format!("{workload:<20} {name:<36} {:>14} {unit}", sig6(*value))
            })
            .collect();
        lines.join("\n")
    }

    /// The result object the driver reads from the last line of standard
    /// output: every metric of the manifest. With `ungated` (what `all` asks
    /// its children for) also the end-to-end metrics the manifest leaves out.
    pub fn result_line(&self, ungated: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|(name, _)| ungated || schema::end_to_end(name).is_none_or(|m| m.gated))
            .map(|(name, value)| {
                let unit = schema::unit_of(name).expect("metric is in the schema");
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A single set-up (parameters → runnable `Network`) is 1–50 ms, too short
/// to time once: passes over the points' set-ups are repeated until half a
/// CPU second has accumulated (three passes at least). Each point's set-up
/// time is the best of its repetitions; the metric is the median over points.
fn setup_seconds(w: &Workload, seed: u64, points: u64) -> f64 {
    let mut best = vec![f64::INFINITY; points as usize];
    let mut total = 0.0;
    let mut passes = 0;
    while total < 0.5 || passes < 3 {
        for (i, best) in best.iter_mut().enumerate() {
            let t0 = clock::cpu_ns();
            let setup = w.point(sub_seed(seed, i as u64));
            let net = build_network(&setup);
            let dt = (clock::cpu_ns() - t0) as f64 * 1e-9;
            std::hint::black_box(&net);
            *best = best.min(dt);
            total += dt;
        }
        passes += 1;
    }
    median(&best)
}

/// Checks that need a second run of point 0 under another configuration.
fn twin_checks(w: &Workload, seed0: u64, reference: &Sample, failures: &mut Vec<String>) {
    let mut twin = |what: &str, mode: SimMode, trace: TraceConfig| {
        let p = point::run(&w.setup(seed0, w.windows, mode, trace));
        p.failures_into(what, failures);
        if !p.sample.same_simulation(reference) {
            failures.push(format!(
                "{what}: simulated statistics differ from the workload's own run"
            ));
        }
    };
    if w.mode == SimMode::PerByte {
        twin("span-batched twin", SimMode::SpanBatched, w.trace);
    }
    if w.trace != TraceConfig::Off {
        twin("untraced twin", w.mode, TraceConfig::Off);
    }
}

/// Fold the points of a run into the end-to-end metrics.
pub fn end_to_end_metrics(
    w: &Workload,
    setup_s: f64,
    peak_rss_mib: f64,
    points: &[Point],
) -> Vec<(&'static str, f64)> {
    let drain_until = w.windows.total() as f64;
    let rates: Vec<f64> = points
        .iter()
        .map(|p| drain_until / p.region.cpu_s)
        .collect();
    let mut mcast: Vec<u64> = points
        .iter()
        .flat_map(|p| p.sample.mcast_latencies.iter().copied())
        .collect();
    mcast.sort_unstable();
    let sum = |f: fn(&Sample) -> u64| points.iter().map(|p| f(&p.sample)).sum::<u64>() as f64;
    let mcast_sum: u64 = mcast.iter().sum();
    vec![
        ("setup_s", setup_s),
        ("sim_byte_times_per_cpu_s", median(&rates)),
        ("peak_rss_mib", peak_rss_mib),
        (
            "mcast_latency_mean_bt",
            mcast_sum as f64 / mcast.len() as f64,
        ),
        (
            "mcast_latency_p99_bt",
            percentile_sorted(&mcast, 99.0) as f64,
        ),
        (
            "unicast_latency_mean_bt",
            sum(|s| s.unicast_latency_sum) / sum(|s| s.unicast_deliveries),
        ),
        (
            "goodput_bytes_per_bt",
            sum(|s| s.payload_delivered) / (w.windows.measure * points.len() as u64) as f64,
        ),
        (
            "delivery_ratio",
            sum(Sample::observed_deliveries) / sum(|s| s.expected_deliveries),
        ),
    ]
}

/// Operations attempted and failed over the points of a run. An operation
/// is one expected delivery of a window message. It fails when the network
/// loses it (a refused, corrupt or flushed worm) or, on a workload that
/// must drain, when it has not arrived by the deadline; on the two
/// workloads past the knee a delivery still queued at the deadline is
/// backlog, reported by `delivery_ratio`, not a failure of the simulator.
pub fn operations(w: &Workload, points: &[Point]) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for p in points {
        let s = &p.sample;
        attempted += s.expected_deliveries;
        failed += s.lost_worms();
        if w.must_drain {
            failed += s.expected_deliveries - s.observed_deliveries().min(s.expected_deliveries);
        }
    }
    (attempted, failed.min(attempted))
}

pub fn end_to_end(w: &Workload, seed: u64, seconds: u64) -> RunResult {
    let n = points_for(seconds);
    let mut failures = Vec::new();
    eprintln!(
        "{}: {} cpus, calibration loop {:.3} CPU-ns/step",
        w.name,
        clock::cpus(),
        clock::calib_ns()
    );

    // Warm-up: caches, allocator and lazy set-up settle outside the timing;
    // its statistics double as the determinism check on point 0.
    let warmup = point::run(&w.point(sub_seed(seed, 0)));
    let setup_s = setup_seconds(w, seed, n);

    let mut points = Vec::new();
    for i in 0..n {
        let p = point::run(&w.point(sub_seed(seed, i)));
        let ratio = p.region.wall_s / p.region.cpu_s;
        eprintln!(
            "{} point {i}: {:.4} CPU-s, {:.4} wall-s, {} events fired",
            w.name, p.region.cpu_s, p.region.wall_s, p.sample.stats.events_fired
        );
        if ratio > CONTENDED {
            eprintln!(
                "warning: {} point {i}: wall/CPU = {ratio:.2} (> {CONTENDED}); the machine is contended, \
                 CPU-time metrics stand but wall-time readings do not",
                w.name
            );
        }
        p.failures_into(&format!("point {i}"), &mut failures);
        if w.must_drain && p.sample.observed_deliveries() != p.sample.expected_deliveries {
            failures.push(format!(
                "point {i}: {} of {} expected deliveries by the deadline on a workload that must drain",
                p.sample.observed_deliveries(),
                p.sample.expected_deliveries
            ));
        }
        points.push(p);
    }
    let peak_rss_mib = clock::peak_rss_mib();

    if warmup.sample != points[0].sample {
        failures.push("two runs of point 0 gave different simulated statistics".into());
    }
    twin_checks(w, sub_seed(seed, 0), &points[0].sample, &mut failures);

    let (attempted, mut failed) = operations(w, &points);
    if !failures.is_empty() {
        failed = attempted;
    }
    RunResult {
        metrics: end_to_end_metrics(w, setup_s, peak_rss_mib, &points),
        attempted,
        failed,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Windows};

    fn tiny(name: &str) -> Workload {
        let mut w = workloads::by_name(name).expect("workload");
        w.windows = Windows {
            warmup: 2_000,
            measure: 10_000,
            drain: 40_000,
        };
        w
    }

    #[test]
    fn point_count_follows_the_seconds_argument_only() {
        assert_eq!(points_for(NOMINAL_SECONDS), NOMINAL_POINTS);
        assert_eq!(points_for(1), 3);
        assert_eq!(points_for(2 * NOMINAL_SECONDS), 2 * NOMINAL_POINTS);
    }

    #[test]
    fn a_healthy_run_is_correct_and_prints_every_end_to_end_metric() {
        let r = end_to_end(&tiny("torus_light"), 11, 1);
        assert!(r.correct(), "{:?}", r.failures);
        assert!(r.attempted > 0 && r.failed == 0);
        let names: Vec<&str> = r.metrics.iter().map(|(n, _)| *n).collect();
        let schema: Vec<&str> = crate::schema::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, schema);
        assert!(r.metrics.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
    }

    /// A deliberately broken expectation: a saturated network declared to
    /// drain. The run must report the failed check, count every operation
    /// as failed, and so make the command exit non-zero.
    #[test]
    fn a_broken_expectation_fails_the_run() {
        let mut w = tiny("torus_saturated");
        w.windows.drain = 1_000;
        w.must_drain = true;
        let r = end_to_end(&w, 11, 1);
        assert!(!r.correct());
        assert!(
            r.failures.iter().any(|f| f.contains("must drain")),
            "{:?}",
            r.failures
        );
        assert_eq!(r.failed, r.attempted);
        assert!(r.result_line(false).starts_with("{\"correct\": false"));
    }
}
