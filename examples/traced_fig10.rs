//! One traced low-load Figure 10 point, end to end — on the span fast
//! path: run the tree scheme on the 8×8 torus span-batched with the
//! in-memory trace sink, render the canonical JSON Lines (DESIGN.md
//! §3.2), validate them against the event schema, diff them against a
//! per-byte reference run, and print the observability summary —
//! blocked-time histograms by cause.
//!
//! CI runs this as a smoke job:
//!
//!     cargo run --release --example traced_fig10
//!
//! Exits non-zero if the run misbehaves, the JSONL fails validation, or
//! the span-batched trace is not byte-identical to the per-byte engine's.

use wormcast::sim::network::SimMode;
use wormcast::sim::trace::TraceConfig;
use wormcast::stats::blocked_times;
use wormcast_bench::fig10::{figure_tree_scheme, setup, Fig10Config};
use wormcast_bench::runner::{run_traced, SimSetup};
use wormcast_bench::trace_io::validate_jsonl;

fn main() {
    let cfg = Fig10Config {
        loads: &[0.04],
        warmup: 10_000,
        measure: 60_000,
        drain: 40_000,
        seed: 0xF1610,
    };
    let mut point: SimSetup = setup(figure_tree_scheme(), 0.04, &cfg);
    point.trace = TraceConfig::Memory;
    point.mode = SimMode::SpanBatched;

    let (report, trace) = run_traced(&point);
    println!(
        "fig10 point: load 0.04, tree scheme, span-batched — {} multicast deliveries, \
         mean latency {:.0} byte-times, delivery ratio {:.3}",
        report.multicast.deliveries, report.multicast.per_delivery.mean, report.delivery_ratio
    );
    println!(
        "outcome: end t={} drained={} | {} trace events captured ({} dropped)",
        report.outcome.end_time,
        report.outcome.drained,
        trace.len(),
        report.trace_dropped
    );
    assert!(report.outcome.drained, "low-load point must drain");
    assert!(report.outcome.deadlock.is_none(), "must not deadlock");
    assert!(report.delivery_ratio > 0.95, "light load must deliver");
    assert!(!trace.is_empty(), "trace must capture the run");
    assert_eq!(report.trace_dropped, 0, "memory sink must not drop events");

    // Tracing is mode-invariant: pin the span-batched JSONL against a
    // per-byte reference run of the same point.
    let jsonl = trace.to_jsonl();
    let mut reference = point;
    reference.mode = SimMode::PerByte;
    let (_, ref_trace) = run_traced(&reference);
    assert!(
        jsonl == ref_trace.to_jsonl(),
        "span-batched trace diverged from the per-byte reference"
    );
    println!(
        "span-batched trace: {} lines, byte-identical to the per-byte reference",
        jsonl.lines().count()
    );

    // Write and validate the JSONL.
    let path = std::path::Path::new("results/traced_fig10.jsonl");
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(path, &jsonl).expect("write JSONL");
    let violations = validate_jsonl(&jsonl);
    if !violations.is_empty() {
        for v in violations.iter().take(20) {
            eprintln!("schema violation: {v}");
        }
        panic!("{} schema violations in {}", violations.len(), path.display());
    }
    println!("wrote {} (schema-valid)", path.display());

    // Blocked-time histograms by cause.
    let bt = blocked_times(&trace);
    println!("\nblocked intervals (byte-times):");
    println!(
        "  stop backpressure: {:>6} intervals, mean {:>7.1}, max {:>7}",
        bt.stop.count(),
        bt.stop.mean(),
        bt.stop.max()
    );
    println!(
        "  output busy:       {:>6} intervals, mean {:>7.1}, max {:>7}",
        bt.output_busy.count(),
        bt.output_busy.mean(),
        bt.output_busy.max()
    );
    println!(
        "  branch wait:       {:>6} intervals, mean {:>7.1}, max {:>7}",
        bt.branch_wait.count(),
        bt.branch_wait.mean(),
        bt.branch_wait.max()
    );
    println!("  unresolved:        {:>6}", bt.unresolved);
    println!("\ntraced fig10 smoke: OK");
}
