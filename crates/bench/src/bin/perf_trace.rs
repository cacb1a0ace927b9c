//! CI trace-perf smoke: traced runs must move at span-batched speed.
//!
//! Attaching a trace sink once forced the per-byte engine, so tracing
//! cost roughly the full span-batching speedup. This bench pins that it
//! no longer does, at the Fig 10 operating point that
//! `results/BENCH_engine.json` uses (load 0.08, seed 0xF1610): for every
//! Figure 10 scheme it times the four corners of
//! {per-byte, span-batched} x {untraced, in-memory trace} and gates
//!
//! - traced span-batched at least `MIN_TRACED_SPEEDUP`x faster than
//!   traced per-byte, and
//! - the tracing overhead of span-batched runs at most
//!   `MAX_TRACE_OVERHEAD`x untraced span-batched.
//!
//! Both are same-machine wall-clock *ratios*, so they hold on slow
//! runners. On top sits the hardware-independent equivalence gate: the
//! span-batched trace must validate against the JSONL schema and be
//! byte-identical, as recorded, to the per-byte engine's trace.
//! Measurements land in `results/BENCH_trace.json`.

use serde::Serialize;
use std::time::Instant;
use wormcast_bench::fig10::{self, Fig10Config};
use wormcast_bench::runner::run_traced;
use wormcast_bench::schemes::Scheme;
use wormcast_bench::trace_io::validate_jsonl;
use wormcast_sim::network::SimMode;
use wormcast_sim::trace::TraceConfig;

/// The BENCH_engine.json operating point: load 0.08, same windows and seed.
const LOAD: f64 = 0.08;
const CFG: Fig10Config = Fig10Config {
    loads: &[LOAD],
    warmup: 20_000,
    measure: 100_000,
    drain: 40_000,
    seed: 0xF1610,
};

const MIN_TRACED_SPEEDUP: f64 = 3.0;
const MAX_TRACE_OVERHEAD: f64 = 1.3;

#[derive(Serialize)]
struct TraceRow {
    scheme: String,
    per_byte_untraced_s: f64,
    per_byte_traced_s: f64,
    span_untraced_s: f64,
    span_traced_s: f64,
    /// Traced per-byte wall clock over traced span-batched: what removing
    /// the traced-run per-byte fallback buys.
    traced_speedup: f64,
    /// Traced span-batched over untraced span-batched: what tracing costs
    /// on the fast path.
    trace_overhead: f64,
    trace_lines: u64,
}

fn timed(
    scheme: Scheme,
    mode: SimMode,
    trace: TraceConfig,
) -> (f64, wormcast_sim::trace::Trace) {
    let mut setup = fig10::setup(scheme, LOAD, &CFG);
    setup.mode = mode;
    setup.trace = trace;
    let t0 = Instant::now();
    let (report, trace) = run_traced(&setup);
    let secs = t0.elapsed().as_secs_f64();
    assert!(report.outcome.deadlock.is_none(), "deadlock at smoke point");
    assert_eq!(report.trace_dropped, 0, "memory sink must not drop events");
    (secs, trace)
}

fn main() {
    let results_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut rows = Vec::new();
    let mut failed = false;
    for scheme in fig10::schemes() {
        let (pb_off, _) = timed(scheme, SimMode::PerByte, TraceConfig::Off);
        let (pb_mem, pb_trace) = timed(scheme, SimMode::PerByte, TraceConfig::Memory);
        let (sp_off, _) = timed(scheme, SimMode::SpanBatched, TraceConfig::Off);
        let (sp_mem, sp_trace) = timed(scheme, SimMode::SpanBatched, TraceConfig::Memory);

        // Hardware-independent gate first: tracing on the fast path is
        // only worth its speed if it is *lossless* — schema-valid and
        // byte-identical to the per-byte trace.
        let span_jsonl = sp_trace.to_jsonl();
        let violations = validate_jsonl(&span_jsonl);
        assert!(
            violations.is_empty(),
            "{scheme:?}: span-batched trace schema violations: {violations:?}"
        );
        assert!(
            span_jsonl == pb_trace.to_jsonl(),
            "{scheme:?}: span-batched trace diverged from the per-byte trace"
        );

        let traced_speedup = pb_mem / sp_mem;
        let trace_overhead = sp_mem / sp_off;
        eprintln!(
            "perf-trace {scheme:?}: per-byte {pb_off:.3}s/{pb_mem:.3}s, \
             span {sp_off:.3}s/{sp_mem:.3}s (untraced/traced) — \
             traced speedup {traced_speedup:.2}x, trace overhead {trace_overhead:.2}x"
        );
        if traced_speedup < MIN_TRACED_SPEEDUP {
            eprintln!(
                "perf-trace: FAIL {scheme:?}: traced span-batched only {traced_speedup:.2}x \
                 faster than traced per-byte (need >= {MIN_TRACED_SPEEDUP}x)"
            );
            failed = true;
        }
        if trace_overhead > MAX_TRACE_OVERHEAD {
            eprintln!(
                "perf-trace: FAIL {scheme:?}: tracing costs {trace_overhead:.2}x \
                 on the span fast path (budget {MAX_TRACE_OVERHEAD}x)"
            );
            failed = true;
        }
        rows.push(TraceRow {
            scheme: format!("{scheme:?}"),
            per_byte_untraced_s: pb_off,
            per_byte_traced_s: pb_mem,
            span_untraced_s: sp_off,
            span_traced_s: sp_mem,
            traced_speedup,
            trace_overhead,
            trace_lines: span_jsonl.lines().count() as u64,
        });
    }

    let out = format!("{results_dir}/BENCH_trace.json");
    std::fs::write(&out, serde_json::to_string_pretty(&rows).expect("serialize"))
        .expect("write BENCH_trace.json");
    eprintln!("perf-trace: wrote {out}");
    if failed {
        std::process::exit(1);
    }
    eprintln!(
        "perf-trace: all schemes >= {MIN_TRACED_SPEEDUP}x traced speedup, \
         <= {MAX_TRACE_OVERHEAD}x trace overhead, traces byte-identical"
    );
}
