//! The per-byte ≡ span-batched differential harness, shared by the fixed
//! cases of `span_equivalence.rs` and the seeded cases of `span_fuzz.rs`.

#![allow(dead_code)] // each test binary uses its own subset

use wormcast::sim::network::{NetStats, SimMode};
use wormcast::sim::trace::TraceConfig;
use wormcast_bench::runner::{build_network, SimSetup};
use wormcast_bench::trace_io::validate_jsonl;

/// Everything a run observably produces: sorted `(msg, host, time)`
/// delivery triples, the statistics block, the rendered JSONL lifecycle
/// trace, the number of events the sink holds, and the send-side byte
/// counters (every lane's `bytes_carried`, every adapter's `bytes_sent`:
/// a deadline that falls inside a span must count only the bytes whose
/// send slots have passed). Deliveries are sorted
/// because batching k simultaneous byte arrivals into one event
/// legitimately permutes the processing order *within* a tick — the
/// timestamps themselves must still match bit-for-bit. The JSONL needs no
/// such help: `to_jsonl` renders in the canonical `(t, line)` order by
/// contract.
type Observed = (Vec<(u64, u32, u64)>, NetStats, String, usize, (u64, u64));

fn observe(mut setup: SimSetup, mode: SimMode, trace: TraceConfig) -> Observed {
    setup.mode = mode;
    setup.trace = trace;
    let mut net = build_network(&setup);
    let out = net.run_until(setup.drain_until);
    // Every caller routes up/down: a deadlock verdict, in either mode, is
    // a bug in the engine or in the wait-for analysis.
    assert!(out.deadlock.is_none(), "{mode:?}: deadlock {out:?}");
    net.audit()
        .unwrap_or_else(|e| panic!("{mode:?}: conservation audit failed: {e}"));
    let mut deliveries: Vec<(u64, u32, u64)> = net
        .msgs
        .deliveries
        .iter()
        .map(|d| (d.msg.0, d.host.0, d.at))
        .collect();
    deliveries.sort_unstable();
    (
        deliveries,
        net.stats.clone(),
        net.trace.to_jsonl(),
        net.trace.len(),
        (
            net.lanes().iter().map(|l| l.stats().bytes_carried).sum(),
            net.adapters.iter().map(|a| a.counters.bytes_sent).sum(),
        ),
    )
}

/// Statistics equality with the engine-cost counters (the one
/// legitimately mode-dependent pair) masked out.
fn assert_stats_eq(mut a: NetStats, mut b: NetStats, label: &str, what: &str) {
    a.events_scheduled = 0;
    a.events_fired = 0;
    b.events_scheduled = 0;
    b.events_fired = 0;
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "{label}: {what} NetStats diverged between engine modes"
    );
}

/// Run `setup` under both modes, traced and untraced, and require
/// bit-identical observables — the raw JSONL included: the span engine
/// records nothing of its own, so the sink holds the same events in both
/// modes. Tracing itself must be a pure observer: the traced and untraced
/// runs must agree too, down to the scheduled-event count (the fast path
/// stays live with a sink attached). Returns the per-byte and
/// span-batched scheduled-event counts for callers that assert on cost.
pub fn assert_equivalent(mk: impl Fn() -> SimSetup, label: &str) -> (u64, u64) {
    let (d_ref, s_ref, j_ref, n_ref, sent_ref) =
        observe(mk(), SimMode::PerByte, TraceConfig::Memory);
    let (d_span, s_span, j_span, n_span, sent_span) =
        observe(mk(), SimMode::SpanBatched, TraceConfig::Memory);
    assert_eq!(
        sent_ref, sent_span,
        "{label}: (bytes_carried, bytes_sent) diverged between engine modes"
    );
    assert_eq!(
        d_ref, d_span,
        "{label}: traced delivery records diverged between engine modes"
    );
    assert!(
        j_ref == j_span,
        "{label}: span-batched trace diverged from the per-byte trace\n{}",
        first_diff(&j_ref, &j_span)
    );
    assert!(!j_ref.is_empty(), "{label}: trace captured nothing");
    // The sink scales with lifecycle events, not engine events.
    assert_eq!(
        n_ref, n_span,
        "{label}: the trace sink holds a different number of events per engine mode"
    );
    let violations = validate_jsonl(&j_span);
    assert!(
        violations.is_empty(),
        "{label}: trace violates the schema: {violations:?}"
    );
    let (e_traced_ref, e_traced_span) = (s_ref.events_scheduled, s_span.events_scheduled);
    assert_stats_eq(s_ref, s_span, label, "traced");

    let (d_off_ref, s_off_ref, ..) = observe(mk(), SimMode::PerByte, TraceConfig::Off);
    let (d_off_span, s_off_span, ..) = observe(mk(), SimMode::SpanBatched, TraceConfig::Off);
    assert_eq!(
        d_off_ref, d_off_span,
        "{label}: delivery records diverged between engine modes"
    );
    assert_eq!(
        d_ref, d_off_ref,
        "{label}: attaching a trace sink changed the delivery records"
    );
    let (e_ref, e_span) = (s_off_ref.events_scheduled, s_off_span.events_scheduled);
    assert_eq!(
        (e_traced_ref, e_traced_span),
        (e_ref, e_span),
        "{label}: attaching a trace sink changed the engine's event counts"
    );
    assert_stats_eq(s_off_ref, s_off_span, label, "untraced");
    (e_ref, e_span)
}

/// The first differing line of two JSONL streams, for a readable failure.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}:\n  per-byte: {la}\n  spans:    {lb}", i + 1);
        }
    }
    format!(
        "line counts differ: {} vs {}",
        a.lines().count(),
        b.lines().count()
    )
}
