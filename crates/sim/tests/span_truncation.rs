//! STOP-mid-span truncation: the span-batched engine must stay byte-exact
//! through backpressure.
//!
//! When a STOP arrives while a span is mid-flight, the engine truncates the
//! span to the bytes already on the wire and returns the rest to the
//! producer. These tests force STOPs with a two-senders-one-sink contention
//! pattern and then check the strongest observable consequence: stepping
//! both engine modes through the same run in small time increments, the
//! `bytes_moved` counter and the lanes' `bytes_carried` match at *every*
//! horizon — so the receiver side of every stopped channel holds exactly
//! the bytes the per-byte engine would have delivered, never a span's
//! worth too many, and a deadline that falls inside a span counts only
//! the bytes whose slots have passed.
//!
//! Once a worm's head has reached its sink its circuit is clear and the
//! rest of the body goes out as one span per hop (DESIGN.md §3.1): the
//! same lockstep comparison runs over spans thousands of bytes long, and
//! an event count that does not grow with the worm pins that the rule
//! actually fires. Before that, a lane whose successors' control wires are
//! empty may carry a span as long as their delay — the same comparison on
//! 100- and 1 000-byte-time trunks.

#![allow(clippy::needless_range_loop)] // index math mirrors ports

use wormcast_sim::engine::HostId;
use wormcast_sim::link::PortId;
use wormcast_sim::network::{FabricSpec, HostAttach, LinkSpec, RouteTable, SimMode};
use wormcast_sim::protocol::{
    AdapterProtocol, AppMessage, Destination, ProtocolCtx, SendSpec, SourceMessage, TrafficSource,
};
use wormcast_sim::trace::{TraceConfig, TraceEvent};
use wormcast_sim::worm::{WormInstance, WormKind};
use wormcast_sim::{Network, NetworkConfig};

/// Minimal unicast protocol (the real ones live in `wormcast-core`).
struct Echoless;

impl AdapterProtocol for Echoless {
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, msg: AppMessage) {
        if let Destination::Unicast(d) = msg.dest {
            ctx.send(SendSpec::data(&msg, d, WormKind::Unicast));
        }
    }
    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        ctx.deliver_local(worm.meta.msg);
    }
}

struct Script {
    items: Vec<(u64, SourceMessage)>,
    ix: usize,
}

impl TrafficSource for Script {
    fn next(&mut self, now: u64, _host: HostId) -> (Option<SourceMessage>, Option<u64>) {
        let Some(&(_, msg)) = self.items.get(self.ix) else {
            return (None, None);
        };
        self.ix += 1;
        let gap = self.items.get(self.ix).map(|&(t, _)| t - now);
        (Some(msg), gap)
    }
}

/// A line of three switches, one host each, explicit left/right routes —
/// hosts 0 and 1 both route through the sw1→sw2 link. Each `(host, at)`
/// of `senders` fires one `worm_len`-byte worm at host 2.
fn line_net(
    delay: u64,
    mode: SimMode,
    worm_len: u32,
    trace: TraceConfig,
    senders: &[(u32, u64)],
) -> Network {
    let n = 3usize;
    let mut links = Vec::new();
    let mut next_port = vec![0u8; n];
    for s in 0..n - 1 {
        let a = next_port[s];
        next_port[s] += 1;
        let b = next_port[s + 1];
        next_port[s + 1] += 1;
        links.push(LinkSpec {
            a: (s as u32, PortId(a)),
            b: ((s + 1) as u32, PortId(b)),
            delay,
        });
    }
    let mut hosts = Vec::new();
    for s in 0..n {
        hosts.push(HostAttach {
            switch: s as u32,
            port: next_port[s],
        });
        next_port[s] += 1;
    }
    let right_port = |s: usize| if s == 0 { 0u8 } else { 1u8 };
    let mut rt = RouteTable::new(n);
    for src in 0..n - 1 {
        let mut ports = Vec::new();
        for s in src..n - 1 {
            ports.push(right_port(s));
        }
        ports.push(hosts[n - 1].port);
        rt.set(HostId(src as u32), HostId((n - 1) as u32), ports);
    }
    let spec = FabricSpec {
        switch_ports: next_port,
        hosts,
        links,
        host_link_delay: 1,
    };
    let cfg = NetworkConfig::builder()
        .seed(7)
        .mode(mode)
        .trace(trace)
        .build()
        .expect("valid config");
    let mut net = Network::build(&spec, rt, cfg);
    for h in 0..n as u32 {
        net.set_protocol(HostId(h), Box::new(Echoless));
    }
    for &(h, at) in senders {
        let items = vec![(at, SourceMessage {
            dest: Destination::Unicast(HostId(2)),
            payload_len: worm_len,
        })];
        net.set_source(HostId(h), Box::new(Script { items, ix: 0 }), at);
    }
    net
}

/// Both senders fire long worms nearly together; the second loses the
/// sw1→sw2 output and backpressures while spans are in flight.
fn contention_net(delay: u64, mode: SimMode, worm_len: u32, trace: TraceConfig) -> Network {
    line_net(delay, mode, worm_len, trace, &[(0, 10), (1, 12)])
}

/// Data bytes every lane has carried and every adapter has sent, as the
/// statistics readers see them.
fn bytes_carried(net: &Network) -> (u64, u64) {
    (
        net.lanes().iter().map(|l| l.stats().bytes_carried).sum(),
        net.adapters.iter().map(|a| a.counters.bytes_sent).sum(),
    )
}

/// Step both engines to `t_end` in 7-byte-time increments (off-phase with
/// spans and link delays on purpose) and require identical progress at
/// every horizon.
fn lockstep(per_byte: &mut Network, spans: &mut Network, t_end: u64, label: &str) {
    let mut t = 0;
    while t < t_end {
        t += 7;
        per_byte.run_until(t);
        spans.run_until(t);
        assert_eq!(
            per_byte.stats.bytes_moved, spans.stats.bytes_moved,
            "{label}: byte progress diverged at t={t}"
        );
        assert_eq!(
            bytes_carried(per_byte),
            bytes_carried(spans),
            "{label}: bytes carried / sent diverged at t={t}"
        );
    }
    per_byte.audit().expect("per-byte conservation");
    spans.audit().expect("span conservation");
    assert_eq!(deliveries(per_byte), deliveries(spans), "{label}: deliveries diverged");
}

fn deliveries(net: &Network) -> Vec<(u64, u32, u64)> {
    let mut out: Vec<(u64, u32, u64)> = net
        .msgs
        .deliveries
        .iter()
        .map(|d| (d.msg.0, d.host.0, d.at))
        .collect();
    out.sort_unstable();
    out
}

/// Step both modes in lockstep and require identical progress at every
/// horizon, for a spread of link delays (deeper slack ⇒ longer spans ⇒
/// more bytes at stake per truncation).
#[test]
fn stop_mid_span_truncates_to_the_exact_byte() {
    for delay in [1u64, 3, 8] {
        // The per-byte net carries a sink (a pure observer) to prove the
        // scenario raises STOPs at all; the span net runs untraced only
        // because this lockstep check never reads its trace — tracing no
        // longer stands the fast path down (DESIGN.md §3.2).
        let mut per_byte = contention_net(delay, SimMode::PerByte, 2_000, TraceConfig::Memory);
        let mut spans = contention_net(delay, SimMode::SpanBatched, 2_000, TraceConfig::Off);
        lockstep(&mut per_byte, &mut spans, 30_000, &format!("delay {delay}"));
        assert_eq!(deliveries(&spans).len(), 2, "delay {delay}: both worms arrive");
        // The scenario must actually have exercised backpressure — STOPs
        // the span engine (whose byte progress matched at every horizon
        // above) necessarily met while transmitting.
        let stops = per_byte
            .trace
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::StopInForce { .. }))
            .count();
        assert!(stops > 0, "delay {delay}: no STOP raised — not a truncation test");
    }
}

/// The same contention with worms long enough that the first one's circuit
/// goes clear — its body leaves as worm-length spans — while the second
/// blocks behind it and STOPs its own upstream: both rules at work on one
/// fabric, lockstep-equal throughout.
#[test]
fn clear_circuit_beside_a_stopped_worm_stays_exact() {
    for delay in [1u64, 3, 8] {
        let mut per_byte = contention_net(delay, SimMode::PerByte, 6_000, TraceConfig::Memory);
        let mut spans = contention_net(delay, SimMode::SpanBatched, 6_000, TraceConfig::Off);
        lockstep(&mut per_byte, &mut spans, 30_000, &format!("delay {delay}"));
        assert_eq!(deliveries(&spans).len(), 2, "delay {delay}: both worms arrive");
        let stops = per_byte
            .trace
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::StopInForce { .. }))
            .count();
        assert!(stops > 0, "delay {delay}: the second worm never backpressured");
        // 12 000 bytes over up to 4 hops cost the per-byte engine ~84 000
        // events; one span per hop for the clear worm plus the second
        // worm's STOP/GO exchanges is a few hundred.
        let events = contention_net(delay, SimMode::SpanBatched, 6_000, TraceConfig::Off)
            .run_until(30_000)
            .stats
            .events_scheduled;
        assert!(events < 1_000, "delay {delay}: {events} events — no worm-length spans");
    }
}

/// One uncontended worm: once its head is in the sink's adapter the rest
/// goes out as one span per hop, so the engine's cost does not depend on
/// the worm's length — and every horizon still reads what per-byte reads.
#[test]
fn uncontended_worm_costs_the_same_events_at_any_length() {
    for delay in [1u64, 3, 8] {
        let run = |mode, len| {
            let mut net = line_net(delay, mode, len, TraceConfig::Off, &[(0, 10)]);
            let out = net.run_until(40_000);
            assert!(out.drained, "delay {delay}: a single worm drains");
            out.stats
        };
        let short = run(SimMode::SpanBatched, 4_000).events_scheduled;
        let long = run(SimMode::SpanBatched, 8_000).events_scheduled;
        assert_eq!(short, long, "delay {delay}: event count grew with the worm");
        assert!(short < 300, "delay {delay}: {short} events for one worm");
        let reference = run(SimMode::PerByte, 8_000).events_scheduled;
        assert!(reference > 50_000, "delay {delay}: per-byte costs {reference}");

        let mut per_byte = line_net(delay, SimMode::PerByte, 4_000, TraceConfig::Off, &[(0, 10)]);
        let mut spans = line_net(delay, SimMode::SpanBatched, 4_000, TraceConfig::Off, &[(0, 10)]);
        lockstep(&mut per_byte, &mut spans, 6_000, &format!("delay {delay}, one worm"));
        assert_eq!(deliveries(&spans).len(), 1, "delay {delay}: the worm arrives");
    }
}

/// Trunks that take 1 000 byte-times to cross: a worm of a few hundred
/// bytes is over before its head reaches the sink, so the clear-circuit
/// case never helps it. The certified drain window does — the host link
/// feeds a trunk whose control wire is known to be empty — and the worm
/// costs a few dozen events, not one per eight bytes, at every horizon
/// reading what per-byte reads.
#[test]
fn long_haul_worm_rides_the_drain_window_of_its_trunk() {
    for len in [900u32, 3_000] {
        let lone = |mode| line_net(1_000, mode, len, TraceConfig::Off, &[(0, 10)]);
        let out = lone(SimMode::SpanBatched).run_until(40_000);
        assert!(out.drained, "{len} bytes: a single worm drains");
        let events = out.stats.events_scheduled;
        assert!(events < 120, "{len} bytes: {events} events — no drain window opened");
        lockstep(
            &mut lone(SimMode::PerByte),
            &mut lone(SimMode::SpanBatched),
            8_000,
            &format!("{len} bytes over 1000-byte-time trunks"),
        );
    }
}

/// The contention of `stop_mid_span_truncates_to_the_exact_byte` on long
/// trunks: the loser's head blocks at sw1 while window-certified spans are
/// on their way to it, and the STOP it raises must find every one of them
/// already forwarded.
#[test]
fn drain_windows_close_before_the_stop_they_cannot_see() {
    for delay in [100u64, 1_000] {
        let mut per_byte = contention_net(delay, SimMode::PerByte, 2_500, TraceConfig::Memory);
        let mut spans = contention_net(delay, SimMode::SpanBatched, 2_500, TraceConfig::Off);
        lockstep(&mut per_byte, &mut spans, 20_000, &format!("delay {delay}"));
        assert_eq!(deliveries(&spans).len(), 2, "delay {delay}: both worms arrive");
        let stops = per_byte
            .trace
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::StopInForce { .. }))
            .count();
        assert!(stops > 0, "delay {delay}: no STOP raised");
    }
}

/// Same scenario run to completion in one shot: end-state statistics match
/// field-for-field apart from the engine-cost counters, and span batching
/// actually spends fewer events.
#[test]
fn stop_heavy_run_keeps_stats_identical() {
    let mut per_byte = contention_net(4, SimMode::PerByte, 5_000, TraceConfig::Off);
    let mut spans = contention_net(4, SimMode::SpanBatched, 5_000, TraceConfig::Off);
    let a = per_byte.run_until(60_000);
    let b = spans.run_until(60_000);
    assert!(a.drained && b.drained, "finite workload must drain");
    let mut sa = per_byte.stats.clone();
    let mut sb = spans.stats.clone();
    assert!(
        sb.events_scheduled < sa.events_scheduled,
        "span batching should save events even under backpressure: {} vs {}",
        sa.events_scheduled,
        sb.events_scheduled
    );
    sa.events_scheduled = 0;
    sa.events_fired = 0;
    sb.events_scheduled = 0;
    sb.events_fired = 0;
    assert_eq!(format!("{sa:?}"), format!("{sb:?}"), "stats diverged");
    assert_eq!(deliveries(&per_byte), deliveries(&spans));
}
