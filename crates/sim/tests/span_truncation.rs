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
    AdapterProtocol, Admission, AppMessage, Destination, ProtocolCtx, SendSpec, SourceMessage,
    TrafficSource,
};
use wormcast_sim::trace::{BlockCause, TraceConfig, TraceEvent};
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

/// A line of three switches: hosts 0 and 1 both route through the
/// sw1→sw2 link to host 2.
fn line_net(
    delay: u64,
    mode: SimMode,
    worm_len: u32,
    trace: TraceConfig,
    senders: &[(u32, u64)],
) -> Network {
    line_net_of(3, delay, mode, worm_len, trace, senders)
}

/// A line of `n` switches, one host each. Each `(host, at)` of `senders`
/// fires one `worm_len`-byte worm at the last host, `n − host` route bytes
/// ahead of it.
fn line_net_of(
    n: usize,
    delay: u64,
    mode: SimMode,
    worm_len: u32,
    trace: TraceConfig,
    senders: &[(u32, u64)],
) -> Network {
    let hosts_on: Vec<usize> = (0..n).collect();
    let shots: Vec<Shot> = senders
        .iter()
        .map(|&(from, at)| Shot {
            from,
            to: (n - 1) as u32,
            at,
            len: worm_len,
        })
        .collect();
    fire(line_fabric(n, delay, &hosts_on, mode, trace), &shots)
}

/// One scripted worm: `len` payload bytes from host `from` to host `to`,
/// generated at `at`.
#[derive(Clone, Copy)]
struct Shot {
    from: u32,
    to: u32,
    at: u64,
    len: u32,
}

/// A line of `n` switches joined by `delay`-byte-time trunks, host `h`
/// on switch `hosts_on[h]` behind a 1-byte-time link, explicit left/right
/// routes between every pair of hosts, [`Echoless`] on every host. Trunk
/// `s`–`s+1` is lanes `2s` (rightward) and `2s + 1`; host `h`'s uplink is
/// lane `2(n − 1) + 2h`, its downlink the next.
fn line_fabric(
    n: usize,
    delay: u64,
    hosts_on: &[usize],
    mode: SimMode,
    trace: TraceConfig,
) -> Network {
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
    for &s in hosts_on {
        hosts.push(HostAttach {
            switch: s as u32,
            port: next_port[s],
        });
        next_port[s] += 1;
    }
    // The trunk to the left is a switch's first port, the one to the right
    // its next (its first on switch 0).
    let right_port = |s: usize| if s == 0 { 0u8 } else { 1u8 };
    let mut rt = RouteTable::new(hosts.len());
    for (src, &from) in hosts_on.iter().enumerate() {
        for (dst, &to) in hosts_on.iter().enumerate() {
            if src == dst {
                continue;
            }
            let mut ports: Vec<u8> = if from <= to {
                (from..to).map(right_port).collect()
            } else {
                vec![0; from - to]
            };
            ports.push(hosts[dst].port);
            rt.set(HostId(src as u32), HostId(dst as u32), ports);
        }
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
    for h in 0..hosts_on.len() as u32 {
        net.set_protocol(HostId(h), Box::new(Echoless));
    }
    net
}

/// Script `shots` into `net`'s traffic sources (each host's in time order).
fn fire(mut net: Network, shots: &[Shot]) -> Network {
    for h in 0..net.num_hosts() as u32 {
        let mut items: Vec<(u64, SourceMessage)> = shots
            .iter()
            .filter(|shot| shot.from == h)
            .map(|shot| {
                let msg = SourceMessage {
                    dest: Destination::Unicast(HostId(shot.to)),
                    payload_len: shot.len,
                };
                (shot.at, msg)
            })
            .collect();
        items.sort_by_key(|&(at, _)| at);
        if let Some(&(first, _)) = items.first() {
            net.set_source(HostId(h), Box::new(Script { items, ix: 0 }), first);
        }
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


// ---------------------------------------------------------------------------
// Head runs: a worm's route bytes ride in its spans (DESIGN.md §3.1).
// ---------------------------------------------------------------------------

/// `(switches, events before head runs, events now)` of one 400-byte worm
/// down a line of delay-1 switches.
const LONE_WORM_EVENTS: [(usize, u64, u64); 5] =
    [(3, 53, 28), (4, 71, 44), (5, 91, 52), (6, 113, 60), (7, 137, 70)];

/// The fill phase of a worm — everything before its head is in the sink —
/// costs one span per hop, not one event pair per route byte per hop: the
/// count is pinned per path length, does not grow with the worm, and the
/// tail still lands at the per-byte time.
#[test]
fn lone_worm_budget_by_path_length() {
    for (n, before, pinned) in LONE_WORM_EVENTS {
        let run = |mode, len| {
            let mut net = line_net_of(n, 1, mode, len, TraceConfig::Off, &[(0, 10)]);
            let out = net.run_until(40_000);
            assert!(out.drained, "{n} switches: a single worm drains");
            (out.stats.events_scheduled, deliveries(&net))
        };
        let (events, at) = run(SimMode::SpanBatched, 400);
        assert_eq!(events, pinned, "{n} switches: events of one 400-byte worm");
        assert!(
            events as f64 <= 0.65 * before as f64,
            "{n} switches: {events} events, {before} before head runs"
        );
        assert_eq!(at, run(SimMode::PerByte, 400).1, "{n} switches: delivery time");
        let (long, at) = run(SimMode::SpanBatched, 4_000);
        assert_eq!(long, events, "{n} switches: event count grew with the worm");
        assert_eq!(at, run(SimMode::PerByte, 4_000).1, "{n} switches: delivery time");
    }
}

/// A deadline that falls inside a head run counts only the bytes — route
/// symbols included — whose slots have passed.
#[test]
fn a_deadline_inside_a_head_run_reads_what_per_byte_reads() {
    for n in 3..=7 {
        for delay in [1u64, 3, 8] {
            let lone = |mode| line_net_of(n, delay, mode, 400, TraceConfig::Off, &[(0, 10)]);
            lockstep(
                &mut lone(SimMode::PerByte),
                &mut lone(SimMode::SpanBatched),
                1_000,
                &format!("{n} switches, delay {delay}"),
            );
        }
    }
}

/// Run `mk`'s scenario to `t_end` under both engine modes, traced, and
/// require what `tests/common::assert_equivalent` requires of the workspace
/// harness: the same raw JSONL, deliveries, send-side byte counters and
/// `NetStats` (event counters aside). Returns the per-byte and the
/// span-batched network for a look at what happened.
fn assert_same_run(mk: impl Fn(SimMode) -> Network, t_end: u64, label: &str) -> (Network, Network) {
    let mut per_byte = mk(SimMode::PerByte);
    let mut spans = mk(SimMode::SpanBatched);
    for net in [&mut per_byte, &mut spans] {
        let out = net.run_until(t_end);
        assert!(out.drained, "{label}: the scripted worms drain by {t_end}");
        net.audit().expect("conservation");
    }
    let (ja, jb) = (per_byte.trace.to_jsonl(), spans.trace.to_jsonl());
    if ja != jb {
        let (i, (la, lb)) = ja
            .lines()
            .zip(jb.lines())
            .enumerate()
            .find(|(_, (la, lb))| la != lb)
            .unwrap_or((0, ("(line counts differ)", "")));
        panic!("{label}: raw JSONL diverged at line {}:\n  per-byte: {la}\n  spans:    {lb}", i + 1);
    }
    assert!(!ja.is_empty(), "{label}: trace captured nothing");
    assert_eq!(deliveries(&per_byte), deliveries(&spans), "{label}: deliveries");
    assert_eq!(bytes_carried(&per_byte), bytes_carried(&spans), "{label}: bytes carried / sent");
    let masked = |net: &Network| {
        let mut s = net.stats.clone();
        s.events_scheduled = 0;
        s.events_fired = 0;
        format!("{s:?}")
    };
    assert_eq!(masked(&per_byte), masked(&spans), "{label}: NetStats");
    (per_byte, spans)
}

/// The canonical name of the `seq`-th worm `host` injects.
fn worm_name(host: u32, seq: u64) -> u64 {
    (u64::from(host) << 40) | seq
}

/// When `switch` consumed the head route byte of the worm named `worm`.
fn route_consumed_at(net: &Network, worm: u64, switch: u32) -> Option<u64> {
    net.trace.events().iter().find_map(|&(t, e)| match e {
        TraceEvent::RouteConsumed { worm: w, switch: s, .. } if w == worm && s.0 == switch => Some(t),
        _ => None,
    })
}

/// When the worm named `worm` was blocked on, and granted, a busy output.
fn output_wait(net: &Network, worm: u64) -> Option<(u64, u64)> {
    let busy = |cause| matches!(cause, BlockCause::OutputBusy { .. });
    let events = net.trace.events();
    let blocked = events.iter().find_map(|&(t, e)| match e {
        TraceEvent::WormBlocked { worm: w, cause } if w == worm && busy(cause) => Some(t),
        _ => None,
    })?;
    let resumed = events.iter().find_map(|&(t, e)| match e {
        TraceEvent::WormResumed { worm: w, cause } if w == worm && busy(cause) => Some(t),
        _ => None,
    })?;
    Some((blocked, resumed))
}

/// (a) A GO lands on an output lane in the very tick a head run is granted
/// that output. The GO's kick is armed first and fires in that tick; the
/// byte behind the consumed head came in with it, one slot early, and must
/// not leave on that kick.
///
/// P, blocked at sw2 behind Q, is just long enough to raise a STOP on the
/// sw1→sw2 trunk and short enough that its tail has left sw1 before the
/// STOP lands: the lane is stopped with no owner until P drains. N's head
/// reaches sw1 when the GO does.
#[test]
fn go_landing_in_the_tick_of_a_head_runs_grant() {
    let trunk = wormcast_sim::link::ChanId(2); // sw1→sw2
    let mut hit = 0;
    for p_len in 1..=6 {
        let mk = |n_at: Option<u64>| {
            move |mode| {
                let mut shots = vec![
                    Shot { from: 2, to: 3, at: 10, len: 300 },   // Q
                    Shot { from: 0, to: 3, at: 10, len: p_len }, // P
                ];
                shots.extend(n_at.map(|at| Shot { from: 1, to: 3, at, len: 100 }));
                fire(line_fabric(4, 3, &[0, 1, 2, 3], mode, TraceConfig::Memory), &shots)
            }
        };
        let (quiet, _) = assert_same_run(mk(None), 5_000, &format!("P of {p_len}, no N"));
        let go = quiet.trace.events().iter().find_map(|&(t, e)| match e {
            TraceEvent::GoReceived { ch, .. } if ch == trunk => Some(t),
            _ => None,
        });
        let Some(go) = go else { continue };
        // N's head run reaches sw1 one byte-time after N is generated.
        for n_at in go - 3..=go + 1 {
            let label = format!("P of {p_len}, N at {n_at}, GO at {go}");
            let (per_byte, _) = assert_same_run(mk(Some(n_at)), 5_000, &label);
            let n = worm_name(1, 0);
            if route_consumed_at(&per_byte, n, 1) == Some(go) && output_wait(&per_byte, n).is_none() {
                hit += 1;
            }
        }
    }
    assert!(hit > 0, "no case granted N the trunk in the tick its GO landed");
}

/// Cut-through relay: forwards a worm addressed to this host to `to`,
/// behind it byte for byte. The copy is sent from a zero-delay timer, not
/// from `on_header` itself: the adapter registers a reception only once
/// that callback has returned, and a send that names a worm it is not yet
/// receiving loses its `follow` (`Network::inject_worm`).
struct Relay {
    to: HostId,
    copy: Option<SendSpec>,
}

impl AdapterProtocol for Relay {
    fn on_generate(&mut self, _ctx: &mut ProtocolCtx, _msg: AppMessage) {}
    fn on_header(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) -> Admission {
        self.copy = Some(SendSpec {
            follow: Some(worm.id),
            ..SendSpec::forward(worm, self.to)
        });
        ctx.set_timer(0, 0);
        Admission::Accept
    }
    fn on_timer(&mut self, ctx: &mut ProtocolCtx, _token: u64) {
        ctx.send(self.copy.take().expect("armed by on_header"));
    }
    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        ctx.deliver_local(worm.meta.msg);
    }
}

/// (b) Two heads reach one switch in one tick for one output: A's inside a
/// span on the trunk (the lowest lane id there is), B's as a single byte on
/// a host link (a higher one) — B is a cut-through follower one switch from
/// its destination, so all it may send ahead of its source is one route
/// byte. They are served in event order, and a span's arrival must sort
/// where its first byte's would: A wins, as in the per-byte engine.
#[test]
fn a_head_inside_a_span_keeps_its_place_among_single_bytes() {
    let mk = |a_at: Option<u64>| {
        move |mode| {
            // h1 relays X to h2, its neighbour on sw1; A heads there too.
            let mut net = line_fabric(3, 1, &[0, 1, 1, 2], mode, TraceConfig::Memory);
            net.set_protocol(HostId(1), Box::new(Relay { to: HostId(2), copy: None }));
            let mut shots = vec![Shot { from: 3, to: 1, at: 10, len: 200 }]; // X
            shots.extend(a_at.map(|at| Shot { from: 0, to: 2, at, len: 200 }));
            fire(net, &shots)
        }
    };
    let (a, b) = (worm_name(0, 0), worm_name(1, 0));
    let (quiet, _) = assert_same_run(mk(None), 5_000, "no A");
    let b_at = route_consumed_at(&quiet, b, 1).expect("B's head reaches sw1");
    let mut hit = 0;
    for a_at in b_at - 6..=b_at {
        let (per_byte, _) = assert_same_run(mk(Some(a_at)), 5_000, &format!("A at {a_at}"));
        if route_consumed_at(&per_byte, a, 1) == Some(b_at) {
            hit += 1;
            assert!(
                output_wait(&per_byte, a).is_none() && output_wait(&per_byte, b).is_some(),
                "A at {a_at}: the trunk's arrival is served first"
            );
        }
    }
    assert_eq!(hit, 1, "one start time brings both heads to sw1 in one tick");
}

/// (c) A route longer than the first input's 8-byte room: the head run is
/// split, and the second span's route symbols are payload to a switch that
/// already forwards the worm.
#[test]
fn a_route_longer_than_the_slack_room_splits_its_head_run() {
    for delay in [1u64, 3] {
        let mk = |mode| line_net_of(12, delay, mode, 400, TraceConfig::Memory, &[(0, 10)]);
        let (_, spans) = assert_same_run(mk, 5_000, &format!("12 switches, delay {delay}"));
        assert_eq!(spans.routes().hops(HostId(0), HostId(11)), 12);
    }
}

/// (d) A head run delivered behind the previous worm's tail and routed to
/// a different output. W1 waits `lag` byte-times for the rightward trunk,
/// so its tail leaves sw1 `lag` byte-times after it came in — with a lag of
/// one, in the very tick W2's head run lands behind it. W2's head is then
/// consumed, and its leftward output granted, inside the *rightward* lane's
/// kick, with the byte behind the head still one slot ahead of itself.
#[test]
fn a_head_run_behind_a_tail_goes_out_at_its_own_slots() {
    let mk = |w_at: u64| {
        move |mode| {
            let shots = [
                Shot { from: 0, to: 3, at: 10, len: 100 },  // Z, through sw1 rightward
                Shot { from: 1, to: 3, at: w_at, len: 40 }, // W1, behind Z
                Shot { from: 1, to: 0, at: w_at, len: 40 }, // W2, leftward
            ];
            fire(line_fabric(4, 1, &[0, 1, 2, 3], mode, TraceConfig::Memory), &shots)
        }
    };
    let mut lags = Vec::new();
    for w_at in 114..=128 {
        let (per_byte, spans) = assert_same_run(mk(w_at), 5_000, &format!("W at {w_at}"));
        if let Some((blocked, resumed)) = output_wait(&per_byte, worm_name(1, 0)) {
            lags.push(resumed - blocked);
            if resumed - blocked == 1 {
                // Armed for the slot of the byte it sends, the grant's kick
                // fires once: no early kick to re-arm.
                assert_eq!(spans.stats.events_scheduled, 92, "W at {w_at}");
            }
        }
    }
    assert!(lags.contains(&1), "no start time made W1 wait one byte-time: {lags:?}");
}

/// (e) A head run parked behind a busy output until the STOP mark is
/// reached: W's head requests the trunk Z holds, its head run and what
/// follows fill the input, and the STOP goes out at the per-byte arrival.
#[test]
fn a_parked_head_run_fills_its_input_to_the_stop_mark() {
    for delay in [1u64, 3, 8] {
        let mk = |mode| {
            line_net_of(3, delay, mode, 600, TraceConfig::Memory, &[(0, 10), (1, 20)])
        };
        let (per_byte, _) = assert_same_run(mk, 10_000, &format!("delay {delay}"));
        let uplink = wormcast_sim::link::ChanId(2 * 2 + 2); // host 1's
        assert!(
            per_byte.trace.events().iter().any(
                |&(_, e)| matches!(e, TraceEvent::StopInForce { ch, .. } if ch == uplink)
            ),
            "delay {delay}: W never filled its input"
        );
        assert!(output_wait(&per_byte, worm_name(1, 0)).is_some(), "delay {delay}: W never waited");
    }
}

