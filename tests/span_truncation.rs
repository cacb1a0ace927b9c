//! STOP-mid-span truncation: the span-batched engine must stay byte-exact
//! through backpressure.
//!
//! When a STOP arrives while a span is mid-flight, the engine truncates the
//! span to the bytes already on the wire and returns the rest to the
//! producer. These tests force STOPs with a two-senders-one-sink contention
//! pattern and run both engine modes through `common::assert_modes_agree`,
//! whose lockstep pair checks the strongest observable consequence: the
//! `bytes_moved` counter, each lane's `bytes_carried` and each adapter's
//! `bytes_sent` match at *every* horizon — so the receiver side of every
//! stopped channel holds exactly the bytes the per-byte engine would have
//! delivered, never a span's worth too many, and a deadline that falls
//! inside a span counts only the bytes whose slots have passed.
//!
//! Once a worm's head has reached its sink its circuit is clear and the
//! rest of the body goes out as one span per hop (DESIGN.md §3.1): the
//! same lockstep comparison runs over spans thousands of bytes long, and
//! an event count that does not grow with the worm pins that the rule
//! actually fires. Before that, a lane whose successors' control wires are
//! empty may carry a span as long as their delay — the same comparison on
//! 100- and 1 000-byte-time trunks.

mod common;

use common::{assert_drains_alike, deliveries, line_fabric};
use wormcast::sim::adapter::RxState;
use wormcast::sim::engine::HostId;
use wormcast::sim::link::ChanId;
use wormcast::sim::network::SimMode;
use wormcast::sim::protocol::{
    AdapterProtocol, Admission, AppMessage, Destination, ProtocolCtx, SendSpec, SourceMessage,
};
use wormcast::sim::trace::{BlockCause, TraceConfig, TraceEvent};
use wormcast::sim::worm::WormInstance;
use wormcast::sim::{Network, NetworkConfig};
use wormcast::traffic::script::install_script;

/// The engine configuration every scenario here runs.
fn config(mode: SimMode, trace: TraceConfig) -> NetworkConfig {
    NetworkConfig::builder()
        .seed(7)
        .mode(mode)
        .trace(trace)
        .build()
        .expect("valid config")
}

/// A line of `n` switches, one host each. Each `(host, at)` of `senders`
/// fires one `worm_len`-byte worm at the last host, `n − host` route bytes
/// ahead of it.
fn line_net(
    n: usize,
    delay: u64,
    worm_len: u32,
    senders: &[(u32, u64)],
) -> impl Fn(SimMode, TraceConfig) -> Network + '_ {
    move |mode, trace| {
        let hosts_on: Vec<usize> = (0..n).collect();
        let shots: Vec<Shot> = senders
            .iter()
            .map(|&(from, at)| Shot { from, to: (n - 1) as u32, at, len: worm_len })
            .collect();
        fire(line_fabric(n, delay, &hosts_on, config(mode, trace)), &shots)
    }
}

/// A line of three switches: hosts 0 and 1 both route through the sw1→sw2
/// link to host 2. Both fire long worms nearly together; the second loses
/// the sw1→sw2 output and backpressures while spans are in flight.
fn contention(delay: u64, worm_len: u32) -> impl Fn(SimMode, TraceConfig) -> Network {
    line_net(3, delay, worm_len, &[(0, 10), (1, 12)])
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

/// Script `shots` into `net`'s traffic sources (each host's in time order).
fn fire(mut net: Network, shots: &[Shot]) -> Network {
    for h in 0..net.num_hosts() as u32 {
        let mut items: Vec<(u64, SourceMessage)> = shots
            .iter()
            .filter(|shot| shot.from == h)
            .map(|shot| {
                let dest = Destination::Unicast(HostId(shot.to));
                (shot.at, SourceMessage { dest, payload_len: shot.len })
            })
            .collect();
        items.sort_by_key(|&(at, _)| at);
        install_script(&mut net, HostId(h), items);
    }
    net
}

/// STOPs the per-byte run raised anywhere.
fn stops(net: &Network) -> usize {
    let events = net.trace.events();
    events.iter().filter(|(_, e)| matches!(e, TraceEvent::StopInForce { .. })).count()
}

/// Both modes stay lockstep-equal through the contention for a spread of
/// link delays (deeper slack ⇒ longer spans ⇒ more bytes at stake per
/// truncation).
#[test]
fn stop_mid_span_truncates_to_the_exact_byte() {
    for delay in [1u64, 3, 8] {
        let twin = assert_drains_alike(contention(delay, 2_000), 30_000, &format!("delay {delay}"));
        assert_eq!(deliveries(&twin.spans).len(), 2, "delay {delay}: both worms arrive");
        // The scenario must actually have exercised backpressure — STOPs
        // the span engine (whose byte progress matched at every horizon)
        // necessarily met while transmitting.
        assert!(stops(&twin.per_byte) > 0, "delay {delay}: no STOP raised — not a truncation test");
    }
}

/// The same contention with worms long enough that the first one's circuit
/// goes clear — its body leaves as worm-length spans — while the second
/// blocks behind it and STOPs its own upstream: both rules at work on one
/// fabric, lockstep-equal throughout.
#[test]
fn clear_circuit_beside_a_stopped_worm_stays_exact() {
    for delay in [1u64, 3, 8] {
        let twin = assert_drains_alike(contention(delay, 6_000), 30_000, &format!("delay {delay}"));
        assert_eq!(deliveries(&twin.spans).len(), 2, "delay {delay}: both worms arrive");
        assert!(stops(&twin.per_byte) > 0, "delay {delay}: the second worm never backpressured");
        // 12 000 bytes over up to 4 hops cost the per-byte engine ~84 000
        // events; one span per hop for the clear worm plus the second
        // worm's STOP/GO exchanges is a few hundred.
        let events = twin.events.1;
        assert!(events < 1_000, "delay {delay}: {events} events — no worm-length spans");
    }
}

/// One uncontended worm: once its head is in the sink's adapter the rest
/// goes out as one span per hop, so the engine's cost does not depend on
/// the worm's length — and every horizon still reads what per-byte reads.
#[test]
fn uncontended_worm_costs_the_same_events_at_any_length() {
    for delay in [1u64, 3, 8] {
        let run = |len| {
            let label = format!("delay {delay}, one worm of {len}");
            let twin = assert_drains_alike(line_net(3, delay, len, &[(0, 10)]), 40_000, &label);
            assert_eq!(deliveries(&twin.spans).len(), 1, "{label}: the worm arrives");
            twin.events
        };
        let (_, short) = run(4_000);
        let (reference, long) = run(8_000);
        assert_eq!(short, long, "delay {delay}: event count grew with the worm");
        assert!(short < 300, "delay {delay}: {short} events for one worm");
        assert!(reference > 50_000, "delay {delay}: per-byte costs {reference}");
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
        let label = format!("{len} bytes over 1000-byte-time trunks");
        let twin = assert_drains_alike(line_net(3, 1_000, len, &[(0, 10)]), 40_000, &label);
        let events = twin.events.1;
        assert!(events < 120, "{len} bytes: {events} events — no drain window opened");
    }
}

/// The contention of `stop_mid_span_truncates_to_the_exact_byte` on long
/// trunks: the loser's head blocks at sw1 while window-certified spans are
/// on their way to it, and the STOP it raises must find every one of them
/// already forwarded.
#[test]
fn drain_windows_close_before_the_stop_they_cannot_see() {
    for delay in [100u64, 1_000] {
        let twin = assert_drains_alike(contention(delay, 2_500), 20_000, &format!("delay {delay}"));
        assert_eq!(deliveries(&twin.spans).len(), 2, "delay {delay}: both worms arrive");
        assert!(stops(&twin.per_byte) > 0, "delay {delay}: no STOP raised");
    }
}

/// A STOP-heavy run to completion: end-state statistics match field for
/// field apart from the engine-cost counters, and span batching actually
/// spends fewer events.
#[test]
fn stop_heavy_run_keeps_stats_identical() {
    let (per_byte, spans) = assert_drains_alike(contention(4, 5_000), 60_000, "delay 4").events;
    assert!(
        spans < per_byte,
        "span batching should save events even under backpressure: {per_byte} vs {spans}"
    );
}

// ---------------------------------------------------------------------------
// Head runs: a worm's route bytes ride in its spans (DESIGN.md §3.1).
// ---------------------------------------------------------------------------

/// `(switches, events before head runs, events now)` of one 400-byte worm
/// down a line of delay-1 switches.
const LONE_WORM_EVENTS: [(usize, u64, u64); 5] =
    [(3, 53, 23), (4, 71, 28), (5, 91, 45), (6, 113, 52), (7, 137, 59)];

/// The fill phase of a worm — everything before its head is in the sink —
/// costs one span per hop, not one event pair per route byte per hop: the
/// count is pinned per path length, does not grow with the worm, and the
/// tail still lands at the per-byte time.
#[test]
fn lone_worm_budget_by_path_length() {
    for (n, before, pinned) in LONE_WORM_EVENTS {
        let events = |len| {
            let label = format!("{n} switches, one worm of {len}");
            assert_drains_alike(line_net(n, 1, len, &[(0, 10)]), 40_000, &label).events.1
        };
        let short = events(400);
        assert_eq!(short, pinned, "{n} switches: events of one 400-byte worm");
        assert!(
            short as f64 <= 0.65 * before as f64,
            "{n} switches: {short} events, {before} before head runs"
        );
        assert_eq!(events(4_000), short, "{n} switches: event count grew with the worm");
    }
}

/// A deadline that falls inside a head run counts only the bytes — route
/// symbols included — whose slots have passed.
#[test]
fn a_deadline_inside_a_head_run_reads_what_per_byte_reads() {
    for n in 3..=7 {
        for delay in [1u64, 3, 8] {
            let label = format!("{n} switches, delay {delay}");
            assert_drains_alike(line_net(n, delay, 400, &[(0, 10)]), 1_000, &label);
        }
    }
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
    let trunk = ChanId(2); // sw1→sw2
    let mut hit = 0;
    for p_len in 1..=6 {
        let mk = |n_at: Option<u64>| {
            move |mode, trace| {
                let mut shots = vec![
                    Shot { from: 2, to: 3, at: 10, len: 300 },   // Q
                    Shot { from: 0, to: 3, at: 10, len: p_len }, // P
                ];
                shots.extend(n_at.map(|at| Shot { from: 1, to: 3, at, len: 100 }));
                fire(line_fabric(4, 3, &[0, 1, 2, 3], config(mode, trace)), &shots)
            }
        };
        let quiet = assert_drains_alike(mk(None), 5_000, &format!("P of {p_len}, no N")).per_byte;
        let go = quiet.trace.events().iter().find_map(|&(t, e)| match e {
            TraceEvent::GoReceived { ch, .. } if ch == trunk => Some(t),
            _ => None,
        });
        let Some(go) = go else { continue };
        // N's head run reaches sw1 one byte-time after N is generated.
        for n_at in go - 3..=go + 1 {
            let label = format!("P of {p_len}, N at {n_at}, GO at {go}");
            let per_byte = assert_drains_alike(mk(Some(n_at)), 5_000, &label).per_byte;
            let n = worm_name(1, 0);
            if route_consumed_at(&per_byte, n, 1) == Some(go) && output_wait(&per_byte, n).is_none() {
                hit += 1;
            }
        }
    }
    assert!(hit > 0, "no case granted N the trunk in the tick its GO landed");
}

/// Cut-through relay: forwards a worm addressed to this host to `to`,
/// behind it byte for byte, sent from `on_header` as the HC and tree
/// protocols send theirs.
struct Relay {
    to: HostId,
}

impl AdapterProtocol for Relay {
    fn on_generate(&mut self, _ctx: &mut ProtocolCtx, _msg: AppMessage) {}
    fn on_header(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) -> Admission {
        ctx.send(SendSpec {
            follow: Some(worm.id),
            ..SendSpec::forward(worm, self.to)
        });
        Admission::Accept
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
        move |mode, trace| {
            // h1 relays X to h2, its neighbour on sw1; A heads there too.
            let mut net = line_fabric(3, 1, &[0, 1, 1, 2], config(mode, trace));
            net.set_protocol(HostId(1), Box::new(Relay { to: HostId(2) }));
            let mut shots = vec![Shot { from: 3, to: 1, at: 10, len: 200 }]; // X
            shots.extend(a_at.map(|at| Shot { from: 0, to: 2, at, len: 200 }));
            fire(net, &shots)
        }
    };
    let (a, b) = (worm_name(0, 0), worm_name(1, 0));
    let quiet = assert_drains_alike(mk(None), 5_000, "no A").per_byte;
    let b_at = route_consumed_at(&quiet, b, 1).expect("B's head reaches sw1");
    let mut hit = 0;
    for a_at in b_at - 6..=b_at {
        let per_byte = assert_drains_alike(mk(Some(a_at)), 5_000, &format!("A at {a_at}")).per_byte;
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

/// A cut-through copy never outruns its source. X's head blocks at sw1
/// behind B, so X piles up in sw1's slack buffer behind a STOP on the
/// delay-20 trunk. Once B's tail has passed, that buffer drains below its
/// GO mark long before the GO's refill comes back, so X reaches the relay
/// with a gap. At every step the relay's copy keeps its `follow`, has sent
/// no more body than X has delivered, and sends its tail only once X's has
/// arrived; both engine modes agree on the whole run.
#[test]
fn a_relayed_copy_waits_out_its_sources_gap() {
    // h0 on sw0 sends X to the relay h2; h1 on sw1 sends B past sw1 first.
    // The relay forwards X to h3, and B goes to h4, both beside it on sw2.
    let mk = |mode, trace| {
        let mut net = line_fabric(3, 20, &[0, 1, 2, 2, 2], config(mode, trace));
        net.set_protocol(HostId(2), Box::new(Relay { to: HostId(3) }));
        let shots = [
            Shot { from: 1, to: 4, at: 10, len: 300 }, // B
            Shot { from: 0, to: 2, at: 10, len: 200 }, // X
        ];
        fire(net, &shots)
    };
    assert_drains_alike(mk, 5_000, "relay behind a gap");
    for mode in [SimMode::PerByte, SimMode::SpanBatched] {
        let mut net = mk(mode, TraceConfig::Off);
        let (mut last_got, mut stalled, mut held) = (0, false, false);
        for t in 1..=2_000 {
            net.run_until(t);
            let relay = &net.adapters[2];
            let RxState::Receiving { worm: x, body_got } = relay.rx else {
                if relay.counters.worms_sent == 1 {
                    assert_eq!(relay.counters.worms_received, 1, "{mode:?} t={t}: tail before X's");
                }
                continue;
            };
            stalled |= body_got == last_got;
            last_got = body_got;
            let copy = relay.tx_queue.front().expect("the copy leaves after X's tail");
            assert!(
                copy.body_sent <= body_got,
                "{mode:?} t={t}: copy sent {} body bytes of X's {body_got}",
                copy.body_sent
            );
            assert_eq!(copy.follow, Some(x), "{mode:?} t={t}: the copy lost its follow");
            held |= copy.body_sent == body_got;
        }
        let relay = &net.adapters[2];
        assert_eq!((relay.counters.worms_received, relay.counters.worms_sent), (1, 1), "{mode:?}");
        // A span credits its bytes at once, so only per-byte sees the gap.
        assert!(stalled || mode == SimMode::SpanBatched, "X arrived without a gap");
        assert!(held, "{mode:?}: the copy never caught up with X");
    }
}

/// (c) A route longer than the first input's 8-byte room: the head run is
/// split, and the second span's route symbols are payload to a switch that
/// already forwards the worm.
#[test]
fn a_route_longer_than_the_slack_room_splits_its_head_run() {
    for delay in [1u64, 3] {
        let label = format!("12 switches, delay {delay}");
        let spans = assert_drains_alike(line_net(12, delay, 400, &[(0, 10)]), 5_000, &label).spans;
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
        move |mode, trace| {
            let shots = [
                Shot { from: 0, to: 3, at: 10, len: 100 },      // Z, through sw1 rightward
                Shot { from: 1, to: 3, at: w_at, len: 40 },     // W1, behind Z
                Shot { from: 1, to: 0, at: w_at + 1, len: 40 }, // W2, leftward, queued behind W1
            ];
            fire(line_fabric(4, 1, &[0, 1, 2, 3], config(mode, trace)), &shots)
        }
    };
    let mut lags = Vec::new();
    for w_at in 114..=128 {
        let twin = assert_drains_alike(mk(w_at), 5_000, &format!("W at {w_at}"));
        if let Some((blocked, resumed)) = output_wait(&twin.per_byte, worm_name(1, 0)) {
            lags.push(resumed - blocked);
            if resumed - blocked == 1 {
                // Armed for the slot of the byte it sends, the grant's kick
                // fires once: no early kick to re-arm.
                assert_eq!(twin.events.1, 67, "W at {w_at}");
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
        let mk = line_net(3, delay, 600, &[(0, 10), (1, 20)]);
        let per_byte = assert_drains_alike(mk, 10_000, &format!("delay {delay}")).per_byte;
        let uplink = ChanId(2 * 2 + 2); // host 1's
        assert!(
            per_byte.trace.events().iter().any(
                |&(_, e)| matches!(e, TraceEvent::StopInForce { ch, .. } if ch == uplink)
            ),
            "delay {delay}: W never filled its input"
        );
        assert!(output_wait(&per_byte, worm_name(1, 0)).is_some(), "delay {delay}: W never waited");
    }
}

