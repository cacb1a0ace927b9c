//! Spans at a worm's two ends (DESIGN.md §3.1): its first bytes may land
//! in an idle sink as one span, the admission decision taken once at the
//! first byte's slot, and its tail may ride the span it ends, the worm
//! finishing at the tail's own send slot. Each test runs both engine modes
//! through `common::assert_drains_alike` (raw JSONL, deliveries, masked
//! `NetStats`, and a lockstep pair compared at every byte-time) and pins
//! what only the span engine does differently.

mod common;

use common::{assert_drains_alike, line_fabric};
use wormcast::sim::engine::HostId;
use wormcast::sim::network::SimMode;
use wormcast::sim::protocol::{
    AdapterProtocol, Admission, AppMessage, Destination, ProtocolCtx, SourceMessage,
};
use wormcast::sim::trace::{BlockCause, TraceConfig, TraceEvent};
use wormcast::sim::worm::{WormInstance, HEADER_LEN};
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

/// Script one worm of `len` payload bytes from host `from` to host `to`
/// at each `(from, to, at, len)`.
fn fire(mut net: Network, shots: &[(u32, u32, u64, u32)]) -> Network {
    for h in 0..net.num_hosts() as u32 {
        let items: Vec<(u64, SourceMessage)> = shots
            .iter()
            .filter(|shot| shot.0 == h)
            .map(|&(_, to, at, len)| {
                let dest = Destination::Unicast(HostId(to));
                (
                    at,
                    SourceMessage {
                        dest,
                        payload_len: len,
                    },
                )
            })
            .collect();
        install_script(&mut net, HostId(h), items);
    }
    net
}

/// A host whose buffers are always full: every worm is refused on its
/// first byte.
struct Refuser;

impl AdapterProtocol for Refuser {
    fn on_generate(&mut self, _ctx: &mut ProtocolCtx, _msg: AppMessage) {}
    fn on_header(&mut self, _ctx: &mut ProtocolCtx, _worm: &WormInstance) -> Admission {
        Admission::Refuse
    }
    fn on_worm_received(&mut self, _ctx: &mut ProtocolCtx, _worm: &WormInstance) {}
}

/// host0 — sw0 — sw1 — host1 on delay-1 links, host1 refusing, and one
/// 100-byte worm from host0 at 10.
fn refused(mode: SimMode, trace: TraceConfig) -> Network {
    let mut net = line_fabric(2, 1, &[0, 1], config(mode, trace));
    net.set_protocol(HostId(1), Box::new(Refuser));
    fire(net, &[(0, 1, 10, 100)])
}

/// The worm's first bytes reach the idle sink as one span, which is
/// refused as a whole at the first byte's slot. Every byte but the tail
/// into host1 travels in spans: the span run's one `RxByte` is that tail,
/// so the first bytes into host1 landed in an `RxSpan`. Both engines end
/// with the whole worm refused, and the lockstep pair has already held
/// `bytes_refused` to the per-byte count at every byte-time.
#[test]
fn a_refused_first_span_lands_whole_in_the_idle_sink() {
    let twin = assert_drains_alike(refused, 2_000, "refused");
    for net in [&twin.per_byte, &twin.spans] {
        let host = &net.adapters[1].counters;
        let wire = u64::from(HEADER_LEN) + 100 + 1;
        assert_eq!((host.worms_refused, host.bytes_refused), (1, wire));
    }
    let (per_byte, spans) = (
        twin.per_byte.stats.events_by_kind,
        twin.spans.stats.events_by_kind,
    );
    assert!(spans.rx_byte < per_byte.rx_byte, "{spans:?} vs {per_byte:?}");
    assert_eq!(spans.rx_byte, 1, "{spans:?}");
    assert!(spans.rx_span > 0, "{spans:?}");
}

/// A line of three switches joined by 20-byte-time trunks, a host on
/// each: Z (100 bytes, host1 → host2) takes sw1's output toward sw2, and W
/// (host0 → host2, 10 bytes) reaches sw1 while Z holds it. W's head waits
/// there, its body below the STOP mark, for Z's tail, which rides the last
/// span of Z out of host1 and again out of sw1: the output is released,
/// and W's head granted, in the tail's own send slot.
fn held_behind_a_tail(mode: SimMode, trace: TraceConfig) -> Network {
    let net = line_fabric(3, 20, &[0, 1, 2], config(mode, trace));
    fire(net, &[(1, 2, 10, 100), (0, 2, 12, 10)])
}

#[test]
fn a_head_waiting_for_an_output_is_granted_in_the_tails_tick() {
    let twin = assert_drains_alike(held_behind_a_tail, 2_000, "held behind a tail");
    let w: u64 = 0; // host0's first worm, `(host << 40) | seq`
    let waits: Vec<(u64, bool)> = twin
        .per_byte
        .trace
        .events()
        .iter()
        .filter_map(|&(t, e)| match e {
            TraceEvent::WormBlocked {
                worm,
                cause: BlockCause::OutputBusy { .. },
            } if worm == w => Some((t, true)),
            TraceEvent::WormResumed {
                worm,
                cause: BlockCause::OutputBusy { .. },
            } if worm == w => Some((t, false)),
            _ => None,
        })
        .collect();
    assert!(
        matches!(waits[..], [(_, true), (_, false)]),
        "W waits for Z's output once: {waits:?}"
    );
    // Every tail but the two into the sinks rode a span, and so did every
    // first byte into a sink: the two tails are the run's only lone bytes.
    let kinds = twin.spans.stats.events_by_kind;
    assert_eq!(kinds.rx_byte, 2, "{kinds:?}");
    assert_eq!(kinds.total(), twin.spans.stats.events_fired);
}
