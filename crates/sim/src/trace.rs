//! Per-worm lifecycle tracing.
//!
//! When a [`TraceConfig`] other than [`TraceConfig::Off`] is selected (via
//! [`crate::config::NetworkConfigBuilder::trace`]), the network records a
//! structured timeline of every worm's life: injection, route-byte
//! consumption at each switch, blocking (with the cause: STOP backpressure,
//! a busy crossbar output, a switchcast branch wait), resumption, fragment
//! park/resume (the V2 interrupt/resume scheme), Backward-Reset flushes
//! (V3), reception, refusal, corruption, and application delivery — plus
//! the channel-level STOP/GO timeline.
//!
//! # Determinism guarantee
//!
//! The thirteen *lifecycle* events above are a pure function of seed and
//! configuration, identical under [`crate::network::SimMode::PerByte`] and
//! [`crate::network::SimMode::SpanBatched`]: a span carries bytes of a
//! single worm, and the only one of them a node acts on — a head route
//! byte, always the first byte of its span — lands at its own arrival
//! slot, so route parsing, admission, completion and delivery stay
//! per-byte-exact, and the span emission guards
//! (`switch_span_ready` / `switch_span_room`) keep slack occupancy
//! strictly below the STOP watermark with no GO owed for the whole drain
//! window, so the STOP/GO timeline cannot differ either. The span engine
//! records nothing of its own: a traced `SpanBatched` run (sequential or
//! sharded) holds exactly the events of the traced `PerByte` run, so the
//! sink grows with lifecycle events, not with engine events, and the raw
//! JSONL of the two modes is byte-identical (enforced by
//! `tests/span_equivalence.rs` and the sharded differential harness).
//! Events occur at per-byte-exact times; only the processing order within
//! one timestamp is incidental, and [`Trace::to_jsonl`] sorts lines by
//! `(time, line)` so the rendered JSONL is reproducible.
//!
//! # Cost when disabled
//!
//! With [`TraceConfig::Off`] every emission site reduces to one predicted
//! branch on a cached boolean ([`Trace::enabled`]); nothing is allocated
//! and no event is constructed.

use crate::engine::{HostId, SwitchId};
use crate::link::ChanId;
use crate::time::SimTime;
use crate::worm::MessageId;

/// Trace sink selection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceConfig {
    /// No tracing; emission sites compile to a single branch.
    #[default]
    Off,
    /// Record every event in memory (grows unbounded with the run).
    Memory,
    /// Keep only the most recent `capacity` events (oldest are dropped);
    /// the sink tests and long soak runs use this.
    Ring { capacity: usize },
}

/// Why a worm stopped making progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockCause {
    /// STOP backpressure took effect on the channel the worm was
    /// transmitting on.
    StopBackpressure { ch: ChanId },
    /// The worm's head is queued for a crossbar output another worm owns.
    OutputBusy { switch: SwitchId, out: u8 },
    /// A switchcast replica branch is queued for a busy output (Section 3:
    /// this is where V1 fills IDLEs, V2 interrupts, V3 flushes).
    BranchWait { switch: SwitchId, out: u8 },
}

/// One recorded event.
///
/// The `worm` field of worm-scoped events is the worm's *canonical name*
/// `(injecting host << 40) | per-host sequence`, not its dense
/// [`crate::worm::WormId`] arena index: dense ids are per-engine (each
/// shard of a sharded run allocates its own), while the canonical name
/// depends only on the injecting host's own history, so the rendered
/// trace is identical however the run is partitioned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A worm entered a transmit queue at `host`.
    WormInjected { worm: u64, host: HostId },
    /// A switch consumed the worm's head route byte and selected `out`.
    RouteConsumed { worm: u64, switch: SwitchId, out: u8 },
    /// The worm stopped making progress; see [`BlockCause`].
    WormBlocked { worm: u64, cause: BlockCause },
    /// The matching resumption (GO received, or the output was granted).
    WormResumed { worm: u64, cause: BlockCause },
    /// A worm was fully received (checksum good) at `host`.
    WormReceived { worm: u64, host: HostId },
    /// A worm was refused admission (dropped) at `host`.
    WormRefused { worm: u64, host: HostId },
    /// A worm failed its checksum at `host` and was discarded.
    WormCorrupt { worm: u64, host: HostId },
    /// A worm was evicted by a Backward Reset flush (V3); `host` is the
    /// injector that will be told to retransmit.
    WormFlushed { worm: u64, host: HostId },
    /// A fragment boundary parked a partial reception at `host` with
    /// `body_got` body bytes reassembled so far (V2 interrupt/resume).
    FragmentParked { worm: u64, host: HostId, body_got: u64 },
    /// A parked reception resumed reassembly at `host`.
    FragmentResumed { worm: u64, host: HostId, body_got: u64 },
    /// The protocol delivered `msg` to the local host.
    Delivered { msg: MessageId, host: HostId },
    /// A STOP took effect on the transmit side of `ch` (lane `lane` of
    /// its link; 0 on single-lane links).
    StopInForce { ch: ChanId, lane: u8 },
    /// A GO released the transmit side of `ch`.
    GoReceived { ch: ChanId, lane: u8 },
}

/// The trace recorder: a no-op when disabled, an in-memory log or a
/// bounded ring otherwise.
#[derive(Clone, Debug)]
pub struct Trace {
    cfg: TraceConfig,
    enabled: bool,
    /// The log. A ring sink keeps up to twice its capacity here, the
    /// oldest `hidden` of them already overwritten.
    events: Vec<(SimTime, TraceEvent)>,
    /// Leading entries of `events` a ring has dropped but not yet drained:
    /// it drains them in one go when they number `capacity` (so `events`
    /// holds twice the capacity), and an overflowing push costs O(1)
    /// amortized.
    hidden: usize,
    /// Events discarded by ring overflow.
    dropped: u64,
}

impl Default for Trace {
    /// An unbounded in-memory trace (what tests that poke [`Trace`]
    /// directly want; a network's trace follows its [`TraceConfig`]).
    fn default() -> Self {
        Trace::new(TraceConfig::Memory)
    }
}

impl Trace {
    pub fn new(cfg: TraceConfig) -> Self {
        Trace {
            cfg,
            enabled: !matches!(cfg, TraceConfig::Off),
            events: Vec::new(),
            hidden: 0,
            dropped: 0,
        }
    }

    /// True when events should be recorded. Emission sites guard on this;
    /// it is a cached boolean load, so disabled tracing costs one
    /// predictable branch per site.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The sink configuration this recorder was built with.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Events discarded by ring overflow (0 for the other sinks).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn push(&mut self, at: SimTime, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.events.push((at, ev));
        if let TraceConfig::Ring { capacity } = self.cfg {
            if self.events.len() - self.hidden > capacity {
                self.hidden += 1;
                self.dropped += 1;
                if self.hidden >= capacity {
                    self.events.drain(..self.hidden);
                    self.hidden = 0;
                }
            }
        }
    }

    /// The recorded events in push order (for a ring, the newest
    /// `capacity`).
    pub fn events(&self) -> &[(SimTime, TraceEvent)] {
        &self.events[self.hidden..]
    }

    /// Append another recorder's [`Trace::events`] (sharded-run merging):
    /// events concatenate — `to_jsonl`'s canonical sort orders them —
    /// and ring-drop counts sum. Ring capacity is deliberately NOT
    /// re-applied here; a ring budget is per engine, so a merged
    /// sharded trace may hold up to `shards × capacity` events.
    pub(crate) fn absorb(&mut self, other: &Trace) {
        self.events.extend_from_slice(other.events());
        self.dropped += other.dropped;
    }

    pub fn len(&self) -> usize {
        self.events().len()
    }

    pub fn is_empty(&self) -> bool {
        self.events().is_empty()
    }

    /// Serialize the trace as JSON Lines, one event per line, in the
    /// canonical order of [`Trace::write_jsonl`]. The output buffer is
    /// sized to the rendered bytes before it is filled.
    pub fn to_jsonl(&self) -> String {
        let (arena, index) = self.render_sorted();
        let mut out = Vec::with_capacity(arena.len() + index.len());
        for &(_, start, end) in &index {
            out.extend_from_slice(&arena.as_bytes()[start..end]);
            out.push(b'\n');
        }
        String::from_utf8(out).expect("JSONL lines are ASCII")
    }

    /// Stream the JSONL to `w`, one [`render_line`] per event, sorted by
    /// `(time, line bytes)`. Emission order within one timestamp is the
    /// only thing that may differ between [`crate::network::SimMode`]s and
    /// shard counts, so the sorted output is byte-identical for identical
    /// seed and configuration. Every line is rendered into one arena sized
    /// for the whole trace, then an index of `(t, start, end)` is sorted;
    /// the sort may be unstable because two entries with equal keys are
    /// equal bytes.
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        let (arena, index) = self.render_sorted();
        for &(_, start, end) in &index {
            w.write_all(&arena.as_bytes()[start..end])?;
            w.write_all(b"\n")?;
        }
        Ok(())
    }

    /// Every event's [`render_line`] in one arena, and the arena's line
    /// spans sorted into the canonical `(t, line bytes)` order.
    fn render_sorted(&self) -> (String, Vec<(SimTime, usize, usize)>) {
        let events = self.events();
        let mut arena = String::with_capacity(events.len() * MAX_LINE);
        let mut index = Vec::with_capacity(events.len());
        for (t, e) in events {
            let start = arena.len();
            render_line(&mut arena, *t, e);
            index.push((*t, start, arena.len()));
        }
        let bytes = arena.as_bytes();
        index.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| bytes[a.1..a.2].cmp(&bytes[b.1..b.2]))
        });
        (arena, index)
    }
}

/// The longest line [`render_line`] can produce: a `fragment-resumed` with
/// every integer at its widest (58 bytes of text, 70 of digits).
/// [`Trace::write_jsonl`] reserves this much per event so its arena never
/// reallocates; pages it does not fill are never touched.
const MAX_LINE: usize = 128;

/// Append one event as a JSONL line onto `s` (no trailing newline). Field
/// order is fixed (`t`, `ev`, then event-specific fields) so the output is
/// reproducible; appending into a caller-owned buffer lets serialization
/// reuse one allocation across events.
pub fn render_line(s: &mut String, t: SimTime, ev: &TraceEvent) {
    s.push_str("{\"t\":");
    push_u64(s, t);
    s.push_str(",\"ev\":\"");
    match *ev {
        TraceEvent::WormInjected { worm, host } => {
            s.push_str("worm-injected\"");
            field(s, "worm", worm);
            field(s, "host", host.0);
        }
        TraceEvent::RouteConsumed { worm, switch, out } => {
            s.push_str("route-consumed\"");
            field(s, "worm", worm);
            field(s, "switch", switch.0);
            field(s, "out", out);
        }
        TraceEvent::WormBlocked { worm, cause } => {
            s.push_str("blocked\"");
            field(s, "worm", worm);
            write_cause(s, cause);
        }
        TraceEvent::WormResumed { worm, cause } => {
            s.push_str("resumed\"");
            field(s, "worm", worm);
            write_cause(s, cause);
        }
        TraceEvent::WormReceived { worm, host } => {
            s.push_str("worm-received\"");
            field(s, "worm", worm);
            field(s, "host", host.0);
        }
        TraceEvent::WormRefused { worm, host } => {
            s.push_str("worm-refused\"");
            field(s, "worm", worm);
            field(s, "host", host.0);
        }
        TraceEvent::WormCorrupt { worm, host } => {
            s.push_str("worm-corrupt\"");
            field(s, "worm", worm);
            field(s, "host", host.0);
        }
        TraceEvent::WormFlushed { worm, host } => {
            s.push_str("worm-flushed\"");
            field(s, "worm", worm);
            field(s, "host", host.0);
        }
        TraceEvent::FragmentParked { worm, host, body_got } => {
            s.push_str("fragment-parked\"");
            field(s, "worm", worm);
            field(s, "host", host.0);
            field(s, "body_got", body_got);
        }
        TraceEvent::FragmentResumed { worm, host, body_got } => {
            s.push_str("fragment-resumed\"");
            field(s, "worm", worm);
            field(s, "host", host.0);
            field(s, "body_got", body_got);
        }
        TraceEvent::Delivered { msg, host } => {
            s.push_str("delivered\"");
            field(s, "msg", msg.0);
            field(s, "host", host.0);
        }
        TraceEvent::StopInForce { ch, lane } => {
            s.push_str("stop\"");
            field(s, "ch", ch.0);
            field(s, "lane", lane);
        }
        TraceEvent::GoReceived { ch, lane } => {
            s.push_str("go\"");
            field(s, "ch", ch.0);
            field(s, "lane", lane);
        }
    }
    s.push('}');
}

fn write_cause(s: &mut String, cause: BlockCause) {
    match cause {
        BlockCause::StopBackpressure { ch } => {
            s.push_str(",\"cause\":\"stop\"");
            field(s, "ch", ch.0);
        }
        BlockCause::OutputBusy { switch, out } => {
            s.push_str(",\"cause\":\"output-busy\"");
            field(s, "switch", switch.0);
            field(s, "out", out);
        }
        BlockCause::BranchWait { switch, out } => {
            s.push_str(",\"cause\":\"branch-wait\"");
            field(s, "switch", switch.0);
            field(s, "out", out);
        }
    }
}

/// Append `,"key":value`.
fn field(s: &mut String, key: &str, value: impl Into<u64>) {
    s.push_str(",\"");
    s.push_str(key);
    s.push_str("\":");
    push_u64(s, value.into());
}

/// Append `x` in decimal, as `write!` would but without the formatting
/// machinery, which cost more than the rest of rendering a line.
fn push_u64(s: &mut String, mut x: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    s.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(t: SimTime, ev: &TraceEvent) -> String {
        let mut s = String::new();
        render_line(&mut s, t, ev);
        s
    }

    #[test]
    fn off_sink_records_nothing() {
        let mut t = Trace::new(TraceConfig::Off);
        assert!(!t.enabled());
        t.push(1, TraceEvent::StopInForce { ch: ChanId(0), lane: 0 });
        assert!(t.is_empty());
    }

    #[test]
    fn widest_lines_fit_max_line() {
        let (w, h, n) = (u64::MAX, u32::MAX, u8::MAX);
        let causes = [
            BlockCause::StopBackpressure { ch: ChanId(h) },
            BlockCause::OutputBusy {
                switch: SwitchId(h),
                out: n,
            },
            BlockCause::BranchWait {
                switch: SwitchId(h),
                out: n,
            },
        ];
        let mut events = vec![
            TraceEvent::WormInjected { worm: w, host: HostId(h) },
            TraceEvent::RouteConsumed {
                worm: w,
                switch: SwitchId(h),
                out: n,
            },
            TraceEvent::WormReceived { worm: w, host: HostId(h) },
            TraceEvent::WormRefused { worm: w, host: HostId(h) },
            TraceEvent::WormCorrupt { worm: w, host: HostId(h) },
            TraceEvent::WormFlushed { worm: w, host: HostId(h) },
            TraceEvent::FragmentParked {
                worm: w,
                host: HostId(h),
                body_got: w,
            },
            TraceEvent::FragmentResumed {
                worm: w,
                host: HostId(h),
                body_got: w,
            },
            TraceEvent::Delivered {
                msg: MessageId(w),
                host: HostId(h),
            },
            TraceEvent::StopInForce { ch: ChanId(h), lane: n },
            TraceEvent::GoReceived { ch: ChanId(h), lane: n },
        ];
        for cause in causes {
            events.push(TraceEvent::WormBlocked { worm: w, cause });
            events.push(TraceEvent::WormResumed { worm: w, cause });
        }
        let widest = events.iter().map(|e| line(w, e).len()).max();
        assert_eq!(widest, Some(MAX_LINE));
    }

    #[test]
    fn digits_match_display() {
        for x in [0, 1, 9, 10, 99, 100, 1 << 40, u64::MAX - 1, u64::MAX] {
            let mut s = String::new();
            push_u64(&mut s, x);
            assert_eq!(s, x.to_string());
        }
    }

    #[test]
    fn ring_sink_drops_oldest() {
        let mut t = Trace::new(TraceConfig::Ring { capacity: 2 });
        for i in 0..5u32 {
            t.push(i as SimTime, TraceEvent::WormInjected {
                worm: u64::from(i),
                host: HostId(0),
            });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.events()[0].0, 3, "oldest surviving event");
        assert_eq!(t.events()[1].0, 4);
    }

    #[test]
    fn ring_sink_keeps_the_tail_over_many_wraps() {
        let capacity = 7;
        let mut t = Trace::new(TraceConfig::Ring { capacity });
        let total = 10 * capacity;
        for i in 0..total {
            t.push(i as SimTime, TraceEvent::Delivered {
                msg: MessageId(i as u64),
                host: HostId(i as u32 % 2),
            });
            assert_eq!(t.len(), (i + 1).min(capacity));
            assert_eq!(t.dropped(), (i + 1).saturating_sub(capacity) as u64);
        }
        let times: Vec<SimTime> = t.events().iter().map(|&(at, _)| at).collect();
        let tail: Vec<SimTime> = ((total - capacity) as SimTime..total as SimTime).collect();
        assert_eq!(times, tail);
        assert_eq!(t.to_jsonl().lines().count(), capacity);
        let mut merged = Trace::new(TraceConfig::Ring { capacity });
        merged.absorb(&t);
        assert_eq!(merged.events(), t.events());
        assert_eq!(merged.dropped(), t.dropped());
    }

    #[test]
    fn jsonl_sorts_within_timestamp() {
        let mut t = Trace::default();
        // Two events at the same time, pushed in "wrong" lexicographic
        // order; to_jsonl must normalize.
        t.push(7, TraceEvent::StopInForce { ch: ChanId(9), lane: 0 });
        t.push(7, TraceEvent::GoReceived { ch: ChanId(1), lane: 0 });
        let a = t.to_jsonl();
        let mut t2 = Trace::default();
        t2.push(7, TraceEvent::GoReceived { ch: ChanId(1), lane: 0 });
        t2.push(7, TraceEvent::StopInForce { ch: ChanId(9), lane: 0 });
        assert_eq!(a, t2.to_jsonl());
        assert_eq!(a.lines().count(), 2);
        assert!(a.starts_with("{\"t\":7,\"ev\":\"go\",\"ch\":1,\"lane\":0}\n"));
    }

    #[test]
    fn jsonl_line_shapes() {
        let blocked = line(3, &TraceEvent::WormBlocked {
            worm: 4,
            cause: BlockCause::OutputBusy {
                switch: SwitchId(2),
                out: 5,
            },
        });
        assert_eq!(
            blocked,
            "{\"t\":3,\"ev\":\"blocked\",\"worm\":4,\"cause\":\"output-busy\",\"switch\":2,\"out\":5}"
        );
        let resumed = line(9, &TraceEvent::WormResumed {
            worm: 4,
            cause: BlockCause::StopBackpressure { ch: ChanId(1) },
        });
        assert_eq!(
            resumed,
            "{\"t\":9,\"ev\":\"resumed\",\"worm\":4,\"cause\":\"stop\",\"ch\":1}"
        );
    }

    #[test]
    fn write_jsonl_matches_to_jsonl() {
        let mut t = Trace::default();
        t.push(7, TraceEvent::StopInForce { ch: ChanId(9), lane: 0 });
        t.push(3, TraceEvent::WormInjected {
            worm: 1,
            host: HostId(0),
        });
        t.push(7, TraceEvent::GoReceived { ch: ChanId(1), lane: 0 });
        let mut streamed = Vec::new();
        t.write_jsonl(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), t.to_jsonl());
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
