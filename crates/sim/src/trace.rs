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
    /// events concatenate, out of time order — [`Trace::write_jsonl`]
    /// walks them through a time-sorted index — and ring-drop counts sum.
    /// Ring capacity is deliberately NOT re-applied here; a ring budget is
    /// per engine, so a merged sharded trace may hold up to
    /// `shards × capacity` events.
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
    /// canonical order of [`Trace::write_jsonl`], into a `String` that grows
    /// as it is written.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.render_sorted(&mut out, |_| Ok(()))
            .expect("rendering into a String cannot fail");
        out
    }

    /// Stream the JSONL to `w`, one [`render_line`] per event, sorted by
    /// `(time, line bytes)`. Emission order within one timestamp is the
    /// only thing that may differ between [`crate::network::SimMode`]s and
    /// shard counts, so the sorted output is byte-identical for identical
    /// seed and configuration. Lines reach `w` in chunks of about 64 KiB.
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut buf = String::new();
        self.render_sorted(&mut buf, |buf| {
            if buf.len() >= WRITE_CHUNK {
                w.write_all(buf.as_bytes())?;
                buf.clear();
            }
            Ok(())
        })?;
        w.write_all(buf.as_bytes())
    }

    /// Append every line to `out` in canonical order, handing `out` to
    /// `spill` after each timestamp.
    ///
    /// The engine pushes events in time order, so the walk visits them as
    /// they lie; only a merged trace (a shard merge) is out of order, and
    /// is visited through an index stable-sorted by time.
    fn render_sorted(
        &self,
        out: &mut String,
        spill: impl FnMut(&mut String) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let events = self.events();
        if events.windows(2).all(|p| p[0].0 <= p[1].0) {
            return write_by_timestamp(events.iter(), out, spill);
        }
        let n = u32::try_from(events.len()).expect("a trace holds fewer than 2^32 events");
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_by_key(|&i| events[i as usize].0);
        write_by_timestamp(order.iter().map(|&i| &events[i as usize]), out, spill)
    }
}

/// Bytes [`Trace::write_jsonl`] gathers before each write.
const WRITE_CHUNK: usize = 1 << 16;

/// Append `events`, which come in time order, to `out` one timestamp at a
/// time, and hand `out` to `spill` after each. Each line goes straight
/// into `out` with its `\n`; a timestamp whose lines came out of byte
/// order is copied aside and written back sorted. A line holds no byte
/// below `\n`, so the newline leaves the order of the lines as it is, and
/// two lines with equal bytes are interchangeable, so the sort may be
/// unstable. Beyond `out`, the writer holds one timestamp's lines.
fn write_by_timestamp<'a>(
    events: impl Iterator<Item = &'a (SimTime, TraceEvent)>,
    out: &mut String,
    mut spill: impl FnMut(&mut String) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut events = events.peekable();
    let mut group = String::new();
    let mut lines: Vec<std::ops::Range<usize>> = Vec::new();
    while let Some(&&(t, _)) = events.peek() {
        let start = out.len();
        lines.clear();
        while let Some((_, e)) = events.next_if(|&&(u, _)| u == t) {
            let from = out.len();
            render_line(out, t, e);
            out.push('\n');
            lines.push(from..out.len());
        }
        let bytes = out.as_bytes();
        if !lines
            .windows(2)
            .all(|p| bytes[p[0].clone()] <= bytes[p[1].clone()])
        {
            lines.sort_unstable_by(|a, b| bytes[a.clone()].cmp(&bytes[b.clone()]));
            group.clear();
            for line in &lines {
                group.push_str(&out[line.clone()]);
            }
            out.truncate(start);
            out.push_str(&group);
        }
        spill(out)?;
    }
    Ok(())
}

/// Append one event as a JSONL line onto `s` (no trailing newline). Field
/// order is fixed (`t`, `ev`, then event-specific fields) so the output is
/// reproducible; appending into a caller-owned buffer lets serialization
/// reuse one allocation across events.
pub fn render_line(s: &mut String, t: SimTime, ev: &TraceEvent) {
    field(s, "{\"t\":", t);
    match *ev {
        TraceEvent::WormInjected { worm, host } => {
            field(s, ",\"ev\":\"worm-injected\",\"worm\":", worm);
            field(s, ",\"host\":", host.0);
        }
        TraceEvent::RouteConsumed { worm, switch, out } => {
            field(s, ",\"ev\":\"route-consumed\",\"worm\":", worm);
            field(s, ",\"switch\":", switch.0);
            field(s, ",\"out\":", out);
        }
        TraceEvent::WormBlocked { worm, cause } => {
            field(s, ",\"ev\":\"blocked\",\"worm\":", worm);
            write_cause(s, cause);
        }
        TraceEvent::WormResumed { worm, cause } => {
            field(s, ",\"ev\":\"resumed\",\"worm\":", worm);
            write_cause(s, cause);
        }
        TraceEvent::WormReceived { worm, host } => {
            field(s, ",\"ev\":\"worm-received\",\"worm\":", worm);
            field(s, ",\"host\":", host.0);
        }
        TraceEvent::WormRefused { worm, host } => {
            field(s, ",\"ev\":\"worm-refused\",\"worm\":", worm);
            field(s, ",\"host\":", host.0);
        }
        TraceEvent::WormCorrupt { worm, host } => {
            field(s, ",\"ev\":\"worm-corrupt\",\"worm\":", worm);
            field(s, ",\"host\":", host.0);
        }
        TraceEvent::WormFlushed { worm, host } => {
            field(s, ",\"ev\":\"worm-flushed\",\"worm\":", worm);
            field(s, ",\"host\":", host.0);
        }
        TraceEvent::FragmentParked {
            worm,
            host,
            body_got,
        } => {
            field(s, ",\"ev\":\"fragment-parked\",\"worm\":", worm);
            field(s, ",\"host\":", host.0);
            field(s, ",\"body_got\":", body_got);
        }
        TraceEvent::FragmentResumed {
            worm,
            host,
            body_got,
        } => {
            field(s, ",\"ev\":\"fragment-resumed\",\"worm\":", worm);
            field(s, ",\"host\":", host.0);
            field(s, ",\"body_got\":", body_got);
        }
        TraceEvent::Delivered { msg, host } => {
            field(s, ",\"ev\":\"delivered\",\"msg\":", msg.0);
            field(s, ",\"host\":", host.0);
        }
        TraceEvent::StopInForce { ch, lane } => {
            field(s, ",\"ev\":\"stop\",\"ch\":", ch.0);
            field(s, ",\"lane\":", lane);
        }
        TraceEvent::GoReceived { ch, lane } => {
            field(s, ",\"ev\":\"go\",\"ch\":", ch.0);
            field(s, ",\"lane\":", lane);
        }
    }
    s.push('}');
}

fn write_cause(s: &mut String, cause: BlockCause) {
    match cause {
        BlockCause::StopBackpressure { ch } => field(s, ",\"cause\":\"stop\",\"ch\":", ch.0),
        BlockCause::OutputBusy { switch, out } => {
            field(s, ",\"cause\":\"output-busy\",\"switch\":", switch.0);
            field(s, ",\"out\":", out);
        }
        BlockCause::BranchWait { switch, out } => {
            field(s, ",\"cause\":\"branch-wait\",\"switch\":", switch.0);
            field(s, ",\"out\":", out);
        }
    }
}

/// Append `prefix`, the field's whole text up to its value (`,"worm":`),
/// then the value.
fn field(s: &mut String, prefix: &str, value: impl Into<u64>) {
    s.push_str(prefix);
    push_u64(s, value.into());
}

/// `00`, `01`, …, `99`: the two digits of `n` at `2 * n`.
const DIGIT_PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Append `x` in decimal, as `write!` would but without the formatting
/// machinery, two digits at a time from [`DIGIT_PAIRS`].
fn push_u64(s: &mut String, mut x: u64) {
    // Pair indices, least significant first; a u64 has at most ten pairs.
    let mut pairs = [0usize; 10];
    let mut n = 0;
    while x >= 100 {
        pairs[n] = 2 * (x % 100) as usize;
        x /= 100;
        n += 1;
    }
    // The leading pair loses its zero when `x` has one digit.
    let lead = 2 * x as usize;
    s.push_str(&DIGIT_PAIRS[lead + usize::from(x < 10)..lead + 2]);
    for &p in pairs[..n].iter().rev() {
        s.push_str(&DIGIT_PAIRS[p..p + 2]);
    }
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
    fn digits_match_display() {
        let mut xs = vec![0, 1, u64::MAX - 1, u64::MAX];
        for k in 1..=19 {
            let p = 10u64.pow(k);
            xs.extend([p - 1, p, p + 1]);
        }
        for x in xs {
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

    /// An oracle independent of [`render_line`]: each event's line spelled
    /// out in one `format!`.
    fn oracle_line(t: SimTime, ev: &TraceEvent) -> String {
        let cause = |c: BlockCause| match c {
            BlockCause::StopBackpressure { ch } => format!(r#""cause":"stop","ch":{}"#, ch.0),
            BlockCause::OutputBusy { switch, out } => {
                format!(r#""cause":"output-busy","switch":{},"out":{out}"#, switch.0)
            }
            BlockCause::BranchWait { switch, out } => {
                format!(r#""cause":"branch-wait","switch":{},"out":{out}"#, switch.0)
            }
        };
        let rest = match *ev {
            TraceEvent::WormInjected { worm, host } => {
                format!(r#""worm-injected","worm":{worm},"host":{}"#, host.0)
            }
            TraceEvent::RouteConsumed { worm, switch, out } => {
                format!(
                    r#""route-consumed","worm":{worm},"switch":{},"out":{out}"#,
                    switch.0
                )
            }
            TraceEvent::WormBlocked { worm, cause: c } => {
                format!(r#""blocked","worm":{worm},{}"#, cause(c))
            }
            TraceEvent::WormResumed { worm, cause: c } => {
                format!(r#""resumed","worm":{worm},{}"#, cause(c))
            }
            TraceEvent::WormReceived { worm, host } => {
                format!(r#""worm-received","worm":{worm},"host":{}"#, host.0)
            }
            TraceEvent::WormRefused { worm, host } => {
                format!(r#""worm-refused","worm":{worm},"host":{}"#, host.0)
            }
            TraceEvent::WormCorrupt { worm, host } => {
                format!(r#""worm-corrupt","worm":{worm},"host":{}"#, host.0)
            }
            TraceEvent::WormFlushed { worm, host } => {
                format!(r#""worm-flushed","worm":{worm},"host":{}"#, host.0)
            }
            TraceEvent::FragmentParked {
                worm,
                host,
                body_got,
            } => format!(
                r#""fragment-parked","worm":{worm},"host":{},"body_got":{body_got}"#,
                host.0
            ),
            TraceEvent::FragmentResumed {
                worm,
                host,
                body_got,
            } => format!(
                r#""fragment-resumed","worm":{worm},"host":{},"body_got":{body_got}"#,
                host.0
            ),
            TraceEvent::Delivered { msg, host } => {
                format!(r#""delivered","msg":{},"host":{}"#, msg.0, host.0)
            }
            TraceEvent::StopInForce { ch, lane } => {
                format!(r#""stop","ch":{},"lane":{lane}"#, ch.0)
            }
            TraceEvent::GoReceived { ch, lane } => format!(r#""go","ch":{},"lane":{lane}"#, ch.0),
        };
        format!(r#"{{"t":{t},"ev":{rest}}}"#)
    }

    /// The renderer before [`Trace::write_jsonl`] streamed, kept as the
    /// oracle of its differential test: every [`oracle_line`] in one
    /// arena, an index of `(t, start, end)` sorted by `(t, line bytes)`.
    fn arena_jsonl(trace: &Trace) -> String {
        let mut arena = String::new();
        let mut index = Vec::new();
        for (t, e) in trace.events() {
            let start = arena.len();
            arena.push_str(&oracle_line(*t, e));
            index.push((*t, start, arena.len()));
        }
        let bytes = arena.as_bytes();
        index.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| bytes[a.1..a.2].cmp(&bytes[b.1..b.2]))
        });
        let mut out = String::new();
        for &(_, start, end) in &index {
            out.push_str(&arena[start..end]);
            out.push('\n');
        }
        out
    }

    /// 0, both ends of every decimal width up to `max` (9, 10, 99, 100,
    /// …), and `max`.
    fn widths(max: u64) -> Vec<u64> {
        let mut v = vec![0];
        let mut p = 10u64;
        while p - 1 <= max {
            v.push(p - 1);
            if p > max {
                break;
            }
            v.push(p);
            match p.checked_mul(10) {
                Some(q) => p = q,
                None => break,
            }
        }
        v.push(max);
        v
    }

    /// A value up to `max`: half the time one of a few small ones, so that
    /// lines at one timestamp often share long prefixes or repeat, and
    /// otherwise one of [`widths`].
    fn any_value(rng: &mut rand::rngs::SmallRng, max: u64) -> u64 {
        use rand::Rng;
        if rng.gen_bool(0.5) {
            rng.gen_range(0..3)
        } else {
            let w = widths(max);
            w[rng.gen_range(0..w.len())]
        }
    }

    /// One event of any kind and cause, its fields drawn by [`any_value`]
    /// up to their types' maxima.
    fn any_event(rng: &mut rand::rngs::SmallRng) -> TraceEvent {
        use rand::Rng;
        let big = |rng: &mut rand::rngs::SmallRng| any_value(rng, u64::MAX);
        let id = |rng: &mut rand::rngs::SmallRng| any_value(rng, u32::MAX.into()) as u32;
        let port = |rng: &mut rand::rngs::SmallRng| any_value(rng, u8::MAX.into()) as u8;
        let worm = big(rng);
        let cause = match rng.gen_range(0..3) {
            0 => BlockCause::StopBackpressure {
                ch: ChanId(id(rng)),
            },
            1 => BlockCause::OutputBusy {
                switch: SwitchId(id(rng)),
                out: port(rng),
            },
            _ => BlockCause::BranchWait {
                switch: SwitchId(id(rng)),
                out: port(rng),
            },
        };
        let host = HostId(id(rng));
        match rng.gen_range(0..13) {
            0 => TraceEvent::WormInjected { worm, host },
            1 => TraceEvent::RouteConsumed {
                worm,
                switch: SwitchId(id(rng)),
                out: port(rng),
            },
            2 => TraceEvent::WormBlocked { worm, cause },
            3 => TraceEvent::WormResumed { worm, cause },
            4 => TraceEvent::WormReceived { worm, host },
            5 => TraceEvent::WormRefused { worm, host },
            6 => TraceEvent::WormCorrupt { worm, host },
            7 => TraceEvent::WormFlushed { worm, host },
            8 => TraceEvent::FragmentParked {
                worm,
                host,
                body_got: big(rng),
            },
            9 => TraceEvent::FragmentResumed {
                worm,
                host,
                body_got: big(rng),
            },
            10 => TraceEvent::Delivered {
                msg: MessageId(big(rng)),
                host,
            },
            11 => TraceEvent::StopInForce {
                ch: ChanId(id(rng)),
                lane: port(rng),
            },
            _ => TraceEvent::GoReceived {
                ch: ChanId(id(rng)),
                lane: port(rng),
            },
        }
    }

    /// [`render_line`] against [`oracle_line`] on every event kind and
    /// cause, each field at every decimal width.
    #[test]
    fn render_line_matches_the_format_oracle() {
        use rand::SeedableRng;
        use std::mem::discriminant;
        let mut shapes = std::collections::HashSet::new();
        for case in 0..3000u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(case);
            let (t, ev) = (any_value(&mut rng, u64::MAX), any_event(&mut rng));
            assert_eq!(line(t, &ev), oracle_line(t, &ev), "case {case}");
            let cause = match ev {
                TraceEvent::WormBlocked { cause, .. } | TraceEvent::WormResumed { cause, .. } => {
                    Some(discriminant(&cause))
                }
                _ => None,
            };
            shapes.insert((discriminant(&ev), cause));
        }
        assert_eq!(
            shapes.len(),
            17,
            "13 events, blocked and resumed under 3 causes"
        );
    }

    /// Two shards' traces concatenate out of time order when merged; the
    /// merged trace renders the bytes of the same events pushed in order.
    #[test]
    fn absorbed_traces_render_as_if_pushed_in_time_order() {
        let stop = |ch| TraceEvent::StopInForce { ch: ChanId(ch), lane: 0 };
        let a = [(2, stop(5)), (9, stop(3)), (9, stop(1)), (14, stop(0))];
        let b = [(1, stop(8)), (9, stop(2)), (9, stop(1)), (12, stop(7))];
        let mut merged = Trace::default();
        let mut shard = Trace::default();
        for (t, e) in a {
            merged.push(t, e);
        }
        for (t, e) in b {
            shard.push(t, e);
        }
        merged.absorb(&shard);
        let mut in_order: Vec<_> = a.into_iter().chain(b).collect();
        in_order.sort_by_key(|&(t, _)| t);
        let mut pushed = Trace::default();
        for (t, e) in in_order {
            pushed.push(t, e);
        }
        let jsonl = merged.to_jsonl();
        assert_eq!(jsonl, pushed.to_jsonl());
        let times: Vec<&str> = jsonl
            .lines()
            .map(|l| &l[5..l.find(',').unwrap()])
            .collect();
        assert_eq!(times, ["1", "2", "9", "9", "9", "9", "12", "14"]);
    }

    /// The streaming writer against [`arena_jsonl`] on drawn traces: a few
    /// distinct timestamps with many events at each, pushed in time order
    /// or not, into unbounded and ring sinks (the latter with overwritten
    /// entries still hidden at the front of the log), some merged.
    #[test]
    fn streamed_jsonl_matches_the_arena_renderer() {
        use rand::{Rng, SeedableRng};
        let (mut hidden, mut unordered, mut repeats) = (0, 0, 0);
        for case in 0..400u64 {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(case);
            let draw = |rng: &mut rand::rngs::SmallRng| {
                let cfg = match rng.gen_range(0..2) {
                    0 => TraceConfig::Memory,
                    _ => TraceConfig::Ring {
                        capacity: rng.gen_range(1..40),
                    },
                };
                let mut trace = Trace::new(cfg);
                let in_order = rng.gen_bool(0.7);
                // Times near a width's end cross into the next width.
                let base = match rng.gen_bool(0.5) {
                    true => 0,
                    false => any_value(rng, u64::MAX).saturating_sub(rng.gen_range(0..64)),
                };
                let mut t = base;
                for _ in 0..rng.gen_range(0..120) {
                    t = if in_order {
                        t.saturating_add(rng.gen_range(0..6u64) / 4)
                    } else {
                        base.saturating_add(rng.gen_range(0..8u64))
                    };
                    trace.push(t, any_event(rng));
                }
                trace
            };
            let mut trace = draw(&mut rng);
            if rng.gen_bool(0.25) {
                trace.absorb(&draw(&mut rng));
            }
            hidden += usize::from(trace.hidden > 0);
            let ev = trace.events();
            unordered += usize::from(ev.windows(2).any(|p| p[0].0 > p[1].0));
            repeats += usize::from(ev.iter().enumerate().any(|(i, e)| ev[..i].contains(e)));
            let oracle = arena_jsonl(&trace);
            assert_eq!(trace.to_jsonl(), oracle, "case {case}");
            let mut streamed = Vec::new();
            trace.write_jsonl(&mut streamed).unwrap();
            assert_eq!(streamed, oracle.as_bytes(), "case {case}");
        }
        assert!(hidden > 20 && unordered > 20 && repeats > 20, "{hidden} {unordered} {repeats}");
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
