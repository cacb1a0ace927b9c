//! The discrete-event core: event type and scheduler.

use crate::link::ChanId;
use crate::time::SimTime;
use crate::wheel::TimingWheel;
use crate::worm::WireByte;

/// Identifier of a host (adapter + attached host machine).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HostId(pub u32);

/// Identifier of a crossbar switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SwitchId(pub u32);

/// A control symbol travelling on the reverse channel of a link.
///
/// `Stop`/`Go` implement the backpressure protocol of the paper's Figure 1
/// and are the only symbols a link carries. The Myrinet `BRES` (Backward
/// Reset) of the switch-level "multicast-IDLE flush" scheme is not one of
/// them: `Network::flush_worm` performs that walk synchronously.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CtrlSym {
    Stop,
    Go,
}

/// Every event the simulator processes.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// The transmit side of `ch` should try to put its next byte on the wire.
    /// `gen` must match the channel's current kick generation; a mismatch
    /// means the kick belonged to a span chain cancelled by a STOP and the
    /// event is ignored (the timing wheel has no random removal).
    TxKick { ch: ChanId, gen: u32 },
    /// A byte arrives at the receive side of `ch`.
    RxByte { ch: ChanId, byte: WireByte },
    /// A batched run of bytes — route symbols, then data — arrives at the
    /// receive side of `ch` (span-batched mode), at its first byte's
    /// arrival slot. The span itself is queued on the channel. A lane cut
    /// by a shard boundary never carries one.
    RxSpan { ch: ChanId },
    /// A control symbol arrives at the *transmit* side of `ch` (it travelled
    /// on the reverse channel from the receiver).
    CtrlRx { ch: ChanId, sym: CtrlSym },
    /// A protocol timer at a host fires. `token` is protocol-defined.
    HostTimer { host: HostId, token: u64 },
    /// Traffic source at `host` generates its next message.
    Inject { host: HostId },
    /// End of the measured run.
    Stop,
}

impl Event {
    /// Canonical same-timestamp ordering key (see DESIGN.md §3.3).
    ///
    /// Events sharing a byte-time fire in ascending key order. The key
    /// depends only on the event itself — kind, then target channel or
    /// host — never on when it was scheduled, so a sharded run (where
    /// boundary events enter the wheel at a nondeterministic wall-clock
    /// moment) replays exactly the schedule the sequential engine uses.
    ///
    /// Kind ranks: `Stop` first (a run deadline cuts off the deadline
    /// tick, as it always has), then control symbols
    /// (STOP/GO must precede the same-tick `TxKick` they gate — the span
    /// truncation rule relies on this), then arrivals (single bytes and
    /// spans alike, by lane), then transmit kicks, then host-side events.
    /// Two events with equal keys target the same entity and are therefore
    /// produced by the same shard, where schedule order (the seq
    /// tie-break) is itself deterministic.
    pub fn canon_key(&self) -> u64 {
        const ID: u64 = 1 << 32;
        match *self {
            Event::Stop => 0,
            // All control symbols for one channel are emitted by the single
            // entity at its receive side, so their same-tick relative order
            // is the emission order — preserved by the push-seq tie-break
            // both in a sequential run and through a shard mailbox (which
            // is per-sender FIFO). No per-symbol rank needed.
            Event::CtrlRx { ch, .. } => ID + ch.0 as u64,
            // Every arrival takes the rank of the per-byte arrival it is
            // or stands for — the canonical per-byte schedule's position
            // for that wire slot. A span fires at its first byte's slot,
            // and that byte may be a worm's head: two heads reaching one
            // switch in one tick are served in event order, so the one
            // inside a span must sort where its `RxByte` would, not behind
            // every single byte of the tick. The two kinds never share a
            // (time, lane) pair — bytes on a lane occupy distinct send
            // slots, however they are batched.
            Event::RxByte { ch, .. } | Event::RxSpan { ch } => 4 * ID + ch.0 as u64,
            Event::TxKick { ch, .. } => 6 * ID + ch.0 as u64,
            Event::HostTimer { host, .. } => 7 * ID + host.0 as u64,
            Event::Inject { host } => 8 * ID + host.0 as u64,
        }
    }
}

/// Events dispatched over a run, one counter per [`Event`] kind: where an
/// engine's events go. An engine-cost metric like
/// `NetStats::events_fired`, whose sum it is once every popped event has
/// been dispatched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    pub tx_kick: u64,
    pub rx_byte: u64,
    pub rx_span: u64,
    pub ctrl_rx: u64,
    pub host_timer: u64,
    pub inject: u64,
    pub stop: u64,
}

impl EventCounts {
    /// Count one dispatched `ev`.
    #[inline]
    pub(crate) fn count(&mut self, ev: &Event) {
        let n = match ev {
            Event::TxKick { .. } => &mut self.tx_kick,
            Event::RxByte { .. } => &mut self.rx_byte,
            Event::RxSpan { .. } => &mut self.rx_span,
            Event::CtrlRx { .. } => &mut self.ctrl_rx,
            Event::HostTimer { .. } => &mut self.host_timer,
            Event::Inject { .. } => &mut self.inject,
            Event::Stop => &mut self.stop,
        };
        *n += 1;
    }

    /// Every kind together.
    pub fn total(&self) -> u64 {
        self.tx_kick
            + self.rx_byte
            + self.rx_span
            + self.ctrl_rx
            + self.host_timer
            + self.inject
            + self.stop
    }

    /// Add `other`'s counts kind by kind.
    pub(crate) fn add(&mut self, other: &EventCounts) {
        self.tx_kick += other.tx_kick;
        self.rx_byte += other.rx_byte;
        self.rx_span += other.rx_span;
        self.ctrl_rx += other.ctrl_rx;
        self.host_timer += other.host_timer;
        self.inject += other.inject;
        self.stop += other.stop;
    }
}

/// Event queue with deterministic same-time ordering.
pub struct Scheduler {
    wheel: TimingWheel<Event>,
    now: SimTime,
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler {
    pub fn new() -> Self {
        Scheduler {
            wheel: TimingWheel::with_order(Event::canon_key),
            now: 0,
        }
    }

    /// Current simulation time (time of the most recently popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `ev` to fire `delay` byte-times from now.
    #[inline]
    pub fn after(&mut self, delay: SimTime, ev: Event) {
        self.wheel.push(self.now + delay, ev);
    }

    /// Schedule `ev` at the absolute time `at` (must not be in the past).
    #[inline]
    pub fn at(&mut self, at: SimTime, ev: Event) {
        self.wheel.push(at.max(self.now), ev);
    }

    /// Pop the next event, advancing the clock.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (t, ev) = self.wheel.pop()?;
        self.now = t;
        Some((t, ev))
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.wheel.len()
    }

    /// Total events ever scheduled (engine cost metric).
    pub fn events_scheduled(&self) -> u64 {
        self.wheel.pushed()
    }

    /// Total events ever dispatched.
    pub fn events_fired(&self) -> u64 {
        self.wheel.popped()
    }

    /// Timestamp of the next pending event, if any. O(1): backed by the
    /// wheel's slot-occupancy bitmap, so deadline checks may call this
    /// freely even when the schedule is sparse.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worm::{ByteKind, WormId};

    #[test]
    fn scheduler_orders_events() {
        let mut s = Scheduler::new();
        s.after(10, Event::Inject { host: HostId(0) });
        s.after(1, Event::Stop);
        let (t1, e1) = s.pop().unwrap();
        assert_eq!(t1, 1);
        assert!(matches!(e1, Event::Stop));
        assert_eq!(s.now(), 1);
        let (t2, e2) = s.pop().unwrap();
        assert_eq!(t2, 10);
        assert!(matches!(e2, Event::Inject { .. }));
    }

    #[test]
    fn same_time_fifo() {
        let mut s = Scheduler::new();
        s.after(5, Event::Inject { host: HostId(1) });
        s.after(5, Event::Inject { host: HostId(2) });
        match s.pop().unwrap().1 {
            Event::Inject { host } => assert_eq!(host, HostId(1)),
            other => panic!("unexpected {other:?}"),
        }
        match s.pop().unwrap().1 {
            Event::Inject { host } => assert_eq!(host, HostId(2)),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// One tick holding every kind, pushed in reverse canonical order,
    /// fires in canonical order; a `TxKick` pushed while the arrivals fire
    /// takes its lane's place among the tick's other kicks.
    #[test]
    fn one_tick_fires_in_canonical_order() {
        let byte = WireByte {
            worm: WormId(0),
            kind: ByteKind::Data,
        };
        let mut s = Scheduler::new();
        for ev in [
            Event::Inject { host: HostId(1) },
            Event::Inject { host: HostId(0) },
            Event::HostTimer {
                host: HostId(0),
                token: 9,
            },
            Event::TxKick {
                ch: ChanId(3),
                gen: 0,
            },
            Event::TxKick {
                ch: ChanId(1),
                gen: 0,
            },
            Event::RxSpan { ch: ChanId(5) },
            Event::RxByte {
                ch: ChanId(2),
                byte,
            },
            Event::CtrlRx {
                ch: ChanId(4),
                sym: CtrlSym::Go,
            },
            Event::CtrlRx {
                ch: ChanId(0),
                sym: CtrlSym::Stop,
            },
            Event::Stop,
        ] {
            s.after(3, ev);
        }
        let mut fired = Vec::new();
        while let Some((t, ev)) = s.pop() {
            assert_eq!(t, 3);
            if let Event::RxByte { ch, .. } = ev {
                s.after(0, Event::TxKick { ch, gen: 1 });
            }
            fired.push(format!("{ev:?}"));
        }
        let expected = [
            "Stop".to_string(),
            "CtrlRx { ch: ChanId(0), sym: Stop }".into(),
            "CtrlRx { ch: ChanId(4), sym: Go }".into(),
            format!("RxByte {{ ch: ChanId(2), byte: {byte:?} }}"),
            "RxSpan { ch: ChanId(5) }".into(),
            "TxKick { ch: ChanId(1), gen: 0 }".into(),
            "TxKick { ch: ChanId(2), gen: 1 }".into(),
            "TxKick { ch: ChanId(3), gen: 0 }".into(),
            "HostTimer { host: HostId(0), token: 9 }".into(),
            "Inject { host: HostId(0) }".into(),
            "Inject { host: HostId(1) }".into(),
        ];
        assert_eq!(fired, expected);
    }

    #[test]
    fn absolute_scheduling_clamps_to_now() {
        let mut s = Scheduler::new();
        s.after(10, Event::Stop);
        s.pop().unwrap();
        assert_eq!(s.now(), 10);
        // Absolute time in the past is clamped to now rather than panicking.
        s.at(3, Event::Inject { host: HostId(0) });
        let (t, _) = s.pop().unwrap();
        assert_eq!(t, 10);
    }
}
