//! Links, lanes and the typed lane-port API.
//!
//! A physical Myrinet link is full duplex: data bytes flow one way while
//! control symbols (`STOP`, `GO`, ...) are interleaved on the opposite
//! direction. The simulator models each direction as a [`Link`] owning one
//! or more [`Lane`]s. A lane is the unit the engine schedules: it carries
//! its own occupancy, STOP/GO state, in-flight span ring and stall
//! accounting, and moves at most one byte per byte-time, delivering it
//! `delay` byte-times later. Propagation delay is expressed in byte-times
//! (the paper's shufflenet experiment uses 1000 byte-time links).
//!
//! The paper's fabric is single-lane; multi-lane links (virtual channels in
//! the NoC literature, "lanes" in Stergiou's multi-lane MIN study) are a
//! pure capacity extension: every lane behaves exactly like a single-lane
//! link, and a fabric built with one lane per link is byte-for-byte the
//! paper's fabric.
//!
//! # The narrow surface
//!
//! [`Lane`] exposes **no public mutable fields**. Switch, adapter and
//! engine code goes through a ready/valid-style surface:
//!
//! - [`TxPort::try_send`] / [`TxPort::ready_at`] — put a byte (or a span)
//!   on the wire, respecting pacing and STOP;
//! - [`RxPort::deliver`] / [`RxPort::deliver_span`] /
//!   [`RxPort::deliver_span_prefix`] — take an arrival off the wire;
//! - [`Lane::stop`] / [`Lane::go`] — flow-control state changes (with
//!   stall-interval accounting built in).
//!
//! Everything else is read-only accessors and the [`LinkStats`] snapshot.
//!
//! # Identity scheme
//!
//! [`ChanId`] remains the flat, dense per-lane identity the timing wheel,
//! span fast path, sharded mailboxes and trace schema key on. A directed
//! link's lanes occupy a contiguous `ChanId` range (`Link::lane_ids`);
//! lane `i` of the forward direction pairs with lane `i` of the backward
//! direction via [`Lane::rev`]. With one lane per link the numbering is
//! exactly the historical single-channel numbering.

use crate::engine::{HostId, SwitchId};
use crate::time::SimTime;
use crate::worm::{RouteSym, WormId};
use std::collections::VecDeque;

/// Index of a directed lane in the network (dense across all links).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChanId(pub u32);

/// Index of a directed [`Link`] in the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// A port number on a node, as named by route bytes and fabric specs.
///
/// Serializes transparently as the underlying `u8`, so fabric-spec JSON is
/// unchanged from the raw-`u8` era.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortId(pub u8);

impl PortId {
    /// The raw port index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PortId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A node reference: either a crossbar switch or a host adapter.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum NodeRef {
    Switch(SwitchId),
    Host(HostId),
}

/// One end of a lane: a port *slot* on a node. Host adapters have a single
/// network port (slot 0). On a switch, slots enumerate `(physical port,
/// lane)` pairs in port-major order — with single-lane links the slot index
/// *is* the physical port number. The physical ports of the underlying
/// link are reported by [`Link`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Endpoint {
    pub node: NodeRef,
    pub port: PortId,
}

/// A batched run of contiguous bytes of one worm in flight on a lane
/// (span-batched mode): `route` route symbols — a *head run* — followed by
/// data bytes, and the worm's tail last when `tail` is set. Byte `j` of
/// the span conceptually occupies the wire slot at
/// `start + j`; the whole run is delivered by a single `RxSpan` event at
/// `start + delay` — or, for a receiver-paced span, in pieces, each by an
/// `RxSpan` event at its own first byte's arrival slot.
#[derive(Clone, Copy, Debug)]
pub struct SpanInFlight {
    pub worm: WormId,
    /// Time the first byte of the span was put on the wire.
    pub start: SimTime,
    /// Number of bytes in the span. A STOP truncation may cut this back
    /// (possibly to the bytes already past the transmitter); the entry
    /// stays queued so it pairs up with its already-scheduled `RxSpan`.
    pub len: u64,
    /// How many of the `len` bytes, from the front, are route symbols.
    /// Their values travel beside the record, in the lane's symbol FIFO
    /// ([`TxPort::stage_route_sym`] / [`RxPort::take_route_sym`]).
    pub route: u64,
    /// The last of the `len` bytes is the worm's tail (counted in `len`).
    /// Only a span into a switch carries one, and never a paced one.
    pub tail: bool,
    /// Receiver-paced: the receiver decides at each arrival how much of
    /// the span lands ([`RxPort::deliver_span_prefix`]); what it leaves
    /// stays at the front of the wire, `start` advanced past the piece.
    pub paced: bool,
}

/// What [`Lane::truncate_newest_span`] took back from the span still
/// sending: its unsent suffix, `route` route symbols followed by `data`
/// data bytes, and the worm's tail if the span carried it (the tail is its
/// last byte, so any cut revokes it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Revoked {
    pub(crate) worm: WormId,
    pub(crate) route: u64,
    pub(crate) data: u64,
    pub(crate) tail: bool,
}

/// Read-only counter snapshot of one lane, for statistics consumers.
/// Obtain with [`Lane::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    /// Total data bytes carried.
    pub bytes_carried: u64,
    /// Total IDLE fill bytes carried (wasted bandwidth, Section 3).
    pub idles_carried: u64,
    /// Number of STOP intervals that began on this lane.
    pub stalls: u64,
    /// Accumulated byte-times spent under STOP (closed intervals only; use
    /// [`Lane::stall_time`] to include a still-open interval).
    pub stall_total: SimTime,
    /// Bytes currently in flight on the wire.
    pub in_flight: u32,
    /// True while a STOP from downstream is in force.
    pub stopped: bool,
}

/// Transmit-side state of one directed lane.
///
/// All fields are private: mutation goes through [`TxPort`] / [`RxPort`] /
/// [`Lane::stop`] / [`Lane::go`], reads through the accessors below.
#[derive(Clone, Debug)]
pub struct Lane {
    id: ChanId,
    src: Endpoint,
    dst: Endpoint,
    /// Propagation delay in byte-times (≥ 1).
    delay: SimTime,
    /// The paired lane in the opposite direction.
    rev: ChanId,
    /// The directed link this lane belongs to.
    link: LinkId,
    /// This lane's index within its link (0-based).
    lane: u8,
    /// True while a `STOP` from downstream is in force.
    stopped: bool,
    /// True while a `TxKick` event is pending for this lane — guards
    /// against duplicate kicks.
    tx_active: bool,
    /// Earliest time the next byte may be put on the wire.
    next_tx_time: SimTime,
    /// Bytes currently in flight on the wire (sent, not yet received).
    in_flight: u32,
    /// Total data bytes carried (for utilization statistics). A span is
    /// credited whole at emission; between runs the part the deadline cut
    /// off waits in `parked` (see [`Lane::settle`]).
    bytes_carried: u64,
    /// What [`Lane::settle`] parked at the deadline the last run stopped
    /// at, `(unsent, unarrived)`; back in the counters while a run is
    /// under way.
    parked: (u64, u64),
    /// True while the network lists this lane for a run's end to settle
    /// ([`Lane::enlist`]).
    listed: bool,
    /// Total IDLE fill bytes carried (wasted bandwidth, Section 3).
    idles_carried: u64,
    /// Control symbols on the wire toward this lane's transmitter: `+1`
    /// where one is sent, `-1` where it lands. On a cut lane the two
    /// happen on different shards' copies, so only the sum over both
    /// copies is the in-flight count (hence signed).
    ctrl_in_flight: i32,
    /// One past the last send slot of the newest span (or piece of a
    /// receiver-paced span) taken off the wire — delivered wholesale at its
    /// first byte's arrival, so possibly still in the future.
    delivered_end: SimTime,
    /// When the current STOP interval began, if one is in force.
    stalled_since: Option<SimTime>,
    /// Accumulated byte-times spent under STOP (closed intervals only; an
    /// open interval is accounted by [`Lane::stall_time`]).
    stall_total: SimTime,
    /// Number of STOP intervals that began on this lane.
    stalls: u64,
    /// Batched byte runs currently on the wire, in send order
    /// (span-batched mode only; empty in per-byte mode).
    spans: VecDeque<SpanInFlight>,
    /// The route symbols of the head runs in `spans`, in wire order: each
    /// entry of `spans` owns its `route` next symbols.
    route_syms: VecDeque<RouteSym>,
    /// Kick generation: bumped when a STOP truncates an in-flight span so
    /// the span chain's already-scheduled end-of-span `TxKick` is ignored.
    kick_gen: u32,
    /// A span carrying its worm's tail is in its send window: the pending
    /// end-of-span kick, at the tail's own send slot, finishes the worm at
    /// the producer instead of sending ([`Lane::take_tail_release`]).
    tail_release: bool,
}

impl Lane {
    pub(crate) fn new(
        id: ChanId,
        src: Endpoint,
        dst: Endpoint,
        delay: SimTime,
        rev: ChanId,
        link: LinkId,
        lane: u8,
    ) -> Self {
        // Zero delays are rejected up front with a typed
        // `ConfigError::ZeroDelay` by `Network::try_build`.
        debug_assert!(delay >= 1, "lane delay must be at least one byte-time");
        Lane {
            id,
            src,
            dst,
            delay,
            rev,
            link,
            lane,
            stopped: false,
            tx_active: false,
            next_tx_time: 0,
            in_flight: 0,
            bytes_carried: 0,
            parked: (0, 0),
            listed: false,
            idles_carried: 0,
            ctrl_in_flight: 0,
            delivered_end: 0,
            stalled_since: None,
            stall_total: 0,
            stalls: 0,
            // Pre-size the in-flight span ring: `SpanInFlight` is `Copy`,
            // so with capacity in hand the steady-state span path performs
            // no allocator calls (a lane rarely carries more than a couple
            // of outstanding spans at once).
            spans: VecDeque::with_capacity(8),
            route_syms: VecDeque::new(),
            kick_gen: 0,
            tail_release: false,
        }
    }

    // -- read accessors ------------------------------------------------------

    #[inline]
    pub fn id(&self) -> ChanId {
        self.id
    }

    #[inline]
    pub fn src(&self) -> Endpoint {
        self.src
    }

    #[inline]
    pub fn dst(&self) -> Endpoint {
        self.dst
    }

    /// Propagation delay in byte-times.
    #[inline]
    pub fn delay(&self) -> SimTime {
        self.delay
    }

    /// The paired lane in the opposite direction.
    #[inline]
    pub fn rev(&self) -> ChanId {
        self.rev
    }

    /// The directed link this lane belongs to.
    #[inline]
    pub fn link(&self) -> LinkId {
        self.link
    }

    /// This lane's index within its link (0-based).
    #[inline]
    pub fn lane_index(&self) -> u8 {
        self.lane
    }

    /// True while a STOP from downstream is in force.
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Bytes currently in flight on the wire.
    #[inline]
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Transmit side: bytes of an in-flight span whose per-byte send
    /// slots are still in the future. A span emission batch-pops its
    /// whole run from the producer's buffer at emission time, while the
    /// per-byte twin dequeues one byte per send slot — until the span's
    /// last slot passes, the producer's per-byte-equivalent occupancy
    /// exceeds its local one by up to this amount. (A STOP truncation
    /// rewinds `next_tx_time`, relinquishing the revoked slots.)
    #[inline]
    pub(crate) fn drain_advance(&self, now: SimTime) -> u64 {
        self.next_tx_time.saturating_sub(now + 1)
    }

    /// [`Lane::drain_advance`] as an arrival of the tick `now` sees it: the
    /// send slot `now` counts too, because the transmit kick of a tick
    /// sorts after every arrival of it ([`crate::engine::Event::canon_key`]).
    #[inline]
    pub(crate) fn drain_advance_at_arrival(&self, now: SimTime) -> u64 {
        self.next_tx_time.saturating_sub(now)
    }

    /// Receive side: bytes of the newest delivered span (or piece) whose
    /// per-byte arrival slots are still in the future. A span lands
    /// wholesale at its first byte's arrival, so until its last slot passes the
    /// receiver's buffer holds this many bytes its per-byte twin does not
    /// hold yet. (Only the newest delivered span can reach past `now`:
    /// spans on a lane occupy disjoint, ordered send slots.)
    #[inline]
    pub(crate) fn rx_future_bytes(&self, now: SimTime) -> u64 {
        (self.delivered_end + self.delay).saturating_sub(now + 1)
    }

    /// The oldest in-flight span, if it is receiver-paced: one flag test
    /// on the landing of every other span.
    #[inline]
    pub(crate) fn paced_front(&self) -> Option<SpanInFlight> {
        self.spans.front().filter(|s| s.paced).copied()
    }

    /// One past the last send slot of the newest delivered span.
    #[inline]
    pub(crate) fn delivered_end(&self) -> SimTime {
        self.delivered_end
    }

    /// `span` (a whole span or a piece of a receiver-paced one), just taken
    /// off the wire, lands in the receiver's buffer wholesale: until its
    /// last arrival slot has passed the buffer is ahead of its per-byte
    /// twin ([`Lane::rx_future_bytes`]).
    #[inline]
    pub(crate) fn note_span_landed(&mut self, span: &SpanInFlight) {
        self.delivered_end = span.start + span.len;
    }

    /// Control symbols in flight toward this lane's transmitter, as this
    /// copy of the lane counted them (sum both copies of a cut lane).
    #[inline]
    pub(crate) fn ctrl_in_flight(&self) -> i32 {
        self.ctrl_in_flight
    }

    /// A control symbol left the receive side for this lane's transmitter.
    #[inline]
    pub(crate) fn note_ctrl_sent(&mut self) {
        self.ctrl_in_flight += 1;
    }

    /// A control symbol landed at this lane's transmitter.
    #[inline]
    pub(crate) fn note_ctrl_received(&mut self) {
        self.ctrl_in_flight -= 1;
    }

    /// A run stopped at `horizon`, its deadline. A span is credited whole,
    /// to `bytes_carried` at emission and to the network's `bytes_moved`
    /// at landing, so park its bytes whose slots lie at or past `horizon`
    /// until the next run starts: the unsent tail of the span still sending
    /// (taken out of `bytes_carried` here) and the un-arrived tail of the
    /// newest landed span (the caller takes it out of `bytes_moved`). The
    /// counters then read what the per-byte engine reads there. Returns
    /// `(unsent, unarrived)`.
    ///
    /// The lane stays listed ([`Lane::is_listed`]) while a later deadline
    /// may still cut something off without another span emitted or landed:
    /// while it parked bytes, or a span is still on the wire.
    pub(crate) fn settle(&mut self, horizon: SimTime) -> (u64, u64) {
        debug_assert_eq!(self.parked, (0, 0), "settled twice without a run between");
        let unsent = self.next_tx_time.saturating_sub(horizon);
        // `delivered_end` reads 0 until a span lands: nothing is arriving.
        let unarrived = match self.delivered_end {
            0 => 0,
            end => (end + self.delay).saturating_sub(horizon),
        };
        self.bytes_carried -= unsent;
        self.parked = (unsent, unarrived);
        self.listed = self.parked != (0, 0) || !self.spans.is_empty();
        self.parked
    }

    /// A span left or landed on this lane, so a run's end may have span
    /// bytes to park here: list it. Returns true if it was not listed yet.
    /// Only a span's whole credit runs ahead of the clock; a single byte
    /// sent before the deadline has left and landed by it.
    #[inline]
    pub(crate) fn enlist(&mut self) -> bool {
        !std::mem::replace(&mut self.listed, true)
    }

    /// Whether the network lists this lane for a run's end to settle.
    #[inline]
    pub(crate) fn is_listed(&self) -> bool {
        self.listed
    }

    /// The next run starts: credit what [`Lane::settle`] parked again (the
    /// engine's own arithmetic — truncation above all — works on the full
    /// credit). Returns the bytes restored, `(unsent, unarrived)`.
    pub(crate) fn resume(&mut self) -> (u64, u64) {
        let parked = std::mem::take(&mut self.parked);
        self.bytes_carried += parked.0;
        parked
    }

    /// Counter snapshot for statistics consumers, exact at the horizon the
    /// last run stopped at.
    pub fn stats(&self) -> LinkStats {
        LinkStats {
            bytes_carried: self.bytes_carried,
            idles_carried: self.idles_carried,
            stalls: self.stalls,
            stall_total: self.stall_total,
            in_flight: self.in_flight,
            stopped: self.stopped,
        }
    }

    /// Total byte-times this lane has spent under STOP, up to `now`
    /// (includes the still-open interval, if any).
    pub fn stall_time(&self, now: SimTime) -> SimTime {
        self.stall_total
            + self
                .stalled_since
                .map_or(0, |since| now.saturating_sub(since))
    }

    /// Fraction of the elapsed run this lane spent stalled by STOP
    /// backpressure.
    pub fn stall_fraction(&self, elapsed: SimTime) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.stall_time(elapsed) as f64 / elapsed as f64
        }
    }

    /// Lane utilization over `elapsed` byte-times (data bytes only).
    pub fn utilization(&self, elapsed: SimTime) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.bytes_carried as f64 / elapsed as f64
        }
    }

    // -- flow control --------------------------------------------------------

    /// A STOP from downstream takes effect: block transmission and open a
    /// stall interval (idempotent while already stopped).
    pub fn stop(&mut self, now: SimTime) {
        self.stopped = true;
        // Stall-interval accounting runs whether or not tracing is on;
        // STOP/GO symbols are rare relative to bytes.
        if self.stalled_since.is_none() {
            self.stalled_since = Some(now);
            self.stalls += 1;
        }
    }

    /// A GO from downstream takes effect: unblock transmission and close
    /// the open stall interval. The caller re-kicks the lane.
    pub fn go(&mut self, now: SimTime) {
        self.stopped = false;
        if let Some(since) = self.stalled_since.take() {
            self.stall_total += now - since;
        }
    }

    // -- crate-internal engine surface ---------------------------------------

    /// Reserve the pending-kick slot: returns the time and generation the
    /// kick must be scheduled with, or `None` when a kick is already
    /// pending or a STOP is in force.
    #[inline]
    pub(crate) fn arm_kick(&mut self, now: SimTime) -> Option<(SimTime, u32)> {
        if self.tx_active || self.stopped {
            return None;
        }
        self.tx_active = true;
        Some((self.next_tx_time.max(now), self.kick_gen))
    }

    /// Whether a kick carrying `gen` is still current (STOP truncation
    /// invalidates older generations).
    #[inline]
    pub(crate) fn kick_is_current(&self, gen: u32) -> bool {
        gen == self.kick_gen
    }

    /// The transmit side went idle: no follow-up kick is pending.
    #[inline]
    pub(crate) fn set_tx_idle(&mut self) {
        self.tx_active = false;
    }

    /// Whether the current kick is the end-of-span kick of a span that
    /// carried its worm's tail, firing at the tail's send slot; clears the
    /// mark. A STOP that cuts the span clears it too, with the kick.
    #[inline]
    pub(crate) fn take_tail_release(&mut self) -> bool {
        std::mem::take(&mut self.tail_release)
    }

    /// Cut the newest in-flight span back to its already-sent prefix (a
    /// STOP took effect at `now`). Returns what was revoked — the caller
    /// hands it back to the producer, taking the revoked route symbols off
    /// the lane with [`Lane::unstage_route_sym`] — or `None` if nothing was
    /// still sending. Cancels the pending end-of-span kick by bumping the
    /// generation.
    pub(crate) fn truncate_newest_span(&mut self, now: SimTime) -> Option<Revoked> {
        debug_assert!(
            self.spans.iter().rev().skip(1).all(|s| s.start + s.len <= now),
            "only the newest span can still be sending"
        );
        let span = self.spans.back_mut()?;
        if span.start + span.len <= now {
            return None;
        }
        debug_assert!(
            !span.paced,
            "a STOP lands on {:?} while a receiver-paced span is still sending: \
             pacing admitted it with a STOP on the way",
            self.id
        );
        let sent = (now - span.start).max(1).min(span.len);
        let revoked = span.len - sent;
        if revoked == 0 {
            return None;
        }
        // The span is its route symbols, then its data: the sent prefix
        // keeps the first `sent` of that sequence.
        let route_kept = span.route.min(sent);
        let tail = std::mem::take(&mut span.tail);
        let out = Revoked {
            worm: span.worm,
            route: span.route - route_kept,
            data: revoked - (span.route - route_kept) - u64::from(tail),
            tail,
        };
        span.len = sent;
        span.route = route_kept;
        self.in_flight -= revoked as u32;
        self.bytes_carried -= revoked;
        self.next_tx_time = now;
        // Cancel the pending end-of-span kick; the GO that lifts this
        // STOP will start a fresh chain at `next_tx_time`.
        self.kick_gen = self.kick_gen.wrapping_add(1);
        self.tx_active = false;
        self.tail_release = false;
        Some(out)
    }

    /// Take back the newest staged route symbol: the revoked symbols of a
    /// truncated span, last first.
    pub(crate) fn unstage_route_sym(&mut self) -> RouteSym {
        self.route_syms
            .pop_back()
            .expect("a revoked route symbol is still staged")
    }
}

/// Confirmation of a successful [`TxPort::try_send`]: when the payload
/// lands and which kick generation a follow-up `TxKick` must carry.
#[derive(Clone, Copy, Debug)]
pub struct SendTicket {
    /// Arrival time at the receive side (`now + delay`).
    pub deliver_at: SimTime,
    /// Kick generation current at send time.
    pub gen: u32,
}

/// What a single [`TxPort::try_send`] puts on the wire.
#[derive(Clone, Copy, Debug)]
pub enum TxPayload {
    /// One data byte.
    Data,
    /// One IDLE fill byte (counted as wasted bandwidth).
    Idle,
    /// A contiguous run of `len` bytes of `worm`, moved as one span
    /// (span-batched mode): the `route` route symbols staged with
    /// [`TxPort::stage_route_sym`] since the last span, then data, then
    /// the worm's tail if `tail` is set. `paced`: [`SpanInFlight::paced`].
    Span {
        worm: WormId,
        len: u64,
        route: u64,
        tail: bool,
        paced: bool,
    },
}

/// Transmit-side handle on a lane: the only way to put bytes on the wire.
pub struct TxPort<'a> {
    lane: &'a mut Lane,
}

impl<'a> TxPort<'a> {
    #[inline]
    pub(crate) fn new(lane: &'a mut Lane) -> Self {
        TxPort { lane }
    }

    /// Earliest time the next byte may be put on the wire.
    #[inline]
    pub fn ready_at(&self) -> SimTime {
        self.lane.next_tx_time
    }

    /// True while a STOP from downstream blocks this lane.
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.lane.stopped
    }

    /// Stage the next route symbol of the head run about to be sent: the
    /// `route` count of the following [`TxPayload::Span`] claims it.
    #[inline]
    pub fn stage_route_sym(&mut self, sym: RouteSym) {
        self.lane.route_syms.push_back(sym);
    }

    /// Try to put `payload` on the wire at `now`. Fails (returns `None`)
    /// when a STOP is in force or the lane is still pacing a previous byte
    /// (`now < ready_at`). On success the lane's occupancy, pacing and
    /// carried-byte counters are updated; the caller schedules the arrival
    /// at `SendTicket::deliver_at`.
    ///
    /// `count_in_flight` is false only for a byte put on a cut lane: its
    /// arrival lands on the other shard's copy of the lane, so neither copy
    /// counts it (see `shard.rs`). Spans never cross a cut.
    pub fn try_send(
        &mut self,
        now: SimTime,
        payload: TxPayload,
        count_in_flight: bool,
    ) -> Option<SendTicket> {
        let l = &mut *self.lane;
        if l.stopped || now < l.next_tx_time {
            return None;
        }
        match payload {
            TxPayload::Data => {
                if count_in_flight {
                    l.in_flight += 1;
                }
                l.bytes_carried += 1;
                l.next_tx_time = now + 1;
            }
            TxPayload::Idle => {
                if count_in_flight {
                    l.in_flight += 1;
                }
                l.idles_carried += 1;
                l.next_tx_time = now + 1;
            }
            TxPayload::Span {
                worm,
                len,
                route,
                tail,
                paced,
            } => {
                debug_assert!(!(tail && paced), "a paced span carries no tail");
                l.in_flight += len as u32;
                l.bytes_carried += len;
                l.next_tx_time = now + len;
                l.tail_release = tail;
                l.spans.push_back(SpanInFlight {
                    worm,
                    start: now,
                    len,
                    route,
                    tail,
                    paced,
                });
                debug_assert_eq!(
                    l.route_syms.len() as u64,
                    l.spans.iter().map(|s| s.route).sum::<u64>(),
                    "every head run's symbols are staged, and nothing else"
                );
            }
        }
        Some(SendTicket {
            deliver_at: now + l.delay,
            gen: l.kick_gen,
        })
    }
}

/// Receive-side handle on a lane: the only way to take arrivals off the
/// wire.
pub struct RxPort<'a> {
    lane: &'a mut Lane,
}

impl<'a> RxPort<'a> {
    #[inline]
    pub(crate) fn new(lane: &'a mut Lane) -> Self {
        RxPort { lane }
    }

    /// One byte arrived: drop it from the wire occupancy and return where
    /// it lands. `counted_in_flight` is false for bytes sent by a foreign
    /// shard (they never incremented the local occupancy).
    #[inline]
    pub fn deliver(&mut self, counted_in_flight: bool) -> Endpoint {
        if counted_in_flight {
            self.lane.in_flight -= 1;
        }
        self.lane.dst
    }

    /// The oldest in-flight span arrived: dequeue it (spans and single
    /// bytes share FIFO wire order) and return it together with the
    /// landing endpoint. The caller takes its `route` symbols with
    /// [`RxPort::take_route_sym`] and records with `Lane::note_span_landed`
    /// that the span is in the receiver's buffer, every byte of it, ahead
    /// of the arrival slots of all but the first.
    #[inline]
    pub fn deliver_span(&mut self) -> (Endpoint, SpanInFlight) {
        let span = self
            .lane
            .spans
            .pop_front()
            .expect("RxSpan without queued span");
        self.lane.in_flight -= span.len as u32;
        (self.lane.dst, span)
    }

    /// The first `m` bytes of the oldest in-flight span arrived (`1 ≤ m ≤
    /// len`): return them as a span of their own — its route symbols
    /// first — with the landing endpoint, and leave the rest at the front
    /// of the wire, starting `m` slots later. Taking the whole span is
    /// [`RxPort::deliver_span`].
    pub fn deliver_span_prefix(&mut self, m: u64) -> (Endpoint, SpanInFlight) {
        let front = self
            .lane
            .spans
            .front_mut()
            .expect("RxSpan without queued span");
        debug_assert!((1..=front.len).contains(&m), "a piece of 1..=len bytes");
        if m == front.len {
            return self.deliver_span();
        }
        let piece = SpanInFlight {
            len: m,
            route: front.route.min(m),
            ..*front
        };
        front.start += m;
        front.len -= m;
        front.route -= piece.route;
        self.lane.in_flight -= m as u32;
        (self.lane.dst, piece)
    }

    /// The next route symbol of the head run just delivered.
    #[inline]
    pub fn take_route_sym(&mut self) -> RouteSym {
        self.lane
            .route_syms
            .pop_front()
            .expect("a delivered head run's symbols are staged")
    }
}

// ---------------------------------------------------------------------------
// Links
// ---------------------------------------------------------------------------

/// A directed link: the bundle of [`Lane`]s connecting one transmit
/// endpoint to one receive endpoint. The link records the *physical* ports
/// of its endpoints (as a fabric spec names them); its lanes occupy the
/// contiguous `ChanId` range returned by [`Link::lane_ids`]. Lane storage
/// itself lives in the network's dense lane slab so `ChanId` stays a flat
/// index — ask the network for `link_lanes(id)` to borrow them.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    id: LinkId,
    src: NodeRef,
    dst: NodeRef,
    /// Physical transmit-side port.
    src_port: PortId,
    /// Physical receive-side port.
    dst_port: PortId,
    delay: SimTime,
    first_lane: ChanId,
    num_lanes: u8,
}

impl Link {
    pub(crate) fn new(
        id: LinkId,
        src: (NodeRef, PortId),
        dst: (NodeRef, PortId),
        delay: SimTime,
        first_lane: ChanId,
        num_lanes: u8,
    ) -> Self {
        Link {
            id,
            src: src.0,
            dst: dst.0,
            src_port: src.1,
            dst_port: dst.1,
            delay,
            first_lane,
            num_lanes,
        }
    }

    #[inline]
    pub fn id(&self) -> LinkId {
        self.id
    }

    #[inline]
    pub fn src(&self) -> NodeRef {
        self.src
    }

    #[inline]
    pub fn dst(&self) -> NodeRef {
        self.dst
    }

    /// Physical transmit-side port (as the fabric spec names it).
    #[inline]
    pub fn src_port(&self) -> PortId {
        self.src_port
    }

    /// Physical receive-side port.
    #[inline]
    pub fn dst_port(&self) -> PortId {
        self.dst_port
    }

    #[inline]
    pub fn delay(&self) -> SimTime {
        self.delay
    }

    #[inline]
    pub fn num_lanes(&self) -> u8 {
        self.num_lanes
    }

    /// The contiguous `ChanId` range of this link's lanes.
    pub fn lane_ids(&self) -> impl Iterator<Item = ChanId> {
        let base = self.first_lane.0;
        (base..base + self.num_lanes as u32).map(ChanId)
    }

    /// The `ChanId` of lane `i` of this link.
    #[inline]
    pub fn lane_id(&self, i: u8) -> ChanId {
        debug_assert!(i < self.num_lanes);
        ChanId(self.first_lane.0 + i as u32)
    }
}

// ---------------------------------------------------------------------------
// Lane arbitration
// ---------------------------------------------------------------------------

/// Picks which free lane of a physical output port a granted worm binds
/// to: round-robin by lane index, starting from a seeded offset.
#[derive(Clone, Debug)]
pub struct SeededRoundRobin {
    next: u8,
}

impl SeededRoundRobin {
    pub fn new(seed: u64) -> Self {
        SeededRoundRobin {
            next: (seed % 251) as u8,
        }
    }

    /// The first lane at or after the cursor (wrapping over `num_lanes`)
    /// that `free` accepts, or `None` when every lane is busy. Advances
    /// the cursor past the pick.
    pub fn pick(&mut self, num_lanes: u8, free: impl Fn(u8) -> bool) -> Option<u8> {
        // The seeded cursor starts anywhere below 251: `next + step` needs
        // `u16` (as in `PortArb::arbitrate`).
        let n = u16::from(num_lanes.max(1));
        let lane = (0..n)
            .map(|step| ((u16::from(self.next) + step) % n) as u8)
            .find(|&lane| free(lane))?;
        self.next = ((u16::from(lane) + 1) % n) as u8;
        Some(lane)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(port: u8) -> Endpoint {
        Endpoint {
            node: NodeRef::Switch(SwitchId(0)),
            port: PortId(port),
        }
    }

    fn lane() -> Lane {
        Lane::new(ChanId(0), ep(0), ep(1), 1, ChanId(1), LinkId(0), 0)
    }

    #[test]
    fn utilization_of_idle_lane_is_zero() {
        let l = lane();
        assert_eq!(l.utilization(1000), 0.0);
        assert_eq!(l.utilization(0), 0.0);
        assert_eq!(l.stats().bytes_carried, 0);
    }

    #[test]
    fn stall_accounting_covers_open_intervals() {
        let mut l = lane();
        assert_eq!(l.stall_time(100), 0);
        l.stop(20);
        l.go(50); // closed interval: 30 byte-times
        assert_eq!(l.stall_time(100), 30);
        l.stop(80); // open interval: 20 more at t=100
        assert_eq!(l.stall_time(100), 50);
        assert!((l.stall_fraction(100) - 0.5).abs() < 1e-12);
        assert_eq!(l.stall_fraction(0), 0.0);
        assert_eq!(l.stats().stalls, 2);
    }

    #[test]
    fn stop_is_idempotent_within_an_interval() {
        let mut l = lane();
        l.stop(10);
        l.stop(15); // re-delivered STOP must not open a second interval
        assert_eq!(l.stats().stalls, 1);
        l.go(20);
        assert_eq!(l.stall_time(20), 10);
    }

    #[test]
    fn try_send_counts_data_and_idle_separately() {
        let mut l = lane();
        let t = TxPort::new(&mut l)
            .try_send(5, TxPayload::Data, true)
            .expect("lane free");
        assert_eq!(t.deliver_at, 6);
        TxPort::new(&mut l)
            .try_send(6, TxPayload::Idle, true)
            .expect("lane free");
        let s = l.stats();
        assert_eq!((s.bytes_carried, s.idles_carried, s.in_flight), (1, 1, 2));
        // Pacing: a second byte in the same byte-time is refused.
        assert!(TxPort::new(&mut l)
            .try_send(6, TxPayload::Data, true)
            .is_none());
        assert_eq!(TxPort::new(&mut l).ready_at(), 7);
    }

    #[test]
    fn stopped_lane_refuses_sends_but_not_siblings() {
        let mut a = lane();
        let mut b = Lane::new(ChanId(2), ep(0), ep(1), 1, ChanId(3), LinkId(0), 1);
        a.stop(10);
        assert!(TxPort::new(&mut a)
            .try_send(10, TxPayload::Data, true)
            .is_none());
        // Per-lane STOP isolation: the sibling lane is unaffected.
        assert!(TxPort::new(&mut b)
            .try_send(10, TxPayload::Data, true)
            .is_some());
        a.go(12);
        assert!(TxPort::new(&mut a)
            .try_send(12, TxPayload::Data, true)
            .is_some());
    }

    #[test]
    fn span_send_and_deliver_roundtrip() {
        let mut l = Lane::new(ChanId(0), ep(0), ep(1), 3, ChanId(1), LinkId(0), 0);
        let worm = WormId(7);
        let t = TxPort::new(&mut l)
            .try_send(10, TxPayload::Span { worm, len: 5, route: 0, tail: false, paced: false }, true)
            .expect("lane free");
        assert_eq!(t.deliver_at, 13);
        assert_eq!(l.in_flight(), 5);
        assert_eq!(TxPort::new(&mut l).ready_at(), 15);
        let (dst, span) = RxPort::new(&mut l).deliver_span();
        assert_eq!(dst.port, PortId(1));
        assert_eq!((span.worm, span.start, span.len), (worm, 10, 5));
        assert_eq!(l.in_flight(), 0);
    }

    #[test]
    fn truncation_revokes_unsent_span_bytes() {
        let mut l = Lane::new(ChanId(0), ep(0), ep(1), 2, ChanId(1), LinkId(0), 0);
        let worm = WormId(3);
        TxPort::new(&mut l)
            .try_send(10, TxPayload::Span { worm, len: 8, route: 0, tail: false, paced: false }, true)
            .expect("lane free");
        // STOP lands at t=13: bytes at slots 10..13 (3 of them) are out.
        let revoked = l.truncate_newest_span(13).expect("still sending");
        assert_eq!(revoked, Revoked { worm, route: 0, data: 5, tail: false });
        assert_eq!(l.in_flight(), 3);
        assert_eq!(l.stats().bytes_carried, 3);
        // The old span chain's kick is cancelled.
        assert!(!l.kick_is_current(0));
        // Nothing left to truncate.
        assert!(l.truncate_newest_span(14).is_none());
    }

    /// A head run of five route symbols and three data bytes on a
    /// delay-8 lane, cut by a STOP after two symbols: the other three come
    /// back in order behind the data, and what stays on the wire delivers
    /// exactly the two that left.
    #[test]
    fn truncation_hands_back_route_symbols_in_order() {
        let mut l = Lane::new(ChanId(0), ep(0), ep(1), 8, ChanId(1), LinkId(0), 0);
        let worm = WormId(3);
        let mut tx = TxPort::new(&mut l);
        for port in 1..=5 {
            tx.stage_route_sym(RouteSym::Port(port));
        }
        let ticket = tx
            .try_send(10, TxPayload::Span { worm, len: 8, route: 5, tail: false, paced: false }, true)
            .expect("lane free");
        assert_eq!(ticket.deliver_at, 18);
        // STOP lands at t=12: the symbols at slots 10 and 11 are out.
        let revoked = l.truncate_newest_span(12).expect("still sending");
        assert_eq!(revoked, Revoked { worm, route: 3, data: 3, tail: false });
        // Last first, as the producer pushes them back onto its front.
        let back: Vec<RouteSym> = (0..revoked.route).map(|_| l.unstage_route_sym()).collect();
        assert_eq!(
            back,
            [RouteSym::Port(5), RouteSym::Port(4), RouteSym::Port(3)]
        );
        assert_eq!(l.in_flight(), 2);
        assert_eq!(l.stats().bytes_carried, 2);
        assert_eq!(TxPort::new(&mut l).ready_at(), 12);
        assert!(!l.kick_is_current(0));
        let mut rx = RxPort::new(&mut l);
        let (_, span) = rx.deliver_span();
        assert_eq!((span.start, span.len, span.route), (10, 2, 2));
        assert_eq!(rx.take_route_sym(), RouteSym::Port(1));
        assert_eq!(rx.take_route_sym(), RouteSym::Port(2));
        assert_eq!(l.in_flight(), 0);
        // The next head run starts from an empty symbol FIFO.
        let mut tx = TxPort::new(&mut l);
        tx.stage_route_sym(RouteSym::Port(3));
        tx.try_send(20, TxPayload::Span { worm, len: 1, route: 1, tail: false, paced: false }, true)
            .expect("lane free");
        assert_eq!(RxPort::new(&mut l).take_route_sym(), RouteSym::Port(3));
    }

    /// Only a span that lands wholesale puts its receiver ahead of the
    /// per-byte twin: taking it off the wire is not enough, and until
    /// `note_span_landed` records it `rx_future_bytes` reads nothing.
    #[test]
    fn only_a_span_that_lands_counts_as_delivered_ahead() {
        let mut l = Lane::new(ChanId(0), ep(0), ep(1), 2, ChanId(1), LinkId(0), 0);
        let worm = WormId(3);
        TxPort::new(&mut l)
            .try_send(10, TxPayload::Span { worm, len: 6, route: 0, tail: false, paced: false }, true)
            .expect("lane free");
        let (_, got) = RxPort::new(&mut l).deliver_span();
        assert_eq!(got.len, 6);
        assert_eq!(l.rx_future_bytes(12), 0);
        assert_eq!(l.delivered_end(), 0);
        // First byte arrives at t=12; five more have slots still to come.
        l.note_span_landed(&got);
        assert_eq!(l.rx_future_bytes(12), 5);
        assert_eq!(l.rx_future_bytes(16), 1);
        assert_eq!(l.rx_future_bytes(17), 0);
        assert_eq!(l.delivered_end(), 16);
    }

    #[test]
    fn link_lane_ids_are_contiguous() {
        let link = Link::new(
            LinkId(2),
            (NodeRef::Switch(SwitchId(0)), PortId(3)),
            (NodeRef::Switch(SwitchId(1)), PortId(0)),
            4,
            ChanId(10),
            3,
        );
        let ids: Vec<u32> = link.lane_ids().map(|c| c.0).collect();
        assert_eq!(ids, vec![10, 11, 12]);
        assert_eq!(link.lane_id(2), ChanId(12));
        assert_eq!(link.num_lanes(), 3);
    }

    #[test]
    fn round_robin_arbiter_cycles_lanes() {
        let mut arb = SeededRoundRobin::new(0);
        let picks: Vec<u8> = (0..6).filter_map(|_| arb.pick(3, |_| true)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
        // Busy lanes are skipped over; the cursor moves past the pick.
        assert_eq!(arb.pick(3, |lane| lane == 2), Some(2));
        assert_eq!(arb.pick(3, |_| true), Some(0));
        assert_eq!(arb.pick(3, |_| false), None);
    }

    /// Whatever the seed, a port's one free lane is found: with seven or
    /// more lanes the seeded cursor plus the scan step passes 255.
    #[test]
    fn round_robin_arbiter_finds_the_one_free_lane_from_any_seed() {
        for seed in 0..251u64 {
            for n in 1..=16u8 {
                for only in 0..n {
                    let mut arb = SeededRoundRobin::new(seed);
                    assert_eq!(
                        arb.pick(n, |lane| lane == only),
                        Some(only),
                        "seed {seed}, {n} lanes"
                    );
                }
            }
        }
    }
}
