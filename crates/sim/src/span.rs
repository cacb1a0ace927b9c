//! The span rules: every decision about whether bytes may move as one
//! span instead of one event each, and what the per-byte twin of a
//! span-batched buffer holds meanwhile (DESIGN.md §3.1).
//!
//! A span is an *engine optimisation*: whatever is decided here, a run
//! delivers the bytes, timestamps and statistics of the per-byte reference
//! engine (`SimMode::PerByte`, which calls nothing in this module but
//! `spans_enabled` and `InPort::certified`, both false there). `link.rs`
//! keeps the mechanism — in-flight span records and the route symbols that
//! travel beside them, truncation arithmetic, send-slot accounting.

use crate::adapter::RxState;
use crate::engine::{Event, HostId, SwitchId};
use crate::link::{ChanId, Endpoint, NodeRef, RxPort, SpanInFlight, TxPayload, TxPort};
use crate::network::{Network, SimMode};
use crate::switch::{InPort, InState};
use crate::switchcast::SwitchcastMode;
use crate::time::SimTime;
use crate::worm::{ByteKind, RouteSym, WireByte, WormId, WormKind};

/// Minimum run length worth batching: a 1-byte span costs the same two
/// events (arrival + next kick) as the per-byte path, so fall through.
const MIN_SPAN: u64 = 2;

/// What a span producer holds ready at its front: `route` route symbols
/// followed by `data` data bytes, all of `worm`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Ready {
    worm: WormId,
    route: u64,
    data: u64,
}

impl InPort {
    /// Whether `worm`'s drain certificate is in force here at `now`: the
    /// buffer may then hold bytes of a span delivered wholesale that its
    /// per-byte twin has not received yet, and the watermark logic that
    /// reads the *local* occupancy must stand aside.
    #[inline]
    pub(crate) fn certified(&self, worm: WormId, now: SimTime) -> bool {
        matches!(self.drain_cert, Some((w, until)) if w == worm && now < until)
    }
}

impl Network {
    /// Whether the span rules are in force at all: span-batched mode. What
    /// they cannot prove exact they refuse worm by worm
    /// ([`Network::span_refused`]), on every fabric.
    #[inline]
    pub(crate) fn spans_enabled(&self) -> bool {
        self.cfg.mode == SimMode::SpanBatched
    }

    /// Whether `worm` crosses every hop per-byte even with spans enabled
    /// (DESIGN.md §3.1): a switch-level multicast worm — replication, IDLE
    /// fill and fragment ends are clocked byte by byte — and, under
    /// `IdleFlush`, every worm, because a Backward Reset observes where
    /// each byte of a flushed unicast is and what lies behind it.
    #[inline]
    fn span_refused(&self, worm: WormId) -> bool {
        match self.cfg.switchcast {
            SwitchcastMode::Off => false,
            SwitchcastMode::IdleFlush => true,
            SwitchcastMode::RestrictedIdle | SwitchcastMode::RootedInterrupt => matches!(
                self.worms[worm.0 as usize].meta.kind,
                WormKind::SwitchMulticast { .. }
            ),
        }
    }

    /// The earliest time output `out` of `sw` may send the byte at the
    /// front of its owner's buffer — `now`, or that byte's per-byte arrival
    /// slot if it is still to come — or `None` when there is no such byte.
    ///
    /// *Pacing*: no byte leaves an input before its per-byte arrival slot.
    /// A span lands wholesale at its first byte's slot, and its bytes
    /// leave in order at one per byte-time at most, so byte `j` cannot go
    /// before slot `a + j` — unless a byte ahead of it is *consumed*: the
    /// head byte of a head run takes no send slot, and the byte behind it
    /// (slot `a + 1`) is at the buffer front at time `a`. The bytes still
    /// ahead of their slots are the newest `rx_future_bytes` that came in,
    /// so the front byte is one of them iff the buffer holds no more than
    /// that. Enforced where a kick is armed on a grant (`switch_grant`) and
    /// again where any kick fires (`try_emit_span`).
    pub(crate) fn front_byte_slot(&self, sw: SwitchId, out: u8) -> Option<SimTime> {
        let swr = &self.switches[sw.0 as usize];
        let inp = &swr.inputs[swr.outputs[out as usize].owner? as usize];
        let held = inp.occupancy() as u64;
        if held == 0 {
            return None;
        }
        let now = self.scheduler.now();
        let future = inp
            .chan_in
            .map_or(0, |c| self.lanes[c.0 as usize].rx_future_bytes(now));
        Some(now + (future + 1).saturating_sub(held))
    }

    /// The pacing invariant, checked where a byte leaves a switch: output
    /// `out` of `sw` is about to send from the front of its owner's buffer
    /// (one byte, or a span starting with it), and that byte has reached
    /// its per-byte arrival slot.
    #[inline]
    pub(crate) fn debug_assert_paced(&self, sw: SwitchId, out: u8) {
        debug_assert!(
            !self.spans_enabled()
                || self
                    .front_byte_slot(sw, out)
                    .is_none_or(|slot| slot <= self.scheduler.now()),
            "output {out} of {sw:?} sends a byte ahead of its arrival slot"
        );
    }

    /// Whether the producer behind `src` holds a byte it could send in its
    /// next slot: the output's owner has a byte of the worm it forwards at
    /// its buffer front, or replicates (IDLE fill and fragment ends are
    /// clocked by the chain kick, as in per-byte mode); the adapter has a
    /// worm queued (its tail at least). When it does not, a follow-up kick
    /// would find nothing: the lane goes idle instead, and whatever refills
    /// the producer re-kicks through `kick_channel`, paced by
    /// `next_tx_time` — same send slots, no empty-handed wakeup.
    pub(crate) fn producer_has_byte(&self, src: Endpoint) -> bool {
        match src.node {
            NodeRef::Switch(s) => {
                let sw = &self.switches[s.0 as usize];
                sw.outputs[src.port.index()].owner.is_some_and(|owner| {
                    let inp = &sw.inputs[owner as usize];
                    match inp.state {
                        InState::Forwarding { worm, out } => {
                            out == src.port.0 && inp.buf.front().is_some_and(|b| b.worm == worm)
                        }
                        InState::Replicating(_) => true,
                        _ => false,
                    }
                })
            }
            NodeRef::Host(h) => !self.adapters[h.0 as usize].tx_queue.is_empty(),
        }
    }

    /// Span-batched fast path (see DESIGN.md §3.1), entered by every kick
    /// of lane `ch` while [`Network::spans_enabled`]: when the producer
    /// holds a run of contiguous ready bytes of one worm — its leading
    /// route symbols, then data — and moving them in a single event is
    /// provably indistinguishable from per-byte transmission, put the whole
    /// run on the wire at once. Returns true when the kick is dealt with
    /// here: a span went out (the end-of-span kick is scheduled, or the
    /// lane went idle behind a producer left empty-handed), or the kick
    /// came before its byte's arrival slot and was re-armed for it. False
    /// means the caller must produce per-byte, now — always so on a lane
    /// cut by a shard boundary, whose receiver's state lives in another
    /// shard.
    pub(crate) fn try_emit_span(&mut self, ch: ChanId, gen: u32) -> bool {
        let (src, dst) = {
            let c = &self.lanes[ch.0 as usize];
            (c.src(), c.dst())
        };
        let now = self.scheduler.now();
        let ready = match src.node {
            NodeRef::Switch(s) => {
                // Pacing, at kick time: a kick armed before the grant — by
                // a GO, by the previous worm's chain — can fire in the very
                // tick a head run was granted this output.
                let early = self.front_byte_slot(s, src.port.0).filter(|&slot| slot > now);
                if let Some(slot) = early {
                    self.scheduler.at(slot, Event::TxKick { ch, gen });
                    return true;
                }
                self.switch_span_ready(s, src.port.0)
            }
            NodeRef::Host(h) => self.adapter_span_ready(h),
        };
        let Some(Ready { worm, route, data }) = ready else {
            return false;
        };
        if self.chan_dst_foreign(ch) {
            return false;
        }
        let avail = route + data;
        let room = match dst.node {
            // No room still leaves the circuit a chance to be clear.
            NodeRef::Switch(_) => self.switch_span_room(ch),
            NodeRef::Host(h) => match self.adapter_span_room(h, worm) {
                Some(room) => room,
                None => return false,
            },
        };
        // Two admission rules, both counting bytes whatever their kind:
        // the run fits below the receiver's STOP mark even if the receiver
        // drains nothing (`room`), or the receiver is certain to keep
        // draining for long enough (`drain_window`).
        let certified = if avail > room {
            self.drain_window(ch, worm)
        } else {
            0
        };
        let k = avail.min(room.max(certified));
        // When they admit less than a wire's worth, the receiver decides
        // instead, piece by piece as the span lands (`handle_rx_span`),
        // provided no STOP can cut the span short: none is in force or on
        // its way, and one emitted from now on lands no sooner than `now +
        // delay`, when a span no longer than the wire has left.
        let paced_len = avail.min(self.lanes[ch.0 as usize].delay());
        let paced = k < paced_len
            && matches!(dst.node, NodeRef::Switch(s)
                if !self.switches[s.0 as usize].inputs[dst.port.index()].sent_stop)
            && self.lanes[ch.0 as usize].ctrl_in_flight() == 0;
        let k = if paced { paced_len } else { k };
        if k < MIN_SPAN {
            return false;
        }
        // The span is the first `k` of the run: symbols first.
        let route = route.min(k);
        let data = k - route;
        if let NodeRef::Switch(s) = src.node {
            self.debug_assert_paced(s, src.port.0);
        }
        // Commit: dequeue the run from the producer, staging its route
        // symbols on the lane...
        let mut tx = TxPort::new(&mut self.lanes[ch.0 as usize]);
        match src.node {
            NodeRef::Switch(s) => {
                let owner = self.switches[s.0 as usize].outputs[src.port.index()]
                    .owner
                    .expect("span-ready output has an owner");
                let inp = &mut self.switches[s.0 as usize].inputs[owner as usize];
                for _ in 0..route {
                    let Some(ByteKind::Route(sym)) = inp.buf.pop_front().map(|b| b.kind) else {
                        unreachable!("span-ready route symbols lead the buffer");
                    };
                    tx.stage_route_sym(sym);
                }
                let popped = inp.buf.pop_front_run(data);
                debug_assert_eq!(popped, data, "span-ready data follows as one run");
                // No per-dequeue GO check: `switch_span_ready` stops a run
                // short of the dequeue that reaches the GO mark.
            }
            NodeRef::Host(h) => {
                let a = &mut self.adapters[h.0 as usize];
                debug_assert!(
                    a.tx_queue.front().is_some_and(|t| t
                        .follow
                        .and_then(|src| a.arriving(src))
                        .is_none_or(|got| t.body_sent + data <= got)),
                    "follower span at adapter {h:?} outruns its source: emission guard failed"
                );
                let head = a.tx_queue.front_mut().expect("span-ready head worm");
                let unsent = &self.worms[head.worm.0 as usize].route[head.route_sent..];
                for &sym in &unsent[..route as usize] {
                    tx.stage_route_sym(sym);
                }
                head.route_sent += route as usize;
                head.body_sent += data;
                a.counters.bytes_sent += k;
            }
        }
        // ...and move it as one span.
        let payload = TxPayload::Span {
            worm,
            len: k,
            route,
            paced,
        };
        let ticket = tx
            .try_send(now, payload, true)
            .expect("span probe ran at the lane's ready time");
        self.scheduler.at(ticket.deliver_at, Event::RxSpan { ch });
        self.list_for_settle(ch);
        if k > room && !paced && certified != u64::MAX {
            // Sent on a finite drain window: the receiving input holds the
            // certificate until the span's last arrival slot has passed.
            let NodeRef::Switch(s) = dst.node else {
                unreachable!("an adapter's room is unbounded");
            };
            self.switches[s.0 as usize].inputs[dst.port.index()].drain_cert =
                Some((worm, ticket.deliver_at + k));
        }
        if self.producer_has_byte(src) {
            self.scheduler.after(
                k,
                Event::TxKick {
                    ch,
                    gen: ticket.gen,
                },
            );
            // tx_active stays true: the end-of-span kick is pending.
        } else {
            // The span took everything its producer had (never an
            // adapter: that still owes the tail): no end-of-span kick.
            self.lanes[ch.0 as usize].set_tx_idle();
        }
        true
    }

    /// Deliver the oldest in-flight span on `ch`, or the next piece of it.
    /// Spans and single bytes on one channel share FIFO wire order, so the
    /// queue front is always the arriving span. A span lands wholesale at
    /// its first byte's arrival slot; a receiver-paced one lands as much as
    /// [`Network::paced_piece`] admits, and the rest arrives again at its
    /// own first byte's slot.
    pub(crate) fn handle_rx_span(&mut self, ch: ChanId) {
        let (dst, span) = match self.lanes[ch.0 as usize].paced_front() {
            None => RxPort::new(&mut self.lanes[ch.0 as usize]).deliver_span(),
            Some(front) => self.paced_piece(ch, front),
        };
        self.lanes[ch.0 as usize].note_span_landed(&span);
        self.list_for_settle(ch);
        // Credited whole: the end of the run parks the bytes still
        // arriving ([`Lane::settle`]).
        self.stats.bytes_moved += span.len;
        debug_assert!(
            self.flushed_count == 0,
            "spans and flushes cannot coexist (`span_refused` under IdleFlush)"
        );
        if span.route > 0 {
            // A head run: its route symbols go into the input's buffer as
            // single entries, in wire order, ahead of the data run. Only
            // the first of them can mean anything to this switch — a span
            // starts at its producer's first unsent byte, so the worm's
            // first byte *here* is always the first byte of a span, at its
            // own arrival slot — and `switch_rx` acts on it below, once,
            // after the whole run is in.
            let NodeRef::Switch(s) = dst.node else {
                unreachable!("route symbols are consumed by switches, never sent to a host");
            };
            let mut rx = RxPort::new(&mut self.lanes[ch.0 as usize]);
            if span.len == 1 {
                // One symbol alone is a one-byte arrival, which may be the
                // one that reaches the STOP mark.
                let kind = ByteKind::Route(rx.take_route_sym());
                let byte = WireByte {
                    worm: span.worm,
                    kind,
                };
                return self.switch_rx(s, dst.port.0, byte, 1);
            }
            let inp = &mut self.switches[s.0 as usize].inputs[dst.port.index()];
            for _ in 0..span.route {
                inp.buf.push_back(WireByte {
                    worm: span.worm,
                    kind: ByteKind::Route(rx.take_route_sym()),
                });
            }
        }
        let byte = WireByte {
            worm: span.worm,
            kind: ByteKind::Data,
        };
        self.deliver_run(dst, byte, span.len - span.route);
        debug_assert!(
            !span.paced
                || span.len == 1
                || matches!(dst.node, NodeRef::Switch(s)
                    if !self.switches[s.0 as usize].inputs[dst.port.index()].sent_stop),
            "a paced piece of {} bytes crossed the STOP mark at {dst:?}: only a lone byte may",
            span.len
        );
    }

    /// How much of the receiver-paced span `front` at the head of `ch`
    /// lands now, at its first byte's arrival slot (DESIGN.md §3.1,
    /// *Receiver-paced spans*): all of it under the worm's drain
    /// certificate; one byte while the input's STOP is in force, so that
    /// the GO goes out at its per-byte dequeue; otherwise as many as keep
    /// the per-byte twin below the STOP mark while they arrive, `Ks − 1 −
    /// q`, and at least one — the byte that raises the STOP then lands
    /// alone, at its own slot. Lands the piece, and arms the rest's arrival
    /// at its first byte's slot.
    fn paced_piece(&mut self, ch: ChanId, front: SpanInFlight) -> (Endpoint, SpanInFlight) {
        let now = self.scheduler.now();
        let lane = &self.lanes[ch.0 as usize];
        let dst = lane.dst();
        let NodeRef::Switch(s) = dst.node else {
            unreachable!("only a switch input paces a span");
        };
        let sw = &self.switches[s.0 as usize];
        let inp = &sw.inputs[dst.port.index()];
        let m = if inp.certified(front.worm, now) {
            front.len
        } else if inp.sent_stop {
            1
        } else {
            // Every byte that came in before this one has reached its
            // arrival slot: the wire is FIFO, and pieces land in turn.
            debug_assert_eq!(lane.rx_future_bytes(now), 0, "{ch:?} lands ahead of a byte");
            // The twin's occupancy at this arrival's rank: what the output
            // has batch-dequeued for send slots from `now` on is still
            // there, since the output's kick of this tick comes after.
            let sending = match inp.state {
                InState::Forwarding { out, .. } => sw.outputs[out as usize]
                    .chan_out
                    .map_or(0, |c| self.lanes[c.0 as usize].drain_advance_at_arrival(now)),
                _ => 0,
            };
            let q = inp.occupancy() as u64 + sending;
            let mark = inp.slack.stop_mark as u64;
            // Where the twin can reach the mark, the local buffer must read
            // its occupancy: the crossing test keeps a run from leaving an
            // input whose twin could (`switch_span_ready`).
            debug_assert!(
                q + 1 < mark || sending == 0,
                "a paced byte may reach the STOP mark at {s:?}:{} while the output \
                 is still sending: the local buffer would miss it",
                dst.port
            );
            (mark - 1).saturating_sub(q).max(1).min(front.len)
        };
        if m < front.len {
            self.scheduler.after(m, Event::RxSpan { ch });
        }
        RxPort::new(&mut self.lanes[ch.0 as usize]).deliver_span_prefix(m)
    }

    /// A STOP just took effect on `ch` at time `now`. In per-byte mode the
    /// CtrlRx always fires before the same-timestamp TxKick (it was
    /// scheduled at least `delay` ≥ 1 byte-times earlier, and within its
    /// scheduling timestamp the RxByte that triggered it precedes the chain
    /// kick), so no byte with a send slot ≥ `now` has gone out — except the
    /// first byte of a span emitted by a kick that ran earlier this very
    /// timestamp. Cut every in-flight span back to its already-sent prefix
    /// and hand the revoked bytes back to the producer.
    pub(crate) fn truncate_spans(&mut self, ch: ChanId) {
        let now = self.scheduler.now();
        let lane = &mut self.lanes[ch.0 as usize];
        let Some(revoked) = lane.truncate_newest_span(now) else {
            return;
        };
        let worm = revoked.worm;
        let src = lane.src();
        match src.node {
            NodeRef::Switch(s) => {
                let owner = self.switches[s.0 as usize].outputs[src.port.index()]
                    .owner
                    .expect("truncated span has a crossbar owner");
                let inp = &mut self.switches[s.0 as usize].inputs[owner as usize];
                debug_assert!(matches!(
                    inp.state,
                    InState::Forwarding { worm: w, .. } if w == worm
                ));
                // Back to the buffer front in wire order: the data run
                // first, then the symbols ahead of it, last one first.
                let byte = WireByte {
                    worm,
                    kind: ByteKind::Data,
                };
                inp.buf.push_front_run(byte, revoked.data);
                for _ in 0..revoked.route {
                    let kind = ByteKind::Route(lane.unstage_route_sym());
                    inp.buf.push_front_run(WireByte { worm, kind }, 1);
                }
            }
            NodeRef::Host(h) => {
                // The adapter re-reads the symbols from the worm's route.
                for _ in 0..revoked.route {
                    lane.unstage_route_sym();
                }
                let a = &mut self.adapters[h.0 as usize];
                let head = a
                    .tx_queue
                    .front_mut()
                    .expect("truncated span's worm queued");
                debug_assert_eq!(head.worm, worm);
                head.route_sent -= revoked.route as usize;
                head.body_sent -= revoked.data;
                a.counters.bytes_sent -= revoked.route + revoked.data;
            }
        }
    }

    /// Span fast-path probe for the producer side of the channel leaving
    /// output `out`: the run of the forwarded worm at the front of the
    /// owning input's buffer — its leading `Route(Port)` symbols (payload
    /// to this switch: only the next one acts on them), then its
    /// contiguous data; it stops at the tail or another worm — as far as
    /// no byte-timed side effect (a GO emission or a STOP crossing) could
    /// occur while the run drains. Those must happen at exact per-byte
    /// dequeue and arrival times.
    ///
    /// A STOP crossing is ruled out in one of two ways (DESIGN.md §3.1).
    /// *No drain*: `occupancy + wire < Ks` — dequeues only lower the
    /// occupancy and at most one byte arrives per byte-time, so neither
    /// mode reaches the mark whatever the run does. *Certain drain*:
    /// `q + 3 < Ks`, `q` the per-byte twin's occupancy — during the run's
    /// own send slots the twin dequeues a byte in every byte-time, so it
    /// cannot rise, and a STOP landing mid-run truncates it, handing the
    /// unsent bytes back. The second is refused on a shard engine.
    pub(crate) fn switch_span_ready(&self, sw: SwitchId, out: u8) -> Option<Ready> {
        let swr = &self.switches[sw.0 as usize];
        let owner = swr.outputs[out as usize].owner?;
        let inp = &swr.inputs[owner as usize];
        let InState::Forwarding { worm, out: o } = &inp.state else {
            return None;
        };
        let worm = *worm;
        if *o != out || self.span_refused(worm) {
            return None;
        }
        // Under a drain certificate the per-byte occupancy is already
        // proven to stay below the mark, and the local one
        // (wholesale-delivered spans included) is not it; with our STOP
        // already in force no second one can be raised at all.
        let now = self.scheduler.now();
        if !inp.sent_stop && !inp.certified(worm, now) {
            let wire = match inp.chan_in {
                // Fed across a shard boundary: neither copy of the lane
                // counts its bytes, but they cross per-byte, one per send
                // slot in `(now - delay, now]`, so `delay` bounds them.
                Some(c) if self.chan_src_foreign(c) => self.lanes[c.0 as usize].delay(),
                Some(c) => self.lanes[c.0 as usize].in_flight() as u64,
                None => 0,
            };
            let mark = inp.slack.stop_mark as u64;
            if inp.occupancy() as u64 + wire >= mark
                && (self.shard.is_some()
                    || swr.outputs[out as usize]
                        .chan_out
                        .is_none_or(|next| self.twin_occupancy(inp, next, now) + 3 >= mark))
            {
                return None;
            }
        }
        // While our STOP is in force the next byte-timed side effect is
        // the GO, at the dequeue that brings the occupancy down to the GO
        // mark: `occupancy − go_mark` dequeues from now if nothing arrives
        // meanwhile, later if something does. No span is admitted into a
        // stopped input (`switch_span_room` and `drain_window` both refuse
        // it), so the buffer holds no byte ahead of its arrival slot and
        // the local occupancy is the twin's. The dequeues before the
        // crossing may go as one span; the end-of-span kick takes the
        // crossing per-byte.
        let limit = if inp.sent_stop {
            (inp.occupancy() as u64).saturating_sub(inp.slack.go_mark as u64 + 1)
        } else {
            u64::MAX
        };
        // A shard engine keeps route symbols per-byte: no head runs.
        let heads = self.shard.is_none();
        let (mut route, mut data) = (0, 0);
        for (b, n) in inp.buf.runs() {
            if b.worm != worm {
                break;
            }
            match b.kind {
                ByteKind::Route(RouteSym::Port(_)) if heads => route += n,
                ByteKind::Data => {
                    data = n;
                    break;
                }
                _ => break,
            }
        }
        let route = route.min(limit);
        let data = data.min(limit - route);
        (route + data > 0).then_some(Ready { worm, route, data })
    }

    /// Span fast-path check for the switch input that lane `ch` feeds: how
    /// many bytes can land in one event, behind everything already on
    /// `ch`'s wire, while the input's per-byte twin provably stays below its
    /// STOP mark for the whole delivery window (DESIGN.md §3.1): the
    /// *no-drain* bound `Ks − 1 − occupancy − wire`. Even if all `wire + k`
    /// bytes land and none leaves, the occupancy stays below the mark in
    /// either mode. 0 while the input's own STOP is in force: the per-byte
    /// GO/STOP interplay is exact, so stay on the slow path until it clears.
    pub(crate) fn switch_span_room(&self, ch: ChanId) -> u64 {
        let lane = &self.lanes[ch.0 as usize];
        let dst = lane.dst();
        let NodeRef::Switch(s) = dst.node else {
            unreachable!("an adapter's room is `adapter_span_room`");
        };
        let inp = &self.switches[s.0 as usize].inputs[dst.port.index()];
        if inp.sent_stop {
            return 0;
        }
        let wire = lane.in_flight() as u64;
        (inp.slack.stop_mark as u64).saturating_sub(inp.occupancy() as u64 + wire + 1)
    }

    /// The occupancy `q` of `inp`'s per-byte twin at `now`, `next` the lane
    /// it forwards on: the local occupancy, minus the bytes of a
    /// wholesale-delivered span whose arrival slots are still to come
    /// (`Lane::rx_future_bytes` of the lane feeding it), plus the bytes a
    /// span batch-dequeued for send slots still to come
    /// (`Lane::drain_advance` of `next`).
    fn twin_occupancy(&self, inp: &InPort, next: ChanId, now: SimTime) -> u64 {
        let future = inp
            .chan_in
            .map_or(0, |c| self.lanes[c.0 as usize].rx_future_bytes(now));
        (inp.occupancy() as u64 + self.lanes[next.0 as usize].drain_advance(now))
            .saturating_sub(future)
    }

    /// The longest span of `worm` that lane `ch` may carry from now on the
    /// strength of how long the input behind it is *certain to keep
    /// draining* (DESIGN.md §3.1): `u64::MAX` on a clear circuit, 0 when
    /// nothing is certain.
    ///
    /// Walking downstream from `ch`, every lane must be un-stopped with no
    /// control symbol on its way to the transmitter (a STOP chased by a GO
    /// on a long wire shows in neither end's flags), and every switch input
    /// must be forwarding this worm, hold no STOP of its own, and have a
    /// per-byte twin occupancy `q` ([`Network::twin_occupancy`]) at least
    /// two below its STOP mark.
    ///
    /// Induction from wherever the walk stops. A STOP that is neither in
    /// force on a lane nor on its control wire has yet to be emitted, so it
    /// lands no sooner than the lane's delay from now. Until then the input
    /// feeding that lane dequeues a byte in every byte-time it is non-empty
    /// while at most one arrives, so its per-byte occupancy never exceeds
    /// `q + 1` (`+ 1` again for where in the tick the walk happens to
    /// look), never reaches the mark, never emits a STOP — which keeps the
    /// lane one hop up un-stopped for *its* delay more, and so on up to
    /// `ch`: no STOP lands on the first input's output before `now + W`,
    /// `W` the summed delay of the lanes after `ch` that passed. A walk
    /// that reaches an adapter which has decided the worm's admission has
    /// `W = ∞` (adapters never STOP): the circuit is clear for good. The
    /// crossbar connections are held until the tail, which stays a per-byte
    /// event.
    ///
    /// Inside a finite window a span is exact when the first input's twin
    /// has received *and forwarded* every byte of it before the window
    /// closes — then nothing distinguishes the window from a clear circuit
    /// while any of the span is around.
    ///
    /// A clear walk marks every input it passed ([`InPort::drain_cert`],
    /// `SimTime::MAX`): later kicks stop at the first mark. A finite window
    /// marks nothing here — the caller stamps the first input with the
    /// expiry that follows from the length it sends. A shard engine always
    /// refuses — its mirrors of foreign switches are dead state.
    pub(crate) fn drain_window(&mut self, ch: ChanId, worm: WormId) -> u64 {
        if self.shard.is_some() {
            return 0;
        }
        let now = self.scheduler.now();
        // A deliverable worm crosses each lane at most once; one whose
        // route loops back into an input it still occupies never reaches a
        // sink, and the bound keeps the walk from circling with it.
        let mut walked = 0;
        let mut window: SimTime = 0;
        let mut q_first = 0;
        let mut c = ch;
        let clear = loop {
            let lane = &self.lanes[c.0 as usize];
            if lane.is_stopped() || lane.ctrl_in_flight() != 0 || walked == self.lanes.len() {
                break false;
            }
            if walked > 0 {
                window += lane.delay();
            }
            walked += 1;
            let dst = lane.dst();
            let s = match dst.node {
                NodeRef::Host(h) => break self.adapter_span_room(h, worm).is_some(),
                NodeRef::Switch(s) => s,
            };
            let sw = &self.switches[s.0 as usize];
            let inp = &sw.inputs[dst.port.index()];
            if inp.drain_cert == Some((worm, SimTime::MAX)) {
                break true;
            }
            let InState::Forwarding { worm: w, out } = inp.state else {
                break false;
            };
            let Some(next) = sw.outputs[out as usize].chan_out else {
                break false;
            };
            if w != worm || inp.sent_stop {
                break false;
            }
            let q = self.twin_occupancy(inp, next, now);
            if q + 2 >= inp.slack.stop_mark as u64 {
                break false;
            }
            if walked == 1 {
                q_first = q;
            }
            c = next;
        };
        if !clear {
            // The span's last byte reaches the first input at slot
            // `now + delay + k − 1` and must have left it again before a
            // STOP can land at `now + W`. Charged in full, one slot per
            // place where the position inside a tick could matter: the
            // bytes on the wire, the `q + 2` of the input test above, and
            // the landing tick itself — a STOP precedes its tick's kick.
            let first = &self.lanes[ch.0 as usize];
            let ahead = first.in_flight() as u64 + q_first + 2;
            return window.saturating_sub(first.delay() + ahead + 1);
        }
        // Clear for good: mark the same inputs, in the same order.
        let mut c = ch;
        while let NodeRef::Switch(s) = self.lanes[c.0 as usize].dst().node {
            let port = self.lanes[c.0 as usize].dst().port.index();
            let sw = &mut self.switches[s.0 as usize];
            let inp = &mut sw.inputs[port];
            if inp.drain_cert == Some((worm, SimTime::MAX)) {
                break;
            }
            inp.drain_cert = Some((worm, SimTime::MAX));
            let InState::Forwarding { out, .. } = inp.state else {
                unreachable!("walked inputs forward the worm");
            };
            c = sw.outputs[out as usize]
                .chan_out
                .expect("walked outputs are connected");
        }
        u64::MAX
    }

    /// Span fast-path probe for an adapter's outgoing channel: the unsent
    /// route symbols of the head worm, then its unsent body. The tail stays
    /// per-byte (it drives completion). A cut-through follower of a
    /// still-arriving worm batches only the body bytes its source has been
    /// credited (`got − body_sent`): exact by the argument of `adapter_rx`,
    /// since the follower, like every reader of that credit, moves at one
    /// byte per byte-time and so cannot overtake the arrival slots behind
    /// it.
    pub(crate) fn adapter_span_ready(&self, host: HostId) -> Option<Ready> {
        let a = &self.adapters[host.0 as usize];
        let head = a.tx_queue.front()?;
        if self.span_refused(head.worm) {
            return None;
        }
        let inst = &self.worms[head.worm.0 as usize];
        let unsent = &inst.route[head.route_sent..];
        // A shard engine keeps route symbols per-byte, as
        // `switch_span_ready` does.
        let route = if self.shard.is_some() {
            0
        } else {
            unsent
                .iter()
                .take_while(|sym| matches!(sym, RouteSym::Port(_)))
                .count()
        };
        let data = if route == unsent.len() {
            let left = inst.body_len().saturating_sub(head.body_sent);
            match head.follow.and_then(|src| a.arriving(src)) {
                Some(got) => left.min(got.saturating_sub(head.body_sent)),
                None => left,
            }
        } else {
            0
        };
        let route = route as u64;
        (route + data > 0).then_some(Ready {
            worm: head.worm,
            route,
            data,
        })
    }

    /// Span fast-path check for a receiving adapter: the adapter never
    /// backpressures, so any amount fits — but only mid-worm, once the
    /// admission decision (taken on the first body byte) is behind us.
    pub(crate) fn adapter_span_room(&self, host: HostId, worm: WormId) -> Option<u64> {
        let a = &self.adapters[host.0 as usize];
        match a.rx {
            RxState::Receiving { worm: w, .. } if w == worm => Some(u64::MAX),
            RxState::Dropping { worm: w } if w == worm => Some(u64::MAX),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CtrlSym;
    use crate::link::PortId;
    use crate::network::{FabricSpec, HostAttach, LinkSpec, NetworkConfig, RouteTable};
    use crate::protocol::{AppMessage, Destination, SendSpec};
    use crate::worm::{MessageId, WormKind};

    /// The network half of `link.rs`'s
    /// `truncation_hands_back_route_symbols_in_order`: an adapter's head
    /// run — five route symbols, then body — on its delay-8 host link, cut
    /// by a STOP after two symbols. `route_sent` and `body_sent` rewind
    /// separately, and the next span starts at the third symbol.
    #[test]
    fn a_stop_inside_an_adapters_head_run_rewinds_route_and_body_separately() {
        let spec = FabricSpec {
            switch_ports: vec![2],
            hosts: vec![
                HostAttach { switch: 0, port: 0 },
                HostAttach { switch: 0, port: 1 },
            ],
            links: vec![],
            host_link_delay: 8,
        };
        let mut routes = RouteTable::new(2);
        routes.set(HostId(0), HostId(1), vec![1]);
        let mut net = Network::build(&spec, routes, NetworkConfig::default());
        let msg = AppMessage {
            msg: MessageId(1),
            origin: HostId(0),
            dest: Destination::Unicast(HostId(1)),
            payload_len: 100,
            created: 0,
        };
        // Only the send side is looked at: the run stops before anything
        // arrives, so a route longer than the fabric is deep does no harm.
        let mut send = SendSpec::data(&msg, HostId(1), WormKind::Unicast);
        send.route_override = Some((1..=5).map(RouteSym::Port).collect());
        let worm = net.inject_worm(HostId(0), send);
        let ch = net.adapters[0].chan_out.expect("host0 is attached");
        // A STOP lands two byte-times in, its GO two later.
        for (at, sym) in [(2, CtrlSym::Stop), (4, CtrlSym::Go)] {
            net.lanes[ch.0 as usize].note_ctrl_sent();
            net.scheduler.at(at, Event::CtrlRx { ch, sym });
        }
        // Send progress, and the counters as a run's end settles them:
        // what the per-byte engine has sent by that horizon.
        let sent = |net: &Network| {
            let head = net.adapters[0].tx_queue.front().expect("still sending");
            let lane = net.lane(ch);
            (
                (head.route_sent, head.body_sent),
                lane.in_flight(),
                (net.adapters[0].counters.bytes_sent, lane.stats().bytes_carried),
            )
        };
        // The 15-byte room of a delay-8 input: the route and ten body bytes.
        net.run_until(2);
        assert_eq!(sent(&net), ((5, 10), 15, (2, 2)));
        net.run_until(3);
        assert_eq!(sent(&net), ((2, 0), 2, (2, 2)));
        let ready = net.adapter_span_ready(HostId(0)).expect("the rest is ready");
        assert_eq!((ready.worm, ready.route, ready.data), (worm, 3, 108));
        // The GO's kick sends the rest — as much as fits behind the two
        // bytes on the wire — from the third symbol on.
        net.run_until(5);
        assert_eq!(sent(&net), ((5, 10), 15, (3, 3)));
        let mut rx = RxPort::new(&mut net.lanes[ch.0 as usize]);
        let (dst, first) = rx.deliver_span();
        assert_eq!(dst.port, PortId(0));
        assert_eq!((first.start, first.len, first.route), (0, 2, 2));
        let (_, second) = rx.deliver_span();
        assert_eq!((second.start, second.len, second.route), (4, 13, 3));
        let syms: Vec<RouteSym> = (0..5).map(|_| rx.take_route_sym()).collect();
        assert_eq!(syms, (1..=5).map(RouteSym::Port).collect::<Vec<_>>());
    }

    /// host0 — sw0 ═ sw1 ═ sw2 — host1 over trunks of `trunks` byte-times
    /// and delay-1 host links, with two worms of `lens` payload bytes from
    /// host0 to host1 queued back to back at time 0. Returns the network,
    /// the two trunks' lanes toward host1 and the worms.
    fn two_trunk_chain(
        trunks: [SimTime; 2],
        mode: SimMode,
        lens: [u32; 2],
    ) -> (Network, [ChanId; 2], [WormId; 2]) {
        let spec = FabricSpec {
            switch_ports: vec![2, 2, 2],
            hosts: vec![
                HostAttach { switch: 0, port: 1 },
                HostAttach { switch: 2, port: 1 },
            ],
            links: vec![
                LinkSpec {
                    a: (0, PortId(0)),
                    b: (1, PortId(0)),
                    delay: trunks[0],
                },
                LinkSpec {
                    a: (1, PortId(1)),
                    b: (2, PortId(0)),
                    delay: trunks[1],
                },
            ],
            host_link_delay: 1,
        };
        let mut routes = RouteTable::new(2);
        routes.set(HostId(0), HostId(1), vec![0, 1, 1]);
        let cfg = NetworkConfig {
            mode,
            ..NetworkConfig::default()
        };
        let mut net = Network::build(&spec, routes, cfg);
        let worms = [0, 1].map(|i| {
            let msg = AppMessage {
                msg: MessageId(i as u64 + 1),
                origin: HostId(0),
                dest: Destination::Unicast(HostId(1)),
                payload_len: lens[i],
                created: 0,
            };
            net.inject_worm(
                HostId(0),
                SendSpec::data(&msg, HostId(1), WormKind::Unicast),
            )
        });
        let lane_out = |s: usize, port: usize| {
            net.switches[s].outputs[port]
                .chan_out
                .expect("trunk ports are connected")
        };
        let lanes = [lane_out(0, 0), lane_out(1, 1)];
        (net, lanes, worms)
    }

    /// Run `net` to `t_end` as `run_until` does, counting the arrival events
    /// (single bytes and spans alike) on each of `lanes`. Also returns when
    /// each worm was delivered.
    fn arrivals_on<const N: usize>(
        net: &mut Network,
        lanes: [ChanId; N],
        t_end: SimTime,
    ) -> ([u64; N], Vec<SimTime>) {
        let mut arrivals = [0; N];
        let mut delivered = Vec::new();
        net.begin_run(t_end);
        loop {
            let (t, ev) = net.scheduler.pop().expect("the deadline's Stop is queued");
            if let Event::RxByte { ch, .. } | Event::RxSpan { ch } = ev {
                if let Some(i) = lanes.iter().position(|&l| l == ch) {
                    arrivals[i] += 1;
                }
            }
            let before = net.stats.worms_delivered;
            if net.dispatch(t, ev) {
                net.end_run(t);
                return (arrivals, delivered);
            }
            delivered.extend((before..net.stats.worms_delivered).map(|_| t));
        }
    }

    /// A worm three trunk delays long right behind another, over two
    /// 1 000-byte-time trunks: whenever its producer kicks, the trunk wire
    /// ahead holds a trunk-full of its own bytes, which the receiver is
    /// certain to drain. The crossing test's certain drain (DESIGN.md §3.1)
    /// lets each run leave its input behind that wire, and the drain window
    /// carries it across each trunk in a handful of spans; the no-drain
    /// bounds alone leave a few bytes of room per span. Everything the
    /// per-byte engine observes stays the same.
    #[test]
    fn a_worm_behind_a_worm_crosses_each_long_trunk_in_few_spans() {
        let run = |mode| {
            let (mut net, trunks, _) = two_trunk_chain([1_000; 2], mode, [400, 3_000]);
            let (arrivals, deliveries) = arrivals_on(&mut net, trunks, 8_000);
            let mut stats = net.stats.clone();
            (stats.events_scheduled, stats.events_fired) = (0, 0);
            (arrivals, deliveries, format!("{stats:?}"))
        };
        let (per_byte_arrivals, deliveries, stats) = run(SimMode::PerByte);
        assert_eq!(deliveries.len(), 2, "both worms arrive");
        assert!(per_byte_arrivals.iter().all(|&n| n > 3_400));
        let (arrivals, span_deliveries, span_stats) = run(SimMode::SpanBatched);
        assert_eq!(span_deliveries, deliveries);
        assert_eq!(span_stats, stats);
        for (trunk, n) in arrivals.into_iter().enumerate() {
            assert!(n <= 12, "trunk {trunk}: {n} arrival events");
        }
    }

    /// host0 — sw0 ═ sw1 — host1, a `trunk`-byte-time trunk between the
    /// switches, and host2 on sw1 too. host2's worm of `lens[0]` payload
    /// bytes takes sw1's output to host1 at once; host0's worm of
    /// `lens[1]` crosses the trunk behind it, and its head waits at sw1 for
    /// that output while its body crosses the trunk. Returns the trunk's
    /// lane toward sw1 with the network.
    fn held_head_net(trunk: SimTime, mode: SimMode, lens: [u32; 2]) -> (Network, ChanId) {
        let mut net = held_head_fabric(trunk, mode);
        for (i, (host, len)) in [(2, lens[0]), (0, lens[1])].into_iter().enumerate() {
            let msg = AppMessage {
                msg: MessageId(i as u64 + 1),
                origin: HostId(host),
                dest: Destination::Unicast(HostId(1)),
                payload_len: len,
                created: 0,
            };
            net.inject_worm(
                HostId(host),
                SendSpec::data(&msg, HostId(1), WormKind::Unicast),
            );
        }
        let trunk_lane = net.switches[0].outputs[0]
            .chan_out
            .expect("the trunk port is connected");
        (net, trunk_lane)
    }

    /// [`held_head_net`]'s fabric, with no worm under way.
    fn held_head_fabric(trunk: SimTime, mode: SimMode) -> Network {
        let spec = FabricSpec {
            switch_ports: vec![2, 3],
            hosts: vec![
                HostAttach { switch: 0, port: 1 },
                HostAttach { switch: 1, port: 1 },
                HostAttach { switch: 1, port: 2 },
            ],
            links: vec![LinkSpec {
                a: (0, PortId(0)),
                b: (1, PortId(0)),
                delay: trunk,
            }],
            host_link_delay: 1,
        };
        let mut routes = RouteTable::new(3);
        routes.set(HostId(0), HostId(1), vec![0, 1]);
        routes.set(HostId(2), HostId(1), vec![1]);
        let cfg = NetworkConfig {
            mode,
            ..NetworkConfig::default()
        };
        Network::build(&spec, routes, cfg)
    }

    /// A worm's head waits at the far end of a 1 000-byte-time trunk for
    /// an output another worm holds, while its body crosses the trunk.
    /// Nothing is certain to drain there, and the wire fills the input's
    /// room below its STOP mark, so the sender's rules alone admit one
    /// byte at a time; the receiver knows better as the bytes land
    /// (DESIGN.md §3.1, *Receiver-paced spans*). With the output freed
    /// before the input fills, the trunk's arrival events drop from 508 to
    /// 5. Held longer, the input reaches its mark, and while its STOP is
    /// in force the bytes land one per event as per-byte ones do: 1 005
    /// before and after. Either way the per-byte engine's deliveries and
    /// `NetStats` stay the same, and so does `bytes_moved` at every
    /// byte-time.
    #[test]
    fn a_body_crossing_a_long_trunk_to_a_held_head_lands_in_pieces() {
        for (blocker, pinned) in [(1_500, 5), (3_000, 1_005)] {
            let lens = [blocker, 2_000];
            let run = |mode| {
                let (mut net, trunk) = held_head_net(1_000, mode, lens);
                let (arrivals, deliveries) = arrivals_on(&mut net, [trunk], 8_000);
                let mut stats = net.stats.clone();
                (stats.events_scheduled, stats.events_fired) = (0, 0);
                (arrivals[0], deliveries, format!("{stats:?}"))
            };
            let (per_byte_arrivals, deliveries, stats) = run(SimMode::PerByte);
            assert_eq!(deliveries.len(), 2, "both worms arrive");
            assert_eq!(per_byte_arrivals, 2_010, "one per byte of the worm");
            let (arrivals, span_deliveries, span_stats) = run(SimMode::SpanBatched);
            assert_eq!(span_deliveries, deliveries, "blocker {blocker}");
            assert_eq!(span_stats, stats, "blocker {blocker}");
            assert_eq!(arrivals, pinned, "blocker {blocker}: trunk arrival events");
            let (mut a, _) = held_head_net(1_000, SimMode::PerByte, lens);
            let (mut b, _) = held_head_net(1_000, SimMode::SpanBatched, lens);
            for t in 1..=8_000 {
                a.advance_to(t);
                b.advance_to(t);
                assert_eq!(
                    a.stats.bytes_moved, b.stats.bytes_moved,
                    "blocker {blocker}, t = {t}"
                );
            }
        }
    }

    /// A receiver-paced head run reaches an input whose twin sits one byte
    /// below its STOP mark, behind a worm whose head waits for an output.
    /// Its first route symbol lands alone, as a one-byte arrival, and
    /// raises the STOP at its own slot; the rest, the second symbol
    /// included, lands a byte per event while the STOP is in force.
    #[test]
    fn a_lone_route_symbol_lands_at_the_stop_mark() {
        let mut net = held_head_fabric(20, SimMode::SpanBatched);
        let trunk = net.switches[0].outputs[0]
            .chan_out
            .expect("the trunk port is connected");
        let (held, next) = (WormId(0), WormId(1));
        let mark = {
            let sw1 = &mut net.switches[1];
            sw1.outputs[1].owner = Some(2);
            let inp = &mut sw1.inputs[0];
            inp.state = InState::Requesting { worm: held, out: 1 };
            let body = WireByte {
                worm: held,
                kind: ByteKind::Data,
            };
            inp.buf.push_back_run(body, u64::from(inp.slack.stop_mark - 1));
            inp.slack.stop_mark as usize
        };
        // Two symbols and three data bytes, sent paced at 0.
        let mut tx = TxPort::new(&mut net.lanes[trunk.0 as usize]);
        for port in [1, 7] {
            tx.stage_route_sym(RouteSym::Port(port));
        }
        let span = TxPayload::Span {
            worm: next,
            len: 5,
            route: 2,
            paced: true,
        };
        let ticket = tx.try_send(0, span, true).expect("the lane is free");
        net.scheduler.at(ticket.deliver_at, Event::RxSpan { ch: trunk });
        net.run_until(21);
        let inp = &net.switches[1].inputs[0];
        assert_eq!(inp.occupancy() as usize, mark);
        assert!(inp.sent_stop, "the symbol raised the STOP");
        let last = inp.buf.get(mark - 1).map(|b| (b.worm, b.kind));
        assert_eq!(last, Some((next, ByteKind::Route(RouteSym::Port(1)))));
        let lane = net.lane(trunk);
        assert_eq!((lane.in_flight(), lane.ctrl_in_flight()), (4, 1));
        let (arrivals, _) = arrivals_on(&mut net, [trunk], 30);
        assert_eq!(arrivals, [4], "one arrival per byte under the STOP");
        let inp = &net.switches[1].inputs[0];
        assert_eq!(inp.occupancy() as usize, mark + 4);
        let second = inp.buf.get(mark).map(|b| b.kind);
        assert_eq!(second, Some(ByteKind::Route(RouteSym::Port(7))));
    }

    /// A receiver-paced piece lands as many bytes as keep the input's
    /// per-byte twin below its STOP mark. The twin still holds what the
    /// input's output has batch-dequeued for send slots from the piece's
    /// own tick on: a tick's transmit kick sorts after its arrivals, so the
    /// slot of the arrival counts too
    /// ([`Lane::drain_advance_at_arrival`]). Here sw1's input forwards to
    /// host1 with `held` bytes in its buffer and `sending` more on their
    /// way out in a span whose slots start at the arrival, and a paced span
    /// lands from the trunk: the piece brings the twin to one byte below
    /// the mark. Counting only the later slots lands one byte more, the
    /// one at which the twin raises its STOP while the span engine raises
    /// none.
    #[test]
    fn a_paced_piece_counts_the_send_slot_of_its_own_arrival() {
        let mut net = held_head_fabric(20, SimMode::SpanBatched);
        let trunk = net.switches[0].outputs[0]
            .chan_out
            .expect("the trunk port is connected");
        let worm = WormId(0);
        let paced = TxPayload::Span {
            worm,
            len: 200,
            route: 0,
            paced: true,
        };
        let mut tx = TxPort::new(&mut net.lanes[trunk.0 as usize]);
        tx.try_send(0, paced, true).expect("the lane is free");
        net.run_until(20);
        let now = net.scheduler.now();
        assert_eq!(now, 20, "the paced span's first byte arrives now");
        let (held, sending) = (3, 4);
        let mark = {
            let sw1 = &mut net.switches[1];
            sw1.outputs[1].owner = Some(0);
            let inp = &mut sw1.inputs[0];
            inp.state = InState::Forwarding { worm, out: 1 };
            let body = WireByte {
                worm,
                kind: ByteKind::Data,
            };
            inp.buf.push_back_run(body, held);
            u64::from(inp.slack.stop_mark)
        };
        let out = net.switches[1].outputs[1]
            .chan_out
            .expect("host1 is attached");
        let span = TxPayload::Span {
            worm,
            len: sending,
            route: 0,
            paced: false,
        };
        let mut tx = TxPort::new(&mut net.lanes[out.0 as usize]);
        tx.try_send(now, span, true).expect("the lane is free");
        let front = net.lane(trunk).paced_front().expect("the paced span is on the trunk");
        let (_, piece) = net.paced_piece(trunk, front);
        assert_eq!(piece.len, mark - 1 - (held + sending));
        let rest = net.lane(trunk).paced_front().map(|s| (s.start, s.len));
        assert_eq!(rest, Some((piece.len, 200 - piece.len)));
    }

    /// Receiver pacing needs a quiet control wire as well as an input
    /// below its STOP mark: a STOP already on its way would land on a span
    /// sent a wire's worth long (DESIGN.md §3.1, *Receiver-paced spans*).
    /// On [`held_head_net`]'s trunk the sender's rules admit less than the
    /// wire at 1 005, with the input far below its mark, and a paced span
    /// goes out then. Put a STOP and its GO on the trunk's control wire at
    /// 1 000, landing at 1 100 and 1 110, and no span sent before the GO
    /// lands is paced.
    #[test]
    fn no_span_is_paced_while_a_stop_is_on_the_control_wire() {
        let armed = [(1_100, CtrlSym::Stop), (1_110, CtrlSym::Go)];
        let window = 1_000..1_110;
        for arm in [false, true] {
            let (mut net, trunk) = held_head_net(1_000, SimMode::SpanBatched, [3_000, 2_000]);
            net.advance_to(window.start);
            if arm {
                for (at, sym) in armed {
                    net.lanes[trunk.0 as usize].note_ctrl_sent();
                    net.scheduler.at(at, Event::CtrlRx { ch: trunk, sym });
                }
            }
            assert!(!net.switches[1].inputs[0].sent_stop);
            // The first paced span (or piece) sent in the window, looked
            // for at the front of the trunk after every event: every span
            // reaches it before it lands.
            let mut first = None;
            net.begin_run(8_000);
            loop {
                let (t, ev) = net.scheduler.pop().expect("the deadline's Stop is queued");
                if net.dispatch(t, ev) {
                    net.end_run(t);
                    break;
                }
                let front = net.lane(trunk).paced_front().map(|span| span.start);
                first = first.or(front.filter(|start| window.contains(start)));
            }
            assert_eq!(net.stats.worms_delivered, 2, "armed: {arm}");
            assert_eq!(first, (!arm).then_some(1_005), "armed: {arm}");
        }
    }
}
