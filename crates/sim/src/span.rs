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
use crate::link::{ChanId, Endpoint, NodeRef, RxPort, TxPayload, TxPort};
use crate::network::{Network, SimMode};
use crate::switch::{InPort, InState};
use crate::switchcast::SwitchcastMode;
use crate::time::SimTime;
use crate::worm::{ByteKind, RouteSym, WireByte, WormId};

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
    /// Whether the span rules are in force at all: span-batched mode, and
    /// no switch-level multicast — replication branch points, IDLE fill and
    /// Backward Reset flushes make byte-level interleaving observable, so
    /// any mode other than `Off` forces per-byte transmission everywhere.
    #[inline]
    pub(crate) fn spans_enabled(&self) -> bool {
        self.cfg.mode == SimMode::SpanBatched
            && matches!(self.cfg.switchcast, SwitchcastMode::Off)
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
    /// its buffer front; the adapter has a worm queued (its tail at
    /// least). When it does not, a follow-up kick would find nothing: the
    /// lane goes idle instead, and whatever refills the producer re-kicks
    /// through `kick_channel`, paced by `next_tx_time` — same send slots,
    /// no empty-handed wakeup.
    pub(crate) fn producer_has_byte(&self, src: Endpoint) -> bool {
        match src.node {
            NodeRef::Switch(s) => {
                let sw = &self.switches[s.0 as usize];
                sw.outputs[src.port.index()].owner.is_some_and(|owner| {
                    let inp = &sw.inputs[owner as usize];
                    matches!(
                        inp.state,
                        InState::Forwarding { worm, out } if out == src.port.0
                            && inp.buf.front().is_some_and(|b| b.worm == worm)
                    )
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
    /// means the caller must produce per-byte, now.
    pub(crate) fn try_emit_span(&mut self, ch: ChanId, gen: u32) -> bool {
        // Bytes bound for another shard go out as an *optimistic* span:
        // the receive-side occupancy needed for an exact admission check
        // lives over there, so the owner performs it on arrival — either
        // admitting the span whole or expanding it back into per-byte
        // arrivals (DESIGN.md §3.4).
        let dst_foreign = self.chan_dst_foreign(ch);
        let (src, dst, wire) = {
            let c = &self.lanes[ch.0 as usize];
            (c.src(), c.dst(), c.in_flight() as u64)
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
        let avail = route + data;
        let room = if dst_foreign {
            // Bound the optimistic span by the mirror's slack geometry
            // alone (shards are built from identical fabrics). Any bound
            // is semantics-safe — the owner truncates or expands on
            // arrival — this one just keeps the rejection rate low.
            let NodeRef::Switch(s) = dst.node else {
                unreachable!("cut lanes terminate at switches (hosts follow their attach switch)");
            };
            let mark = self.switches[s.0 as usize].inputs[dst.port.index()]
                .slack
                .stop_mark as u64;
            mark.saturating_sub(1 + wire)
        } else {
            match dst.node {
                // A refusal leaves no no-drain room, but the circuit may
                // still be clear.
                NodeRef::Switch(s) => self.switch_span_room(s, dst.port.0, wire).unwrap_or(0),
                NodeRef::Host(h) => match self.adapter_span_room(h, worm) {
                    Some(room) => room,
                    None => return false,
                },
            }
        };
        // Two admission rules, both counting bytes whatever their kind:
        // the run fits below the receiver's STOP mark even if nothing
        // drains (`room`), or the receiver is certain to keep draining for
        // long enough (`drain_window`).
        let certified = if avail > room {
            self.drain_window(ch, worm)
        } else {
            0
        };
        let mut k = avail.min(room.max(certified));
        // Keep the watchdog's progress sampling meaningful: a span credits
        // all its bytes in one event, so cap the movement gap well below
        // the sampling interval. (Any cap is semantics-preserving.)
        if self.cfg.watchdog_interval > 0 {
            k = k.min((self.cfg.watchdog_interval / 2).max(1));
        }
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
        let ticket = tx
            .try_send(now, TxPayload::Span { worm, len: k, route }, true)
            .expect("span probe ran at the lane's ready time");
        if dst_foreign {
            debug_assert_eq!(route, 0, "a shard engine keeps route symbols per-byte");
            self.send_boundary_span(ch, ticket.deliver_at, worm, k);
            // The receive-side owner delivers the bytes; this RxSpan fires
            // at end-of-transmission to retire the local wire-occupancy
            // entry, which must stay truncatable while still sending
            // (see `handle_rx_span`).
            self.scheduler.at(now + k, Event::RxSpan { ch });
        } else {
            self.scheduler.at(ticket.deliver_at, Event::RxSpan { ch });
        }
        if k > room && certified != u64::MAX {
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

    /// Deliver the oldest in-flight span on `ch`. Spans and single bytes on
    /// one channel share FIFO wire order, so the queue front is always the
    /// arriving span.
    ///
    /// On a cut lane this event plays two roles: at the transmit-side owner
    /// it fires at end-of-transmission and merely retires the local
    /// wire-occupancy entry; at the receive-side owner it fires at
    /// first-byte arrival and performs the admission check the transmitter
    /// optimistically skipped.
    pub(crate) fn handle_rx_span(&mut self, ch: ChanId) {
        if self.chan_dst_foreign(ch) {
            // Transmit-side retirement: the entry (possibly STOP-truncated
            // since emission) only tracked wire occupancy here. Entries and
            // retirement events pair up 1:1 in FIFO order, so the popped
            // lengths sum correctly even when truncations reordered the
            // nominal end-of-transmission times.
            let _ = RxPort::new(&mut self.lanes[ch.0 as usize]).deliver_span();
            return;
        }
        let src_foreign = self.chan_src_foreign(ch);
        if src_foreign {
            // Mirror, before taking the span off the wire, exactly the
            // truncation any STOP this side emitted has meanwhile forced
            // on the transmitter's copy (`Lane::truncate_arriving_foreign_span`).
            self.lanes[ch.0 as usize].truncate_arriving_foreign_span();
        }
        let (dst, span) = RxPort::new(&mut self.lanes[ch.0 as usize]).deliver_span();
        if span.len == 0 {
            // Fully revoked by a STOP truncation (only the already-sent
            // remainder of a span survives; an empty one is just the
            // placeholder for this event).
            return;
        }
        if src_foreign && !self.admit_foreign_span(ch, dst, &span) {
            return;
        }
        // From here the span lands wholesale.
        self.lanes[ch.0 as usize].note_span_landed(&span);
        // Credit `bytes_moved` per-byte-exactly: byte `j` of the span
        // conceptually arrives at `now + j`, and only arrivals strictly
        // before the run deadline count — its per-byte twin would sort
        // behind the deadline's Stop event ([`Event::canon_key`]) and fire
        // next run. The tail is credited by whichever later run covers it.
        let now = self.scheduler.now();
        let counted = span.len.min(self.run_deadline.saturating_sub(now));
        self.stats.bytes_moved += counted;
        if counted < span.len {
            self.deferred_moves
                .push((now + counted, span.len - counted));
        }
        debug_assert!(
            self.flushed_count == 0,
            "spans and flushes cannot coexist (switchcast gates the fast path)"
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
    pub(crate) fn switch_span_ready(&self, sw: SwitchId, out: u8) -> Option<Ready> {
        let swr = &self.switches[sw.0 as usize];
        let owner = swr.outputs[out as usize].owner?;
        let inp = &swr.inputs[owner as usize];
        let InState::Forwarding { worm, out: o } = &inp.state else {
            return None;
        };
        let worm = *worm;
        if *o != out {
            return None;
        }
        // Upstream arrivals land during the drain window. Dequeues (batched
        // or per-byte) only lower occupancy, and at most one arrival per
        // byte-time can land, so `occupancy + wire_bytes` bounds occupancy
        // throughout the window in both modes; below the stop mark, neither
        // mode can emit a STOP while the run drains. Under a drain
        // certificate the per-byte occupancy is already proven to stay
        // below the mark, and the local one (wholesale-delivered spans
        // included) is not it; with our STOP already in force no second
        // one can be raised at all.
        if !inp.sent_stop && !inp.certified(worm, self.scheduler.now()) {
            let wire = match inp.chan_in {
                // Fed across a shard boundary: the local `in_flight` copy
                // only counts queued optimistic spans. Paced per-byte
                // crossings occupy distinct send slots in `(now-delay, now]`
                // at the foreign transmitter, so `delay` bounds them — but
                // optimistic spans and rejected-run expansions claim send
                // slots reaching into the transmitter's future and can each
                // exceed `delay`; count those explicitly on top.
                Some(c) if self.chan_src_foreign(c) => {
                    let l = &self.lanes[c.0 as usize];
                    l.delay() + l.foreign_span_backlog()
                }
                Some(c) => self.lanes[c.0 as usize].in_flight() as u64,
                None => 0,
            };
            if inp.occupancy() as u64 + wire >= inp.slack.stop_mark as u64 {
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
        // A shard engine keeps route symbols per-byte: the boundary
        // message carries none.
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

    /// Span fast-path check for a receiving switch input: how many bytes can
    /// land (in one event, plus everything already on the wire) while
    /// provably staying below the STOP watermark for the whole per-byte
    /// delivery window. `wire` is the byte count already in flight on the
    /// incoming channel.
    pub(crate) fn switch_span_room(&self, sw: SwitchId, port: u8, wire: u64) -> Option<u64> {
        let inp = &self.switches[sw.0 as usize].inputs[port as usize];
        // With a STOP in force the per-byte GO/STOP interplay is exact;
        // stay on the slow path until it clears.
        if inp.sent_stop {
            return None;
        }
        // An optimistic span this input batch-drained toward a cut
        // downstream lane is a gamble still in flight: the receive-side
        // owner may yet refuse or STOP-truncate it, and the per-byte
        // twin still holds its future-slot bytes right here — the local
        // occupancy runs speculatively low by that unsent tail until
        // the span's last send slot passes (or a STOP rewinds it).
        // Charge it as used room: over-charging only shrinks spans
        // (always exact), while reading the advanced occupancy would
        // defer a STOP crossing the per-byte twin takes mid-window.
        // Intra-shard drains need no charge — their emission guard
        // certified the whole drain window crossing-free.
        let advance = match inp.state {
            InState::Forwarding { out, .. } => self.switches[sw.0 as usize].outputs[out as usize]
                .chan_out
                .filter(|&c| self.chan_dst_foreign(c))
                .map_or(0, |c| {
                    self.lanes[c.0 as usize].drain_advance(self.scheduler.now())
                }),
            _ => 0,
        };
        let used = inp.occupancy() as u64 + wire + advance;
        let mark = inp.slack.stop_mark as u64;
        // Strictly below the mark even after all `wire + k` bytes land with
        // no dequeue: occupancy can never cross it in either mode.
        if used + 1 >= mark {
            None
        } else {
            Some(mark - used - 1)
        }
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
    /// per-byte-equivalent occupancy `q` at least two below its STOP mark.
    /// `q` is what the per-byte engine's buffer holds right now: the local
    /// occupancy, minus the bytes of a wholesale-delivered span whose
    /// arrival slots are still to come, plus the bytes a span batch-dequeued
    /// for send slots still to come.
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
            let held = inp.occupancy() as u64 + self.lanes[next.0 as usize].drain_advance(now);
            let future = lane.rx_future_bytes(now);
            if held + 2 >= inp.slack.stop_mark as u64 + future {
                break false;
            }
            if walked == 1 {
                q_first = held.saturating_sub(future);
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
    /// per-byte (it drives completion), and a cut-through follower of a
    /// still-arriving worm is paced by the per-byte arrival stream, so only
    /// a fully-available body batches — its route does regardless.
    pub(crate) fn adapter_span_ready(&self, host: HostId) -> Option<Ready> {
        let a = &self.adapters[host.0 as usize];
        let head = a.tx_queue.front()?;
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
        let body_ready = route == unsent.len()
            && head
                .follow
                .is_none_or(|src| a.rx_body_got.get(src) == Some(u64::MAX));
        let data = if body_ready {
            inst.body_len().saturating_sub(head.body_sent)
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
    use crate::network::{FabricSpec, HostAttach, NetworkConfig, RouteTable};
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
}
