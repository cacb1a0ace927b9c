//! The crossbar switch: slack buffers, backpressure, route parsing,
//! round-robin output arbitration, and cut-through forwarding.
//!
//! A Myrinet switch is deliberately simple: per-input slack buffers with
//! STOP/GO watermarks (Figure 1 of the paper), a crossbar, and head-byte
//! route processing. All of that lives here, as three stages: the route
//! decoder at an idle input (`switch_advance_input`), input control
//! (`switch_request_output` → `switch_grant` → `switch_release_output`)
//! and output control (`switch_produce_byte`). Section 3's worm
//! replication is a variant of each stage ([`crate::switchcast`]): a
//! replicating input decodes a tree directive, its branches go through the
//! same input control, and its outputs produce under a stall rule.

use crate::engine::{CtrlSym, SwitchId};
use crate::link::{ChanId, SeededRoundRobin};
use crate::network::Network;
use crate::slackbuf::SlackBuf;
use crate::switchcast::{ReplicaState, SwitchcastMode};
use crate::time::SimTime;
use crate::worm::{ByteKind, RouteSym, WireByte, WormId, WormKind};

/// Slack-buffer configuration (Figure 1): capacity and the two watermarks.
///
/// Myrinet sizes the slack so that the bytes in flight during a STOP
/// round-trip always fit: `capacity >= stop_mark + 2 * link_delay + slop`.
/// [`SlackCfg::for_delay`] computes a safe configuration for a given link
/// delay.
#[derive(Clone, Copy, Debug)]
pub struct SlackCfg {
    /// Total buffer capacity in bytes.
    pub capacity: u32,
    /// High watermark `Ks`: crossing it (upward) sends STOP upstream.
    pub stop_mark: u32,
    /// Low watermark `Kg`: crossing it (downward) sends GO upstream.
    pub go_mark: u32,
}

impl SlackCfg {
    /// A slack configuration that can never overflow for links of the given
    /// propagation delay: after STOP is sent, at most `2 * delay` more bytes
    /// can arrive (those on the wire plus those sent before STOP lands).
    pub fn for_delay(delay: SimTime) -> Self {
        let rtt = (2 * delay) as u32;
        SlackCfg {
            stop_mark: 8 + rtt / 2,
            go_mark: 4,
            capacity: 8 + rtt / 2 + rtt + 8,
        }
    }
}

/// Input-port worm-processing state.
///
/// Port indices distinguish *physical* ports (what route bytes name) from
/// *slots* (a physical port × lane pair; see [`Switch`]). `Requesting.out`
/// is the physical port — the lane is not chosen until the grant —
/// while `Forwarding.out` is the granted output slot. With single-lane
/// links the two coincide.
#[derive(Debug)]
pub enum InState {
    /// Waiting for the head of a new worm; the next front byte must be a
    /// route byte.
    Idle,
    /// Directive parsed; waiting for the (physical) output port to be
    /// granted a lane.
    Requesting { worm: WormId, out: u8 },
    /// Crossbar connection established; the output slot pulls bytes from
    /// this input's slack buffer.
    Forwarding { worm: WormId, out: u8 },
    /// Switch-level multicast replication in progress (Section 3).
    Replicating(Box<ReplicaState>),
}

/// An input port of a switch.
#[derive(Debug)]
pub struct InPort {
    /// The channel delivering bytes into this port (None if unconnected).
    pub chan_in: Option<ChanId>,
    /// The slack buffer.
    pub buf: SlackBuf,
    pub slack: SlackCfg,
    /// True while our STOP is in force upstream.
    pub sent_stop: bool,
    /// Drain certificate `(worm, until)`: while this input forwards `worm`
    /// it is proven to raise no STOP before `until` — `SimTime::MAX` on a
    /// clear circuit (see `Network::drain_window`). Worm ids never recur,
    /// so a certificate left behind by a finished worm matches nothing.
    pub(crate) drain_cert: Option<(WormId, SimTime)>,
    pub state: InState,
}

impl InPort {
    pub fn new(slack: SlackCfg) -> Self {
        InPort {
            chan_in: None,
            buf: SlackBuf::new(),
            slack,
            sent_stop: false,
            drain_cert: None,
            state: InState::Idle,
        }
    }

    /// Current occupancy in bytes.
    #[inline]
    pub fn occupancy(&self) -> u32 {
        self.buf.len() as u32
    }
}

/// An output slot of a switch: one lane of one physical output port.
#[derive(Debug)]
pub struct OutPort {
    /// The lane this slot transmits on (None if unconnected).
    pub chan_out: Option<ChanId>,
    /// Input slot currently granted the crossbar connection.
    pub owner: Option<u8>,
    /// When this slot last began transmitting IDLE fill bytes, if it is
    /// currently doing so (used by the multicast-IDLE flush scheme).
    pub idle_since: Option<SimTime>,
    /// Flagged as carrying IDLE fill from a blocked multicast.
    pub multicast_idle: bool,
}

impl OutPort {
    pub fn new() -> Self {
        OutPort {
            chan_out: None,
            owner: None,
            idle_since: None,
            multicast_idle: false,
        }
    }
}

impl Default for OutPort {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-physical-output-port arbitration state: the input slots queued for
/// the port (input round-robin, exactly the historical policy) plus the
/// [`SeededRoundRobin`] that picks among its free lanes.
#[derive(Debug)]
pub struct PortArb {
    /// Input slots waiting for this physical port (worm heads blocked here).
    pub waiting: Vec<u8>,
    /// Round-robin pointer: the next arbitration starts scanning here.
    pub rr_next: u8,
    /// Picks among the port's free lanes.
    pub(crate) lane_rr: SeededRoundRobin,
}

impl PortArb {
    pub(crate) fn new(lane_rr: SeededRoundRobin) -> Self {
        PortArb {
            waiting: Vec::new(),
            rr_next: 0,
            lane_rr,
        }
    }

    /// Pick the next waiting input slot in round-robin order (starting
    /// from `rr_next`) and remove it from the waiting list.
    pub fn arbitrate(&mut self, num_slots: u8) -> Option<u8> {
        if self.waiting.is_empty() {
            return None;
        }
        // A switch may have up to 255 slots: `rr_next + step` needs `u16`.
        let n = u16::from(num_slots);
        for step in 0..n {
            let cand = ((u16::from(self.rr_next) + step) % n) as u8;
            if let Some(pos) = self.waiting.iter().position(|&w| w == cand) {
                self.waiting.swap_remove(pos);
                self.rr_next = ((u16::from(cand) + 1) % n) as u8;
                return Some(cand);
            }
        }
        // Waiting entries must always be valid slot indices.
        unreachable!("waiting list held an out-of-range slot");
    }
}

/// A crossbar switch.
///
/// Inputs and outputs are indexed by *slot*: physical port `p`'s lanes
/// occupy the contiguous slot range `slot_of(p, 0) .. slot_of(p, lanes_of(p))`.
/// With single-lane links (the paper's Myrinet) slot indices equal
/// physical port indices and the whole layer is invisible.
#[derive(Debug)]
pub struct Switch {
    pub id: SwitchId,
    /// Input slots.
    pub inputs: Vec<InPort>,
    /// Output slots.
    pub outputs: Vec<OutPort>,
    /// Per-physical-port arbitration state.
    pub arbs: Vec<PortArb>,
    slot_base: Vec<u8>,
    slot_port: Vec<u8>,
    port_lanes: Vec<u8>,
}

impl Switch {
    /// `seed` is the network's master seed; each physical port's lane
    /// round-robin starts at an offset derived from it and the (switch,
    /// port) pair, so ports are decorrelated.
    pub(crate) fn new(id: SwitchId, port_lanes: &[u8], slack: SlackCfg, seed: u64) -> Self {
        let mut slot_base = Vec::with_capacity(port_lanes.len());
        let mut slot_port = Vec::new();
        let mut base = 0u8;
        for (p, &n) in port_lanes.iter().enumerate() {
            debug_assert!(n >= 1, "every port has at least one lane");
            slot_base.push(base);
            for _ in 0..n {
                slot_port.push(p as u8);
            }
            base += n;
        }
        let slots = slot_port.len();
        Switch {
            id,
            inputs: (0..slots).map(|_| InPort::new(slack)).collect(),
            outputs: (0..slots).map(|_| OutPort::new()).collect(),
            arbs: (0..port_lanes.len() as u64)
                .map(|p| {
                    let stream = (u64::from(id.0) << 8) | p;
                    PortArb::new(SeededRoundRobin::new(
                        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(stream),
                    ))
                })
                .collect(),
            slot_base,
            slot_port,
            port_lanes: port_lanes.to_vec(),
        }
    }

    /// Number of port slots (sum of lanes over physical ports).
    pub fn num_slots(&self) -> u8 {
        self.slot_port.len() as u8
    }

    /// The slot of lane `lane` of physical port `port`.
    pub fn slot_of(&self, port: u8, lane: u8) -> u8 {
        debug_assert!(lane < self.port_lanes[port as usize]);
        self.slot_base[port as usize] + lane
    }

    /// The physical port a slot belongs to.
    pub fn port_of_slot(&self, slot: u8) -> u8 {
        self.slot_port[slot as usize]
    }

    /// Lanes of a physical port.
    pub fn lanes_of(&self, port: u8) -> u8 {
        self.port_lanes[port as usize]
    }

    /// The contiguous slot range of a physical port.
    pub fn slots_of(&self, port: u8) -> std::ops::Range<usize> {
        let b = self.slot_base[port as usize] as usize;
        b..b + self.port_lanes[port as usize] as usize
    }
}

// ---------------------------------------------------------------------------
// Switch event logic (methods on Network so it can touch channels/scheduler).
// ---------------------------------------------------------------------------

impl Network {
    /// `len` copies of `byte` arrived at input `port` of switch `sw`, and
    /// the worm's tail behind them when `tail` is set: one byte, or the
    /// data run of a span (its tail too, if it carries one) or of a
    /// receiver-paced span's piece (span-batched mode), buffered in one go.
    /// A span's emission guards
    /// guarantee that the run fits below the STOP watermark, or that the
    /// input holds the worm's drain certificate and keeps the bytes only
    /// until their per-byte arrival slots come round; a piece is sized on
    /// landing to fit below the mark, or lands alone. Either way the input
    /// state machine advances once.
    pub(crate) fn switch_rx(
        &mut self,
        sw: SwitchId,
        port: u8,
        byte: WireByte,
        len: u64,
        tail: bool,
    ) {
        // A replicating input regenerates its own IDLE fills; upstream fills
        // are dropped on arrival, before they could count as body bytes or
        // toward a watermark (a STOP raised by a byte that is not kept
        // would never be sent).
        if matches!(byte.kind, ByteKind::Idle)
            && matches!(
                self.switches[sw.0 as usize].inputs[port as usize].state,
                InState::Replicating(_)
            )
        {
            return;
        }
        let now = self.scheduler.now();
        let (chan_in, crossed_stop) = {
            let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
            // Under a drain certificate the per-byte twin raises no STOP
            // here, and the two watermark tests below would read an
            // occupancy the twin does not have.
            let certified = inp.certified(byte.worm, now);
            // `SlackCfg::for_delay` leaves room for a full STOP round-trip
            // above the mark, so backpressure alone never overflows it.
            let n = len + u64::from(tail);
            assert!(
                certified || inp.occupancy() as u64 + n <= inp.slack.capacity as u64,
                "slack buffer overflow at {sw:?}:{port}"
            );
            inp.buf.push_back_run(byte, len);
            if tail {
                let kind = ByteKind::Tail;
                inp.buf.push_back(WireByte { kind, ..byte });
            }
            let crossed = inp.occupancy() >= inp.slack.stop_mark && !inp.sent_stop && !certified;
            if crossed {
                inp.sent_stop = true;
            }
            (inp.chan_in, crossed)
        };
        // A span's emission guard makes a crossing impossible; the STOP
        // still goes out, so a guard bug degrades to legal (if no longer
        // byte-exact) backpressure rather than buffer overflow.
        debug_assert!(
            len + u64::from(tail) == 1 || !crossed_stop,
            "span delivery crossed the STOP mark at {sw:?}:{port} — emission guard failed"
        );
        if crossed_stop {
            if let Some(ch) = chan_in {
                self.send_ctrl(ch, CtrlSym::Stop);
            }
        }
        self.switch_advance_input(sw, port);
    }

    /// Route decoder: drive the input-port state machine. An idle input
    /// decodes the head at its buffer front and requests the output it
    /// names, or becomes a replica; a forwarding input kicks its granted
    /// output; a replicating one advances its replica.
    pub(crate) fn switch_advance_input(&mut self, sw: SwitchId, port: u8) {
        loop {
            let swm = &mut self.switches[sw.0 as usize];
            let inp = &mut swm.inputs[port as usize];
            match inp.state {
                InState::Idle => {}
                InState::Requesting { .. } => return,
                InState::Forwarding { out, .. } => {
                    if let Some(ch) = swm.outputs[out as usize].chan_out {
                        self.kick_channel(ch);
                    }
                    return;
                }
                InState::Replicating(_) => return self.replica_advance(sw, port),
            }
            let Some(&front) = inp.buf.front() else {
                return;
            };
            let worm = front.worm;
            // The output port a plain hop requests, or `None` for a head a
            // replica decodes: a directive or the broadcast address.
            let hop = match front.kind {
                // A switch-level multicast worm's port byte opens a
                // directive when a pointer follows it (`Port Ptr …`), and is
                // a plain transit hop otherwise.
                ByteKind::Route(RouteSym::Port(out))
                    if !matches!(
                        self.worms[worm].meta.kind,
                        WormKind::SwitchMulticast { .. }
                    ) =>
                {
                    Some(out)
                }
                ByteKind::Route(RouteSym::Port(out)) => match inp.buf.get(1) {
                    None => return,
                    Some(next)
                        if next.worm == worm
                            && matches!(next.kind, ByteKind::Route(RouteSym::Ptr(_))) =>
                    {
                        None
                    }
                    Some(_) => Some(out),
                },
                ByteKind::Route(RouteSym::Broadcast) => None,
                ByteKind::Idle => {
                    inp.buf.pop_front();
                    self.after_slack_dequeue(sw, port);
                    continue;
                }
                other => unreachable!("idle input saw non-route byte {other:?} at {sw:?}:{port}"),
            };
            let Some(out) = hop else {
                assert!(
                    self.cfg.switchcast != SwitchcastMode::Off,
                    "switch-level multicast worm at {sw:?} with switchcast disabled"
                );
                inp.state = InState::Replicating(Box::new(ReplicaState::new(worm)));
                continue;
            };
            inp.buf.pop_front();
            inp.state = InState::Requesting { worm, out };
            if self.trace.enabled() {
                let worm = self.worm_name(worm);
                self.trace.push(
                    self.scheduler.now(),
                    crate::trace::TraceEvent::RouteConsumed {
                        worm,
                        switch: sw,
                        out,
                    },
                );
            }
            self.after_slack_dequeue(sw, port);
            // Whether granted or queued, nothing more to parse until this
            // worm completes.
            return self.switch_request_output(sw, out, port);
        }
    }

    /// An input slot asks for a *physical* output port. Grants a lane
    /// immediately when one is free (the port's lane round-robin picks which),
    /// otherwise queues the request for round-robin arbitration.
    pub(crate) fn switch_request_output(&mut self, sw: SwitchId, out: u8, in_port: u8) {
        let granted = {
            let swm = &mut self.switches[sw.0 as usize];
            let n = swm.lanes_of(out);
            let base = swm.slot_of(out, 0);
            let outputs = &swm.outputs;
            let picked = swm.arbs[out as usize].lane_rr.pick(n, |lane| {
                let o = &outputs[(base + lane) as usize];
                o.owner.is_none() && o.chan_out.is_some()
            });
            match picked {
                Some(lane) => {
                    swm.outputs[(base + lane) as usize].owner = Some(in_port);
                    Some(base + lane)
                }
                None => {
                    swm.arbs[out as usize].waiting.push(in_port);
                    None
                }
            }
        };
        if let Some(out_slot) = granted {
            self.switch_grant(sw, out_slot, in_port);
        } else if self.trace.enabled() {
            if let Some((worm, cause)) = self.blocked_requester(sw, out, in_port) {
                self.trace.push(
                    self.scheduler.now(),
                    crate::trace::TraceEvent::WormBlocked { worm, cause },
                );
            }
        }
    }

    /// The worm (and block cause) behind a queued output request: a plain
    /// head waiting on a busy output, or a switchcast replica branch
    /// waiting at its branching node. `out` is the physical port — the
    /// same index on the Blocked and Resumed sides, so causes pair up.
    fn blocked_requester(
        &self,
        sw: SwitchId,
        out: u8,
        in_port: u8,
    ) -> Option<(u64, crate::trace::BlockCause)> {
        match &self.switches[sw.0 as usize].inputs[in_port as usize].state {
            InState::Requesting { worm, .. } => Some((
                self.worm_name(*worm),
                crate::trace::BlockCause::OutputBusy { switch: sw, out },
            )),
            InState::Replicating(rep) => Some((
                self.worm_name(rep.worm),
                crate::trace::BlockCause::BranchWait { switch: sw, out },
            )),
            _ => None,
        }
    }

    /// Complete a grant of output slot `out` to input slot `in_port`: flip
    /// the input to Forwarding (or the replica branch for the slot's port
    /// to granted) and kick the output lane so it pulls bytes. A head's
    /// kick comes, under the span rules, no sooner than the front byte's
    /// arrival slot, and only if there is one; a replica's prefix and IDLE
    /// fill need no buffered byte, so its kick is unconditional.
    fn switch_grant(&mut self, sw: SwitchId, out: u8, in_port: u8) {
        let swm = &mut self.switches[sw.0 as usize];
        let phys = swm.port_of_slot(out);
        let inp = &mut swm.inputs[in_port as usize];
        let paced = match inp.state {
            InState::Requesting { worm, out: o } => {
                debug_assert_eq!(o, phys, "granted slot belongs to the requested port");
                inp.state = InState::Forwarding { worm, out };
                true
            }
            InState::Replicating(ref mut rep) => {
                rep.grant(phys, out);
                false
            }
            ref other => unreachable!("grant to input in state {other:?}"),
        };
        if let Some(ch) = swm.outputs[out as usize].chan_out {
            if !paced || !self.spans_enabled() {
                self.kick_channel(ch);
            } else if let Some(slot) = self.front_byte_slot(sw, out) {
                // Pacing (`front_byte_slot`): the head byte just consumed
                // took no send slot, so the byte behind it may have come in
                // with it, ahead of its own arrival slot. An empty buffer
                // arms nothing: the arrival that fills it kicks.
                self.kick_channel_from(ch, slot);
            }
        }
    }

    /// Output slot `out` finished a worm (tail went out): release the
    /// crossbar connection and arbitrate the freed lane among the physical
    /// port's waiting inputs.
    pub(crate) fn switch_release_output(&mut self, sw: SwitchId, out: u8) {
        let next = {
            let swm = &mut self.switches[sw.0 as usize];
            let phys = swm.port_of_slot(out);
            let num_slots = swm.num_slots();
            {
                let outp = &mut swm.outputs[out as usize];
                outp.owner = None;
                outp.idle_since = None;
                outp.multicast_idle = false;
            }
            match swm.arbs[phys as usize].arbitrate(num_slots) {
                Some(n) => {
                    swm.outputs[out as usize].owner = Some(n);
                    Some((n, phys))
                }
                None => None,
            }
        };
        if let Some((in_port, phys)) = next {
            if self.trace.enabled() {
                if let Some((worm, cause)) = self.blocked_requester(sw, phys, in_port) {
                    self.trace.push(
                        self.scheduler.now(),
                        crate::trace::TraceEvent::WormResumed { worm, cause },
                    );
                }
            }
            self.switch_grant(sw, out, in_port);
        }
    }

    /// Produce the next byte for the channel leaving output `out` of `sw`,
    /// or `None` if the port has nothing it can send right now.
    ///
    /// Called by the channel transmit logic. Also handles worm-tail
    /// bookkeeping: releasing the output and returning the input to Idle.
    /// A replicating owner produces through its branch for this slot.
    pub(crate) fn switch_produce_byte(&mut self, sw: SwitchId, out: u8) -> Option<WireByte> {
        let owner = self.switches[sw.0 as usize].outputs[out as usize].owner?;
        let (byte, finished) = {
            let inp = &mut self.switches[sw.0 as usize].inputs[owner as usize];
            match inp.state {
                InState::Forwarding { worm, out: o } if o == out => match inp.buf.front() {
                    Some(front) if front.worm == worm => {
                        let b = inp.buf.pop_front().expect("front exists");
                        let fin = matches!(b.kind, ByteKind::Tail);
                        (Some(b), fin)
                    }
                    // Head of the next worm, or empty: current worm's bytes
                    // have not arrived yet (the worm has a hole).
                    _ => (None, false),
                },
                InState::Replicating(_) => return self.replica_produce_byte(sw, out, owner),
                _ => (None, false),
            }
        };
        if byte.is_some() {
            self.after_slack_dequeue(sw, owner);
        }
        if finished {
            self.switch_finish_worm(sw, out);
        }
        byte
    }

    /// The tail of the worm output `out` of `sw` forwards went out, in this
    /// slot: the owning input goes idle, the output is released and
    /// re-arbitrated, and the input decodes whatever head it holds next.
    pub(crate) fn switch_finish_worm(&mut self, sw: SwitchId, out: u8) {
        let owner = self.switches[sw.0 as usize].outputs[out as usize]
            .owner
            .expect("a finishing output has an owner");
        {
            let inp = &mut self.switches[sw.0 as usize].inputs[owner as usize];
            debug_assert!(matches!(inp.state, InState::Forwarding { out: o, .. } if o == out));
            inp.state = InState::Idle;
        }
        self.switch_release_output(sw, out);
        // The freed input may already hold the next worm's head.
        self.switch_advance_input(sw, owner);
    }

    /// Common post-dequeue bookkeeping for a switch input: send GO when the
    /// buffer has drained below the low watermark.
    pub(crate) fn after_slack_dequeue(&mut self, sw: SwitchId, port: u8) {
        let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
        if inp.sent_stop && inp.occupancy() <= inp.slack.go_mark {
            inp.sent_stop = false;
            if let Some(ch) = inp.chan_in {
                self.send_ctrl(ch, CtrlSym::Go);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::NodeRef;

    #[test]
    fn slack_cfg_for_delay_validates() {
        for d in [1, 2, 5, 50, 1000] {
            let cfg = SlackCfg::for_delay(d);
            assert!(cfg.go_mark < cfg.stop_mark, "{cfg:?}");
            assert!(cfg.stop_mark < cfg.capacity, "{cfg:?}");
            // Room for a full STOP round-trip above the stop mark.
            assert!(cfg.capacity - cfg.stop_mark >= 2 * d as u32);
        }
    }

    fn arb() -> PortArb {
        PortArb::new(SeededRoundRobin::new(0))
    }

    #[test]
    fn arbitration_is_round_robin() {
        let mut out = arb();
        out.waiting = vec![0, 2, 3];
        // rr_next starts at 0 -> grants 0, pointer moves to 1.
        assert_eq!(out.arbitrate(4), Some(0));
        assert_eq!(out.rr_next, 1);
        // Next scan starts at 1: port 1 not waiting, grants 2.
        assert_eq!(out.arbitrate(4), Some(2));
        assert_eq!(out.rr_next, 3);
        assert_eq!(out.arbitrate(4), Some(3));
        assert_eq!(out.arbitrate(4), None);
    }

    #[test]
    fn arbitration_wraps_around() {
        let mut out = arb();
        out.rr_next = 3;
        out.waiting = vec![0, 1];
        assert_eq!(out.arbitrate(4), Some(0));
        assert_eq!(out.arbitrate(4), Some(1));
    }

    /// More than 128 slots: `rr_next + step` does not fit a `u8`.
    #[test]
    fn arbitration_wraps_past_u8_range() {
        let mut out = arb();
        out.rr_next = 150;
        out.waiting = vec![40];
        assert_eq!(out.arbitrate(200), Some(40));
        assert_eq!(out.rr_next, 41);
    }

    /// host0 — sw0 — sw1 — host1 in per-byte mode (whose buffers *are* the
    /// per-byte occupancy and which never marks anything), with a
    /// 2 000-byte worm under way from host0 at time `at`. Returns host0's
    /// lane with the network.
    fn line_net(trunk_delay: SimTime, at: SimTime) -> (Network, ChanId, WormId) {
        use crate::engine::HostId;
        use crate::link::PortId;
        use crate::network::{FabricSpec, HostAttach, LinkSpec, NetworkConfig, RouteTable, SimMode};
        use crate::protocol::{AppMessage, Destination, SendSpec};
        use crate::worm::MessageId;

        let spec = FabricSpec {
            switch_ports: vec![2, 2],
            hosts: vec![
                HostAttach { switch: 0, port: 1 },
                HostAttach { switch: 1, port: 1 },
            ],
            links: vec![LinkSpec {
                a: (0, PortId(0)),
                b: (1, PortId(0)),
                delay: trunk_delay,
            }],
            host_link_delay: 1,
        };
        let mut routes = RouteTable::new(2);
        routes.set(HostId(0), HostId(1), vec![0, 1]);
        let cfg = NetworkConfig {
            mode: SimMode::PerByte,
            ..NetworkConfig::default()
        };
        let mut net = Network::build(&spec, routes, cfg);
        let msg = AppMessage {
            msg: MessageId(1),
            origin: HostId(0),
            dest: Destination::Unicast(HostId(1)),
            payload_len: 2_000,
            created: 0,
        };
        let worm = net.inject_worm(HostId(0), SendSpec::data(&msg, HostId(1), WormKind::Unicast));
        net.run_until(at);
        let ch = net.adapters[0].chan_out.expect("host0 is attached");
        (net, ch, worm)
    }

    /// The head sits in host1's adapter: the circuit is clear from host0's
    /// lane down.
    fn midworm_net() -> (Network, ChanId, WormId) {
        line_net(3, 100)
    }

    /// The head is still crossing a 40-byte-time trunk: the input behind
    /// host0's lane is certain to drain for that long, and no longer.
    fn head_on_trunk_net() -> (Network, ChanId, WormId) {
        line_net(40, 20)
    }

    /// The lane after `ch` on the worm's circuit, and the input between.
    fn next_hop(net: &Network, ch: ChanId) -> (SwitchId, usize, ChanId) {
        let dst = net.lane(ch).dst();
        let NodeRef::Switch(s) = dst.node else {
            panic!("{ch:?} ends at a host");
        };
        let InState::Forwarding { out, .. } = net.switches[s.0 as usize].inputs[dst.port.index()].state
        else {
            panic!("input behind {ch:?} is not forwarding");
        };
        let next = net.switches[s.0 as usize].outputs[out as usize].chan_out;
        (s, dst.port.index(), next.expect("connected"))
    }

    /// Fill the input behind `ch` with the worm's data up to `occupancy`.
    fn fill_to(net: &mut Network, ch: ChanId, occupancy: u32) {
        let (s, p, _) = next_hop(net, ch);
        let inp = &mut net.switches[s.0 as usize].inputs[p];
        let InState::Forwarding { worm, .. } = inp.state else {
            unreachable!()
        };
        let byte = WireByte {
            worm,
            kind: ByteKind::Data,
        };
        inp.buf.push_back_run(byte, u64::from(occupancy - inp.occupancy()));
    }

    fn cert_of(net: &Network, s: SwitchId, p: usize) -> Option<(WormId, SimTime)> {
        net.switches[s.0 as usize].inputs[p].drain_cert
    }

    #[test]
    fn clear_circuit_is_granted_once_and_marks_every_input() {
        let (mut net, ch, worm) = midworm_net();
        // `q + 2 < stop_mark` still holds three below the mark.
        let mark = SlackCfg::for_delay(1).stop_mark;
        fill_to(&mut net, ch, mark - 3);
        assert_eq!(net.drain_window(ch, worm), u64::MAX);
        let (s0, p0, mid) = next_hop(&net, ch);
        let (s1, p1, _) = next_hop(&net, mid);
        for (s, p) in [(s0, p0), (s1, p1)] {
            assert_eq!(cert_of(&net, s, p), Some((worm, SimTime::MAX)));
        }
        // A later kick stops at the first mark; another worm's id matches
        // nothing (ids never recur, so a stale mark is inert).
        assert_eq!(net.drain_window(ch, worm), u64::MAX);
        assert_eq!(net.drain_window(ch, WormId(worm.0 + 1)), 0);
    }

    /// Everything the walk reads, perturbed one at a time on `net_of()`:
    /// each must leave nothing certain and nothing marked.
    fn assert_refusals(net_of: fn() -> (Network, ChanId, WormId)) {
        let refused = |what: &str, perturb: &dyn Fn(&mut Network, ChanId)| {
            let (mut net, ch, worm) = net_of();
            let (s, p, _) = next_hop(&net, ch);
            perturb(&mut net, ch);
            assert_eq!(net.drain_window(ch, worm), 0, "{what} must refuse the rule");
            assert_eq!(
                cert_of(&net, s, p),
                None,
                "{what}: a refused walk marks nothing"
            );
        };
        refused("a control symbol in flight", &|net, ch| {
            let (_, _, mid) = next_hop(net, ch);
            net.lanes[mid.0 as usize].note_ctrl_sent();
        });
        refused("a stopped lane downstream", &|net, ch| {
            let (_, _, mid) = next_hop(net, ch);
            let now = net.scheduler.now();
            net.lanes[mid.0 as usize].stop(now);
        });
        refused("a head still requesting its output", &|net, ch| {
            let dst = net.lane(ch).dst();
            let NodeRef::Switch(s) = dst.node else {
                unreachable!()
            };
            let inp = &mut net.switches[s.0 as usize].inputs[dst.port.index()];
            let InState::Forwarding { worm, out } = inp.state else {
                unreachable!()
            };
            inp.state = InState::Requesting { worm, out };
        });
        refused("an input within two bytes of its STOP mark", &|net, ch| {
            fill_to(net, ch, SlackCfg::for_delay(1).stop_mark - 2);
        });
        refused("a shard engine", &|net, _| {
            let lanes = net.lanes.len();
            net.install_shard_ctx(crate::shard::ShardCtx {
                me: 0,
                chan_src_owner: vec![0; lanes],
                chan_dst_owner: vec![0; lanes],
                outboxes: vec![None],
                snap_sent: crate::slab::PerWorm::new(0),
                tag_to_worm: std::collections::HashMap::new(),
            });
        });
    }

    #[test]
    fn anything_that_could_still_stop_the_worm_refuses_the_rule() {
        assert_refusals(midworm_net);
        assert_refusals(head_on_trunk_net);
        // Downstream of the first input a failure only ends the window:
        // with the second input's head still requesting, a 3-byte-time
        // trunk leaves less than the first input needs.
        let (mut net, ch, worm) = midworm_net();
        let (_, _, mid) = next_hop(&net, ch);
        let dst = net.lane(mid).dst();
        let NodeRef::Switch(s) = dst.node else {
            unreachable!()
        };
        let inp = &mut net.switches[s.0 as usize].inputs[dst.port.index()];
        let InState::Forwarding { worm: w, out } = inp.state else {
            unreachable!()
        };
        inp.state = InState::Requesting { worm: w, out };
        assert_eq!(net.drain_window(ch, worm), 0);
    }

    #[test]
    fn a_long_trunk_ahead_certifies_a_span_as_long_as_its_delay() {
        let (mut net, ch, worm) = head_on_trunk_net();
        let (s0, p0, trunk) = next_hop(&net, ch);
        let dst = net.lane(trunk).dst();
        let NodeRef::Switch(s1) = dst.node else {
            unreachable!()
        };
        assert!(
            matches!(
                net.switches[s1.0 as usize].inputs[dst.port.index()].state,
                InState::Idle
            ),
            "the head is still on the trunk"
        );
        // Per-byte buffers are the per-byte occupancy `q`.
        let q = u64::from(net.switches[s0.0 as usize].inputs[p0].occupancy());
        let wire = u64::from(net.lane(ch).in_flight());
        assert_eq!(net.lane(trunk).delay(), 40);
        assert_eq!(net.drain_window(ch, worm), 40 - 1 - wire - q - 3);
        // The walk itself marks nothing on a finite window...
        assert_eq!(cert_of(&net, s0, p0), None);
        // ...the emission stamps the first input, and only it, until one
        // past the last arrival slot of the span it sent.
        net.cfg.mode = crate::network::SimMode::SpanBatched;
        let t0 = net.scheduler.now();
        net.run_until(t0 + 3);
        let lane = net.lane(ch);
        let sent = lane.delivered_end() - t0;
        assert!(
            sent > u64::from(SlackCfg::for_delay(1).stop_mark),
            "one span beyond the slack"
        );
        assert_eq!(
            cert_of(&net, s0, p0),
            Some((worm, lane.delivered_end() + lane.delay()))
        );
        assert_eq!(cert_of(&net, s1, dst.port.index()), None);
    }

    #[test]
    fn an_expired_certificate_no_longer_exempts() {
        let mark = SlackCfg::for_delay(1).stop_mark;
        let crossing = |until_from_now: SimTime| {
            let (mut net, ch, worm) = midworm_net();
            let (s, p, _) = next_hop(&net, ch);
            fill_to(&mut net, ch, mark - 1);
            let now = net.scheduler.now();
            net.switches[s.0 as usize].inputs[p].drain_cert = Some((worm, now + until_from_now));
            let byte = WireByte {
                worm,
                kind: ByteKind::Data,
            };
            net.switch_rx(s, p as u8, byte, 1, false);
            net.switches[s.0 as usize].inputs[p].sent_stop
        };
        assert!(!crossing(1), "in force: the watermark test stands aside");
        assert!(
            crossing(0),
            "expired: the byte that reaches the mark sends STOP"
        );
    }

    /// host0 and host1 each send a 2 000-byte worm to host2 across one
    /// switch over 100-byte-time host links, and both inputs' slack
    /// buffers are hand-shrunk to the one `SlackCfg::for_delay` sizes for a
    /// 1-byte-time link. The input whose head loses the output fills, and
    /// its STOP lands 100 byte-times after the bytes behind it set out: the
    /// overflow is a panic, not a silent drop.
    fn overflow_a_shrunk_slack(mode: crate::network::SimMode) {
        use crate::engine::HostId;
        use crate::network::{FabricSpec, HostAttach, NetworkConfig, RouteTable};
        use crate::protocol::{AppMessage, Destination, SendSpec};
        use crate::worm::MessageId;

        let spec = FabricSpec {
            switch_ports: vec![3],
            hosts: (0..3).map(|port| HostAttach { switch: 0, port }).collect(),
            links: vec![],
            host_link_delay: 100,
        };
        let mut routes = RouteTable::new(3);
        for h in 0..2 {
            routes.set(HostId(h), HostId(2), vec![2]);
        }
        let cfg = NetworkConfig {
            mode,
            ..NetworkConfig::default()
        };
        let mut net = Network::build(&spec, routes, cfg);
        for inp in &mut net.switches[0].inputs[..2] {
            assert!(inp.slack.capacity > 100, "sized for the host link");
            inp.slack = SlackCfg::for_delay(1);
        }
        for h in 0..2 {
            let msg = AppMessage {
                msg: MessageId(u64::from(h) + 1),
                origin: HostId(h),
                dest: Destination::Unicast(HostId(2)),
                payload_len: 2_000,
                created: 0,
            };
            net.inject_worm(HostId(h), SendSpec::data(&msg, HostId(2), WormKind::Unicast));
        }
        net.run_until(10_000);
    }

    #[test]
    #[should_panic(expected = "slack buffer overflow")]
    fn a_slack_overflow_panics_per_byte() {
        overflow_a_shrunk_slack(crate::network::SimMode::PerByte);
    }

    #[test]
    #[should_panic(expected = "slack buffer overflow")]
    fn a_slack_overflow_panics_span_batched() {
        overflow_a_shrunk_slack(crate::network::SimMode::SpanBatched);
    }

    #[test]
    fn slot_layout_is_contiguous_per_port() {
        let sw = Switch::new(SwitchId(0), &[1, 2, 1], SlackCfg::for_delay(1), 0);
        assert_eq!(sw.num_slots(), 4);
        assert_eq!(sw.slot_of(0, 0), 0);
        assert_eq!(sw.slot_of(1, 0), 1);
        assert_eq!(sw.slot_of(1, 1), 2);
        assert_eq!(sw.slot_of(2, 0), 3);
        assert_eq!(sw.port_of_slot(2), 1);
        assert_eq!(sw.slots_of(1), 1..3);
        assert_eq!(sw.lanes_of(1), 2);
    }
}
