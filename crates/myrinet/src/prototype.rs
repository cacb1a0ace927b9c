//! The measured implementation's forwarding logic (Section 8).
//!
//! What ran on the real testbed, reproduced faithfully — including its
//! *lack* of reliability machinery:
//!
//! * Hamiltonian circuit over all eight hosts, ascending IDs;
//! * worms stop at the node before their originator (no return-to-origin);
//! * store-and-forward at every adapter (LANai cannot cut through), with a
//!   fixed processing overhead before retransmission;
//! * a finite ~25 KB worm-buffer: a worm whose advertised size does not
//!   fit is **dropped silently** — no NACK, no retransmission, no
//!   backpressure into the network (Myrinet drops rather than stalls at
//!   the interface);
//! * saturating sources: the application "simply sent as many packets as
//!   possible" — modelled closed-loop, the next packet is ready one
//!   [`LanaiModel::pump_gap`] after the previous one finished transmitting
//!   (so a busy adapter naturally throttles its own host, exactly like a
//!   full injection queue would).
//!
//! The circuit itself is `wormcast-core`'s [`HcProtocol`] (group 0 over
//! every host, store-and-forward); this module adds only the LANai host
//! path around it: the SRAM check before a worm is admitted, the host DMA
//! queue its local deliveries wait in, the forwarding overhead its relays
//! wait out, and the pump.

use crate::lanai::LanaiModel;
use std::collections::VecDeque;
use wormcast_core::{HcConfig, HcProtocol, Membership};
use wormcast_sim::engine::HostId;
use wormcast_sim::protocol::{
    Admission, AdapterProtocol, AppMessage, Command, Destination, ProtocolCtx, SendSpec,
};
use wormcast_sim::time::SimTime;
use wormcast_sim::worm::{MessageId, WormInstance, WormKind};

const FWD_TIMER: u64 = 1;
const DMA_TIMER: u64 = 2;

/// A job on the host's single DMA/driver path (SBus): either delivering a
/// received worm up to the host, or preparing the next pump packet. Jobs
/// are served strictly in order — this shared bus is why, on the real
/// testbed, hosts that both originate and forward could not keep up
/// (Figures 12–13).
#[derive(Debug)]
enum DmaJob {
    Deliver {
        msg: MessageId,
        cost: SimTime,
    },
    PumpReady {
        cost: SimTime,
    },
}

impl DmaJob {
    fn cost(&self) -> SimTime {
        match self {
            DmaJob::Deliver { cost, .. } | DmaJob::PumpReady { cost } => *cost,
        }
    }
}

/// Per-host prototype protocol instance.
pub struct PrototypeProtocol {
    host: HostId,
    lanai: LanaiModel,
    /// The measured multicast group: all hosts, on one circuit.
    hc: HcProtocol,
    packet_size: u32,
    is_sender: bool,
    /// Stop originating new packets at this time (lets the run drain).
    pump_until: SimTime,
    /// Worm-buffer bytes currently reserved.
    rx_used: u32,
    /// Worms waiting out the LANai forwarding overhead.
    fwd_queue: VecDeque<SendSpec>,
    /// The host's single DMA path (serialized).
    dma_queue: VecDeque<DmaJob>,
    dma_busy: bool,
    /// Buffer reservations: message -> (outstanding refs, bytes). A
    /// forwarded worm's buffer is freed only after BOTH its retransmission
    /// and its host delivery have completed.
    held: std::collections::HashMap<MessageId, (u8, u32)>,
    pub packets_originated: u64,
}

impl PrototypeProtocol {
    pub fn new(
        host: HostId,
        lanai: LanaiModel,
        circuit: Vec<HostId>,
        packet_size: u32,
        is_sender: bool,
        pump_until: SimTime,
    ) -> Self {
        let group = Membership::from_groups([(0, circuit)]);
        PrototypeProtocol {
            host,
            lanai,
            hc: HcProtocol::new(host, HcConfig::store_and_forward(), group),
            packet_size,
            is_sender,
            pump_until,
            rx_used: 0,
            fwd_queue: VecDeque::new(),
            dma_queue: VecDeque::new(),
            dma_busy: false,
            held: std::collections::HashMap::new(),
            packets_originated: 0,
        }
    }

    /// Enqueue a job on the host's single CPU/bus path, starting it if the
    /// path is idle. Strictly FIFO: send preparation and receive delivery
    /// contend for the same 70 MHz host — which is why a host that both
    /// originates and forwards falls behind (Figures 12–13).
    fn push_dma(&mut self, ctx: &mut ProtocolCtx, job: DmaJob) {
        if self.dma_busy {
            self.dma_queue.push_back(job);
        } else {
            self.dma_busy = true;
            ctx.set_timer(job.cost(), DMA_TIMER);
            self.dma_queue.push_back(job);
        }
    }

    /// Drop one reference on a held buffer; free it when both the
    /// retransmission and the host delivery are done.
    fn unref(&mut self, msg: MessageId) {
        if let Some((refs, bytes)) = self.held.get_mut(&msg) {
            *refs -= 1;
            if *refs == 0 {
                let bytes = *bytes;
                self.held.remove(&msg);
                self.rx_used = self.rx_used.saturating_sub(bytes);
            }
        }
    }

    fn pumping(&self, now: SimTime) -> bool {
        self.is_sender && now < self.pump_until
    }

    /// Hand the circuit the pump's next packet. The saturating source is
    /// not the simulator's traffic system, so it mints its own message ids,
    /// disjoint per host.
    fn pump(&mut self, ctx: &mut ProtocolCtx) {
        if !self.pumping(ctx.now) {
            return;
        }
        let msg = AppMessage {
            msg: MessageId(((self.host.0 as u64 + 1) << 44) | self.packets_originated),
            origin: self.host,
            dest: Destination::Multicast(0),
            payload_len: self.packet_size,
            created: ctx.now,
        };
        self.packets_originated += 1;
        self.hc.on_generate(ctx, msg);
    }
}

impl AdapterProtocol for PrototypeProtocol {
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, _msg: AppMessage) {
        // The one-shot source only kicks the pump off.
        self.pump(ctx);
    }

    fn on_header(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) -> Admission {
        if let WormKind::Multicast { .. } = worm.meta.kind {
            let need = worm.meta.advertised_size;
            // The ~25 KB SRAM also stages this host's own outgoing
            // packet, so a sending host has less of it for worms in
            // transit — the bigger the packets, the fewer transit
            // slots remain (a large part of Figure 13's size slope).
            let staging = if self.is_sender { self.packet_size } else { 0 };
            let cap = self.lanai.rx_buffer_bytes.saturating_sub(staging);
            if self.rx_used + need > cap {
                // The measured system's only overload response: drop.
                return Admission::Refuse;
            }
            self.rx_used += need;
        }
        self.hc.on_header(ctx, worm)
    }

    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        let bytes = worm.meta.advertised_size;
        let mut cmds = Vec::new();
        let mut hc_ctx = ProtocolCtx::new(ctx.now, ctx.host, ctx.tx_backlog, ctx.rng, &mut cmds);
        self.hc.on_worm_received(&mut hc_ctx, worm);
        // The buffer is held by the pending host delivery and, when
        // forwarding, by the pending retransmission too.
        self.held.insert(worm.meta.msg, (cmds.len() as u8, bytes));
        for cmd in cmds {
            match cmd {
                // The worm reaches the application only after the shared
                // host bus carries it up; this is where "received data rate
                // at each host" is measured.
                Command::DeliverLocal { msg } => {
                    let cost = self.lanai.delivery_cost(bytes);
                    self.push_dma(ctx, DmaJob::Deliver { msg, cost });
                }
                Command::Send(relay) => {
                    self.fwd_queue.push_back(relay);
                    ctx.set_timer(self.lanai.forward_overhead, FWD_TIMER);
                }
                // Only `Reliability::AckNack` sets timers.
                Command::SetTimer { .. } => unreachable!("timer from the prototype's circuit"),
            }
        }
    }

    fn on_tx_complete(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        if worm.meta.origin == self.host {
            // Our own packet left the wire: preparing and staging the next
            // one is a job on the shared host CPU/bus path.
            if self.pumping(ctx.now) {
                let cost = self.lanai.pump_gap(self.packet_size);
                self.push_dma(ctx, DmaJob::PumpReady { cost });
            }
        } else {
            // A forwarded copy left the wire.
            self.unref(worm.meta.msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtocolCtx, token: u64) {
        match token {
            FWD_TIMER => {
                if let Some(spec) = self.fwd_queue.pop_front() {
                    ctx.send(spec);
                }
            }
            DMA_TIMER => {
                let job = self.dma_queue.pop_front().expect("dma timer with job");
                match job {
                    DmaJob::Deliver { msg, .. } => {
                        ctx.deliver_local(msg);
                        self.unref(msg);
                    }
                    DmaJob::PumpReady { .. } => self.pump(ctx),
                }
                match self.dma_queue.front() {
                    Some(next) => ctx.set_timer(next.cost(), DMA_TIMER),
                    None => self.dma_busy = false,
                }
            }
            other => self.hc.on_timer(ctx, other),
        }
    }
}

/// Kick message for the one-shot source that starts a sender's pump.
pub fn pump_kick() -> wormcast_sim::protocol::SourceMessage {
    wormcast_sim::protocol::SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wormcast_sim::protocol::Command;
    use wormcast_sim::worm::{WormId, WormMeta};

    fn proto(host: u32, sender: bool) -> PrototypeProtocol {
        PrototypeProtocol::new(
            HostId(host),
            LanaiModel::default(),
            (0..8).map(HostId).collect(),
            4096,
            sender,
            1_000_000,
        )
    }

    fn run_cb<F: FnOnce(&mut PrototypeProtocol, &mut ProtocolCtx)>(
        p: &mut PrototypeProtocol,
        now: SimTime,
        f: F,
    ) -> Vec<Command> {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut cmds = Vec::new();
        let mut ctx = ProtocolCtx::new(now, p.host, 0, &mut rng, &mut cmds);
        f(p, &mut ctx);
        cmds
    }

    fn worm(host_pos: u32, hops: u16, size: u32) -> WormInstance {
        WormInstance {
            id: WormId(1),
            sinks: 1,
            meta: WormMeta {
                kind: WormKind::Multicast { group: 0 },
                msg: MessageId(9),
                injector: HostId(host_pos),
                origin: HostId(0),
                dest: HostId(host_pos + 1),
                seq: 0,
                hops_left: hops,
                buffer_class: 1,
                frag_index: 0,
                frag_last: true,
                advertised_size: size,
                stage: 0,
            },
            route: vec![],
            route_len: 0,
            header_len: 8,
            payload_len: size,
            created: 0,
            injected: 0,
        }
    }

    #[test]
    fn pump_starts_on_kick_and_reschedules_on_tx_complete() {
        let mut p = proto(0, true);
        let kick = AppMessage {
            msg: MessageId(0),
            origin: HostId(0),
            dest: Destination::Multicast(0),
            payload_len: 0,
            created: 0,
        };
        let cmds = run_cb(&mut p, 0, |p, ctx| p.on_generate(ctx, kick));
        assert_eq!(cmds.len(), 1);
        match &cmds[0] {
            Command::Send(s) => {
                assert_eq!(s.dest, HostId(1));
                assert_eq!(s.hops_left, 7);
                assert_eq!(s.payload_len, 4096);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.packets_originated, 1);
        // Own packet finished: the next pump cycle queues on the host bus.
        let mut own = worm(0, 7, 4096);
        own.meta.origin = HostId(0);
        let cmds = run_cb(&mut p, 5000, |p, ctx| p.on_tx_complete(ctx, &own));
        assert!(matches!(cmds[..], [Command::SetTimer { token: DMA_TIMER, .. }]));
        // The bus transfer completes: the next packet goes out.
        let cmds = run_cb(&mut p, 30_000, |p, ctx| p.on_timer(ctx, DMA_TIMER));
        assert!(
            cmds.iter().any(|c| matches!(c, Command::Send(_))),
            "pump continues after DMA: {cmds:?}"
        );
        assert_eq!(p.packets_originated, 2);
    }

    #[test]
    fn non_sender_never_originates() {
        let mut p = proto(3, false);
        let kick = AppMessage {
            msg: MessageId(0),
            origin: HostId(3),
            dest: Destination::Multicast(0),
            payload_len: 0,
            created: 0,
        };
        let cmds = run_cb(&mut p, 0, |p, ctx| p.on_generate(ctx, kick));
        assert!(cmds.is_empty());
    }

    #[test]
    fn buffer_overflow_drops_silently() {
        let mut p = proto(2, false);
        // 25 KB budget: six 4 KB worms fit, the seventh does not.
        for i in 0..6 {
            let adm = run_cb(&mut p, i, |p, ctx| {
                assert_eq!(p.on_header(ctx, &worm(1, 6, 4096)), Admission::Accept);
            });
            assert!(adm.is_empty(), "no control traffic");
        }
        run_cb(&mut p, 10, |p, ctx| {
            assert_eq!(p.on_header(ctx, &worm(1, 6, 4096)), Admission::Refuse);
        });
        assert_eq!(p.rx_used, 6 * 4096);
    }

    #[test]
    fn forward_waits_lanai_overhead_and_buffer_needs_both_releases() {
        let mut p = proto(2, false);
        let w = worm(1, 6, 4096);
        run_cb(&mut p, 0, |p, ctx| {
            assert_eq!(p.on_header(ctx, &w), Admission::Accept);
        });
        let cmds = run_cb(&mut p, 100, |p, ctx| p.on_worm_received(ctx, &w));
        // A host-delivery DMA job and the LANai forwarding timer start; the
        // application-visible delivery has NOT happened yet.
        assert!(
            !cmds.iter().any(|c| matches!(c, Command::DeliverLocal { .. })),
            "delivery must wait for the host DMA: {cmds:?}"
        );
        assert!(cmds
            .iter()
            .any(|c| matches!(c, Command::SetTimer { token: FWD_TIMER, .. })));
        assert!(cmds
            .iter()
            .any(|c| matches!(c, Command::SetTimer { token: DMA_TIMER, .. })));
        // LANai overhead elapses: the copy goes out.
        let cmds = run_cb(&mut p, 1700, |p, ctx| p.on_timer(ctx, FWD_TIMER));
        match &cmds[0] {
            Command::Send(s) => {
                assert_eq!(s.dest, HostId(3));
                assert_eq!(s.hops_left, 5);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Host DMA completes: delivered to the app, but the buffer is still
        // held by the pending retransmission.
        let cmds = run_cb(&mut p, 16500, |p, ctx| p.on_timer(ctx, DMA_TIMER));
        assert!(matches!(cmds[0], Command::DeliverLocal { .. }));
        assert_eq!(p.rx_used, 4096);
        // The copy's tail leaves the wire: now the buffer is free.
        let mut fwd = worm(2, 5, 4096);
        fwd.meta.origin = HostId(0); // not ours
        run_cb(&mut p, 22000, |p, ctx| p.on_tx_complete(ctx, &fwd));
        assert_eq!(p.rx_used, 0);
    }

    #[test]
    fn final_hop_releases_after_host_dma() {
        let mut p = proto(7, false);
        let w = worm(6, 1, 2048);
        run_cb(&mut p, 0, |p, ctx| {
            assert_eq!(p.on_header(ctx, &w), Admission::Accept);
        });
        let cmds = run_cb(&mut p, 100, |p, ctx| p.on_worm_received(ctx, &w));
        assert!(cmds
            .iter()
            .any(|c| matches!(c, Command::SetTimer { token: DMA_TIMER, .. })));
        assert_eq!(p.rx_used, 2048, "held until the host takes it");
        let cmds = run_cb(&mut p, 8300, |p, ctx| p.on_timer(ctx, DMA_TIMER));
        assert!(matches!(cmds[0], Command::DeliverLocal { .. }));
        assert_eq!(p.rx_used, 0);
    }

    #[test]
    fn dma_serializes_jobs_fifo() {
        let mut p = proto(7, false);
        let w1 = worm(6, 1, 2048);
        let mut w2 = worm(6, 1, 2048);
        w2.meta.msg = MessageId(10);
        run_cb(&mut p, 0, |p, ctx| {
            assert_eq!(p.on_header(ctx, &w1), Admission::Accept);
        });
        let c1 = run_cb(&mut p, 10, |p, ctx| p.on_worm_received(ctx, &w1));
        assert_eq!(
            c1.iter()
                .filter(|c| matches!(c, Command::SetTimer { token: DMA_TIMER, .. }))
                .count(),
            1
        );
        run_cb(&mut p, 20, |p, ctx| {
            assert_eq!(p.on_header(ctx, &w2), Admission::Accept);
        });
        let c2 = run_cb(&mut p, 30, |p, ctx| p.on_worm_received(ctx, &w2));
        assert!(
            !c2.iter()
                .any(|c| matches!(c, Command::SetTimer { token: DMA_TIMER, .. })),
            "second job queues behind the busy DMA: {c2:?}"
        );
        // First completion delivers w1 and starts w2's transfer.
        let c3 = run_cb(&mut p, 8300, |p, ctx| p.on_timer(ctx, DMA_TIMER));
        assert!(matches!(c3[0], Command::DeliverLocal { msg: MessageId(9) }));
        assert!(matches!(c3[1], Command::SetTimer { token: DMA_TIMER, .. }));
        let c4 = run_cb(&mut p, 16500, |p, ctx| p.on_timer(ctx, DMA_TIMER));
        assert!(matches!(c4[0], Command::DeliverLocal { msg: MessageId(10) }));
        assert_eq!(p.rx_used, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sets no timers of its own")]
    fn unknown_timer_token_reaches_the_circuit() {
        let mut p = proto(3, true);
        run_cb(&mut p, 0, |p, ctx| p.on_timer(ctx, 99));
    }
}
