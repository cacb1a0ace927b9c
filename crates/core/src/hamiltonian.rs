//! Multicasting on a Hamiltonian circuit (Section 5).
//!
//! Group members form a directed circuit in ascending host-ID order. The
//! worm header carries the multicast group id and a **hop count**; each
//! adapter delivers the worm locally, decrements the hop count, and — if it
//! is not zero — retransmits the worm to its circuit successor. Buffer
//! class switches from 1 to 2 at the single ID reversal (the wrap of the
//! circuit), which together with the ascending-ID rule prevents buffer
//! deadlocks (Figures 6–7).
//!
//! Options, all from the paper:
//!
//! * **cut-through** — an adapter starts retransmitting to its successor as
//!   soon as the header arrives, *if its output port is free*; otherwise it
//!   falls back to full reassembly (store-and-forward). The real Myrinet
//!   implementation (Section 8) is store-and-forward only.
//! * **return-to-origin** — the worm makes the full circle, giving the
//!   originator confirmation of delivery at the cost of one extra hop.
//! * **serialize** — total ordering: originators first relay the message to
//!   the lowest-ID member, which starts all multicasts of the group in a
//!   single sequence.
//! * **reliability** — [`Reliability::AckNack`] enables the finite-buffer
//!   implicit-reservation machinery.
//!
//! This is the only copy of the circuit: the dynamic group manager
//! ([`crate::manager`]) and the Myrinet prototype model each own an
//! [`HcProtocol`] and drive it.

use crate::group::Membership;
use crate::reliable::{Reliability, ReliableFwd};
use crate::sequencer::Sequencer;
use std::collections::HashSet;
use std::sync::Arc;
use wormcast_sim::engine::HostId;
use wormcast_sim::protocol::{
    Admission, AdapterProtocol, AppMessage, Destination, ProtocolCtx, SendSpec,
};
use wormcast_sim::worm::{WormId, WormInstance, WormKind};

/// Stage marker: a relay from the originator to the circuit starter
/// (serialized mode) — not yet circulating.
const STAGE_SEED: u8 = 1;

/// Hamiltonian-circuit protocol configuration.
#[derive(Clone, Copy, Debug)]
pub struct HcConfig {
    /// Forward in cut-through when the output port is free.
    pub cut_through: bool,
    /// Retransmit until the worm returns to its originator (confirmation).
    pub return_to_origin: bool,
    /// Serialize all multicasts of a group through the lowest-ID member
    /// (total ordering).
    pub serialize: bool,
    pub reliability: Reliability,
}

impl HcConfig {
    /// Store-and-forward, stop before origin, no ordering, infinite
    /// buffers — the paper's baseline simulation configuration.
    pub fn store_and_forward() -> Self {
        HcConfig {
            cut_through: false,
            return_to_origin: false,
            serialize: false,
            reliability: Reliability::None,
        }
    }

    /// Immediate cut-through when the port is free (Figure 10's middle
    /// curve).
    pub fn cut_through() -> Self {
        HcConfig {
            cut_through: true,
            ..Self::store_and_forward()
        }
    }
}

/// Per-host Hamiltonian-circuit protocol instance.
pub struct HcProtocol {
    host: HostId,
    cfg: HcConfig,
    groups: Arc<Membership>,
    fwd: ReliableFwd,
    /// Serialized mode: the stamps (at the lowest-ID member) and the
    /// in-order delivery they make possible.
    order: Sequencer,
    /// Worms already forwarded at header time (cut-through), so the
    /// receive-complete handler does not forward them again.
    forwarded_at_header: HashSet<WormId>,
    /// Confirmations observed (return-to-origin mode).
    pub confirmed: u64,
}

impl HcProtocol {
    pub fn new(host: HostId, cfg: HcConfig, groups: Arc<Membership>) -> Self {
        HcProtocol {
            host,
            cfg,
            groups,
            fwd: ReliableFwd::new(cfg.reliability),
            order: Sequencer::default(),
            forwarded_at_header: HashSet::new(),
            confirmed: 0,
        }
    }

    /// This host's copy of the membership the circuit runs over.
    pub fn membership(&self) -> &Membership {
        &self.groups
    }

    /// Replace `group`'s member list in this host's copy of the membership;
    /// an empty list removes the group. The dynamic group manager
    /// ([`crate::manager`]) calls this as each membership update applies.
    pub fn set_members(&mut self, group: u8, members: Vec<HostId>) {
        let groups = Arc::make_mut(&mut self.groups);
        if members.is_empty() {
            groups.remove(group);
        } else {
            groups.insert(group, members);
        }
    }

    /// The circuit successor of `h` in `group` (ascending IDs, wrapping).
    fn successor(&self, group: u8, h: HostId) -> Option<HostId> {
        let members = self.groups.members(group);
        if members.is_empty() {
            return None;
        }
        match members.binary_search(&h) {
            Ok(ix) => Some(members[(ix + 1) % members.len()]),
            // Non-members (an originator outside the group) enter the
            // circuit at the first member with a higher ID, wrapping.
            Err(ix) => Some(members[ix % members.len()]),
        }
    }

    /// Buffer class for a hop from `from` to `to`: class 2 after the single
    /// ID reversal (the circuit wrap), class 1 before (Figure 7).
    fn class_for_hop(incoming: u8, from: HostId, to: HostId) -> u8 {
        if to < from {
            2
        } else {
            incoming
        }
    }

    /// Engine + protocol statistics.
    pub fn fwd_stats(&self) -> crate::reliable::FwdStats {
        self.fwd.stats
    }

    fn start_multicast(&mut self, ctx: &mut ProtocolCtx, msg: &AppMessage, group: u8) {
        let members = self.groups.members(group);
        let n = members.len();
        if n == 0 {
            return;
        }
        if self.cfg.serialize {
            let starter = self.groups.lowest(group).expect("non-empty");
            if self.host != starter {
                // Relay to the serializer first.
                let mut spec = SendSpec::data(msg, starter, WormKind::Multicast { group });
                spec.stage = STAGE_SEED;
                spec.buffer_class =
                    Self::class_for_hop(1, self.host, starter);
                self.fwd.forward(ctx, spec, None);
                return;
            }
            // We are the serializer: stamp the sequence and circulate.
            let seq = self.order.stamp(group);
            self.circulate_new(ctx, msg, group, seq);
        } else {
            self.circulate_new(ctx, msg, group, 0);
        }
    }

    /// Inject the circulating copy of a fresh multicast from this host.
    fn circulate_new(&mut self, ctx: &mut ProtocolCtx, msg: &AppMessage, group: u8, seq: u32) {
        let members = self.groups.members(group);
        let n = members.len();
        let is_member = self.groups.is_member(group, self.host);
        // Receivers: every member except (if member) ourselves; plus one
        // extra hop when the worm must return to the origin.
        let receivers = if is_member { n - 1 } else { n };
        let hops = receivers + usize::from(self.cfg.return_to_origin && is_member);
        if hops == 0 {
            return;
        }
        let succ = self.successor(group, self.host).expect("non-empty group");
        if succ == self.host {
            return; // singleton group
        }
        let mut spec = SendSpec::data(msg, succ, WormKind::Multicast { group });
        spec.seq = seq;
        spec.hops_left = hops as u16;
        spec.buffer_class = Self::class_for_hop(1, self.host, succ);
        self.fwd.forward(ctx, spec, None);
    }

    /// Build the forwarding spec for a circulating worm arriving here.
    fn forward_spec(&self, worm: &WormInstance, group: u8) -> Option<SendSpec> {
        if worm.meta.hops_left <= 1 {
            return None;
        }
        let succ = self.successor(group, self.host)?;
        if succ == self.host {
            return None;
        }
        let mut spec = SendSpec::forward(worm, succ);
        spec.hops_left = worm.meta.hops_left - 1;
        spec.buffer_class = Self::class_for_hop(worm.meta.buffer_class, self.host, succ);
        Some(spec)
    }

    fn handle_circulating(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance, group: u8) {
        self.fwd.acknowledge(ctx, worm);
        if self.fwd.is_duplicate(worm.meta.msg) {
            // Re-ACKed above; the first copy's processing (and its buffer
            // accounting) already happened.
            return;
        }
        // Deliver locally unless this is the origin's own message coming
        // back around (which still advances the sequence cursor).
        if worm.meta.origin != self.host {
            self.order
                .deliver_in_order(ctx, group, worm.meta.seq, Some(worm.meta.msg));
        } else {
            self.confirmed += 1;
            self.order.deliver_in_order(ctx, group, worm.meta.seq, None);
        }
        if !self.forwarded_at_header.remove(&worm.id) {
            if let Some(spec) = self.forward_spec(worm, group) {
                self.fwd.forward(ctx, spec, Some(worm.meta.msg));
            }
        }
        self.fwd.done_receiving(worm.meta.msg);
    }

    /// A seed (serialized mode) arrived at the serializer: deliver it here
    /// and start the circulation.
    fn handle_seed(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance, group: u8) {
        self.fwd.acknowledge(ctx, worm);
        if self.fwd.is_duplicate(worm.meta.msg) {
            // Re-ACKed above; the first copy's processing (and its buffer
            // accounting) already happened.
            return;
        }
        debug_assert_eq!(Some(self.host), self.groups.lowest(group));
        if self.groups.is_member(group, self.host) {
            ctx.deliver_local(worm.meta.msg);
        }
        let seq = self.order.stamp(group);
        let members = self.groups.members(group);
        let n = members.len();
        // Everybody but us receives from the circulation (the origin is
        // filtered at delivery time but still relays the worm).
        let hops = n - usize::from(self.groups.is_member(group, self.host));
        if hops == 0 {
            self.fwd.done_receiving(worm.meta.msg);
            return;
        }
        if let Some(succ) = self.successor(group, self.host) {
            if succ != self.host {
                let mut spec = SendSpec::forward(worm, succ);
                spec.stage = 0;
                spec.seq = seq;
                spec.hops_left = hops as u16;
                spec.buffer_class = Self::class_for_hop(1, self.host, succ);
                self.fwd.forward(ctx, spec, Some(worm.meta.msg));
            }
        }
        self.fwd.done_receiving(worm.meta.msg);
    }
}

impl AdapterProtocol for HcProtocol {
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, msg: AppMessage) {
        match msg.dest {
            Destination::Unicast(d) => {
                debug_assert_ne!(d, self.host);
                let spec = SendSpec::data(&msg, d, WormKind::Unicast);
                self.fwd.forward(ctx, spec, None);
            }
            Destination::Multicast(g) => self.start_multicast(ctx, &msg, g),
        }
    }

    fn on_header(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) -> Admission {
        match worm.meta.kind {
            WormKind::Control(_) => Admission::Accept,
            WormKind::Unicast => Admission::Accept,
            WormKind::Multicast { group } => {
                let adm = self.fwd.admit(ctx, worm);
                if adm == Admission::Accept
                    && self.cfg.cut_through
                    && worm.meta.stage != STAGE_SEED
                    && ctx.tx_backlog == 0
                {
                    // Output port free: forward immediately, in lockstep
                    // with reception.
                    if let Some(mut spec) = self.forward_spec(worm, group) {
                        spec.follow = Some(worm.id);
                        self.fwd.forward(ctx, spec, Some(worm.meta.msg));
                        self.forwarded_at_header.insert(worm.id);
                    }
                }
                adm
            }
            WormKind::SwitchMulticast { .. } => {
                unreachable!("switch-level multicast worm at a host-adapter protocol")
            }
        }
    }

    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        match worm.meta.kind {
            WormKind::Control(_) => {
                let consumed = self.fwd.on_control(ctx, worm);
                debug_assert!(consumed, "unknown control worm at HC protocol");
            }
            WormKind::Unicast => ctx.deliver_local(worm.meta.msg),
            WormKind::Multicast { group } => {
                if worm.meta.stage == STAGE_SEED {
                    self.handle_seed(ctx, worm, group);
                } else {
                    self.handle_circulating(ctx, worm, group);
                }
            }
            WormKind::SwitchMulticast { .. } => {
                unreachable!("switch-level multicast worm at a host-adapter protocol")
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtocolCtx, token: u64) {
        let handled = self.fwd.handle_timer(ctx, token);
        debug_assert!(handled, "HC protocol sets no timers of its own");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wormcast_sim::protocol::Command;
    use wormcast_sim::time::SimTime;
    use wormcast_sim::worm::{MessageId, WormMeta};

    fn groups() -> Arc<Membership> {
        Membership::from_groups([(0u8, vec![HostId(1), HostId(3), HostId(5), HostId(7)])])
    }

    fn run_cb<F: FnOnce(&mut HcProtocol, &mut ProtocolCtx)>(
        p: &mut HcProtocol,
        host: HostId,
        now: SimTime,
        backlog: usize,
        f: F,
    ) -> Vec<Command> {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut cmds = Vec::new();
        let mut ctx = ProtocolCtx::new(now, host, backlog, &mut rng, &mut cmds);
        f(p, &mut ctx);
        cmds
    }

    fn msg(origin: u32, group: u8) -> AppMessage {
        AppMessage {
            msg: MessageId(42),
            origin: HostId(origin),
            dest: Destination::Multicast(group),
            payload_len: 400,
            created: 5,
        }
    }

    fn circulating(
        origin: u32,
        injector: u32,
        hops: u16,
        class: u8,
        stage: u8,
    ) -> WormInstance {
        WormInstance {
            id: WormId(77),
            sinks: 1,
            meta: WormMeta {
                kind: WormKind::Multicast { group: 0 },
                msg: MessageId(42),
                injector: HostId(injector),
                origin: HostId(origin),
                dest: HostId(0),
                seq: 0,
                hops_left: hops,
                buffer_class: class,
                frag_index: 0,
                frag_last: true,
                advertised_size: 400,
                stage,
            },
            route: vec![],
            route_len: 0,
            header_len: 8,
            payload_len: 400,
            created: 5,
            injected: 6,
        }
    }

    #[test]
    fn successor_follows_ascending_ids() {
        let p = HcProtocol::new(HostId(3), HcConfig::store_and_forward(), groups());
        assert_eq!(p.successor(0, HostId(3)), Some(HostId(5)));
        assert_eq!(p.successor(0, HostId(7)), Some(HostId(1))); // wrap
        // Non-member origin enters at the next higher member.
        assert_eq!(p.successor(0, HostId(4)), Some(HostId(5)));
        assert_eq!(p.successor(0, HostId(8)), Some(HostId(1)));
    }

    #[test]
    fn origin_sends_n_minus_1_hops() {
        let mut p = HcProtocol::new(HostId(3), HcConfig::store_and_forward(), groups());
        let cmds = run_cb(&mut p, HostId(3), 0, 0, |p, ctx| {
            p.on_generate(ctx, msg(3, 0));
        });
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.dest, HostId(5));
                assert_eq!(s.hops_left, 3);
                assert_eq!(s.buffer_class, 1);
                assert_eq!(s.kind, WormKind::Multicast { group: 0 });
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn return_to_origin_adds_a_hop() {
        let cfg = HcConfig {
            return_to_origin: true,
            ..HcConfig::store_and_forward()
        };
        let mut p = HcProtocol::new(HostId(3), cfg, groups());
        let cmds = run_cb(&mut p, HostId(3), 0, 0, |p, ctx| {
            p.on_generate(ctx, msg(3, 0));
        });
        match &cmds[..] {
            [Command::Send(s)] => assert_eq!(s.hops_left, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn member_delivers_and_forwards_with_decremented_hops() {
        let mut p = HcProtocol::new(HostId(5), HcConfig::store_and_forward(), groups());
        let w = circulating(3, 3, 3, 1, 0);
        let cmds = run_cb(&mut p, HostId(5), 10, 0, |p, ctx| {
            p.on_worm_received(ctx, &w);
        });
        assert!(matches!(cmds[0], Command::DeliverLocal { msg: MessageId(42) }));
        match &cmds[1] {
            Command::Send(s) => {
                assert_eq!(s.dest, HostId(7));
                assert_eq!(s.hops_left, 2);
                assert_eq!(s.buffer_class, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn class_switches_to_2_at_wrap() {
        let mut p = HcProtocol::new(HostId(7), HcConfig::store_and_forward(), groups());
        let w = circulating(3, 5, 2, 1, 0);
        let cmds = run_cb(&mut p, HostId(7), 10, 0, |p, ctx| {
            p.on_worm_received(ctx, &w);
        });
        match &cmds[1] {
            Command::Send(s) => {
                assert_eq!(s.dest, HostId(1), "wraps to lowest member");
                assert_eq!(s.buffer_class, 2, "class reversal at the wrap");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn last_hop_stops() {
        let mut p = HcProtocol::new(HostId(1), HcConfig::store_and_forward(), groups());
        let w = circulating(3, 7, 1, 2, 0);
        let cmds = run_cb(&mut p, HostId(1), 10, 0, |p, ctx| {
            p.on_worm_received(ctx, &w);
        });
        assert_eq!(cmds.len(), 1, "deliver only, no forward: {cmds:?}");
        assert!(matches!(cmds[0], Command::DeliverLocal { .. }));
    }

    #[test]
    fn origin_does_not_deliver_its_own_returning_worm() {
        let cfg = HcConfig {
            return_to_origin: true,
            ..HcConfig::store_and_forward()
        };
        let mut p = HcProtocol::new(HostId(3), cfg, groups());
        let w = circulating(3, 1, 1, 2, 0);
        let cmds = run_cb(&mut p, HostId(3), 10, 0, |p, ctx| {
            p.on_worm_received(ctx, &w);
        });
        assert!(cmds.is_empty(), "confirmation only: {cmds:?}");
        assert_eq!(p.confirmed, 1);
    }

    #[test]
    fn serialized_origin_relays_to_lowest() {
        let cfg = HcConfig {
            serialize: true,
            ..HcConfig::store_and_forward()
        };
        let mut p = HcProtocol::new(HostId(5), cfg, groups());
        let cmds = run_cb(&mut p, HostId(5), 0, 0, |p, ctx| {
            p.on_generate(ctx, msg(5, 0));
        });
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.dest, HostId(1));
                assert_eq!(s.stage, STAGE_SEED);
                assert_eq!(s.buffer_class, 2, "relay to a lower ID is class 2");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serializer_stamps_increasing_seq() {
        let cfg = HcConfig {
            serialize: true,
            ..HcConfig::store_and_forward()
        };
        let mut p = HcProtocol::new(HostId(1), cfg, groups());
        let seed = |id: u64| {
            let mut w = circulating(5, 5, 0, 1, STAGE_SEED);
            w.meta.msg = MessageId(id);
            w
        };
        let c1 = run_cb(&mut p, HostId(1), 10, 0, |p, ctx| {
            p.on_worm_received(ctx, &seed(1));
        });
        let c2 = run_cb(&mut p, HostId(1), 20, 0, |p, ctx| {
            p.on_worm_received(ctx, &seed(2));
        });
        let seq_of = |cmds: &[Command]| {
            cmds.iter()
                .find_map(|c| match c {
                    Command::Send(s) => Some(s.seq),
                    _ => None,
                })
                .expect("a forward")
        };
        assert_eq!(seq_of(&c1), 1);
        assert_eq!(seq_of(&c2), 2);
        // The serializer (a member, not the origin) also delivers locally.
        assert!(c1.iter().any(|c| matches!(c, Command::DeliverLocal { .. })));
    }

    #[test]
    fn cut_through_forwards_at_header_when_port_free() {
        let mut p = HcProtocol::new(HostId(5), HcConfig::cut_through(), groups());
        let w = circulating(3, 3, 3, 1, 0);
        let cmds = run_cb(&mut p, HostId(5), 10, 0, |p, ctx| {
            assert_eq!(p.on_header(ctx, &w), Admission::Accept);
        });
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.follow, Some(WormId(77)), "lockstep with reception");
                assert_eq!(s.dest, HostId(7));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Receive completion delivers but does not forward again.
        let cmds = run_cb(&mut p, HostId(5), 20, 1, |p, ctx| {
            p.on_worm_received(ctx, &w);
        });
        assert_eq!(cmds.len(), 1);
        assert!(matches!(cmds[0], Command::DeliverLocal { .. }));
    }

    #[test]
    fn cut_through_falls_back_when_port_busy() {
        let mut p = HcProtocol::new(HostId(5), HcConfig::cut_through(), groups());
        let w = circulating(3, 3, 3, 1, 0);
        let cmds = run_cb(&mut p, HostId(5), 10, 2, |p, ctx| {
            assert_eq!(p.on_header(ctx, &w), Admission::Accept);
        });
        assert!(cmds.is_empty(), "busy port: no header-time forward");
        let cmds = run_cb(&mut p, HostId(5), 20, 2, |p, ctx| {
            p.on_worm_received(ctx, &w);
        });
        assert_eq!(cmds.len(), 2, "deliver + store-and-forward send");
    }

    #[test]
    fn set_members_reroutes_this_hosts_copy_only() {
        let shared = groups();
        let mut p = HcProtocol::new(HostId(3), HcConfig::store_and_forward(), shared.clone());
        p.set_members(0, vec![HostId(9), HostId(1), HostId(3)]);
        assert_eq!(shared.members(0).len(), 4, "other hosts keep the old table");
        let cmds = run_cb(&mut p, HostId(3), 0, 0, |p, ctx| {
            p.on_generate(ctx, msg(3, 0));
        });
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.dest, HostId(9));
                assert_eq!(s.hops_left, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // An empty list removes the group: nothing left to send to.
        p.set_members(0, vec![]);
        assert_eq!(p.membership().group_ids().count(), 0);
        let cmds = run_cb(&mut p, HostId(3), 0, 0, |p, ctx| {
            p.on_generate(ctx, msg(3, 0));
        });
        assert!(cmds.is_empty(), "{cmds:?}");
    }

    #[test]
    fn unicast_passthrough() {
        let mut p = HcProtocol::new(HostId(1), HcConfig::store_and_forward(), groups());
        let am = AppMessage {
            msg: MessageId(9),
            origin: HostId(1),
            dest: Destination::Unicast(HostId(7)),
            payload_len: 10,
            created: 0,
        };
        let cmds = run_cb(&mut p, HostId(1), 0, 0, |p, ctx| {
            p.on_generate(ctx, am);
        });
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.kind, WormKind::Unicast);
                assert_eq!(s.dest, HostId(7));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
