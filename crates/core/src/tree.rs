//! Multicasting on a rooted tree (Section 6).
//!
//! The tree is heap-ordered — every child's ID exceeds its parent's
//! (Figure 9) — and built over the host-connectivity graph by
//! `wormcast_topo::tree`. Two operating modes, both from the paper:
//!
//! * [`TreeMode::RootSerialized`] — the originator first sends the message
//!   to the **root** (the lowest-ID member), which starts the multicast
//!   down the tree. All forwarding goes parent → child, i.e. towards
//!   strictly higher IDs: buffer requests cannot cycle with a single
//!   class, and the root serialises all of the group's messages — total
//!   ordering for free.
//! * [`TreeMode::BroadcastFromOrigin`] — the originator broadcasts on the
//!   tree directly: each adapter forwards to all tree neighbours except
//!   the one the worm arrived on. A copy *climbs* (towards lower IDs)
//!   for a while and then *descends*; it inverts direction at most once,
//!   so the two-buffer-class rule (class 1 climbing, class 2 descending)
//!   keeps waits acyclic. Lower latency, no total ordering.
//!
//! An adapter with several children transmits to them **sequentially**
//! (the adapter has a single network port); with `cut_through_first` the
//! first copy streams in lockstep with reception and the rest follow from
//! the reassembled buffer — exactly the behaviour the paper describes.

use crate::reliable::{Reliability, ReliableFwd};
use crate::sequencer::Sequencer;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use wormcast_sim::engine::HostId;
use wormcast_sim::protocol::{
    Admission, AdapterProtocol, AppMessage, Destination, ProtocolCtx, SendSpec,
};
use wormcast_sim::worm::{WormId, WormInstance, WormKind};
use wormcast_topo::tree::MulticastTree;

/// Relay from the originator to the root (RootSerialized mode).
const STAGE_SEED: u8 = 1;
/// A copy climbing towards lower IDs (BroadcastFromOrigin mode).
const STAGE_CLIMB: u8 = 2;
/// A copy descending towards higher IDs.
const STAGE_DESCEND: u8 = 3;

/// Tree protocol operating mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TreeMode {
    RootSerialized,
    BroadcastFromOrigin,
}

/// Tree protocol configuration.
#[derive(Clone, Copy, Debug)]
pub struct TreeConfig {
    pub mode: TreeMode,
    /// Stream the first child's copy in lockstep with reception when the
    /// port is free (the others always wait for full reassembly).
    pub cut_through_first: bool,
    pub reliability: Reliability,
}

impl TreeConfig {
    /// Store-and-forward, root-serialized, infinite buffers — Figure 10's
    /// tree curve.
    pub fn store_and_forward() -> Self {
        TreeConfig {
            mode: TreeMode::RootSerialized,
            cut_through_first: false,
            reliability: Reliability::None,
        }
    }
}

/// Per-host rooted-tree protocol instance.
pub struct TreeProtocol {
    host: HostId,
    cfg: TreeConfig,
    trees: Arc<HashMap<u8, MulticastTree>>,
    fwd: ReliableFwd,
    /// RootSerialized: the stamps (at the root) and the in-order delivery
    /// they make possible.
    order: Sequencer,
    /// Worms whose first-child copy was already issued at header time.
    forwarded_at_header: HashSet<WormId>,
}

impl TreeProtocol {
    pub fn new(
        host: HostId,
        cfg: TreeConfig,
        trees: Arc<HashMap<u8, MulticastTree>>,
    ) -> Self {
        TreeProtocol {
            host,
            cfg,
            trees,
            fwd: ReliableFwd::new(cfg.reliability),
            order: Sequencer::default(),
            forwarded_at_header: HashSet::new(),
        }
    }

    pub fn fwd_stats(&self) -> crate::reliable::FwdStats {
        self.fwd.stats
    }

    fn tree(&self, group: u8) -> &MulticastTree {
        self.trees
            .get(&group)
            .unwrap_or_else(|| panic!("no tree installed for group {group}"))
    }

    /// Children copies of a descending worm at this host. `skip_first` when
    /// the first copy was already issued via cut-through.
    fn descend_specs(&self, worm: &WormInstance, group: u8, skip_first: bool) -> Vec<SendSpec> {
        self.tree(group)
            .children(self.host)
            .iter()
            .skip(usize::from(skip_first))
            .map(|&c| {
                let mut spec = SendSpec::forward(worm, c);
                spec.stage = STAGE_DESCEND;
                spec.buffer_class = match self.cfg.mode {
                    TreeMode::RootSerialized => 1, // IDs only ever ascend
                    TreeMode::BroadcastFromOrigin => 2,
                };
                spec
            })
            .collect()
    }

    /// Forward a broadcast-mode worm to all tree neighbours except the one
    /// it arrived from.
    fn broadcast_specs(&self, worm: &WormInstance, group: u8, from: Option<HostId>) -> Vec<SendSpec> {
        let tree = self.tree(group);
        let mut specs = Vec::new();
        if let Some(p) = tree.parent(self.host) {
            if Some(p) != from {
                let mut spec = SendSpec::forward(worm, p);
                spec.stage = STAGE_CLIMB;
                spec.buffer_class = 1;
                specs.push(spec);
            }
        }
        for &c in tree.children(self.host) {
            if Some(c) != from {
                let mut spec = SendSpec::forward(worm, c);
                spec.stage = STAGE_DESCEND;
                spec.buffer_class = 2;
                specs.push(spec);
            }
        }
        specs
    }

    fn start_multicast(&mut self, ctx: &mut ProtocolCtx, msg: &AppMessage, group: u8) {
        let tree = self.trees.get(&group);
        let Some(tree) = tree else {
            return;
        };
        match self.cfg.mode {
            TreeMode::RootSerialized => {
                if self.host == tree.root() {
                    let seq = self.order.stamp(group);
                    for &c in tree.children(self.host) {
                        let mut spec = SendSpec::data(msg, c, WormKind::Multicast { group });
                        spec.stage = STAGE_DESCEND;
                        spec.seq = seq;
                        spec.buffer_class = 1;
                        self.fwd.forward(ctx, spec, None);
                    }
                } else {
                    let root = tree.root();
                    let mut spec = SendSpec::data(msg, root, WormKind::Multicast { group });
                    spec.stage = STAGE_SEED;
                    // Relaying to the root goes to a lower ID: class 2 under
                    // the ordering rule (a seed is a unicast-like transfer).
                    spec.buffer_class = 2;
                    self.fwd.forward(ctx, spec, None);
                }
            }
            TreeMode::BroadcastFromOrigin => {
                if !tree.contains(self.host) {
                    // Non-member originators seed the root instead.
                    let root = tree.root();
                    let mut spec = SendSpec::data(msg, root, WormKind::Multicast { group });
                    spec.stage = STAGE_SEED;
                    spec.buffer_class = 2;
                    self.fwd.forward(ctx, spec, None);
                    return;
                }
                // Build a synthetic "worm" spec set from the message.
                let tree_neighbors = tree.neighbors_except(self.host, None);
                for n in tree_neighbors {
                    let climbing = Some(n) == tree.parent(self.host);
                    let mut spec = SendSpec::data(msg, n, WormKind::Multicast { group });
                    spec.stage = if climbing { STAGE_CLIMB } else { STAGE_DESCEND };
                    spec.buffer_class = if climbing { 1 } else { 2 };
                    self.fwd.forward(ctx, spec, None);
                }
            }
        }
    }

    fn handle_multicast(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance, group: u8) {
        self.fwd.acknowledge(ctx, worm);
        if self.fwd.is_duplicate(worm.meta.msg) {
            // Re-ACKed above; the first copy's processing (and its buffer
            // accounting) already happened.
            return;
        }
        let from = worm.meta.injector;
        match (self.cfg.mode, worm.meta.stage) {
            (TreeMode::RootSerialized, STAGE_SEED) => {
                debug_assert_eq!(self.host, self.tree(group).root());
                if worm.meta.origin != self.host {
                    ctx.deliver_local(worm.meta.msg);
                }
                let seq = self.order.stamp(group);
                for mut spec in self.descend_specs(worm, group, false) {
                    spec.stage = STAGE_DESCEND;
                    spec.seq = seq;
                    self.fwd.forward(ctx, spec, Some(worm.meta.msg));
                }
                self.fwd.done_receiving(worm.meta.msg);
            }
            (TreeMode::RootSerialized, _) => {
                // The origin's own message coming back only advances the
                // cursor.
                let msg = (worm.meta.origin != self.host).then_some(worm.meta.msg);
                self.order.deliver_in_order(ctx, group, worm.meta.seq, msg);
                let skip_first = self.forwarded_at_header.remove(&worm.id);
                for spec in self.descend_specs(worm, group, skip_first) {
                    self.fwd.forward(ctx, spec, Some(worm.meta.msg));
                }
                self.fwd.done_receiving(worm.meta.msg);
            }
            (TreeMode::BroadcastFromOrigin, STAGE_SEED) => {
                // Non-member origin seeded the root: broadcast from here.
                debug_assert_eq!(self.host, self.tree(group).root());
                ctx.deliver_local(worm.meta.msg);
                for spec in self.broadcast_specs(worm, group, None) {
                    self.fwd.forward(ctx, spec, Some(worm.meta.msg));
                }
                self.fwd.done_receiving(worm.meta.msg);
            }
            (TreeMode::BroadcastFromOrigin, _) => {
                if worm.meta.origin != self.host {
                    ctx.deliver_local(worm.meta.msg);
                }
                let skip_first = self.forwarded_at_header.remove(&worm.id);
                let specs = self.broadcast_specs(worm, group, Some(from));
                for spec in specs.into_iter().skip(usize::from(skip_first)) {
                    self.fwd.forward(ctx, spec, Some(worm.meta.msg));
                }
                self.fwd.done_receiving(worm.meta.msg);
            }
        }
    }
}

impl AdapterProtocol for TreeProtocol {
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
            WormKind::Control(_) | WormKind::Unicast => Admission::Accept,
            WormKind::Multicast { group } => {
                let adm = self.fwd.admit(ctx, worm);
                if adm == Admission::Accept
                    && self.cfg.cut_through_first
                    && worm.meta.stage != STAGE_SEED
                    && ctx.tx_backlog == 0
                {
                    let first = match self.cfg.mode {
                        TreeMode::RootSerialized => {
                            self.descend_specs(worm, group, false).into_iter().next()
                        }
                        TreeMode::BroadcastFromOrigin => self
                            .broadcast_specs(worm, group, Some(worm.meta.injector))
                            .into_iter()
                            .next(),
                    };
                    if let Some(mut spec) = first {
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
                debug_assert!(consumed, "unknown control worm at tree protocol");
            }
            WormKind::Unicast => ctx.deliver_local(worm.meta.msg),
            WormKind::Multicast { group } => self.handle_multicast(ctx, worm, group),
            WormKind::SwitchMulticast { .. } => {
                unreachable!("switch-level multicast worm at a host-adapter protocol")
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtocolCtx, token: u64) {
        let handled = self.fwd.handle_timer(ctx, token);
        debug_assert!(handled, "tree protocol sets no timers of its own");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wormcast_sim::protocol::Command;
    use wormcast_sim::worm::{MessageId, WormMeta};
    use wormcast_topo::tree::TreeShape;

    /// Members {1,2,3,4,5} as a binary heap: 1 -> {2,3}, 2 -> {4,5}.
    fn setup() -> Arc<HashMap<u8, MulticastTree>> {
        let members: Vec<HostId> = (1..=5).map(HostId).collect();
        let tree = MulticastTree::build(&members, TreeShape::BinaryHeap, None);
        let mut trees = HashMap::new();
        trees.insert(0u8, tree);
        Arc::new(trees)
    }

    fn run_cb<F: FnOnce(&mut TreeProtocol, &mut ProtocolCtx)>(
        p: &mut TreeProtocol,
        host: HostId,
        backlog: usize,
        f: F,
    ) -> Vec<Command> {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut cmds = Vec::new();
        let mut ctx = ProtocolCtx::new(0, host, backlog, &mut rng, &mut cmds);
        f(p, &mut ctx);
        cmds
    }

    fn msg(origin: u32) -> AppMessage {
        AppMessage {
            msg: MessageId(1),
            origin: HostId(origin),
            dest: Destination::Multicast(0),
            payload_len: 400,
            created: 0,
        }
    }

    fn worm(origin: u32, injector: u32, stage: u8) -> WormInstance {
        WormInstance {
            id: WormId(11),
            sinks: 1,
            meta: WormMeta {
                kind: WormKind::Multicast { group: 0 },
                msg: MessageId(1),
                injector: HostId(injector),
                origin: HostId(origin),
                dest: HostId(0),
                seq: 0,
                hops_left: 0,
                buffer_class: 1,
                frag_index: 0,
                frag_last: true,
                advertised_size: 400,
                stage,
            },
            route: vec![],
            payload_len: 400,
            created: 0,
            injected: 0,
        }
    }

    fn sends(cmds: &[Command]) -> Vec<(HostId, u8, u8)> {
        cmds.iter()
            .filter_map(|c| match c {
                Command::Send(s) => Some((s.dest, s.stage, s.buffer_class)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn non_root_origin_seeds_the_root() {
        let t = setup();
        let mut p = TreeProtocol::new(HostId(4), TreeConfig::store_and_forward(), t);
        let cmds = run_cb(&mut p, HostId(4), 0, |p, ctx| p.on_generate(ctx, msg(4)));
        assert_eq!(sends(&cmds), vec![(HostId(1), STAGE_SEED, 2)]);
    }

    #[test]
    fn root_origin_multicasts_to_children() {
        let t = setup();
        let mut p = TreeProtocol::new(HostId(1), TreeConfig::store_and_forward(), t);
        let cmds = run_cb(&mut p, HostId(1), 0, |p, ctx| p.on_generate(ctx, msg(1)));
        assert_eq!(
            sends(&cmds),
            vec![
                (HostId(2), STAGE_DESCEND, 1),
                (HostId(3), STAGE_DESCEND, 1)
            ]
        );
    }

    #[test]
    fn root_on_seed_delivers_stamps_seq_and_descends() {
        let t = setup();
        let mut p = TreeProtocol::new(HostId(1), TreeConfig::store_and_forward(), t);
        let w = worm(4, 4, STAGE_SEED);
        let cmds = run_cb(&mut p, HostId(1), 0, |p, ctx| p.on_worm_received(ctx, &w));
        assert!(matches!(cmds[0], Command::DeliverLocal { .. }));
        let s = sends(&cmds);
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|&(_, stage, class)| stage == STAGE_DESCEND && class == 1));
    }

    #[test]
    fn interior_member_delivers_and_descends() {
        let t = setup();
        let mut p = TreeProtocol::new(HostId(2), TreeConfig::store_and_forward(), t);
        let w = worm(4, 1, STAGE_DESCEND);
        let cmds = run_cb(&mut p, HostId(2), 0, |p, ctx| p.on_worm_received(ctx, &w));
        assert!(matches!(cmds[0], Command::DeliverLocal { .. }));
        assert_eq!(
            sends(&cmds),
            vec![
                (HostId(4), STAGE_DESCEND, 1),
                (HostId(5), STAGE_DESCEND, 1)
            ]
        );
    }

    #[test]
    fn leaf_only_delivers() {
        let t = setup();
        let mut p = TreeProtocol::new(HostId(5), TreeConfig::store_and_forward(), t);
        let w = worm(4, 2, STAGE_DESCEND);
        let cmds = run_cb(&mut p, HostId(5), 0, |p, ctx| p.on_worm_received(ctx, &w));
        assert_eq!(cmds.len(), 1);
        assert!(matches!(cmds[0], Command::DeliverLocal { .. }));
    }

    #[test]
    fn origin_skips_its_own_delivery_in_descend() {
        let t = setup();
        let mut p = TreeProtocol::new(HostId(2), TreeConfig::store_and_forward(), t);
        let w = worm(2, 1, STAGE_DESCEND); // message 2 originated, seeded via root
        let cmds = run_cb(&mut p, HostId(2), 0, |p, ctx| p.on_worm_received(ctx, &w));
        assert!(
            !cmds.iter().any(|c| matches!(c, Command::DeliverLocal { .. })),
            "origin must not deliver its own message"
        );
        assert_eq!(sends(&cmds).len(), 2, "but still forwards to children");
    }

    #[test]
    fn broadcast_mode_origin_climbs_and_descends() {
        let t = setup();
        let cfg = TreeConfig {
            mode: TreeMode::BroadcastFromOrigin,
            cut_through_first: false,
            reliability: Reliability::None,
        };
        let mut p = TreeProtocol::new(HostId(2), cfg, t);
        let cmds = run_cb(&mut p, HostId(2), 0, |p, ctx| p.on_generate(ctx, msg(2)));
        assert_eq!(
            sends(&cmds),
            vec![
                (HostId(1), STAGE_CLIMB, 1),
                (HostId(4), STAGE_DESCEND, 2),
                (HostId(5), STAGE_DESCEND, 2)
            ]
        );
    }

    #[test]
    fn broadcast_mode_excludes_arrival_edge() {
        let t = setup();
        let cfg = TreeConfig {
            mode: TreeMode::BroadcastFromOrigin,
            cut_through_first: false,
            reliability: Reliability::None,
        };
        // Worm arrives at root 1 from child 2 (climbing): forward only to 3.
        let mut p = TreeProtocol::new(HostId(1), cfg, t);
        let w = worm(2, 2, STAGE_CLIMB);
        let cmds = run_cb(&mut p, HostId(1), 0, |p, ctx| p.on_worm_received(ctx, &w));
        assert!(matches!(cmds[0], Command::DeliverLocal { .. }));
        assert_eq!(sends(&cmds), vec![(HostId(3), STAGE_DESCEND, 2)]);
    }

    #[test]
    fn cut_through_first_child_only() {
        let t = setup();
        let cfg = TreeConfig {
            cut_through_first: true,
            ..TreeConfig::store_and_forward()
        };
        let mut p = TreeProtocol::new(HostId(2), cfg, t);
        let w = worm(4, 1, STAGE_DESCEND);
        let header_cmds = run_cb(&mut p, HostId(2), 0, |p, ctx| {
            assert_eq!(p.on_header(ctx, &w), Admission::Accept);
        });
        let hs = sends(&header_cmds);
        assert_eq!(hs.len(), 1, "only the first child cut-throughs");
        assert_eq!(hs[0].0, HostId(4));
        let rx_cmds = run_cb(&mut p, HostId(2), 1, |p, ctx| p.on_worm_received(ctx, &w));
        let rs = sends(&rx_cmds);
        assert_eq!(rs, vec![(HostId(5), STAGE_DESCEND, 1)], "second child after reassembly");
    }
}
