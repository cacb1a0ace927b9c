//! A dynamic multicast group manager — the paper's stated next step.
//!
//! Section 8: "The control process, the multicast group manager, is
//! currently a stub process but it is expected to develop into a more
//! complex program that will interact with multicast group managers on
//! other hosts and with the IP group management protocol." This module
//! develops it: a designated manager host owns the authoritative member
//! list of each group; hosts send **JOIN**/**LEAVE** control worms; the
//! manager versions every change and disseminates **UPDATE** worms to all
//! affected hosts, which apply them strictly in version order. Each
//! adapter then derives, per group, exactly the triple the paper's driver
//! needed — *(group, next hop, hop count)* — from its current local view.
//!
//! The data path is the Section 5 Hamiltonian circuit itself: each host
//! owns an [`HcProtocol`] (store-and-forward) and writes its local view into
//! that circuit's membership whenever an update applies. Joins and leaves
//! take one manager round trip plus one dissemination hop to converge;
//! worms in flight during a change follow the forwarding tables of the
//! hosts they traverse, like any routing update in a real network.
//!
//! Control-worm encoding note: the simulator's worms carry a small
//! out-of-band header rather than payload bytes, so the update fields ride
//! in header fields (`stage` = group, `hops_left` = subject host,
//! `seq` = version, `frag_index` = join/leave). A production LANai
//! program would place them in the first payload bytes.

use crate::group::{Membership, BROADCAST_GROUP};
use crate::hamiltonian::{HcConfig, HcProtocol};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use wormcast_sim::engine::HostId;
use wormcast_sim::protocol::{
    Admission, AdapterProtocol, AppMessage, Destination, ProtocolCtx, SendSpec,
};
use wormcast_sim::worm::{WormInstance, WormKind};

/// Control tags (continuing `crate::tags`' numbering).
pub const JOIN: u8 = 32;
pub const LEAVE: u8 = 33;
pub const UPDATE: u8 = 34;

/// A scripted membership operation, posted to the protocol through
/// [`wormcast_sim::Network::post_timer`] with the token from
/// [`ManagedHcProtocol::script`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroupOp {
    Join(u8),
    Leave(u8),
}

/// Add (`joined`) or remove `subject` in a sorted member list; false when
/// that changes nothing (a join of a member, a leave of a non-member).
fn toggle(members: &mut Vec<HostId>, subject: HostId, joined: bool) -> bool {
    match members.binary_search(&subject) {
        Ok(ix) if !joined => {
            members.remove(ix);
            true
        }
        Err(ix) if joined => {
            members.insert(ix, subject);
            true
        }
        _ => false,
    }
}

/// One group's state at the manager.
#[derive(Clone, Debug, Default)]
struct ManagedGroup {
    members: Vec<HostId>, // sorted
    version: u32,
    /// Full change log; entry `i` is version `i + 1`. A joining host is
    /// brought up to date by replaying it (a production manager would send
    /// a snapshot; the log is equivalent and keeps updates uniform).
    log: Vec<(HostId, bool)>,
}

/// One group's state at a member (local view).
#[derive(Clone, Debug, Default)]
struct LocalGroup {
    members: Vec<HostId>, // sorted
    version: u32,
    /// Updates that arrived ahead of order, keyed by version.
    pending: BTreeMap<u32, (HostId, bool)>,
}

impl LocalGroup {
    fn apply(&mut self, version: u32, subject: HostId, joined: bool) {
        if version <= self.version {
            return; // duplicate / stale
        }
        self.pending.insert(version, (subject, joined));
        while let Some((subject, joined)) = self.pending.remove(&(self.version + 1)) {
            self.version += 1;
            toggle(&mut self.members, subject, joined);
        }
    }
}

/// Hamiltonian-circuit multicast over manager-maintained dynamic groups.
pub struct ManagedHcProtocol {
    host: HostId,
    manager: HostId,
    /// Scripted ops, fired by externally posted timers.
    script: HashMap<u64, GroupOp>,
    next_token: u64,
    /// Local membership views (updated by UPDATE worms).
    local: HashMap<u8, LocalGroup>,
    /// Authoritative state (manager host only).
    authority: HashMap<u8, ManagedGroup>,
    /// The data path, running over the local views.
    hc: HcProtocol,
    pub updates_applied: u64,
}

impl ManagedHcProtocol {
    pub fn new(host: HostId, manager: HostId) -> Self {
        ManagedHcProtocol {
            host,
            manager,
            script: HashMap::new(),
            next_token: 1,
            local: HashMap::new(),
            authority: HashMap::new(),
            hc: HcProtocol::new(host, HcConfig::store_and_forward(), Arc::new(Membership::new())),
            updates_applied: 0,
        }
    }

    /// Register a membership operation and return the timer token to post
    /// via [`wormcast_sim::Network::post_timer`] at the desired time.
    pub fn script(&mut self, op: GroupOp) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.script.insert(token, op);
        token
    }

    /// The current local member view of a group (sorted).
    pub fn members(&self, group: u8) -> &[HostId] {
        self.hc.membership().members(group)
    }

    /// Apply update `version` of `group` to the local view and hand the
    /// resulting member list to the circuit.
    fn apply_update(&mut self, group: u8, version: u32, subject: HostId, joined: bool) {
        let g = self.local.entry(group).or_default();
        g.apply(version, subject, joined);
        self.hc.set_members(group, g.members.clone());
        self.updates_applied += 1;
    }

    /// Manager side: apply an op, bump the version, disseminate.
    fn manage(&mut self, ctx: &mut ProtocolCtx, group: u8, subject: HostId, joined: bool) {
        debug_assert_eq!(self.host, self.manager);
        let g = self.authority.entry(group).or_default();
        if !toggle(&mut g.members, subject, joined) {
            return;
        }
        g.version += 1;
        g.log.push((subject, joined));
        let version = g.version;
        // Disseminate the new version to everyone affected: current members
        // plus the subject (a leaver must learn its leave took effect). A
        // joiner additionally gets the whole log so its view starts from
        // version 1. The manager applies locally without a worm.
        let mut targets = g.members.clone();
        if let Err(ix) = targets.binary_search(&subject) {
            targets.insert(ix, subject);
        }
        let log = g.log.clone();
        self.apply_update(group, version, subject, joined);
        for t in targets {
            if t == self.host {
                continue;
            }
            let range = if joined && t == subject {
                1..=version // full history for the joiner
            } else {
                version..=version
            };
            for v in range {
                let (subj, j) = log[(v - 1) as usize];
                let mut upd = SendSpec::control(UPDATE, worm_msg_id(group, v), self.host, t);
                upd.stage = group;
                upd.seq = v;
                upd.hops_left = subj.0 as u16;
                upd.frag_index = u16::from(j);
                ctx.send(upd);
            }
        }
    }
}

/// Synthetic message ids for control worms (never delivered as messages).
fn worm_msg_id(group: u8, version: u32) -> wormcast_sim::worm::MessageId {
    wormcast_sim::worm::MessageId(((group as u64) << 40) | version as u64 | (1 << 60))
}

impl AdapterProtocol for ManagedHcProtocol {
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, msg: AppMessage) {
        debug_assert_ne!(msg.dest, Destination::Multicast(BROADCAST_GROUP));
        self.hc.on_generate(ctx, msg);
    }

    fn on_header(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) -> Admission {
        self.hc.on_header(ctx, worm)
    }

    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        match worm.meta.kind {
            WormKind::Control(JOIN) | WormKind::Control(LEAVE) => {
                let joined = matches!(worm.meta.kind, WormKind::Control(JOIN));
                let group = worm.meta.stage;
                let subject = worm.meta.injector;
                self.manage(ctx, group, subject, joined);
            }
            WormKind::Control(UPDATE) => {
                let group = worm.meta.stage;
                let subject = HostId(worm.meta.hops_left as u32);
                let joined = worm.meta.frag_index == 1;
                self.apply_update(group, worm.meta.seq, subject, joined);
            }
            _ => self.hc.on_worm_received(ctx, worm),
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtocolCtx, token: u64) {
        let Some(op) = self.script.remove(&token) else {
            // A script token fires once and is stale after; a token the
            // script never issued is the circuit's.
            if !(1..self.next_token).contains(&token) {
                self.hc.on_timer(ctx, token);
            }
            return;
        };
        let (group, joined) = match op {
            GroupOp::Join(g) => (g, true),
            GroupOp::Leave(g) => (g, false),
        };
        if self.host == self.manager {
            self.manage(ctx, group, self.host, joined);
        } else {
            let tag = if joined { JOIN } else { LEAVE };
            let mut req = SendSpec::control(tag, worm_msg_id(group, 0), self.host, self.manager);
            req.stage = group;
            ctx.send(req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wormcast_sim::protocol::Command;

    fn run_cb<F: FnOnce(&mut ManagedHcProtocol, &mut ProtocolCtx)>(
        p: &mut ManagedHcProtocol,
        f: F,
    ) -> Vec<Command> {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut cmds = Vec::new();
        let mut ctx = ProtocolCtx::new(0, p.host, 0, &mut rng, &mut cmds);
        f(p, &mut ctx);
        cmds
    }

    #[test]
    fn local_updates_apply_in_version_order() {
        let mut g = LocalGroup::default();
        // Version 2 arrives before version 1: held back.
        g.apply(2, HostId(5), true);
        assert!(g.members.is_empty());
        g.apply(1, HostId(3), true);
        assert_eq!(g.members, vec![HostId(3), HostId(5)]);
        assert_eq!(g.version, 2);
        // Duplicate and stale versions are ignored.
        g.apply(2, HostId(9), true);
        assert_eq!(g.members, vec![HostId(3), HostId(5)]);
        g.apply(3, HostId(3), false);
        assert_eq!(g.members, vec![HostId(5)]);
    }

    #[test]
    fn manager_versions_and_disseminates() {
        let mut mgr = ManagedHcProtocol::new(HostId(0), HostId(0));
        let t = mgr.script(GroupOp::Join(4));
        let cmds = run_cb(&mut mgr, |p, ctx| p.on_timer(ctx, t));
        // Manager joined its own group: no member needs an update worm yet.
        assert!(cmds.is_empty(), "{cmds:?}");
        assert_eq!(mgr.members(4), &[HostId(0)]);
        // A remote join triggers dissemination to the other member(s).
        let join = WormInstance {
            id: wormcast_sim::worm::WormId(0),
            sinks: 1,
            meta: wormcast_sim::worm::WormMeta {
                kind: WormKind::Control(JOIN),
                msg: worm_msg_id(4, 0),
                injector: HostId(3),
                origin: HostId(3),
                dest: HostId(0),
                seq: 0,
                hops_left: 0,
                buffer_class: 1,
                frag_index: 0,
                frag_last: true,
                advertised_size: 0,
                stage: 4,
            },
            route: vec![],
            payload_len: 4,
            created: 0,
            injected: 0,
        };
        let cmds = run_cb(&mut mgr, |p, ctx| p.on_worm_received(ctx, &join));
        assert_eq!(mgr.members(4), &[HostId(0), HostId(3)]);
        let updates: Vec<&SendSpec> = cmds
            .iter()
            .filter_map(|c| match c {
                Command::Send(s) if s.kind == WormKind::Control(UPDATE) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(updates.len(), 2, "the joiner gets the full log");
        assert!(updates.iter().all(|u| u.dest == HostId(3)));
        assert_eq!(updates[0].seq, 1);
        assert_eq!(updates[1].seq, 2, "its own join is the second version");
        assert_eq!(updates[1].frag_index, 1, "a join");
    }

    #[test]
    fn member_sends_join_to_manager() {
        let mut p = ManagedHcProtocol::new(HostId(7), HostId(0));
        let t = p.script(GroupOp::Join(2));
        let cmds = run_cb(&mut p, |p, ctx| p.on_timer(ctx, t));
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.kind, WormKind::Control(JOIN));
                assert_eq!(s.dest, HostId(0));
                assert_eq!(s.stage, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Stale token: no effect.
        let cmds = run_cb(&mut p, |p, ctx| p.on_timer(ctx, t));
        assert!(cmds.is_empty());
    }

    #[test]
    fn data_path_follows_local_view() {
        let mut p = ManagedHcProtocol::new(HostId(3), HostId(0));
        // Version 3 arrives first and waits for 1 and 2.
        p.apply_update(6, 3, HostId(8), true);
        p.apply_update(6, 1, HostId(1), true);
        p.apply_update(6, 2, HostId(3), true);
        assert_eq!(p.members(6), &[HostId(1), HostId(3), HostId(8)]);
        let msg = AppMessage {
            msg: wormcast_sim::worm::MessageId(9),
            origin: HostId(3),
            dest: Destination::Multicast(6),
            payload_len: 200,
            created: 0,
        };
        let cmds = run_cb(&mut p, |p, ctx| p.on_generate(ctx, msg));
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.dest, HostId(8), "ascending successor");
                assert_eq!(s.hops_left, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Host 8 leaves: the circuit now wraps from 3 to 1, in class 2.
        p.apply_update(6, 4, HostId(8), false);
        let cmds = run_cb(&mut p, |p, ctx| p.on_generate(ctx, msg));
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.dest, HostId(1));
                assert_eq!(s.hops_left, 1);
                assert_eq!(s.buffer_class, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sets no timers of its own")]
    fn unknown_timer_token_reaches_the_circuit() {
        let mut p = ManagedHcProtocol::new(HostId(7), HostId(0));
        p.script(GroupOp::Join(2));
        run_cb(&mut p, |p, ctx| p.on_timer(ctx, 99));
    }
}
