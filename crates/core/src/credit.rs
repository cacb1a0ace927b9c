//! The centralized credit-manager baseline (Verstoep/Langendoen/Bal,
//! IR-399, 1996), which the paper contrasts with its optimistic
//! acquire-as-you-go approach.
//!
//! Before multicasting, a source must obtain a **cumulative buffer credit**
//! for all destinations from a designated manager host. Grants are issued
//! in sequence (total ordering and feedback congestion control for free),
//! the multicast then runs over a precomputed heap-ordered binary tree, and
//! the manager replenishes its pool with a periodic **credit-gathering
//! token** that circulates among the hosts collecting freed buffer space.
//!
//! The costs the paper calls out are structural and visible in the
//! ablation benches: every multicast pays a request/grant round trip
//! before its first byte moves, buffer credit is held far longer than the
//! buffers are actually used (until the token comes around), and the
//! manager is a single point of failure.

use crate::group::Membership;
use crate::tags;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use wormcast_sim::engine::HostId;
use wormcast_sim::protocol::{
    AdapterProtocol, AppMessage, Destination, ProtocolCtx, SendSpec,
};
use wormcast_sim::time::SimTime;
use wormcast_sim::worm::{MessageId, WormInstance, WormKind};
use wormcast_topo::tree::MulticastTree;

const STAGE_SEED: u8 = 1;

/// Timer token for the manager's periodic token launch.
const TOKEN_TIMER: u64 = 0x43_52_45_44; // "CRED"

/// Credit-scheme configuration (shared by all hosts).
#[derive(Clone, Copy, Debug)]
pub struct CreditConfig {
    /// The designated credit manager.
    pub manager: HostId,
    pub num_hosts: u32,
    /// Manager's initial credit pool, in bytes of destination buffering.
    pub initial_credits: u64,
    /// Period of the credit-gathering token.
    pub token_period: SimTime,
}

/// Counters for the ablation study.
#[derive(Clone, Copy, Debug, Default)]
pub struct CreditStats {
    pub requests: u64,
    pub grants: u64,
    /// Requests that had to queue for credits.
    pub queued: u64,
    pub tokens_completed: u64,
    pub credits_recovered: u64,
}

/// Per-host credit protocol instance.
pub struct CreditProtocol {
    host: HostId,
    cfg: CreditConfig,
    groups: Arc<Membership>,
    trees: Arc<HashMap<u8, MulticastTree>>,
    /// Origin side: messages awaiting a grant.
    waiting: HashMap<MessageId, AppMessage>,
    /// Manager side.
    credits: u64,
    grant_queue: VecDeque<(MessageId, HostId, u64)>,
    grant_seq: u32,
    token_out: bool,
    token_started: bool,
    /// Member side: buffer bytes freed since the token last passed.
    freed: u64,
    pub stats: CreditStats,
}

impl CreditProtocol {
    pub fn new(
        host: HostId,
        cfg: CreditConfig,
        groups: Arc<Membership>,
        trees: Arc<HashMap<u8, MulticastTree>>,
    ) -> Self {
        CreditProtocol {
            host,
            cfg,
            groups,
            trees,
            waiting: HashMap::new(),
            credits: cfg.initial_credits,
            grant_queue: VecDeque::new(),
            grant_seq: 0,
            token_out: false,
            token_started: false,
            freed: 0,
            stats: CreditStats::default(),
        }
    }

    fn is_manager(&self) -> bool {
        self.host == self.cfg.manager
    }

    /// Cost of a multicast: payload bytes buffered at every destination.
    fn cost(&self, msg: &AppMessage, group: u8) -> u64 {
        let receivers = self.groups.expected_deliveries(group, msg.origin) as u64;
        receivers * msg.payload_len as u64
    }

    /// Next host on the token ring (ascending IDs, wrapping), starting and
    /// ending at the manager.
    fn ring_next(&self, h: HostId) -> HostId {
        HostId((h.0 + 1) % self.cfg.num_hosts)
    }

    /// Manager: issue queued grants while credits last (FIFO, so grants —
    /// and therefore multicast sequence numbers — are totally ordered).
    fn try_grants(&mut self, ctx: &mut ProtocolCtx) {
        while let Some(&(msg, origin, cost)) = self.grant_queue.front() {
            if cost > self.credits {
                break;
            }
            self.grant_queue.pop_front();
            self.credits -= cost;
            self.grant_seq += 1;
            self.stats.grants += 1;
            if origin == self.host {
                let seq = self.grant_seq;
                self.launch_granted(ctx, msg, seq);
            } else {
                let mut grant = SendSpec::control(tags::CREDIT_GRANT, msg, self.host, origin);
                grant.seq = self.grant_seq;
                ctx.send(grant);
            }
        }
    }

    /// Origin: a grant arrived (or was issued locally) — start the tree
    /// multicast.
    fn launch_granted(&mut self, ctx: &mut ProtocolCtx, msg_id: MessageId, grant_seq: u32) {
        let Some(msg) = self.waiting.remove(&msg_id) else {
            return;
        };
        let Destination::Multicast(group) = msg.dest else {
            unreachable!("only multicasts wait for grants")
        };
        let Some(tree) = self.trees.get(&group) else {
            return;
        };
        if self.host == tree.root() {
            for &c in tree.children(self.host) {
                let mut spec = SendSpec::data(&msg, c, WormKind::Multicast { group });
                spec.seq = grant_seq;
                ctx.send(spec);
            }
        } else {
            let mut spec = SendSpec::data(&msg, tree.root(), WormKind::Multicast { group });
            spec.stage = STAGE_SEED;
            spec.seq = grant_seq;
            ctx.send(spec);
        }
    }

    fn handle_data(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance, group: u8) {
        let tree = match self.trees.get(&group) {
            Some(t) => t,
            None => return,
        };
        if worm.meta.stage == STAGE_SEED {
            debug_assert_eq!(self.host, tree.root());
            if worm.meta.origin != self.host && self.groups.is_member(group, self.host) {
                ctx.deliver_local(worm.meta.msg);
                self.freed = self.freed.saturating_add(worm.payload_len as u64);
            }
            for &c in tree.children(self.host) {
                let mut spec = SendSpec::forward(worm, c);
                spec.stage = 0;
                ctx.send(spec);
            }
        } else {
            if worm.meta.origin != self.host {
                ctx.deliver_local(worm.meta.msg);
                // The destination buffer is freed once the host consumes the
                // message; the credit is recovered only when the token
                // passes — that lag is the scheme's inefficiency.
                self.freed = self.freed.saturating_add(worm.payload_len as u64);
            }
            for &c in tree.children(self.host) {
                let mut spec = SendSpec::forward(worm, c);
                spec.stage = 0;
                ctx.send(spec);
            }
        }
    }

    fn handle_control(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance, tag: u8) {
        match tag {
            tags::CREDIT_REQ => {
                debug_assert!(self.is_manager(), "request at a non-manager host");
                let cost = worm.meta.seq as u64;
                if cost > self.credits {
                    self.stats.queued += 1;
                }
                self.grant_queue
                    .push_back((worm.meta.msg, worm.meta.injector, cost));
                self.try_grants(ctx);
            }
            tags::CREDIT_GRANT => {
                let seq = worm.meta.seq;
                self.launch_granted(ctx, worm.meta.msg, seq);
            }
            tags::CREDIT_TOKEN => {
                let gathered = worm.meta.seq as u64 + std::mem::take(&mut self.freed);
                if self.is_manager() {
                    // Token came home: recover credits, relaunch later.
                    self.credits = self.credits.saturating_add(gathered);
                    self.stats.tokens_completed += 1;
                    self.stats.credits_recovered += gathered;
                    self.token_out = false;
                    self.try_grants(ctx);
                } else {
                    let next = self.ring_next(self.host);
                    let mut tok =
                        SendSpec::control(tags::CREDIT_TOKEN, worm.meta.msg, self.host, next);
                    tok.seq = gathered.min(u32::MAX as u64) as u32;
                    ctx.send(tok);
                }
            }
            other => unreachable!("unexpected control tag {other} at credit protocol"),
        }
    }
}

impl AdapterProtocol for CreditProtocol {
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, msg: AppMessage) {
        // Arm the manager's token timer on first activity.
        if self.is_manager() && !self.token_started {
            self.token_started = true;
            ctx.set_timer(self.cfg.token_period, TOKEN_TIMER);
        }
        match msg.dest {
            Destination::Unicast(d) => {
                ctx.send(SendSpec::data(&msg, d, WormKind::Unicast));
            }
            Destination::Multicast(group) => {
                let cost = self.cost(&msg, group);
                self.waiting.insert(msg.msg, msg);
                self.stats.requests += 1;
                if self.is_manager() {
                    self.grant_queue.push_back((msg.msg, self.host, cost));
                    self.try_grants(ctx);
                } else {
                    let mut req =
                        SendSpec::control(tags::CREDIT_REQ, msg.msg, self.host, self.cfg.manager);
                    req.seq = cost.min(u32::MAX as u64) as u32;
                    ctx.send(req);
                }
            }
        }
    }

    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        match worm.meta.kind {
            WormKind::Unicast => ctx.deliver_local(worm.meta.msg),
            WormKind::Multicast { group } => self.handle_data(ctx, worm, group),
            WormKind::Control(tag) => self.handle_control(ctx, worm, tag),
            WormKind::SwitchMulticast { .. } => {
                unreachable!("switch-level multicast worm at a host-adapter protocol")
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtocolCtx, token: u64) {
        debug_assert_eq!(token, TOKEN_TIMER);
        if !self.is_manager() {
            return;
        }
        if !self.token_out && self.cfg.num_hosts > 1 {
            self.token_out = true;
            let next = self.ring_next(self.host);
            let mut tok = SendSpec::control(
                tags::CREDIT_TOKEN,
                MessageId(u64::MAX), // token worms carry no message
                self.host,
                next,
            );
            tok.seq = std::mem::take(&mut self.freed).min(u32::MAX as u64) as u32;
            ctx.send(tok);
        }
        ctx.set_timer(self.cfg.token_period, TOKEN_TIMER);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wormcast_sim::protocol::Command;
    use wormcast_sim::worm::{WormId, WormMeta};
    use wormcast_topo::tree::TreeShape;

    fn setup() -> (Arc<Membership>, Arc<HashMap<u8, MulticastTree>>) {
        let members: Vec<HostId> = vec![HostId(0), HostId(1), HostId(2), HostId(3)];
        let groups = Membership::from_groups([(0u8, members.clone())]);
        let tree = MulticastTree::build(&members, TreeShape::BinaryHeap, None);
        let mut trees = HashMap::new();
        trees.insert(0u8, tree);
        (groups, Arc::new(trees))
    }

    fn cfg() -> CreditConfig {
        CreditConfig {
            manager: HostId(0),
            num_hosts: 4,
            initial_credits: 10_000,
            token_period: 50_000,
        }
    }

    fn run_cb<F: FnOnce(&mut CreditProtocol, &mut ProtocolCtx)>(
        p: &mut CreditProtocol,
        f: F,
    ) -> Vec<Command> {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut cmds = Vec::new();
        let mut ctx = ProtocolCtx::new(0, p.host, 0, &mut rng, &mut cmds);
        f(p, &mut ctx);
        cmds
    }

    fn mcast(origin: u32, payload: u32) -> AppMessage {
        AppMessage {
            msg: MessageId(7),
            origin: HostId(origin),
            dest: Destination::Multicast(0),
            payload_len: payload,
            created: 0,
        }
    }

    #[test]
    fn origin_requests_credit_before_sending() {
        let (g, t) = setup();
        let mut p = CreditProtocol::new(HostId(2), cfg(), g, t);
        let cmds = run_cb(&mut p, |p, ctx| p.on_generate(ctx, mcast(2, 1000)));
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.kind, WormKind::Control(tags::CREDIT_REQ));
                assert_eq!(s.dest, HostId(0));
                assert_eq!(s.seq, 3000, "3 receivers x 1000 bytes");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.stats.requests, 1);
    }

    #[test]
    fn manager_grants_in_fifo_and_deducts() {
        let (g, t) = setup();
        let mut p = CreditProtocol::new(HostId(0), cfg(), g, t);
        let req = |msg: u64, from: u32, cost: u32| WormInstance {
            id: WormId(0),
            sinks: 1,
            meta: WormMeta {
                kind: WormKind::Control(tags::CREDIT_REQ),
                msg: MessageId(msg),
                injector: HostId(from),
                origin: HostId(from),
                dest: HostId(0),
                seq: cost,
                hops_left: 0,
                buffer_class: 1,
                frag_index: 0,
                frag_last: true,
                advertised_size: 0,
                stage: 0,
            },
            route: vec![],
            payload_len: 4,
            created: 0,
            injected: 0,
        };
        let c1 = run_cb(&mut p, |p, ctx| p.on_worm_received(ctx, &req(1, 2, 6000)));
        assert_eq!(c1.len(), 1, "grant issued");
        assert_eq!(p.credits, 4000);
        // Second request exceeds remaining credits: queued, not granted.
        let c2 = run_cb(&mut p, |p, ctx| p.on_worm_received(ctx, &req(2, 3, 6000)));
        assert!(c2.is_empty(), "no credits left: {c2:?}");
        assert_eq!(p.stats.queued, 1);
        // Token returns with recovered credits: the queued grant fires.
        let mut tok = req(99, 3, 0);
        tok.meta.kind = WormKind::Control(tags::CREDIT_TOKEN);
        tok.meta.seq = 6000;
        p.token_out = true;
        let c3 = run_cb(&mut p, |p, ctx| p.on_worm_received(ctx, &tok));
        assert_eq!(c3.len(), 1, "queued grant released: {c3:?}");
        assert_eq!(p.stats.tokens_completed, 1);
        assert_eq!(p.credits, 4000, "4000 + 6000 recovered - 6000 granted");
    }

    #[test]
    fn grant_launches_tree_multicast() {
        let (g, t) = setup();
        let mut p = CreditProtocol::new(HostId(2), cfg(), g, t);
        let _ = run_cb(&mut p, |p, ctx| p.on_generate(ctx, mcast(2, 1000)));
        let grant = WormInstance {
            id: WormId(1),
            sinks: 1,
            meta: WormMeta {
                kind: WormKind::Control(tags::CREDIT_GRANT),
                msg: MessageId(7),
                injector: HostId(0),
                origin: HostId(0),
                dest: HostId(2),
                seq: 41,
                hops_left: 0,
                buffer_class: 1,
                frag_index: 0,
                frag_last: true,
                advertised_size: 0,
                stage: 0,
            },
            route: vec![],
            payload_len: 4,
            created: 0,
            injected: 0,
        };
        let cmds = run_cb(&mut p, |p, ctx| p.on_worm_received(ctx, &grant));
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.dest, HostId(0), "seed to tree root");
                assert_eq!(s.stage, STAGE_SEED);
                assert_eq!(s.seq, 41, "grant sequence stamps the multicast");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn token_accumulates_freed_credits_around_the_ring() {
        let (g, t) = setup();
        let mut p = CreditProtocol::new(HostId(2), cfg(), g, t);
        p.freed = 500;
        let tok = WormInstance {
            id: WormId(0),
            sinks: 1,
            meta: WormMeta {
                kind: WormKind::Control(tags::CREDIT_TOKEN),
                msg: MessageId(0xFF),
                injector: HostId(1),
                origin: HostId(0),
                dest: HostId(2),
                seq: 300,
                hops_left: 0,
                buffer_class: 1,
                frag_index: 0,
                frag_last: true,
                advertised_size: 0,
                stage: 0,
            },
            route: vec![],
            payload_len: 4,
            created: 0,
            injected: 0,
        };
        let cmds = run_cb(&mut p, |p, ctx| p.on_worm_received(ctx, &tok));
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.dest, HostId(3), "next on the ring");
                assert_eq!(s.seq, 800, "300 gathered + 500 freed here");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(p.freed, 0, "freed credits surrendered to the token");
    }
}
