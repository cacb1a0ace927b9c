//! The baseline: repeated unicast from the source.
//!
//! This is what stock Myrinet host software does ("repeated transmission of
//! copies of the multicast message from the source to all destinations").
//! It is perfectly reliable but ties up the source interface for the whole
//! multicast — latency grows linearly in the group size — and cannot
//! enforce total ordering. The paper's protocols are measured against it
//! (ablation A3).
//!
//! The `broadcast_filter` option models the other stock facility the paper
//! mentions: broadcast by multicopy unicast to *every* host, with
//! receiving hosts filtering out groups they do not belong to — "wasteful
//! of both network link resources ... and of host resources in filtering".

use crate::group::Membership;
use std::sync::Arc;
use wormcast_sim::engine::HostId;
use wormcast_sim::protocol::{
    AdapterProtocol, AppMessage, Destination, ProtocolCtx, SendSpec,
};
use wormcast_sim::worm::{WormInstance, WormKind};

/// Configuration of the repeated-unicast baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnicastRepeatConfig {
    /// Send a copy to *every* host (not just members) and filter at the
    /// receivers — the broadcast-based multicast of Section 2.
    pub broadcast_filter: bool,
    /// Total number of hosts (needed for `broadcast_filter`).
    pub num_hosts: u32,
}

/// Per-host repeated-unicast protocol instance.
pub struct UnicastRepeatProtocol {
    host: HostId,
    cfg: UnicastRepeatConfig,
    groups: Arc<Membership>,
    /// Worms received for groups we are not members of and filtered out
    /// (wasted reception work; the baseline's inefficiency measure).
    pub filtered: u64,
}

impl UnicastRepeatProtocol {
    pub fn new(host: HostId, cfg: UnicastRepeatConfig, groups: Arc<Membership>) -> Self {
        if cfg.broadcast_filter {
            assert!(cfg.num_hosts > 0, "broadcast_filter needs num_hosts");
        }
        UnicastRepeatProtocol {
            host,
            cfg,
            groups,
            filtered: 0,
        }
    }
}

impl AdapterProtocol for UnicastRepeatProtocol {
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, msg: AppMessage) {
        match msg.dest {
            Destination::Unicast(d) => {
                ctx.send(SendSpec::data(&msg, d, WormKind::Unicast));
            }
            Destination::Multicast(group) => {
                if self.cfg.broadcast_filter {
                    for h in 0..self.cfg.num_hosts {
                        let dest = HostId(h);
                        if dest != self.host {
                            ctx.send(SendSpec::data(&msg, dest, WormKind::Multicast { group }));
                        }
                    }
                } else {
                    // The member list is the paper's "repeated unicast":
                    // one serialized copy per destination.
                    for &dest in self.groups.members(group) {
                        if dest != self.host {
                            ctx.send(SendSpec::data(&msg, dest, WormKind::Multicast { group }));
                        }
                    }
                }
            }
        }
    }

    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        match worm.meta.kind {
            WormKind::Unicast => ctx.deliver_local(worm.meta.msg),
            WormKind::Multicast { group } => {
                if self.groups.is_member(group, self.host) {
                    ctx.deliver_local(worm.meta.msg);
                } else {
                    // Receiver-side filtering: work done for nothing.
                    self.filtered += 1;
                }
            }
            other => unreachable!("unexpected worm kind {other:?} at repeated-unicast host"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wormcast_sim::protocol::Command;
    use wormcast_sim::worm::{MessageId, WormId, WormMeta};

    fn groups() -> Arc<Membership> {
        Membership::from_groups([(2u8, vec![HostId(0), HostId(2), HostId(3)])])
    }

    fn run_cb<F: FnOnce(&mut UnicastRepeatProtocol, &mut ProtocolCtx)>(
        p: &mut UnicastRepeatProtocol,
        f: F,
    ) -> Vec<Command> {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut cmds = Vec::new();
        let mut ctx = ProtocolCtx::new(0, p.host, 0, &mut rng, &mut cmds);
        f(p, &mut ctx);
        cmds
    }

    fn mcast_msg(origin: u32) -> AppMessage {
        AppMessage {
            msg: MessageId(5),
            origin: HostId(origin),
            dest: Destination::Multicast(2),
            payload_len: 100,
            created: 0,
        }
    }

    fn rx_worm(group: u8) -> WormInstance {
        WormInstance {
            id: WormId(0),
            sinks: 1,
            meta: WormMeta {
                kind: WormKind::Multicast { group },
                msg: MessageId(5),
                injector: HostId(0),
                origin: HostId(0),
                dest: HostId(1),
                seq: 0,
                hops_left: 0,
                buffer_class: 1,
                frag_index: 0,
                frag_last: true,
                advertised_size: 100,
                stage: 0,
            },
            route: vec![],
            payload_len: 100,
            created: 0,
            injected: 0,
        }
    }

    #[test]
    fn sends_one_copy_per_other_member() {
        let mut p = UnicastRepeatProtocol::new(
            HostId(2),
            UnicastRepeatConfig::default(),
            groups(),
        );
        let cmds = run_cb(&mut p, |p, ctx| p.on_generate(ctx, mcast_msg(2)));
        let dests: Vec<HostId> = cmds
            .iter()
            .filter_map(|c| match c {
                Command::Send(s) => Some(s.dest),
                _ => None,
            })
            .collect();
        assert_eq!(dests, vec![HostId(0), HostId(3)]);
    }

    #[test]
    fn broadcast_filter_sends_to_everyone() {
        let cfg = UnicastRepeatConfig {
            broadcast_filter: true,
            num_hosts: 5,
        };
        let mut p = UnicastRepeatProtocol::new(HostId(2), cfg, groups());
        let cmds = run_cb(&mut p, |p, ctx| p.on_generate(ctx, mcast_msg(2)));
        assert_eq!(cmds.len(), 4, "everyone but self");
    }

    #[test]
    fn members_deliver_nonmembers_filter() {
        let mut p = UnicastRepeatProtocol::new(
            HostId(3),
            UnicastRepeatConfig::default(),
            groups(),
        );
        let cmds = run_cb(&mut p, |p, ctx| p.on_worm_received(ctx, &rx_worm(2)));
        assert!(matches!(cmds[0], Command::DeliverLocal { .. }));
        assert_eq!(p.filtered, 0);

        let mut q = UnicastRepeatProtocol::new(
            HostId(1),
            UnicastRepeatConfig::default(),
            groups(),
        );
        let cmds = run_cb(&mut q, |p, ctx| p.on_worm_received(ctx, &rx_worm(2)));
        assert!(cmds.is_empty(), "non-member filters: {cmds:?}");
        assert_eq!(q.filtered, 1);
    }
}
