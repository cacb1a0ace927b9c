//! Host-side support for switch-level multicast (Section 3).
//!
//! When replication happens inside the crossbar switches, the host
//! adapter's job shrinks to (a) computing the linearized tree source route
//! of Figure 2 (or the to-root + broadcast-address route), (b) injecting
//! the worm, and (c) filtering/delivering at the receivers. The deadlock
//! machinery lives in the fabric (`wormcast_sim::switchcast`); the three
//! Section 3 variants map to [`wormcast_sim::switchcast::SwitchcastMode`]:
//!
//! * **V1 / RestrictedIdle** — all routes restricted to the up/down
//!   spanning tree; blocked multicasts fill their branches with IDLEs.
//!   Multicasts start at the *origin* (directive from the origin's switch).
//! * **V2 / RootedInterrupt** — multicasts are serialized through the
//!   up/down root (route = unicast to root + directive from the root);
//!   blocked multicasts interrupt and resume as fragments.
//! * **V3 / IdleFlush** — like V1, but a unicast stuck behind a
//!   multicast-IDLE port is flushed (Backward Reset) and retransmitted by
//!   its source "after a random time out" — implemented here in
//!   [`SwitchcastProtocol::on_worm_flushed`].
//! * **Broadcast** — the Section 3 special case: a unicast route to the
//!   root followed by the one-byte broadcast address; switches flood all
//!   down-tree links and host ports. Receivers filter by group, like the
//!   stock Myrinet broadcast facility.

use crate::group::Membership;
use std::collections::HashMap;
use std::sync::Arc;
use wormcast_sim::engine::HostId;
use wormcast_sim::fabric::RouteTable;
use wormcast_sim::protocol::{
    AdapterProtocol, AppMessage, Destination, ProtocolCtx, SendSpec,
};
use wormcast_sim::switchcast::{merge_paths, SwitchcastMode};
use wormcast_sim::time::SimTime;
use wormcast_sim::worm::{RouteSym, WormInstance, WormKind};
use wormcast_topo::{Topology, UpDown};

/// Which Section 3 scheme the hosts drive. [`SwitchcastVariant::fabric`]
/// says what the fabric must run to match.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwitchcastVariant {
    /// V1: origin-rooted directive over tree-restricted routes, IDLE fills.
    RestrictedIdle,
    /// V2: root-serialized directive, interrupt/resume fragments.
    RootedInterrupt,
    /// V3: V1 plus flush-and-retransmit for blocked unicasts.
    IdleFlush,
    /// Root-serialized one-byte broadcast address; receivers filter.
    Broadcast,
}

/// What a [`SwitchcastVariant`] asks of the fabric it runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SwitchcastFabric {
    /// The switches' mode (`NetworkConfig::switchcast`).
    pub mode: SwitchcastMode,
    /// Every route, unicast included, stays on the up/down spanning tree.
    pub restrict_routes: bool,
    /// The multicast directives (and the climb to the root) stay on it.
    pub restrict_directives: bool,
}

impl SwitchcastVariant {
    /// The fabric this variant needs. V1 puts every route on the spanning
    /// tree; V3 only its directives (unicasts route freely, and one that
    /// waits behind an IDLE-filling multicast is flushed instead); V2 and
    /// broadcast neither, since they serialize through the root.
    /// `restrict_to_tree` — the caller's own wish to confine every route to
    /// the tree — can only tighten that.
    pub fn fabric(self, restrict_to_tree: bool) -> SwitchcastFabric {
        let (mode, routes, directives) = match self {
            SwitchcastVariant::RestrictedIdle => (SwitchcastMode::RestrictedIdle, true, true),
            SwitchcastVariant::RootedInterrupt | SwitchcastVariant::Broadcast => {
                (SwitchcastMode::RootedInterrupt, false, false)
            }
            SwitchcastVariant::IdleFlush => (SwitchcastMode::IdleFlush, false, true),
        };
        SwitchcastFabric {
            mode,
            restrict_routes: routes || restrict_to_tree,
            restrict_directives: directives || restrict_to_tree,
        }
    }
}

/// Precomputed routes for every group and origin.
#[derive(Clone, Debug, Default)]
pub struct SwitchcastTables {
    /// V1/V3: encoded directive per (group, origin), leaves excluded the
    /// origin itself.
    from_origin: HashMap<(u8, u32), (Vec<RouteSym>, u32)>,
    /// V2/Broadcast: unicast port path from each host's switch to the root
    /// switch (empty when already there).
    to_root: Vec<Vec<u8>>,
    /// V2: encoded directive from the root switch covering all members.
    from_root: HashMap<u8, (Vec<RouteSym>, u32)>,
    /// Broadcast sink count = total hosts (everyone hears a broadcast).
    num_hosts: u32,
}

impl SwitchcastTables {
    /// Build all route tables for the given topology/orientation/groups,
    /// on the spanning tree alone when `restrict` (the variant's
    /// [`SwitchcastFabric::restrict_directives`]). `routes` is `ud`'s
    /// route table under that same restriction.
    pub fn build(
        topo: &Topology,
        ud: &UpDown,
        routes: &mut RouteTable,
        membership: &Membership,
        restrict: bool,
    ) -> Self {
        let mut t = SwitchcastTables {
            num_hosts: topo.num_hosts() as u32,
            to_root: Vec::with_capacity(topo.num_hosts()),
            ..Default::default()
        };
        for h in &topo.hosts {
            t.to_root.push(
                ud.route_ports(topo, h.switch, ud.root, restrict)
                    .expect("root reachable"),
            );
        }
        for g in membership.group_ids() {
            let members = membership.members(g);
            // Directive from the root switch over all members (V2).
            let root_paths: Vec<Vec<u8>> = members
                .iter()
                .map(|&m| {
                    let att = topo.hosts[m.0 as usize];
                    let mut p = ud
                        .route_ports(topo, ud.root, att.switch, restrict)
                        .expect("member reachable");
                    p.push(att.port);
                    p
                })
                .collect();
            let refs: Vec<&[u8]> = root_paths.iter().map(|v| v.as_slice()).collect();
            let d = merge_paths(&refs).expect("non-empty group");
            let enc = wormcast_sim::switchcast::encode(&d).expect("encodable");
            t.from_root.insert(g, (enc, d.num_leaves() as u32));
            // Directive from each member origin over the others (V1/V3).
            for &origin in members {
                let paths: Vec<Vec<u8>> = members
                    .iter()
                    .filter(|&&m| m != origin)
                    .map(|&m| routes.get(origin, m).to_vec())
                    .collect();
                let paths: Vec<&[u8]> = paths.iter().map(Vec::as_slice).collect();
                if paths.is_empty() {
                    continue; // singleton group
                }
                let d = merge_paths(&paths).expect("non-empty");
                let enc = wormcast_sim::switchcast::encode(&d).expect("encodable");
                t.from_origin
                    .insert((g, origin.0), (enc, d.num_leaves() as u32));
            }
        }
        t
    }

    /// The broadcast-port set the fabric needs
    /// ([`wormcast_sim::Network::set_broadcast_ports`]): per switch, its
    /// down-tree link ports plus its host ports.
    pub fn broadcast_ports(topo: &Topology, ud: &UpDown) -> Vec<Vec<u8>> {
        let mut ports: Vec<Vec<u8>> = vec![Vec::new(); topo.num_switches()];
        for (i, l) in topo.links.iter().enumerate() {
            if !ud.tree_link[i] {
                continue;
            }
            // The down direction points away from the root.
            if ud.is_up(l.b, l.a) {
                ports[l.a].push(l.a_port); // a -> b is down
            } else {
                ports[l.b].push(l.b_port);
            }
        }
        for h in &topo.hosts {
            ports[h.switch].push(h.port);
        }
        for p in &mut ports {
            p.sort_unstable();
        }
        ports
    }
}

/// Per-host protocol instance driving switch-level multicast.
pub struct SwitchcastProtocol {
    host: HostId,
    variant: SwitchcastVariant,
    membership: Arc<Membership>,
    tables: Arc<SwitchcastTables>,
    /// Worms flushed by the fabric awaiting their retransmission timer.
    pending_retx: HashMap<u64, SendSpec>,
    next_retx_token: u64,
    /// Retransmission backoff bound (uniform random, the paper's "random
    /// time out").
    pub retx_backoff: SimTime,
    /// Broadcast worms filtered out because this host is not a member.
    pub filtered: u64,
    pub flush_retransmits: u64,
}

impl SwitchcastProtocol {
    pub fn new(
        host: HostId,
        variant: SwitchcastVariant,
        membership: Arc<Membership>,
        tables: Arc<SwitchcastTables>,
    ) -> Self {
        SwitchcastProtocol {
            host,
            variant,
            membership,
            tables,
            pending_retx: HashMap::new(),
            next_retx_token: 1,
            retx_backoff: 20_000,
            filtered: 0,
            flush_retransmits: 0,
        }
    }
}

impl AdapterProtocol for SwitchcastProtocol {
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, msg: AppMessage) {
        match msg.dest {
            Destination::Unicast(d) => {
                ctx.send(SendSpec::data(&msg, d, WormKind::Unicast));
            }
            Destination::Multicast(group) => {
                let kind = WormKind::SwitchMulticast { group };
                match self.variant {
                    SwitchcastVariant::RestrictedIdle | SwitchcastVariant::IdleFlush => {
                        let Some((enc, leaves)) =
                            self.tables.from_origin.get(&(group, self.host.0))
                        else {
                            return; // not a member / singleton group
                        };
                        let dest = self
                            .membership
                            .members(group)
                            .iter()
                            .copied()
                            .find(|&m| m != self.host)
                            .unwrap_or(self.host);
                        if dest == self.host {
                            return;
                        }
                        let mut spec = SendSpec::data(&msg, dest, kind);
                        spec.route_override = Some(enc.clone());
                        spec.sinks = *leaves;
                        ctx.send(spec);
                    }
                    SwitchcastVariant::RootedInterrupt => {
                        let Some((enc, leaves)) = self.tables.from_root.get(&group) else {
                            return;
                        };
                        let mut route: Vec<RouteSym> = self.tables.to_root
                            [self.host.0 as usize]
                            .iter()
                            .map(|&p| RouteSym::Port(p))
                            .collect();
                        route.extend(enc.iter().copied());
                        let dest = self
                            .membership
                            .lowest(group)
                            .filter(|&m| m != self.host)
                            .or_else(|| {
                                self.membership
                                    .members(group)
                                    .iter()
                                    .copied()
                                    .find(|&m| m != self.host)
                            });
                        let Some(dest) = dest else { return };
                        let mut spec = SendSpec::data(&msg, dest, kind);
                        spec.route_override = Some(route);
                        spec.sinks = *leaves;
                        ctx.send(spec);
                    }
                    SwitchcastVariant::Broadcast => {
                        let mut route: Vec<RouteSym> = self.tables.to_root
                            [self.host.0 as usize]
                            .iter()
                            .map(|&p| RouteSym::Port(p))
                            .collect();
                        route.push(RouteSym::Broadcast);
                        // Any other host works as the nominal destination.
                        let dest = HostId(if self.host.0 == 0 { 1 } else { 0 });
                        let mut spec = SendSpec::data(&msg, dest, kind);
                        spec.route_override = Some(route);
                        spec.sinks = self.tables.num_hosts;
                        ctx.send(spec);
                    }
                }
            }
        }
    }

    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        match worm.meta.kind {
            WormKind::Unicast => ctx.deliver_local(worm.meta.msg),
            WormKind::SwitchMulticast { group } => {
                if worm.meta.origin == self.host {
                    return; // our own copy came around (V2 / broadcast)
                }
                match self.variant {
                    SwitchcastVariant::Broadcast => {
                        // Receiver-side group filter, like stock Myrinet
                        // broadcast.
                        if self.membership.is_member(group, self.host) {
                            ctx.deliver_local(worm.meta.msg);
                        } else {
                            self.filtered += 1;
                        }
                    }
                    _ => ctx.deliver_local(worm.meta.msg),
                }
            }
            other => unreachable!("unexpected worm kind {other:?} at switchcast host"),
        }
    }

    fn on_worm_flushed(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        // The paper's V3 recovery: "the source is thus notified of the drop
        // and retransmits the unicast message after a random time out."
        use rand::Rng;
        debug_assert!(matches!(worm.meta.kind, WormKind::Unicast));
        self.flush_retransmits += 1;
        let spec = SendSpec::forward(worm, worm.meta.dest);
        let token = self.next_retx_token;
        self.next_retx_token += 1;
        self.pending_retx.insert(token, spec);
        let delay = ctx.rng.gen_range(1..=self.retx_backoff.max(1));
        ctx.set_timer(delay, token);
    }

    fn on_timer(&mut self, ctx: &mut ProtocolCtx, token: u64) {
        if let Some(spec) = self.pending_retx.remove(&token) {
            ctx.send(spec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_topo::TopoBuilder;

    fn small() -> (Topology, UpDown, Arc<Membership>) {
        // 3 switches in a line, 2 hosts each.
        let mut b = TopoBuilder::new(3);
        b.link(0, 1, 1);
        b.link(1, 2, 1);
        for s in 0..3 {
            b.host(s);
            b.host(s);
        }
        let topo = b.build();
        let ud = UpDown::compute(&topo, 0);
        let membership = Membership::from_groups([(0u8, vec![
            HostId(0),
            HostId(3),
            HostId(5),
        ])]);
        (topo, ud, membership)
    }

    /// The tables over `ud`'s routes, on the tree alone when `restrict`.
    fn tables(
        topo: &Topology,
        ud: &UpDown,
        membership: &Membership,
        restrict: bool,
    ) -> Arc<SwitchcastTables> {
        let mut routes = ud.route_table(topo, restrict);
        Arc::new(SwitchcastTables::build(topo, ud, &mut routes, membership, restrict))
    }

    #[test]
    fn tables_cover_groups_and_origins() {
        let (topo, ud, membership) = small();
        let t = tables(&topo, &ud, &membership, true);
        assert_eq!(t.to_root.len(), 6);
        assert!(t.to_root[0].is_empty(), "host 0 sits on the root switch");
        assert!(!t.to_root[5].is_empty());
        let (enc_root, leaves_root) = t.from_root.get(&0).expect("group 0");
        assert_eq!(*leaves_root, 3, "root directive reaches all members");
        assert!(!enc_root.is_empty());
        for origin in [0u32, 3, 5] {
            let (enc, leaves) = t
                .from_origin
                .get(&(0, origin))
                .unwrap_or_else(|| panic!("origin {origin}"));
            assert_eq!(*leaves, 2, "origin directive excludes the origin");
            assert!(!enc.is_empty());
        }
        assert!(!t.from_origin.contains_key(&(0, 1)), "non-members absent");
    }

    fn run_gen(
        p: &mut SwitchcastProtocol,
        origin: u32,
        group: u8,
    ) -> Vec<wormcast_sim::protocol::Command> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let mut cmds = Vec::new();
        let mut ctx = ProtocolCtx::new(0, HostId(origin), 0, &mut rng, &mut cmds);
        let msg = AppMessage {
            msg: wormcast_sim::worm::MessageId(5),
            origin: HostId(origin),
            dest: Destination::Multicast(group),
            payload_len: 300,
            created: 0,
        };
        p.on_generate(&mut ctx, msg);
        cmds
    }

    #[test]
    fn v1_injects_directive_route_with_leaf_sinks() {
        use wormcast_sim::protocol::Command;
        let (topo, ud, membership) = small();
        let tables = tables(&topo, &ud, &membership, true);
        let mut p = SwitchcastProtocol::new(
            HostId(3),
            SwitchcastVariant::RestrictedIdle,
            Arc::clone(&membership),
            tables,
        );
        let cmds = run_gen(&mut p, 3, 0);
        match &cmds[..] {
            [Command::Send(s)] => {
                assert!(matches!(s.kind, WormKind::SwitchMulticast { group: 0 }));
                assert_eq!(s.sinks, 2, "members 0 and 5");
                let route = s.route_override.as_ref().expect("tree route");
                assert!(route.iter().any(|r| matches!(r, RouteSym::Ptr(_))));
                assert!(route.iter().any(|r| matches!(r, RouteSym::End)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn v2_prepends_the_to_root_path() {
        use wormcast_sim::protocol::Command;
        let (topo, ud, membership) = small();
        let tables = tables(&topo, &ud, &membership, false);
        let mut p = SwitchcastProtocol::new(
            HostId(5),
            SwitchcastVariant::RootedInterrupt,
            Arc::clone(&membership),
            tables,
        );
        let cmds = run_gen(&mut p, 5, 0);
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.sinks, 3, "root directive covers all members");
                let route = s.route_override.as_ref().expect("route");
                // Host 5 sits two switches from the root: two plain port
                // hops before the directive starts.
                assert!(matches!(route[0], RouteSym::Port(_)));
                assert!(matches!(route[1], RouteSym::Port(_)));
                assert!(!matches!(route[1], RouteSym::Ptr(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn broadcast_route_ends_with_the_broadcast_byte() {
        use wormcast_sim::protocol::Command;
        let (topo, ud, membership) = small();
        let tables = tables(&topo, &ud, &membership, false);
        let mut p = SwitchcastProtocol::new(
            HostId(2),
            SwitchcastVariant::Broadcast,
            Arc::clone(&membership),
            tables,
        );
        let cmds = run_gen(&mut p, 2, 0);
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.sinks, 6, "broadcast reaches every host");
                let route = s.route_override.as_ref().expect("route");
                assert_eq!(*route.last().unwrap(), RouteSym::Broadcast);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_member_origin_sends_nothing_in_v1() {
        let (topo, ud, membership) = small();
        let tables = tables(&topo, &ud, &membership, true);
        let mut p = SwitchcastProtocol::new(
            HostId(1), // not in group 0
            SwitchcastVariant::RestrictedIdle,
            Arc::clone(&membership),
            tables,
        );
        let cmds = run_gen(&mut p, 1, 0);
        assert!(cmds.is_empty(), "{cmds:?}");
    }

    #[test]
    fn broadcast_ports_are_down_tree_plus_hosts() {
        let (topo, ud, _) = small();
        let ports = SwitchcastTables::broadcast_ports(&topo, &ud);
        assert_eq!(ports.len(), 3);
        // Switch 0 (root): down link to switch 1 + two host ports = 3.
        assert_eq!(ports[0].len(), 3);
        // Switch 1: down to switch 2 + two hosts = 3 (its up link excluded).
        assert_eq!(ports[1].len(), 3);
        // Switch 2 (leaf): just its two host ports.
        assert_eq!(ports[2].len(), 2);
    }
}
