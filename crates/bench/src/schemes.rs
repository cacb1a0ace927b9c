//! Multicast scheme selection and per-host protocol installation.

use std::collections::HashMap;
use std::sync::Arc;
use wormcast_core::credit::{CreditConfig, CreditProtocol};
use wormcast_core::switchcast::{
    SwitchcastFabric, SwitchcastProtocol, SwitchcastTables, SwitchcastVariant,
};
use wormcast_core::{
    HcConfig, HcProtocol, Membership, TreeConfig, TreeProtocol, UnicastRepeatConfig,
    UnicastRepeatProtocol,
};
use wormcast_sim::engine::HostId;
use wormcast_sim::switchcast::SwitchcastMode;
use wormcast_sim::Network;
use wormcast_topo::hostgraph::HostGraph;
use wormcast_topo::tree::{MulticastTree, TreeShape};
use wormcast_topo::{Topology, UpDown};

/// Which multicast scheme the hosts run.
#[derive(Clone, Copy, Debug)]
pub enum Scheme {
    /// Hamiltonian circuit (Section 5).
    Hc(HcConfig),
    /// Rooted tree (Section 6) with the given construction shape.
    Tree(TreeConfig, TreeShape),
    /// Repeated unicast from the source (stock Myrinet baseline).
    Repeat(UnicastRepeatConfig),
    /// Centralized credit manager baseline (Verstoep/Langendoen/Bal, IR-399).
    Credit {
        manager: HostId,
        initial_credits: u64,
        token_period: u64,
        shape: TreeShape,
    },
    /// Switch-level multicast (Section 3): the crossbars replicate.
    Switch(SwitchcastVariant),
}

impl Scheme {
    /// Short label for tables.
    pub fn label(&self) -> String {
        match self {
            Scheme::Hc(c) if c.cut_through => "hc-cut-through".into(),
            Scheme::Hc(_) => "hc-store-fwd".into(),
            Scheme::Tree(c, shape) => {
                let mode = match c.mode {
                    wormcast_core::TreeMode::RootSerialized => "tree",
                    wormcast_core::TreeMode::BroadcastFromOrigin => "tree-bcast",
                };
                let ct = if c.cut_through_first { "-ct" } else { "" };
                format!("{mode}{ct}-{shape:?}").to_lowercase()
            }
            Scheme::Repeat(c) if c.broadcast_filter => "bcast-filter".into(),
            Scheme::Repeat(_) => "repeat-unicast".into(),
            Scheme::Credit { .. } => "credit".into(),
            Scheme::Switch(v) => match v {
                SwitchcastVariant::RestrictedIdle => "v1-restricted-idle",
                SwitchcastVariant::RootedInterrupt => "v2-rooted-interrupt",
                SwitchcastVariant::IdleFlush => "v3-idle-flush",
                SwitchcastVariant::Broadcast => "switch-broadcast",
            }
            .into(),
        }
    }

    /// The fabric this scheme runs on: its switch-level multicast mode
    /// and which routes stay on the up/down spanning tree. Only a
    /// [`Scheme::Switch`] variant asks for more than `restrict_to_tree`.
    pub fn fabric(&self, restrict_to_tree: bool) -> SwitchcastFabric {
        match *self {
            Scheme::Switch(v) => v.fabric(restrict_to_tree),
            _ => SwitchcastFabric {
                mode: SwitchcastMode::Off,
                restrict_routes: restrict_to_tree,
                restrict_directives: restrict_to_tree,
            },
        }
    }

    /// Build the per-group multicast trees this scheme needs.
    pub fn build_trees(
        &self,
        membership: &Membership,
        graph: &HostGraph,
    ) -> Arc<HashMap<u8, MulticastTree>> {
        let shape = match self {
            Scheme::Tree(_, shape) => *shape,
            Scheme::Credit { shape, .. } => *shape,
            _ => TreeShape::BinaryHeap,
        };
        let mut trees = HashMap::new();
        for g in membership.group_ids() {
            trees.insert(
                g,
                MulticastTree::build(membership.members(g), shape, Some(graph)),
            );
        }
        Arc::new(trees)
    }

    /// Install one protocol instance per host (and, for [`Scheme::Switch`],
    /// the fabric's broadcast ports) on `net`, built over `topo` with
    /// `ud`'s routes on `fabric` ([`Scheme::fabric`]).
    pub fn install(
        &self,
        net: &mut Network,
        membership: &Arc<Membership>,
        topo: &Topology,
        ud: &UpDown,
        fabric: SwitchcastFabric,
    ) {
        let n = net.num_hosts() as u32;
        match *self {
            Scheme::Hc(cfg) => {
                for h in 0..n {
                    let p = HcProtocol::new(HostId(h), cfg, Arc::clone(membership));
                    net.set_protocol(HostId(h), Box::new(p));
                }
            }
            Scheme::Tree(cfg, _) => {
                let trees = self.build_trees(membership, &HostGraph::from_routes(net.routes()));
                for h in 0..n {
                    let p = TreeProtocol::new(HostId(h), cfg, Arc::clone(&trees));
                    net.set_protocol(HostId(h), Box::new(p));
                }
            }
            Scheme::Repeat(mut cfg) => {
                cfg.num_hosts = n;
                for h in 0..n {
                    let p = UnicastRepeatProtocol::new(HostId(h), cfg, Arc::clone(membership));
                    net.set_protocol(HostId(h), Box::new(p));
                }
            }
            Scheme::Credit {
                manager,
                initial_credits,
                token_period,
                shape: _,
            } => {
                let trees = self.build_trees(membership, &HostGraph::from_routes(net.routes()));
                let cfg = CreditConfig {
                    manager,
                    num_hosts: n,
                    initial_credits,
                    token_period,
                };
                for h in 0..n {
                    let p =
                        CreditProtocol::new(HostId(h), cfg, Arc::clone(membership), Arc::clone(&trees));
                    net.set_protocol(HostId(h), Box::new(p));
                }
            }
            Scheme::Switch(variant) => {
                // The directives follow the network's routes unless only
                // they are confined to the tree (V3).
                let restrict = fabric.restrict_directives;
                let mut tree_routes;
                let routes = if restrict == fabric.restrict_routes {
                    net.routes_mut()
                } else {
                    tree_routes = ud.route_table(topo, restrict);
                    &mut tree_routes
                };
                let tables = Arc::new(SwitchcastTables::build(topo, ud, routes, membership, restrict));
                net.set_broadcast_ports(SwitchcastTables::broadcast_ports(topo, ud));
                for h in 0..n {
                    let p = SwitchcastProtocol::new(
                        HostId(h),
                        variant,
                        Arc::clone(membership),
                        Arc::clone(&tables),
                    );
                    net.set_protocol(HostId(h), Box::new(p));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_for_figure10_schemes() {
        let a = Scheme::Hc(HcConfig::store_and_forward()).label();
        let b = Scheme::Hc(HcConfig::cut_through()).label();
        let c = Scheme::Tree(TreeConfig::store_and_forward(), TreeShape::BinaryHeap).label();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
