//! Fabric construction: the description `wormcast-topo` produces, the
//! unicast route table, and the builder that turns them into wired
//! switches, adapters, lanes and links.

use crate::adapter::Adapter;
use crate::config::ConfigError;
use crate::engine::{HostId, SwitchId};
use crate::link::{ChanId, Endpoint, Lane, Link, LinkId, NodeRef, PortId};
use crate::network::{Network, NetworkConfig};
use crate::switch::{SlackCfg, Switch};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Where a host attaches to the fabric.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HostAttach {
    pub switch: u32,
    pub port: u8,
}

/// A switch-to-switch link ([`NetworkConfig::lanes`] lanes per direction).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LinkSpec {
    pub a: (u32, PortId),
    pub b: (u32, PortId),
    pub delay: SimTime,
}

/// A complete fabric description, produced by `wormcast-topo`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FabricSpec {
    /// Ports per switch.
    pub switch_ports: Vec<u8>,
    /// Host `i` attaches at `hosts[i]`.
    pub hosts: Vec<HostAttach>,
    pub links: Vec<LinkSpec>,
    /// Propagation delay of host↔switch links.
    pub host_link_delay: SimTime,
}

/// Unicast source routes for every ordered host pair.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RouteTable {
    table: Vec<Vec<Vec<u8>>>,
}

impl RouteTable {
    pub fn new(num_hosts: usize) -> Self {
        RouteTable {
            table: vec![vec![Vec::new(); num_hosts]; num_hosts],
        }
    }

    pub fn num_hosts(&self) -> usize {
        self.table.len()
    }

    pub fn set(&mut self, src: HostId, dst: HostId, ports: Vec<u8>) {
        self.table[src.0 as usize][dst.0 as usize] = ports;
    }

    /// The output-port sequence from `src`'s switch to `dst`'s host port.
    pub fn get(&self, src: HostId, dst: HostId) -> &[u8] {
        &self.table[src.0 as usize][dst.0 as usize]
    }

    /// Hop count (number of switches traversed) between two hosts.
    pub fn hops(&self, src: HostId, dst: HostId) -> usize {
        self.get(src, dst).len()
    }
}

impl Network {
    /// Build a network from a fabric description and unicast route table,
    /// panicking on an invalid fabric. Prefer [`Network::try_build`] (or
    /// the bench runner's validating `SimSetup` builder) to get a typed
    /// [`ConfigError`] instead.
    pub fn build(spec: &FabricSpec, routes: RouteTable, cfg: NetworkConfig) -> Self {
        Self::try_build(spec, routes, cfg).unwrap_or_else(|e| panic!("invalid fabric: {e}"))
    }

    /// Build a network, surfacing fabric/configuration violations (zero
    /// link delays, an invalid [`NetworkConfig`], slot overflow) as a typed
    /// [`ConfigError`].
    pub fn try_build(
        spec: &FabricSpec,
        routes: RouteTable,
        cfg: NetworkConfig,
    ) -> Result<Self, ConfigError> {
        assert_eq!(
            routes.num_hosts(),
            spec.hosts.len(),
            "route table size must match host count"
        );
        if let Some(index) = spec.links.iter().position(|l| l.delay == 0) {
            return Err(ConfigError::ZeroDelay {
                field: "links",
                index,
            });
        }
        if spec.host_link_delay == 0 && !spec.hosts.is_empty() {
            return Err(ConfigError::ZeroDelay {
                field: "host_link_delay",
                index: 0,
            });
        }
        cfg.validate()?;

        // Per-switch, per-physical-port lane counts (unlinked and
        // host-facing ports keep one slot so slot indices stay aligned).
        let mut port_lanes: Vec<Vec<u8>> = spec
            .switch_ports
            .iter()
            .map(|&p| vec![1u8; p as usize])
            .collect();
        for l in &spec.links {
            port_lanes[l.a.0 as usize][l.a.1.index()] = cfg.lanes;
            port_lanes[l.b.0 as usize][l.b.1.index()] = cfg.lanes;
        }
        for (i, pl) in port_lanes.iter().enumerate() {
            let slots: u32 = pl.iter().map(|&n| n as u32).sum();
            if slots > u8::MAX as u32 {
                return Err(ConfigError::Invalid {
                    field: "lanes",
                    reason: format!("switch {i} needs {slots} port slots (max 255)"),
                });
            }
        }

        let mut switches: Vec<Switch> = port_lanes
            .iter()
            .enumerate()
            .map(|(i, pl)| {
                Switch::new(
                    SwitchId(i as u32),
                    pl,
                    cfg.slack.unwrap_or_else(|| SlackCfg::for_delay(1)),
                    cfg.seed,
                )
            })
            .collect();
        let mut adapters: Vec<Adapter> = (0..spec.hosts.len())
            .map(|i| Adapter::new(HostId(i as u32)))
            .collect();
        let mut lanes: Vec<Lane> = Vec::new();
        let mut links: Vec<Link> = Vec::new();

        // Every physical link — the trunks, then one single-lane link per
        // host (an adapter injects at one byte per byte-time regardless) —
        // becomes a forward and a backward `Link`; each direction's lanes
        // are contiguous, lane `i` pairing with reverse lane `i`. With one
        // lane the ids are exactly the historical (fwd, back) pairs.
        let switch_end = |(sw, port): (u32, PortId)| (NodeRef::Switch(SwitchId(sw)), port);
        let trunks = spec
            .links
            .iter()
            .map(|l| (switch_end(l.a), switch_end(l.b), l.delay, cfg.lanes));
        let host_links = spec.hosts.iter().enumerate().map(|(h, att)| {
            let host = (NodeRef::Host(HostId(h as u32)), PortId(0));
            let at = switch_end((att.switch, PortId(att.port)));
            (host, at, spec.host_link_delay, 1)
        });
        for (a, b, delay, n) in trunks.chain(host_links) {
            let base = lanes.len() as u32;
            let back = base + n as u32;
            for (src, dst, first, rev) in [(a, b, base, back), (b, a, back, base)] {
                let id = LinkId(links.len() as u32);
                for i in 0..n {
                    // A route byte names a physical port; a lane ends at
                    // the port's `i`-th slot (hosts have the one port).
                    let end = |(node, port): (NodeRef, PortId)| Endpoint {
                        node,
                        port: match node {
                            NodeRef::Switch(s) => PortId(switches[s.0 as usize].slot_of(port.0, i)),
                            NodeRef::Host(_) => port,
                        },
                    };
                    let (tx, rx) = (end(src), end(dst));
                    let ch = ChanId(first + i as u32);
                    let rev = ChanId(rev + i as u32);
                    lanes.push(Lane::new(ch, tx, rx, delay, rev, id, i));
                    match tx.node {
                        NodeRef::Switch(s) => {
                            switches[s.0 as usize].outputs[tx.port.index()].chan_out = Some(ch)
                        }
                        NodeRef::Host(h) => adapters[h.0 as usize].chan_out = Some(ch),
                    }
                    match rx.node {
                        NodeRef::Switch(s) => {
                            let inp = &mut switches[s.0 as usize].inputs[rx.port.index()];
                            inp.chan_in = Some(ch);
                            // Unless the configuration pinned one, size the
                            // slack buffer for its actual upstream delay.
                            inp.slack = cfg.slack.unwrap_or_else(|| SlackCfg::for_delay(delay));
                        }
                        NodeRef::Host(h) => adapters[h.0 as usize].chan_in = Some(ch),
                    }
                }
                links.push(Link::new(id, src, dst, delay, ChanId(first), n));
            }
        }
        Ok(Network::assemble(
            cfg, routes, switches, adapters, lanes, links,
        ))
    }
}
