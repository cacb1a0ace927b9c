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
use std::fmt;

/// Where a host attaches to the fabric.
#[derive(Clone, Copy, Debug)]
pub struct HostAttach {
    pub switch: u32,
    pub port: u8,
}

/// A switch-to-switch link ([`NetworkConfig::lanes`] lanes per direction).
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    pub a: (u32, PortId),
    pub b: (u32, PortId),
    pub delay: SimTime,
}

/// A complete fabric description, produced by `wormcast-topo`.
#[derive(Clone, Debug)]
pub struct FabricSpec {
    /// Ports per switch.
    pub switch_ports: Vec<u8>,
    /// Host `i` attaches at `hosts[i]`.
    pub hosts: Vec<HostAttach>,
    pub links: Vec<LinkSpec>,
    /// Propagation delay of host↔switch links.
    pub host_link_delay: SimTime,
}

/// Where a [`RouteTable`] takes the routes it was not given by hand: a
/// route's length without walking it, and the route itself, walked once
/// per pair on the table's first [`RouteTable::get`] of it.
pub trait RouteSource: fmt::Debug + Send {
    /// Ports on the route from `src` to `dst` (0 when `src == dst`).
    fn hops(&self, src: HostId, dst: HostId) -> usize;
    /// Append the route from `src` to `dst` (`src != dst`) to `out`.
    fn walk(&self, src: HostId, dst: HostId, out: &mut Vec<u8>);
}

/// Unicast source routes for every ordered host pair, as data: the routes
/// taken so far lie back to back in one byte arena, and a per-pair index
/// says where. [`RouteTable::set`] fills it by hand; a table with a
/// [`RouteSource`] walks a pair's route into the arena the first time
/// [`RouteTable::get`] asks for it, so a run pays only for the pairs its
/// traffic uses, and answers [`RouteTable::hops`] without walking.
#[derive(Debug, Default)]
pub struct RouteTable {
    num_hosts: usize,
    arena: Vec<u8>,
    /// Per ordered pair `src * num_hosts + dst`: its route's `start <<
    /// LEN_BITS | len` in `arena`, 0 until it is set or walked. All zeros
    /// at first, so the pages of pairs never asked for stay untouched.
    index: Vec<u64>,
    source: Option<Box<dyn RouteSource>>,
}

/// Bits of an index entry that hold the route's length.
const LEN_BITS: u32 = 16;

/// The index entry of a route at `arena[start..end]`.
fn entry(start: usize, end: usize) -> u64 {
    let len = end - start;
    assert!(len < 1 << LEN_BITS, "a route of {len} ports");
    (start as u64) << LEN_BITS | len as u64
}

/// The arena range of an index entry.
fn range(entry: u64) -> std::ops::Range<usize> {
    let start = (entry >> LEN_BITS) as usize;
    start..start + (entry & ((1 << LEN_BITS) - 1)) as usize
}

impl RouteTable {
    /// An empty table, to be filled by [`RouteTable::set`].
    pub fn new(num_hosts: usize) -> Self {
        RouteTable {
            num_hosts,
            index: vec![0; num_hosts * num_hosts],
            ..Default::default()
        }
    }

    /// A table whose routes `source` walks on first use.
    pub fn with_source(num_hosts: usize, source: Box<dyn RouteSource>) -> Self {
        RouteTable {
            source: Some(source),
            ..Self::new(num_hosts)
        }
    }

    pub fn num_hosts(&self) -> usize {
        self.num_hosts
    }

    fn pair(&self, src: HostId, dst: HostId) -> usize {
        src.0 as usize * self.num_hosts + dst.0 as usize
    }

    pub fn set(&mut self, src: HostId, dst: HostId, ports: Vec<u8>) {
        let (pair, start) = (self.pair(src, dst), self.arena.len());
        self.arena.extend_from_slice(&ports);
        self.index[pair] = entry(start, self.arena.len());
    }

    /// The output-port sequence from `src`'s switch to `dst`'s host port,
    /// walked into the arena on the pair's first use: the arena's amortised
    /// growth is the only allocation a route costs.
    pub fn get(&mut self, src: HostId, dst: HostId) -> &[u8] {
        let pair = self.pair(src, dst);
        if let Some(source) = &self.source {
            if self.index[pair] == 0 && src != dst {
                let start = self.arena.len();
                source.walk(src, dst, &mut self.arena);
                self.index[pair] = entry(start, self.arena.len());
            }
        }
        &self.arena[range(self.index[pair])]
    }

    /// Ports on the route from `src` to `dst` (switches traversed), read
    /// from the index or the source: never a walk.
    pub fn hops(&self, src: HostId, dst: HostId) -> usize {
        let entry = self.index[self.pair(src, dst)];
        match &self.source {
            Some(source) if entry == 0 => source.hops(src, dst),
            _ => range(entry).len(),
        }
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
            .map(|(i, pl)| Switch::new(SwitchId(i as u32), pl, SlackCfg::for_delay(1), cfg.seed))
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
                            // Size the slack buffer for its upstream delay.
                            inp.slack = SlackCfg::for_delay(delay);
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
