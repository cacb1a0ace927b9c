//! Fabric descriptions: switches, ports, links, and attached hosts.
use wormcast_sim::engine::HostId;
use wormcast_sim::link::PortId;
use wormcast_sim::network::{FabricSpec, HostAttach, LinkSpec};
use wormcast_sim::time::SimTime;

/// A bidirectional switch-to-switch link with allocated port numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SwLink {
    pub a: usize,
    pub a_port: u8,
    pub b: usize,
    pub b_port: u8,
    pub delay: SimTime,
}

/// A host attachment with its allocated switch port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HostPort {
    pub switch: usize,
    pub port: u8,
}

/// A complete fabric topology: switches with consecutively allocated ports,
/// inter-switch links, and host attachments.
#[derive(Clone, Debug)]
pub struct Topology {
    pub ports_per_switch: Vec<u8>,
    pub links: Vec<SwLink>,
    pub hosts: Vec<HostPort>,
    pub host_link_delay: SimTime,
}

impl Topology {
    pub fn num_switches(&self) -> usize {
        self.ports_per_switch.len()
    }

    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Switch-level neighbors of `sw`: `(peer, out_port, peer_in_port, link_index)`.
    /// Iteration order is deterministic (link insertion order).
    pub fn neighbors(&self, sw: usize) -> Vec<(usize, u8, u8, usize)> {
        let mut out = Vec::new();
        for (i, l) in self.links.iter().enumerate() {
            if l.a == sw {
                out.push((l.b, l.a_port, l.b_port, i));
            } else if l.b == sw {
                out.push((l.a, l.b_port, l.a_port, i));
            }
        }
        out
    }

    /// [`Self::neighbors`] of every switch, indexed by switch, from one pass
    /// over the links. For callers that visit many switches.
    pub(crate) fn adjacency(&self) -> Vec<Vec<(usize, u8, u8, usize)>> {
        let mut adj = vec![Vec::new(); self.num_switches()];
        for (i, l) in self.links.iter().enumerate() {
            adj[l.a].push((l.b, l.a_port, l.b_port, i));
            adj[l.b].push((l.a, l.b_port, l.a_port, i));
        }
        adj
    }

    /// The hosts attached to switch `sw`, in host-ID order.
    pub fn hosts_at(&self, sw: usize) -> Vec<HostId> {
        self.hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.switch == sw)
            .map(|(i, _)| HostId(i as u32))
            .collect()
    }

    /// Convert to the simulator's fabric specification.
    pub fn to_fabric_spec(&self) -> FabricSpec {
        FabricSpec {
            switch_ports: self.ports_per_switch.clone(),
            hosts: self
                .hosts
                .iter()
                .map(|h| HostAttach {
                    switch: h.switch as u32,
                    port: h.port,
                })
                .collect(),
            links: self
                .links
                .iter()
                .map(|l| LinkSpec {
                    a: (l.a as u32, PortId(l.a_port)),
                    b: (l.b as u32, PortId(l.b_port)),
                    delay: l.delay,
                })
                .collect(),
            host_link_delay: self.host_link_delay,
        }
    }

    /// True if the switch graph is connected (ignoring hosts).
    pub fn is_connected(&self) -> bool {
        let n = self.num_switches();
        if n == 0 {
            return true;
        }
        let adj = self.adjacency();
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(v, _, _, _) in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }
}

/// Incremental topology builder that allocates switch ports automatically.
#[derive(Clone, Debug)]
pub struct TopoBuilder {
    next_port: Vec<u8>,
    links: Vec<SwLink>,
    hosts: Vec<HostPort>,
    host_link_delay: SimTime,
}

impl TopoBuilder {
    /// Start a topology with `num_switches` switches. Host links default to
    /// delay 1 (hosts are adjacent to their switch).
    pub fn new(num_switches: usize) -> Self {
        TopoBuilder {
            next_port: vec![0; num_switches],
            links: Vec::new(),
            hosts: Vec::new(),
            host_link_delay: 1,
        }
    }

    /// Set the host↔switch link delay.
    pub fn host_link_delay(&mut self, delay: SimTime) -> &mut Self {
        self.host_link_delay = delay;
        self
    }

    fn alloc_port(&mut self, sw: usize) -> u8 {
        let p = self.next_port[sw];
        assert!(p < u8::MAX, "switch {sw} ran out of ports");
        self.next_port[sw] += 1;
        p
    }

    /// Add a bidirectional link between two switches; ports are allocated
    /// in call order. Returns the link index. Every link carries the
    /// network-wide lane count (`NetworkConfig::lanes`).
    pub fn link(&mut self, a: usize, b: usize, delay: SimTime) -> usize {
        assert_ne!(a, b, "self-links are not allowed");
        let a_port = self.alloc_port(a);
        let b_port = self.alloc_port(b);
        self.links.push(SwLink {
            a,
            a_port,
            b,
            b_port,
            delay,
        });
        self.links.len() - 1
    }

    /// Attach a host to `sw`; returns its `HostId` (IDs are assigned in
    /// attachment order — the host *ordering by ID* that the paper's
    /// deadlock-avoidance rules depend on is therefore under the caller's
    /// control).
    pub fn host(&mut self, sw: usize) -> HostId {
        let port = self.alloc_port(sw);
        self.hosts.push(HostPort { switch: sw, port });
        HostId(self.hosts.len() as u32 - 1)
    }

    pub fn build(self) -> Topology {
        Topology {
            ports_per_switch: self.next_port,
            links: self.links,
            hosts: self.hosts,
            host_link_delay: self.host_link_delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_allocates_ports_in_order() {
        let mut b = TopoBuilder::new(2);
        b.link(0, 1, 1);
        let h0 = b.host(0);
        let h1 = b.host(1);
        let t = b.build();
        assert_eq!(h0, HostId(0));
        assert_eq!(h1, HostId(1));
        assert_eq!(t.ports_per_switch, vec![2, 2]);
        assert_eq!(t.links[0].a_port, 0);
        assert_eq!(t.links[0].b_port, 0);
        assert_eq!(t.hosts[0], HostPort { switch: 0, port: 1 });
        assert_eq!(t.hosts[1], HostPort { switch: 1, port: 1 });
    }

    #[test]
    fn neighbors_sees_both_directions() {
        let mut b = TopoBuilder::new(3);
        b.link(0, 1, 1);
        b.link(2, 0, 1);
        let t = b.build();
        let n0: Vec<usize> = t.neighbors(0).iter().map(|&(v, _, _, _)| v).collect();
        assert_eq!(n0, vec![1, 2]);
        let n1: Vec<usize> = t.neighbors(1).iter().map(|&(v, _, _, _)| v).collect();
        assert_eq!(n1, vec![0]);
    }

    #[test]
    fn connectivity() {
        let mut b = TopoBuilder::new(3);
        b.link(0, 1, 1);
        let t = b.build();
        assert!(!t.is_connected());
        let mut b = TopoBuilder::new(3);
        b.link(0, 1, 1);
        b.link(1, 2, 1);
        assert!(b.build().is_connected());
    }

    #[test]
    fn fabric_spec_roundtrip() {
        let mut b = TopoBuilder::new(2);
        b.host_link_delay(2);
        b.link(0, 1, 7);
        b.host(0);
        b.host(1);
        let spec = b.build().to_fabric_spec();
        assert_eq!(spec.switch_ports, vec![2, 2]);
        assert_eq!(spec.hosts.len(), 2);
        assert_eq!(spec.links.len(), 1);
        assert_eq!(spec.links[0].delay, 7);
        assert_eq!(spec.host_link_delay, 2);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut b = TopoBuilder::new(1);
        b.link(0, 0, 1);
    }
}
