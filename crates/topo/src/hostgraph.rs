//! The host-connectivity graph (the paper's Figure 8 transformation).
//!
//! Host-adapter multicast structures (Hamiltonian circuits, rooted trees)
//! live on the *complete* graph over hosts, where the weight of edge
//! `(a, b)` is the cost of the unicast path between them — the paper
//! "simply uses the hop count of the path", and so do we.

use wormcast_sim::engine::HostId;
use wormcast_sim::network::RouteTable;

/// Complete host graph with hop-count weights derived from a route table.
#[derive(Clone, Debug)]
pub struct HostGraph {
    n: usize,
    /// `hops[a][b]` = unicast route length from a to b (in route bytes,
    /// i.e. switches traversed).
    hops: Vec<Vec<u32>>,
}

impl HostGraph {
    /// Derive from the network's unicast routes. Note up/down routes are
    /// not symmetric in general, so `hops(a, b)` may differ from
    /// `hops(b, a)`.
    pub fn from_routes(rt: &RouteTable) -> Self {
        let n = rt.num_hosts();
        let mut hops = vec![vec![0u32; n]; n];
        #[allow(clippy::needless_range_loop)] // (a, b) index pairs read best
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    hops[a][b] = rt.hops(HostId(a as u32), HostId(b as u32)) as u32;
                }
            }
        }
        HostGraph { n, hops }
    }

    pub fn num_hosts(&self) -> usize {
        self.n
    }

    /// Hop count of the unicast path from `a` to `b`.
    pub fn hops(&self, a: HostId, b: HostId) -> u32 {
        self.hops[a.0 as usize][b.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopoBuilder;
    use crate::updown::UpDown;

    /// Line of 3 switches, one host each.
    fn line3() -> HostGraph {
        let mut b = TopoBuilder::new(3);
        b.link(0, 1, 1);
        b.link(1, 2, 1);
        for s in 0..3 {
            b.host(s);
        }
        let t = b.build();
        let ud = UpDown::compute(&t, 0);
        HostGraph::from_routes(&ud.route_table(&t, false))
    }

    #[test]
    fn hop_counts_on_a_line() {
        let g = line3();
        let h = |a, b| g.hops(HostId(a), HostId(b));
        // Route length includes the final host port byte: adjacent = 2
        // switch hops? No: host0 -> host1 crosses switch0 and switch1,
        // route = [port to sw1, port to host1] = 2 bytes.
        assert_eq!(h(0, 1), 2);
        assert_eq!(h(1, 0), 2);
        assert_eq!(h(0, 2), 3);
        assert_eq!(h(0, 0), 0);
    }
}
