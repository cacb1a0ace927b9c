//! Up/down routing (Autonet / Myrinet).
//!
//! One switch is chosen as the root of a BFS spanning tree. Every link gets
//! an orientation: traversing from a switch with a higher `(level, id)` pair
//! to a lower one is an **up** traversal (towards the root); the opposite is
//! **down**. A legal route traverses zero or more up links followed by zero
//! or more down links — no up-after-down — which breaks every circular
//! channel dependency and makes the routing deadlock-free (Section 2 of the
//! paper).
//!
//! The paper notes two costs, both reproduced by the experiments here:
//! paths are generally not shortest, and links near the root congest. It
//! also notes that its simulations used "a fixed choice of one path per
//! source-destination pair"; [`UpDown::route_table`] is deterministic in the
//! same way.
//!
//! The spanning-tree-*restricted* mode (`restrict_to_tree`) implements the
//! Section 3 variant where **all** worms are confined to tree links so that
//! switch-level multicast cannot deadlock; crosslinks go unused.

use crate::graph::Topology;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use wormcast_sim::engine::HostId;
use wormcast_sim::network::RouteTable;

/// The computed up/down orientation for a topology.
///
/// ```
/// use wormcast_topo::{TopoBuilder, UpDown};
/// let mut b = TopoBuilder::new(4); // a ring of four switches
/// b.link(0, 1, 1); b.link(1, 2, 1); b.link(2, 3, 1); b.link(3, 0, 1);
/// for s in 0..4 { b.host(s); }
/// let topo = b.build();
/// let ud = UpDown::compute(&topo, 0);
/// // Every switch pair gets a legal up*-then-down* route:
/// let path = ud.route_switches(&topo, 2, 3, false).unwrap();
/// assert!(ud.is_legal(&path));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct UpDown {
    pub root: usize,
    /// BFS level of each switch (root = 0).
    pub level: Vec<u32>,
    /// Parent switch in the spanning tree (None for the root).
    pub parent: Vec<Option<usize>>,
    /// Whether each link (by topology link index) is in the spanning tree.
    pub tree_link: Vec<bool>,
}

impl UpDown {
    /// Compute the spanning tree and link orientations from `root`.
    ///
    /// Neighbor exploration is ordered by link insertion, so the result is
    /// deterministic for a given topology.
    pub fn compute(topo: &Topology, root: usize) -> Self {
        let n = topo.num_switches();
        assert!(root < n, "root {root} out of range ({n} switches)");
        assert!(topo.is_connected(), "up/down needs a connected topology");
        let mut level = vec![u32::MAX; n];
        let mut parent = vec![None; n];
        let mut tree_link = vec![false; topo.links.len()];
        let mut q = VecDeque::new();
        level[root] = 0;
        q.push_back(root);
        while let Some(u) = q.pop_front() {
            for (v, _, _, li) in topo.neighbors(u) {
                if level[v] == u32::MAX {
                    level[v] = level[u] + 1;
                    parent[v] = Some(u);
                    tree_link[li] = true;
                    q.push_back(v);
                }
            }
        }
        UpDown {
            root,
            level,
            parent,
            tree_link,
        }
    }

    /// Is traversing from `u` to `v` an *up* traversal (towards the root)?
    /// Ties in level are broken by switch id, as in Autonet.
    #[inline]
    pub fn is_up(&self, u: usize, v: usize) -> bool {
        (self.level[v], v) < (self.level[u], u)
    }

    /// Is a switch-path legal under up/down (up* then down*)?
    pub fn is_legal(&self, path: &[usize]) -> bool {
        let mut descending = false;
        for w in path.windows(2) {
            if self.is_up(w[0], w[1]) {
                if descending {
                    return false;
                }
            } else {
                descending = true;
            }
        }
        true
    }

    /// Shortest legal switch route from `from` to `to`:
    /// the output port taken at each switch along the way.
    ///
    /// With `restrict_to_tree`, only spanning-tree links may be used (the
    /// Section 3 restricted scheme).
    ///
    /// Several shortest legal paths usually exist; the choice among them is
    /// fixed per `(from, to, tiebreak)` triple, with `tiebreak` shuffling
    /// the exploration order. The paper notes it used "a fixed choice of
    /// one path per source-destination pair among all possible equal
    /// length paths"; deriving `tiebreak` from the pair spreads those
    /// fixed choices across the equal-length alternatives instead of
    /// funnelling every pair over the same links.
    ///
    /// Returns `None` only when `restrict_to_tree` cuts connectivity —
    /// impossible for a spanning tree, so in practice always `Some`.
    pub fn route_ports(
        &self,
        topo: &Topology,
        from: usize,
        to: usize,
        restrict_to_tree: bool,
    ) -> Option<Vec<u8>> {
        self.route_ports_tiebreak(topo, from, to, restrict_to_tree, 0)
    }

    /// [`Self::route_ports`] with an explicit tie-break selector.
    pub fn route_ports_tiebreak(
        &self,
        topo: &Topology,
        from: usize,
        to: usize,
        restrict_to_tree: bool,
        tiebreak: u64,
    ) -> Option<Vec<u8>> {
        RouteSearch::new(self, topo).route(from, to, restrict_to_tree, tiebreak)
    }

    /// The full switch sequence of the route from `from` to `to` (for
    /// legality checks and hop statistics).
    pub fn route_switches(
        &self,
        topo: &Topology,
        from: usize,
        to: usize,
        restrict_to_tree: bool,
    ) -> Option<Vec<usize>> {
        let ports = self.route_ports(topo, from, to, restrict_to_tree)?;
        let mut path = vec![from];
        let mut cur = from;
        for p in ports {
            let (next, _, _, _) = *topo
                .neighbors(cur)
                .iter()
                .find(|&&(_, out, _, _)| out == p)
                .expect("route uses an existing port");
            path.push(next);
            cur = next;
        }
        debug_assert_eq!(cur, to);
        Some(path)
    }

    /// Build the unicast route table for every ordered host pair.
    ///
    /// A route is the switch-path ports followed by the destination host's
    /// port on its final switch. Hosts on the same switch route in one hop.
    pub fn route_table(&self, topo: &Topology, restrict_to_tree: bool) -> RouteTable {
        let nh = topo.num_hosts();
        let mut rt = RouteTable::new(nh);
        // Cache switch-to-switch port paths.
        let ns = topo.num_switches();
        let mut cache: Vec<Vec<Option<Vec<u8>>>> = vec![vec![None; ns]; ns];
        let mut search = RouteSearch::new(self, topo);
        for (si, s) in topo.hosts.iter().enumerate() {
            for (di, d) in topo.hosts.iter().enumerate() {
                if si == di {
                    continue;
                }
                if cache[s.switch][d.switch].is_none() {
                    let tiebreak = (s.switch as u64) << 32 | d.switch as u64 | 1;
                    cache[s.switch][d.switch] = Some(
                        search
                            .route(s.switch, d.switch, restrict_to_tree, tiebreak)
                            .expect("spanning tree keeps everything reachable"),
                    );
                }
                let mut ports = cache[s.switch][d.switch].clone().expect("just filled");
                ports.push(d.port);
                rt.set(HostId(si as u32), HostId(di as u32), ports);
            }
        }
        rt
    }

    /// Mean switch-path hop count over all ordered host pairs (the metric
    /// behind the paper's observation that up/down paths are "generally not
    /// shortest paths").
    pub fn mean_hops(&self, topo: &Topology, restrict_to_tree: bool) -> f64 {
        let mut total = 0usize;
        let mut pairs = 0usize;
        let mut search = RouteSearch::new(self, topo);
        for (si, s) in topo.hosts.iter().enumerate() {
            for (di, d) in topo.hosts.iter().enumerate() {
                if si == di {
                    continue;
                }
                total += search
                    .route(s.switch, d.switch, restrict_to_tree, 0)
                    .expect("reachable")
                    .len();
                pairs += 1;
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        }
    }
}

/// Shortest-legal-route search over one topology: the per-switch neighbour
/// lists are built once (link-insertion order, as [`Topology::neighbors`]
/// gives them) and the BFS scratch is reused from one pair to the next.
struct RouteSearch<'a> {
    ud: &'a UpDown,
    adj: Vec<Vec<(usize, u8, u8, usize)>>,
    /// Predecessor state per `(switch, phase)` state, `UNSEEN` if unvisited.
    pred: Vec<usize>,
    pred_port: Vec<u8>,
    queue: VecDeque<usize>,
}

const UNSEEN: usize = usize::MAX;

impl<'a> RouteSearch<'a> {
    fn new(ud: &'a UpDown, topo: &Topology) -> Self {
        let states = 2 * topo.num_switches();
        RouteSearch {
            ud,
            adj: topo.adjacency(),
            pred: vec![UNSEEN; states],
            pred_port: vec![0; states],
            queue: VecDeque::new(),
        }
    }

    /// See [`UpDown::route_ports_tiebreak`].
    fn route(
        &mut self,
        from: usize,
        to: usize,
        restrict_to_tree: bool,
        tiebreak: u64,
    ) -> Option<Vec<u8>> {
        if from == to {
            return Some(Vec::new());
        }
        // BFS over (switch, phase): phase 0 = may still climb, 1 = descending.
        self.pred.fill(UNSEEN);
        self.queue.clear();
        let start = from * 2;
        self.pred[start] = start; // mark visited; self-predecessor flags the start
        self.queue.push_back(start);
        let mut goal: Option<usize> = None;
        'bfs: while let Some(state) = self.queue.pop_front() {
            let (u, phase) = (state / 2, state % 2);
            let neigh = &self.adj[u];
            let m = neigh.len();
            // Deterministic shuffle keyed on (tiebreak, u): rotates and
            // reverses the exploration order so equal-length paths vary
            // per source-destination pair.
            let (rotate, reverse) = if tiebreak != 0 {
                let key = tiebreak
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u as u64);
                ((key as usize) % m.max(1), (key >> 32) & 1 == 1)
            } else {
                (0, false)
            };
            for i in 0..m {
                let i = if reverse { m - 1 - i } else { i };
                let (v, out_port, _, li) = neigh[(i + rotate) % m];
                if restrict_to_tree && !self.ud.tree_link[li] {
                    continue;
                }
                let up = self.ud.is_up(u, v);
                let next_phase = if up { 0 } else { 1 };
                if phase == 1 && up {
                    continue; // no up after down
                }
                let next = v * 2 + next_phase;
                if self.pred[next] == UNSEEN {
                    self.pred[next] = state;
                    self.pred_port[next] = out_port;
                    if v == to {
                        goal = Some(next);
                        break 'bfs;
                    }
                    self.queue.push_back(next);
                }
            }
        }
        let mut state = goal?;
        let mut ports = Vec::new();
        while self.pred[state] != state {
            ports.push(self.pred_port[state]);
            state = self.pred[state];
        }
        ports.reverse();
        Some(ports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopoBuilder;

    /// A 4-switch ring with one host each.
    fn ring4() -> Topology {
        let mut b = TopoBuilder::new(4);
        b.link(0, 1, 1);
        b.link(1, 2, 1);
        b.link(2, 3, 1);
        b.link(3, 0, 1);
        for s in 0..4 {
            b.host(s);
        }
        b.build()
    }

    #[test]
    fn bfs_levels_on_ring() {
        let t = ring4();
        let ud = UpDown::compute(&t, 0);
        assert_eq!(ud.level, vec![0, 1, 2, 1]);
        assert_eq!(ud.parent[0], None);
        assert_eq!(ud.parent[1], Some(0));
        assert_eq!(ud.parent[3], Some(0));
        // Exactly n-1 tree links.
        assert_eq!(ud.tree_link.iter().filter(|&&t| t).count(), 3);
    }

    #[test]
    fn up_orientation() {
        let t = ring4();
        let ud = UpDown::compute(&t, 0);
        assert!(ud.is_up(1, 0));
        assert!(!ud.is_up(0, 1));
        // Same level (1 and 3): id breaks the tie.
        assert!(ud.is_up(3, 1));
        assert!(!ud.is_up(1, 3));
    }

    #[test]
    fn legality_checker() {
        let t = ring4();
        let ud = UpDown::compute(&t, 0);
        assert!(ud.is_legal(&[2, 1, 0, 3])); // up, up, down
        assert!(ud.is_legal(&[0, 3]));
        assert!(!ud.is_legal(&[0, 1, 0])); // down then up
    }

    #[test]
    fn routes_are_legal_and_reach() {
        let t = ring4();
        let ud = UpDown::compute(&t, 0);
        for s in 0..4 {
            for d in 0..4 {
                let path = ud.route_switches(&t, s, d, false).expect("reachable");
                assert_eq!(*path.first().unwrap(), s);
                assert_eq!(*path.last().unwrap(), d);
                assert!(ud.is_legal(&path), "illegal path {path:?}");
            }
        }
    }

    #[test]
    fn restricted_routes_use_only_tree_links() {
        let t = ring4();
        let ud = UpDown::compute(&t, 0);
        // 2 -> 3 unrestricted can use the 2-3 crosslink... (2,3) is a tree
        // link? Tree links: 0-1, 1-2, 3-0. So 2-3 is the crosslink.
        let unrestricted = ud.route_switches(&t, 2, 3, false).unwrap();
        assert_eq!(unrestricted, vec![2, 3]);
        let restricted = ud.route_switches(&t, 2, 3, true).unwrap();
        assert_eq!(restricted, vec![2, 1, 0, 3]);
        assert!(ud.is_legal(&restricted));
    }

    #[test]
    fn route_table_has_every_pair() {
        let t = ring4();
        let ud = UpDown::compute(&t, 0);
        let rt = ud.route_table(&t, false);
        for s in 0..4u32 {
            for d in 0..4u32 {
                if s == d {
                    continue;
                }
                let r = rt.get(HostId(s), HostId(d));
                assert!(!r.is_empty(), "missing route {s}->{d}");
            }
        }
        // Same-switch is impossible here; adjacent pair route includes the
        // host port as its last entry.
        let r = rt.get(HostId(0), HostId(1));
        assert_eq!(r.len(), 2); // one switch hop + host port
    }

    #[test]
    fn same_switch_hosts_route_directly() {
        let mut b = TopoBuilder::new(1);
        let _h0 = b.host(0);
        let _h1 = b.host(0);
        let t = b.build();
        let ud = UpDown::compute(&t, 0);
        let rt = ud.route_table(&t, false);
        let r = rt.get(HostId(0), HostId(1));
        assert_eq!(r, &[1]); // host 1 sits on port 1
    }

    /// The search as it was before the neighbour lists were built once:
    /// `Topology::neighbors` (a scan of every link) at every BFS state,
    /// shuffled in place.
    fn reference_route_ports(
        ud: &UpDown,
        topo: &Topology,
        from: usize,
        to: usize,
        restrict_to_tree: bool,
        tiebreak: u64,
    ) -> Vec<u8> {
        let mut pred = vec![UNSEEN; 2 * topo.num_switches()];
        let mut pred_port = vec![0u8; 2 * topo.num_switches()];
        let start = from * 2;
        let mut q = VecDeque::from([start]);
        pred[start] = start;
        let mut goal = None;
        'bfs: while let Some(state) = q.pop_front() {
            let (u, phase) = (state / 2, state % 2);
            let mut neigh = topo.neighbors(u);
            let key = tiebreak
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u as u64);
            let m = neigh.len().max(1);
            neigh.rotate_left((key as usize) % m);
            if (key >> 32) & 1 == 1 {
                neigh.reverse();
            }
            for (v, out_port, _, li) in neigh {
                let up = ud.is_up(u, v);
                if (restrict_to_tree && !ud.tree_link[li]) || (phase == 1 && up) {
                    continue;
                }
                let next = v * 2 + usize::from(!up);
                if pred[next] == UNSEEN {
                    pred[next] = state;
                    pred_port[next] = out_port;
                    if v == to {
                        goal = Some(next);
                        break 'bfs;
                    }
                    q.push_back(next);
                }
            }
        }
        let mut state = goal.expect("reachable");
        let mut ports = Vec::new();
        while pred[state] != state {
            ports.push(pred_port[state]);
            state = pred[state];
        }
        ports.reverse();
        ports
    }

    /// Which of several equal-length legal paths a pair gets decides which
    /// links congest, so every simulated statistic depends on it: the
    /// table must equal the reference search's, pair for pair.
    #[test]
    fn route_table_matches_per_state_neighbor_scan() {
        use crate::irregular::{irregular, IrregularSpec};
        let spec = IrregularSpec {
            num_switches: 14,
            extra_links: 9,
            hosts_per_switch: 2,
            link_delay: 1,
        };
        let mut topos = vec![
            crate::torus::torus(8, 1),
            crate::shufflenet::shufflenet24(1),
        ];
        topos.extend([3, 17, 40].map(|seed| irregular(spec, seed)));
        for topo in &topos {
            let ud = UpDown::compute(topo, 0);
            for restrict in [false, true] {
                let rt = ud.route_table(topo, restrict);
                for (si, s) in topo.hosts.iter().enumerate() {
                    for (di, d) in topo.hosts.iter().enumerate() {
                        if si == di {
                            continue;
                        }
                        let tiebreak = (s.switch as u64) << 32 | d.switch as u64 | 1;
                        let mut want = if s.switch == d.switch {
                            Vec::new()
                        } else {
                            reference_route_ports(&ud, topo, s.switch, d.switch, restrict, tiebreak)
                        };
                        want.push(d.port);
                        assert_eq!(
                            rt.get(HostId(si as u32), HostId(di as u32)),
                            want,
                            "{si}->{di} restrict={restrict}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mean_hops_restricted_is_never_shorter() {
        let t = ring4();
        let ud = UpDown::compute(&t, 0);
        assert!(ud.mean_hops(&t, true) >= ud.mean_hops(&t, false));
    }
}
