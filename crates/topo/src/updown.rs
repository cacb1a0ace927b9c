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

use crate::graph::{HostPort, Topology};
use std::collections::VecDeque;
use wormcast_sim::engine::HostId;
use wormcast_sim::network::{RouteSource, RouteTable};

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
#[derive(Clone, Debug)]
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
        let adj = topo.adjacency();
        let mut q = VecDeque::new();
        level[root] = 0;
        q.push_back(root);
        while let Some(u) = q.pop_front() {
            for &(v, _, _, li) in &adj[u] {
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
        let (search, row) = RouteSearch::one_row(self, topo, to, restrict_to_tree);
        let ports = walk(&search.moves, &row, from, tiebreak)?.map(|(port, _)| port);
        Some(ports.collect())
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
        let (search, row) = RouteSearch::one_row(self, topo, to, restrict_to_tree);
        let hops = walk(&search.moves, &row, from, 0)?.map(|(_, next)| next);
        Some(std::iter::once(from).chain(hops).collect())
    }

    /// The unicast route table for every ordered host pair.
    ///
    /// A route is the switch-path ports followed by the destination host's
    /// port on its final switch. Hosts on the same switch route in one hop.
    /// Set-up builds the state graph and one distance row per destination
    /// switch, Θ(S·(S+E)) for S switches and E links, and walks nothing:
    /// the table walks a pair's route on its first use, with the tie-break
    /// `(source switch << 32) | destination switch | 1`.
    pub fn route_table(&self, topo: &Topology, restrict_to_tree: bool) -> RouteTable {
        let states = 2 * topo.num_switches();
        assert!(
            states < FAR as usize,
            "{states} states overflow the u16 distance rows"
        );
        let mut search = RouteSearch::new(self, topo, restrict_to_tree);
        let mut dist = vec![FAR; states * topo.num_switches()];
        for (to, row) in dist.chunks_exact_mut(states).enumerate() {
            search.toward(to, row);
        }
        let rows = UpDownRows {
            moves: search.moves,
            dist,
            hosts: topo.hosts.clone(),
        };
        RouteTable::with_source(topo.num_hosts(), Box::new(rows))
    }

    /// Mean switch-path hop count over all ordered host pairs (the metric
    /// behind the paper's observation that up/down paths are "generally not
    /// shortest paths").
    ///
    /// Every shortest legal path of a pair has the same length, so this
    /// needs the distances only, no walk and no tie-break.
    pub fn mean_hops(&self, topo: &Topology, restrict_to_tree: bool) -> f64 {
        let nh = topo.num_hosts();
        if nh < 2 {
            return 0.0;
        }
        let mut total = 0usize;
        let mut search = RouteSearch::new(self, topo, restrict_to_tree);
        let mut row = vec![FAR; 2 * topo.num_switches()];
        for to in 0..topo.num_switches() {
            let dsts = topo.hosts_at(to).len();
            if dsts > 0 {
                search.toward(to, &mut row);
                for s in &topo.hosts {
                    total += dsts * row[2 * s.switch] as usize;
                }
            }
        }
        total as f64 / (nh * (nh - 1)) as f64
    }
}

/// A route table's up/down routes as data: the state graph of
/// [`RouteSearch`] and its distance row toward every switch.
#[derive(Debug)]
struct UpDownRows {
    moves: Vec<Vec<(u8, [usize; 2])>>,
    /// Row `to` (`2 × switches` entries, one per state): the hops from
    /// each state to switch `to`.
    dist: Vec<u16>,
    hosts: Vec<HostPort>,
}

impl UpDownRows {
    fn row(&self, to: usize) -> &[u16] {
        let states = self.moves.len() * 2;
        &self.dist[to * states..(to + 1) * states]
    }
}

impl RouteSource for UpDownRows {
    fn hops(&self, src: HostId, dst: HostId) -> usize {
        let (s, d) = (self.hosts[src.0 as usize], self.hosts[dst.0 as usize]);
        if src == dst {
            0
        } else {
            self.row(d.switch)[2 * s.switch] as usize + 1
        }
    }

    fn walk(&self, src: HostId, dst: HostId, out: &mut Vec<u8>) {
        let (s, d) = (self.hosts[src.0 as usize], self.hosts[dst.0 as usize]);
        let tiebreak = (s.switch as u64) << 32 | d.switch as u64 | 1;
        let hops = walk(&self.moves, self.row(d.switch), s.switch, tiebreak)
            .expect("spanning tree keeps everything reachable");
        out.extend(hops.map(|(port, _)| port));
        out.push(d.port);
    }
}

/// Shortest legal routes over one topology, one destination at a time.
///
/// A route is a path over `(switch, phase)` states (phase 0 may still
/// climb, phase 1 is descending) to either state of the destination. A
/// forward BFS exploring each switch's neighbours in the pair's permuted
/// order would return the lexicographically first shortest path in that
/// order; [`walk`] finds the same path by taking, at each switch, the first
/// neighbour one step nearer on [`Self::toward`]'s distances.
struct RouteSearch {
    /// Per switch, per neighbour in link-insertion order (as
    /// [`Topology::neighbors`] gives them): the output port and the state
    /// the move leads to from phase 0 and from phase 1, `NONE` where the
    /// tree restriction or the no-up-after-down rule forbids it.
    moves: Vec<Vec<(u8, [usize; 2])>>,
    /// Per state, the states with a move into it.
    preds: Vec<Vec<usize>>,
    queue: VecDeque<usize>,
}

const NONE: usize = usize::MAX;

/// The distance of a state that cannot reach the destination.
const FAR: u16 = u16::MAX;

impl RouteSearch {
    fn new(ud: &UpDown, topo: &Topology, restrict_to_tree: bool) -> Self {
        let adj = topo.adjacency();
        let mut moves = Vec::with_capacity(adj.len());
        let mut preds = vec![Vec::new(); 2 * adj.len()];
        for (u, neigh) in adj.into_iter().enumerate() {
            let mut out = Vec::with_capacity(neigh.len());
            for (v, port, _, li) in neigh {
                let up = ud.is_up(u, v);
                let allowed = !restrict_to_tree || ud.tree_link[li];
                let state = 2 * v + usize::from(!up);
                let next = [allowed, allowed && !up].map(|ok| if ok { state } else { NONE });
                for (phase, &t) in next.iter().enumerate().filter(|&(_, &t)| t != NONE) {
                    preds[t].push(2 * u + phase);
                }
                out.push((port, next));
            }
            moves.push(out);
        }
        RouteSearch {
            moves,
            preds,
            queue: VecDeque::new(),
        }
    }

    /// The search and its one row toward `to`, for a single route.
    fn one_row(
        ud: &UpDown,
        topo: &Topology,
        to: usize,
        restrict_to_tree: bool,
    ) -> (Self, Vec<u16>) {
        let mut search = Self::new(ud, topo, restrict_to_tree);
        let mut row = vec![FAR; search.preds.len()];
        search.toward(to, &mut row);
        (search, row)
    }

    /// Fill `row` (one entry per state) with the distances-to-go toward
    /// switch `to`: a BFS back from both its states.
    fn toward(&mut self, to: usize, row: &mut [u16]) {
        row.fill(FAR);
        row[2 * to..2 * to + 2].fill(0);
        self.queue.extend([2 * to, 2 * to + 1]);
        while let Some(t) = self.queue.pop_front() {
            for &s in &self.preds[t] {
                if row[s] == FAR {
                    row[s] = row[t] + 1;
                    self.queue.push_back(s);
                }
            }
        }
    }
}

/// The hops `(out_port, next_switch)` of `from`'s route to the switch
/// whose distance `row` ([`RouteSearch::toward`]) is given, `None` if it
/// cannot be reached. Its `len()` is the hop count, read without walking.
///
/// Switch `u`'s neighbour order is rotated, and reversed on one bit, by a
/// key hashed from `(tiebreak, u)`, so equal-length paths vary per
/// source-destination pair; `tiebreak == 0` keeps link-insertion order.
fn walk<'a>(
    moves: &'a [Vec<(u8, [usize; 2])>],
    row: &'a [u16],
    from: usize,
    tiebreak: u64,
) -> Option<impl ExactSizeIterator<Item = (u8, usize)> + 'a> {
    let mut state = 2 * from;
    let len = row[state];
    (len != FAR).then(|| {
        (0..len).rev().map(move |left| {
            let (u, phase) = (state / 2, state % 2);
            let moves = &moves[u];
            let m = moves.len();
            let key = match tiebreak {
                0 => 0,
                t => t.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(u as u64),
            };
            let (rotate, reverse) = ((key as usize) % m, (key >> 32) & 1 == 1);
            let (port, next) = (0..m)
                .map(|i| moves[(if reverse { m - 1 - i } else { i } + rotate) % m])
                .map(|(port, next)| (port, next[phase]))
                .find(|&(_, next)| next != NONE && row[next] == left)
                .expect("every state short of the goal has a move one step nearer");
            state = next;
            (port, next / 2)
        })
    })
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
        let mut rt = ud.route_table(&t, false);
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
        let mut rt = ud.route_table(&t, false);
        let r = rt.get(HostId(0), HostId(1));
        assert_eq!(r, &[1]); // host 1 sits on port 1
    }

    /// The oracle cases run ten times over in release builds (as
    /// `wormcast_sim::wheel`'s differential tests do; CI runs both).
    const SCALE: u64 = if cfg!(debug_assertions) { 1 } else { 10 };

    type Neighbors = Vec<Vec<(usize, u8, u8, usize)>>;

    /// Every switch's [`Topology::neighbors`], each from its own link scan.
    fn neighbor_scan(topo: &Topology) -> Neighbors {
        (0..topo.num_switches())
            .map(|u| topo.neighbors(u))
            .collect()
    }

    /// The fabrics the oracle tests draw: tori 3/5/12, the Fig 11
    /// shufflenet, and `200 × SCALE` irregular ones of 3–32 switches, 0–20
    /// crosslinks and 1–3 hosts per switch.
    fn oracle_topologies() -> impl Iterator<Item = Topology> {
        use crate::irregular::{irregular, IrregularSpec};
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let regular = [3, 5, 12].map(|k| crate::torus::torus(k, 1));
        let drawn = (0..200 * SCALE).map(|seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let spec = IrregularSpec {
                num_switches: rng.gen_range(3..=32),
                extra_links: rng.gen_range(0..=20),
                hosts_per_switch: rng.gen_range(1..=3),
                link_delay: 1,
            };
            irregular(spec, seed)
        });
        regular
            .into_iter()
            .chain([crate::shufflenet::shufflenet24(1)])
            .chain(drawn)
    }

    /// Up/down orientations from roots 0 and S/2.
    fn rooted(topo: &Topology) -> [UpDown; 2] {
        [0, topo.num_switches() / 2].map(|root| UpDown::compute(topo, root))
    }

    /// The forward search the route table used to run for every pair: a
    /// `(switch, phase)` BFS from `(from, 0)` that explores each switch's
    /// `neighbors` rotated and reversed by the `(tiebreak, switch)` key
    /// (unpermuted for `tiebreak == 0`), and stops at the first state of
    /// either phase discovered at `to`.
    fn reference_route_ports(
        ud: &UpDown,
        neighbors: &Neighbors,
        from: usize,
        to: usize,
        restrict_to_tree: bool,
        tiebreak: u64,
    ) -> Vec<u8> {
        if from == to {
            return Vec::new();
        }
        let mut pred = vec![NONE; 2 * neighbors.len()];
        let mut pred_port = vec![0u8; 2 * neighbors.len()];
        let start = from * 2;
        let mut q = VecDeque::from([start]);
        pred[start] = start;
        let mut goal = None;
        'bfs: while let Some(state) = q.pop_front() {
            let (u, phase) = (state / 2, state % 2);
            let mut neigh = neighbors[u].clone();
            if tiebreak != 0 {
                let key = tiebreak
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(u as u64);
                let m = neigh.len().max(1);
                neigh.rotate_left((key as usize) % m);
                if (key >> 32) & 1 == 1 {
                    neigh.reverse();
                }
            }
            for (v, out_port, _, li) in neigh {
                let up = ud.is_up(u, v);
                if (restrict_to_tree && !ud.tree_link[li]) || (phase == 1 && up) {
                    continue;
                }
                let next = v * 2 + usize::from(!up);
                if pred[next] == NONE {
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

    /// `UpDown::compute` as it was before it read `Topology::adjacency`:
    /// one `Topology::neighbors` link scan per dequeued switch.
    fn reference_compute(topo: &Topology, root: usize) -> UpDown {
        let n = topo.num_switches();
        let mut level = vec![u32::MAX; n];
        let mut parent = vec![None; n];
        let mut tree_link = vec![false; topo.links.len()];
        let mut q = VecDeque::from([root]);
        level[root] = 0;
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

    #[test]
    fn compute_matches_per_switch_neighbor_scan() {
        for topo in oracle_topologies() {
            for ud in rooted(&topo) {
                let want = reference_compute(&topo, ud.root);
                assert_eq!(ud.level, want.level, "root {}", ud.root);
                assert_eq!(ud.parent, want.parent, "root {}", ud.root);
                assert_eq!(ud.tree_link, want.tree_link, "root {}", ud.root);
            }
        }
    }

    /// The oracle's route table: per host pair, the reference search's
    /// ports with the table's tie-break, then the destination host's port
    /// (empty for a host to itself).
    fn oracle_routes(
        topo: &Topology,
        ud: &UpDown,
        neighbors: &Neighbors,
        restrict: bool,
    ) -> Vec<Vec<Vec<u8>>> {
        let ns = topo.num_switches();
        let switch_routes: Vec<Vec<Vec<u8>>> = (0..ns)
            .map(|a| {
                (0..ns)
                    .map(|b| {
                        let tiebreak = (a as u64) << 32 | b as u64 | 1;
                        reference_route_ports(ud, neighbors, a, b, restrict, tiebreak)
                    })
                    .collect()
            })
            .collect();
        let hosts = || topo.hosts.iter().enumerate();
        hosts()
            .map(|(si, s)| {
                hosts()
                    .map(|(di, d)| {
                        let ports = &switch_routes[s.switch][d.switch];
                        let host_port = (si != di).then_some(d.port);
                        ports.iter().copied().chain(host_port).collect()
                    })
                    .collect()
            })
            .collect()
    }

    /// Every ordered pair of distinct hosts.
    fn host_pairs(topo: &Topology) -> Vec<(HostId, HostId)> {
        let ids = || (0..topo.num_hosts() as u32).map(HostId);
        ids()
            .flat_map(|s| ids().filter(move |&d| d != s).map(move |d| (s, d)))
            .collect()
    }

    /// Which of several equal-length legal paths a pair gets decides which
    /// links congest, so every simulated statistic depends on it: the
    /// table must equal the reference search's, pair for pair. Its hop
    /// counts, read before any route is walked, must equal the reference
    /// routes' lengths, and `mean_hops` their mean, bit for bit; the routes
    /// are then walked in a shuffled order.
    #[test]
    fn route_table_matches_per_state_neighbor_scan() {
        use rand::{rngs::SmallRng, seq::SliceRandom, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x0DE5);
        for topo in oracle_topologies() {
            let neighbors = neighbor_scan(&topo);
            let mut pairs = host_pairs(&topo);
            for ud in rooted(&topo) {
                for restrict in [false, true] {
                    let want = oracle_routes(&topo, &ud, &neighbors, restrict);
                    let mut rt = ud.route_table(&topo, restrict);
                    let case = |(s, d): (HostId, HostId)| {
                        format!("{}->{} root={} restrict={restrict}", s.0, d.0, ud.root)
                    };
                    let mut total = 0;
                    for &(s, d) in &pairs {
                        let want = &want[s.0 as usize][d.0 as usize];
                        assert_eq!(rt.hops(s, d), want.len(), "{}", case((s, d)));
                        total += want.len() - 1;
                    }
                    assert_eq!(
                        ud.mean_hops(&topo, restrict).to_bits(),
                        (total as f64 / pairs.len() as f64).to_bits()
                    );
                    pairs.shuffle(&mut rng);
                    for &(s, d) in &pairs {
                        let want = &want[s.0 as usize][d.0 as usize];
                        assert_eq!(rt.get(s, d), want, "{}", case((s, d)));
                    }
                }
            }
        }
    }

    /// The arena keeps each route where it was walked: with one pair
    /// routed first, every other pair still gets the oracle's route, and
    /// the first pair keeps its own. A route `set` over a walked table
    /// replaces that pair's route and hop count only.
    #[test]
    fn a_walked_route_overwrites_no_other() {
        use crate::irregular::{irregular, IrregularSpec};
        let spec = IrregularSpec {
            num_switches: 12,
            extra_links: 6,
            hosts_per_switch: 2,
            link_delay: 1,
        };
        let topo = irregular(spec, 11);
        let neighbors = neighbor_scan(&topo);
        let ud = UpDown::compute(&topo, 0);
        let want = oracle_routes(&topo, &ud, &neighbors, false);
        let route = |(s, d): (HostId, HostId)| &want[s.0 as usize][d.0 as usize];
        let pairs = host_pairs(&topo);
        let last = *pairs.last().unwrap();
        for first in [pairs[0], pairs[pairs.len() / 2], last] {
            let mut rt = ud.route_table(&topo, false);
            assert_eq!(rt.get(first.0, first.1), route(first));
            for &(s, d) in &pairs {
                assert_eq!(
                    rt.get(s, d),
                    route((s, d)),
                    "{}->{} after {first:?}",
                    s.0,
                    d.0
                );
            }
            assert_eq!(rt.get(first.0, first.1), route(first));
        }
        let mut rt = ud.route_table(&topo, false);
        rt.set(last.0, last.1, vec![9, 9]);
        assert_eq!(rt.hops(last.0, last.1), 2);
        assert_eq!(rt.get(last.0, last.1), [9, 9]);
        for &(s, d) in &pairs[..pairs.len() - 1] {
            assert_eq!(rt.hops(s, d), route((s, d)).len());
            assert_eq!(rt.get(s, d), route((s, d)));
        }
    }

    #[test]
    fn route_ports_tiebreak_matches_the_oracle_for_any_tiebreak() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x7E5);
        for topo in oracle_topologies() {
            let neighbors = neighbor_scan(&topo);
            let ns = topo.num_switches();
            for ud in rooted(&topo) {
                for restrict in [false, true] {
                    for _ in 0..8 {
                        let (from, to) = (rng.gen_range(0..ns), rng.gen_range(0..ns));
                        let table = (from as u64) << 32 | to as u64 | 1;
                        for tiebreak in [0, table, rng.gen(), rng.gen()] {
                            assert_eq!(
                                ud.route_ports_tiebreak(&topo, from, to, restrict, tiebreak),
                                Some(reference_route_ports(
                                    &ud, &neighbors, from, to, restrict, tiebreak
                                )),
                                "{from}->{to} root={} restrict={restrict} tiebreak={tiebreak:#x}",
                                ud.root
                            );
                        }
                        let ports = ud.route_ports(&topo, from, to, restrict).unwrap();
                        let path = ud.route_switches(&topo, from, to, restrict).unwrap();
                        assert_eq!(path.len(), ports.len() + 1);
                        assert!(path.windows(2).zip(&ports).all(|(w, &p)| {
                            neighbors[w[0]]
                                .iter()
                                .any(|&(v, out, _, _)| (v, out) == (w[1], p))
                        }));
                    }
                }
            }
        }
    }

    /// The first fabric bigger than Fig 10's: every one of the 65 280
    /// routes of the 16×16 torus is legal and ends at its destination's
    /// host port, and a strided sample of them equals the oracle's.
    #[test]
    fn route_table_scales_to_the_16x16_torus() {
        let topo = crate::torus::torus(16, 1);
        let neighbors = neighbor_scan(&topo);
        let ud = UpDown::compute(&topo, 0);
        let mut rt = ud.route_table(&topo, false);
        let nh = topo.num_hosts();
        let mut sampled = 0;
        for (si, s) in topo.hosts.iter().enumerate() {
            for (di, d) in topo.hosts.iter().enumerate().filter(|&(di, _)| di != si) {
                let route = rt.get(HostId(si as u32), HostId(di as u32));
                let (&host_port, ports) = route.split_last().expect("non-empty route");
                let mut path = vec![s.switch];
                for &p in ports {
                    let u = *path.last().unwrap();
                    let &(v, _, _, _) = neighbors[u].iter().find(|n| n.1 == p).expect("port");
                    path.push(v);
                }
                assert!(ud.is_legal(&path), "{si}->{di}: illegal {path:?}");
                assert_eq!((*path.last().unwrap(), host_port), (d.switch, d.port));
                if (si * nh + di).is_multiple_of(31) {
                    let tiebreak = (s.switch as u64) << 32 | d.switch as u64 | 1;
                    let want =
                        reference_route_ports(&ud, &neighbors, s.switch, d.switch, false, tiebreak);
                    assert_eq!(ports, want, "{si}->{di}");
                    sampled += 1;
                }
            }
        }
        assert!(sampled >= 2000, "{sampled} sampled");
    }

    #[test]
    fn mean_hops_restricted_is_never_shorter() {
        let t = ring4();
        let ud = UpDown::compute(&t, 0);
        assert!(ud.mean_hops(&t, true) >= ud.mean_hops(&t, false));
    }
}
