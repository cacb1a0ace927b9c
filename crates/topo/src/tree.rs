//! Rooted multicast trees (Section 6, Figure 9).
//!
//! The paper's rule: hosts are ordered by increasing ID from the root down —
//! every child has a higher ID than its parent — and the multicast starts at
//! the root. Buffer requests then always point to a higher ID, so waits
//! cannot cycle (the same argument as the Hamiltonian circuit, without even
//! needing the class reversal when the start-at-root mode is used).
//!
//! Several shapes satisfy the rule; the paper's Figure 9 shows a binary
//! heap-like tree. We provide:
//!
//! * [`TreeShape::BinaryHeap`] — sorted members laid out as a binary heap
//!   (node `i`'s children are `2i+1`, `2i+2`), as in Figure 9;
//! * [`TreeShape::DAryHeap`] — the d-ary generalisation (fan-out trade-off:
//!   wider trees are shallower but serialise more copies per adapter);
//! * [`TreeShape::GreedyHop`] — members are attached in ascending-ID order
//!   to the existing node with the cheapest unicast hop cost; respects the
//!   ID rule *and* adapts to the topology;
//! * [`TreeShape::Star`] — the root sends to everyone (degenerate case,
//!   equivalent to repeated unicast from the lowest-ID host).

use crate::hostgraph::HostGraph;
use std::collections::BTreeMap;
use wormcast_sim::engine::HostId;

/// Tree construction strategy. All strategies respect the child-ID > parent-ID
/// deadlock rule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TreeShape {
    BinaryHeap,
    DAryHeap(u8),
    GreedyHop,
    Star,
}

/// A rooted multicast tree over a group's members.
///
/// ```
/// use wormcast_sim::engine::HostId;
/// use wormcast_topo::tree::{MulticastTree, TreeShape};
/// let members: Vec<HostId> = [10, 36, 12, 19, 23].iter().map(|&i| HostId(i)).collect();
/// let tree = MulticastTree::build(&members, TreeShape::BinaryHeap, None);
/// assert_eq!(tree.root(), HostId(10));
/// assert_eq!(tree.children(HostId(10)), &[HostId(12), HostId(19)]);
/// assert!(tree.respects_id_order()); // the paper's deadlock rule
/// ```
#[derive(Clone, Debug)]
pub struct MulticastTree {
    root: HostId,
    members: Vec<HostId>, // sorted ascending
    children: BTreeMap<HostId, Vec<HostId>>,
    parent: BTreeMap<HostId, HostId>,
}

impl MulticastTree {
    /// Build a tree over `members`. `graph` is required for
    /// [`TreeShape::GreedyHop`] and ignored otherwise.
    pub fn build(members: &[HostId], shape: TreeShape, graph: Option<&HostGraph>) -> Self {
        assert!(!members.is_empty(), "empty multicast group");
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        debug_assert!(
            sorted.windows(2).all(|w| w[0] != w[1]),
            "duplicate members in multicast group"
        );
        let edges: Vec<(HostId, HostId)> = match shape {
            TreeShape::BinaryHeap => heap_edges(&sorted, 2),
            TreeShape::DAryHeap(d) => {
                assert!(d >= 1, "d-ary heap needs d >= 1");
                heap_edges(&sorted, d as usize)
            }
            TreeShape::Star => sorted[1..].iter().map(|&c| (sorted[0], c)).collect(),
            TreeShape::GreedyHop => {
                let g = graph.expect("GreedyHop needs a host graph");
                greedy_edges(&sorted, g)
            }
        };
        let mut children: BTreeMap<HostId, Vec<HostId>> = BTreeMap::new();
        let mut parent = BTreeMap::new();
        for &(p, c) in &edges {
            children.entry(p).or_default().push(c);
            parent.insert(c, p);
        }
        for kids in children.values_mut() {
            kids.sort_unstable(); // forward to lower-ID children first
        }
        MulticastTree {
            root: sorted[0],
            members: sorted,
            children,
            parent,
        }
    }

    pub fn root(&self) -> HostId {
        self.root
    }

    /// Members in ascending ID order.
    pub fn members(&self) -> &[HostId] {
        &self.members
    }

    pub fn contains(&self, h: HostId) -> bool {
        self.members.binary_search(&h).is_ok()
    }

    /// The successors a host forwards a root-initiated multicast to.
    pub fn children(&self, h: HostId) -> &[HostId] {
        self.children.get(&h).map_or(&[], |v| v.as_slice())
    }

    pub fn parent(&self, h: HostId) -> Option<HostId> {
        self.parent.get(&h).copied()
    }

    /// All `(parent, child)` edges.
    pub fn edges(&self) -> Vec<(HostId, HostId)> {
        self.children
            .iter()
            .flat_map(|(&p, kids)| kids.iter().map(move |&c| (p, c)))
            .collect()
    }

    /// For the broadcast-from-originator mode: the tree neighbors of `h`
    /// (parent and children) except `from`, which the message arrived on.
    pub fn neighbors_except(&self, h: HostId, from: Option<HostId>) -> Vec<HostId> {
        let mut out = Vec::new();
        if let Some(p) = self.parent(h) {
            if Some(p) != from {
                out.push(p);
            }
        }
        for &c in self.children(h) {
            if Some(c) != from {
                out.push(c);
            }
        }
        out
    }

    /// Check the deadlock rule: every child ID exceeds its parent's.
    pub fn respects_id_order(&self) -> bool {
        self.edges().iter().all(|&(p, c)| c > p)
    }

    /// Tree depth in edges (0 for a singleton group).
    pub fn depth(&self) -> usize {
        fn go(t: &MulticastTree, h: HostId) -> usize {
            t.children(h)
                .iter()
                .map(|&c| 1 + go(t, c))
                .max()
                .unwrap_or(0)
        }
        go(self, self.root)
    }
}

/// Heap layout: sorted node `i`'s children are `d*i + 1 ..= d*i + d`.
fn heap_edges(sorted: &[HostId], d: usize) -> Vec<(HostId, HostId)> {
    let mut edges = Vec::new();
    for (i, &p) in sorted.iter().enumerate() {
        for j in 1..=d {
            let c = d * i + j;
            if c < sorted.len() {
                edges.push((p, sorted[c]));
            }
        }
    }
    edges
}

/// Attach members in ascending ID order to the cheapest existing node.
/// Parents are always earlier (lower-ID) members, so the ID rule holds by
/// construction. Ties break towards the lowest parent ID (determinism).
fn greedy_edges(sorted: &[HostId], g: &HostGraph) -> Vec<(HostId, HostId)> {
    let mut edges = Vec::new();
    for (i, &c) in sorted.iter().enumerate().skip(1) {
        let best = sorted[..i]
            .iter()
            .copied()
            .min_by_key(|&p| (g.hops(p, c), p))
            .expect("at least the root exists");
        edges.push((best, c));
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopoBuilder;
    use crate::updown::UpDown;

    fn ids(v: &[u32]) -> Vec<HostId> {
        v.iter().map(|&i| HostId(i)).collect()
    }

    fn line_graph(n: usize) -> HostGraph {
        let mut b = TopoBuilder::new(n);
        for s in 0..n - 1 {
            b.link(s, s + 1, 1);
        }
        for s in 0..n {
            b.host(s);
        }
        let t = b.build();
        let ud = UpDown::compute(&t, 0);
        HostGraph::from_routes(&ud.route_table(&t, false))
    }

    #[test]
    fn binary_heap_matches_figure9_shape() {
        // Figure 9: members {10,12,19,23,27,36,41,49,52}; root 10 with
        // children 12 and 19, 12 with 23 and 27, 19 with 36 and 41, ...
        let m = ids(&[49, 10, 36, 12, 19, 23, 27, 52, 41]);
        let t = MulticastTree::build(&m, TreeShape::BinaryHeap, None);
        assert_eq!(t.root(), HostId(10));
        assert_eq!(t.children(HostId(10)), &[HostId(12), HostId(19)]);
        assert_eq!(t.children(HostId(12)), &[HostId(23), HostId(27)]);
        assert_eq!(t.children(HostId(19)), &[HostId(36), HostId(41)]);
        assert_eq!(t.children(HostId(23)), &[HostId(49), HostId(52)]);
        assert!(t.respects_id_order());
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn all_shapes_respect_id_order_and_cover_members() {
        let g = line_graph(10);
        let m = ids(&[9, 0, 4, 2, 7, 5]);
        for shape in [
            TreeShape::BinaryHeap,
            TreeShape::DAryHeap(3),
            TreeShape::GreedyHop,
            TreeShape::Star,
        ] {
            let t = MulticastTree::build(&m, shape, Some(&g));
            assert!(t.respects_id_order(), "{shape:?}");
            // Every non-root member has a parent.
            let mut covered = vec![t.root()];
            covered.extend(t.edges().iter().map(|&(_, c)| c));
            covered.sort_unstable();
            let mut want = m.clone();
            want.sort_unstable();
            assert_eq!(covered, want, "{shape:?}");
        }
    }

    #[test]
    fn star_depth_one() {
        let m = ids(&[3, 1, 8]);
        let t = MulticastTree::build(&m, TreeShape::Star, None);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.children(HostId(1)).len(), 2);
        assert_eq!(t.parent(HostId(8)), Some(HostId(1)));
    }

    #[test]
    fn greedy_prefers_close_parents() {
        let g = line_graph(10);
        // Members 0, 1, 9: 9 should attach to 1 (8 switch hops) rather than
        // 0 (9 hops).
        let m = ids(&[0, 1, 9]);
        let t = MulticastTree::build(&m, TreeShape::GreedyHop, Some(&g));
        assert_eq!(t.parent(HostId(9)), Some(HostId(1)));
    }

    #[test]
    fn neighbors_except_excludes_arrival_edge() {
        let m = ids(&[1, 2, 3, 4, 5]);
        let t = MulticastTree::build(&m, TreeShape::BinaryHeap, None);
        // Tree: 1 -> {2,3}, 2 -> {4,5}.
        let n = t.neighbors_except(HostId(2), Some(HostId(4)));
        assert_eq!(n, vec![HostId(1), HostId(5)]);
        let n_root = t.neighbors_except(HostId(1), None);
        assert_eq!(n_root, vec![HostId(2), HostId(3)]);
    }

    #[test]
    fn singleton_tree() {
        let t = MulticastTree::build(&[HostId(7)], TreeShape::BinaryHeap, None);
        assert_eq!(t.root(), HostId(7));
        assert_eq!(t.depth(), 0);
        assert!(t.children(HostId(7)).is_empty());
        assert!(t.respects_id_order());
    }

    #[test]
    fn dary_heap_fanout_bounded() {
        let m: Vec<HostId> = (0..20).map(HostId).collect();
        let t = MulticastTree::build(&m, TreeShape::DAryHeap(4), None);
        assert!(m.iter().all(|&h| t.children(h).len() <= 4));
        assert!(t.respects_id_order());
    }
}
