//! Hamiltonian circuits over multicast group members (Section 5).
//!
//! The paper's deadlock-avoidance rule orders the circuit by **ascending
//! host ID** — buffer requests then always point from a lower to a higher
//! ID (with the two-buffer-class trick covering the single wrap-around),
//! so waits cannot cycle. That fixes the circuit completely; hop cost is
//! whatever the ID ordering yields.
//!
//! For the ablation study we also provide a hop-cost-aware circuit
//! (nearest-neighbour construction + 2-opt improvement). It is *not*
//! deadlock-safe under the ID rule — it exists to quantify what the ID
//! ordering costs in circuit length.

use crate::hostgraph::HostGraph;
use wormcast_sim::engine::HostId;

/// How to order the circuit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CircuitStrategy {
    /// Ascending host IDs — the paper's deadlock-free rule.
    AscendingIds,
    /// Nearest-neighbour + 2-opt on hop costs (ablation only; ignores the
    /// deadlock rule).
    HopCost,
}

/// Build the multicast circuit over `members` (any order; duplicates are a
/// caller bug). The returned order starts at the lowest-ID member.
pub fn hamiltonian_circuit(
    members: &[HostId],
    graph: &HostGraph,
    strategy: CircuitStrategy,
) -> Vec<HostId> {
    assert!(!members.is_empty(), "empty multicast group");
    let mut order: Vec<HostId> = members.to_vec();
    order.sort_unstable();
    debug_assert!(
        order.windows(2).all(|w| w[0] != w[1]),
        "duplicate members in multicast group"
    );
    match strategy {
        CircuitStrategy::AscendingIds => order,
        CircuitStrategy::HopCost => hop_cost_circuit(&order, graph),
    }
}

/// Nearest-neighbour construction followed by 2-opt improvement, starting
/// from the lowest-ID member for determinism.
fn hop_cost_circuit(sorted: &[HostId], graph: &HostGraph) -> Vec<HostId> {
    let mut remaining: Vec<HostId> = sorted[1..].to_vec();
    let mut order = vec![sorted[0]];
    while !remaining.is_empty() {
        let cur = *order.last().unwrap();
        let (best_ix, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, &h)| (i, (graph.hops(cur, h), h)))
            .min_by_key(|&(_, key)| key)
            .expect("non-empty");
        order.push(remaining.remove(best_ix));
    }
    two_opt(&mut order, graph);
    order
}

/// Classic 2-opt: repeatedly reverse segments while the circuit shortens.
fn two_opt(order: &mut [HostId], graph: &HostGraph) {
    let n = order.len();
    if n < 4 {
        return;
    }
    let mut improved = true;
    while improved {
        improved = false;
        for i in 0..n - 1 {
            for j in i + 2..n {
                // Edge (i, i+1) and (j, j+1 mod n); skip the wrap pair.
                let jn = (j + 1) % n;
                if jn == i {
                    continue;
                }
                let (a, b, c, d) = (order[i], order[i + 1], order[j], order[jn]);
                let before = graph.hops(a, b) + graph.hops(c, d);
                let after = graph.hops(a, c) + graph.hops(b, d);
                if after < before {
                    order[i + 1..=j].reverse();
                    improved = true;
                }
            }
        }
    }
}

/// The successor of `host` on the circuit (wrapping), as stored in each
/// adapter's multicast group table.
pub fn successor(order: &[HostId], host: HostId) -> Option<HostId> {
    let ix = order.iter().position(|&h| h == host)?;
    Some(order[(ix + 1) % order.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopoBuilder;
    use crate::updown::UpDown;

    fn graph_of_line(n: usize) -> HostGraph {
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
    fn ascending_ids_sorts_members() {
        let g = graph_of_line(5);
        let members = [HostId(3), HostId(0), HostId(4)];
        let c = hamiltonian_circuit(&members, &g, CircuitStrategy::AscendingIds);
        assert_eq!(c, vec![HostId(0), HostId(3), HostId(4)]);
    }

    #[test]
    fn circuit_visits_each_member_once() {
        let g = graph_of_line(6);
        let members: Vec<HostId> = (0..6).map(HostId).collect();
        for strat in [CircuitStrategy::AscendingIds, CircuitStrategy::HopCost] {
            let c = hamiltonian_circuit(&members, &g, strat);
            let mut sorted = c.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, members, "{strat:?} lost or duplicated members");
        }
    }

    #[test]
    fn hop_cost_never_worse_than_id_order_on_a_line() {
        let g = graph_of_line(7);
        // A scattered member set where ID order is already optimal on a
        // line, so HopCost must match it.
        let members = [HostId(1), HostId(3), HostId(5)];
        let id_order = hamiltonian_circuit(&members, &g, CircuitStrategy::AscendingIds);
        let hop_order = hamiltonian_circuit(&members, &g, CircuitStrategy::HopCost);
        // The hop length of the closed circuit (the paper's Figure 8).
        let length = |order: &[HostId]| -> u32 {
            let next = order.iter().cycle().skip(1);
            order.iter().zip(next).map(|(&a, &b)| g.hops(a, b)).sum()
        };
        assert!(length(&hop_order) <= length(&id_order));
    }

    #[test]
    fn successor_wraps() {
        let order = [HostId(2), HostId(5), HostId(9)];
        assert_eq!(successor(&order, HostId(2)), Some(HostId(5)));
        assert_eq!(successor(&order, HostId(9)), Some(HostId(2)));
        assert_eq!(successor(&order, HostId(7)), None);
    }

    #[test]
    fn single_member_circuit() {
        let g = graph_of_line(3);
        let c = hamiltonian_circuit(&[HostId(1)], &g, CircuitStrategy::AscendingIds);
        assert_eq!(c, vec![HostId(1)]);
        assert_eq!(successor(&c, HostId(1)), Some(HostId(1)));
    }
}
