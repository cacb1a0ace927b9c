//! Randomised invariants of the topology and routing substrate. Each
//! property runs 64 seeded draws; a failure names its case, and
//! `SmallRng::seed_from_u64(case)` replays it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use wormcast_sim::engine::HostId;
use wormcast_topo::hamiltonian::{hamiltonian_circuit, successor, CircuitStrategy};
use wormcast_topo::hostgraph::HostGraph;
use wormcast_topo::irregular::{irregular, IrregularSpec};
use wormcast_topo::tree::{MulticastTree, TreeShape};
use wormcast_topo::UpDown;

const CASES: u64 = 64;

/// A set of `lo..hi` distinct ids below `below`.
fn id_set(rng: &mut SmallRng, lo: usize, hi: usize, below: u32) -> Vec<HostId> {
    let size = rng.gen_range(lo..hi);
    let mut ids = BTreeSet::new();
    while ids.len() < size {
        ids.insert(rng.gen_range(0..below));
    }
    ids.into_iter().map(HostId).collect()
}

/// The host graph of a line of 64 switches, one host each.
fn line64_host_graph() -> HostGraph {
    let mut b = wormcast_topo::TopoBuilder::new(64);
    for s in 0..63 {
        b.link(s, s + 1, 1);
    }
    for s in 0..64 {
        b.host(s);
    }
    let topo = b.build();
    let ud = UpDown::compute(&topo, 0);
    HostGraph::from_routes(&ud.route_table(&topo, false))
}

/// Up/down routing on arbitrary connected topologies: every ordered
/// switch pair gets a legal (up*-then-down*) path that really reaches,
/// with and without the spanning-tree restriction.
#[test]
fn updown_routes_random_topologies() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0..1000u64);
        let n = rng.gen_range(2..12usize);
        let spec = IrregularSpec {
            num_switches: n,
            extra_links: rng.gen_range(0..8usize),
            hosts_per_switch: 1,
            link_delay: 1,
        };
        let root = rng.gen_range(0..12usize) % n;
        let topo = irregular(spec, seed);
        let ud = UpDown::compute(&topo, root);
        for s in 0..n {
            for d in 0..n {
                for restrict in [false, true] {
                    let path = ud.route_switches(&topo, s, d, restrict).expect("reachable");
                    assert_eq!(*path.first().unwrap(), s, "case {case}");
                    assert_eq!(*path.last().unwrap(), d, "case {case}");
                    assert!(ud.is_legal(&path), "case {case}: illegal {path:?}");
                    if restrict {
                        // Tree-only paths may never exceed 2 * depth.
                        assert!(path.len() <= 2 * n, "case {case}");
                    }
                }
            }
        }
        // Restriction never shortens paths.
        let (tree, all) = (ud.mean_hops(&topo, true), ud.mean_hops(&topo, false));
        assert!(tree >= all - 1e-9, "case {case}");
    }
}

/// The route table contains a route for every ordered host pair and
/// each route ends at the destination's host port.
#[test]
fn route_table_is_complete() {
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0..500u64);
        let spec = IrregularSpec {
            num_switches: rng.gen_range(2..8usize),
            extra_links: 3,
            hosts_per_switch: rng.gen_range(1..3usize),
            link_delay: 1,
        };
        let topo = irregular(spec, seed);
        let mut rt = UpDown::compute(&topo, 0).route_table(&topo, false);
        let nh = topo.num_hosts() as u32;
        for s in 0..nh {
            for d in (0..nh).filter(|&d| d != s) {
                let r = rt.get(HostId(s), HostId(d));
                assert!(!r.is_empty(), "case {case}");
                assert_eq!(
                    *r.last().unwrap(),
                    topo.hosts[d as usize].port,
                    "case {case}"
                );
            }
        }
    }
}

/// Hamiltonian circuits visit each member exactly once; the successor
/// function is a bijection on the members.
#[test]
fn hamiltonian_invariants() {
    let g = line64_host_graph();
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let members = id_set(rng, 1, 12, 64);
        let strat = if rng.gen() {
            CircuitStrategy::HopCost
        } else {
            CircuitStrategy::AscendingIds
        };
        let order = hamiltonian_circuit(&members, &g, strat);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, members, "case {case}: visits each member once");
        // Successor walks the whole circuit.
        let mut seen = std::collections::HashSet::new();
        let mut cur = order[0];
        for _ in 0..order.len() {
            assert!(
                seen.insert(cur),
                "case {case}: successor cycle shorter than circuit"
            );
            cur = successor(&order, cur).expect("member");
        }
        assert_eq!(cur, order[0], "case {case}");
    }
}

/// All tree shapes respect the child-ID > parent-ID rule, cover the
/// members, and have a consistent parent/children relation.
#[test]
fn tree_invariants() {
    let g = line64_host_graph();
    for case in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(case);
        let members = id_set(rng, 1, 16, 64);
        let shape = [
            TreeShape::BinaryHeap,
            TreeShape::DAryHeap(3),
            TreeShape::GreedyHop,
            TreeShape::Star,
        ][rng.gen_range(0..4usize)];
        let t = MulticastTree::build(&members, shape, Some(&g));
        assert!(t.respects_id_order(), "case {case}: {shape:?}");
        assert_eq!(t.root(), members[0], "case {case}: root is the lowest ID");
        // Parent/children consistency + full coverage from the root.
        let mut covered = vec![t.root()];
        let mut stack = vec![t.root()];
        while let Some(h) = stack.pop() {
            for &c in t.children(h) {
                assert_eq!(t.parent(c), Some(h), "case {case}");
                covered.push(c);
                stack.push(c);
            }
        }
        covered.sort_unstable();
        assert_eq!(covered, members, "case {case}");
    }
}
