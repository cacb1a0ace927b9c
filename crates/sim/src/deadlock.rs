//! Wait-for-graph construction and cycle detection.
//!
//! Wormhole networks deadlock when blocked worms form a circular wait
//! (Figure 3 of the paper). This module reconstructs the wait-for graph
//! from a live network snapshot:
//!
//! * an input port whose worm is **requesting** an output — its head, or a
//!   branch of a replicating worm — waits on the input that currently owns
//!   that output, unless the owner is a replica with its tail buffered:
//!   that branch needs no sibling, so the wait is only on what STOPs it;
//! * an input port **forwarding** into a STOPped channel, or holding one
//!   for a replica branch, waits on the downstream input whose slack
//!   buffer filled up;
//! * an input port whose worm has a **hole** (bytes not yet arrived) waits
//!   on the upstream producer;
//! * a host adapter whose outgoing channel is STOPped waits on the switch
//!   input it feeds.
//!
//! Whatever is already on a wire arrives without anyone yielding, so it is
//! latency, not a wait: a STOP counts only while no control symbol is in
//! flight toward the stopped transmitter (the GO that lifts it may be a
//! thousand byte-times out), and a hole only while the feeding lane
//! carries nothing.
//!
//! Host adapter *receive* sides never appear: the paper's design point is
//! that adapters always drain the network (no backpressure from the host
//! interface), so every wait chain that reaches a host terminates.
//!
//! A cycle in this graph is a genuine deadlock: no byte on the cycle can
//! ever move again. The up/down routing restriction exists precisely to
//! make such cycles impossible; integration tests use this module both to
//! *demonstrate* deadlock when the rules are violated and to prove runs
//! clean when they are followed.

use crate::engine::{HostId, SwitchId};
use crate::link::{ChanId, Lane, NodeRef};
use crate::network::Network;
use crate::switch::InState;
use crate::switchcast::BranchPhase;
use crate::worm::WormId;
use std::collections::HashMap;
use std::fmt;

/// A vertex of the wait-for graph. Ordered (switch inputs by switch and
/// port, then host adapters) so that [`find_cycle`]'s verdict does not
/// depend on hash order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum WaitNode {
    /// An input port of a switch holding (part of) a blocked worm.
    SwitchIn(SwitchId, u8),
    /// A host adapter's transmit side.
    HostTx(HostId),
}

impl fmt::Display for WaitNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitNode::SwitchIn(sw, p) => write!(f, "sw{}:in{}", sw.0, p),
            WaitNode::HostTx(h) => write!(f, "host{}:tx", h.0),
        }
    }
}

/// Why one wait-for edge exists.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaitCause {
    /// The worm's head, or a replica branch of it, requested an output
    /// another input owns.
    OutputHeldBy { switch: SwitchId, out: u8 },
    /// The worm is forwarding into a channel with a STOP in force.
    StoppedDownstream { ch: ChanId },
    /// The worm has a hole: its next byte has not arrived from upstream.
    StarvedUpstream { ch: ChanId },
    /// A switchcast replica branch transmits into a STOPped channel.
    BranchStopped { ch: ChanId },
    /// The host's outgoing link itself has a STOP in force.
    HostLinkStopped { ch: ChanId },
}

impl fmt::Display for WaitCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitCause::OutputHeldBy { switch, out } => {
                write!(f, "output sw{}:out{} held", switch.0, out)
            }
            WaitCause::StoppedDownstream { ch } => write!(f, "STOP in force on ch{}", ch.0),
            WaitCause::StarvedUpstream { ch } => write!(f, "starved, waiting bytes on ch{}", ch.0),
            WaitCause::BranchStopped { ch } => {
                write!(f, "multicast branch STOPped on ch{}", ch.0)
            }
            WaitCause::HostLinkStopped { ch } => write!(f, "host link ch{} STOPped", ch.0),
        }
    }
}

/// One annotated edge of the wait-for graph: `from` cannot make progress
/// until `to` does. `worm` is the blocked worm at `from`; `holds` is the
/// worm currently occupying `to` (the one holding the contended resource).
#[derive(Clone, Copy, Debug)]
pub struct WaitEdge {
    pub from: WaitNode,
    pub to: WaitNode,
    pub worm: Option<WormId>,
    pub holds: Option<WormId>,
    pub cause: WaitCause,
}

impl fmt::Display for WaitEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.from)?;
        if let Some(w) = self.worm {
            write!(f, " [worm {}]", w.0)?;
        }
        write!(f, " -> {}", self.to)?;
        if let Some(w) = self.holds {
            write!(f, " [holds worm {}]", w.0)?;
        }
        write!(f, ": {}", self.cause)
    }
}

/// A run's deadlock verdict ([`crate::network::RunOutcome::deadlock`],
/// taken where `run_until` ends): one representative cycle, the full
/// annotated wait-for graph at that moment, and how many worms were
/// outstanding. Its `Display` renders the human-readable dump.
#[derive(Clone, Debug)]
pub struct DeadlockReport {
    /// The wait cycle, never empty.
    pub cycle: Vec<WaitNode>,
    pub stuck_worms: u64,
    /// Every wait-for edge at detection time, annotated with the blocked
    /// worm, the holding worm, and the blocking cause.
    pub edges: Vec<WaitEdge>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock forensics: {} stuck worm(s), {} wait-for edge(s)",
            self.stuck_worms,
            self.edges.len()
        )?;
        for e in &self.edges {
            writeln!(f, "  {e}")?;
        }
        write!(f, "  cycle:")?;
        for n in &self.cycle {
            write!(f, " {n} ->")?;
        }
        write!(f, " {}", self.cycle[0])
    }
}

/// The worm currently occupying a wait-for node, if any.
fn node_worm(net: &Network, node: WaitNode) -> Option<WormId> {
    match node {
        WaitNode::SwitchIn(sw, p) => match &net.switches[sw.0 as usize].inputs[p as usize].state {
            InState::Idle => None,
            InState::Requesting { worm, .. } | InState::Forwarding { worm, .. } => Some(*worm),
            InState::Replicating(rep) => Some(rep.worm),
        },
        WaitNode::HostTx(h) => net.adapters[h.0 as usize].tx_queue.front().map(|t| t.worm),
    }
}

/// A STOP on `lane` that nothing already under way will lift. `far` is the
/// other shard's copy of a cut lane (control symbols are counted where they
/// are sent and where they land, see `Lane::ctrl_in_flight`).
fn stop_holds(lane: &Lane, far: Option<&Lane>) -> bool {
    lane.is_stopped() && lane.ctrl_in_flight() + far.map_or(0, Lane::ctrl_in_flight) == 0
}

/// Collapse an edge list into the adjacency map [`find_cycle`] consumes.
pub fn graph_from_edges(edges: &[WaitEdge]) -> HashMap<WaitNode, Vec<WaitNode>> {
    let mut g: HashMap<WaitNode, Vec<WaitNode>> = HashMap::new();
    for e in edges {
        g.entry(e.from).or_default().push(e.to);
    }
    g
}

/// Find one cycle in the wait-for graph, if any: the first one a
/// depth-first search meets, starting from each node in [`WaitNode`] order
/// and following each node's edges in list order, rotated to begin at its
/// smallest node. The same graph yields the same cycle however its map
/// happens to hash.
pub fn find_cycle(g: &HashMap<WaitNode, Vec<WaitNode>>) -> Option<Vec<WaitNode>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks: HashMap<WaitNode, Mark> = g.keys().map(|&k| (k, Mark::White)).collect();

    fn dfs(
        node: WaitNode,
        g: &HashMap<WaitNode, Vec<WaitNode>>,
        marks: &mut HashMap<WaitNode, Mark>,
        stack: &mut Vec<WaitNode>,
    ) -> Option<Vec<WaitNode>> {
        marks.insert(node, Mark::Grey);
        stack.push(node);
        if let Some(succs) = g.get(&node) {
            for &next in succs {
                match marks.get(&next).copied().unwrap_or(Mark::Black) {
                    Mark::Grey => {
                        // Found a cycle: slice the stack from `next` onward.
                        let start = stack.iter().position(|&n| n == next).expect("on stack");
                        return Some(stack[start..].to_vec());
                    }
                    Mark::White => {
                        if let Some(c) = dfs(next, g, marks, stack) {
                            return Some(c);
                        }
                    }
                    Mark::Black => {}
                }
            }
        }
        stack.pop();
        marks.insert(node, Mark::Black);
        None
    }

    let mut nodes: Vec<WaitNode> = g.keys().copied().collect();
    nodes.sort_unstable();
    for n in nodes {
        if marks.get(&n) == Some(&Mark::White) {
            let mut stack = Vec::new();
            if let Some(mut c) = dfs(n, g, &mut marks, &mut stack) {
                let first = (0..c.len()).min_by_key(|&i| c[i]).expect("a cycle is never empty");
                c.rotate_left(first);
                return Some(c);
            }
        }
    }
    None
}

/// Ownership tables of a one-engine run: engine 0 owns every switch and
/// every host.
fn sole_owner(net: &Network) -> (Vec<u32>, Vec<u32>) {
    (vec![0; net.switches.len()], vec![0; net.adapters.len()])
}

/// Build the annotated wait-for edge list of the current network state —
/// the graph the deadlock verdict is read from, also callable between
/// runs to inspect a live network. The one-engine case of
/// [`wait_edges_multi`]; worm ids are the engine's own.
pub fn wait_edges(net: &Network) -> Vec<WaitEdge> {
    let (switch_owner, host_owner) = sole_owner(net);
    wait_edges_multi(std::slice::from_ref(net), &switch_owner, &host_owner)
}

/// Analyze a network snapshot for a deadlock cycle. `Some` only when a
/// genuine wait cycle exists (overload alone is not deadlock): the cycle,
/// the full annotated wait-for graph and the outstanding-worm count.
pub fn analyze(net: &Network) -> Option<DeadlockReport> {
    let (switch_owner, host_owner) = sole_owner(net);
    analyze_multi(std::slice::from_ref(net), &switch_owner, &host_owner)
}

// ---------------------------------------------------------------------------
// The walk, over the engines of one run
// ---------------------------------------------------------------------------

/// Build the wait-for edge list across the engines of one run: the shard
/// engines of a sharded run, or the one engine of a sequential run. Each
/// engine walks its *owned* switches and adapters using its own
/// (authoritative) state; whenever an edge's far side — the downstream
/// input a STOP points at, the upstream producer of a starved worm, the
/// holder of a contended output — lives in another shard, that shard's
/// engine is consulted instead of the local idle mirror. With several
/// engines the worm ids in the result are canonical *across* shards: each
/// distinct worm tag is assigned a dense id in tag order, so the same worm
/// blocked in one shard and holding a resource in another carries one name.
pub fn wait_edges_multi(
    nets: &[Network],
    switch_owner: &[u32],
    host_owner: &[u32],
) -> Vec<WaitEdge> {
    struct RawEdge {
        from: WaitNode,
        to: WaitNode,
        worm: Option<(usize, WormId)>,
        holds: Option<(usize, WormId)>,
        cause: WaitCause,
    }

    let owner_of = |node: WaitNode| -> usize {
        match node {
            WaitNode::SwitchIn(sw, _) => switch_owner[sw.0 as usize] as usize,
            WaitNode::HostTx(h) => host_owner[h.0 as usize] as usize,
        }
    };
    // The occupying worm of a node, read from the shard that owns it.
    let node_worm_multi = |node: WaitNode| -> Option<(usize, WormId)> {
        let s = owner_of(node);
        node_worm(&nets[s], node).map(|w| (s, w))
    };
    // Upstream producer of a switch input, resolving the upstream output's
    // crossbar owner in *its* shard (the local mirror knows nothing).
    let upstream_multi = |net: &Network, sw: SwitchId, port: u8| -> Option<(WaitNode, ChanId)> {
        let ch = net.switches[sw.0 as usize].inputs[port as usize].chan_in?;
        let src = net.lane(ch).src();
        match src.node {
            NodeRef::Host(h) => Some((WaitNode::HostTx(h), ch)),
            NodeRef::Switch(up) => {
                let up_net = &nets[switch_owner[up.0 as usize] as usize];
                let owner = up_net.switches[up.0 as usize].outputs[src.port.index()].owner?;
                Some((WaitNode::SwitchIn(up, owner), ch))
            }
        }
    };

    // The copy of cut lane `ch` held by the shard at its other end, as
    // seen from shard `si` (`None` for a lane inside one shard).
    let far_copy = |si: usize, ch: ChanId| -> Option<&Lane> {
        let lane = nets[si].lane(ch);
        [lane.src().node, lane.dst().node]
            .into_iter()
            .map(|node| match node {
                NodeRef::Switch(sw) => switch_owner[sw.0 as usize] as usize,
                NodeRef::Host(h) => host_owner[h.0 as usize] as usize,
            })
            .find(|&owner| owner != si)
            .map(|owner| nets[owner].lane(ch))
    };

    let mut raw: Vec<RawEdge> = Vec::new();
    for (si, net) in nets.iter().enumerate() {
        for sw in &net.switches {
            if switch_owner[sw.id.0 as usize] as usize != si {
                continue;
            }
            for (pi, inp) in sw.inputs.iter().enumerate() {
                let me = WaitNode::SwitchIn(sw.id, pi as u8);
                let mut edge = |to: WaitNode, worm: WormId, cause: WaitCause| {
                    raw.push(RawEdge {
                        from: me,
                        to,
                        worm: Some((si, worm)),
                        holds: node_worm_multi(to),
                        cause,
                    })
                };
                // A worm (or branch) granted output slot `out` waits on the
                // downstream input while a STOP holds the slot's lane. The
                // transmit-side STOP state is owned here (we are its src).
                let stopped_by = |out: u8| {
                    let ch = sw.outputs[out as usize].chan_out?;
                    let dst = net.lane(ch).dst();
                    match dst.node {
                        NodeRef::Switch(down) if stop_holds(net.lane(ch), far_copy(si, ch)) => {
                            Some((WaitNode::SwitchIn(down, dst.port.0), ch))
                        }
                        _ => None,
                    }
                };
                // A head (or replica branch) queued for physical port `out`
                // waits on whichever inputs own the port's slots — unless
                // the owner is a replica with its tail buffered: the branch
                // on the slot then needs only its own lane, not its
                // siblings, so the wait is on whatever STOPs that lane.
                let held = |out: u8| {
                    let cause = WaitCause::OutputHeldBy { switch: sw.id, out };
                    sw.slots_of(out).filter_map(move |slot| {
                        let owner = sw.outputs[slot].owner?;
                        let to = match &sw.inputs[owner as usize].state {
                            InState::Replicating(rep)
                                if rep.tail_buffered(&sw.inputs[owner as usize].buf) =>
                            {
                                stopped_by(slot as u8)?.0
                            }
                            _ => WaitNode::SwitchIn(sw.id, owner),
                        };
                        Some((to, cause))
                    })
                };
                match &inp.state {
                    InState::Idle => {}
                    InState::Requesting { out, worm } => {
                        for (to, cause) in held(*out) {
                            edge(to, *worm, cause);
                        }
                    }
                    InState::Forwarding { out, worm } => {
                        if let Some((to, ch)) = stopped_by(*out) {
                            edge(to, *worm, WaitCause::StoppedDownstream { ch });
                        }
                        let starved = match inp.buf.front() {
                            None => true,
                            Some(front) => front.worm != *worm,
                        };
                        if starved {
                            // Bytes either copy of the lane still counts on
                            // the wire arrive without anyone yielding: no
                            // edge.
                            if let Some((up, ch)) = upstream_multi(net, sw.id, pi as u8) {
                                let on_wire = net.lane(ch).in_flight()
                                    + far_copy(si, ch).map_or(0, Lane::in_flight);
                                if on_wire == 0 {
                                    edge(up, *worm, WaitCause::StarvedUpstream { ch });
                                }
                            }
                        }
                    }
                    InState::Replicating(rep) => {
                        for b in &rep.branches {
                            match b.phase {
                                BranchPhase::Requested => {
                                    for (to, cause) in held(b.port) {
                                        edge(to, rep.worm, cause);
                                    }
                                }
                                BranchPhase::Granted { slot } => {
                                    if let Some((to, ch)) = stopped_by(slot) {
                                        edge(to, rep.worm, WaitCause::BranchStopped { ch });
                                    }
                                }
                                BranchPhase::Interrupted | BranchPhase::Done => {}
                            }
                        }
                    }
                }
            }
        }
        for a in &net.adapters {
            if host_owner[a.id.0 as usize] as usize != si {
                continue;
            }
            let Some(head) = a.tx_queue.front() else {
                continue;
            };
            if let Some(ch) = a.chan_out {
                let c = net.lane(ch);
                if stop_holds(c, far_copy(si, ch)) {
                    if let NodeRef::Switch(sw) = c.dst().node {
                        let to = WaitNode::SwitchIn(sw, c.dst().port.0);
                        raw.push(RawEdge {
                            from: WaitNode::HostTx(a.id),
                            to,
                            worm: Some((si, head.worm)),
                            holds: node_worm_multi(to),
                            cause: WaitCause::HostLinkStopped { ch },
                        });
                    }
                }
            }
        }
    }

    // Canonicalize worm names. One engine's dense ids name each worm once
    // already and stay as they are. Several engines each hold the worm
    // under their own dense local id, but all of them know its globally
    // unique tag: dense-rank the tags so the report names each worm once,
    // stably.
    let tag_of = |(s, w): (usize, WormId)| -> u64 {
        nets[s]
            .worm_tag(w)
            .unwrap_or(((s as u64) << 50) | w.0 as u64)
    };
    let named = raw.iter().flat_map(|e| e.worm.into_iter().chain(e.holds));
    let mut tags: Vec<u64> = named.map(tag_of).collect();
    tags.sort_unstable();
    tags.dedup();
    let canon = |o: Option<(usize, WormId)>| -> Option<WormId> {
        o.map(|sw| {
            if nets.len() == 1 {
                return sw.1;
            }
            let rank = tags.binary_search(&tag_of(sw)).expect("tag collected");
            WormId(rank as u32)
        })
    };
    raw.into_iter()
        .map(|e| WaitEdge {
            from: e.from,
            to: e.to,
            worm: canon(e.worm),
            holds: canon(e.holds),
            cause: e.cause,
        })
        .collect()
}

/// [`analyze`] over the engines of one run.
pub fn analyze_multi(
    nets: &[Network],
    switch_owner: &[u32],
    host_owner: &[u32],
) -> Option<DeadlockReport> {
    let edges = wait_edges_multi(nets, switch_owner, host_owner);
    let cycle = find_cycle(&graph_from_edges(&edges))?;
    let stuck: i64 = nets.iter().map(|n| n.stats.active_worms).sum();
    Some(DeadlockReport {
        cycle,
        stuck_worms: stuck.max(0) as u64,
        edges,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> WaitNode {
        WaitNode::SwitchIn(SwitchId(i), 0)
    }

    #[test]
    fn empty_graph_has_no_cycle() {
        let g = HashMap::new();
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn chain_has_no_cycle() {
        let mut g = HashMap::new();
        g.insert(n(0), vec![n(1)]);
        g.insert(n(1), vec![n(2)]);
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn self_loop_detected() {
        let mut g = HashMap::new();
        g.insert(n(0), vec![n(0)]);
        let c = find_cycle(&g).expect("cycle");
        assert_eq!(c, vec![n(0)]);
    }

    #[test]
    fn two_cycle_detected() {
        let mut g = HashMap::new();
        g.insert(n(0), vec![n(1)]);
        g.insert(n(1), vec![n(0)]);
        let c = find_cycle(&g).expect("cycle");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn branch_into_cycle_detected() {
        // 0 -> 1 -> 2 -> 3 -> 1 : cycle is {1,2,3}.
        let mut g = HashMap::new();
        g.insert(n(0), vec![n(1)]);
        g.insert(n(1), vec![n(2)]);
        g.insert(n(2), vec![n(3)]);
        g.insert(n(3), vec![n(1)]);
        let c = find_cycle(&g).expect("cycle");
        assert_eq!(c.len(), 3);
        assert!(!c.contains(&n(0)));
    }

    #[test]
    fn diamond_without_cycle() {
        let mut g = HashMap::new();
        g.insert(n(0), vec![n(1), n(2)]);
        g.insert(n(1), vec![n(3)]);
        g.insert(n(2), vec![n(3)]);
        assert!(find_cycle(&g).is_none());
    }

    #[test]
    fn report_display_names_worms_and_channels() {
        let edge = WaitEdge {
            from: WaitNode::SwitchIn(SwitchId(3), 2),
            to: WaitNode::SwitchIn(SwitchId(4), 0),
            worm: Some(WormId(17)),
            holds: Some(WormId(9)),
            cause: WaitCause::StoppedDownstream { ch: ChanId(12) },
        };
        let report = DeadlockReport {
            cycle: vec![edge.from, edge.to],
            stuck_worms: 2,
            edges: vec![edge],
        };
        let dump = report.to_string();
        assert!(dump.contains("2 stuck worm(s)"));
        assert!(dump.contains("sw3:in2 [worm 17] -> sw4:in0 [holds worm 9]"));
        assert!(dump.contains("STOP in force on ch12"));
        assert!(dump.contains("cycle: sw3:in2 -> sw4:in0 -> sw3:in2"));
    }

    #[test]
    fn graph_from_edges_groups_by_source() {
        let mk = |from, to| WaitEdge {
            from,
            to,
            worm: None,
            holds: None,
            cause: WaitCause::OutputHeldBy {
                switch: SwitchId(0),
                out: 0,
            },
        };
        let g = graph_from_edges(&[mk(n(0), n(1)), mk(n(0), n(2)), mk(n(1), n(2))]);
        assert_eq!(g[&n(0)].len(), 2);
        assert_eq!(g[&n(1)], vec![n(2)]);
    }

    /// Two cycles reachable from many start nodes, in maps built afresh
    /// (each with its own hash seed): the verdict is always the cycle met
    /// from the smallest node, read from its smallest node.
    #[test]
    fn the_reported_cycle_does_not_depend_on_hash_order() {
        let h = WaitNode::HostTx(HostId(0));
        let edges = [
            (n(9), n(7)),
            (n(7), n(8)),
            (n(8), n(9)),
            (n(5), n(4)),
            (n(4), n(6)),
            (n(6), n(5)),
            (h, n(8)),
            (n(1), n(9)),
            (n(2), h),
        ];
        for _ in 0..20 {
            let mut g: HashMap<WaitNode, Vec<WaitNode>> = HashMap::new();
            for (from, to) in edges {
                g.entry(from).or_default().push(to);
            }
            assert_eq!(find_cycle(&g), Some(vec![n(7), n(8), n(9)]));
        }
    }

    #[test]
    fn mixed_node_kinds_in_cycle() {
        let h = WaitNode::HostTx(HostId(5));
        let mut g = HashMap::new();
        g.insert(h, vec![n(1)]);
        g.insert(n(1), vec![h]);
        let c = find_cycle(&g).expect("cycle");
        assert_eq!(c.len(), 2);
        assert!(c.contains(&h));
    }
}
