//! Cut-based fabric partitioning for sharded parallel simulation.
//!
//! A [`ShardPlan`] assigns every switch to one shard; hosts inherit the
//! shard of their attach switch. The simulator runs one engine per shard
//! with conservative lookahead equal to the minimum delay over the *cut*
//! (the links whose endpoints live in different shards), so a good plan
//! minimizes cut size and never cuts a zero-delay link.
//!
//! Three families of plans are provided:
//!
//! * [`ShardPlan::torus_grid`] — block decomposition of a k×k torus into
//!   a near-square grid of quadrant-style tiles (the natural minimum-cut
//!   partition for the paper's 8×8 fabric);
//! * [`ShardPlan::bfs_contiguous`] — balanced contiguous chunks of a BFS
//!   order from a root, usable on any connected topology (trees,
//!   shufflenets, irregular fabrics) — each shard is a connected "subtree"
//!   region of the BFS spanning tree;
//! * [`ShardPlan::switch_hash`] — round-robin by switch index; maximal
//!   cut, useful only as an adversarial stress plan for determinism tests.

use crate::graph::Topology;

/// A mapping of switches (and, derived, hosts) onto `num_shards` shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    num_shards: u32,
    switch_shard: Vec<u32>,
}

impl ShardPlan {
    /// Build a plan from an explicit per-switch assignment. Errors when the
    /// assignment references an out-of-range shard or leaves a shard empty.
    pub fn from_assignment(num_shards: u32, switch_shard: Vec<u32>) -> Result<Self, String> {
        if num_shards == 0 {
            return Err("shard plan needs at least one shard".into());
        }
        let mut used = vec![false; num_shards as usize];
        for (sw, &s) in switch_shard.iter().enumerate() {
            if s >= num_shards {
                return Err(format!(
                    "switch {sw} assigned to shard {s}, but plan has {num_shards} shards"
                ));
            }
            used[s as usize] = true;
        }
        if let Some(empty) = used.iter().position(|u| !u) {
            return Err(format!("shard {empty} owns no switches"));
        }
        Ok(ShardPlan {
            num_shards,
            switch_shard,
        })
    }

    /// Block decomposition of a `k`×`k` torus (switches in row-major order,
    /// as built by [`crate::torus::torus`]) into a `gx`×`gy` grid of tiles
    /// with `gx*gy = shards`, `gx` and `gy` chosen as close to square as
    /// possible. `shards = 4` on an 8×8 torus yields the four quadrants.
    pub fn torus_grid(k: usize, shards: u32) -> Result<Self, String> {
        if shards == 0 {
            return Err("shard plan needs at least one shard".into());
        }
        if (shards as usize) > k * k {
            return Err(format!("{shards} shards > {} switches", k * k));
        }
        // Most-square factorization gx*gy = shards with gx <= gy.
        let mut gx = (shards as f64).sqrt() as u32;
        while gx > 1 && !shards.is_multiple_of(gx) {
            gx -= 1;
        }
        let gy = shards / gx;
        if gx as usize > k || gy as usize > k {
            return Err(format!(
                "cannot tile a {k}x{k} torus into a {gx}x{gy} grid"
            ));
        }
        let mut switch_shard = Vec::with_capacity(k * k);
        for y in 0..k {
            for x in 0..k {
                let tx = (x * gx as usize) / k;
                let ty = (y * gy as usize) / k;
                switch_shard.push((ty * gx as usize + tx) as u32);
            }
        }
        Self::from_assignment(shards, switch_shard)
    }

    /// Balanced contiguous partition of any connected topology: BFS from
    /// `root`, then split the visit order into `shards` near-equal chunks.
    /// Each shard is a connected region of the BFS spanning tree, so cuts
    /// stay near the chunk boundaries (a "subtree" partition for trees).
    pub fn bfs_contiguous(topo: &Topology, root: usize, shards: u32) -> Result<Self, String> {
        let n = topo.num_switches();
        if shards == 0 {
            return Err("shard plan needs at least one shard".into());
        }
        if shards as usize > n {
            return Err(format!("{shards} shards > {n} switches"));
        }
        if root >= n {
            return Err(format!("BFS root {root} out of range ({n} switches)"));
        }
        if !topo.is_connected() {
            return Err("bfs_contiguous needs a connected switch graph".into());
        }
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        seen[root] = true;
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for (v, _, _, _) in topo.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    queue.push_back(v);
                }
            }
        }
        let mut switch_shard = vec![0u32; n];
        for (rank, &sw) in order.iter().enumerate() {
            // Chunk i covers ranks [i*n/shards, (i+1)*n/shards).
            switch_shard[sw] = ((rank as u64 * shards as u64) / n as u64) as u32;
        }
        Self::from_assignment(shards, switch_shard)
    }

    /// Round-robin by switch index. Nearly every link lands in the cut —
    /// the worst reasonable plan, kept as an adversarial stressor for
    /// shard-determinism tests.
    pub fn switch_hash(num_switches: usize, shards: u32) -> Result<Self, String> {
        if shards == 0 {
            return Err("shard plan needs at least one shard".into());
        }
        if shards as usize > num_switches {
            return Err(format!("{shards} shards > {num_switches} switches"));
        }
        let switch_shard = (0..num_switches).map(|s| s as u32 % shards).collect();
        Self::from_assignment(shards, switch_shard)
    }

    pub fn num_shards(&self) -> u32 {
        self.num_shards
    }

    pub fn switch_shard(&self) -> &[u32] {
        &self.switch_shard
    }

    pub fn shard_of(&self, sw: usize) -> u32 {
        self.switch_shard[sw]
    }

    /// Per-host shard assignment: each host lives with its attach switch.
    pub fn host_shard(&self, topo: &Topology) -> Vec<u32> {
        topo.hosts
            .iter()
            .map(|h| self.switch_shard[h.switch])
            .collect()
    }

    /// Indices (into `topo.links`) of links whose endpoints are in
    /// different shards — the communication cut.
    pub fn cut_links(&self, topo: &Topology) -> Vec<usize> {
        topo.links
            .iter()
            .enumerate()
            .filter(|(_, l)| self.switch_shard[l.a] != self.switch_shard[l.b])
            .map(|(i, _)| i)
            .collect()
    }

    /// Check the plan against a topology: length matches, and no cut link
    /// has zero delay (zero-delay cuts give zero lookahead — the parallel
    /// engine cannot make conservative progress across them).
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        if self.switch_shard.len() != topo.num_switches() {
            return Err(format!(
                "plan covers {} switches, topology has {}",
                self.switch_shard.len(),
                topo.num_switches()
            ));
        }
        for i in self.cut_links(topo) {
            if topo.links[i].delay == 0 {
                let l = &topo.links[i];
                return Err(format!(
                    "link {i} ({} -> {}) crosses shards with zero delay",
                    l.a, l.b
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irregular::{irregular, IrregularSpec};
    use crate::torus::torus;

    #[test]
    fn torus_quadrants() {
        let t = torus(8, 1);
        let p = ShardPlan::torus_grid(8, 4).unwrap();
        p.validate(&t).unwrap();
        // Four quadrants of 16 switches each.
        for s in 0..4 {
            assert_eq!(
                p.switch_shard().iter().filter(|&&x| x == s).count(),
                16,
                "shard {s}"
            );
        }
        // Corner checks: (0,0) and (7,7) in different shards.
        assert_eq!(p.shard_of(0), 0);
        assert_eq!(p.shard_of(63), 3);
        // Cut = 2 rows + 2 columns of torus links (wraparound makes the
        // grid boundaries cross twice per axis): 4*8 = 32 links.
        assert_eq!(p.cut_links(&t).len(), 32);
    }

    #[test]
    fn torus_grid_two_shards_halves() {
        let t = torus(4, 2);
        let p = ShardPlan::torus_grid(4, 2).unwrap();
        p.validate(&t).unwrap();
        for s in 0..2 {
            assert_eq!(p.switch_shard().iter().filter(|&&x| x == s).count(), 8);
        }
    }

    #[test]
    fn bfs_contiguous_balanced_on_irregular() {
        let t = irregular(
            IrregularSpec {
                num_switches: 17,
                extra_links: 5,
                hosts_per_switch: 1,
                link_delay: 1,
            },
            42,
        );
        let p = ShardPlan::bfs_contiguous(&t, 0, 3).unwrap();
        p.validate(&t).unwrap();
        let mut counts = [0usize; 3];
        for &s in p.switch_shard() {
            counts[s as usize] += 1;
        }
        // Near-equal split of 17 switches into 3 chunks.
        assert!(counts.iter().all(|&c| (5..=6).contains(&c)), "{counts:?}");
    }

    #[test]
    fn switch_hash_is_adversarial() {
        let t = torus(4, 1);
        let p = ShardPlan::switch_hash(16, 4).unwrap();
        p.validate(&t).unwrap();
        // Round-robin on a row-major 4x4 torus cuts every +x link (the
        // +y links connect switches 4 apart — same residue mod 4).
        assert_eq!(p.cut_links(&t).len(), 16);
    }

    #[test]
    fn hosts_follow_attach_switch() {
        let t = torus(4, 1);
        let p = ShardPlan::torus_grid(4, 4).unwrap();
        let hs = p.host_shard(&t);
        for (h, attach) in t.hosts.iter().enumerate() {
            assert_eq!(hs[h], p.shard_of(attach.switch));
        }
    }

    #[test]
    fn rejects_empty_shard_and_zero_delay_cut() {
        assert!(ShardPlan::from_assignment(2, vec![0, 0]).is_err());
        let mut b = crate::graph::TopoBuilder::new(2);
        b.link(0, 1, 0);
        let t = b.build();
        let p = ShardPlan::from_assignment(2, vec![0, 1]).unwrap();
        assert!(p.validate(&t).is_err());
    }
}
