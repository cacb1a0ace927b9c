//! Multicast group construction and membership tables.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use wormcast_sim::engine::HostId;

/// A set of multicast groups over a population of hosts.
#[derive(Clone, Debug)]
pub struct GroupSet {
    /// `members[g]` = sorted member list of group `g`.
    members: Vec<Vec<HostId>>,
    /// `of_host[h]` = groups host `h` belongs to.
    of_host: Vec<Vec<u8>>,
}

impl GroupSet {
    /// Build `num_groups` groups of `group_size` members each, chosen
    /// uniformly at random without replacement within each group (the
    /// paper's "members chosen at random"). Deterministic in `rng`.
    pub fn random(
        num_hosts: usize,
        num_groups: usize,
        group_size: usize,
        rng: &mut SmallRng,
    ) -> Self {
        assert!(group_size <= num_hosts, "group larger than host population");
        assert!(num_groups <= u8::MAX as usize, "8-bit group id space");
        let all: Vec<HostId> = (0..num_hosts as u32).map(HostId).collect();
        let mut members = Vec::with_capacity(num_groups);
        for _ in 0..num_groups {
            let mut pick = all.clone();
            pick.shuffle(rng);
            pick.truncate(group_size);
            pick.sort_unstable();
            members.push(pick);
        }
        Self::from_members(num_hosts, members)
    }

    /// Build from explicit member lists.
    pub fn from_members(num_hosts: usize, mut members: Vec<Vec<HostId>>) -> Self {
        let mut of_host = vec![Vec::new(); num_hosts];
        for (g, m) in members.iter_mut().enumerate() {
            m.sort_unstable();
            m.dedup();
            for h in m.iter() {
                of_host[h.0 as usize].push(g as u8);
            }
        }
        GroupSet { members, of_host }
    }

    pub fn num_groups(&self) -> usize {
        self.members.len()
    }

    /// Sorted members of group `g`.
    pub fn members(&self, g: u8) -> &[HostId] {
        &self.members[g as usize]
    }

    /// Groups host `h` belongs to.
    pub fn groups_of(&self, h: HostId) -> &[u8] {
        &self.of_host[h.0 as usize]
    }

    pub fn is_member(&self, g: u8, h: HostId) -> bool {
        self.members(g).binary_search(&h).is_ok()
    }

    /// Choose one of `h`'s groups uniformly (None if `h` is in no group).
    pub fn pick_group(&self, h: HostId, rng: &mut SmallRng) -> Option<u8> {
        use rand::Rng;
        let gs = self.groups_of(h);
        if gs.is_empty() {
            None
        } else {
            Some(gs[rng.gen_range(0..gs.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::host_stream;

    #[test]
    fn random_groups_have_requested_shape() {
        let mut rng = host_stream(10, 0);
        let gs = GroupSet::random(64, 10, 10, &mut rng);
        assert_eq!(gs.num_groups(), 10);
        for g in 0..10 {
            let m = gs.members(g);
            assert_eq!(m.len(), 10, "group {g}");
            // Sorted & unique.
            assert!(m.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn membership_tables_agree() {
        let mut rng = host_stream(11, 0);
        let gs = GroupSet::random(24, 4, 6, &mut rng);
        for g in 0..4u8 {
            for &h in gs.members(g) {
                assert!(gs.groups_of(h).contains(&g));
                assert!(gs.is_member(g, h));
            }
        }
        for h in 0..24u32 {
            for &g in gs.groups_of(HostId(h)) {
                assert!(gs.is_member(g, HostId(h)));
            }
        }
    }

    #[test]
    fn pick_group_only_from_memberships() {
        let gs = GroupSet::from_members(8, vec![
            vec![HostId(0), HostId(1)],
            vec![HostId(1), HostId(2)],
        ]);
        let mut rng = host_stream(12, 0);
        for _ in 0..100 {
            assert_eq!(gs.pick_group(HostId(0), &mut rng), Some(0));
        }
        let mut seen = [false; 2];
        for _ in 0..200 {
            let g = gs.pick_group(HostId(1), &mut rng).unwrap();
            seen[g as usize] = true;
        }
        assert!(seen[0] && seen[1], "uniform pick never saw both groups");
        assert_eq!(gs.pick_group(HostId(7), &mut rng), None);
    }

    #[test]
    fn from_members_dedups() {
        let gs = GroupSet::from_members(4, vec![vec![HostId(2), HostId(2), HostId(0)]]);
        assert_eq!(gs.members(0), &[HostId(0), HostId(2)]);
    }
}
