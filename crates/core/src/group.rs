//! Group membership tables as seen by the protocols.
//!
//! The paper's "multicast group manager" control process distributes, per
//! group, the information each adapter needs: for the Hamiltonian scheme
//! the triple *(group, next hop, hop count)*; for the tree scheme the
//! successor list. [`Membership`] is the shared, read-only table the
//! protocol instances hold an `Arc` of.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use wormcast_sim::engine::HostId;

/// The broadcast group id (Section 8.1: "multicast group 255 is used for
/// the broadcast address").
pub const BROADCAST_GROUP: u8 = 255;

/// Sorted member lists per group.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Membership {
    groups: BTreeMap<u8, Vec<HostId>>,
}

impl Membership {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a group (members are sorted and deduplicated).
    pub fn insert(&mut self, group: u8, mut members: Vec<HostId>) {
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "group {group} has no members");
        self.groups.insert(group, members);
    }

    /// Drop a group (a no-op if unknown).
    pub fn remove(&mut self, group: u8) {
        self.groups.remove(&group);
    }

    /// Build from `(group, members)` pairs.
    pub fn from_groups(list: impl IntoIterator<Item = (u8, Vec<HostId>)>) -> Arc<Self> {
        let mut m = Membership::new();
        for (g, members) in list {
            m.insert(g, members);
        }
        Arc::new(m)
    }

    /// Sorted members of `group` (empty if unknown).
    pub fn members(&self, group: u8) -> &[HostId] {
        self.groups.get(&group).map_or(&[], |v| v.as_slice())
    }

    pub fn is_member(&self, group: u8, h: HostId) -> bool {
        self.members(group).binary_search(&h).is_ok()
    }

    pub fn group_ids(&self) -> impl Iterator<Item = u8> + '_ {
        self.groups.keys().copied()
    }

    /// The lowest-ID member — the circuit starter / serializer and the
    /// natural root of ID-ordered trees.
    pub fn lowest(&self, group: u8) -> Option<HostId> {
        self.members(group).first().copied()
    }

    /// Number of deliveries a multicast from `origin` must produce: every
    /// member except the origin itself (non-member origins deliver to all
    /// members).
    pub fn expected_deliveries(&self, group: u8, origin: HostId) -> usize {
        let m = self.members(group);
        m.len() - usize::from(m.binary_search(&origin).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<HostId> {
        v.iter().map(|&i| HostId(i)).collect()
    }

    #[test]
    fn members_sorted_and_deduped() {
        let m = Membership::from_groups([(3u8, ids(&[5, 1, 5, 9]))]);
        assert_eq!(m.members(3), ids(&[1, 5, 9]).as_slice());
        assert_eq!(m.lowest(3), Some(HostId(1)));
        assert!(m.is_member(3, HostId(5)));
        assert!(!m.is_member(3, HostId(2)));
        assert!(m.members(7).is_empty());
        assert_eq!(m.lowest(7), None);
    }

    #[test]
    fn expected_deliveries_excludes_member_origin() {
        let m = Membership::from_groups([(0u8, ids(&[1, 2, 3]))]);
        assert_eq!(m.expected_deliveries(0, HostId(2)), 2);
        assert_eq!(m.expected_deliveries(0, HostId(9)), 3); // non-member origin
    }

    #[test]
    #[should_panic(expected = "no members")]
    fn empty_group_rejected() {
        let mut m = Membership::new();
        m.insert(0, vec![]);
    }
}
