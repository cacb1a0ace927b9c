//! Dense per-worm side state for the sharded engine, adapter-local
//! reception lists and allocation pools for the simulation hot path.
//!
//! A worm's own state (its instance, name, corrupt flag and its countdowns
//! of sinks and streams) lives in its slot of the worm window
//! ([`crate::arena`]). [`PerWorm`] is what is left of the dense per-worm
//! side tables it replaced: a shard's record of which other shards it has
//! sent a worm's snapshot to. A sharded run releases no worm, so the
//! vector, indexed by [`WormId`] and grown on demand, stays aligned with
//! the arena.
//!
//! [`FollowMap`] backs an adapter's parked fragments (`Adapter::parked`):
//! keyed by worm, but holding only a handful of *live* entries at a time,
//! since a fragment leaves the map when its reception resumes. A
//! linear-scan association list beats both a hash map and a dense vector
//! there.
//!
//! [`RoutePool`] recycles encoded-route buffers — the one real per-worm
//! heap allocation in this content-light simulator — so steady-state
//! injection performs no allocator calls.

use crate::worm::{RouteSym, WormId};

/// A dense per-worm store: `HashMap<WormId, T>` semantics (with a default
/// standing in for "absent") at vector-index cost.
#[derive(Debug)]
pub struct PerWorm<T> {
    vals: Vec<T>,
    default: T,
}

impl<T: Copy> PerWorm<T> {
    pub fn new(default: T) -> Self {
        PerWorm {
            vals: Vec::new(),
            default,
        }
    }

    /// Read the value for `id` (the default when never written).
    #[inline]
    pub fn get(&self, id: WormId) -> T {
        self.vals
            .get(id.0 as usize)
            .copied()
            .unwrap_or(self.default)
    }

    /// Mutable access, growing the store with defaults as needed.
    #[inline]
    pub fn get_mut(&mut self, id: WormId) -> &mut T {
        let idx = id.0 as usize;
        if idx >= self.vals.len() {
            self.vals.resize(idx + 1, self.default);
        }
        &mut self.vals[idx]
    }
}

/// A worm-keyed association list for adapter-local reception state: the
/// body bytes so far of each parked fragment.
///
/// Every operation scans the whole list, so it is only as cheap as its
/// owner keeps it short: a fragment is removed when its reception resumes.
/// Insertion order is irrelevant — keys are unique.
#[derive(Debug, Default)]
pub struct FollowMap {
    entries: Vec<(WormId, u64)>,
}

impl FollowMap {
    pub fn new() -> Self {
        FollowMap::default()
    }

    #[inline]
    pub fn get(&self, id: WormId) -> Option<u64> {
        self.entries.iter().find(|e| e.0 == id).map(|e| e.1)
    }

    #[inline]
    pub fn get_mut(&mut self, id: WormId) -> Option<&mut u64> {
        self.entries.iter_mut().find(|e| e.0 == id).map(|e| &mut e.1)
    }

    #[inline]
    pub fn contains(&self, id: WormId) -> bool {
        self.entries.iter().any(|e| e.0 == id)
    }

    /// Insert or overwrite the value for `id`.
    pub fn insert(&mut self, id: WormId, val: u64) {
        match self.get_mut(id) {
            Some(v) => *v = val,
            None => self.entries.push((id, val)),
        }
    }

    /// Remove `id`, returning its value if present.
    pub fn remove(&mut self, id: WormId) -> Option<u64> {
        let idx = self.entries.iter().position(|e| e.0 == id)?;
        Some(self.entries.swap_remove(idx).1)
    }
}

/// Free-list of encoded-route buffers. Routes are built at injection and
/// dead once the tail byte leaves the source adapter; recycling them makes
/// steady-state injection allocation-free.
#[derive(Debug, Default)]
pub struct RoutePool {
    free: Vec<Vec<RouteSym>>,
}

/// Retaining more spare buffers than can plausibly be in flight at once
/// would just be leaked memory.
const ROUTE_POOL_CAP: usize = 1024;

impl RoutePool {
    pub fn new() -> Self {
        RoutePool::default()
    }

    /// An empty route buffer, reusing a recycled allocation when available.
    pub fn take(&mut self) -> Vec<RouteSym> {
        self.free.pop().unwrap_or_default()
    }

    /// Return a spent buffer to the pool.
    pub fn give(&mut self, mut buf: Vec<RouteSym>) {
        if self.free.len() < ROUTE_POOL_CAP && buf.capacity() > 0 {
            buf.clear();
            self.free.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_worm_defaults_and_growth() {
        let mut s: PerWorm<u32> = PerWorm::new(0);
        assert_eq!(s.get(WormId(7)), 0);
        *s.get_mut(WormId(7)) = 3;
        assert_eq!(s.get(WormId(7)), 3);
        assert_eq!(s.get(WormId(6)), 0);
        assert_eq!(s.get(WormId(1000)), 0);
    }

    #[test]
    fn follow_map_insert_get_remove() {
        let mut m = FollowMap::new();
        assert_eq!(m.get(WormId(1)), None);
        m.insert(WormId(1), 10);
        m.insert(WormId(2), 20);
        m.insert(WormId(1), 11);
        assert_eq!(m.get(WormId(1)), Some(11));
        assert!(m.contains(WormId(2)));
        *m.get_mut(WormId(2)).unwrap() += 1;
        assert_eq!(m.remove(WormId(2)), Some(21));
        assert_eq!(m.remove(WormId(2)), None);
        assert!(!m.contains(WormId(2)));
        assert_eq!(m.get(WormId(1)), Some(11));
        m.remove(WormId(1));
        assert!(!m.contains(WormId(1)));
    }

    #[test]
    fn route_pool_recycles_capacity() {
        let mut p = RoutePool::new();
        let mut v = p.take();
        v.extend([RouteSym::Port(1), RouteSym::Port(2)]);
        let cap = v.capacity();
        p.give(v);
        let v2 = p.take();
        assert!(v2.is_empty());
        assert_eq!(v2.capacity(), cap);
    }
}
