//! The worm arena: a window over the worms a run has injected, from the
//! oldest one still unreleased to the newest.
//!
//! [`WormId`]s are dense and never reused, so a worm's slot is found by
//! subtracting the window's `base` id — no hashing, no generation tags.
//! A worm is *released* when its last byte has left the fabric: the last
//! of its byte streams ended at its consumer, or, for a Backward Reset
//! flush, no byte of it can still be on a wire. A *stream* runs from the
//! injecting adapter, or from one fragment of a replica branch, to the
//! adapter or replicating input that takes its tail; a switch-multicast
//! worm may still have a tail on a wire after every sink has resolved (a
//! `RootedInterrupt` branch cuts its fragment after the whole body while
//! the real tail lags upstream). Its slot is emptied, and empty slots at
//! the front of the window are popped. Memory is therefore bounded by the
//! worms alive between the oldest unreleased one and the newest, not by
//! how long the run has been going. A released worm cannot be read: `WormArena`'s
//! index panics on it in every build, and `WormArena::get` says `None`.
//!
//! Each slot also carries the engine-private side state of its worm (its
//! canonical name, the corrupt flag and the countdowns of unresolved sinks
//! and open streams), so a worm's state lives and dies in one place.

use crate::worm::{WormId, WormInstance};
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};

/// A live worm and the engine's side state for it.
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) inst: WormInstance,
    /// Canonical name, `(injecting host << 40) | seq` (see
    /// `Network::worm_name`).
    pub(crate) name: u64,
    /// The fault model corrupted this worm in flight.
    pub(crate) corrupt: bool,
    /// Sinks not yet resolved (delivered, refused, corrupt or flushed).
    pub(crate) sinks_left: u32,
    /// Byte streams whose tail no consumer has taken yet; the worm is
    /// released when the last one ends (`Network::end_stream`).
    pub(crate) streams: u32,
}

/// The window of worm slots; see the module doc.
#[derive(Debug, Default)]
pub(crate) struct WormArena {
    /// `slots[i]` is worm `base + i`; `None` once released.
    slots: VecDeque<Option<Slot>>,
    /// Id of `slots[0]`. A `u64` so releasing the last of 2³² ids cannot
    /// overflow it.
    base: u64,
}

impl WormArena {
    /// The id the next [`WormArena::push`] assigns. Ids are `u32`s that
    /// are never reused, so a run that injects more than 2³² worms fails
    /// here rather than wrapping onto an older worm's id.
    pub(crate) fn next_id(&self) -> WormId {
        WormId(
            u32::try_from(self.end())
                .expect("worm ids exhausted: a run injects at most 2^32 worms"),
        )
    }

    /// Append `inst` (whose `id` must be [`WormArena::next_id`]) under its
    /// canonical `name`, with every sink unresolved and one stream open:
    /// the injecting adapter's.
    pub(crate) fn push(&mut self, inst: WormInstance, name: u64) -> WormId {
        let id = self.next_id();
        assert_eq!(inst.id, id, "a worm is pushed under the next id");
        let sinks_left = inst.sinks.max(1);
        if self.slots.len() == self.slots.capacity() {
            // Grow by a sixteenth, not twice over: the window slides round
            // the ring and touches every slot of it, so the whole capacity
            // is resident memory, not just the widest window.
            self.slots.reserve_exact(self.slots.len() / 16 + 16);
        }
        self.slots.push_back(Some(Slot {
            inst,
            name,
            corrupt: false,
            sinks_left,
            streams: 1,
        }));
        id
    }

    /// The slot of `id` if it is live: `None` when released or never
    /// injected.
    #[inline]
    pub(crate) fn slot_opt(&self, id: WormId) -> Option<&Slot> {
        self.slots.get(self.index(id))?.as_ref()
    }

    /// The slot of live worm `id`; panics when it is released or was never
    /// injected.
    #[inline]
    pub(crate) fn slot(&self, id: WormId) -> &Slot {
        match self.slot_opt(id) {
            Some(s) => s,
            None => missing(id, self.end()),
        }
    }

    #[inline]
    pub(crate) fn slot_mut(&mut self, id: WormId) -> &mut Slot {
        let (i, end) = (self.index(id), self.end());
        match self.slots.get_mut(i) {
            Some(Some(s)) => s,
            _ => missing(id, end),
        }
    }

    /// Position of `id` in `slots`; an id below the window wraps to an
    /// index past its end.
    #[inline]
    fn index(&self, id: WormId) -> usize {
        (id.0 as u64).wrapping_sub(self.base) as usize
    }

    /// One past the newest id.
    fn end(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// Live worm `id`, or `None` when it was released or never injected.
    pub(crate) fn get(&self, id: WormId) -> Option<&WormInstance> {
        self.slot_opt(id).map(|s| &s.inst)
    }

    /// Free `id`'s slot and pop the released slots at the window's front.
    pub(crate) fn release(&mut self, id: WormId) {
        let i = self.index(id);
        if self.slots.get_mut(i).and_then(Option::take).is_none() {
            panic!("worm {id:?} released twice or never injected");
        }
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// The live slots, oldest first.
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter().flatten()
    }

    /// The live worms, oldest first.
    pub(crate) fn live(&self) -> impl Iterator<Item = &WormInstance> {
        self.live_slots().map(|s| &s.inst)
    }

    /// Slots in the window, released ones between live ones included: the
    /// memory the arena holds.
    pub(crate) fn window_len(&self) -> usize {
        self.slots.len()
    }
}

#[cold]
#[inline(never)]
fn missing(id: WormId, end: u64) -> ! {
    if id.0 as u64 >= end {
        panic!("worm {id:?} was never injected");
    }
    panic!("worm {id:?} was read after its release");
}

impl Index<WormId> for WormArena {
    type Output = WormInstance;

    /// Live worm `id`; panics when it is released or was never injected.
    #[inline]
    fn index(&self, id: WormId) -> &WormInstance {
        &self.slot(id).inst
    }
}

impl IndexMut<WormId> for WormArena {
    #[inline]
    fn index_mut(&mut self, id: WormId) -> &mut WormInstance {
        &mut self.slot_mut(id).inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::HostId;
    use crate::worm::{MessageId, WormKind, WormMeta};

    fn worm(id: u32, sinks: u32) -> WormInstance {
        WormInstance {
            id: WormId(id),
            meta: WormMeta {
                kind: WormKind::Unicast,
                msg: MessageId(id as u64),
                injector: HostId(0),
                origin: HostId(0),
                dest: HostId(1),
                seq: 0,
                hops_left: 0,
                buffer_class: 1,
                frag_index: 0,
                frag_last: true,
                advertised_size: 0,
                stage: 0,
            },
            sinks,
            route: Vec::new(),
            payload_len: 0,
            created: 0,
            injected: 0,
        }
    }

    fn push(a: &mut WormArena, sinks: u32) -> WormId {
        let id = a.next_id();
        a.push(worm(id.0, sinks), 100 + id.0 as u64)
    }

    #[test]
    fn the_window_runs_from_the_oldest_unreleased_worm() {
        let mut a = WormArena::default();
        let ids: Vec<WormId> = (0..4).map(|_| push(&mut a, 1)).collect();
        assert_eq!(ids, (0..4).map(WormId).collect::<Vec<_>>());
        a.release(ids[1]);
        assert_eq!((a.window_len(), a.live().count()), (4, 3), "a hole stays");
        assert!(a.get(ids[1]).is_none());
        a.release(ids[0]);
        assert_eq!((a.window_len(), a.live().count()), (2, 2), "the front pops");
        assert_eq!(a[ids[2]].id, ids[2]);
        assert_eq!(a.slot(ids[3]).name, 103);
        assert_eq!(push(&mut a, 3), WormId(4), "ids are never reused");
        assert_eq!(a.slot(WormId(4)).sinks_left, 3);
        let live: Vec<u32> = a.live().map(|w| w.id.0).collect();
        assert_eq!(live, vec![2, 3, 4]);
        for id in [2, 3, 4] {
            a.release(WormId(id));
        }
        assert_eq!((a.window_len(), a.live().count()), (0, 0));
        assert_eq!(a.next_id(), WormId(5));
    }

    #[test]
    fn the_ring_holds_little_more_than_its_widest_window() {
        let mut a = WormArena::default();
        for _ in 0..10_000 {
            push(&mut a, 1);
        }
        let cap = a.slots.capacity();
        assert!(cap <= 10_000 + 10_000 / 16 + 16, "capacity {cap}");
    }

    #[test]
    #[should_panic(expected = "read after its release")]
    fn a_released_worm_cannot_be_read() {
        let mut a = WormArena::default();
        let id = push(&mut a, 1);
        push(&mut a, 1);
        a.release(id);
        let _ = &a[id];
    }

    #[test]
    #[should_panic(expected = "never injected")]
    fn an_id_past_the_newest_worm_cannot_be_read() {
        let mut a = WormArena::default();
        push(&mut a, 1);
        let _ = a.slot(WormId(1));
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn a_worm_is_released_once() {
        let mut a = WormArena::default();
        let id = push(&mut a, 1);
        push(&mut a, 1);
        a.release(id);
        a.release(id);
    }

    #[test]
    #[should_panic(expected = "worm ids exhausted")]
    fn ids_run_out_loudly_instead_of_wrapping() {
        let a = WormArena {
            base: u32::MAX as u64 + 1,
            ..WormArena::default()
        };
        a.next_id();
    }
}
