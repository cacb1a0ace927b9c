//! A timing wheel for the event queue hot path.
//!
//! Almost every event in a byte-level wormhole simulation is scheduled a few
//! byte-times into the future (the next byte on a link, a propagation delay).
//! A binary heap pays `O(log n)` for each of those; a timing wheel pays
//! `O(1)`. Events beyond the wheel horizon (protocol retry timers, watchdogs)
//! go to a small overflow heap and are folded back into the wheel as time
//! advances.
//!
//! Sparse schedules (the span-batched engine's normal regime) are as cheap
//! as dense ones: a 4096-bit slot-occupancy bitmap (64 `u64` words) mirrors
//! which slots hold events, so advancing the clock across an empty stretch
//! is a word-wise `trailing_zeros` scan — at most 64 word reads, usually
//! one — instead of a walk over every slot and entry. The overflow heap is
//! consulted only when the whole wheel is empty (see the horizon invariant
//! on [`TimingWheel::pop`]).
//!
//! Determinism: events that share a timestamp are delivered in ascending
//! order of an *ordering key* computed at push time (see
//! [`TimingWheel::with_order`]); entries with equal keys fire in the order
//! they were scheduled (FIFO by a monotonic sequence number), regardless of
//! which internal structure they travelled through. The default key is
//! constant, which degenerates to plain schedule-order FIFO.
//!
//! The key exists for the sharded engine: a canonical same-timestamp order
//! that depends only on the event itself (not on push order) is what lets a
//! partitioned simulation — where boundary events are pushed by a different
//! thread at a nondeterministic wall-clock moment — replay the sequential
//! engine's schedule exactly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of slots in the wheel. Must be a power of two. Events scheduled
/// less than `WHEEL_SLOTS` byte-times ahead take the O(1) path.
const WHEEL_SLOTS: usize = 4096;

/// Words of the slot-occupancy bitmap (64 slots per `u64`).
const OCC_WORDS: usize = WHEEL_SLOTS / 64;

/// An entry waiting in the overflow heap, ordered by `(time, key, seq)`.
struct Overflow<T> {
    time: u64,
    key: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Overflow<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.seq == other.seq
    }
}
impl<T> Eq for Overflow<T> {}
impl<T> PartialOrd for Overflow<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Overflow<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.key, self.seq).cmp(&(other.time, other.key, other.seq))
    }
}

/// A monotonic-time priority queue specialised for near-future scheduling.
///
/// `pop` never returns an item with a timestamp smaller than one already
/// popped; scheduling in the past (before the last popped timestamp) is a
/// logic error and panics in debug builds, and is clamped to "now" in
/// release builds.
///
/// ```
/// use wormcast_sim::wheel::TimingWheel;
/// let mut w = TimingWheel::new();
/// w.push(10, "late");
/// w.push(3, "early");
/// w.push(1_000_000, "overflow-horizon");
/// assert_eq!(w.peek_time(), Some(3));
/// assert_eq!(w.pop(), Some((3, "early")));
/// assert_eq!(w.pop(), Some((10, "late")));
/// assert_eq!(w.pop(), Some((1_000_000, "overflow-horizon")));
/// ```
pub struct TimingWheel<T> {
    /// `(time, key, seq, item)` per entry; `key` is the ordering key
    /// computed at push time by `order`.
    slots: Vec<Vec<(u64, u64, u64, T)>>,
    /// Slot-occupancy bitmap: bit `s` of word `s / 64` is set iff
    /// `slots[s]` is non-empty. Kept exactly in sync by push/pop/fold.
    occupied: [u64; OCC_WORDS],
    /// The earliest time `pop` may still return. Everything below has fired.
    now: u64,
    /// Monotonic tie-breaker so equal-key same-time events fire in schedule
    /// order.
    seq: u64,
    /// Same-timestamp ordering key (see [`Self::with_order`]).
    order: fn(&T) -> u64,
    overflow: BinaryHeap<Reverse<Overflow<T>>>,
    len: usize,
    /// Lifetime counter of `push` calls (engine cost metric).
    pushed: u64,
    /// Lifetime counter of successful `pop` calls.
    popped: u64,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// Create an empty wheel positioned at time 0 with plain FIFO
    /// same-timestamp ordering (constant key).
    pub fn new() -> Self {
        Self::with_order(|_| 0)
    }

    /// Create an empty wheel whose same-timestamp delivery order is
    /// ascending `order(item)`, ties broken by schedule order. The key is
    /// evaluated once, at push time.
    pub fn with_order(order: fn(&T) -> u64) -> Self {
        let mut slots = Vec::with_capacity(WHEEL_SLOTS);
        slots.resize_with(WHEEL_SLOTS, Vec::new);
        TimingWheel {
            slots,
            occupied: [0; OCC_WORDS],
            now: 0,
            seq: 0,
            order,
            overflow: BinaryHeap::new(),
            len: 0,
            pushed: 0,
            popped: 0,
        }
    }

    /// Total items ever scheduled through this wheel.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Total items ever popped from this wheel.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The time of the last popped item (the wheel's notion of "now").
    pub fn now(&self) -> u64 {
        self.now
    }

    #[inline]
    fn mark_occupied(&mut self, slot: usize) {
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn mark_empty(&mut self, slot: usize) {
        self.occupied[slot / 64] &= !(1 << (slot % 64));
    }

    /// Schedule `item` at absolute time `time`.
    pub fn push(&mut self, time: u64, item: T) {
        debug_assert!(
            time >= self.now,
            "scheduled event in the past: t={} now={}",
            time,
            self.now
        );
        let time = time.max(self.now);
        let key = (self.order)(&item);
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        self.pushed += 1;
        if time - self.now < WHEEL_SLOTS as u64 {
            let slot = (time as usize) & (WHEEL_SLOTS - 1);
            self.slots[slot].push((time, key, seq, item));
            self.mark_occupied(slot);
        } else {
            self.overflow.push(Reverse(Overflow {
                time,
                key,
                seq,
                item,
            }));
        }
    }

    /// Move every overflow item that has entered the horizon into the wheel.
    /// Restores the horizon invariant after `now` advances.
    fn fold_overflow(&mut self) {
        while let Some(Reverse(top)) = self.overflow.peek() {
            if top.time - self.now < WHEEL_SLOTS as u64 {
                let Reverse(o) = self.overflow.pop().expect("peeked");
                let slot = (o.time as usize) & (WHEEL_SLOTS - 1);
                self.slots[slot].push((o.time, o.key, o.seq, o.item));
                self.mark_occupied(slot);
            } else {
                break;
            }
        }
    }

    /// Distance in byte-times from `now` to the nearest occupied slot
    /// (0 when something is due now), or `None` when the wheel part is
    /// empty. A word-wise circular bit-scan over the occupancy bitmap:
    /// under the horizon invariant the slot index alone determines the
    /// entry time, `now + dist`.
    #[inline]
    fn next_occupied_dist(&self) -> Option<u64> {
        let start = (self.now as usize) & (WHEEL_SLOTS - 1);
        let word0 = start / 64;
        let bit0 = start % 64;
        // Bits at or above the cursor in the cursor's own word.
        let w = self.occupied[word0] & (!0u64 << bit0);
        if w != 0 {
            let slot = word0 * 64 + w.trailing_zeros() as usize;
            return Some((slot - start) as u64);
        }
        // Remaining words in circular order; the cursor word comes around
        // last with only its below-cursor bits (one full wrap).
        for i in 1..=OCC_WORDS {
            let idx = (word0 + i) % OCC_WORDS;
            let mut w = self.occupied[idx];
            if idx == word0 {
                w &= !(!0u64 << bit0);
            }
            if w != 0 {
                let slot = idx * 64 + w.trailing_zeros() as usize;
                let dist = (slot + WHEEL_SLOTS - start) & (WHEEL_SLOTS - 1);
                return Some(dist as u64);
            }
        }
        None
    }

    /// Remove and return the earliest `(time, item)` pair, advancing the
    /// wheel's clock to that time. Returns `None` when empty.
    ///
    /// Horizon invariant: every in-wheel entry is due at exactly its slot's
    /// time — slot `s` holds only entries with `time ≡ s (mod WHEEL_SLOTS)`
    /// and `now <= time < now + WHEEL_SLOTS`, so the slot index alone
    /// determines the due time. Pushes enforce the window, and
    /// `fold_overflow` runs after every advance of `now`, so
    /// outside this method every overflow entry satisfies
    /// `time >= now + WHEEL_SLOTS`: the overflow heap only needs consulting
    /// when the occupancy bitmap is all zeroes.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        match self.next_occupied_dist() {
            Some(0) => {}
            Some(dist) => {
                // Jump the clock straight to the next occupied slot, then
                // restore the horizon invariant for the widened window.
                self.now += dist;
                self.fold_overflow();
            }
            None => {
                // Wheel empty: the overflow head is the next event.
                let Reverse(top) = self.overflow.peek().expect("len > 0");
                self.now = top.time;
                self.fold_overflow();
            }
        }
        let slot = (self.now as usize) & (WHEEL_SLOTS - 1);
        let due = &mut self.slots[slot];
        debug_assert!(!due.is_empty(), "advanced to an empty slot");
        // Select the minimum `(key, seq)` entry. The slot is usually tiny
        // (a handful of events per byte-time), so a linear scan beats any
        // ordered structure.
        let mut best = 0;
        for i in 1..due.len() {
            if (due[i].1, due[i].2) < (due[best].1, due[best].2) {
                best = i;
            }
        }
        let (time, _key, _seq, item) = due.swap_remove(best);
        debug_assert_eq!(time, self.now, "slot held an entry off its slot time");
        if due.is_empty() {
            self.mark_empty(slot);
        }
        self.len -= 1;
        self.popped += 1;
        Some((time, item))
    }

    /// Peek at the earliest pending timestamp without popping. O(1): a
    /// bitmap scan, falling back to the overflow head only when the wheel
    /// part is empty (valid by the horizon invariant — see [`Self::pop`]).
    pub fn peek_time(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        match self.next_occupied_dist() {
            Some(dist) => Some(self.now + dist),
            None => {
                let Reverse(top) = self.overflow.peek().expect("len > 0");
                Some(top.time)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse as Rev;
    use std::collections::BinaryHeap;

    #[test]
    fn empty_pops_none() {
        let mut w: TimingWheel<u32> = TimingWheel::new();
        assert!(w.pop().is_none());
        assert!(w.is_empty());
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn single_item() {
        let mut w = TimingWheel::new();
        w.push(5, "a");
        assert_eq!(w.len(), 1);
        assert_eq!(w.peek_time(), Some(5));
        assert_eq!(w.pop(), Some((5, "a")));
        assert!(w.pop().is_none());
    }

    #[test]
    fn fifo_within_same_time() {
        let mut w = TimingWheel::new();
        w.push(3, 1);
        w.push(3, 2);
        w.push(3, 3);
        assert_eq!(w.pop(), Some((3, 1)));
        assert_eq!(w.pop(), Some((3, 2)));
        assert_eq!(w.pop(), Some((3, 3)));
    }

    #[test]
    fn ordering_across_times() {
        let mut w = TimingWheel::new();
        w.push(10, "later");
        w.push(2, "sooner");
        w.push(7, "middle");
        assert_eq!(w.pop(), Some((2, "sooner")));
        assert_eq!(w.pop(), Some((7, "middle")));
        assert_eq!(w.pop(), Some((10, "later")));
    }

    #[test]
    fn overflow_beyond_horizon() {
        let mut w = TimingWheel::new();
        w.push(1_000_000, "far");
        w.push(1, "near");
        assert_eq!(w.peek_time(), Some(1));
        assert_eq!(w.pop(), Some((1, "near")));
        assert_eq!(w.peek_time(), Some(1_000_000));
        assert_eq!(w.pop(), Some((1_000_000, "far")));
    }

    #[test]
    fn interleaved_push_pop() {
        let mut w = TimingWheel::new();
        w.push(1, 'a');
        assert_eq!(w.pop(), Some((1, 'a')));
        // Schedule relative to the advanced clock.
        w.push(2, 'b');
        w.push(5000, 'c'); // overflow relative to now=1
        assert_eq!(w.pop(), Some((2, 'b')));
        w.push(3, 'd');
        assert_eq!(w.pop(), Some((3, 'd')));
        assert_eq!(w.pop(), Some((5000, 'c')));
    }

    #[test]
    fn overflow_fifo_with_direct_pushes() {
        let mut w = TimingWheel::new();
        // seq 0 goes to overflow (time 6000), seq 1 direct (time 100).
        w.push(6000, "overflow-first");
        w.push(100, "direct");
        assert_eq!(w.pop(), Some((100, "direct")));
        // Now push a same-time rival *after* the overflow item was scheduled:
        // the overflow item (seq 0) must still fire before it (seq 2).
        w.push(6000, "direct-later");
        assert_eq!(w.pop(), Some((6000, "overflow-first")));
        assert_eq!(w.pop(), Some((6000, "direct-later")));
    }

    /// The bitmap must track slot occupancy exactly across a full wheel
    /// wrap-around, including slots in the cursor's own word behind the
    /// cursor bit.
    #[test]
    fn bitmap_survives_wraparound() {
        let mut w = TimingWheel::new();
        // Advance now into the middle of a word so the circular scan has
        // to wrap (slot of time 100 is bit 36 of word 1).
        w.push(100, 0u32);
        assert_eq!(w.pop(), Some((100, 0)));
        // A slot *behind* the cursor in circular order: time 4130 maps to
        // slot 34, below the cursor's slot 100.
        w.push(4130, 1u32);
        assert_eq!(w.peek_time(), Some(4130));
        assert_eq!(w.pop(), Some((4130, 1)));
        assert!(w.is_empty());
    }

    /// Sparse-schedule differential test: idle gaps far longer than the
    /// wheel horizon, so almost every push lands in overflow and almost
    /// every pop crosses a horizon boundary. Also asserts the peek/pop
    /// consistency property at every step.
    #[test]
    fn matches_reference_heap_sparse_gaps() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x5BA6);
        let mut w: TimingWheel<u64> = TimingWheel::new();
        let mut reference: BinaryHeap<Rev<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..5_000 {
            if rng.gen_bool(0.5) || w.is_empty() {
                // Gaps of up to ~16 horizons, biased well past WHEEL_SLOTS.
                let ahead: u64 = if rng.gen_bool(0.3) {
                    rng.gen_range(0..8)
                } else {
                    rng.gen_range(4_000..65_536)
                };
                let t = now + ahead;
                w.push(t, seq);
                reference.push(Rev((t, seq)));
                seq += 1;
            } else {
                let peeked = w.peek_time().expect("non-empty");
                let (tw, item) = w.pop().expect("non-empty");
                assert_eq!(peeked, tw, "peek_time disagreed with pop");
                let Rev((tr, id)) = reference.pop().expect("non-empty");
                assert_eq!((tw, item), (tr, id));
                now = tw;
            }
        }
        while !w.is_empty() {
            assert_eq!(w.peek_time(), Some(reference.peek().unwrap().0 .0));
            let (tw, item) = w.pop().unwrap();
            let Rev((tr, id)) = reference.pop().unwrap();
            assert_eq!((tw, item), (tr, id));
        }
        assert!(reference.is_empty());
    }

    /// Overflow folding interleaved with direct pushes at *equal*
    /// timestamps: FIFO by schedule order must hold no matter which path
    /// (wheel or overflow) each entry travelled.
    #[test]
    fn overflow_fold_interleaving_at_equal_times() {
        let mut w = TimingWheel::new();
        let t = 10_000u64; // far beyond the horizon from now=0
        // Alternate overflow pushes (t is out of horizon) with near pushes
        // that drag `now` forward between them.
        w.push(t, 100); // overflow, seq 0
        w.push(5, 0); // wheel, seq 1
        assert_eq!(w.pop(), Some((5, 0)));
        w.push(t, 101); // still overflow from now=5, seq 2
        w.push(t - 4_000, 1); // wheel after fold boundary shifts, seq 3
        assert_eq!(w.pop(), Some((t - 4_000, 1)));
        // From now = t-4000 the time t is in-horizon: direct wheel pushes
        // now share a slot with folded overflow entries.
        w.push(t, 102); // wheel, seq 4
        w.push(t, 103); // wheel, seq 5
        // Delivery order at time t must be seq order: 100, 101, 102, 103.
        assert_eq!(w.pop(), Some((t, 100)));
        assert_eq!(w.pop(), Some((t, 101)));
        assert_eq!(w.pop(), Some((t, 102)));
        assert_eq!(w.pop(), Some((t, 103)));
        assert!(w.is_empty());
    }

    /// Property: whenever the wheel is non-empty, `peek_time()` equals the
    /// time of the next `pop()` — across dense bursts, multi-horizon gaps
    /// and overflow-only states.
    #[test]
    fn peek_time_always_matches_next_pop() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let mut w: TimingWheel<u32> = TimingWheel::new();
        let mut now = 0u64;
        let mut id = 0u32;
        for round in 0..2_000 {
            let burst = rng.gen_range(1usize..6);
            for _ in 0..burst {
                let ahead: u64 = match round % 3 {
                    0 => rng.gen_range(0..32),          // dense
                    1 => rng.gen_range(3_000..5_000),   // straddles horizon
                    _ => rng.gen_range(10_000..50_000), // overflow-only
                };
                w.push(now + ahead, id);
                id += 1;
            }
            let drain = rng.gen_range(0..=burst);
            for _ in 0..drain {
                let peeked = w.peek_time().expect("non-empty");
                let (t, _) = w.pop().expect("non-empty");
                assert_eq!(peeked, t);
                now = t;
            }
        }
        while let Some(peeked) = w.peek_time() {
            let (t, _) = w.pop().expect("peek said non-empty");
            assert_eq!(peeked, t);
        }
    }

    /// A keyed wheel delivers same-timestamp entries in key order, ties in
    /// schedule order — across the wheel/overflow boundary and across
    /// pushes made *while* the slot is draining.
    #[test]
    fn keyed_order_within_same_time() {
        let mut w: TimingWheel<(u64, char)> = TimingWheel::with_order(|&(k, _)| k);
        w.push(10_000, (2, 'c')); // overflow from now=0
        w.push(5, (9, 'x'));
        assert_eq!(w.pop(), Some((5, (9, 'x'))));
        w.push(10_000, (1, 'a')); // still overflow from now=5
        w.push(10_000, (3, 'd')); // overflow
        assert_eq!(w.peek_time(), Some(10_000));
        assert_eq!(w.pop(), Some((10_000, (1, 'a'))));
        // Push mid-drain with the smallest key: it must still come next.
        w.push(10_000, (0, 'z'));
        w.push(10_000, (2, 'b')); // equal key to 'c', scheduled later
        assert_eq!(w.pop(), Some((10_000, (0, 'z'))));
        assert_eq!(w.pop(), Some((10_000, (2, 'c'))));
        assert_eq!(w.pop(), Some((10_000, (2, 'b'))));
        assert_eq!(w.pop(), Some((10_000, (3, 'd'))));
        assert!(w.is_empty());
    }

    /// Differential test against a reference binary heap.
    #[test]
    fn matches_reference_heap() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        let mut w: TimingWheel<u64> = TimingWheel::new();
        let mut reference: BinaryHeap<Rev<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..20_000 {
            if rng.gen_bool(0.6) || w.is_empty() {
                let ahead: u64 = if rng.gen_bool(0.9) {
                    rng.gen_range(0..64)
                } else {
                    rng.gen_range(0..100_000)
                };
                let t = now + ahead;
                w.push(t, seq);
                reference.push(Rev((t, seq)));
                seq += 1;
            } else {
                let (tw, item) = w.pop().expect("non-empty");
                let Rev((tr, id)) = reference.pop().expect("non-empty");
                assert_eq!((tw, item), (tr, id));
                now = tw;
            }
        }
        while let Some((tw, item)) = w.pop() {
            let Rev((tr, id)) = reference.pop().expect("same length");
            assert_eq!((tw, item), (tr, id));
        }
        assert!(reference.is_empty());
    }
}
