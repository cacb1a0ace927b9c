//! A timing wheel for the event queue hot path.
//!
//! Almost every event in a byte-level wormhole simulation is scheduled a few
//! byte-times into the future (the next byte on a link, a propagation delay).
//! A binary heap pays `O(log n)` for each of those; a timing wheel pays
//! `O(1)`. Events beyond the wheel horizon (protocol retry timers, the run
//! deadline) go to a small overflow heap and are folded back into the wheel
//! as time advances.
//!
//! Two facts about how the engine uses the queue shape its inside (see
//! DESIGN.md §3.3):
//!
//! - **Tick drain.** A byte-time on a busy fabric holds tens of events, and
//!   they must fire in `(key, seq)` order. A slot's list is in push order
//!   (newest first), and push order is `seq` order. When the clock reaches
//!   an occupied slot, one walk relinks its cells into four tick chains by
//!   a monotone group of the key, oldest first; `pop` takes the head of
//!   the lowest non-empty chain. The engine fires each kind of event in
//!   ascending rank and so pushes the next tick's in ascending rank too: a
//!   chain is already in key order unless the walk sees a key fall, and
//!   only then is it stable-sorted by key. A slot holding one entry skips
//!   the chains: `pop` takes it straight from the slot. A push at
//!   `time == now` goes into its chain after every equal key, an O(1)
//!   append unless its key is below the chain's tail. So `pop` always
//!   returns the pending entry with the least `(time, key, seq)`, whatever
//!   the interleaving of pushes and pops, without copying an entry.
//! - **Pooled slots.** Entries waiting in the wheel live in one node pool,
//!   chained per slot and per tick chain through `u32` links. The slot
//!   index implies the due time and the chain order implies `seq`, so a
//!   node stores neither. Wheel memory scales with the number of *pending*
//!   events, and a freed node is the next one reused, so push and pop keep
//!   touching the same few kilobytes.
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
//! they were scheduled, regardless of which internal structure they
//! travelled through. The default key is constant, which degenerates to
//! plain schedule-order FIFO.
//!
//! The simulator's key (`Event::canon_key`) is a canonical same-timestamp
//! order that depends only on the event itself, not on push order. Three
//! things rest on it: the tick drain, which pops a tick's events in key
//! order whichever structure they travelled through; the span engine, where
//! an `RxSpan` takes the rank of the `RxByte` its first byte stands for; and
//! the sharded engine, where boundary events are pushed by a different
//! thread at a nondeterministic wall-clock moment and must still replay the
//! sequential engine's schedule exactly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of slots in the wheel. Must be a power of two. Events scheduled
/// less than `WHEEL_SLOTS` byte-times ahead take the O(1) path.
const WHEEL_SLOTS: usize = 4096;

/// Words of the slot-occupancy bitmap (64 slots per `u64`).
const OCC_WORDS: usize = WHEEL_SLOTS / 64;

/// End of a slot chain, a tick chain or the free list.
const NIL: u32 = u32::MAX;

/// Number of tick chains.
const GROUPS: usize = 4;

/// The tick chain an entry fires from: a monotone function of its key, so
/// every key in one chain is below every key in the next and the chains
/// fire in order. The groups follow the kind rank `Event::canon_key` keeps
/// in the high 32 bits — {`Stop`, `CtrlRx`}, arrivals, `TxKick`,
/// {`HostTimer`, `Inject`} — because the engine pushes each kind in
/// ascending rank. Any other key is still ordered exactly; a key that
/// does not follow that layout only makes its chain sort more often.
#[inline]
fn group(key: u64) -> usize {
    // Ranks 0–1 `Stop` and `CtrlRx`, 4 arrivals, 6 `TxKick`, 7 and up
    // `HostTimer` and `Inject`.
    const OF_RANK: [u8; 8] = [0, 0, 1, 1, 1, 1, 2, 3];
    OF_RANK[(key >> 32).min(7) as usize] as usize
}

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

/// One pool cell: an entry chained into a slot's list or a tick chain
/// (`item` is `Some`) or a free cell chained into the free list (`item` is
/// `None`).
struct Node<T> {
    key: u64,
    next: u32,
    item: Option<T>,
}

/// A tick chain: pool cells in firing order, `NIL` ends when empty.
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

const EMPTY: Chain = Chain {
    head: NIL,
    tail: NIL,
};

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
    /// Every unfired entry due at `now` but a lone one `pop` took straight
    /// from its slot: chain `g` holds the keys of [`group`] `g` in
    /// ascending key order, equal keys in push order. `key` is the
    /// ordering key computed at push time by `order`.
    tick: [Chain; GROUPS],
    /// Bit `g` is set iff tick chain `g` is not empty.
    live: u32,
    /// Pool behind the slot lists, the tick chains and the free list.
    nodes: Vec<Node<T>>,
    /// First free cell of `nodes`, or `NIL`.
    free: u32,
    /// Newest node of each slot's list, or `NIL`; each node links to the
    /// one pushed before it. The slot of `now` is always empty: its
    /// entries are in `tick`.
    heads: [u32; WHEEL_SLOTS],
    /// Slot-occupancy bitmap: bit `s` of word `s / 64` is set iff
    /// `heads[s]` is not `NIL`. Kept exactly in sync by push/pop/fold.
    occupied: [u64; OCC_WORDS],
    /// The earliest time `pop` may still return. Everything below has fired.
    now: u64,
    /// Monotonic tie-breaker so equal-key same-time entries leave the
    /// overflow heap in schedule order.
    seq: u64,
    /// Same-timestamp ordering key (see [`Self::with_order`]).
    order: fn(&T) -> u64,
    overflow: BinaryHeap<Reverse<Overflow<T>>>,
    /// `(key, cell)` of a tick chain being sorted; kept for its capacity.
    sort_buf: Vec<(u64, u32)>,
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
        TimingWheel {
            tick: [EMPTY; GROUPS],
            live: 0,
            nodes: Vec::new(),
            free: NIL,
            heads: [NIL; WHEEL_SLOTS],
            occupied: [0; OCC_WORDS],
            now: 0,
            seq: 0,
            order,
            overflow: BinaryHeap::new(),
            sort_buf: Vec::new(),
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
        if time == self.now {
            let idx = self.alloc(key, NIL, item);
            self.insert_in_tick(idx, key);
        } else if time - self.now < WHEEL_SLOTS as u64 {
            self.link(time, key, item);
        } else {
            self.overflow.push(Reverse(Overflow {
                time,
                key,
                seq,
                item,
            }));
        }
    }

    /// Put `item` in a pool cell, a recycled one when there is one.
    fn alloc(&mut self, key: u64, next: u32, item: T) -> u32 {
        let node = Node {
            key,
            next,
            item: Some(item),
        };
        if self.free != NIL {
            let idx = self.free;
            let cell = &mut self.nodes[idx as usize];
            self.free = cell.next;
            *cell = node;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&idx| idx != NIL)
                .expect("node pool outgrew its u32 links");
            self.nodes.push(node);
            idx
        }
    }

    /// Chain an entry due at `time` (inside the horizon, after `now`) at
    /// the head of its slot's list.
    fn link(&mut self, time: u64, key: u64, item: T) {
        let slot = (time as usize) & (WHEEL_SLOTS - 1);
        self.heads[slot] = self.alloc(key, self.heads[slot], item);
        self.occupied[slot / 64] |= 1 << (slot % 64);
    }

    /// Insert cell `idx`, pushed at `time == now`, into its tick chain
    /// after every equal key: it was pushed after all of them.
    fn insert_in_tick(&mut self, idx: u32, key: u64) {
        let g = group(key);
        let Chain { head, tail } = self.tick[g];
        if self.live & (1 << g) == 0 {
            self.tick[g] = Chain {
                head: idx,
                tail: idx,
            };
            self.live |= 1 << g;
        } else if self.nodes[tail as usize].key <= key {
            self.nodes[tail as usize].next = idx;
            self.tick[g].tail = idx;
        } else {
            // The tail's key is above `key`, so the walk stops before it.
            let (mut prev, mut cur) = (NIL, head);
            while self.nodes[cur as usize].key <= key {
                prev = cur;
                cur = self.nodes[cur as usize].next;
            }
            self.nodes[idx as usize].next = cur;
            if prev == NIL {
                self.tick[g].head = idx;
            } else {
                self.nodes[prev as usize].next = idx;
            }
        }
    }

    /// Move every overflow item that has entered the horizon into the wheel.
    /// Restores the horizon invariant after `now` advances.
    ///
    /// Entries sharing a slot fold in `(key, seq)` order, at the advance
    /// that brings the slot into the horizon. No direct push can reach the
    /// slot before that advance, so every folded entry precedes every
    /// direct push in the slot's push order, as it does in `seq`.
    fn fold_overflow(&mut self) {
        while let Some(Reverse(top)) = self.overflow.peek() {
            if top.time - self.now >= WHEEL_SLOTS as u64 {
                break;
            }
            let Reverse(o) = self.overflow.pop().expect("peeked");
            self.link(o.time, o.key, o.item);
        }
    }

    /// Relink the list starting at `idx`, the slot of `now`, into the tick
    /// chains, which must be empty.
    ///
    /// The slot's list runs newest first, so prepending each cell to its
    /// chain leaves every chain in push order, which is `seq` order. A
    /// chain whose keys then ascend is in firing order; one where the walk
    /// saw a key fall is stable-sorted by key, which keeps `seq` order
    /// among equal keys.
    fn drain_tick(&mut self, mut idx: u32) {
        debug_assert_eq!(self.live, 0, "drained a tick over unfired entries");
        let mut tick = [EMPTY; GROUPS];
        let mut live = 0u32;
        // Key of each chain's head: the least pushed so far, when in order.
        let mut first = [0u64; GROUPS];
        let mut unsorted = 0u32;
        while idx != NIL {
            let cell = &mut self.nodes[idx as usize];
            let (key, next) = (cell.key, cell.next);
            let g = group(key);
            if live & (1 << g) == 0 {
                tick[g].tail = idx;
                live |= 1 << g;
            } else if key > first[g] {
                unsorted |= 1 << g;
            }
            cell.next = tick[g].head;
            tick[g].head = idx;
            first[g] = key;
            idx = next;
        }
        self.tick = tick;
        self.live = live;
        while unsorted != 0 {
            self.sort_chain(unsorted.trailing_zeros() as usize);
            unsorted &= unsorted - 1;
        }
    }

    /// Stable-sort tick chain `g` by key.
    #[cold]
    #[inline(never)]
    fn sort_chain(&mut self, g: usize) {
        let mut buf = std::mem::take(&mut self.sort_buf);
        let mut idx = self.tick[g].head;
        while idx != NIL {
            let cell = &self.nodes[idx as usize];
            buf.push((cell.key, idx));
            idx = cell.next;
        }
        buf.sort_by_key(|&(key, _)| key);
        for pair in buf.windows(2) {
            self.nodes[pair[0].1 as usize].next = pair[1].1;
        }
        let (head, tail) = (buf[0].1, buf[buf.len() - 1].1);
        self.nodes[tail as usize].next = NIL;
        self.tick[g] = Chain { head, tail };
        buf.clear();
        self.sort_buf = buf;
    }

    /// Distance in byte-times from `now` to the nearest occupied slot, or
    /// `None` when the wheel part is empty. A word-wise circular bit-scan
    /// over the occupancy bitmap: under the horizon invariant the slot
    /// index alone determines the entry time, `now + dist`. Never 0 — the
    /// slot of `now` is kept empty.
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
    /// Horizon invariant: every entry chained in a slot is due at exactly
    /// its slot's time — slot `s` holds only entries with `time ≡ s (mod
    /// WHEEL_SLOTS)` and `now < time < now + WHEEL_SLOTS`, so the slot
    /// index alone determines the due time; entries due at `now` itself
    /// are in the tick chains. Pushes enforce the window, and
    /// `fold_overflow` runs after every advance of `now`, so outside this
    /// method every overflow entry satisfies `time >= now + WHEEL_SLOTS`:
    /// the overflow heap only needs consulting when the occupancy bitmap
    /// is all zeroes.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let idx = if self.live != 0 {
            self.unlink_tick_head()
        } else {
            if self.len == 0 {
                return None;
            }
            // Jump the clock straight to the next tick, restore the
            // horizon invariant for the moved window, then take the tick.
            self.now = self.next_tick();
            self.fold_overflow();
            let slot = (self.now as usize) & (WHEEL_SLOTS - 1);
            let head = std::mem::replace(&mut self.heads[slot], NIL);
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            if self.nodes[head as usize].next == NIL {
                // A lone entry fires straight from its slot.
                head
            } else {
                self.drain_tick(head);
                self.unlink_tick_head()
            }
        };
        let cell = &mut self.nodes[idx as usize];
        let item = cell.item.take().expect("a chained cell holds an item");
        cell.next = self.free;
        self.free = idx;
        self.len -= 1;
        self.popped += 1;
        Some((self.now, item))
    }

    /// Unlink the head of the lowest non-empty tick chain.
    fn unlink_tick_head(&mut self) -> u32 {
        let g = self.live.trailing_zeros() as usize;
        let idx = self.tick[g].head;
        let next = self.nodes[idx as usize].next;
        self.tick[g].head = next;
        if next == NIL {
            self.tick[g].tail = NIL;
            self.live &= !(1 << g);
        }
        idx
    }

    /// Peek at the earliest pending timestamp without popping. O(1): a
    /// bitmap scan, falling back to the overflow head only when the wheel
    /// part is empty (valid by the horizon invariant — see [`Self::pop`]).
    pub fn peek_time(&self) -> Option<u64> {
        if self.live != 0 {
            return Some(self.now);
        }
        if self.len == 0 {
            return None;
        }
        Some(self.next_tick())
    }

    /// Due time of the earliest entry after `now`: the next occupied slot
    /// or, with the wheel part empty, the overflow head (valid by the
    /// horizon invariant). The tick chains must be empty and the wheel not.
    #[inline]
    fn next_tick(&self) -> u64 {
        match self.next_occupied_dist() {
            Some(dist) => self.now + dist,
            None => self.overflow.peek().expect("len > 0").0.time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse as Rev;
    use std::collections::BinaryHeap;

    /// The differential tests run ten times the cases in release builds
    /// (CI runs both).
    const SCALE: u64 = if cfg!(debug_assertions) { 1 } else { 10 };

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
        for _ in 0..5_000 * SCALE {
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
        for round in 0..2_000 * SCALE {
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

    /// A keyed wheel next to the binary heap it must agree with, checked
    /// after every operation. Items are `(key, id)`; ids count pushes, so
    /// an id is also the entry's `seq`.
    struct Checked {
        wheel: TimingWheel<(u64, u64)>,
        heap: BinaryHeap<Rev<(u64, u64, u64)>>,
        peak_pending: usize,
    }

    impl Checked {
        fn new() -> Self {
            Checked {
                wheel: TimingWheel::with_order(|&(key, _)| key),
                heap: BinaryHeap::new(),
                peak_pending: 0,
            }
        }

        fn push(&mut self, time: u64, key: u64) {
            let id = self.wheel.pushed();
            self.wheel.push(time, (key, id));
            self.heap.push(Rev((time, key, id)));
            self.check();
        }

        /// Pop both; returns the `(time, key)` that fired.
        fn pop(&mut self) -> (u64, u64) {
            let Rev((time, key, id)) = self.heap.pop().expect("non-empty");
            assert_eq!(self.wheel.pop(), Some((time, (key, id))));
            assert_eq!(self.wheel.now(), time);
            self.check();
            (time, key)
        }

        fn check(&mut self) {
            let w = &self.wheel;
            assert_eq!(w.len(), self.heap.len());
            assert_eq!(w.is_empty(), self.heap.is_empty());
            assert_eq!(w.pushed() - w.popped(), w.len() as u64);
            assert_eq!(w.peek_time(), self.heap.peek().map(|e| e.0 .0));
            // Steady state allocates nothing: the pool never holds more
            // cells than were ever pending at once.
            self.peak_pending = self.peak_pending.max(w.len());
            assert!(w.nodes.len() <= self.peak_pending);
        }
    }

    /// The contract the tick drain relies on: with a hundred-odd entries
    /// per timestamp, a push into the tick being drained fires next when
    /// its key is below entries that already fired, after its equals at a
    /// key tie, and last when above everything.
    #[test]
    fn dense_ticks_with_same_tick_pushes_match_reference_heap() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xD0_5E);
        let mut c = Checked::new();
        let mut t = 0u64;
        for _ in 0..30 * SCALE {
            t += if rng.gen_bool(0.2) {
                rng.gen_range(4_000..9_000u64) // through the overflow heap
            } else {
                rng.gen_range(1..50u64)
            };
            for _ in 0..rng.gen_range(100..160) {
                c.push(t, rng.gen_range(10..60));
            }
            for _ in 0..rng.gen_range(0..20) {
                c.push(t + rng.gen_range(1..6_000u64), rng.gen_range(10..60));
            }
            // Fire part of tick `t`, pushing into it as the engine does.
            for _ in 0..rng.gen_range(40..90) {
                let (now, fired) = c.pop();
                // Below what fired, a tie with the last fired, (likely) a
                // tie with something pending, above everything.
                let key = match rng.gen_range(0..8) {
                    0 => fired.saturating_sub(rng.gen_range(1..10u64)),
                    1 => fired,
                    2 => rng.gen_range(10..60),
                    3 => u64::MAX,
                    _ => continue,
                };
                c.push(now, key);
            }
        }
        while !c.heap.is_empty() {
            c.pop();
        }
    }

    /// The kind ranks of `Event::canon_key`, gaps included; a key is a rank
    /// in the high 32 bits over a lane or host id.
    const RANKS: [u64; 6] = [0, 1, 4, 6, 7, 8];

    /// A key of a random rank over `id`, now and then one above every rank.
    fn event_key(rng: &mut rand::rngs::SmallRng, id: u64) -> u64 {
        use rand::Rng;
        match rng.gen_range(0..40) {
            0 => u64::MAX,
            1 => (9 << 32) | id,
            2 => (u64::from(u32::MAX) << 32) | id,
            _ => (RANKS[rng.gen_range(0..RANKS.len())] << 32) | id,
        }
    }

    /// One tick's worth of keys at `t`, interleaved across ranks, ids with
    /// ties and gaps. Mostly ascending within a rank, as the engine pushes
    /// them; else reversed or shuffled, which the drain must sort.
    fn push_event_tick(c: &mut Checked, rng: &mut rand::rngs::SmallRng, t: u64) {
        use rand::Rng;
        let n = rng.gen_range(1..100);
        let mut ids: Vec<u64> = (0..n).map(|_| rng.gen_range(0..48)).collect();
        match rng.gen_range(0..4) {
            0 | 1 => ids.sort_unstable(),
            2 => ids.sort_unstable_by(|a, b| b.cmp(a)),
            _ => {}
        }
        for id in ids {
            let key = event_key(rng, id);
            c.push(t, key);
        }
    }

    /// `Event::canon_key`-shaped keys, which the tick drain groups by rank:
    /// ticks in and beyond the horizon, overflow entries at the tick the
    /// clock jumps to and overflow entries sharing a slot with direct
    /// pushes behind them, and, while a tick fires, pushes into it below,
    /// at and above the rank firing and into the next few ticks.
    #[test]
    fn event_shaped_keys_match_reference_heap() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xCA_11);
        let mut c = Checked::new();
        let horizon = WHEEL_SLOTS as u64;
        for _ in 0..300 * SCALE {
            let now = c.wheel.now();
            let t = if rng.gen_bool(0.3) {
                let t = now + rng.gen_range(horizon..3 * horizon);
                if rng.gen_bool(0.5) {
                    // Empty the wheel part: the clock jumps to `t`.
                    while !c.heap.is_empty() {
                        c.pop();
                    }
                    push_event_tick(&mut c, &mut rng, t);
                } else {
                    // Fold `t`'s overflow entries into its slot, then push
                    // behind them directly.
                    push_event_tick(&mut c, &mut rng, t);
                    let step = t - rng.gen_range(1..horizon);
                    c.push(step, 0);
                    while c.heap.peek().is_some_and(|e| e.0 .0 <= step) {
                        c.pop();
                    }
                    push_event_tick(&mut c, &mut rng, t);
                }
                t
            } else {
                let t = now + rng.gen_range(1..8u64);
                push_event_tick(&mut c, &mut rng, t);
                t
            };
            while c.heap.peek().is_some_and(|e| e.0 .0 <= t) {
                let (now, fired) = c.pop();
                let rank = fired >> 32;
                let id = rng.gen_range(0..48);
                let below = RANKS.iter().filter(|&&r| r < rank).count();
                let above = RANKS.iter().filter(|&&r| r <= rank).count();
                let key = match rng.gen_range(0..12) {
                    0 if below > 0 => (RANKS[rng.gen_range(0..below)] << 32) | id,
                    1 => fired.saturating_sub(rng.gen_range(0..3)),
                    2 => (rank << 32) | id,
                    3 => fired.saturating_add(rng.gen_range(0..3)),
                    4 if above < RANKS.len() => {
                        (RANKS[rng.gen_range(above..RANKS.len())] << 32) | id
                    }
                    5 => event_key(&mut rng, id),
                    6 | 7 => {
                        let key = event_key(&mut rng, id);
                        c.push(now + rng.gen_range(1..4u64), key);
                        continue;
                    }
                    _ => continue,
                };
                c.push(now, key);
            }
        }
        while !c.heap.is_empty() {
            c.pop();
        }
    }

    /// Overflow entries due at exactly the tick the clock jumps to are
    /// folded in before the drain, so they sort with the rest of the tick.
    #[test]
    fn overflow_entries_due_at_the_jump_target_sort_with_the_tick() {
        let mut c = Checked::new();
        // Wheel part empty: the clock jumps to the overflow head's time.
        for key in [7, 3, 9, 3, 1] {
            c.push(50_000, key);
        }
        c.push(50_001, 0);
        assert_eq!(c.pop(), (50_000, 1));
        c.push(50_000, 2); // same tick, between fired and pending

        // Overflow entries that entered the horizon on an earlier advance
        // share a slot with direct pushes.
        c.push(60_000, 5); // overflow from now = 50 000
        c.push(56_500, 4);
        while c.pop() != (56_500, 4) {}
        c.push(60_000, 1); // in the horizon now
        c.push(60_000, 8);
        let mut fired = Vec::new();
        while !c.heap.is_empty() {
            fired.push(c.pop());
        }
        assert_eq!(fired, [(60_000, 1), (60_000, 5), (60_000, 8)]);
    }

    /// Many horizon wraps at a steady pending count: the pool reaches its
    /// size in the first wrap and every later push reuses a freed cell.
    #[test]
    fn pool_is_reused_across_horizon_wraps() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x9001);
        let mut c = Checked::new();
        for _ in 0..300 {
            c.push(rng.gen_range(1..WHEEL_SLOTS as u64), rng.gen_range(0..8));
        }
        let mut cells_after_first_wrap = None;
        let wraps = 20 * SCALE;
        while c.wheel.now() < wraps * WHEEL_SLOTS as u64 {
            let (now, key) = c.pop();
            // Mostly near, some a tick-sharing distance, some overflow.
            let ahead = match rng.gen_range(0..10) {
                0 => rng.gen_range(WHEEL_SLOTS as u64..3 * WHEEL_SLOTS as u64),
                1 => 0,
                _ => rng.gen_range(1..200),
            };
            c.push(now + ahead, key);
            if now >= WHEEL_SLOTS as u64 {
                let cells = *cells_after_first_wrap.get_or_insert(c.wheel.nodes.len());
                assert_eq!(c.wheel.nodes.len(), cells, "pool grew at t={now}");
            }
        }
        assert_eq!(c.wheel.len(), 300);
    }

    /// A non-`Copy` item: whatever is pending when the wheel is dropped
    /// mid-tick — in the sorted run, chained in a slot, in the overflow
    /// heap — is dropped exactly once, and a popped item not again.
    #[test]
    fn drop_mid_tick_drops_every_pending_item_once() {
        use std::cell::Cell;
        use std::rc::Rc;
        struct Counted(Rc<Cell<u32>>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.set(self.0.get() + 1);
            }
        }
        let drops = Rc::new(Cell::new(0));
        let mut w: TimingWheel<Counted> = TimingWheel::new();
        for t in [5, 5, 5, 5, 5, 6, 6, 900, 4_095, 10_000, 10_000, 70_000] {
            w.push(t, Counted(drops.clone()));
        }
        w.pop(); // drains tick 5 into the run; the popped item drops here
        w.pop();
        w.push(5, Counted(drops.clone())); // into the unfired rest
        w.push(7, Counted(drops.clone())); // into a recycled cell
        assert_eq!(drops.get(), 2);
        assert_eq!(w.len(), 12);
        drop(w);
        assert_eq!(drops.get(), 14);
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
        for _ in 0..20_000 * SCALE {
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
