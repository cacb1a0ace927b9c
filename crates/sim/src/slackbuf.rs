//! The run-length slack buffer behind every switch input.
//!
//! The simulator is content-light: a data byte is a `(worm, Data)` token,
//! so a worm's body in a slack buffer is one token repeated. [`SlackBuf`]
//! stores the FIFO as runs of `(byte, count)`. Buffering, forwarding or
//! handing back a span of any length is one run operation, and the memory
//! a buffer takes follows the number of worm *segments* it holds (route
//! bytes, a body run, a tail), not the number of bytes — which is what
//! lets a span outgrow the slack depth inside a drain window (DESIGN.md §3.1)
//! without the buffers growing with it.
//!
//! Only `Data` and `Idle` bytes of one worm merge into a run; route
//! symbols and tails stay single entries, so the per-byte operations see
//! exactly the byte sequence a `VecDeque<WireByte>` would hold.

use crate::worm::{ByteKind, WireByte};
use std::collections::VecDeque;

/// A FIFO of [`WireByte`]s, run-length encoded.
#[derive(Clone, Debug, Default)]
pub struct SlackBuf {
    /// `(byte, count)` with `count >= 1`; adjacent runs never merge-able.
    runs: VecDeque<(WireByte, u64)>,
    /// Total bytes across `runs`.
    len: usize,
}

/// Whether two adjacent bytes belong to one run.
#[inline]
fn merges(a: &WireByte, b: &WireByte) -> bool {
    a.worm == b.worm && a.kind == b.kind && matches!(a.kind, ByteKind::Data | ByteKind::Idle)
}

impl SlackBuf {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes buffered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub fn push_back(&mut self, b: WireByte) {
        self.push_back_run(b, 1);
    }

    /// Append `n` copies of `b`.
    #[inline]
    pub fn push_back_run(&mut self, b: WireByte, n: u64) {
        if n == 0 {
            return;
        }
        debug_assert!(n == 1 || merges(&b, &b), "only Data/Idle bytes form runs");
        self.len += n as usize;
        match self.runs.back_mut() {
            Some((last, m)) if merges(last, &b) => *m += n,
            _ => self.runs.push_back((b, n)),
        }
    }

    /// Put `n` copies of `b` back in front of everything buffered.
    pub fn push_front_run(&mut self, b: WireByte, n: u64) {
        if n == 0 {
            return;
        }
        debug_assert!(n == 1 || merges(&b, &b), "only Data/Idle bytes form runs");
        self.len += n as usize;
        match self.runs.front_mut() {
            Some((first, m)) if merges(first, &b) => *m += n,
            _ => self.runs.push_front((b, n)),
        }
    }

    #[inline]
    pub fn pop_front(&mut self) -> Option<WireByte> {
        let (b, n) = self.runs.front_mut()?;
        let b = *b;
        *n -= 1;
        if *n == 0 {
            self.runs.pop_front();
        }
        self.len -= 1;
        Some(b)
    }

    /// Remove up to `max` bytes of the front run; returns how many went.
    pub fn pop_front_run(&mut self, max: u64) -> u64 {
        let Some((_, n)) = self.runs.front_mut() else {
            return 0;
        };
        let take = max.min(*n);
        *n -= take;
        if *n == 0 {
            self.runs.pop_front();
        }
        self.len -= take as usize;
        take
    }

    pub fn pop_back(&mut self) -> Option<WireByte> {
        let (b, n) = self.runs.back_mut()?;
        let b = *b;
        *n -= 1;
        if *n == 0 {
            self.runs.pop_back();
        }
        self.len -= 1;
        Some(b)
    }

    #[inline]
    pub fn front(&self) -> Option<&WireByte> {
        self.runs.front().map(|(b, _)| b)
    }

    #[inline]
    pub fn back(&self) -> Option<&WireByte> {
        self.runs.back().map(|(b, _)| b)
    }

    /// The front byte and how many copies of it lead the buffer. For a
    /// `Data` byte that is the whole contiguous run of the worm's data at
    /// the front: every way in merges adjacent data bytes.
    #[inline]
    pub fn front_run(&self) -> Option<(WireByte, u64)> {
        self.runs.front().copied()
    }

    /// The byte at offset `i` from the front.
    pub fn get(&self, i: usize) -> Option<&WireByte> {
        let mut i = i as u64;
        for (b, n) in &self.runs {
            if i < *n {
                return Some(b);
            }
            i -= n;
        }
        None
    }

    /// The `(byte, count)` runs, front to back.
    pub fn runs(&self) -> impl Iterator<Item = (WireByte, u64)> + '_ {
        self.runs.iter().copied()
    }
}

impl std::ops::Index<usize> for SlackBuf {
    type Output = WireByte;

    fn index(&self, i: usize) -> &WireByte {
        self.get(i).expect("SlackBuf index out of range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worm::{RouteSym, WormId};

    fn byte(worm: u32, kind: ByteKind) -> WireByte {
        WireByte {
            worm: WormId(worm),
            kind,
        }
    }

    /// Every observable of the run-length buffer equals the plain deque's.
    fn assert_same(buf: &SlackBuf, reference: &VecDeque<WireByte>) {
        assert_eq!(buf.len(), reference.len());
        assert_eq!(buf.is_empty(), reference.is_empty());
        assert_eq!(buf.front(), reference.front());
        assert_eq!(buf.back(), reference.back());
        for i in 0..reference.len() {
            assert_eq!(buf.get(i), reference.get(i));
            assert_eq!(buf[i], reference[i]);
        }
        assert_eq!(buf.get(reference.len()), None);
        assert_eq!(
            buf.runs().map(|(_, n)| n).sum::<u64>(),
            reference.len() as u64
        );
        if let Some((b, n)) = buf.front_run() {
            assert_eq!(Some(&b), reference.front());
            assert!(reference.iter().take(n as usize).all(|r| *r == b));
            // ...and the run is maximal: what follows it does not merge.
            assert!(reference.get(n as usize).is_none_or(|r| !merges(r, &b)));
        }
    }

    #[test]
    fn random_ops_match_a_vecdeque() {
        let kinds = [
            ByteKind::Data,
            ByteKind::Data,
            ByteKind::Data,
            ByteKind::Idle,
            ByteKind::Tail,
            ByteKind::Route(RouteSym::Port(1)),
            ByteKind::Route(RouteSym::Port(2)),
        ];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        for _case in 0..50 {
            let mut buf = SlackBuf::new();
            let mut reference: VecDeque<WireByte> = VecDeque::new();
            for _op in 0..400 {
                let b = byte(next(3) as u32, kinds[next(kinds.len() as u64) as usize]);
                let run = matches!(b.kind, ByteKind::Data | ByteKind::Idle);
                match next(8) {
                    0 | 1 => {
                        buf.push_back(b);
                        reference.push_back(b);
                    }
                    2 if run => {
                        let n = next(40);
                        buf.push_back_run(b, n);
                        reference.extend(std::iter::repeat_n(b, n as usize));
                    }
                    3 if run => {
                        let n = next(40);
                        buf.push_front_run(b, n);
                        for _ in 0..n {
                            reference.push_front(b);
                        }
                    }
                    4 => assert_eq!(buf.pop_front(), reference.pop_front()),
                    5 => assert_eq!(buf.pop_back(), reference.pop_back()),
                    6 => {
                        let max = next(30);
                        let front = reference.front().copied();
                        let took = buf.pop_front_run(max);
                        assert!(took <= max);
                        for _ in 0..took {
                            assert_eq!(reference.pop_front(), front);
                        }
                        // A short take means the front run ended there.
                        if let (true, Some(f), Some(r)) = (took < max, front, reference.front()) {
                            assert!(!merges(r, &f));
                        }
                    }
                    _ => {}
                }
                assert_same(&buf, &reference);
            }
        }
    }

    #[test]
    fn only_data_and_idle_of_one_worm_merge() {
        let mut buf = SlackBuf::new();
        let route = byte(1, ByteKind::Route(RouteSym::Port(3)));
        buf.push_back(route);
        buf.push_back(route);
        assert_eq!(buf.runs().count(), 2, "equal route symbols stay apart");
        buf.push_back(byte(1, ByteKind::Data));
        buf.push_back_run(byte(1, ByteKind::Data), 10);
        buf.push_back(byte(1, ByteKind::Data));
        assert_eq!(buf.runs().count(), 3, "one worm's data is one run");
        buf.push_back(byte(2, ByteKind::Data));
        assert_eq!(buf.runs().count(), 4, "another worm's data is another run");
        buf.push_back(byte(2, ByteKind::Idle));
        buf.push_back(byte(2, ByteKind::Idle));
        assert_eq!(buf.runs().count(), 5, "idles merge, but not with data");
        buf.push_back(byte(2, ByteKind::Tail));
        buf.push_back(byte(2, ByteKind::Tail));
        assert_eq!(buf.runs().count(), 7, "tails stay apart");
        assert_eq!(buf.len(), 2 + 12 + 1 + 2 + 2);

        // Handing a truncated span back re-joins the run it was cut from.
        let mut buf = SlackBuf::new();
        buf.push_back_run(byte(4, ByteKind::Data), 5);
        assert_eq!(buf.pop_front_run(3), 3);
        buf.push_front_run(byte(4, ByteKind::Data), 3);
        assert_eq!(buf.front_run(), Some((byte(4, ByteKind::Data), 5)));
        assert_eq!(buf.runs().count(), 1);
    }
}
