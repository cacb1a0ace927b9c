//! The two-buffer-class adapter pools (Figures 6 and 7).
//!
//! Buffer deadlock happens when multicast worms holding full buffers wait on
//! each other in a cycle (Figure 6). The paper's rule: multicasts propagate
//! from lower to higher host IDs, and at the (at most one) ID reversal a
//! worm switches from **class 1** to **class 2** buffers. A buffer request
//! then always points to a strictly higher `(host ID, class)` pair, so the
//! wait-for relation is a partial order — no cycles, no deadlock. The proof
//! obligation "each adapter can buffer two worms, one per class" shows up
//! here as the requirement that each class pool hold at least one maximum
//! worm.
//!
//! The pool also models the `[VLB96]` trick the paper adopts: worms may
//! overflow into the **host DMA buffer extension** when the on-card SRAM
//! class pool is full.

/// Pool sizing. The Myrinet LANai has 128 KB SRAM of which ~25 KB is
/// usable worm buffering; the default splits it across the two classes and
/// allows a generous host-DMA extension.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Class-1 (pre-reversal) capacity in bytes.
    pub class1: u32,
    /// Class-2 (post-reversal) capacity in bytes.
    pub class2: u32,
    /// Shared host-DMA overflow capacity in bytes (0 disables).
    pub dma_extension: u32,
}

impl PoolConfig {
    /// The Myrinet-flavoured default: two 12 KB class pools on the card and
    /// a 64 KB host DMA extension.
    pub fn myrinet_default() -> Self {
        PoolConfig {
            class1: 12 * 1024,
            class2: 12 * 1024,
            dma_extension: 64 * 1024,
        }
    }

    /// A deliberately tight configuration for deadlock experiments: each
    /// class holds exactly one worm of `worm_bytes`, no DMA extension.
    pub fn tight(worm_bytes: u32) -> Self {
        PoolConfig {
            class1: worm_bytes,
            class2: worm_bytes,
            dma_extension: 0,
        }
    }

    /// Collapse both classes into one (rule OFF) with the same total
    /// capacity — the ablation's "single class" arm.
    pub fn single_class(self) -> Self {
        PoolConfig {
            class1: self.class1 + self.class2,
            class2: 0,
            dma_extension: self.dma_extension,
        }
    }
}

/// A granted reservation; return it to [`BufferPool::release`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation {
    pub class: u8,
    /// Bytes taken from the class pool.
    pub from_class: u32,
    /// Bytes taken from the DMA extension.
    pub from_dma: u32,
}

impl Reservation {
    pub fn bytes(&self) -> u32 {
        self.from_class + self.from_dma
    }
}

/// Byte-accounted two-class buffer pool with DMA overflow.
///
/// ```
/// use wormcast_core::buffers::{BufferPool, PoolConfig};
/// let mut pool = BufferPool::new(PoolConfig::tight(1000));
/// let pre = pool.reserve(1, 1000).expect("class 1 fits one worm");
/// // Class 1 is now full, but a post-reversal worm still has room —
/// // the Figure 7 deadlock-freedom guarantee:
/// assert!(pool.reserve(1, 1).is_none());
/// let post = pool.reserve(2, 1000).expect("class 2 is independent");
/// pool.release(pre);
/// pool.release(post);
/// assert_eq!(pool.total_used(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct BufferPool {
    cfg: PoolConfig,
    used1: u32,
    used2: u32,
    used_dma: u32,
    /// Classes collapsed (deadlock-rule ablation): all requests draw from
    /// class 1 regardless of the worm's class field.
    single_class: bool,
}

impl BufferPool {
    pub fn new(cfg: PoolConfig) -> Self {
        BufferPool {
            cfg,
            used1: 0,
            used2: 0,
            used_dma: 0,
            single_class: false,
        }
    }

    /// Disable the two-class rule (ablation arm): both classes draw from a
    /// single merged pool.
    pub fn new_single_class(cfg: PoolConfig) -> Self {
        let mut p = Self::new(cfg.single_class());
        p.single_class = true;
        p
    }

    /// Try to reserve `bytes` in `class` (1 or 2), overflowing into the DMA
    /// extension if the class pool is short. All-or-nothing.
    pub fn reserve(&mut self, class: u8, bytes: u32) -> Option<Reservation> {
        assert!(class == 1 || class == 2, "buffer class must be 1 or 2");
        let class = if self.single_class { 1 } else { class };
        let (cap, used) = match class {
            1 => (self.cfg.class1, &mut self.used1),
            _ => (self.cfg.class2, &mut self.used2),
        };
        let class_free = cap.saturating_sub(*used);
        let from_class = bytes.min(class_free);
        let from_dma = bytes - from_class;
        if from_dma > self.cfg.dma_extension.saturating_sub(self.used_dma) {
            return None;
        }
        *used += from_class;
        self.used_dma += from_dma;
        Some(Reservation {
            class,
            from_class,
            from_dma,
        })
    }

    pub fn release(&mut self, r: Reservation) {
        match r.class {
            1 => {
                debug_assert!(self.used1 >= r.from_class, "double release");
                self.used1 -= r.from_class;
            }
            _ => {
                debug_assert!(self.used2 >= r.from_class, "double release");
                self.used2 -= r.from_class;
            }
        }
        debug_assert!(self.used_dma >= r.from_dma, "double release (dma)");
        self.used_dma -= r.from_dma;
    }

    pub fn used(&self, class: u8) -> u32 {
        match class {
            1 => self.used1,
            _ => self.used2,
        }
    }

    pub fn used_dma(&self) -> u32 {
        self.used_dma
    }

    pub fn total_used(&self) -> u32 {
        self.used1 + self.used2 + self.used_dma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_release_roundtrip() {
        let mut p = BufferPool::new(PoolConfig {
            class1: 100,
            class2: 50,
            dma_extension: 0,
        });
        let r = p.reserve(1, 60).expect("fits");
        assert_eq!(p.used(1), 60);
        let r2 = p.reserve(1, 40).expect("fits exactly");
        assert!(p.reserve(1, 1).is_none(), "class 1 exhausted");
        let r3 = p.reserve(2, 50).expect("class 2 independent");
        p.release(r);
        p.release(r2);
        p.release(r3);
        assert_eq!(p.total_used(), 0);
    }

    #[test]
    fn classes_are_independent() {
        let mut p = BufferPool::new(PoolConfig::tight(1000));
        assert!(p.reserve(1, 1000).is_some());
        assert!(p.reserve(1, 1).is_none());
        // Class 2 still has a full worm of space: the deadlock-freedom
        // guarantee.
        assert!(p.reserve(2, 1000).is_some());
    }

    #[test]
    fn dma_overflow_spills() {
        let mut p = BufferPool::new(PoolConfig {
            class1: 100,
            class2: 0,
            dma_extension: 80,
        });
        let r = p.reserve(1, 150).expect("spills into dma");
        assert_eq!(r.from_class, 100);
        assert_eq!(r.from_dma, 50);
        assert_eq!(p.used_dma(), 50);
        assert!(p.reserve(1, 40).is_none(), "only 30 dma left");
        let r2 = p.reserve(1, 30).expect("exactly the rest");
        p.release(r);
        p.release(r2);
        assert_eq!(p.total_used(), 0);
    }

    #[test]
    fn all_or_nothing() {
        let mut p = BufferPool::new(PoolConfig {
            class1: 10,
            class2: 0,
            dma_extension: 0,
        });
        assert!(p.reserve(1, 11).is_none());
        assert_eq!(p.used(1), 0, "failed reserve must not leak");
    }

    #[test]
    fn single_class_merges_pools() {
        let mut p = BufferPool::new_single_class(PoolConfig::tight(1000));
        // Merged capacity 2000, but class 2 requests draw from the same pool.
        assert!(p.reserve(1, 1500).is_some());
        assert!(p.reserve(2, 1000).is_none(), "no independent class 2");
        assert!(p.reserve(2, 500).is_some());
    }

    #[test]
    #[should_panic(expected = "class must be 1 or 2")]
    fn invalid_class_rejected() {
        let mut p = BufferPool::new(PoolConfig::tight(10));
        let _ = p.reserve(3, 1);
    }
}
