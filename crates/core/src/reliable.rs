//! Implicit buffer reservation with ACK/NACK and retransmission (Figure 5).
//!
//! The paper's "optimistic" alternative to a-priori credit reservation:
//! the worm header advertises its size; a hop that has buffer space accepts
//! the worm and returns an **ACK**, a hop that does not drops it and
//! returns a **NACK**; the sender — which always holds a complete copy —
//! retransmits after a timeout. Temporary buffer shortage therefore never
//! ties up *network* resources (the worm is never left backpressured in
//! the fabric), and with the two-buffer-class rule of [`crate::buffers`]
//! the buffer waits cannot cycle.
//!
//! [`ReliableFwd`] is the per-host engine the Hamiltonian and tree
//! protocols embed. It owns the buffer pool, the pending-retransmission
//! table, and the retry timers.

use crate::buffers::{BufferPool, PoolConfig, Reservation};
use crate::tags;
use std::collections::HashMap;
use wormcast_sim::engine::HostId;
use wormcast_sim::protocol::{Admission, ProtocolCtx, SendSpec};
use wormcast_sim::time::SimTime;
use wormcast_sim::worm::{MessageId, WormInstance, WormKind};

/// Reliability mode of a protocol instance.
#[derive(Clone, Copy, Debug)]
pub enum Reliability {
    /// Infinite buffering, fire-and-forget forwarding. This matches the
    /// paper's simulation experiments (Figures 10–11), where buffers are
    /// assumed sufficient and the fabric is lossless.
    None,
    /// Finite two-class pools with ACK/NACK and timeout retransmission.
    AckNack(AckNackConfig),
    /// Finite pools with **silent drops**: no NACK, no retransmission —
    /// the "less reliable multicast scheme with a (low) probability of
    /// dropping messages, but much simpler to implement" that the paper's
    /// conclusion proposes investigating. The buffer-contention ablation
    /// measures exactly when that probability stays low.
    FiniteDrop {
        pool: PoolConfig,
        single_class: bool,
    },
}

/// Parameters of the ACK/NACK mode.
#[derive(Clone, Copy, Debug)]
pub struct AckNackConfig {
    pub pool: PoolConfig,
    /// Run the pool with the two-class rule disabled (deadlock ablation).
    pub single_class: bool,
    /// Base retransmission timeout in byte-times.
    pub retry_timeout: SimTime,
    /// Uniform random extra delay added per retry (the paper's "random
    /// time out" — avoids synchronised retry storms).
    pub retry_jitter: SimTime,
    /// Give up after this many retransmissions (livelock guard; a give-up
    /// is counted, not hidden).
    pub max_retries: u32,
}

impl AckNackConfig {
    pub fn myrinet_default() -> Self {
        AckNackConfig {
            pool: PoolConfig::myrinet_default(),
            single_class: false,
            retry_timeout: 20_000,
            retry_jitter: 10_000,
            max_retries: 50,
        }
    }
}

/// Counters for the ablation studies.
#[derive(Clone, Copy, Debug, Default)]
pub struct FwdStats {
    pub forwards: u64,
    pub acks: u64,
    pub nacks: u64,
    pub retries: u64,
    /// Forwards abandoned after `max_retries` (livelock / persistent
    /// overload indicator — zero whenever the two-class rule holds).
    pub gave_up: u64,
}

struct Held {
    res: Reservation,
    refs: u32,
}

struct Pending {
    spec: SendSpec,
    retries: u32,
    hold: Option<MessageId>,
}

/// Engine tokens carry the top bit; protocols must route unknown timer
/// tokens into [`ReliableFwd::handle_timer`].
const ENGINE_TOKEN_BIT: u64 = 1 << 63;

/// Per-host reliable forwarding engine.
pub struct ReliableFwd {
    mode: Reliability,
    pool: Option<BufferPool>,
    held: HashMap<MessageId, Held>,
    pending: HashMap<u64, Pending>,
    /// Token registry: `(msg, dest)` → the timer token of its pending
    /// retransmission entry. Tokens are allocated from a local counter in
    /// this host's own event order (message ids are too wide to pack into
    /// a token alongside the destination), so allocation is deterministic
    /// per host — which is all a sharded run needs.
    tok_of: HashMap<(MessageId, HostId), u64>,
    next_tok: u64,
    /// Messages already processed here (duplicate suppression for
    /// retransmitted worms — e.g. after a lost ACK). Only populated in
    /// ACK/NACK mode, where retransmissions exist.
    seen: std::collections::HashSet<MessageId>,
    pub stats: FwdStats,
}

impl ReliableFwd {
    pub fn new(mode: Reliability) -> Self {
        let pool = match mode {
            Reliability::None => None,
            Reliability::AckNack(AckNackConfig {
                pool,
                single_class,
                ..
            })
            | Reliability::FiniteDrop { pool, single_class } => Some(if single_class {
                BufferPool::new_single_class(pool)
            } else {
                BufferPool::new(pool)
            }),
        };
        ReliableFwd {
            mode,
            pool,
            held: HashMap::new(),
            pending: HashMap::new(),
            tok_of: HashMap::new(),
            next_tok: 0,
            seen: std::collections::HashSet::new(),
            stats: FwdStats::default(),
        }
    }

    /// Record that `msg` has been fully processed at this host. Returns
    /// true if it was already processed before — the worm is a duplicate
    /// (retransmission after a lost ACK) and must be acknowledged but not
    /// delivered or forwarded again. Always false in `Reliability::None`
    /// (no retransmissions exist, so no memory is spent).
    pub fn is_duplicate(&mut self, msg: MessageId) -> bool {
        match self.mode {
            // No retransmissions exist in these modes; save the memory.
            Reliability::None | Reliability::FiniteDrop { .. } => false,
            Reliability::AckNack(_) => !self.seen.insert(msg),
        }
    }

    /// Admission check for an arriving data worm (call from `on_header`).
    /// Accepting reserves pool space under the worm's buffer class;
    /// refusing NACKs the upstream hop immediately (the worm is dropped).
    /// The ACK is sent later, by [`Self::acknowledge`], once the worm has
    /// fully arrived with a good checksum — so a worm corrupted in transit
    /// is retransmitted by the sender's timeout like any other loss.
    pub fn admit(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) -> Admission {
        debug_assert!(worm.meta.kind.is_data(), "admit() is for data worms");
        if let Reliability::FiniteDrop { .. } = self.mode {
            // Silent-drop mode: reserve or drop, no control traffic.
            let pool = self.pool.as_mut().expect("pool exists");
            let bytes = worm.meta.advertised_size.max(worm.payload_len);
            return match pool.reserve(worm.meta.buffer_class, bytes) {
                Some(res) => {
                    if let std::collections::hash_map::Entry::Vacant(e) = self.held.entry(worm.meta.msg) {
                        e.insert(Held { res, refs: 1 });
                    } else {
                        pool.release(res);
                    }
                    Admission::Accept
                }
                None => Admission::Refuse,
            };
        }
        let Reliability::AckNack(_) = self.mode else {
            return Admission::Accept;
        };
        // A retransmission of a message this host already fully processed
        // (a lost ACK) needs no buffer at all: it will be re-ACKed on
        // arrival and discarded.
        if self.seen.contains(&worm.meta.msg) {
            return Admission::Accept;
        }
        let pool = self.pool.as_mut().expect("pool exists in AckNack mode");
        let bytes = worm.meta.advertised_size.max(worm.payload_len);
        match pool.reserve(worm.meta.buffer_class, bytes) {
            Some(res) => {
                // One reference for "being received / processed locally";
                // forwards add theirs via `forward`.
                // A retransmission may arrive while the original's buffer
                // is still held: reuse the reservation, no extra reference.
                if let std::collections::hash_map::Entry::Vacant(e) = self.held.entry(worm.meta.msg) {
                    e.insert(Held { res, refs: 1 });
                } else {
                    pool.release(res);
                }
                Admission::Accept
            }
            None => {
                ctx.send(SendSpec::control(
                    tags::NACK,
                    worm.meta.msg,
                    ctx.host,
                    worm.meta.injector,
                ));
                Admission::Refuse
            }
        }
    }

    /// Acknowledge a fully received (checksum-good) data worm to the hop
    /// that sent it. Call from `on_worm_received` before forwarding.
    pub fn acknowledge(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        if let Reliability::AckNack(_) = self.mode {
            ctx.send(SendSpec::control(
                tags::ACK,
                worm.meta.msg,
                ctx.host,
                worm.meta.injector,
            ));
        }
    }

    /// Forward (or originate) a worm. In ACK/NACK mode the spec is kept for
    /// retransmission until the downstream hop ACKs. `hold` names the held
    /// local buffer backing the copy (None for origin sends, which live in
    /// host memory).
    pub fn forward(&mut self, ctx: &mut ProtocolCtx, spec: SendSpec, hold: Option<MessageId>) {
        self.stats.forwards += 1;
        if let Reliability::AckNack(cfg) = self.mode {
            if let Some(h) = hold {
                if let Some(held) = self.held.get_mut(&h) {
                    held.refs += 1;
                }
            }
            let tok = match self.tok_of.entry((spec.msg, spec.dest)) {
                std::collections::hash_map::Entry::Occupied(e) => *e.get(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    let tok = ENGINE_TOKEN_BIT | self.next_tok;
                    self.next_tok += 1;
                    *e.insert(tok)
                }
            };
            let mut stored = spec.clone();
            stored.follow = None; // retransmissions can never cut-through
            self.pending.insert(tok, Pending {
                spec: stored,
                retries: 0,
                hold,
            });
            let delay = self.retry_delay(ctx, &cfg);
            ctx.set_timer(delay, tok);
        }
        ctx.send(spec);
    }

    fn retry_delay(&self, ctx: &mut ProtocolCtx, cfg: &AckNackConfig) -> SimTime {
        use rand::Rng;
        cfg.retry_timeout
            + if cfg.retry_jitter > 0 {
                ctx.rng.gen_range(0..=cfg.retry_jitter)
            } else {
                0
            }
    }

    /// Call when a received worm has been fully processed locally (from
    /// `on_worm_received`, after issuing any forwards). Releases the
    /// reception reference on the held buffer.
    pub fn done_receiving(&mut self, msg: MessageId) {
        self.unref(msg);
    }

    /// Handle an incoming control worm. Returns true if it was an engine
    /// control worm (ACK/NACK) and has been consumed.
    pub fn on_control(&mut self, _ctx: &mut ProtocolCtx, worm: &WormInstance) -> bool {
        let WormKind::Control(tag) = worm.meta.kind else {
            return false;
        };
        match tag {
            tags::ACK => {
                if let Some(tok) = self.tok_of.remove(&(worm.meta.msg, worm.meta.injector)) {
                    if let Some(p) = self.pending.remove(&tok) {
                        self.stats.acks += 1;
                        if let Some(h) = p.hold {
                            self.unref(h);
                        }
                    }
                }
                true
            }
            tags::NACK => {
                // The downstream hop dropped the worm; the retry timer will
                // retransmit. (The paper retransmits "after a time out",
                // not immediately — an immediate retry would mostly find
                // the same full buffer.)
                self.stats.nacks += 1;
                true
            }
            _ => false,
        }
    }

    /// Handle a timer token. Returns true if it was an engine token.
    pub fn handle_timer(&mut self, ctx: &mut ProtocolCtx, token: u64) -> bool {
        if token & ENGINE_TOKEN_BIT == 0 {
            return false;
        }
        let Reliability::AckNack(cfg) = self.mode else {
            return true; // stale token after reconfiguration; ignore
        };
        let Some(p) = self.pending.get_mut(&token) else {
            return true; // already ACKed
        };
        if p.retries >= cfg.max_retries {
            let p = self.pending.remove(&token).expect("present");
            self.tok_of.remove(&(p.spec.msg, p.spec.dest));
            self.stats.gave_up += 1;
            if let Some(h) = p.hold {
                self.unref(h);
            }
            return true;
        }
        p.retries += 1;
        self.stats.retries += 1;
        let spec = p.spec.clone();
        let delay = self.retry_delay(ctx, &cfg);
        ctx.set_timer(delay, token);
        ctx.send(spec);
        true
    }

    fn unref(&mut self, msg: MessageId) {
        if let Some(h) = self.held.get_mut(&msg) {
            h.refs -= 1;
            if h.refs == 0 {
                let held = self.held.remove(&msg).expect("present");
                if let Some(pool) = self.pool.as_mut() {
                    pool.release(held.res);
                }
            }
        }
    }

    /// Outstanding unACKed forwards (drain checks in tests).
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Bytes currently held in the pool (0 in `Reliability::None`).
    pub fn pool_used(&self) -> u32 {
        self.pool.as_ref().map_or(0, |p| p.total_used())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wormcast_sim::protocol::Command;
    use wormcast_sim::worm::{WormId, WormMeta};

    fn ctx_parts() -> (SmallRng, Vec<Command>) {
        (SmallRng::seed_from_u64(1), Vec::new())
    }

    fn worm(msg: u64, injector: u32, class: u8, size: u32) -> WormInstance {
        WormInstance {
            id: WormId(0),
            sinks: 1,
            meta: WormMeta {
                kind: WormKind::Multicast { group: 0 },
                msg: MessageId(msg),
                injector: HostId(injector),
                origin: HostId(injector),
                dest: HostId(9),
                seq: 0,
                hops_left: 3,
                buffer_class: class,
                frag_index: 0,
                frag_last: true,
                advertised_size: size,
                stage: 0,
            },
            route: vec![],
            payload_len: size,
            created: 0,
            injected: 0,
        }
    }

    fn acknack(pool: PoolConfig) -> Reliability {
        Reliability::AckNack(AckNackConfig {
            pool,
            single_class: false,
            retry_timeout: 100,
            retry_jitter: 0,
            max_retries: 3,
        })
    }

    #[test]
    fn none_mode_accepts_everything() {
        let mut f = ReliableFwd::new(Reliability::None);
        let (mut rng, mut cmds) = ctx_parts();
        let mut ctx = ProtocolCtx::new(0, HostId(9), 0, &mut rng, &mut cmds);
        let w = worm(1, 2, 1, 1_000_000);
        assert_eq!(f.admit(&mut ctx, &w), Admission::Accept);
        assert!(cmds.is_empty(), "no ACK traffic in None mode");
    }

    #[test]
    fn admit_reserves_and_acks() {
        let mut f = ReliableFwd::new(acknack(PoolConfig::tight(500)));
        let (mut rng, mut cmds) = ctx_parts();
        let w = worm(1, 2, 1, 400);
        {
            let mut ctx = ProtocolCtx::new(0, HostId(9), 0, &mut rng, &mut cmds);
            assert_eq!(f.admit(&mut ctx, &w), Admission::Accept);
            assert_eq!(f.pool_used(), 400);
        }
        // No ACK yet: it is sent on complete reception via acknowledge().
        assert!(cmds.is_empty(), "unexpected {cmds:?}");
        {
            let mut ctx = ProtocolCtx::new(0, HostId(9), 0, &mut rng, &mut cmds);
            f.acknowledge(&mut ctx, &w);
        }
        match &cmds[..] {
            [Command::Send(s)] => {
                assert_eq!(s.kind, WormKind::Control(tags::ACK));
                assert_eq!(s.dest, HostId(2));
                assert!(s.priority);
            }
            other => panic!("unexpected commands {other:?}"),
        }
        // Second worm of the same class does not fit: NACK.
        cmds.clear();
        let mut ctx = ProtocolCtx::new(0, HostId(9), 0, &mut rng, &mut cmds);
        let w2 = worm(2, 3, 1, 400);
        assert_eq!(f.admit(&mut ctx, &w2), Admission::Refuse);
        match &cmds[..] {
            [Command::Send(s)] => assert_eq!(s.kind, WormKind::Control(tags::NACK)),
            other => panic!("unexpected commands {other:?}"),
        }
        // ... but the other class still has room (two-class guarantee).
        cmds.clear();
        let mut ctx = ProtocolCtx::new(0, HostId(9), 0, &mut rng, &mut cmds);
        let w3 = worm(3, 3, 2, 400);
        assert_eq!(f.admit(&mut ctx, &w3), Admission::Accept);
    }

    #[test]
    fn buffer_released_after_receive_and_ack() {
        let mut f = ReliableFwd::new(acknack(PoolConfig::tight(500)));
        let (mut rng, mut cmds) = ctx_parts();
        let w = worm(1, 2, 1, 400);
        {
            let mut ctx = ProtocolCtx::new(0, HostId(5), 0, &mut rng, &mut cmds);
            assert_eq!(f.admit(&mut ctx, &w), Admission::Accept);
            // Forward the copy onward to host 7, backed by the held buffer.
            let spec = SendSpec::forward(&w, HostId(7));
            f.forward(&mut ctx, spec, Some(MessageId(1)));
        }
        // Local processing finished: buffer still held by the forward.
        f.done_receiving(MessageId(1));
        assert_eq!(f.pool_used(), 400);
        assert_eq!(f.pending_count(), 1);
        // ACK arrives from host 7.
        let mut ack = worm(1, 7, 1, 0);
        ack.meta.kind = WormKind::Control(tags::ACK);
        {
            let mut ctx = ProtocolCtx::new(10, HostId(5), 0, &mut rng, &mut cmds);
            assert!(f.on_control(&mut ctx, &ack));
        }
        assert_eq!(f.pool_used(), 0, "buffer released after receive + ack");
        assert_eq!(f.pending_count(), 0);
        assert_eq!(f.stats.acks, 1);
    }

    #[test]
    fn timer_retransmits_until_max_then_gives_up() {
        let mut f = ReliableFwd::new(acknack(PoolConfig::tight(500)));
        let (mut rng, mut cmds) = ctx_parts();
        let w = worm(1, 2, 1, 400);
        // First token this engine allocates.
        let tok = ENGINE_TOKEN_BIT;
        {
            let mut ctx = ProtocolCtx::new(0, HostId(5), 0, &mut rng, &mut cmds);
            assert_eq!(f.admit(&mut ctx, &w), Admission::Accept);
            f.forward(&mut ctx, SendSpec::forward(&w, HostId(7)), Some(MessageId(1)));
        }
        f.done_receiving(MessageId(1));
        for i in 0..3 {
            cmds.clear();
            let mut ctx = ProtocolCtx::new(100 * (i + 1), HostId(5), 0, &mut rng, &mut cmds);
            assert!(f.handle_timer(&mut ctx, tok));
            assert!(
                cmds.iter()
                    .any(|c| matches!(c, Command::Send(s) if s.dest == HostId(7))),
                "retry {i} must resend"
            );
        }
        assert_eq!(f.stats.retries, 3);
        // Fourth firing exceeds max_retries: give up, release the buffer.
        cmds.clear();
        let mut ctx = ProtocolCtx::new(1000, HostId(5), 0, &mut rng, &mut cmds);
        assert!(f.handle_timer(&mut ctx, tok));
        assert_eq!(f.stats.gave_up, 1);
        assert_eq!(f.pending_count(), 0);
        assert_eq!(f.pool_used(), 0);
    }

    #[test]
    fn non_engine_tokens_are_ignored() {
        let mut f = ReliableFwd::new(Reliability::None);
        let (mut rng, mut cmds) = ctx_parts();
        let mut ctx = ProtocolCtx::new(0, HostId(0), 0, &mut rng, &mut cmds);
        assert!(!f.handle_timer(&mut ctx, 42));
    }

    #[test]
    fn nack_counts_but_defers_to_timer() {
        let mut f = ReliableFwd::new(acknack(PoolConfig::tight(500)));
        let (mut rng, mut cmds) = ctx_parts();
        let w = worm(1, 2, 1, 400);
        {
            let mut ctx = ProtocolCtx::new(0, HostId(5), 0, &mut rng, &mut cmds);
            assert_eq!(f.admit(&mut ctx, &w), Admission::Accept);
            f.forward(&mut ctx, SendSpec::forward(&w, HostId(7)), Some(MessageId(1)));
        }
        let n_cmds = cmds.len();
        let mut nack = worm(1, 7, 1, 0);
        nack.meta.kind = WormKind::Control(tags::NACK);
        {
            let mut ctx = ProtocolCtx::new(5, HostId(5), 0, &mut rng, &mut cmds);
            assert!(f.on_control(&mut ctx, &nack));
        }
        assert_eq!(f.stats.nacks, 1);
        assert_eq!(cmds.len(), n_cmds, "no immediate retransmit");
        assert_eq!(f.pending_count(), 1, "still pending for the timer");
    }
}
