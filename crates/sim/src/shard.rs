//! Sharded parallel execution of a *single* network (DESIGN.md §3.4).
//!
//! The topology is partitioned into shards (see `wormcast-topo`'s
//! `ShardPlan`); each shard owns a disjoint set of switches, the hosts
//! attached to them, and runs its own [`Network`] instance — its own
//! timing wheel, slabs and event loop — on its own worker thread. Events
//! whose target entity lives in another shard cross as *boundary
//! messages* over per-ordered-pair FIFO mailboxes:
//!
//! - every byte put on a cut lane crosses as `BoundaryMsg::Rx`, one
//!   message per byte (the span engine never batches across a cut; the
//!   first byte of each worm carries a `WormSnap` so the receiving shard
//!   can materialise the worm locally), and
//! - a STOP/GO symbol emitted by a receive side whose transmit side is
//!   foreign crosses as `BoundaryMsg::Ctrl`.
//!
//! Synchronization is conservative (Chandy–Misra–Bryant style) with
//! lookahead equal to the minimum inter-shard link latency. Each shard
//! publishes a monotone horizon clock `H = min(peek, safe)` where
//! `safe = min over in-neighbors n of (H_n + L(n→me))`, and executes only
//! events with `t < safe`. Publishing `min(peek, safe)` rather than the
//! raw queue head keeps the clock monotone even while boundary messages
//! are still in flight (a raw peek could *regress* when one lands, which
//! would break a neighbor's safety assumption). With every cross-shard
//! lookahead ≥ 1 the shard holding the globally minimal clock always has
//! `peek < safe`, so the system never stalls.
//!
//! Determinism: the scheduler's canonical same-timestamp key
//! ([`crate::engine::Event::canon_key`]) makes the execution order within
//! a byte-time independent of *when* (in wall-clock terms) boundary
//! events entered the wheel, so a sharded run replays exactly the
//! sequential schedule and produces byte-identical statistics, message
//! logs and deliveries. `tests/shard_equivalence.rs` enforces this
//! against the sequential engine on four topologies in both `SimMode`s.
//! No engine decision reads what a mailbox holds, so a sharded run's own
//! event counts repeat exactly from run to run as well (`perf` pins them).

use crate::config::ConfigError;
use crate::deadlock;
use crate::engine::{CtrlSym, Event};
use crate::link::{ChanId, NodeRef};
use crate::network::{Delivery, MessageLog, MessageRecord, NetStats, Network, RunOutcome};
use crate::slab::PerWorm;
use crate::switchcast::SwitchcastMode;
use crate::time::SimTime;
use crate::trace::Trace;
use crate::worm::{ByteKind, WireByte, WormId, WormInstance, WormMeta};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A FIFO mailbox carrying boundary messages from one shard to another.
/// One mailbox per ordered shard pair keeps per-sender order — all
/// control symbols for a given channel originate in a single shard, so
/// their emission order survives the crossing.
pub(crate) type Mailbox = Arc<Mutex<VecDeque<BoundaryMsg>>>;

/// Static identity of a worm, attached to the first boundary byte a shard
/// sends another shard for it. Everything the receiving shard needs to
/// materialise the worm locally — the route itself is *not* included:
/// route symbols travel as wire bytes and are consumed by switches, and
/// only the injecting adapter (always co-located with the worm's origin
/// shard) ever reads `WormInstance::route`.
#[derive(Clone, Debug)]
pub(crate) struct WormSnap {
    pub(crate) meta: WormMeta,
    pub(crate) sinks: u32,
    pub(crate) payload_len: u32,
    pub(crate) created: SimTime,
    pub(crate) injected: SimTime,
}

impl WormSnap {
    pub(crate) fn of(w: &WormInstance) -> Self {
        WormSnap {
            meta: w.meta.clone(),
            sinks: w.sinks,
            payload_len: w.payload_len,
            created: w.created,
            injected: w.injected,
        }
    }

    /// Materialise a local [`WormInstance`] under the local id `id`.
    pub(crate) fn instantiate(&self, id: WormId) -> WormInstance {
        WormInstance {
            id,
            meta: self.meta.clone(),
            sinks: self.sinks,
            route: Vec::new(),
            payload_len: self.payload_len,
            created: self.created,
            injected: self.injected,
        }
    }
}

/// An event crossing a shard boundary, stamped with the simulated time at
/// which it takes effect in the receiving shard.
#[derive(Debug)]
pub(crate) enum BoundaryMsg {
    /// A byte arriving at the receive side of cross-shard channel `ch`.
    /// `tag` is the worm's globally unique tag (`injector << 40 | seq`);
    /// `snap` rides along on the first byte the sending shard ever sends
    /// the receiving shard for this worm.
    Rx {
        ts: SimTime,
        ch: ChanId,
        tag: u64,
        kind: ByteKind,
        snap: Option<Box<WormSnap>>,
    },
    /// A control symbol arriving at the transmit side of cross-shard
    /// channel `ch` (it travelled the reverse channel).
    Ctrl {
        ts: SimTime,
        ch: ChanId,
        sym: CtrlSym,
    },
}

impl BoundaryMsg {
    pub(crate) fn ts(&self) -> SimTime {
        match self {
            BoundaryMsg::Rx { ts, .. } | BoundaryMsg::Ctrl { ts, .. } => *ts,
        }
    }
}

/// Per-shard sharding context installed into a [`Network`]. Present only
/// when the network runs as one shard of a [`ShardedNetwork`]; its
/// absence is the (free) "sequential engine" check on the hot paths.
pub(crate) struct ShardCtx {
    /// This shard's index.
    pub(crate) me: u32,
    /// Owning shard of each channel's transmit-side endpoint.
    pub(crate) chan_src_owner: Vec<u32>,
    /// Owning shard of each channel's receive-side endpoint.
    pub(crate) chan_dst_owner: Vec<u32>,
    /// Outgoing mailbox per destination shard (`None` for self and for
    /// shards this one shares no channel with).
    pub(crate) outboxes: Vec<Option<Mailbox>>,
    /// Bitmask of shards already sent a [`WormSnap`] for each local worm
    /// (bit = destination shard index; shard count is capped at 64).
    pub(crate) snap_sent: PerWorm<u64>,
    /// Canonical worm name → local dense [`WormId`]. The names themselves
    /// live in the worm window's slots (sequential runs assign them too, so
    /// the trace names worms identically however the run is partitioned);
    /// only this reverse index is shard-specific.
    pub(crate) tag_to_worm: HashMap<u64, WormId>,
}

// ---------------------------------------------------------------------------
// The boundary, as one shard engine sees it: which lane ends are foreign
// and the outbound mailboxes. `network.rs` and `span.rs` reach this through
// single calls.
// ---------------------------------------------------------------------------

impl Network {
    /// Install the sharding context. Called once by `ShardedNetwork::new`
    /// before any event runs.
    pub(crate) fn install_shard_ctx(&mut self, ctx: ShardCtx) {
        debug_assert!(self.shard.is_none(), "shard context installed twice");
        self.shard = Some(Box::new(ctx));
    }

    /// True when the transmit-side endpoint of `ch` lives in another shard
    /// (its local channel copy is a dead mirror: `in_flight` stays 0).
    #[inline]
    pub(crate) fn chan_src_foreign(&self, ch: ChanId) -> bool {
        match &self.shard {
            None => false,
            Some(s) => s.chan_src_owner[ch.0 as usize] != s.me,
        }
    }

    /// True when the receive-side endpoint of `ch` lives in another shard.
    #[inline]
    pub(crate) fn chan_dst_foreign(&self, ch: ChanId) -> bool {
        match &self.shard {
            None => false,
            Some(s) => s.chan_dst_owner[ch.0 as usize] != s.me,
        }
    }

    /// Enqueue one boundary message in shard `to`'s mailbox.
    fn push_boundary(&self, to: u32, msg: BoundaryMsg) {
        let s = self
            .shard
            .as_ref()
            .expect("boundary send implies shard ctx");
        s.outboxes[to as usize]
            .as_ref()
            .expect("cross-shard channel has a mailbox")
            .lock()
            .unwrap()
            .push_back(msg);
    }

    /// Send `sym` to the foreign transmit side of cut channel `ch`.
    pub(crate) fn send_boundary_ctrl(&mut self, ch: ChanId, sym: CtrlSym) {
        let ts = self.scheduler.now() + self.lanes[ch.0 as usize].delay();
        let s = self.shard.as_ref().expect("foreign src implies shard ctx");
        self.push_boundary(
            s.chan_src_owner[ch.0 as usize],
            BoundaryMsg::Ctrl { ts, ch, sym },
        );
    }

    /// Put `b` on cross-shard channel `ch`: enqueue the arrival in the
    /// receive-side owner's mailbox, attaching the worm snapshot the first
    /// time this shard sends that shard a byte of this worm.
    pub(crate) fn send_boundary_byte(&mut self, ch: ChanId, ts: SimTime, b: WireByte) {
        let tag = self.worm_name(b.worm);
        let s = self
            .shard
            .as_mut()
            .expect("boundary send implies shard ctx");
        let to = s.chan_dst_owner[ch.0 as usize];
        let mask = s.snap_sent.get_mut(b.worm);
        let need_snap = *mask & (1 << to) == 0;
        *mask |= 1 << to;
        let snap = need_snap.then(|| Box::new(WormSnap::of(&self.worms[b.worm])));
        self.push_boundary(
            to,
            BoundaryMsg::Rx {
                ts,
                ch,
                tag,
                kind: b.kind,
                snap,
            },
        );
    }

    /// Enqueue one boundary message into the local wheel, materialising
    /// the worm on first contact. Called by the shard worker loop while
    /// draining its inbound mailboxes; the conservative horizon guarantees
    /// `ts` has not been executed past.
    fn ingest_boundary(&mut self, msg: BoundaryMsg) {
        debug_assert!(
            msg.ts() >= self.scheduler.now(),
            "boundary message at {} arrived behind local time {}",
            msg.ts(),
            self.scheduler.now()
        );
        match msg {
            BoundaryMsg::Rx {
                ts,
                ch,
                tag,
                kind,
                snap,
            } => {
                let worm = self.worm_for_tag(tag, snap);
                let byte = WireByte { worm, kind };
                self.scheduler.at(ts, Event::RxByte { ch, byte });
            }
            BoundaryMsg::Ctrl { ts, ch, sym } => {
                self.scheduler.at(ts, Event::CtrlRx { ch, sym });
            }
        }
    }

    /// Resolve a boundary worm tag to the local dense [`WormId`],
    /// registering the worm from its snapshot on first contact. The
    /// injecting shard counted the worm's statistics; a mirror counts
    /// nothing here (its deliveries later drive this shard's
    /// `active_worms` negative, which the merged statistics balance out).
    fn worm_for_tag(&mut self, tag: u64, snap: Option<Box<WormSnap>>) -> WormId {
        let s = self
            .shard
            .as_mut()
            .expect("boundary ingest implies shard ctx");
        if let Some(&w) = s.tag_to_worm.get(&tag) {
            return w;
        }
        let snap = snap.expect("first boundary byte of a worm carries its snapshot");
        let id = self.worms.next_id();
        s.tag_to_worm.insert(tag, id);
        self.worms.push(snap.instantiate(id), tag)
    }

    /// The canonical name of a local worm, or `None` if it was never
    /// injected or materialized here. Used by the merged deadlock analysis
    /// to name one worm consistently across the shards that each hold a
    /// mirror of it under different dense ids.
    pub(crate) fn worm_tag(&self, worm: WormId) -> Option<u64> {
        self.worms.slot_opt(worm).map(|s| s.name)
    }
}

/// A shard's published horizon clock, padded to its own cache line so the
/// cross-shard polling loop never false-shares.
#[repr(align(64))]
struct ShardClock(AtomicU64);

/// A single simulated network executed by `N` cooperating shard engines.
///
/// Build one `Network` per shard (identical fabric, sources installed
/// only for owned hosts — see `wormcast-bench`'s runner) and hand them to
/// [`ShardedNetwork::new`] together with the switch→shard assignment from
/// a `ShardPlan`. `run_until` then drives all shards on scoped worker
/// threads and the accessors expose merged statistics, message logs and
/// audits equivalent to a sequential run's.
pub struct ShardedNetwork {
    nets: Vec<Network>,
    switch_owner: Vec<u32>,
    host_owner: Vec<u32>,
    clocks: Vec<ShardClock>,
    /// Per shard: `(in-neighbor shard, lookahead)` pairs.
    neighbors: Vec<Vec<(usize, SimTime)>>,
    /// Per shard: `(sending shard, mailbox)` pairs to drain.
    inboxes: Vec<Vec<(usize, Mailbox)>>,
}

impl ShardedNetwork {
    /// Wire `nets` (one identically-built [`Network`] per shard) together
    /// according to `switch_owner` (switch index → shard index; hosts
    /// follow their attach switch). Fails when the configuration cannot
    /// be sharded soundly: switch-level multicast or fault injection in
    /// use (those need the global event order), a cross-shard link with
    /// zero latency (no lookahead), or more than 64 shards. Trace sinks
    /// shard cleanly: every lifecycle event is recorded by exactly one
    /// owning shard, and [`ShardedNetwork::trace`] merges the per-shard
    /// logs into one canonically-sortable stream.
    pub fn new(nets: Vec<Network>, switch_owner: Vec<u32>) -> Result<ShardedNetwork, ConfigError> {
        let num = nets.len();
        if num == 0 {
            return Err(ConfigError::Invalid {
                field: "shards",
                reason: "sharded network needs at least one shard".into(),
            });
        }
        if num > 64 {
            return Err(ConfigError::OutOfRange {
                field: "shards",
                value: num as f64,
                min: 1.0,
                max: 64.0,
            });
        }
        let n0 = &nets[0];
        if switch_owner.len() != n0.switches.len() {
            return Err(ConfigError::Invalid {
                field: "switch_owner",
                reason: format!(
                    "has {} entries for {} switches",
                    switch_owner.len(),
                    n0.switches.len()
                ),
            });
        }
        if let Some(bad) = switch_owner.iter().find(|&&o| o as usize >= num) {
            return Err(ConfigError::Invalid {
                field: "switch_owner",
                reason: format!("owner {bad} out of range for {num} shards"),
            });
        }
        if n0.cfg.switchcast != SwitchcastMode::Off {
            return Err(ConfigError::Unshardable {
                feature: "switch-level multicast",
            });
        }
        if n0.cfg.corrupt_prob != 0.0 {
            return Err(ConfigError::Unshardable {
                feature: "fault injection",
            });
        }
        for (i, n) in nets.iter().enumerate() {
            if n.switches.len() != n0.switches.len()
                || n.adapters.len() != n0.adapters.len()
                || n.lanes.len() != n0.lanes.len()
            {
                return Err(ConfigError::Invalid {
                    field: "nets",
                    reason: format!("shard {i} was built from a different fabric"),
                });
            }
        }

        // Hosts follow their attach switch.
        let host_owner: Vec<u32> = (0..n0.adapters.len())
            .map(|h| {
                let ch = n0.adapters[h].chan_out.expect("host has an uplink");
                match n0.lanes[ch.0 as usize].dst().node {
                    NodeRef::Switch(s) => switch_owner[s.0 as usize],
                    NodeRef::Host(_) => unreachable!("host uplink ends at a switch"),
                }
            })
            .collect();
        let owner = |node: NodeRef| match node {
            NodeRef::Switch(s) => switch_owner[s.0 as usize],
            NodeRef::Host(h) => host_owner[h.0 as usize],
        };

        let mut chan_src_owner = Vec::with_capacity(n0.lanes.len());
        let mut chan_dst_owner = Vec::with_capacity(n0.lanes.len());
        // Pairwise lookahead: the minimum latency of any channel between
        // the two shards, in either direction — data bytes cross with the
        // forward channel's delay, control symbols cross *back* with the
        // same channel's delay, so every channel bounds both directions.
        let mut lookahead = vec![vec![SimTime::MAX; num]; num];
        for c in &n0.lanes {
            let a = owner(c.src().node);
            let b = owner(c.dst().node);
            chan_src_owner.push(a);
            chan_dst_owner.push(b);
            if a != b {
                if c.delay() == 0 {
                    return Err(ConfigError::ZeroLookahead {
                        ch: c.id().0,
                        from: a,
                        to: b,
                    });
                }
                let (a, b) = (a as usize, b as usize);
                lookahead[a][b] = lookahead[a][b].min(c.delay());
                lookahead[b][a] = lookahead[b][a].min(c.delay());
            }
        }

        let mut mailboxes: Vec<Vec<Option<Mailbox>>> = (0..num)
            .map(|from| {
                (0..num)
                    .map(|to| {
                        (from != to && lookahead[from][to] != SimTime::MAX)
                            .then(|| Arc::new(Mutex::new(VecDeque::new())))
                    })
                    .collect()
            })
            .collect();
        let neighbors: Vec<Vec<(usize, SimTime)>> = (0..num)
            .map(|me| {
                (0..num)
                    .filter(|&x| x != me && lookahead[x][me] != SimTime::MAX)
                    .map(|x| (x, lookahead[x][me]))
                    .collect()
            })
            .collect();
        let inboxes: Vec<Vec<(usize, Mailbox)>> = (0..num)
            .map(|me| {
                (0..num)
                    .filter_map(|x| mailboxes[x][me].clone().map(|mb| (x, mb)))
                    .collect()
            })
            .collect();

        let mut nets = nets;
        for (i, net) in nets.iter_mut().enumerate() {
            net.install_shard_ctx(ShardCtx {
                me: i as u32,
                chan_src_owner: chan_src_owner.clone(),
                chan_dst_owner: chan_dst_owner.clone(),
                outboxes: std::mem::take(&mut mailboxes[i]),
                snap_sent: PerWorm::new(0),
                tag_to_worm: HashMap::new(),
            });
        }

        let clocks = (0..num).map(|_| ShardClock(AtomicU64::new(0))).collect();
        Ok(ShardedNetwork {
            nets,
            switch_owner,
            host_owner,
            clocks,
            neighbors,
            inboxes,
        })
    }

    pub fn num_shards(&self) -> usize {
        self.nets.len()
    }

    /// The shard engines themselves (tests poke per-shard state).
    pub fn nets(&self) -> &[Network] {
        &self.nets
    }

    /// Run all shards until `t_end`, merging the per-shard outcomes.
    pub fn run_until(&mut self, t_end: SimTime) -> RunOutcome {
        let clocks = &self.clocks;
        for (i, n) in self.nets.iter().enumerate() {
            clocks[i].0.store(n.scheduler.now(), Ordering::Release);
        }
        let neighbors = &self.neighbors;
        let inboxes = &self.inboxes;
        let ends: Vec<SimTime> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .nets
                .iter_mut()
                .enumerate()
                .map(|(me, net)| {
                    s.spawn(move || shard_loop(net, me, clocks, &neighbors[me], &inboxes[me], t_end))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });
        let end_time = ends.into_iter().max().unwrap_or(t_end);
        let stats = self.stats();
        let deadlock = if stats.active_worms > 0 {
            deadlock::analyze_multi(&self.nets, &self.switch_owner, &self.host_owner)
        } else {
            None
        };
        RunOutcome {
            end_time,
            drained: self.is_quiescent(),
            deadlock,
            stats,
        }
    }

    /// Merged quiescence: counters sum to zero and no boundary message is
    /// parked in any mailbox. (Per-shard `active_worms` is allowed to go
    /// negative — a receive-heavy shard resolves sinks it never counted.)
    pub fn is_quiescent(&self) -> bool {
        self.nets.iter().map(|n| n.stats.active_worms).sum::<i64>() == 0
            && self
                .nets
                .iter()
                .all(|n| n.pending_injects == 0 && n.pending_timers == 0)
            && self.all_parked()
    }

    fn all_parked(&self) -> bool {
        self.inboxes
            .iter()
            .flatten()
            .all(|(_, mb)| mb.lock().unwrap().is_empty())
    }

    /// Merged run-wide counters: every field is additive across shards
    /// (each injection, delivery and byte-hop is counted by exactly one
    /// shard). The event counters measure *engine* cost and legitimately
    /// differ from a sequential run — mask them when comparing, as the
    /// `SimMode` differential tests already do.
    pub fn stats(&self) -> NetStats {
        let mut m = NetStats::default();
        for n in &self.nets {
            let s = &n.stats;
            m.worms_injected += s.worms_injected;
            m.sinks_injected += s.sinks_injected;
            m.worms_delivered += s.worms_delivered;
            m.worms_refused += s.worms_refused;
            m.worms_corrupt += s.worms_corrupt;
            m.worms_flushed += s.worms_flushed;
            m.active_worms += s.active_worms;
            m.bytes_moved += s.bytes_moved;
            m.messages_generated += s.messages_generated;
            m.events_scheduled += s.events_scheduled;
            m.events_fired += s.events_fired;
            m.events_by_kind.add(&s.events_by_kind);
        }
        m
    }

    /// Merged message journal, canonically sorted (creation by time then
    /// id; deliveries by time, id, host). The sequential engine's log is
    /// already in this order for creations; delivery order within a tick
    /// follows event-key order there, so comparisons should sort both
    /// sides the same way.
    pub fn msgs(&self) -> MessageLog {
        let mut created: Vec<MessageRecord> = self
            .nets
            .iter()
            .flat_map(|n| n.msgs.created.iter().copied())
            .collect();
        let mut deliveries: Vec<Delivery> = self
            .nets
            .iter()
            .flat_map(|n| n.msgs.deliveries.iter().copied())
            .collect();
        created.sort_by_key(|r| (r.created, r.msg.0));
        deliveries.sort_by_key(|d| (d.at, d.msg.0, d.host.0));
        MessageLog { created, deliveries }
    }

    /// Merged trace: the concatenation of every shard's event log. Each
    /// lifecycle event is recorded by exactly one shard (injection and
    /// reception by the host's owner, route consumption by the switch's
    /// owner, STOP/GO and blocked/resumed attribution by the channel's
    /// transmit-side owner), so concatenation neither duplicates nor
    /// drops anything, and [`Trace::to_jsonl`]'s canonical `(t, line)`
    /// sort puts the merged stream in the same order a sequential run
    /// produces. A [`crate::trace::TraceConfig::Ring`] capacity applies
    /// *per shard* (each engine owns its own ring); `dropped` counts are
    /// summed.
    pub fn trace(&self) -> Trace {
        let mut merged = Trace::new(self.nets[0].trace.config());
        for n in &self.nets {
            merged.absorb(&n.trace);
        }
        merged
    }

    /// Merged conservation audit. Per-shard conservation does not hold
    /// (injection and delivery may land on different shards), so the
    /// counter invariant is checked on the merged statistics while the
    /// structural check (no bytes in flight or buffered at quiescence)
    /// runs per shard.
    pub fn audit(&self) -> Result<(), String> {
        let s = self.stats();
        Network::audit_counters(&s)?;
        if s.active_worms == 0 {
            if !self.all_parked() {
                return Err("boundary mailbox holds messages with no active worms".into());
            }
            for (i, n) in self.nets.iter().enumerate() {
                n.audit_fabric_empty()
                    .map_err(|e| format!("shard {i}: {e}"))?;
            }
        }
        Ok(())
    }

    /// Merged per-host output-link utilization (the paper's offered-load
    /// axis). Each adapter's uplink is owned by exactly one shard; the
    /// other shards' copies never carry bytes and contribute zero.
    pub fn mean_host_tx_utilization(&self, elapsed: SimTime) -> f64 {
        let total: f64 = self
            .nets
            .iter()
            .map(|n| n.host_tx_utilization_total(elapsed))
            .sum();
        total / self.host_owner.len().max(1) as f64
    }

    /// Owning shard of each host (tests and the bench runner use this to
    /// install sources on the right shard).
    pub fn host_owner(&self) -> &[u32] {
        &self.host_owner
    }
}

/// One shard's conservative event loop: load neighbor clocks, drain
/// inbound mailboxes, execute everything strictly below the safe bound,
/// publish the new horizon, back off briefly when nothing moved. Returns
/// the time it stopped at, the deadline.
fn shard_loop(
    net: &mut Network,
    me: usize,
    clocks: &[ShardClock],
    neighbors: &[(usize, SimTime)],
    inboxes: &[(usize, Mailbox)],
    t_end: SimTime,
) -> SimTime {
    net.begin_run(t_end);
    let mut scratch: VecDeque<BoundaryMsg> = VecDeque::new();
    // Spinning only helps if the neighbor whose clock we're watching can
    // actually run concurrently; on a single hardware thread, yield
    // immediately so the peer gets scheduled.
    let spin_limit = if std::thread::available_parallelism().is_ok_and(|n| n.get() > 1) {
        64
    } else {
        0
    };
    let mut idle_spins = 0u32;
    loop {
        // Load in-neighbor horizons first: any message sent before a
        // loaded clock value was published is already in its mailbox (the
        // sender pushes before it publishes; Acquire pairs with the
        // Release store), so after the drain below every boundary event
        // with `ts < safe` is in the wheel.
        let mut safe = u64::MAX;
        for &(x, l) in neighbors {
            let c = clocks[x].0.load(Ordering::Acquire);
            safe = safe.min(c.saturating_add(l));
        }
        let mut progress = false;
        for (_, mb) in inboxes {
            {
                let mut q = mb.lock().unwrap();
                if !q.is_empty() {
                    std::mem::swap(&mut *q, &mut scratch);
                }
            }
            for m in scratch.drain(..) {
                net.ingest_boundary(m);
                progress = true;
            }
        }
        while net.scheduler.peek_time().is_some_and(|pt| pt < safe) {
            let Some((t, ev)) = net.scheduler.pop() else { break };
            progress = true;
            if net.dispatch(t, ev) {
                // Done (Stop at the deadline). Unblock everyone for good;
                // messages still arriving are beyond t_end and wait in
                // the mailbox for a later run.
                net.end_run(t);
                clocks[me].0.store(u64::MAX, Ordering::Release);
                return t;
            }
        }
        // Publish `min(peek, safe)`: monotone (standard CMB null-message
        // horizon), and a sound bound on this shard's earliest possible
        // future send — new work can only come from the wheel (≥ peek) or
        // from not-yet-ingested boundary events (≥ safe).
        let horizon = net.scheduler.peek_time().unwrap_or(u64::MAX).min(safe);
        if clocks[me].0.load(Ordering::Relaxed) < horizon {
            clocks[me].0.store(horizon, Ordering::Release);
        }
        if progress {
            idle_spins = 0;
        } else {
            idle_spins += 1;
            if idle_spins < spin_limit {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}
