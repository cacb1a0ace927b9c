//! The network: its state, the event loop, channel transmit/receive and
//! flow control, and the conservation audit.
//!
//! The layers around it are `impl Network` blocks in their own modules,
//! each reached from here through single calls: [`crate::fabric`] builds
//! the network, [`crate::span`] holds every span rule, [`crate::host`]
//! the protocol and injection glue, [`crate::shard`] everything that
//! crosses a shard boundary; [`crate::switch`], [`crate::adapter`] and
//! [`crate::switchcast`] are the nodes themselves.

use crate::adapter::Adapter;
use crate::deadlock::DeadlockReport;
use crate::engine::{CtrlSym, Event, HostId, Scheduler};
use crate::link::{ChanId, Endpoint, Lane, Link, LinkId, NodeRef, RxPort, TxPayload, TxPort};
use crate::protocol::{AdapterProtocol, Command, Destination, TrafficSource};
use crate::slab;
use crate::switch::{SlackCfg, Switch};
use crate::switchcast::SwitchcastMode;
use crate::time::SimTime;
use crate::trace::{BlockCause, Trace, TraceConfig, TraceEvent};
use crate::worm::{ByteKind, MessageId, WireByte, WormId, WormInstance};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

pub use crate::fabric::{FabricSpec, HostAttach, LinkSpec, RouteTable};

/// Link-transmission engine mode.
///
/// `SpanBatched` is an *engine optimisation*, never a semantic mode: a run
/// under either setting produces bit-identical delivery timestamps, message
/// logs and network statistics (everything except the event counters, which
/// measure engine cost). The differential tests in `tests/span_equivalence.rs`
/// and `crates/bench/tests/` enforce this.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SimMode {
    /// One scheduler event per byte per hop — the reference semantics,
    /// O(bytes·hops) events.
    PerByte,
    /// Contiguous runs of a worm's ready bytes — its route symbols, then
    /// data — move as a single `RxSpan` event whenever that is provably
    /// indistinguishable from per-byte transmission, approaching
    /// O(worms·hops) events. Falls back to per-byte at tails, the first
    /// body byte at an adapter, watermark proximity, cut-through pacing,
    /// replication branch points, and on STOP truncation.
    SpanBatched,
}

/// Tunables of the simulated fabric.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Slack buffer configuration; `None` derives a safe one per link delay.
    pub slack: Option<SlackCfg>,
    /// Logical worm header length in bytes (on-wire, after the route).
    pub header_len: u32,
    /// Master seed for all per-host RNG streams.
    pub seed: u64,
    /// Probability that an injected worm is corrupted on the wire and fails
    /// its checksum at the destination (fault injection; 0.0 in the paper's
    /// experiments — wormhole LAN links are assumed reliable).
    pub corrupt_prob: f64,
    /// Liveness watchdog period; 0 disables it. When two consecutive ticks
    /// see no byte movement while worms are outstanding, the run is declared
    /// deadlocked.
    pub watchdog_interval: SimTime,
    /// Trace sink selection: [`TraceConfig::Off`] (the default, free),
    /// an unbounded in-memory log, or a bounded ring.
    pub trace: TraceConfig,
    /// Switch-level multicast mode (Section 3 of the paper). `Off` for all
    /// host-adapter experiments.
    pub switchcast: SwitchcastMode,
    /// Link-transmission engine mode. `SpanBatched` (the default) is
    /// equivalence-tested against `PerByte` and only changes engine cost.
    pub mode: SimMode,
    /// Lanes per switch-to-switch link (virtual-channel width). Host links
    /// always have one lane (a host adapter injects at one byte per
    /// byte-time regardless). `1` reproduces the paper's single-lane
    /// fabric byte-for-byte.
    pub lanes: u8,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            slack: None,
            header_len: 8,
            seed: 0xC0FFEE,
            corrupt_prob: 0.0,
            watchdog_interval: 0,
            trace: TraceConfig::Off,
            switchcast: SwitchcastMode::Off,
            mode: SimMode::SpanBatched,
            lanes: 1,
        }
    }
}

/// Run-wide counters. Most worms terminate at exactly one host; a
/// switch-level multicast worm terminates at `sinks` hosts, so the
/// conservation invariant checked by [`Network::audit`] is at **sink**
/// granularity:
/// `sinks_injected == worms_delivered + worms_refused + worms_corrupt + worms_flushed + active_worms`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NetStats {
    pub worms_injected: u64,
    /// Total terminal hosts across injected worms (= `worms_injected`
    /// unless switch-level multicast is in use).
    pub sinks_injected: u64,
    pub worms_delivered: u64,
    pub worms_refused: u64,
    pub worms_corrupt: u64,
    pub worms_flushed: u64,
    /// Worm sinks created but not yet fully received or dropped.
    pub active_worms: i64,
    /// Total bytes that completed a channel hop (progress marker).
    pub bytes_moved: u64,
    pub messages_generated: u64,
    /// Scheduler events pushed over the run — an engine cost metric, the
    /// one pair of fields that legitimately differs between [`SimMode`]s
    /// (mask both when comparing modes).
    pub events_scheduled: u64,
    /// Scheduler events dispatched over the run (see `events_scheduled`).
    pub events_fired: u64,
}

/// A recorded message creation.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MessageRecord {
    pub msg: MessageId,
    pub origin: HostId,
    pub dest: Destination,
    pub payload_len: u32,
    pub created: SimTime,
}

/// A recorded local delivery.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Delivery {
    pub msg: MessageId,
    pub host: HostId,
    pub at: SimTime,
}

/// The journal experiments read after a run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MessageLog {
    pub created: Vec<MessageRecord>,
    pub deliveries: Vec<Delivery>,
}

/// How a call to [`Network::run_until`] ended. This is the one result
/// shape shared by the simulator and the bench runner (which wraps it in
/// its `RunReport` together with derived latency figures).
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub end_time: SimTime,
    /// The event queue drained before the deadline (finite workload done).
    pub drained: bool,
    pub deadlock: Option<DeadlockReport>,
    /// Snapshot of the network counters when the run ended.
    pub stats: NetStats,
}

/// The simulated network.
pub struct Network {
    pub cfg: NetworkConfig,
    pub scheduler: Scheduler,
    pub switches: Vec<Switch>,
    pub adapters: Vec<Adapter>,
    /// Dense lane slab, indexed by [`ChanId`]. Crate-private: external
    /// reads go through [`Network::lanes`] / [`Network::lane`], engine
    /// mutation through the typed lane-port surface in [`crate::link`].
    pub(crate) lanes: Vec<Lane>,
    /// Directed-link metadata; each entry's lanes are a contiguous
    /// [`ChanId`] range in `lanes`.
    pub(crate) links: Vec<Link>,
    pub worms: Vec<WormInstance>,
    pub stats: NetStats,
    pub msgs: MessageLog,
    pub trace: Trace,
    pub(crate) routes: RouteTable,
    /// Per-worm status bits ([`slab::FLAG_CORRUPT`], [`slab::FLAG_FLUSHED`])
    /// in a dense slab — the delivery path never hashes a [`WormId`].
    pub(crate) worm_flags: slab::PerWorm<u8>,
    /// Number of worms carrying [`slab::FLAG_FLUSHED`]; lets the per-byte
    /// hot path skip the flush check entirely when no flush ever happened.
    pub(crate) flushed_count: u32,
    /// Outstanding sink count for multi-sink (switch-multicast) worms.
    /// 0 means "not yet decremented" (lazily initialised from `sinks`).
    pub(crate) sink_remaining: slab::PerWorm<u32>,
    /// Recycled encoded-route buffers (see [`slab::RoutePool`]).
    pub(crate) route_pool: slab::RoutePool,
    /// Down-tree + host ports per switch, for the broadcast address
    /// (configured via [`Network::set_broadcast_ports`]).
    pub(crate) broadcast_ports: Vec<Vec<u8>>,
    pub(crate) protocols: Vec<Option<Box<dyn AdapterProtocol>>>,
    pub(crate) sources: Vec<Option<Box<dyn TrafficSource>>>,
    pub(crate) rngs: Vec<SmallRng>,
    pub(crate) fault_rng: SmallRng,
    /// Per-host message sequence counters. [`MessageId`]s pack
    /// `(host << 40) | seq` so id assignment depends only on the host's own
    /// injection history — a sharded run (which never sees other shards'
    /// injections) allocates exactly the ids the sequential engine does.
    pub(crate) next_msg_seq: Vec<u64>,
    /// Canonical per-worm names, `(injecting host << 40) | seq` like
    /// [`MessageId`]s (`u64::MAX` = unnamed). Dense [`WormId`]s are
    /// per-engine — each shard of a sharded run allocates its own — so the
    /// trace and the cross-shard boundary protocol name worms by this tag
    /// instead; assignment depends only on the injecting host's own
    /// history, making the names identical however the run is partitioned.
    pub(crate) worm_names: slab::PerWorm<u64>,
    /// Per-host worm sequence counters backing `worm_names`.
    pub(crate) next_worm_seq: Vec<u64>,
    pub(crate) cmd_scratch: Vec<Command>,
    /// STOP/GO arrivals whose worm attribution is deferred to the end of
    /// the current scheduler tick (`bool` is "STOP"). Crossbar/adapter
    /// state is only guaranteed identical across [`SimMode`]s at whole
    /// byte-time boundaries — resolving [`Self::channel_carried_worm`]
    /// mid-tick would make the trace depend on intra-tick event order,
    /// which the span engine deliberately changes.
    pending_ctrl_trace: Vec<(SimTime, ChanId, bool)>,
    watchdog_last_bytes: u64,
    deadlock_seen: Option<DeadlockReport>,
    /// Deadline of the current `run_until` call. Span deliveries credit
    /// `bytes_moved` only for bytes whose per-byte arrival slot falls
    /// *strictly* before it — the deadline `Stop` sorts first in its tick
    /// ([`Event::canon_key`]), so a per-byte twin landing exactly on the
    /// deadline fires (and counts) in the next run. Keeps the counter
    /// bit-identical across [`SimMode`]s even when a run ends with span
    /// tails conceptually still arriving.
    pub(crate) run_deadline: SimTime,
    /// Span-tail bytes whose per-byte arrival slots lie at or beyond the
    /// current deadline: `(first_slot, remaining)`, credited by whichever
    /// later run covers their slots.
    pub(crate) deferred_moves: Vec<(SimTime, u64)>,
    /// Present when this network instance executes one shard of a
    /// [`crate::shard::ShardedNetwork`]: channel-endpoint ownership,
    /// outbound mailboxes and the worm tag registry. `None` (the
    /// sequential engine) keeps every cross-shard check a single branch.
    pub(crate) shard: Option<Box<crate::shard::ShardCtx>>,
    /// Number of injects currently scheduled (sharding exposes this so the
    /// merged quiescence check can sum it across shards).
    pub(crate) pending_injects: i64,
    /// Number of protocol timers currently scheduled (see
    /// `pending_injects`).
    pub(crate) pending_timers: i64,
}

impl Network {
    /// Stand up the run state around a wired fabric (the output of
    /// [`Network::try_build`]): empty journals, counters at zero, one RNG
    /// stream per host drawn from the master seed.
    pub(crate) fn assemble(
        cfg: NetworkConfig,
        routes: RouteTable,
        switches: Vec<Switch>,
        adapters: Vec<Adapter>,
        lanes: Vec<Lane>,
        links: Vec<Link>,
    ) -> Self {
        let num_hosts = adapters.len();
        let mut seed_rng = SmallRng::seed_from_u64(cfg.seed);
        let rngs = (0..num_hosts)
            .map(|_| SmallRng::seed_from_u64(seed_rng.gen()))
            .collect();
        let fault_rng = SmallRng::seed_from_u64(seed_rng.gen());
        Network {
            trace: Trace::new(cfg.trace),
            cfg,
            scheduler: Scheduler::new(),
            switches,
            adapters,
            lanes,
            links,
            worms: Vec::new(),
            stats: NetStats::default(),
            msgs: MessageLog::default(),
            routes,
            worm_flags: slab::PerWorm::new(0),
            flushed_count: 0,
            sink_remaining: slab::PerWorm::new(0),
            route_pool: slab::RoutePool::new(),
            broadcast_ports: Vec::new(),
            protocols: (0..num_hosts).map(|_| None).collect(),
            sources: (0..num_hosts).map(|_| None).collect(),
            rngs,
            fault_rng,
            next_msg_seq: vec![0; num_hosts],
            worm_names: slab::PerWorm::new(u64::MAX),
            next_worm_seq: vec![0; num_hosts],
            cmd_scratch: Vec::new(),
            pending_ctrl_trace: Vec::new(),
            watchdog_last_bytes: 0,
            deadlock_seen: None,
            run_deadline: 0,
            deferred_moves: Vec::new(),
            shard: None,
            pending_injects: 0,
            pending_timers: 0,
        }
    }

    pub fn num_hosts(&self) -> usize {
        self.adapters.len()
    }

    /// Every directed lane in the fabric, indexed by [`ChanId`].
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// The lane carrying channel `ch`.
    pub fn lane(&self, ch: ChanId) -> &Lane {
        &self.lanes[ch.0 as usize]
    }

    /// Mutable access to a lane — flow control (`stop`/`go`) only; data
    /// transfer goes through [`TxPort`]/[`RxPort`].
    pub fn lane_mut(&mut self, ch: ChanId) -> &mut Lane {
        &mut self.lanes[ch.0 as usize]
    }

    /// Every directed link (lane bundle) in the fabric, indexed by
    /// [`LinkId`].
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The contiguous slice of lanes belonging to one directed link.
    pub fn link_lanes(&self, link: LinkId) -> &[Lane] {
        let l = &self.links[link.0 as usize];
        let base = l.lane_id(0).0 as usize;
        &self.lanes[base..base + l.num_lanes() as usize]
    }

    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    /// Configure, per switch, the output ports a broadcast worm replicates
    /// to: the down links of the up/down tree plus every host port.
    /// Required before injecting `Broadcast` routes.
    pub fn set_broadcast_ports(&mut self, ports: Vec<Vec<u8>>) {
        assert_eq!(ports.len(), self.switches.len());
        self.broadcast_ports = ports;
    }

    /// A sink (terminal host) of `worm` resolved (delivered, refused or
    /// corrupt). Returns true when this was the worm's last sink — the
    /// moment the worm stops being "active".
    pub(crate) fn resolve_sink(&mut self, worm: WormId) -> bool {
        let sinks = self.worms[worm.0 as usize].sinks;
        if sinks <= 1 {
            return true;
        }
        let left = self.sink_remaining.get_mut(worm);
        if *left == 0 {
            *left = sinks;
        }
        *left -= 1;
        *left == 0
    }

    /// True when nothing can happen any more without outside input: no worm
    /// is outstanding, no injection is scheduled, and no protocol timer is
    /// pending.
    pub fn is_quiescent(&self) -> bool {
        self.stats.active_worms == 0 && self.pending_injects == 0 && self.pending_timers == 0
    }

    // -- event loop ---------------------------------------------------------

    /// Run until `t_end` (or until the event queue drains, or a deadlock is
    /// detected by the watchdog / drain check).
    pub fn run_until(&mut self, t_end: SimTime) -> RunOutcome {
        self.begin_run(t_end);
        loop {
            let Some((t, ev)) = self.scheduler.pop() else {
                return self.finish_drained();
            };
            if let Some(outcome) = self.dispatch(t, ev) {
                return outcome;
            }
        }
    }

    /// Run prologue shared by the sequential loop and the shard workers:
    /// credit deferred span tails, arm the deadline Stop, arm the watchdog.
    pub(crate) fn begin_run(&mut self, t_end: SimTime) {
        self.run_deadline = t_end;
        // Credit span-tail bytes a previous run left beyond its deadline:
        // slots strictly before `t_end` (the slot at exactly `t_end` waits
        // for a later run, like its per-byte twin behind the Stop event).
        let mut moved = 0;
        self.deferred_moves.retain_mut(|(start, rem)| {
            let due = if *start > t_end {
                0
            } else {
                (t_end - *start).min(*rem)
            };
            moved += due;
            *start += due;
            *rem -= due;
            *rem > 0
        });
        self.stats.bytes_moved += moved;
        // Likewise the send-side counters `settle_run` cut back to the
        // previous deadline.
        for lane in &mut self.lanes {
            let back = lane.resume();
            if let (1.., NodeRef::Host(h)) = (back, lane.src().node) {
                self.adapters[h.0 as usize].counters.bytes_sent += back;
            }
        }
        self.scheduler.at(t_end, Event::Stop);
        // A shard engine skips the watchdog: its local view cannot tell a
        // cross-shard stall from deadlock, so liveness analysis runs once
        // on the merged state after the shards join.
        if self.cfg.watchdog_interval > 0 && self.shard.is_none() {
            self.scheduler
                .after(self.cfg.watchdog_interval, Event::Watchdog);
            self.watchdog_last_bytes = self.stats.bytes_moved;
        }
    }

    /// Run epilogue for a drained event queue: with outstanding worms this
    /// is a deadlock (nothing can ever move again). A shard engine never
    /// reaches this — its deadline Stop keeps the wheel non-empty.
    pub(crate) fn finish_drained(&mut self) -> RunOutcome {
        self.flush_ctrl_trace();
        self.sync_event_stats();
        // The per-byte engine drains only once every span's last byte is
        // out: nothing counts as unsent.
        self.settle_run(SimTime::MAX);
        let deadlock = if self.stats.active_worms > 0 {
            Some(crate::deadlock::forensics(self))
        } else {
            None
        };
        RunOutcome {
            end_time: self.scheduler.now(),
            drained: true,
            deadlock,
            stats: self.stats.clone(),
        }
    }

    /// Execute one popped event. Returns `Some` when the run is over (the
    /// deadline Stop fired).
    pub(crate) fn dispatch(&mut self, t: SimTime, ev: Event) -> Option<RunOutcome> {
        if let Some(&(t0, _, _)) = self.pending_ctrl_trace.first() {
            if t > t0 {
                self.flush_ctrl_trace();
            }
        }
        match ev {
            Event::Stop => {
                if t >= self.run_deadline {
                    self.flush_ctrl_trace();
                    self.sync_event_stats();
                    self.settle_run(t);
                    // Worms still outstanding at the deadline: check for
                    // a genuine wait cycle so callers can tell overload
                    // apart from deadlock. A shard engine leaves this to
                    // the post-join merged analysis.
                    let deadlock = if self.shard.is_some() {
                        None
                    } else {
                        self.deadlock_seen.clone().or_else(|| {
                            if self.is_quiescent() {
                                None
                            } else {
                                crate::deadlock::analyze(self)
                            }
                        })
                    };
                    return Some(RunOutcome {
                        end_time: t,
                        drained: self.is_quiescent(),
                        deadlock,
                        stats: self.stats.clone(),
                    });
                }
            }
            Event::TxKick { ch, gen } => self.handle_tx_kick(ch, gen),
            Event::RxByte { ch, byte } => self.handle_rx_byte(ch, byte),
            Event::RxSpan { ch } => self.handle_rx_span(ch),
            Event::RxForeign { ch } => self.handle_rx_foreign(ch),
            Event::CtrlRx { ch, sym } => self.handle_ctrl(ch, sym),
            Event::Inject { host } => {
                self.pending_injects -= 1;
                self.handle_inject(host);
            }
            Event::HostTimer { host, token } => {
                self.pending_timers -= 1;
                self.notify_timer(host, token);
            }
            Event::Watchdog => {
                if self.stats.bytes_moved == self.watchdog_last_bytes
                    && self.stats.active_worms > 0
                    && self.deadlock_seen.is_none()
                {
                    self.deadlock_seen = Some(crate::deadlock::forensics(self));
                }
                self.watchdog_last_bytes = self.stats.bytes_moved;
                if !self.is_quiescent() {
                    self.scheduler
                        .after(self.cfg.watchdog_interval, Event::Watchdog);
                }
            }
        }
        None
    }

    /// The most recent deadlock report, if any watchdog tick found one.
    pub fn deadlock_seen(&self) -> Option<&DeadlockReport> {
        self.deadlock_seen.as_ref()
    }

    /// A run ends at `horizon`: a span is credited to its lane's
    /// `bytes_carried` (and its adapter's `bytes_sent`) whole at emission,
    /// so cut both back to the bytes whose send slots have passed — what
    /// the per-byte engine reads there. `begin_run` restores the rest.
    fn settle_run(&mut self, horizon: SimTime) {
        for lane in &mut self.lanes {
            let unsent = lane.settle(horizon);
            if let (1.., NodeRef::Host(h)) = (unsent, lane.src().node) {
                self.adapters[h.0 as usize].counters.bytes_sent -= unsent;
            }
        }
    }

    /// Mirror the scheduler's lifetime event counters into [`NetStats`].
    fn sync_event_stats(&mut self) {
        self.stats.events_scheduled = self.scheduler.events_scheduled();
        self.stats.events_fired = self.scheduler.events_fired();
    }

    // -- channel handling ----------------------------------------------------

    /// Ensure the transmit side of `ch` has a pending `TxKick`.
    pub(crate) fn kick_channel(&mut self, ch: ChanId) {
        self.kick_channel_from(ch, self.scheduler.now());
    }

    /// Ensure the transmit side of `ch` has a pending `TxKick`, arming one
    /// no sooner than `from` (`>= now`) if none is.
    pub(crate) fn kick_channel_from(&mut self, ch: ChanId, from: SimTime) {
        if let Some((at, gen)) = self.lanes[ch.0 as usize].arm_kick(from) {
            self.scheduler.at(at, Event::TxKick { ch, gen });
        }
    }

    /// Deliver a control symbol to the transmit side of `ch` after its
    /// propagation delay — locally, or across the shard boundary when the
    /// transmit side is foreign.
    pub(crate) fn send_ctrl(&mut self, ch: ChanId, sym: CtrlSym) {
        self.lanes[ch.0 as usize].note_ctrl_sent();
        if self.chan_src_foreign(ch) {
            self.send_boundary_ctrl(ch, sym);
        } else {
            let delay = self.lanes[ch.0 as usize].delay();
            self.scheduler.after(delay, Event::CtrlRx { ch, sym });
        }
    }

    /// The canonical name of a local worm, for trace emission: every worm
    /// is named at injection ([`Network::inject_worm`]) or first boundary
    /// contact (`worm_for_tag`), so an unnamed worm here is a logic error.
    #[inline]
    pub(crate) fn worm_name(&self, worm: WormId) -> u64 {
        let tag = self.worm_names.get(worm);
        debug_assert_ne!(tag, u64::MAX, "traced worm {worm:?} was never named");
        tag
    }

    /// Resolve a canonical worm name (the `worm` field of
    /// [`TraceEvent`]s) back to the local worm
    /// instance. Linear scan — meant for diagnostics and trace
    /// post-processing, not the simulation hot path.
    pub fn worm_by_name(&self, name: u64) -> Option<&WormInstance> {
        (0..self.worms.len() as u32)
            .find(|&i| self.worm_names.get(WormId(i)) == name)
            .map(|i| &self.worms[i as usize])
    }

    /// Sum of output-link utilization over the host adapters this engine
    /// owns (unowned mirrors never carry bytes and contribute zero).
    pub(crate) fn host_tx_utilization_total(&self, elapsed: SimTime) -> f64 {
        if elapsed == 0 {
            return 0.0;
        }
        self.adapters
            .iter()
            .filter_map(|a| a.chan_out)
            .map(|ch| self.lanes[ch.0 as usize].utilization(elapsed))
            .sum()
    }

    /// Aggregate output-link utilization across all host adapters over
    /// `elapsed` byte-times (the paper's "offered load" axis is per-host
    /// output-link utilization).
    pub fn mean_host_tx_utilization(&self, elapsed: SimTime) -> f64 {
        self.host_tx_utilization_total(elapsed) / self.adapters.len().max(1) as f64
    }

    fn handle_tx_kick(&mut self, ch: ChanId, gen: u32) {
        let (src, stopped) = {
            let c = &self.lanes[ch.0 as usize];
            if !c.kick_is_current(gen) {
                // This kick belonged to a span chain a STOP truncated; the
                // GO that lifts the STOP starts a fresh chain.
                return;
            }
            (c.src(), c.is_stopped())
        };
        if stopped {
            self.lanes[ch.0 as usize].set_tx_idle();
            return;
        }
        let spans = self.spans_enabled();
        if spans && self.try_emit_span(ch, gen) {
            return;
        }
        let byte = match src.node {
            NodeRef::Switch(s) => {
                self.debug_assert_paced(s, src.port.0);
                self.switch_produce_byte(s, src.port.0)
            }
            NodeRef::Host(h) => self.adapter_produce_byte(h),
        };
        match byte {
            Some(b) => {
                let now = self.scheduler.now();
                // A cross-shard lane's `in_flight` is owned by neither copy
                // alone; both leave it 0 (and the span probes treat such
                // lanes as unbatchable), so skip the increment the
                // receive-side owner will never see to decrement.
                let dst_foreign = self.chan_dst_foreign(ch);
                let payload = if matches!(b.kind, ByteKind::Idle) {
                    TxPayload::Idle
                } else {
                    TxPayload::Data
                };
                let ticket = TxPort::new(&mut self.lanes[ch.0 as usize])
                    .try_send(now, payload, !dst_foreign)
                    .expect("armed kick fires at the lane's ready time");
                if dst_foreign {
                    self.send_boundary_byte(ch, ticket.deliver_at, b);
                } else {
                    self.scheduler
                        .at(ticket.deliver_at, Event::RxByte { ch, byte: b });
                }
                if !spans || self.producer_has_byte(src) {
                    self.scheduler.after(1, Event::TxKick { ch, gen: ticket.gen });
                    // tx_active stays true: the follow-up kick is pending.
                } else {
                    // The chain kick would find nothing to send; whatever
                    // refills the producer re-kicks (DESIGN.md §3.1).
                    self.lanes[ch.0 as usize].set_tx_idle();
                }
            }
            None => {
                self.lanes[ch.0 as usize].set_tx_idle();
            }
        }
    }

    fn handle_rx_byte(&mut self, ch: ChanId, byte: WireByte) {
        // Bytes from a foreign transmit side never incremented the
        // local `in_flight` copy (see `handle_tx_kick`).
        let src_foreign = self.chan_src_foreign(ch);
        let dst = RxPort::new(&mut self.lanes[ch.0 as usize]).deliver(!src_foreign);
        self.stats.bytes_moved += 1;
        // Bytes of a flushed (Backward Reset) worm evaporate on arrival.
        if self.flushed_count > 0 && self.worm_flags.get(byte.worm) & slab::FLAG_FLUSHED != 0 {
            return;
        }
        self.deliver_run(dst, byte, 1);
    }

    /// Hand `len` copies of `byte` that came off the wire together — one
    /// byte, or the data run of a span — to the node at `dst`.
    pub(crate) fn deliver_run(&mut self, dst: Endpoint, byte: WireByte, len: u64) {
        match dst.node {
            NodeRef::Switch(s) => self.switch_rx(s, dst.port.0, byte, len),
            NodeRef::Host(h) => self.adapter_rx(h, byte, len),
        }
    }

    fn handle_ctrl(&mut self, ch: ChanId, sym: CtrlSym) {
        let now = self.scheduler.now();
        self.lanes[ch.0 as usize].note_ctrl_received();
        match sym {
            CtrlSym::Stop => {
                // A span is delivered wholesale at its first byte's
                // arrival; its emission guard promised that no STOP can
                // reach the bytes still to be sent after that. Truncation
                // could no longer take them back.
                debug_assert!(
                    now >= self.lanes[ch.0 as usize].delivered_end(),
                    "STOP on {ch:?} inside the send window of a delivered span"
                );
                // Stall-interval accounting runs inside `Lane::stop`
                // whether or not tracing is on; STOP/GO symbols are rare
                // relative to bytes.
                let lane = {
                    let l = &mut self.lanes[ch.0 as usize];
                    l.stop(now);
                    l.lane_index()
                };
                if self.spans_enabled() {
                    self.truncate_spans(ch);
                }
                if self.trace.enabled() {
                    self.trace.push(now, TraceEvent::StopInForce { ch, lane });
                    self.pending_ctrl_trace.push((now, ch, true));
                }
            }
            CtrlSym::Go => {
                let lane = {
                    let l = &mut self.lanes[ch.0 as usize];
                    l.go(now);
                    l.lane_index()
                };
                if self.trace.enabled() {
                    self.trace.push(now, TraceEvent::GoReceived { ch, lane });
                    self.pending_ctrl_trace.push((now, ch, false));
                }
                self.kick_channel(ch);
            }
        }
    }

    /// Resolve the deferred STOP/GO worm attributions queued during the
    /// tick that just ended. Called when simulated time is about to
    /// advance (and at run end), so [`Self::channel_carried_worm`] sees
    /// end-of-tick state — identical in both [`SimMode`]s — rather than
    /// whatever intra-tick event order the engine happened to use.
    fn flush_ctrl_trace(&mut self) {
        if self.pending_ctrl_trace.is_empty() {
            return;
        }
        for i in 0..self.pending_ctrl_trace.len() {
            let (t, ch, is_stop) = self.pending_ctrl_trace[i];
            if let Some(worm) = self.channel_carried_worm(ch) {
                let worm = self.worm_name(worm);
                let cause = BlockCause::StopBackpressure { ch };
                let ev = if is_stop {
                    TraceEvent::WormBlocked { worm, cause }
                } else {
                    TraceEvent::WormResumed { worm, cause }
                };
                self.trace.push(t, ev);
            }
        }
        self.pending_ctrl_trace.clear();
    }

    /// The worm whose bytes the transmit side of `ch` is (or would be)
    /// carrying right now — the worm a STOP on `ch` actually blocks.
    /// Only meaningful at whole byte-time boundaries (see
    /// [`Self::flush_ctrl_trace`]), where crossbar/adapter state is
    /// identical in both [`SimMode`]s.
    fn channel_carried_worm(&self, ch: ChanId) -> Option<WormId> {
        let c = &self.lanes[ch.0 as usize];
        match c.src().node {
            NodeRef::Switch(s) => {
                let sw = &self.switches[s.0 as usize];
                let owner = sw.outputs[c.src().port.index()].owner?;
                match &sw.inputs[owner as usize].state {
                    crate::switch::InState::Forwarding { worm, .. } => Some(*worm),
                    crate::switch::InState::Replicating(rep) => Some(rep.worm),
                    _ => None,
                }
            }
            NodeRef::Host(h) => self.adapters[h.0 as usize]
                .tx_queue
                .front()
                .map(|t| t.worm),
        }
    }

    // -- auditing ------------------------------------------------------------

    /// Check the conservation invariant. Call at any quiescent point; cheap
    /// enough to call after every test run.
    pub fn audit(&self) -> Result<(), String> {
        Self::audit_counters(&self.stats)?;
        if self.stats.active_worms == 0 {
            self.audit_fabric_empty()?;
        }
        Ok(())
    }

    /// The counter half of [`Network::audit`]: every sink injected is
    /// delivered, refused, corrupt, flushed or still active. A sharded run
    /// checks it on the merged statistics.
    pub(crate) fn audit_counters(s: &NetStats) -> Result<(), String> {
        let expect = s.worms_delivered + s.worms_refused + s.worms_corrupt + s.worms_flushed;
        if s.sinks_injected as i64 != expect as i64 + s.active_worms {
            return Err(format!(
                "worm conservation violated: sinks_injected={} delivered={} refused={} \
                 corrupt={} flushed={} active={}",
                s.sinks_injected,
                s.worms_delivered,
                s.worms_refused,
                s.worms_corrupt,
                s.worms_flushed,
                s.active_worms
            ));
        }
        Ok(())
    }

    /// The structural half, for a fabric with no active worms: nothing on
    /// a wire, nothing in a slack buffer.
    pub(crate) fn audit_fabric_empty(&self) -> Result<(), String> {
        for c in &self.lanes {
            if c.in_flight() != 0 {
                return Err(format!(
                    "lane {:?} has {} bytes in flight with no active worms",
                    c.id(),
                    c.in_flight()
                ));
            }
            if c.has_foreign_in_transit() {
                return Err(format!(
                    "lane {:?} still holds a span or a foreign expansion run with no \
                     active worms",
                    c.id()
                ));
            }
        }
        for sw in &self.switches {
            for (i, inp) in sw.inputs.iter().enumerate() {
                if !inp.buf.is_empty() {
                    return Err(format!(
                        "switch {:?} input {} holds {} bytes with no active worms",
                        sw.id,
                        i,
                        inp.buf.len()
                    ));
                }
            }
        }
        Ok(())
    }
}
