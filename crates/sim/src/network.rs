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
use crate::arena::WormArena;
use crate::deadlock::DeadlockReport;
use crate::engine::{CtrlSym, Event, EventCounts, HostId, Scheduler};
use crate::link::{ChanId, Endpoint, Lane, Link, LinkId, NodeRef, RxPort, TxPayload, TxPort};
use crate::protocol::{AdapterProtocol, Command, Destination, TrafficSource};
use crate::slab;
use crate::switch::Switch;
use crate::switchcast::SwitchcastMode;
use crate::time::SimTime;
use crate::trace::{BlockCause, Trace, TraceConfig, TraceEvent};
use crate::worm::{ByteKind, MessageId, WireByte, WormId, WormInstance};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub use crate::fabric::{FabricSpec, HostAttach, LinkSpec, RouteSource, RouteTable};

/// Link-transmission engine mode.
///
/// `SpanBatched` is an *engine optimisation*, never a semantic mode: a run
/// under either setting produces bit-identical delivery timestamps, message
/// logs and network statistics (everything except the event counters, which
/// measure engine cost). The differential tests in `tests/span_equivalence.rs`
/// and `crates/bench/tests/` enforce this.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimMode {
    /// One scheduler event per byte per hop — the reference semantics,
    /// O(bytes·hops) events.
    PerByte,
    /// Contiguous runs of a worm's ready bytes — its route symbols, then
    /// data, then its tail into a switch — move as a single `RxSpan` event
    /// whenever that is provably indistinguishable from per-byte
    /// transmission, approaching O(worms·hops) events. Falls back to
    /// per-byte at a tail into an adapter, at first bytes into an adapter
    /// that is busy or has bytes on its inbound wire, at watermark
    /// proximity, cut-through pacing, and on STOP truncation; a
    /// switch-level multicast worm, and every worm under
    /// [`SwitchcastMode::IdleFlush`], always crosses per-byte.
    SpanBatched,
}

/// Tunables of the simulated fabric.
#[derive(Clone, Debug)]
pub struct NetworkConfig {
    /// Master seed for all per-host RNG streams.
    pub seed: u64,
    /// Probability that an injected worm is corrupted on the wire and fails
    /// its checksum at the destination (fault injection; 0.0 in the paper's
    /// experiments — wormhole LAN links are assumed reliable).
    pub corrupt_prob: f64,
    /// Trace sink selection: [`TraceConfig::Off`] (the default, free),
    /// an unbounded in-memory log, or a bounded ring.
    pub trace: TraceConfig,
    /// Switch-level multicast mode (Section 3 of the paper). `Off` for all
    /// host-adapter experiments. Either engine mode runs under any of
    /// them; the span rules refuse what they cannot prove worm by worm.
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
            seed: 0xC0FFEE,
            corrupt_prob: 0.0,
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
#[derive(Clone, Debug, Default)]
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
    /// `events_fired` by event kind, counted as each event is dispatched
    /// (engine cost too: mask it with the other two).
    pub events_by_kind: EventCounts,
}

impl NetStats {
    /// These counters with the engine-cost ones (`events_scheduled`,
    /// `events_fired`, `events_by_kind`) zeroed: what every engine mode,
    /// sink and shard count must reproduce.
    pub fn simulated(&self) -> NetStats {
        NetStats {
            events_scheduled: 0,
            events_fired: 0,
            events_by_kind: EventCounts::default(),
            ..self.clone()
        }
    }
}

/// A recorded message creation.
#[derive(Clone, Copy, Debug)]
pub struct MessageRecord {
    pub msg: MessageId,
    pub origin: HostId,
    pub dest: Destination,
    pub payload_len: u32,
    pub created: SimTime,
}

/// A recorded local delivery.
#[derive(Clone, Copy, Debug)]
pub struct Delivery {
    pub msg: MessageId,
    pub host: HostId,
    pub at: SimTime,
}

/// The journal experiments read after a run.
#[derive(Clone, Debug, Default)]
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
    /// Nothing was left to happen at the deadline
    /// ([`Network::is_quiescent`]): a finite workload is done.
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
    /// The worm window ([`crate::arena`]): every worm from the oldest one
    /// still unreleased to the newest, with its engine-private side state.
    /// External reads go through [`Network::worm`] and
    /// [`Network::live_worms`].
    pub(crate) worms: WormArena,
    /// Flushed worms not yet released, each with the last time a byte of it
    /// can still arrive somewhere ([`Network::flush_worm`]). Empty in the
    /// normal no-flush regime, which lets the per-byte receive path skip
    /// the flush check entirely.
    pub(crate) flush_pending: Vec<(SimTime, WormId)>,
    pub stats: NetStats,
    pub msgs: MessageLog,
    pub trace: Trace,
    pub(crate) routes: RouteTable,
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
    /// Per-host worm sequence counters backing the worms' canonical names
    /// ([`Network::worm_name`]).
    pub(crate) next_worm_seq: Vec<u64>,
    pub(crate) cmd_scratch: Vec<Command>,
    /// STOP/GO arrivals whose worm attribution is deferred to the end of
    /// the current scheduler tick (`bool` is "STOP"). Crossbar/adapter
    /// state is only guaranteed identical across [`SimMode`]s at whole
    /// byte-time boundaries — resolving [`Self::channel_carried_worm`]
    /// mid-tick would make the trace depend on intra-tick event order,
    /// which the span engine deliberately changes.
    pending_ctrl_trace: Vec<(SimTime, ChanId, bool)>,
    /// The lanes a run's end settles ([`Lane::enlist`]): each that emitted
    /// or landed a span since it was last settled, parked bytes there, or
    /// still has a span on the wire. The next run's prologue resumes the
    /// same lanes, so a run stepped one byte-time at a time walks only the
    /// lanes spans are crossing, not every lane twice per step.
    span_lanes: Vec<ChanId>,
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
            worms: WormArena::default(),
            flush_pending: Vec::new(),
            stats: NetStats::default(),
            msgs: MessageLog::default(),
            routes,
            route_pool: slab::RoutePool::new(),
            broadcast_ports: Vec::new(),
            protocols: (0..num_hosts).map(|_| None).collect(),
            sources: (0..num_hosts).map(|_| None).collect(),
            rngs,
            fault_rng,
            next_msg_seq: vec![0; num_hosts],
            next_worm_seq: vec![0; num_hosts],
            cmd_scratch: Vec::new(),
            pending_ctrl_trace: Vec::new(),
            span_lanes: Vec::new(),
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

    /// The route table, for reads that walk a pair on first use
    /// ([`RouteTable::get`]).
    pub fn routes_mut(&mut self) -> &mut RouteTable {
        &mut self.routes
    }

    /// Configure, per switch, the output ports a broadcast worm replicates
    /// to: the down links of the up/down tree plus every host port.
    /// Required before injecting `Broadcast` routes.
    pub fn set_broadcast_ports(&mut self, ports: Vec<Vec<u8>>) {
        assert_eq!(ports.len(), self.switches.len());
        self.broadcast_ports = ports;
    }

    /// A sink (terminal host) of `worm` resolved: delivered, refused,
    /// corrupt or flushed.
    pub(crate) fn resolve_sink(&mut self, worm: WormId) {
        self.worms.slot_mut(worm).sinks_left -= 1;
    }

    /// A replica branch put a tail on the wire: one more stream of `worm`
    /// is open until its consumer takes that tail.
    pub(crate) fn open_stream(&mut self, worm: WormId) {
        if self.shard.is_none() {
            self.worms.slot_mut(worm).streams += 1;
        }
    }

    /// A consumer took the tail of one of `worm`'s streams: an adapter (a
    /// whole worm, a refused one or a fragment) or a replicating input.
    /// With its last stream the worm's last byte has left the fabric, and
    /// it is released — which may be after every sink has resolved, while
    /// the real tail still crosses the fabric to the replicating switch.
    pub(crate) fn end_stream(&mut self, worm: WormId) {
        if self.shard.is_none() {
            let open = &mut self.worms.slot_mut(worm).streams;
            *open -= 1;
            if *open == 0 {
                self.worms.release(worm);
            }
        }
    }

    /// `worm`'s last byte has left the fabric: free its slot in the worm
    /// window. A shard keeps every worm, since its mirrors of a worm are
    /// resolved in several shards and named across them by dense id
    /// (`ShardCtx::tag_to_worm`); nor does it count streams, whose tails
    /// may be emitted in one shard and taken in another.
    pub(crate) fn release_worm(&mut self, worm: WormId) {
        if self.shard.is_none() {
            self.worms.release(worm);
        }
    }

    /// Release every flushed worm none of whose bytes can still arrive at
    /// `now`: its last possible arrival lies in an earlier tick.
    fn release_flushed(&mut self, now: SimTime) {
        let mut i = 0;
        while i < self.flush_pending.len() {
            let (last_arrival, worm) = self.flush_pending[i];
            if last_arrival < now {
                self.flush_pending.swap_remove(i);
                self.release_worm(worm);
            } else {
                i += 1;
            }
        }
    }

    /// Live worm `id`, or `None` once its last byte has left the fabric
    /// (or if it was never injected).
    pub fn worm(&self, id: WormId) -> Option<&WormInstance> {
        self.worms.get(id)
    }

    /// The live worms, oldest first: injected, and some byte of each still
    /// queued, on a wire or in a buffer.
    pub fn live_worms(&self) -> impl Iterator<Item = &WormInstance> {
        self.worms.live()
    }

    /// Slots in the worm window, from the oldest unreleased worm to the
    /// newest: what the run's worm storage holds, released slots between
    /// live ones included.
    pub fn worm_window(&self) -> usize {
        self.worms.window_len()
    }

    /// True when nothing can happen any more without outside input: no worm
    /// is outstanding, no injection is scheduled, no protocol timer is
    /// pending, and — outside a shard, which releases nothing — the worm
    /// window is empty, so no byte is left on a wire or in a buffer. (A
    /// switch-level multicast worm's real tail may still cross the fabric
    /// after its last sink has resolved.)
    pub fn is_quiescent(&self) -> bool {
        self.stats.active_worms == 0
            && self.pending_injects == 0
            && self.pending_timers == 0
            && (self.shard.is_some() || self.worms.window_len() == 0)
    }

    // -- event loop ---------------------------------------------------------

    /// Run until `t_end` and take the run's verdict:
    /// [`Network::advance_to`], then the deadlock analysis and a snapshot
    /// of the counters.
    ///
    /// [`RunOutcome::deadlock`] is the run's one deadlock verdict, taken
    /// from the wait-for graph at the deadline: a genuine wait cycle
    /// (outstanding worms alone are overload, not deadlock). Progress
    /// counters play no part: a wedged V1/V3 replica keeps its lanes busy
    /// with IDLE fill.
    pub fn run_until(&mut self, t_end: SimTime) -> RunOutcome {
        self.advance_to(t_end);
        // A shard engine leaves the verdict to the post-join merged
        // analysis: its local view cannot tell a cross-shard stall from a
        // cycle.
        let deadlock = if self.shard.is_some() || self.is_quiescent() {
            None
        } else {
            crate::deadlock::analyze(self)
        };
        RunOutcome {
            end_time: self.scheduler.now(),
            drained: self.is_quiescent(),
            deadlock,
            stats: self.stats.clone(),
        }
    }

    /// Run until `t_end`, where the run's `Stop` fires, and settle the
    /// counters there: every statistic reads what the per-byte engine
    /// reads at that horizon. No verdict, no snapshot — stepping a run
    /// costs the events it fires.
    pub fn advance_to(&mut self, t_end: SimTime) {
        self.begin_run(t_end);
        loop {
            let (t, ev) = self.scheduler.pop().expect("the deadline's Stop is queued");
            if self.dispatch(t, ev) {
                self.end_run(t);
                return;
            }
        }
    }

    /// Run prologue shared by the sequential loop and the shard workers:
    /// restore the counters the last run's end parked and arm the deadline
    /// Stop.
    pub(crate) fn begin_run(&mut self, t_end: SimTime) {
        for &ch in &self.span_lanes {
            let lane = &mut self.lanes[ch.0 as usize];
            let (unsent, unarrived) = lane.resume();
            self.stats.bytes_moved += unarrived;
            if let NodeRef::Host(h) = lane.src().node {
                self.adapters[h.0 as usize].counters.bytes_sent += unsent;
            }
            if let NodeRef::Host(h) = lane.dst().node {
                *self.adapters[h.0 as usize].rx_bytes() += unarrived;
            }
        }
        self.scheduler.at(t_end, Event::Stop);
    }

    /// Run epilogue, the run stopped at `horizon`: resolve the tick's
    /// deferred trace attributions, mirror the event counters and settle
    /// the span counters.
    pub(crate) fn end_run(&mut self, horizon: SimTime) {
        self.flush_ctrl_trace();
        self.release_flushed(horizon);
        self.sync_event_stats();
        self.settle_run(horizon);
    }

    /// Execute one popped event. Returns true when it was the run's
    /// deadline Stop.
    pub(crate) fn dispatch(&mut self, t: SimTime, ev: Event) -> bool {
        if let Some(&(t0, _, _)) = self.pending_ctrl_trace.first() {
            if t > t0 {
                self.flush_ctrl_trace();
            }
        }
        self.stats.events_by_kind.count(&ev);
        match ev {
            Event::Stop => return true,
            Event::TxKick { ch, gen } => self.handle_tx_kick(ch, gen),
            Event::RxByte { ch, byte } => self.handle_rx_byte(ch, byte),
            Event::RxSpan { ch } => self.handle_rx_span(ch),
            Event::CtrlRx { ch, sym } => self.handle_ctrl(ch, sym),
            Event::Inject { host } => {
                self.pending_injects -= 1;
                self.handle_inject(host);
            }
            Event::HostTimer { host, token } => {
                self.pending_timers -= 1;
                self.notify_timer(host, token);
            }
        }
        false
    }

    /// A run ends at `horizon`: park the listed lanes' span bytes whose
    /// slots lie at or past it ([`Lane::settle`]), out of `bytes_moved` and
    /// the adapters' byte counters as well, and unlist the lanes nothing
    /// can be cut off from any more. `begin_run` restores the bytes.
    fn settle_run(&mut self, horizon: SimTime) {
        let (lanes, adapters, stats) = (&mut self.lanes, &mut self.adapters, &mut self.stats);
        self.span_lanes.retain(|&ch| {
            let lane = &mut lanes[ch.0 as usize];
            let (unsent, unarrived) = lane.settle(horizon);
            stats.bytes_moved -= unarrived;
            if let NodeRef::Host(h) = lane.src().node {
                adapters[h.0 as usize].counters.bytes_sent -= unsent;
            }
            if let NodeRef::Host(h) = lane.dst().node {
                *adapters[h.0 as usize].rx_bytes() -= unarrived;
            }
            lane.is_listed()
        });
    }

    /// A span left or landed on `ch`: list the lane for the run's end to
    /// settle.
    #[inline]
    pub(crate) fn list_for_settle(&mut self, ch: ChanId) {
        if self.lanes[ch.0 as usize].enlist() {
            self.span_lanes.push(ch);
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

    /// The canonical name of a live worm, for trace emission: every worm
    /// is named when its slot is pushed, at injection
    /// ([`Network::inject_worm`]) or first boundary contact
    /// (`worm_for_tag`); naming a released worm panics.
    #[inline]
    pub(crate) fn worm_name(&self, worm: WormId) -> u64 {
        self.worms.slot(worm).name
    }

    /// Resolve a canonical worm name (the `worm` field of
    /// [`TraceEvent`]s) back to the live worm instance; `None` once the
    /// worm has left the fabric. Linear scan of the worm window — meant for
    /// diagnostics, not the simulation hot path.
    pub fn worm_by_name(&self, name: u64) -> Option<&WormInstance> {
        self.worms
            .live_slots()
            .find(|s| s.name == name)
            .map(|s| &s.inst)
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
        if self.lanes[ch.0 as usize].take_tail_release() {
            // A STOP that landed by now would have cut the span, tail and
            // all, and cancelled this kick with it.
            debug_assert!(!stopped, "{ch:?} stopped before its tail's slot");
            return self.release_tail(ch, gen);
        }
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
        if !self.flush_pending.is_empty() {
            self.release_flushed(self.scheduler.now());
            if self.flush_pending.iter().any(|&(_, w)| w == byte.worm) {
                return;
            }
        }
        self.deliver_run(dst, byte, 1, false);
    }

    /// Hand `len` copies of `byte` that came off the wire together — one
    /// byte, or the data run of a span — to the node at `dst`, and the
    /// worm's tail behind them when `tail` is set (only ever into a
    /// switch).
    pub(crate) fn deliver_run(&mut self, dst: Endpoint, byte: WireByte, len: u64, tail: bool) {
        match dst.node {
            NodeRef::Switch(s) => self.switch_rx(s, dst.port.0, byte, len, tail),
            NodeRef::Host(h) => {
                debug_assert!(!tail, "a tail into adapter {h:?} travels alone");
                self.adapter_rx(h, byte, len)
            }
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

    /// Check the conservation invariant, that the worm window holds
    /// exactly the worms still in the fabric, and that the fabric holds no
    /// byte once no worm is left in it: the window is empty (a shard, which
    /// releases nothing, asks that no sink is active). Call at any
    /// quiescent point; cheap enough to call after every test run.
    pub fn audit(&self) -> Result<(), String> {
        Self::audit_counters(&self.stats)?;
        let gone = match self.shard {
            None => {
                self.audit_window()?;
                self.worms.window_len() == 0
            }
            Some(_) => self.stats.active_worms == 0,
        };
        if gone {
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

    /// The worm window's half (outside shards, which release nothing): every
    /// unreleased worm has a stream still open (a tail not yet taken) and
    /// every flushed worm awaiting release is still in the window, and the
    /// unresolved sinks are the active count (no worm left the window with
    /// a sink to resolve).
    fn audit_window(&self) -> Result<(), String> {
        let mut sinks = 0;
        for slot in self.worms.live_slots() {
            sinks += slot.sinks_left as i64;
            if slot.streams == 0 {
                return Err(format!("live worm {:?} has no open stream", slot.inst.id));
            }
        }
        let gone = |&&(_, w): &&(SimTime, WormId)| self.worms.get(w).is_none();
        if let Some((_, w)) = self.flush_pending.iter().find(gone) {
            return Err(format!("flushed worm {w:?} left the window before its bytes"));
        }
        if sinks != self.stats.active_worms {
            return Err(format!(
                "worm window holds {sinks} unresolved sinks, active_worms={}",
                self.stats.active_worms
            ));
        }
        Ok(())
    }

    /// The structural half, for a fabric no worm is left in: nothing on a
    /// wire, nothing in a slack buffer.
    pub(crate) fn audit_fabric_empty(&self) -> Result<(), String> {
        for c in &self.lanes {
            if c.in_flight() != 0 {
                return Err(format!(
                    "lane {:?} has {} bytes in flight with no worm left",
                    c.id(),
                    c.in_flight()
                ));
            }
        }
        for sw in &self.switches {
            for (i, inp) in sw.inputs.iter().enumerate() {
                if !inp.buf.is_empty() {
                    return Err(format!(
                        "switch {:?} input {} holds {} bytes with no worm left",
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
