//! The network: fabric construction, the event loop, and protocol dispatch.

use crate::adapter::{Adapter, TxWorm};
use crate::config::ConfigError;
use crate::deadlock::DeadlockReport;
use crate::engine::{CtrlSym, Event, HostId, Scheduler, SwitchId};
use crate::link::{
    ChanId, Endpoint, ForeignRun, Lane, Link, LinkId, NodeRef, PortId, RxPort,
    SpanInFlight, TxPayload, TxPort,
};
use crate::protocol::{
    Admission, AdapterProtocol, AppMessage, Command, Destination, ProtocolCtx, SendSpec,
    TrafficSource,
};
use crate::slab;
use crate::switch::{SlackCfg, Switch};
use crate::switchcast::SwitchcastMode;
use crate::time::SimTime;
use crate::trace::{BlockCause, Trace, TraceConfig, TraceEvent};
use crate::worm::{ByteKind, MessageId, WormId, WormInstance, WormMeta};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Where a host attaches to the fabric.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HostAttach {
    pub switch: u32,
    pub port: u8,
}

/// A switch-to-switch link.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct LinkSpec {
    pub a: (u32, PortId),
    pub b: (u32, PortId),
    pub delay: SimTime,
    /// Lanes per direction; 0 means "use [`NetworkConfig::lanes`]".
    pub lanes: u8,
}

/// A complete fabric description, produced by `wormcast-topo`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FabricSpec {
    /// Ports per switch.
    pub switch_ports: Vec<u8>,
    /// Host `i` attaches at `hosts[i]`.
    pub hosts: Vec<HostAttach>,
    pub links: Vec<LinkSpec>,
    /// Propagation delay of host↔switch links.
    pub host_link_delay: SimTime,
}

/// Unicast source routes for every ordered host pair.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RouteTable {
    table: Vec<Vec<Vec<u8>>>,
}

impl RouteTable {
    pub fn new(num_hosts: usize) -> Self {
        RouteTable {
            table: vec![vec![Vec::new(); num_hosts]; num_hosts],
        }
    }

    pub fn num_hosts(&self) -> usize {
        self.table.len()
    }

    pub fn set(&mut self, src: HostId, dst: HostId, ports: Vec<u8>) {
        self.table[src.0 as usize][dst.0 as usize] = ports;
    }

    /// The output-port sequence from `src`'s switch to `dst`'s host port.
    pub fn get(&self, src: HostId, dst: HostId) -> &[u8] {
        &self.table[src.0 as usize][dst.0 as usize]
    }

    /// Hop count (number of switches traversed) between two hosts.
    pub fn hops(&self, src: HostId, dst: HostId) -> usize {
        self.get(src, dst).len()
    }
}

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
    /// Contiguous runs of ready data bytes move as a single `RxSpan` event
    /// whenever that is provably indistinguishable from per-byte
    /// transmission, approaching O(worms·hops) events. Falls back to
    /// per-byte at headers, tails, watermark proximity, cut-through pacing,
    /// replication branch points, and on STOP truncation.
    SpanBatched,
}

/// Minimum run length worth batching: a 1-byte span costs the same two
/// events (arrival + next kick) as the per-byte path, so fall through.
const MIN_SPAN: u64 = 2;

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
    /// byte-time regardless). A [`LinkSpec`] with a nonzero `lanes` field
    /// overrides this per link. `1` reproduces the paper's single-lane
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
    protocols: Vec<Option<Box<dyn AdapterProtocol>>>,
    sources: Vec<Option<Box<dyn TrafficSource>>>,
    rngs: Vec<SmallRng>,
    fault_rng: SmallRng,
    /// Per-host message sequence counters. [`MessageId`]s pack
    /// `(host << 40) | seq` so id assignment depends only on the host's own
    /// injection history — a sharded run (which never sees other shards'
    /// injections) allocates exactly the ids the sequential engine does.
    next_msg_seq: Vec<u64>,
    /// Canonical per-worm names, `(injecting host << 40) | seq` like
    /// [`MessageId`]s (`u64::MAX` = unnamed). Dense [`WormId`]s are
    /// per-engine — each shard of a sharded run allocates its own — so the
    /// trace and the cross-shard boundary protocol name worms by this tag
    /// instead; assignment depends only on the injecting host's own
    /// history, making the names identical however the run is partitioned.
    worm_names: slab::PerWorm<u64>,
    /// Per-host worm sequence counters backing `worm_names`.
    next_worm_seq: Vec<u64>,
    cmd_scratch: Vec<Command>,
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
    run_deadline: SimTime,
    /// Span-tail bytes whose per-byte arrival slots lie at or beyond the
    /// current deadline: `(first_slot, remaining)`, credited by whichever
    /// later run covers their slots.
    deferred_moves: Vec<(SimTime, u64)>,
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
    /// Build a network from a fabric description and unicast route table,
    /// panicking on an invalid fabric. Prefer [`Network::try_build`] (or
    /// the bench runner's validating `SimSetup` builder) to get a typed
    /// [`ConfigError`] instead.
    pub fn build(spec: &FabricSpec, routes: RouteTable, cfg: NetworkConfig) -> Self {
        Self::try_build(spec, routes, cfg).unwrap_or_else(|e| panic!("invalid fabric: {e}"))
    }

    /// Build a network, surfacing fabric/configuration violations (zero
    /// link delays, lane/switchcast conflicts, slot overflow) as a typed
    /// [`ConfigError`].
    pub fn try_build(
        spec: &FabricSpec,
        routes: RouteTable,
        cfg: NetworkConfig,
    ) -> Result<Self, ConfigError> {
        assert_eq!(
            routes.num_hosts(),
            spec.hosts.len(),
            "route table size must match host count"
        );
        for (i, l) in spec.links.iter().enumerate() {
            if l.delay == 0 {
                return Err(ConfigError::ZeroDelay {
                    field: "links",
                    index: i,
                });
            }
        }
        if spec.host_link_delay == 0 && !spec.hosts.is_empty() {
            return Err(ConfigError::ZeroDelay {
                field: "host_link_delay",
                index: 0,
            });
        }
        if cfg.lanes == 0 {
            return Err(ConfigError::OutOfRange {
                field: "lanes",
                value: 0.0,
                min: 1.0,
                max: u8::MAX as f64,
            });
        }
        // Effective lane count per spec link (0 defers to the config).
        let link_lanes: Vec<u8> = spec
            .links
            .iter()
            .map(|l| if l.lanes == 0 { cfg.lanes } else { l.lanes })
            .collect();
        if link_lanes.iter().any(|&n| n > 1) && cfg.switchcast != SwitchcastMode::Off {
            return Err(ConfigError::Invalid {
                field: "lanes",
                reason: "switch-level multicast requires single-lane links".into(),
            });
        }

        // Per-switch, per-physical-port lane counts (unlinked and
        // host-facing ports keep one slot so slot indices stay aligned).
        let mut port_lanes: Vec<Vec<u8>> = spec
            .switch_ports
            .iter()
            .map(|&p| vec![1u8; p as usize])
            .collect();
        for (l, &n) in spec.links.iter().zip(&link_lanes) {
            port_lanes[l.a.0 as usize][l.a.1.index()] = n;
            port_lanes[l.b.0 as usize][l.b.1.index()] = n;
        }
        for (i, pl) in port_lanes.iter().enumerate() {
            let slots: u32 = pl.iter().map(|&n| n as u32).sum();
            if slots > u8::MAX as u32 {
                return Err(ConfigError::Invalid {
                    field: "lanes",
                    reason: format!("switch {i} needs {slots} port slots (max 255)"),
                });
            }
        }

        let mut switches: Vec<Switch> = port_lanes
            .iter()
            .enumerate()
            .map(|(i, pl)| {
                Switch::new(
                    SwitchId(i as u32),
                    pl,
                    cfg.slack.unwrap_or_else(|| SlackCfg::for_delay(1)),
                    cfg.seed,
                )
            })
            .collect();
        let mut adapters: Vec<Adapter> = (0..spec.hosts.len())
            .map(|i| Adapter::new(HostId(i as u32)))
            .collect();
        let mut lanes: Vec<Lane> = Vec::new();
        let mut links: Vec<Link> = Vec::new();

        // One forward + one backward `Link` per spec entry; each direction's
        // lanes are contiguous, lane `i` pairing with reverse lane `i`. With
        // one lane the ids are exactly the historical (fwd, back) pairs.
        for (l, &n) in spec.links.iter().zip(&link_lanes) {
            let base = lanes.len() as u32;
            let na = NodeRef::Switch(SwitchId(l.a.0));
            let nb = NodeRef::Switch(SwitchId(l.b.0));
            let fwd = LinkId(links.len() as u32);
            let bwd = LinkId(links.len() as u32 + 1);
            for i in 0..n {
                let slot_a = switches[l.a.0 as usize].slot_of(l.a.1.0, i);
                let slot_b = switches[l.b.0 as usize].slot_of(l.b.1.0, i);
                let ea = Endpoint { node: na, port: PortId(slot_a) };
                let eb = Endpoint { node: nb, port: PortId(slot_b) };
                let ab = ChanId(base + i as u32);
                let ba = ChanId(base + n as u32 + i as u32);
                lanes.push(Lane::new(ab, ea, eb, l.delay, ba, fwd, i));
                switches[l.a.0 as usize].outputs[slot_a as usize].chan_out = Some(ab);
                switches[l.b.0 as usize].inputs[slot_b as usize].chan_in = Some(ab);
            }
            for i in 0..n {
                let slot_a = switches[l.a.0 as usize].slot_of(l.a.1.0, i);
                let slot_b = switches[l.b.0 as usize].slot_of(l.b.1.0, i);
                let ea = Endpoint { node: na, port: PortId(slot_a) };
                let eb = Endpoint { node: nb, port: PortId(slot_b) };
                let ab = ChanId(base + i as u32);
                let ba = ChanId(base + n as u32 + i as u32);
                lanes.push(Lane::new(ba, eb, ea, l.delay, ab, bwd, i));
                switches[l.b.0 as usize].outputs[slot_b as usize].chan_out = Some(ba);
                switches[l.a.0 as usize].inputs[slot_a as usize].chan_in = Some(ba);
            }
            links.push(Link::new(fwd, (na, l.a.1), (nb, l.b.1), l.delay, ChanId(base), n));
            links.push(Link::new(
                bwd,
                (nb, l.b.1),
                (na, l.a.1),
                l.delay,
                ChanId(base + n as u32),
                n,
            ));
        }
        // Host links always have a single lane: the adapter's injection
        // rate is one byte per byte-time regardless.
        for (h, att) in spec.hosts.iter().enumerate() {
            let nh = NodeRef::Host(HostId(h as u32));
            let ns = NodeRef::Switch(SwitchId(att.switch));
            let slot = switches[att.switch as usize].slot_of(att.port, 0);
            let eh = Endpoint { node: nh, port: PortId(0) };
            let es = Endpoint { node: ns, port: PortId(slot) };
            let hs = ChanId(lanes.len() as u32);
            let sh = ChanId(lanes.len() as u32 + 1);
            let up = LinkId(links.len() as u32);
            let down = LinkId(links.len() as u32 + 1);
            lanes.push(Lane::new(hs, eh, es, spec.host_link_delay, sh, up, 0));
            lanes.push(Lane::new(sh, es, eh, spec.host_link_delay, hs, down, 0));
            links.push(Link::new(
                up,
                (nh, PortId(0)),
                (ns, PortId(att.port)),
                spec.host_link_delay,
                hs,
                1,
            ));
            links.push(Link::new(
                down,
                (ns, PortId(att.port)),
                (nh, PortId(0)),
                spec.host_link_delay,
                sh,
                1,
            ));
            adapters[h].chan_out = Some(hs);
            switches[att.switch as usize].inputs[slot as usize].chan_in = Some(hs);
            switches[att.switch as usize].outputs[slot as usize].chan_out = Some(sh);
            adapters[h].chan_in = Some(sh);
        }

        // Size each input slack buffer for its actual upstream link delay
        // (unless the configuration pinned one).
        if cfg.slack.is_none() {
            for sw in &mut switches {
                for inp in &mut sw.inputs {
                    if let Some(ch) = inp.chan_in {
                        inp.slack = SlackCfg::for_delay(lanes[ch.0 as usize].delay());
                    }
                }
            }
        }
        for sw in &switches {
            for inp in &sw.inputs {
                inp.slack.validate().map_err(|reason| ConfigError::Invalid {
                    field: "slack",
                    reason,
                })?;
            }
        }

        let num_hosts = spec.hosts.len();
        let mut seed_rng = SmallRng::seed_from_u64(cfg.seed);
        let rngs = (0..num_hosts)
            .map(|_| SmallRng::seed_from_u64(seed_rng.gen()))
            .collect();
        let fault_rng = SmallRng::seed_from_u64(seed_rng.gen());

        Ok(Network {
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
        })
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

    /// Install the protocol instance for a host.
    pub fn set_protocol(&mut self, host: HostId, p: Box<dyn AdapterProtocol>) {
        self.protocols[host.0 as usize] = Some(p);
    }

    /// Post a timer to a host's protocol from outside the simulation — the
    /// "device driver" path: a control process prodding its adapter. The
    /// protocol receives `on_timer(token)` after `delay`.
    pub fn post_timer(&mut self, host: HostId, delay: SimTime, token: u64) {
        self.pending_timers += 1;
        self.scheduler.after(delay, Event::HostTimer { host, token });
    }

    /// Install a traffic source for a host and schedule its first injection.
    ///
    /// A host has exactly one source; installing a second replaces the
    /// first (its already-scheduled injections will then draw from the new
    /// source). Use one `Script` with the full schedule instead of several
    /// `OneShot`s.
    pub fn set_source(&mut self, host: HostId, s: Box<dyn TrafficSource>, first_at: SimTime) {
        debug_assert!(
            self.sources[host.0 as usize].is_none(),
            "replacing an existing traffic source for {host:?}; use one Script"
        );
        self.sources[host.0 as usize] = Some(s);
        self.pending_injects += 1;
        self.scheduler.at(first_at, Event::Inject { host });
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
        let now = self.scheduler.now();
        if let Some((at, gen)) = self.lanes[ch.0 as usize].arm_kick(now) {
            self.scheduler.at(at, Event::TxKick { ch, gen });
        }
    }

    // -- shard boundary handling --------------------------------------------

    /// Install the sharding context (see [`crate::shard`]). Called once by
    /// `ShardedNetwork::new` before any event runs.
    pub(crate) fn install_shard_ctx(&mut self, ctx: crate::shard::ShardCtx) {
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

    /// Deliver a control symbol to the transmit side of `ch` after its
    /// propagation delay — locally, or across the shard boundary when the
    /// transmit side is foreign.
    pub(crate) fn send_ctrl(&mut self, ch: ChanId, sym: CtrlSym) {
        self.lanes[ch.0 as usize].note_ctrl_sent();
        let delay = self.lanes[ch.0 as usize].delay();
        if self.chan_src_foreign(ch) {
            let now = self.scheduler.now();
            if sym == CtrlSym::Stop {
                // Remember where this STOP cuts the foreign transmitter's
                // send slots, so spans already in the mailbox can be
                // truncated on arrival exactly as the transmitter will
                // truncate its own copy (DESIGN.md §3.4).
                self.lanes[ch.0 as usize].note_foreign_stop(now);
            }
            let ts = now + delay;
            let s = self.shard.as_ref().expect("foreign src implies shard ctx");
            let to = s.chan_src_owner[ch.0 as usize] as usize;
            s.outboxes[to]
                .as_ref()
                .expect("cross-shard channel has a mailbox")
                .lock()
                .unwrap()
                .push_back(crate::shard::BoundaryMsg::Ctrl { ts, ch, sym });
        } else {
            self.scheduler.after(delay, Event::CtrlRx { ch, sym });
        }
    }

    /// Boundary-send bookkeeping shared by the per-byte and span paths:
    /// the destination shard of `ch`, the worm's canonical tag, and its
    /// snapshot iff this is the first contact between the two shards for
    /// this worm.
    fn boundary_tag_snap(
        &mut self,
        ch: ChanId,
        worm: WormId,
    ) -> (usize, u64, Option<Box<crate::shard::WormSnap>>) {
        let tag = self.worm_names.get(worm);
        debug_assert_ne!(tag, u64::MAX, "worm crossed a boundary without a name");
        let (to, need_snap) = {
            let s = self.shard.as_mut().expect("boundary send implies shard ctx");
            let to = s.chan_dst_owner[ch.0 as usize] as usize;
            let mask = s.snap_sent.get_mut(worm);
            let need = *mask & (1 << to) == 0;
            *mask |= 1 << to;
            (to, need)
        };
        let snap =
            need_snap.then(|| Box::new(crate::shard::WormSnap::of(&self.worms[worm.0 as usize])));
        (to, tag, snap)
    }

    /// Enqueue one boundary message in shard `to`'s mailbox.
    fn push_boundary(&self, to: usize, msg: crate::shard::BoundaryMsg) {
        let s = self.shard.as_ref().expect("boundary send implies shard ctx");
        s.outboxes[to]
            .as_ref()
            .expect("cross-shard channel has a mailbox")
            .lock()
            .unwrap()
            .push_back(msg);
    }

    /// Put `b` on cross-shard channel `ch`: enqueue the arrival in the
    /// receive-side owner's mailbox, attaching the worm snapshot the first
    /// time this shard sends that shard a byte of this worm.
    fn send_boundary_byte(&mut self, ch: ChanId, ts: SimTime, b: crate::worm::WireByte) {
        let (to, tag, snap) = self.boundary_tag_snap(ch, b.worm);
        self.push_boundary(
            to,
            crate::shard::BoundaryMsg::Rx {
                ts,
                ch,
                tag,
                kind: b.kind,
                snap,
            },
        );
    }

    /// Put an optimistic span of `len` data bytes of `worm` on cross-shard
    /// channel `ch`, first byte landing at `ts`. The receive-side owner
    /// truncates it against its own STOP watermarks on arrival.
    fn send_boundary_span(&mut self, ch: ChanId, ts: SimTime, worm: WormId, len: u64) {
        let (to, tag, snap) = self.boundary_tag_snap(ch, worm);
        self.push_boundary(
            to,
            crate::shard::BoundaryMsg::RxSpan {
                ts,
                ch,
                tag,
                len,
                snap,
            },
        );
    }

    /// Enqueue one boundary message into the local wheel, materialising
    /// the worm on first contact. Called by the shard worker loop while
    /// draining its inbound mailboxes; the conservative horizon guarantees
    /// `ts` has not been executed past.
    pub(crate) fn ingest_boundary(&mut self, msg: crate::shard::BoundaryMsg) {
        debug_assert!(
            msg.ts() >= self.scheduler.now(),
            "boundary message at {} arrived behind local time {}",
            msg.ts(),
            self.scheduler.now()
        );
        match msg {
            crate::shard::BoundaryMsg::Rx {
                ts,
                ch,
                tag,
                kind,
                snap,
            } => {
                let worm = self.worm_for_tag(tag, snap);
                self.scheduler
                    .at(ts, Event::RxByte { ch, byte: crate::worm::WireByte { worm, kind } });
            }
            crate::shard::BoundaryMsg::RxSpan {
                ts,
                ch,
                tag,
                len,
                snap,
            } => {
                let worm = self.worm_for_tag(tag, snap);
                let start = ts - self.lanes[ch.0 as usize].delay();
                // Queue the span on the local (receive-side) lane copy and
                // schedule its admission at first-byte arrival. A STOP this
                // side emitted before `ts` truncates it then, mirroring the
                // transmitter's own truncation (see `handle_rx_span`).
                self.lanes[ch.0 as usize].enqueue_foreign_span(SpanInFlight {
                    worm,
                    start,
                    len,
                });
                self.scheduler.at(ts, Event::RxSpan { ch });
            }
            crate::shard::BoundaryMsg::Ctrl { ts, ch, sym } => {
                self.scheduler.at(ts, Event::CtrlRx { ch, sym });
            }
        }
    }

    /// Resolve a boundary worm tag to the local dense [`WormId`],
    /// registering the worm from its snapshot on first contact. The
    /// injecting shard counted the worm's statistics; a mirror counts
    /// nothing here (its deliveries later drive this shard's
    /// `active_worms` negative, which the merged statistics balance out).
    fn worm_for_tag(&mut self, tag: u64, snap: Option<Box<crate::shard::WormSnap>>) -> WormId {
        let s = self.shard.as_mut().expect("boundary ingest implies shard ctx");
        if let Some(&w) = s.tag_to_worm.get(&tag) {
            return w;
        }
        let snap = snap.expect("first boundary byte of a worm carries its snapshot");
        let id = WormId(self.worms.len() as u32);
        s.tag_to_worm.insert(tag, id);
        *self.worm_names.get_mut(id) = tag;
        self.worms.push(snap.instantiate(id));
        id
    }

    /// The canonical name of a local worm, or `None` if it was never
    /// injected or materialized here. Used by the merged deadlock analysis
    /// to name one worm consistently across the shards that each hold a
    /// mirror of it under different dense ids.
    pub(crate) fn worm_tag(&self, worm: WormId) -> Option<u64> {
        let tag = self.worm_names.get(worm);
        (tag != u64::MAX).then_some(tag)
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
        if self.cfg.mode == SimMode::SpanBatched && self.try_emit_span(ch) {
            return;
        }
        let byte = match src.node {
            NodeRef::Switch(s) => self.switch_produce_byte(s, src.port.0),
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
                self.scheduler.after(1, Event::TxKick { ch, gen: ticket.gen });
                // tx_active stays true: the follow-up kick is pending.
            }
            None => {
                self.lanes[ch.0 as usize].set_tx_idle();
            }
        }
    }

    /// Span-batched fast path (see DESIGN.md §3.1): when the producer holds
    /// a run of contiguous ready data bytes of one worm and moving them in
    /// a single event is provably indistinguishable from per-byte
    /// transmission, put the whole run on the wire at once. Returns true
    /// when a span went out (the end-of-span kick is scheduled); false
    /// means the caller must produce per-byte.
    fn try_emit_span(&mut self, ch: ChanId) -> bool {
        // Replication, IDLE fill and flushes (Section 3 machinery) make
        // byte-level interleaving observable; the fast path is off outright.
        if !self.switchcast_allows_spans() {
            return false;
        }
        // Bytes bound for another shard go out as an *optimistic* span:
        // the receive-side occupancy needed for an exact admission check
        // lives over there, so the owner performs it on arrival — either
        // admitting the span whole or expanding it back into per-byte
        // arrivals (DESIGN.md §3.4).
        let dst_foreign = self.chan_dst_foreign(ch);
        let (src, dst, wire) = {
            let c = &self.lanes[ch.0 as usize];
            (c.src(), c.dst(), c.in_flight() as u64)
        };
        let Some((worm, avail)) = (match src.node {
            NodeRef::Switch(s) => self.switch_span_ready(s, src.port.0),
            NodeRef::Host(h) => self.adapter_span_ready(h),
        }) else {
            return false;
        };
        let room = if dst_foreign {
            // Bound the optimistic span by the mirror's slack geometry
            // alone (shards are built from identical fabrics). Any bound
            // is semantics-safe — the owner truncates or expands on
            // arrival — this one just keeps the rejection rate low.
            let NodeRef::Switch(s) = dst.node else {
                // Host-terminated lanes never cross shards (hosts follow
                // their attach switch); fall back defensively.
                return false;
            };
            let mark =
                self.switches[s.0 as usize].inputs[dst.port.index()].slack.stop_mark as u64;
            let r = mark.saturating_sub(1 + wire);
            if r == 0 {
                return false;
            }
            r
        } else {
            match dst.node {
                // A refusal leaves no no-drain room, but the circuit may
                // still be clear.
                NodeRef::Switch(s) => self.switch_span_room(s, dst.port.0, wire).unwrap_or(0),
                NodeRef::Host(h) => match self.adapter_span_room(h, worm) {
                    Some(room) => room,
                    None => return false,
                },
            }
        };
        // Two admission rules: the run fits below the receiver's STOP mark
        // even if nothing drains (`room`), or the receiver is certain to
        // keep draining for long enough (`drain_window`).
        let certified = if avail > room {
            self.drain_window(ch, worm)
        } else {
            0
        };
        let mut k = avail.min(room.max(certified));
        // Keep the watchdog's progress sampling meaningful: a span credits
        // all its bytes in one event, so cap the movement gap well below
        // the sampling interval. (Any cap is semantics-preserving.)
        if self.cfg.watchdog_interval > 0 {
            k = k.min((self.cfg.watchdog_interval / 2).max(1));
        }
        if k < MIN_SPAN {
            return false;
        }
        // Commit: dequeue the run from the producer...
        let producer_drained = match src.node {
            NodeRef::Switch(s) => {
                let owner = self.switches[s.0 as usize].outputs[src.port.index()]
                    .owner
                    .expect("span-ready output has an owner");
                let inp = &mut self.switches[s.0 as usize].inputs[owner as usize];
                let popped = inp.buf.pop_front_run(k);
                debug_assert_eq!(popped, k, "span-ready bytes lead the buffer as one run");
                // No per-dequeue GO check: `switch_span_ready` guaranteed
                // `sent_stop` is false for the whole drain window.
                inp.buf.is_empty()
            }
            NodeRef::Host(h) => {
                let a = &mut self.adapters[h.0 as usize];
                a.tx_queue
                    .front_mut()
                    .expect("span-ready head worm")
                    .body_sent += k;
                a.counters.bytes_sent += k;
                // The tail byte (at least) is still owed, so the adapter
                // always needs the end-of-span kick.
                false
            }
        };
        // ...and move it as one span.
        let now = self.scheduler.now();
        let ticket = TxPort::new(&mut self.lanes[ch.0 as usize])
            .try_send(now, TxPayload::Span { worm, len: k }, true)
            .expect("span probe ran at the lane's ready time");
        if dst_foreign {
            self.send_boundary_span(ch, ticket.deliver_at, worm, k);
            // The receive-side owner delivers the bytes; this RxSpan fires
            // at end-of-transmission to retire the local wire-occupancy
            // entry, which must stay truncatable while still sending
            // (see `handle_rx_span`).
            self.scheduler.at(now + k, Event::RxSpan { ch });
        } else {
            self.scheduler.at(ticket.deliver_at, Event::RxSpan { ch });
        }
        if k > room && certified != u64::MAX {
            // Sent on a finite drain window: the receiving input holds the
            // certificate until the span's last arrival slot has passed.
            let NodeRef::Switch(s) = dst.node else {
                unreachable!("an adapter's room is unbounded");
            };
            self.switches[s.0 as usize].inputs[dst.port.index()].drain_cert =
                Some((worm, ticket.deliver_at + k));
        }
        if producer_drained {
            // The span took everything the producer had; an end-of-span
            // kick would only find an empty buffer (the dominant event cost
            // at light load). Go idle instead: whatever refills the buffer
            // re-kicks via `kick_channel`, which paces the kick to
            // `next_tx_time`, so send slots are unchanged.
            self.lanes[ch.0 as usize].set_tx_idle();
        } else {
            self.scheduler.after(k, Event::TxKick { ch, gen: ticket.gen });
            // tx_active stays true: the end-of-span kick is pending.
        }
        true
    }

    /// Deliver the oldest in-flight span on `ch`. Spans and single bytes on
    /// one channel share FIFO wire order, so the queue front is always the
    /// arriving span.
    ///
    /// On a cut lane this event plays two roles: at the transmit-side owner
    /// it fires at end-of-transmission and merely retires the local
    /// wire-occupancy entry; at the receive-side owner it fires at
    /// first-byte arrival and performs the admission check the transmitter
    /// optimistically skipped.
    fn handle_rx_span(&mut self, ch: ChanId) {
        if self.chan_dst_foreign(ch) {
            // Transmit-side retirement: the entry (possibly STOP-truncated
            // since emission) only tracked wire occupancy here. Entries and
            // retirement events pair up 1:1 in FIFO order, so the popped
            // lengths sum correctly even when truncations reordered the
            // nominal end-of-transmission times.
            let _ = RxPort::new(&mut self.lanes[ch.0 as usize]).deliver_span();
            return;
        }
        let src_foreign = self.chan_src_foreign(ch);
        if src_foreign {
            // Mirror, before taking the span off the wire, exactly the
            // truncation any STOP this side emitted has meanwhile forced
            // on the transmitter's copy (`Lane::truncate_arriving_foreign_span`).
            self.lanes[ch.0 as usize].truncate_arriving_foreign_span();
        }
        let (dst, span) = RxPort::new(&mut self.lanes[ch.0 as usize]).deliver_span();
        if span.len == 0 {
            // Fully revoked by a STOP truncation (only the already-sent
            // remainder of a span survives; an empty one is just the
            // placeholder for this event).
            return;
        }
        if src_foreign && !self.admit_foreign_span(ch, dst, &span) {
            return;
        }
        // Credit `bytes_moved` per-byte-exactly: byte `j` of the span
        // conceptually arrives at `now + j`, and only arrivals strictly
        // before the run deadline count — its per-byte twin would sort
        // behind the deadline's Stop event ([`Event::canon_key`]) and fire
        // next run. The tail is credited by whichever later run covers it.
        let now = self.scheduler.now();
        let counted = span.len.min(self.run_deadline.saturating_sub(now));
        self.stats.bytes_moved += counted;
        if counted < span.len {
            self.deferred_moves.push((now + counted, span.len - counted));
        }
        debug_assert!(
            self.flushed_count == 0,
            "spans and flushes cannot coexist (switchcast gates the fast path)"
        );
        match dst.node {
            NodeRef::Switch(s) => self.switch_rx_span(s, dst.port.0, span.worm, span.len),
            NodeRef::Host(h) => self.adapter_rx_span(h, span.worm, span.len),
        }
    }

    /// Receive-side admission of an optimistic cross-shard span: admit it
    /// whole iff bulk delivery is provably indistinguishable from per-byte
    /// arrival — the input has no STOP in force and the whole run stays
    /// strictly below the STOP watermark (`switch_span_room` with zero
    /// wire bytes: everything on the wire IS this span). Otherwise expand
    /// the span back into the per-byte arrival stream it stood for (one
    /// [`Event::RxForeign`] per wire slot, at exactly the canonical
    /// per-byte positions). A rejected span already cost one mailbox
    /// message instead of `len`, so the transmitter is never throttled.
    /// Returns whether the span was admitted.
    fn admit_foreign_span(&mut self, ch: ChanId, dst: Endpoint, span: &SpanInFlight) -> bool {
        let NodeRef::Switch(s) = dst.node else {
            unreachable!("cut lanes terminate at switches (hosts follow their attach switch)");
        };
        if self
            .switch_span_room(s, dst.port.0, 0)
            .is_some_and(|room| span.len <= room)
        {
            return true;
        }
        let now = self.scheduler.now();
        self.lanes[ch.0 as usize].push_foreign_run(ForeignRun {
            worm: span.worm,
            next: now,
            end: now + span.len,
        });
        // Rank 4 (RxByte) sorts before this RxSpan's rank 5, so pushing at
        // `now` fires the first expansion byte immediately after this
        // event — at its exact canonical arrival slot.
        self.scheduler.at(now, Event::RxForeign { ch });
        false
    }

    /// One byte of a rejected cross-shard span lands: re-create exactly
    /// the per-byte arrival the span stood for. Self-scheduling: each
    /// delivery arms the next slot until the run is exhausted or a STOP
    /// clamp revoked its tail.
    fn handle_rx_foreign(&mut self, ch: ChanId) {
        let now = self.scheduler.now();
        let Some(run) = self.lanes[ch.0 as usize].foreign_run_front() else {
            return;
        };
        if now >= run.end {
            // A STOP clamp revoked everything still owed.
            self.lanes[ch.0 as usize].pop_foreign_run();
            return;
        }
        debug_assert_eq!(run.next, now, "expansion bytes arrive one per wire slot");
        let dst = self.lanes[ch.0 as usize].dst();
        if let Some(r) = self.lanes[ch.0 as usize].foreign_run_front_mut() {
            r.next = now + 1;
        }
        self.stats.bytes_moved += 1;
        let NodeRef::Switch(s) = dst.node else {
            unreachable!("cut lanes terminate at switches");
        };
        self.switch_rx_byte(
            s,
            dst.port.0,
            crate::worm::WireByte {
                worm: run.worm,
                kind: ByteKind::Data,
            },
        );
        // The arrival may have crossed the STOP mark, clamping this very
        // run's end through `note_foreign_stop` — re-read before arming
        // the next slot.
        match self.lanes[ch.0 as usize].foreign_run_front() {
            Some(r) if r.next < r.end => self.scheduler.at(r.next, Event::RxForeign { ch }),
            Some(_) => self.lanes[ch.0 as usize].pop_foreign_run(),
            None => {}
        }
    }

    /// A STOP just took effect on `ch` at time `now`. In per-byte mode the
    /// CtrlRx always fires before the same-timestamp TxKick (it was
    /// scheduled at least `delay` ≥ 1 byte-times earlier, and within its
    /// scheduling timestamp the RxByte that triggered it precedes the chain
    /// kick), so no byte with a send slot ≥ `now` has gone out — except the
    /// first byte of a span emitted by a kick that ran earlier this very
    /// timestamp. Cut every in-flight span back to its already-sent prefix
    /// and hand the revoked bytes back to the producer.
    fn truncate_spans(&mut self, ch: ChanId) {
        let now = self.scheduler.now();
        let Some((worm, revoked)) = self.lanes[ch.0 as usize].truncate_newest_span(now) else {
            return;
        };
        let src = self.lanes[ch.0 as usize].src();
        match src.node {
            NodeRef::Switch(s) => {
                let owner = self.switches[s.0 as usize].outputs[src.port.index()]
                    .owner
                    .expect("truncated span has a crossbar owner");
                let inp = &mut self.switches[s.0 as usize].inputs[owner as usize];
                debug_assert!(matches!(
                    inp.state,
                    crate::switch::InState::Forwarding { worm: w, .. } if w == worm
                ));
                inp.buf.push_front_run(
                    crate::worm::WireByte {
                        worm,
                        kind: ByteKind::Data,
                    },
                    revoked,
                );
            }
            NodeRef::Host(h) => {
                let a = &mut self.adapters[h.0 as usize];
                let head = a.tx_queue.front_mut().expect("truncated span's worm queued");
                debug_assert_eq!(head.worm, worm);
                head.body_sent -= revoked;
                a.counters.bytes_sent -= revoked;
            }
        }
    }

    fn handle_rx_byte(&mut self, ch: ChanId, byte: crate::worm::WireByte) {
        // Bytes from a foreign transmit side never incremented the
        // local `in_flight` copy (see `handle_tx_kick`).
        let src_foreign = self.chan_src_foreign(ch);
        let dst = RxPort::new(&mut self.lanes[ch.0 as usize]).deliver(!src_foreign);
        self.stats.bytes_moved += 1;
        // Bytes of a flushed (Backward Reset) worm evaporate on arrival.
        if self.flushed_count > 0 && self.discard_if_flushed(&byte) {
            return;
        }
        match dst.node {
            NodeRef::Switch(s) => self.switch_rx_byte(s, dst.port.0, byte),
            NodeRef::Host(h) => self.adapter_rx_byte(h, byte),
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
                if self.cfg.mode == SimMode::SpanBatched {
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
            CtrlSym::BackwardReset => self.switchcast_backward_reset(ch),
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

    fn handle_inject(&mut self, host: HostId) {
        let Some(mut src) = self.sources[host.0 as usize].take() else {
            return;
        };
        let now = self.scheduler.now();
        let (m, next) = src.next(now, host);
        self.sources[host.0 as usize] = Some(src);
        if let Some(delay) = next {
            self.pending_injects += 1;
            self.scheduler.after(delay, Event::Inject { host });
        }
        if let Some(sm) = m {
            let seq = &mut self.next_msg_seq[host.0 as usize];
            let msg = MessageId(((host.0 as u64) << 40) | *seq);
            *seq += 1;
            self.stats.messages_generated += 1;
            let app = AppMessage {
                msg,
                origin: host,
                dest: sm.dest,
                payload_len: sm.payload_len,
                created: now,
            };
            self.msgs.created.push(MessageRecord {
                msg,
                origin: host,
                dest: sm.dest,
                payload_len: sm.payload_len,
                created: now,
            });
            self.notify_generate(host, app);
        }
    }

    // -- protocol dispatch ---------------------------------------------------

    pub(crate) fn notify_generate(&mut self, host: HostId, msg: AppMessage) {
        let Some(mut proto) = self.protocols[host.0 as usize].take() else {
            return;
        };
        let mut cmds = std::mem::take(&mut self.cmd_scratch);
        {
            let mut ctx = ProtocolCtx {
                now: self.scheduler.now(),
                host,
                tx_backlog: self.adapters[host.0 as usize].tx_backlog(),
                rng: &mut self.rngs[host.0 as usize],
                commands: &mut cmds,
            };
            proto.on_generate(&mut ctx, msg);
        }
        self.protocols[host.0 as usize] = Some(proto);
        self.apply_commands(host, &mut cmds);
        self.cmd_scratch = cmds;
    }

    pub(crate) fn protocol_admission(&mut self, host: HostId, worm: WormId) -> Admission {
        let Some(mut proto) = self.protocols[host.0 as usize].take() else {
            return Admission::Accept;
        };
        let mut cmds = std::mem::take(&mut self.cmd_scratch);
        let admission = {
            let inst = &self.worms[worm.0 as usize];
            let mut ctx = ProtocolCtx {
                now: self.scheduler.now(),
                host,
                tx_backlog: self.adapters[host.0 as usize].tx_backlog(),
                rng: &mut self.rngs[host.0 as usize],
                commands: &mut cmds,
            };
            proto.on_header(&mut ctx, inst)
        };
        self.protocols[host.0 as usize] = Some(proto);
        if admission == Admission::Refuse && self.trace.enabled() {
            let worm = self.worm_name(worm);
            self.trace
                .push(self.scheduler.now(), TraceEvent::WormRefused { worm, host });
        }
        self.apply_commands(host, &mut cmds);
        self.cmd_scratch = cmds;
        admission
    }

    pub(crate) fn notify_worm_received(&mut self, host: HostId, worm: WormId) {
        self.stats.worms_delivered += 1;
        if self.trace.enabled() {
            let worm = self.worm_name(worm);
            self.trace
                .push(self.scheduler.now(), TraceEvent::WormReceived { worm, host });
        }
        let Some(mut proto) = self.protocols[host.0 as usize].take() else {
            return;
        };
        let mut cmds = std::mem::take(&mut self.cmd_scratch);
        {
            let inst = &self.worms[worm.0 as usize];
            let mut ctx = ProtocolCtx {
                now: self.scheduler.now(),
                host,
                tx_backlog: self.adapters[host.0 as usize].tx_backlog(),
                rng: &mut self.rngs[host.0 as usize],
                commands: &mut cmds,
            };
            proto.on_worm_received(&mut ctx, inst);
        }
        self.protocols[host.0 as usize] = Some(proto);
        self.apply_commands(host, &mut cmds);
        self.cmd_scratch = cmds;
    }

    pub(crate) fn notify_tx_complete(&mut self, host: HostId, worm: WormId) {
        let Some(mut proto) = self.protocols[host.0 as usize].take() else {
            return;
        };
        let mut cmds = std::mem::take(&mut self.cmd_scratch);
        {
            let inst = &self.worms[worm.0 as usize];
            let mut ctx = ProtocolCtx {
                now: self.scheduler.now(),
                host,
                tx_backlog: self.adapters[host.0 as usize].tx_backlog(),
                rng: &mut self.rngs[host.0 as usize],
                commands: &mut cmds,
            };
            proto.on_tx_complete(&mut ctx, inst);
        }
        self.protocols[host.0 as usize] = Some(proto);
        self.apply_commands(host, &mut cmds);
        self.cmd_scratch = cmds;
    }

    pub(crate) fn notify_flushed(&mut self, host: HostId, worm: WormId) {
        let Some(mut proto) = self.protocols[host.0 as usize].take() else {
            return;
        };
        let mut cmds = std::mem::take(&mut self.cmd_scratch);
        {
            let inst = &self.worms[worm.0 as usize];
            let mut ctx = ProtocolCtx {
                now: self.scheduler.now(),
                host,
                tx_backlog: self.adapters[host.0 as usize].tx_backlog(),
                rng: &mut self.rngs[host.0 as usize],
                commands: &mut cmds,
            };
            proto.on_worm_flushed(&mut ctx, inst);
        }
        self.protocols[host.0 as usize] = Some(proto);
        self.apply_commands(host, &mut cmds);
        self.cmd_scratch = cmds;
    }

    pub(crate) fn notify_timer(&mut self, host: HostId, token: u64) {
        let Some(mut proto) = self.protocols[host.0 as usize].take() else {
            return;
        };
        let mut cmds = std::mem::take(&mut self.cmd_scratch);
        {
            let mut ctx = ProtocolCtx {
                now: self.scheduler.now(),
                host,
                tx_backlog: self.adapters[host.0 as usize].tx_backlog(),
                rng: &mut self.rngs[host.0 as usize],
                commands: &mut cmds,
            };
            proto.on_timer(&mut ctx, token);
        }
        self.protocols[host.0 as usize] = Some(proto);
        self.apply_commands(host, &mut cmds);
        self.cmd_scratch = cmds;
    }

    fn apply_commands(&mut self, host: HostId, cmds: &mut Vec<Command>) {
        for cmd in cmds.drain(..) {
            match cmd {
                Command::Send(spec) => {
                    self.inject_worm(host, spec);
                }
                Command::DeliverLocal { msg } => {
                    let at = self.scheduler.now();
                    self.msgs.deliveries.push(Delivery { msg, host, at });
                    if self.trace.enabled() {
                        self.trace.push(at, TraceEvent::Delivered { msg, host });
                    }
                }
                Command::SetTimer { delay, token } => {
                    self.pending_timers += 1;
                    self.scheduler.after(delay, Event::HostTimer { host, token });
                }
            }
        }
    }

    // -- worm injection ------------------------------------------------------

    /// Create a worm instance per `spec` and queue it at `host`'s adapter.
    pub(crate) fn inject_worm(&mut self, host: HostId, mut spec: SendSpec) -> WormId {
        assert_ne!(
            host, spec.dest,
            "protocols must deliver locally instead of sending to self"
        );
        let route = match spec.route_override.take() {
            Some(r) => r,
            None => {
                let ports = self.routes.get(host, spec.dest);
                assert!(
                    !ports.is_empty(),
                    "no route from {host:?} to {:?}",
                    spec.dest
                );
                // Reuse a recycled route buffer: steady-state injection
                // performs no allocator calls.
                let mut buf = self.route_pool.take();
                buf.extend(ports.iter().map(|&p| crate::worm::RouteSym::Port(p)));
                buf
            }
        };
        let id = WormId(self.worms.len() as u32);
        let now = self.scheduler.now();
        // Cut-through sanity: following a worm that is not currently being
        // received would stall forever; treat it as fully available.
        let follow = spec.follow.filter(|w| {
            self.adapters[host.0 as usize]
                .rx_body_got
                .get(*w)
                .is_some_and(|g| g != u64::MAX)
        });
        let inst = WormInstance {
            id,
            sinks: spec.sinks.max(1),
            meta: WormMeta {
                kind: spec.kind,
                msg: spec.msg,
                injector: host,
                origin: spec.origin,
                dest: spec.dest,
                seq: spec.seq,
                hops_left: spec.hops_left,
                buffer_class: spec.buffer_class,
                frag_index: spec.frag_index,
                frag_last: spec.frag_last,
                advertised_size: spec.advertised_size,
                stage: spec.stage,
            },
            route_len: route.len() as u32,
            route,
            header_len: self.cfg.header_len,
            payload_len: spec.payload_len,
            created: spec.created,
            injected: now,
        };
        let sinks = inst.sinks.max(1) as u64;
        self.worms.push(inst);
        // Name the worm with its globally unique identity (`worm_names`):
        // boundary bytes use it to name the worm in other shards, and the
        // trace records it so sharded and sequential runs agree line for
        // line. Allocation order follows the injecting host's own event
        // order, which the canonical schedule makes identical to the
        // sequential engine's.
        let seq = &mut self.next_worm_seq[host.0 as usize];
        let tag = ((host.0 as u64) << 40) | *seq;
        *seq += 1;
        *self.worm_names.get_mut(id) = tag;
        if let Some(s) = self.shard.as_mut() {
            s.tag_to_worm.insert(tag, id);
        }
        self.stats.worms_injected += 1;
        self.stats.sinks_injected += sinks;
        self.stats.active_worms += sinks as i64;
        if self.cfg.corrupt_prob > 0.0 && self.fault_rng.gen_bool(self.cfg.corrupt_prob) {
            *self.worm_flags.get_mut(id) |= slab::FLAG_CORRUPT;
        }
        if self.trace.enabled() {
            self.trace
                .push(now, TraceEvent::WormInjected { worm: tag, host });
        }
        let a = &mut self.adapters[host.0 as usize];
        a.enqueue_tx(TxWorm::new(id, follow), spec.priority);
        if let Some(ch) = a.chan_out {
            self.kick_channel(ch);
        }
        id
    }

    // -- auditing ------------------------------------------------------------

    /// Check the conservation invariant. Call at any quiescent point; cheap
    /// enough to call after every test run.
    pub fn audit(&self) -> Result<(), String> {
        let s = &self.stats;
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
        if s.active_worms == 0 {
            for c in &self.lanes {
                if c.in_flight() != 0 {
                    return Err(format!(
                        "lane {:?} has {} bytes in flight with no active worms",
                        c.id(),
                        c.in_flight()
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
        }
        Ok(())
    }

    /// Aggregate output-link utilization across all host adapters over
    /// `elapsed` byte-times (the paper's "offered load" axis is per-host
    /// output-link utilization).
    pub fn mean_host_tx_utilization(&self, elapsed: SimTime) -> f64 {
        if self.adapters.is_empty() || elapsed == 0 {
            return 0.0;
        }
        let total: f64 = self
            .adapters
            .iter()
            .filter_map(|a| a.chan_out)
            .map(|ch| self.lanes[ch.0 as usize].utilization(elapsed))
            .sum();
        total / self.adapters.len() as f64
    }
}
