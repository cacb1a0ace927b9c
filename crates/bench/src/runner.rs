//! Generic simulation assembly and execution for the experiments.

use crate::schemes::Scheme;
use std::sync::Arc;
use wormcast_core::Membership;
use wormcast_sim::config::ConfigError;
use wormcast_sim::fault::FaultConfig;
use wormcast_sim::network::{NetStats, NetworkConfig, RunOutcome, SimMode};
use wormcast_sim::time::SimTime;
use wormcast_sim::shard::ShardedNetwork;
use wormcast_sim::trace::{Trace, TraceConfig};
use wormcast_sim::Network;
use wormcast_stats::latency::{latencies, Kind, LatencyReport};
use wormcast_topo::{ShardPlan, Topology, UpDown};
use wormcast_traffic::workload::{install_paper_sources_for, PaperWorkload};
use wormcast_traffic::GroupSet;

/// One experiment point: topology + groups + scheme + workload + windows.
/// Construct through [`SimSetup::builder`], which validates the whole
/// configuration.
pub struct SimSetup {
    pub topo: Topology,
    pub updown_root: usize,
    /// Restrict all routes to the spanning tree (Section 3 ablation). A
    /// switch-level scheme may restrict more on its own
    /// ([`Scheme::fabric`]); this only tightens it.
    pub restrict_to_tree: bool,
    pub groups: GroupSet,
    pub scheme: Scheme,
    pub workload: PaperWorkload,
    /// Engine transmission mode (never changes results, only event counts).
    pub mode: SimMode,
    pub seed: u64,
    /// Messages created before this time are excluded from statistics.
    pub warmup: SimTime,
    /// Message generation stops here (also the statistics window end).
    pub generate_until: SimTime,
    /// The simulation then drains until this deadline.
    pub drain_until: SimTime,
    /// Trace sink for the run (off by default; `Memory` lets
    /// [`run_traced`] return the full lifecycle log).
    pub trace: TraceConfig,
    /// Fault injection, folded into the network configuration.
    pub faults: FaultConfig,
    /// Shards the single simulation runs on (1 = sequential engine). A
    /// sharded run produces byte-identical statistics and traces; the
    /// builder rejects configurations the parallel engine cannot honor.
    pub shards: u32,
    /// Explicit switch→shard plan; `None` derives a balanced contiguous
    /// plan from the up/down root ([`ShardPlan::bfs_contiguous`]).
    pub shard_plan: Option<ShardPlan>,
    /// Lanes per switch-to-switch link (1 = the paper's single-lane links).
    pub lanes: u8,
}

impl SimSetup {
    /// Start building an experiment point from its four mandatory parts.
    pub fn builder(
        topo: Topology,
        groups: GroupSet,
        scheme: Scheme,
        workload: PaperWorkload,
    ) -> SimSetupBuilder {
        SimSetupBuilder {
            setup: SimSetup {
                topo,
                updown_root: 0,
                restrict_to_tree: false,
                groups,
                scheme,
                workload,
                mode: SimMode::SpanBatched,
                seed: 0,
                warmup: 0,
                generate_until: 0,
                drain_until: 0,
                trace: TraceConfig::Off,
                faults: FaultConfig::default(),
                shards: 1,
                shard_plan: None,
                lanes: 1,
            },
        }
    }

    /// Standard measurement windows around a target duration.
    pub fn windows(mut self, warmup: SimTime, measure: SimTime, drain: SimTime) -> Self {
        self.warmup = warmup;
        self.generate_until = warmup + measure;
        self.drain_until = warmup + measure + drain;
        self
    }

    /// The validated [`NetworkConfig`] this setup runs with.
    fn network_config(&self) -> Result<NetworkConfig, ConfigError> {
        NetworkConfig::builder()
            .seed(self.seed)
            .mode(self.mode)
            .trace(self.trace)
            .faults(self.faults)
            .lanes(self.lanes)
            .switchcast(self.scheme.fabric(self.restrict_to_tree).mode)
            .build()
    }
}

/// Builder for [`SimSetup`]; validates windows, workload rates and the
/// derived network configuration in [`build`](SimSetupBuilder::build).
pub struct SimSetupBuilder {
    setup: SimSetup,
}

impl SimSetupBuilder {
    /// Root switch of the up/down spanning tree.
    pub fn updown_root(mut self, root: usize) -> Self {
        self.setup.updown_root = root;
        self
    }

    /// Restrict all routes to the spanning tree (Section 3 ablation).
    pub fn restrict_to_tree(mut self, restrict: bool) -> Self {
        self.setup.restrict_to_tree = restrict;
        self
    }

    /// Engine transmission mode.
    pub fn mode(mut self, mode: SimMode) -> Self {
        self.setup.mode = mode;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.setup.seed = seed;
        self
    }

    /// Standard measurement windows around a target duration.
    pub fn windows(mut self, warmup: SimTime, measure: SimTime, drain: SimTime) -> Self {
        self.setup = self.setup.windows(warmup, measure, drain);
        self
    }

    /// Trace sink for the run.
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.setup.trace = trace;
        self
    }

    /// Fault injection for the run.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.setup.faults = faults;
        self
    }

    /// Run the single simulation on `n` parallel shards (1 = sequential).
    /// Results are byte-identical to the sequential engine; [`build`]
    /// rejects configurations the parallel engine cannot honor.
    ///
    /// [`build`]: SimSetupBuilder::build
    pub fn shards(mut self, n: u32) -> Self {
        self.setup.shards = n;
        self
    }

    /// Explicit switch→shard plan (e.g. [`ShardPlan::torus_grid`]
    /// quadrants, or [`ShardPlan::switch_hash`] for adversarial tests).
    /// Implies the plan's shard count.
    pub fn shard_plan(mut self, plan: ShardPlan) -> Self {
        self.setup.shards = plan.num_shards();
        self.setup.shard_plan = Some(plan);
        self
    }

    /// Lanes per switch-to-switch link (virtual channels); 1 — the
    /// default — reproduces the paper's single-lane Myrinet byte-for-byte.
    pub fn lanes(mut self, lanes: u8) -> Self {
        self.setup.lanes = lanes;
        self
    }

    /// Validate and produce the setup.
    pub fn build(self) -> Result<SimSetup, ConfigError> {
        let s = self.setup;
        if s.updown_root >= s.topo.num_switches() {
            return Err(ConfigError::Invalid {
                field: "updown_root",
                reason: format!(
                    "root {} out of range for {} switches",
                    s.updown_root,
                    s.topo.num_switches()
                ),
            });
        }
        if !(s.warmup <= s.generate_until && s.generate_until <= s.drain_until) {
            return Err(ConfigError::Invalid {
                field: "windows",
                reason: format!(
                    "must be ordered warmup <= generate_until <= drain_until, got {} / {} / {}",
                    s.warmup, s.generate_until, s.drain_until
                ),
            });
        }
        if !(0.0..=1.0).contains(&s.workload.offered_load) {
            return Err(ConfigError::OutOfRange {
                field: "offered_load",
                value: s.workload.offered_load,
                min: 0.0,
                max: 1.0,
            });
        }
        if !(0.0..=1.0).contains(&s.workload.multicast_prob) {
            return Err(ConfigError::OutOfRange {
                field: "multicast_prob",
                value: s.workload.multicast_prob,
                min: 0.0,
                max: 1.0,
            });
        }
        if s.shards == 0 {
            return Err(ConfigError::Invalid {
                field: "shards",
                reason: "shard count must be at least 1".into(),
            });
        }
        if s.shards > 1 {
            if s.faults.corrupt_prob != 0.0 {
                return Err(ConfigError::Unshardable {
                    feature: "fault injection",
                });
            }
            if matches!(s.scheme, Scheme::Switch(_)) {
                return Err(ConfigError::Unshardable {
                    feature: "switch-level multicast",
                });
            }
            let plan = resolve_plan(&s).map_err(|reason| ConfigError::Invalid {
                field: "shards",
                reason,
            })?;
            plan.validate(&s.topo).map_err(|reason| ConfigError::Invalid {
                field: "shard_plan",
                reason,
            })?;
        }
        // Surface network-level violations (fault probability, trace ring
        // capacity) now rather than as a panic inside `build_network`.
        s.network_config()?;
        Ok(s)
    }
}

/// The switch→shard plan a setup runs with: the explicit plan if set,
/// otherwise a balanced contiguous plan rooted at the up/down root.
fn resolve_plan(setup: &SimSetup) -> Result<ShardPlan, String> {
    match &setup.shard_plan {
        Some(p) => Ok(p.clone()),
        None => ShardPlan::bfs_contiguous(&setup.topo, setup.updown_root, setup.shards),
    }
}

/// Everything an experiment wants to know after a run: the simulator's own
/// [`RunOutcome`] plus the derived latency and delivery figures.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// How the run ended (end time, drained flag, deadlock verdict,
    /// final network counters).
    pub outcome: RunOutcome,
    pub multicast: LatencyReport,
    pub unicast: LatencyReport,
    /// Measured mean output-link utilization per host (sanity check against
    /// the configured offered load; higher, because multicast copies are
    /// retransmitted several times — the paper notes ~46% of transmitted
    /// worms were multicast at a 10% generation probability).
    pub host_tx_utilization: f64,
    /// Fraction of expected multicast deliveries that completed by the end
    /// of the drain window (1.0 below saturation).
    pub delivery_ratio: f64,
    /// Trace events discarded by ring-sink overflow (0 for the other
    /// sinks; summed across shards). A nonzero count means the returned
    /// trace is a truncated suffix of the run, not the whole timeline.
    pub trace_dropped: u64,
}

impl RunReport {
    /// The network counters at the end of the run.
    pub fn stats(&self) -> &NetStats {
        &self.outcome.stats
    }
}

/// Build the network for a setup (shared with tests and examples).
pub fn build_network(setup: &SimSetup) -> Network {
    build_network_owned(setup, |_| true)
}

/// Build the network for a setup without its traffic: routes, fabric and
/// the scheme's protocols, no source on any host — for tests that script
/// their own messages.
pub fn build_unloaded(setup: &SimSetup) -> Network {
    let ud = UpDown::compute(&setup.topo, setup.updown_root);
    let fabric = setup.scheme.fabric(setup.restrict_to_tree);
    let routes = ud.route_table(&setup.topo, fabric.restrict_routes);
    let cfg = setup
        .network_config()
        .expect("SimSetup::builder validated this configuration");
    let mut net = Network::build(&setup.topo.to_fabric_spec(), routes, cfg);
    let membership = membership_of(&setup.groups);
    setup
        .scheme
        .install(&mut net, &membership, &setup.topo, &ud, fabric);
    net
}

/// Build the network with traffic sources only on hosts the caller `owns`.
/// Everything else — fabric, routes, protocols, seeds — is identical to
/// [`build_network`], including the per-host source start times (the
/// stagger stream is drawn for skipped hosts too), so N such builds with a
/// partition of the host set behave exactly like one whole build.
fn build_network_owned(
    setup: &SimSetup,
    owned: impl Fn(wormcast_sim::engine::HostId) -> bool,
) -> Network {
    let mut net = build_unloaded(setup);
    let mut workload = setup.workload;
    workload.stop_at = Some(setup.generate_until);
    install_paper_sources_for(
        &mut net,
        workload,
        &Arc::new(setup.groups.clone()),
        setup.seed,
        owned,
    );
    net
}

/// Build the sharded engine for a setup: one full [`Network`] per shard
/// (sources filtered to owned hosts), wired through the setup's
/// [`ShardPlan`]. Errors when the configuration is not shardable (fault
/// injection, switch-level multicast, zero-delay cut, > 64 shards).
pub fn build_sharded(setup: &SimSetup) -> Result<ShardedNetwork, String> {
    let plan = resolve_plan(setup)?;
    plan.validate(&setup.topo)?;
    let host_shard = plan.host_shard(&setup.topo);
    let nets = (0..plan.num_shards())
        .map(|s| build_network_owned(setup, |h| host_shard[h.0 as usize] == s))
        .collect();
    ShardedNetwork::new(nets, plan.switch_shard().to_vec()).map_err(|e| e.to_string())
}

/// Convert a traffic-crate group set into the protocols' membership table.
pub fn membership_of(groups: &GroupSet) -> Arc<Membership> {
    Membership::from_groups(
        (0..groups.num_groups() as u8).map(|g| (g, groups.members(g).to_vec())),
    )
}

/// Run one experiment point to completion and extract statistics.
pub fn run(setup: &SimSetup) -> RunReport {
    run_traced(setup).0
}

/// Like [`run`], but also hand back the worm-lifecycle [`Trace`] (empty
/// unless the setup selected a sink). The bench JSONL writer and the
/// trace-equivalence tests use this.
pub fn run_traced(setup: &SimSetup) -> (RunReport, Trace) {
    if setup.shards > 1 {
        // Tracing shards cleanly: each lifecycle event is recorded by
        // exactly one owning shard and the logs merge into the canonical
        // stream.
        let mut sharded = build_sharded(setup)
            .expect("SimSetup::builder validated this configuration as shardable");
        let outcome = sharded.run_until(setup.drain_until);
        debug_assert!(
            outcome.deadlock.is_none(),
            "unexpected deadlock: {outcome:?}"
        );
        sharded.audit().expect("conservation invariant");
        let msgs = sharded.msgs();
        let util = sharded.mean_host_tx_utilization(setup.drain_until);
        let trace = sharded.trace();
        let report = make_report(setup, outcome, &msgs, util, trace.dropped());
        return (report, trace);
    }
    let mut net = build_network(setup);
    let outcome = net.run_until(setup.drain_until);
    debug_assert!(
        outcome.deadlock.is_none(),
        "unexpected deadlock: {outcome:?}"
    );
    net.audit().expect("conservation invariant");
    let host_tx_utilization = net.mean_host_tx_utilization(setup.drain_until);
    let report = make_report(
        setup,
        outcome,
        &net.msgs,
        host_tx_utilization,
        net.trace.dropped(),
    );
    (report, net.trace)
}

/// Derive the experiment report from a finished run's outcome and message
/// log (shared by the sequential and sharded paths).
fn make_report(
    setup: &SimSetup,
    outcome: RunOutcome,
    msgs: &wormcast_sim::network::MessageLog,
    host_tx_utilization: f64,
    trace_dropped: u64,
) -> RunReport {
    let membership = membership_of(&setup.groups);
    let multicast = latencies(msgs, Kind::Multicast, setup.warmup, setup.generate_until, None);
    let unicast = latencies(msgs, Kind::Unicast, setup.warmup, setup.generate_until, None);
    // Delivery ratio: observed deliveries / expected deliveries for
    // multicast messages in the window (expected = members - origin-member).
    let mut expected_total = 0usize;
    for rec in &msgs.created {
        if rec.created < setup.warmup || rec.created >= setup.generate_until {
            continue;
        }
        if let wormcast_sim::protocol::Destination::Multicast(g) = rec.dest {
            expected_total += membership.expected_deliveries(g, rec.origin);
        }
    }
    let delivery_ratio = if expected_total == 0 {
        1.0
    } else {
        multicast.deliveries as f64 / expected_total as f64
    };
    RunReport {
        outcome,
        multicast,
        unicast,
        host_tx_utilization,
        delivery_ratio,
        trace_dropped,
    }
}

/// Run several setups concurrently, preserving order. Worker threads pull
/// setups from a shared index, so a large sweep never oversubscribes the
/// machine: each sharded setup occupies `shards` threads of its own, so
/// the worker count is `available_parallelism / max(shards)` — setups ×
/// shards stays within the machine's parallelism.
pub fn run_parallel(setups: Vec<SimSetup>) -> Vec<RunReport> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let max_shards = setups.iter().map(|s| s.shards.max(1)).max().unwrap_or(1) as usize;
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .div_euclid(max_shards)
        .max(1)
        .min(setups.len().max(1));
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<RunReport>>> =
        setups.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(s) = setups.get(i) else { break };
                *results[i].lock().expect("no poisoned slot") = Some(run(s));
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no poisoned slot")
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_topo::torus::torus;
    use wormcast_traffic::rng::host_stream;
    use wormcast_traffic::LengthDist;

    fn sharded(scheme: Scheme) -> SimSetupBuilder {
        let groups = GroupSet::random(16, 2, 4, &mut host_stream(1, 0));
        let workload = PaperWorkload {
            offered_load: 0.05,
            multicast_prob: 0.10,
            lengths: LengthDist::Geometric { mean: 400 },
            stop_at: None,
        };
        SimSetup::builder(torus(4, 1), groups, scheme, workload).shards(2)
    }

    /// Fault injection needs the global event order; asking for it on a
    /// sharded run is a typed error, not a quiet sequential run.
    #[test]
    fn builder_rejects_sharded_fault_injection() {
        let built = sharded(crate::fig10::figure_tree_scheme())
            .faults(FaultConfig { corrupt_prob: 0.01 })
            .build();
        assert_eq!(
            built.err(),
            Some(ConfigError::Unshardable {
                feature: "fault injection"
            })
        );
    }

    /// So does switch-level multicast: a typed error, not a panic when the
    /// sharded engine is built.
    #[test]
    fn builder_rejects_sharded_switch_level_multicast() {
        let variant = wormcast_core::switchcast::SwitchcastVariant::RestrictedIdle;
        assert_eq!(
            sharded(Scheme::Switch(variant)).build().err(),
            Some(ConfigError::Unshardable {
                feature: "switch-level multicast"
            })
        );
    }
}
