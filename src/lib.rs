//! # wormcast
//!
//! A facade crate re-exporting the whole `wormcast` workspace: a
//! production-quality Rust reproduction of
//!
//! > Gerla, Palnati, Walton. *Multicasting Protocols for High-Speed,
//! > Wormhole-Routing Local Area Networks.* ACM SIGCOMM 1996.
//!
//! The workspace implements, from scratch:
//!
//! * a byte-level, deterministic discrete-event simulator of a
//!   Myrinet-class wormhole LAN ([`sim`]);
//! * the paper's topologies (8×8 torus, 24-node bidirectional shufflenet)
//!   and deadlock-free up/down routing ([`topo`]);
//! * the paper's contribution — deadlock-free, reliable, network-level
//!   multicast protocols: Hamiltonian-circuit and rooted-tree host-adapter
//!   multicast with two-buffer-class deadlock avoidance and implicit
//!   (ACK/NACK) buffer reservation, plus switch-level multicast with the
//!   Figure 2 tree route encoding ([`core`]);
//! * workload generation and statistics ([`traffic`], [`stats`]);
//! * a calibrated model of the paper's 8-host / 4-switch Myrinet prototype
//!   for the Section 8 measurements ([`myrinet`]).
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory,
//! and `EXPERIMENTS.md` for paper-vs-measured results of every figure.

pub use wormcast_core as core;
pub use wormcast_myrinet as myrinet;
pub use wormcast_sim as sim;
pub use wormcast_stats as stats;
pub use wormcast_topo as topo;
pub use wormcast_traffic as traffic;

/// One-stop imports for driving a simulation — the simulator's own
/// prelude plus the cross-crate pieces a whole experiment needs
/// ([`topo::ShardPlan`] for the parallel engine, [`topo::TopoBuilder`]
/// for fabrics).
///
/// A complete builder-based simulation compiles from this prelude alone:
///
/// ```
/// use wormcast::prelude::*;
///
/// // Two switches joined by a two-lane trunk, one host on each.
/// let spec = FabricSpec {
///     switch_ports: vec![2, 2],
///     hosts: vec![
///         HostAttach { switch: 0, port: 1 },
///         HostAttach { switch: 1, port: 1 },
///     ],
///     links: vec![LinkSpec {
///         a: (0, PortId(0)),
///         b: (1, PortId(0)),
///         delay: 2,
///     }],
///     host_link_delay: 1,
/// };
/// let cfg = NetworkConfig::builder()
///     .seed(7)
///     .mode(SimMode::SpanBatched)
///     .lanes(2)
///     .build()
///     .expect("valid configuration");
/// let mut net = Network::build(&spec, RouteTable::new(2), cfg);
/// let outcome: RunOutcome = net.run_until(1_000);
/// assert!(outcome.deadlock.is_none());
///
/// // Every trunk direction exposes its lanes through the typed surface.
/// for link in net.links() {
///     for ch in link.lane_ids() {
///         let lane: &Lane = net.lane(ch);
///         assert_eq!(lane.stats().bytes_carried, 0);
///     }
/// }
///
/// // The parallel engine's partition plans are one import away.
/// let plan = ShardPlan::switch_hash(2, 2).expect("valid plan");
/// assert_eq!(plan.num_shards(), 2);
/// ```
pub mod prelude {
    pub use wormcast_sim::prelude::*;
    pub use wormcast_topo::{ShardPlan, TopoBuilder, Topology};
}

// Compile the README's example as a doctest so it can never drift from the
// real API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;
