//! # wormcast-bench — experiment harness
//!
//! Reproduces every figure of the paper's evaluation plus the ablation
//! studies DESIGN.md calls out. Each `benches/` target is a thin printer
//! around this library so results are also reachable from tests.
//!
//! * [`fig10`] — average multicast latency vs offered load, 8×8 torus
//!   (Hamiltonian store-and-forward / Hamiltonian cut-through / tree).
//! * [`fig11`] — average delay vs load for multicast proportions
//!   {0.05, 0.10, 0.15, 0.20} on the 24-node bidirectional shufflenet.
//! * Figures 12 and 13 are produced by `wormcast-myrinet`'s prototype
//!   model; see `benches/fig12_prototype_throughput.rs` and
//!   `benches/fig13_prototype_loss.rs`.
//! * [`runner`] and [`schemes`] — shared simulation assembly.
//! * [`perf`] — the perf harness behind `bin/perf.rs`: one grid of pinned
//!   operating points, one row schema, one baseline diff.
//! * [`json`] — typed field reads from a parsed JSON value, for the files
//!   read by hand (perf's baseline, `examples/run_config`'s config).

pub mod fig10;
pub mod fig11;
pub mod json;
pub mod perf;
pub mod runner;
pub mod schemes;
pub mod trace_io;

pub use runner::{run, run_parallel, run_traced, RunReport, SimSetup, SimSetupBuilder};
pub use schemes::Scheme;
pub use trace_io::{validate_jsonl, write_jsonl};
pub use wormcast_sim::network::RunOutcome;
