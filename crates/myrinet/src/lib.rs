//! # wormcast-myrinet — the Section 8 prototype testbed, as a model
//!
//! The paper's measurements (Figures 12 and 13) come from a real
//! installation: four Myrinet switches, eight SPARCstation-5 hosts with
//! LANai interface cards, and a Hamiltonian-circuit multicast implemented
//! in the LANai control program — store-and-forward at every hop (the
//! LANai cannot cut through), **no backpressure from the adapter into the
//! network**, and *no deadlock-prevention/reliability machinery*: a worm
//! arriving at a full input buffer is simply dropped. That last property is
//! the point of Figure 13 — the measured loss is the paper's argument that
//! a deadlock-safe buffer scheme is needed for high utilization.
//!
//! We cannot run the hardware, so this crate models it on top of the
//! byte-level simulator (see DESIGN.md, substitutions):
//!
//! * [`lanai`] — the adapter/host timing model: per-packet host send
//!   overhead, host-bus DMA bandwidth (the SBus, not the 640 Mb/s link, is
//!   the sender bottleneck), LANai forwarding overhead, and the ~25 KB
//!   worm-buffer budget;
//! * [`prototype`] — the measured system's adapter: `wormcast-core`'s
//!   Hamiltonian circuit ([`wormcast_core::HcProtocol`], store-and-forward)
//!   wrapped in the LANai host path — finite buffers with drop on overflow,
//!   the serialized host DMA queue, the forwarding overhead, and greedy
//!   saturating sources;
//! * [`experiment`] — the two measurements: single-sender and
//!   all-send/receive throughput vs packet size (Figure 12), and per-host
//!   reception loss (Figure 13).

pub mod experiment;
pub mod lanai;
pub mod prototype;

pub use experiment::{run_prototype, PrototypeConfig, PrototypeResult};
pub use lanai::LanaiModel;
