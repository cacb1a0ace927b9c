//! # wormcast-core — deadlock-free reliable multicast for wormhole LANs
//!
//! The paper's contribution, implemented as pluggable host-adapter protocols
//! for the `wormcast-sim` fabric plus the switch-level multicast host logic:
//!
//! * [`hamiltonian`] — multicasting on a Hamiltonian circuit (Section 5):
//!   ascending-ID circuits, hop-count termination, optional cut-through,
//!   optional return-to-origin confirmation, and total ordering by
//!   serialising through the lowest-ID member;
//! * [`manager`] — the dynamic multicast group manager Section 8 announces:
//!   JOIN/LEAVE requests, versioned UPDATE dissemination, and per-host
//!   local views, each feeding the host's own [`HcProtocol`];
//! * [`tree`] — multicasting on a rooted tree (Section 6): start-at-root
//!   (totally ordered) and broadcast-from-originator (two-buffer-class
//!   climb/descend) modes;
//! * [`reliable`] — the paper's *implicit buffer reservation* (Figure 5):
//!   acquire-as-you-go admission by advertised size, ACK/NACK, and
//!   timeout-retransmission;
//! * [`buffers`] — the **two-buffer-class** pools (Figures 6–7) that make
//!   buffer deadlocks impossible when multicasts propagate in ascending
//!   host-ID order with at most one reversal;
//! * [`unicast_repeat`] — the baseline stock-Myrinet behaviour: repeated
//!   unicast from the source (optionally broadcast-and-filter);
//! * [`credit`] — the centralized credit-manager baseline of
//!   Verstoep/Langendoen/Bal (IR-399, 1996) that the paper argues against;
//! * [`ordering`] — total-order verification across group members;
//! * [`ipmap`] — the Section 8.1 IP class-D → 8-bit Myrinet group mapping.

pub mod buffers;
pub mod credit;
pub mod group;
pub mod hamiltonian;
pub mod ipmap;
pub mod manager;
pub mod ordering;
pub mod reliable;
mod sequencer;
pub mod switchcast;
pub mod tags;
pub mod tree;
pub mod unicast_repeat;

pub use buffers::{BufferPool, PoolConfig, Reservation};
pub use group::Membership;
pub use hamiltonian::{HcConfig, HcProtocol};
pub use reliable::{AckNackConfig, Reliability};
pub use tree::{TreeConfig, TreeMode, TreeProtocol};
pub use unicast_repeat::{UnicastRepeatConfig, UnicastRepeatProtocol};
