//! Worms: the unit of transfer in a wormhole network.
//!
//! A worm on the wire is a sequence of bytes: first the source route (one
//! routing byte per switch on the path — or, for switch-level multicast, the
//! linearized tree encoding of the paper's Figure 2), then a small logical
//! header, then the payload, then a trailing checksum byte. Each switch
//! consumes the leading route byte(s) addressed to it and recomputes the
//! trailing checksum, so the worm shrinks by one byte per switch hop exactly
//! as in Myrinet.
//!
//! The simulator is *content-light*: it never materialises payload bytes.
//! A byte on the wire is a [`WireByte`] token — the worm it belongs to plus
//! what kind of byte it is — and everything else is looked up in the worm
//! arena ([`WormInstance`]).

use crate::engine::HostId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Index into the network's worm arena. Each *transmission* (an original
/// injection, a forwarded multicast copy, a retransmission, a fragment) is
/// its own instance.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WormId(pub u32);

/// Application-level message identity. All worm instances that carry (a copy
/// of) the same application message share one `MessageId`; latency and
/// ordering statistics are keyed by it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct MessageId(pub u64);

/// One symbol of an encoded source route.
///
/// Unicast routes are plain `Port` bytes. Switch-level multicast routes use
/// the paper's Figure 2 encoding: after a `Port` byte an optional `Ptr`
/// gives the length of the subtree route to stamp out of that port, and
/// `End` terminates the directive at a switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum RouteSym {
    /// Take this output port.
    Port(u8),
    /// The next `n` route bytes belong to the subtree behind the preceding
    /// port (a byte-count pointer in the paper).
    Ptr(u8),
    /// End-of-route marker.
    End,
    /// The broadcast address (Section 3): replicate to every down link of
    /// the up/down tree and every attached host, stamping `Broadcast`
    /// again on the switch-facing branches.
    Broadcast,
}

/// What kind of byte a [`WireByte`] is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ByteKind {
    /// A routing byte, consumed by switches.
    Route(RouteSym),
    /// A header or payload byte.
    Data,
    /// An IDLE fill byte: a hole in a stalled multicast worm (Section 3 of
    /// the paper). Occupies link bandwidth, discarded at the destination.
    Idle,
    /// The final (checksum) byte of the worm.
    Tail,
}

/// One byte on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WireByte {
    pub worm: WormId,
    pub kind: ByteKind,
}

/// Classification of a worm for adapters and statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum WormKind {
    /// Ordinary point-to-point data worm.
    Unicast,
    /// A host-adapter-multicast data worm for the given group.
    Multicast { group: u8 },
    /// A switch-level multicast data worm (replicated in the fabric).
    SwitchMulticast { group: u8 },
    /// A protocol control worm (ACK/NACK, credits, tokens...). The tag is
    /// protocol-defined; see `wormcast-core`.
    Control(u8),
}

impl WormKind {
    /// True for the data-bearing kinds (unicast and both multicast flavours).
    pub fn is_data(self) -> bool {
        !matches!(self, WormKind::Control(_))
    }

    /// The multicast group, if this is a multicast worm of either flavour.
    pub fn group(self) -> Option<u8> {
        match self {
            WormKind::Multicast { group } | WormKind::SwitchMulticast { group } => Some(group),
            _ => None,
        }
    }
}

/// Logical header of a worm. On a real Myrinet these fields are the first
/// few payload bytes; the simulator carries them out-of-band but *accounts*
/// for them in the worm's wire length via `header_len`.
#[derive(Clone, Debug)]
pub struct WormMeta {
    pub kind: WormKind,
    /// The application message this worm carries (for multicast copies,
    /// the original message).
    pub msg: MessageId,
    /// Originating host of this *instance* (the forwarding adapter for a
    /// multicast copy, not the original source).
    pub injector: HostId,
    /// Original source of the application message.
    pub origin: HostId,
    /// Final consumer of this instance (the next hop in a host-adapter
    /// multicast structure, or the unicast destination).
    pub dest: HostId,
    /// Multicast sequence number (for total-ordering checks and fragment
    /// reassembly).
    pub seq: u32,
    /// Remaining adapter-level hops (Hamiltonian-circuit hop count field).
    pub hops_left: u16,
    /// Buffer class for the two-class deadlock-avoidance rule (1 or 2).
    pub buffer_class: u8,
    /// Fragment index when a worm was split by the switch-level
    /// interrupt/resume scheme; 0 for unfragmented worms.
    pub frag_index: u16,
    /// True when this is the final fragment (always true when unfragmented).
    pub frag_last: bool,
    /// Payload size in bytes as advertised in the header — used by the
    /// implicit-buffer-reservation admission check (Figure 5 of the paper).
    pub advertised_size: u32,
    /// Protocol-defined stage marker (see `SendSpec::stage`).
    pub stage: u8,
}

/// A worm instance in flight (or queued) somewhere in the network.
#[derive(Clone, Debug)]
pub struct WormInstance {
    pub id: WormId,
    pub meta: WormMeta,
    /// Number of hosts this worm terminates at (1 for unicast; the leaf
    /// count of the tree for a switch-level multicast).
    pub sinks: u32,
    /// Encoded source route as injected. Switches consume from the front.
    /// Reclaimed into the network's route pool once the worm has fully
    /// left its source adapter — use [`Self::route_len`] for accounting.
    pub route: Vec<RouteSym>,
    /// Length of the route as injected, cached so wire-length accounting
    /// survives the route buffer's reclamation.
    pub route_len: u32,
    /// Logical header length in bytes (accounted on the wire).
    pub header_len: u32,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// When the application message was created (for latency statistics).
    pub created: SimTime,
    /// When this instance started transmission at its injector.
    pub injected: SimTime,
}

impl WormInstance {
    /// Total number of bytes this worm occupies on the wire as injected:
    /// route + header + payload + trailing checksum byte.
    pub fn wire_len(&self) -> u64 {
        self.route_len as u64 + self.header_len as u64 + self.payload_len as u64 + 1
    }

    /// Number of data bytes between the route and the tail.
    pub fn body_len(&self) -> u64 {
        self.header_len as u64 + self.payload_len as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> WormMeta {
        WormMeta {
            kind: WormKind::Unicast,
            msg: MessageId(1),
            injector: HostId(0),
            origin: HostId(0),
            dest: HostId(1),
            seq: 0,
            hops_left: 0,
            buffer_class: 1,
            frag_index: 0,
            frag_last: true,
            advertised_size: 100,
            stage: 0,
        }
    }

    #[test]
    fn wire_len_accounts_route_header_payload_tail() {
        let w = WormInstance {
            id: WormId(0),
            meta: meta(),
            sinks: 1,
            route: vec![RouteSym::Port(1), RouteSym::Port(2), RouteSym::Port(0)],
            route_len: 3,
            header_len: 8,
            payload_len: 100,
            created: 0,
            injected: 0,
        };
        assert_eq!(w.wire_len(), 3 + 8 + 100 + 1);
        assert_eq!(w.body_len(), 108);
    }

    #[test]
    fn kind_helpers() {
        assert!(WormKind::Unicast.is_data());
        assert!(WormKind::Multicast { group: 3 }.is_data());
        assert!(!WormKind::Control(0).is_data());
        assert_eq!(WormKind::Multicast { group: 3 }.group(), Some(3));
        assert_eq!(WormKind::SwitchMulticast { group: 9 }.group(), Some(9));
        assert_eq!(WormKind::Unicast.group(), None);
    }
}
