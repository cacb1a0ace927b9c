//! The protocol plug-in interface.
//!
//! Host-adapter multicast protocols (Hamiltonian circuit, rooted tree,
//! repeated unicast, the credit baseline — all in `wormcast-core`) implement
//! [`AdapterProtocol`]. The simulator calls the protocol on every
//! interesting adapter event; the protocol responds by emitting
//! [`Command`]s, which the network applies after the callback returns. This
//! command-queue shape keeps protocols free of simulator internals and makes
//! every protocol decision replayable.

use crate::engine::HostId;
use crate::time::SimTime;
use crate::worm::{MessageId, WormId, WormInstance, WormKind};
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// Where an application message wants to go.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Destination {
    Unicast(HostId),
    /// A multicast group id (the paper's 8-bit group space; 255 = broadcast).
    Multicast(u8),
}

/// An application-level message handed to the protocol for transmission.
#[derive(Clone, Copy, Debug)]
pub struct AppMessage {
    pub msg: MessageId,
    pub origin: HostId,
    pub dest: Destination,
    pub payload_len: u32,
    pub created: SimTime,
}

/// Admission decision when a worm's header reaches an adapter: accept it
/// into buffer space, or refuse (drop) it — the refusal is what a NACK
/// reports in the implicit-reservation scheme of Figure 5. A host without
/// a protocol accepts everything, as [`AdapterProtocol::on_header`] does
/// by default.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Admission {
    #[default]
    Accept,
    Refuse,
}

/// Everything a protocol may ask the network to do.
#[derive(Clone, Debug)]
pub enum Command {
    /// Inject a worm towards `dest` (a unicast path through the fabric).
    Send(SendSpec),
    /// Record delivery of `msg` to this adapter's local host. This is the
    /// moment multicast latency stops counting for this member.
    DeliverLocal { msg: MessageId },
    /// Arrange for `on_timer(token)` to fire `delay` byte-times from now.
    SetTimer { delay: SimTime, token: u64 },
}

/// Parameters of a worm transmission.
#[derive(Clone, Debug)]
pub struct SendSpec {
    pub dest: HostId,
    pub kind: WormKind,
    /// Application message carried (for copies: the original message).
    pub msg: MessageId,
    /// Original source of the message.
    pub origin: HostId,
    /// Creation time of the original message (latency baseline).
    pub created: SimTime,
    pub seq: u32,
    pub hops_left: u16,
    pub buffer_class: u8,
    pub payload_len: u32,
    /// Size advertised in the header for the admission check downstream.
    pub advertised_size: u32,
    /// Control worms may jump the transmit queue.
    pub priority: bool,
    /// Cut-through: transmit in lockstep behind this incoming worm.
    pub follow: Option<WormId>,
    pub frag_index: u16,
    pub frag_last: bool,
    /// Protocol-defined stage marker (e.g. "relay to circuit starter" vs
    /// "circulating copy"). Carried verbatim in the worm header.
    pub stage: u8,
    /// Explicit source route (switch-level multicast tree encodings and
    /// broadcast routes). `None` uses the unicast route table for `dest`.
    pub route_override: Option<Vec<crate::worm::RouteSym>>,
    /// Hosts this worm terminates at (leaf count of a switch-level
    /// multicast tree; 1 for everything else).
    pub sinks: u32,
}

impl SendSpec {
    /// A data worm carrying `msg` to `dest` with sensible defaults.
    pub fn data(msg: &AppMessage, dest: HostId, kind: WormKind) -> Self {
        SendSpec {
            dest,
            kind,
            msg: msg.msg,
            origin: msg.origin,
            created: msg.created,
            seq: 0,
            hops_left: 0,
            buffer_class: 1,
            payload_len: msg.payload_len,
            advertised_size: msg.payload_len,
            priority: false,
            follow: None,
            frag_index: 0,
            frag_last: true,
            stage: 0,
            route_override: None,
            sinks: 1,
        }
    }

    /// A copy of a received worm, forwarded to `dest`.
    pub fn forward(inst: &WormInstance, dest: HostId) -> Self {
        SendSpec {
            dest,
            kind: inst.meta.kind,
            msg: inst.meta.msg,
            origin: inst.meta.origin,
            created: inst.created,
            seq: inst.meta.seq,
            hops_left: inst.meta.hops_left,
            buffer_class: inst.meta.buffer_class,
            payload_len: inst.payload_len,
            advertised_size: inst.meta.advertised_size,
            priority: false,
            follow: None,
            frag_index: inst.meta.frag_index,
            frag_last: inst.meta.frag_last,
            stage: inst.meta.stage,
            route_override: None,
            sinks: 1,
        }
    }

    /// A small control worm (ACK/NACK, credit messages...).
    pub fn control(tag: u8, msg: MessageId, origin: HostId, dest: HostId) -> Self {
        SendSpec {
            dest,
            kind: WormKind::Control(tag),
            msg,
            origin,
            created: 0,
            seq: 0,
            hops_left: 0,
            buffer_class: 1,
            payload_len: 4,
            advertised_size: 0,
            priority: true,
            follow: None,
            frag_index: 0,
            frag_last: true,
            stage: 0,
            route_override: None,
            sinks: 1,
        }
    }
}

/// Context handed to every protocol callback.
pub struct ProtocolCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The host this protocol instance runs on.
    pub host: HostId,
    /// Worms queued (or transmitting) at this adapter right now — the
    /// "is the output port available" test for cut-through decisions.
    pub tx_backlog: usize,
    /// Per-host deterministic RNG (for retry jitter and the like).
    pub rng: &'a mut SmallRng,
    pub(crate) commands: &'a mut Vec<Command>,
}

impl<'a> ProtocolCtx<'a> {
    /// Construct a context by hand — for protocol unit tests and custom
    /// harnesses. During a simulation the network builds the contexts.
    pub fn new(
        now: SimTime,
        host: HostId,
        tx_backlog: usize,
        rng: &'a mut SmallRng,
        commands: &'a mut Vec<Command>,
    ) -> Self {
        ProtocolCtx {
            now,
            host,
            tx_backlog,
            rng,
            commands,
        }
    }

    /// Inject a worm. See [`SendSpec`].
    pub fn send(&mut self, spec: SendSpec) {
        self.commands.push(Command::Send(spec));
    }

    /// Deliver `msg` to the local host (records the delivery timestamp).
    pub fn deliver_local(&mut self, msg: MessageId) {
        self.commands.push(Command::DeliverLocal { msg });
    }

    /// Request an `on_timer(token)` callback after `delay` byte-times.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.commands.push(Command::SetTimer { delay, token });
    }
}

/// A host-adapter protocol. Implementations live in `wormcast-core`.
///
/// All callbacks are invoked synchronously from the event loop; effects are
/// requested through [`ProtocolCtx`] commands. `Send` so a [`Network`] can
/// be moved onto a shard worker thread ([`crate::shard::ShardedNetwork`]).
///
/// [`Network`]: crate::network::Network
pub trait AdapterProtocol: Send {
    /// The local application generated a message to send.
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, msg: AppMessage);

    /// The first byte of a worm arrived: is there buffer space for its
    /// advertised size? Refusing drops the worm (the paper's NACK path).
    /// The default accepts everything (infinite buffering).
    fn on_header(&mut self, _ctx: &mut ProtocolCtx, _worm: &WormInstance) -> Admission {
        Admission::Accept
    }

    /// A worm was fully received (checksum good).
    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance);

    /// The adapter finished transmitting a worm (tail on the wire). Useful
    /// for releasing buffer space and starting the next sequential copy.
    fn on_tx_complete(&mut self, _ctx: &mut ProtocolCtx, _worm: &WormInstance) {}

    /// A timer requested via [`ProtocolCtx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut ProtocolCtx, _token: u64) {}

    /// One of this host's worms was flushed from the fabric by a Backward
    /// Reset (the switch-level multicast-IDLE scheme). The paper's source
    /// "retransmits the unicast message after a random time out"; the
    /// default silently accepts the loss.
    fn on_worm_flushed(&mut self, _ctx: &mut ProtocolCtx, _worm: &WormInstance) {}
}

/// A per-host traffic source: decides when the next message is generated and
/// what it looks like. Implementations live in `wormcast-traffic`. `Send`
/// for the same reason as [`AdapterProtocol`]: sharded runs move each
/// engine onto its own worker thread.
pub trait TrafficSource: Send {
    /// Called at each injection event for this host. Returns the message to
    /// send now (if any) and the delay until the next injection event (or
    /// `None` to stop generating).
    fn next(&mut self, now: SimTime, host: HostId) -> (Option<SourceMessage>, Option<SimTime>);
}

/// What a traffic source produces; the network assigns the [`MessageId`] and
/// wraps it into an [`AppMessage`].
#[derive(Clone, Copy, Debug)]
pub struct SourceMessage {
    pub dest: Destination,
    pub payload_len: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sendspec_data_defaults() {
        let msg = AppMessage {
            msg: MessageId(7),
            origin: HostId(1),
            dest: Destination::Multicast(3),
            payload_len: 400,
            created: 123,
        };
        let s = SendSpec::data(&msg, HostId(2), WormKind::Multicast { group: 3 });
        assert_eq!(s.dest, HostId(2));
        assert_eq!(s.msg, MessageId(7));
        assert_eq!(s.payload_len, 400);
        assert_eq!(s.advertised_size, 400);
        assert_eq!(s.created, 123);
        assert!(!s.priority);
        assert!(s.frag_last);
    }

    #[test]
    fn control_worms_are_priority_and_tiny() {
        let s = SendSpec::control(1, MessageId(9), HostId(0), HostId(5));
        assert!(s.priority);
        assert!(s.payload_len <= 8);
        assert_eq!(s.kind, WormKind::Control(1));
    }

    #[test]
    fn ctx_collects_commands() {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(1);
        let mut cmds = Vec::new();
        let mut ctx = ProtocolCtx {
            now: 10,
            host: HostId(0),
            tx_backlog: 0,
            rng: &mut rng,
            commands: &mut cmds,
        };
        ctx.deliver_local(MessageId(4));
        ctx.set_timer(100, 42);
        assert_eq!(cmds.len(), 2);
        assert!(matches!(cmds[0], Command::DeliverLocal { msg: MessageId(4) }));
        assert!(matches!(
            cmds[1],
            Command::SetTimer {
                delay: 100,
                token: 42
            }
        ));
    }
}
