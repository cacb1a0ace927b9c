//! Host adapters (the Myrinet "LANai" interface cards).
//!
//! The adapter is where the paper's host-adapter multicast protocols live:
//! it recognises multicast worms, copies them to the local host, and
//! retransmits them to successors — in store-and-forward or cut-through
//! mode. The *policy* (Hamiltonian circuit, rooted tree, ACK/NACK
//! reservation, buffer classes) is supplied by an
//! [`crate::protocol::AdapterProtocol`]; this module implements the
//! *mechanism*: a serialised transmit queue with cut-through support, and a
//! receive path that — like the paper's simulator and the real Myrinet
//! implementation — never backpressures the network: a worm the protocol
//! refuses is dropped and counted.

use crate::engine::HostId;
use crate::link::ChanId;
use crate::network::Network;
use crate::protocol::Admission;

use crate::slab::FollowMap;
use crate::worm::{ByteKind, RouteSym, WireByte, WormId};
use std::collections::VecDeque;

/// A worm queued for transmission at an adapter.
#[derive(Debug)]
pub struct TxWorm {
    pub worm: WormId,
    /// Cut-through: body byte `i` may only be sent once body byte `i` of
    /// this (currently arriving) worm has been received.
    pub follow: Option<WormId>,
    /// Progress: route symbols already sent.
    pub route_sent: usize,
    /// Progress: body (header + payload) bytes already sent.
    pub body_sent: u64,
}

impl TxWorm {
    pub fn new(worm: WormId, follow: Option<WormId>) -> Self {
        TxWorm {
            worm,
            follow,
            route_sent: 0,
            body_sent: 0,
        }
    }

    /// True once transmission has begun (a priority insert must not preempt
    /// a worm already on the wire — worms are indivisible on a link).
    pub fn started(&self) -> bool {
        self.route_sent > 0 || self.body_sent > 0
    }
}

/// Receive-path state of an adapter.
#[derive(Debug, PartialEq, Eq)]
pub enum RxState {
    Idle,
    /// Accumulating a worm the protocol admitted.
    Receiving { worm: WormId, body_got: u64 },
    /// Discarding a worm the protocol refused (or that failed its checksum).
    Dropping { worm: WormId },
}

/// Per-adapter drop/delivery counters (Figure 13's "reception loss" comes
/// from `worms_refused` in the all-senders experiment).
#[derive(Debug, Default, Clone)]
pub struct AdapterCounters {
    pub worms_received: u64,
    pub bytes_received: u64,
    pub worms_refused: u64,
    pub bytes_refused: u64,
    pub worms_corrupt: u64,
    pub worms_sent: u64,
    pub bytes_sent: u64,
}

/// A host adapter.
#[derive(Debug)]
pub struct Adapter {
    pub id: HostId,
    /// Channel adapter → switch.
    pub chan_out: Option<ChanId>,
    /// Channel switch → adapter.
    pub chan_in: Option<ChanId>,
    /// Serialised transmit queue; only the front worm transmits.
    pub tx_queue: VecDeque<TxWorm>,
    pub rx: RxState,
    /// Body bytes received so far for worms that cut-through followers are
    /// tracking. `u64::MAX` marks a fully-received worm. A linear-scan map:
    /// at most a handful of worms are ever live here (see [`FollowMap`]).
    pub rx_body_got: FollowMap,
    /// Fragmented receptions (switch-level interrupt/resume) parked between
    /// fragments; other worms may complete in the gap.
    pub parked: FollowMap,
    pub counters: AdapterCounters,
}

impl Adapter {
    pub fn new(id: HostId) -> Self {
        Adapter {
            id,
            chan_out: None,
            chan_in: None,
            tx_queue: VecDeque::new(),
            rx: RxState::Idle,
            rx_body_got: FollowMap::new(),
            parked: FollowMap::new(),
            counters: AdapterCounters::default(),
        }
    }

    /// Queue depth including the worm currently transmitting.
    pub fn tx_backlog(&self) -> usize {
        self.tx_queue.len()
    }

    /// Enqueue for transmission. `priority` worms jump the queue but never
    /// preempt the worm already on the wire.
    pub fn enqueue_tx(&mut self, tx: TxWorm, priority: bool) {
        if priority {
            let insert_at = usize::from(self.tx_queue.front().is_some_and(|f| f.started()));
            self.tx_queue.insert(insert_at, tx);
        } else {
            self.tx_queue.push_back(tx);
        }
    }
}

// ---------------------------------------------------------------------------
// Adapter event logic.
// ---------------------------------------------------------------------------

impl Network {
    /// Produce the next byte for the adapter's outgoing channel, or `None`
    /// when the queue is empty or the head worm is waiting on cut-through
    /// data that has not arrived yet.
    pub(crate) fn adapter_produce_byte(&mut self, host: HostId) -> Option<WireByte> {
        enum Produced {
            Byte(WireByte),
            TailAndPop(WireByte),
        }
        let produced = {
            let a = &mut self.adapters[host.0 as usize];
            let head = a.tx_queue.front_mut()?;
            let inst = &self.worms[head.worm.0 as usize];
            if head.route_sent < inst.route.len() {
                let sym = inst.route[head.route_sent];
                head.route_sent += 1;
                Produced::Byte(WireByte {
                    worm: head.worm,
                    kind: ByteKind::Route(sym),
                })
            } else if head.body_sent < inst.body_len() {
                // Cut-through constraint: don't run ahead of the source worm.
                if let Some(src) = head.follow {
                    let got = a.rx_body_got.get(src).unwrap_or(0);
                    if got != u64::MAX && head.body_sent >= got {
                        return None;
                    }
                }
                head.body_sent += 1;
                Produced::Byte(WireByte {
                    worm: head.worm,
                    kind: ByteKind::Data,
                })
            } else {
                // Tail: the source worm must be fully received first (the
                // checksum cannot be emitted before the data exists).
                if let Some(src) = head.follow {
                    let got = a.rx_body_got.get(src).unwrap_or(0);
                    if got != u64::MAX {
                        return None;
                    }
                }
                Produced::TailAndPop(WireByte {
                    worm: head.worm,
                    kind: ByteKind::Tail,
                })
            }
        };
        match produced {
            Produced::Byte(b) => {
                self.adapters[host.0 as usize].counters.bytes_sent += 1;
                Some(b)
            }
            Produced::TailAndPop(b) => {
                let finished = {
                    let a = &mut self.adapters[host.0 as usize];
                    a.counters.bytes_sent += 1;
                    a.counters.worms_sent += 1;
                    a.tx_queue.pop_front().expect("head exists")
                };
                // Drop the cut-through bookkeeping if no one else follows it.
                if let Some(src) = finished.follow {
                    let a = &mut self.adapters[host.0 as usize];
                    if !a.tx_queue.iter().any(|t| t.follow == Some(src)) {
                        a.rx_body_got.remove(src);
                    }
                }
                // The route left the wire byte by byte; recycle its buffer
                // (wire-length accounting uses the cached `route_len`).
                let route = std::mem::take(&mut self.worms[finished.worm.0 as usize].route);
                self.route_pool.give(route);
                self.notify_tx_complete(host, finished.worm);
                Some(b)
            }
        }
    }

    /// `len` copies of `byte` arrived at the adapter from its switch: one
    /// byte, or the data run of a span (span-batched mode), credited in one
    /// event. That is byte-exact because every reader of the reception
    /// progress (the cut-through transmit pacing) moves at one byte per
    /// byte-time itself and so can never overtake the per-byte arrival
    /// slots the credit stands for.
    pub(crate) fn adapter_rx(&mut self, host: HostId, byte: WireByte, len: u64) {
        debug_assert!(
            len == 1
                || matches!(
                    self.adapters[host.0 as usize].rx,
                    RxState::Receiving { worm, .. } | RxState::Dropping { worm } if worm == byte.worm
                ),
            "span delivered to adapter {host:?} outside its worm: emission guard failed"
        );
        // IDLE fill bytes are holes in a stalled multicast worm; the
        // interface discards them.
        if matches!(byte.kind, ByteKind::Idle) {
            return;
        }
        debug_assert!(
            !matches!(byte.kind, ByteKind::Route(_)),
            "route byte leaked to host {host:?}: all route bytes must be \
             consumed by switches"
        );
        let state_action = {
            let a = &self.adapters[host.0 as usize];
            match &a.rx {
                RxState::Idle => {
                    if a.parked.contains(byte.worm) {
                        RxAction::ResumeFragment(byte.worm)
                    } else {
                        RxAction::NewWorm(byte.worm)
                    }
                }
                RxState::Receiving { worm, body_got } => {
                    debug_assert_eq!(
                        *worm, byte.worm,
                        "interleaved worms at adapter {host:?} rx"
                    );
                    match byte.kind {
                        ByteKind::Tail => {
                            // A Tail before the full body is a fragment
                            // boundary (the switch-level interrupt/resume
                            // scheme); reassembly continues.
                            if *body_got < self.worms[worm.0 as usize].body_len() {
                                RxAction::FragmentBoundary
                            } else {
                                RxAction::Complete(*worm)
                            }
                        }
                        _ => RxAction::Accumulate(*worm),
                    }
                }
                RxState::Dropping { worm } => {
                    debug_assert_eq!(*worm, byte.worm);
                    match byte.kind {
                        ByteKind::Tail => RxAction::DropComplete(*worm),
                        _ => RxAction::DropByte,
                    }
                }
            }
        };
        match state_action {
            RxAction::NewWorm(worm) => {
                // First byte of a new worm: ask the protocol whether there is
                // buffer space (the implicit-reservation admission check of
                // Figure 5). A refused worm is dropped in its entirety.
                let admission = self.protocol_admission(host, worm);
                let a = &mut self.adapters[host.0 as usize];
                match admission {
                    Admission::Accept => {
                        a.rx = RxState::Receiving { worm, body_got: 1 };
                        a.rx_body_got.insert(worm, 1);
                        a.counters.bytes_received += 1;
                        self.adapter_kick_followers(host);
                    }
                    Admission::Refuse => {
                        a.rx = RxState::Dropping { worm };
                        a.counters.bytes_refused += 1;
                    }
                }
            }
            RxAction::Accumulate(worm) => {
                let a = &mut self.adapters[host.0 as usize];
                if let RxState::Receiving { body_got, .. } = &mut a.rx {
                    *body_got += len;
                }
                if let Some(g) = a.rx_body_got.get_mut(worm) {
                    // u64::MAX marks "fully received" and must stay sticky.
                    *g = g.saturating_add(len);
                }
                a.counters.bytes_received += len;
                self.adapter_kick_followers(host);
            }
            RxAction::Complete(worm) => {
                let corrupt = self.worm_flags.get(worm) & crate::slab::FLAG_CORRUPT != 0;
                {
                    let a = &mut self.adapters[host.0 as usize];
                    a.rx = RxState::Idle;
                    a.counters.bytes_received += 1;
                    if corrupt {
                        a.counters.worms_corrupt += 1;
                        a.rx_body_got.remove(worm);
                    } else {
                        a.counters.worms_received += 1;
                        if let Some(g) = a.rx_body_got.get_mut(worm) {
                            *g = u64::MAX;
                        }
                    }
                }
                self.resolve_sink(worm);
                self.stats.active_worms -= 1;
                if corrupt {
                    self.stats.worms_corrupt += 1;
                    if self.trace.enabled() {
                        let worm = self.worm_name(worm);
                        self.trace.push(
                            self.scheduler.now(),
                            crate::trace::TraceEvent::WormCorrupt { worm, host },
                        );
                    }
                } else {
                    self.adapter_kick_followers(host);
                    self.notify_worm_received(host, worm);
                }
            }
            RxAction::FragmentBoundary => {
                // Park the reassembly; other worms may complete in between
                // fragments (their paths were released by the interrupt).
                let a = &mut self.adapters[host.0 as usize];
                if let RxState::Receiving { worm, body_got } = a.rx {
                    a.parked.insert(worm, body_got);
                    if self.trace.enabled() {
                        let worm = self.worm_name(worm);
                        self.trace.push(
                            self.scheduler.now(),
                            crate::trace::TraceEvent::FragmentParked {
                                worm,
                                host,
                                body_got,
                            },
                        );
                    }
                }
                let a = &mut self.adapters[host.0 as usize];
                a.rx = RxState::Idle;
                a.counters.bytes_received += 1;
            }
            RxAction::ResumeFragment(worm) => {
                let body_got = {
                    let a = &mut self.adapters[host.0 as usize];
                    a.parked.remove(worm).expect("parked")
                };
                if self.trace.enabled() {
                    let worm = self.worm_name(worm);
                    self.trace.push(
                        self.scheduler.now(),
                        crate::trace::TraceEvent::FragmentResumed {
                            worm,
                            host,
                            body_got,
                        },
                    );
                }
                match byte.kind {
                    ByteKind::Tail => {
                        // Zero-data continuation carrying just the tail.
                        let done = body_got >= self.worms[worm.0 as usize].body_len();
                        let a = &mut self.adapters[host.0 as usize];
                        a.rx = RxState::Receiving { worm, body_got };
                        if done {
                            // Re-dispatch as a completion.
                            self.adapter_rx(host, byte, 1);
                        } else {
                            a.parked.insert(worm, body_got);
                            a.rx = RxState::Idle;
                            a.counters.bytes_received += 1;
                            if self.trace.enabled() {
                                let worm = self.worm_name(worm);
                                self.trace.push(
                                    self.scheduler.now(),
                                    crate::trace::TraceEvent::FragmentParked {
                                        worm,
                                        host,
                                        body_got,
                                    },
                                );
                            }
                        }
                    }
                    _ => {
                        let a = &mut self.adapters[host.0 as usize];
                        a.rx = RxState::Receiving {
                            worm,
                            body_got: body_got + 1,
                        };
                        if let Some(g) = a.rx_body_got.get_mut(worm) {
                            // u64::MAX (fully received) stays sticky.
                            *g = g.saturating_add(1);
                        }
                        a.counters.bytes_received += 1;
                        self.adapter_kick_followers(host);
                    }
                }
            }
            RxAction::DropByte => {
                self.adapters[host.0 as usize].counters.bytes_refused += len;
            }
            RxAction::DropComplete(worm) => {
                {
                    let a = &mut self.adapters[host.0 as usize];
                    a.rx = RxState::Idle;
                    a.counters.bytes_refused += 1;
                    a.counters.worms_refused += 1;
                }
                self.resolve_sink(worm);
                self.stats.active_worms -= 1;
                self.stats.worms_refused += 1;
            }
        }
    }

    /// A byte of a followed worm arrived (or the worm completed): if the
    /// transmit head is a cut-through follower it may be able to move again.
    fn adapter_kick_followers(&mut self, host: HostId) {
        let a = &self.adapters[host.0 as usize];
        let head_follows = a
            .tx_queue
            .front()
            .is_some_and(|h| h.follow.is_some());
        if head_follows {
            if let Some(ch) = a.chan_out {
                self.kick_channel(ch);
            }
        }
    }
}

enum RxAction {
    NewWorm(WormId),
    ResumeFragment(WormId),
    Accumulate(WormId),
    Complete(WormId),
    FragmentBoundary,
    DropByte,
    DropComplete(WormId),
}

/// Expand a plain port-list route into route symbols.
pub fn ports_to_route(ports: &[u8]) -> Vec<RouteSym> {
    ports.iter().map(|&p| RouteSym::Port(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_enqueue_respects_started_head() {
        let mut a = Adapter::new(HostId(0));
        let mut head = TxWorm::new(WormId(0), None);
        head.route_sent = 2; // already on the wire
        a.tx_queue.push_back(head);
        a.tx_queue.push_back(TxWorm::new(WormId(1), None));
        a.enqueue_tx(TxWorm::new(WormId(2), None), true);
        let order: Vec<u32> = a.tx_queue.iter().map(|t| t.worm.0).collect();
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn priority_enqueue_preempts_unstarted_head() {
        let mut a = Adapter::new(HostId(0));
        a.tx_queue.push_back(TxWorm::new(WormId(0), None));
        a.enqueue_tx(TxWorm::new(WormId(2), None), true);
        let order: Vec<u32> = a.tx_queue.iter().map(|t| t.worm.0).collect();
        assert_eq!(order, vec![2, 0]);
    }

    #[test]
    fn non_priority_appends() {
        let mut a = Adapter::new(HostId(0));
        a.enqueue_tx(TxWorm::new(WormId(0), None), false);
        a.enqueue_tx(TxWorm::new(WormId(1), None), false);
        let order: Vec<u32> = a.tx_queue.iter().map(|t| t.worm.0).collect();
        assert_eq!(order, vec![0, 1]);
    }

    #[test]
    fn ports_to_route_maps_ports() {
        let r = ports_to_route(&[3, 1, 4]);
        assert_eq!(
            r,
            vec![RouteSym::Port(3), RouteSym::Port(1), RouteSym::Port(4)]
        );
    }
}
