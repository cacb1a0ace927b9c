//! The host side of the network: traffic sources, the protocol plug-in
//! callbacks, the commands they answer with, and worm injection.

use crate::adapter::TxWorm;
use crate::engine::{Event, HostId};
use crate::network::{Delivery, MessageRecord, Network};
use crate::protocol::{
    AdapterProtocol, Admission, AppMessage, Command, ProtocolCtx, SendSpec, TrafficSource,
};
use crate::slab;
use crate::time::SimTime;
use crate::trace::{Trace, TraceEvent};
use crate::worm::{MessageId, RouteSym, WormId, WormInstance, WormMeta};
use rand::Rng;

impl Network {
    /// Install the protocol instance for a host.
    pub fn set_protocol(&mut self, host: HostId, p: Box<dyn AdapterProtocol>) {
        self.protocols[host.0 as usize] = Some(p);
    }

    /// Post a timer to a host's protocol from outside the simulation — the
    /// "device driver" path: a control process prodding its adapter. The
    /// protocol receives `on_timer(token)` after `delay`.
    pub fn post_timer(&mut self, host: HostId, delay: SimTime, token: u64) {
        self.pending_timers += 1;
        self.scheduler
            .after(delay, Event::HostTimer { host, token });
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

    pub(crate) fn handle_inject(&mut self, host: HostId) {
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
            self.with_protocol(host, |proto, ctx, _, _| proto.on_generate(ctx, app));
        }
    }

    // -- protocol dispatch ---------------------------------------------------

    /// Run one callback of `host`'s protocol, then apply the commands it
    /// issued. The protocol is lent out for the call, so nothing it asks
    /// for re-enters the network before it is back in place; `call` also
    /// gets the worm table and the trace (what it records precedes what
    /// the commands record). With no protocol installed the answer is
    /// `R::default()`.
    fn with_protocol<R: Default>(
        &mut self,
        host: HostId,
        call: impl FnOnce(&mut dyn AdapterProtocol, &mut ProtocolCtx, &[WormInstance], &mut Trace) -> R,
    ) -> R {
        let Some(mut proto) = self.protocols[host.0 as usize].take() else {
            return R::default();
        };
        let mut cmds = std::mem::take(&mut self.cmd_scratch);
        let mut ctx = ProtocolCtx {
            now: self.scheduler.now(),
            host,
            tx_backlog: self.adapters[host.0 as usize].tx_backlog(),
            rng: &mut self.rngs[host.0 as usize],
            commands: &mut cmds,
        };
        let answer = call(proto.as_mut(), &mut ctx, &self.worms, &mut self.trace);
        self.protocols[host.0 as usize] = Some(proto);
        self.apply_commands(host, &mut cmds);
        self.cmd_scratch = cmds;
        answer
    }

    /// The first byte of `worm` reached `host`: accept it (also the answer
    /// of a host without a protocol) or drop it.
    pub(crate) fn protocol_admission(&mut self, host: HostId, worm: WormId) -> Admission {
        let name = self.worm_name(worm);
        self.with_protocol(host, |proto, ctx, worms, trace| {
            let admission = proto.on_header(ctx, &worms[worm.0 as usize]);
            if admission == Admission::Refuse && trace.enabled() {
                trace.push(ctx.now, TraceEvent::WormRefused { worm: name, host });
            }
            admission
        })
    }

    pub(crate) fn notify_worm_received(&mut self, host: HostId, worm: WormId) {
        self.stats.worms_delivered += 1;
        if self.trace.enabled() {
            let worm = self.worm_name(worm);
            self.trace.push(
                self.scheduler.now(),
                TraceEvent::WormReceived { worm, host },
            );
        }
        self.with_protocol(host, |proto, ctx, worms, _| {
            proto.on_worm_received(ctx, &worms[worm.0 as usize])
        });
    }

    pub(crate) fn notify_tx_complete(&mut self, host: HostId, worm: WormId) {
        self.with_protocol(host, |proto, ctx, worms, _| {
            proto.on_tx_complete(ctx, &worms[worm.0 as usize])
        });
    }

    pub(crate) fn notify_flushed(&mut self, host: HostId, worm: WormId) {
        self.with_protocol(host, |proto, ctx, worms, _| {
            proto.on_worm_flushed(ctx, &worms[worm.0 as usize])
        });
    }

    pub(crate) fn notify_timer(&mut self, host: HostId, token: u64) {
        self.with_protocol(host, |proto, ctx, _, _| proto.on_timer(ctx, token));
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
                    self.scheduler
                        .after(delay, Event::HostTimer { host, token });
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
                buf.extend(ports.iter().map(|&p| RouteSym::Port(p)));
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
}
