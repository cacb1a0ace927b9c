//! A pass-through `AdapterProtocol` that counts and times the `core`
//! layer's callbacks from outside. Layer run only.

use crate::clock::thread_cpu_ns;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wormcast_bench::schemes::Scheme;
use wormcast_core::{HcProtocol, Membership, TreeProtocol};
use wormcast_sim::engine::HostId;
use wormcast_sim::protocol::{AdapterProtocol, Admission, AppMessage, Command, ProtocolCtx};
use wormcast_sim::worm::WormInstance;
use wormcast_sim::Network;
use wormcast_topo::tree::MulticastTree;

/// The callback kinds, in the order of [`CallbackCounters::calls`].
pub const KINDS: [&str; 6] = [
    "on_generate",
    "on_header",
    "on_worm_received",
    "on_tx_complete",
    "on_timer",
    "on_worm_flushed",
];

/// Totals over every host's protocol instance. Relaxed atomics: these are
/// statistics that publish no other data, read after the run has ended.
#[derive(Default)]
pub struct CallbackCounters {
    calls: [AtomicU64; 6],
    cpu_ns: [AtomicU64; 6],
    commands: AtomicU64,
}

impl CallbackCounters {
    pub fn calls_of(&self, kind: usize) -> u64 {
        self.calls[kind].load(Ordering::Relaxed)
    }

    /// CPU time inside callbacks of this kind, less `clock_cost` per call
    /// (what timing a call adds to it, `clock::thread_clock_cost_ns`).
    pub fn cpu_ns_of(&self, kind: usize, clock_cost: u64) -> u64 {
        self.cpu_ns[kind]
            .load(Ordering::Relaxed)
            .saturating_sub(clock_cost * self.calls_of(kind))
    }

    pub fn commands(&self) -> u64 {
        self.commands.load(Ordering::Relaxed)
    }

    pub fn total_calls(&self) -> u64 {
        (0..KINDS.len()).map(|k| self.calls_of(k)).sum()
    }

    pub fn total_cpu_ns(&self, clock_cost: u64) -> u64 {
        (0..KINDS.len())
            .map(|k| self.cpu_ns_of(k, clock_cost))
            .sum()
    }
}

/// Wraps one host's protocol. Every callback goes to `inner` with a context
/// of its own, so the commands it emits can be counted, and those commands
/// are then replayed into the network's context in the order they were
/// emitted: the network sees exactly what it would have seen.
pub struct Counting {
    inner: Box<dyn AdapterProtocol>,
    counters: Arc<CallbackCounters>,
    scratch: Vec<Command>,
}

impl Counting {
    pub fn new(inner: Box<dyn AdapterProtocol>, counters: Arc<CallbackCounters>) -> Self {
        Counting {
            inner,
            counters,
            scratch: Vec::new(),
        }
    }

    fn relay<R>(
        &mut self,
        kind: usize,
        ctx: &mut ProtocolCtx,
        call: impl FnOnce(&mut dyn AdapterProtocol, &mut ProtocolCtx) -> R,
    ) -> R {
        let t0 = thread_cpu_ns();
        let result = {
            let mut inner_ctx = ProtocolCtx::new(
                ctx.now,
                ctx.host,
                ctx.tx_backlog,
                &mut *ctx.rng,
                &mut self.scratch,
            );
            call(self.inner.as_mut(), &mut inner_ctx)
        };
        let dt = thread_cpu_ns() - t0;
        self.counters.calls[kind].fetch_add(1, Ordering::Relaxed);
        self.counters.cpu_ns[kind].fetch_add(dt, Ordering::Relaxed);
        self.counters
            .commands
            .fetch_add(self.scratch.len() as u64, Ordering::Relaxed);
        for command in self.scratch.drain(..) {
            match command {
                Command::Send(spec) => ctx.send(spec),
                Command::DeliverLocal { msg } => ctx.deliver_local(msg),
                Command::SetTimer { delay, token } => ctx.set_timer(delay, token),
            }
        }
        result
    }
}

impl AdapterProtocol for Counting {
    fn on_generate(&mut self, ctx: &mut ProtocolCtx, msg: AppMessage) {
        self.relay(0, ctx, |p, c| p.on_generate(c, msg))
    }

    fn on_header(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) -> Admission {
        self.relay(1, ctx, |p, c| p.on_header(c, worm))
    }

    fn on_worm_received(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        self.relay(2, ctx, |p, c| p.on_worm_received(c, worm))
    }

    fn on_tx_complete(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        self.relay(3, ctx, |p, c| p.on_tx_complete(c, worm))
    }

    fn on_timer(&mut self, ctx: &mut ProtocolCtx, token: u64) {
        self.relay(4, ctx, |p, c| p.on_timer(c, token))
    }

    fn on_worm_flushed(&mut self, ctx: &mut ProtocolCtx, worm: &WormInstance) {
        self.relay(5, ctx, |p, c| p.on_worm_flushed(c, worm))
    }
}

/// Install, on every host, a [`Counting`] around the protocol instance
/// `Scheme::install` would have built. `trees` are the scheme's per-group
/// trees (`Scheme::build_trees`), needed by the tree scheme only.
pub fn install_counting(
    scheme: &Scheme,
    net: &mut Network,
    membership: &Arc<Membership>,
    trees: &Arc<HashMap<u8, MulticastTree>>,
    counters: &Arc<CallbackCounters>,
) {
    for h in 0..net.num_hosts() as u32 {
        let host = HostId(h);
        let inner: Box<dyn AdapterProtocol> = match *scheme {
            Scheme::Hc(cfg) => Box::new(HcProtocol::new(host, cfg, Arc::clone(membership))),
            Scheme::Tree(cfg, _) => Box::new(TreeProtocol::new(host, cfg, Arc::clone(trees))),
            ref other => panic!("no workload runs {other:?}; wrap it here when one does"),
        };
        net.set_protocol(host, Box::new(Counting::new(inner, Arc::clone(counters))));
    }
}
