//! Switch-level multicast (Section 3 of the paper).
//!
//! Replicating a worm inside the crossbar needs three new mechanisms:
//!
//! 1. **A linearized tree source route** (the paper's Figure 2). A unicast
//!    route is a list of port bytes; a multicast route is a *tree* of them.
//!    This module implements an explicit, unambiguous variant of the paper's
//!    `port / pointer / end-marker` encoding: every branch is
//!    `Port(p) Ptr(n) <n subtree symbols>`, and every directive ends with an
//!    `End` marker. (The paper's sketch omits the pointer on the last
//!    branch; we always carry it, trading one byte per directive for a
//!    parser with no lookahead — a divergence documented in DESIGN.md.)
//! 2. **Backpressure aggregation** over the branches of the tree: a byte
//!    advances only when *every* branch can take it; stalled progress is
//!    covered on non-blocked branches by IDLE fills (mode
//!    [`SwitchcastMode::RestrictedIdle`]), by interrupting and later
//!    resuming with re-stamped headers ([`SwitchcastMode::RootedInterrupt`]),
//!    or IDLE fills plus flushing of blocked unicasts
//!    ([`SwitchcastMode::IdleFlush`]).
//! 3. **Deadlock avoidance** rules, which are the modes' reason to exist.
//!
//! Replication runs through the switch's own stages (`switch.rs`), with
//! the state of one replicating input in [`ReplicaState`]:
//!
//! * **route decoder** — a directive is decoded once, when its last symbol
//!   has been popped; each branch's prefix is sliced out of the symbols.
//!   The broadcast address opens one branch per broadcast port instead.
//! * **input control** — every branch requests its physical port, is
//!   granted an output slot and releases it through the same
//!   `switch_request_output` / `switch_grant` / `switch_release_output`
//!   every worm head uses.
//! * **output control** — a granted slot pulls its branch's prefix, then
//!   the body in lockstep with its siblings (a byte leaves the slack buffer
//!   once every branch has sent it). With nothing to send, the mode's stall
//!   rule applies: IDLE fill (V1, V3, whose IDLE accounting flushes blocked
//!   unicasts), or a fragment tail that interrupts the branch until the
//!   body moves on (V2).

use crate::engine::SwitchId;
use crate::link::{ChanId, NodeRef};
use crate::network::Network;
use crate::slackbuf::SlackBuf;
use crate::switch::InState;
use crate::worm::{ByteKind, RouteSym, WireByte, WormId, WormKind};

/// Which Section-3 scheme the switches run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SwitchcastMode {
    /// No switch-level multicast: `SwitchMulticast` worms are illegal.
    Off,
    /// Scheme 1: all worms restricted to the up/down spanning tree; blocked
    /// multicasts fill their non-blocked branches with IDLEs.
    RestrictedIdle,
    /// Scheme 2: multicasts serialized through the up/down root; blocked
    /// multicasts interrupt non-blocked branches (releasing the paths) and
    /// resume as fragments that destinations reassemble.
    RootedInterrupt,
    /// Scheme 3: like `RestrictedIdle`, but a unicast blocked behind a port
    /// that has been transmitting IDLEs for a while is flushed with a
    /// Backward Reset and retransmitted by its source.
    IdleFlush,
}

// ---------------------------------------------------------------------------
// Tree route encoding (Figure 2).
// ---------------------------------------------------------------------------

/// Where a branch leads after its output port.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Subroute {
    /// The port leads directly to a host: nothing to stamp.
    Host,
    /// The port leads to another switch with its own directive.
    Next(Directive),
}

/// The multicast routing directive consumed by one switch: an ordered list
/// of (output port, subtree route) branches.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Directive {
    pub branches: Vec<(u8, Subroute)>,
}

/// Errors from encoding or decoding tree routes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RouteCodeError {
    /// A subtree's encoding exceeds the 255-byte pointer range.
    SubtreeTooLong { len: usize },
    /// The directive has no branches (a multicast to nobody).
    EmptyDirective,
    /// Decoder: unexpected symbol or truncated input.
    Malformed { at: usize },
}

impl std::fmt::Display for RouteCodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteCodeError::SubtreeTooLong { len } => {
                write!(f, "subtree encoding of {len} bytes exceeds pointer range")
            }
            RouteCodeError::EmptyDirective => write!(f, "directive with no branches"),
            RouteCodeError::Malformed { at } => write!(f, "malformed route at symbol {at}"),
        }
    }
}

impl std::error::Error for RouteCodeError {}

/// Encode a directive tree into the linear route representation.
///
/// ```
/// use wormcast_sim::switchcast::{encode, decode, Directive, Subroute};
/// // Replicate to port 3 (a host) and port 1 (a switch that forwards to
/// // its port 5).
/// let d = Directive { branches: vec![
///     (3, Subroute::Host),
///     (1, Subroute::Next(Directive { branches: vec![(5, Subroute::Host)] })),
/// ]};
/// let wire = encode(&d).unwrap();
/// let (back, used) = decode(&wire).unwrap();
/// assert_eq!(back, d);
/// assert_eq!(used, wire.len());
/// ```
pub fn encode(d: &Directive) -> Result<Vec<RouteSym>, RouteCodeError> {
    if d.branches.is_empty() {
        return Err(RouteCodeError::EmptyDirective);
    }
    let mut out = Vec::new();
    for (port, sub) in &d.branches {
        out.push(RouteSym::Port(*port));
        let sub_syms = match sub {
            Subroute::Host => Vec::new(),
            Subroute::Next(inner) => encode(inner)?,
        };
        if sub_syms.len() > u8::MAX as usize {
            return Err(RouteCodeError::SubtreeTooLong {
                len: sub_syms.len(),
            });
        }
        out.push(RouteSym::Ptr(sub_syms.len() as u8));
        out.extend(sub_syms);
    }
    out.push(RouteSym::End);
    Ok(out)
}

/// Decode one directive from the front of `syms`, returning it and the
/// number of symbols consumed.
pub fn decode(syms: &[RouteSym]) -> Result<(Directive, usize), RouteCodeError> {
    let mut i = 0;
    let mut branches = Vec::new();
    loop {
        match syms.get(i) {
            Some(RouteSym::End) => {
                i += 1;
                break;
            }
            Some(RouteSym::Port(p)) => {
                let port = *p;
                i += 1;
                let Some(RouteSym::Ptr(n)) = syms.get(i) else {
                    return Err(RouteCodeError::Malformed { at: i });
                };
                let n = *n as usize;
                i += 1;
                if syms.len() < i + n {
                    return Err(RouteCodeError::Malformed { at: i });
                }
                let sub = if n == 0 {
                    Subroute::Host
                } else {
                    let (inner, used) = decode(&syms[i..i + n])?;
                    if used != n {
                        return Err(RouteCodeError::Malformed { at: i + used });
                    }
                    Subroute::Next(inner)
                };
                i += n;
                branches.push((port, sub));
            }
            _ => return Err(RouteCodeError::Malformed { at: i }),
        }
    }
    if branches.is_empty() {
        return Err(RouteCodeError::EmptyDirective);
    }
    Ok((Directive { branches }, i))
}

/// Build a directive tree by merging unicast port-paths that all start at
/// the same switch. Paths sharing a port prefix share the corresponding
/// branch (they traverse the same switches). Each path's final port is the
/// hop onto its destination host.
pub fn merge_paths(paths: &[&[u8]]) -> Result<Directive, RouteCodeError> {
    if paths.is_empty() || paths.iter().any(|p| p.is_empty()) {
        return Err(RouteCodeError::EmptyDirective);
    }
    // Group by first port, preserving first-seen order (determinism).
    let mut order: Vec<u8> = Vec::new();
    let mut groups: Vec<Vec<&[u8]>> = Vec::new();
    for p in paths {
        let head = p[0];
        match order.iter().position(|&o| o == head) {
            Some(ix) => groups[ix].push(p),
            None => {
                order.push(head);
                groups.push(vec![p]);
            }
        }
    }
    let mut branches = Vec::new();
    for (head, group) in order.into_iter().zip(groups) {
        let rests: Vec<&[u8]> = group
            .iter()
            .map(|p| &p[1..])
            .filter(|r| !r.is_empty())
            .collect();
        let sub = if rests.is_empty() {
            Subroute::Host
        } else {
            debug_assert_eq!(
                rests.len(),
                group.len(),
                "a path ending at a switch another path continues through \
                 means a destination host *is* a switch — invalid input"
            );
            Subroute::Next(merge_paths(&rests)?)
        };
        branches.push((head, sub));
    }
    Ok(Directive { branches })
}

impl Directive {
    /// Number of leaf (host) ports reached by this directive.
    pub fn num_leaves(&self) -> usize {
        self.branches
            .iter()
            .map(|(_, s)| match s {
                Subroute::Host => 1,
                Subroute::Next(d) => d.num_leaves(),
            })
            .sum()
    }

    /// Depth of the tree in switches.
    pub fn depth(&self) -> usize {
        1 + self
            .branches
            .iter()
            .map(|(_, s)| match s {
                Subroute::Host => 0,
                Subroute::Next(d) => d.depth(),
            })
            .max()
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Replication: the switch's stages, run for a replicating input.
// ---------------------------------------------------------------------------

impl SwitchcastMode {
    /// The stall rule: what a granted branch with no body byte to send puts
    /// on the wire. `RestrictedIdle` and `IdleFlush` fill with IDLE and keep
    /// the path; `RootedInterrupt` ends the fragment with a tail, which
    /// releases the path, once the fragment carries a body byte (`has_body`)
    /// and sends nothing (`None`) before that.
    fn stall_byte(self, has_body: bool) -> Option<ByteKind> {
        match self {
            SwitchcastMode::RestrictedIdle | SwitchcastMode::IdleFlush => Some(ByteKind::Idle),
            SwitchcastMode::RootedInterrupt => has_body.then_some(ByteKind::Tail),
            SwitchcastMode::Off => unreachable!("replica in Off mode"),
        }
    }
}

/// Where a replica branch stands in the switch's one request → grant →
/// release cycle (`switch_request_output`, `switch_grant`,
/// `switch_release_output`), the cycle every worm head goes through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BranchPhase {
    /// Queued at its physical port's arbiter.
    Requested,
    /// Holds output slot `slot`, which pulls the branch's bytes.
    Granted { slot: u8 },
    /// `RootedInterrupt`: ended a fragment and released its slot; requests
    /// the port again, for a new fragment, once a body byte is there.
    Interrupted,
    /// Sent its tail.
    Done,
}

/// One branch of a replicating worm (one fragment's worth under
/// `RootedInterrupt`: each resume stamps the prefix again).
#[derive(Debug)]
pub(crate) struct BranchState {
    /// The physical output port the directive names.
    pub(crate) port: u8,
    pub(crate) phase: BranchPhase,
    /// Route symbols stamped ahead of the body: the subtree's directive, or
    /// the broadcast address, for the switch behind `port`.
    prefix: Vec<RouteSym>,
    prefix_sent: usize,
    /// Absolute body cursor: bytes of the worm body sent so far.
    body_sent: u64,
    /// `body_sent` when the current fragment began.
    frag_base: u64,
}

impl BranchState {
    fn new(port: u8, prefix: Vec<RouteSym>) -> Self {
        BranchState {
            port,
            phase: BranchPhase::Requested,
            prefix,
            prefix_sent: 0,
            body_sent: 0,
            frag_base: 0,
        }
    }
}

/// What a replicating input is doing.
#[derive(Debug)]
enum ReplicaPhase {
    /// Decoding the head: the symbols popped so far, and how many more of
    /// them the subtree being read owns (0 at the directive's top level).
    Parsing { syms: Vec<RouteSym>, owed: usize },
    /// Replicating the body to the branches.
    Active,
}

/// What the switch still owes once a replica branch has produced a byte.
enum FollowUp {
    /// Nothing: a route symbol or an IDLE fill.
    Nothing,
    /// A body byte: `dequeued` when every branch had sent it and the slack
    /// buffer let go of it. A sibling may resume either way.
    Body { dequeued: bool },
    /// A fragment tail: release the slot.
    Release,
    /// The tail: release the slot, then resume siblings or finish the worm.
    Tail,
}

/// Replication state attached to a switch input port while a
/// `SwitchMulticast` worm passes through it.
#[derive(Debug)]
pub struct ReplicaState {
    pub worm: WormId,
    phase: ReplicaPhase,
    pub(crate) branches: Vec<BranchState>,
    /// Body bytes already popped from the slack buffer (consumed by every
    /// branch). `buf[i]` holds absolute body byte `body_released + i`.
    body_released: u64,
}

impl ReplicaState {
    pub(crate) fn new(worm: WormId) -> Self {
        ReplicaState {
            worm,
            phase: ReplicaPhase::Parsing {
                syms: Vec::new(),
                owed: 0,
            },
            branches: Vec::new(),
            body_released: 0,
        }
    }

    /// Route decoder: take the next head symbol, and return the whole head
    /// once it is complete — a directive at its top-level `End`, or the
    /// broadcast address.
    fn decode(&mut self, sym: RouteSym) -> Option<Vec<RouteSym>> {
        let ReplicaPhase::Parsing { syms, owed } = &mut self.phase else {
            unreachable!("decoding an active replica")
        };
        syms.push(sym);
        match sym {
            _ if *owed > 0 => *owed -= 1,
            RouteSym::Ptr(n) => *owed = n.into(),
            RouteSym::Port(_) => {}
            RouteSym::End | RouteSym::Broadcast => return Some(std::mem::take(syms)),
        }
        None
    }

    /// Input control: the branch for physical port `port` holds output
    /// slot `slot` now.
    pub(crate) fn grant(&mut self, port: u8, slot: u8) {
        let b = self
            .branches
            .iter_mut()
            .find(|b| b.port == port)
            .expect("a granted port has a branch");
        debug_assert_eq!(b.phase, BranchPhase::Requested);
        b.phase = BranchPhase::Granted { slot };
    }

    /// Absolute index one past the last body/tail byte currently available
    /// in `buf` for this worm.
    fn available(&self, buf: &SlackBuf) -> u64 {
        let n: u64 = buf
            .runs()
            .take_while(|(b, _)| b.worm == self.worm)
            .map(|(_, n)| n)
            .sum();
        self.body_released + n
    }

    /// Whether the worm's tail is in `buf`. A granted branch then sends
    /// through to it whatever its siblings do: it reads ahead of them.
    pub(crate) fn tail_buffered(&self, buf: &SlackBuf) -> bool {
        buf.runs()
            .take_while(|(b, _)| b.worm == self.worm)
            .any(|(b, _)| b.kind == ByteKind::Tail)
    }

    /// Output control: advance the branch holding output slot `out` by one
    /// byte — a prefix symbol, the next body byte, or, with none there,
    /// what `mode`'s stall rule sends.
    fn produce(
        &mut self,
        out: u8,
        buf: &mut SlackBuf,
        mode: SwitchcastMode,
    ) -> Option<(ByteKind, FollowUp)> {
        let avail = self.available(buf);
        let released = self.body_released;
        let b = self
            .branches
            .iter_mut()
            .find(|b| b.phase == BranchPhase::Granted { slot: out })?;
        if let Some(&sym) = b.prefix.get(b.prefix_sent) {
            b.prefix_sent += 1;
            return Some((ByteKind::Route(sym), FollowUp::Nothing));
        }
        if b.body_sent < avail {
            let byte = buf[(b.body_sent - released) as usize];
            debug_assert_eq!(byte.worm, self.worm);
            b.body_sent += 1;
            if byte.kind == ByteKind::Tail {
                b.phase = BranchPhase::Done;
                return Some((byte.kind, FollowUp::Tail));
            }
            let dequeued = self.pop_consumed(buf);
            return Some((byte.kind, FollowUp::Body { dequeued }));
        }
        let stall = mode.stall_byte(b.body_sent > b.frag_base)?;
        if stall == ByteKind::Tail {
            b.phase = BranchPhase::Interrupted;
            return Some((stall, FollowUp::Release));
        }
        Some((stall, FollowUp::Nothing))
    }

    /// Pop the body bytes every unfinished branch has sent. Never the
    /// tail: finishing pops it, so the state change is atomic.
    fn pop_consumed(&mut self, buf: &mut SlackBuf) -> bool {
        let sent = |b: &BranchState| match b.phase {
            BranchPhase::Done => u64::MAX,
            _ => b.body_sent,
        };
        let min = self.branches.iter().map(sent).min().unwrap_or(u64::MAX);
        let mut popped = false;
        while min > self.body_released && buf.front().is_some_and(|b| b.kind != ByteKind::Tail) {
            buf.pop_front();
            self.body_released += 1;
            popped = true;
        }
        popped
    }
}

impl Network {
    /// A replicating input on an arrival. Route decoder first: pop the
    /// head's symbols as they reach the front, one at a time so that each
    /// dequeue's GO leaves when it would per-byte; once the head is
    /// complete open its branches, each requesting its port like any head.
    /// Then every arrival kicks the granted branches and resumes the
    /// interrupted ones.
    pub(crate) fn replica_advance(&mut self, sw: SwitchId, port: u8) {
        loop {
            let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
            let InState::Replicating(rep) = &mut inp.state else {
                unreachable!("advancing a non-replicating input")
            };
            if matches!(rep.phase, ReplicaPhase::Active) {
                break;
            }
            let sym = match inp.buf.front() {
                Some(b) if b.worm == rep.worm => match b.kind {
                    ByteKind::Route(sym) => sym,
                    other => unreachable!(
                        "non-route byte {other:?} while parsing a directive at {sw:?}:{port}"
                    ),
                },
                _ => return, // wait for more symbols
            };
            inp.buf.pop_front();
            let head = rep.decode(sym);
            self.after_slack_dequeue(sw, port);
            if let Some(head) = head {
                let branches = self.replica_branches(sw, &head);
                let ports: Vec<u8> = branches.iter().map(|b| b.port).collect();
                let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
                let InState::Replicating(rep) = &mut inp.state else {
                    unreachable!()
                };
                rep.branches = branches;
                rep.phase = ReplicaPhase::Active;
                for p in ports {
                    self.switch_request_output(sw, p, port);
                }
                return;
            }
        }
        let kicks: Vec<ChanId> = {
            let swm = &self.switches[sw.0 as usize];
            let InState::Replicating(rep) = &swm.inputs[port as usize].state else {
                unreachable!()
            };
            rep.branches
                .iter()
                .filter_map(|b| match b.phase {
                    BranchPhase::Granted { slot } => swm.outputs[slot as usize].chan_out,
                    _ => None,
                })
                .collect()
        };
        self.replica_resume(sw, port);
        for ch in kicks {
            self.kick_channel(ch);
        }
    }

    /// Route decoder: the branches a complete head opens at `sw` — one per
    /// `Port(p) Ptr(n) <n symbols>` entry of a directive, stamping those `n`
    /// symbols (the subtree's own directive) ahead of the body; or, for the
    /// broadcast address, one per broadcast port.
    fn replica_branches(&self, sw: SwitchId, head: &[RouteSym]) -> Vec<BranchState> {
        if head != [RouteSym::Broadcast] {
            let mut branches = Vec::new();
            let mut rest = head;
            while let [RouteSym::Port(p), RouteSym::Ptr(n), tail @ ..] = rest {
                let (prefix, after) = tail.split_at(usize::from(*n));
                branches.push(BranchState::new(*p, prefix.to_vec()));
                rest = after;
            }
            debug_assert_eq!(rest, [RouteSym::End], "malformed directive at {sw:?}");
            return branches;
        }
        assert!(
            !self.broadcast_ports.is_empty(),
            "broadcast worm without set_broadcast_ports()"
        );
        // Replicate to every down-tree link and host port. The arrival port
        // is NOT excluded: at the root it points back into the subtree the
        // worm climbed out of (which must be flooded too), and on the way
        // down it is the parent link, which is never in the broadcast port
        // set. The originator therefore receives its own broadcast and
        // filters it — uniform sink accounting. Branches that lead to
        // another switch stamp the broadcast address again; host branches
        // get nothing.
        let swm = &self.switches[sw.0 as usize];
        self.broadcast_ports[sw.0 as usize]
            .iter()
            .map(|&port| {
                let to_switch = swm.outputs[swm.slot_of(port, 0) as usize]
                    .chan_out
                    .is_some_and(|ch| {
                        matches!(self.lanes[ch.0 as usize].dst().node, NodeRef::Switch(_))
                    });
                let prefix = if to_switch {
                    vec![RouteSym::Broadcast]
                } else {
                    Vec::new()
                };
                BranchState::new(port, prefix)
            })
            .collect()
    }

    /// Resume the interrupted branches that have a body byte to send again
    /// — each requests its port for a new fragment — or finish the worm
    /// once every branch is done. A branch interrupted just before the tail
    /// is done instead: the tail that ended its fragment stands where this
    /// one would (the whole body, or the fragment an upstream switch cut),
    /// so resuming would send a fragment of the tail alone.
    fn replica_resume(&mut self, sw: SwitchId, port: u8) {
        let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
        let InState::Replicating(rep) = &mut inp.state else {
            unreachable!("resuming a branch of a finished replica")
        };
        let avail = rep.available(&inp.buf);
        let released = rep.body_released;
        let mut resumed = Vec::new();
        for b in &mut rep.branches {
            if b.phase != BranchPhase::Interrupted || b.body_sent >= avail {
                continue;
            }
            if inp.buf[(b.body_sent - released) as usize].kind == ByteKind::Tail {
                b.phase = BranchPhase::Done;
            } else {
                b.phase = BranchPhase::Requested;
                b.prefix_sent = 0;
                b.frag_base = b.body_sent;
                resumed.push(b.port);
            }
        }
        if rep.branches.iter().all(|b| b.phase == BranchPhase::Done) {
            self.replica_finish(sw, port);
        }
        for p in resumed {
            self.switch_request_output(sw, p, port);
        }
    }

    /// Output control for a replica: the next byte of the branch holding
    /// output slot `out` of `sw`, whose owner is input `owner`, and what it
    /// leaves to do. IDLE fill is counted on the slot: after
    /// [`MULTICAST_IDLE_THRESHOLD`] byte-times of it the slot is flagged
    /// multicast-IDLE, and under `IdleFlush` the unicasts waiting on its
    /// port are flushed. A real byte clears both.
    pub(crate) fn replica_produce_byte(
        &mut self,
        sw: SwitchId,
        out: u8,
        owner: u8,
    ) -> Option<WireByte> {
        let mode = self.cfg.switchcast;
        let now = self.scheduler.now();
        let swm = &mut self.switches[sw.0 as usize];
        let inp = &mut swm.inputs[owner as usize];
        let InState::Replicating(rep) = &mut inp.state else {
            unreachable!("replica output owned by a non-replicating input")
        };
        let worm = rep.worm;
        let (kind, follow_up) = rep.produce(out, &mut inp.buf, mode)?;
        let o = &mut swm.outputs[out as usize];
        let flush = if kind == ByteKind::Idle {
            let since = *o.idle_since.get_or_insert(now);
            let flagged = !o.multicast_idle && now - since >= MULTICAST_IDLE_THRESHOLD;
            o.multicast_idle |= flagged;
            flagged && mode == SwitchcastMode::IdleFlush
        } else {
            o.idle_since = None;
            o.multicast_idle = false;
            false
        };
        if flush {
            self.switchcast_flush_waiters(sw, out);
        }
        if kind == ByteKind::Tail {
            self.open_stream(worm);
        }
        match follow_up {
            FollowUp::Nothing => {}
            FollowUp::Body { dequeued } => {
                if dequeued {
                    self.after_slack_dequeue(sw, owner);
                }
                // Progress may let an interrupted sibling resume even
                // without new arrivals (the whole worm may be buffered).
                self.replica_resume(sw, owner);
            }
            FollowUp::Release => self.switch_release_output(sw, out),
            FollowUp::Tail => {
                self.switch_release_output(sw, out);
                self.replica_resume(sw, owner);
            }
        }
        Some(WireByte { worm, kind })
    }

    /// Every branch is done: pop the tail, which ends the stream the input
    /// took in, and free the input.
    fn replica_finish(&mut self, sw: SwitchId, port: u8) {
        let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
        let tail = inp.buf.pop_front().expect("replica completion pops the tail");
        debug_assert_eq!(tail.kind, ByteKind::Tail, "replica completion must pop the tail");
        inp.state = InState::Idle;
        self.end_stream(tail.worm);
        self.after_slack_dequeue(sw, port);
        self.switch_advance_input(sw, port);
    }

    /// Flush every unicast worm waiting on the port of multicast-IDLE output
    /// slot `out` (the Section 3 scheme 3): the worm is removed from the
    /// network hop by hop (a Backward Reset) and its source is told to
    /// retransmit after a random timeout.
    fn switchcast_flush_waiters(&mut self, sw: SwitchId, out: u8) {
        let port = self.switches[sw.0 as usize].port_of_slot(out);
        let waiting = self.switches[sw.0 as usize].arbs[port as usize]
            .waiting
            .clone();
        for in_port in waiting {
            let flushable = match self.switches[sw.0 as usize].inputs[in_port as usize].state {
                InState::Requesting { worm, out: o }
                    if o == port
                        && matches!(self.worms[worm].meta.kind, WormKind::Unicast) =>
                {
                    Some(worm)
                }
                _ => None,
            };
            if let Some(worm) = flushable {
                // Remove it from the arbitration queue first.
                self.switches[sw.0 as usize].arbs[port as usize]
                    .waiting
                    .retain(|&w| w != in_port);
                self.flush_worm(worm, sw, in_port);
            }
        }
    }

    /// Remove every trace of `worm` from the fabric, starting at the
    /// blocked input `(sw, in_port)` and walking upstream to the source
    /// adapter; in-flight bytes are discarded on arrival. The source's
    /// protocol is notified so it can retransmit (`on_worm_flushed`).
    ///
    /// The real Myrinet would do this with a Backward Reset control symbol
    /// creeping hop by hop; the simulator performs the walk atomically
    /// (the propagation-delay difference is a few byte-times and no other
    /// event can interleave meaningfully).
    ///
    /// The worm stays in the worm window until no byte of it can still
    /// arrive: every byte left on a wire is on the input lane of an input
    /// the walk visits (nothing downstream of the blocked head, nothing
    /// upstream of the first input no longer forwarding it), so each
    /// arrives within that lane's delay of now. `release_flushed` frees the
    /// slot in the first tick past the longest of those delays.
    pub(crate) fn flush_worm(&mut self, worm: crate::worm::WormId, sw: SwitchId, in_port: u8) {
        debug_assert!(
            self.flush_pending.iter().all(|&(_, w)| w != worm),
            "{worm:?} flushed twice"
        );
        let injector = self.worms[worm].meta.injector;
        let now = self.scheduler.now();
        let mut last_arrival = now;
        let mut cur = Some((sw, in_port));
        while let Some((s, p)) = cur {
            let (release, chan_in) = {
                let inp = &mut self.switches[s.0 as usize].inputs[p as usize];
                // Drop this worm's bytes (they are contiguous at the front).
                while matches!(inp.buf.front(), Some(b) if b.worm == worm) {
                    inp.buf.pop_front();
                }
                // Fix the state machine.
                let release = match &inp.state {
                    InState::Forwarding { worm: w, out } if *w == worm => Some(*out),
                    _ => None,
                };
                if matches!(
                    &inp.state,
                    InState::Requesting { worm: w, .. } | InState::Forwarding { worm: w, .. }
                        if *w == worm
                ) {
                    inp.state = InState::Idle;
                }
                (release, inp.chan_in)
            };
            if let Some(out) = release {
                self.switch_release_output(s, out);
            }
            if let Some(ch) = chan_in {
                last_arrival = last_arrival.max(now + self.lanes[ch.0 as usize].delay());
            }
            self.after_slack_dequeue(s, p);
            self.switch_advance_input(s, p);
            // Walk upstream.
            cur = match chan_in {
                Some(ch) => match self.lanes[ch.0 as usize].src().node {
                    NodeRef::Switch(up) => {
                        // Find the upstream output feeding this channel and
                        // its owner; continue only if that owner is still
                        // moving OUR worm.
                        let src_port = self.lanes[ch.0 as usize].src().port;
                        let owner =
                            self.switches[up.0 as usize].outputs[src_port.index()].owner;
                        match owner {
                            Some(op)
                                if matches!(
                                    &self.switches[up.0 as usize].inputs[op as usize].state,
                                    InState::Forwarding { worm: w, .. } if *w == worm
                                ) =>
                            {
                                self.switch_release_output(up, src_port.0);
                                Some((up, op))
                            }
                            _ => None,
                        }
                    }
                    NodeRef::Host(h) => {
                        // The source adapter: abort the transmission.
                        let a = &mut self.adapters[h.0 as usize];
                        if let Some(pos) = a.tx_queue.iter().position(|t| t.worm == worm) {
                            a.tx_queue.remove(pos);
                        }
                        debug_assert_eq!(h, injector, "flush walked to a foreign adapter");
                        None
                    }
                },
                None => None,
            };
        }
        self.resolve_sink(worm);
        self.stats.worms_flushed += 1;
        self.stats.active_worms -= 1;
        if self.trace.enabled() {
            let at = self.scheduler.now();
            let worm = self.worm_name(worm);
            self.trace
                .push(at, crate::trace::TraceEvent::WormFlushed { worm, host: injector });
        }
        self.notify_flushed(injector, worm);
        self.flush_pending.push((last_arrival, worm));
    }
}

/// IDLE fill duration after which an output is flagged `multicast-IDLE`
/// (Section 3, scheme 3).
pub const MULTICAST_IDLE_THRESHOLD: crate::time::SimTime = 512;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn host(p: u8) -> (u8, Subroute) {
        (p, Subroute::Host)
    }

    #[test]
    fn encode_single_host_branch() {
        let d = Directive {
            branches: vec![host(3)],
        };
        let e = encode(&d).unwrap();
        assert_eq!(e, vec![RouteSym::Port(3), RouteSym::Ptr(0), RouteSym::End]);
    }

    #[test]
    fn encode_empty_directive_fails() {
        assert_eq!(
            encode(&Directive::default()),
            Err(RouteCodeError::EmptyDirective)
        );
    }

    #[test]
    fn roundtrip_figure2_shape() {
        // The paper's Figure 2 tree: at the first switch, branches on ports
        // 1 (leading to a switch with ports 2 and 5), 3 (leading to a switch
        // with ports 4 and 1), and 7 (a host).
        let d = Directive {
            branches: vec![
                (
                    1,
                    Subroute::Next(Directive {
                        branches: vec![host(2), host(5)],
                    }),
                ),
                (
                    3,
                    Subroute::Next(Directive {
                        branches: vec![host(4), host(1)],
                    }),
                ),
                host(7),
            ],
        };
        let e = encode(&d).unwrap();
        let (back, used) = decode(&e).unwrap();
        assert_eq!(back, d);
        assert_eq!(used, e.len());
        assert_eq!(d.num_leaves(), 5);
        assert_eq!(d.depth(), 2);
    }

    #[test]
    fn decode_rejects_truncation() {
        let d = Directive {
            branches: vec![host(1), host(2)],
        };
        let e = encode(&d).unwrap();
        for cut in 0..e.len() {
            assert!(decode(&e[..cut]).is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn decode_rejects_garbage_start() {
        assert!(decode(&[RouteSym::Ptr(1)]).is_err());
        assert!(decode(&[]).is_err());
    }

    #[test]
    fn merge_paths_single() {
        let p1: &[u8] = &[1, 2, 3];
        let d = merge_paths(&[p1]).unwrap();
        assert_eq!(d.num_leaves(), 1);
        assert_eq!(d.depth(), 3);
        let e = encode(&d).unwrap();
        let (back, _) = decode(&e).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn merge_paths_shares_prefix() {
        // Two destinations behind the same first hop, one behind another.
        let a: &[u8] = &[1, 2];
        let b: &[u8] = &[1, 4];
        let c: &[u8] = &[6];
        let d = merge_paths(&[a, b, c]).unwrap();
        assert_eq!(d.branches.len(), 2);
        assert_eq!(d.num_leaves(), 3);
        match &d.branches[0] {
            (1, Subroute::Next(inner)) => {
                assert_eq!(inner.branches, vec![host(2), host(4)]);
            }
            other => panic!("unexpected branch {other:?}"),
        }
        assert_eq!(d.branches[1], host(6));
    }

    #[test]
    fn merge_paths_rejects_empty() {
        assert!(merge_paths(&[]).is_err());
        let empty: &[u8] = &[];
        assert!(merge_paths(&[empty]).is_err());
    }

    /// A random tree of depth ≤ `depth`, up to three branches a level.
    fn gen_tree(rng: &mut SmallRng, depth: u8) -> Directive {
        let n = rng.gen_range(1..=3usize);
        let branches = (0..n)
            .map(|_| {
                let port = rng.gen_range(0..16u8);
                let sub = if depth == 0 || rng.gen_bool(0.5) {
                    Subroute::Host
                } else {
                    Subroute::Next(gen_tree(rng, depth - 1))
                };
                (port, sub)
            })
            .collect();
        Directive { branches }
    }

    /// encode/decode round-trips arbitrary small trees. 256 seeded draws.
    #[test]
    fn prop_roundtrip() {
        for case in 0..256 {
            let seed = SmallRng::seed_from_u64(case).gen_range(0..10_000u64);
            let d = gen_tree(&mut SmallRng::seed_from_u64(seed), 3);
            let e = encode(&d).unwrap();
            let (back, used) = decode(&e).unwrap();
            assert_eq!(back, d, "case {case}");
            assert_eq!(used, e.len(), "case {case}");
        }
    }

    /// Merging random path sets yields a tree whose leaf count equals the
    /// number of distinct paths, and whose encoding round-trips. 256
    /// seeded draws.
    #[test]
    fn prop_merge_paths() {
        for case in 0..256 {
            let rng = &mut SmallRng::seed_from_u64(case);
            let paths: Vec<Vec<u8>> = (0..rng.gen_range(1..6usize))
                .map(|_| (0..rng.gen_range(1..5usize)).map(|_| rng.gen_range(0..8u8)).collect())
                .collect();
            // Deduplicate and drop prefix-contained paths: a path that is a
            // prefix of another would mean a host in the middle of a route.
            let mut uniq: Vec<Vec<u8>> = Vec::new();
            'outer: for p in &paths {
                for q in &paths {
                    if p != q && q.starts_with(p) {
                        continue 'outer; // p is a proper prefix of q
                    }
                }
                if !uniq.contains(p) {
                    uniq.push(p.clone());
                }
            }
            let refs: Vec<&[u8]> = uniq.iter().map(|v| v.as_slice()).collect();
            let d = merge_paths(&refs).unwrap();
            // Deduplicated, every path is a distinct leaf.
            assert_eq!(d.num_leaves(), uniq.len(), "case {case}");
            let e = encode(&d).unwrap();
            let (back, _) = decode(&e).unwrap();
            assert_eq!(back, d, "case {case}");
        }
    }
}
