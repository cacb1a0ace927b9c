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
//! The replication state machine lives in [`ReplicaState`]; the `Network`
//! methods at the bottom are invoked from the generic switch input logic
//! when it sees a [`crate::worm::WormKind::SwitchMulticast`] worm.

use crate::worm::{RouteSym, WormId};
use serde::{Deserialize, Serialize};

/// Which Section-3 scheme the switches run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
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
// Replication state (driven from the switch input logic).
// ---------------------------------------------------------------------------

/// Per-branch progress of a replicating multicast worm (one fragment's
/// worth in the RootedInterrupt scheme — each resume restarts the prefix).
#[derive(Clone, Debug)]
pub struct BranchState {
    /// Output port of this branch.
    pub out: u8,
    /// Route symbols to stamp at the head of this branch('s fragment).
    pub prefix: Vec<RouteSym>,
    pub prefix_sent: usize,
    /// Crossbar grant obtained for `out`.
    pub granted: bool,
    /// A request for `out` is queued or granted.
    pub requested: bool,
    /// Absolute body-byte cursor (bytes of the worm body sent so far).
    pub body_sent: u64,
    pub tail_sent: bool,
    /// RootedInterrupt: this branch released its path mid-worm and will
    /// resume as a fresh fragment when data flows again.
    pub interrupted: bool,
    /// Body cursor at the start of the current fragment (guards against
    /// zero-length fragments).
    pub frag_base: u64,
}

impl BranchState {
    /// A branch out of `out` that stamps `prefix` ahead of the body.
    fn new(out: u8, prefix: Vec<RouteSym>) -> Self {
        BranchState {
            out,
            prefix,
            prefix_sent: 0,
            granted: false,
            requested: false,
            body_sent: 0,
            tail_sent: false,
            interrupted: false,
            frag_base: 0,
        }
    }
}

/// What a replicating input is doing.
#[derive(Clone, Debug)]
pub enum ReplicaPhase {
    /// Collecting the directive symbols from the buffer front.
    Parsing { collected: Vec<RouteSym> },
    /// Replicating body bytes to the branches.
    Active,
}

/// Replication state attached to a switch input port while a
/// `SwitchMulticast` worm passes through it.
#[derive(Clone, Debug)]
pub struct ReplicaState {
    pub worm: WormId,
    pub mode: SwitchcastMode,
    pub phase: ReplicaPhase,
    pub branches: Vec<BranchState>,
    /// Body bytes already popped from the slack buffer (consumed by every
    /// branch). `buf[i]` holds absolute body byte `body_released + i`.
    pub body_released: u64,
}

impl ReplicaState {
    /// Absolute index one past the last body/tail byte currently available
    /// in `buf` for this worm.
    fn available(&self, buf: &crate::slackbuf::SlackBuf) -> u64 {
        let n: u64 = buf
            .runs()
            .take_while(|(b, _)| b.worm == self.worm)
            .map(|(_, n)| n)
            .sum();
        self.body_released + n
    }

    /// Smallest unsent body index across branches that still need bytes.
    fn min_cursor(&self) -> u64 {
        self.branches
            .iter()
            .map(|b| if b.tail_sent { u64::MAX } else { b.body_sent })
            .min()
            .unwrap_or(u64::MAX)
    }
}

use crate::engine::SwitchId;
use crate::link::NodeRef;
use crate::network::Network;
use crate::switch::InState;
use crate::worm::{ByteKind, WireByte, WormKind};

impl Network {
    /// A `SwitchMulticast` worm's replication directive (or the broadcast
    /// address) reached the front of an idle input: set up the state
    /// machine. A plain transit hop never comes here — the switch's one
    /// route decoder parses it like a unicast hop.
    pub(crate) fn switchcast_begin_parse(&mut self, sw: SwitchId, port: u8) {
        let mode = self.cfg.switchcast;
        assert!(
            mode != SwitchcastMode::Off,
            "switch-level multicast worm at {sw:?} with switchcast disabled"
        );
        let front = *self.switches[sw.0 as usize].inputs[port as usize]
            .buf
            .front()
            .expect("a directive head is buffered");
        let worm = front.worm;
        if front.kind != ByteKind::Route(RouteSym::Broadcast) {
            self.switches[sw.0 as usize].inputs[port as usize].state =
                InState::Replicating(Box::new(ReplicaState {
                    worm,
                    mode,
                    phase: ReplicaPhase::Parsing {
                        collected: Vec::new(),
                    },
                    branches: Vec::new(),
                    body_released: 0,
                }));
            self.switchcast_advance(sw, port);
            return;
        }
        assert!(
            !self.broadcast_ports.is_empty(),
            "broadcast worm without set_broadcast_ports()"
        );
        // Consume the broadcast byte and replicate to every down-tree link
        // and host port. The arrival port is NOT excluded: at the root it
        // points back into the subtree the worm climbed out of (which must
        // be flooded too), and on the way down it is the parent link, which
        // is never in the broadcast port set. The originator therefore
        // receives its own broadcast and filters it — uniform sink
        // accounting.
        self.switches[sw.0 as usize].inputs[port as usize]
            .buf
            .pop_front();
        self.after_slack_dequeue(sw, port);
        let outs: Vec<u8> = self.broadcast_ports[sw.0 as usize].to_vec();
        let branches: Vec<BranchState> = outs
            .iter()
            .map(|&o| {
                // Stamp the broadcast address again on branches that lead
                // to another switch; host branches get nothing.
                let to_switch = self.switches[sw.0 as usize].outputs[o as usize]
                    .chan_out
                    .map(|ch| matches!(self.lanes[ch.0 as usize].dst().node, NodeRef::Switch(_)))
                    .unwrap_or(false);
                let prefix = if to_switch {
                    vec![RouteSym::Broadcast]
                } else {
                    Vec::new()
                };
                BranchState::new(o, prefix)
            })
            .collect();
        self.switches[sw.0 as usize].inputs[port as usize].state =
            InState::Replicating(Box::new(ReplicaState {
                worm,
                mode,
                phase: ReplicaPhase::Active,
                branches,
                body_released: 0,
            }));
        for o in outs {
            self.switchcast_request(sw, o, port);
        }
    }

    /// Queue a branch request for output `out` (marks it requested).
    fn switchcast_request(&mut self, sw: SwitchId, out: u8, in_port: u8) {
        if let InState::Replicating(rep) =
            &mut self.switches[sw.0 as usize].inputs[in_port as usize].state
        {
            if let Some(b) = rep.branches.iter_mut().find(|b| b.out == out) {
                b.requested = true;
            }
        }
        self.switch_request_output(sw, out, in_port);
    }

    /// Drive a replicating input: finish directive parsing, kick granted
    /// branches when new data arrives, and resume interrupted branches.
    pub(crate) fn switchcast_advance(&mut self, sw: SwitchId, port: u8) {
        // -- parsing phase ---------------------------------------------------
        loop {
            let (consume, complete) = {
                let inp = &self.switches[sw.0 as usize].inputs[port as usize];
                let InState::Replicating(rep) = &inp.state else {
                    return;
                };
                let ReplicaPhase::Parsing { collected } = &rep.phase else {
                    break;
                };
                match inp.buf.front() {
                    Some(b) if b.worm == rep.worm => match b.kind {
                        ByteKind::Route(sym) => {
                            let mut c = collected.clone();
                            c.push(sym);
                            let complete = matches!(decode(&c), Ok((_, used)) if used == c.len());
                            (Some(sym), complete)
                        }
                        other => unreachable!(
                            "non-route byte {other:?} while parsing a directive at {sw:?}:{port}"
                        ),
                    },
                    _ => return, // wait for more symbols
                }
            };
            if let Some(sym) = consume {
                {
                    let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
                    inp.buf.pop_front();
                    if let InState::Replicating(rep) = &mut inp.state {
                        if let ReplicaPhase::Parsing { collected } = &mut rep.phase {
                            collected.push(sym);
                        }
                    }
                }
                self.after_slack_dequeue(sw, port);
                if complete {
                    self.switchcast_activate(sw, port);
                    break;
                }
            }
        }
        // -- active phase ----------------------------------------------------
        let kicks = {
            let inp = &self.switches[sw.0 as usize].inputs[port as usize];
            let InState::Replicating(rep) = &inp.state else {
                return;
            };
            if !matches!(rep.phase, ReplicaPhase::Active) {
                return;
            }
            let mut kicks = Vec::new();
            for b in &rep.branches {
                if !b.tail_sent && !b.interrupted && b.granted {
                    if let Some(ch) =
                        self.switches[sw.0 as usize].outputs[b.out as usize].chan_out
                    {
                        kicks.push(ch);
                    }
                }
            }
            kicks
        };
        self.switchcast_resume_interrupted(sw, port);
        for ch in kicks {
            self.kick_channel(ch);
        }
    }

    /// Re-request output ports for interrupted (or not-yet-requested)
    /// branches that have something to send again. An interrupted branch
    /// whose next byte is the tail is done instead: the tail that ended
    /// its fragment stands where this one would (the whole body, or the
    /// fragment an upstream switch cut), so resuming would send a fragment
    /// of the tail alone.
    fn switchcast_resume_interrupted(&mut self, sw: SwitchId, port: u8) {
        let resumes: Vec<u8> = {
            let inp = &self.switches[sw.0 as usize].inputs[port as usize];
            let InState::Replicating(rep) = &inp.state else {
                return;
            };
            if !matches!(rep.phase, ReplicaPhase::Active) {
                return;
            }
            let avail = rep.available(&inp.buf);
            rep.branches
                .iter()
                .filter(|b| !b.tail_sent && !b.requested)
                .filter(|b| !b.interrupted || b.body_sent < avail)
                .map(|b| b.out)
                .collect()
        };
        for out in resumes {
            let (ended, all_done) = {
                let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
                let InState::Replicating(rep) = &mut inp.state else {
                    unreachable!("resuming a branch of a finished replica")
                };
                let released = rep.body_released;
                let b = rep.branches.iter_mut().find(|b| b.out == out).expect("branch");
                let ended = b.interrupted
                    && inp.buf[(b.body_sent - released) as usize].kind == ByteKind::Tail;
                if ended {
                    b.tail_sent = true;
                } else if b.interrupted {
                    b.interrupted = false;
                    b.prefix_sent = 0;
                    b.frag_base = b.body_sent;
                }
                (ended, ended && rep.branches.iter().all(|b| b.tail_sent))
            };
            if !ended {
                self.switchcast_request(sw, out, port);
            } else if all_done {
                self.switchcast_finish(sw, port);
                return;
            }
        }
    }

    /// The directive is fully collected: build the branch set and request
    /// every output port.
    fn switchcast_activate(&mut self, sw: SwitchId, port: u8) {
        let outs: Vec<u8> = {
            let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
            let InState::Replicating(rep) = &mut inp.state else {
                unreachable!("activate on a non-replicating input")
            };
            let ReplicaPhase::Parsing { collected } = &rep.phase else {
                unreachable!("activate outside the parsing phase")
            };
            let (directive, used) = decode(collected).expect("parser validated completeness");
            debug_assert_eq!(used, collected.len());
            rep.branches = directive
                .branches
                .iter()
                .map(|(p, sub)| {
                    let prefix = match sub {
                        Subroute::Host => Vec::new(),
                        Subroute::Next(d) => encode(d).expect("re-encode decoded subtree"),
                    };
                    BranchState::new(*p, prefix)
                })
                .collect();
            rep.phase = ReplicaPhase::Active;
            rep.branches.iter().map(|b| b.out).collect()
        };
        for o in outs {
            self.switchcast_request(sw, o, port);
        }
    }

    /// A grant arrived for a replicating input's branch.
    pub(crate) fn switchcast_granted(&mut self, sw: SwitchId, out: u8, in_port: u8) {
        if let InState::Replicating(rep) =
            &mut self.switches[sw.0 as usize].inputs[in_port as usize].state
        {
            if let Some(b) = rep.branches.iter_mut().find(|b| b.out == out) {
                b.granted = true;
            }
        }
        if let Some(ch) = self.switches[sw.0 as usize].outputs[out as usize].chan_out {
            self.kick_channel(ch);
        }
    }

    /// Produce the next byte for one branch of a replicating input.
    ///
    /// Semantics per mode when the branch has nothing real to send:
    /// * `RestrictedIdle` / `IdleFlush` — transmit IDLE fill bytes, keeping
    ///   the path; `IdleFlush` additionally flags the port `multicast-IDLE`
    ///   after a threshold and flushes unicast worms waiting behind it.
    /// * `RootedInterrupt` — terminate the current fragment (emit an early
    ///   tail), release the path, and resume later with a re-stamped prefix.
    pub(crate) fn switchcast_produce_byte(
        &mut self,
        sw: SwitchId,
        out: u8,
        owner: u8,
    ) -> Option<WireByte> {
        enum Prod {
            Route(RouteSym),
            Body(ByteKind),
            Tail,
            FragTail,
            Idle,
            Nothing,
        }
        let (worm, action) = {
            let inp = &self.switches[sw.0 as usize].inputs[owner as usize];
            let InState::Replicating(rep) = &inp.state else {
                return None;
            };
            if !matches!(rep.phase, ReplicaPhase::Active) {
                return None;
            }
            let avail = rep.available(&inp.buf);
            let b = rep.branches.iter().find(|b| b.out == out)?;
            if b.tail_sent || b.interrupted || !b.granted {
                return None;
            }
            let act = if b.prefix_sent < b.prefix.len() {
                Prod::Route(b.prefix[b.prefix_sent])
            } else if b.body_sent < avail {
                let offset = (b.body_sent - rep.body_released) as usize;
                let byte = inp.buf[offset];
                debug_assert_eq!(byte.worm, rep.worm);
                match byte.kind {
                    ByteKind::Tail => Prod::Tail,
                    k => Prod::Body(k),
                }
            } else {
                // Nothing real to send: mode-specific stall behaviour.
                match rep.mode {
                    SwitchcastMode::RestrictedIdle | SwitchcastMode::IdleFlush => Prod::Idle,
                    SwitchcastMode::RootedInterrupt => {
                        if b.body_sent > b.frag_base {
                            Prod::FragTail
                        } else {
                            Prod::Nothing // nothing sent yet: just wait
                        }
                    }
                    SwitchcastMode::Off => unreachable!("replica in Off mode"),
                }
            };
            (rep.worm, act)
        };
        match action {
            Prod::Route(sym) => {
                if let InState::Replicating(rep) =
                    &mut self.switches[sw.0 as usize].inputs[owner as usize].state
                {
                    let b = rep.branches.iter_mut().find(|b| b.out == out).expect("branch");
                    b.prefix_sent += 1;
                }
                self.note_real_byte(sw, out);
                Some(WireByte {
                    worm,
                    kind: ByteKind::Route(sym),
                })
            }
            Prod::Body(kind) => {
                if let InState::Replicating(rep) =
                    &mut self.switches[sw.0 as usize].inputs[owner as usize].state
                {
                    let b = rep.branches.iter_mut().find(|b| b.out == out).expect("branch");
                    b.body_sent += 1;
                }
                self.switchcast_pop_released(sw, owner);
                self.note_real_byte(sw, out);
                // Progress may unblock an interrupted sibling even without
                // new arrivals (e.g. the whole worm is already buffered).
                self.switchcast_resume_interrupted(sw, owner);
                Some(WireByte { worm, kind })
            }
            Prod::Tail => {
                let all_done = {
                    let inp = &mut self.switches[sw.0 as usize].inputs[owner as usize];
                    let InState::Replicating(rep) = &mut inp.state else {
                        unreachable!()
                    };
                    let b = rep.branches.iter_mut().find(|b| b.out == out).expect("branch");
                    b.tail_sent = true;
                    b.body_sent += 1;
                    rep.branches.iter().all(|b| b.tail_sent)
                };
                self.note_real_byte(sw, out);
                self.switch_release_output(sw, out);
                self.switchcast_resume_interrupted(sw, owner);
                if all_done {
                    self.switchcast_finish(sw, owner);
                }
                Some(WireByte {
                    worm,
                    kind: ByteKind::Tail,
                })
            }
            Prod::FragTail => {
                // RootedInterrupt: end this fragment and give up the path.
                if let InState::Replicating(rep) =
                    &mut self.switches[sw.0 as usize].inputs[owner as usize].state
                {
                    let b = rep.branches.iter_mut().find(|b| b.out == out).expect("branch");
                    b.interrupted = true;
                    b.requested = false;
                    b.granted = false;
                }
                self.note_real_byte(sw, out);
                self.switch_release_output(sw, out);
                Some(WireByte {
                    worm,
                    kind: ByteKind::Tail,
                })
            }
            Prod::Idle => {
                self.note_idle_byte(sw, out);
                Some(WireByte {
                    worm,
                    kind: ByteKind::Idle,
                })
            }
            Prod::Nothing => None,
        }
    }

    /// Pop buffer bytes every branch has consumed.
    fn switchcast_pop_released(&mut self, sw: SwitchId, in_port: u8) {
        loop {
            let popped = {
                let inp = &mut self.switches[sw.0 as usize].inputs[in_port as usize];
                let InState::Replicating(rep) = &mut inp.state else {
                    return;
                };
                let min = rep.min_cursor();
                if min > rep.body_released && !inp.buf.is_empty() {
                    // Never pop the tail here: completion handles it so the
                    // state transition is atomic.
                    if matches!(inp.buf.front().map(|b| b.kind), Some(ByteKind::Tail)) {
                        false
                    } else {
                        inp.buf.pop_front();
                        rep.body_released += 1;
                        true
                    }
                } else {
                    false
                }
            };
            if !popped {
                return;
            }
            self.after_slack_dequeue(sw, in_port);
        }
    }

    /// Every branch is done: pop the tail and free the input.
    fn switchcast_finish(&mut self, sw: SwitchId, port: u8) {
        {
            let inp = &mut self.switches[sw.0 as usize].inputs[port as usize];
            let tail = inp.buf.pop_front();
            debug_assert!(
                matches!(tail, Some(WireByte { kind: ByteKind::Tail, .. })),
                "replica completion must pop the tail"
            );
            inp.state = InState::Idle;
        }
        self.after_slack_dequeue(sw, port);
        self.switch_advance_input(sw, port);
    }

    /// Bookkeeping for a real (non-IDLE) byte leaving an output port.
    fn note_real_byte(&mut self, sw: SwitchId, out: u8) {
        let o = &mut self.switches[sw.0 as usize].outputs[out as usize];
        o.idle_since = None;
        o.multicast_idle = false;
    }

    /// Bookkeeping for an IDLE fill byte: after a threshold the port is
    /// flagged multicast-IDLE and (IdleFlush mode) any unicast worm waiting
    /// on it is flushed back to its source.
    fn note_idle_byte(&mut self, sw: SwitchId, out: u8) {
        let now = self.scheduler.now();
        let flush_mode = self.cfg.switchcast == SwitchcastMode::IdleFlush;
        let newly_flagged = {
            let o = &mut self.switches[sw.0 as usize].outputs[out as usize];
            match o.idle_since {
                None => {
                    o.idle_since = Some(now);
                    false
                }
                Some(since) => {
                    if !o.multicast_idle && now - since >= MULTICAST_IDLE_THRESHOLD {
                        o.multicast_idle = true;
                        true
                    } else {
                        false
                    }
                }
            }
        };
        if newly_flagged && flush_mode {
            self.switchcast_flush_waiters(sw, out);
        }
    }

    /// Flush every unicast worm waiting on a multicast-IDLE output port
    /// (the Section 3 scheme 3): the worm is removed from the network hop
    /// by hop (a Backward Reset) and its source is told to retransmit
    /// after a random timeout.
    pub(crate) fn switchcast_flush_waiters(&mut self, sw: SwitchId, out: u8) {
        let waiting: Vec<u8> = self.switches[sw.0 as usize].arbs[out as usize]
            .waiting
            .clone();
        for in_port in waiting {
            let flushable = {
                let inp = &self.switches[sw.0 as usize].inputs[in_port as usize];
                match &inp.state {
                    InState::Requesting { worm, out: o } if *o == out => {
                        let w = &self.worms[worm.0 as usize];
                        if matches!(w.meta.kind, WormKind::Unicast) {
                            Some(*worm)
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            };
            if let Some(worm) = flushable {
                // Remove it from the arbitration queue first.
                let o = &mut self.switches[sw.0 as usize].arbs[out as usize];
                o.waiting.retain(|&w| w != in_port);
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
    pub(crate) fn flush_worm(&mut self, worm: crate::worm::WormId, sw: SwitchId, in_port: u8) {
        let flags = self.worm_flags.get_mut(worm);
        if *flags & crate::slab::FLAG_FLUSHED == 0 {
            *flags |= crate::slab::FLAG_FLUSHED;
            self.flushed_count += 1;
        }
        let injector = self.worms[worm.0 as usize].meta.injector;
        let mut cur = Some((sw, in_port));
        while let Some((s, p)) = cur {
            let chan_in = {
                let inp = &mut self.switches[s.0 as usize].inputs[p as usize];
                // Drop this worm's bytes (they are contiguous at the front).
                while matches!(inp.buf.front(), Some(b) if b.worm == worm) {
                    inp.buf.pop_front();
                    inp.dropped_bytes += 1;
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
                let chan_in = inp.chan_in;
                (release, chan_in)
            };
            let (release, chan_in) = chan_in;
            if let Some(out) = release {
                self.switch_release_output(s, out);
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
        self.stats.worms_flushed += 1;
        self.stats.active_worms -= 1;
        if self.trace.enabled() {
            let at = self.scheduler.now();
            let worm = self.worm_name(worm);
            self.trace
                .push(at, crate::trace::TraceEvent::WormFlushed { worm, host: injector });
        }
        self.notify_flushed(injector, worm);
    }
}

/// IDLE fill duration after which an output is flagged `multicast-IDLE`
/// (Section 3, scheme 3).
pub const MULTICAST_IDLE_THRESHOLD: crate::time::SimTime = 512;

#[cfg(test)]
mod tests {
    use super::*;

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

    proptest::proptest! {
        /// encode/decode round-trips arbitrary small trees.
        #[test]
        fn prop_roundtrip(seed in 0u64..10_000) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            fn gen_tree(rng: &mut rand::rngs::SmallRng, depth: u8) -> Directive {
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
            let d = gen_tree(&mut rng, 3);
            let e = encode(&d).unwrap();
            let (back, used) = decode(&e).unwrap();
            proptest::prop_assert_eq!(back, d);
            proptest::prop_assert_eq!(used, e.len());
        }

        /// Merging random path sets yields a tree whose leaf count equals
        /// the number of distinct paths, and whose encoding round-trips.
        #[test]
        fn prop_merge_paths(paths in proptest::collection::vec(
            proptest::collection::vec(0u8..8, 1..5), 1..6))
        {
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
            // Distinct paths (post-dedup) = leaves only if no two paths are
            // equal, which dedup guarantees... but two paths may still merge
            // entirely if equal — removed. So:
            proptest::prop_assert_eq!(d.num_leaves(), uniq.len());
            let e = encode(&d).unwrap();
            let (back, _) = decode(&e).unwrap();
            proptest::prop_assert_eq!(back, d);
        }
    }
}
