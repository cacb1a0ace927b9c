//! Total ordering by serialisation, the part the circuit and the tree
//! share: one member stamps every multicast of a group with the next
//! sequence number, and every member delivers in stamp order.

use std::collections::{BTreeMap, HashMap};
use wormcast_sim::protocol::ProtocolCtx;
use wormcast_sim::worm::MessageId;

/// Per-host sequencing state: the serializer's per-group counters
/// (meaningful only at the member that serializes the group) and the
/// receiver-side delivery cursors.
#[derive(Default)]
pub(crate) struct Sequencer {
    stamped: HashMap<u8, u32>,
    /// Next sequence number to deliver, per group.
    next_deliver: HashMap<u8, u32>,
    /// Out-of-order arrivals awaiting delivery: seq -> message (`None` for
    /// the host's own message coming back, which advances the cursor
    /// without a local delivery).
    pending_deliver: HashMap<u8, BTreeMap<u32, Option<MessageId>>>,
}

impl Sequencer {
    /// The next sequence number of `group` (the first is 1; 0 marks an
    /// unserialized worm).
    pub(crate) fn stamp(&mut self, group: u8) -> u32 {
        let seq = self.stamped.entry(group).or_insert(0);
        *seq += 1;
        *seq
    }

    /// Deliver respecting the serializer's sequence numbers:
    /// retransmissions can overtake each other, so an out-of-order arrival
    /// is held until the gap closes. Unserialized worms (seq 0) deliver
    /// immediately.
    pub(crate) fn deliver_in_order(
        &mut self,
        ctx: &mut ProtocolCtx,
        group: u8,
        seq: u32,
        msg: Option<MessageId>,
    ) {
        if seq == 0 {
            if let Some(m) = msg {
                ctx.deliver_local(m);
            }
            return;
        }
        let next = self.next_deliver.entry(group).or_insert(1);
        if seq < *next {
            return; // stale duplicate
        }
        let pending = self.pending_deliver.entry(group).or_default();
        pending.insert(seq, msg);
        while let Some(entry) = pending.remove(&*next) {
            if let Some(m) = entry {
                ctx.deliver_local(m);
            }
            *next += 1;
        }
    }
}
