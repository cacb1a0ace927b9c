//! Latency extraction from a run's message log.
//!
//! The paper's Figures 10 and 11 plot *average multicast latency* in
//! byte-times against offered load. We measure, for every delivery of a
//! multicast message created inside the measurement window, the time from
//! message creation to local delivery at that member, and average across
//! deliveries. (Per-message "time until the last member" is also available,
//! as `completion`, for the tree-vs-circuit parallelism analysis.)
use std::collections::HashMap;
use wormcast_sim::network::MessageLog;
use wormcast_sim::protocol::Destination;
use wormcast_sim::time::SimTime;
use wormcast_sim::worm::MessageId;

use crate::summary::Summary;

/// Which messages to include.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Multicast,
    Unicast,
    All,
}

/// Latency statistics extracted from a run.
#[derive(Clone, Debug, Default)]
pub struct LatencyReport {
    /// One sample per delivery: delivery time − creation time.
    pub per_delivery: Summary,
    /// One sample per *fully tracked* message: last delivery − creation.
    /// Only meaningful when the caller supplies the expected delivery count.
    pub completion: Summary,
    /// Messages created in the window.
    pub messages: usize,
    /// Deliveries observed for them.
    pub deliveries: usize,
    /// Messages that reached their expected delivery count (when known).
    pub completed: usize,
}

/// Extract latencies for messages created in `[warmup, until)`.
///
/// `expected` maps a message's destination to the number of deliveries that
/// count as "complete" (e.g. group size − 1 for multicast without
/// self-delivery); pass `None` to skip completion statistics.
pub fn latencies(
    log: &MessageLog,
    kind: Kind,
    warmup: SimTime,
    until: SimTime,
    expected: Option<&dyn Fn(&Destination) -> usize>,
) -> LatencyReport {
    let mut window: HashMap<MessageId, (SimTime, Destination)> = HashMap::new();
    for rec in &log.created {
        if rec.created < warmup || rec.created >= until {
            continue;
        }
        let include = matches!(
            (kind, rec.dest),
            (Kind::All, _)
                | (Kind::Multicast, Destination::Multicast(_))
                | (Kind::Unicast, Destination::Unicast(_))
        );
        if include {
            window.insert(rec.msg, (rec.created, rec.dest));
        }
    }
    let mut per_delivery: Vec<u64> = Vec::new();
    let mut last_delivery: HashMap<MessageId, (SimTime, usize)> = HashMap::new();
    for d in &log.deliveries {
        if let Some(&(created, _)) = window.get(&d.msg) {
            debug_assert!(d.at >= created, "delivery before creation");
            per_delivery.push(d.at - created);
            let e = last_delivery.entry(d.msg).or_insert((0, 0));
            e.0 = e.0.max(d.at);
            e.1 += 1;
        }
    }
    let mut completions: Vec<u64> = Vec::new();
    let mut completed = 0;
    if let Some(expected) = expected {
        for (msg, &(created, dest)) in &window {
            if let Some(&(last, count)) = last_delivery.get(msg) {
                if count >= expected(&dest) {
                    completed += 1;
                    completions.push(last - created);
                }
            }
        }
    }
    LatencyReport {
        per_delivery: Summary::of_u64(&per_delivery),
        completion: Summary::of_u64(&completions),
        messages: window.len(),
        deliveries: per_delivery.len(),
        completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_sim::engine::HostId;
    use wormcast_sim::network::{Delivery, MessageRecord};

    fn log() -> MessageLog {
        let mut l = MessageLog::default();
        // msg 0: multicast created at t=100, delivered at 150 and 200.
        l.created.push(MessageRecord {
            msg: MessageId(0),
            origin: HostId(0),
            dest: Destination::Multicast(1),
            payload_len: 400,
            created: 100,
        });
        l.deliveries.push(Delivery {
            msg: MessageId(0),
            host: HostId(1),
            at: 150,
        });
        l.deliveries.push(Delivery {
            msg: MessageId(0),
            host: HostId(2),
            at: 200,
        });
        // msg 1: unicast created at t=500, delivered at 600.
        l.created.push(MessageRecord {
            msg: MessageId(1),
            origin: HostId(1),
            dest: Destination::Unicast(HostId(3)),
            payload_len: 100,
            created: 500,
        });
        l.deliveries.push(Delivery {
            msg: MessageId(1),
            host: HostId(3),
            at: 600,
        });
        // msg 2: multicast created during warmup; must be excluded.
        l.created.push(MessageRecord {
            msg: MessageId(2),
            origin: HostId(2),
            dest: Destination::Multicast(1),
            payload_len: 400,
            created: 10,
        });
        l.deliveries.push(Delivery {
            msg: MessageId(2),
            host: HostId(0),
            at: 5000,
        });
        l
    }

    #[test]
    fn multicast_latency_averages_deliveries() {
        let r = latencies(&log(), Kind::Multicast, 50, 10_000, None);
        assert_eq!(r.messages, 1);
        assert_eq!(r.deliveries, 2);
        assert!((r.per_delivery.mean - 75.0).abs() < 1e-9); // (50 + 100) / 2
    }

    #[test]
    fn unicast_latency() {
        let r = latencies(&log(), Kind::Unicast, 50, 10_000, None);
        assert_eq!(r.deliveries, 1);
        assert!((r.per_delivery.mean - 100.0).abs() < 1e-9);
    }

    #[test]
    fn warmup_excludes_early_messages() {
        let all = latencies(&log(), Kind::All, 0, 10_000, None);
        assert_eq!(all.messages, 3);
        let windowed = latencies(&log(), Kind::All, 50, 10_000, None);
        assert_eq!(windowed.messages, 2);
    }

    #[test]
    fn completion_counts_full_deliveries() {
        let expected = |d: &Destination| match d {
            Destination::Multicast(_) => 2,
            Destination::Unicast(_) => 1,
        };
        let r = latencies(&log(), Kind::Multicast, 50, 10_000, Some(&expected));
        assert_eq!(r.completed, 1);
        assert!((r.completion.mean - 100.0).abs() < 1e-9); // last at 200
        // Expecting 3 deliveries -> incomplete.
        let strict = |_: &Destination| 3usize;
        let r2 = latencies(&log(), Kind::Multicast, 50, 10_000, Some(&strict));
        assert_eq!(r2.completed, 0);
    }
}
