//! Latency extraction from a run's message log.
//!
//! The paper's Figures 10 and 11 plot *average multicast latency* in
//! byte-times against offered load. We measure, for every delivery of a
//! multicast message created inside the measurement window, the time from
//! message creation to local delivery at that member, and average across
//! deliveries. (Per-message "time until the last member" is also available,
//! as `completion`, for the tree-vs-circuit parallelism analysis.)
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
    // One row per message created in the window, in id order, so each
    // delivery finds its message by binary search. A log records each
    // message once (the simulator names it `(host << 40) | seq`).
    let mut window: Vec<(MessageId, SimTime, Destination)> = log
        .created
        .iter()
        .filter(|rec| rec.created >= warmup && rec.created < until)
        .filter(|rec| {
            matches!(
                (kind, rec.dest),
                (Kind::All, _)
                    | (Kind::Multicast, Destination::Multicast(_))
                    | (Kind::Unicast, Destination::Unicast(_))
            )
        })
        .map(|rec| (rec.msg, rec.created, rec.dest))
        .collect();
    window.sort_unstable_by_key(|row| row.0);
    debug_assert!(
        window.windows(2).all(|w| w[0].0 < w[1].0),
        "a message is logged as created twice"
    );
    // Per window row, the last delivery and the delivery count: kept only
    // when completion statistics are asked for.
    let mut last_delivery: Vec<(SimTime, usize)> = match expected {
        Some(_) => vec![(0, 0); window.len()],
        None => Vec::new(),
    };
    let mut per_delivery: Vec<u64> = Vec::new();
    for d in &log.deliveries {
        if let Ok(row) = window.binary_search_by_key(&d.msg, |row| row.0) {
            let created = window[row].1;
            debug_assert!(d.at >= created, "delivery before creation");
            per_delivery.push(d.at - created);
            if let Some(e) = last_delivery.get_mut(row) {
                e.0 = e.0.max(d.at);
                e.1 += 1;
            }
        }
    }
    let mut completions: Vec<u64> = Vec::new();
    if let Some(expected) = expected {
        for (&(_, created, dest), &(last, count)) in window.iter().zip(&last_delivery) {
            if count > 0 && count >= expected(&dest) {
                completions.push(last - created);
            }
        }
    }
    LatencyReport {
        per_delivery: Summary::of_u64(&per_delivery),
        completion: Summary::of_u64(&completions),
        messages: window.len(),
        deliveries: per_delivery.len(),
        completed: completions.len(),
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

    /// The hash-map extraction `latencies` replaced, kept as its oracle.
    fn hashmap_latencies(
        log: &MessageLog,
        kind: Kind,
        warmup: SimTime,
        until: SimTime,
        expected: &dyn Fn(&Destination) -> usize,
    ) -> LatencyReport {
        use std::collections::HashMap;
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
                per_delivery.push(d.at - created);
                let e = last_delivery.entry(d.msg).or_insert((0, 0));
                e.0 = e.0.max(d.at);
                e.1 += 1;
            }
        }
        let mut completions: Vec<u64> = Vec::new();
        let mut completed = 0;
        for (msg, &(created, dest)) in &window {
            if let Some(&(last, count)) = last_delivery.get(msg) {
                if count >= expected(&dest) {
                    completed += 1;
                    completions.push(last - created);
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

    /// A seeded log in the simulator's shape: ids `(host << 40) | seq`,
    /// created in time order, each delivered to a few hosts in some order
    /// (some not at all, some to stray ids that were never created).
    fn seeded_log(seed: u64) -> MessageLog {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let mut l = MessageLog::default();
        let mut seqs = [0u64; 8];
        let mut t = 0;
        for _ in 0..2_000 {
            t += next(50);
            let host = next(8);
            let msg = MessageId((host << 40) | seqs[host as usize]);
            seqs[host as usize] += 1;
            let dest = if next(4) == 0 {
                Destination::Unicast(HostId(next(8) as u32))
            } else {
                Destination::Multicast(next(3) as u8)
            };
            l.created.push(MessageRecord {
                msg,
                origin: HostId(host as u32),
                dest,
                payload_len: 400,
                created: t,
            });
            for h in 0..next(5) {
                let msg = if next(50) == 0 { MessageId(u64::MAX - h) } else { msg };
                let at = t + next(10_000);
                l.deliveries.push(Delivery {
                    msg,
                    host: HostId(h as u32),
                    at,
                });
            }
        }
        l.deliveries.sort_by_key(|d| d.at);
        l
    }

    #[test]
    fn latencies_equal_the_hash_map_oracle() {
        let expected = |d: &Destination| match d {
            Destination::Multicast(g) => 1 + *g as usize,
            Destination::Unicast(_) => 1,
        };
        for seed in 0..8 {
            let log = seeded_log(seed);
            for kind in [Kind::Multicast, Kind::Unicast, Kind::All] {
                let (got, want) = (
                    latencies(&log, kind, 5_000, 60_000, Some(&expected)),
                    hashmap_latencies(&log, kind, 5_000, 60_000, &expected),
                );
                let case = format!("seed {seed}, {kind:?}");
                assert!(want.completed > 0 && want.deliveries > 0, "{case}: a vacuous log");
                assert_eq!(
                    (got.messages, got.deliveries, got.completed),
                    (want.messages, want.deliveries, want.completed),
                    "{case}"
                );
                let (g, w) = (got.per_delivery, want.per_delivery);
                assert_eq!(g.n, w.n, "{case}");
                for (a, b) in [(g.mean, w.mean), (g.var, w.var), (g.min, w.min), (g.max, w.max)] {
                    assert_eq!(a.to_bits(), b.to_bits(), "{case}: per-delivery");
                }
                // The oracle visits completions in hash order; integer sums
                // are exact in any order, the squared deviations only close.
                let (g, w) = (got.completion, want.completion);
                assert_eq!(g.n, w.n, "{case}");
                for (a, b) in [(g.mean, w.mean), (g.min, w.min), (g.max, w.max)] {
                    assert_eq!(a.to_bits(), b.to_bits(), "{case}: completion");
                }
                assert!((g.var - w.var).abs() <= 1e-9 * w.var, "{case}: completion variance");
                let none = latencies(&log, kind, 5_000, 60_000, None);
                assert_eq!((none.deliveries, none.completed), (want.deliveries, 0), "{case}");
            }
        }
    }
}
