//! The paper's workload, as a pluggable traffic source.

use crate::arrivals::PoissonArrivals;
use crate::groups::GroupSet;
use crate::lengths::LengthDist;
use crate::rng::host_stream;
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;
use wormcast_sim::engine::HostId;
use wormcast_sim::protocol::{Destination, SourceMessage, TrafficSource};
use wormcast_sim::time::SimTime;
use wormcast_sim::Network;

/// Parameters of the Section 7 workload.
#[derive(Clone, Copy, Debug)]
pub struct PaperWorkload {
    /// Output-link utilization per host, in (0, 1].
    pub offered_load: f64,
    /// Probability that a group member's generated worm is a multicast
    /// (0.10 in the torus experiment).
    pub multicast_prob: f64,
    /// Payload length distribution (geometric mean 400 in the paper).
    pub lengths: LengthDist,
    /// Stop generating new messages at this time (lets a run drain).
    pub stop_at: Option<SimTime>,
}

/// Per-host traffic source implementing the paper's model.
pub struct PaperSource {
    arrivals: PoissonArrivals,
    workload: PaperWorkload,
    groups: Arc<GroupSet>,
    num_hosts: usize,
    rng: SmallRng,
}

impl PaperSource {
    pub fn new(
        workload: PaperWorkload,
        groups: Arc<GroupSet>,
        num_hosts: usize,
        seed: u64,
        host: HostId,
    ) -> Self {
        assert!(num_hosts >= 2, "need at least two hosts for traffic");
        PaperSource {
            arrivals: PoissonArrivals::from_offered_load(
                workload.offered_load,
                workload.lengths.mean(),
            ),
            workload,
            groups,
            num_hosts,
            rng: host_stream(seed, 0x7EAF_F1C0 ^ host.0 as u64),
        }
    }

    fn gen_message(&mut self, host: HostId) -> SourceMessage {
        let payload_len = self.workload.lengths.sample(&mut self.rng);
        let in_a_group = !self.groups.groups_of(host).is_empty();
        let dest = if in_a_group && self.rng.gen_bool(self.workload.multicast_prob) {
            Destination::Multicast(
                self.groups
                    .pick_group(host, &mut self.rng)
                    .expect("member of at least one group"),
            )
        } else {
            // Uniform unicast over the other hosts.
            let mut d = self.rng.gen_range(0..self.num_hosts as u32 - 1);
            if d >= host.0 {
                d += 1;
            }
            Destination::Unicast(HostId(d))
        };
        SourceMessage { dest, payload_len }
    }
}

impl TrafficSource for PaperSource {
    fn next(&mut self, now: SimTime, host: HostId) -> (Option<SourceMessage>, Option<SimTime>) {
        if let Some(stop) = self.workload.stop_at {
            if now >= stop {
                return (None, None);
            }
        }
        let msg = self.gen_message(host);
        let gap = self.arrivals.next_gap(&mut self.rng);
        (Some(msg), Some(gap))
    }
}

/// Install a [`PaperSource`] on every host of `net`, with start times
/// staggered uniformly over one mean interarrival so the Poisson processes
/// do not fire in phase.
pub fn install_paper_sources(
    net: &mut Network,
    workload: PaperWorkload,
    groups: &Arc<GroupSet>,
    seed: u64,
) {
    install_paper_sources_for(net, workload, groups, seed, |_| true);
}

/// Like [`install_paper_sources`], but only installs sources on hosts the
/// caller `owns`. The stagger stream is drawn for *every* host in order
/// regardless, so the start time of host `h` is identical whether the
/// fabric is simulated whole or sharded — the property the sharded
/// engine's byte-for-byte equivalence rests on.
pub fn install_paper_sources_for(
    net: &mut Network,
    workload: PaperWorkload,
    groups: &Arc<GroupSet>,
    seed: u64,
    owned: impl Fn(HostId) -> bool,
) {
    let num_hosts = net.num_hosts();
    let mut stagger = host_stream(seed, 0x057A_66E2);
    for h in 0..num_hosts as u32 {
        let host = HostId(h);
        let src = PaperSource::new(workload, Arc::clone(groups), num_hosts, seed, host);
        let first = stagger.gen_range(0..src.arrivals.mean_interarrival.max(1.0) as u64 + 1);
        if owned(host) {
            net.set_source(host, Box::new(src), first);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(p: f64) -> PaperWorkload {
        PaperWorkload {
            offered_load: 0.1,
            multicast_prob: p,
            lengths: LengthDist::Geometric { mean: 400 },
            stop_at: None,
        }
    }

    fn groups_all_in_one(n: usize) -> Arc<GroupSet> {
        Arc::new(GroupSet::from_members(
            n,
            vec![(0..n as u32).map(HostId).collect()],
        ))
    }

    #[test]
    fn multicast_fraction_matches_probability() {
        let groups = groups_all_in_one(8);
        let mut src = PaperSource::new(workload(0.1), groups, 8, 1, HostId(0));
        let mut now = 0;
        let mut mcast = 0;
        let n = 50_000;
        for _ in 0..n {
            let (m, gap) = src.next(now, HostId(0));
            now += gap.unwrap();
            if matches!(m.unwrap().dest, Destination::Multicast(_)) {
                mcast += 1;
            }
        }
        let frac = mcast as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.01, "multicast fraction {frac}");
    }

    #[test]
    fn non_members_never_multicast() {
        let groups = Arc::new(GroupSet::from_members(4, vec![vec![
            HostId(0),
            HostId(1),
        ]]));
        let mut src = PaperSource::new(workload(0.9), groups, 4, 2, HostId(3));
        for i in 0..1000 {
            let (m, _) = src.next(i, HostId(3));
            assert!(matches!(m.unwrap().dest, Destination::Unicast(_)));
        }
    }

    #[test]
    fn unicast_never_targets_self() {
        let groups = groups_all_in_one(4);
        let mut src = PaperSource::new(workload(0.0), groups, 4, 3, HostId(2));
        for i in 0..5000 {
            let (m, _) = src.next(i, HostId(2));
            match m.unwrap().dest {
                Destination::Unicast(d) => assert_ne!(d, HostId(2)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn unicast_destinations_cover_all_others() {
        let groups = groups_all_in_one(5);
        let mut src = PaperSource::new(workload(0.0), groups, 5, 4, HostId(0));
        let mut seen = [false; 5];
        for i in 0..2000 {
            let (m, _) = src.next(i, HostId(0));
            if let Destination::Unicast(d) = m.unwrap().dest {
                seen[d.0 as usize] = true;
            }
        }
        assert_eq!(seen, [false, true, true, true, true]);
    }

    #[test]
    fn stop_at_halts_generation() {
        let groups = groups_all_in_one(4);
        let mut w = workload(0.1);
        w.stop_at = Some(1000);
        let mut src = PaperSource::new(w, groups, 4, 5, HostId(1));
        let (m, next) = src.next(999, HostId(1));
        assert!(m.is_some());
        assert!(next.is_some());
        let (m, next) = src.next(1000, HostId(1));
        assert!(m.is_none());
        assert!(next.is_none());
    }
}
