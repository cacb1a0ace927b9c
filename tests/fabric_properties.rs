//! Randomised end-to-end invariants of the fabric simulator itself, on a
//! line of switches running the minimal unicast protocol `Echoless`.
//! Each property runs a fixed number of seeded draws; a failure names its
//! case, and `SmallRng::seed_from_u64(case)` replays it.

mod common;

use common::{deliveries, line_fabric};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wormcast::sim::engine::HostId;
use wormcast::sim::protocol::{Destination, SourceMessage};
use wormcast::sim::worm::HEADER_LEN;
use wormcast::sim::{Network, NetworkConfig};
use wormcast::traffic::script::install_script;

fn run_line(
    n: usize,
    delay: u64,
    seed: u64,
    sends: &[(u8, u8, u32, u64)], // (src, dst, len, at)
) -> (Vec<(u64, u32, u64)>, Network) {
    let cfg = NetworkConfig::builder()
        .seed(seed)
        .build()
        .expect("valid config");
    let hosts_on: Vec<usize> = (0..n).collect();
    let mut net = line_fabric(n, delay, &hosts_on, cfg);
    // Group sends per source into ascending scripts.
    let mut per_src: Vec<Vec<(u64, SourceMessage)>> = vec![Vec::new(); n];
    for &(s, d, len, at) in sends {
        let s = (s as usize) % n;
        let mut d = (d as usize) % n;
        if d == s {
            d = (d + 1) % n;
        }
        per_src[s].push((
            at,
            SourceMessage {
                dest: Destination::Unicast(HostId(d as u32)),
                payload_len: len,
            },
        ));
    }
    for (s, mut items) in per_src.into_iter().enumerate() {
        items.sort_by_key(|&(t, _)| t);
        // Deduplicate times (script requires strictly ascending).
        let mut t_last = None;
        for it in &mut items {
            if Some(it.0) <= t_last {
                it.0 = t_last.unwrap() + 1;
            }
            t_last = Some(it.0);
        }
        install_script(&mut net, HostId(s as u32), items);
    }
    let out = net.run_until(50_000_000);
    assert!(out.drained, "finite workload must drain");
    assert!(out.deadlock.is_none());
    net.audit().expect("conservation");
    (deliveries(&net), net)
}

/// Arbitrary finite unicast workloads on a line fabric: everything is
/// delivered exactly once, conservation holds, and the run is
/// deterministic in its seed. 48 draws.
#[test]
fn random_workloads_deliver_and_replay() {
    for case in 0..48 {
        let rng = &mut SmallRng::seed_from_u64(case);
        let n = rng.gen_range(2..6usize);
        let delay = rng.gen_range(1..20u64);
        let seed = rng.gen_range(0..1000u64);
        let sends: Vec<(u8, u8, u32, u64)> = (0..rng.gen_range(1..25usize))
            .map(|_| {
                (
                    rng.gen(),
                    rng.gen(),
                    rng.gen_range(1..3_000u32),
                    rng.gen_range(0..30_000u64),
                )
            })
            .collect();
        let (log_a, net_a) = run_line(n, delay, seed, &sends);
        assert_eq!(
            log_a.len(),
            sends.len(),
            "case {case}: one delivery per message"
        );
        assert_eq!(
            net_a.stats.worms_injected as usize,
            sends.len(),
            "case {case}"
        );
        // Determinism: identical run.
        let (log_b, _) = run_line(n, delay, seed, &sends);
        assert_eq!(log_a, log_b, "case {case}: the replay differs");
    }
}

/// Latency lower bound: a worm can never beat wire time — delivery is at
/// least (wire length + per-hop pipeline) after creation. 48 draws.
#[test]
fn latency_respects_wire_time() {
    for case in 0..48 {
        let rng = &mut SmallRng::seed_from_u64(case);
        let n = rng.gen_range(2..6usize);
        let delay = rng.gen_range(1..50u64);
        let len = rng.gen_range(1..5_000u32);
        let sends = [(0u8, (n - 1) as u8, len, 100u64)];
        let (log, mut net) = run_line(n, delay, 0, &sends);
        assert_eq!(log.len(), 1, "case {case}");
        let (_, _, at) = log[0];
        let hops = n; // n-1 switch links + host link, roughly
        // Route, header, payload and tail, as the worm was injected.
        let route = net.routes_mut().get(HostId(0), HostId(n as u32 - 1)).len() as u64;
        let wire = route + HEADER_LEN as u64 + len as u64 + 1;
        let min_latency = wire + hops as u64 * delay;
        assert!(
            at - 100 >= min_latency - delay, // head start pipelining slack
            "case {case}: latency {} below physical minimum {min_latency}",
            at - 100,
        );
    }
}
