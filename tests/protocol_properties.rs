//! End-to-end property tests: for random topologies, group memberships and
//! origins, every multicast scheme delivers exactly-once to exactly the
//! right hosts, with conservation intact. Each scheme runs the same 24
//! seeded draws; a failure names its case, and
//! `SmallRng::seed_from_u64(case)` replays it.

mod common;

use common::scripted_net;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wormcast::core::switchcast::SwitchcastVariant;
use wormcast::core::{HcConfig, TreeConfig, TreeMode};
use wormcast::sim::engine::HostId;
use wormcast::sim::protocol::{Destination, SourceMessage};
use wormcast::sim::trace::TraceConfig;
use wormcast::topo::irregular::{irregular, IrregularSpec};
use wormcast::topo::tree::TreeShape;
use wormcast::traffic::script::install_one_shot;
use wormcast_bench::Scheme;

#[derive(Clone, Copy, Debug)]
enum Proto {
    HcSnf,
    HcCut,
    HcSerialized,
    TreeRoot,
    TreeBroadcast,
    SwitchV1,
    SwitchV2,
}

impl Proto {
    fn scheme(self) -> Scheme {
        let tree = |mode| {
            let cfg = TreeConfig {
                mode,
                cut_through_first: false,
                reliability: wormcast::core::Reliability::None,
            };
            Scheme::Tree(cfg, TreeShape::BinaryHeap)
        };
        match self {
            Proto::HcSnf => Scheme::Hc(HcConfig::store_and_forward()),
            Proto::HcCut => Scheme::Hc(HcConfig::cut_through()),
            Proto::HcSerialized => Scheme::Hc(HcConfig {
                serialize: true,
                ..HcConfig::store_and_forward()
            }),
            Proto::TreeRoot => tree(TreeMode::RootSerialized),
            Proto::TreeBroadcast => tree(TreeMode::BroadcastFromOrigin),
            Proto::SwitchV1 => Scheme::Switch(SwitchcastVariant::RestrictedIdle),
            Proto::SwitchV2 => Scheme::Switch(SwitchcastVariant::RootedInterrupt),
        }
    }
}

/// Draw `case`'s fabric, group and origin, multicast once under `proto`,
/// and check exactly-once delivery. A draw whose group has fewer than two
/// members checks nothing.
fn run_one(proto: Proto, case: u64) {
    let rng = &mut SmallRng::seed_from_u64(case);
    let topo_seed = rng.gen_range(0..300u64);
    let n_switches = rng.gen_range(2..7usize);
    let member_bits = rng.gen_range(1..=u16::MAX);
    let origin_pick = rng.gen_range(0..16usize);
    let topo = irregular(
        IrregularSpec {
            num_switches: n_switches,
            extra_links: 3,
            hosts_per_switch: 2,
            link_delay: 1,
        },
        topo_seed,
    );
    let members: Vec<HostId> = (0..topo.num_hosts() as u32)
        .filter(|&h| member_bits & (1 << (h % 16)) != 0)
        .map(HostId)
        .collect();
    if members.len() < 2 {
        return;
    }
    let origin = members[origin_pick % members.len()];
    let mut net = scripted_net(topo, members.clone(), proto.scheme(), TraceConfig::Off);
    install_one_shot(&mut net, origin, 50, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 300,
    });
    let out = net.run_until(5_000_000);
    assert!(out.drained, "case {case}: {proto:?} failed to drain");
    assert!(out.deadlock.is_none(), "case {case}: {proto:?} deadlocked");
    net.audit()
        .unwrap_or_else(|e| panic!("case {case}: {proto:?}: conservation audit failed: {e}"));
    // Exactly-once delivery to every member except the origin.
    let mut got: Vec<u32> = net.msgs.deliveries.iter().map(|d| d.host.0).collect();
    got.sort_unstable();
    let mut want: Vec<u32> = members
        .iter()
        .filter(|&&m| m != origin)
        .map(|m| m.0)
        .collect();
    want.sort_unstable();
    assert_eq!(got, want, "case {case}: {proto:?}: wrong delivery set");
}

/// The 24 draws under `proto`.
fn delivers_exactly_once(proto: Proto) {
    for case in 0..24 {
        run_one(proto, case);
    }
}

#[test]
fn hc_store_and_forward_delivers_exactly_once() {
    delivers_exactly_once(Proto::HcSnf);
}

#[test]
fn hc_cut_through_delivers_exactly_once() {
    delivers_exactly_once(Proto::HcCut);
}

#[test]
fn hc_serialized_delivers_exactly_once() {
    delivers_exactly_once(Proto::HcSerialized);
}

#[test]
fn tree_root_serialized_delivers_exactly_once() {
    delivers_exactly_once(Proto::TreeRoot);
}

#[test]
fn tree_broadcast_delivers_exactly_once() {
    delivers_exactly_once(Proto::TreeBroadcast);
}

#[test]
fn switchcast_v1_delivers_exactly_once() {
    delivers_exactly_once(Proto::SwitchV1);
}

#[test]
fn switchcast_v2_delivers_exactly_once() {
    delivers_exactly_once(Proto::SwitchV2);
}
