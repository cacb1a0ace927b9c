//! End-to-end property tests: for random topologies, group memberships and
//! origins, every multicast scheme delivers exactly-once to exactly the
//! right hosts, with conservation intact.

mod common;

use common::scripted_net;
use proptest::prelude::*;
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

fn run_one(
    proto: Proto,
    topo_seed: u64,
    n_switches: usize,
    member_bits: u16,
    origin_pick: usize,
) -> Result<(), TestCaseError> {
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
    prop_assume!(members.len() >= 2);
    let origin = members[origin_pick % members.len()];
    let mut net = scripted_net(topo, members.clone(), proto.scheme(), TraceConfig::Off);
    install_one_shot(&mut net, origin, 50, SourceMessage {
        dest: Destination::Multicast(0),
        payload_len: 300,
    });
    let out = net.run_until(5_000_000);
    prop_assert!(out.drained, "{proto:?} failed to drain");
    prop_assert!(out.deadlock.is_none(), "{proto:?} deadlocked");
    net.audit().map_err(TestCaseError::fail)?;
    // Exactly-once delivery to every member except the origin.
    let mut got: Vec<u32> = net.msgs.deliveries.iter().map(|d| d.host.0).collect();
    got.sort_unstable();
    let mut want: Vec<u32> = members
        .iter()
        .filter(|&&m| m != origin)
        .map(|m| m.0)
        .collect();
    want.sort_unstable();
    prop_assert_eq!(got, want, "{:?}: wrong delivery set", proto);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn hc_store_and_forward_delivers_exactly_once(
        seed in 0u64..300, n in 2usize..7, bits in 1u16.., pick in 0usize..16,
    ) {
        run_one(Proto::HcSnf, seed, n, bits, pick)?;
    }

    #[test]
    fn hc_cut_through_delivers_exactly_once(
        seed in 0u64..300, n in 2usize..7, bits in 1u16.., pick in 0usize..16,
    ) {
        run_one(Proto::HcCut, seed, n, bits, pick)?;
    }

    #[test]
    fn hc_serialized_delivers_exactly_once(
        seed in 0u64..300, n in 2usize..7, bits in 1u16.., pick in 0usize..16,
    ) {
        run_one(Proto::HcSerialized, seed, n, bits, pick)?;
    }

    #[test]
    fn tree_root_serialized_delivers_exactly_once(
        seed in 0u64..300, n in 2usize..7, bits in 1u16.., pick in 0usize..16,
    ) {
        run_one(Proto::TreeRoot, seed, n, bits, pick)?;
    }

    #[test]
    fn tree_broadcast_delivers_exactly_once(
        seed in 0u64..300, n in 2usize..7, bits in 1u16.., pick in 0usize..16,
    ) {
        run_one(Proto::TreeBroadcast, seed, n, bits, pick)?;
    }

    #[test]
    fn switchcast_v1_delivers_exactly_once(
        seed in 0u64..300, n in 2usize..7, bits in 1u16.., pick in 0usize..16,
    ) {
        run_one(Proto::SwitchV1, seed, n, bits, pick)?;
    }

    #[test]
    fn switchcast_v2_delivers_exactly_once(
        seed in 0u64..300, n in 2usize..7, bits in 1u16.., pick in 0usize..16,
    ) {
        run_one(Proto::SwitchV2, seed, n, bits, pick)?;
    }
}
