//! The closed set of five workloads, and how a seed becomes their inputs.
//!
//! Every workload is `lanes(1)` on one shard. The seed argument feeds
//! `GroupSet::random`, the per-host `PaperSource` streams and
//! `NetworkConfig::seed`; the simulator receives only the generated setup.
//! The simulated windows are the issue's windows; only `torus_saturated`'s
//! is shrunk (never the repetition count), so that one run of ten points
//! fits the builder's cap.

use wormcast_bench::fig10::figure_tree_scheme;
use wormcast_bench::fig11::LINK_DELAY;
use wormcast_bench::runner::SimSetup;
use wormcast_bench::schemes::Scheme;
use wormcast_core::HcConfig;
use wormcast_sim::network::SimMode;
use wormcast_sim::trace::TraceConfig;
use wormcast_topo::shufflenet::shufflenet24;
use wormcast_topo::torus::torus;
use wormcast_topo::{ShardPlan, Topology};
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

/// The default `--seed` (the Fig 10 seed of the repository's own drivers).
pub const DEFAULT_SEED: u64 = 0xF1610;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fabric {
    /// Fig 10: 8×8 torus, 64 hosts, 10 random groups of 10.
    Torus8,
    /// Fig 11: 24-node bidirectional shufflenet, 1000-byte-time links,
    /// 4 random groups of 6.
    Shufflenet24,
}

/// Warm-up / measure / drain, in byte-times.
#[derive(Clone, Copy, Debug)]
pub struct Windows {
    pub warmup: u64,
    pub measure: u64,
    pub drain: u64,
}

impl Windows {
    pub fn total(&self) -> u64 {
        self.warmup + self.measure + self.drain
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    pub fabric: Fabric,
    pub scheme: Scheme,
    pub load: f64,
    pub mcast_prob: f64,
    pub mode: SimMode,
    pub trace: TraceConfig,
    pub windows: Windows,
    /// Shorter windows for the layer run's traced and 2-shard probes.
    pub probe: Windows,
    /// Below the knee every expected delivery must arrive by the deadline.
    pub must_drain: bool,
}

const fn w(warmup: u64, measure: u64, drain: u64) -> Windows {
    Windows {
        warmup,
        measure,
        drain,
    }
}

pub fn all() -> [Workload; 5] {
    [
        Workload {
            name: "torus_light",
            why: "Fig 10 torus below the knee: long clean spans, a sparse wheel and inject gaps in the overflow heap; the span fast path does most of the work",
            fabric: Fabric::Torus8,
            scheme: figure_tree_scheme(),
            load: 0.04,
            mcast_prob: 0.10,
            mode: SimMode::SpanBatched,
            trace: TraceConfig::Off,
            windows: w(50_000, 1_500_000, 150_000),
            probe: w(20_000, 100_000, 60_000),
            must_drain: true,
        },
        Workload {
            name: "torus_saturated",
            why: "Fig 10 torus past the knee with cut-through circuits: STOP/GO storms, truncated spans, blocked heads and growing adapter backlogs; bypasses the clean-span path",
            fabric: Fabric::Torus8,
            scheme: Scheme::Hc(HcConfig::cut_through()),
            load: 0.12,
            mcast_prob: 0.10,
            mode: SimMode::SpanBatched,
            trace: TraceConfig::Off,
            windows: w(50_000, 500_000, 100_000),
            probe: w(20_000, 60_000, 20_000),
            must_drain: false,
        },
        Workload {
            name: "shufflenet_longlink",
            why: "Fig 11 shufflenet with 1000-byte-time links, store-and-forward circuits: events sit far ahead in the wheel and span rings are deep; topo and switch do little",
            fabric: Fabric::Shufflenet24,
            scheme: Scheme::Hc(HcConfig::store_and_forward()),
            load: 0.05,
            mcast_prob: 0.20,
            mode: SimMode::SpanBatched,
            trace: TraceConfig::Off,
            windows: w(100_000, 4_000_000, 300_000),
            probe: w(50_000, 300_000, 150_000),
            must_drain: true,
        },
        Workload {
            name: "torus_perbyte",
            why: "Fig 10 torus on the per-byte reference engine: the span path is bypassed, so wheel push/pop and event dispatch do nearly all the work",
            fabric: Fabric::Torus8,
            scheme: figure_tree_scheme(),
            load: 0.06,
            mcast_prob: 0.10,
            mode: SimMode::PerByte,
            trace: TraceConfig::Off,
            windows: w(20_000, 200_000, 60_000),
            probe: w(5_000, 15_000, 40_000),
            must_drain: true,
        },
        Workload {
            name: "torus_traced",
            why: "Fig 10 torus with an in-memory trace, rendered, expanded and validated: trace and trace_io do most of the work here and none anywhere else",
            fabric: Fabric::Torus8,
            scheme: Scheme::Hc(HcConfig::store_and_forward()),
            load: 0.08,
            mcast_prob: 0.10,
            mode: SimMode::SpanBatched,
            trace: TraceConfig::Memory,
            windows: w(20_000, 100_000, 40_000),
            probe: w(20_000, 100_000, 40_000),
            must_drain: false,
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// The seed of point `i` of a run: SplitMix64 of `(seed, i)`, so that the
/// nine points of one run are nine independent draws of the inputs and two
/// runs with different `--seed` share none.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    pub fn topology(&self) -> Topology {
        match self.fabric {
            Fabric::Torus8 => torus(8, 1),
            Fabric::Shufflenet24 => shufflenet24(LINK_DELAY),
        }
    }

    /// The random multicast groups of this fabric for `seed`.
    pub fn groups(&self, seed: u64) -> GroupSet {
        match self.fabric {
            Fabric::Torus8 => GroupSet::random(64, 10, 10, &mut host_stream(seed, 0x6071)),
            Fabric::Shufflenet24 => GroupSet::random(24, 4, 6, &mut host_stream(seed, 0x6111)),
        }
    }

    pub fn traffic(&self) -> PaperWorkload {
        PaperWorkload {
            offered_load: self.load,
            multicast_prob: self.mcast_prob,
            lengths: LengthDist::Geometric { mean: 400 },
            stop_at: None,
        }
    }

    /// Parameters → validated experiment point (the first half of set-up;
    /// `runner::build_network` is the second).
    pub fn setup(
        &self,
        seed: u64,
        windows: Windows,
        mode: SimMode,
        trace: TraceConfig,
    ) -> SimSetup {
        SimSetup::builder(
            self.topology(),
            self.groups(seed),
            self.scheme,
            self.traffic(),
        )
        .seed(seed)
        .mode(mode)
        .trace(trace)
        .windows(windows.warmup, windows.measure, windows.drain)
        .build()
        .expect("workload parameters are valid")
    }

    /// The point as the workload defines it.
    pub fn point(&self, seed: u64) -> SimSetup {
        self.setup(seed, self.windows, self.mode, self.trace)
    }

    /// The 2-shard plan of the layer run's shard probe.
    pub fn two_shard_plan(&self) -> ShardPlan {
        match self.fabric {
            Fabric::Torus8 => ShardPlan::torus_grid(8, 2),
            Fabric::Shufflenet24 => ShardPlan::bfs_contiguous(&self.topology(), 0, 2),
        }
        .expect("two shards fit both fabrics")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for wl in all() {
            let a = wl.groups(sub_seed(7, 0));
            let b = wl.groups(sub_seed(7, 0));
            let c = wl.groups(sub_seed(8, 0));
            let members = |g: &GroupSet| {
                (0..g.num_groups() as u8)
                    .map(|i| g.members(i).to_vec())
                    .collect::<Vec<_>>()
            };
            assert_eq!(members(&a), members(&b), "{}", wl.name);
            assert_ne!(members(&a), members(&c), "{}", wl.name);
        }
        let seeds: Vec<u64> = (0..9).map(|i| sub_seed(DEFAULT_SEED, i)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 9);
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        let names: Vec<&str> = all().iter().map(|w| w.name).collect();
        for n in &names {
            assert_eq!(by_name(n).map(|w| w.name), Some(*n));
            assert_eq!(names.iter().filter(|m| m == &n).count(), 1);
        }
        assert!(by_name("torus").is_none());
    }
}
