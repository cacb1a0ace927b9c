//! Seeded differential fuzz of the span-batched engine — the first slice
//! of ROADMAP's scenario fuzzer.
//!
//! `span_equivalence.rs` pins per-byte ≡ span-batched on a handful of
//! hand-picked fabrics; this file draws the fabric, the scheme, the load,
//! the lane count and the worm-length distribution from a seed and runs
//! the same harness on each draw (sorted deliveries, `NetStats` minus the
//! event counters, raw JSONL byte for byte, traced ≡ untraced) plus "no
//! deadlock verdict, either mode" — every fabric here routes up/down.
//! Each case prints a one-line description before it runs; replay one
//! with `FUZZ_SEED=<seed> FUZZ_CASES=1 cargo test --test span_fuzz`.
//!
//! It earns its keep: a tempting extension of the clear-circuit rule —
//! "the rest of the worm fits below the receiver's mark, so never mind
//! whether it drains" — diverges within a few dozen cases (ROADMAP, "Fewer
//! events per byte").

mod common;

use common::assert_equivalent;
use wormcast::topo::irregular::{irregular, IrregularSpec};
use wormcast_bench::fig10::figure_tree_scheme;
use wormcast_bench::runner::SimSetup;
use wormcast_bench::Scheme;
use wormcast_core::HcConfig;
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

/// Cases in the tier-1 run, and the seed of the first one.
const TIER1_CASES: u64 = 40;
const TIER1_SEED: u64 = 64_900;

/// One drawn scenario; `Display` is the replayable one-liner.
#[derive(Clone, Copy, Debug)]
struct Case {
    seed: u64,
    spec: IrregularSpec,
    scheme: usize,
    load: f64,
    lanes: u8,
    mean: u32,
}

const SCHEMES: [&str; 3] = ["s&f", "cut-through", "tree"];

impl std::fmt::Display for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed={} sw={} extra={} hps={} delay={} {} load={:.2} lanes={} mean={}",
            self.seed,
            self.spec.num_switches,
            self.spec.extra_links,
            self.spec.hosts_per_switch,
            self.spec.link_delay,
            SCHEMES[self.scheme],
            self.load,
            self.lanes,
            self.mean
        )
    }
}

impl Case {
    /// Everything about the case follows from `seed` alone.
    fn draw(seed: u64) -> Case {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut pick = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        Case {
            seed,
            spec: IrregularSpec {
                num_switches: 3 + pick(6) as usize,
                extra_links: pick(5) as usize,
                hosts_per_switch: 1 + pick(3) as usize,
                link_delay: [1, 2, 3, 7, 20, 100][pick(6) as usize],
            },
            scheme: pick(3) as usize,
            load: (4 + pick(22)) as f64 / 100.0,
            lanes: 1 + pick(2) as u8,
            mean: [40, 400, 1500][pick(3) as usize],
        }
    }

    fn setup(&self) -> SimSetup {
        let hosts = self.spec.num_switches * self.spec.hosts_per_switch;
        let mut grng = host_stream(self.seed ^ 0xA5A5, 0x6131);
        let groups = GroupSet::random(hosts, 2, 3.min(hosts), &mut grng);
        let scheme = [
            Scheme::Hc(HcConfig::store_and_forward()),
            Scheme::Hc(HcConfig::cut_through()),
            figure_tree_scheme(),
        ][self.scheme];
        let workload = PaperWorkload {
            offered_load: self.load,
            multicast_prob: 0.10,
            lengths: LengthDist::Geometric { mean: self.mean },
            stop_at: None,
        };
        // A light load on a few hosts with long worms may generate nothing
        // in 12 000 byte-times; stretch the window until ~16 messages are
        // expected, so that no case passes vacuously.
        let measure = (16.0 * self.mean as f64 / (self.load * hosts as f64)) as u64;
        SimSetup::builder(irregular(self.spec, self.seed), groups, scheme, workload)
            .seed(self.seed)
            .lanes(self.lanes)
            .windows(2_000, measure.max(12_000), 10_000)
            .build()
            .expect("valid setup")
    }
}

fn run_cases(first_seed: u64, cases: u64) {
    for seed in first_seed..first_seed + cases {
        let case = Case::draw(seed);
        println!("span_fuzz: {case}");
        assert_equivalent(|| case.setup(), &case.to_string());
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{name}={v:?} is not a number"))
    })
}

/// The tier-1 slice; `FUZZ_SEED` / `FUZZ_CASES` move or lengthen it.
#[test]
fn seeded_cases_agree_across_engine_modes() {
    run_cases(
        env_u64("FUZZ_SEED").unwrap_or(TIER1_SEED),
        env_u64("FUZZ_CASES").unwrap_or(TIER1_CASES),
    );
}

/// `cargo test --release --test span_fuzz -- --ignored`
#[test]
#[ignore = "5 000 cases: minutes, run before touching the span rules"]
fn five_thousand_seeded_cases_agree() {
    run_cases(env_u64("FUZZ_SEED").unwrap_or(1_000_000), 5_000);
}
