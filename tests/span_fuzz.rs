//! Seeded differential fuzz of the span-batched engine — the first slice
//! of ROADMAP's scenario fuzzer.
//!
//! `span_equivalence.rs` pins per-byte ≡ span-batched on a handful of
//! hand-picked fabrics; this file draws the fabric, the scheme, the load,
//! the lane count, the worm-length distribution and the delay of the host
//! links and of each trunk from a seed and runs the same harness on each
//! draw (sorted deliveries, `NetStats` minus the event counters, raw JSONL
//! byte for byte, traced ≡ untraced) plus "no deadlock verdict, either
//! mode" — every fabric here routes up/down.
//! Each case prints a one-line description before it runs; replay one
//! with `FUZZ_SEED=<seed> FUZZ_CASES=1 cargo test --test span_fuzz`.
//!
//! It earns its keep. A tempting *volume* rule for long links — "the rest
//! of the worm fits below the receiver's mark, so never mind whether it
//! drains" — diverges within a few dozen cases: a STOP already on the
//! control wire halts the drain it counted on. The rule that replaced it
//! asks for a *time* instead: how long the receiver is certain to keep
//! draining, given that no STOP is in force or on the wire anywhere it
//! looked (DESIGN.md §3.1, "certified drain window"). That rule lives
//! where a short lane feeds a long one, so half the cases draw every
//! trunk's delay separately and a quarter lengthen the host links.
//!
//! Since a worm's route bytes ride in its spans ("head runs", same
//! section) two more draws aim at what a head run can get wrong. One case
//! in four sends *tiny worms* (geometric, mean 4): the whole body fits
//! inside the head run, so heads land right behind the previous worm's
//! tail, many heads meet in one tick at one switch (served in event order:
//! a span's arrival must sort where its first byte's would), and a grant,
//! a GO and a kick armed earlier fall into one tick (pacing: no byte
//! leaves an input before its per-byte arrival slot). One case in eight
//! is *tall*: 9–12 switches and no extra links, a random tree whose
//! up/down routes are longer than the 8-byte room of a delay-1 input, so
//! a head run is split across spans and truncated mid-route.

mod common;

use common::assert_equivalent;
use wormcast::topo::irregular::{irregular, IrregularSpec};
use wormcast::topo::Topology;
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
    /// Delay of every host link.
    host_delay: u64,
    /// Generator each trunk draws its own delay from, or `None` for
    /// `spec.link_delay` on every trunk.
    trunks: Option<XorShift>,
    /// Tiny worms: `mean` is 4, whatever was drawn for it.
    tiny: bool,
    /// A tall tree: `spec` has 9–12 switches and no extra links, whatever
    /// was drawn for it.
    tall: bool,
}

/// The generator every draw of a case comes from.
#[derive(Clone, Copy, Debug)]
struct XorShift(u64);

impl XorShift {
    fn pick(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// What a trunk's delay is drawn from when trunks differ.
const TRUNK_DELAYS: [u64; 7] = [1, 2, 3, 7, 20, 100, 300];

const SCHEMES: [&str; 3] = ["s&f", "cut-through", "tree"];

impl std::fmt::Display for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "seed={} sw={} extra={} hps={} delay={} {} load={:.2} lanes={} mean={} host-delay={} trunks={}{}{}",
            self.seed,
            self.spec.num_switches,
            self.spec.extra_links,
            self.spec.hosts_per_switch,
            self.spec.link_delay,
            SCHEMES[self.scheme],
            self.load,
            self.lanes,
            self.mean,
            self.host_delay,
            if self.trunks.is_some() { "mixed" } else { "uniform" },
            if self.tiny { " tiny" } else { "" },
            if self.tall { " tall" } else { "" }
        )
    }
}

impl Case {
    /// Everything about the case follows from `seed` alone.
    fn draw(seed: u64) -> Case {
        let mut x = XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut case = Case {
            seed,
            spec: IrregularSpec {
                num_switches: 3 + x.pick(6) as usize,
                extra_links: x.pick(5) as usize,
                hosts_per_switch: 1 + x.pick(3) as usize,
                link_delay: [1, 2, 3, 7, 20, 100][x.pick(6) as usize],
            },
            scheme: x.pick(3) as usize,
            load: (4 + x.pick(22)) as f64 / 100.0,
            lanes: 1 + x.pick(2) as u8,
            mean: [40, 400, 1500][x.pick(3) as usize],
            // Drawn last, so that a seed keeps the fabric, scheme, load,
            // lanes and worm length it had before these two existed.
            host_delay: [1, 1, 2, 5][x.pick(4) as usize],
            trunks: (x.pick(2) == 1).then_some(x),
            // Drawn after `trunks`, for the same reason: three seeds in
            // four, and seven in eight, keep the case they had.
            tiny: x.pick(4) == 0,
            tall: x.pick(8) == 0,
        };
        if case.tiny {
            case.mean = 4;
        }
        if case.tall {
            case.spec.num_switches = 9 + x.pick(4) as usize;
            case.spec.extra_links = 0;
        }
        case
    }

    /// The drawn fabric: `irregular`'s switch graph, with the host links
    /// and (on half the cases) each trunk given its own delay — a short
    /// lane feeding a long one is where a drain window opens.
    fn topology(&self) -> Topology {
        let mut topo = irregular(self.spec, self.seed);
        topo.host_link_delay = self.host_delay;
        if let Some(mut x) = self.trunks {
            for link in &mut topo.links {
                link.delay = TRUNK_DELAYS[x.pick(TRUNK_DELAYS.len() as u64) as usize];
            }
        }
        topo
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
        SimSetup::builder(self.topology(), groups, scheme, workload)
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
