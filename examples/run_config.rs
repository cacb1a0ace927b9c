//! Config-driven experiment runner: describe a simulation in JSON, get
//! JSON results back — the shape a downstream user scripts parameter
//! studies with.
//!
//!     cargo run --release --example run_config            # built-in demo config
//!     cargo run --release --example run_config -- my.json # your own
//!
//! The config selects a topology (torus / shufflenet), a scheme, the
//! Section 7 workload, and the measurement windows; the output carries the
//! latency/throughput summaries plus the hottest links. Fields are
//! snake_case; the topology and the scheme are externally tagged by their
//! kebab-case variant names (see `examples/configs/shufflenet_hc.json`).

use serde_json::Value;
use wormcast::sim::time::SimTime;
use wormcast::stats::links::{hotspot_factor, link_loads};
use wormcast::stats::latency::{latencies, Kind};
use wormcast::topo::{shufflenet::shufflenet24, torus::torus, Topology};
use wormcast::traffic::rng::host_stream;
use wormcast::traffic::workload::PaperWorkload;
use wormcast::traffic::{GroupSet, LengthDist};
use wormcast_bench::json::{self, field, float, uint};
use wormcast_bench::runner::{build_network, SimSetup};
use wormcast_bench::Scheme;

enum TopologyConfig {
    Torus { k: usize, link_delay: SimTime },
    Shufflenet24 { link_delay: SimTime },
}

impl TopologyConfig {
    fn to_value(&self) -> Value {
        let (tag, body) = match *self {
            TopologyConfig::Torus { k, link_delay } => {
                ("torus", vec![("k", k as u64), ("link_delay", link_delay)])
            }
            TopologyConfig::Shufflenet24 { link_delay } => {
                ("shufflenet24", vec![("link_delay", link_delay)])
            }
        };
        json::object([(tag, json::object(body.into_iter().map(|(k, n)| (k, Value::U64(n)))))])
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let (tag, body) = json::variant(v)?;
        match tag {
            "torus" => Ok(TopologyConfig::Torus {
                k: field(body, "k", uint)?,
                link_delay: field(body, "link_delay", uint)?,
            }),
            "shufflenet24" => Ok(TopologyConfig::Shufflenet24 {
                link_delay: field(body, "link_delay", uint)?,
            }),
            _ => Err(format!("unknown variant `{tag}`")),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum SchemeConfig {
    HcStoreForward,
    HcCutThrough,
    TreeBroadcastGreedy,
    RepeatUnicast,
}

/// Each scheme's name in a config file.
const SCHEMES: [(&str, SchemeConfig); 4] = [
    ("hc-store-forward", SchemeConfig::HcStoreForward),
    ("hc-cut-through", SchemeConfig::HcCutThrough),
    ("tree-broadcast-greedy", SchemeConfig::TreeBroadcastGreedy),
    ("repeat-unicast", SchemeConfig::RepeatUnicast),
];

impl SchemeConfig {
    fn to_value(self) -> Value {
        let (name, _) = SCHEMES.iter().find(|(_, s)| *s == self).expect("every scheme is named");
        Value::Str(name.to_string())
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let (tag, _) = json::variant(v)?;
        let known = SCHEMES.iter().find(|(name, _)| *name == tag);
        known.map(|&(_, s)| s).ok_or_else(|| format!("unknown variant `{tag}`"))
    }
}

struct Config {
    topology: TopologyConfig,
    scheme: SchemeConfig,
    groups: usize,
    group_size: usize,
    offered_load: f64,
    multicast_prob: f64,
    mean_worm_bytes: u32,
    warmup: SimTime,
    measure: SimTime,
    drain: SimTime,
    seed: u64,
}

impl Config {
    fn to_value(&self) -> Value {
        json::object([
            ("topology", self.topology.to_value()),
            ("scheme", self.scheme.to_value()),
            ("groups", Value::U64(self.groups as u64)),
            ("group_size", Value::U64(self.group_size as u64)),
            ("offered_load", Value::F64(self.offered_load)),
            ("multicast_prob", Value::F64(self.multicast_prob)),
            ("mean_worm_bytes", Value::U64(self.mean_worm_bytes.into())),
            ("warmup", Value::U64(self.warmup)),
            ("measure", Value::U64(self.measure)),
            ("drain", Value::U64(self.drain)),
            ("seed", Value::U64(self.seed)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(Config {
            topology: field(v, "topology", TopologyConfig::from_value)?,
            scheme: field(v, "scheme", SchemeConfig::from_value)?,
            groups: field(v, "groups", uint)?,
            group_size: field(v, "group_size", uint)?,
            offered_load: field(v, "offered_load", float)?,
            multicast_prob: field(v, "multicast_prob", float)?,
            mean_worm_bytes: field(v, "mean_worm_bytes", uint)?,
            warmup: field(v, "warmup", uint)?,
            measure: field(v, "measure", uint)?,
            drain: field(v, "drain", uint)?,
            seed: field(v, "seed", uint)?,
        })
    }
}

fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("a Value always prints")
}

fn demo_config() -> Config {
    Config {
        topology: TopologyConfig::Torus { k: 6, link_delay: 1 },
        scheme: SchemeConfig::TreeBroadcastGreedy,
        groups: 6,
        group_size: 8,
        offered_load: 0.04,
        multicast_prob: 0.10,
        mean_worm_bytes: 400,
        warmup: 40_000,
        measure: 200_000,
        drain: 100_000,
        seed: 42,
    }
}

fn main() {
    let cfg: Config = match std::env::args().nth(1) {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            serde_json::parse_value(&text)
                .map_err(|e| e.to_string())
                .and_then(|v| Config::from_value(&v))
                .unwrap_or_else(|e| panic!("invalid config {path}: {e}"))
        }
        None => {
            eprintln!("(no config given; running the built-in demo — pass a JSON path to customise)");
            eprintln!("demo config:\n{}\n", pretty(&demo_config().to_value()));
            demo_config()
        }
    };
    let topo: Topology = match cfg.topology {
        TopologyConfig::Torus { k, link_delay } => torus(k, link_delay),
        TopologyConfig::Shufflenet24 { link_delay } => shufflenet24(link_delay),
    };
    let scheme = match cfg.scheme {
        SchemeConfig::HcStoreForward => Scheme::Hc(wormcast::core::HcConfig::store_and_forward()),
        SchemeConfig::HcCutThrough => Scheme::Hc(wormcast::core::HcConfig::cut_through()),
        SchemeConfig::TreeBroadcastGreedy => wormcast_bench::fig10::figure_tree_scheme(),
        SchemeConfig::RepeatUnicast => {
            Scheme::Repeat(wormcast::core::UnicastRepeatConfig::default())
        }
    };
    let mut grng = host_stream(cfg.seed, 0xC0F1);
    let groups = GroupSet::random(topo.num_hosts(), cfg.groups, cfg.group_size, &mut grng);
    let workload = PaperWorkload {
        offered_load: cfg.offered_load,
        multicast_prob: cfg.multicast_prob,
        lengths: LengthDist::Geometric {
            mean: cfg.mean_worm_bytes,
        },
        stop_at: None,
    };
    let setup = SimSetup::builder(topo, groups, scheme, workload)
        .seed(cfg.seed)
        .windows(cfg.warmup, cfg.measure, cfg.drain)
        .build()
        .expect("config file passed validation");
    let mut net = build_network(&setup);
    let out = net.run_until(setup.drain_until);
    assert!(out.deadlock.is_none(), "deadlock: {:?}", out.deadlock);
    net.audit().expect("conservation");
    let mc = latencies(&net.msgs, Kind::Multicast, setup.warmup, setup.generate_until, None);
    let uc = latencies(&net.msgs, Kind::Unicast, setup.warmup, setup.generate_until, None);
    let loads = link_loads(&net, setup.drain_until);
    let hottest_links = loads.iter().take(5).map(|l| {
        let link = format!("{:?}:{} -> {:?}:{}", l.from.0, l.from.1, l.to.0, l.to.1);
        Value::Array(vec![Value::Str(link), Value::F64(l.utilization)])
    });
    let output = json::object([
        ("multicast_latency_mean", Value::F64(mc.per_delivery.mean)),
        ("multicast_latency_ci95", Value::F64(mc.per_delivery.ci95())),
        ("multicast_deliveries", Value::U64(mc.deliveries as u64)),
        ("unicast_latency_mean", Value::F64(uc.per_delivery.mean)),
        ("host_tx_utilization", Value::F64(net.mean_host_tx_utilization(setup.drain_until))),
        ("hotspot_factor", Value::F64(hotspot_factor(&net, setup.drain_until))),
        ("hottest_links", Value::Array(hottest_links.collect())),
    ]);
    println!("{}", pretty(&output));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The demo config with field `name` dropped, or set to the JSON `text`.
    fn demo_with(name: &str, text: Option<&str>) -> Result<Config, String> {
        let Value::Object(mut fields) = demo_config().to_value() else {
            unreachable!("a config is an object")
        };
        fields.retain(|(k, _)| k != name);
        fields.extend(text.map(|t| (name.to_owned(), serde_json::parse_value(t).unwrap())));
        Config::from_value(&Value::Object(fields))
    }

    #[test]
    fn the_demo_config_reads_back_as_written() {
        let text = pretty(&demo_config().to_value());
        let back = Config::from_value(&serde_json::parse_value(&text).unwrap()).unwrap();
        assert_eq!(pretty(&back.to_value()), text);
    }

    #[test]
    fn the_shipped_config_parses() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/configs/shufflenet_hc.json");
        let text = std::fs::read_to_string(path).unwrap();
        let cfg = Config::from_value(&serde_json::parse_value(&text).unwrap()).unwrap();
        assert!(matches!(cfg.topology, TopologyConfig::Shufflenet24 { link_delay: 1000 }));
        assert!(cfg.scheme == SchemeConfig::HcStoreForward);
        assert_eq!((cfg.groups, cfg.group_size, cfg.seed), (4, 6, 7));
    }

    #[test]
    fn a_bad_field_is_rejected_by_name() {
        for (name, text, error) in [
            ("seed", None, "missing field `seed`"),
            ("scheme", Some(r#""hc""#), "field `scheme`: unknown variant `hc`"),
            (
                "mean_worm_bytes",
                Some("5000000000"),
                "field `mean_worm_bytes`: expected u32, got U64(5000000000)",
            ),
            ("groups", Some("-1"), "field `groups`: expected usize, got I64(-1)"),
            (
                "topology",
                Some(r#"{"torus": {"k": 6}}"#),
                "field `topology`: missing field `link_delay`",
            ),
        ] {
            assert_eq!(demo_with(name, text).err().as_deref(), Some(error), "{name}");
        }
    }
}
