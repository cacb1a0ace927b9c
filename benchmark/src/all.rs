//! `all`: every workload's end-to-end repetitions, then one layer run per
//! workload, each in a fresh child process of this binary, so that
//! `peak_rss_mib` belongs to one workload and a 200 MB trace cannot leak
//! into its neighbours' heaps. Repetitions are interleaved round-robin
//! across workloads so that machine drift spreads evenly over them.

use crate::schema::{self, obj, Clock, Json};
use crate::stat::{sig6, Dist};
use crate::workloads;
use crate::Args;
use serde_json::Value;
use std::process::{Command, Stdio};

/// Where `all` and the layer run write, relative to the directory the
/// command is started in (the repository root).
pub const OUT_DIR: &str = "benchmark/out";

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

/// What one child reported on its last line.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn parse_child(stdout: &str) -> Result<Child, String> {
    let last = stdout.lines().last().ok_or("no output")?;
    let v = serde_json::parse_value(last).map_err(|e| e.to_string())?;
    let count = |key: &str| match v.get(key) {
        Some(Value::U64(n)) => Ok(*n),
        other => Err(format!("{key}: {other:?}")),
    };
    let Some(Value::Object(fields)) = v.get("metrics") else {
        return Err("no metrics object".into());
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(as_f64)
                .map(|x| (name.clone(), x))
                .ok_or_else(|| format!("metric {name} has no numeric value"))
        })
        .collect::<Result<_, _>>()?;
    Ok(Child {
        correct: matches!(v.get("correct"), Some(Value::Bool(true))),
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// Run one child to completion (its warnings pass through on stderr).
fn child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: u8,
    out_dir: &str,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .args(["--out", out_dir])
        .args(["--ungated", "1"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut c = parse_child(&stdout).map_err(|e| format!("{workload} (trace {trace}): {e}"))?;
    // A child that printed a result but exited non-zero failed a check.
    c.correct &= output.status.success();
    Ok(c)
}

fn dist_value(unit: &str, values: &[f64]) -> Value {
    let d = Dist::of(values);
    obj(vec![
        ("unit", Value::Str(unit.to_string())),
        (
            "values",
            Value::Array(values.iter().map(|x| Value::F64(*x)).collect()),
        ),
        ("n", Value::U64(d.n as u64)),
        ("min", Value::F64(d.min)),
        ("p25", Value::F64(d.p25)),
        ("median", Value::F64(d.median)),
        ("p75", Value::F64(d.p75)),
        ("max", Value::F64(d.max)),
    ])
}

pub fn all(args: &Args) -> Result<bool, String> {
    let seed = args.number("seed", workloads::DEFAULT_SEED)?;
    let seconds = args.number("seconds", schema::NOMINAL_SECONDS)?;
    let reps = args.number("reps", 3)?.max(1);
    let out_dir = args.get("out").unwrap_or(OUT_DIR);
    let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
    let mut ok = true;

    // End-to-end repetitions, uninstrumented, round-robin across workloads.
    let mut e2e: Vec<Vec<Child>> = names.iter().map(|_| Vec::new()).collect();
    for rep in 0..reps {
        for (i, name) in names.iter().enumerate() {
            eprintln!("all: repetition {}/{reps} of {name}", rep + 1);
            e2e[i].push(child(name, seed, seconds, 0, out_dir)?);
        }
    }
    // One layer run per workload.
    let mut layers = Vec::new();
    for name in &names {
        eprintln!("all: layer run of {name}");
        layers.push(child(name, seed, seconds, 1, out_dir)?);
    }

    let mut spans = String::new();
    let mut per_workload = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let children = &e2e[i];
        let mut metrics = Vec::new();
        for m in schema::END_TO_END {
            let values: Vec<f64> = children
                .iter()
                .map(|c| {
                    c.metrics
                        .iter()
                        .find(|(n, _)| n == m.name)
                        .map(|(_, x)| *x)
                        .ok_or_else(|| format!("{name}: a repetition printed no {}", m.name))
                })
                .collect::<Result<_, _>>()?;
            let d = Dist::of(&values);
            println!(
                "{name:<20} {:<36} {:>14} {:<9} median of {} [min {}, p25 {}, p75 {}]",
                m.name,
                sig6(d.median),
                m.unit,
                d.n,
                sig6(d.min),
                sig6(d.p25),
                sig6(d.p75)
            );
            // Simulated statistics are deterministic: every repetition of
            // a workload must print the same bits.
            if m.clock == Clock::Simulated
                && values.iter().any(|x| x.to_bits() != values[0].to_bits())
            {
                eprintln!(
                    "FAILED CHECK {name}: {} differs between repetitions: {values:?}",
                    m.name
                );
                ok = false;
            }
            metrics.push((m.name, dist_value(m.unit, &values)));
        }
        let layer = &layers[i];
        for (metric, value) in &layer.metrics {
            let unit = schema::unit_of(metric)
                .ok_or_else(|| format!("{name}: unknown metric {metric}"))?;
            println!("{name:<20} {metric:<36} {:>14} {unit}", sig6(*value));
        }
        let correct = layer.correct && children.iter().all(|c| c.correct);
        ok &= correct;
        per_workload.push((
            *name,
            obj(vec![
                ("correct", Value::Bool(correct)),
                (
                    "attempted",
                    Value::U64(children.iter().map(|c| c.attempted).sum()),
                ),
                (
                    "failed",
                    Value::U64(children.iter().map(|c| c.failed).sum()),
                ),
                ("end_to_end", obj(metrics)),
                (
                    "per_layer",
                    Value::Object(
                        layer
                            .metrics
                            .iter()
                            .map(|(metric, value)| {
                                let unit = schema::unit_of(metric).expect("checked above");
                                let cell = obj(vec![
                                    ("unit", Value::Str(unit.to_string())),
                                    ("value", Value::F64(*value)),
                                ]);
                                (metric.clone(), cell)
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
        let path = format!("{out_dir}/spans.{name}.jsonl");
        spans.push_str(&std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?);
    }

    let result = obj(vec![
        ("seed", Value::U64(seed)),
        ("seconds", Value::U64(seconds)),
        ("reps", Value::U64(reps)),
        ("cpus", Value::U64(crate::clock::cpus() as u64)),
        ("correct", Value::Bool(ok)),
        ("workloads", obj(per_workload)),
    ]);
    let text = serde_json::to_string_pretty(&Json(result)).expect("serialize result");
    for (file, content) in [("result.json", &text), ("spans.jsonl", &spans)] {
        let path = format!("{out_dir}/{file}");
        std::fs::write(&path, content).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("all: wrote {path}");
    }
    if !ok {
        eprintln!("all: at least one check FAILED");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::RunResult;

    #[test]
    fn result_line_round_trips_and_reports_failure() {
        let good = RunResult {
            metrics: vec![("setup_s", 0.0123456789), ("delivery_ratio", 1.0)],
            attempted: 10,
            failed: 0,
            failures: vec![],
        };
        let c =
            parse_child(&format!("a table line\n{}\n", good.result_line(true))).expect("parses");
        assert!(c.correct);
        assert_eq!((c.attempted, c.failed), (10, 0));
        assert_eq!(
            c.metrics,
            vec![
                ("setup_s".to_string(), 0.0123456789),
                ("delivery_ratio".to_string(), 1.0)
            ]
        );

        let bad = RunResult {
            failures: vec!["audit: lost a worm".into()],
            failed: 10,
            ..good
        };
        let c = parse_child(&bad.result_line(true)).expect("parses");
        assert!(!c.correct && c.failed == c.attempted);
        assert!(parse_child("not json").is_err());
    }
}
