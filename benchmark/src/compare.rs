//! `compare A.json B.json`: two `result.json` files, A the parent and B the
//! change, row by row against the bounds of the manifest.
//!
//! A host-time metric is `regressed` when B's median is worse than A's by
//! more than the bound, and `unresolved` when either side's spread is wider
//! than the bound while the two sets of runs overlap: then the runs cannot
//! tell the commits apart, and the row is neither a pass nor a claim. A
//! simulated metric of the same seed and run length must be equal, bit for
//! bit (`changed` otherwise); across seeds it is held to its bound like a
//! host metric.

use crate::all::as_f64;
use crate::schema::{self, Better, Clock, EndToEnd};
use crate::stat::{sig6, Dist};
use crate::workloads;
use crate::Args;
use serde_json::Value;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    /// A simulated statistic differs between two runs of the same inputs.
    Changed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }
}

/// The verdict of one (metric, workload) row. `same_inputs`: both files
/// were taken with the same seed and run length.
pub fn verdict(m: &EndToEnd, a: &[f64], b: &[f64], same_inputs: bool) -> Verdict {
    let (da, db) = (Dist::of(a), Dist::of(b));
    if m.clock == Clock::Simulated && same_inputs {
        return if da.median.to_bits() == db.median.to_bits() {
            Verdict::Ok
        } else {
            Verdict::Changed
        };
    }
    // Orient so that larger is worse.
    let sign = match m.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (db.median - da.median) / da.median.abs();
    let b_all_better = match m.better {
        Better::Lower => db.max < da.min,
        Better::Higher => db.min > da.max,
    };
    let overlap = da.min <= db.max && db.min <= da.max;
    if da.spread().max(db.spread()) > m.bound && overlap && !b_all_better {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

struct ResultFile {
    seed: Option<f64>,
    seconds: Option<f64>,
    root: Value,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let root = serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(ResultFile {
        seed: root.get("seed").and_then(as_f64),
        seconds: root.get("seconds").and_then(as_f64),
        root,
    })
}

fn values(file: &ResultFile, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let cell = file
        .root
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    match cell.get("values")? {
        Value::Array(items) => items.iter().map(as_f64).collect(),
        _ => None,
    }
}

pub fn compare(args: &Args) -> Result<bool, String> {
    let [a_path, b_path] = args.positional.as_slice() else {
        return Err("usage: compare <parent.json> <change.json>".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let same_inputs = a.seed.is_some() && a.seed == b.seed && a.seconds == b.seconds;
    if !same_inputs {
        println!("note: seeds or run lengths differ; simulated metrics are held to their bounds, not to equality");
    }
    println!(
        "{:<20} {:<26} {:>11} {:>26} {:>11} {:>26} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "A median",
        "A [p25, p75]",
        "B median",
        "B [p25, p75]",
        "B vs A",
        "bound"
    );
    let mut pass = true;
    for w in workloads::all() {
        for m in &schema::END_TO_END {
            let (Some(va), Some(vb)) = (values(&a, w.name, m.name), values(&b, w.name, m.name))
            else {
                println!("{:<20} {:<26} missing from one file", w.name, m.name);
                pass = false;
                continue;
            };
            let (da, db) = (Dist::of(&va), Dist::of(&vb));
            let v = verdict(m, &va, &vb, same_inputs);
            pass &= matches!(v, Verdict::Ok | Verdict::Unresolved);
            let bound = if m.clock == Clock::Simulated && same_inputs {
                "exact".to_string()
            } else {
                format!("{:.0}%", m.bound * 100.0)
            };
            let quartiles = |d: &Dist| format!("[{}, {}]", sig6(d.p25), sig6(d.p75));
            println!(
                "{:<20} {:<26} {:>11} {:>26} {:>11} {:>26} {:>+7.2}% {:>6}  {}",
                w.name,
                m.name,
                sig6(da.median),
                quartiles(&da),
                sig6(db.median),
                quartiles(&db),
                (db.median - da.median) / da.median.abs() * 100.0,
                bound,
                v.as_str()
            );
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(better: Better) -> EndToEnd {
        EndToEnd {
            name: "t",
            unit: "s",
            better,
            bound: 0.10,
            clock: Clock::Host,
            gated: true,
        }
    }

    #[test]
    fn host_metric_verdicts() {
        let lower = host(Better::Lower);
        let a = [1.00, 1.01, 0.99, 1.02, 0.98];
        assert_eq!(
            verdict(&lower, &a, &[1.05, 1.04, 1.06, 1.05, 1.03], true),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&lower, &a, &[1.15, 1.14, 1.16, 1.15, 1.13], true),
            Verdict::Regressed
        );
        // An improvement is never a regression, in either direction.
        assert_eq!(
            verdict(&lower, &a, &[0.5, 0.51, 0.49, 0.5, 0.5], true),
            Verdict::Ok
        );
        let higher = host(Better::Higher);
        assert_eq!(
            verdict(&higher, &a, &[0.85, 0.86, 0.84, 0.85, 0.85], true),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&higher, &a, &[1.5, 1.4, 1.6, 1.5, 1.5], true),
            Verdict::Ok
        );
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let lower = host(Better::Lower);
        let noisy_a = [1.0, 1.3, 0.8, 1.2, 0.9];
        let noisy_b = [1.1, 1.4, 0.85, 1.25, 0.95];
        assert_eq!(
            verdict(&lower, &noisy_a, &noisy_b, true),
            Verdict::Unresolved
        );
        // ...unless every run of the change beats every run of the parent.
        assert_eq!(
            verdict(&lower, &noisy_a, &[0.5, 0.7, 0.4, 0.6, 0.45], true),
            Verdict::Ok
        );
        // Wide but disjoint and worse: the regression is resolved.
        assert_eq!(
            verdict(&lower, &noisy_a, &[2.0, 2.6, 1.6, 2.4, 1.8], true),
            Verdict::Regressed
        );
    }

    #[test]
    fn simulated_metrics_are_exact_on_the_same_inputs() {
        let sim = EndToEnd {
            clock: Clock::Simulated,
            ..host(Better::Lower)
        };
        assert_eq!(verdict(&sim, &[2417.1; 3], &[2417.1; 3], true), Verdict::Ok);
        assert_eq!(
            verdict(&sim, &[2417.1; 3], &[2417.1000001; 3], true),
            Verdict::Changed
        );
        // Across seeds the bound applies instead.
        assert_eq!(
            verdict(&sim, &[2417.1; 3], &[2500.0; 3], false),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&sim, &[2417.1; 3], &[2900.0; 3], false),
            Verdict::Regressed
        );
    }
}
