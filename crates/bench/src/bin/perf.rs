//! `perf check [engine|sweep|lanes|shard|trace|longlink]…` measures the named
//! sub-grids (all of them when none is named), diffs the counters against
//! the checked-in `results/BENCH_perf.json`, applies the cross-row gates
//! and exits non-zero on any failure. It writes the measured rows to
//! `results/perf_check.json` (git-ignored, uploaded by CI) and never
//! touches a tracked file.
//!
//! `perf pin` re-measures the whole grid and rewrites the baseline — the
//! deliberate act after an engine change that alters *what* is simulated
//! or how many events it takes. It refuses when a cross-row gate fails.
//!
//! See `wormcast_bench::perf` for the grid, the row schema and the gates.

use std::process::ExitCode;
use wormcast_bench::perf::{self, BenchFile, Finding, Row, Run, Verdict};

const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
const USAGE: &str = "usage: perf check [engine|sweep|lanes|shard|trace|longlink]... | perf pin";

fn measure(grids: &[String]) -> Vec<Run> {
    perf::grid()
        .iter()
        .filter(|p| grids.is_empty() || grids.iter().any(|g| p.in_grid(g)))
        .map(|p| {
            let run = perf::measure(p);
            eprintln!("perf {p}: {} events scheduled", run.row.events_scheduled);
            run
        })
        .collect()
}

/// Print one line per finding; true when none failed.
fn report(findings: &[Finding]) -> bool {
    for f in findings {
        let verdict = match f.verdict {
            Verdict::Ok => "ok",
            Verdict::Fail => "FAIL",
            Verdict::Note => "note",
        };
        eprintln!("perf {}: {verdict} — {}", f.gate, f.text);
    }
    findings.iter().all(|f| f.verdict != Verdict::Fail)
}

fn write(name: &str, rows: &[Row]) {
    let file = BenchFile::describe(rows.to_vec());
    let path = format!("{RESULTS}/{name}");
    std::fs::write(&path, file.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("perf: wrote {path}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (verb, grids) = match args.split_first() {
        Some((verb, grids)) if verb == "check" => (verb.as_str(), grids),
        Some((verb, [])) if verb == "pin" => (verb.as_str(), &[][..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(unknown) = grids.iter().find(|g| !perf::GRIDS.contains(&g.as_str())) {
        eprintln!("perf: unknown grid {unknown:?}\n{USAGE}");
        return ExitCode::from(2);
    }

    let runs = measure(grids);
    let mut ok = report(&perf::gates(&runs));
    let rows: Vec<Row> = runs.iter().map(|r| r.row.clone()).collect();
    eprintln!(
        "perf run-health: ok — conservation audit, no deadlock and trace_dropped == 0 \
         asserted on all {} runs",
        rows.len()
    );
    if verb == "pin" {
        if ok {
            write("BENCH_perf.json", &rows);
        } else {
            eprintln!("perf: gates failed; results/BENCH_perf.json left as checked in");
        }
    } else {
        write("perf_check.json", &rows);
        let path = format!("{RESULTS}/BENCH_perf.json");
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let baseline = BenchFile::from_json(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
        let drift = perf::diff(&rows, &baseline.rows);
        for d in &drift {
            eprintln!("perf pins: FAIL — {d}");
        }
        if drift.is_empty() {
            eprintln!(
                "perf pins: ok — {} rows match results/BENCH_perf.json exactly",
                rows.len()
            );
        }
        ok &= drift.is_empty();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
