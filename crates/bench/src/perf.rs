//! Helpers shared by the perf drivers (`benches/perf_wallclock.rs`,
//! `bin/perf_{smoke,lanes,shard}.rs`): describing the machine a
//! measurement was taken on and reading counters back out of the
//! checked-in `results/BENCH_*.json` baselines.

use serde_json::Value;

/// CPUs available to this process (1 when the OS will not say).
pub fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `uname -srm` plus the CPU count, recorded next to wall-clock numbers.
pub fn machine_desc() -> String {
    let uname = std::process::Command::new("uname")
        .arg("-srm")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    format!("{uname} ({} cpus)", cpus())
}

/// The unsigned integer field `key` of a baseline JSON object; panics with
/// the offending value when a checked-in baseline is malformed.
pub fn field_u64(v: &Value, key: &str) -> u64 {
    match v.get(key) {
        Some(&Value::U64(n)) => n,
        other => panic!("baseline field {key:?}: expected u64, got {other:?}"),
    }
}

/// The `rows` array of a baseline JSON object.
pub fn rows(v: &Value) -> &[Value] {
    match v.get("rows") {
        Some(Value::Array(rows)) => rows,
        other => panic!("baseline field \"rows\": expected an array, got {other:?}"),
    }
}
