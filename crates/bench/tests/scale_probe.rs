//! How the set-up scales: the Figure 10 workload with the figure's tree
//! scheme, built through [`build_network`] on `torus(32, 1)` and
//! `torus(48, 1)` (1 024 and 2 304 hosts, the paper's 64 at 8×8). The tree
//! scheme reads every host pair's hop count, so the route table must
//! answer N² of them without walking N² routes.
//!
//! Ignored by default: the bounds are for release builds. Run it with
//! `cargo test --release -p wormcast-bench --test scale_probe -- --ignored
//! --nocapture`. It is a test binary of its own so that the peak resident
//! set it reads is its own.

use wormcast_bench::fig10::{figure_tree_scheme, Fig10Config};
use wormcast_bench::runner::{build_network, SimSetup};
use wormcast_topo::torus::torus;
use wormcast_traffic::rng::host_stream;
use wormcast_traffic::workload::PaperWorkload;
use wormcast_traffic::{GroupSet, LengthDist};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of this process so far, in seconds.
fn cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id exists on every Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Build the Figure 10 tree-scheme point at load 0.08 on `torus(k, 1)`:
/// the CPU seconds it takes, from the topology to a runnable network.
fn set_up(k: usize) -> f64 {
    let cfg = Fig10Config::quick();
    let t0 = cpu_s();
    let hosts = k * k;
    let mut grng = host_stream(cfg.seed, 0x6071);
    let groups = GroupSet::random(hosts, 10, 10, &mut grng);
    let workload = PaperWorkload {
        offered_load: 0.08,
        multicast_prob: 0.10,
        lengths: LengthDist::Geometric { mean: 400 },
        stop_at: None,
    };
    let setup = SimSetup::builder(torus(k, 1), groups, figure_tree_scheme(), workload)
        .seed(cfg.seed)
        .windows(cfg.warmup, cfg.measure, cfg.drain)
        .build()
        .expect("valid setup");
    let net = build_network(&setup);
    let cpu = cpu_s() - t0;
    assert_eq!(net.num_hosts(), hosts);
    cpu
}

#[test]
#[ignore = "release-only bounds; run with --release -- --ignored"]
fn fig10_sets_up_on_a_48x48_torus_in_a_second() {
    for k in [32, 48] {
        let cpu = set_up(k);
        let rss = peak_rss_mib();
        println!(
            "scale probe: torus({k}, 1), {} hosts: set-up {cpu:.3} s CPU, peak RSS {rss:.1} MiB",
            k * k
        );
        if k == 48 {
            assert!(cpu < 1.0, "torus(48, 1) set-up took {cpu:.3} s of CPU");
            assert!(rss < 100.0, "peak RSS {rss:.1} MiB at torus(48, 1)");
        }
    }
}
