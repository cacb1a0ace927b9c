//! Host clocks and memory, read from outside the simulator.
//!
//! Host time in this benchmark is **CPU time**, not wall time: the sandbox
//! shares its cores, and the same binary was seen taking 3.95–8.05 s of
//! wall time while its CPU time stayed within 3.21–3.62 s. Wall time is
//! still read beside it so that `host.wall_per_cpu` can say when the
//! machine, not the commit, explains a difference.

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads CLOCK_PROCESS_CPUTIME_ID and /proc/self/status: Linux only");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_MONOTONIC: i32 = 1;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux ABI) and the three clock ids above exist
    // on every Linux kernel this can run on.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// What one reading of the thread CPU clock adds to an interval timed with
/// two of them: the smallest of many back-to-back differences.
pub fn thread_clock_cost_ns() -> u64 {
    (0..2000)
        .map(|_| {
            let t0 = thread_cpu_ns();
            thread_cpu_ns() - t0
        })
        .min()
        .unwrap_or(0)
}

/// Monotonic wall clock, in nanoseconds.
pub fn wall_ns() -> u64 {
    read_clock(CLOCK_MONOTONIC)
}

/// A (CPU, wall) pair taken at one instant.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    cpu0: u64,
    wall0: u64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu0: cpu_ns(),
            wall0: wall_ns(),
        }
    }

    /// Seconds of (process CPU, wall) since `start`.
    pub fn elapsed(&self) -> (f64, f64) {
        (
            (cpu_ns() - self.cpu0) as f64 * 1e-9,
            (wall_ns() - self.wall0) as f64 * 1e-9,
        )
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed integer-and-memory loop (a 1 MiB table walked by an LCG), timed
/// in CPU nanoseconds per step. It does not touch the simulator, so a
/// change in it between two runs is the machine's, not the commit's.
pub fn calib_ns() -> f64 {
    const STEPS: u64 = 4_000_000;
    let mut table = vec![0u64; 1 << 17];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t0 = cpu_ns();
    for _ in 0..STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 47) as usize;
        table[i] = table[i].wrapping_add(x);
    }
    let dt = cpu_ns() - t0;
    std::hint::black_box(&table);
    dt as f64 / STEPS as f64
}
