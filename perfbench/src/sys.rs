//! Process-level measurements (Linux): CPU time, peak RSS, and the
//! metrics registry's counters.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sync();
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system, all threads) the process has consumed, at
/// nanosecond resolution — `/proc/self/stat` ticks are 10 ms, too
/// coarse for sub-second repetitions.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec laid out as the C
    // struct on 64-bit Linux, and the clock id is a constant the kernel
    // always supports; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Remove `dir` and write every dirty page and pending discard to
/// disk, so the next timed repetition does not pay for this one's
/// writeback.
pub fn remove_and_sync(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    // SAFETY: sync(2) takes no arguments, cannot fail and touches no
    // memory of this process.
    unsafe { sync() };
}

/// Peak resident set size so far, MiB (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("linux /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// Sum of every row named `name` in the global metrics registry (all
/// labels; histograms as `<name>_sum` / `<name>_count`).
pub fn counters() -> std::collections::HashMap<String, u64> {
    let mut out = std::collections::HashMap::new();
    for row in ginflow_mq::metrics::global().snapshot() {
        *out.entry(row.name).or_insert(0) += row.value;
    }
    out
}

/// `after[name] - before[name]`, 0 when absent.
pub fn delta(
    before: &std::collections::HashMap<String, u64>,
    after: &std::collections::HashMap<String, u64>,
    name: &str,
) -> u64 {
    let get = |m: &std::collections::HashMap<String, u64>| m.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before))
}
