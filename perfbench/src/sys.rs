//! Process-wide resource readings (Linux).

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU time consumed by every thread of this process
/// so far, at nanosecond resolution.
///
/// # Panics
///
/// If the clock cannot be read (never on Linux).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &raw mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    let secs = u64::try_from(ts.tv_sec).expect("CPU time is never negative");
    let nanos = u32::try_from(ts.tv_nsec).expect("tv_nsec is below one second");
    Duration::new(secs, nanos)
}

/// Resets this process's peak resident set size (`VmHWM`) to its
/// current one, so that [`peak_rss_mb`] reports only what follows.
///
/// # Errors
///
/// If the kernel refuses the write to `/proc/self/clear_refs`.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size of this process since it started or since
/// the last [`reset_peak_rss`], in MiB (`VmHWM`).
///
/// # Panics
///
/// If `/proc/self/status` is unreadable or lacks `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}
