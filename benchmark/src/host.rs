//! What the host says about this process: memory, CPU time, cores.
//!
//! Everything is read from procfs; where procfs is missing the readers
//! return 0 and the caller's "never 0" output check reports it.

use std::time::Instant;

fn status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process so far (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 * 1024.0 / 1e6
}

/// Current resident set of this process (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS:") * 1024
}

/// CPU seconds (user + system, every thread, exited ones included) this
/// process has used, from `/proc/self/stat`. The kernel reports clock
/// ticks; Linux fixes `USER_HZ` at 100, so the resolution is 10 ms.
pub fn cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    let utime = ticks(fields.next());
    let stime = ticks(fields.next());
    (utime + stime) as f64 / 100.0
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
