//! Process resource readings from `/proc/self`, with the standard library
//! only.

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (`USER_HZ`,
/// 100 on every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process, in milliseconds.
pub fn cpu_ms() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; the fields after it do not.
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_name.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line; the fields after
    // the name start at field 3, so they sit at indices 11 and 12.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 1000.0 / USER_HZ
}

fn status_kb(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix(key)?
            .trim_start_matches(':')
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    })
}

/// Peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Threads of this process right now.
pub fn threads() -> u64 {
    status_kb("Threads").unwrap_or(0)
}

/// Busy and stolen CPU time of the whole machine so far, in ticks, from
/// the first line of `/proc/stat`. Busy is user, nice, system, irq and
/// softirq time; stolen is time a virtual CPU wanted to run while the
/// hypervisor ran something else.
pub fn machine_ticks() -> (f64, f64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0.0))
        .collect();
    let field = |i: usize| fields.get(i).copied().unwrap_or(0.0);
    (
        field(0) + field(1) + field(2) + field(5) + field(6),
        field(7),
    )
}
