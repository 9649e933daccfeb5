//! Process gauges read from `/proc/self`. Linux only; on another system
//! every gauge reads 0, and a run reports that rather than failing.

use std::fs;

/// Kernel clock ticks per second in `/proc/self/stat`. `sysconf(_SC_CLK_TCK)`
/// would need libc; Linux has fixed the user-visible value at 100 on every
/// architecture this builds for.
const CLK_TCK: f64 = 100.0;

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time and page faults of the process so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuGauges {
    /// User-mode CPU seconds, all threads.
    pub user_s: f64,
    /// Kernel-mode CPU seconds, all threads.
    pub sys_s: f64,
    /// Minor page faults.
    pub minflt: f64,
}

/// Reads `/proc/self/stat`.
pub fn cpu_gauges() -> CpuGauges {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return CpuGauges::default();
    };
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis. minflt is field 10, utime 14, stime 15.
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return CpuGauges::default();
    };
    let field = |n: usize| -> f64 {
        after
            .split_whitespace()
            .nth(n - 3)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    CpuGauges {
        user_s: field(14) / CLK_TCK,
        sys_s: field(15) / CLK_TCK,
        minflt: field(10),
    }
}

/// Voluntary context switches of every live thread of the process so far:
/// how often a thread blocked (on a socket, a lock, a condition variable).
/// `/proc/self/io`'s `syscr`/`syscw` would be the more direct count of
/// service system calls, but they see only `read`/`write`-class calls, and
/// the standard library's sockets use `recv`/`send`.
pub fn context_switches() -> f64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .filter_map(|t| fs::read_to_string(t.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse::<f64>().ok())
        })
        .sum()
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
