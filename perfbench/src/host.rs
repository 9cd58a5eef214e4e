//! Host and process readings from `/proc`: CPU time, steal, peak memory.
//!
//! Steal and utilisation are diagnostics printed next to the metrics, so a
//! reader can tell a slow program from a crowded host.

use std::time::Duration;

/// Linux reports `/proc` CPU times in USER_HZ ticks, which is 100 on every
/// architecture it supports.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU time (user plus system) of this process, all threads, dead ones too.
pub fn process_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name is parenthesised and may hold spaces; fields after
    // it are state (3), ..., utime (14), stime (15).
    let fields: Vec<&str> =
        stat.rsplit_once(')').map_or("", |(_, rest)| rest).split_whitespace().collect();
    let ticks: f64 = [11, 12].iter().filter_map(|&i| fields.get(i)?.parse::<f64>().ok()).sum();
    Duration::from_secs_f64(ticks / TICKS_PER_SECOND)
}

/// Host-wide CPU tick counters: (steal, all states).
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTicks {
    steal: u64,
    total: u64,
}

impl HostTicks {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let counters: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user.
        HostTicks {
            steal: counters.get(7).copied().unwrap_or(0),
            total: counters.iter().take(8).sum(),
        }
    }

    /// Share of all host CPU time since `earlier` that the hypervisor stole.
    pub fn steal_share_since(&self, earlier: &HostTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }

    /// Seconds of steal since `earlier`, summed over CPUs.
    pub fn steal_seconds_since(&self, earlier: &HostTicks) -> f64 {
        self.steal.saturating_sub(earlier.steal) as f64 / TICKS_PER_SECOND
    }
}

/// Return the allocator's free memory to the kernel, then reset the
/// process's peak-RSS mark to its current RSS, so the next [`peak_rss_mib`]
/// covers only what runs after this call, above the memory then in use.
/// Without the trim, the mark would start from however much freed memory
/// earlier rounds left cached in the allocator, which varies from run to
/// run.
pub fn reset_peak_rss() -> std::io::Result<()> {
    trim_allocator();
    std::fs::write("/proc/self/clear_refs", "5")
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_allocator() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim only releases free heap pages; it takes
    // the allocator's own locks and may be called from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_allocator() {}

/// Peak resident memory (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
