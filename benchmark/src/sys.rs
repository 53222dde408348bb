//! Process and machine facts read from `/proc`.

use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Peak resident set (VmHWM) of process `pid` in MiB, if readable.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU seconds this process has used, all threads.
pub fn self_cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPU time the hypervisor gave to other guests while this machine's CPUs
/// wanted to run (the `steal` column of the `cpu` line of `/proc/stat`),
/// summed over CPUs, in clock ticks; `None` where it is not reported.
pub fn steal_ticks() -> Option<u64> {
    let file = std::fs::File::open("/proc/stat").ok()?;
    let mut line = String::new();
    std::io::BufReader::new(file).read_line(&mut line).ok()?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Steal ticks since an earlier [`steal_ticks`] reading; 0 where steal
/// is not reported.
pub fn stolen_since(before: Option<u64>) -> u64 {
    match (before, steal_ticks()) {
        (Some(before), Some(now)) => now.saturating_sub(before),
        _ => 0,
    }
}

/// Time between samples of [`StealLog::record`].
pub const STEAL_PERIOD: Duration = Duration::from_millis(10);

/// Cumulative steal ticks sampled through a timed loop, as (seconds since
/// the loop started, ticks); empty where steal is not reported.
#[derive(Clone, Debug, Default)]
pub struct StealLog(pub Vec<(f64, u64)>);

impl StealLog {
    /// Sample every [`STEAL_PERIOD`] until `stop` is set, then once more.
    pub fn record(start: Instant, stop: &AtomicBool) -> StealLog {
        let mut log = StealLog::default();
        loop {
            let stopping = stop.load(Ordering::Relaxed);
            match steal_ticks() {
                Some(ticks) => log.0.push((start.elapsed().as_secs_f64(), ticks)),
                None => return StealLog::default(),
            }
            if stopping {
                return log;
            }
            std::thread::sleep(STEAL_PERIOD);
        }
    }

    /// Ticks stolen over a span covering `[from, to]`: from the last
    /// sample at or before `from` to the first at or after `to`.
    pub fn stolen(&self, from: f64, to: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let before = self.0.partition_point(|s| s.0 <= from).saturating_sub(1);
        let after = self.0.partition_point(|s| s.0 < to).min(self.0.len() - 1);
        self.0[after].1.saturating_sub(self.0[before].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stolen_ticks_cover_the_whole_window() {
        let log = StealLog(vec![(0.0, 5), (0.01, 5), (0.02, 7), (0.03, 8)]);
        assert_eq!(log.stolen(0.0, 0.01), 0);
        assert_eq!(log.stolen(0.005, 0.015), 2, "rounded out to samples");
        assert_eq!(log.stolen(0.0, 1.0), 3, "clamped to the log");
        assert_eq!(StealLog::default().stolen(0.0, 1.0), 0);
    }
}
