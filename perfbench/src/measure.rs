//! Process accounting read from `/proc`, and exact order statistics.

use std::time::Duration;

/// `/proc` reports `utime` / `stime` in `USER_HZ` ticks, which Linux fixes
/// at 100 per second for user space.
const TICK_MS: f64 = 10.0;

/// User and system CPU time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user_ms: f64,
    pub sys_ms: f64,
}

impl Cpu {
    pub fn total_ms(&self) -> f64 {
        self.user_ms + self.sys_ms
    }

    pub fn since(&self, earlier: &Cpu) -> Cpu {
        Cpu {
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
        }
    }

    pub fn add(&mut self, other: &Cpu) {
        self.user_ms += other.user_ms;
        self.sys_ms += other.sys_ms;
    }
}

fn stat_cpu(path: &str) -> Cpu {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    // The command name (field 2) may hold spaces; fields after it start at
    // field 3, so utime (14) and stime (15) are the 12th and 13th there.
    let rest = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let field = |i: usize| -> f64 {
        rest.split_whitespace()
            .nth(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    Cpu {
        user_ms: field(11) * TICK_MS,
        sys_ms: field(12) * TICK_MS,
    }
}

/// CPU used by the whole process, threads that already exited included.
pub fn process_cpu() -> Cpu {
    stat_cpu("/proc/self/stat")
}

/// CPU used by the calling thread.
pub fn thread_cpu() -> Cpu {
    stat_cpu("/proc/thread-self/stat")
}

/// Machine-wide time, in milliseconds summed over CPUs, that the
/// hypervisor ran something else while this machine's CPUs had work (the
/// `steal` column of `/proc/stat`).
pub fn steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .unwrap_or_default()
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8)?.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks * TICK_MS)
}

fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            line.strip_prefix(key)?
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") as f64 / 1024.0
}

/// Threads the process runs now.
pub fn threads() -> u64 {
    status_kb("Threads:")
}

/// Online processors.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| {
            Some(
                line.strip_prefix("model name")?
                    .split_once(':')?
                    .1
                    .trim()
                    .to_string(),
            )
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Nanoseconds, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Exact nearest-rank quantile of unsorted samples (`0.0` when empty).
/// Sorts in place.
pub fn quantile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64
}

/// Median of unsorted values (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the default exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    }

    #[test]
    fn nearest_rank_quantile() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn reads_own_accounting() {
        assert!(threads() >= 1);
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu().total_ms() >= thread_cpu().total_ms() - TICK_MS);
    }
}
