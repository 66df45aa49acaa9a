//! Numeric helpers: percentiles, windowed tails, quartile spread, the bench
//! clock and the `/proc/self` readers behind the cost metrics.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Wall-clock nanoseconds since the Unix epoch, advanced by a monotonic
/// `Instant` so a stepping system clock cannot produce negative latencies.
/// Anchored once, so its readings line up with the `Timestamp::now()` stamps
/// the system's own self-lifelines carry.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
    origin_wall_ns: u64,
}

impl Clock {
    pub fn start() -> Clock {
        let wall = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default();
        Clock {
            origin: Instant::now(),
            origin_wall_ns: wall.as_nanos() as u64,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin_wall_ns + self.origin.elapsed().as_nanos() as u64
    }
}

/// The value at quantile `q` of an ascending slice, linearly interpolated
/// between neighbouring ranks.  Empty input reads 0.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0].into(),
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            let (a, b): (f64, f64) = (sorted[lo].into(), sorted[hi].into());
            a + (b - a) * frac
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Median over windows of the in-window p99, so one scheduler hiccup decides
/// one window and not the metric.  A window takes part only when it has at
/// least `min_samples` samples (a hundredth of them lie beyond its p99); when
/// none qualifies the p99 of all samples pooled is reported instead.  Returns
/// the value and the number of windows it is the median of (0 = pooled).
/// Leaves every window sorted.
pub fn windowed_p99(windows: &mut [Vec<u32>], min_samples: usize) -> (f64, usize) {
    let mut tails = Vec::new();
    for w in windows.iter_mut() {
        w.sort_unstable();
        if w.len() >= min_samples {
            tails.push(percentile(w, 0.99));
        }
    }
    if tails.is_empty() {
        let mut all: Vec<u32> = windows.iter().flatten().copied().collect();
        all.sort_unstable();
        return (percentile(&all, 0.99), 0);
    }
    (median(&tails), tails.len())
}

/// Split arrival-ordered samples into windows of `per_window` samples: at a
/// fixed open-loop rate, `rate` consecutive events are one second of events.
pub fn index_windows(samples: &[u32], per_window: usize) -> Vec<Vec<u32>> {
    samples
        .chunks(per_window.max(1))
        .map(<[u32]>::to_vec)
        .collect()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)` gives
/// them (the default exclusive method), which is what the driver computes.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.  The
/// command name may hold spaces and parentheses, so fields are counted from
/// the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command come state (field 3) ... utime (14), stime (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `Key:   <n> kB`-style numeric field of `/proc/<pid>/status` or
/// `/proc/<pid>/io`.
pub fn parse_proc_field(text: &str, key: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Linux reports `/proc` CPU times in clock ticks; `sysconf(_SC_CLK_TCK)` is
/// 100 on every mainstream build and there is no libc here to ask.
const CLK_TCK: f64 = 100.0;

/// CPU seconds (user + system) this process has used so far.
pub fn process_cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / CLK_TCK)
}

pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_proc_field(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Bytes this process has passed to `write`-family calls (`wchar`).
pub fn process_written_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| parse_proc_field(&s, "wchar"))
        .unwrap_or(0)
}

/// Voluntary plus involuntary context switches summed over every thread.
pub fn process_ctx_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            parse_proc_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + parse_proc_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

/// Total size of the regular files directly under `dir` (the archive keeps
/// its WAL and segments flat), all of them or those with one extension.
pub fn dir_bytes(dir: &std::path::Path, extension: Option<&str>) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| {
            extension.is_none_or(|x| e.path().extension().and_then(|s| s.to_str()) == Some(x))
        })
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert!((percentile(&v, 0.5) - 50.5).abs() < 1e-9);
        assert!((percentile(&v, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(percentile::<u32>(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7u32], 0.99), 7.0);
    }

    #[test]
    fn windowed_p99_ignores_one_bad_window() {
        // Three windows of 50k samples; the middle one has a stall.
        let calm: Vec<u32> = (0..50_000).map(|i| 100 + i % 100).collect();
        let mut stalled = calm.clone();
        for s in stalled.iter_mut().take(2_000) {
            *s = 1_000_000;
        }
        let mut windows = vec![calm.clone(), stalled, calm];
        let (p99, n) = windowed_p99(&mut windows, 50_000);
        assert_eq!(n, 3);
        assert!(p99 < 200.0, "median window wins, got {p99}");
    }

    #[test]
    fn windowed_p99_pools_when_windows_are_thin() {
        let mut windows = vec![vec![1u32, 2, 3], vec![4, 5, 1000]];
        let (p99, n) = windowed_p99(&mut windows, 1_000);
        assert_eq!(n, 0);
        assert!(p99 > 5.0 && p99 <= 1000.0);
    }

    #[test]
    fn index_windows_cuts_whole_seconds() {
        let samples: Vec<u32> = (0..25).collect();
        let w = index_windows(&samples, 10);
        assert_eq!(w.len(), 3);
        assert_eq!(w[2], vec![20, 21, 22, 23, 24]);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((relative_spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (e21 (end) to_end) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 567 0 0 20 0 7 0 100 1000000 500 18446744073709551615";
        assert_eq!(parse_cpu_ticks(stat), Some(1234 + 567));
        assert_eq!(parse_cpu_ticks("no paren here"), None);
        assert_eq!(parse_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn proc_fields_parse_from_fixture_text() {
        let status = "Name:\te21\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_proc_field(status, "VmHWM"), Some(51_234));
        assert_eq!(
            parse_proc_field(status, "voluntary_ctxt_switches"),
            Some(12)
        );
        assert_eq!(parse_proc_field(status, "VmRSS"), None);
        let io = "rchar: 10\nwchar: 987654\nsyscr: 1\n";
        assert_eq!(parse_proc_field(io, "wchar"), Some(987_654));
    }

    #[test]
    fn clock_is_monotonic_and_near_the_wall_clock() {
        let c = Clock::start();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
        let wall = jamm::jamm_ulm::Timestamp::now().as_micros() * 1_000;
        assert!(a.abs_diff(wall) < 1_000_000_000);
    }
}
