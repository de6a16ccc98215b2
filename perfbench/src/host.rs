//! Host and process facts read from `/proc`, and per-run scratch
//! directories inside the checkout.

use std::path::PathBuf;

/// `VmHWM` (peak resident set) in MiB from the text of a
/// `/proc/<pid>/status` file.
pub fn parse_vmhwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(value / 1024.0),
        _ => None,
    }
}

/// Peak RSS of process `pid` (`"self"` for this one) in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_vmhwm_mib(&status)
}

/// Aggregate steal ticks from the `cpu` line of `/proc/stat` text.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    line.split_whitespace().nth(8)?.parse().ok()
}

/// CPU time (user + system, all threads) this process has used, in clock
/// ticks, from the text of `/proc/self/stat`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    // the command name may hold spaces; fields resume after its ')'
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut f = rest.split_whitespace().skip(11);
    Some(f.next()?.parse::<u64>().ok()? + f.next()?.parse::<u64>().ok()?)
}

pub fn cpu_ticks(pid: &str) -> Option<u64> {
    parse_cpu_ticks(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Aggregate steal ticks on the host right now.
pub fn steal_ticks() -> Option<u64> {
    parse_steal_ticks(&std::fs::read_to_string("/proc/stat").ok()?)
}

/// Samples host steal at every slice boundary of a timed pass from a
/// background thread, so slices the hypervisor took time from can be told
/// apart from quiet ones.
pub struct StealSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<Vec<u64>>,
}

impl StealSampler {
    /// Start sampling at `t0`, once every `slice`.
    pub fn start(t0: std::time::Instant, slice: std::time::Duration) -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut marks = vec![steal_ticks().unwrap_or(0)];
            let mut next = t0 + slice;
            while !flag.load(Ordering::Relaxed) {
                let now = std::time::Instant::now();
                if now < next {
                    std::thread::sleep((next - now).min(std::time::Duration::from_millis(50)));
                    continue;
                }
                marks.push(steal_ticks().unwrap_or(0));
                next += slice;
            }
            marks
                .windows(2)
                .map(|w| w[1].saturating_sub(w[0]))
                .collect()
        });
        StealSampler { stop, thread }
    }

    /// Steal ticks per completed slice.
    pub fn finish(self) -> Vec<u64> {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        self.thread.join().unwrap_or_default()
    }
}

/// Host noise indicators sampled at the start and end of a run.
pub struct HostSample {
    steal_ticks: Option<u64>,
    loadavg: String,
}

impl HostSample {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let loadavg = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
        HostSample {
            steal_ticks: parse_steal_ticks(&stat),
            loadavg: loadavg
                .split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" "),
        }
    }

    /// One metadata line comparing this (start) sample with `end`. Steal
    /// is reported in clock ticks (USER_HZ, normally 100 per second).
    pub fn describe(&self, end: &HostSample) -> String {
        let steal = match (self.steal_ticks, end.steal_ticks) {
            (Some(a), Some(b)) => (b.saturating_sub(a)).to_string(),
            _ => "n/a".into(),
        };
        format!(
            "steal_ticks_delta={steal} loadavg_start=[{}] loadavg_end=[{}]",
            self.loadavg, end.loadavg
        )
    }
}

/// A fresh directory under `.bench_run/` in the working directory, removed
/// (with everything in it) when dropped — also while a panic unwinds.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = std::env::current_dir()?
            .join(".bench_run")
            .join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path })
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create run subdirectory");
        p
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent); // only if now empty
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_parse() {
        let status = "Name:\tperfbench\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vmhwm_mib(status), Some(50.0));
        assert_eq!(parse_vmhwm_mib("Name: x\n"), None);
        assert_eq!(parse_vmhwm_mib("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn cpu_ticks_parse() {
        let stat = "4242 (perf bench) S 1 2 3 4 5 6 7 8 9 10 150 25 0 0 20 0 9\n";
        assert_eq!(parse_cpu_ticks(stat), Some(175));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn steal_parse() {
        let stat = "cpu  54358 0 10495 207240 203 0 912 2939 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(2939));
        assert_eq!(parse_steal_ticks("intr 1 2 3\n"), None);
    }
}
