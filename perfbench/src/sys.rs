//! Process-level measurements (CPU time, context switches, peak RSS)
//! and run metadata, read from `/proc/self` and `/proc/self/stat`-style
//! files so the benchmark needs no foreign-function calls.

use std::time::Instant;

/// Hardware threads the benchmark sizes its pools by.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn status_field(name: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// The process's high-water resident set, in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Involuntary context switches summed over every live thread.
fn invol_ctx_switches() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| std::fs::read_to_string(e.path().join("status")).ok())
        .filter_map(|s| {
            s.lines()
                .find(|l| l.starts_with("nonvoluntary_ctxt_switches:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .sum()
}

/// User + system CPU seconds of the whole process (`/proc/self/stat`
/// fields 14 and 15, in clock ticks of 1/100 s).
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // After ')' the first field is `state` (field 3), so field k sits
    // at index k - 3.
    (tick(14 - 3) + tick(15 - 3)) / 100.0
}

/// CPU and scheduler counters at the start of a measured window.
pub struct ProcWindow {
    wall: Instant,
    cpu: f64,
    invol: u64,
}

impl ProcWindow {
    #[must_use]
    pub fn start() -> Self {
        ProcWindow {
            wall: Instant::now(),
            cpu: cpu_seconds(),
            invol: invol_ctx_switches(),
        }
    }

    /// `(cpu_util, involuntary switches)` since `start`, where
    /// `cpu_util = CPU seconds / (wall seconds × nproc)`. Threads that
    /// exited during the window drop out of the switch count.
    #[must_use]
    pub fn finish(&self) -> (f64, u64) {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - self.cpu;
        let util = cpu / (wall * nproc() as f64).max(1e-9);
        (util, invol_ctx_switches().saturating_sub(self.invol))
    }
}

/// The checkout's revision: `git rev-parse` when the working directory
/// is the top of a git repository, else `"unknown"` (benchmark
/// checkouts need not be, and git must not search parent directories).
#[must_use]
pub fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}
