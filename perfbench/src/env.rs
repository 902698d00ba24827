//! The environment stamp printed with every run, so that a run taken on a
//! drifting or contended machine can be told apart from a regression, and
//! the process's peak resident memory.

use std::fmt;

/// Readings taken around the timed phase.
#[derive(Debug, Clone)]
pub struct EnvStamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub load_before: String,
    pub load_after: String,
    /// Steal ticks (`/proc/stat`, all CPUs) accumulated during the timed
    /// phase: time the hypervisor ran someone else on our vCPUs.
    pub steal_ticks: Option<u64>,
    steal_start: Option<u64>,
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn loadavg() -> String {
    read("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `steal` column of the aggregate `cpu` line of `/proc/stat`.
fn steal_ticks() -> Option<u64> {
    let stat = read("/proc/stat")?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl EnvStamp {
    /// Takes the "before" readings.
    pub fn begin() -> Self {
        let cpu_model = read("/proc/cpuinfo")
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        EnvStamp {
            nproc: nproc(),
            cpu_model,
            load_before: loadavg(),
            load_after: String::new(),
            steal_ticks: None,
            steal_start: steal_ticks(),
        }
    }

    /// Marks the start of the timed phase (steal is counted from here).
    pub fn start_timed(&mut self) {
        self.steal_start = steal_ticks();
    }

    /// Takes the "after" readings at the end of the timed phase.
    pub fn end_timed(&mut self) {
        self.load_after = loadavg();
        self.steal_ticks = match (self.steal_start, steal_ticks()) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a)),
            _ => None,
        };
    }
}

impl fmt::Display for EnvStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "env nproc={} cpu=\"{}\" load_before=\"{}\" load_after=\"{}\" steal_ticks={}",
            self.nproc,
            self.cpu_model,
            self.load_before,
            self.load_after,
            self.steal_ticks
                .map_or_else(|| "unknown".to_string(), |t| t.to_string())
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = read("/proc/self/status")?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
