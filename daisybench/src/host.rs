//! Host context recorded with every run, so a slow run can be told
//! apart from slow code: the machine's architecture, CPU count and
//! model, and this thread's on-CPU and run-queue time against wall
//! time.

use std::time::Instant;

/// Whether this host can execute the native tier's emitted x86-64.
pub const NATIVE_HOST: bool = cfg!(all(target_arch = "x86_64", target_os = "linux"));

/// This thread's scheduler counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Sched {
    at: Instant,
    /// Nanoseconds spent running on a CPU (`None` without schedstat).
    oncpu_ns: Option<u64>,
    /// Nanoseconds spent runnable but waiting for a CPU.
    wait_ns: Option<u64>,
}

impl Sched {
    /// Reads `/proc/thread-self/schedstat`.
    pub fn now() -> Sched {
        let fields: Vec<u64> = std::fs::read_to_string("/proc/thread-self/schedstat")
            .map(|s| s.split_whitespace().filter_map(|f| f.parse().ok()).collect())
            .unwrap_or_default();
        Sched {
            at: Instant::now(),
            oncpu_ns: fields.first().copied(),
            wait_ns: fields.get(1).copied(),
        }
    }

    /// `(wall, on-CPU, run-queue wait)` seconds since `earlier`; the
    /// last two are `None` where the kernel does not expose schedstat.
    pub fn since(&self, earlier: &Sched) -> (f64, Option<f64>, Option<f64>) {
        let d = |a: Option<u64>, b: Option<u64>| Some(a?.saturating_sub(b?) as f64 / 1e9);
        (
            self.at.duration_since(earlier.at).as_secs_f64(),
            d(self.oncpu_ns, earlier.oncpu_ns),
            d(self.wait_ns, earlier.wait_ns),
        )
    }
}

/// The `host` context line: architecture, CPUs, CPU model and this
/// thread's on-CPU share of the wall time since `start`.
pub fn context_line(start: &Sched) -> String {
    let (wall, oncpu, wait) = Sched::now().since(start);
    let opt = |v: Option<f64>| v.map_or("null".to_string(), |v| format!("{v:.6}"));
    format!(
        "host {{\"arch\": \"{}\", \"os\": \"{}\", \"native_tier\": {}, \"nproc\": {}, \
         \"cpu_model\": \"{}\", \"wall_s\": {wall:.6}, \"oncpu_s\": {}, \"runq_wait_s\": {}}}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        NATIVE_HOST,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model().replace(['"', '\\'], ""),
        opt(oncpu),
        opt(wait),
    )
}

/// On-CPU seconds over wall seconds since `start` (1 when schedstat is
/// unavailable, so the ratio never reads as a stall it cannot see).
pub fn oncpu_ratio(start: &Sched) -> f64 {
    let (wall, oncpu, _) = Sched::now().since(start);
    match oncpu {
        Some(c) if wall > 0.0 => c / wall,
        _ => 1.0,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
