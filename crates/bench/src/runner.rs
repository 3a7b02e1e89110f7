//! Shared measurement plumbing: run a workload under DAISY (with any
//! translator/cache configuration), under the reference interpreter,
//! under the baselines, and collect everything the tables need.

use daisy::sched::TranslatorConfig;
use daisy::stats::RunStats;
use daisy::system::DaisySystem;
use daisy_cachesim::{CacheStats, Hierarchy};
use daisy_ppc::interp::{Cpu, StopReason};
use daisy_ppc::mem::Memory;
use daisy_ppc::PpcIsa;
use daisy_workloads::Workload;

/// Everything one DAISY run produces.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Workload name.
    pub name: &'static str,
    /// Exact dynamic base-instruction count (reference interpreter).
    pub base_instrs: u64,
    /// Static code size in instruction words.
    pub static_words: u64,
    /// Engine statistics.
    pub stats: RunStats,
    /// Translated code bytes produced (cumulative).
    pub code_bytes_total: u64,
    /// Pages translated.
    pub pages_translated: u64,
    /// Groups translated.
    pub groups_translated: u64,
    /// Base instructions scheduled during translation.
    pub instrs_compiled: u64,
    /// Per-cache-level statistics `(name, stats)`.
    pub cache_levels: Vec<(String, CacheStats)>,
}

impl Measurement {
    /// Infinite-cache ILP (pathlength reduction).
    pub fn ilp(&self) -> f64 {
        self.stats.pathlength_reduction(self.base_instrs)
    }

    /// Finite-cache ILP.
    pub fn finite_ilp(&self) -> f64 {
        self.stats.finite_ilp(self.base_instrs)
    }
}

/// Runs the reference interpreter, returning the CPU (for `ninstrs`
/// and final state).
pub fn run_reference(w: &Workload) -> Cpu {
    let prog = w.program();
    let mut mem = Memory::new(w.mem_size);
    prog.load_into(&mut mem).expect("workload fits in memory");
    let mut cpu = Cpu::new(prog.entry);
    let stop = cpu.run(&mut mem, w.max_instrs).expect("interpreter run");
    assert_eq!(stop, StopReason::Syscall, "{}: reference did not complete", w.name);
    cpu
}

/// Runs a workload under DAISY with the given configuration.
///
/// Runs on the native tier, which reproduces the packed engine's
/// statistics exactly under any cache hierarchy (and falls back to the
/// packed engine on hosts that cannot execute emitted x86-64), so every
/// table comes out the same on either engine; native is just faster.
pub fn run_daisy(w: &Workload, cfg: TranslatorConfig, cache: Hierarchy) -> Measurement {
    let base_instrs = run_reference(w).ninstrs;
    let prog = w.program();
    let static_words = u64::from(prog.code_size() / 4);
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(w.mem_size)
        .translator(cfg)
        .cache(cache)
        .native_execution(true)
        .build();
    sys.load(&prog).expect("workload fits in memory");
    let stop = sys.run(50 * w.max_instrs).expect("DAISY run");
    assert_eq!(stop, StopReason::Syscall, "{}: DAISY did not complete", w.name);
    w.check(&sys.cpu, &sys.mem).unwrap_or_else(|e| panic!("{}: result check failed: {e}", w.name));
    Measurement {
        name: w.name,
        base_instrs,
        static_words,
        stats: sys.stats,
        code_bytes_total: sys.vmm.stats.code_bytes_total,
        pages_translated: sys.vmm.stats.pages_translated,
        groups_translated: sys.vmm.stats.groups_translated,
        instrs_compiled: sys.vmm.cost.instrs_scheduled,
        cache_levels: sys.cache.level_stats(),
    }
}

/// Default (big-machine, 4 KiB pages, infinite-cache) run.
pub fn run_default(w: &Workload) -> Measurement {
    run_daisy(w, TranslatorConfig::default(), Hierarchy::infinite())
}

/// Geometric-mean-free arithmetic mean helper used by the tables.
pub fn mean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Geometric mean of the positive values (0 when there are none).
pub fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.into_iter().filter(|x| *x > 0.0).collect();
    if v.is_empty() {
        0.0
    } else {
        (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
    }
}
