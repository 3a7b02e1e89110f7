//! The three workloads, the nine guest programs each one draws, and
//! the checks every measured program run must pass.

use crate::host::NATIVE_HOST;
use daisy::native::NativeStats;
use daisy::prelude::*;
use daisy_ppc::{Cpu, Memory, PpcIsa};
use daisy_workloads::XorShift;
use std::collections::HashMap;
use std::time::Instant;

/// A DAISY machine emulating the PowerPC guest.
pub type System = DaisySystem<PpcIsa>;

/// One benchmark workload: a system configuration the nine programs
/// run under. Each stresses a different layer (see `README.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Production configuration: packed, native tier, infinite cache,
    /// chaining on.
    NativeSuite,
    /// The Chapter 5 simulation configuration: the paper's finite
    /// cache hierarchy, which bypasses the native tier.
    SimSuite,
    /// `NativeSuite` with 256-byte translation pages and a 512-byte
    /// translated-code area: continuous cast-out and recompilation.
    CodeThrash,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::NativeSuite, Workload::SimSuite, Workload::CodeThrash];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NativeSuite => "native_suite",
            Workload::SimSuite => "sim_suite",
            Workload::CodeThrash => "code_thrash",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The translator configuration.
    pub fn translator(self) -> TranslatorConfig {
        match self {
            Workload::CodeThrash => {
                TranslatorConfig { page_size: 256, ..TranslatorConfig::default() }
            }
            _ => TranslatorConfig::default(),
        }
    }

    /// A fresh system for `p`, configured through the public builder.
    pub fn build(self, p: &Program) -> System {
        let b = System::builder()
            .mem_size(p.w.mem_size)
            .translator(self.translator())
            .native_execution(true);
        match self {
            Workload::NativeSuite => b,
            Workload::SimSuite => b.cache(Hierarchy::paper_default()),
            Workload::CodeThrash => b.code_capacity(512),
        }
        .build()
    }

    /// Whether the native tier must execute part of every run.
    pub fn expects_native(self) -> bool {
        NATIVE_HOST && self != Workload::SimSuite
    }

    /// Whether ILP is reported against the finite cache (stalls
    /// included) rather than as infinite-cache pathlength reduction.
    pub fn finite_cache(self) -> bool {
        self == Workload::SimSuite
    }
}

/// A guest program with its reference-interpreter oracle result.
pub struct Program {
    /// The workload definition (sizes, budget, result checker).
    pub w: daisy_workloads::Workload,
    /// The assembled image.
    pub image: daisy_ppc::Program,
    /// Architected state after the reference interpreter ran it.
    pub ref_cpu: Cpu,
    /// Memory after the reference interpreter ran it.
    pub ref_mem: Memory,
    /// Exact dynamic guest instruction count (reference interpreter).
    pub instrs: u64,
}

impl Program {
    /// A memory image with the program loaded and nothing executed.
    pub fn fresh_memory(&self) -> Memory {
        let mut mem = Memory::new(self.w.mem_size);
        self.image.load_into(&mut mem).expect("program fits its own memory size");
        mem
    }

    /// Cycle budget of one translated run.
    pub fn budget(&self) -> u64 {
        50 * self.w.max_instrs
    }
}

/// Assembles the nine programs and runs each on the reference
/// interpreter. Returns them with the nanoseconds the interpreter took.
pub fn prepare() -> Result<(Vec<Program>, u64), String> {
    let mut oracle_ns = 0u64;
    let mut out = Vec::new();
    for w in daisy_workloads::all() {
        let image = w.program();
        let mut ref_mem = Memory::new(w.mem_size);
        image.load_into(&mut ref_mem).map_err(|e| format!("{}: load: {e:?}", w.name))?;
        let mut ref_cpu = Cpu::new(image.entry);
        let t = Instant::now();
        let stop = ref_cpu.run(&mut ref_mem, w.max_instrs);
        oracle_ns += t.elapsed().as_nanos() as u64;
        if !matches!(stop, Ok(StopReason::Syscall)) {
            return Err(format!("{}: reference run stopped with {stop:?}", w.name));
        }
        w.check(&ref_cpu, &ref_mem).map_err(|e| format!("{}: reference check: {e}", w.name))?;
        let instrs = ref_cpu.ninstrs;
        out.push(Program { w, image, ref_cpu, ref_mem, instrs });
    }
    Ok((out, oracle_ns))
}

/// The order programs are drawn in each pass: a seeded shuffle.
pub struct Order(XorShift);

impl Order {
    /// An order generator for `seed` (any value, including 0).
    pub fn new(seed: u64) -> Order {
        let mixed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        Order(XorShift(((mixed >> 32) as u32 ^ mixed as u32) | 1))
    }

    /// The next pass: a permutation of `0..n`.
    pub fn pass(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            idx.swap(i, self.0.next_u32() as usize % (i + 1));
        }
        idx
    }
}

/// Builds, loads and runs `p` untraced. Returns the system, how it
/// stopped, and the host nanoseconds from build to stop.
pub fn run(wl: Workload, p: &Program) -> (System, Result<StopReason, String>, u64) {
    let t = Instant::now();
    let mut sys = wl.build(p);
    let stop = match sys.load(&p.image) {
        Ok(()) => sys.run(p.budget()).map_err(|e| e.to_string()),
        Err(e) => Err(format!("load: {e:?}")),
    };
    let ns = t.elapsed().as_nanos() as u64;
    (sys, stop, ns)
}

/// The native tier's counters, zero when the tier is off.
pub fn native_stats(sys: &System) -> NativeStats {
    sys.native_stats().unwrap_or_default()
}

/// Checks one finished run: it stopped at the final system call, the
/// workload's checker accepts it, every architected register and every
/// memory byte equals the reference interpreter's, and — where the
/// workload needs it — the native tier executed part of it.
pub fn verify(
    wl: Workload,
    p: &Program,
    sys: &System,
    stop: &Result<StopReason, String>,
) -> Result<(), String> {
    match stop {
        Ok(StopReason::Syscall) => {}
        other => return Err(format!("stopped with {other:?}")),
    }
    p.w.check(&sys.cpu, &sys.mem)?;
    let (c, r) = (&sys.cpu, &p.ref_cpu);
    let regs = [
        ("CR", c.cr, r.cr),
        ("LR", c.lr, r.lr),
        ("CTR", c.ctr, r.ctr),
        ("XER", c.xer, r.xer),
        ("MSR", c.msr, r.msr),
        ("PC", c.pc, r.pc),
    ];
    if c.gpr != r.gpr {
        return Err("GPRs differ from the reference interpreter".into());
    }
    if let Some((name, got, want)) = regs.iter().find(|(_, got, want)| got != want) {
        return Err(format!("{name} is {got:#x}, reference {want:#x}"));
    }
    let size = p.ref_mem.size();
    if sys.mem.read_bytes(0, size).ok() != p.ref_mem.read_bytes(0, size).ok() {
        return Err("memory differs from the reference interpreter".into());
    }
    if wl.expects_native() {
        if !sys.native_enabled() {
            return Err("native tier not active on a native-capable host".into());
        }
        if native_stats(sys).vliws_native == 0 {
            return Err("native coverage is 0: the run fell back to the packed engine".into());
        }
    }
    Ok(())
}

/// The simulated counters of one run, which must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    stats: RunStats,
    groups_translated: u64,
    cast_outs: u64,
    native_compiles: u64,
}

impl Fingerprint {
    /// The counters of a finished run.
    pub fn of(sys: &System) -> Fingerprint {
        Fingerprint {
            stats: sys.stats,
            groups_translated: sys.vmm.stats.groups_translated,
            cast_outs: sys.vmm.stats.cast_outs,
            native_compiles: native_stats(sys).compiles,
        }
    }

    /// A stable 64-bit digest (FNV-1a over the counters), printed so
    /// runs with different seeds can be compared.
    pub fn digest(&self) -> u64 {
        format!("{self:?}").bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

/// Tally of checked program runs.
#[derive(Default)]
pub struct Checks {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs that failed a check (each reported on stderr).
    pub failed: u64,
    /// Per-program counter fingerprints.
    pub determinism: Determinism,
}

impl Checks {
    /// Verifies one finished run, checks its simulated counters against
    /// the program's first run, and counts it.
    pub fn record(
        &mut self,
        wl: Workload,
        p: &Program,
        sys: &System,
        stop: &Result<StopReason, String>,
    ) {
        self.attempted += 1;
        let outcome = verify(wl, p, sys, stop)
            .and_then(|()| self.determinism.check(p.w.name, Fingerprint::of(sys)));
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("FAILED {} on {}: {e}", p.w.name, wl.name());
        }
    }
}

/// The first fingerprint seen per program; later runs must match it.
#[derive(Default)]
pub struct Determinism {
    first: HashMap<&'static str, Fingerprint>,
}

impl Determinism {
    /// Records or compares `fp` for `program`.
    pub fn check(&mut self, program: &'static str, fp: Fingerprint) -> Result<(), String> {
        match self.first.get(program) {
            None => {
                self.first.insert(program, fp);
                Ok(())
            }
            Some(first) if *first == fp => Ok(()),
            Some(first) => Err(format!("simulated counters changed: {first:?} then {fp:?}")),
        }
    }

    /// `(program, digest)` in program-name order.
    pub fn digests(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<_> = self.first.iter().map(|(k, fp)| (*k, fp.digest())).collect();
        v.sort();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for wl in Workload::ALL {
            assert_eq!(Workload::parse(wl.name()), Some(wl));
            assert!(crate::report::valid_name(wl.name()));
        }
        assert_eq!(Workload::parse("soc_firmware"), None);
    }

    #[test]
    fn order_is_a_seeded_permutation() {
        let a: Vec<_> = (0..4).map(|_| Order::new(7).pass(9)).collect();
        let mut o = Order::new(7);
        let b: Vec<_> = (0..4).map(|_| o.pass(9)).collect();
        assert_eq!(a[0], b[0]);
        let mut sorted = b[1].clone();
        sorted.sort();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        assert_ne!(Order::new(1).pass(9), Order::new(2).pass(9));
        assert_eq!(Order::new(0).pass(9).len(), 9);
    }

    #[test]
    fn verify_accepts_real_runs_and_rejects_a_corrupted_byte() {
        let (programs, _) = prepare().unwrap();
        let p = programs.iter().find(|p| p.w.name == "c_sieve").unwrap();
        for wl in Workload::ALL {
            let (mut sys, stop, _) = run(wl, p);
            assert_eq!(verify(wl, p, &sys, &stop), Ok(()), "{}", wl.name());
            let last = p.w.mem_size - 1;
            let byte = sys.mem.read_u8(last).unwrap();
            sys.mem.write_u8(last, !byte).unwrap();
            assert!(verify(wl, p, &sys, &stop).is_err(), "{}", wl.name());
            assert!(verify(wl, p, &sys, &Ok(StopReason::MaxInstrs)).is_err());
        }
    }

    #[test]
    fn determinism_flags_a_changed_counter() {
        let sys = System::builder().build();
        let mut d = Determinism::default();
        let fp = Fingerprint::of(&sys);
        assert!(d.check("p", fp.clone()).is_ok());
        assert!(d.check("p", fp.clone()).is_ok());
        let mut other = fp;
        other.cast_outs += 1;
        assert!(d.check("p", other).is_err());
    }
}
