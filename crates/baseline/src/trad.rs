//! The "traditional VLIW compiler" baseline of Table 5.2.
//!
//! The paper compares DAISY's one-pass dynamic scheduler against IBM's
//! offline VLIW compiler "performing a great number of sophisticated
//! optimizations", finding DAISY within ~25% (and ahead on `c_sieve`).
//! That compiler is proprietary; this baseline grants the *same
//! scheduling substrate* the structural advantages the paper attributes
//! to offline compilation:
//!
//! * **whole-program scope** — no page boundaries, so groups span the
//!   entire binary and loops unroll freely across pages;
//! * **profile-directed feedback** — path probabilities come from a
//!   prior profiling run instead of static heuristics;
//! * **large windows** — far bigger per-path instruction windows, join
//!   revisit budgets, and group sizes than a real-time translator could
//!   afford.
//!
//! Because compile time is unconstrained here, the measured translation
//! cost is also reported, reproducing the paper's point that the
//! traditional approach extracts more ILP at much higher overhead.

use crate::profile;
use daisy::sched::TranslatorConfig;
use daisy::stats::RunStats;
use daisy::system::DaisySystem;
use daisy_cachesim::Hierarchy;
use daisy_ppc::asm::Program;
use daisy_ppc::interp::{Cpu, StopReason};
use daisy_ppc::mem::Memory;
use daisy_ppc::PpcIsa;
use daisy_vliw::machine::MachineConfig;

/// Result of a traditional-compiler run.
#[derive(Debug, Clone)]
pub struct TradResult {
    /// Execution statistics on the same engine DAISY uses.
    pub stats: RunStats,
    /// Base instructions executed (reference interpreter count).
    pub base_instrs: u64,
    /// Base instructions *scheduled* during compilation (compile cost).
    pub instrs_compiled: u64,
    /// How the run stopped.
    pub stop: StopReason,
}

impl TradResult {
    /// Infinite-cache ILP.
    pub fn ilp(&self) -> f64 {
        self.stats.pathlength_reduction(self.base_instrs)
    }
}

/// The offline compiler's configuration: whole-program scope, profile
/// feedback, and generous windows on the given machine.
pub fn traditional_config(
    machine: MachineConfig,
    profile: std::collections::HashMap<u32, f64>,
) -> TranslatorConfig {
    TranslatorConfig {
        machine,
        window_size: 256,
        max_join_visits: 8,
        max_vliws_per_group: 768,
        max_paths: 24,
        whole_program: true,
        profile: Some(profile),
        ..TranslatorConfig::default()
    }
}

/// Profiles, "compiles", and runs a program with the traditional
/// configuration on an infinite cache.
pub fn run_traditional(
    prog: &Program,
    mem_size: u32,
    machine: MachineConfig,
    max_instrs: u64,
) -> TradResult {
    // Profiling run (also yields the exact base instruction count).
    let mut pmem = Memory::new(mem_size);
    prog.load_into(&mut pmem).expect("program fits");
    let prof = profile::collect(&mut pmem, prog.entry, max_instrs);

    let mut rmem = Memory::new(mem_size);
    prog.load_into(&mut rmem).expect("program fits");
    let mut rcpu = Cpu::new(prog.entry);
    rcpu.run(&mut rmem, max_instrs).expect("reference run");
    let base_instrs = rcpu.ninstrs;

    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(mem_size)
        .translator(traditional_config(machine, prof))
        .cache(Hierarchy::infinite())
        .build();
    sys.load(prog).expect("program fits");
    let stop = sys.run(10 * max_instrs).expect("traditional run");
    TradResult {
        stats: sys.stats,
        base_instrs,
        instrs_compiled: sys.vmm.cost.instrs_scheduled,
        stop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_ppc::asm::Asm;
    use daisy_ppc::reg::{CrField, Gpr};

    #[test]
    fn traditional_beats_one_page_scheduling_on_a_cross_page_loop() {
        // A loop whose body straddles a page boundary: DAISY pays a
        // cross-page dispatch every iteration, the whole-program
        // compiler does not.
        let build = || {
            let mut a = Asm::new(0xFC0); // loop body crosses 0x1000 page
            a.li(Gpr(4), 2000);
            a.mtctr(Gpr(4));
            a.label("loop");
            for i in 0..24u8 {
                a.addi(Gpr(5 + i % 8), Gpr(5 + i % 8), 1);
            }
            a.bdnz("loop");
            a.sc();
            a.finish().unwrap()
        };
        let prog = build();
        let machine = MachineConfig::big();
        let trad = run_traditional(&prog, 0x20000, machine.clone(), 1_000_000);
        assert_eq!(trad.stop, StopReason::Syscall);

        let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(0x20000).build();
        sys.load(&prog).unwrap();
        sys.run(10_000_000).unwrap();
        let daisy_ilp = sys.stats.pathlength_reduction(trad.base_instrs);

        assert!(
            trad.ilp() >= daisy_ilp * 0.99,
            "traditional {:.2} should be at least DAISY {:.2}",
            trad.ilp(),
            daisy_ilp
        );
        assert!(trad.ilp() > 2.0, "traditional ILP too low: {:.2}", trad.ilp());
    }

    #[test]
    fn profile_feedback_prefers_the_hot_arm() {
        // A branch taken 95% of the time, against the static forward-
        // not-taken heuristic: the profiled compiler should still
        // schedule well (smoke test: it runs correctly).
        let mut a = Asm::new(0x1000);
        a.li(Gpr(3), 0);
        a.li(Gpr(4), 1000);
        a.mtctr(Gpr(4));
        a.label("loop");
        a.mfctr(Gpr(5));
        a.andi_(Gpr(6), Gpr(5), 31);
        a.cmpwi(CrField(1), Gpr(6), 0);
        a.beq(CrField(1), "rare");
        a.addi(Gpr(3), Gpr(3), 1);
        a.label("back");
        a.bdnz("loop");
        a.sc();
        a.label("rare");
        a.addi(Gpr(3), Gpr(3), 100);
        a.b("back");
        let prog = a.finish().unwrap();
        let r = run_traditional(&prog, 0x20000, MachineConfig::big(), 1_000_000);
        assert_eq!(r.stop, StopReason::Syscall);
        assert!(r.instrs_compiled > 0);
    }
}
