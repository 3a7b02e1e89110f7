//! Cross-ISA differential testing: the same algorithms, compiled for
//! two different guest ISAs, driven through the same translation core,
//! must produce identical observable results.
//!
//! For each ported algorithm this harness runs the PowerPC binary and
//! the RV32I binary, each through its own interpreter oracle and
//! through `DaisySystem` translation on the packed engine and on the
//! native tier (under an infinite cache and the paper's finite
//! hierarchy), then asserts:
//!
//! 1. each guest's translated runs match its interpreter oracle
//!    (bit-exact architected state, the §3.5 contract),
//! 2. the scalar results agree *across* ISAs (PowerPC `r3` vs RV32
//!    `a0`), and
//! 3. for `hist`, the 256-counter result array in guest memory is
//!    byte-identical across ISAs (both images are big-endian).
//!
//! The inputs come from the shared `daisy_isa::synth` generators, so
//! any divergence is a translator or frontend bug, not input skew.

use daisy::prelude::*;
use daisy_ppc::PpcIsa;
use daisy_rv32::Rv32Isa;

/// Runs one workload through its interpreter oracle and through
/// translation on three systems: the packed engine, and the native tier
/// under an infinite cache and under `Hierarchy::paper_default()` (where
/// compiled code logs its cache probes for replay). Checks every run and
/// asserts each translated run's state equals the oracle's; returns the
/// packed system's state.
fn run_both<I: Isa>(w: &Workload<I>) -> (I::Cpu, daisy_isa::mem::Memory) {
    let prog = w.program();

    let mut mem = daisy_isa::mem::Memory::new(w.mem_size);
    prog.load_into(&mut mem).unwrap();
    let mut cpu = I::Cpu::new(prog.entry);
    let istop = cpu.interp_run(&mut mem, w.max_instrs);
    assert_eq!(istop, StopReason::Syscall, "{} (interp): {istop:?}", w.name);
    w.check(&cpu, &mem).unwrap_or_else(|e| panic!("{} (interp): {e}", w.name));

    let systems = [
        ("packed", false, Hierarchy::infinite()),
        ("native", true, Hierarchy::infinite()),
        ("native, paper_default", true, Hierarchy::paper_default()),
    ];
    let mut packed = None;
    for (tier, native, cache) in systems {
        let mut sys = DaisySystem::<I>::builder()
            .mem_size(w.mem_size)
            .native_execution(native)
            .cache(cache)
            .build();
        sys.load(&prog).unwrap();
        let stop = sys.run(10 * w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall, "{} ({tier}): {stop:?}", w.name);
        w.check(&sys.cpu, &sys.mem).unwrap_or_else(|e| panic!("{} ({tier}): {e}", w.name));
        if let Some(diff) = sys.cpu.state_diff(&cpu, true) {
            panic!("{} ({tier}): translated vs interpreted state differs: {diff}", w.name);
        }
        if native && cfg!(all(target_arch = "x86_64", target_os = "linux")) {
            let ns = sys.native_stats().unwrap();
            assert!(ns.vliws_native > 0, "{} ({tier}): no VLIW ran natively", w.name);
        }
        packed.get_or_insert((sys.cpu, sys.mem));
    }
    packed.unwrap()
}

fn cross_check(name: &str) -> (u32, u32, daisy_isa::mem::Memory, daisy_isa::mem::Memory) {
    let pw: Workload<PpcIsa> = daisy_workloads::by_name(name).unwrap();
    let rw: Workload<Rv32Isa> = daisy_rv32::workloads::by_name(name).unwrap();
    let (pcpu, pmem) = run_both(&pw);
    let (rcpu, rmem) = run_both(&rw);
    // Scalar result: PowerPC r3 vs RV32 a0 (x10).
    (pcpu.gpr[3], rcpu.x[10], pmem, rmem)
}

#[test]
fn sieve_prime_counts_agree_across_isas() {
    let (ppc, rv32, _, _) = cross_check("c_sieve");
    assert_eq!(ppc, rv32, "prime count differs across guest ISAs");
}

#[test]
fn cmp_difference_indices_agree_across_isas() {
    let (ppc, rv32, _, _) = cross_check("cmp");
    assert_eq!(ppc, rv32, "first-difference index differs across guest ISAs");
}

#[test]
fn hist_sums_and_counter_memory_agree_across_isas() {
    let (ppc, rv32, pmem, rmem) = cross_check("hist");
    assert_eq!(ppc, rv32, "weighted histogram sum differs across guest ISAs");
    // The counter array itself must be byte-identical: same layout,
    // same endianness, same counts.
    let base = daisy_rv32::workloads::HIST_BASE;
    let len = daisy_rv32::workloads::HIST_BYTES;
    let p = pmem.read_bytes(base, len).unwrap();
    let r = rmem.read_bytes(base, len).unwrap();
    assert_eq!(p, r, "histogram counter memory differs across guest ISAs");
    assert_ne!(p.iter().map(|&b| u32::from(b)).sum::<u32>(), 0, "counters all zero");
}
