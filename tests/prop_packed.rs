//! The packed execution format is the engine every translated group
//! runs on, so these tests hold it to the interpreter oracle directly:
//! randomized programs (traced and untraced, under an infinite and a
//! finite cache), the nine workloads (packed under the paper's finite
//! cache, the native tier under an infinite one), and the packed form
//! of the chain-link protocol (slot-indexed links must still sever on
//! invalidation). The test names date from when a tree-walking engine
//! over the same schedule was the reference; the interpreter, which
//! also catches translator bugs that engine shared, has replaced it.

mod common;

use common::{assemble, assert_same, run_daisy, run_oracle, step, MEM_SIZE};
use daisy::sched::TranslatorConfig;
use daisy::stats::RunStats;
use daisy::system::DaisySystem;
use daisy::trace::RingSink;
use daisy_cachesim::Hierarchy;
use daisy_ppc::asm::Asm;
use daisy_ppc::encode::encode;
use daisy_ppc::insn::Insn;
use daisy_ppc::interp::{Cpu, StopReason};
use daisy_ppc::mem::Memory;
use daisy_ppc::reg::Gpr;
use daisy_ppc::PpcIsa;
use daisy_vliw::machine::MachineConfig;
use proptest::prelude::*;

/// `stats` with the counters a cache hierarchy may move (stall cycles
/// and first-level misses) zeroed: what is left must not depend on it.
fn cache_independent(stats: &RunStats) -> RunStats {
    let mut s = *stats;
    s.stall_cycles = 0;
    s.load_l0_misses = 0;
    s.store_l0_misses = 0;
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Default machine, infinite cache: the traced run leaves the
    /// oracle's registers and memory, records its whole trace, and the
    /// sink perturbs nothing — an untraced twin agrees to the counter.
    #[test]
    fn packed_engine_is_observably_the_tree_engine(
        steps in prop::collection::vec(step(), 1..40),
        seeds in prop::collection::vec(any::<u32>(), 12),
    ) {
        let prog = assemble(&steps);
        let (cpu, mem) = run_oracle(&prog, &seeds);
        let sink = RingSink::new(1 << 16);
        let traced = run_daisy(&prog, &seeds, DaisySystem::builder().trace_sink(sink.clone()));
        assert_eq!(sink.dropped(), 0, "trace ring overflowed; grow the cap");
        assert!(!sink.events().is_empty(), "the traced run recorded no events");
        let plain = run_daisy(&prog, &seeds, DaisySystem::builder());
        assert_eq!(plain.stats, traced.stats, "the trace sink perturbed RunStats");
        assert_same(&traced, &cpu, &mem, "traced, default config");
        assert_same(&plain, &cpu, &mem, "untraced, default config");
    }

    /// The smallest paper machine, tiny translation pages and the
    /// paper's finite cache hierarchy: exercises VLIW splitting,
    /// cross-page dispatch and the per-access cache probes. The result
    /// is the oracle's, and the cache only stretches time — the same
    /// run under an infinite cache agrees on every other counter.
    #[test]
    fn packed_engine_matches_on_small_machine_finite_cache(
        steps in prop::collection::vec(step(), 1..24),
        seeds in prop::collection::vec(any::<u32>(), 12),
    ) {
        let cfg = TranslatorConfig {
            machine: MachineConfig::paper_configs()[0].clone(),
            page_size: 256,
            ..TranslatorConfig::default()
        };
        let prog = assemble(&steps);
        let (cpu, mem) = run_oracle(&prog, &seeds);
        let run = |cache: Hierarchy| {
            run_daisy(&prog, &seeds, DaisySystem::builder().translator(cfg.clone()).cache(cache))
        };
        let finite = run(Hierarchy::paper_default());
        let infinite = run(Hierarchy::infinite());
        assert_eq!(
            cache_independent(&finite.stats),
            cache_independent(&infinite.stats),
            "the finite cache changed more than timing"
        );
        assert!(finite.stats.cycles() >= infinite.stats.cycles());
        assert_same(&finite, &cpu, &mem, "4-issue, 256-byte pages, finite cache");
    }
}

/// All nine paper workloads on the interpreter, on the packed engine
/// under the paper's finite cache and on the native tier (which runs
/// only under an infinite cache): both leave the oracle's registers and
/// memory image, pass the workload's own checker, and agree on every
/// counter the cache cannot move.
#[test]
fn workloads_bit_exact_across_engines() {
    for w in daisy_workloads::all() {
        let prog = w.program();
        let mut mem = Memory::new(w.mem_size);
        prog.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(prog.entry);
        let stop = cpu.run(&mut mem, w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall, "{}: reference run did not finish", w.name);

        let run = |cache: Hierarchy, native: bool| {
            let mut sys = DaisySystem::<PpcIsa>::builder()
                .mem_size(w.mem_size)
                .cache(cache)
                .native_execution(native)
                .native_threshold(2)
                .build();
            sys.load(&prog).unwrap();
            let stop = sys.run(10 * w.max_instrs).unwrap();
            assert_eq!(stop, StopReason::Syscall, "{}: did not finish", w.name);
            w.check(&sys.cpu, &sys.mem).unwrap_or_else(|e| {
                panic!("{} (native={native}): wrong guest result: {e}", w.name)
            });
            sys
        };
        let packed = run(Hierarchy::paper_default(), false);
        let native = run(Hierarchy::infinite(), true);
        assert_same(&packed, &cpu, &mem, &format!("{}: packed, finite cache", w.name));
        assert_same(&native, &cpu, &mem, &format!("{}: native", w.name));
        assert_eq!(
            cache_independent(&packed.stats),
            cache_independent(&native.stats),
            "{}: RunStats diverged beyond the cache counters",
            w.name
        );
    }
}

/// The packed chain-link protocol under self-modifying code: links are
/// installed against packed slot indices, and invalidating the patch
/// page must sever them before the next dispatch — leaving exactly the
/// interpreter's final state.
#[test]
fn packed_links_sever_on_invalidation() {
    const PAGE: u32 = 256;
    const TABLE: u32 = 0x8000;
    let imms: Vec<i16> = (1..=8).collect();

    // A loop that rewrites one of its own instructions each iteration
    // (patch site parked on the next 4 KiB invalidation unit, so the
    // storing group survives to observe the sever).
    let mut a = Asm::new(0x1F00);
    for r in [0u8, 1, 2, 3, 6] {
        a.li(Gpr(r), i16::from(r) + 1);
    }
    a.li(Gpr(7), 0);
    a.li32(Gpr(9), TABLE);
    a.li(Gpr(8), 0);
    a.li(Gpr(31), imms.len() as i16);
    a.mtctr(Gpr(31));
    a.label("loop");
    a.lwzx(Gpr(4), Gpr(9), Gpr(8));
    a.la(Gpr(3), "patch");
    a.stw(Gpr(4), 0, Gpr(3));
    while !a.here().is_multiple_of(PAGE) {
        a.nop();
    }
    a.label("patch");
    a.li(Gpr(5), 0);
    a.add(Gpr(7), Gpr(7), Gpr(5));
    a.addi(Gpr(8), Gpr(8), 4);
    a.bdnz("loop");
    a.sc();
    let words: Vec<u32> =
        imms.iter().map(|&si| encode(&Insn::Addi { rt: Gpr(5), ra: Gpr(0), si })).collect();
    a.data_words(TABLE, &words);
    let prog = a.finish().expect("selfmod program assembles");

    let mut mem = Memory::new(MEM_SIZE);
    prog.load_into(&mut mem).unwrap();
    let mut cpu = Cpu::new(prog.entry);
    assert_eq!(cpu.run(&mut mem, 1_000_000).unwrap(), StopReason::Syscall);
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(MEM_SIZE)
        .translator(TranslatorConfig { page_size: PAGE, ..TranslatorConfig::default() })
        .chaining(true)
        .build();
    sys.load(&prog).unwrap();
    let stop = sys.run(10_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);

    let want: u32 = imms.iter().map(|&i| i as u32).sum();
    assert_eq!(sys.cpu.gpr[7], want, "accumulator saw a stale patch");
    assert!(sys.stats.chain.link_installs >= 1, "hot exits should get links");
    assert!(
        sys.stats.chain.severs >= 1,
        "invalidating the patch page must sever packed slot links; stats: {:?}",
        sys.stats.chain
    );
    assert_same(&sys, &cpu, &mem, "selfmod");
}

/// `RunStats` equality in these tests is meaningful only if the type
/// actually compares every counter; guard against a field being dropped
/// from the comparison by a future manual `PartialEq` impl.
#[test]
fn runstats_equality_covers_counters() {
    let mut a = RunStats::default();
    let b = RunStats::default();
    assert_eq!(a, b);
    a.issue_histogram[3] = 1;
    assert_ne!(a, b);
}
