//! Direct group-to-group chaining: the dispatch loop may skip the VMM
//! on hot exits, but never at the expense of architectural
//! compatibility. These tests drive the two hazards the link/sever
//! protocol exists for — self-modifying code and alias retranslation —
//! and pin down the accounting invariants between chained and
//! unchained runs.

mod common;

use common::{assert_same, run_oracle_in};
use daisy::prelude::*;
use daisy_ppc::asm::Program;
use daisy_ppc::encode::encode;
use daisy_ppc::insn::Insn;
use daisy_ppc::interp::{Cpu, StopReason};
use daisy_ppc::mem::Memory;
use daisy_ppc::PpcIsa;
use daisy_ppc::{Asm, Gpr};
use proptest::prelude::*;

const PAGE: u32 = 256;
const TABLE: u32 = 0x8000;

/// A loop that rewrites one of its own instructions every iteration.
///
/// Each pass fetches the next encoding of `addi r5, 0, imm` from a data
/// table, stores it over the `patch:` site, executes the patched
/// instruction, and accumulates r5 into r7. Stale translations — or
/// stale chain links — would execute the previous iteration's immediate
/// and corrupt the accumulator.
///
/// The loop starts at 0x1F00 so the patch site (padded up to 0x2000)
/// lands in the *next* 4 KiB invalidation unit: the store kills only
/// the patch group, while the storing group — and its chain link into
/// the patch page — survives to observe the sever.
fn selfmod_program(imms: &[i16], filler: &[u8]) -> Program {
    let mut a = Asm::new(0x1F00);
    for r in [0u8, 1, 2, 3, 6] {
        a.li(Gpr(r), i16::from(r) + 1);
    }
    a.li(Gpr(7), 0); // accumulator
    a.li32(Gpr(9), TABLE);
    a.li(Gpr(8), 0); // table index
    a.li(Gpr(31), imms.len() as i16);
    a.mtctr(Gpr(31));
    a.label("loop");
    a.lwzx(Gpr(4), Gpr(9), Gpr(8)); // next encoding
    a.la(Gpr(3), "patch");
    a.stw(Gpr(4), 0, Gpr(3)); // the code modification
    for &op in filler {
        match op % 6 {
            0 => a.addi(Gpr(0), Gpr(0), 7),
            1 => a.add(Gpr(1), Gpr(1), Gpr(0)),
            2 => a.xor(Gpr(2), Gpr(2), Gpr(1)),
            3 => a.srwi(Gpr(3), Gpr(2), 3),
            4 => a.add(Gpr(6), Gpr(1), Gpr(3)),
            _ => a.mullw(Gpr(1), Gpr(1), Gpr(2)),
        }
    }
    // Park the patch site on its own page: the store above then
    // invalidates a page other than the one it executes from.
    while !a.here().is_multiple_of(PAGE) {
        a.nop();
    }
    a.label("patch");
    a.li(Gpr(5), 0); // overwritten at run time, every iteration
    a.add(Gpr(7), Gpr(7), Gpr(5));
    a.addi(Gpr(8), Gpr(8), 4);
    a.bdnz("loop");
    a.sc();

    let words: Vec<u32> =
        imms.iter().map(|&si| encode(&Insn::Addi { rt: Gpr(5), ra: Gpr(0), si })).collect();
    a.data_words(TABLE, &words);
    a.finish().expect("selfmod program assembles")
}

fn small_page_config() -> TranslatorConfig {
    TranslatorConfig { page_size: PAGE, ..TranslatorConfig::default() }
}

fn run_chained(prog: &Program, mem_size: u32, chaining: bool) -> DaisySystem<PpcIsa> {
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(mem_size)
        .translator(small_page_config())
        .chaining(chaining)
        .build();
    sys.load(prog).unwrap();
    let stop = sys.run(10_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall, "DAISY run did not finish");
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Chained execution of self-modifying programs is bit-for-bit the
    /// interpreter's: every store over the patch page must sever the
    /// inbound links before the next dispatch can follow one.
    #[test]
    fn prop_selfmod_chaining_matches_interpreter(
        imms in proptest::collection::vec(1i16..1000, 1..6),
        filler in proptest::collection::vec(0u8..6, 0..12),
    ) {
        let prog = selfmod_program(&imms, &filler);
        let (cpu, mem) = run_oracle_in(&prog, 0x2_0000, 1_000_000, "selfmod");
        let sys = run_chained(&prog, 0x2_0000, true);
        assert_same(&sys, &cpu, &mem, "selfmod");
        // The first iteration stores before the patch page is ever
        // translated; only later iterations hit a protected unit.
        if imms.len() >= 2 {
            prop_assert!(sys.stats.code_modifications >= 1, "patch stores must invalidate");
        }
        let want: u32 = imms.iter().map(|&i| i as u32).sum();
        prop_assert_eq!(sys.cpu.gpr[7], want, "accumulator saw a stale patch");
    }
}

/// Deterministic version with enough iterations to watch the protocol
/// itself: links get installed into the patch group, each invalidation
/// drops the only strong reference, and the next dispatch finds the
/// link severed instead of following it into dead code.
#[test]
fn selfmod_loop_severs_chain_links() {
    let imms: Vec<i16> = (1..=8).collect();
    let prog = selfmod_program(&imms, &[1, 2]);
    let (cpu, mem) = run_oracle_in(&prog, 0x2_0000, 1_000_000, "selfmod");
    let sys = run_chained(&prog, 0x2_0000, true);
    assert_same(&sys, &cpu, &mem, "selfmod sever");
    assert_eq!(sys.cpu.gpr[7], 36);
    assert!(sys.stats.chain.link_installs >= 1, "hot exits should get links");
    assert!(
        sys.stats.chain.severs >= 1,
        "invalidating the patch page must sever inbound links; stats: {:?}",
        sys.stats.chain
    );
    assert!(sys.stats.code_modifications >= 2);
}

/// Alias restarts reached through a chained edge still retranslate the
/// offending entry conservatively — and the retranslation drops the old
/// group, severing any chain links that pointed at it.
#[test]
fn alias_restart_through_chained_edge_retranslates_conservatively() {
    let w = daisy_workloads::by_name("hist").expect("hist workload");
    let prog = w.program();
    let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(w.mem_size).build();
    sys.vmm.alias_retranslate_after = Some(3);
    sys.load(&prog).unwrap();
    sys.run(50 * w.max_instrs).unwrap();
    w.check(&sys.cpu, &sys.mem).expect("hist result exact under retranslation");
    assert!(sys.vmm.stats.alias_retranslations >= 1, "threshold should trip");
    assert!(sys.stats.chain.chained_dispatches > 0, "hot loop should chain");
    assert!(
        sys.stats.chain.severs >= 1,
        "retranslation must sever links into the replaced group; stats: {:?}",
        sys.stats.chain
    );
}

/// Chaining is pure plumbing: with it off the dispatch loop goes
/// through the VMM every time (chain counters stay zero), and with it
/// on the *total* number of group dispatches is unchanged — links only
/// reroute lookups, they never add or skip group entries. Architected
/// results are identical either way, and on hot workloads chaining
/// absorbs at least half of all VMM dispatches.
#[test]
fn chaining_cuts_vmm_dispatches_without_changing_results() {
    for name in ["hist", "compress", "c_sieve"] {
        let w = daisy_workloads::by_name(name).expect("workload");
        let prog = w.program();
        let run = |chaining: bool| {
            let mut sys =
                DaisySystem::<PpcIsa>::builder().mem_size(w.mem_size).chaining(chaining).build();
            sys.load(&prog).unwrap();
            let stop = sys.run(50 * w.max_instrs).unwrap();
            assert_eq!(stop, StopReason::Syscall, "{name}: run did not finish");
            w.check(&sys.cpu, &sys.mem).unwrap();
            sys
        };
        let on = run(true);
        let off = run(false);

        assert_eq!(off.stats.chain, ChainStats::default(), "{name}: chaining off must be inert");
        assert_eq!(on.cpu.gpr, off.cpu.gpr, "{name}: GPRs diverged across modes");
        assert_eq!(on.cpu.pc, off.cpu.pc, "{name}: PC diverged across modes");
        assert_eq!(
            on.stats.total_dispatches(),
            off.stats.groups_entered,
            "{name}: chaining changed the number of group dispatches"
        );
        assert!(
            2 * on.stats.groups_entered <= off.stats.groups_entered,
            "{name}: expected >=50% fewer VMM dispatches, got {} chained vs {} unchained",
            on.stats.groups_entered,
            off.stats.groups_entered
        );
    }
}

// ---------------------------------------------------------------------
// The native tier's chain edges: compiled groups jump directly to each
// other through patched stubs, which must obey exactly the sever
// protocol the Rust-level weak links do — invalidation retires them
// before the next entry, and an explicit sever cuts them with the
// links.

fn run_native_chained(prog: &Program, mem_size: u32) -> DaisySystem<PpcIsa> {
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(mem_size)
        .translator(small_page_config())
        .native_execution(true)
        .native_threshold(2)
        .build();
    sys.load(prog).unwrap();
    let stop = sys.run(10_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall, "native DAISY run did not finish");
    sys
}

/// The self-modifying loop under the native tier: every store over the
/// patch page invalidates, and the invalidation must retire that page's
/// code before the next dispatch could enter it. Stale code would
/// execute the previous iteration's immediate and corrupt the
/// accumulator — so bit-exactness *is* the sever check. The stores kill
/// only the patch page's translations, which never compile, so the
/// tier never flushes.
#[test]
fn selfmod_loop_severs_native_slots() {
    let imms: Vec<i16> = (1..=8).collect();
    let prog = selfmod_program(&imms, &[1, 2]);
    let (cpu, mem) = run_oracle_in(&prog, 0x2_0000, 1_000_000, "selfmod");
    let sys = run_native_chained(&prog, 0x2_0000);
    assert_same(&sys, &cpu, &mem, "native selfmod sever");
    assert_eq!(sys.cpu.gpr[7], 36);
    assert!(sys.stats.code_modifications >= 2);
    assert!(
        sys.stats.chain.severs >= 1,
        "invalidating the patch page must sever inbound links; stats: {:?}",
        sys.stats.chain
    );
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        let ns = sys.native_stats().expect("native tier active");
        assert!(ns.compiles >= 1, "the hot loop should compile: {ns:?}");
        assert_eq!(ns.flushes, 0, "no compiled group died, so nothing flushed: {ns:?}");
        assert!(ns.dispatches > ns.compiles, "compiled code outlives the stores: {ns:?}");
    }
}

/// Compress on the native tier, stepped until an edge is patched.
/// Bounded: with the general templates and the inline indirect-branch
/// cache, whole chained regions execute in a single step, so a fixed
/// large warm-up could finish the workload.
fn warm_compress_until_patched() -> (DaisySystem<PpcIsa>, daisy_workloads::Workload) {
    let w = daisy_workloads::by_name("compress").expect("compress workload");
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(w.mem_size)
        .native_execution(true)
        .native_threshold(2)
        .build();
    sys.load(&w.program()).unwrap();
    for _ in 0..400 {
        if sys.native_stats().is_some_and(|ns| ns.edge_patches > 0) {
            break;
        }
        assert_eq!(sys.step().unwrap(), None, "compress finished during warm-up");
    }
    (sys, w)
}

/// An explicit [`DaisySystem::sever_chains`] mid-run must cut patched
/// native jumps together with the Rust-level links — a patched edge
/// surviving the sever would carry execution across a boundary the
/// dispatcher believes severed.
#[test]
fn sever_chains_retires_native_patches() {
    let (mut sys, w) = warm_compress_until_patched();
    sys.sever_chains();
    let stop = sys.run(10 * w.max_instrs).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    w.check(&sys.cpu, &sys.mem).expect("compress result exact across the sever");
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        let ns = sys.native_stats().expect("native tier active");
        assert!(ns.flushes >= 1, "sever_chains must flush the native tier: {ns:?}");
        assert!(ns.dispatches > 0, "compress should run natively: {ns:?}");
    }
}

/// A ladder step retires every compiled group and patched edge, but it
/// must not switch patching off for the rest of the run: the degraded
/// entry runs on the packed engine and is never compiled again, so no
/// patched edge can reach it, and edges between the other native
/// entries are patched anew.
#[test]
fn degrade_keeps_native_patching_live() {
    let (mut sys, w) = warm_compress_until_patched();
    let entry = sys.cpu.pc;
    let patches_before = sys.native_stats().map_or(0, |ns| ns.edge_patches);
    sys.degrade(entry, DegradeCause::Forced).expect("a rung below the default");
    let stop = sys.run(10 * w.max_instrs).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    w.check(&sys.cpu, &sys.mem).expect("compress result exact across the degrade");
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        assert_eq!(sys.rung(entry), Rung::Packed, "one step down from native");
        let ns = sys.native_stats().expect("native tier active");
        assert!(patches_before > 0, "warmup must patch an edge: {ns:?}");
        assert!(
            ns.edge_patches > patches_before,
            "edges must be patched again after the degrade: {ns:?}"
        );
    }
}

/// Alias-restart retranslation reached through native dispatch: the
/// retranslated entry's old compiled body must be retired (identity
/// check), and results stay exact.
#[test]
fn alias_restart_retranslation_retires_native_code() {
    let w = daisy_workloads::by_name("hist").expect("hist workload");
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(w.mem_size)
        .native_execution(true)
        .native_threshold(2)
        .build();
    sys.vmm.alias_retranslate_after = Some(3);
    sys.load(&w.program()).unwrap();
    sys.run(50 * w.max_instrs).unwrap();
    w.check(&sys.cpu, &sys.mem).expect("hist result exact under retranslation");
    assert!(sys.vmm.stats.alias_retranslations >= 1, "threshold should trip");
}

/// Runs a counted loop whose group at `a` adds 1 to r7 until the loop
/// runs through links (patched edges on the native tier), stopping
/// where the last group run was `a`'s. With `two_units`, `a` ends its
/// 4 KiB invalidation unit with a jump to `b`, whose `bdnz` jumps back;
/// without, `a`'s group `bdnz`s to itself. Returns the system, the
/// program, `a`, and the PC it stopped at.
fn warm_counted_loop(two_units: bool, native: bool) -> (DaisySystem<PpcIsa>, Program, u32, u32) {
    let mut a = Asm::new(0x1FF0);
    a.li(Gpr(31), 30_000);
    a.mtctr(Gpr(31));
    let (site, mut boundary) = (a.here(), a.here());
    a.label("a");
    a.addi(Gpr(7), Gpr(7), 1);
    if two_units {
        a.b("b");
        boundary = a.here();
        a.label("b");
    }
    a.bdnz("a");
    a.sc();
    let prog = a.finish().expect("counted loop assembles");
    let mut sys =
        DaisySystem::<PpcIsa>::builder().mem_size(0x4000).native_execution(native).build();
    sys.load(&prog).unwrap();
    let linked = |s: &DaisySystem<PpcIsa>| {
        s.native_stats().map_or(s.stats.chain.chained_dispatches > 0, |ns| {
            ns.edge_patches > u64::from(two_units)
        })
    };
    while !(linked(&sys) && sys.cpu.pc == boundary) {
        assert_eq!(sys.step().unwrap(), None, "finished during warm-up");
    }
    (sys, prog, site, boundary)
}

/// A host store between two steps rewrites the group the pending chain
/// hangs off. Unless the store retires that group before anything
/// runs, the pending link (when the group links to itself) or a patched
/// jump into it enters code translated from the old instruction.
/// Checked against the interpreter taking the same store at the same
/// architected point, on the packed engine and on the native tier.
#[test]
fn host_store_retires_the_pending_chains_source() {
    let word = encode(&Insn::Addi { rt: Gpr(7), ra: Gpr(7), si: 2 });
    for (two_units, native) in [(true, true), (true, false), (false, true), (false, false)] {
        let ctx = format!("two_units {two_units}, native {native}");
        let (mut sys, prog, site, boundary) = warm_counted_loop(two_units, native);
        let ctr = sys.cpu.ctr;
        sys.mem.write_u32(site, word).unwrap();
        assert_eq!(sys.run(10_000_000).unwrap(), StopReason::Syscall, "{ctx}");

        let mut mem = Memory::new(0x4000);
        prog.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(prog.entry);
        while cpu.pc != boundary || cpu.ctr != ctr {
            cpu.step(&mut mem);
        }
        mem.write_u32(site, word).unwrap();
        assert_eq!(cpu.run(&mut mem, 1_000_000).unwrap(), StopReason::Syscall, "{ctx}");
        assert_same(&sys, &cpu, &mem, &ctx);
    }
}

/// A translation the VMM drops between steps (the injector's
/// translation-drop fault) while the pending chain hangs off it runs no
/// more: its weak pending link no longer upgrades, so the next step
/// dispatches `b` through the VMM, and `b`'s patched jump back into the
/// dropped code falls back to the dispatcher after `b`'s one
/// instruction instead of looping on it.
#[test]
fn dropped_pending_source_runs_no_more_native_code() {
    let (mut sys, prog, site, _) = warm_counted_loop(true, true);
    assert!(sys.vmm.drop_translation(site));
    let (ctr, r7, groups) = (sys.cpu.ctr, sys.cpu.gpr[7], sys.stats.groups_entered);
    assert_eq!(sys.step().unwrap(), None);
    assert_eq!(sys.stats.groups_entered, groups + 1, "the step did not go through the VMM");
    assert_eq!((sys.cpu.pc, sys.cpu.ctr, sys.cpu.gpr[7]), (site, ctr - 1, r7), "ran past the drop");
    assert_eq!(sys.run(10_000_000).unwrap(), StopReason::Syscall);
    let (cpu, mem) = run_oracle_in(&prog, 0x4000, 1_000_000, "drop");
    assert_same(&sys, &cpu, &mem, "dropped pending source");
}

/// A host store between two steps into a translated 4 KiB unit that
/// holds neither end of the pending link retires only that unit's
/// translations: the next step still follows the link, on both engines.
#[test]
fn host_store_to_an_unrelated_unit_keeps_the_pending_link() {
    const OTHER: u32 = 0x3000;
    let word = encode(&Insn::Addi { rt: Gpr(7), ra: Gpr(7), si: 2 });
    for native in [false, true] {
        let ctx = format!("native {native}");
        let (mut sys, prog, _, _) = warm_counted_loop(true, native);
        drop(sys.vmm.entry(&mut sys.mem, OTHER));
        sys.mem.write_u32(OTHER, word).unwrap();
        let native_chained = |s: &DaisySystem<PpcIsa>| s.native_stats().map_or(0, |ns| ns.chained);
        let (groups, chained) = (sys.stats.groups_entered, sys.stats.chain.chained_dispatches);
        let within_native = native_chained(&sys);
        assert_eq!(sys.step().unwrap(), None, "{ctx}");
        assert!(sys.vmm.lookup(OTHER).is_none(), "{ctx}: the store left its unit translated");
        assert_eq!(sys.stats.groups_entered, groups, "{ctx}: the step went through the VMM");
        // One chained dispatch at the boundary, plus the patched edges
        // the native run followed after it.
        let followed = native_chained(&sys) - within_native;
        assert_eq!(sys.stats.chain.chained_dispatches, chained + 1 + followed, "{ctx}");
        assert_eq!(sys.run(10_000_000).unwrap(), StopReason::Syscall, "{ctx}");
        let (cpu, mut mem) = run_oracle_in(&prog, 0x4000, 1_000_000, &ctx);
        mem.write_u32(OTHER, word).unwrap();
        assert_same(&sys, &cpu, &mem, &ctx);
    }
}

// ---------------------------------------------------------------------
// Interrupt storms under chaining (§3.7): external interrupts delivered
// at every group boundary while the dispatch loop is chaining hot exits
// must still be *precise* — every SRR0 the handler observes is an
// instruction boundary the reference interpreter actually reached, and
// SRR1 is the exact pre-delivery MSR.

const STORM_COUNT: u32 = 0x7000;
// Stop posting after this many boundaries: a pending interrupt at a
// boundary forces the dispatch back through the VMM, so the tail of the
// run (storm subsided) is what exercises chaining underneath.
const STORM_POST_CAP: u32 = 48;

/// An external-interrupt handler that logs each delivery. Saves r3/r4
/// to SPRG0/1, bumps a counter at `STORM_COUNT`, appends (SRR0, SRR1)
/// to the log window right after it, restores, and returns via `rfi`.
fn storm_handler() -> Program {
    use daisy_ppc::reg::Spr;
    let mut a = Asm::new(daisy_ppc::vectors::EXTERNAL);
    a.emit(Insn::Mtspr { spr: Spr::Sprg0, rs: Gpr(3) });
    a.emit(Insn::Mtspr { spr: Spr::Sprg1, rs: Gpr(4) });
    a.li32(Gpr(3), STORM_COUNT);
    a.lwz(Gpr(4), 0, Gpr(3));
    a.addi(Gpr(4), Gpr(4), 1);
    a.stw(Gpr(4), 0, Gpr(3));
    a.slwi(Gpr(4), Gpr(4), 3); // slot = COUNT + 8 * new_count
    a.add(Gpr(3), Gpr(3), Gpr(4));
    a.emit(Insn::Mfspr { rt: Gpr(4), spr: Spr::Srr0 });
    a.stw(Gpr(4), 0, Gpr(3));
    a.emit(Insn::Mfspr { rt: Gpr(4), spr: Spr::Srr1 });
    a.stw(Gpr(4), 4, Gpr(3));
    a.emit(Insn::Mfspr { rt: Gpr(3), spr: Spr::Sprg0 });
    a.emit(Insn::Mfspr { rt: Gpr(4), spr: Spr::Sprg1 });
    a.rfi();
    a.finish().expect("storm handler assembles")
}

/// A plain arithmetic loop — enough boundaries for a storm to matter.
fn storm_program(iters: i16, filler: &[u8]) -> Program {
    let mut a = Asm::new(0x1000);
    for r in [0u8, 1, 2, 3, 6] {
        a.li(Gpr(r), i16::from(r) + 1);
    }
    a.li(Gpr(31), iters);
    a.mtctr(Gpr(31));
    a.label("loop");
    for &op in filler {
        match op % 6 {
            0 => a.addi(Gpr(0), Gpr(0), 7),
            1 => a.add(Gpr(1), Gpr(1), Gpr(0)),
            2 => a.xor(Gpr(2), Gpr(2), Gpr(1)),
            3 => a.srwi(Gpr(3), Gpr(2), 3),
            4 => a.add(Gpr(6), Gpr(1), Gpr(3)),
            _ => a.mullw(Gpr(1), Gpr(1), Gpr(2)),
        }
    }
    a.bdnz("loop");
    a.sc();
    a.finish().expect("storm program assembles")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite: an external interrupt posted at (almost) every group
    /// boundary with chaining enabled. Bit-exact final state, and every
    /// logged (SRR0, SRR1) pair is precise.
    #[test]
    fn prop_interrupt_storm_under_chaining_is_precise(
        iters in 20i16..60,
        filler in proptest::collection::vec(0u8..6, 1..10),
    ) {
        use daisy_ppc::reg::msr_bits;

        let prog = storm_program(iters, &filler);
        let handler = storm_handler();

        // Oracle: same image, EE set, no interrupts ever posted. Record
        // every PC it executes — the universe of precise SRR0 values.
        let mut ref_mem = Memory::new(0x2_0000);
        prog.load_into(&mut ref_mem).unwrap();
        handler.load_into(&mut ref_mem).unwrap();
        let mut ref_cpu = Cpu::new(prog.entry);
        ref_cpu.msr |= msr_bits::EE;
        let mut executed = std::collections::HashSet::new();
        let stop = ref_cpu
            .run_traced(&mut ref_mem, 1_000_000, |pc, _| {
                executed.insert(pc);
            })
            .unwrap();
        prop_assert_eq!(stop, StopReason::Syscall);

        let mut sys =
            DaisySystem::<PpcIsa>::builder().mem_size(0x2_0000).translator(small_page_config()).build();
        sys.load(&prog).unwrap();
        handler.load_into(&mut sys.mem).unwrap();
        sys.cpu.msr |= msr_bits::EE;
        let expected_srr1 = sys.cpu.msr;

        let mut posts = 0u32;
        let stop = loop {
            if posts < STORM_POST_CAP {
                sys.post_external_interrupt();
                posts += 1;
            }
            if let Some(s) = sys.step().unwrap() {
                break s;
            }
        };
        prop_assert_eq!(stop, StopReason::Syscall);

        // The storm must actually have delivered, and chaining must
        // actually have been exercised underneath it.
        let delivered = sys.mem.read_u32(STORM_COUNT).unwrap();
        prop_assert!(delivered >= 1, "no interrupt was ever delivered");
        prop_assert!(sys.stats.chain.link_installs >= 1, "storm run never chained");

        // Precision: every logged SRR0 is a PC the oracle executed, and
        // every logged SRR1 is the exact pre-delivery MSR.
        for i in 1..=delivered {
            let srr0 = sys.mem.read_u32(STORM_COUNT + 8 * i).unwrap();
            let srr1 = sys.mem.read_u32(STORM_COUNT + 8 * i + 4).unwrap();
            prop_assert!(
                executed.contains(&srr0),
                "delivery {i}: SRR0 {srr0:#x} is not an executed instruction boundary"
            );
            prop_assert_eq!(srr1, expected_srr1, "delivery {} saved a wrong MSR", i);
        }

        // Bit-exact final state, excluding the handler's log window
        // (and SRR0/1 + SPRG, which only the stormed run touches).
        prop_assert_eq!(sys.cpu.gpr, ref_cpu.gpr, "GPR state diverged");
        prop_assert_eq!(sys.cpu.cr, ref_cpu.cr, "CR diverged");
        prop_assert_eq!(sys.cpu.ctr, ref_cpu.ctr, "CTR diverged");
        prop_assert_eq!(sys.cpu.xer, ref_cpu.xer, "XER diverged");
        prop_assert_eq!(sys.cpu.msr, ref_cpu.msr, "MSR diverged");
        prop_assert_eq!(sys.cpu.pc, ref_cpu.pc, "PC diverged");
        let log_end = STORM_COUNT + 8 * (STORM_POST_CAP + 1) + 8;
        prop_assert_eq!(
            sys.mem.read_bytes(0, STORM_COUNT).unwrap(),
            ref_mem.read_bytes(0, STORM_COUNT).unwrap(),
            "memory below the log window diverged"
        );
        prop_assert_eq!(
            sys.mem.read_bytes(log_end, ref_mem.size() - log_end).unwrap(),
            ref_mem.read_bytes(log_end, ref_mem.size() - log_end).unwrap(),
            "memory above the log window diverged"
        );
    }
}
