//! Tests pinned to specific mechanisms the paper describes, beyond the
//! general equivalence suites: Appendix D's CTR renaming, Figure 2.2's
//! scheduling detail, §3.4's post-rfi interpretation window, §3.7-ish
//! cast-out behaviour, and CISC decomposition under translation.

use daisy::sched::TranslatorConfig;
use daisy::system::DaisySystem;
use daisy_cachesim::Hierarchy;
use daisy_ppc::asm::Asm;
use daisy_ppc::insn::Insn;
use daisy_ppc::interp::{Cpu, StopReason};
use daisy_ppc::mem::Memory;
use daisy_ppc::reg::{CrField, Gpr, Spr};
use daisy_ppc::vectors;
use daisy_ppc::PpcIsa;
use daisy_vliw::op::OpKind;

fn run_daisy(prog: &daisy_ppc::asm::Program, mem_size: u32) -> (DaisySystem<PpcIsa>, StopReason) {
    let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(mem_size).build();
    sys.load(prog).unwrap();
    let stop = sys.run(100_000_000).unwrap();
    (sys, stop)
}

fn run_interp(prog: &daisy_ppc::asm::Program, mem_size: u32) -> Cpu {
    let mut mem = Memory::new(mem_size);
    prog.load_into(&mut mem).unwrap();
    let mut cpu = Cpu::new(prog.entry);
    cpu.run(&mut mem, 100_000_000).unwrap();
    cpu
}

/// Appendix D: "such branches limit parallelism by requiring that no
/// more than one loop iteration execute per cycle. To overcome this
/// problem … the value in ctr can be explicitly decremented with the
/// result renamed." A tight bdnz loop must overlap iterations.
#[test]
fn appendix_d_ctr_renaming_overlaps_iterations() {
    let mut a = Asm::new(0x1000);
    a.li(Gpr(4), 600);
    a.mtctr(Gpr(4));
    a.label("loop");
    a.addi(Gpr(3), Gpr(3), 1);
    a.addi(Gpr(5), Gpr(5), 2);
    a.addi(Gpr(6), Gpr(6), 3);
    a.bdnz("loop");
    a.sc();
    let prog = a.finish().unwrap();

    let cpu = run_interp(&prog, 0x10000);
    let (sys, stop) = run_daisy(&prog, 0x10000);
    assert_eq!(stop, StopReason::Syscall);
    assert_eq!(sys.cpu.gpr[3], cpu.gpr[3]);
    let ilp = sys.stats.pathlength_reduction(cpu.ninstrs);
    // 4 instructions per iteration; without CTR renaming the decrement→
    // compare→branch chain would pin ILP near 1.3. With renaming, the
    // unrolled iterations overlap.
    assert!(ilp > 2.0, "bdnz loop ILP {ilp:.2}: CTR renaming is not overlapping iterations");
}

/// Figure 2.2 / Appendix C, step 11: "the cntlz in step 11 can use the
/// result in r63 before it has been copied to r4" — the consumer on the
/// other branch arm reads the *renamed* register.
#[test]
fn figure_2_2_consumer_reads_renamed_register() {
    let mut a = Asm::new(0x1000);
    a.add(Gpr(1), Gpr(2), Gpr(3));
    a.beq(CrField(0), "l1");
    a.slwi(Gpr(12), Gpr(1), 3);
    a.xor(Gpr(4), Gpr(5), Gpr(6));
    a.and(Gpr(8), Gpr(4), Gpr(7));
    a.beq(CrField(1), "l2");
    a.b("off");
    a.label("l1");
    a.subf(Gpr(9), Gpr(11), Gpr(10));
    a.b("off");
    a.label("l2");
    a.cntlzw(Gpr(11), Gpr(4));
    a.b("off");
    for _ in 0..1024 {
        a.nop();
    }
    a.label("off");
    a.sc();
    let prog = a.finish().unwrap();

    let mut mem = Memory::new(0x20000);
    prog.load_into(&mut mem).unwrap();
    let (group, _) =
        daisy::sched::translate_group::<PpcIsa>(&TranslatorConfig::default(), &mem, 0x1000);
    // Find the cntlz parcel and check its source is non-architected.
    let cntlz = group
        .vliws
        .iter()
        .flat_map(|v| v.nodes().iter())
        .flat_map(|n| n.ops.iter())
        .find(|o| o.kind == OpKind::Cntlz)
        .expect("cntlz scheduled");
    assert!(
        cntlz.srcs()[0].is_rename(),
        "cntlz should read the xor's renamed result, got {}",
        cntlz.srcs()[0]
    );
}

/// CISCy `stmw`/`lmw` decompose into per-register primitives and stay
/// bit-exact through translation.
#[test]
fn load_store_multiple_under_translation() {
    let mut a = Asm::new(0x1000);
    a.li32(Gpr(1), 0x8000);
    for i in 25..32u8 {
        a.li(Gpr(i), i16::from(i) * 3);
    }
    a.stmw(Gpr(25), 0, Gpr(1));
    for i in 25..32u8 {
        a.li(Gpr(i), 0);
    }
    a.lmw(Gpr(25), 0, Gpr(1));
    a.sc();
    let prog = a.finish().unwrap();
    let cpu = run_interp(&prog, 0x10000);
    let (sys, _) = run_daisy(&prog, 0x10000);
    assert_eq!(sys.cpu.gpr, cpu.gpr);
    for i in 25..32 {
        assert_eq!(sys.cpu.gpr[i], i as u32 * 3);
    }
}

/// §3.4: after an `rfi`, the VMM interprets until the next call,
/// cross-page branch, or backward branch, rather than minting entry
/// points at arbitrary return addresses.
#[test]
fn post_rfi_interpretation_window() {
    // Program: trigger a DSI, handler returns past it; the next few
    // instructions run interpreted until the backward branch.
    let mut a = Asm::new(0x1000);
    a.li32(Gpr(9), 0x00F0_0000);
    a.lwz(Gpr(5), 0, Gpr(9)); // faults
    a.addi(Gpr(3), Gpr(3), 1); // interpreted after rfi
    a.addi(Gpr(3), Gpr(3), 1); // interpreted
    a.li(Gpr(4), 2);
    a.mtctr(Gpr(4));
    a.label("back");
    a.addi(Gpr(3), Gpr(3), 10);
    a.bdnz("back"); // backward branch ends the window
    a.sc();
    let prog = a.finish().unwrap();

    let mut os = Asm::new(vectors::DSI);
    os.emit(Insn::Mfspr { rt: Gpr(8), spr: Spr::Srr0 });
    os.addi(Gpr(8), Gpr(8), 4);
    os.emit(Insn::Mtspr { spr: Spr::Srr0, rs: Gpr(8) });
    os.rfi();
    let os_prog = os.finish().unwrap();

    let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(0x20000).build();
    sys.load(&prog).unwrap();
    os_prog.load_into(&mut sys.mem).unwrap();
    sys.cpu.vectored = true;
    sys.run(1_000_000).unwrap();
    assert_eq!(sys.cpu.gpr[3], 2 + 20, "handler skip + loop body");
    // rfi itself + several window instructions were interpreted.
    assert!(
        sys.stats.interp_instrs >= 4,
        "expected a post-rfi interpretation window, interp_instrs = {}",
        sys.stats.interp_instrs
    );
}

/// Traps translate to non-speculative parcels and stop precisely.
#[test]
fn trap_word_fires_precisely() {
    let mut a = Asm::new(0x1000);
    a.li(Gpr(3), 5);
    a.twi(4, Gpr(3), 5); // trap if r3 == 5 — fires
    a.li(Gpr(3), 99); // must not execute
    a.sc();
    let prog = a.finish().unwrap();
    let (sys, stop) = run_daisy(&prog, 0x10000);
    assert_eq!(stop, StopReason::Trap);
    assert_eq!(sys.cpu.gpr[3], 5, "state precise at the trap");
    assert_eq!(sys.cpu.pc, 0x1004, "stopped at the trap instruction");

    // Non-firing trap falls through.
    let mut a = Asm::new(0x1000);
    a.li(Gpr(3), 4);
    a.twi(4, Gpr(3), 5);
    a.li(Gpr(3), 99);
    a.sc();
    let prog = a.finish().unwrap();
    let (sys, stop) = run_daisy(&prog, 0x10000);
    assert_eq!(stop, StopReason::Syscall);
    assert_eq!(sys.cpu.gpr[3], 99);
}

/// A capacity-starved translated-code area thrashes (many cast-outs and
/// retranslations) but never compromises correctness — §5.1's warning,
/// mechanically.
#[test]
fn cast_out_thrashing_is_slow_but_correct() {
    // Ping-pong between code on two pages.
    let mut a = Asm::new(0x1000);
    a.li(Gpr(4), 40);
    a.mtctr(Gpr(4));
    a.label("a_side");
    a.addi(Gpr(3), Gpr(3), 1);
    a.b("b_side");
    for _ in 0..1024 {
        a.nop();
    }
    a.label("b_side");
    a.addi(Gpr(3), Gpr(3), 1);
    a.bdnz("a_side");
    a.sc();
    let prog = a.finish().unwrap();

    let cpu = run_interp(&prog, 0x20000);

    // Capacity far too small: ~one tiny group.
    let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(0x20000).code_capacity(40).build();
    sys.load(&prog).unwrap();
    let stop = sys.run(100_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    assert_eq!(sys.cpu.gpr, cpu.gpr, "thrashing must stay correct");
    assert!(
        sys.vmm.stats.cast_outs > 10,
        "expected a cast-out storm, got {}",
        sys.vmm.stats.cast_outs
    );
    assert!(
        sys.vmm.stats.groups_translated > 10,
        "expected retranslation, got {}",
        sys.vmm.stats.groups_translated
    );
}

/// §2.1: "there is no need to save or restore non-architected registers
/// at context switch time." Two programs sharing one DAISY machine,
/// preemptively interleaved by swapping only the *architected* CPU
/// state, must both produce their uninterrupted results — speculative
/// rename-register contents are discarded at every switch.
#[test]
fn context_switches_carry_only_architected_state() {
    let build = |base: u32, seed: i16| {
        let mut a = Asm::new(base);
        a.li(Gpr(3), 0);
        a.li(Gpr(4), 300);
        a.mtctr(Gpr(4));
        a.label("loop");
        a.addi(Gpr(3), Gpr(3), seed);
        a.mullw(Gpr(5), Gpr(3), Gpr(3));
        a.xor(Gpr(6), Gpr(5), Gpr(3));
        a.bdnz("loop");
        a.sc();
        a.finish().unwrap()
    };
    let prog_a = build(0x1000, 3);
    let prog_b = build(0x3000, 7);

    // Uninterrupted references.
    let ref_a = run_interp(&prog_a, 0x10000);
    let ref_b = run_interp(&prog_b, 0x10000);

    // One machine, two "processes", round-robin every 200 cycles.
    let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(0x10000).build();
    prog_a.load_into(&mut sys.mem).unwrap();
    prog_b.load_into(&mut sys.mem).unwrap();
    let mut cpus = [Cpu::new(prog_a.entry), Cpu::new(prog_b.entry)];
    let mut done = [false, false];
    let mut cur = 0usize;
    for _ in 0..10_000 {
        if done == [true, true] {
            break;
        }
        if !done[cur] {
            std::mem::swap(&mut sys.cpu, &mut cpus[cur]);
            let budget = sys.stats.cycles() + 200;
            let stop = sys.run(budget).unwrap();
            std::mem::swap(&mut sys.cpu, &mut cpus[cur]);
            if stop == StopReason::Syscall {
                done[cur] = true;
            }
        }
        cur ^= 1;
    }
    assert_eq!(done, [true, true], "both processes must finish");
    assert_eq!(cpus[0].gpr, ref_a.gpr, "process A corrupted by context switches");
    assert_eq!(cpus[1].gpr, ref_b.gpr, "process B corrupted by context switches");
}

/// §3.3/§3.7: external (timer) interrupts reach the emulated OS at
/// precise points and the interrupted computation still completes
/// exactly. The ticks come from the modeled SoC's interval timer.
#[test]
fn timer_interrupts_are_transparent_to_the_computation() {
    use daisy_soc::{reg, IRQ_TIMER, SOC_BASE};

    let mut a = Asm::new(0x1000);
    a.li(Gpr(3), 0);
    a.li(Gpr(4), 500);
    a.mtctr(Gpr(4));
    a.label("loop");
    a.addi(Gpr(3), Gpr(3), 2);
    a.bdnz("loop");
    a.sc();
    let prog = a.finish().unwrap();
    let reference = run_interp(&prog, 0x20000);

    // OS: the external handler at 0x500 counts ticks in r30,
    // acknowledges the timer (level-triggered) and rfi's.
    let mut os = Asm::new(vectors::EXTERNAL);
    os.addi(Gpr(30), Gpr(30), 1);
    os.lis(Gpr(29), (SOC_BASE >> 16) as i16);
    os.stw(Gpr(29), reg::TIMER_ACK as i16, Gpr(29));
    os.rfi();
    let os_prog = os.finish().unwrap();

    // A tick every 50 retired instructions; rfi restores EE because
    // SRR1 snapshots the MSR at delivery.
    let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(0x20000).build();
    let (base, len, dev) = daisy_soc::standard_bus();
    sys.mem.attach_bus(base, len, dev);
    sys.mem.with_bus(|now, dev| {
        dev.write(now, reg::TIMER_PERIOD, 4, 50);
        dev.write(now, reg::TIMER_CTRL, 4, 1);
        dev.write(now, reg::IRQ_ENABLE, 4, 1 << IRQ_TIMER);
    });
    sys.load(&prog).unwrap();
    os_prog.load_into(&mut sys.mem).unwrap();
    sys.cpu.msr |= daisy_ppc::reg::msr_bits::EE;
    let stop = sys.run(10_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    assert_eq!(sys.cpu.gpr[3], reference.gpr[3], "computation must be exact under ticks");
    assert!(sys.cpu.gpr[30] > 3, "expected several timer ticks, got {}", sys.cpu.gpr[30]);
}

/// Ch. 5's proposed remedy for aliasing-heavy code, implemented: after
/// a few run-time alias restarts, the offending entry is retranslated
/// with load speculation off, and the alias storm stops — with results
/// still exact.
#[test]
fn alias_heavy_entries_get_retranslated_conservatively() {
    let w = daisy_workloads::by_name("hist").expect("hist workload");
    let prog = w.program();

    // Baseline: speculation kept, aliases accumulate.
    let mut base = DaisySystem::<PpcIsa>::builder().mem_size(w.mem_size).build();
    base.load(&prog).unwrap();
    base.run(50 * w.max_instrs).unwrap();
    w.check(&base.cpu, &base.mem).unwrap();
    assert!(base.stats.alias_failures > 100, "hist should alias a lot by default");

    // Remedy on: the storm is cut off after the threshold.
    let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(w.mem_size).build();
    sys.vmm.alias_retranslate_after = Some(5);
    sys.load(&prog).unwrap();
    sys.run(50 * w.max_instrs).unwrap();
    w.check(&sys.cpu, &sys.mem).unwrap();
    assert!(sys.vmm.stats.alias_retranslations >= 1, "entry should be retranslated");
    assert!(
        sys.stats.alias_failures < base.stats.alias_failures / 5,
        "aliases should collapse: {} vs baseline {}",
        sys.stats.alias_failures,
        base.stats.alias_failures
    );
}

/// Interpretive compilation on an indirect dispatch loop specializes
/// the hot target and keeps results exact.
#[test]
fn interpretive_specializes_on_page_indirect_targets() {
    // A bctr whose target is always the same on-page label.
    let mut a = Asm::new(0x1000);
    a.li(Gpr(3), 0);
    a.li(Gpr(6), 100);
    a.la(Gpr(7), "body");
    a.label("loop");
    a.mtctr(Gpr(7));
    a.bctr(); // always to "body"
    a.label("body");
    a.addi(Gpr(3), Gpr(3), 1);
    a.addi(Gpr(6), Gpr(6), -1);
    a.cmpwi(CrField(0), Gpr(6), 0);
    a.bne(CrField(0), "loop");
    a.sc();
    let prog = a.finish().unwrap();

    let cpu = run_interp(&prog, 0x10000);

    let cfg = TranslatorConfig { interpretive: true, ..TranslatorConfig::default() };
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(0x10000)
        .translator(cfg)
        .cache(Hierarchy::infinite())
        .build();
    sys.load(&prog).unwrap();
    let stop = sys.run(10_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    assert_eq!(sys.cpu.gpr[3], cpu.gpr[3]);
    // Specialization keeps most iterations inside translated groups:
    // fewer cross-page/indirect dispatches than iterations.
    assert!(
        sys.stats.crosspage.via_ctr < 100,
        "specialization should absorb the bctr, saw {} via-CTR dispatches",
        sys.stats.crosspage.via_ctr
    );
}
