//! Pins for `RunStats::approx_base_instrs` after the double-count
//! audit: re-execution paths (degradation-ladder retries, the
//! idempotent re-interpretation after a code-modification exit) must
//! not count a base instruction twice, and fully interpreted runs must
//! count *exactly* — one per instruction, same as the reference
//! interpreter's `ninstrs`.

use daisy::prelude::*;
use daisy::DegradeCause;
use daisy_ppc::encode::encode;
use daisy_ppc::insn::Insn;
use daisy_ppc::interp::{Cpu, StopReason};
use daisy_ppc::mem::Memory;
use daisy_ppc::PpcIsa;
use daisy_ppc::{Asm, Gpr};

const PAGE: u32 = 256;
const TABLE: u32 = 0x8000;

/// Single-page loop: `iters` passes of four counted instructions plus
/// a five-instruction prologue and the final `sc`. No `nop`s and no
/// unconditional branches, so the approximate count has no structural
/// blind spots.
fn loop_program(iters: i16) -> daisy_ppc::asm::Program {
    let mut a = Asm::new(0x1000);
    a.li(Gpr(3), 0);
    a.li(Gpr(31), iters);
    a.mtctr(Gpr(31));
    a.label("loop");
    a.addi(Gpr(3), Gpr(3), 2);
    a.addi(Gpr(3), Gpr(3), -1);
    a.bdnz("loop");
    a.sc();
    a.finish().expect("loop program assembles")
}

fn reference_ninstrs(prog: &daisy_ppc::asm::Program, mem_size: u32) -> u64 {
    let mut mem = Memory::new(mem_size);
    prog.load_into(&mut mem).unwrap();
    let mut cpu = Cpu::new(prog.entry);
    let stop = cpu.run(&mut mem, 10_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    cpu.ninstrs
}

/// On the Interpret floor every instruction goes through the
/// interpreter, which counts each one — the approximate count must
/// equal the reference interpreter's exact `ninstrs`.
#[test]
fn interpret_floor_count_is_exact() {
    let prog = loop_program(50);
    let exact = reference_ninstrs(&prog, 0x20000);

    let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(0x20000).build();
    sys.load(&prog).unwrap();
    for _ in 0..2 {
        sys.degrade(prog.entry, DegradeCause::Forced).expect("ladder has a rung left");
    }
    assert_eq!(sys.rung(prog.entry), daisy::Rung::Interpret);
    let stop = sys.run(10_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);

    assert_eq!(
        sys.stats.approx_base_instrs(),
        exact,
        "interpret-floor run must count every instruction exactly once"
    );
    assert_eq!(sys.stats.interp_instrs, exact, "everything ran through the interpreter");
}

/// Three-iteration self-modifying loop (the `trace_events.rs` shape):
/// each pass stores a fresh `addi r5, 0, imm` over the `patch:` site on
/// the next translation page and accumulates r5 into r7.
fn selfmod_program(imms: &[i16]) -> daisy_ppc::asm::Program {
    let mut a = Asm::new(0x1F00);
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
    a.finish().expect("selfmod program assembles")
}

/// The modifying store must count once per execution, not once in the
/// group plus once in the idempotent re-interpretation that follows
/// the code-modification exit. Every instruction in this program
/// commits architected state (the canonical `nop` is `ori r0, r0, 0`,
/// which writes r0; `bdnz` is counted at branch resolution; there is
/// no unconditional `b`), so the approximate count must equal the
/// reference interpreter's exact count — any surplus is a re-execution
/// double count.
#[test]
fn selfmod_store_counts_once_per_execution() {
    let imms: &[i16] = &[11, 31, 50];
    let prog = selfmod_program(imms);
    let exact = reference_ninstrs(&prog, 0x2_0000);

    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(0x2_0000)
        .translator(TranslatorConfig { page_size: PAGE, ..TranslatorConfig::default() })
        .build();
    sys.load(&prog).unwrap();
    let stop = sys.run(10_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    assert_eq!(sys.cpu.gpr[7], 11 + 31 + 50, "patched immediates must accumulate");
    assert!(sys.stats.code_modifications >= 1, "the store must trip code modification");

    assert_eq!(
        sys.stats.approx_base_instrs(),
        exact,
        "every instruction here commits, so the counts must agree exactly — \
         a surplus means the modifying store was counted twice"
    );
}
