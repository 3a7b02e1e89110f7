//! The random-program generator shared by the oracle proptests
//! (`prop_equivalence`, `prop_packed`): arbitrary but safe PowerPC
//! programs — they always terminate and touch only a private data
//! window — plus the interpreter-oracle runs (of those programs, of
//! any program and of a workload) and the state diff every oracle
//! test uses; the native-versus-packed twin comparison; and the SoC
//! interval-timer setup the preemption tests share.

// Each test binary that includes this module uses a different subset.
#![allow(dead_code)]

use daisy::system::{DaisySystem, DaisySystemBuilder};
use daisy::trace::TraceEvent;
use daisy_isa::GuestCpu;
use daisy_ppc::asm::{Asm, Program};
use daisy_ppc::insn::{bo, Insn};
use daisy_ppc::interp::{Cpu, StopReason};
use daisy_ppc::mem::Memory;
use daisy_ppc::reg::{CrBit, CrField, Gpr, Spr};
use daisy_ppc::{vectors, PpcIsa};
use daisy_soc::{reg, IRQ_TIMER, SOC_BASE};
use daisy_workloads::Workload;
use proptest::prelude::*;

/// Guest memory size of every generated run.
pub const MEM_SIZE: u32 = 0x2_0000;

/// One step of a generated program. Field values are constrained so the
/// program always terminates and only touches the data window, except
/// `Fault`: a guest fault behind a branch that falls through at run
/// time, so the faulting access can be hoisted above it — a load from
/// a bad pointer (`kind` 0), a store to one (1) or `tw 31,r0,r0` (2).
/// Only [`fault`] generates it.
#[derive(Debug, Clone)]
pub enum Step {
    Alu { op: u8, rt: u8, ra: u8, rb: u8, rc: bool },
    AluImm { op: u8, rt: u8, ra: u8, imm: i16 },
    Carry { op: u8, rt: u8, ra: u8, rb: u8 },
    Shift { op: u8, rt: u8, ra: u8, sh: u8 },
    Cmp { bf: u8, signed: bool, ra: u8, rb: u8 },
    Load { width: u8, rt: u8, slot: u8 },
    Store { width: u8, rs: u8, slot: u8 },
    LoadIdx { rt: u8, ridx: u8 },
    StoreIdx { rs: u8, ridx: u8 },
    SkipIf { bf: u8, bit: u8, want: bool, skip: u8 },
    CtrLoop { count: u8, body_rt: u8 },
    Call { rt: u8, ra: u8, rb: u8 },
    CrOp { bt: u8, ba: u8, bb: u8 },
    Trap { never: bool },
    Fault { kind: u8, reg: u8 },
}

pub const DATA: u32 = 0x8000;
pub const SLOTS: u32 = 64;

pub fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..8, 0u8..12, 0u8..12, 0u8..12, any::<bool>())
            .prop_map(|(op, rt, ra, rb, rc)| Step::Alu { op, rt, ra, rb, rc }),
        (0u8..3, 0u8..12, 0u8..12, any::<i16>()).prop_map(|(op, rt, ra, imm)| Step::AluImm {
            op,
            rt,
            ra,
            imm
        }),
        (0u8..4, 0u8..12, 0u8..12, 0u8..12).prop_map(|(op, rt, ra, rb)| Step::Carry {
            op,
            rt,
            ra,
            rb
        }),
        (0u8..4, 0u8..12, 0u8..12, 0u8..32).prop_map(|(op, rt, ra, sh)| Step::Shift {
            op,
            rt,
            ra,
            sh
        }),
        (0u8..4, any::<bool>(), 0u8..12, 0u8..12).prop_map(|(bf, signed, ra, rb)| Step::Cmp {
            bf,
            signed,
            ra,
            rb
        }),
        (0u8..3, 0u8..12, 0u8..64).prop_map(|(width, rt, slot)| Step::Load { width, rt, slot }),
        (0u8..3, 0u8..12, 0u8..64).prop_map(|(width, rs, slot)| Step::Store { width, rs, slot }),
        (0u8..12, 0u8..12).prop_map(|(rt, ridx)| Step::LoadIdx { rt, ridx }),
        (0u8..12, 0u8..12).prop_map(|(rs, ridx)| Step::StoreIdx { rs, ridx }),
        (0u8..4, 0u8..4, any::<bool>(), 1u8..6).prop_map(|(bf, bit, want, skip)| Step::SkipIf {
            bf,
            bit,
            want,
            skip
        }),
        (1u8..6, 0u8..12).prop_map(|(count, body_rt)| Step::CtrLoop { count, body_rt }),
        (0u8..12, 0u8..12, 0u8..12).prop_map(|(rt, ra, rb)| Step::Call { rt, ra, rb }),
        (0u8..16, 0u8..16, 0u8..16).prop_map(|(bt, ba, bb)| Step::CrOp { bt, ba, bb }),
        any::<bool>().prop_map(|_| Step::Trap { never: true }),
    ]
}

/// One [`Step::Fault`].
pub fn fault() -> impl Strategy<Value = Step> {
    (0u8..3, 0u8..12).prop_map(|(kind, reg)| Step::Fault { kind, reg })
}

/// A bad pointer: outside every generated run's memory.
pub const BAD_ADDR: u32 = 0x00F0_0000;

/// Emits the generated steps as real instructions. r20 is reserved as
/// the data-window base, r21 as a bounded index register.
fn emit(a: &mut Asm, steps: &[Step]) {
    let base = Gpr(20);
    let idx = Gpr(21);
    a.li32(base, DATA);
    a.li(idx, 0);
    let mut label = 0usize;
    let mut fresh = || {
        label += 1;
        format!("l{label}")
    };
    for s in steps {
        match *s {
            Step::Alu { op, rt, ra, rb, rc } => {
                let (rt, ra, rb) = (Gpr(rt), Gpr(ra), Gpr(rb));
                match op {
                    0 => a.emit(Insn::Arith {
                        op: daisy_ppc::insn::ArithOp::Add,
                        rt,
                        ra,
                        rb,
                        oe: false,
                        rc,
                    }),
                    1 => a.emit(Insn::Arith {
                        op: daisy_ppc::insn::ArithOp::Subf,
                        rt,
                        ra,
                        rb,
                        oe: false,
                        rc,
                    }),
                    2 => a.emit(Insn::Arith {
                        op: daisy_ppc::insn::ArithOp::Mullw,
                        rt,
                        ra,
                        rb,
                        oe: false,
                        rc,
                    }),
                    3 => a.emit(Insn::Arith {
                        op: daisy_ppc::insn::ArithOp::Divwu,
                        rt,
                        ra,
                        rb,
                        oe: false,
                        rc,
                    }),
                    4 => a.and(rt, ra, rb),
                    5 => a.or(rt, ra, rb),
                    6 => a.xor(rt, ra, rb),
                    _ => a.nor(rt, ra, rb),
                }
            }
            Step::AluImm { op, rt, ra, imm } => match op {
                0 => a.addi(Gpr(rt), Gpr(ra), imm),
                1 => a.ori(Gpr(rt), Gpr(ra), imm as u16),
                _ => a.xori(Gpr(rt), Gpr(ra), imm as u16),
            },
            Step::Carry { op, rt, ra, rb } => match op {
                0 => a.addc(Gpr(rt), Gpr(ra), Gpr(rb)),
                1 => a.adde(Gpr(rt), Gpr(ra), Gpr(rb)),
                2 => a.subfc(Gpr(rt), Gpr(ra), Gpr(rb)),
                _ => a.addic(Gpr(rt), Gpr(ra), 0x77),
            },
            Step::Shift { op, rt, ra, sh } => match op {
                0 => a.slwi(Gpr(rt), Gpr(ra), sh & 31),
                1 => a.srwi(Gpr(rt), Gpr(ra), sh & 31),
                2 => a.srawi(Gpr(rt), Gpr(ra), sh & 31),
                _ => a.rlwinm(Gpr(rt), Gpr(ra), sh & 31, (sh / 2) & 31, 31),
            },
            Step::Cmp { bf, signed, ra, rb } => {
                a.emit(Insn::Cmp { bf: CrField(bf), signed, ra: Gpr(ra), rb: Gpr(rb) });
            }
            Step::Load { width, rt, slot } => {
                let d = i16::from(slot) * 4;
                match width {
                    0 => a.lbz(Gpr(rt), d, base),
                    1 => a.lhz(Gpr(rt), d, base),
                    _ => a.lwz(Gpr(rt), d, base),
                }
            }
            Step::Store { width, rs, slot } => {
                let d = i16::from(slot) * 4;
                match width {
                    0 => a.stb(Gpr(rs), d, base),
                    1 => a.sth(Gpr(rs), d, base),
                    _ => a.stw(Gpr(rs), d, base),
                }
            }
            Step::LoadIdx { rt, ridx } => {
                // Clamp the index register into the window, then load.
                a.rlwinm(idx, Gpr(ridx), 2, 32 - 8, 29); // (r << 2) & 0xFC
                a.lwzx(Gpr(rt), base, idx);
            }
            Step::StoreIdx { rs, ridx } => {
                a.rlwinm(idx, Gpr(ridx), 2, 32 - 8, 29);
                a.stwx(Gpr(rs), base, idx);
            }
            Step::SkipIf { bf, bit, want, skip } => {
                let l = fresh();
                let b = if want { bo::IF_TRUE } else { bo::IF_FALSE };
                a.bc(b, CrBit::new(CrField(bf), bit), &l);
                for i in 0..skip {
                    a.addi(Gpr(i % 12), Gpr((i + 1) % 12), 13);
                }
                a.label(&l);
            }
            Step::CtrLoop { count, body_rt } => {
                let l = fresh();
                a.li(Gpr(9), i16::from(count));
                a.mtctr(Gpr(9));
                a.label(&l);
                a.addi(Gpr(body_rt), Gpr(body_rt), 3);
                a.xor(Gpr((body_rt + 1) % 12), Gpr(body_rt), Gpr(9));
                a.bdnz(&l);
            }
            Step::Call { rt, ra, rb } => {
                let over = fresh();
                let func = fresh();
                a.b(&over);
                a.label(&func);
                a.add(Gpr(rt), Gpr(ra), Gpr(rb));
                a.blr();
                a.label(&over);
                a.bl(&func);
            }
            Step::CrOp { bt, ba, bb } => {
                a.cror(CrBit(bt), CrBit(ba), CrBit(bb));
            }
            Step::Trap { never } => {
                if never {
                    // Trap-if-r0-less-than-itself: never fires, but the
                    // parcel is scheduled and checked.
                    a.emit(Insn::Tw { to: 16, ra: Gpr(0), rb: Gpr(0) });
                }
            }
            Step::Fault { kind, reg } => {
                let l = fresh();
                // The data-window base is never zero: falls through.
                a.cmpwi(CrField(7), base, 0);
                a.beq(CrField(7), &l);
                a.lis(Gpr(22), (BAD_ADDR >> 16) as i16);
                match kind {
                    0 => a.lwz(Gpr(reg), 0, Gpr(22)),
                    1 => a.stw(Gpr(reg), 0, Gpr(22)),
                    // Trap on every comparison: always fires.
                    _ => a.emit(Insn::Tw { to: 31, ra: Gpr(0), rb: Gpr(0) }),
                }
                a.label(&l);
            }
        }
    }
    a.sc();
}

/// Assembles a generated program.
pub fn assemble(steps: &[Step]) -> Program {
    let mut a = Asm::new(0x1000);
    emit(&mut a, steps);
    a.finish().expect("generated program assembles")
}

/// Pre-fills the data window deterministically.
fn fill_data(mem: &mut Memory) {
    for i in 0..SLOTS {
        mem.write_u32(DATA + 4 * i, i.wrapping_mul(0x9E37_79B9)).unwrap();
    }
}

/// Runs `prog` on the reference interpreter from `seeds` (r0..r11),
/// returning its final registers and memory.
pub fn run_oracle(prog: &Program, seeds: &[u32]) -> (Cpu, Memory) {
    let (cpu, mem, stop) = run_oracle_to_stop(prog, seeds);
    assert_eq!(stop, StopReason::Syscall);
    (cpu, mem)
}

/// [`run_oracle`], returning why the interpreter stopped.
pub fn run_oracle_to_stop(prog: &Program, seeds: &[u32]) -> (Cpu, Memory, StopReason) {
    let mut mem = Memory::new(MEM_SIZE);
    prog.load_into(&mut mem).unwrap();
    fill_data(&mut mem);
    let mut cpu = Cpu::new(prog.entry);
    for (i, s) in seeds.iter().enumerate().take(12) {
        cpu.gpr[i] = *s;
    }
    let stop = cpu.run(&mut mem, 1_000_000).unwrap();
    (cpu, mem, stop)
}

/// Runs `prog` from its entry on the reference interpreter in
/// `mem_size` bytes of otherwise zeroed memory, for at most `max`
/// instructions, asserting it ends at its final system call; returns
/// the final registers and memory.
pub fn run_oracle_in(prog: &Program, mem_size: u32, max: u64, ctx: &str) -> (Cpu, Memory) {
    let mut mem = Memory::new(mem_size);
    prog.load_into(&mut mem).unwrap();
    let mut cpu = Cpu::new(prog.entry);
    let stop = cpu.run(&mut mem, max).unwrap();
    assert_eq!(stop, StopReason::Syscall, "{ctx}: reference run did not finish");
    (cpu, mem)
}

/// [`run_oracle_in`] for a workload, in its own memory size and
/// instruction budget.
pub fn run_workload_oracle(w: &Workload) -> (Cpu, Memory) {
    run_oracle_in(&w.program(), w.mem_size, w.max_instrs, w.name)
}

/// Runs `prog` on the system `builder` describes, from the same initial
/// state as [`run_oracle`].
pub fn run_daisy(
    prog: &Program,
    seeds: &[u32],
    builder: DaisySystemBuilder<PpcIsa>,
) -> DaisySystem<PpcIsa> {
    let (sys, stop) = run_daisy_to_stop(prog, seeds, builder);
    assert_eq!(stop, StopReason::Syscall);
    sys
}

/// [`run_daisy`], returning why the system stopped.
pub fn run_daisy_to_stop(
    prog: &Program,
    seeds: &[u32],
    builder: DaisySystemBuilder<PpcIsa>,
) -> (DaisySystem<PpcIsa>, StopReason) {
    let mut sys = builder.mem_size(MEM_SIZE).build();
    sys.load(prog).unwrap();
    fill_data(&mut sys.mem);
    for (i, s) in seeds.iter().enumerate().take(12) {
        sys.cpu.gpr[i] = *s;
    }
    let stop = sys.run(100_000_000).unwrap();
    (sys, stop)
}

/// Asserts the system left exactly the oracle's registers and memory.
pub fn assert_same(sys: &DaisySystem<PpcIsa>, cpu: &Cpu, mem: &Memory, ctx: &str) {
    assert_eq!(sys.cpu.gpr, cpu.gpr, "{ctx}: GPRs diverged");
    assert_eq!(sys.cpu.cr, cpu.cr, "{ctx}: CR diverged");
    assert_eq!(sys.cpu.lr, cpu.lr, "{ctx}: LR diverged");
    assert_eq!(sys.cpu.ctr, cpu.ctr, "{ctx}: CTR diverged");
    assert_eq!(sys.cpu.xer, cpu.xer, "{ctx}: XER diverged");
    assert_eq!(sys.cpu.pc, cpu.pc, "{ctx}: PC diverged");
    let size = mem.size();
    assert_eq!(
        sys.mem.read_bytes(0, size).unwrap(),
        mem.read_bytes(0, size).unwrap(),
        "{ctx}: memory image diverged"
    );
}

/// Attaches the modeled SoC, starts its interval timer with a tick
/// every `period` retired instructions, unmasks the timer line, writes
/// an acknowledge-then-`rfi` handler at the external vector (it keeps
/// `r31` in SPRG0 while it addresses the device) and enables
/// interrupts. Call after loading the program.
pub fn attach_soc_timer(sys: &mut DaisySystem<PpcIsa>, period: u32) {
    let (base, len, dev) = daisy_soc::standard_bus();
    sys.mem.attach_bus(base, len, dev);
    sys.mem.with_bus(|now, dev| {
        dev.write(now, reg::TIMER_PERIOD, 4, period);
        dev.write(now, reg::TIMER_CTRL, 4, 1);
        dev.write(now, reg::IRQ_ENABLE, 4, 1 << IRQ_TIMER);
    });
    let mut h = Asm::new(vectors::EXTERNAL);
    h.emit(Insn::Mtspr { spr: Spr::Sprg0, rs: Gpr(31) });
    h.lis(Gpr(31), (SOC_BASE >> 16) as i16);
    h.stw(Gpr(31), reg::TIMER_ACK as i16, Gpr(31));
    h.emit(Insn::Mfspr { rt: Gpr(31), spr: Spr::Sprg0 });
    h.rfi();
    h.finish().expect("timer handler assembles").load_into(&mut sys.mem).unwrap();
    sys.cpu.enable_interrupts();
}

/// A finished run: the system plus its captured trace, with the native
/// tier's own compile events stripped (they are the one intentional
/// observable difference between native and packed twins).
pub type TracedRun = (DaisySystem<PpcIsa>, Vec<TraceEvent>);

/// The events the system's flight recorder retains, oldest first,
/// without their sequence numbers.
pub fn trace_events(sys: &DaisySystem<PpcIsa>) -> Vec<TraceEvent> {
    sys.flight_recorder().events().into_iter().map(|(_, ev)| ev).collect()
}

/// A finished run paired with its flight-recorder trace, the native
/// tier's `native_compile` events stripped.
pub fn traced_run(sys: DaisySystem<PpcIsa>) -> TracedRun {
    let events = trace_events(&sys)
        .into_iter()
        .filter(|e| !matches!(e, TraceEvent::NativeCompile { .. }))
        .collect();
    (sys, events)
}

/// Asserts two twin runs are indistinguishable: architected state,
/// memory image, `RunStats`, trace stream and cache-level statistics.
pub fn assert_indistinguishable(
    (packed, packed_ev): &TracedRun,
    (native, native_ev): &TracedRun,
    ctx: &str,
) {
    assert_eq!(native.cpu.gpr, packed.cpu.gpr, "{ctx}: GPRs diverged");
    assert_eq!(native.cpu.cr, packed.cpu.cr, "{ctx}: CR diverged");
    assert_eq!(native.cpu.lr, packed.cpu.lr, "{ctx}: LR diverged");
    assert_eq!(native.cpu.ctr, packed.cpu.ctr, "{ctx}: CTR diverged");
    assert_eq!(native.cpu.xer, packed.cpu.xer, "{ctx}: XER diverged");
    assert_eq!(native.cpu.pc, packed.cpu.pc, "{ctx}: PC diverged");
    let size = packed.mem.size();
    assert_eq!(
        native.mem.read_bytes(0, size).unwrap(),
        packed.mem.read_bytes(0, size).unwrap(),
        "{ctx}: memory image diverged"
    );
    assert_eq!(native.stats, packed.stats, "{ctx}: RunStats diverged");
    assert_eq!(native_ev, packed_ev, "{ctx}: trace event sequences diverged");
    assert_eq!(
        native.cache.level_stats(),
        packed.cache.level_stats(),
        "{ctx}: cache level statistics diverged"
    );
}
