//! Architecturally-faithful RV32I interpreter: the reference semantics
//! the translator is checked against, and the fallback execution mode.
//!
//! Mirrors the PowerPC interpreter's contract exactly: `execute`
//! advances the PC only on success, faulting instructions leave all
//! architected state untouched (so the §3.5 recovery protocol can
//! re-execute them), and [`Cpu::handle_event`] either delivers traps to
//! the machine-mode vector (when [`Cpu::vectored`]) or surfaces them as
//! [`StopReason`]s.
//!
//! The machine is M-mode only with real addressing (no satp/paging),
//! and — like the rest of this reproduction's guest memory — the
//! memory image is big-endian.

use crate::insn::{decode, AluImmOp, AluOp, BranchCond, Insn, MemWidth, ShiftOp, Xr};
use daisy_isa::mem::Memory;
use daisy_isa::{Event, StopReason};

/// A machine-mode trap vector: all traps are delivered here
/// (direct mode; `mcause` disambiguates).
pub const TRAP_VECTOR: u32 = 0x100;

/// `mcause` values used by this machine.
pub mod mcause {
    /// Instruction access fault.
    pub const INSN_FAULT: u32 = 1;
    /// Illegal instruction.
    pub const ILLEGAL: u32 = 2;
    /// Breakpoint (`ebreak`).
    pub const BREAKPOINT: u32 = 3;
    /// Load access fault.
    pub const LOAD_FAULT: u32 = 5;
    /// Store access fault.
    pub const STORE_FAULT: u32 = 7;
    /// Environment call (`ecall`) from M-mode.
    pub const ECALL: u32 = 11;
    /// Machine external interrupt (interrupt bit set).
    pub const EXTERNAL: u32 = 0x8000_000B;
}

/// Decode memo keyed by instruction address; see
/// [`daisy_isa::DecodeCache`].
pub type DecodeCache = daisy_isa::DecodeCache<Insn>;

/// The architected RV32I machine state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cpu {
    /// Integer registers; `x[0]` is always zero.
    pub x: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// Machine exception PC (trap return address).
    pub mepc: u32,
    /// Machine trap cause.
    pub mcause: u32,
    /// Machine trap value (faulting address, when applicable).
    pub mtval: u32,
    /// Machine interrupt enable (`mstatus.MIE`).
    pub mie: bool,
    /// Saved interrupt enable (`mstatus.MPIE`).
    pub mpie: bool,
    /// When set, events vector to [`TRAP_VECTOR`] instead of stopping
    /// the interpreter.
    pub vectored: bool,
    /// Retired instruction count.
    pub ninstrs: u64,
}

impl Cpu {
    /// A fresh CPU at the given entry point: registers zero,
    /// interrupts disabled, non-vectored.
    pub fn new(entry: u32) -> Cpu {
        Cpu {
            x: [0; 32],
            pc: entry,
            mepc: 0,
            mcause: 0,
            mtval: 0,
            mie: false,
            mpie: false,
            vectored: false,
            ninstrs: 0,
        }
    }

    fn g(&self, r: Xr) -> u32 {
        self.x[r.0 as usize]
    }

    /// Writes a register, discarding writes to `x0`.
    pub fn set_x(&mut self, r: Xr, v: u32) {
        if r.0 != 0 {
            self.x[r.0 as usize] = v;
        }
    }

    /// Fetches and decodes the instruction at the current PC without
    /// executing it.
    pub fn fetch(&self, mem: &Memory) -> Result<Insn, Event> {
        mem.read_u32(self.pc).map(decode).map_err(|_| Event::Isi)
    }

    /// Like [`Cpu::fetch`], memoizing the decode through `dcache`. The
    /// raw word is still read every time (so self-modifying code is
    /// observed), but revisited words skip the decoder.
    pub fn fetch_cached(&self, mem: &Memory, dcache: &mut DecodeCache) -> Result<Insn, Event> {
        let word = mem.read_u32(self.pc).map_err(|_| Event::Isi)?;
        Ok(dcache.decode_at(self.pc, word, decode))
    }

    /// Executes one instruction. On [`Event::Continue`]/[`Event::Syscall`]
    /// the PC has advanced; on faults the PC still addresses the faulting
    /// instruction and no architected state has changed.
    pub fn step(&mut self, mem: &mut Memory) -> Event {
        match self.fetch(mem) {
            Ok(insn) => self.execute(mem, insn),
            Err(e) => e,
        }
    }

    /// Executes an already-decoded instruction at the current PC.
    pub fn execute(&mut self, mem: &mut Memory, insn: Insn) -> Event {
        let next = self.pc.wrapping_add(4);
        let ev = self.execute_inner(mem, insn, next);
        if matches!(ev, Event::Continue | Event::Syscall) {
            self.ninstrs += 1;
        }
        ev
    }

    fn ea(&self, rs1: Xr, off: i16) -> u32 {
        self.g(rs1).wrapping_add(off as i32 as u32)
    }

    #[allow(clippy::too_many_lines)]
    fn execute_inner(&mut self, mem: &mut Memory, insn: Insn, next: u32) -> Event {
        match insn {
            Insn::Lui { rd, imm } => self.set_x(rd, imm),
            Insn::Auipc { rd, imm } => self.set_x(rd, self.pc.wrapping_add(imm)),
            Insn::Jal { rd, off } => {
                let target = self.pc.wrapping_add(off as u32);
                self.set_x(rd, next);
                self.pc = target;
                return Event::Continue;
            }
            Insn::Jalr { rd, rs1, off } => {
                let target = self.ea(rs1, off) & !1;
                self.set_x(rd, next);
                self.pc = target;
                return Event::Continue;
            }
            Insn::Branch { cond, rs1, rs2, off } => {
                let (a, b) = (self.g(rs1), self.g(rs2));
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i32) < (b as i32),
                    BranchCond::Ge => (a as i32) >= (b as i32),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                self.pc = if taken { self.pc.wrapping_add(off as i32 as u32) } else { next };
                return Event::Continue;
            }
            Insn::Load { rd, rs1, off, width, unsigned } => {
                let ea = self.ea(rs1, off);
                let read = match width {
                    MemWidth::Byte => mem.read_u8(ea).map(u32::from),
                    MemWidth::Half => mem.read_u16(ea).map(u32::from),
                    MemWidth::Word => mem.read_u32(ea),
                };
                let Ok(raw) = read else {
                    return Event::Dsi { addr: ea, write: false };
                };
                let v = match (width, unsigned) {
                    (MemWidth::Byte, false) => raw as u8 as i8 as i32 as u32,
                    (MemWidth::Half, false) => raw as u16 as i16 as i32 as u32,
                    _ => raw,
                };
                self.set_x(rd, v);
            }
            Insn::Store { rs2, rs1, off, width } => {
                let ea = self.ea(rs1, off);
                let v = self.g(rs2);
                let wrote = match width {
                    MemWidth::Byte => mem.write_u8(ea, v as u8),
                    MemWidth::Half => mem.write_u16(ea, v as u16),
                    MemWidth::Word => mem.write_u32(ea, v),
                };
                if wrote.is_err() {
                    return Event::Dsi { addr: ea, write: true };
                }
            }
            Insn::OpImm { op, rd, rs1, imm } => {
                let a = self.g(rs1);
                let i = imm as i32 as u32;
                let v = match op {
                    AluImmOp::Addi => a.wrapping_add(i),
                    AluImmOp::Slti => u32::from((a as i32) < (i as i32)),
                    AluImmOp::Sltiu => u32::from(a < i),
                    AluImmOp::Xori => a ^ i,
                    AluImmOp::Ori => a | i,
                    AluImmOp::Andi => a & i,
                };
                self.set_x(rd, v);
            }
            Insn::ShiftImm { op, rd, rs1, shamt } => {
                let a = self.g(rs1);
                let n = u32::from(shamt & 31);
                let v = match op {
                    ShiftOp::Sll => a << n,
                    ShiftOp::Srl => a >> n,
                    ShiftOp::Sra => ((a as i32) >> n) as u32,
                };
                self.set_x(rd, v);
            }
            Insn::Op { op, rd, rs1, rs2 } => {
                let (a, b) = (self.g(rs1), self.g(rs2));
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Slt => u32::from((a as i32) < (b as i32)),
                    AluOp::Sltu => u32::from(a < b),
                    AluOp::Xor => a ^ b,
                    AluOp::Or => a | b,
                    AluOp::And => a & b,
                };
                self.set_x(rd, v);
            }
            Insn::OpShift { op, rd, rs1, rs2 } => {
                let a = self.g(rs1);
                let n = self.g(rs2) & 31;
                let v = match op {
                    ShiftOp::Sll => a << n,
                    ShiftOp::Srl => a >> n,
                    ShiftOp::Sra => ((a as i32) >> n) as u32,
                };
                self.set_x(rd, v);
            }
            Insn::Fence => {}
            Insn::Ecall => {
                self.pc = next;
                return Event::Syscall;
            }
            Insn::Ebreak => return Event::Trap,
            Insn::Mret => {
                self.mie = self.mpie;
                self.mpie = true;
                self.pc = self.mepc;
                return Event::Continue;
            }
            Insn::Invalid(_) => return Event::Program,
        }
        self.pc = next;
        Event::Continue
    }

    /// Delivers a trap: saves the resume PC and cause/value CSRs,
    /// stacks the interrupt-enable bit, jumps to [`TRAP_VECTOR`].
    pub fn deliver(&mut self, cause: u32, tval: u32, at: u32) {
        self.mepc = at;
        self.mcause = cause;
        self.mtval = tval;
        self.mpie = self.mie;
        self.mie = false;
        self.pc = TRAP_VECTOR;
    }

    /// Resolves an interpreter event: delivers it to the trap vector
    /// (when [`Cpu::vectored`](Cpu)) or turns it into a stop.
    pub fn handle_event(&mut self, ev: Event) -> Option<StopReason> {
        match ev {
            Event::Continue => None,
            Event::Syscall => {
                if self.vectored {
                    self.deliver(mcause::ECALL, 0, self.pc);
                    None
                } else {
                    Some(StopReason::Syscall)
                }
            }
            Event::Trap => {
                if self.vectored {
                    self.deliver(mcause::BREAKPOINT, 0, self.pc);
                    None
                } else {
                    Some(StopReason::Trap)
                }
            }
            Event::Program => {
                if self.vectored {
                    self.deliver(mcause::ILLEGAL, 0, self.pc);
                    None
                } else {
                    Some(StopReason::Program)
                }
            }
            Event::Dsi { addr, write } => {
                if self.vectored {
                    let cause = if write { mcause::STORE_FAULT } else { mcause::LOAD_FAULT };
                    self.deliver(cause, addr, self.pc);
                    None
                } else {
                    Some(StopReason::StorageFault { addr, write, fetch: false })
                }
            }
            Event::Isi => {
                if self.vectored {
                    self.deliver(mcause::INSN_FAULT, self.pc, self.pc);
                    None
                } else {
                    Some(StopReason::StorageFault { addr: self.pc, write: false, fetch: true })
                }
            }
        }
    }

    /// Runs until a stop condition or `max_instrs` instructions.
    pub fn run(&mut self, mem: &mut Memory, max_instrs: u64) -> StopReason {
        self.run_traced(mem, max_instrs, |_, _| {})
    }

    /// Like [`Cpu::run`], invoking `trace(pc, insn)` for every
    /// successfully executed instruction.
    pub fn run_traced(
        &mut self,
        mem: &mut Memory,
        max_instrs: u64,
        mut trace: impl FnMut(u32, &Insn),
    ) -> StopReason {
        let limit = self.ninstrs.saturating_add(max_instrs);
        let mut dcache = DecodeCache::default();
        while self.ninstrs < limit {
            let pc = self.pc;
            let ev = match self.fetch_cached(mem, &mut dcache) {
                Ok(insn) => {
                    let ev = self.execute(mem, insn);
                    if matches!(ev, Event::Continue | Event::Syscall) {
                        trace(pc, &insn);
                    }
                    ev
                }
                Err(e) => e,
            };
            if let Some(stop) = self.handle_event(ev) {
                return stop;
            }
        }
        StopReason::MaxInstrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::encode;

    fn setup(words: &[u32]) -> (Cpu, Memory) {
        let mut mem = Memory::new(0x2_0000);
        for (i, w) in words.iter().enumerate() {
            mem.write_u32(0x1000 + 4 * i as u32, *w).unwrap();
        }
        (Cpu::new(0x1000), mem)
    }

    #[test]
    fn x0_is_pinned_to_zero() {
        let (mut cpu, mut mem) = setup(&[
            encode(&Insn::OpImm { op: AluImmOp::Addi, rd: Xr(0), rs1: Xr(0), imm: 7 }),
            encode(&Insn::Ecall),
        ]);
        assert_eq!(cpu.run(&mut mem, 100), StopReason::Syscall);
        assert_eq!(cpu.x[0], 0);
    }

    #[test]
    fn alu_branch_and_memory_roundtrip() {
        let (mut cpu, mut mem) = setup(&[
            // x5 = 0x1234; x6 = x5 << 4; store word; load back into x7
            encode(&Insn::Lui { rd: Xr(5), imm: 0x1000 }),
            encode(&Insn::OpImm { op: AluImmOp::Addi, rd: Xr(5), rs1: Xr(5), imm: 0x234 }),
            encode(&Insn::ShiftImm { op: ShiftOp::Sll, rd: Xr(6), rs1: Xr(5), shamt: 4 }),
            encode(&Insn::Store { rs2: Xr(6), rs1: Xr(5), off: 0, width: MemWidth::Word }),
            encode(&Insn::Load {
                rd: Xr(7),
                rs1: Xr(5),
                off: 0,
                width: MemWidth::Word,
                unsigned: false,
            }),
            encode(&Insn::Branch { cond: BranchCond::Eq, rs1: Xr(6), rs2: Xr(7), off: 8 }),
            encode(&Insn::Invalid(0)),
            encode(&Insn::Ecall),
        ]);
        assert_eq!(cpu.run(&mut mem, 100), StopReason::Syscall);
        assert_eq!(cpu.x[7], 0x1234 << 4);
    }

    #[test]
    fn jal_links_and_jalr_returns() {
        let (mut cpu, mut mem) = setup(&[
            encode(&Insn::Jal { rd: Xr(1), off: 8 }), // 0x1000 → 0x1008, x1 = 0x1004
            encode(&Insn::Ecall),                     // 0x1004
            encode(&Insn::Jalr { rd: Xr(0), rs1: Xr(1), off: 0 }), // 0x1008 → 0x1004
        ]);
        assert_eq!(cpu.run(&mut mem, 100), StopReason::Syscall);
        assert_eq!(cpu.x[1], 0x1004);
        assert_eq!(cpu.ninstrs, 3);
    }

    #[test]
    fn faulting_load_preserves_state_and_vectored_trap_delivers() {
        let (mut cpu, mut mem) = setup(&[encode(&Insn::Load {
            rd: Xr(5),
            rs1: Xr(0),
            off: -4,
            width: MemWidth::Word,
            unsigned: false,
        })]);
        let stop = cpu.run(&mut mem, 100);
        assert_eq!(
            stop,
            StopReason::StorageFault { addr: 0xFFFF_FFFC, write: false, fetch: false }
        );
        assert_eq!(cpu.pc, 0x1000, "PC still at the faulting instruction");

        // Vectored: the same fault lands on the trap vector with CSRs set.
        let (mut cpu, mut mem) = setup(&[encode(&Insn::Load {
            rd: Xr(5),
            rs1: Xr(0),
            off: -4,
            width: MemWidth::Word,
            unsigned: false,
        })]);
        cpu.vectored = true;
        let ev = cpu.step(&mut mem);
        assert_eq!(ev, Event::Dsi { addr: 0xFFFF_FFFC, write: false });
        assert!(cpu.handle_event(ev).is_none());
        assert_eq!(cpu.pc, TRAP_VECTOR);
        assert_eq!(cpu.mcause, mcause::LOAD_FAULT);
        assert_eq!(cpu.mtval, 0xFFFF_FFFC);
        assert_eq!(cpu.mepc, 0x1000);
    }

    #[test]
    fn mret_restores_interrupt_enable_and_resumes() {
        let (mut cpu, mut mem) = setup(&[encode(&Insn::Ebreak), encode(&Insn::Ecall)]);
        cpu.vectored = true;
        cpu.mie = true;
        mem.write_u32(TRAP_VECTOR, encode(&Insn::Mret)).unwrap();
        // ebreak traps (delivery retires no instruction), then the
        // handler's mret is the single instruction the budget allows:
        // it must restore mie from mpie and resume at mepc.
        let stop = cpu.run(&mut mem, 1);
        assert_eq!(stop, StopReason::MaxInstrs);
        assert_eq!(cpu.mepc, 0x1000);
        assert_eq!(cpu.pc, 0x1000);
        assert!(cpu.mie, "mret restored mie");
    }
}
