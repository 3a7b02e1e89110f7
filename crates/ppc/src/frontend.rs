//! The PowerPC implementation of the guest-agnostic frontend boundary.
//!
//! [`PpcIsa`] is the zero-sized marker the translation core is
//! instantiated with (`DaisySystem<PpcIsa>`); the [`daisy_isa::Isa`]
//! impl wires the decoder, converter, and branch analysis to the
//! boundary, and the [`daisy_isa::GuestCpu`] impl on [`Cpu`] maps the
//! neutral exception vocabulary onto the architected PowerPC vectors.

use crate::decode::{decode, DecodeCache};
use crate::encode::encode;
use crate::insn::Insn;
use crate::interp::Cpu;
use crate::mem::Memory;
use crate::reg::{msr_bits, xer_bits, CrField};
use crate::vectors;
use daisy_isa::convert::{BranchInfo, Converted};
use daisy_isa::{Event, Exception, IsaId, StopReason};
use daisy_vliw::op::Operation;
use daisy_vliw::reg::Reg;
use daisy_vliw::regfile::RegFile;

/// Marker type for the PowerPC (subset) guest ISA.
#[derive(Debug, Clone, Copy, Default)]
pub struct PpcIsa;

/// Words that never decode to a valid instruction (opcode 0 and the
/// reserved opcode-6 group), used by the fault-injection harness.
static ILLEGAL_WORDS: [u32; 3] = [0x0000_0000, 0x0000_0001, 0x1800_0000];

impl daisy_isa::Isa for PpcIsa {
    type Insn = Insn;
    type Cpu = Cpu;
    // The PowerPC decoder is total: unknown words map to
    // `Insn::Invalid`, which converts to an interpreter exit.
    type DecodeError = std::convert::Infallible;

    const ID: IsaId = IsaId::PPC;
    const NAME: &'static str = "ppc";

    fn decode(word: u32) -> Result<Insn, Self::DecodeError> {
        Ok(decode(word))
    }

    fn convert(insn: &Insn, addr: u32, ops: &mut Vec<Operation>) -> Converted {
        crate::convert::convert(insn, addr, ops)
    }

    fn branch_info(insn: &Insn, pc: u32) -> Option<BranchInfo> {
        insn.branch_info(pc)
    }

    fn ends_interp_window(insn: &Insn) -> bool {
        matches!(insn, Insn::Rfi)
    }

    fn disasm(word: u32) -> String {
        decode(word).to_string()
    }

    fn illegal_words() -> &'static [u32] {
        &ILLEGAL_WORDS
    }

    fn interrupt_return_word() -> u32 {
        encode(&Insn::Rfi)
    }

    fn external_vector() -> u32 {
        vectors::EXTERNAL
    }
}

impl daisy_isa::GuestCpu for Cpu {
    type Insn = Insn;

    fn new(entry: u32) -> Cpu {
        Cpu::new(entry)
    }

    fn pc(&self) -> u32 {
        self.pc
    }

    fn set_pc(&mut self, pc: u32) {
        self.pc = pc;
    }

    fn instret(&self) -> u64 {
        self.ninstrs
    }

    fn vectored(&self) -> bool {
        self.vectored
    }

    fn set_vectored(&mut self, v: bool) {
        self.vectored = v;
    }

    fn fetch(&self, mem: &Memory) -> Result<Insn, Event> {
        Cpu::fetch(self, mem)
    }

    fn fetch_cached(&self, mem: &Memory, cache: &mut DecodeCache) -> Result<Insn, Event> {
        Cpu::fetch_cached(self, mem, cache)
    }

    fn execute(&mut self, mem: &mut Memory, insn: Insn) -> Event {
        Cpu::execute(self, mem, insn)
    }

    fn handle_event(&mut self, ev: Event) -> Option<StopReason> {
        Cpu::handle_event(self, ev)
    }

    fn interp_run(&mut self, mem: &mut Memory, max: u64) -> StopReason {
        // `run` is currently infallible (see `MemTooSmall`).
        self.run(mem, max).unwrap_or(StopReason::MaxInstrs)
    }

    fn deliver(&mut self, e: Exception, at: u32) {
        let vector = match e {
            Exception::External => vectors::EXTERNAL,
            Exception::Syscall => vectors::SYSCALL,
            Exception::Program | Exception::Trap => vectors::PROGRAM,
            Exception::Data { addr, write } => {
                self.record_data_fault_regs(addr, write);
                vectors::DSI
            }
            Exception::Instruction => vectors::ISI,
        };
        Cpu::deliver(self, vector, at);
    }

    fn record_data_fault(&mut self, addr: u32, write: bool) {
        self.record_data_fault_regs(addr, write);
    }

    fn interrupts_enabled(&self) -> bool {
        self.msr & msr_bits::EE != 0
    }

    fn enable_interrupts(&mut self) {
        self.msr |= msr_bits::EE;
    }

    fn effective_address(&self, insn: &Insn) -> Option<u32> {
        let base = |ra: crate::reg::Gpr| {
            if ra.0 == 0 {
                0
            } else {
                self.gpr[ra.0 as usize]
            }
        };
        match *insn {
            Insn::Load { indexed, ra, rb, d, .. } | Insn::Store { indexed, ra, rb, d, .. } => {
                Some(if indexed {
                    base(ra).wrapping_add(self.gpr[rb.0 as usize])
                } else {
                    base(ra).wrapping_add(d as i32 as u32)
                })
            }
            Insn::Lmw { ra, d, .. } | Insn::Stmw { ra, d, .. } => {
                Some(base(ra).wrapping_add(d as i32 as u32))
            }
            _ => None,
        }
    }

    fn fill_regfile(&self, rf: &mut RegFile) {
        for i in 0..32 {
            rf.set(Reg(i as u8), self.gpr[i]);
        }
        for c in 0..8u8 {
            rf.set(Reg::cr(CrField(c)), self.cr_field(CrField(c)));
        }
        rf.set(Reg::LR, self.lr);
        rf.set(Reg::CTR, self.ctr);
        rf.set(Reg::CA, u32::from(self.xer & xer_bits::CA != 0));
        rf.set(Reg::OV, u32::from(self.xer & xer_bits::OV != 0));
        rf.set(Reg::SO, u32::from(self.xer & xer_bits::SO != 0));
    }

    fn write_back(&mut self, rf: &RegFile) {
        for i in 0..32 {
            self.gpr[i] = rf.get(Reg(i as u8));
        }
        for c in 0..8u8 {
            self.set_cr_field(CrField(c), rf.get(Reg::cr(CrField(c))));
        }
        self.lr = rf.get(Reg::LR);
        self.ctr = rf.get(Reg::CTR);
        let mut xer = self.xer & !(xer_bits::CA | xer_bits::OV | xer_bits::SO);
        if rf.get(Reg::CA) & 1 != 0 {
            xer |= xer_bits::CA;
        }
        if rf.get(Reg::OV) & 1 != 0 {
            xer |= xer_bits::OV;
        }
        if rf.get(Reg::SO) & 1 != 0 {
            xer |= xer_bits::SO;
        }
        self.xer = xer;
    }

    fn state_diff(&self, other: &Cpu, skip_resume: bool) -> Option<String> {
        for (i, (a, b)) in self.gpr.iter().zip(other.gpr.iter()).enumerate() {
            if a != b {
                return Some(format!("r{i}: {a:#x} vs {b:#x}"));
            }
        }
        let named: [(&str, u32, u32); 8] = [
            ("cr", self.cr, other.cr),
            ("lr", self.lr, other.lr),
            ("ctr", self.ctr, other.ctr),
            ("xer", self.xer, other.xer),
            ("msr", self.msr, other.msr),
            ("pc", self.pc, other.pc),
            ("dar", self.dar, other.dar),
            ("dsisr", self.dsisr, other.dsisr),
        ];
        for (name, a, b) in named {
            if a != b {
                return Some(format!("{name}: {a:#x} vs {b:#x}"));
            }
        }
        if !skip_resume {
            if self.srr0 != other.srr0 {
                return Some(format!("srr0: {:#x} vs {:#x}", self.srr0, other.srr0));
            }
            if self.srr1 != other.srr1 {
                return Some(format!("srr1: {:#x} vs {:#x}", self.srr1, other.srr1));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Gpr;
    use daisy_isa::{GuestCpu, Isa};

    #[test]
    fn regfile_roundtrip_through_cpu() {
        let mut cpu = Cpu::new(0x1000);
        cpu.gpr[5] = 0xDEAD;
        cpu.set_cr_field(CrField(2), 0b1010);
        cpu.lr = 0x44;
        cpu.ctr = 7;
        cpu.xer = xer_bits::CA | xer_bits::SO;

        let mut f = RegFile::new();
        cpu.fill_regfile(&mut f);
        assert_eq!(f.get(Reg::gpr(Gpr(5))), 0xDEAD);
        assert_eq!(f.get(Reg::cr(CrField(2))), 0b1010);
        assert_eq!(f.get(Reg::CA), 1);
        assert_eq!(f.get(Reg::OV), 0);
        assert_eq!(f.get(Reg::SO), 1);

        let mut cpu2 = Cpu::new(0);
        cpu2.write_back(&f);
        assert_eq!(cpu2.gpr[5], 0xDEAD);
        assert_eq!(cpu2.cr_field(CrField(2)), 0b1010);
        assert_eq!(cpu2.lr, 0x44);
        assert_eq!(cpu2.ctr, 7);
        assert_eq!(cpu2.xer, xer_bits::CA | xer_bits::SO);
    }

    #[test]
    fn illegal_words_do_not_decode() {
        for &w in PpcIsa::illegal_words() {
            assert!(matches!(decode(w), Insn::Invalid(_)), "{w:#010x} decoded");
        }
    }

    #[test]
    fn exception_mapping_matches_vectors() {
        let mut cpu = Cpu::new(0x1000);
        GuestCpu::deliver(&mut cpu, Exception::Syscall, 0x1004);
        assert_eq!(cpu.pc, vectors::SYSCALL);
        assert_eq!(cpu.srr0, 0x1004);

        let mut cpu = Cpu::new(0x1000);
        GuestCpu::deliver(&mut cpu, Exception::Data { addr: 0x80, write: true }, 0x1000);
        assert_eq!(cpu.pc, vectors::DSI);
        assert_eq!(cpu.dar, 0x80);
        assert_eq!(cpu.dsisr, 0x4200_0000);
    }

    #[test]
    fn interrupt_return_word_is_rfi() {
        assert_eq!(decode(PpcIsa::interrupt_return_word()), Insn::Rfi);
    }
}
