//! The RV32I implementation of the guest-agnostic frontend boundary.
//!
//! [`Rv32Isa`] is the zero-sized marker the translation core is
//! instantiated with (`DaisySystem<Rv32Isa>`); the [`daisy_isa::Isa`]
//! impl wires the decoder, converter, and branch analysis to the
//! boundary, and the [`daisy_isa::GuestCpu`] impl on [`Cpu`] maps the
//! neutral exception vocabulary onto the machine-mode trap CSRs.

use crate::convert;
use crate::insn::{decode, encode, Insn};
use crate::interp::{mcause, Cpu, DecodeCache, TRAP_VECTOR};
use daisy_isa::convert::{BranchInfo, Converted};
use daisy_isa::mem::Memory;
use daisy_isa::{Event, Exception, IsaId, StopReason};
use daisy_vliw::op::Operation;
use daisy_vliw::reg::{CrField, Reg};
use daisy_vliw::regfile::RegFile;

/// Marker type for the RV32I (subset) guest ISA.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rv32Isa;

/// Words that never decode to a valid instruction (the all-zero and
/// all-one words are guaranteed-illegal by the RISC-V spec), used by
/// the fault-injection harness.
static ILLEGAL_WORDS: [u32; 3] = [0x0000_0000, 0xFFFF_FFFF, 0x0000_001F];

impl daisy_isa::Isa for Rv32Isa {
    type Insn = Insn;
    type Cpu = Cpu;
    // The decoder is total: unknown words map to `Insn::Invalid`,
    // which converts to an interpreter exit.
    type DecodeError = std::convert::Infallible;

    const ID: IsaId = IsaId::RV32;
    const NAME: &'static str = "rv32";

    fn decode(word: u32) -> Result<Insn, Self::DecodeError> {
        Ok(decode(word))
    }

    fn convert(insn: &Insn, addr: u32, ops: &mut Vec<Operation>) -> Converted {
        convert::convert(insn, addr, ops)
    }

    fn branch_info(insn: &Insn, pc: u32) -> Option<BranchInfo> {
        convert::branch_info(insn, pc)
    }

    fn ends_interp_window(insn: &Insn) -> bool {
        matches!(insn, Insn::Mret)
    }

    fn disasm(word: u32) -> String {
        decode(word).to_string()
    }

    fn illegal_words() -> &'static [u32] {
        &ILLEGAL_WORDS
    }

    fn interrupt_return_word() -> u32 {
        encode(&Insn::Mret)
    }

    fn external_vector() -> u32 {
        TRAP_VECTOR
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
        self.run(mem, max)
    }

    fn deliver(&mut self, e: Exception, at: u32) {
        let (cause, tval) = match e {
            Exception::External => (mcause::EXTERNAL, 0),
            Exception::Syscall => (mcause::ECALL, 0),
            Exception::Program => (mcause::ILLEGAL, 0),
            Exception::Trap => (mcause::BREAKPOINT, 0),
            Exception::Data { addr, write } => {
                (if write { mcause::STORE_FAULT } else { mcause::LOAD_FAULT }, addr)
            }
            Exception::Instruction => (mcause::INSN_FAULT, at),
        };
        Cpu::deliver(self, cause, tval, at);
    }

    fn record_data_fault(&mut self, addr: u32, write: bool) {
        self.mtval = addr;
        self.mcause = if write { mcause::STORE_FAULT } else { mcause::LOAD_FAULT };
    }

    fn interrupts_enabled(&self) -> bool {
        self.mie
    }

    fn enable_interrupts(&mut self) {
        self.mie = true;
    }

    fn effective_address(&self, insn: &Insn) -> Option<u32> {
        match *insn {
            Insn::Load { rs1, off, .. } | Insn::Store { rs1, off, .. } => {
                Some(self.x[rs1.0 as usize].wrapping_add(off as i32 as u32))
            }
            _ => None,
        }
    }

    fn fill_regfile(&self, rf: &mut RegFile) {
        for i in 0..32 {
            rf.set(Reg(i as u8), self.x[i]);
        }
        // Non-architected-for-RV32 resources: scratch only, defined
        // zero at group entry (the converter computes into them before
        // any read).
        for c in 0..8u8 {
            rf.set(Reg::cr(CrField(c)), 0);
        }
        rf.set(Reg::LR, 0);
        rf.set(Reg::CTR, 0);
        rf.set(Reg::CA, 0);
        rf.set(Reg::OV, 0);
        rf.set(Reg::SO, 0);
    }

    fn write_back(&mut self, rf: &RegFile) {
        // x0 stays pinned to zero; scratch resources are not guest
        // state and are dropped.
        for i in 1..32 {
            self.x[i] = rf.get(Reg(i as u8));
        }
    }

    fn state_diff(&self, other: &Cpu, skip_resume: bool) -> Option<String> {
        for (i, (a, b)) in self.x.iter().zip(other.x.iter()).enumerate() {
            if a != b {
                return Some(format!("x{i}: {a:#x} vs {b:#x}"));
            }
        }
        let mut named: Vec<(&str, u32, u32)> = vec![
            ("pc", self.pc, other.pc),
            ("mie", u32::from(self.mie), u32::from(other.mie)),
            ("mtval", self.mtval, other.mtval),
        ];
        if !skip_resume {
            named.push(("mepc", self.mepc, other.mepc));
            named.push(("mcause", self.mcause, other.mcause));
            named.push(("mpie", u32::from(self.mpie), u32::from(other.mpie)));
        }
        for (name, a, b) in named {
            if a != b {
                return Some(format!("{name}: {a:#x} vs {b:#x}"));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{MemWidth, Xr};
    use daisy_isa::{GuestCpu, Isa};

    #[test]
    fn isa_constants_and_roundtrips() {
        assert_eq!(Rv32Isa::ID, IsaId::RV32);
        assert_eq!(Rv32Isa::NAME, "rv32");
        assert_eq!(<Rv32Isa as Isa>::decode(Rv32Isa::interrupt_return_word()).unwrap(), Insn::Mret);
        for &w in Rv32Isa::illegal_words() {
            assert!(matches!(decode(w), Insn::Invalid(_)));
        }
        assert!(Rv32Isa::ends_interp_window(&Insn::Mret));
        assert!(!Rv32Isa::ends_interp_window(&Insn::Ecall));
    }

    #[test]
    fn regfile_roundtrip_preserves_guest_state() {
        let mut cpu = Cpu::new(0x1000);
        for i in 1..32 {
            cpu.set_x(Xr(i as u8), 0x100 + i as u32);
        }
        let mut rf = RegFile::new();
        cpu.fill_regfile(&mut rf);
        assert_eq!(rf.get(Reg(0)), 0);
        assert_eq!(rf.get(Reg(17)), 0x111);
        let mut out = Cpu::new(0x1000);
        out.write_back(&rf);
        assert!(GuestCpu::state_diff(&cpu, &out, true).is_none());
    }

    #[test]
    fn effective_address_matches_interpreter() {
        let mut cpu = Cpu::new(0);
        cpu.set_x(Xr(5), 0x4000);
        let ld =
            Insn::Load { rd: Xr(6), rs1: Xr(5), off: -4, width: MemWidth::Word, unsigned: false };
        assert_eq!(GuestCpu::effective_address(&cpu, &ld), Some(0x3FFC));
    }
}
