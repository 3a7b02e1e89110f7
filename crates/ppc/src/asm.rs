//! Label-based PowerPC assembler and program builder.
//!
//! The benchmark workloads (paper Ch. 5) are written against this API
//! and assembled to genuine 32-bit PowerPC words, which the DAISY
//! translator then consumes exactly as it would consume a real binary.
//!
//! # Example
//!
//! ```
//! use daisy_ppc::asm::Asm;
//! use daisy_ppc::reg::{CrField, Gpr};
//!
//! let mut a = Asm::new(0x1000);
//! a.li(Gpr(3), 0);
//! a.li(Gpr(4), 10);
//! a.mtctr(Gpr(4));
//! a.label("loop");
//! a.addi(Gpr(3), Gpr(3), 2);
//! a.bdnz("loop");
//! a.sc();
//! let prog = a.finish().unwrap();
//! assert_eq!(prog.code.len(), 6);
//! ```

use crate::encode::encode;
use crate::insn::{bo, Arith2Op, ArithOp, CrOp, Insn, LogicImmOp, LogicOp, MemWidth, UnaryOp};
use crate::reg::{CrBit, CrField, Gpr, Spr};
use std::collections::HashMap;
use std::fmt;

/// Assembly-time errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A referenced label was never defined.
    UndefinedLabel(String),
    /// A label was defined twice.
    DuplicateLabel(String),
    /// A conditional-branch displacement exceeded ±32 KiB.
    BranchOutOfRange {
        /// The target label.
        label: String,
        /// Displacement in bytes.
        displacement: i64,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::BranchOutOfRange { label, displacement } => {
                write!(f, "branch to `{label}` out of range ({displacement} bytes)")
            }
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone)]
enum Item {
    Insn(Insn),
    /// `bc` with a label target to fix up.
    BcTo {
        bo: u8,
        bi: CrBit,
        label: String,
        lk: bool,
    },
    /// `b`/`bl` with a label target.
    BTo {
        label: String,
        lk: bool,
    },
    /// `addi rt,rt,lo(label)` following `lis rt,hi(label)`.
    LabelLo {
        rt: Gpr,
        label: String,
    },
    /// `lis rt,hi-adjusted(label)`.
    LabelHi {
        rt: Gpr,
        label: String,
    },
}

// The assembled image type is ISA-neutral and shared across guest
// frontends; it keeps its historical path here.
pub use daisy_isa::Program;

/// The assembler. Instructions append at increasing addresses from the
/// base; labels name the next instruction's address.
#[derive(Debug, Clone)]
pub struct Asm {
    base: u32,
    items: Vec<Item>,
    labels: HashMap<String, u32>,
    data: Vec<(u32, Vec<u8>)>,
    entry: Option<u32>,
    error: Option<AsmError>,
}

impl Asm {
    /// Starts assembling at `base` (must be word-aligned).
    pub fn new(base: u32) -> Asm {
        Asm {
            base: base & !3,
            items: Vec::new(),
            labels: HashMap::new(),
            data: Vec::new(),
            entry: None,
            error: None,
        }
    }

    /// Address the next emitted instruction will occupy.
    pub fn here(&self) -> u32 {
        self.base + 4 * self.items.len() as u32
    }

    /// Defines a label at the current position.
    pub fn label(&mut self, name: &str) {
        if self.labels.insert(name.to_owned(), self.here()).is_some() && self.error.is_none() {
            self.error = Some(AsmError::DuplicateLabel(name.to_owned()));
        }
    }

    /// Sets the entry point to the current position (defaults to `base`).
    pub fn entry_here(&mut self) {
        self.entry = Some(self.here());
    }

    /// Places raw bytes at an absolute address (outside the code stream).
    pub fn data(&mut self, addr: u32, bytes: &[u8]) {
        self.data.push((addr, bytes.to_vec()));
    }

    /// Places big-endian words at an absolute address.
    pub fn data_words(&mut self, addr: u32, words: &[u32]) {
        let mut bytes = Vec::with_capacity(words.len() * 4);
        for w in words {
            bytes.extend_from_slice(&w.to_be_bytes());
        }
        self.data.push((addr, bytes));
    }

    /// Emits an arbitrary instruction.
    pub fn emit(&mut self, insn: Insn) {
        self.items.push(Item::Insn(insn));
    }

    /// Resolves labels and produces the [`Program`].
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] for undefined/duplicate labels or branch
    /// displacements that do not fit their encoding.
    pub fn finish(self) -> Result<Program, AsmError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let lookup = |label: &str| -> Result<u32, AsmError> {
            self.labels
                .get(label)
                .copied()
                .ok_or_else(|| AsmError::UndefinedLabel(label.to_owned()))
        };
        let mut code = Vec::with_capacity(self.items.len());
        for (i, item) in self.items.iter().enumerate() {
            let pc = self.base + 4 * i as u32;
            let insn = match item {
                Item::Insn(insn) => *insn,
                Item::BcTo { bo, bi, label, lk } => {
                    let target = lookup(label)?;
                    let disp = i64::from(target) - i64::from(pc);
                    if disp > i64::from(i16::MAX) || disp < i64::from(i16::MIN) {
                        return Err(AsmError::BranchOutOfRange {
                            label: label.clone(),
                            displacement: disp,
                        });
                    }
                    Insn::BranchC { bo: *bo, bi: *bi, bd: disp as i16, aa: false, lk: *lk }
                }
                Item::BTo { label, lk } => {
                    let target = lookup(label)?;
                    let disp = i64::from(target) - i64::from(pc);
                    if !(-(1 << 25)..(1 << 25)).contains(&disp) {
                        return Err(AsmError::BranchOutOfRange {
                            label: label.clone(),
                            displacement: disp,
                        });
                    }
                    Insn::BranchI { li: disp as i32, aa: false, lk: *lk }
                }
                Item::LabelHi { rt, label } => {
                    let v = lookup(label)?;
                    // Adjust for the sign of the low half added later.
                    let hi = (v.wrapping_add(0x8000) >> 16) as i16;
                    Insn::Addis { rt: *rt, ra: Gpr(0), si: hi }
                }
                Item::LabelLo { rt, label } => {
                    let v = lookup(label)?;
                    Insn::Addi { rt: *rt, ra: *rt, si: (v & 0xFFFF) as u16 as i16 }
                }
            };
            code.push(encode(&insn));
        }
        Ok(Program {
            base: self.base,
            entry: self.entry.unwrap_or(self.base),
            code,
            data: self.data,
            labels: self.labels,
        })
    }

    // ---- Mnemonics ------------------------------------------------------

    /// `li rt,imm` (`addi rt,0,imm`).
    pub fn li(&mut self, rt: Gpr, imm: i16) {
        self.emit(Insn::Addi { rt, ra: Gpr(0), si: imm });
    }

    /// `lis rt,imm` (`addis rt,0,imm`).
    pub fn lis(&mut self, rt: Gpr, imm: i16) {
        self.emit(Insn::Addis { rt, ra: Gpr(0), si: imm });
    }

    /// Loads a full 32-bit constant with `lis`+`ori`.
    pub fn li32(&mut self, rt: Gpr, v: u32) {
        if let Ok(si) = i16::try_from(v as i32) {
            self.li(rt, si);
        } else {
            self.lis(rt, (v >> 16) as i16);
            if v & 0xFFFF != 0 {
                self.ori(rt, rt, (v & 0xFFFF) as u16);
            }
        }
    }

    /// Loads the address of a label (`lis`+`addi` pair, fixed up at finish).
    pub fn la(&mut self, rt: Gpr, label: &str) {
        self.items.push(Item::LabelHi { rt, label: label.to_owned() });
        self.items.push(Item::LabelLo { rt, label: label.to_owned() });
    }

    /// `mr rt,rs` (`or rt,rs,rs`).
    pub fn mr(&mut self, rt: Gpr, rs: Gpr) {
        self.emit(Insn::Logic { op: LogicOp::Or, ra: rt, rs, rb: rs, rc: false });
    }

    /// `nop` (`ori r0,r0,0`).
    pub fn nop(&mut self) {
        self.ori(Gpr(0), Gpr(0), 0);
    }

    /// `addi rt,ra,imm`.
    pub fn addi(&mut self, rt: Gpr, ra: Gpr, si: i16) {
        self.emit(Insn::Addi { rt, ra, si });
    }

    /// `addic rt,ra,imm` — the paper's `ai`, sets CA.
    pub fn addic(&mut self, rt: Gpr, ra: Gpr, si: i16) {
        self.emit(Insn::Addic { rt, ra, si, rc: false });
    }

    /// `mulli rt,ra,imm`.
    pub fn mulli(&mut self, rt: Gpr, ra: Gpr, si: i16) {
        self.emit(Insn::Mulli { rt, ra, si });
    }

    fn arith(&mut self, op: ArithOp, rt: Gpr, ra: Gpr, rb: Gpr) {
        self.emit(Insn::Arith { op, rt, ra, rb, oe: false, rc: false });
    }

    /// `add rt,ra,rb`.
    pub fn add(&mut self, rt: Gpr, ra: Gpr, rb: Gpr) {
        self.arith(ArithOp::Add, rt, ra, rb);
    }

    /// `addc rt,ra,rb`.
    pub fn addc(&mut self, rt: Gpr, ra: Gpr, rb: Gpr) {
        self.arith(ArithOp::Addc, rt, ra, rb);
    }

    /// `adde rt,ra,rb`.
    pub fn adde(&mut self, rt: Gpr, ra: Gpr, rb: Gpr) {
        self.arith(ArithOp::Adde, rt, ra, rb);
    }

    /// `subf rt,ra,rb` (rt = rb − ra).
    pub fn subf(&mut self, rt: Gpr, ra: Gpr, rb: Gpr) {
        self.arith(ArithOp::Subf, rt, ra, rb);
    }

    /// `subfc rt,ra,rb`.
    pub fn subfc(&mut self, rt: Gpr, ra: Gpr, rb: Gpr) {
        self.arith(ArithOp::Subfc, rt, ra, rb);
    }

    /// `mullw rt,ra,rb`.
    pub fn mullw(&mut self, rt: Gpr, ra: Gpr, rb: Gpr) {
        self.arith(ArithOp::Mullw, rt, ra, rb);
    }

    /// `divwu rt,ra,rb`.
    pub fn divwu(&mut self, rt: Gpr, ra: Gpr, rb: Gpr) {
        self.arith(ArithOp::Divwu, rt, ra, rb);
    }

    /// `neg rt,ra`.
    pub fn neg(&mut self, rt: Gpr, ra: Gpr) {
        self.emit(Insn::Arith2 { op: Arith2Op::Neg, rt, ra, oe: false, rc: false });
    }

    fn logic(&mut self, op: LogicOp, ra: Gpr, rs: Gpr, rb: Gpr, rc: bool) {
        self.emit(Insn::Logic { op, ra, rs, rb, rc });
    }

    /// `and ra,rs,rb`.
    pub fn and(&mut self, ra: Gpr, rs: Gpr, rb: Gpr) {
        self.logic(LogicOp::And, ra, rs, rb, false);
    }

    /// `or ra,rs,rb`.
    pub fn or(&mut self, ra: Gpr, rs: Gpr, rb: Gpr) {
        self.logic(LogicOp::Or, ra, rs, rb, false);
    }

    /// `xor ra,rs,rb`.
    pub fn xor(&mut self, ra: Gpr, rs: Gpr, rb: Gpr) {
        self.logic(LogicOp::Xor, ra, rs, rb, false);
    }

    /// `nor ra,rs,rb` (`not` when rs == rb).
    pub fn nor(&mut self, ra: Gpr, rs: Gpr, rb: Gpr) {
        self.logic(LogicOp::Nor, ra, rs, rb, false);
    }

    /// `andi. ra,rs,ui`.
    pub fn andi_(&mut self, ra: Gpr, rs: Gpr, ui: u16) {
        self.emit(Insn::LogicImm { op: LogicImmOp::Andi, ra, rs, ui });
    }

    /// `ori ra,rs,ui`.
    pub fn ori(&mut self, ra: Gpr, rs: Gpr, ui: u16) {
        self.emit(Insn::LogicImm { op: LogicImmOp::Ori, ra, rs, ui });
    }

    /// `xori ra,rs,ui`.
    pub fn xori(&mut self, ra: Gpr, rs: Gpr, ui: u16) {
        self.emit(Insn::LogicImm { op: LogicImmOp::Xori, ra, rs, ui });
    }

    /// `srawi ra,rs,sh`.
    pub fn srawi(&mut self, ra: Gpr, rs: Gpr, sh: u8) {
        self.emit(Insn::Srawi { ra, rs, sh, rc: false });
    }

    /// `slwi ra,rs,sh` (`rlwinm ra,rs,sh,0,31-sh`).
    pub fn slwi(&mut self, ra: Gpr, rs: Gpr, sh: u8) {
        self.emit(Insn::Rlwinm { ra, rs, sh, mb: 0, me: 31 - sh, rc: false });
    }

    /// `srwi ra,rs,sh` (`rlwinm ra,rs,32-sh,sh,31`).
    pub fn srwi(&mut self, ra: Gpr, rs: Gpr, sh: u8) {
        self.emit(Insn::Rlwinm { ra, rs, sh: (32 - sh) & 31, mb: sh, me: 31, rc: false });
    }

    /// `clrlwi ra,rs,n` — clear left n bits.
    pub fn clrlwi(&mut self, ra: Gpr, rs: Gpr, n: u8) {
        self.emit(Insn::Rlwinm { ra, rs, sh: 0, mb: n, me: 31, rc: false });
    }

    /// `rlwinm ra,rs,sh,mb,me`.
    pub fn rlwinm(&mut self, ra: Gpr, rs: Gpr, sh: u8, mb: u8, me: u8) {
        self.emit(Insn::Rlwinm { ra, rs, sh, mb, me, rc: false });
    }

    /// `cntlzw ra,rs`.
    pub fn cntlzw(&mut self, ra: Gpr, rs: Gpr) {
        self.emit(Insn::Unary { op: UnaryOp::Cntlzw, ra, rs, rc: false });
    }

    /// `extsb ra,rs`.
    pub fn extsb(&mut self, ra: Gpr, rs: Gpr) {
        self.emit(Insn::Unary { op: UnaryOp::Extsb, ra, rs, rc: false });
    }

    /// `cmpw bf,ra,rb`.
    pub fn cmpw(&mut self, bf: CrField, ra: Gpr, rb: Gpr) {
        self.emit(Insn::Cmp { bf, signed: true, ra, rb });
    }

    /// `cmpwi bf,ra,imm`.
    pub fn cmpwi(&mut self, bf: CrField, ra: Gpr, imm: i16) {
        self.emit(Insn::CmpImm { bf, signed: true, ra, imm: i32::from(imm) });
    }

    /// `cmplwi bf,ra,imm`.
    pub fn cmplwi(&mut self, bf: CrField, ra: Gpr, imm: u16) {
        self.emit(Insn::CmpImm { bf, signed: false, ra, imm: i32::from(imm) });
    }

    fn dload(&mut self, width: MemWidth, algebraic: bool, rt: Gpr, d: i16, ra: Gpr, update: bool) {
        self.emit(Insn::Load { width, algebraic, update, indexed: false, rt, ra, rb: Gpr(0), d });
    }

    fn xloadi(&mut self, width: MemWidth, algebraic: bool, rt: Gpr, ra: Gpr, rb: Gpr) {
        self.emit(Insn::Load { width, algebraic, update: false, indexed: true, rt, ra, rb, d: 0 });
    }

    /// `lwz rt,d(ra)`.
    pub fn lwz(&mut self, rt: Gpr, d: i16, ra: Gpr) {
        self.dload(MemWidth::Word, false, rt, d, ra, false);
    }

    /// `lwzu rt,d(ra)`.
    pub fn lwzu(&mut self, rt: Gpr, d: i16, ra: Gpr) {
        self.dload(MemWidth::Word, false, rt, d, ra, true);
    }

    /// `lwzx rt,ra,rb`.
    pub fn lwzx(&mut self, rt: Gpr, ra: Gpr, rb: Gpr) {
        self.xloadi(MemWidth::Word, false, rt, ra, rb);
    }

    /// `lbz rt,d(ra)`.
    pub fn lbz(&mut self, rt: Gpr, d: i16, ra: Gpr) {
        self.dload(MemWidth::Byte, false, rt, d, ra, false);
    }

    /// `lbzx rt,ra,rb`.
    pub fn lbzx(&mut self, rt: Gpr, ra: Gpr, rb: Gpr) {
        self.xloadi(MemWidth::Byte, false, rt, ra, rb);
    }

    /// `lhz rt,d(ra)`.
    pub fn lhz(&mut self, rt: Gpr, d: i16, ra: Gpr) {
        self.dload(MemWidth::Half, false, rt, d, ra, false);
    }

    fn dstore(&mut self, width: MemWidth, rs: Gpr, d: i16, ra: Gpr, update: bool) {
        self.emit(Insn::Store { width, update, indexed: false, rs, ra, rb: Gpr(0), d });
    }

    fn xstorei(&mut self, width: MemWidth, rs: Gpr, ra: Gpr, rb: Gpr) {
        self.emit(Insn::Store { width, update: false, indexed: true, rs, ra, rb, d: 0 });
    }

    /// `stw rs,d(ra)`.
    pub fn stw(&mut self, rs: Gpr, d: i16, ra: Gpr) {
        self.dstore(MemWidth::Word, rs, d, ra, false);
    }

    /// `stwx rs,ra,rb`.
    pub fn stwx(&mut self, rs: Gpr, ra: Gpr, rb: Gpr) {
        self.xstorei(MemWidth::Word, rs, ra, rb);
    }

    /// `stb rs,d(ra)`.
    pub fn stb(&mut self, rs: Gpr, d: i16, ra: Gpr) {
        self.dstore(MemWidth::Byte, rs, d, ra, false);
    }

    /// `stbx rs,ra,rb`.
    pub fn stbx(&mut self, rs: Gpr, ra: Gpr, rb: Gpr) {
        self.xstorei(MemWidth::Byte, rs, ra, rb);
    }

    /// `sth rs,d(ra)`.
    pub fn sth(&mut self, rs: Gpr, d: i16, ra: Gpr) {
        self.dstore(MemWidth::Half, rs, d, ra, false);
    }

    /// `sthx rs,ra,rb`.
    pub fn sthx(&mut self, rs: Gpr, ra: Gpr, rb: Gpr) {
        self.xstorei(MemWidth::Half, rs, ra, rb);
    }

    /// `lmw rt,d(ra)`.
    pub fn lmw(&mut self, rt: Gpr, d: i16, ra: Gpr) {
        self.emit(Insn::Lmw { rt, ra, d });
    }

    /// `stmw rs,d(ra)`.
    pub fn stmw(&mut self, rs: Gpr, d: i16, ra: Gpr) {
        self.emit(Insn::Stmw { rs, ra, d });
    }

    /// `b label`.
    pub fn b(&mut self, label: &str) {
        self.items.push(Item::BTo { label: label.to_owned(), lk: false });
    }

    /// `bl label`.
    pub fn bl(&mut self, label: &str) {
        self.items.push(Item::BTo { label: label.to_owned(), lk: true });
    }

    /// `blr`.
    pub fn blr(&mut self) {
        self.emit(Insn::BranchClr { bo: bo::ALWAYS, bi: CrBit(0), lk: false });
    }

    /// `bctr`.
    pub fn bctr(&mut self) {
        self.emit(Insn::BranchCctr { bo: bo::ALWAYS, bi: CrBit(0), lk: false });
    }

    /// Generic conditional branch to a label.
    pub fn bc(&mut self, bo_field: u8, bi: CrBit, label: &str) {
        self.items.push(Item::BcTo { bo: bo_field, bi, label: label.to_owned(), lk: false });
    }

    /// `beq bf,label`.
    pub fn beq(&mut self, bf: CrField, label: &str) {
        self.bc(bo::IF_TRUE, CrBit::new(bf, 2), label);
    }

    /// `bne bf,label`.
    pub fn bne(&mut self, bf: CrField, label: &str) {
        self.bc(bo::IF_FALSE, CrBit::new(bf, 2), label);
    }

    /// `blt bf,label`.
    pub fn blt(&mut self, bf: CrField, label: &str) {
        self.bc(bo::IF_TRUE, CrBit::new(bf, 0), label);
    }

    /// `bge bf,label`.
    pub fn bge(&mut self, bf: CrField, label: &str) {
        self.bc(bo::IF_FALSE, CrBit::new(bf, 0), label);
    }

    /// `bgt bf,label`.
    pub fn bgt(&mut self, bf: CrField, label: &str) {
        self.bc(bo::IF_TRUE, CrBit::new(bf, 1), label);
    }

    /// `ble bf,label`.
    pub fn ble(&mut self, bf: CrField, label: &str) {
        self.bc(bo::IF_FALSE, CrBit::new(bf, 1), label);
    }

    /// `bdnz label` — decrement CTR, branch if nonzero.
    pub fn bdnz(&mut self, label: &str) {
        self.bc(bo::DNZ, CrBit(0), label);
    }

    /// `mflr rt`.
    pub fn mflr(&mut self, rt: Gpr) {
        self.emit(Insn::Mfspr { rt, spr: Spr::Lr });
    }

    /// `mtlr rs`.
    pub fn mtlr(&mut self, rs: Gpr) {
        self.emit(Insn::Mtspr { spr: Spr::Lr, rs });
    }

    /// `mfctr rt`.
    pub fn mfctr(&mut self, rt: Gpr) {
        self.emit(Insn::Mfspr { rt, spr: Spr::Ctr });
    }

    /// `mtctr rs`.
    pub fn mtctr(&mut self, rs: Gpr) {
        self.emit(Insn::Mtspr { spr: Spr::Ctr, rs });
    }

    /// `mfcr rt`.
    pub fn mfcr(&mut self, rt: Gpr) {
        self.emit(Insn::Mfcr { rt });
    }

    /// `mtcrf fxm,rs`.
    pub fn mtcrf(&mut self, fxm: u8, rs: Gpr) {
        self.emit(Insn::Mtcrf { fxm, rs });
    }

    /// `cror bt,ba,bb`.
    pub fn cror(&mut self, bt: CrBit, ba: CrBit, bb: CrBit) {
        self.emit(Insn::CrLogic { op: CrOp::Or, bt, ba, bb });
    }

    /// `sc`.
    pub fn sc(&mut self) {
        self.emit(Insn::Sc);
    }

    /// `rfi`.
    pub fn rfi(&mut self) {
        self.emit(Insn::Rfi);
    }

    /// `twi to,ra,si`.
    pub fn twi(&mut self, to: u8, ra: Gpr, si: i16) {
        self.emit(Insn::Twi { to, ra, si });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Cpu, StopReason};
    use crate::mem::Memory;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Asm::new(0x1000);
        a.li(Gpr(3), 0);
        a.b("fwd");
        a.label("back");
        a.addi(Gpr(3), Gpr(3), 100);
        a.sc();
        a.label("fwd");
        a.addi(Gpr(3), Gpr(3), 1);
        a.b("back");
        let prog = a.finish().unwrap();

        let mut mem = Memory::new(0x10000);
        prog.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(prog.entry);
        assert_eq!(cpu.run(&mut mem, 100).unwrap(), StopReason::Syscall);
        assert_eq!(cpu.gpr[3], 101);
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Asm::new(0);
        a.b("nowhere");
        assert_eq!(a.finish().unwrap_err(), AsmError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn duplicate_label_errors() {
        let mut a = Asm::new(0);
        a.label("x");
        a.nop();
        a.label("x");
        assert!(matches!(a.finish(), Err(AsmError::DuplicateLabel(_))));
    }

    #[test]
    fn la_materializes_label_address() {
        let mut a = Asm::new(0x2000);
        a.la(Gpr(3), "target");
        a.sc();
        a.label("target");
        a.nop();
        let prog = a.finish().unwrap();
        let mut mem = Memory::new(0x10000);
        prog.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(prog.entry);
        cpu.run(&mut mem, 10).unwrap();
        assert_eq!(cpu.gpr[3], prog.addr_of("target"));
    }

    #[test]
    fn li32_covers_large_values() {
        for v in [0u32, 1, 0x7FFF, 0x8000, 0xFFFF_FFFF, 0x1234_5678, 0x8000_0000] {
            let mut a = Asm::new(0x1000);
            a.li32(Gpr(3), v);
            a.sc();
            let prog = a.finish().unwrap();
            let mut mem = Memory::new(0x10000);
            prog.load_into(&mut mem).unwrap();
            let mut cpu = Cpu::new(prog.entry);
            cpu.run(&mut mem, 10).unwrap();
            assert_eq!(cpu.gpr[3], v, "li32({v:#x})");
        }
    }

    #[test]
    fn data_words_are_big_endian() {
        let mut a = Asm::new(0x1000);
        a.sc();
        a.data_words(0x4000, &[0x0102_0304]);
        let prog = a.finish().unwrap();
        let mut mem = Memory::new(0x10000);
        prog.load_into(&mut mem).unwrap();
        assert_eq!(mem.read_u8(0x4000).unwrap(), 1);
        assert_eq!(mem.read_u32(0x4000).unwrap(), 0x0102_0304);
    }

    #[test]
    fn call_and_return() {
        let mut a = Asm::new(0x1000);
        a.li(Gpr(3), 5);
        a.bl("double");
        a.bl("double");
        a.sc();
        a.label("double");
        a.add(Gpr(3), Gpr(3), Gpr(3));
        a.blr();
        let prog = a.finish().unwrap();
        let mut mem = Memory::new(0x10000);
        prog.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(prog.entry);
        cpu.run(&mut mem, 100).unwrap();
        assert_eq!(cpu.gpr[3], 20);
    }
}
