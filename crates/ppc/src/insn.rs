//! The PowerPC instruction subset as a typed enum.
//!
//! The subset covers everything the paper's workloads and mechanisms
//! exercise: full fixed-point arithmetic and logic (including carry and
//! record forms), rotates and shifts, byte/half/word loads and stores
//! (D-form, X-form, and update forms), the CISCy `lmw`/`stmw` multiple
//! transfers (which DAISY decomposes into RISC primitives), all four
//! branch forms with complete BO/BI semantics, CR-logical operations,
//! SPR/MSR/CR moves, traps, `sc` and `rfi`.

use crate::reg::{CrBit, CrField, Gpr, Spr};
use std::fmt;

// Shared with the ISA-neutral layers; historical paths preserved here.
pub use daisy_isa::convert::{BranchInfo, BranchKind};
pub use daisy_vliw::op::{CrOp, MemWidth};

/// Three-register XO-form arithmetic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `add rt,ra,rb`
    Add,
    /// `addc` — add carrying (sets CA).
    Addc,
    /// `adde` — add extended (reads and sets CA).
    Adde,
    /// `subf rt,ra,rb` = rb - ra.
    Subf,
    /// `subfc` — subtract from carrying.
    Subfc,
    /// `subfe` — subtract from extended.
    Subfe,
    /// `mullw` — multiply low word.
    Mullw,
    /// `mulhw` — multiply high word signed.
    Mulhw,
    /// `mulhwu` — multiply high word unsigned.
    Mulhwu,
    /// `divw` — divide word signed.
    Divw,
    /// `divwu` — divide word unsigned.
    Divwu,
}

/// Two-register XO-form arithmetic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arith2Op {
    /// `neg rt,ra`
    Neg,
    /// `addze rt,ra` — add CA to ra.
    Addze,
    /// `addme rt,ra` — add CA - 1 to ra.
    Addme,
    /// `subfze rt,ra` — CA - ra.
    Subfze,
    /// `subfme rt,ra` — CA - ra - 1... (¬ra + CA - 1).
    Subfme,
}

/// X-form register-register logical operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicOp {
    /// `and ra,rs,rb`
    And,
    /// `or ra,rs,rb`
    Or,
    /// `xor ra,rs,rb`
    Xor,
    /// `nand ra,rs,rb`
    Nand,
    /// `nor ra,rs,rb`
    Nor,
    /// `andc ra,rs,rb` — and with complement.
    Andc,
    /// `orc ra,rs,rb` — or with complement.
    Orc,
    /// `eqv ra,rs,rb` — equivalence (xnor).
    Eqv,
}

/// D-form logical-immediate operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicImmOp {
    /// `andi. ra,rs,ui` — always records to cr0.
    Andi,
    /// `andis. ra,rs,ui` — always records to cr0.
    Andis,
    /// `ori ra,rs,ui`
    Ori,
    /// `oris ra,rs,ui`
    Oris,
    /// `xori ra,rs,ui`
    Xori,
    /// `xoris ra,rs,ui`
    Xoris,
}

impl LogicImmOp {
    /// `andi.`/`andis.` record to cr0 by definition.
    pub fn records(self) -> bool {
        matches!(self, LogicImmOp::Andi | LogicImmOp::Andis)
    }
}

/// X-form variable shifts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftOp {
    /// `slw ra,rs,rb` — shift left word.
    Slw,
    /// `srw ra,rs,rb` — shift right word logical.
    Srw,
    /// `sraw ra,rs,rb` — shift right algebraic (sets CA).
    Sraw,
}

/// Single-source X-form operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `cntlzw ra,rs` — count leading zeros.
    Cntlzw,
    /// `extsb ra,rs` — sign-extend byte.
    Extsb,
    /// `extsh ra,rs` — sign-extend half.
    Extsh,
}

/// A decoded PowerPC instruction.
///
/// Field names follow the architecture manual: `rt` target, `ra`/`rb`
/// sources, `rs` store/logical source, `si` signed immediate, `ui`
/// unsigned immediate, `bo`/`bi` branch operand/condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `addi rt,ra,si`; `ra = r0` means the literal value 0 (`li`).
    Addi { rt: Gpr, ra: Gpr, si: i16 },
    /// `addis rt,ra,si` — add shifted immediate; `ra = r0` literal 0 (`lis`).
    Addis { rt: Gpr, ra: Gpr, si: i16 },
    /// `addic`/`addic.` — add immediate carrying; the paper's `ai`.
    Addic { rt: Gpr, ra: Gpr, si: i16, rc: bool },
    /// `subfic rt,ra,si` = si - ra, sets CA.
    Subfic { rt: Gpr, ra: Gpr, si: i16 },
    /// `mulli rt,ra,si`
    Mulli { rt: Gpr, ra: Gpr, si: i16 },
    /// Three-register XO-form arithmetic.
    Arith { op: ArithOp, rt: Gpr, ra: Gpr, rb: Gpr, oe: bool, rc: bool },
    /// Two-register XO-form arithmetic.
    Arith2 { op: Arith2Op, rt: Gpr, ra: Gpr, oe: bool, rc: bool },
    /// Register-register logical.
    Logic { op: LogicOp, ra: Gpr, rs: Gpr, rb: Gpr, rc: bool },
    /// Logical immediate.
    LogicImm { op: LogicImmOp, ra: Gpr, rs: Gpr, ui: u16 },
    /// Variable shift.
    Shift { op: ShiftOp, ra: Gpr, rs: Gpr, rb: Gpr, rc: bool },
    /// `srawi ra,rs,sh` — shift right algebraic immediate (sets CA).
    Srawi { ra: Gpr, rs: Gpr, sh: u8, rc: bool },
    /// `rlwinm ra,rs,sh,mb,me` — rotate left and AND with mask.
    Rlwinm { ra: Gpr, rs: Gpr, sh: u8, mb: u8, me: u8, rc: bool },
    /// `rlwimi ra,rs,sh,mb,me` — rotate left and insert under mask.
    Rlwimi { ra: Gpr, rs: Gpr, sh: u8, mb: u8, me: u8, rc: bool },
    /// `rlwnm ra,rs,rb,mb,me` — rotate left by register and AND with mask.
    Rlwnm { ra: Gpr, rs: Gpr, rb: Gpr, mb: u8, me: u8, rc: bool },
    /// Single-source operation.
    Unary { op: UnaryOp, ra: Gpr, rs: Gpr, rc: bool },
    /// `cmp`/`cmpl bf,ra,rb`
    Cmp { bf: CrField, signed: bool, ra: Gpr, rb: Gpr },
    /// `cmpi`/`cmpli bf,ra,imm` — immediate already extended to 32 bits.
    CmpImm { bf: CrField, signed: bool, ra: Gpr, imm: i32 },
    /// Any load: `l{b,h,w}z[u][x]`, `lha[u][x]`.
    Load {
        width: MemWidth,
        /// Algebraic (sign-extending) load — only `lha` forms.
        algebraic: bool,
        /// Update form: write the effective address back to `ra`.
        update: bool,
        /// X-form: effective address is `ra|0 + rb` instead of `ra|0 + d`.
        indexed: bool,
        rt: Gpr,
        ra: Gpr,
        rb: Gpr,
        d: i16,
    },
    /// Any store: `st{b,h,w}[u][x]`.
    Store { width: MemWidth, update: bool, indexed: bool, rs: Gpr, ra: Gpr, rb: Gpr, d: i16 },
    /// `lmw rt,d(ra)` — load multiple words rt..r31 (CISCy; decomposed by DAISY).
    Lmw { rt: Gpr, ra: Gpr, d: i16 },
    /// `stmw rs,d(ra)` — store multiple words rs..r31.
    Stmw { rs: Gpr, ra: Gpr, d: i16 },
    /// `b`/`ba`/`bl`/`bla` — I-form branch, `li` is the 26-bit byte displacement.
    BranchI { li: i32, aa: bool, lk: bool },
    /// `bc`/`bca`/`bcl`/`bcla` — B-form conditional branch.
    BranchC { bo: u8, bi: CrBit, bd: i16, aa: bool, lk: bool },
    /// `bclr` — branch conditional to link register (`blr`).
    BranchClr { bo: u8, bi: CrBit, lk: bool },
    /// `bcctr` — branch conditional to count register (`bctr`).
    BranchCctr { bo: u8, bi: CrBit, lk: bool },
    /// CR-logical operation on individual CR bits.
    CrLogic { op: CrOp, bt: CrBit, ba: CrBit, bb: CrBit },
    /// `mcrf bf,bfa` — move CR field.
    Mcrf { bf: CrField, bfa: CrField },
    /// `mfcr rt` — move all 8 CR fields to a GPR.
    Mfcr { rt: Gpr },
    /// `mtcrf fxm,rs` — move GPR to the CR fields selected by `fxm`.
    Mtcrf { fxm: u8, rs: Gpr },
    /// `mfspr rt,spr`
    Mfspr { rt: Gpr, spr: Spr },
    /// `mtspr spr,rs`
    Mtspr { spr: Spr, rs: Gpr },
    /// `mfmsr rt` — privileged.
    Mfmsr { rt: Gpr },
    /// `mtmsr rs` — privileged.
    Mtmsr { rs: Gpr },
    /// `sc` — system call.
    Sc,
    /// `rfi` — return from interrupt; privileged.
    Rfi,
    /// `sync` — memory barrier (no-op in this single-processor model).
    Sync,
    /// `isync` — instruction barrier.
    Isync,
    /// `eieio` — enforce in-order I/O.
    Eieio,
    /// `tw to,ra,rb` — trap word on condition.
    Tw { to: u8, ra: Gpr, rb: Gpr },
    /// `twi to,ra,si` — trap word immediate.
    Twi { to: u8, ra: Gpr, si: i16 },
    /// A word that does not decode to a supported instruction.
    Invalid(u32),
}

/// BO-field helpers (PowerPC numbers BO bits 0..4 most-significant first).
pub mod bo {
    /// Branch always.
    pub const ALWAYS: u8 = 0b10100;
    /// Branch if condition bit is true.
    pub const IF_TRUE: u8 = 0b01100;
    /// Branch if condition bit is false.
    pub const IF_FALSE: u8 = 0b00100;
    /// Decrement CTR, branch if CTR != 0 (`bdnz`).
    pub const DNZ: u8 = 0b10000;
    /// Decrement CTR, branch if CTR == 0 (`bdz`).
    pub const DZ: u8 = 0b10010;

    /// True if the BO encoding ignores the condition bit.
    pub fn ignores_cond(bo_field: u8) -> bool {
        bo_field & 0b10000 != 0
    }

    /// True if the BO encoding wants the condition bit set.
    pub fn wants_true(bo_field: u8) -> bool {
        bo_field & 0b01000 != 0
    }

    /// True if the BO encoding does not touch CTR.
    pub fn ignores_ctr(bo_field: u8) -> bool {
        bo_field & 0b00100 != 0
    }

    /// True if the BO encoding wants CTR == 0 after decrement.
    pub fn wants_ctr_zero(bo_field: u8) -> bool {
        bo_field & 0b00010 != 0
    }

    /// True if this BO makes the branch unconditional (ignores both
    /// condition and CTR).
    pub fn unconditional(bo_field: u8) -> bool {
        ignores_cond(bo_field) && ignores_ctr(bo_field)
    }
}

impl Insn {
    /// Returns control-flow information if this instruction is a branch,
    /// resolving direct targets against the branch's own address `pc`.
    pub fn branch_info(&self, pc: u32) -> Option<BranchInfo> {
        match *self {
            Insn::BranchI { li, aa, lk } => Some(BranchInfo {
                kind: BranchKind::Direct(if aa { li as u32 } else { pc.wrapping_add(li as u32) }),
                unconditional: true,
                links: lk,
                decrements_ctr: false,
            }),
            Insn::BranchC { bo: b, bd, aa, lk, .. } => Some(BranchInfo {
                kind: BranchKind::Direct(if aa {
                    bd as i32 as u32
                } else {
                    pc.wrapping_add(bd as i32 as u32)
                }),
                unconditional: bo::unconditional(b),
                links: lk,
                decrements_ctr: !bo::ignores_ctr(b),
            }),
            Insn::BranchClr { bo: b, lk, .. } => Some(BranchInfo {
                kind: BranchKind::ViaLr,
                unconditional: bo::unconditional(b),
                links: lk,
                decrements_ctr: !bo::ignores_ctr(b),
            }),
            Insn::BranchCctr { bo: b, lk, .. } => Some(BranchInfo {
                kind: BranchKind::ViaCtr,
                unconditional: bo::unconditional(b),
                links: lk,
                decrements_ctr: false,
            }),
            _ => None,
        }
    }

    /// True for loads (including `lmw`).
    pub fn is_load(&self) -> bool {
        matches!(self, Insn::Load { .. } | Insn::Lmw { .. })
    }

    /// True for stores (including `stmw`).
    pub fn is_store(&self) -> bool {
        matches!(self, Insn::Store { .. } | Insn::Stmw { .. })
    }

    /// True for instructions only supervisor state may execute.
    pub fn is_privileged(&self) -> bool {
        match self {
            Insn::Rfi | Insn::Mtmsr { .. } | Insn::Mfmsr { .. } => true,
            Insn::Mfspr { spr, .. } | Insn::Mtspr { spr, .. } => !spr.user_accessible(),
            _ => false,
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rc(b: bool) -> &'static str {
            if b {
                "."
            } else {
                ""
            }
        }
        match *self {
            Insn::Addi { rt, ra, si } => write!(f, "addi {rt},{ra},{si}"),
            Insn::Addis { rt, ra, si } => write!(f, "addis {rt},{ra},{si}"),
            Insn::Addic { rt, ra, si, rc: r } => write!(f, "addic{} {rt},{ra},{si}", rc(r)),
            Insn::Subfic { rt, ra, si } => write!(f, "subfic {rt},{ra},{si}"),
            Insn::Mulli { rt, ra, si } => write!(f, "mulli {rt},{ra},{si}"),
            Insn::Arith { op, rt, ra, rb, oe, rc: r } => {
                let n = match op {
                    ArithOp::Add => "add",
                    ArithOp::Addc => "addc",
                    ArithOp::Adde => "adde",
                    ArithOp::Subf => "subf",
                    ArithOp::Subfc => "subfc",
                    ArithOp::Subfe => "subfe",
                    ArithOp::Mullw => "mullw",
                    ArithOp::Mulhw => "mulhw",
                    ArithOp::Mulhwu => "mulhwu",
                    ArithOp::Divw => "divw",
                    ArithOp::Divwu => "divwu",
                };
                write!(f, "{n}{}{} {rt},{ra},{rb}", if oe { "o" } else { "" }, rc(r))
            }
            Insn::Arith2 { op, rt, ra, oe, rc: r } => {
                let n = match op {
                    Arith2Op::Neg => "neg",
                    Arith2Op::Addze => "addze",
                    Arith2Op::Addme => "addme",
                    Arith2Op::Subfze => "subfze",
                    Arith2Op::Subfme => "subfme",
                };
                write!(f, "{n}{}{} {rt},{ra}", if oe { "o" } else { "" }, rc(r))
            }
            Insn::Logic { op, ra, rs, rb, rc: r } => {
                let n = match op {
                    LogicOp::And => "and",
                    LogicOp::Or => "or",
                    LogicOp::Xor => "xor",
                    LogicOp::Nand => "nand",
                    LogicOp::Nor => "nor",
                    LogicOp::Andc => "andc",
                    LogicOp::Orc => "orc",
                    LogicOp::Eqv => "eqv",
                };
                write!(f, "{n}{} {ra},{rs},{rb}", rc(r))
            }
            Insn::LogicImm { op, ra, rs, ui } => {
                let n = match op {
                    LogicImmOp::Andi => "andi.",
                    LogicImmOp::Andis => "andis.",
                    LogicImmOp::Ori => "ori",
                    LogicImmOp::Oris => "oris",
                    LogicImmOp::Xori => "xori",
                    LogicImmOp::Xoris => "xoris",
                };
                write!(f, "{n} {ra},{rs},{ui}")
            }
            Insn::Shift { op, ra, rs, rb, rc: r } => {
                let n = match op {
                    ShiftOp::Slw => "slw",
                    ShiftOp::Srw => "srw",
                    ShiftOp::Sraw => "sraw",
                };
                write!(f, "{n}{} {ra},{rs},{rb}", rc(r))
            }
            Insn::Srawi { ra, rs, sh, rc: r } => write!(f, "srawi{} {ra},{rs},{sh}", rc(r)),
            Insn::Rlwinm { ra, rs, sh, mb, me, rc: r } => {
                write!(f, "rlwinm{} {ra},{rs},{sh},{mb},{me}", rc(r))
            }
            Insn::Rlwimi { ra, rs, sh, mb, me, rc: r } => {
                write!(f, "rlwimi{} {ra},{rs},{sh},{mb},{me}", rc(r))
            }
            Insn::Rlwnm { ra, rs, rb, mb, me, rc: r } => {
                write!(f, "rlwnm{} {ra},{rs},{rb},{mb},{me}", rc(r))
            }
            Insn::Unary { op, ra, rs, rc: r } => {
                let n = match op {
                    UnaryOp::Cntlzw => "cntlzw",
                    UnaryOp::Extsb => "extsb",
                    UnaryOp::Extsh => "extsh",
                };
                write!(f, "{n}{} {ra},{rs}", rc(r))
            }
            Insn::Cmp { bf, signed, ra, rb } => {
                write!(f, "{} {bf},{ra},{rb}", if signed { "cmpw" } else { "cmplw" })
            }
            Insn::CmpImm { bf, signed, ra, imm } => {
                write!(f, "{} {bf},{ra},{imm}", if signed { "cmpwi" } else { "cmplwi" })
            }
            Insn::Load { width, algebraic, update, indexed, rt, ra, rb, d } => {
                let w = match width {
                    MemWidth::Byte => "b",
                    MemWidth::Half => "h",
                    MemWidth::Word => "w",
                };
                let z = if algebraic { "a" } else { "z" };
                let u = if update { "u" } else { "" };
                if indexed {
                    write!(f, "l{w}{z}{u}x {rt},{ra},{rb}")
                } else {
                    write!(f, "l{w}{z}{u} {rt},{d}({ra})")
                }
            }
            Insn::Store { width, update, indexed, rs, ra, rb, d } => {
                let w = match width {
                    MemWidth::Byte => "b",
                    MemWidth::Half => "h",
                    MemWidth::Word => "w",
                };
                let u = if update { "u" } else { "" };
                if indexed {
                    write!(f, "st{w}{u}x {rs},{ra},{rb}")
                } else {
                    write!(f, "st{w}{u} {rs},{d}({ra})")
                }
            }
            Insn::Lmw { rt, ra, d } => write!(f, "lmw {rt},{d}({ra})"),
            Insn::Stmw { rs, ra, d } => write!(f, "stmw {rs},{d}({ra})"),
            Insn::BranchI { li, aa, lk } => {
                write!(f, "b{}{} {li:+}", if lk { "l" } else { "" }, if aa { "a" } else { "" })
            }
            Insn::BranchC { bo, bi, bd, aa, lk } => write!(
                f,
                "bc{}{} {bo},{bi},{bd:+}",
                if lk { "l" } else { "" },
                if aa { "a" } else { "" }
            ),
            Insn::BranchClr { bo, bi, lk } => {
                write!(f, "bclr{} {bo},{bi}", if lk { "l" } else { "" })
            }
            Insn::BranchCctr { bo, bi, lk } => {
                write!(f, "bcctr{} {bo},{bi}", if lk { "l" } else { "" })
            }
            Insn::CrLogic { op, bt, ba, bb } => {
                let n = match op {
                    CrOp::And => "crand",
                    CrOp::Or => "cror",
                    CrOp::Xor => "crxor",
                    CrOp::Nand => "crnand",
                    CrOp::Nor => "crnor",
                    CrOp::Eqv => "creqv",
                    CrOp::Andc => "crandc",
                    CrOp::Orc => "crorc",
                };
                write!(f, "{n} {},{},{}", bt.0, ba.0, bb.0)
            }
            Insn::Mcrf { bf, bfa } => write!(f, "mcrf {bf},{bfa}"),
            Insn::Mfcr { rt } => write!(f, "mfcr {rt}"),
            Insn::Mtcrf { fxm, rs } => write!(f, "mtcrf {fxm:#x},{rs}"),
            Insn::Mfspr { rt, spr } => write!(f, "mfspr {rt},{spr}"),
            Insn::Mtspr { spr, rs } => write!(f, "mtspr {spr},{rs}"),
            Insn::Mfmsr { rt } => write!(f, "mfmsr {rt}"),
            Insn::Mtmsr { rs } => write!(f, "mtmsr {rs}"),
            Insn::Sc => write!(f, "sc"),
            Insn::Rfi => write!(f, "rfi"),
            Insn::Sync => write!(f, "sync"),
            Insn::Isync => write!(f, "isync"),
            Insn::Eieio => write!(f, "eieio"),
            Insn::Tw { to, ra, rb } => write!(f, "tw {to},{ra},{rb}"),
            Insn::Twi { to, ra, si } => write!(f, "twi {to},{ra},{si}"),
            Insn::Invalid(w) => write!(f, ".long {w:#010x}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_info_direct_relative() {
        let i = Insn::BranchI { li: -8, aa: false, lk: false };
        let info = i.branch_info(0x100).unwrap();
        assert_eq!(info.kind, BranchKind::Direct(0xF8));
        assert!(info.unconditional);
        assert!(!info.links);
    }

    #[test]
    fn branch_info_absolute() {
        let i = Insn::BranchI { li: 0x2000, aa: true, lk: true };
        let info = i.branch_info(0x100).unwrap();
        assert_eq!(info.kind, BranchKind::Direct(0x2000));
        assert!(info.links);
    }

    #[test]
    fn bo_semantics() {
        assert!(bo::unconditional(bo::ALWAYS));
        assert!(!bo::unconditional(bo::IF_TRUE));
        assert!(bo::wants_true(bo::IF_TRUE));
        assert!(!bo::wants_true(bo::IF_FALSE));
        assert!(!bo::ignores_ctr(bo::DNZ));
        assert!(bo::wants_ctr_zero(bo::DZ));
    }

    #[test]
    fn conditional_bc_is_not_unconditional() {
        let i = Insn::BranchC { bo: bo::IF_TRUE, bi: CrBit(2), bd: 16, aa: false, lk: false };
        let info = i.branch_info(0x1000).unwrap();
        assert!(!info.unconditional);
        assert_eq!(info.kind, BranchKind::Direct(0x1010));
    }

    #[test]
    fn classification() {
        assert!(Insn::Lmw { rt: Gpr(29), ra: Gpr(1), d: 0 }.is_load());
        assert!(Insn::Stmw { rs: Gpr(29), ra: Gpr(1), d: 0 }.is_store());
        assert!(Insn::Rfi.is_privileged());
        assert!(Insn::Mfspr { rt: Gpr(0), spr: Spr::Srr0 }.is_privileged());
        assert!(!Insn::Mfspr { rt: Gpr(0), spr: Spr::Lr }.is_privileged());
    }

    #[test]
    fn display_smoke() {
        let i = Insn::Load {
            width: MemWidth::Word,
            algebraic: false,
            update: false,
            indexed: false,
            rt: Gpr(5),
            ra: Gpr(3),
            rb: Gpr(0),
            d: 8,
        };
        assert_eq!(i.to_string(), "lwz r5,8(r3)");
    }
}
