//! RISC primitive operations of the migrant VLIW and their semantics.
//!
//! The DAISY translator converts each base-architecture instruction into
//! one or more of these primitives (paper §2: "converted into RISC
//! primitives (if a CISCy operation)"). The operation set is a superset
//! of the PowerPC fixed-point primitives, plus emulation-support
//! operations the paper calls out in §2.2 and Appendix D:
//!
//! * `ExtractField` — the paper's `mtcrf2`, moving one 4-bit field,
//! * `XerExtract`/`XerCompose` — explicit CA/OV/SO bit manipulation so
//!   carry chains can rename (Appendix D's "extender bits"),
//! * explicit `Copy` commits that move speculative results into
//!   architected registers in original program order.
//!
//! [`eval`] gives the side-effect-free semantics of every non-memory
//! primitive, shared by the execution engine, the oracle scheduler, and
//! the baselines.

use crate::reg::Reg;
use std::fmt;

/// CR-logical operations (from PowerPC's op-19 family; the primitive
/// repertoire keeps them because they are ordinary 1-bit ALU ops).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrOp {
    /// `crand bt,ba,bb`
    And,
    /// `cror bt,ba,bb`
    Or,
    /// `crxor bt,ba,bb`
    Xor,
    /// `crnand bt,ba,bb`
    Nand,
    /// `crnor bt,ba,bb`
    Nor,
    /// `creqv bt,ba,bb`
    Eqv,
    /// `crandc bt,ba,bb`
    Andc,
    /// `crorc bt,ba,bb`
    Orc,
}

/// Access width of a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    Byte,
    /// 2 bytes (big-endian).
    Half,
    /// 4 bytes (big-endian).
    Word,
}

impl MemWidth {
    /// Width in bytes.
    #[inline]
    pub fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        }
    }
}

/// Rotate-left-word mask for `mb..me` in big-endian bit numbering
/// (bit 0 = MSB), with the wrap-around form when `mb > me`.
pub fn rlw_mask(mb: u8, me: u8) -> u32 {
    let m1 = 0xFFFF_FFFFu32 >> (mb & 31);
    let m2 = 0xFFFF_FFFFu32 << (31 - (me & 31));
    if mb <= me {
        m1 & m2
    } else {
        m1 | m2
    }
}

/// 4-bit condition value comparing `a` against `b` (LT/GT/EQ bits plus
/// a summary-overflow copy in the low bit).
#[inline]
pub fn compare(a: u32, b: u32, signed: bool, so: bool) -> u32 {
    let ord = if signed { (a as i32).cmp(&(b as i32)) } else { a.cmp(&b) };
    let base = match ord {
        std::cmp::Ordering::Less => 0b1000,
        std::cmp::Ordering::Greater => 0b0100,
        std::cmp::Ordering::Equal => 0b0010,
    };
    base | u32::from(so)
}

/// Evaluates a trap-word condition field against two operands.
#[inline]
pub fn trap_taken(to: u8, a: u32, b: u32) -> bool {
    let sa = a as i32;
    let sb = b as i32;
    (to & 16 != 0 && sa < sb)
        || (to & 8 != 0 && sa > sb)
        || (to & 4 != 0 && a == b)
        || (to & 2 != 0 && a < b)
        || (to & 1 != 0 && a > b)
}

/// The operation repertoire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// No operation (padding, valid-entry markers).
    Nop,
    /// `dest = imm`.
    Li,
    /// `dest = src0` — also the *commit* primitive.
    Copy,
    /// `dest = src0 + src1`.
    Add,
    /// `dest = src1 - src0` (PowerPC `subf` convention).
    Subf,
    /// `dest = src0 + imm`.
    AddImm,
    /// `dest = src0 * src1` (low 32 bits).
    Mul,
    /// `dest = src0 * imm` (low 32 bits, signed immediate).
    MulImm,
    /// Signed high 32 bits of the product.
    Mulh,
    /// Unsigned high 32 bits of the product.
    Mulhu,
    /// Signed division (0 on divide-by-zero/overflow, like PowerPC).
    Div,
    /// Unsigned division.
    Divu,
    /// `dest = -src0`.
    Neg,
    /// `dest = src0 + src1`, carry-out to dest2.
    AddC,
    /// `dest = src0 + src1 + src2(carry)`, carry-out to dest2.
    AddE,
    /// `dest = src1 - src0` with carry-out (PowerPC `subfc`).
    SubfC,
    /// `dest = ¬src0 + src1 + src2(carry)`, carry-out (PowerPC `subfe`).
    SubfE,
    /// `dest = src0 + src1(carry)`, carry-out (PowerPC `addze`).
    AddZe,
    /// `dest = src0 + src1(carry) - 1`, carry-out (PowerPC `addme`).
    AddMe,
    /// `dest = ¬src0 + src1(carry)`, carry-out (PowerPC `subfze`).
    SubfZe,
    /// `dest = ¬src0 + src1(carry) - 1`, carry-out (PowerPC `subfme`).
    SubfMe,
    /// `dest = src0 + imm`, carry-out to dest2 (PowerPC `addic`).
    AddImmC,
    /// `dest = imm - src0`, carry-out to dest2 (PowerPC `subfic`).
    SubfImmC,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Bitwise nand.
    Nand,
    /// Bitwise nor.
    Nor,
    /// `src0 & !src1`.
    Andc,
    /// `src0 | !src1`.
    Orc,
    /// `!(src0 ^ src1)`.
    Eqv,
    /// `src0 & imm2`.
    AndImm,
    /// `src0 | imm2`.
    OrImm,
    /// `src0 ^ imm2`.
    XorImm,
    /// Shift left by `src1 & 63` (0 if ≥ 32).
    Sll,
    /// Shift right logical by `src1 & 63`.
    Srl,
    /// Shift right algebraic by `src1 & 63`, carry-out to dest2.
    Sra,
    /// Shift right algebraic by `imm`, carry-out to dest2.
    SraImm,
    /// `rotl(src0, imm) & imm2` (rlwinm).
    RotlImmMask,
    /// `rotl(src0, src1 & 31) & imm2` (rlwnm).
    RotlRegMask,
    /// `(rotl(src0, imm) & imm2) | (src1 & !imm2)` (rlwimi).
    RotlImmInsert,
    /// Count leading zeros.
    Cntlz,
    /// Sign-extend byte.
    Extsb,
    /// Sign-extend halfword.
    Exts,
    /// Signed compare: `src0` vs `src1`, SO copy from `src2` → 4-bit field.
    CmpS,
    /// Unsigned compare.
    CmpU,
    /// Signed compare against `imm`, SO copy from `src1`.
    CmpSImm,
    /// Unsigned compare against `imm as u32`, SO copy from `src1`.
    CmpUImm,
    /// CR-logical on bits of fields: dest field gets bit `bt` updated
    /// from `op(src0[ba], src1[bb])`; `src2` is the old dest field.
    CrBit {
        /// The boolean operation.
        op: CrOp,
        /// Target bit within the destination field (0..4).
        bt: u8,
        /// Source bit within `src0`'s field.
        ba: u8,
        /// Source bit within `src1`'s field.
        bb: u8,
    },
    /// `dest(field) = (src0 >> (4*(7-imm))) & 0xF` — the paper's `mtcrf2`.
    ExtractField,
    /// `dest = src0 | ((src1 & 0xF) << (4*(7-imm)))` — mfcr accumulation.
    InsertField,
    /// `dest = (src0(CA) << 29) | (src1(OV) << 30) | (src2(SO) << 31)` — read XER.
    XerCompose,
    /// `dest = (src0 >> imm) & 1` — extract an XER bit to CA/OV/SO.
    XerExtract,
    /// Trap if `to`-condition holds between `src0` and `src1`
    /// (never speculative).
    TrapIf {
        /// The PowerPC TO condition field.
        to: u8,
    },
    /// Memory load.
    Load {
        /// Access width.
        width: MemWidth,
        /// Sign-extending (lha).
        algebraic: bool,
    },
    /// Memory store: value = src0, address = src1 (+ src2 if present) + imm.
    Store {
        /// Access width.
        width: MemWidth,
    },
}

impl OpKind {
    /// True for loads.
    #[inline]
    pub fn is_load(self) -> bool {
        matches!(self, OpKind::Load { .. })
    }

    /// True for stores.
    #[inline]
    pub fn is_store(self) -> bool {
        matches!(self, OpKind::Store { .. })
    }

    /// True for memory operations.
    #[inline]
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }
}

/// A scheduled RISC primitive: an operation plus its operands and the
/// bookkeeping DAISY needs (speculation flag, originating base-
/// architecture instruction, commit marker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operation {
    /// What to compute.
    pub kind: OpKind,
    /// Primary result register.
    pub dest: Option<Reg>,
    /// Secondary result (carry-out), renamed together with `dest`.
    pub dest2: Option<Reg>,
    srcs: [Reg; 3],
    nsrc: u8,
    /// Signed immediate (displacements, shift counts, compare values).
    pub imm: i32,
    /// Unsigned immediate (masks).
    pub imm2: u32,
    /// Executed out of order with a renamed destination: errors set the
    /// exception tag instead of faulting (paper §2.1).
    pub speculative: bool,
    /// A load that was moved above one or more stores and must be
    /// verified at commit (paper §2.1, Table 5.7).
    pub bypassed_store: bool,
    /// The base-architecture instruction address this primitive came from.
    pub base_addr: u32,
    /// True for the in-order commit copy of a renamed result.
    pub is_commit: bool,
}

impl Operation {
    /// Creates an operation with no operands.
    #[inline]
    pub fn new(kind: OpKind, base_addr: u32) -> Operation {
        Operation {
            kind,
            dest: None,
            dest2: None,
            srcs: [Reg(0); 3],
            nsrc: 0,
            imm: 0,
            imm2: 0,
            speculative: false,
            bypassed_store: false,
            base_addr,
            is_commit: false,
        }
    }

    /// Sets the destination.
    #[must_use]
    #[inline]
    pub fn dst(mut self, r: Reg) -> Operation {
        self.dest = Some(r);
        self
    }

    /// Sets the carry-out destination.
    #[must_use]
    #[inline]
    pub fn dst2(mut self, r: Reg) -> Operation {
        self.dest2 = Some(r);
        self
    }

    /// Appends a source operand.
    ///
    /// # Panics
    ///
    /// Panics if more than three sources are added.
    #[must_use]
    #[inline]
    pub fn src(mut self, r: Reg) -> Operation {
        assert!(self.nsrc < 3, "operation has at most 3 sources");
        self.srcs[self.nsrc as usize] = r;
        self.nsrc += 1;
        self
    }

    /// Sets the signed immediate.
    #[must_use]
    #[inline]
    pub fn with_imm(mut self, v: i32) -> Operation {
        self.imm = v;
        self
    }

    /// Sets the mask immediate.
    #[must_use]
    #[inline]
    pub fn with_imm2(mut self, v: u32) -> Operation {
        self.imm2 = v;
        self
    }

    /// The source operands.
    #[inline]
    pub fn srcs(&self) -> &[Reg] {
        &self.srcs[..self.nsrc as usize]
    }

    /// Replaces source `i`.
    #[inline]
    pub fn set_src(&mut self, i: usize, r: Reg) {
        assert!(i < self.nsrc as usize);
        self.srcs[i] = r;
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(d) = self.dest {
            write!(f, "{d}")?;
            if let Some(d2) = self.dest2 {
                write!(f, "/{d2}")?;
            }
            write!(f, " = ")?;
        }
        write!(f, "{:?}", self.kind)?;
        for (i, s) in self.srcs().iter().enumerate() {
            write!(f, "{}{s}", if i == 0 { " " } else { "," })?;
        }
        if self.imm != 0 {
            write!(f, " #{}", self.imm)?;
        }
        if self.imm2 != 0 {
            write!(f, " m{:#x}", self.imm2)?;
        }
        if self.speculative {
            write!(f, " (spec)")?;
        }
        if self.is_commit {
            write!(f, " (commit)")?;
        }
        Ok(())
    }
}

/// Result of evaluating a non-memory primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalOut {
    /// A value, with an optional carry-out for `dest2`.
    Value {
        /// The primary result.
        v: u32,
        /// Carry-out, when the op produces one.
        carry: Option<bool>,
    },
    /// A trap primitive: whether the trap fires.
    Trap(bool),
    /// Memory ops have no pure evaluation.
    Memory,
}

fn carry_sum(a: u32, b: u32, c: u32) -> (u32, bool) {
    let s = u64::from(a) + u64::from(b) + u64::from(c);
    (s as u32, s >> 32 != 0)
}

/// Evaluates an operation over its source values.
///
/// `vals[i]` is the runtime value of `op.srcs()[i]`. Memory operations
/// return [`EvalOut::Memory`]; use [`effective_address`] and the engine
/// for those. Always inlined: the packed engine's hot loop expands the
/// evaluation match at the call site, so primitive dispatch costs no
/// function call.
///
/// # Panics
///
/// Panics if `vals` is shorter than the operation's source list.
#[inline(always)]
pub fn eval(op: &Operation, vals: &[u32]) -> EvalOut {
    use OpKind::*;
    let v = |i: usize| vals[i];
    let value = |x: u32| EvalOut::Value { v: x, carry: None };
    let with_carry = |(x, c): (u32, bool)| EvalOut::Value { v: x, carry: Some(c) };
    match op.kind {
        Nop => value(0),
        Li => value(op.imm as u32),
        Copy => value(v(0)),
        Add => value(v(0).wrapping_add(v(1))),
        Subf => value(v(1).wrapping_sub(v(0))),
        AddImm => value(v(0).wrapping_add(op.imm as u32)),
        Mul => value((v(0) as i32).wrapping_mul(v(1) as i32) as u32),
        MulImm => value((v(0) as i32).wrapping_mul(op.imm) as u32),
        Mulh => value(((i64::from(v(0) as i32) * i64::from(v(1) as i32)) >> 32) as u32),
        Mulhu => value(((u64::from(v(0)) * u64::from(v(1))) >> 32) as u32),
        Div => {
            let (a, b) = (v(0) as i32, v(1) as i32);
            value(if b == 0 || (a == i32::MIN && b == -1) { 0 } else { (a / b) as u32 })
        }
        Divu => value(if v(1) == 0 { 0 } else { v(0) / v(1) }),
        Neg => value((!v(0)).wrapping_add(1)),
        AddC => with_carry(carry_sum(v(0), v(1), 0)),
        AddE => with_carry(carry_sum(v(0), v(1), v(2) & 1)),
        SubfC => with_carry(carry_sum(!v(0), v(1), 1)),
        SubfE => with_carry(carry_sum(!v(0), v(1), v(2) & 1)),
        AddZe => with_carry(carry_sum(v(0), v(1) & 1, 0)),
        AddMe => with_carry(carry_sum(v(0), 0xFFFF_FFFF, v(1) & 1)),
        SubfZe => with_carry(carry_sum(!v(0), v(1) & 1, 0)),
        SubfMe => with_carry(carry_sum(!v(0), 0xFFFF_FFFF, v(1) & 1)),
        AddImmC => with_carry(carry_sum(v(0), op.imm as u32, 0)),
        SubfImmC => with_carry(carry_sum(!v(0), op.imm as u32, 1)),
        And => value(v(0) & v(1)),
        Or => value(v(0) | v(1)),
        Xor => value(v(0) ^ v(1)),
        Nand => value(!(v(0) & v(1))),
        Nor => value(!(v(0) | v(1))),
        Andc => value(v(0) & !v(1)),
        Orc => value(v(0) | !v(1)),
        Eqv => value(!(v(0) ^ v(1))),
        AndImm => value(v(0) & op.imm2),
        OrImm => value(v(0) | op.imm2),
        XorImm => value(v(0) ^ op.imm2),
        Sll => {
            let n = v(1) & 0x3F;
            value(if n >= 32 { 0 } else { v(0) << n })
        }
        Srl => {
            let n = v(1) & 0x3F;
            value(if n >= 32 { 0 } else { v(0) >> n })
        }
        Sra => with_carry(sra(v(0), v(1) & 0x3F)),
        SraImm => with_carry(sra(v(0), op.imm as u32 & 31)),
        RotlImmMask => value(v(0).rotate_left(op.imm as u32 & 31) & op.imm2),
        RotlRegMask => value(v(0).rotate_left(v(1) & 31) & op.imm2),
        RotlImmInsert => {
            value((v(0).rotate_left(op.imm as u32 & 31) & op.imm2) | (v(1) & !op.imm2))
        }
        Cntlz => value(v(0).leading_zeros()),
        Extsb => value(v(0) as u8 as i8 as i32 as u32),
        Exts => value(v(0) as u16 as i16 as i32 as u32),
        CmpS => value(compare(v(0), v(1), true, v(2) & 1 != 0)),
        CmpU => value(compare(v(0), v(1), false, v(2) & 1 != 0)),
        CmpSImm => value(compare(v(0), op.imm as u32, true, v(1) & 1 != 0)),
        CmpUImm => value(compare(v(0), op.imm as u32, false, v(1) & 1 != 0)),
        CrBit { op: o, bt, ba, bb } => {
            let bit = |field: u32, i: u8| (field >> (3 - i)) & 1 != 0;
            let a = bit(v(0), ba);
            let b = bit(v(1), bb);
            let r = match o {
                CrOp::And => a & b,
                CrOp::Or => a | b,
                CrOp::Xor => a ^ b,
                CrOp::Nand => !(a & b),
                CrOp::Nor => !(a | b),
                CrOp::Eqv => !(a ^ b),
                CrOp::Andc => a & !b,
                CrOp::Orc => a | !b,
            };
            let mask = 1u32 << (3 - bt);
            value((v(2) & !mask) | (u32::from(r) << (3 - bt)))
        }
        ExtractField => value((v(0) >> (4 * ((7 - op.imm as u32) & 7))) & 0xF),
        InsertField => value(v(0) | ((v(1) & 0xF) << (4 * ((7 - op.imm as u32) & 7)))),
        XerCompose => value(((v(0) & 1) << 29) | ((v(1) & 1) << 30) | ((v(2) & 1) << 31)),
        XerExtract => value((v(0) >> (op.imm as u32 & 31)) & 1),
        TrapIf { to } => EvalOut::Trap(trap_taken(
            to,
            v(0),
            if op.srcs().len() > 1 { v(1) } else { op.imm as u32 },
        )),
        Load { .. } | Store { .. } => EvalOut::Memory,
    }
}

fn sra(s: u32, n: u32) -> (u32, bool) {
    let neg = (s as i32) < 0;
    if n >= 32 {
        (if neg { 0xFFFF_FFFF } else { 0 }, neg && s != 0)
    } else {
        let lost = n > 0 && s & ((1u32 << n) - 1) != 0;
        (((s as i32) >> n) as u32, neg && lost)
    }
}

/// Computes a memory op's effective address from its source values.
///
/// Loads sum *all* sources (base and optional index) plus the signed
/// displacement; stores reserve `src0` for the value and sum the rest.
/// A missing base means the architected `ra = 0` literal-zero form.
///
/// # Panics
///
/// Panics on non-memory operations.
#[inline(always)]
pub fn effective_address(op: &Operation, vals: &[u32]) -> u32 {
    let addr_vals = match op.kind {
        OpKind::Load { .. } => vals,
        OpKind::Store { .. } => &vals[1..],
        _ => panic!("effective_address on non-memory op"),
    };
    addr_vals.iter().fold(op.imm as u32, |acc, v| acc.wrapping_add(*v))
}

#[cfg(test)]
mod tests {
    use super::*;
    fn op(kind: OpKind) -> Operation {
        Operation::new(kind, 0)
    }

    #[test]
    fn basic_alu() {
        assert_eq!(eval(&op(OpKind::Add), &[2, 3]), EvalOut::Value { v: 5, carry: None });
        assert_eq!(eval(&op(OpKind::Subf), &[2, 3]), EvalOut::Value { v: 1, carry: None });
        assert_eq!(
            eval(&op(OpKind::Li).with_imm(-1), &[]),
            EvalOut::Value { v: 0xFFFF_FFFF, carry: None }
        );
    }

    #[test]
    fn carry_ops_match_interpreter_conventions() {
        // subfc of equal values: carry (no borrow) set.
        assert_eq!(eval(&op(OpKind::SubfC), &[5, 5]), EvalOut::Value { v: 0, carry: Some(true) });
        // adde with carry-in.
        assert_eq!(
            eval(&op(OpKind::AddE), &[0xFFFF_FFFF, 0, 1]),
            EvalOut::Value { v: 0, carry: Some(true) }
        );
        // addic immediate carry.
        assert_eq!(
            eval(&op(OpKind::AddImmC).with_imm(1), &[0xFFFF_FFFF]),
            EvalOut::Value { v: 0, carry: Some(true) }
        );
    }

    #[test]
    fn rot_mask() {
        // slwi 3 == rlwinm sh=3 mask 0..28
        let o = op(OpKind::RotlImmMask).with_imm(3).with_imm2(rlw_mask(0, 28));
        assert_eq!(eval(&o, &[1]), EvalOut::Value { v: 8, carry: None });
    }

    #[test]
    fn compares_produce_cr_fields() {
        assert_eq!(eval(&op(OpKind::CmpS), &[1, 2, 0]), EvalOut::Value { v: 0b1000, carry: None });
        assert_eq!(
            eval(&op(OpKind::CmpU), &[0xFFFF_FFFF, 2, 1]),
            EvalOut::Value { v: 0b0101, carry: None }
        );
        assert_eq!(
            eval(&op(OpKind::CmpSImm).with_imm(-1), &[0xFFFF_FFFF, 0]),
            EvalOut::Value { v: 0b0010, carry: None }
        );
    }

    #[test]
    fn cr_bit_updates_one_bit() {
        // crand bt=3 (SO position) from ba=0 (LT of f1) and bb=1 (GT of f2).
        let o = op(OpKind::CrBit { op: CrOp::And, bt: 3, ba: 0, bb: 1 });
        // f1 has LT set, f2 has GT set, old dest = 0b0100.
        assert_eq!(eval(&o, &[0b1000, 0b0100, 0b0100]), EvalOut::Value { v: 0b0101, carry: None });
    }

    #[test]
    fn field_moves() {
        // Extract field 1 from a CR image.
        let o = op(OpKind::ExtractField).with_imm(1);
        assert_eq!(eval(&o, &[0x0A00_0000]), EvalOut::Value { v: 0xA, carry: None });
        // Insert it back.
        let o = op(OpKind::InsertField).with_imm(1);
        assert_eq!(eval(&o, &[0, 0xA]), EvalOut::Value { v: 0x0A00_0000, carry: None });
    }

    #[test]
    fn trap_eval() {
        let o = op(OpKind::TrapIf { to: 4 }).src(Reg(1)).src(Reg(2)); // trap if equal
        assert_eq!(eval(&o, &[3, 3]), EvalOut::Trap(true));
        assert_eq!(eval(&o, &[3, 4]), EvalOut::Trap(false));
    }

    #[test]
    fn effective_addresses() {
        let l =
            op(OpKind::Load { width: MemWidth::Word, algebraic: false }).src(Reg(1)).with_imm(8);
        assert_eq!(effective_address(&l, &[100]), 108);
        let s = op(OpKind::Store { width: MemWidth::Byte })
            .src(Reg(2))
            .src(Reg(1))
            .src(Reg(3))
            .with_imm(0);
        assert_eq!(effective_address(&s, &[7, 100, 20]), 120);
    }

    #[test]
    fn xer_roundtrip() {
        let c = op(OpKind::XerCompose);
        let EvalOut::Value { v, .. } = eval(&c, &[1, 0, 1]) else { panic!() };
        assert_eq!(v, 0xA000_0000);
        let x = op(OpKind::XerExtract).with_imm(29);
        assert_eq!(eval(&x, &[v]), EvalOut::Value { v: 1, carry: None });
        let x = op(OpKind::XerExtract).with_imm(31);
        assert_eq!(eval(&x, &[v]), EvalOut::Value { v: 1, carry: None });
    }
}
