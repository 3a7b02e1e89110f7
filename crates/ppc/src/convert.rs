//! Conversion of PowerPC instructions into VLIW RISC primitives.
//!
//! "Each operation is immediately scheduled in a VLIW … as soon as it is
//! disassembled from the binary original code, and converted into RISC
//! primitives (if a CISCy operation)" (paper §2). This module is the
//! PowerPC disassemble-and-convert front end, reached by the scheduler,
//! the oracle schedulers, and the traditional-compiler baseline through
//! the [`daisy_isa::Isa`] boundary.
//!
//! The produced primitives name *architected* resources; renaming into
//! the non-architected pool is the scheduler's job. The output types
//! ([`Converted`], [`Flow`], [`CondSpec`]) are the ISA-neutral ones from
//! the frontend boundary.

use crate::insn::{
    bo, Arith2Op, ArithOp, BranchKind, Insn, LogicImmOp, LogicOp, MemWidth, ShiftOp, UnaryOp,
};
use crate::reg::{CrField, Gpr};
use daisy_isa::convert::{CondSpec, Converted, Flow};
use daisy_vliw::op::{OpKind, Operation};
use daisy_vliw::reg::Reg;
use daisy_vliw::tree::IndirectVia;

fn g(r: Gpr) -> Reg {
    Reg::gpr(r)
}

/// Source for `ra|0` addressing: register, or `None` meaning literal 0.
fn base_or_zero(ra: Gpr) -> Option<Reg> {
    (ra.0 != 0).then(|| g(ra))
}

/// Appends the record-form compare (`cr0 ← result cmp 0`) used by `.`
/// instructions.
fn push_record(ops: &mut Vec<Operation>, result: Reg, addr: u32) {
    ops.push(
        Operation::new(OpKind::CmpSImm, addr)
            .dst(Reg::cr(CrField(0)))
            .src(result)
            .src(Reg::SO)
            .with_imm(0),
    );
}

/// Converts the instruction at `addr` into RISC primitives, appended
/// to `ops`, and returns its control behaviour. An instruction routed
/// to the interpreter appends nothing.
///
/// OE-form arithmetic (overflow-enable) is routed to the interpreter:
/// the workloads never use it, and modelling OV/SO updates as extra
/// primitives would only add parcels the paper's numbers do not contain.
pub fn convert(insn: &Insn, addr: u32, ops: &mut Vec<Operation>) -> Converted {
    let op0 = |k: OpKind| Operation::new(k, addr);
    match *insn {
        Insn::Addi { rt, ra, si } => {
            let op = match base_or_zero(ra) {
                Some(b) => op0(OpKind::AddImm).dst(g(rt)).src(b).with_imm(i32::from(si)),
                None => op0(OpKind::Li).dst(g(rt)).with_imm(i32::from(si)),
            };
            ops.push(op);
            Converted::fall()
        }
        Insn::Addis { rt, ra, si } => {
            let v = i32::from(si) << 16;
            let op = match base_or_zero(ra) {
                Some(b) => op0(OpKind::AddImm).dst(g(rt)).src(b).with_imm(v),
                None => op0(OpKind::Li).dst(g(rt)).with_imm(v),
            };
            ops.push(op);
            Converted::fall()
        }
        Insn::Addic { rt, ra, si, rc } => {
            ops.push(
                op0(OpKind::AddImmC).dst(g(rt)).dst2(Reg::CA).src(g(ra)).with_imm(i32::from(si)),
            );
            if rc {
                push_record(ops, g(rt), addr);
            }
            Converted::fall()
        }
        Insn::Subfic { rt, ra, si } => {
            ops.push(
                op0(OpKind::SubfImmC).dst(g(rt)).dst2(Reg::CA).src(g(ra)).with_imm(i32::from(si)),
            );
            Converted::fall()
        }
        Insn::Mulli { rt, ra, si } => {
            ops.push(op0(OpKind::MulImm).dst(g(rt)).src(g(ra)).with_imm(i32::from(si)));
            Converted::fall()
        }
        Insn::Arith { op, rt, ra, rb, oe, rc } => {
            if oe {
                return Converted::interp();
            }
            let (kind, carry) = match op {
                ArithOp::Add => (OpKind::Add, false),
                ArithOp::Addc => (OpKind::AddC, true),
                ArithOp::Adde => (OpKind::AddE, true),
                ArithOp::Subf => (OpKind::Subf, false),
                ArithOp::Subfc => (OpKind::SubfC, true),
                ArithOp::Subfe => (OpKind::SubfE, true),
                ArithOp::Mullw => (OpKind::Mul, false),
                ArithOp::Mulhw => (OpKind::Mulh, false),
                ArithOp::Mulhwu => (OpKind::Mulhu, false),
                ArithOp::Divw => (OpKind::Div, false),
                ArithOp::Divwu => (OpKind::Divu, false),
            };
            let mut o = op0(kind).dst(g(rt)).src(g(ra)).src(g(rb));
            if matches!(op, ArithOp::Adde | ArithOp::Subfe) {
                o = o.src(Reg::CA);
            }
            if carry {
                o = o.dst2(Reg::CA);
            }
            ops.push(o);
            if rc {
                push_record(ops, g(rt), addr);
            }
            Converted::fall()
        }
        Insn::Arith2 { op, rt, ra, oe, rc } => {
            if oe {
                return Converted::interp();
            }
            ops.push(match op {
                Arith2Op::Neg => op0(OpKind::Neg).dst(g(rt)).src(g(ra)),
                Arith2Op::Addze => {
                    op0(OpKind::AddZe).dst(g(rt)).dst2(Reg::CA).src(g(ra)).src(Reg::CA)
                }
                Arith2Op::Addme => {
                    op0(OpKind::AddMe).dst(g(rt)).dst2(Reg::CA).src(g(ra)).src(Reg::CA)
                }
                Arith2Op::Subfze => {
                    op0(OpKind::SubfZe).dst(g(rt)).dst2(Reg::CA).src(g(ra)).src(Reg::CA)
                }
                Arith2Op::Subfme => {
                    op0(OpKind::SubfMe).dst(g(rt)).dst2(Reg::CA).src(g(ra)).src(Reg::CA)
                }
            });
            if rc {
                push_record(ops, g(rt), addr);
            }
            Converted::fall()
        }
        Insn::Logic { op, ra, rs, rb, rc } => {
            let kind = match op {
                LogicOp::And => OpKind::And,
                LogicOp::Or => OpKind::Or,
                LogicOp::Xor => OpKind::Xor,
                LogicOp::Nand => OpKind::Nand,
                LogicOp::Nor => OpKind::Nor,
                LogicOp::Andc => OpKind::Andc,
                LogicOp::Orc => OpKind::Orc,
                LogicOp::Eqv => OpKind::Eqv,
            };
            ops.push(op0(kind).dst(g(ra)).src(g(rs)).src(g(rb)));
            if rc {
                push_record(ops, g(ra), addr);
            }
            Converted::fall()
        }
        Insn::LogicImm { op, ra, rs, ui } => {
            let (kind, imm2) = match op {
                LogicImmOp::Andi => (OpKind::AndImm, u32::from(ui)),
                LogicImmOp::Andis => (OpKind::AndImm, u32::from(ui) << 16),
                LogicImmOp::Ori => (OpKind::OrImm, u32::from(ui)),
                LogicImmOp::Oris => (OpKind::OrImm, u32::from(ui) << 16),
                LogicImmOp::Xori => (OpKind::XorImm, u32::from(ui)),
                LogicImmOp::Xoris => (OpKind::XorImm, u32::from(ui) << 16),
            };
            ops.push(op0(kind).dst(g(ra)).src(g(rs)).with_imm2(imm2));
            if op.records() {
                push_record(ops, g(ra), addr);
            }
            Converted::fall()
        }
        Insn::Shift { op, ra, rs, rb, rc } => {
            let mut o = match op {
                ShiftOp::Slw => op0(OpKind::Sll).dst(g(ra)).src(g(rs)).src(g(rb)),
                ShiftOp::Srw => op0(OpKind::Srl).dst(g(ra)).src(g(rs)).src(g(rb)),
                ShiftOp::Sraw => op0(OpKind::Sra).dst(g(ra)).src(g(rs)).src(g(rb)),
            };
            if matches!(op, ShiftOp::Sraw) {
                o = o.dst2(Reg::CA);
            }
            ops.push(o);
            if rc {
                push_record(ops, g(ra), addr);
            }
            Converted::fall()
        }
        Insn::Srawi { ra, rs, sh, rc } => {
            ops.push(
                op0(OpKind::SraImm).dst(g(ra)).dst2(Reg::CA).src(g(rs)).with_imm(i32::from(sh)),
            );
            if rc {
                push_record(ops, g(ra), addr);
            }
            Converted::fall()
        }
        Insn::Rlwinm { ra, rs, sh, mb, me, rc } => {
            ops.push(
                op0(OpKind::RotlImmMask)
                    .dst(g(ra))
                    .src(g(rs))
                    .with_imm(i32::from(sh))
                    .with_imm2(daisy_vliw::op::rlw_mask(mb, me)),
            );
            if rc {
                push_record(ops, g(ra), addr);
            }
            Converted::fall()
        }
        Insn::Rlwimi { ra, rs, sh, mb, me, rc } => {
            ops.push(
                op0(OpKind::RotlImmInsert)
                    .dst(g(ra))
                    .src(g(rs))
                    .src(g(ra))
                    .with_imm(i32::from(sh))
                    .with_imm2(daisy_vliw::op::rlw_mask(mb, me)),
            );
            if rc {
                push_record(ops, g(ra), addr);
            }
            Converted::fall()
        }
        Insn::Rlwnm { ra, rs, rb, mb, me, rc } => {
            ops.push(
                op0(OpKind::RotlRegMask)
                    .dst(g(ra))
                    .src(g(rs))
                    .src(g(rb))
                    .with_imm2(daisy_vliw::op::rlw_mask(mb, me)),
            );
            if rc {
                push_record(ops, g(ra), addr);
            }
            Converted::fall()
        }
        Insn::Unary { op, ra, rs, rc } => {
            let kind = match op {
                UnaryOp::Cntlzw => OpKind::Cntlz,
                UnaryOp::Extsb => OpKind::Extsb,
                UnaryOp::Extsh => OpKind::Exts,
            };
            ops.push(op0(kind).dst(g(ra)).src(g(rs)));
            if rc {
                push_record(ops, g(ra), addr);
            }
            Converted::fall()
        }
        Insn::Cmp { bf, signed, ra, rb } => {
            let kind = if signed { OpKind::CmpS } else { OpKind::CmpU };
            ops.push(op0(kind).dst(Reg::cr(bf)).src(g(ra)).src(g(rb)).src(Reg::SO));
            Converted::fall()
        }
        Insn::CmpImm { bf, signed, ra, imm } => {
            let kind = if signed { OpKind::CmpSImm } else { OpKind::CmpUImm };
            ops.push(op0(kind).dst(Reg::cr(bf)).src(g(ra)).src(Reg::SO).with_imm(imm));
            Converted::fall()
        }
        Insn::Load { width, algebraic, update, indexed, rt, ra, rb, d } => {
            let mut l = op0(OpKind::Load { width, algebraic }).dst(g(rt));
            if let Some(b) = base_or_zero(ra) {
                l = l.src(b);
            }
            if indexed {
                l = l.src(g(rb));
            } else {
                l = l.with_imm(i32::from(d));
            }
            ops.push(l);
            if update {
                // EA write-back; faults on the load leave ra untouched
                // because commits are in program order.
                let upd = if indexed {
                    op0(OpKind::Add).dst(g(ra)).src(g(ra)).src(g(rb))
                } else {
                    op0(OpKind::AddImm).dst(g(ra)).src(g(ra)).with_imm(i32::from(d))
                };
                ops.push(upd);
            }
            Converted::fall()
        }
        Insn::Store { width, update, indexed, rs, ra, rb, d } => {
            // Store sources: value, then address registers (a missing
            // base is the architected `ra = 0` literal-zero form).
            let mut s = op0(OpKind::Store { width }).src(g(rs));
            if let Some(b) = base_or_zero(ra) {
                s = s.src(b);
            }
            if indexed {
                s = s.src(g(rb));
            } else {
                s = s.with_imm(i32::from(d));
            }
            ops.push(s);
            if update {
                let upd = if indexed {
                    op0(OpKind::Add).dst(g(ra)).src(g(ra)).src(g(rb))
                } else {
                    op0(OpKind::AddImm).dst(g(ra)).src(g(ra)).with_imm(i32::from(d))
                };
                ops.push(upd);
            }
            Converted::fall()
        }
        Insn::Lmw { rt, ra, d } => {
            // CISC decomposition: one load primitive per register.
            for (i, r) in (rt.0..32).enumerate() {
                let mut l = op0(OpKind::Load { width: MemWidth::Word, algebraic: false })
                    .dst(Reg(r))
                    .with_imm(i32::from(d) + 4 * i as i32);
                if let Some(b) = base_or_zero(ra) {
                    l = l.src(b);
                }
                ops.push(l);
            }
            Converted::fall()
        }
        Insn::Stmw { rs, ra, d } => {
            for (i, r) in (rs.0..32).enumerate() {
                let mut s = op0(OpKind::Store { width: MemWidth::Word }).src(Reg(r));
                if let Some(b) = base_or_zero(ra) {
                    s = s.src(b);
                }
                ops.push(s.with_imm(i32::from(d) + 4 * i as i32));
            }
            Converted::fall()
        }
        Insn::BranchI { lk, .. } => {
            // invariant: `branch_info` is total over branch opcodes, and
            // an I-form branch is by definition direct.
            let Some(info) = insn.branch_info(addr) else { unreachable!() };
            let BranchKind::Direct(target) = info.kind else { unreachable!() };
            Converted { flow: Flow::Jump { target }, links: lk }
        }
        Insn::BranchC { bo: b, bi, bd: _, lk, .. } => {
            // invariant: B-form conditional branches always decode to a
            // direct target.
            let Some(info) = insn.branch_info(addr) else { unreachable!() };
            let BranchKind::Direct(target) = info.kind else { unreachable!() };
            convert_cond_branch(addr, b, bi, lk, BranchDest::Direct(target), ops)
        }
        Insn::BranchClr { bo: b, bi, lk } => {
            convert_cond_branch(addr, b, bi, lk, BranchDest::Via(IndirectVia::Lr), ops)
        }
        Insn::BranchCctr { bo: b, bi, lk } => {
            if !bo::ignores_ctr(b) {
                // bcctr with CTR decrement is an invalid form.
                return Converted::interp();
            }
            convert_cond_branch(addr, b | 0b00100, bi, lk, BranchDest::Via(IndirectVia::Ctr), ops)
        }
        Insn::CrLogic { op, bt, ba, bb } => {
            ops.push(
                op0(OpKind::CrBit { op, bt: bt.within(), ba: ba.within(), bb: bb.within() })
                    .dst(Reg::cr(bt.field()))
                    .src(Reg::cr(ba.field()))
                    .src(Reg::cr(bb.field()))
                    .src(Reg::cr(bt.field())),
            );
            Converted::fall()
        }
        Insn::Mcrf { bf, bfa } => {
            ops.push(op0(OpKind::Copy).dst(Reg::cr(bf)).src(Reg::cr(bfa)));
            Converted::fall()
        }
        Insn::Mfcr { rt } => {
            // Decompose into an insert chain over the 8 fields.
            ops.push(op0(OpKind::Li).dst(g(rt)).with_imm(0));
            for f in 0..8u8 {
                ops.push(
                    op0(OpKind::InsertField)
                        .dst(g(rt))
                        .src(g(rt))
                        .src(Reg::cr(CrField(f)))
                        .with_imm(i32::from(f)),
                );
            }
            Converted::fall()
        }
        Insn::Mtcrf { fxm, rs } => {
            // One mtcrf2 (paper Appendix D) per selected field.
            for f in 0..8u8 {
                if fxm & (0x80 >> f) != 0 {
                    ops.push(
                        op0(OpKind::ExtractField)
                            .dst(Reg::cr(CrField(f)))
                            .src(g(rs))
                            .with_imm(i32::from(f)),
                    );
                }
            }
            Converted::fall()
        }
        Insn::Mfspr { rt, spr } => match spr {
            crate::reg::Spr::Lr => {
                ops.push(op0(OpKind::Copy).dst(g(rt)).src(Reg::LR));
                Converted::fall()
            }
            crate::reg::Spr::Ctr => {
                ops.push(op0(OpKind::Copy).dst(g(rt)).src(Reg::CTR));
                Converted::fall()
            }
            crate::reg::Spr::Xer => {
                ops.push(op0(OpKind::XerCompose).dst(g(rt)).src(Reg::CA).src(Reg::OV).src(Reg::SO));
                Converted::fall()
            }
            _ => Converted::interp(),
        },
        Insn::Mtspr { spr, rs } => match spr {
            crate::reg::Spr::Lr => {
                ops.push(op0(OpKind::Copy).dst(Reg::LR).src(g(rs)));
                Converted::fall()
            }
            crate::reg::Spr::Ctr => {
                ops.push(op0(OpKind::Copy).dst(Reg::CTR).src(g(rs)));
                Converted::fall()
            }
            crate::reg::Spr::Xer => {
                ops.extend([
                    op0(OpKind::XerExtract).dst(Reg::CA).src(g(rs)).with_imm(29),
                    op0(OpKind::XerExtract).dst(Reg::OV).src(g(rs)).with_imm(30),
                    op0(OpKind::XerExtract).dst(Reg::SO).src(g(rs)).with_imm(31),
                ]);
                Converted::fall()
            }
            _ => Converted::interp(),
        },
        Insn::Sync | Insn::Isync | Insn::Eieio => {
            // Strongly consistent memory assumed (paper Appendix E:
            // "Assume a strongly consistent memory system, not requiring
            // stop at a serializing op").
            Converted::fall()
        }
        Insn::Tw { to, ra, rb } => {
            ops.push(op0(OpKind::TrapIf { to }).src(g(ra)).src(g(rb)));
            Converted::fall()
        }
        Insn::Twi { to, ra, si } => {
            ops.push(op0(OpKind::TrapIf { to }).src(g(ra)).with_imm(i32::from(si)));
            Converted::fall()
        }
        Insn::Mfmsr { .. } | Insn::Mtmsr { .. } | Insn::Sc | Insn::Rfi | Insn::Invalid(_) => {
            Converted::interp()
        }
    }
}

enum BranchDest {
    Direct(u32),
    Via(IndirectVia),
}

fn convert_cond_branch(
    addr: u32,
    b: u8,
    bi: crate::reg::CrBit,
    lk: bool,
    dest: BranchDest,
    ops: &mut Vec<Operation>,
) -> Converted {
    // CTR-decrementing forms: explicit decrement + compare, so the
    // count can rename and loop iterations overlap (paper Appendix D).
    let cond_compare = !bo::ignores_ctr(b);
    let ctr_cond = if cond_compare {
        Some(CondSpec {
            field: Reg::cr(CrField(0)), // placeholder; scheduler substitutes
            mask: 0b0010,               // EQ bit of the compare
            want_set: bo::wants_ctr_zero(b),
        })
    } else {
        None
    };
    let cr_cond = if bo::ignores_cond(b) {
        None
    } else {
        Some(CondSpec {
            field: Reg::cr(bi.field()),
            mask: bi.field_mask(),
            want_set: bo::wants_true(b),
        })
    };
    // Combined CTR+condition forms (bdnzt …) are rare; route to the
    // interpreter rather than build two-level conditions.
    let cond = match (ctr_cond, cr_cond) {
        (Some(_), Some(_)) => return Converted::interp(),
        (Some(c), None) | (None, Some(c)) => Some(c),
        (None, None) => None,
    };
    if cond_compare {
        let dec = Operation::new(OpKind::AddImm, addr).dst(Reg::CTR).src(Reg::CTR).with_imm(-1);
        // Compare the *new* CTR against zero. The scheduler points this
        // at the renamed decrement result.
        let cmp = Operation::new(OpKind::CmpSImm, addr)
            .dst(Reg::cr(CrField(0))) // placeholder dest; scheduler renames
            .src(Reg::CTR)
            .src(Reg::SO)
            .with_imm(0);
        ops.extend([dec, cmp]);
    }
    let flow = match (cond, dest) {
        (None, BranchDest::Direct(target)) => Flow::Jump { target },
        (None, BranchDest::Via(via)) => Flow::IndirectJump { via },
        (Some(cond), BranchDest::Direct(target)) => Flow::CondJump { cond, target, cond_compare },
        (Some(cond), BranchDest::Via(via)) => Flow::CondIndirect { cond, via, cond_compare },
    };
    Converted { flow, links: lk }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`convert`] into a fresh buffer: the ops and the control
    /// behaviour.
    fn conv(insn: &Insn, addr: u32) -> (Vec<Operation>, Converted) {
        let mut ops = Vec::new();
        let c = convert(insn, addr, &mut ops);
        (ops, c)
    }
    use crate::reg::CrBit;

    #[test]
    fn add_converts_to_one_primitive() {
        let (ops, c) = conv(
            &Insn::Arith {
                op: ArithOp::Add,
                rt: Gpr(3),
                ra: Gpr(4),
                rb: Gpr(5),
                oe: false,
                rc: false,
            },
            0x100,
        );
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].kind, OpKind::Add);
        assert_eq!(ops[0].dest, Some(Reg::gpr(Gpr(3))));
        assert_eq!(c.flow, Flow::Fall);
    }

    #[test]
    fn record_form_adds_compare() {
        let (ops, _) = conv(
            &Insn::Arith {
                op: ArithOp::Add,
                rt: Gpr(3),
                ra: Gpr(4),
                rb: Gpr(5),
                oe: false,
                rc: true,
            },
            0,
        );
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[1].kind, OpKind::CmpSImm);
        assert_eq!(ops[1].dest, Some(Reg::cr(CrField(0))));
        assert_eq!(ops[1].srcs()[0], Reg::gpr(Gpr(3)));
    }

    #[test]
    fn lmw_decomposes_per_register() {
        let (ops, _) = conv(&Insn::Lmw { rt: Gpr(28), ra: Gpr(1), d: 8 }, 0);
        assert_eq!(ops.len(), 4);
        assert_eq!(ops[0].dest, Some(Reg::gpr(Gpr(28))));
        assert_eq!(ops[3].dest, Some(Reg::gpr(Gpr(31))));
        assert_eq!(ops[3].imm, 8 + 12);
    }

    #[test]
    fn bdnz_emits_decrement_and_compare() {
        let (ops, c) =
            conv(&Insn::BranchC { bo: bo::DNZ, bi: CrBit(0), bd: -8, aa: false, lk: false }, 0x100);
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].dest, Some(Reg::CTR));
        assert_eq!(ops[0].imm, -1);
        match c.flow {
            Flow::CondJump { cond, target, cond_compare } => {
                assert_eq!(target, 0xF8);
                assert!(cond_compare);
                assert_eq!(cond.mask, 0b0010);
                assert!(!cond.want_set); // bdnz: taken when CTR != 0
            }
            other => panic!("unexpected flow {other:?}"),
        }
    }

    #[test]
    fn blr_is_indirect_via_lr() {
        let (ops, c) = conv(&Insn::BranchClr { bo: bo::ALWAYS, bi: CrBit(0), lk: false }, 0);
        assert!(ops.is_empty());
        assert_eq!(c.flow, Flow::IndirectJump { via: IndirectVia::Lr });
    }

    #[test]
    fn conditional_blr() {
        let (_, c) = conv(&Insn::BranchClr { bo: bo::IF_FALSE, bi: CrBit(2), lk: false }, 0);
        match c.flow {
            Flow::CondIndirect { cond, via, cond_compare } => {
                assert_eq!(via, IndirectVia::Lr);
                assert!(!cond_compare);
                assert_eq!(cond.mask, 0b0010);
                assert!(!cond.want_set);
            }
            other => panic!("unexpected flow {other:?}"),
        }
    }

    #[test]
    fn privileged_goes_to_interpreter() {
        assert_eq!(conv(&Insn::Rfi, 0).1.flow, Flow::Interp);
        assert_eq!(conv(&Insn::Sc, 0).1.flow, Flow::Interp);
        assert_eq!(
            conv(&Insn::Mfspr { rt: Gpr(1), spr: crate::reg::Spr::Srr0 }, 0).1.flow,
            Flow::Interp
        );
    }

    #[test]
    fn sync_is_free() {
        let (ops, c) = conv(&Insn::Sync, 0);
        assert!(ops.is_empty());
        assert_eq!(c.flow, Flow::Fall);
    }

    #[test]
    fn mfcr_chain_length() {
        let (ops, _) = conv(&Insn::Mfcr { rt: Gpr(9) }, 0);
        assert_eq!(ops.len(), 9);
    }

    #[test]
    fn bl_marks_link() {
        let (_, c) = conv(&Insn::BranchI { li: 0x40, aa: false, lk: true }, 0x1000);
        assert!(c.links);
        assert_eq!(c.flow, Flow::Jump { target: 0x1040 });
    }
}
