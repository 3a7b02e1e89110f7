//! Conversion of RV32I instructions into VLIW RISC primitives.
//!
//! The second frontend behind the [`daisy_isa::Isa`] boundary. The op
//! repertoire (see `daisy_vliw::op`) was shaped by the PowerPC
//! frontend, so a few RV32 idioms lower through PowerPC-flavoured
//! primitives:
//!
//! - `slt`/`sltu` produce a 4-bit compare field and extract its LT bit
//!   with [`OpKind::XerExtract`].
//! - Immediate shifts use rotate-and-mask ([`OpKind::RotlImmMask`]),
//!   exactly how `slwi`/`srwi` lower.
//! - Register shifts pre-mask the amount to 5 bits into a scratch
//!   (the non-architected-for-RV32 [`Reg::CTR`]), matching the
//!   PowerPC 6-bit shifter's semantics for all RV32 inputs.
//! - `jalr` computes its target into [`Reg::LR`] so the group exits
//!   through the existing `via-LR` indirect path.
//!
//! Writes to `x0` are never emitted as ops (the guest register file
//! slot for `Reg(0)` always holds zero), so reads of `x0` need no
//! special-casing.

use crate::insn::{AluImmOp, AluOp, BranchCond, Insn, MemWidth, ShiftOp, Xr};
use daisy_isa::convert::{BranchInfo, BranchKind, CondSpec, Converted, Flow};
use daisy_vliw::op::{rlw_mask, OpKind, Operation};
use daisy_vliw::reg::{CrField, Reg};
use daisy_vliw::tree::IndirectVia;

fn g(r: Xr) -> Reg {
    Reg(r.0)
}

/// Compare-field bit masks (paper §2.2's CR field layout).
mod crbit {
    pub const LT: u32 = 0b1000;
    pub const EQ: u32 = 0b0010;
}

fn op0(kind: OpKind, addr: u32) -> Operation {
    Operation::new(kind, addr)
}

/// Lowers a conditional branch: one fresh compare (scheduled as a
/// renamed temp via `cond_compare`) plus a conditional flow on the
/// relevant bit of its field.
fn convert_branch(
    addr: u32,
    cond: BranchCond,
    rs1: Xr,
    rs2: Xr,
    off: i16,
    ops: &mut Vec<Operation>,
) -> Converted {
    let signed = matches!(cond, BranchCond::Lt | BranchCond::Ge);
    let kind = if signed { OpKind::CmpS } else { OpKind::CmpU };
    let cmp = op0(kind, addr)
        .dst(Reg::cr(CrField(0))) // placeholder dest; scheduler renames
        .src(g(rs1))
        .src(g(rs2))
        .src(Reg::SO);
    let (mask, want_set) = match cond {
        BranchCond::Eq => (crbit::EQ, true),
        BranchCond::Ne => (crbit::EQ, false),
        BranchCond::Lt | BranchCond::Ltu => (crbit::LT, true),
        BranchCond::Ge | BranchCond::Geu => (crbit::LT, false),
    };
    let cond = CondSpec { field: Reg::cr(CrField(0)), mask, want_set };
    let target = addr.wrapping_add(off as i32 as u32);
    ops.push(cmp);
    Converted { flow: Flow::CondJump { cond, target, cond_compare: true }, links: false }
}

/// Lowers `slt`-family results: compare into `rd`, then extract the
/// LT bit (bit 3 of the 4-bit field) as the 0/1 value.
fn push_slt(ops: &mut Vec<Operation>, cmp: Operation, rd: Xr, addr: u32) {
    ops.extend([cmp, op0(OpKind::XerExtract, addr).dst(g(rd)).src(g(rd)).with_imm(3)]);
}

/// Converts one decoded instruction at `addr` into RISC primitives,
/// appended to `ops`, and returns its control-flow disposition. An
/// instruction routed to the interpreter appends nothing.
#[allow(clippy::too_many_lines)]
pub fn convert(insn: &Insn, addr: u32, ops: &mut Vec<Operation>) -> Converted {
    let next = addr.wrapping_add(4);
    match *insn {
        Insn::Lui { rd, imm } => {
            if rd.0 == 0 {
                return Converted::fall();
            }
            ops.push(op0(OpKind::Li, addr).dst(g(rd)).with_imm(imm as i32));
            Converted::fall()
        }
        Insn::Auipc { rd, imm } => {
            if rd.0 == 0 {
                return Converted::fall();
            }
            let v = addr.wrapping_add(imm);
            ops.push(op0(OpKind::Li, addr).dst(g(rd)).with_imm(v as i32));
            Converted::fall()
        }
        Insn::Jal { rd, off } => {
            if rd.0 != 0 {
                ops.push(op0(OpKind::Li, addr).dst(g(rd)).with_imm(next as i32));
            }
            let target = addr.wrapping_add(off as u32);
            Converted { flow: Flow::Jump { target }, links: false }
        }
        Insn::Jalr { rd, rs1, off } => {
            // Target into LR *before* the link write, so `jalr rd, rs1`
            // with rd == rs1 reads the pre-link value.
            ops.extend([
                op0(OpKind::AddImm, addr).dst(Reg::LR).src(g(rs1)).with_imm(i32::from(off)),
                op0(OpKind::AndImm, addr).dst(Reg::LR).src(Reg::LR).with_imm2(!1u32),
            ]);
            if rd.0 != 0 {
                ops.push(op0(OpKind::Li, addr).dst(g(rd)).with_imm(next as i32));
            }
            Converted { flow: Flow::IndirectJump { via: IndirectVia::Lr }, links: false }
        }
        Insn::Branch { cond, rs1, rs2, off } => convert_branch(addr, cond, rs1, rs2, off, ops),
        Insn::Load { rd, rs1, off, width, unsigned } => {
            if rd.0 == 0 {
                // A load to x0 still probes memory for faults; rather
                // than model a discarded destination, defer to the
                // interpreter (the workloads never emit this).
                return Converted::interp();
            }
            let algebraic = width == MemWidth::Half && !unsigned;
            ops.push(
                op0(OpKind::Load { width, algebraic }, addr)
                    .dst(g(rd))
                    .src(g(rs1))
                    .with_imm(i32::from(off)),
            );
            if width == MemWidth::Byte && !unsigned {
                ops.push(op0(OpKind::Extsb, addr).dst(g(rd)).src(g(rd)));
            }
            Converted::fall()
        }
        Insn::Store { rs2, rs1, off, width } => {
            ops.push(
                op0(OpKind::Store { width }, addr).src(g(rs2)).src(g(rs1)).with_imm(i32::from(off)),
            );
            Converted::fall()
        }
        Insn::OpImm { op, rd, rs1, imm } => {
            if rd.0 == 0 {
                return Converted::fall();
            }
            let i = i32::from(imm);
            let bits = i as u32;
            match op {
                AluImmOp::Addi => {
                    ops.push(op0(OpKind::AddImm, addr).dst(g(rd)).src(g(rs1)).with_imm(i))
                }
                AluImmOp::Xori => {
                    ops.push(op0(OpKind::XorImm, addr).dst(g(rd)).src(g(rs1)).with_imm2(bits))
                }
                AluImmOp::Ori => {
                    ops.push(op0(OpKind::OrImm, addr).dst(g(rd)).src(g(rs1)).with_imm2(bits))
                }
                AluImmOp::Andi => {
                    ops.push(op0(OpKind::AndImm, addr).dst(g(rd)).src(g(rs1)).with_imm2(bits))
                }
                AluImmOp::Slti => {
                    let cmp =
                        op0(OpKind::CmpSImm, addr).dst(g(rd)).src(g(rs1)).src(Reg::SO).with_imm(i);
                    push_slt(ops, cmp, rd, addr)
                }
                AluImmOp::Sltiu => {
                    let cmp =
                        op0(OpKind::CmpUImm, addr).dst(g(rd)).src(g(rs1)).src(Reg::SO).with_imm(i);
                    push_slt(ops, cmp, rd, addr)
                }
            };
            Converted::fall()
        }
        Insn::ShiftImm { op, rd, rs1, shamt } => {
            if rd.0 == 0 {
                return Converted::fall();
            }
            let n = shamt & 31;
            let o = match op {
                ShiftOp::Sll => op0(OpKind::RotlImmMask, addr)
                    .dst(g(rd))
                    .src(g(rs1))
                    .with_imm(i32::from(n))
                    .with_imm2(rlw_mask(0, 31 - n)),
                ShiftOp::Srl => op0(OpKind::RotlImmMask, addr)
                    .dst(g(rd))
                    .src(g(rs1))
                    .with_imm(i32::from(32 - n) & 31)
                    .with_imm2(rlw_mask(n, 31)),
                ShiftOp::Sra => {
                    op0(OpKind::SraImm, addr).dst(g(rd)).src(g(rs1)).with_imm(i32::from(n))
                }
            };
            ops.push(o);
            Converted::fall()
        }
        Insn::Op { op, rd, rs1, rs2 } => {
            if rd.0 == 0 {
                return Converted::fall();
            }
            match op {
                AluOp::Add => ops.push(op0(OpKind::Add, addr).dst(g(rd)).src(g(rs1)).src(g(rs2))),
                // Subf computes src1 - src0.
                AluOp::Sub => ops.push(op0(OpKind::Subf, addr).dst(g(rd)).src(g(rs2)).src(g(rs1))),
                AluOp::Xor => ops.push(op0(OpKind::Xor, addr).dst(g(rd)).src(g(rs1)).src(g(rs2))),
                AluOp::Or => ops.push(op0(OpKind::Or, addr).dst(g(rd)).src(g(rs1)).src(g(rs2))),
                AluOp::And => ops.push(op0(OpKind::And, addr).dst(g(rd)).src(g(rs1)).src(g(rs2))),
                AluOp::Slt => {
                    let cmp =
                        op0(OpKind::CmpS, addr).dst(g(rd)).src(g(rs1)).src(g(rs2)).src(Reg::SO);
                    push_slt(ops, cmp, rd, addr)
                }
                AluOp::Sltu => {
                    let cmp =
                        op0(OpKind::CmpU, addr).dst(g(rd)).src(g(rs1)).src(g(rs2)).src(Reg::SO);
                    push_slt(ops, cmp, rd, addr)
                }
            };
            Converted::fall()
        }
        Insn::OpShift { op, rd, rs1, rs2 } => {
            if rd.0 == 0 {
                return Converted::fall();
            }
            // RV32 shifts use the low 5 bits of rs2; the VLIW shifter
            // uses 6. Pre-mask into a scratch so the semantics agree.
            let mask = op0(OpKind::AndImm, addr).dst(Reg::CTR).src(g(rs2)).with_imm2(31);
            let kind = match op {
                ShiftOp::Sll => OpKind::Sll,
                ShiftOp::Srl => OpKind::Srl,
                ShiftOp::Sra => OpKind::Sra,
            };
            let shift = op0(kind, addr).dst(g(rd)).src(g(rs1)).src(Reg::CTR);
            ops.extend([mask, shift]);
            Converted::fall()
        }
        Insn::Fence => Converted::fall(),
        Insn::Ecall | Insn::Ebreak | Insn::Mret | Insn::Invalid(_) => Converted::interp(),
    }
}

/// Branch analysis for the scheduler's window policy and the VMM's
/// interpretive-compilation hints.
pub fn branch_info(insn: &Insn, pc: u32) -> Option<BranchInfo> {
    match *insn {
        Insn::Jal { rd, off } => Some(BranchInfo {
            kind: BranchKind::Direct(pc.wrapping_add(off as u32)),
            unconditional: true,
            links: rd.0 != 0,
            decrements_ctr: false,
        }),
        // jalr resolves through LR at run time (see [`convert`]).
        Insn::Jalr { rd, .. } => Some(BranchInfo {
            kind: BranchKind::ViaLr,
            unconditional: true,
            links: rd.0 != 0,
            decrements_ctr: false,
        }),
        Insn::Branch { off, .. } => Some(BranchInfo {
            kind: BranchKind::Direct(pc.wrapping_add(off as i32 as u32)),
            unconditional: false,
            links: false,
            decrements_ctr: false,
        }),
        _ => None,
    }
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

    #[test]
    fn x0_destinations_emit_no_ops() {
        for insn in [
            Insn::Lui { rd: Xr(0), imm: 0x1000 },
            Insn::OpImm { op: AluImmOp::Addi, rd: Xr(0), rs1: Xr(5), imm: 1 },
            Insn::Op { op: AluOp::Add, rd: Xr(0), rs1: Xr(5), rs2: Xr(6) },
        ] {
            let (ops, c) = conv(&insn, 0x1000);
            assert!(ops.is_empty(), "{insn:?}");
            assert!(matches!(c.flow, Flow::Fall));
        }
    }

    #[test]
    fn no_op_ever_writes_reg0() {
        use crate::insn::decode;
        // Sweep a pile of encodings; whatever converts must not write
        // the x0 slot (its regfile slot is the architected zero).
        for w in (0..0x40_0000u32).step_by(97) {
            let (ops, _) = conv(&decode(w), 0x1000);
            for op in &ops {
                assert_ne!(op.dest, Some(Reg(0)), "word {w:#010x}");
            }
        }
    }

    #[test]
    fn branch_lowering_uses_fresh_compare() {
        let (ops, c) =
            conv(&Insn::Branch { cond: BranchCond::Ltu, rs1: Xr(3), rs2: Xr(4), off: -8 }, 0x2000);
        assert_eq!(ops.len(), 1);
        assert!(matches!(ops[0].kind, OpKind::CmpU));
        match c.flow {
            Flow::CondJump { cond, target, cond_compare } => {
                assert!(cond_compare);
                assert_eq!(target, 0x2000 - 8);
                assert_eq!(cond.mask, crbit::LT);
                assert!(cond.want_set);
            }
            other => panic!("unexpected flow {other:?}"),
        }
    }

    #[test]
    fn jalr_computes_target_before_link() {
        let (ops, c) = conv(&Insn::Jalr { rd: Xr(1), rs1: Xr(1), off: 12 }, 0x3000);
        assert!(matches!(c.flow, Flow::IndirectJump { via: IndirectVia::Lr }));
        assert_eq!(ops[0].dest, Some(Reg::LR));
        assert_eq!(ops.last().unwrap().dest, Some(Reg(1)));
    }
}
