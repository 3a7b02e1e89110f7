//! Cross-validation of the translator's RISC-primitive semantics
//! against the reference interpreter, instruction by instruction.
//!
//! For random computational instructions and random register state,
//! executing the instruction on the interpreter and executing its
//! converted primitive sequence through `daisy_vliw::op::eval` must
//! produce identical architected state. This pins the two semantic
//! definitions (interpreter `execute` vs translator `convert`+`eval`)
//! to each other — any drift in either is a miscompilation waiting to
//! happen.

use daisy_isa::convert::Flow;
use daisy_isa::GuestCpu;
use daisy_ppc::convert::convert;
use daisy_ppc::insn::{Arith2Op, ArithOp, Insn, LogicImmOp, LogicOp, ShiftOp, UnaryOp};
use daisy_ppc::interp::{Cpu, Event};
use daisy_ppc::mem::Memory;
use daisy_ppc::reg::{CrBit, CrField, Gpr};
use daisy_vliw::op::{eval, EvalOut};
use daisy_vliw::regfile::RegFile;
use proptest::prelude::*;

fn gpr() -> impl Strategy<Value = Gpr> {
    (0u8..32).prop_map(Gpr)
}

fn crf() -> impl Strategy<Value = CrField> {
    (0u8..8).prop_map(CrField)
}

/// Computational instructions: no memory, no branches, no privilege.
fn comp_insn() -> impl Strategy<Value = Insn> {
    let arith = prop_oneof![
        Just(ArithOp::Add),
        Just(ArithOp::Addc),
        Just(ArithOp::Adde),
        Just(ArithOp::Subf),
        Just(ArithOp::Subfc),
        Just(ArithOp::Subfe),
        Just(ArithOp::Mullw),
        Just(ArithOp::Mulhw),
        Just(ArithOp::Mulhwu),
        Just(ArithOp::Divw),
        Just(ArithOp::Divwu),
    ];
    let logic = prop_oneof![
        Just(LogicOp::And),
        Just(LogicOp::Or),
        Just(LogicOp::Xor),
        Just(LogicOp::Nand),
        Just(LogicOp::Nor),
        Just(LogicOp::Andc),
        Just(LogicOp::Orc),
        Just(LogicOp::Eqv),
    ];
    prop_oneof![
        (arith, gpr(), gpr(), gpr(), any::<bool>()).prop_map(|(op, rt, ra, rb, rc)| Insn::Arith {
            op,
            rt,
            ra,
            rb,
            oe: false,
            rc
        }),
        (gpr(), gpr(), any::<bool>()).prop_map(|(rt, ra, rc)| Insn::Arith2 {
            op: Arith2Op::Addze,
            rt,
            ra,
            oe: false,
            rc
        }),
        (gpr(), gpr(), any::<bool>()).prop_map(|(rt, ra, rc)| Insn::Arith2 {
            op: Arith2Op::Subfme,
            rt,
            ra,
            oe: false,
            rc
        }),
        (logic, gpr(), gpr(), gpr(), any::<bool>()).prop_map(|(op, ra, rs, rb, rc)| Insn::Logic {
            op,
            ra,
            rs,
            rb,
            rc
        }),
        (gpr(), gpr(), any::<i16>(), any::<bool>()).prop_map(|(rt, ra, si, rc)| Insn::Addic {
            rt,
            ra,
            si,
            rc
        }),
        (gpr(), gpr(), any::<i16>()).prop_map(|(rt, ra, si)| Insn::Subfic { rt, ra, si }),
        (gpr(), gpr(), any::<i16>()).prop_map(|(rt, ra, si)| Insn::Mulli { rt, ra, si }),
        (gpr(), gpr(), any::<u16>()).prop_map(|(ra, rs, ui)| Insn::LogicImm {
            op: LogicImmOp::Andis,
            ra,
            rs,
            ui
        }),
        (gpr(), gpr(), gpr(), any::<bool>()).prop_map(|(ra, rs, rb, rc)| Insn::Shift {
            op: ShiftOp::Sraw,
            ra,
            rs,
            rb,
            rc
        }),
        (gpr(), gpr(), gpr(), any::<bool>()).prop_map(|(ra, rs, rb, rc)| Insn::Shift {
            op: ShiftOp::Slw,
            ra,
            rs,
            rb,
            rc
        }),
        (gpr(), gpr(), 0u8..32, any::<bool>()).prop_map(|(ra, rs, sh, rc)| Insn::Srawi {
            ra,
            rs,
            sh,
            rc
        }),
        (gpr(), gpr(), 0u8..32, 0u8..32, 0u8..32, any::<bool>())
            .prop_map(|(ra, rs, sh, mb, me, rc)| Insn::Rlwinm { ra, rs, sh, mb, me, rc }),
        (gpr(), gpr(), 0u8..32, 0u8..32, 0u8..32, any::<bool>())
            .prop_map(|(ra, rs, sh, mb, me, rc)| Insn::Rlwimi { ra, rs, sh, mb, me, rc }),
        (gpr(), gpr(), any::<bool>()).prop_map(|(ra, rs, rc)| Insn::Unary {
            op: UnaryOp::Cntlzw,
            ra,
            rs,
            rc
        }),
        (gpr(), gpr(), any::<bool>()).prop_map(|(ra, rs, rc)| Insn::Unary {
            op: UnaryOp::Extsb,
            ra,
            rs,
            rc
        }),
        (crf(), any::<bool>(), gpr(), gpr()).prop_map(|(bf, signed, ra, rb)| Insn::Cmp {
            bf,
            signed,
            ra,
            rb
        }),
        (crf(), gpr(), any::<i16>()).prop_map(|(bf, ra, si)| Insn::CmpImm {
            bf,
            signed: true,
            ra,
            imm: i32::from(si)
        }),
        ((0u8..32), (0u8..32), (0u8..32)).prop_map(|(bt, ba, bb)| Insn::CrLogic {
            op: daisy_ppc::insn::CrOp::Nand,
            bt: CrBit(bt),
            ba: CrBit(ba),
            bb: CrBit(bb),
        }),
        (crf(), crf()).prop_map(|(bf, bfa)| Insn::Mcrf { bf, bfa }),
        gpr().prop_map(|rt| Insn::Mfcr { rt }),
        (any::<u8>(), gpr()).prop_map(|(fxm, rs)| Insn::Mtcrf { fxm, rs }),
        gpr().prop_map(|rt| Insn::Mfspr { rt, spr: daisy_ppc::reg::Spr::Xer }),
        gpr().prop_map(|rs| Insn::Mtspr { spr: daisy_ppc::reg::Spr::Xer, rs }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// interpreter(insn) == eval(convert(insn)) on every computational
    /// instruction and state.
    #[test]
    fn converted_primitives_match_interpreter(
        insn in comp_insn(),
        gprs in prop::collection::vec(any::<u32>(), 32),
        cr in any::<u32>(),
        xer_bits in 0u32..8,
    ) {
        // Interpreter side.
        let mut cpu = Cpu::new(0x1000);
        for (i, v) in gprs.iter().enumerate() {
            cpu.gpr[i] = *v;
        }
        cpu.cr = cr;
        cpu.xer = xer_bits << 29; // CA/OV/SO
        let mut mem = Memory::new(0x2000);
        let cpu_before = cpu.clone();
        let ev = cpu.execute(&mut mem, insn);
        prop_assert_eq!(ev, Event::Continue);

        // Primitive side: evaluate the converted ops in sequence over a
        // unified register file seeded with the same state.
        let mut ops = Vec::new();
        let conv = convert(&insn, 0x1000, &mut ops);
        prop_assert_eq!(conv.flow, Flow::Fall, "computational insns fall through");
        let mut rf = RegFile::new();
        cpu_before.fill_regfile(&mut rf);
        for op in &ops {
            let vals: Vec<u32> = op.srcs().iter().map(|s| rf.get(*s)).collect();
            match eval(op, &vals) {
                EvalOut::Value { v, carry } => {
                    if let Some(d) = op.dest {
                        rf.set(d, v);
                    }
                    if let Some(d2) = op.dest2 {
                        rf.set(d2, u32::from(carry.unwrap_or(false)));
                    }
                }
                other => prop_assert!(false, "unexpected eval result {other:?}"),
            }
        }
        let mut cpu_via_ops = cpu_before.clone();
        cpu_via_ops.write_back(&rf);

        prop_assert_eq!(cpu_via_ops.gpr, cpu.gpr, "GPRs for {}", insn);
        prop_assert_eq!(cpu_via_ops.cr, cpu.cr, "CR for {}", insn);
        prop_assert_eq!(cpu_via_ops.xer, cpu.xer, "XER for {}", insn);
        prop_assert_eq!(cpu_via_ops.lr, cpu.lr, "LR for {}", insn);
        prop_assert_eq!(cpu_via_ops.ctr, cpu.ctr, "CTR for {}", insn);
    }
}
