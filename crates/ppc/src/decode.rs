//! Bit-exact PowerPC instruction decoding — the mirror of [`mod@crate::encode`].
//!
//! This is the front end of both the reference interpreter and the DAISY
//! translator: the VMM decodes the same 32-bit words the base
//! architecture would execute (paper Fig. A.2, `DecodeAndScheduleOneInstr`).

use crate::encode::xops;
use crate::insn::{Arith2Op, ArithOp, CrOp, Insn, LogicImmOp, LogicOp, MemWidth, ShiftOp, UnaryOp};
use crate::reg::{CrBit, CrField, Gpr, Spr};

fn rt(w: u32) -> Gpr {
    Gpr(((w >> 21) & 31) as u8)
}

fn ra(w: u32) -> Gpr {
    Gpr(((w >> 16) & 31) as u8)
}

fn rb(w: u32) -> Gpr {
    Gpr(((w >> 11) & 31) as u8)
}

fn si(w: u32) -> i16 {
    (w & 0xFFFF) as u16 as i16
}

fn ui(w: u32) -> u16 {
    (w & 0xFFFF) as u16
}

fn rc(w: u32) -> bool {
    w & 1 != 0
}

fn oe(w: u32) -> bool {
    (w >> 10) & 1 != 0
}

fn bf(w: u32) -> CrField {
    CrField(((w >> 23) & 7) as u8)
}

fn sh(w: u32) -> u8 {
    ((w >> 11) & 31) as u8
}

fn mb(w: u32) -> u8 {
    ((w >> 6) & 31) as u8
}

fn me(w: u32) -> u8 {
    ((w >> 1) & 31) as u8
}

fn bo(w: u32) -> u8 {
    ((w >> 21) & 31) as u8
}

fn bi(w: u32) -> CrBit {
    CrBit(((w >> 16) & 31) as u8)
}

fn spr_num(w: u32) -> u16 {
    let f = (w >> 11) & 0x3FF;
    (((f & 0x1F) << 5) | (f >> 5)) as u16
}

fn dload(w: u32, width: MemWidth, algebraic: bool, update: bool) -> Insn {
    Insn::Load {
        width,
        algebraic,
        update,
        indexed: false,
        rt: rt(w),
        ra: ra(w),
        rb: Gpr(0),
        d: si(w),
    }
}

fn dstore(w: u32, width: MemWidth, update: bool) -> Insn {
    Insn::Store { width, update, indexed: false, rs: rt(w), ra: ra(w), rb: Gpr(0), d: si(w) }
}

fn xload(w: u32, width: MemWidth, algebraic: bool, update: bool) -> Insn {
    Insn::Load { width, algebraic, update, indexed: true, rt: rt(w), ra: ra(w), rb: rb(w), d: 0 }
}

fn xstore(w: u32, width: MemWidth, update: bool) -> Insn {
    Insn::Store { width, update, indexed: true, rs: rt(w), ra: ra(w), rb: rb(w), d: 0 }
}

/// Decodes a 32-bit word into an [`Insn`].
///
/// Unrecognized words decode to [`Insn::Invalid`], preserving the raw
/// word — data interleaved with code is common and must survive.
pub fn decode(w: u32) -> Insn {
    match w >> 26 {
        3 => Insn::Twi { to: bo(w), ra: ra(w), si: si(w) },
        7 => Insn::Mulli { rt: rt(w), ra: ra(w), si: si(w) },
        8 => Insn::Subfic { rt: rt(w), ra: ra(w), si: si(w) },
        10 => Insn::CmpImm { bf: bf(w), signed: false, ra: ra(w), imm: ui(w) as i32 },
        11 => Insn::CmpImm { bf: bf(w), signed: true, ra: ra(w), imm: si(w) as i32 },
        12 => Insn::Addic { rt: rt(w), ra: ra(w), si: si(w), rc: false },
        13 => Insn::Addic { rt: rt(w), ra: ra(w), si: si(w), rc: true },
        14 => Insn::Addi { rt: rt(w), ra: ra(w), si: si(w) },
        15 => Insn::Addis { rt: rt(w), ra: ra(w), si: si(w) },
        16 => Insn::BranchC {
            bo: bo(w),
            bi: bi(w),
            bd: ((w & 0xFFFC) as u16 as i16),
            aa: (w >> 1) & 1 != 0,
            lk: w & 1 != 0,
        },
        17 => {
            if w & 2 != 0 {
                Insn::Sc
            } else {
                Insn::Invalid(w)
            }
        }
        18 => {
            // Sign-extend the 24-bit displacement field (bits 6..29).
            let li = ((w & 0x03FF_FFFC) as i32) << 6 >> 6;
            Insn::BranchI { li, aa: (w >> 1) & 1 != 0, lk: w & 1 != 0 }
        }
        19 => decode_op19(w),
        20 => Insn::Rlwimi { ra: ra(w), rs: rt(w), sh: sh(w), mb: mb(w), me: me(w), rc: rc(w) },
        21 => Insn::Rlwinm { ra: ra(w), rs: rt(w), sh: sh(w), mb: mb(w), me: me(w), rc: rc(w) },
        23 => Insn::Rlwnm { ra: ra(w), rs: rt(w), rb: rb(w), mb: mb(w), me: me(w), rc: rc(w) },
        24 => Insn::LogicImm { op: LogicImmOp::Ori, ra: ra(w), rs: rt(w), ui: ui(w) },
        25 => Insn::LogicImm { op: LogicImmOp::Oris, ra: ra(w), rs: rt(w), ui: ui(w) },
        26 => Insn::LogicImm { op: LogicImmOp::Xori, ra: ra(w), rs: rt(w), ui: ui(w) },
        27 => Insn::LogicImm { op: LogicImmOp::Xoris, ra: ra(w), rs: rt(w), ui: ui(w) },
        28 => Insn::LogicImm { op: LogicImmOp::Andi, ra: ra(w), rs: rt(w), ui: ui(w) },
        29 => Insn::LogicImm { op: LogicImmOp::Andis, ra: ra(w), rs: rt(w), ui: ui(w) },
        31 => decode_op31(w),
        32 => dload(w, MemWidth::Word, false, false),
        33 => dload(w, MemWidth::Word, false, true),
        34 => dload(w, MemWidth::Byte, false, false),
        35 => dload(w, MemWidth::Byte, false, true),
        36 => dstore(w, MemWidth::Word, false),
        37 => dstore(w, MemWidth::Word, true),
        38 => dstore(w, MemWidth::Byte, false),
        39 => dstore(w, MemWidth::Byte, true),
        40 => dload(w, MemWidth::Half, false, false),
        41 => dload(w, MemWidth::Half, false, true),
        42 => dload(w, MemWidth::Half, true, false),
        43 => dload(w, MemWidth::Half, true, true),
        44 => dstore(w, MemWidth::Half, false),
        45 => dstore(w, MemWidth::Half, true),
        46 => Insn::Lmw { rt: rt(w), ra: ra(w), d: si(w) },
        47 => Insn::Stmw { rs: rt(w), ra: ra(w), d: si(w) },
        _ => Insn::Invalid(w),
    }
}

/// Memoizes [`decode`] results per instruction-word address.
///
/// This is the shared direct-mapped memo table from the frontend
/// boundary, instantiated for PowerPC instructions; see
/// [`daisy_isa::DecodeCache`] for the self-invalidation story.
pub type DecodeCache = daisy_isa::DecodeCache<Insn>;

fn decode_op19(w: u32) -> Insn {
    let xo = (w >> 1) & 0x3FF;
    let crl = |op| Insn::CrLogic {
        op,
        bt: CrBit(((w >> 21) & 31) as u8),
        ba: CrBit(((w >> 16) & 31) as u8),
        bb: CrBit(((w >> 11) & 31) as u8),
    };
    match xo {
        xops::MCRF => Insn::Mcrf { bf: bf(w), bfa: CrField(((w >> 18) & 7) as u8) },
        xops::BCLR => Insn::BranchClr { bo: bo(w), bi: bi(w), lk: w & 1 != 0 },
        xops::BCCTR => Insn::BranchCctr { bo: bo(w), bi: bi(w), lk: w & 1 != 0 },
        xops::RFI => Insn::Rfi,
        xops::ISYNC => Insn::Isync,
        xops::CRAND => crl(CrOp::And),
        xops::CROR => crl(CrOp::Or),
        xops::CRXOR => crl(CrOp::Xor),
        xops::CRNAND => crl(CrOp::Nand),
        xops::CRNOR => crl(CrOp::Nor),
        xops::CREQV => crl(CrOp::Eqv),
        xops::CRANDC => crl(CrOp::Andc),
        xops::CRORC => crl(CrOp::Orc),
        _ => Insn::Invalid(w),
    }
}

fn decode_op31(w: u32) -> Insn {
    let xo = (w >> 1) & 0x3FF;
    // XO-form (arithmetic) instructions use a 9-bit extended opcode with
    // the OE bit above it; try that interpretation first.
    let xo9 = xo & 0x1FF;
    let arith = |op| Insn::Arith { op, rt: rt(w), ra: ra(w), rb: rb(w), oe: oe(w), rc: rc(w) };
    let arith2 = |op| Insn::Arith2 { op, rt: rt(w), ra: ra(w), oe: oe(w), rc: rc(w) };
    match xo9 {
        xops::ADD => return arith(ArithOp::Add),
        xops::ADDC => return arith(ArithOp::Addc),
        xops::ADDE => return arith(ArithOp::Adde),
        xops::SUBF => return arith(ArithOp::Subf),
        xops::SUBFC => return arith(ArithOp::Subfc),
        xops::SUBFE => return arith(ArithOp::Subfe),
        xops::MULLW => return arith(ArithOp::Mullw),
        xops::MULHW if !oe(w) => return arith(ArithOp::Mulhw),
        xops::MULHWU if !oe(w) => return arith(ArithOp::Mulhwu),
        xops::DIVW => return arith(ArithOp::Divw),
        xops::DIVWU => return arith(ArithOp::Divwu),
        xops::NEG => return arith2(Arith2Op::Neg),
        xops::ADDZE => return arith2(Arith2Op::Addze),
        xops::ADDME => return arith2(Arith2Op::Addme),
        xops::SUBFZE => return arith2(Arith2Op::Subfze),
        xops::SUBFME => return arith2(Arith2Op::Subfme),
        _ => {}
    }
    let logic = |op| Insn::Logic { op, ra: ra(w), rs: rt(w), rb: rb(w), rc: rc(w) };
    let shift = |op| Insn::Shift { op, ra: ra(w), rs: rt(w), rb: rb(w), rc: rc(w) };
    let unary = |op| Insn::Unary { op, ra: ra(w), rs: rt(w), rc: rc(w) };
    match xo {
        xops::CMP => Insn::Cmp { bf: bf(w), signed: true, ra: ra(w), rb: rb(w) },
        xops::CMPL => Insn::Cmp { bf: bf(w), signed: false, ra: ra(w), rb: rb(w) },
        xops::AND => logic(LogicOp::And),
        xops::OR => logic(LogicOp::Or),
        xops::XOR => logic(LogicOp::Xor),
        xops::NAND => logic(LogicOp::Nand),
        xops::NOR => logic(LogicOp::Nor),
        xops::ANDC => logic(LogicOp::Andc),
        xops::ORC => logic(LogicOp::Orc),
        xops::EQV => logic(LogicOp::Eqv),
        xops::SLW => shift(ShiftOp::Slw),
        xops::SRW => shift(ShiftOp::Srw),
        xops::SRAW => shift(ShiftOp::Sraw),
        xops::SRAWI => Insn::Srawi { ra: ra(w), rs: rt(w), sh: sh(w), rc: rc(w) },
        xops::CNTLZW => unary(UnaryOp::Cntlzw),
        xops::EXTSB => unary(UnaryOp::Extsb),
        xops::EXTSH => unary(UnaryOp::Extsh),
        xops::LWZX => xload(w, MemWidth::Word, false, false),
        xops::LWZUX => xload(w, MemWidth::Word, false, true),
        xops::LBZX => xload(w, MemWidth::Byte, false, false),
        xops::LBZUX => xload(w, MemWidth::Byte, false, true),
        xops::LHZX => xload(w, MemWidth::Half, false, false),
        xops::LHZUX => xload(w, MemWidth::Half, false, true),
        xops::LHAX => xload(w, MemWidth::Half, true, false),
        xops::LHAUX => xload(w, MemWidth::Half, true, true),
        xops::STWX => xstore(w, MemWidth::Word, false),
        xops::STWUX => xstore(w, MemWidth::Word, true),
        xops::STBX => xstore(w, MemWidth::Byte, false),
        xops::STBUX => xstore(w, MemWidth::Byte, true),
        xops::STHX => xstore(w, MemWidth::Half, false),
        xops::STHUX => xstore(w, MemWidth::Half, true),
        xops::MFCR => Insn::Mfcr { rt: rt(w) },
        xops::MTCRF => Insn::Mtcrf { fxm: ((w >> 12) & 0xFF) as u8, rs: rt(w) },
        xops::MFSPR => match Spr::from_number(spr_num(w)) {
            Some(spr) => Insn::Mfspr { rt: rt(w), spr },
            None => Insn::Invalid(w),
        },
        xops::MTSPR => match Spr::from_number(spr_num(w)) {
            Some(spr) => Insn::Mtspr { spr, rs: rt(w) },
            None => Insn::Invalid(w),
        },
        xops::MFMSR => Insn::Mfmsr { rt: rt(w) },
        xops::MTMSR => Insn::Mtmsr { rs: rt(w) },
        xops::SYNC => Insn::Sync,
        xops::EIEIO => Insn::Eieio,
        xops::TW => Insn::Tw { to: bo(w), ra: ra(w), rb: rb(w) },
        _ => Insn::Invalid(w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;

    #[test]
    fn decode_known_words() {
        assert_eq!(decode(0x3860_0001), Insn::Addi { rt: Gpr(3), ra: Gpr(0), si: 1 });
        assert_eq!(
            decode(0x7C85_3214),
            Insn::Arith {
                op: ArithOp::Add,
                rt: Gpr(4),
                ra: Gpr(5),
                rb: Gpr(6),
                oe: false,
                rc: false
            }
        );
        assert_eq!(decode(0x4E80_0020), Insn::BranchClr { bo: 20, bi: CrBit(0), lk: false });
        assert_eq!(decode(0x4400_0002), Insn::Sc);
    }

    #[test]
    fn decode_cache_hits_and_self_invalidates() {
        let mut c = DecodeCache::with_slots(16);
        let addi = 0x3860_0001; // li r3,1
        assert_eq!(c.decode_at(0x1000, addi, decode), decode(addi));
        // Same word at the same address: served from the cache.
        assert_eq!(c.decode_at(0x1000, addi, decode), Insn::Addi { rt: Gpr(3), ra: Gpr(0), si: 1 });
        // The word changed in place (self-modifying code): the stale
        // entry must not be returned.
        let sc = 0x4400_0002;
        assert_eq!(c.decode_at(0x1000, sc, decode), Insn::Sc);
        // A conflicting address mapping to the same slot evicts cleanly.
        assert_eq!(c.decode_at(0x1000 + 16 * 4, addi, decode), decode(addi));
        assert_eq!(c.decode_at(0x1000, sc, decode), Insn::Sc);
    }

    #[test]
    fn negative_branch_displacement() {
        let i = decode(0x4BFF_FFFC);
        assert_eq!(i, Insn::BranchI { li: -4, aa: false, lk: false });
    }

    #[test]
    fn invalid_word_roundtrip() {
        let w = 0xFFFF_FFFF;
        assert_eq!(encode(&decode(w)), w);
        let w2 = 0x0000_0000;
        assert_eq!(encode(&decode(w2)), w2);
    }

    #[test]
    fn mfspr_lr_roundtrip() {
        let i = Insn::Mfspr { rt: Gpr(0), spr: Spr::Lr };
        assert_eq!(decode(encode(&i)), i);
        // mflr r0 canonical encoding.
        assert_eq!(encode(&i), 0x7C08_02A6);
    }
}
