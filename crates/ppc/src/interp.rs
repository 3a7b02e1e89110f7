//! Reference interpreter for the PowerPC base architecture.
//!
//! The interpreter serves three roles in the reproduction:
//!
//! 1. **Semantics oracle** — DAISY-translated execution must leave the
//!    architected state (GPRs, CR, LR, CTR, XER, memory) exactly as this
//!    interpreter does; the integration tests diff the two.
//! 2. **Trace generator** — the oracle-parallelism study (paper Ch. 6)
//!    and the traditional-compiler baseline profile runs consume traces
//!    produced by [`Cpu::run_traced`].
//! 3. **Interpretive fallback** — the VMM interprets a few instructions
//!    after `rfi` instead of creating new entry points (paper §3.4), and
//!    this is the interpreter it uses.

use crate::decode::{decode, DecodeCache};
use crate::insn::{
    bo, Arith2Op, ArithOp, CrOp, Insn, LogicImmOp, LogicOp, MemWidth, ShiftOp, UnaryOp,
};
use crate::mem::{Memory, Mmu, XlateFault};
use crate::reg::{msr_bits, xer_bits, CrBit, CrField, Gpr, Spr};
use crate::vectors;

// Shared with every guest frontend; historical paths preserved here.
pub use daisy_isa::{Event, StopReason};
pub use daisy_vliw::op::{compare, rlw_mask, trap_taken};

/// Full architected processor state of the emulated PowerPC.
///
/// All registers the paper lists as needing to be produced precisely on
/// an interrupt are here: the GPRs, CR, LR, CTR, XER, MSR, and the
/// interrupt bookkeeping registers SRR0/SRR1/DAR/DSISR (paper §3.3).
#[derive(Debug, Clone)]
pub struct Cpu {
    /// General-purpose registers.
    pub gpr: [u32; 32],
    /// Condition register (8 four-bit fields, cr0 in the high nibble).
    pub cr: u32,
    /// Link register.
    pub lr: u32,
    /// Count register.
    pub ctr: u32,
    /// Fixed-point exception register (SO/OV/CA in the top bits).
    pub xer: u32,
    /// Machine state register.
    pub msr: u32,
    /// Save/restore 0: interrupted instruction address.
    pub srr0: u32,
    /// Save/restore 1: interrupted MSR.
    pub srr1: u32,
    /// Data address register: faulting data address.
    pub dar: u32,
    /// DSI status register.
    pub dsisr: u32,
    /// OS scratch registers.
    pub sprg: [u32; 2],
    /// Program counter.
    pub pc: u32,
    /// The base architecture's own page table.
    pub mmu: Mmu,
    /// When true, `run` delivers interrupts to the architected vectors
    /// instead of stopping (used when emulating OS-present systems).
    pub vectored: bool,
    /// Dynamic instruction count.
    pub ninstrs: u64,
}

impl Cpu {
    /// Creates a CPU in supervisor state, real addressing, at `entry`.
    pub fn new(entry: u32) -> Cpu {
        Cpu {
            gpr: [0; 32],
            cr: 0,
            lr: 0,
            ctr: 0,
            xer: 0,
            msr: 0,
            srr0: 0,
            srr1: 0,
            dar: 0,
            dsisr: 0,
            sprg: [0; 2],
            pc: entry,
            mmu: Mmu::new(),
            vectored: false,
            ninstrs: 0,
        }
    }

    /// Reads a CR field (4 bits).
    pub fn cr_field(&self, f: CrField) -> u32 {
        (self.cr >> (28 - 4 * u32::from(f.0))) & 0xF
    }

    /// Writes a CR field (4 bits).
    pub fn set_cr_field(&mut self, f: CrField, v: u32) {
        let sh = 28 - 4 * u32::from(f.0);
        self.cr = (self.cr & !(0xF << sh)) | ((v & 0xF) << sh);
    }

    /// Reads a single CR bit.
    pub fn cr_bit(&self, b: CrBit) -> bool {
        (self.cr >> (31 - u32::from(b.0))) & 1 != 0
    }

    /// Writes a single CR bit.
    pub fn set_cr_bit(&mut self, b: CrBit, v: bool) {
        let sh = 31 - u32::from(b.0);
        self.cr = (self.cr & !(1 << sh)) | ((v as u32) << sh);
    }

    /// True when in problem (user) state.
    pub fn user_mode(&self) -> bool {
        self.msr & msr_bits::PR != 0
    }

    fn set_so(&mut self) {
        self.xer |= xer_bits::SO;
    }

    fn set_ov(&mut self, ov: bool) {
        if ov {
            self.xer |= xer_bits::OV;
            self.set_so();
        } else {
            self.xer &= !xer_bits::OV;
        }
    }

    fn set_ca(&mut self, ca: bool) {
        if ca {
            self.xer |= xer_bits::CA;
        } else {
            self.xer &= !xer_bits::CA;
        }
    }

    fn ca(&self) -> u32 {
        u32::from(self.xer & xer_bits::CA != 0)
    }

    /// The 4-bit compare result of `v` against zero, with the SO copy.
    pub fn cr0_value(&self, v: u32) -> u32 {
        let so = u32::from(self.xer & xer_bits::SO != 0);
        let v = v as i32;
        if v < 0 {
            0b1000 | so
        } else if v > 0 {
            0b0100 | so
        } else {
            0b0010 | so
        }
    }

    fn record(&mut self, v: u32) {
        let f = self.cr0_value(v);
        self.set_cr_field(CrField(0), f);
    }

    fn xlate_data(&self, ea: u32, write: bool) -> Result<u32, Event> {
        if self.msr & msr_bits::DR == 0 {
            return Ok(ea);
        }
        self.mmu.translate(ea, write).map_err(|f| {
            let _ = matches!(f, XlateFault::Protection);
            Event::Dsi { addr: ea, write }
        })
    }

    fn xlate_fetch(&self, ea: u32) -> Result<u32, Event> {
        if self.msr & msr_bits::IR == 0 {
            return Ok(ea);
        }
        self.mmu.translate(ea, false).map_err(|_| Event::Isi)
    }

    fn load(&self, mem: &Memory, ea: u32, width: MemWidth, algebraic: bool) -> Result<u32, Event> {
        let pa = self.xlate_data(ea, false)?;
        let v =
            match width {
                MemWidth::Byte => mem.read_u8(pa).map(u32::from),
                MemWidth::Half => mem.read_u16(pa).map(|v| {
                    if algebraic {
                        v as i16 as i32 as u32
                    } else {
                        u32::from(v)
                    }
                }),
                MemWidth::Word => mem.read_u32(pa),
            };
        v.map_err(|_| Event::Dsi { addr: ea, write: false })
    }

    fn store(&self, mem: &mut Memory, ea: u32, width: MemWidth, v: u32) -> Result<(), Event> {
        let pa = self.xlate_data(ea, true)?;
        let r = match width {
            MemWidth::Byte => mem.write_u8(pa, v as u8),
            MemWidth::Half => mem.write_u16(pa, v as u16),
            MemWidth::Word => mem.write_u32(pa, v),
        };
        r.map_err(|_| Event::Dsi { addr: ea, write: true })
    }

    /// Fetches and decodes the instruction at the current PC without
    /// executing it.
    pub fn fetch(&self, mem: &Memory) -> Result<Insn, Event> {
        let pa = self.xlate_fetch(self.pc)?;
        mem.read_u32(pa).map(decode).map_err(|_| Event::Isi)
    }

    /// Like [`Cpu::fetch`], memoizing the decode through `dcache`. The
    /// raw word is still read every time (so self-modifying code is
    /// observed), but revisited words skip the decoder.
    pub fn fetch_cached(&self, mem: &Memory, dcache: &mut DecodeCache) -> Result<Insn, Event> {
        let pa = self.xlate_fetch(self.pc)?;
        let word = mem.read_u32(pa).map_err(|_| Event::Isi)?;
        Ok(dcache.decode_at(pa, word, decode))
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

    fn ea_d(&self, ra: Gpr, d: i16) -> u32 {
        let base = if ra.0 == 0 { 0 } else { self.gpr[ra.0 as usize] };
        base.wrapping_add(d as i32 as u32)
    }

    fn ea_x(&self, ra: Gpr, rb: Gpr) -> u32 {
        let base = if ra.0 == 0 { 0 } else { self.gpr[ra.0 as usize] };
        base.wrapping_add(self.gpr[rb.0 as usize])
    }

    #[allow(clippy::too_many_lines)]
    fn execute_inner(&mut self, mem: &mut Memory, insn: Insn, next: u32) -> Event {
        let g = |r: Gpr| self.gpr[r.0 as usize];
        match insn {
            Insn::Addi { rt, ra, si } => {
                let base = if ra.0 == 0 { 0 } else { g(ra) };
                self.gpr[rt.0 as usize] = base.wrapping_add(si as i32 as u32);
            }
            Insn::Addis { rt, ra, si } => {
                let base = if ra.0 == 0 { 0 } else { g(ra) };
                self.gpr[rt.0 as usize] = base.wrapping_add((si as i32 as u32) << 16);
            }
            Insn::Addic { rt, ra, si, rc } => {
                let a = g(ra);
                let b = si as i32 as u32;
                let s = u64::from(a) + u64::from(b);
                self.gpr[rt.0 as usize] = s as u32;
                self.set_ca(s >> 32 != 0);
                if rc {
                    self.record(s as u32);
                }
            }
            Insn::Subfic { rt, ra, si } => {
                let a = g(ra);
                let b = si as i32 as u32;
                let s = u64::from(!a) + u64::from(b) + 1;
                self.gpr[rt.0 as usize] = s as u32;
                self.set_ca(s >> 32 != 0);
            }
            Insn::Mulli { rt, ra, si } => {
                self.gpr[rt.0 as usize] = (g(ra) as i32).wrapping_mul(si as i32) as u32;
            }
            Insn::Arith { op, rt, ra, rb, oe, rc } => {
                let a = g(ra);
                let b = g(rb);
                let (r, ca, ov) = match op {
                    ArithOp::Add => {
                        let s = u64::from(a) + u64::from(b);
                        let r = s as u32;
                        (r, None, ((a ^ r) & (b ^ r)) >> 31 != 0)
                    }
                    ArithOp::Addc => {
                        let s = u64::from(a) + u64::from(b);
                        let r = s as u32;
                        (r, Some(s >> 32 != 0), ((a ^ r) & (b ^ r)) >> 31 != 0)
                    }
                    ArithOp::Adde => {
                        let s = u64::from(a) + u64::from(b) + u64::from(self.ca());
                        let r = s as u32;
                        (r, Some(s >> 32 != 0), ((a ^ r) & (b ^ r)) >> 31 != 0)
                    }
                    ArithOp::Subf => {
                        let s = u64::from(!a) + u64::from(b) + 1;
                        let r = s as u32;
                        (r, None, ((!a ^ r) & (b ^ r)) >> 31 != 0)
                    }
                    ArithOp::Subfc => {
                        let s = u64::from(!a) + u64::from(b) + 1;
                        let r = s as u32;
                        (r, Some(s >> 32 != 0), ((!a ^ r) & (b ^ r)) >> 31 != 0)
                    }
                    ArithOp::Subfe => {
                        let s = u64::from(!a) + u64::from(b) + u64::from(self.ca());
                        let r = s as u32;
                        (r, Some(s >> 32 != 0), ((!a ^ r) & (b ^ r)) >> 31 != 0)
                    }
                    ArithOp::Mullw => {
                        let p = i64::from(a as i32) * i64::from(b as i32);
                        (p as u32, None, p != i64::from(p as i32))
                    }
                    ArithOp::Mulhw => {
                        let p = i64::from(a as i32) * i64::from(b as i32);
                        ((p >> 32) as u32, None, false)
                    }
                    ArithOp::Mulhwu => {
                        let p = u64::from(a) * u64::from(b);
                        ((p >> 32) as u32, None, false)
                    }
                    ArithOp::Divw => {
                        if b == 0 || (a == 0x8000_0000 && b == 0xFFFF_FFFF) {
                            (0, None, true)
                        } else {
                            (((a as i32) / (b as i32)) as u32, None, false)
                        }
                    }
                    ArithOp::Divwu => match a.checked_div(b) {
                        Some(q) => (q, None, false),
                        None => (0, None, true),
                    },
                };
                self.gpr[rt.0 as usize] = r;
                if let Some(c) = ca {
                    self.set_ca(c);
                }
                if oe {
                    self.set_ov(ov);
                }
                if rc {
                    self.record(r);
                }
            }
            Insn::Arith2 { op, rt, ra, oe, rc } => {
                let a = g(ra);
                let (r, ca, ov) = match op {
                    Arith2Op::Neg => {
                        let r = (!a).wrapping_add(1);
                        (r, None, a == 0x8000_0000)
                    }
                    Arith2Op::Addze => {
                        let s = u64::from(a) + u64::from(self.ca());
                        let r = s as u32;
                        // Signed overflow: positive + carry wrapped negative.
                        (r, Some(s >> 32 != 0), (!a & r) >> 31 != 0)
                    }
                    Arith2Op::Addme => {
                        let s = u64::from(a) + u64::from(self.ca()) + 0xFFFF_FFFF;
                        (s as u32, Some(s >> 32 != 0), false)
                    }
                    Arith2Op::Subfze => {
                        let s = u64::from(!a) + u64::from(self.ca());
                        (s as u32, Some(s >> 32 != 0), false)
                    }
                    Arith2Op::Subfme => {
                        let s = u64::from(!a) + u64::from(self.ca()) + 0xFFFF_FFFF;
                        (s as u32, Some(s >> 32 != 0), false)
                    }
                };
                self.gpr[rt.0 as usize] = r;
                if let Some(c) = ca {
                    self.set_ca(c);
                }
                if oe {
                    self.set_ov(ov);
                }
                if rc {
                    self.record(r);
                }
            }
            Insn::Logic { op, ra, rs, rb, rc } => {
                let s = g(rs);
                let b = g(rb);
                let r = match op {
                    LogicOp::And => s & b,
                    LogicOp::Or => s | b,
                    LogicOp::Xor => s ^ b,
                    LogicOp::Nand => !(s & b),
                    LogicOp::Nor => !(s | b),
                    LogicOp::Andc => s & !b,
                    LogicOp::Orc => s | !b,
                    LogicOp::Eqv => !(s ^ b),
                };
                self.gpr[ra.0 as usize] = r;
                if rc {
                    self.record(r);
                }
            }
            Insn::LogicImm { op, ra, rs, ui } => {
                let s = g(rs);
                let u = u32::from(ui);
                let r = match op {
                    LogicImmOp::Andi => s & u,
                    LogicImmOp::Andis => s & (u << 16),
                    LogicImmOp::Ori => s | u,
                    LogicImmOp::Oris => s | (u << 16),
                    LogicImmOp::Xori => s ^ u,
                    LogicImmOp::Xoris => s ^ (u << 16),
                };
                self.gpr[ra.0 as usize] = r;
                if op.records() {
                    self.record(r);
                }
            }
            Insn::Shift { op, ra, rs, rb, rc } => {
                let s = g(rs);
                let n = g(rb) & 0x3F;
                let r = match op {
                    ShiftOp::Slw => {
                        if n >= 32 {
                            0
                        } else {
                            s << n
                        }
                    }
                    ShiftOp::Srw => {
                        if n >= 32 {
                            0
                        } else {
                            s >> n
                        }
                    }
                    ShiftOp::Sraw => {
                        let neg = (s as i32) < 0;
                        let (r, ca) = if n >= 32 {
                            (if neg { 0xFFFF_FFFF } else { 0 }, neg && s != 0)
                        } else {
                            let lost = n > 0 && s & ((1u32 << n) - 1) != 0;
                            (((s as i32) >> n) as u32, neg && lost)
                        };
                        self.set_ca(ca);
                        r
                    }
                };
                self.gpr[ra.0 as usize] = r;
                if rc {
                    self.record(r);
                }
            }
            Insn::Srawi { ra, rs, sh, rc } => {
                let s = g(rs);
                let n = u32::from(sh & 31);
                let neg = (s as i32) < 0;
                let lost = n > 0 && s & ((1u32 << n) - 1) != 0;
                let r = ((s as i32) >> n) as u32;
                self.set_ca(neg && lost);
                self.gpr[ra.0 as usize] = r;
                if rc {
                    self.record(r);
                }
            }
            Insn::Rlwinm { ra, rs, sh, mb, me, rc } => {
                let r = g(rs).rotate_left(u32::from(sh & 31)) & rlw_mask(mb, me);
                self.gpr[ra.0 as usize] = r;
                if rc {
                    self.record(r);
                }
            }
            Insn::Rlwimi { ra, rs, sh, mb, me, rc } => {
                let m = rlw_mask(mb, me);
                let r = (g(rs).rotate_left(u32::from(sh & 31)) & m) | (g(ra) & !m);
                self.gpr[ra.0 as usize] = r;
                if rc {
                    self.record(r);
                }
            }
            Insn::Rlwnm { ra, rs, rb, mb, me, rc } => {
                let r = g(rs).rotate_left(g(rb) & 31) & rlw_mask(mb, me);
                self.gpr[ra.0 as usize] = r;
                if rc {
                    self.record(r);
                }
            }
            Insn::Unary { op, ra, rs, rc } => {
                let s = g(rs);
                let r = match op {
                    UnaryOp::Cntlzw => s.leading_zeros(),
                    UnaryOp::Extsb => s as u8 as i8 as i32 as u32,
                    UnaryOp::Extsh => s as u16 as i16 as i32 as u32,
                };
                self.gpr[ra.0 as usize] = r;
                if rc {
                    self.record(r);
                }
            }
            Insn::Cmp { bf, signed, ra, rb } => {
                let f = compare(g(ra), g(rb), signed, self.xer & xer_bits::SO != 0);
                self.set_cr_field(bf, f);
            }
            Insn::CmpImm { bf, signed, ra, imm } => {
                let f = compare(g(ra), imm as u32, signed, self.xer & xer_bits::SO != 0);
                self.set_cr_field(bf, f);
            }
            Insn::Load { width, algebraic, update, indexed, rt, ra, rb, d } => {
                let ea = if indexed { self.ea_x(ra, rb) } else { self.ea_d(ra, d) };
                match self.load(mem, ea, width, algebraic) {
                    Ok(v) => {
                        self.gpr[rt.0 as usize] = v;
                        if update {
                            self.gpr[ra.0 as usize] = ea;
                        }
                    }
                    Err(e) => return self.data_fault(e),
                }
            }
            Insn::Store { width, update, indexed, rs, ra, rb, d } => {
                let ea = if indexed { self.ea_x(ra, rb) } else { self.ea_d(ra, d) };
                match self.store(mem, ea, width, g(rs)) {
                    Ok(()) => {
                        if update {
                            self.gpr[ra.0 as usize] = ea;
                        }
                    }
                    Err(e) => return self.data_fault(e),
                }
            }
            Insn::Lmw { rt, ra, d } => {
                let base = self.ea_d(ra, d);
                // Pre-check the whole range so the instruction is atomic
                // with respect to faults (restartable, paper §3.6).
                let count = 32 - u32::from(rt.0);
                for i in 0..count {
                    let ea = base.wrapping_add(4 * i);
                    if let Err(e) = self.load(mem, ea, MemWidth::Word, false) {
                        return self.data_fault(e);
                    }
                }
                for i in 0..count {
                    let ea = base.wrapping_add(4 * i);
                    let v = self.load(mem, ea, MemWidth::Word, false).expect("pre-checked");
                    self.gpr[(u32::from(rt.0) + i) as usize] = v;
                }
            }
            Insn::Stmw { rs, ra, d } => {
                let base = self.ea_d(ra, d);
                let count = 32 - u32::from(rs.0);
                for i in 0..count {
                    let ea = base.wrapping_add(4 * i);
                    if self.xlate_data(ea, true).is_err() {
                        return self.data_fault(Event::Dsi { addr: ea, write: true });
                    }
                }
                for i in 0..count {
                    let ea = base.wrapping_add(4 * i);
                    let v = self.gpr[(u32::from(rs.0) + i) as usize];
                    if let Err(e) = self.store(mem, ea, MemWidth::Word, v) {
                        return self.data_fault(e);
                    }
                }
            }
            Insn::BranchI { .. }
            | Insn::BranchC { .. }
            | Insn::BranchClr { .. }
            | Insn::BranchCctr { .. } => {
                return self.branch(insn, next);
            }
            Insn::CrLogic { op, bt, ba, bb } => {
                let a = self.cr_bit(ba);
                let b = self.cr_bit(bb);
                let r = match op {
                    CrOp::And => a & b,
                    CrOp::Or => a | b,
                    CrOp::Xor => a ^ b,
                    CrOp::Nand => !(a & b),
                    CrOp::Nor => !(a | b),
                    CrOp::Eqv => !(a ^ b),
                    CrOp::Andc => a & !b,
                    CrOp::Orc => a | !b,
                };
                self.set_cr_bit(bt, r);
            }
            Insn::Mcrf { bf, bfa } => {
                let v = self.cr_field(bfa);
                self.set_cr_field(bf, v);
            }
            Insn::Mfcr { rt } => self.gpr[rt.0 as usize] = self.cr,
            Insn::Mtcrf { fxm, rs } => {
                let v = g(rs);
                for f in 0..8 {
                    if fxm & (0x80 >> f) != 0 {
                        let sh = 28 - 4 * f;
                        self.cr = (self.cr & !(0xF << sh)) | (v & (0xF << sh));
                    }
                }
            }
            Insn::Mfspr { rt, spr } => {
                if spr.user_accessible() || !self.user_mode() {
                    self.gpr[rt.0 as usize] = self.read_spr(spr);
                } else {
                    return Event::Program;
                }
            }
            Insn::Mtspr { spr, rs } => {
                if spr.user_accessible() || !self.user_mode() {
                    let v = g(rs);
                    self.write_spr(spr, v);
                } else {
                    return Event::Program;
                }
            }
            Insn::Mfmsr { rt } => {
                if self.user_mode() {
                    return Event::Program;
                }
                self.gpr[rt.0 as usize] = self.msr;
            }
            Insn::Mtmsr { rs } => {
                if self.user_mode() {
                    return Event::Program;
                }
                self.msr = g(rs);
            }
            Insn::Sc => {
                self.pc = next;
                return Event::Syscall;
            }
            Insn::Rfi => {
                if self.user_mode() {
                    return Event::Program;
                }
                self.msr = self.srr1;
                self.pc = self.srr0 & !3;
                // Counted by `execute` like every completed
                // instruction — no extra increment here.
                return Event::Continue;
            }
            Insn::Sync | Insn::Isync | Insn::Eieio => {}
            Insn::Tw { to, ra, rb } => {
                if trap_taken(to, g(ra), g(rb)) {
                    return Event::Trap;
                }
            }
            Insn::Twi { to, ra, si } => {
                if trap_taken(to, g(ra), si as i32 as u32) {
                    return Event::Trap;
                }
            }
            Insn::Invalid(_) => return Event::Program,
        }
        self.pc = next;
        Event::Continue
    }

    fn data_fault(&mut self, e: Event) -> Event {
        if let Event::Dsi { addr, write } = e {
            self.record_data_fault_regs(addr, write);
        }
        e
    }

    /// Records a data-fault address and direction in DAR/DSISR without
    /// redirecting control.
    pub fn record_data_fault_regs(&mut self, addr: u32, write: bool) {
        self.dar = addr;
        self.dsisr = if write { 0x4200_0000 } else { 0x4000_0000 };
    }

    fn branch(&mut self, insn: Insn, next: u32) -> Event {
        let (taken, target, lk) = match insn {
            Insn::BranchI { li, aa, lk } => {
                let t = if aa { li as u32 } else { self.pc.wrapping_add(li as u32) };
                (true, t, lk)
            }
            Insn::BranchC { bo: b, bi, bd, aa, lk } => {
                let t = if aa { bd as i32 as u32 } else { self.pc.wrapping_add(bd as i32 as u32) };
                (self.branch_taken(b, bi), t, lk)
            }
            Insn::BranchClr { bo: b, bi, lk } => (self.branch_taken(b, bi), self.lr & !3, lk),
            Insn::BranchCctr { bo: b, bi, lk } => {
                // bcctr must not use a CTR-decrementing BO; treat as non-ctr.
                let cond_ok = bo::ignores_cond(b) || self.cr_bit(bi) == bo::wants_true(b);
                (cond_ok, self.ctr & !3, lk)
            }
            _ => unreachable!("branch() called on non-branch"),
        };
        if lk {
            self.lr = next;
        }
        self.pc = if taken { target } else { next };
        // Counted by `execute` like every completed instruction — an
        // extra increment here double-counted every branch, inflating
        // each ILP denominator (see `tests/stats_pin.rs`).
        Event::Continue
    }

    /// Evaluates the BO/BI condition, decrementing CTR when BO asks.
    pub fn branch_taken(&mut self, b: u8, bi: CrBit) -> bool {
        let ctr_ok = if bo::ignores_ctr(b) {
            true
        } else {
            self.ctr = self.ctr.wrapping_sub(1);
            (self.ctr != 0) != bo::wants_ctr_zero(b)
        };
        let cond_ok = bo::ignores_cond(b) || self.cr_bit(bi) == bo::wants_true(b);
        ctr_ok && cond_ok
    }

    fn read_spr(&self, spr: Spr) -> u32 {
        match spr {
            Spr::Xer => self.xer,
            Spr::Lr => self.lr,
            Spr::Ctr => self.ctr,
            Spr::Srr0 => self.srr0,
            Spr::Srr1 => self.srr1,
            Spr::Dar => self.dar,
            Spr::Dsisr => self.dsisr,
            Spr::Sprg0 => self.sprg[0],
            Spr::Sprg1 => self.sprg[1],
        }
    }

    fn write_spr(&mut self, spr: Spr, v: u32) {
        match spr {
            // Only SO/OV/CA are architected in this subset; the XER
            // byte-count field exists solely for the string instructions
            // (lswx/stswx), which it does not include.
            Spr::Xer => self.xer = v & (xer_bits::SO | xer_bits::OV | xer_bits::CA),
            Spr::Lr => self.lr = v,
            Spr::Ctr => self.ctr = v,
            Spr::Srr0 => self.srr0 = v,
            Spr::Srr1 => self.srr1 = v,
            Spr::Dar => self.dar = v,
            Spr::Dsisr => self.dsisr = v,
            Spr::Sprg0 => self.sprg[0] = v,
            Spr::Sprg1 => self.sprg[1] = v,
        }
    }

    /// Delivers an interrupt to the architected vector: saves PC/MSR to
    /// SRR0/SRR1, drops to supervisor real mode, jumps to the vector.
    pub fn deliver(&mut self, vector: u32, srr0: u32) {
        self.srr0 = srr0;
        self.srr1 = self.msr;
        self.msr &= !(msr_bits::EE | msr_bits::PR | msr_bits::IR | msr_bits::DR);
        self.pc = vector;
    }

    /// Resolves an interpreter event: delivers it to an architected
    /// vector (when [`Cpu::vectored`](Cpu)) or turns it into a stop.
    pub fn handle_event(&mut self, ev: Event) -> Option<StopReason> {
        match ev {
            Event::Continue => None,
            Event::Syscall => {
                if self.vectored {
                    self.deliver(vectors::SYSCALL, self.pc);
                    None
                } else {
                    Some(StopReason::Syscall)
                }
            }
            Event::Trap | Event::Program => {
                if self.vectored {
                    self.deliver(vectors::PROGRAM, self.pc);
                    None
                } else if ev == Event::Trap {
                    Some(StopReason::Trap)
                } else {
                    Some(StopReason::Program)
                }
            }
            Event::Dsi { addr, write } => {
                if self.vectored {
                    self.deliver(vectors::DSI, self.pc);
                    None
                } else {
                    Some(StopReason::StorageFault { addr, write, fetch: false })
                }
            }
            Event::Isi => {
                if self.vectored {
                    self.deliver(vectors::ISI, self.pc);
                    None
                } else {
                    Some(StopReason::StorageFault { addr: self.pc, write: false, fetch: true })
                }
            }
        }
    }

    /// Runs until a stop condition or `max_instrs` instructions.
    pub fn run(&mut self, mem: &mut Memory, max_instrs: u64) -> Result<StopReason, MemTooSmall> {
        self.run_traced(mem, max_instrs, |_, _| {})
    }

    /// Like [`Cpu::run`], invoking `trace(pc, insn)` for every
    /// successfully executed instruction.
    pub fn run_traced(
        &mut self,
        mem: &mut Memory,
        max_instrs: u64,
        mut trace: impl FnMut(u32, &Insn),
    ) -> Result<StopReason, MemTooSmall> {
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
                return Ok(stop);
            }
        }
        Ok(StopReason::MaxInstrs)
    }
}

/// Error for impossible configurations (kept for future use; `run` is
/// currently infallible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemTooSmall;

impl std::fmt::Display for MemTooSmall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory too small for requested operation")
    }
}

impl std::error::Error for MemTooSmall {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;

    fn setup(words: &[u32]) -> (Cpu, Memory) {
        let mut mem = Memory::new(0x2_0000);
        for (i, w) in words.iter().enumerate() {
            mem.write_u32(0x1000 + 4 * i as u32, *w).unwrap();
        }
        (Cpu::new(0x1000), mem)
    }

    fn asm(insns: &[Insn]) -> Vec<u32> {
        insns.iter().map(encode).collect()
    }

    #[test]
    fn rlw_mask_values() {
        assert_eq!(rlw_mask(0, 31), 0xFFFF_FFFF);
        assert_eq!(rlw_mask(0, 0), 0x8000_0000);
        assert_eq!(rlw_mask(31, 31), 1);
        assert_eq!(rlw_mask(24, 31), 0xFF);
        // Wraparound mask.
        assert_eq!(rlw_mask(31, 0), 0x8000_0001);
    }

    #[test]
    fn add_and_record() {
        let (mut cpu, mut mem) = setup(&asm(&[
            Insn::Addi { rt: Gpr(1), ra: Gpr(0), si: -5 },
            Insn::Addi { rt: Gpr(2), ra: Gpr(0), si: 5 },
            Insn::Arith {
                op: ArithOp::Add,
                rt: Gpr(3),
                ra: Gpr(1),
                rb: Gpr(2),
                oe: false,
                rc: true,
            },
            Insn::Sc,
        ]));
        assert_eq!(cpu.run(&mut mem, 100).unwrap(), StopReason::Syscall);
        assert_eq!(cpu.gpr[3], 0);
        assert_eq!(cpu.cr_field(CrField(0)), 0b0010); // EQ
    }

    #[test]
    fn carry_chain_64bit_add() {
        // 64-bit add of 0x1_0000_0000 via addc/adde.
        let (mut cpu, mut mem) = setup(&asm(&[
            Insn::Arith {
                op: ArithOp::Addc,
                rt: Gpr(5),
                ra: Gpr(1),
                rb: Gpr(3),
                oe: false,
                rc: false,
            },
            Insn::Arith {
                op: ArithOp::Adde,
                rt: Gpr(6),
                ra: Gpr(2),
                rb: Gpr(4),
                oe: false,
                rc: false,
            },
            Insn::Sc,
        ]));
        cpu.gpr[1] = 0xFFFF_FFFF; // low a
        cpu.gpr[2] = 0x0000_0001; // high a
        cpu.gpr[3] = 0x0000_0001; // low b
        cpu.gpr[4] = 0x0000_0002; // high b
        cpu.run(&mut mem, 10).unwrap();
        assert_eq!(cpu.gpr[5], 0); // low sum
        assert_eq!(cpu.gpr[6], 4); // high sum with carry
    }

    #[test]
    fn bdnz_loop_counts() {
        // li r3,0; li r4,5; mtctr r4; loop: addi r3,r3,1; bdnz loop; sc
        let (mut cpu, mut mem) = setup(&asm(&[
            Insn::Addi { rt: Gpr(3), ra: Gpr(0), si: 0 },
            Insn::Addi { rt: Gpr(4), ra: Gpr(0), si: 5 },
            Insn::Mtspr { spr: Spr::Ctr, rs: Gpr(4) },
            Insn::Addi { rt: Gpr(3), ra: Gpr(3), si: 1 },
            Insn::BranchC { bo: bo::DNZ, bi: CrBit(0), bd: -4, aa: false, lk: false },
            Insn::Sc,
        ]));
        cpu.run(&mut mem, 100).unwrap();
        assert_eq!(cpu.gpr[3], 5);
        assert_eq!(cpu.ctr, 0);
    }

    #[test]
    fn load_store_roundtrip_widths() {
        let (mut cpu, mut mem) = setup(&asm(&[
            Insn::Store {
                width: MemWidth::Word,
                update: false,
                indexed: false,
                rs: Gpr(3),
                ra: Gpr(1),
                rb: Gpr(0),
                d: 0,
            },
            Insn::Load {
                width: MemWidth::Half,
                algebraic: true,
                update: false,
                indexed: false,
                rt: Gpr(4),
                ra: Gpr(1),
                rb: Gpr(0),
                d: 0,
            },
            Insn::Load {
                width: MemWidth::Byte,
                algebraic: false,
                update: false,
                indexed: false,
                rt: Gpr(5),
                ra: Gpr(1),
                rb: Gpr(0),
                d: 3,
            },
            Insn::Sc,
        ]));
        cpu.gpr[1] = 0x8000;
        cpu.gpr[3] = 0xFFFE_1234;
        cpu.run(&mut mem, 10).unwrap();
        assert_eq!(cpu.gpr[4], 0xFFFF_FFFE); // lha sign-extends
        assert_eq!(cpu.gpr[5], 0x34);
    }

    #[test]
    fn update_forms_write_back_ea() {
        let (mut cpu, mut mem) = setup(&asm(&[
            Insn::Store {
                width: MemWidth::Word,
                update: true,
                indexed: false,
                rs: Gpr(3),
                ra: Gpr(1),
                rb: Gpr(0),
                d: 4,
            },
            Insn::Load {
                width: MemWidth::Word,
                algebraic: false,
                update: true,
                indexed: false,
                rt: Gpr(4),
                ra: Gpr(2),
                rb: Gpr(0),
                d: 4,
            },
            Insn::Sc,
        ]));
        cpu.gpr[1] = 0x8000;
        cpu.gpr[2] = 0x8000;
        cpu.gpr[3] = 99;
        cpu.run(&mut mem, 10).unwrap();
        assert_eq!(cpu.gpr[1], 0x8004);
        assert_eq!(cpu.gpr[2], 0x8004);
        assert_eq!(cpu.gpr[4], 99);
    }

    #[test]
    fn lmw_stmw_roundtrip() {
        let (mut cpu, mut mem) = setup(&asm(&[
            Insn::Stmw { rs: Gpr(28), ra: Gpr(1), d: 0 },
            Insn::Lmw { rt: Gpr(28), ra: Gpr(2), d: 0 },
            Insn::Sc,
        ]));
        cpu.gpr[1] = 0x8000;
        cpu.gpr[2] = 0x8000;
        cpu.gpr[28] = 11;
        cpu.gpr[29] = 22;
        cpu.gpr[30] = 33;
        cpu.gpr[31] = 44;
        cpu.run(&mut mem, 10).unwrap();
        assert_eq!(mem.read_u32(0x800C).unwrap(), 44);
        assert_eq!(cpu.gpr[28], 11);
    }

    #[test]
    fn bl_blr_call_return() {
        // bl +8; sc;  target: blr
        let (mut cpu, mut mem) = setup(&asm(&[
            Insn::BranchI { li: 8, aa: false, lk: true },
            Insn::Sc,
            Insn::BranchClr { bo: bo::ALWAYS, bi: CrBit(0), lk: false },
        ]));
        assert_eq!(cpu.run(&mut mem, 10).unwrap(), StopReason::Syscall);
        assert_eq!(cpu.lr, 0x1004);
        assert_eq!(cpu.pc, 0x1008); // advanced past sc
    }

    #[test]
    fn srawi_sets_carry_only_when_ones_lost() {
        let (mut cpu, mut mem) =
            setup(&asm(&[Insn::Srawi { ra: Gpr(3), rs: Gpr(1), sh: 2, rc: false }, Insn::Sc]));
        cpu.gpr[1] = 0xFFFF_FFFC; // -4: no 1 bits lost
        cpu.run(&mut mem, 10).unwrap();
        assert_eq!(cpu.gpr[3], 0xFFFF_FFFF);
        assert_eq!(cpu.xer & xer_bits::CA, 0);

        let (mut cpu, mut mem) =
            setup(&asm(&[Insn::Srawi { ra: Gpr(3), rs: Gpr(1), sh: 2, rc: false }, Insn::Sc]));
        cpu.gpr[1] = 0xFFFF_FFFD; // -3: a 1 bit is lost
        cpu.run(&mut mem, 10).unwrap();
        assert_eq!(cpu.xer & xer_bits::CA, xer_bits::CA);
    }

    #[test]
    fn trap_stops() {
        let (mut cpu, mut mem) = setup(&asm(&[
            Insn::Twi { to: 4, ra: Gpr(3), si: 0 }, // trap if r3 == 0
            Insn::Sc,
        ]));
        assert_eq!(cpu.run(&mut mem, 10).unwrap(), StopReason::Trap);
    }

    #[test]
    fn privileged_in_user_mode_is_program_exception() {
        let (mut cpu, mut mem) = setup(&asm(&[Insn::Mfmsr { rt: Gpr(3) }]));
        cpu.msr |= msr_bits::PR;
        assert_eq!(cpu.run(&mut mem, 10).unwrap(), StopReason::Program);
    }

    #[test]
    fn vectored_syscall_and_rfi() {
        // Program at 0x1000: sc; then (after return) li r7,1; sc.
        // Handler at 0xC00: rfi (just returns).
        let (mut cpu, mut mem) =
            setup(&asm(&[Insn::Sc, Insn::Addi { rt: Gpr(7), ra: Gpr(0), si: 1 }, Insn::Sc]));
        mem.write_u32(vectors::SYSCALL, encode(&Insn::Addi { rt: Gpr(9), ra: Gpr(0), si: 42 }))
            .unwrap();
        mem.write_u32(vectors::SYSCALL + 4, encode(&Insn::Rfi)).unwrap();
        cpu.vectored = true;
        // First sc vectors, handler sets r9 and rfi's back; the second
        // sc vectors again and the handler's rfi is the 7th completed
        // instruction — stop exactly there via max instrs (running
        // further would fall off the program into zeroed memory).
        let stop = cpu.run(&mut mem, 7).unwrap();
        assert_eq!(stop, StopReason::MaxInstrs);
        assert_eq!(cpu.ninstrs, 7, "sc/addi/rfi twice plus li r7 count once each");
        assert_eq!(cpu.gpr[9], 42);
        assert_eq!(cpu.gpr[7], 1);
    }

    #[test]
    fn dsi_reports_dar() {
        let (mut cpu, mut mem) = setup(&asm(&[Insn::Load {
            width: MemWidth::Word,
            algebraic: false,
            update: false,
            indexed: false,
            rt: Gpr(3),
            ra: Gpr(1),
            rb: Gpr(0),
            d: 0,
        }]));
        cpu.gpr[1] = 0x00F0_0000; // beyond memory
        let stop = cpu.run(&mut mem, 10).unwrap();
        assert_eq!(
            stop,
            StopReason::StorageFault { addr: 0x00F0_0000, write: false, fetch: false }
        );
        assert_eq!(cpu.dar, 0x00F0_0000);
    }

    #[test]
    fn mmu_relocated_load() {
        let (mut cpu, mut mem) = setup(&asm(&[
            Insn::Load {
                width: MemWidth::Word,
                algebraic: false,
                update: false,
                indexed: false,
                rt: Gpr(3),
                ra: Gpr(1),
                rb: Gpr(0),
                d: 0,
            },
            Insn::Sc,
        ]));
        mem.write_u32(0x5008, 0xDEAD_BEEF).unwrap();
        cpu.mmu.map(0x0030_0000, 0x5000, true);
        cpu.msr |= msr_bits::DR;
        cpu.gpr[1] = 0x0030_0008;
        cpu.run(&mut mem, 10).unwrap();
        assert_eq!(cpu.gpr[3], 0xDEAD_BEEF);
    }

    #[test]
    fn cr_field_helpers() {
        let mut cpu = Cpu::new(0);
        cpu.set_cr_field(CrField(3), 0b1010);
        assert_eq!(cpu.cr_field(CrField(3)), 0b1010);
        assert!(cpu.cr_bit(CrBit::new(CrField(3), 0)));
        assert!(!cpu.cr_bit(CrBit::new(CrField(3), 1)));
        cpu.set_cr_bit(CrBit::new(CrField(3), 3), true);
        assert_eq!(cpu.cr_field(CrField(3)), 0b1011);
    }
}
