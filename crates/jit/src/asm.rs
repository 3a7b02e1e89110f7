//! A minimal x86-64 byte assembler for the template emitter.
//!
//! Only the instruction forms the group lowerer actually emits are
//! implemented; every mnemonic below maps to exactly one encoding so
//! the generated bytes are auditable against an external disassembler
//! (the unit tests pin several against hand-checked hex). Labels are
//! rel32-only — the emitter never needs short branches, and uniform
//! widths keep patch offsets stable.

/// A general-purpose register (hardware encoding 0–15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gpr(pub u8);

pub const RAX: Gpr = Gpr(0);
pub const RCX: Gpr = Gpr(1);
pub const RDX: Gpr = Gpr(2);
pub const RBX: Gpr = Gpr(3);
pub const RSP: Gpr = Gpr(4);
pub const RBP: Gpr = Gpr(5);
pub const RSI: Gpr = Gpr(6);
pub const RDI: Gpr = Gpr(7);
pub const R8: Gpr = Gpr(8);
pub const R9: Gpr = Gpr(9);
pub const R10: Gpr = Gpr(10);
pub const R11: Gpr = Gpr(11);
pub const R12: Gpr = Gpr(12);
pub const R13: Gpr = Gpr(13);
pub const R14: Gpr = Gpr(14);
pub const R15: Gpr = Gpr(15);

/// Condition-code nibble for `jcc`/`setcc`/`cmovcc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cc(pub u8);

/// Equal / zero.
pub const CC_E: Cc = Cc(0x4);
/// Not equal / not zero.
pub const CC_NE: Cc = Cc(0x5);
/// Unsigned below.
pub const CC_B: Cc = Cc(0x2);
/// Unsigned above or equal (not carry).
pub const CC_AE: Cc = Cc(0x3);
/// Unsigned above.
pub const CC_A: Cc = Cc(0x7);
/// Signed less.
pub const CC_L: Cc = Cc(0xC);
/// Signed greater.
pub const CC_G: Cc = Cc(0xF);
/// Carry set (alias of below).
pub const CC_C: Cc = Cc(0x2);
/// Carry clear (alias of above-or-equal).
pub const CC_NC: Cc = Cc(0x3);

/// A memory operand: `[base + index*1 + disp]` (scale is always 1).
#[derive(Debug, Clone, Copy)]
pub struct Mem {
    base: Gpr,
    index: Option<Gpr>,
    disp: i32,
}

impl Mem {
    /// `[base + disp]`.
    pub fn base_disp(base: Gpr, disp: i32) -> Mem {
        Mem { base, index: None, disp }
    }

    /// `[base + index]`.
    pub fn base_index(base: Gpr, index: Gpr) -> Mem {
        assert!(index.0 != RSP.0, "rsp cannot be an index register");
        Mem { base, index: Some(index), disp: 0 }
    }

    /// `[base + index + disp]`.
    pub fn base_index_disp(base: Gpr, index: Gpr, disp: i32) -> Mem {
        assert!(index.0 != RSP.0, "rsp cannot be an index register");
        Mem { base, index: Some(index), disp }
    }
}

/// A forward-referenceable code position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// The instruction buffer plus label fixups.
///
/// `base` is the absolute address the buffer will be installed at; it
/// lets the emitter reference fixed addresses (the shared epilogue,
/// chain targets in other groups) with plain rel32 jumps.
pub struct Asm {
    buf: Vec<u8>,
    base: u64,
    labels: Vec<Option<usize>>,
    // (offset of a rel32 field, label it refers to)
    fixups: Vec<(usize, Label)>,
    // (offset of a rel32 field, absolute target address)
    abs_fixups: Vec<(usize, u64)>,
}

impl Asm {
    /// New assembler for code that will live at absolute address `base`.
    pub fn new(base: u64) -> Asm {
        Asm {
            buf: Vec::with_capacity(512),
            base,
            labels: Vec::new(),
            fixups: Vec::new(),
            abs_fixups: Vec::new(),
        }
    }

    /// Current offset from the start of the buffer.
    pub fn pos(&self) -> usize {
        self.buf.len()
    }

    /// Allocates an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `l` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, l: Label) {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.buf.len());
    }

    /// Resolves all fixups and returns the finished bytes.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn finish(mut self) -> Vec<u8> {
        for (at, l) in std::mem::take(&mut self.fixups) {
            let target = self.labels[l.0].expect("unbound label at finish");
            let rel = (target as i64 - (at as i64 + 4)) as i32;
            self.buf[at..at + 4].copy_from_slice(&rel.to_le_bytes());
        }
        for (at, target) in std::mem::take(&mut self.abs_fixups) {
            let next = self.base + at as u64 + 4;
            let rel = (target as i64).wrapping_sub(next as i64) as i32;
            self.buf[at..at + 4].copy_from_slice(&rel.to_le_bytes());
        }
        self.buf
    }

    fn u8s(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn i32le(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    // --- encoding core ---------------------------------------------------

    /// Emits prefix+REX+opcode+modrm+sib+disp for a memory operand.
    /// `reg` is the /r field (a register number or an opcode extension).
    fn enc_mem(&mut self, pre66: bool, w: bool, opcode: &[u8], reg: u8, m: Mem) {
        if pre66 {
            self.u8s(&[0x66]);
        }
        let need_sib = m.index.is_some() || (m.base.0 & 7) == RSP.0;
        let x = m.index.map_or(0, |i| i.0 >> 3);
        let rex = 0x40 | (u8::from(w) << 3) | ((reg >> 3) << 2) | (x << 1) | (m.base.0 >> 3);
        if rex != 0x40 || w {
            self.u8s(&[rex]);
        }
        self.u8s(opcode);
        // mod=00 has no disp but cannot encode base rbp/r13.
        let (md, disp): (u8, Option<&[u8]>) = if m.disp == 0 && (m.base.0 & 7) != RBP.0 {
            (0b00, None)
        } else if (-128..=127).contains(&m.disp) {
            (0b01, Some(&[]))
        } else {
            (0b10, Some(&[]))
        };
        let rm = if need_sib { 0b100 } else { m.base.0 & 7 };
        self.u8s(&[(md << 6) | ((reg & 7) << 3) | rm]);
        if need_sib {
            let idx = m.index.map_or(0b100, |i| i.0 & 7);
            self.u8s(&[(idx << 3) | (m.base.0 & 7)]);
        }
        match (md, disp) {
            (0b01, Some(_)) => self.u8s(&[m.disp as i8 as u8]),
            (0b10, Some(_)) => self.i32le(m.disp),
            _ => {}
        }
    }

    /// Emits REX+opcode+modrm for a register-register form.
    fn enc_rr(&mut self, pre66: bool, w: bool, opcode: &[u8], reg: u8, rm: Gpr) {
        if pre66 {
            self.u8s(&[0x66]);
        }
        let rex = 0x40 | (u8::from(w) << 3) | ((reg >> 3) << 2) | (rm.0 >> 3);
        if rex != 0x40 || w {
            self.u8s(&[rex]);
        }
        self.u8s(opcode);
        self.u8s(&[0xC0 | ((reg & 7) << 3) | (rm.0 & 7)]);
    }

    // --- moves -----------------------------------------------------------

    /// `mov r32, [m]`
    pub fn mov_r32_m(&mut self, dst: Gpr, m: Mem) {
        self.enc_mem(false, false, &[0x8B], dst.0, m);
    }

    /// `mov [m], r32`
    pub fn mov_m_r32(&mut self, m: Mem, src: Gpr) {
        self.enc_mem(false, false, &[0x89], src.0, m);
    }

    /// `mov r64, [m]`
    pub fn mov_r64_m(&mut self, dst: Gpr, m: Mem) {
        self.enc_mem(false, true, &[0x8B], dst.0, m);
    }

    /// `mov [m], r64`
    pub fn mov_m_r64(&mut self, m: Mem, src: Gpr) {
        self.enc_mem(false, true, &[0x89], src.0, m);
    }

    /// `mov [m], r8` (low byte of `src`; use only rax/rcx/rdx/rbx)
    pub fn mov_m_r8(&mut self, m: Mem, src: Gpr) {
        assert!(src.0 < 4, "byte stores restricted to al/cl/dl/bl");
        self.enc_mem(false, false, &[0x88], src.0, m);
    }

    /// `mov [m], r16` (low word of `src`)
    pub fn mov_m_r16(&mut self, m: Mem, src: Gpr) {
        self.enc_mem(true, false, &[0x89], src.0, m);
    }

    /// `mov r32, imm32`
    pub fn mov_r32_imm(&mut self, dst: Gpr, imm: u32) {
        if dst.0 >= 8 {
            self.u8s(&[0x41]);
        }
        self.u8s(&[0xB8 + (dst.0 & 7)]);
        self.i32le(imm as i32);
    }

    /// `movabs r64, imm64`; returns the offset of the imm64 field (a
    /// patch point for chain-stub alive pointers).
    pub fn mov_r64_imm(&mut self, dst: Gpr, imm: u64) -> usize {
        self.u8s(&[0x48 | (dst.0 >> 3), 0xB8 + (dst.0 & 7)]);
        let at = self.buf.len();
        self.buf.extend_from_slice(&imm.to_le_bytes());
        at
    }

    /// `mov dword [m], imm32`
    pub fn mov_m32_imm(&mut self, m: Mem, imm: u32) {
        self.enc_mem(false, false, &[0xC7], 0, m);
        self.i32le(imm as i32);
    }

    /// `mov byte [m], imm8`
    pub fn mov_m8_imm(&mut self, m: Mem, imm: u8) {
        self.enc_mem(false, false, &[0xC6], 0, m);
        self.u8s(&[imm]);
    }

    /// `mov r32, r32`
    pub fn mov_rr32(&mut self, dst: Gpr, src: Gpr) {
        self.enc_rr(false, false, &[0x8B], dst.0, src);
    }

    /// `movzx r32, byte [m]`
    pub fn movzx_r32_m8(&mut self, dst: Gpr, m: Mem) {
        self.enc_mem(false, false, &[0x0F, 0xB6], dst.0, m);
    }

    /// `movzx r32, word [m]`
    pub fn movzx_r32_m16(&mut self, dst: Gpr, m: Mem) {
        self.enc_mem(false, false, &[0x0F, 0xB7], dst.0, m);
    }

    /// `movsx r32, r8` (low byte of `src`; use only rax/rcx/rdx/rbx)
    pub fn movsx_r32_r8(&mut self, dst: Gpr, src: Gpr) {
        assert!(src.0 < 4);
        self.enc_rr(false, false, &[0x0F, 0xBE], dst.0, src);
    }

    /// `movsx r32, r16` (low word of `src`)
    pub fn movsx_r32_r16(&mut self, dst: Gpr, src: Gpr) {
        self.enc_rr(false, false, &[0x0F, 0xBF], dst.0, src);
    }

    /// `movzx r32, r8` (low byte of `src`; use only rax/rcx/rdx/rbx)
    pub fn movzx_r32_r8(&mut self, dst: Gpr, src: Gpr) {
        assert!(src.0 < 4);
        self.enc_rr(false, false, &[0x0F, 0xB6], dst.0, src);
    }

    // --- ALU -------------------------------------------------------------

    fn alu_r_m(&mut self, opcode: u8, dst: Gpr, m: Mem) {
        self.enc_mem(false, false, &[opcode], dst.0, m);
    }

    fn alu_r_r(&mut self, opcode: u8, dst: Gpr, src: Gpr) {
        self.enc_rr(false, false, &[opcode], dst.0, src);
    }

    fn alu_r_imm(&mut self, ext: u8, dst: Gpr, imm: i32) {
        self.enc_rr(false, false, &[0x81], ext, dst);
        self.i32le(imm);
    }

    /// `add r32, [m]`
    pub fn add_r32_m(&mut self, dst: Gpr, m: Mem) {
        self.alu_r_m(0x03, dst, m);
    }

    /// `add r32, r32`
    pub fn add_rr32(&mut self, dst: Gpr, src: Gpr) {
        self.alu_r_r(0x03, dst, src);
    }

    /// `add r32, imm32`
    pub fn add_r32_imm(&mut self, dst: Gpr, imm: i32) {
        self.alu_r_imm(0, dst, imm);
    }

    /// `add r64, imm32` (sign-extended)
    pub fn add_r64_imm(&mut self, dst: Gpr, imm: i32) {
        self.enc_rr(false, true, &[0x81], 0, dst);
        self.i32le(imm);
    }

    /// `sub r32, [m]`
    pub fn sub_r32_m(&mut self, dst: Gpr, m: Mem) {
        self.alu_r_m(0x2B, dst, m);
    }

    /// `sub r32, r32`
    pub fn sub_rr32(&mut self, dst: Gpr, src: Gpr) {
        self.alu_r_r(0x2B, dst, src);
    }

    /// `and r32, [m]`
    pub fn and_r32_m(&mut self, dst: Gpr, m: Mem) {
        self.alu_r_m(0x23, dst, m);
    }

    /// `and r32, r32`
    pub fn and_rr32(&mut self, dst: Gpr, src: Gpr) {
        self.alu_r_r(0x23, dst, src);
    }

    /// `and r32, imm32`
    pub fn and_r32_imm(&mut self, dst: Gpr, imm: i32) {
        self.alu_r_imm(4, dst, imm);
    }

    /// `or r32, [m]`
    pub fn or_r32_m(&mut self, dst: Gpr, m: Mem) {
        self.alu_r_m(0x0B, dst, m);
    }

    /// `or r32, r32`
    pub fn or_rr32(&mut self, dst: Gpr, src: Gpr) {
        self.alu_r_r(0x0B, dst, src);
    }

    /// `or r32, imm32`
    pub fn or_r32_imm(&mut self, dst: Gpr, imm: i32) {
        self.alu_r_imm(1, dst, imm);
    }

    /// `xor r32, [m]`
    pub fn xor_r32_m(&mut self, dst: Gpr, m: Mem) {
        self.alu_r_m(0x33, dst, m);
    }

    /// `xor r32, r32`
    pub fn xor_rr32(&mut self, dst: Gpr, src: Gpr) {
        self.alu_r_r(0x33, dst, src);
    }

    /// `xor r32, imm32`
    pub fn xor_r32_imm(&mut self, dst: Gpr, imm: i32) {
        self.alu_r_imm(6, dst, imm);
    }

    /// `adc r32, [m]`
    pub fn adc_r32_m(&mut self, dst: Gpr, m: Mem) {
        self.alu_r_m(0x13, dst, m);
    }

    /// `adc r32, imm32`
    pub fn adc_r32_imm(&mut self, dst: Gpr, imm: i32) {
        self.alu_r_imm(2, dst, imm);
    }

    /// `cmp r32, [m]`
    pub fn cmp_r32_m(&mut self, dst: Gpr, m: Mem) {
        self.alu_r_m(0x3B, dst, m);
    }

    /// `cmp r32, r32`
    pub fn cmp_rr32(&mut self, a: Gpr, b: Gpr) {
        self.alu_r_r(0x3B, a, b);
    }

    /// `cmp r32, imm32`
    pub fn cmp_r32_imm(&mut self, r: Gpr, imm: i32) {
        self.alu_r_imm(7, r, imm);
    }

    /// `cmp r64, [m]`
    pub fn cmp_r64_m(&mut self, dst: Gpr, m: Mem) {
        self.enc_mem(false, true, &[0x3B], dst.0, m);
    }

    /// `cmp byte [m], imm8`
    pub fn cmp_m8_imm(&mut self, m: Mem, imm: u8) {
        self.enc_mem(false, false, &[0x80], 7, m);
        self.u8s(&[imm]);
    }

    /// `test r32, r32`
    pub fn test_rr32(&mut self, a: Gpr, b: Gpr) {
        self.enc_rr(false, false, &[0x85], b.0, a);
    }

    /// `test r32, imm32`
    pub fn test_r32_imm(&mut self, r: Gpr, imm: u32) {
        self.enc_rr(false, false, &[0xF7], 0, r);
        self.i32le(imm as i32);
    }

    /// `neg r32`
    pub fn neg_r32(&mut self, r: Gpr) {
        self.enc_rr(false, false, &[0xF7], 3, r);
    }

    /// `not r32`
    pub fn not_r32(&mut self, r: Gpr) {
        self.enc_rr(false, false, &[0xF7], 2, r);
    }

    /// `inc qword [m]`
    pub fn inc_m64(&mut self, m: Mem) {
        self.enc_mem(false, true, &[0xFF], 0, m);
    }

    /// `inc r64`
    pub fn inc_r64(&mut self, r: Gpr) {
        self.enc_rr(false, true, &[0xFF], 0, r);
    }

    /// `lea r32, [m]` (address math truncated to 32 bits)
    pub fn lea_r32_m(&mut self, dst: Gpr, m: Mem) {
        self.enc_mem(false, false, &[0x8D], dst.0, m);
    }

    /// `bswap r32`
    pub fn bswap_r32(&mut self, r: Gpr) {
        if r.0 >= 8 {
            self.u8s(&[0x41]);
        }
        self.u8s(&[0x0F, 0xC8 + (r.0 & 7)]);
    }

    /// `imul r32, [m]`
    pub fn imul_r32_m(&mut self, dst: Gpr, m: Mem) {
        self.enc_mem(false, false, &[0x0F, 0xAF], dst.0, m);
    }

    /// `imul r32, [m], imm32`
    pub fn imul_r32_m_imm(&mut self, dst: Gpr, m: Mem, imm: i32) {
        self.enc_mem(false, false, &[0x69], dst.0, m);
        self.i32le(imm);
    }

    /// `imul r32` (one-operand: edx:eax = eax * r, signed)
    pub fn imul_r32(&mut self, r: Gpr) {
        self.enc_rr(false, false, &[0xF7], 5, r);
    }

    /// `mul r32` (one-operand: edx:eax = eax * r, unsigned)
    pub fn mul_r32(&mut self, r: Gpr) {
        self.enc_rr(false, false, &[0xF7], 4, r);
    }

    /// `idiv r32`
    pub fn idiv_r32(&mut self, r: Gpr) {
        self.enc_rr(false, false, &[0xF7], 7, r);
    }

    /// `div r32`
    pub fn div_r32(&mut self, r: Gpr) {
        self.enc_rr(false, false, &[0xF7], 6, r);
    }

    /// `cdq`
    pub fn cdq(&mut self) {
        self.u8s(&[0x99]);
    }

    /// `bsr r32, r32`
    pub fn bsr_rr32(&mut self, dst: Gpr, src: Gpr) {
        self.enc_rr(false, false, &[0x0F, 0xBD], dst.0, src);
    }

    /// `bt r32, imm8`
    pub fn bt_r32_imm(&mut self, r: Gpr, bit: u8) {
        self.enc_rr(false, false, &[0x0F, 0xBA], 4, r);
        self.u8s(&[bit]);
    }

    /// `stc`
    pub fn stc(&mut self) {
        self.u8s(&[0xF9]);
    }

    // --- shifts ----------------------------------------------------------

    fn shift_imm(&mut self, ext: u8, r: Gpr, n: u8) {
        if n == 1 {
            self.enc_rr(false, false, &[0xD1], ext, r);
        } else {
            self.enc_rr(false, false, &[0xC1], ext, r);
            self.u8s(&[n]);
        }
    }

    fn shift_cl(&mut self, ext: u8, r: Gpr) {
        self.enc_rr(false, false, &[0xD3], ext, r);
    }

    /// `shl r32, imm8`
    pub fn shl_r32_imm(&mut self, r: Gpr, n: u8) {
        self.shift_imm(4, r, n);
    }

    /// `shr r32, imm8`
    pub fn shr_r32_imm(&mut self, r: Gpr, n: u8) {
        self.shift_imm(5, r, n);
    }

    /// `sar r32, imm8`
    pub fn sar_r32_imm(&mut self, r: Gpr, n: u8) {
        self.shift_imm(7, r, n);
    }

    /// `rol r32, imm8`
    pub fn rol_r32_imm(&mut self, r: Gpr, n: u8) {
        self.shift_imm(0, r, n);
    }

    /// `shl r32, cl`
    pub fn shl_r32_cl(&mut self, r: Gpr) {
        self.shift_cl(4, r);
    }

    /// `shr r32, cl`
    pub fn shr_r32_cl(&mut self, r: Gpr) {
        self.shift_cl(5, r);
    }

    /// `sar r32, cl`
    pub fn sar_r32_cl(&mut self, r: Gpr) {
        self.shift_cl(7, r);
    }

    /// `rol r32, cl`
    pub fn rol_r32_cl(&mut self, r: Gpr) {
        self.shift_cl(0, r);
    }

    /// `ror r16, imm8` (swaps the bytes of the low word when imm = 8)
    pub fn ror_r16_imm(&mut self, r: Gpr, n: u8) {
        self.u8s(&[0x66]);
        self.shift_imm(1, r, n);
    }

    // --- flags -----------------------------------------------------------

    /// `setcc r8` (low byte; use only rax/rcx/rdx/rbx)
    pub fn setcc_r8(&mut self, cc: Cc, r: Gpr) {
        assert!(r.0 < 4);
        self.enc_rr(false, false, &[0x0F, 0x90 + cc.0], 0, r);
    }

    /// `cmovcc r32, r32`
    pub fn cmovcc_rr32(&mut self, cc: Cc, dst: Gpr, src: Gpr) {
        self.enc_rr(false, false, &[0x0F, 0x40 + cc.0], dst.0, src);
    }

    // --- control flow ----------------------------------------------------

    /// `jmp rel32` to a label.
    pub fn jmp(&mut self, l: Label) {
        self.u8s(&[0xE9]);
        self.fixups.push((self.buf.len(), l));
        self.i32le(0);
    }

    /// `jcc rel32` to a label.
    pub fn jcc(&mut self, cc: Cc, l: Label) {
        self.u8s(&[0x0F, 0x80 + cc.0]);
        self.fixups.push((self.buf.len(), l));
        self.i32le(0);
    }

    /// `jmp rel32` to an absolute address (resolved against `base`);
    /// returns the offset of the rel32 field.
    pub fn jmp_abs(&mut self, target: u64) -> usize {
        self.u8s(&[0xE9]);
        let at = self.buf.len();
        self.abs_fixups.push((at, target));
        self.i32le(0);
        at
    }

    // --- prologue/epilogue helpers ---------------------------------------

    /// `push r64`
    pub fn push_r64(&mut self, r: Gpr) {
        if r.0 >= 8 {
            self.u8s(&[0x41]);
        }
        self.u8s(&[0x50 + (r.0 & 7)]);
    }

    /// `pop r64`
    pub fn pop_r64(&mut self, r: Gpr) {
        if r.0 >= 8 {
            self.u8s(&[0x41]);
        }
        self.u8s(&[0x58 + (r.0 & 7)]);
    }

    /// `sub rsp, imm8`
    pub fn sub_rsp_imm8(&mut self, n: u8) {
        self.u8s(&[0x48, 0x83, 0xEC, n]);
    }

    /// `add rsp, imm8`
    pub fn add_rsp_imm8(&mut self, n: u8) {
        self.u8s(&[0x48, 0x83, 0xC4, n]);
    }

    /// `ret`
    pub fn ret(&mut self) {
        self.u8s(&[0xC3]);
    }

    /// `jmp r64`
    pub fn jmp_r64(&mut self, r: Gpr) {
        self.enc_rr(false, false, &[0xFF], 4, r);
    }

    /// `mov r64, r64`
    pub fn mov_rr64(&mut self, dst: Gpr, src: Gpr) {
        self.enc_rr(false, true, &[0x8B], dst.0, src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asm<F: FnOnce(&mut Asm)>(f: F) -> Vec<u8> {
        let mut a = Asm::new(0);
        f(&mut a);
        a.finish()
    }

    #[test]
    fn mov_forms_match_reference_encodings() {
        // mov eax, [r12+0x10] -> 41 8B 44 24 10
        assert_eq!(
            asm(|a| a.mov_r32_m(RAX, Mem::base_disp(R12, 0x10))),
            vec![0x41, 0x8B, 0x44, 0x24, 0x10]
        );
        // mov [rbx+0x80], ecx -> 89 8B 80 00 00 00
        assert_eq!(
            asm(|a| a.mov_m_r32(Mem::base_disp(RBX, 0x80), RCX)),
            vec![0x89, 0x8B, 0x80, 0x00, 0x00, 0x00]
        );
        // mov eax, [r13+rcx] -> r13 base forces disp8: 41 8B 44 0D 00
        assert_eq!(
            asm(|a| a.mov_r32_m(RAX, Mem::base_index(R13, RCX))),
            vec![0x41, 0x8B, 0x44, 0x0D, 0x00]
        );
        // mov [r14], al with disp 0 -> 41 88 06
        assert_eq!(asm(|a| a.mov_m_r8(Mem::base_disp(R14, 0), RAX)), vec![0x41, 0x88, 0x06]);
        // movabs rax, 0x1122334455667788 -> 48 B8 ...
        assert_eq!(
            asm(|a| {
                a.mov_r64_imm(RAX, 0x1122_3344_5566_7788);
            }),
            vec![0x48, 0xB8, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]
        );
    }

    #[test]
    fn alu_and_flag_forms() {
        // add eax, [r12+4] -> 41 03 44 24 04
        assert_eq!(
            asm(|a| a.add_r32_m(RAX, Mem::base_disp(R12, 4))),
            vec![0x41, 0x03, 0x44, 0x24, 0x04]
        );
        // cmp eax, 0x1234 -> 3D would be short form; we use 81 F8
        assert_eq!(asm(|a| a.cmp_r32_imm(RAX, 0x1234)), vec![0x81, 0xF8, 0x34, 0x12, 0x00, 0x00]);
        // inc qword [rbx+0x28] -> 48 FF 43 28
        assert_eq!(asm(|a| a.inc_m64(Mem::base_disp(RBX, 0x28))), vec![0x48, 0xFF, 0x43, 0x28]);
        // inc r8 -> 49 FF C0
        assert_eq!(asm(|a| a.inc_r64(R8)), vec![0x49, 0xFF, 0xC0]);
        // cmp r9, [rbx+0x28] -> 4C 3B 4B 28
        assert_eq!(
            asm(|a| a.cmp_r64_m(R9, Mem::base_disp(RBX, 0x28))),
            vec![0x4C, 0x3B, 0x4B, 0x28]
        );
        // setne cl -> 0F 95 C1
        assert_eq!(asm(|a| a.setcc_r8(CC_NE, RCX)), vec![0x0F, 0x95, 0xC1]);
        // cmovl eax, edx -> 0F 4C C2
        assert_eq!(asm(|a| a.cmovcc_rr32(CC_L, RAX, RDX)), vec![0x0F, 0x4C, 0xC2]);
        // bswap eax -> 0F C8
        assert_eq!(asm(|a| a.bswap_r32(RAX)), vec![0x0F, 0xC8]);
        // ror ax, 8 -> 66 C1 C8 08
        assert_eq!(asm(|a| a.ror_r16_imm(RAX, 8)), vec![0x66, 0xC1, 0xC8, 0x08]);
        // rol eax, cl -> D3 C0
        assert_eq!(asm(|a| a.rol_r32_cl(RAX)), vec![0xD3, 0xC0]);
        // test eax, 0x8 -> F7 C0 08 00 00 00
        assert_eq!(asm(|a| a.test_r32_imm(RAX, 8)), vec![0xF7, 0xC0, 0x08, 0x00, 0x00, 0x00]);
        // cmp byte [rax], 0 -> 80 38 00
        assert_eq!(asm(|a| a.cmp_m8_imm(Mem::base_disp(RAX, 0), 0)), vec![0x80, 0x38, 0x00]);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut a = Asm::new(0);
        let top = a.label();
        let out = a.label();
        a.bind(top);
        a.jcc(CC_E, out); // 6 bytes
        a.jmp(top); // 5 bytes, rel = -(6+5) = -11
        a.bind(out);
        a.ret();
        let code = a.finish();
        // jcc rel32 = +5 (to the ret at offset 11)
        assert_eq!(&code[2..6], &5i32.to_le_bytes());
        // jmp rel32 = -11
        assert_eq!(&code[7..11], &(-11i32).to_le_bytes());
        assert_eq!(code[11], 0xC3);
    }

    #[test]
    fn absolute_fixups_use_base() {
        let mut a = Asm::new(0x1000);
        a.jmp_abs(0x2000); // at offset 0, next = 0x1005, rel = 0xFFB
        let code = a.finish();
        assert_eq!(code[0], 0xE9);
        assert_eq!(&code[1..5], &0xFFBi32.to_le_bytes());
    }
}
