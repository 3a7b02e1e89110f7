//! The unified VLIW register name space.
//!
//! DAISY's VLIW extends the base architecture's register file with
//! non-architected registers used to hold speculative results (paper
//! §2, "renamed register that is not architected in the original
//! architecture"). For PowerPC emulation the file is:
//!
//! | index   | resource                                   | architected? |
//! |---------|--------------------------------------------|--------------|
//! | 0–31    | GPR `r0`–`r31`                             | yes          |
//! | 32–63   | rename pool `r32`–`r63`                    | no           |
//! | 64–71   | CR fields `cr0`–`cr7` (4-bit values)       | yes          |
//! | 72      | LR                                         | yes          |
//! | 73      | CTR                                        | yes          |
//! | 74–76   | XER CA / OV / SO bits                      | yes          |
//!
//! Condition, carry, and counter results rename into the same pool of
//! non-architected GPRs, exactly like the single `FreeGprsUntilEnd`
//! bitmask in the paper's Figure A.4 (Appendix D discusses renaming CTR
//! and CA this way).

use std::fmt;

/// A general-purpose register of the base architecture, `r0`–`r31`.
///
/// Base architectures architect 32 GPRs; DAISY's migrant VLIW extends
/// the file to 64, with `r32`–`r63` invisible to the base architecture.
/// This type only ever names the architected 32.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Gpr(pub u8);

impl Gpr {
    /// Returns the register number, guaranteed `< 32` for valid values.
    #[inline]
    pub fn num(self) -> u8 {
        self.0
    }

    /// Returns true if this names one of the 32 architected GPRs.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 < 32
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A condition-register field, `cr0`–`cr7`.
///
/// Each field holds four bits: LT, GT, EQ, SO (most significant first).
/// RV32 has no condition register; its frontend simply never allocates
/// CR-field resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CrField(pub u8);

impl CrField {
    /// Returns the field number, `< 8` for valid values.
    #[inline]
    pub fn num(self) -> u8 {
        self.0
    }

    /// Returns true if this names one of the 8 architected CR fields.
    #[inline]
    pub fn is_valid(self) -> bool {
        self.0 < 8
    }
}

impl fmt::Display for CrField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cr{}", self.0)
    }
}

/// A register in the unified VLIW file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

/// Total number of registers in the unified file.
pub const NUM_REGS: usize = 77;

/// Number of non-architected rename registers (`r32`–`r63`).
pub const NUM_RENAME: usize = 32;

/// First rename-pool register.
pub const FIRST_RENAME: u8 = 32;

impl Reg {
    /// The link register.
    pub const LR: Reg = Reg(72);
    /// The count register.
    pub const CTR: Reg = Reg(73);
    /// XER carry bit.
    pub const CA: Reg = Reg(74);
    /// XER overflow bit.
    pub const OV: Reg = Reg(75);
    /// XER summary-overflow bit.
    pub const SO: Reg = Reg(76);

    /// An architected GPR.
    #[inline]
    pub fn gpr(g: Gpr) -> Reg {
        debug_assert!(g.is_valid());
        Reg(g.0)
    }

    /// A rename-pool register by pool index (0..32).
    #[inline]
    pub fn rename(i: u8) -> Reg {
        debug_assert!(i < NUM_RENAME as u8);
        Reg(FIRST_RENAME + i)
    }

    /// An architected CR field.
    #[inline]
    pub fn cr(f: CrField) -> Reg {
        debug_assert!(f.is_valid());
        Reg(64 + f.0)
    }

    /// True for resources visible to the base architecture. Assignments
    /// to these must happen in original program order to keep exceptions
    /// precise; assignments to the others are invisible speculation.
    #[inline]
    pub fn is_architected(self) -> bool {
        !(FIRST_RENAME..64).contains(&self.0)
    }

    /// True for rename-pool registers.
    #[inline]
    pub fn is_rename(self) -> bool {
        (FIRST_RENAME..64).contains(&self.0)
    }

    /// True for CR field registers (architected only).
    #[inline]
    pub fn is_cr_field(self) -> bool {
        (64..72).contains(&self.0)
    }

    /// The architected GPR, if this is one.
    #[inline]
    pub fn as_gpr(self) -> Option<Gpr> {
        (self.0 < 32).then_some(Gpr(self.0))
    }

    /// The CR field, if this is one.
    #[inline]
    pub fn as_cr_field(self) -> Option<CrField> {
        self.is_cr_field().then_some(CrField(self.0 - 64))
    }

    /// Index into a dense per-register table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            0..=31 => write!(f, "r{}", self.0),
            32..=63 => write!(f, "r{}'", self.0),
            64..=71 => write!(f, "cr{}", self.0 - 64),
            72 => write!(f, "lr"),
            73 => write!(f, "ctr"),
            74 => write!(f, "ca"),
            75 => write!(f, "ov"),
            76 => write!(f, "so"),
            _ => write!(f, "reg{}", self.0),
        }
    }
}

/// A bitmask over the rename pool, bit `i` = `Reg::rename(i)` free.
///
/// This is the `FreeGprs` / `FreeGprsUntilEnd` representation of the
/// paper's Figure A.4, which picks registers with `CountLeadingZeros`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenameMask(pub u32);

impl RenameMask {
    /// All rename registers free.
    pub const ALL_FREE: RenameMask = RenameMask(u32::MAX);

    /// Picks the lowest-numbered free register, if any.
    #[inline]
    pub fn pick(self) -> Option<Reg> {
        if self.0 == 0 {
            None
        } else {
            Some(Reg::rename(self.0.trailing_zeros() as u8))
        }
    }

    /// Marks a rename register allocated.
    #[must_use]
    #[inline]
    pub fn without(self, r: Reg) -> RenameMask {
        debug_assert!(r.is_rename());
        RenameMask(self.0 & !(1 << (r.0 - FIRST_RENAME)))
    }

    /// Marks a rename register free again.
    #[must_use]
    #[inline]
    pub fn with(self, r: Reg) -> RenameMask {
        debug_assert!(r.is_rename());
        RenameMask(self.0 | (1 << (r.0 - FIRST_RENAME)))
    }

    /// Intersection — free in both.
    #[must_use]
    #[inline]
    pub fn and(self, other: RenameMask) -> RenameMask {
        RenameMask(self.0 & other.0)
    }

    /// True if `r` is free.
    #[inline]
    pub fn is_free(self, r: Reg) -> bool {
        r.is_rename() && self.0 & (1 << (r.0 - FIRST_RENAME)) != 0
    }

    /// Number of free rename registers.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Reg::gpr(Gpr(5)).is_architected());
        assert!(!Reg::rename(0).is_architected());
        assert!(Reg::cr(CrField(0)).is_architected());
        assert!(Reg::LR.is_architected());
        assert!(Reg::CA.is_architected());
        assert!(Reg::rename(31).is_rename());
        assert!(!Reg::gpr(Gpr(31)).is_rename());
    }

    #[test]
    fn conversions() {
        assert_eq!(Reg::gpr(Gpr(7)).as_gpr(), Some(Gpr(7)));
        assert_eq!(Reg::rename(0).as_gpr(), None);
        assert_eq!(Reg::cr(CrField(3)).as_cr_field(), Some(CrField(3)));
        assert_eq!(Reg::LR.as_cr_field(), None);
    }

    #[test]
    fn rename_mask_alloc() {
        let m = RenameMask::ALL_FREE;
        let r = m.pick().unwrap();
        assert_eq!(r, Reg::rename(0));
        let m = m.without(r);
        assert_eq!(m.pick().unwrap(), Reg::rename(1));
        assert!(!m.is_free(r));
        let m = m.with(r);
        assert!(m.is_free(r));
        assert_eq!(RenameMask(0).pick(), None);
    }

    #[test]
    fn display() {
        assert_eq!(Reg::gpr(Gpr(3)).to_string(), "r3");
        assert_eq!(Reg::rename(31).to_string(), "r63'");
        assert_eq!(Reg::cr(CrField(0)).to_string(), "cr0");
        assert_eq!(Reg::CTR.to_string(), "ctr");
    }
}
