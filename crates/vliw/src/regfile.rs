//! The runtime VLIW register file with exception tag bits.
//!
//! "Each register of the VLIW has an additional exception tag bit,
//! indicating that the register contains the result of an operation that
//! caused an error. … When a register with the exception tag is used by
//! a non-speculative commit operation, or any non-speculative operation,
//! an exception occurs" (paper §2.1).
//!
//! The file extends the base architecture's state; each frontend's
//! `GuestCpu::fill_regfile` and `GuestCpu::write_back` convert between
//! the two. Non-architected registers are *not* part of base state and
//! are deliberately dropped on write-back — the paper's point that
//! nothing extra needs saving at context switches.

use crate::reg::{Reg, NUM_REGS};

/// Runtime register values plus exception tags.
#[derive(Debug, Clone)]
pub struct RegFile {
    vals: [u32; NUM_REGS],
    tags: [bool; NUM_REGS],
}

impl Default for RegFile {
    fn default() -> Self {
        RegFile::new()
    }
}

impl RegFile {
    /// All-zero file with no tags set.
    pub fn new() -> RegFile {
        RegFile { vals: [0; NUM_REGS], tags: [false; NUM_REGS] }
    }

    /// Reads a register value.
    pub fn get(&self, r: Reg) -> u32 {
        self.vals[r.index()]
    }

    /// Writes a register value, clearing its exception tag.
    pub fn set(&mut self, r: Reg, v: u32) {
        self.vals[r.index()] = v;
        self.tags[r.index()] = false;
    }

    /// Reads an exception tag.
    pub fn tag(&self, r: Reg) -> bool {
        self.tags[r.index()]
    }

    /// Marks a register as holding a poisoned speculative result.
    pub fn set_tag(&mut self, r: Reg, t: bool) {
        self.tags[r.index()] = t;
    }

    /// Direct mutable views of the value and tag arrays, indexed by
    /// [`Reg::index`]. The packed execution engine borrows these once
    /// per dispatch so its inlined hot loop reads and writes registers
    /// as plain array accesses instead of per-operand accessor calls.
    #[inline]
    pub fn arrays_mut(&mut self) -> (&mut [u32; NUM_REGS], &mut [bool; NUM_REGS]) {
        (&mut self.vals, &mut self.tags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clears_tag() {
        let mut f = RegFile::new();
        let r = Reg::rename(3);
        f.set_tag(r, true);
        assert!(f.tag(r));
        f.set(r, 9);
        assert!(!f.tag(r));
        assert_eq!(f.get(r), 9);
    }
}
