//! ISA-neutral output types of instruction conversion.
//!
//! "Each operation is immediately scheduled in a VLIW … as soon as it is
//! disassembled from the binary original code, and converted into RISC
//! primitives (if a CISCy operation)" (paper §2). Each frontend's
//! `Isa::convert` produces a [`Converted`] — the RISC primitives plus a
//! [`Flow`] describing the instruction's control behaviour — and the
//! scheduler consumes it without knowing which guest produced it.
//!
//! The produced primitives name *architected* resources; renaming into
//! the non-architected pool is the scheduler's job.

use daisy_vliw::reg::Reg;
use daisy_vliw::tree::IndirectVia;

/// A branch condition in architected terms (before renaming): test one
/// bit of a condition-value register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CondSpec {
    /// The architected register holding the 4-bit condition value. For
    /// computed-condition branches (`cond_compare`) this is a
    /// placeholder filled by the scheduler with the freshly computed
    /// compare result.
    pub field: Reg,
    /// Bit mask within the field (LT = 0b1000 … SO = 0b0001).
    pub mask: u32,
    /// Taken when the bit equals this.
    pub want_set: bool,
}

/// The control behaviour of a converted instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Flow {
    /// Straight-line: fall through to the next instruction.
    Fall,
    /// Unconditional direct branch.
    Jump {
        /// Resolved target address.
        target: u32,
    },
    /// Conditional direct branch. When `cond_compare` is set, the
    /// scheduler must point the condition at the result of the *last*
    /// op in `ops` (a freshly emitted compare), not at an architected
    /// field — PowerPC's CTR-decrement branches and RV32I's compare-
    /// and-branch instructions both use this.
    CondJump {
        /// The tested condition.
        cond: CondSpec,
        /// Taken target.
        target: u32,
        /// Condition comes from the last emitted compare op.
        cond_compare: bool,
    },
    /// Unconditional indirect branch.
    IndirectJump {
        /// Which register supplies the target.
        via: IndirectVia,
    },
    /// Conditional indirect branch (e.g. PowerPC `bnelr`).
    CondIndirect {
        /// The tested condition.
        cond: CondSpec,
        /// Which register supplies the target.
        via: IndirectVia,
        /// Condition comes from the last emitted compare op.
        cond_compare: bool,
    },
    /// Must be handed to the VMM's interpreter (system calls,
    /// return-from-interrupt, privileged state access, unsupported
    /// encodings).
    Interp,
}

/// A converted instruction's control behaviour. Its RISC primitives
/// (architected operands, execution order) go into the buffer the
/// caller hands to `Isa::convert`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Converted {
    /// Control flow after the ops.
    pub flow: Flow,
    /// True when the instruction writes the guest's link register (the
    /// scheduler emits the link-update primitive itself so it can
    /// capture the pre-update value for link-and-return forms).
    pub links: bool,
}

impl Converted {
    /// Straight-line conversion: the ops, then fall through.
    pub fn fall() -> Converted {
        Converted { flow: Flow::Fall, links: false }
    }

    /// Route the instruction to the VMM's interpreter.
    pub fn interp() -> Converted {
        Converted { flow: Flow::Interp, links: false }
    }
}

/// Where a branch may transfer control to, resolved against its own address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchKind {
    /// Direct target address known statically.
    Direct(u32),
    /// Indirect through the link register.
    ViaLr,
    /// Indirect through the count register.
    ViaCtr,
}

/// Static description of an instruction's control flow, from
/// `Isa::branch_info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Destination on taken.
    pub kind: BranchKind,
    /// True for unconditional branches.
    pub unconditional: bool,
    /// True when the instruction writes the link register.
    pub links: bool,
    /// True when the instruction decrements the guest's loop counter.
    pub decrements_ctr: bool,
}
