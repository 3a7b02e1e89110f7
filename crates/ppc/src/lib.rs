//! PowerPC (subset) base-architecture substrate for the DAISY reproduction.
//!
//! DAISY emulates an existing "base architecture" — in the paper and here,
//! the 32-bit PowerPC. This crate provides everything the reproduction
//! needs from that base architecture, built from scratch:
//!
//! * [`insn`] — the instruction set as a typed enum,
//! * [`mod@encode`]/[`mod@decode`] — bit-exact 32-bit PowerPC encodings,
//! * [`asm`] — a label-based assembler / program builder used to write
//!   the benchmark workloads,
//! * [`interp`] — a reference interpreter with full architected state
//!   (GPRs, CR, LR, CTR, XER, MSR, SRR0/1, DAR, DSISR) that defines the
//!   semantics DAISY must preserve and generates execution traces,
//! * [`mem`] — emulated physical memory with the per-page *read-only
//!   (translated)* bits of paper §3.2 used to detect self-modifying code.
//!
//! # Example
//!
//! ```
//! use daisy_ppc::asm::Asm;
//! use daisy_ppc::interp::{Cpu, StopReason};
//! use daisy_ppc::mem::Memory;
//! use daisy_ppc::reg::Gpr;
//!
//! // r3 = 6 * 7, then exit via sc.
//! let mut a = Asm::new(0x1000);
//! a.li(Gpr(4), 6);
//! a.li(Gpr(5), 7);
//! a.mullw(Gpr(3), Gpr(4), Gpr(5));
//! a.sc();
//! let prog = a.finish().unwrap();
//!
//! let mut mem = Memory::new(0x10000);
//! prog.load_into(&mut mem).unwrap();
//! let mut cpu = Cpu::new(prog.entry);
//! let stop = cpu.run(&mut mem, 1_000).unwrap();
//! assert_eq!(stop, StopReason::Syscall);
//! assert_eq!(cpu.gpr[3], 42);
//! ```

pub mod asm;
pub mod convert;
pub mod decode;
pub mod encode;
pub mod frontend;
pub mod insn;
pub mod interp;
pub use daisy_isa::mem;
pub mod reg;

pub use asm::{Asm, Program};
pub use decode::decode;
pub use encode::encode;
pub use frontend::PpcIsa;
pub use insn::Insn;
pub use interp::Cpu;
pub use mem::Memory;
pub use reg::{CrBit, CrField, Gpr, Spr};

/// Size of a base-architecture page in bytes (PowerPC uses 4 KiB; the
/// shared value lives at the frontend boundary).
pub use daisy_isa::PAGE_SIZE;

/// PowerPC exception vector offsets (real addresses), per the paper's §3.3.
pub mod vectors {
    /// System reset.
    pub const RESET: u32 = 0x100;
    /// Data storage interrupt (page fault on data access).
    pub const DSI: u32 = 0x300;
    /// Instruction storage interrupt.
    pub const ISI: u32 = 0x400;
    /// External interrupt.
    pub const EXTERNAL: u32 = 0x500;
    /// Alignment interrupt.
    pub const ALIGNMENT: u32 = 0x600;
    /// Program interrupt (trap, illegal, privileged).
    pub const PROGRAM: u32 = 0x700;
    /// System call.
    pub const SYSCALL: u32 = 0xC00;
}
