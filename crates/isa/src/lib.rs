//! The guest-agnostic frontend boundary of the DAISY reproduction.
//!
//! DAISY's design (paper §2) deliberately separates the *base
//! architecture* — the guest ISA being emulated — from the VMM,
//! scheduler, and VLIW execution machinery. This crate is that
//! separation made explicit: everything the translation core needs to
//! know about a guest is captured by the [`Isa`] trait (static
//! properties: decode, conversion to RISC primitives, control-flow
//! analysis) and the [`GuestCpu`] trait (dynamic properties: the
//! architected register state, the reference interpreter, exception
//! delivery).
//!
//! The crate also owns the machinery that is *shared* by every guest:
//!
//! * [`mem::Memory`] — emulated physical memory with the paper's §3.2
//!   read-only (translated) page bits, and [`mem::Mmu`], the guest's own
//!   page table.
//! * [`Program`] — an assembled guest program image (code words, data
//!   blobs, labels). Guest assemblers produce these; the loader and the
//!   workload harnesses consume them without caring which ISA the words
//!   encode.
//! * [`Event`] / [`StopReason`] / [`Exception`] — the interpreter-step
//!   outcome, run-stop, and architected-interrupt vocabularies.
//! * [`convert`] — the ISA-neutral output types of instruction
//!   conversion ([`convert::Converted`], [`convert::Flow`],
//!   [`convert::CondSpec`]) plus static branch descriptions
//!   ([`convert::BranchInfo`]).
//! * [`DecodeCache`] — a per-ISA-salted memo table for decoded
//!   instructions.
//! * [`Workload`] — a benchmark program plus its result checker,
//!   generic over the guest that the program was assembled for.
//!
//! # Adding a frontend
//!
//! A frontend crate implements [`Isa`] for a zero-sized marker type and
//! [`GuestCpu`] for its architected-state struct; see `docs/isa.md` in
//! the repository for the walkthrough. `daisy-ppc` (PowerPC) and
//! `daisy-rv32` (RV32I) are the two in-tree implementations.

#![warn(missing_docs)]

pub mod convert;
mod decode;
mod event;
pub mod mem;
mod program;
pub mod synth;
mod workload;

pub use decode::DecodeCache;
pub use event::{Event, Exception, StopReason};
pub use program::Program;
pub use workload::Workload;

use daisy_vliw::op::Operation;
use daisy_vliw::regfile::RegFile;

/// Base-architecture page size. The VMM translates code in page-sized
/// units and the §3.2 translated bits are tracked per page.
pub const PAGE_SIZE: u32 = 4096;

/// Identifies a guest ISA. Translation caches key on this in addition
/// to the guest address, so two frontends sharing one VMM can never
/// alias each other's translations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IsaId(pub u16);

impl IsaId {
    /// The PowerPC (subset) frontend, `daisy-ppc`.
    pub const PPC: IsaId = IsaId(1);
    /// The RV32I (subset) frontend, `daisy-rv32`.
    pub const RV32: IsaId = IsaId(2);
}

/// Static description of a guest ISA: everything the translator needs
/// that does not involve architected state.
///
/// Implementations are zero-sized marker types; all methods are
/// associated functions. The dynamic half of the boundary — register
/// state, the reference interpreter, exception delivery — lives on the
/// associated [`Isa::Cpu`] type through the [`GuestCpu`] trait.
///
/// # Example
///
/// A toy single-instruction guest, showing the shape of an
/// implementation (the in-tree frontends are `daisy_ppc::PpcIsa` and
/// `daisy_rv32::Rv32Isa`):
///
/// ```
/// use daisy_isa::convert::{BranchInfo, Converted, Flow};
/// use daisy_isa::{Isa, IsaId};
/// use daisy_vliw::op::Operation;
///
/// #[derive(Debug, Clone, Copy)]
/// enum ToyInsn {
///     Halt,
/// }
///
/// struct ToyIsa;
///
/// impl Isa for ToyIsa {
///     type Insn = ToyInsn;
///     type Cpu = ToyCpu; // a GuestCpu implementation, elided here
///     type DecodeError = u32;
///
///     const ID: IsaId = IsaId(0xFFFF);
///     const NAME: &'static str = "toy";
///
///     fn decode(word: u32) -> Result<ToyInsn, u32> {
///         if word == 0 {
///             Ok(ToyInsn::Halt)
///         } else {
///             Err(word) // scheduler stops the path and falls back to interpretation
///         }
///     }
///
///     fn convert(_insn: &ToyInsn, _addr: u32, _ops: &mut Vec<Operation>) -> Converted {
///         Converted { flow: Flow::Interp, links: false }
///     }
///
///     fn branch_info(_insn: &ToyInsn, _pc: u32) -> Option<BranchInfo> {
///         None
///     }
///
///     fn ends_interp_window(_insn: &ToyInsn) -> bool {
///         false
///     }
///
///     fn disasm(word: u32) -> String {
///         if word == 0 { "halt".into() } else { format!(".word {word:#x}") }
///     }
///
///     fn illegal_words() -> &'static [u32] {
///         &[0xFFFF_FFFF]
///     }
///
///     fn interrupt_return_word() -> u32 {
///         0
///     }
///
///     fn external_vector() -> u32 {
///         0x100
///     }
/// }
///
/// assert!(ToyIsa::decode(0).is_ok());
/// assert_eq!(ToyIsa::convert(&ToyInsn::Halt, 0x1000, &mut Vec::new()).flow, Flow::Interp);
/// # use daisy_isa::{Event, Exception, GuestCpu, StopReason, DecodeCache};
/// # use daisy_isa::mem::Memory;
/// # use daisy_vliw::regfile::RegFile;
/// # #[derive(Debug, Clone)]
/// # struct ToyCpu;
/// # impl GuestCpu for ToyCpu {
/// #     type Insn = ToyInsn;
/// #     fn new(_entry: u32) -> Self { ToyCpu }
/// #     fn pc(&self) -> u32 { 0 }
/// #     fn set_pc(&mut self, _pc: u32) {}
/// #     fn instret(&self) -> u64 { 0 }
/// #     fn vectored(&self) -> bool { false }
/// #     fn set_vectored(&mut self, _v: bool) {}
/// #     fn fetch(&self, _mem: &Memory) -> Result<ToyInsn, Event> { Ok(ToyInsn::Halt) }
/// #     fn fetch_cached(&self, mem: &Memory, _c: &mut DecodeCache<ToyInsn>) -> Result<ToyInsn, Event> { self.fetch(mem) }
/// #     fn execute(&mut self, _mem: &mut Memory, _insn: ToyInsn) -> Event { Event::Syscall }
/// #     fn handle_event(&mut self, _ev: Event) -> Option<StopReason> { Some(StopReason::Syscall) }
/// #     fn interp_run(&mut self, _mem: &mut Memory, _max: u64) -> StopReason { StopReason::Syscall }
/// #     fn deliver(&mut self, _e: Exception, _at: u32) {}
/// #     fn record_data_fault(&mut self, _addr: u32, _write: bool) {}
/// #     fn interrupts_enabled(&self) -> bool { false }
/// #     fn enable_interrupts(&mut self) {}
/// #     fn effective_address(&self, _insn: &ToyInsn) -> Option<u32> { None }
/// #     fn fill_regfile(&self, _rf: &mut RegFile) {}
/// #     fn write_back(&mut self, _rf: &RegFile) {}
/// #     fn state_diff(&self, _other: &Self, _skip_resume: bool) -> Option<String> { None }
/// # }
/// ```
pub trait Isa {
    /// A decoded guest instruction.
    type Insn: Copy + std::fmt::Debug + 'static;
    /// The guest's full architected processor state.
    type Cpu: GuestCpu<Insn = Self::Insn> + Clone + std::fmt::Debug;
    /// Why a word failed to decode. Frontends whose decoder is total
    /// (e.g. PowerPC's, which maps unknown words to an `Invalid`
    /// variant routed to the interpreter) use
    /// [`std::convert::Infallible`].
    type DecodeError: std::fmt::Debug;

    /// Unique ISA identifier, mixed into every translation-cache key.
    const ID: IsaId;
    /// Human-readable name for reports and traces.
    const NAME: &'static str;
    /// Guest page size. All in-tree guests use the shared 4 KiB
    /// [`PAGE_SIZE`]; the VMM's translated-bit granularity follows it.
    const PAGE_SIZE: u32 = PAGE_SIZE;

    /// Decodes a 32-bit instruction word.
    ///
    /// An `Err` tells the scheduler the word is not translatable; the
    /// path is closed with an interpreter exit (the word may still be
    /// data-in-code that execution never reaches).
    fn decode(word: u32) -> Result<Self::Insn, Self::DecodeError>;

    /// Converts the instruction at `addr` into VLIW RISC primitives
    /// (paper §2: "converted into RISC primitives (if a CISCy
    /// operation)"), appended to `ops`, and returns its control
    /// behaviour. An instruction routed to the interpreter appends
    /// nothing. Callers reuse one buffer, so conversion does not
    /// allocate once it has grown.
    fn convert(insn: &Self::Insn, addr: u32, ops: &mut Vec<Operation>) -> convert::Converted;

    /// Static control-flow description if `insn` is a branch, with
    /// direct targets resolved against the branch's own address `pc`.
    fn branch_info(insn: &Self::Insn, pc: u32) -> Option<convert::BranchInfo>;

    /// True for the instruction that ends an interpretive window — the
    /// guest's return-from-interrupt (paper §3.4 interprets a few
    /// instructions after it rather than creating new entry points).
    fn ends_interp_window(insn: &Self::Insn) -> bool;

    /// One-line disassembly of a raw word, for profiles and reports.
    fn disasm(word: u32) -> String;

    /// Words guaranteed not to decode to a valid instruction, used by
    /// the fault-injection harness to corrupt code.
    fn illegal_words() -> &'static [u32];

    /// An encoded return-from-interrupt instruction, used by harnesses
    /// that synthesize guest interrupt handlers.
    fn interrupt_return_word() -> u32;

    /// The architected vector of the external (timer) interrupt.
    fn external_vector() -> u32;
}

/// The dynamic half of the frontend boundary: a guest's architected
/// processor state, its reference interpreter, and its exception
/// delivery rules.
///
/// The translation core holds exactly one of these per emulated guest
/// and speaks to it only through this trait — reading and writing the
/// unified VLIW register file around each group dispatch, stepping the
/// reference interpreter for untranslatable instructions, and
/// delivering architected interrupts.
pub trait GuestCpu: Clone + std::fmt::Debug {
    /// The decoded-instruction type (equals the owning [`Isa::Insn`]).
    type Insn: Copy;

    /// Creates a CPU at `entry` in the guest's reset state.
    fn new(entry: u32) -> Self;

    /// Current program counter.
    fn pc(&self) -> u32;

    /// Redirects the program counter.
    fn set_pc(&mut self, pc: u32);

    /// Dynamic count of retired guest instructions.
    fn instret(&self) -> u64;

    /// True when interrupts deliver to architected vectors instead of
    /// stopping the run (OS-present emulation).
    fn vectored(&self) -> bool;

    /// Switches between vectored delivery and stop-on-exception.
    fn set_vectored(&mut self, v: bool);

    /// Fetches and decodes the instruction at the current PC without
    /// executing it.
    ///
    /// # Errors
    ///
    /// The fetch-side [`Event`] (instruction storage fault) on failure.
    fn fetch(&self, mem: &mem::Memory) -> Result<Self::Insn, Event>;

    /// Like [`GuestCpu::fetch`], memoizing decodes through `cache`.
    /// The raw word is still read every time so self-modifying code is
    /// observed.
    ///
    /// # Errors
    ///
    /// The fetch-side [`Event`] on failure.
    fn fetch_cached(
        &self,
        mem: &mem::Memory,
        cache: &mut DecodeCache<Self::Insn>,
    ) -> Result<Self::Insn, Event>;

    /// Executes one already-decoded instruction at the current PC. On
    /// [`Event::Continue`] the PC has advanced; on faults the PC still
    /// addresses the faulting instruction and no architected state has
    /// changed.
    fn execute(&mut self, mem: &mut mem::Memory, insn: Self::Insn) -> Event;

    /// Resolves an interpreter event: delivers it to an architected
    /// vector (when [`GuestCpu::vectored`]) or turns it into a stop.
    fn handle_event(&mut self, ev: Event) -> Option<StopReason>;

    /// Runs the reference interpreter until a stop condition or `max`
    /// further instructions.
    fn interp_run(&mut self, mem: &mut mem::Memory, max: u64) -> StopReason;

    /// Delivers an architected exception, with `at` as the resume (or
    /// faulting-instruction) address the guest's save/restore state
    /// records. For [`Exception::Data`] the implementation also records
    /// the faulting data address in the guest's fault registers.
    fn deliver(&mut self, e: Exception, at: u32);

    /// Records a data-fault address/direction in the guest's fault
    /// registers *without* redirecting control — used when a run stops
    /// on an unhandled storage fault so harnesses can inspect it.
    fn record_data_fault(&mut self, addr: u32, write: bool);

    /// True when external interrupts are enabled in the guest's
    /// machine state.
    fn interrupts_enabled(&self) -> bool;

    /// Enables external interrupts (harness/bring-up helper).
    fn enable_interrupts(&mut self);

    /// The effective data address `insn` would access in the current
    /// state, if it is a load or store (oracle-scheduler support).
    fn effective_address(&self, insn: &Self::Insn) -> Option<u32>;

    /// Loads architected state into the unified VLIW register file
    /// (rename registers are zeroed — they carry no base state).
    fn fill_regfile(&self, rf: &mut RegFile);

    /// Stores the architected portion of the register file back. The
    /// PC and machine state are managed by the VMM, not the file.
    fn write_back(&mut self, rf: &RegFile);

    /// Human-readable first difference between two architected states,
    /// or `None` when equivalent. With `skip_resume` set, resume-point
    /// bookkeeping (save/restore registers) is ignored — used when
    /// comparing against an interpreter that took a different but
    /// equivalent interrupt path.
    fn state_diff(&self, other: &Self, skip_resume: bool) -> Option<String>;
}
