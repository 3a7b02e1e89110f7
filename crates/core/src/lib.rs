//! DAISY: dynamic compilation of guest binaries to VLIW tree code.
//!
//! This crate is the paper's primary contribution — the Virtual Machine
//! Monitor (VMM) and its one-pass dynamic parallelizing translator. It
//! is **guest-agnostic**: every layer is generic over the
//! [`daisy_isa::Isa`] frontend boundary, and the in-tree frontends
//! (`daisy-ppc` for PowerPC, `daisy-rv32` for RV32I) plug in without
//! this crate naming either of them.
//!
//! * [`sched`] — the Pathlist scheduling algorithm of Chapter 2 and
//!   Appendix A: greedy, multi-path, one pass, renaming speculative
//!   results into non-architected registers and committing them in
//!   program order so exceptions stay precise. Consumes the RISC
//!   primitives the frontend's `Isa::convert` produces.
//! * [`vmm`] — page-granular translation management of Chapter 3:
//!   translation cache (keyed by guest ISA *and* page), valid entry
//!   points, cross-page dispatch, invalidation on code modification.
//! * [`engine`] — executes translated tree instructions against the
//!   emulated machine, with exception tags, load-verify for speculative
//!   loads, and the cache hierarchy attached.
//! * [`precise`] — the table-free exception-address recovery of §3.5
//!   (forward matching of architected assignments).
//! * [`system`] — [`system::DaisySystem`] ties memory, VMM, engine, and
//!   emulated guest CPU state into a runnable whole.
//! * [`oracle`] — the oracle-parallelism schedulers of Chapter 6.
//! * [`overhead`] — the analytic compile-overhead model of §5.1.
//! * [`trace`] — structured observability: trace events and the
//!   [`trace::FlightRecorder`] ring they land in.
//! * [`profile`] — guest-level attribution (`perf` for the guest):
//!   per-guest-PC cycles, stalls, speculation waste, the §4.2
//!   VMM-overhead clock, and Chrome-trace / flamegraph / annotated
//!   disassembly exporters.
//! * [`metrics`] — the always-on third observability mode: a lock-free
//!   registry of atomic counters/gauges/histograms published at group
//!   boundaries, diffable [`metrics::MetricsSnapshot`]s (JSON and
//!   Prometheus exposition), and the flight-recorder
//!   [`metrics::PostMortem`] captured on ladder degradation.
//! * [`error`] — typed faults: [`DaisyError`], and the graceful
//!   degradation ladder's [`Rung`]/[`Degradation`] vocabulary.
//! * [`inject`] — deterministic, seed-driven fault-injection campaigns
//!   diffed bit-for-bit against the reference interpreter.
//!
//! # Quick start
//!
//! Pick a frontend (here PowerPC), assemble a guest program, and run it
//! through translation:
//!
//! ```
//! use daisy::prelude::*;
//! use daisy_ppc::{Asm, Gpr, PpcIsa};
//!
//! let mut a = Asm::new(0x1000);
//! a.li(Gpr(3), 21);
//! a.add(Gpr(3), Gpr(3), Gpr(3));
//! a.sc();
//! let prog = a.finish().unwrap();
//!
//! let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(0x40000).build();
//! sys.load(&prog).unwrap();
//! sys.run(1_000_000).unwrap();
//! assert_eq!(sys.cpu.gpr[3], 42);
//! ```
//!
//! The same harness shape works for any [`Isa`](daisy_isa::Isa)
//! implementation — swap the frontend type and the assembler, keep the
//! rest (`docs/isa.md` in the repository walks through adding one).
//! With the `ppc` cargo feature enabled, [`ppc`] re-exports the PowerPC
//! frontend and a [`ppc::PpcSystem`] alias for convenience.

#![warn(missing_docs)]
// Guest-reachable dispatch paths must surface faults as typed
// `DaisyError` / `Degradation` values, never panic. The few remaining
// `unwrap`/`expect` sites in non-test code are data-structure
// invariants, each carrying an explicit allow + `invariant:` note.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod engine;
pub mod error;
pub mod inject;
pub mod metrics;
pub mod native;
pub mod oracle;
pub mod overhead;
pub mod precise;
pub mod profile;
pub mod sched;
pub mod stats;
pub mod system;
pub mod trace;
pub mod vmm;

pub use error::{DaisyError, Degradation, DegradeCause, Rung};
pub use sched::TranslatorConfig;
pub use stats::RunStats;
pub use system::DaisySystem;
pub use vmm::Vmm;

/// The guest-frontend boundary crate, re-exported so harnesses can
/// write `daisy::isa::Isa` without a separate dependency line.
pub use daisy_isa as isa;

/// Convenience re-exports for the PowerPC frontend (cargo feature
/// `ppc`, off by default — the core crate itself never depends on a
/// frontend).
#[cfg(feature = "ppc")]
pub mod ppc {
    pub use daisy_ppc::*;

    /// A DAISY machine emulating the PowerPC guest.
    pub type PpcSystem = crate::system::DaisySystem<daisy_ppc::PpcIsa>;
}

/// Everything a typical harness needs in one import — ISA-neutral
/// only; frontend types (assemblers, register names, the `Isa` marker
/// itself) come from the frontend crate you pick.
///
/// ```
/// use daisy::prelude::*;
/// use daisy_ppc::PpcIsa;
///
/// let w: Workload<PpcIsa> = daisy_workloads::by_name("hist").unwrap();
/// let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(w.mem_size).build();
/// sys.load(&w.program()).unwrap();
/// ```
pub mod prelude {
    pub use crate::error::{DaisyError, Degradation, DegradeCause, Rung};
    pub use crate::metrics::{Counter, Gauge, MetricsSnapshot, PostMortem};
    pub use crate::native::NativeStats;
    pub use crate::profile::{GuestProfile, OverheadReport, PcStats, TimelineEvent};
    pub use crate::sched::TranslatorConfig;
    pub use crate::stats::{ChainStats, RunStats};
    pub use crate::system::{DaisySystem, DaisySystemBuilder};
    pub use crate::trace::{FlightRecorder, TraceEvent};
    pub use daisy_cachesim::Hierarchy;
    pub use daisy_isa::{Event, Exception, GuestCpu, Isa, Program, StopReason, Workload};
}
