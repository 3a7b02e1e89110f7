//! Structured observability for the VMM: trace events and the flight
//! recorder.
//!
//! The paper's Chapter 5 is built on end-of-run aggregates; this module
//! adds the *where* — a stream of structured [`TraceEvent`]s emitted at
//! every translation-lifecycle transition (translate, cast-out,
//! invalidate, chain install/sever, alias restart, exception,
//! code-modification flush, native compile, degradation). The hotness
//! signal the native tier consumes is one dispatch counter per
//! translation ([`crate::engine::GroupCode::dispatches`]); per-entry
//! attribution of cycles and stalls lives in [`crate::profile`].
//!
//! Every event lands in one ring, the VMM's [`FlightRecorder`]: it is
//! always on, keeps the most recent events (default
//! [`DEFAULT_FLIGHT_RECORDER_CAPACITY`], sized through
//! [`crate::system::DaisySystemBuilder::flight_recorder_capacity`]) and
//! feeds post-mortems (see [`crate::metrics::PostMortem`]). Event sites
//! are translation-lifecycle transitions, never in-group hot paths, so
//! the recorder costs one ring write per lifecycle event. Read it back
//! through [`crate::system::DaisySystem::flight_recorder`];
//! [`TraceEvent::to_json`] renders one event as a JSON object.
//!
//! # Example
//!
//! ```
//! use daisy::prelude::*;
//! use daisy_ppc::{Asm, Gpr, PpcIsa};
//!
//! let mut a = Asm::new(0x1000);
//! a.li(Gpr(3), 21);
//! a.sc();
//! let prog = a.finish().unwrap();
//!
//! let mut sys = DaisySystem::<PpcIsa>::builder().flight_recorder_capacity(1024).build();
//! sys.load(&prog).unwrap();
//! sys.run(1_000_000).unwrap();
//! let events = sys.flight_recorder().events();
//! assert!(matches!(events[0], (0, TraceEvent::Translate { entry: 0x1000, .. })));
//! ```

use crate::error::{DegradeCause, Rung};
use std::collections::VecDeque;
use std::fmt;

/// Classification of a precise exception, for trace consumers that do
/// not want to carry the engine's full exit type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExcClass {
    /// Data-storage fault on a load.
    LoadFault,
    /// Data-storage fault on a store.
    StoreFault,
    /// Trap instruction (program interrupt).
    Trap,
}

impl ExcClass {
    /// Stable lowercase name, for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ExcClass::LoadFault => "load_fault",
            ExcClass::StoreFault => "store_fault",
            ExcClass::Trap => "trap",
        }
    }
}

/// One structured observability event.
///
/// Every variant carries base-architecture addresses (entry points,
/// pages, faulting instructions), never translated-code addresses, so a
/// stream can be correlated with the original binary without access to
/// the translation cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A group was translated (first touch, or retranslation after an
    /// invalidation / cast-out / alias restart).
    Translate {
        /// Group entry point (base address).
        entry: u32,
        /// Translation-page index (`entry / page_size`).
        page: u32,
        /// Tree instructions in the group.
        vliws: u32,
        /// Bytes of translated code produced.
        code_bytes: u32,
        /// True when load speculation was inhibited (the conservative
        /// alias-retranslation mode).
        conservative: bool,
    },
    /// A page's translations were cast out of the bounded
    /// translated-code area (LRU victim).
    CastOut {
        /// Translation-page index evicted.
        page: u32,
        /// Groups destroyed with it.
        groups: u32,
    },
    /// A page's translations were destroyed by a code modification.
    Invalidate {
        /// Translation-page index destroyed.
        page: u32,
    },
    /// A store hit translated code and the engine flushed to the VMM
    /// (§3.2); the modifying instruction is re-interpreted.
    CodeModified {
        /// Address of the modifying store instruction.
        addr: u32,
    },
    /// A direct exit link or indirect-cache entry was installed.
    ChainInstall {
        /// Entry point of the linking (source) group.
        from: u32,
        /// Target entry point linked to.
        to: u32,
        /// True for inline indirect-cache installs (LR/CTR exits).
        indirect: bool,
    },
    /// A followed chain link was found severed (its target translation
    /// had been dropped) and was cleared.
    ChainSever {
        /// Entry point of the linking group.
        from: u32,
        /// Target the stale link pointed at.
        target: u32,
    },
    /// A bypassed load failed its commit-time verify (run-time alias);
    /// execution restarts at the load.
    AliasRestart {
        /// Entry point of the group that restarted.
        entry: u32,
        /// Base address of the offending load.
        addr: u32,
    },
    /// An entry crossed the alias-restart threshold and was dropped for
    /// conservative (no load speculation) retranslation.
    AliasRetranslate {
        /// Entry point being retranslated conservatively.
        entry: u32,
    },
    /// A precise exception was delivered.
    Exception {
        /// Fault classification.
        class: ExcClass,
        /// Base address of the responsible instruction.
        base_addr: u32,
    },
    /// An external interrupt was taken at a group boundary (§3.7).
    ExternalInterrupt {
        /// Architected PC at delivery.
        pc: u32,
    },
    /// Translated code bailed to the interpreter for an MMIO device
    /// access (device reads/writes have side effects and must execute
    /// exactly once, in program order).
    MmioBail {
        /// Base address of the device-accessing instruction.
        addr: u32,
    },
    /// A hot group was lowered to native host code — or refused, with
    /// the stable refusal label as the outcome.
    NativeCompile {
        /// Entry point of the group.
        entry: u32,
        /// `"ok"`, or a refusal label (`"general-parcel"`,
        /// `"too-large"`, …).
        outcome: &'static str,
    },
    /// An entry point stepped down the graceful-degradation ladder
    /// (see [`crate::error`]): a recoverable fault was absorbed by
    /// falling back to a slower-but-sound execution mode instead of
    /// failing the run. `from == to` records a quality degradation
    /// within the same rung (e.g. a truncated interpret-ahead hint
    /// budget).
    Degraded {
        /// Entry point that degraded.
        entry: u32,
        /// Rung before the step.
        from: Rung,
        /// Rung after the step.
        to: Rung,
        /// Why.
        cause: DegradeCause,
    },
}

impl TraceEvent {
    /// Stable lowercase kind name, used by [`TraceEvent::to_json`] and
    /// the event histograms of the `profile` report.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Translate { .. } => "translate",
            TraceEvent::CastOut { .. } => "cast_out",
            TraceEvent::Invalidate { .. } => "invalidate",
            TraceEvent::CodeModified { .. } => "code_modified",
            TraceEvent::ChainInstall { .. } => "chain_install",
            TraceEvent::ChainSever { .. } => "chain_sever",
            TraceEvent::AliasRestart { .. } => "alias_restart",
            TraceEvent::AliasRetranslate { .. } => "alias_retranslate",
            TraceEvent::Exception { .. } => "exception",
            TraceEvent::ExternalInterrupt { .. } => "external_interrupt",
            TraceEvent::MmioBail { .. } => "mmio_bail",
            TraceEvent::NativeCompile { .. } => "native_compile",
            TraceEvent::Degraded { .. } => "degraded",
        }
    }

    /// Renders the event as one JSON object (no trailing newline). The
    /// encoding is hand-rolled — every field is a number or a bare
    /// word, so no escaping is ever needed.
    pub fn to_json(&self) -> String {
        let k = self.kind();
        match *self {
            TraceEvent::Translate { entry, page, vliws, code_bytes, conservative } => {
                format!(
                    "{{\"event\": \"{k}\", \"entry\": {entry}, \"page\": {page}, \
                     \"vliws\": {vliws}, \"code_bytes\": {code_bytes}, \
                     \"conservative\": {conservative}}}"
                )
            }
            TraceEvent::CastOut { page, groups } => {
                format!("{{\"event\": \"{k}\", \"page\": {page}, \"groups\": {groups}}}")
            }
            TraceEvent::Invalidate { page } => {
                format!("{{\"event\": \"{k}\", \"page\": {page}}}")
            }
            TraceEvent::CodeModified { addr } => {
                format!("{{\"event\": \"{k}\", \"addr\": {addr}}}")
            }
            TraceEvent::ChainInstall { from, to, indirect } => {
                format!(
                    "{{\"event\": \"{k}\", \"from\": {from}, \"to\": {to}, \
                     \"indirect\": {indirect}}}"
                )
            }
            TraceEvent::ChainSever { from, target } => {
                format!("{{\"event\": \"{k}\", \"from\": {from}, \"target\": {target}}}")
            }
            TraceEvent::AliasRestart { entry, addr } => {
                format!("{{\"event\": \"{k}\", \"entry\": {entry}, \"addr\": {addr}}}")
            }
            TraceEvent::AliasRetranslate { entry } => {
                format!("{{\"event\": \"{k}\", \"entry\": {entry}}}")
            }
            TraceEvent::Exception { class, base_addr } => {
                format!(
                    "{{\"event\": \"{k}\", \"class\": \"{}\", \"base_addr\": {base_addr}}}",
                    class.name()
                )
            }
            TraceEvent::ExternalInterrupt { pc } => {
                format!("{{\"event\": \"{k}\", \"pc\": {pc}}}")
            }
            TraceEvent::MmioBail { addr } => {
                format!("{{\"event\": \"{k}\", \"addr\": {addr}}}")
            }
            TraceEvent::NativeCompile { entry, outcome } => {
                format!("{{\"event\": \"{k}\", \"entry\": {entry}, \"outcome\": \"{outcome}\"}}")
            }
            TraceEvent::Degraded { entry, from, to, cause } => {
                format!(
                    "{{\"event\": \"{k}\", \"entry\": {entry}, \"from\": \"{}\", \
                     \"to\": \"{}\", \"cause\": \"{}\"}}",
                    from.name(),
                    to.name(),
                    cause.name()
                )
            }
        }
    }
}

impl fmt::Display for TraceEvent {
    /// Human-readable one-liner, used by the flight-recorder post-mortem
    /// dump. Pinned by `tests/display_pin.rs` — treat the formats as
    /// stable output, not debug text.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::Translate { entry, vliws, code_bytes, conservative, .. } => {
                write!(
                    f,
                    "translate 0x{entry:x}: {vliws} vliws, {code_bytes} bytes{}",
                    if conservative { " (conservative)" } else { "" }
                )
            }
            TraceEvent::CastOut { page, groups } => {
                write!(f, "cast out page {page} ({groups} groups)")
            }
            TraceEvent::Invalidate { page } => write!(f, "invalidate page {page}"),
            TraceEvent::CodeModified { addr } => write!(f, "code modified by store at 0x{addr:x}"),
            TraceEvent::ChainInstall { from, to, indirect } => {
                write!(
                    f,
                    "chain 0x{from:x} -> 0x{to:x}{}",
                    if indirect { " (indirect)" } else { "" }
                )
            }
            TraceEvent::ChainSever { from, target } => {
                write!(f, "sever 0x{from:x} -> 0x{target:x}")
            }
            TraceEvent::AliasRestart { entry, addr } => {
                write!(f, "alias restart in 0x{entry:x} at load 0x{addr:x}")
            }
            TraceEvent::AliasRetranslate { entry } => {
                write!(f, "alias retranslate 0x{entry:x}")
            }
            TraceEvent::Exception { class, base_addr } => {
                write!(f, "exception {} at 0x{base_addr:x}", class.name())
            }
            TraceEvent::ExternalInterrupt { pc } => {
                write!(f, "external interrupt at 0x{pc:x}")
            }
            TraceEvent::MmioBail { addr } => write!(f, "mmio bail at 0x{addr:x}"),
            TraceEvent::NativeCompile { entry, outcome } => {
                write!(f, "native compile 0x{entry:x}: {outcome}")
            }
            TraceEvent::Degraded { entry, from, to, cause } => {
                write!(f, "degraded entry 0x{entry:x}: {from} -> {to} ({cause})")
            }
        }
    }
}

/// Default capacity of the [`FlightRecorder`] ring, and the number of
/// newest events a post-mortem shows at any capacity.
pub const DEFAULT_FLIGHT_RECORDER_CAPACITY: usize = 256;

/// The flight recorder: the one ring the VMM keeps its trace events
/// in. It is always on, holds the most recent [`TraceEvent`]s, and
/// feeds post-mortems ([`crate::metrics::PostMortem`]), which show what
/// led up to a ladder degradation or a fault-injection divergence.
///
/// Each retained event carries a global sequence number (0-based count
/// of events ever recorded), so dumps stay correlatable after the ring
/// wraps; [`FlightRecorder::dropped`] counts what fell off. The ring
/// grows as events arrive, so a large capacity costs nothing up front.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    buf: VecDeque<(u64, TraceEvent)>,
    seq: u64,
}

impl Default for FlightRecorder {
    /// A recorder with [`DEFAULT_FLIGHT_RECORDER_CAPACITY`] slots.
    fn default() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_RECORDER_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder retaining at most `cap` events (at least one).
    pub fn with_capacity(cap: usize) -> FlightRecorder {
        FlightRecorder { cap: cap.max(1), buf: VecDeque::new(), seq: 0 }
    }

    /// Records the event built by `f`, discarding the oldest when the
    /// ring is full. Event sites are translation-lifecycle transitions,
    /// never in-group hot paths.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        self.record(f());
    }

    /// Out of line: with the ring update inlined into every event site,
    /// `DaisySystem::step` grew and `daisybench`'s `native_suite` ran
    /// about 7% slower (median of 8 alternating runs, 2-vCPU Xeon VM).
    #[inline(never)]
    fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back((self.seq, ev));
        self.seq += 1;
    }

    /// The retained events with their sequence numbers, oldest first.
    pub fn events(&self) -> Vec<(u64, TraceEvent)> {
        self.buf.iter().copied().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events ever recorded (sequence numbers run `0..recorded()`).
    pub fn recorded(&self) -> u64 {
        self.seq
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.seq - self.buf.len() as u64
    }

    /// What a post-mortem shows: the newest
    /// [`DEFAULT_FLIGHT_RECORDER_CAPACITY`] retained events, oldest
    /// first, and the count of every event older than them. Both are
    /// the same at every ring capacity of at least the default.
    pub fn post_mortem_window(&self) -> (Vec<(u64, TraceEvent)>, u64) {
        let kept = self.buf.len().min(DEFAULT_FLIGHT_RECORDER_CAPACITY);
        (self.buf.range(self.buf.len() - kept..).copied().collect(), self.seq - kept as u64)
    }

    /// Events a post-mortem does not show (see
    /// [`FlightRecorder::post_mortem_window`]).
    pub fn post_mortem_dropped(&self) -> u64 {
        self.seq - self.buf.len().min(DEFAULT_FLIGHT_RECORDER_CAPACITY) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_recorder_wraps_and_keeps_sequence_numbers() {
        let mut r = FlightRecorder::with_capacity(3);
        for page in 0..5 {
            r.emit(|| TraceEvent::Invalidate { page });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
        let seqs: Vec<u64> = r.events().iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![2, 3, 4], "survivors keep their global sequence numbers");
    }

    #[test]
    fn display_one_liners_are_compact() {
        let ev = TraceEvent::Degraded {
            entry: 0x1000,
            from: Rung::Packed,
            to: Rung::Conservative,
            cause: DegradeCause::Forced,
        };
        assert_eq!(ev.to_string(), "degraded entry 0x1000: packed -> conservative (forced)");
        assert_eq!(
            TraceEvent::CastOut { page: 4, groups: 2 }.to_string(),
            "cast out page 4 (2 groups)"
        );
    }

    #[test]
    fn post_mortem_window_is_the_same_at_every_capacity() {
        let (mut small, mut large) =
            (FlightRecorder::default(), FlightRecorder::with_capacity(1 << 21));
        for page in 0..1000 {
            small.emit(|| TraceEvent::Invalidate { page });
            large.emit(|| TraceEvent::Invalidate { page });
        }
        assert_eq!(large.dropped(), 0);
        assert_eq!(small.post_mortem_window(), large.post_mortem_window());
        let (events, dropped) = large.post_mortem_window();
        assert_eq!(events.len(), DEFAULT_FLIGHT_RECORDER_CAPACITY);
        assert_eq!(events[0].0, dropped, "the window starts right after what it drops");
        assert_eq!(dropped, small.dropped());
    }

    #[test]
    fn every_event_kind_serializes() {
        let evs = [
            TraceEvent::Translate {
                entry: 1,
                page: 0,
                vliws: 1,
                code_bytes: 4,
                conservative: true,
            },
            TraceEvent::CastOut { page: 2, groups: 3 },
            TraceEvent::Invalidate { page: 1 },
            TraceEvent::CodeModified { addr: 8 },
            TraceEvent::ChainInstall { from: 4, to: 8, indirect: true },
            TraceEvent::ChainSever { from: 4, target: 8 },
            TraceEvent::AliasRestart { entry: 4, addr: 12 },
            TraceEvent::AliasRetranslate { entry: 4 },
            TraceEvent::Exception { class: ExcClass::StoreFault, base_addr: 16 },
            TraceEvent::ExternalInterrupt { pc: 20 },
            TraceEvent::MmioBail { addr: 24 },
            TraceEvent::NativeCompile { entry: 4, outcome: "ok" },
            TraceEvent::Degraded {
                entry: 4,
                from: Rung::Packed,
                to: Rung::Conservative,
                cause: DegradeCause::RecoveryMismatch,
            },
        ];
        for ev in evs {
            let j = ev.to_json();
            assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
            assert!(j.contains(ev.kind()), "{j}");
        }
    }
}
