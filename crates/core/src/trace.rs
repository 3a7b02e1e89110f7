//! Structured observability for the VMM: trace events and the
//! per-group execution profiler.
//!
//! The paper's Chapter 5 is built on end-of-run aggregates; this module
//! adds the *where* — a stream of structured [`TraceEvent`]s emitted at
//! every translation-lifecycle transition (translate, cast-out,
//! invalidate, chain install/sever, alias restart, exception,
//! code-modification flush, hot promotion) plus a [`GroupProfiler`]
//! attributing dispatches, VLIWs retired, and stall cycles to each
//! group entry point. Together they expose exactly the fleet-profiling
//! signal that profile-guided reoptimization (§4.3 of the paper, and
//! [`crate::sched::TierPolicy`] here) consumes.
//!
//! Tracing is **cheap by default and free when silenced**: the
//! [`Tracer`] holds an `Option<Box<dyn TraceSink>>` plus an always-on
//! [`FlightRecorder`] — a small fixed ring of the most recent events
//! kept for post-mortems (see [`crate::metrics::PostMortem`]).
//! [`Tracer::emit`] takes a closure that is only evaluated when a sink
//! is installed *or* the recorder is enabled; with the recorder
//! disabled and no sink, a tracer costs one branch per event site and
//! allocates nothing. Event sites are translation-lifecycle
//! transitions, never in-group hot paths, so the default-on recorder
//! costs one ring write per lifecycle event.
//!
//! # Example
//!
//! ```
//! use daisy::prelude::*;
//! use daisy::trace::{RingSink, TraceEvent};
//! use daisy_ppc::{Asm, Gpr, PpcIsa};
//!
//! let sink = RingSink::new(1024);
//! let mut a = Asm::new(0x1000);
//! a.li(Gpr(3), 21);
//! a.sc();
//! let prog = a.finish().unwrap();
//!
//! let mut sys = DaisySystem::<PpcIsa>::builder().trace_sink(sink.clone()).build();
//! sys.load(&prog).unwrap();
//! sys.run(1_000_000).unwrap();
//! assert!(matches!(sink.events()[0], TraceEvent::Translate { entry: 0x1000, .. }));
//! ```

use crate::error::{DegradeCause, Rung};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::Write;
use std::rc::Rc;

/// Translation tier of a group: first-touch translations are cold;
/// profile-guided retranslations of hot entries use the wider
/// [`crate::sched::TierPolicy`] settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Tier {
    /// First-touch translation with the base configuration.
    #[default]
    Cold,
    /// Profile-guided retranslation with the hot-tier configuration.
    Hot,
}

impl Tier {
    /// Short lowercase name (`"cold"` / `"hot"`), for reports.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Cold => "cold",
            Tier::Hot => "hot",
        }
    }
}

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
    /// invalidation / cast-out / alias / hot promotion).
    Translate {
        /// Group entry point (base address).
        entry: u32,
        /// Translation-page index (`entry / page_size`).
        page: u32,
        /// Tree instructions in the group.
        vliws: u32,
        /// Bytes of translated code produced.
        code_bytes: u32,
        /// Which tier's translator configuration was used.
        tier: Tier,
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
    /// A group's dispatch count crossed the hot threshold; its cold
    /// translation was dropped for hot-tier retranslation.
    HotPromotion {
        /// Entry point promoted.
        entry: u32,
        /// Dispatch count at promotion.
        dispatches: u64,
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
    /// Stable lowercase kind name, used by the JSONL sink and the event
    /// histograms of the `profile` report.
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
            TraceEvent::HotPromotion { .. } => "hot_promotion",
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
            TraceEvent::Translate { entry, page, vliws, code_bytes, tier, conservative } => {
                format!(
                    "{{\"event\": \"{k}\", \"entry\": {entry}, \"page\": {page}, \
                     \"vliws\": {vliws}, \"code_bytes\": {code_bytes}, \
                     \"tier\": \"{}\", \"conservative\": {conservative}}}",
                    tier.name()
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
            TraceEvent::HotPromotion { entry, dispatches } => {
                format!("{{\"event\": \"{k}\", \"entry\": {entry}, \"dispatches\": {dispatches}}}")
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
            TraceEvent::Translate { entry, vliws, code_bytes, tier, conservative, .. } => {
                write!(
                    f,
                    "translate 0x{entry:x}: {vliws} vliws, {code_bytes} bytes ({}{})",
                    tier.name(),
                    if conservative { ", conservative" } else { "" }
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
            TraceEvent::HotPromotion { entry, dispatches } => {
                write!(f, "hot promotion 0x{entry:x} after {dispatches} dispatches")
            }
            TraceEvent::NativeCompile { entry, outcome } => {
                write!(f, "native compile 0x{entry:x}: {outcome}")
            }
            TraceEvent::Degraded { entry, from, to, cause } => {
                write!(f, "degraded entry 0x{entry:x}: {from} -> {to} ({cause})")
            }
        }
    }
}

/// Receives the structured event stream.
///
/// # Contract
///
/// * [`TraceSink::record`] is called **synchronously** at the event
///   site, in program order: the sequence of calls is the exact
///   lifecycle history of the run (the ring-sink unit tests assert on
///   exact sequences).
/// * Sinks must not panic on any event and must tolerate events they do
///   not recognize (the taxonomy grows; match non-exhaustively).
/// * Sinks run on the hot VMM dispatch path; `record` should be O(1)
///   and defer formatting/IO where possible (the JSONL sink formats
///   inline and is intended for offline analysis, not for measured
///   runs).
pub trait TraceSink: fmt::Debug {
    /// Records one event.
    fn record(&mut self, ev: &TraceEvent);

    /// Flushes buffered output, if any. Called when the owning system
    /// is dropped or on explicit request; the default does nothing.
    fn flush(&mut self) {}
}

/// The do-nothing sink: every event is discarded.
///
/// Installing `NullSink` exercises every emission site (useful to test
/// that tracing changes no behaviour) while retaining nothing; *not*
/// installing any sink is cheaper still, as event closures are never
/// evaluated.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _ev: &TraceEvent) {}
}

/// A bounded in-memory sink keeping the most recent events.
///
/// `RingSink` is a cheap shared handle (`Rc<RefCell<…>>`): clone it,
/// hand one clone to [`crate::system::DaisySystemBuilder::trace_sink`],
/// and read [`RingSink::events`] from the other after the run.
#[derive(Debug, Clone)]
pub struct RingSink {
    cap: usize,
    buf: Rc<RefCell<VecDeque<TraceEvent>>>,
    dropped: Rc<RefCell<u64>>,
}

impl RingSink {
    /// Creates a sink retaining at most `cap` events (the oldest are
    /// discarded first).
    pub fn new(cap: usize) -> RingSink {
        RingSink {
            cap: cap.max(1),
            buf: Rc::new(RefCell::new(VecDeque::new())),
            dropped: Rc::new(RefCell::new(0)),
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.buf.borrow().iter().copied().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.borrow().len()
    }

    /// True when no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.borrow().is_empty()
    }

    /// Events discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        *self.dropped.borrow()
    }

    /// Clears the buffer (the drop counter is kept).
    pub fn clear(&self) {
        self.buf.borrow_mut().clear();
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, ev: &TraceEvent) {
        let mut buf = self.buf.borrow_mut();
        if buf.len() == self.cap {
            buf.pop_front();
            *self.dropped.borrow_mut() += 1;
        }
        buf.push_back(*ev);
    }
}

/// A sink writing one JSON object per event, newline-delimited, to any
/// [`Write`] target (a file, a pipe, a `Vec<u8>`).
pub struct JsonlSink<W: Write> {
    w: W,
    errored: bool,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer. IO errors are sticky and silent (observability
    /// must never turn into a crash of the observed run); check
    /// [`JsonlSink::errored`] if delivery matters.
    pub fn new(w: W) -> JsonlSink<W> {
        JsonlSink { w, errored: false }
    }

    /// True if any write has failed; subsequent events are dropped.
    pub fn errored(&self) -> bool {
        self.errored
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write> fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink").field("errored", &self.errored).finish_non_exhaustive()
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, ev: &TraceEvent) {
        if self.errored {
            return;
        }
        if writeln!(self.w, "{}", ev.to_json()).is_err() {
            self.errored = true;
        }
    }

    fn flush(&mut self) {
        if self.w.flush().is_err() {
            self.errored = true;
        }
    }
}

/// Default capacity of the always-on [`FlightRecorder`] ring.
pub const DEFAULT_FLIGHT_RECORDER_CAPACITY: usize = 256;

/// The always-on flight recorder: a fixed-size ring of the most recent
/// [`TraceEvent`]s, kept even when no [`TraceSink`] is installed, so a
/// post-mortem ([`crate::metrics::PostMortem`]) can show what led up to
/// a ladder degradation or a fault-injection divergence.
///
/// Each retained event carries a global sequence number (0-based count
/// of events ever recorded), so dumps stay correlatable after the ring
/// wraps; [`FlightRecorder::dropped`] counts what fell off.
#[derive(Debug)]
pub struct FlightRecorder {
    cap: usize,
    buf: VecDeque<(u64, TraceEvent)>,
    seq: u64,
    /// Whether events are recorded; a disabled recorder is free.
    pub enabled: bool,
}

impl Default for FlightRecorder {
    /// Enabled, with [`DEFAULT_FLIGHT_RECORDER_CAPACITY`] slots.
    fn default() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_FLIGHT_RECORDER_CAPACITY)
    }
}

impl FlightRecorder {
    /// An enabled recorder retaining at most `cap` events.
    pub fn with_capacity(cap: usize) -> FlightRecorder {
        FlightRecorder { cap: cap.max(1), buf: VecDeque::new(), seq: 0, enabled: true }
    }

    /// A disabled recorder (records nothing, retains nothing).
    pub fn disabled() -> FlightRecorder {
        FlightRecorder { enabled: false, ..FlightRecorder::default() }
    }

    /// Records one event (a no-op when disabled).
    pub fn record(&mut self, ev: &TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back((self.seq, *ev));
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

    /// Clears the buffer; sequence numbering (and thus
    /// [`FlightRecorder::dropped`]) keeps counting.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

/// The emission front-end owned by the VMM: an optional sink plus the
/// always-on [`FlightRecorder`].
///
/// Event sites call [`Tracer::emit`] with a closure building the event;
/// the closure is only run when a sink is installed or the recorder is
/// enabled, so a fully silenced tracer costs one branch per site.
#[derive(Debug, Default)]
pub struct Tracer {
    sink: Option<Box<dyn TraceSink>>,
    /// The post-mortem ring. Public so the owning system can snapshot
    /// it, resize it, or disable it wholesale.
    pub recorder: FlightRecorder,
}

impl Tracer {
    /// A tracer with no sink. The flight recorder is still on (the
    /// default); silence it too with
    /// [`Tracer::recorder`]`= FlightRecorder::disabled()`.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer delivering to `sink` (and to the flight recorder).
    pub fn new(sink: Box<dyn TraceSink>) -> Tracer {
        Tracer { sink: Some(sink), recorder: FlightRecorder::default() }
    }

    /// True when a sink is installed. (The flight recorder is
    /// independent: `emit` may retain events while `enabled()` is
    /// false.)
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event built by `f` — evaluated only when a sink is
    /// installed or the flight recorder is enabled.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> TraceEvent) {
        if self.sink.is_none() && !self.recorder.enabled {
            return;
        }
        let ev = f();
        self.recorder.record(&ev);
        if let Some(sink) = &mut self.sink {
            sink.record(&ev);
        }
    }

    /// Flushes the sink, if any.
    pub fn flush(&mut self) {
        if let Some(sink) = &mut self.sink {
            sink.flush();
        }
    }
}

/// Execution counters attributed to one group entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupProfile {
    /// Times the group was dispatched (VMM *and* chained dispatches).
    pub dispatches: u64,
    /// Dispatches that arrived through a chain link or the inline
    /// indirect cache rather than the VMM.
    pub chained_dispatches: u64,
    /// Tree instructions retired across all dispatches.
    pub vliws_retired: u64,
    /// Cache-stall cycles attributed to this group's execution.
    pub stall_cycles: u64,
    /// Highest tier of translation executed for this entry.
    pub tier: Tier,
}

impl GroupProfile {
    /// Total cycles attributed to this group (VLIWs + stalls).
    pub fn cycles(&self) -> u64 {
        self.vliws_retired + self.stall_cycles
    }
}

/// Per-group execution profiler: attributes dispatches, VLIWs retired,
/// and stall cycles to group entry points.
///
/// Enabled via [`crate::system::DaisySystemBuilder::profiling`] (and
/// implied by tiered retranslation, which consumes its dispatch
/// counts). One hash-map update per group dispatch; disabled, it costs
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct GroupProfiler {
    map: HashMap<u32, GroupProfile>,
}

impl GroupProfiler {
    /// An empty profiler.
    pub fn new() -> GroupProfiler {
        GroupProfiler::default()
    }

    /// Attributes one dispatch of the group entered at `entry`.
    pub fn record(&mut self, entry: u32, tier: Tier, chained: bool, vliws: u64, stalls: u64) {
        let p = self.map.entry(entry).or_default();
        p.dispatches += 1;
        p.chained_dispatches += u64::from(chained);
        p.vliws_retired += vliws;
        p.stall_cycles += stalls;
        p.tier = p.tier.max(tier);
    }

    /// The profile for `entry`, if it was ever dispatched.
    pub fn get(&self, entry: u32) -> Option<&GroupProfile> {
        self.map.get(&entry)
    }

    /// Number of distinct entry points profiled.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been profiled.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(entry, profile)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &GroupProfile)> {
        self.map.iter().map(|(k, v)| (*k, v))
    }

    /// The `n` hottest entries by dispatch count, descending (ties
    /// break toward lower addresses for deterministic reports).
    pub fn top_by_dispatches(&self, n: usize) -> Vec<(u32, GroupProfile)> {
        let mut v: Vec<(u32, GroupProfile)> = self.map.iter().map(|(k, p)| (*k, *p)).collect();
        v.sort_by(|a, b| b.1.dispatches.cmp(&a.1.dispatches).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// The `n` costliest entries by attributed cycles, descending.
    pub fn top_by_cycles(&self, n: usize) -> Vec<(u32, GroupProfile)> {
        let mut v: Vec<(u32, GroupProfile)> = self.map.iter().map(|(k, p)| (*k, *p)).collect();
        v.sort_by(|a, b| b.1.cycles().cmp(&a.1.cycles()).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silenced_tracer_never_builds_events() {
        let mut t = Tracer::disabled();
        t.recorder = FlightRecorder::disabled();
        assert!(!t.enabled());
        t.emit(|| unreachable!("closure must not run with no sink and no recorder"));
    }

    #[test]
    fn default_tracer_flight_records_without_a_sink() {
        let mut t = Tracer::disabled();
        assert!(!t.enabled(), "no sink installed");
        assert!(t.recorder.enabled, "the flight recorder is on by default");
        t.emit(|| TraceEvent::Invalidate { page: 7 });
        assert_eq!(t.recorder.events(), vec![(0, TraceEvent::Invalidate { page: 7 })]);
    }

    #[test]
    fn flight_recorder_wraps_and_keeps_sequence_numbers() {
        let mut r = FlightRecorder::with_capacity(3);
        for page in 0..5 {
            r.record(&TraceEvent::Invalidate { page });
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 2);
        let seqs: Vec<u64> = r.events().iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![2, 3, 4], "survivors keep their global sequence numbers");
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 5, "clearing does not rewind numbering");
        let mut off = FlightRecorder::disabled();
        off.record(&TraceEvent::Invalidate { page: 0 });
        assert!(off.is_empty() && off.recorded() == 0);
    }

    #[test]
    fn display_one_liners_are_compact() {
        let ev = TraceEvent::Degraded {
            entry: 0x1000,
            from: Rung::Packed,
            to: Rung::Conservative,
            cause: DegradeCause::CastOutPressure,
        };
        assert_eq!(
            ev.to_string(),
            "degraded entry 0x1000: packed -> conservative (cast_out_pressure)"
        );
        assert_eq!(
            TraceEvent::CastOut { page: 4, groups: 2 }.to_string(),
            "cast out page 4 (2 groups)"
        );
    }

    #[test]
    fn ring_sink_keeps_most_recent_and_counts_drops() {
        let sink = RingSink::new(2);
        let mut t = Tracer::new(Box::new(sink.clone()));
        assert!(t.enabled());
        for page in 0..5 {
            t.emit(|| TraceEvent::Invalidate { page });
        }
        assert_eq!(
            sink.events(),
            vec![TraceEvent::Invalidate { page: 3 }, TraceEvent::Invalidate { page: 4 }]
        );
        assert_eq!(sink.dropped(), 3);
        sink.clear();
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&TraceEvent::Translate {
            entry: 0x1000,
            page: 1,
            vliws: 3,
            code_bytes: 96,
            tier: Tier::Hot,
            conservative: false,
        });
        sink.record(&TraceEvent::ChainSever { from: 0x1000, target: 0x2000 });
        assert!(!sink.errored());
        let out = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"event\": \"translate\""));
        assert!(lines[0].contains("\"tier\": \"hot\""));
        assert!(lines[1].contains("\"target\": 8192"));
    }

    #[test]
    fn profiler_ranks_hot_groups() {
        let mut p = GroupProfiler::new();
        for _ in 0..10 {
            p.record(0x1000, Tier::Cold, true, 4, 1);
        }
        p.record(0x2000, Tier::Hot, false, 100, 0);
        let top = p.top_by_dispatches(1);
        assert_eq!(top[0].0, 0x1000);
        assert_eq!(top[0].1.dispatches, 10);
        assert_eq!(top[0].1.chained_dispatches, 10);
        assert_eq!(top[0].1.vliws_retired, 40);
        let costly = p.top_by_cycles(1);
        assert_eq!(costly[0].0, 0x2000);
        assert_eq!(p.get(0x2000).unwrap().tier, Tier::Hot);
    }

    #[test]
    fn every_event_kind_serializes() {
        let evs = [
            TraceEvent::Translate {
                entry: 1,
                page: 0,
                vliws: 1,
                code_bytes: 4,
                tier: Tier::Cold,
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
            TraceEvent::HotPromotion { entry: 4, dispatches: 64 },
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
