//! The complete DAISY machine: emulated memory, base-architecture
//! state, VMM, translated-code engine, and cache hierarchy.
//!
//! [`DaisySystem::run`] is the paper's execution model end to end:
//! dispatch the current PC through the VMM (translating on first
//! touch), execute tree instructions until the group exits, and handle
//! the exit — cross-page and indirect branches re-dispatch, system
//! calls, interrupt returns and privileged instructions drop to the
//! VMM's interpreter, stores into translated pages invalidate and
//! resume, precise exceptions are delivered to the base architecture's
//! own vectors.
//!
//! The system is generic over the guest: [`DaisySystem<I>`] emulates
//! whichever [`Isa`] its type parameter names, holding that guest's
//! architected state as `I::Cpu` and translating its instructions
//! through `I::decode`/`I::convert`. Nothing in this module knows which
//! ISA it is running.

use crate::engine::{
    run_group, run_group_profiled, run_group_resume, ChainLink, EngineScratch, ExcKind, GroupCode,
    GroupExit,
};
use crate::error::{DaisyError, Degradation, DegradeCause, Rung};
use crate::metrics::{IrqLatency, MetricsRegistry, MetricsSnapshot, MetricsSource, PostMortem};
use crate::native::{NativeRun, NativeStats, NativeTier, NativeTierConfig};
use crate::precise::{self, ArchEvent, RecoverError};
use crate::profile::GuestProfile;
use crate::sched::{TierPolicy, TranslatorConfig};
use crate::stats::RunStats;
use crate::trace::{
    ExcClass, FlightRecorder, GroupProfiler, Tier, TraceEvent, TraceSink, Tracer,
    DEFAULT_FLIGHT_RECORDER_CAPACITY,
};
use crate::vmm::Vmm;
use daisy_cachesim::Hierarchy;
use daisy_isa::convert::BranchKind;
use daisy_isa::mem::{MemFault, Memory};
use daisy_isa::{Event, Exception, GuestCpu, Isa, Program, StopReason};
use daisy_vliw::regfile::RegFile;
use daisy_vliw::tree::IndirectVia;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Default group-boundary cadence of metrics publication: the system
/// republishes its [`MetricsSnapshot`] into the registry every this
/// many dispatch boundaries (see
/// [`DaisySystemBuilder::metrics_publish_period`]).
pub const DEFAULT_METRICS_PUBLISH_PERIOD: u32 = 1024;

/// How the previous group exited, carried to the next dispatch so a
/// chain link can be followed or installed.
#[derive(Debug)]
enum PendingChain {
    /// A static direct-branch exit: the `from` group has a link slot
    /// for `target`.
    Direct { from: Rc<GroupCode>, slot: usize, target: u32 },
    /// An indirect (LR/CTR) exit, served by `from`'s inline dispatch
    /// cache.
    Indirect { from: Rc<GroupCode>, target: u32 },
}

/// A fully wired DAISY machine, emulating the guest ISA `I`.
#[derive(Debug)]
pub struct DaisySystem<I: Isa> {
    /// Emulated base-architecture physical memory.
    pub mem: Memory,
    /// Architected base state (registers, PC, machine state).
    pub cpu: I::Cpu,
    /// The Virtual Machine Monitor.
    pub vmm: Vmm<I>,
    /// Cache hierarchy probed by the engine.
    pub cache: Hierarchy,
    /// Run statistics.
    pub stats: RunStats,
    /// Cross-check the §3.5 recovery algorithm against parcel metadata
    /// on every exception (cheap: exceptions are rare).
    pub check_precise_recovery: bool,
    /// Deliver an external interrupt every this many cycles (a timer
    /// tick), when the emulated machine state has interrupts enabled.
    /// External interrupts are taken at group boundaries — the
    /// translated-code analogue of the paper's "to the external
    /// interrupt handler the program will appear to be at [a precise]
    /// point" (§3.7).
    pub timer_period: Option<u64>,
    next_timer: u64,
    pending_external: bool,
    /// Recorded external-interrupt deliveries — `(retired guest
    /// instructions, architected PC)` per delivery — when enabled
    /// through [`DaisySystemBuilder::record_deliveries`]. The
    /// preemption-fuzz harness replays this log on the interpreter
    /// oracle to reproduce the exact delivery schedule.
    delivery_log: Option<Vec<(u64, u32)>>,
    /// External interrupts delivered at a boundary produced by a
    /// native-tier run (including rerolled back-edge yields).
    native_yield_preempts: u64,
    /// Whether the previous dispatch executed (at least partly) as
    /// native host code.
    last_exit_native: bool,
    scratch: EngineScratch,
    /// Follow direct group-to-group chain links, skipping the VMM on
    /// hot exits (on by default; [`DaisySystem::builder`] can disable
    /// it to reproduce pure per-dispatch VMM counts).
    chaining: bool,
    /// The previous group's exit, if a chain link may apply to it.
    pending_chain: Option<PendingChain>,
    /// Per-group execution profiler (`None` unless enabled through the
    /// builder; tiered retranslation enables it implicitly).
    pub profiler: Option<GroupProfiler>,
    /// Guest-level attribution profile (`None` unless enabled through
    /// [`DaisySystemBuilder::guest_profiling`]): per-guest-PC cycles,
    /// stalls, speculation waste, the §4.2 overhead clock, and the
    /// dispatch timeline the exporters render (see [`crate::profile`]).
    pub guest_profile: Option<GuestProfile>,
    /// Promotion threshold, copied out of the VMM's tier policy so the
    /// dispatch loop can test it without borrowing the VMM.
    hot_threshold: Option<u64>,
    /// Graceful-degradation ladder: entries faulted down from the
    /// default execution mode (see [`crate::error`]). Empty on the
    /// happy path.
    ladder: HashMap<u32, Rung>,
    /// Translation pages that fell to the bottom rung and are executed
    /// by the reference interpreter. Empty on the happy path.
    interp_pages: HashSet<u32>,
    /// True once anything was ever degraded: the one flag the hot
    /// dispatch path tests before touching `ladder`/`interp_pages`.
    ladder_engaged: bool,
    /// The native host-code tier (see [`crate::native`]): present only
    /// when enabled through [`DaisySystemBuilder::native_execution`]
    /// *and* the host can execute emitted x86-64. When present, entries
    /// default to [`Rung::Native`] and hot groups run as compiled host
    /// code; everything else (cold groups, refused groups, other
    /// ladder rungs) runs on the packed engine as before.
    native: Option<NativeTier>,
    /// The metrics registry this system publishes into (`None` unless
    /// enabled through [`DaisySystemBuilder::metrics`] or
    /// [`DaisySystemBuilder::metrics_registry`]).
    metrics: Option<MetricsRegistry>,
    /// Boundaries between registry publications.
    metrics_period: u32,
    /// Boundaries left until the next publication.
    metrics_countdown: u32,
    /// Interrupt post-to-delivery latency accumulator (observed at
    /// group boundaries — see the delivery block in `step`).
    irq_latency: IrqLatency,
    /// Retired-instruction count at the boundary where the currently
    /// pending interrupt was first observed undeliverable.
    irq_posted_at: Option<u64>,
    /// The most recent automatic flight-recorder dump (captured on
    /// every ladder degradation; boxed — it is large and usually
    /// absent).
    last_post_mortem: Option<Box<PostMortem>>,
}

/// Configures and creates a [`DaisySystem`]; obtained from
/// [`DaisySystem::builder`]. The builder carries the guest ISA as its
/// type parameter, so one turbofish (or an inferred binding) selects
/// the frontend and everything downstream is typed by it.
///
/// ```
/// use daisy::prelude::*;
/// use daisy_ppc::PpcIsa;
///
/// let sys = DaisySystem::<PpcIsa>::builder()
///     .mem_size(0x40000)
///     .translator(TranslatorConfig::default())
///     .cache(Hierarchy::infinite())
///     .build();
/// assert!(sys.chaining_enabled());
/// ```
#[derive(Debug)]
pub struct DaisySystemBuilder<I: Isa> {
    mem_size: u32,
    cfg: TranslatorConfig,
    cache: Hierarchy,
    timer_period: Option<u64>,
    check_precise_recovery: bool,
    code_capacity: Option<u64>,
    chaining: bool,
    trace_sink: Option<Box<dyn TraceSink>>,
    profiling: bool,
    guest_profiling: bool,
    tier_policy: Option<TierPolicy>,
    native: bool,
    native_config: NativeTierConfig,
    record_deliveries: bool,
    metrics: Option<MetricsRegistry>,
    metrics_period: u32,
    flight_recorder: bool,
    flight_capacity: usize,
    _isa: std::marker::PhantomData<I>,
}

impl<I: Isa> Default for DaisySystemBuilder<I> {
    fn default() -> DaisySystemBuilder<I> {
        DaisySystemBuilder {
            mem_size: 0x40000,
            cfg: TranslatorConfig::default(),
            cache: Hierarchy::infinite(),
            timer_period: None,
            check_precise_recovery: true,
            code_capacity: None,
            chaining: true,
            trace_sink: None,
            profiling: false,
            guest_profiling: false,
            tier_policy: None,
            native: false,
            native_config: NativeTierConfig::default(),
            record_deliveries: false,
            metrics: None,
            metrics_period: DEFAULT_METRICS_PUBLISH_PERIOD,
            flight_recorder: true,
            flight_capacity: DEFAULT_FLIGHT_RECORDER_CAPACITY,
            _isa: std::marker::PhantomData,
        }
    }
}

impl<I: Isa> DaisySystemBuilder<I> {
    /// Bytes of emulated base-architecture memory (default 256 KiB).
    pub fn mem_size(mut self, bytes: u32) -> Self {
        self.mem_size = bytes;
        self
    }

    /// Translator configuration (machine, page size, window…).
    pub fn translator(mut self, cfg: TranslatorConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Cache hierarchy probed by the engine (default infinite).
    pub fn cache(mut self, cache: Hierarchy) -> Self {
        self.cache = cache;
        self
    }

    /// Deliver an external interrupt every `cycles` cycles (default:
    /// no timer).
    pub fn timer_period(mut self, cycles: u64) -> Self {
        self.timer_period = Some(cycles);
        self
    }

    /// Cross-check §3.5 precise-exception recovery on every exception
    /// (default on).
    pub fn check_precise_recovery(mut self, on: bool) -> Self {
        self.check_precise_recovery = on;
        self
    }

    /// Bound the translated-code area to `bytes`, casting out LRU page
    /// translations beyond it (default unbounded).
    pub fn code_capacity(mut self, bytes: u64) -> Self {
        self.code_capacity = Some(bytes);
        self
    }

    /// Enable or disable direct group chaining (default on). With
    /// chaining off every dispatch goes through the VMM, reproducing
    /// the pre-chaining dispatch counts exactly.
    pub fn chaining(mut self, on: bool) -> Self {
        self.chaining = on;
        self
    }

    /// Enables the native host-code tier (default off): groups whose
    /// dispatch count crosses [`DaisySystemBuilder::native_threshold`]
    /// are lowered to executable x86-64 and entered directly, with
    /// chained direct jumps between compiled groups (see
    /// [`crate::native`] and `docs/jit.md`). Silently falls back to the
    /// packed engine when the host is not x86-64 Linux, when guest
    /// profiling is enabled (native code records no retirement trace),
    /// or when the cache hierarchy is finite (native code does not
    /// probe the cache model).
    pub fn native_execution(mut self, on: bool) -> Self {
        self.native = on;
        self
    }

    /// Dispatches before a group is lowered to native code (default
    /// [`crate::native::DEFAULT_NATIVE_THRESHOLD`]; clamped to at
    /// least 1). Only meaningful with
    /// [`DaisySystemBuilder::native_execution`] on.
    pub fn native_threshold(mut self, dispatches: u64) -> Self {
        self.native_config.threshold = dispatches;
        self
    }

    /// Inline indirect-branch target cache (default on): compiled
    /// groups with indirect exits resolve guest target → native entry
    /// inside the arena, skipping the dispatcher boundary the
    /// icache-hit path would otherwise take. Ablation lever for
    /// `EXPERIMENTS.md`.
    pub fn native_ibtc(mut self, on: bool) -> Self {
        self.native_config.ibtc = on;
        self
    }

    /// General-parcel templates and partial-group compilation (default
    /// on): trap checks and load-verify commits lower to native
    /// templates instead of refusing the whole group, with mid-group
    /// bails resuming on the packed engine. Ablation lever for
    /// `EXPERIMENTS.md`.
    pub fn native_partial_groups(mut self, on: bool) -> Self {
        self.native_config.general_templates = on;
        self
    }

    /// Worthwhile-ness floor for native compilation (default
    /// [`crate::native::DEFAULT_NATIVE_MIN_COVERAGE`]): warm entries
    /// whose statically predicted template coverage falls below this
    /// fraction are refused without attempting compilation.
    pub fn native_min_coverage(mut self, fraction: f64) -> Self {
        self.native_config.min_coverage = fraction;
        self
    }

    /// Records every external-interrupt delivery as `(retired guest
    /// instructions, PC)` in [`DaisySystem::delivery_log`] (default
    /// off). The preemption-fuzz harness replays the log on the
    /// interpreter oracle to reproduce a translated run's exact
    /// delivery schedule.
    pub fn record_deliveries(mut self, on: bool) -> Self {
        self.record_deliveries = on;
        self
    }

    /// Installs a structured-event sink (see [`crate::trace`]). Without
    /// one, tracing is disabled and event closures are never evaluated.
    pub fn trace_sink(mut self, sink: impl TraceSink + 'static) -> Self {
        self.trace_sink = Some(Box::new(sink));
        self
    }

    /// Enables metrics publication into a fresh
    /// [`MetricsRegistry`] (default off; read it back through
    /// [`DaisySystem::metrics_registry`]). Publication happens on the
    /// [`DaisySystemBuilder::metrics_publish_period`] cadence at group
    /// boundaries and costs nothing on in-group hot paths;
    /// [`DaisySystem::metrics_snapshot`] works with or without this.
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on.then(MetricsRegistry::new);
        self
    }

    /// Publishes into an existing shared registry handle instead of a
    /// fresh one (a monitoring thread holds a clone and snapshots it
    /// while the system runs).
    pub fn metrics_registry(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Group boundaries between registry publications (default
    /// [`DEFAULT_METRICS_PUBLISH_PERIOD`]; clamped to at least 1).
    /// Snapshots are exact regardless of cadence — the registry is a
    /// periodically refreshed *copy* of counters every layer maintains
    /// continuously.
    pub fn metrics_publish_period(mut self, boundaries: u32) -> Self {
        self.metrics_period = boundaries.max(1);
        self
    }

    /// Enables or disables the always-on flight recorder (default on):
    /// a fixed ring of recent trace events kept with no sink installed,
    /// dumped as a [`PostMortem`] on ladder degradation (see
    /// [`crate::trace::FlightRecorder`]).
    pub fn flight_recorder(mut self, on: bool) -> Self {
        self.flight_recorder = on;
        self
    }

    /// Capacity of the flight-recorder ring (default
    /// [`DEFAULT_FLIGHT_RECORDER_CAPACITY`]; clamped to at least 1).
    pub fn flight_recorder_capacity(mut self, events: usize) -> Self {
        self.flight_capacity = events;
        self
    }

    /// Enables the per-group execution profiler
    /// ([`DaisySystem::profiler`]): dispatch counts, VLIWs retired, and
    /// stall cycles attributed per group entry (default off; implied by
    /// [`DaisySystemBuilder::tiered`]).
    pub fn profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }

    /// Enables guest-level attribution ([`DaisySystem::guest_profile`]):
    /// per-guest-PC cycle/stall/waste accounting plus the dispatch
    /// timeline and §4.2 overhead clock behind the exporters in
    /// [`crate::profile`] (default off). Selects the profiled engine
    /// variants, which record each dispatch's retirement trace; the
    /// non-profiled engines carry zero recording code.
    pub fn guest_profiling(mut self, on: bool) -> Self {
        self.guest_profiling = on;
        self
    }

    /// Enables profile-guided tiered retranslation under `policy`:
    /// groups whose dispatch count crosses the policy's hot threshold
    /// are dropped and rebuilt with the policy's wider scheduling
    /// window and deeper speculation. Implies [`profiling`].
    ///
    /// [`profiling`]: DaisySystemBuilder::profiling
    pub fn tiered(mut self, policy: TierPolicy) -> Self {
        self.tier_policy = Some(policy);
        self.profiling = true;
        self
    }

    /// Shorthand for [`DaisySystemBuilder::tiered`] with the default
    /// [`TierPolicy`] at the given promotion threshold.
    pub fn hot_threshold(self, dispatches: u64) -> Self {
        self.tiered(TierPolicy::with_threshold(dispatches))
    }

    /// Builds the system.
    pub fn build(self) -> DaisySystem<I> {
        let mut vmm = Vmm::new(self.cfg);
        vmm.set_code_capacity(self.code_capacity);
        if let Some(sink) = self.trace_sink {
            vmm.tracer = Tracer::new(sink);
        }
        vmm.tracer.recorder = if self.flight_recorder {
            FlightRecorder::with_capacity(self.flight_capacity)
        } else {
            FlightRecorder::disabled()
        };
        let hot_threshold = self.tier_policy.as_ref().map(|p| p.hot_threshold);
        vmm.tier_policy = self.tier_policy;
        // The native tier only composes with configurations it can
        // reproduce exactly: no guest profiling (native code records no
        // retirement trace) and an infinite cache (native code does not
        // probe the cache model). `NativeTier::new` additionally
        // returns `None` on hosts that cannot execute emitted x86-64.
        let native = (self.native && !self.guest_profiling && self.cache.is_infinite())
            .then(|| NativeTier::new(self.native_config))
            .flatten();
        DaisySystem {
            mem: Memory::new(self.mem_size),
            cpu: <I::Cpu as GuestCpu>::new(0),
            vmm,
            cache: self.cache,
            stats: RunStats::default(),
            check_precise_recovery: self.check_precise_recovery,
            timer_period: self.timer_period,
            next_timer: 0,
            pending_external: false,
            delivery_log: self.record_deliveries.then(Vec::new),
            native_yield_preempts: 0,
            last_exit_native: false,
            scratch: EngineScratch::new(),
            chaining: self.chaining,
            pending_chain: None,
            profiler: self.profiling.then(GroupProfiler::new),
            guest_profile: self.guest_profiling.then(GuestProfile::new),
            hot_threshold,
            ladder: HashMap::new(),
            interp_pages: HashSet::new(),
            ladder_engaged: false,
            native,
            metrics: self.metrics,
            metrics_period: self.metrics_period,
            metrics_countdown: self.metrics_period,
            irq_latency: IrqLatency::default(),
            irq_posted_at: None,
            last_post_mortem: None,
        }
    }
}

impl<I: Isa> DaisySystem<I> {
    /// Starts configuring a system.
    pub fn builder() -> DaisySystemBuilder<I> {
        DaisySystemBuilder::default()
    }

    /// Creates a system with `mem_size` bytes of base memory, the
    /// default translator configuration, and an infinite cache (the
    /// paper's pathlength-reduction setup).
    ///
    /// Note: prefer [`DaisySystem::builder`], which exposes every
    /// configuration knob; this constructor remains for convenience.
    pub fn new(mem_size: u32) -> DaisySystem<I> {
        DaisySystem::builder().mem_size(mem_size).build()
    }

    /// Creates a system with explicit translator and cache
    /// configurations.
    ///
    /// Note: prefer [`DaisySystem::builder`], which exposes every
    /// configuration knob; this constructor remains for convenience.
    pub fn with_config(mem_size: u32, cfg: TranslatorConfig, cache: Hierarchy) -> DaisySystem<I> {
        DaisySystem::builder().mem_size(mem_size).translator(cfg).cache(cache).build()
    }

    /// Whether direct group chaining is enabled.
    pub fn chaining_enabled(&self) -> bool {
        self.chaining
    }

    /// Posts an external interrupt, delivered at the next group
    /// boundary while the emulated machine state has interrupts
    /// enabled.
    pub fn post_external_interrupt(&mut self) {
        self.pending_external = true;
    }

    /// Loads a program image and points the PC at its entry.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the image does not fit in memory.
    pub fn load(&mut self, prog: &Program) -> Result<(), MemFault> {
        prog.load_into(&mut self.mem)?;
        self.cpu.set_pc(prog.entry);
        Ok(())
    }

    fn handle_code_writes(&mut self) {
        for unit in self.mem.drain_code_writes() {
            self.vmm.invalidate_unit(&mut self.mem, unit);
        }
    }

    /// Runs translated execution until a stop condition or until the
    /// simulated cycle count reaches `max_cycles`.
    ///
    /// # Errors
    ///
    /// Returns [`DaisyError`] only if a fault cannot be absorbed by the
    /// graceful-degradation ladder (see [`crate::error`]) — a
    /// translator-invariant violation, never expected in a correct
    /// build.
    pub fn run(&mut self, max_cycles: u64) -> Result<StopReason, DaisyError> {
        let stop = loop {
            if self.stats.cycles() >= max_cycles {
                break StopReason::MaxInstrs;
            }
            if let Some(stop) = self.step()? {
                break stop;
            }
        };
        // VMM events are mirrored into the guest profile at the start
        // of each step; flush whatever the final step produced (e.g. a
        // cast-out during the last translation) before returning.
        if let Some(gp) = &mut self.guest_profile {
            gp.sync_vmm_events(
                self.vmm.degradations(),
                self.vmm.stats.cast_outs,
                self.stats.cycles(),
            );
        }
        Ok(stop)
    }

    /// Executes exactly one dispatch step — one group boundary: pending
    /// code-modification flushes, interrupt delivery, then one group
    /// execution (or one bounded interpretation burst, for pages on the
    /// bottom ladder rung). Returns `Ok(Some(stop))` when execution
    /// cannot continue.
    ///
    /// Fault-injection campaigns ([`crate::inject`]) drive this
    /// directly so they can perturb the system between groups; ordinary
    /// harnesses should call [`DaisySystem::run`].
    ///
    /// # Errors
    ///
    /// See [`DaisySystem::run`].
    // invariant-free hot path: `run` is a tight trampoline around this,
    // and the packed engine's short groups make the call boundary
    // itself measurable — keep it inlinable.
    #[inline]
    pub fn step(&mut self) -> Result<Option<StopReason>, DaisyError> {
        self.handle_code_writes();
        // Metrics publication cadence: one decrement-and-test per
        // boundary when enabled, with the publication itself outlined
        // and cold. Snapshots read counters the layers maintain anyway,
        // so the cadence bounds staleness, not accuracy.
        if self.metrics.is_some() {
            self.metrics_countdown -= 1;
            if self.metrics_countdown == 0 {
                self.publish_metrics_now();
            }
        }
        // Mirror VMM events (degradations, cast-outs) into the guest
        // profile's timeline; syncing at the group boundary keeps the
        // hot paths that produce them free of profiling hooks.
        if let Some(gp) = &mut self.guest_profile {
            gp.sync_vmm_events(
                self.vmm.degradations(),
                self.vmm.stats.cast_outs,
                self.stats.cycles(),
            );
        }
        // Timer tick / posted external interrupts, at precise group
        // boundaries (every architected register is exact here). The
        // cadence is fixed: ticks land on multiples of `period`
        // regardless of how far a long group overshot the deadline,
        // and overshooting several periods yields one tick, not a
        // burst (the level stays asserted until delivered anyway).
        if let Some(period) = self.timer_period {
            if self.stats.cycles() >= self.next_timer {
                let missed = (self.stats.cycles() - self.next_timer) / period;
                self.next_timer += period * (missed + 1);
                self.pending_external = true;
            }
        }
        // Advance the modeled SoC's device clock to the retired-
        // instruction count — the one clock the interpreter oracle
        // reproduces exactly — then sample its interrupt line.
        // Level-triggered: the line is *not* latched into
        // `pending_external`; it stays asserted until the handler
        // acknowledges the device.
        let bus_line = self.mem.has_bus() && {
            self.mem.set_bus_time(self.stats.base_instrs);
            self.mem.bus_irq_level()
        };
        // Gated by the architected interrupt-enable state alone (clear
        // by default), so harnesses can take timer ticks while still
        // stopping at a final system call with vectored delivery off.
        // With no interrupt asserted this whole block is the same
        // single short-circuit test it always was; latency bookkeeping
        // only runs while one is pending.
        if self.pending_external || bus_line {
            if self.cpu.interrupts_enabled() {
                self.pending_external = false;
                self.stats.exceptions += 1;
                self.stats.interrupts_taken += 1;
                if self.last_exit_native {
                    self.native_yield_preempts += 1;
                }
                // Post-to-delivery latency, observed at boundaries: an
                // interrupt first seen here with interrupts *enabled*
                // is delivered at its observing boundary (latency 0);
                // one that had to wait measures from the boundary that
                // first saw it blocked.
                let posted = self.irq_posted_at.take().unwrap_or(self.stats.base_instrs);
                self.irq_latency.record(self.stats.base_instrs.saturating_sub(posted));
                let at = self.cpu.pc();
                if let Some(log) = &mut self.delivery_log {
                    log.push((self.stats.base_instrs, at));
                }
                self.vmm.tracer.emit(|| TraceEvent::ExternalInterrupt { pc: at });
                self.cpu.deliver(Exception::External, at);
            } else if self.irq_posted_at.is_none() {
                self.irq_posted_at = Some(self.stats.base_instrs);
            }
        }
        let pc = self.cpu.pc();
        // Pages on the bottom ladder rung bypass translation
        // entirely: the reference interpreter executes them (groups
        // never span pages, so page granularity is always sound).
        if self.ladder_engaged && self.interp_pages.contains(&(pc / self.vmm.cfg.page_size)) {
            self.pending_chain = None;
            self.last_exit_native = false;
            return Ok(self.interp_burst());
        }
        // Chained dispatch: follow the link installed on the
        // previous group's exit straight to the next translation,
        // bypassing the VMM. The `target == pc` guard keeps this
        // sound across interrupt delivery and externally swapped
        // CPU state; weak links make it sound across invalidation
        // (`handle_code_writes` above already dropped any
        // translation a store killed, so its links cannot upgrade).
        let pending = self.pending_chain.take();
        let mut chained: Option<Rc<GroupCode>> = None;
        // A direct link followed at this boundary, remembered so the
        // native tier can patch the same edge into a direct jump (only
        // under configurations where skipping the dispatcher between
        // these two groups is invisible — see `native_patching_ok`).
        let mut followed_edge: Option<(Rc<GroupCode>, usize)> = None;
        if self.chaining {
            match &pending {
                Some(PendingChain::Direct { from, slot, target }) if *target == pc => {
                    match from.follow_link(*slot) {
                        ChainLink::Live(code) => {
                            if self.native.is_some() {
                                followed_edge = Some((Rc::clone(from), *slot));
                            }
                            chained = Some(code);
                        }
                        ChainLink::Severed => {
                            self.stats.chain.severs += 1;
                            from.clear_link(*slot);
                            let from_entry = from.group.entry;
                            self.vmm
                                .tracer
                                .emit(|| TraceEvent::ChainSever { from: from_entry, target: pc });
                        }
                        ChainLink::Empty => {}
                    }
                }
                Some(PendingChain::Indirect { from, target }) if *target == pc => {
                    match from.icache_lookup(pc) {
                        Some((code, way)) => {
                            self.stats.chain.icache_hits += 1;
                            // Mirror the hit into `from`'s inline IBTC
                            // so the next indirect exit resolves
                            // without this dispatcher boundary (or
                            // drop the stale way if inline dispatch
                            // is currently unsafe).
                            let allowed = self.native_patching_ok();
                            if let Some(nt) = self.native.as_mut() {
                                nt.icache_sync(from, pc, way, Some(&code), allowed);
                            }
                            chained = Some(code);
                        }
                        None => self.stats.chain.icache_misses += 1,
                    }
                }
                _ => {}
            }
        }
        let was_chained = chained.is_some();
        let code = match chained {
            Some(code) => {
                self.stats.chain.chained_dispatches += 1;
                code
            }
            None => {
                self.stats.groups_entered += 1;
                let xlate_before = self
                    .guest_profile
                    .as_ref()
                    .map(|_| (self.vmm.stats.groups_translated, self.vmm.cost.instrs_scheduled));
                let code = self.vmm.entry_with_cpu(&mut self.mem, pc, Some(&self.cpu));
                // Feed any translation work this dispatch triggered
                // into the §4.2 overhead clock (first-touch vs
                // retranslation is classified by the clock itself).
                if let (Some(gp), Some((g0, i0))) = (&mut self.guest_profile, xlate_before) {
                    if self.vmm.stats.groups_translated > g0 {
                        gp.overhead_mut().note_translation(pc, self.vmm.cost.instrs_scheduled - i0);
                    }
                }
                if self.chaining {
                    match pending {
                        Some(PendingChain::Direct { from, slot, target }) if target == pc => {
                            from.install_link(slot, &code);
                            self.stats.chain.link_installs += 1;
                            let from_entry = from.group.entry;
                            self.vmm.tracer.emit(|| TraceEvent::ChainInstall {
                                from: from_entry,
                                to: pc,
                                indirect: false,
                            });
                        }
                        Some(PendingChain::Indirect { from, target }) if target == pc => {
                            let way = from.icache_install(pc, &code);
                            // The install overwrote a way: the inline
                            // IBTC must never keep an entry the
                            // dispatcher's icache no longer holds, so
                            // sync (install or invalidate) that way.
                            let allowed = self.native_patching_ok();
                            if let Some(nt) = self.native.as_mut() {
                                nt.icache_sync(&from, pc, way, Some(&code), allowed);
                            }
                            let from_entry = from.group.entry;
                            self.vmm.tracer.emit(|| TraceEvent::ChainInstall {
                                from: from_entry,
                                to: pc,
                                indirect: true,
                            });
                        }
                        _ => {}
                    }
                }
                code
            }
        };
        let profiled_before =
            self.profiler.as_ref().map(|_| (self.stats.vliws_executed, self.stats.stall_cycles));
        let guest_before =
            self.guest_profile.as_ref().map(|_| (self.stats.cycles(), self.stats.stall_cycles));
        // Snapshot for the recovery-retry path below: a dispatch whose
        // recovery cross-check fails is re-run in full one rung down,
        // so its base-instruction commits must not count twice.
        let base_instrs_before = self.stats.base_instrs;
        let mut rf = RegFile::new();
        self.cpu.fill_regfile(&mut rf);
        // Entries faulted below the native rung run on the packed
        // engine (the conservative rung's translation was rebuilt
        // without load speculation, upstream in the VMM).
        let default_rung = if self.native.is_some() { Rung::Native } else { Rung::Packed };
        let rung = if self.ladder_engaged {
            self.ladder.get(&code.group.entry).copied().unwrap_or(default_rung)
        } else {
            default_rung
        };
        // Native tier: compile-or-count the entry, enter compiled code,
        // and (where the dispatcher can be skipped invisibly) patch the
        // chain edge just followed into a direct native jump. A bailed
        // native run resumes the same group mid-node on the packed
        // engine with the architected-event trail reconstructed, so
        // everything downstream (recovery cross-check, exception
        // delivery, exit handling) is rung-oblivious. `run_from` names
        // the group that produced the exit — a chained native run may
        // end groups away from the dispatched one.
        let mut native_result: Option<(GroupExit, u32, Option<Rc<GroupCode>>)> = None;
        if rung == Rung::Native {
            let patching_ok = self.native_patching_ok();
            if let Some(nt) = self.native.as_mut() {
                nt.sync_epoch(
                    self.vmm.stats.invalidations,
                    self.vmm.stats.cast_outs,
                    self.vmm.stats.alias_retranslations,
                );
                if let Some(cg) =
                    nt.prepare(&code, self.vmm.cfg.page_size, &mut self.mem, &mut self.vmm.tracer)
                {
                    if patching_ok {
                        if let Some((pfrom, pslot)) = &followed_edge {
                            nt.try_patch(pfrom, *pslot, &code);
                        }
                    }
                    match nt.execute(
                        &cg,
                        &code,
                        &mut rf,
                        &mut self.mem,
                        &mut self.stats,
                        &mut self.scratch,
                    ) {
                        NativeRun::Done { exit, final_entry, final_code } => {
                            native_result = Some((exit, final_entry, final_code));
                        }
                        NativeRun::Resume { code: rcode, entry, point } => {
                            let exit = run_group_resume(
                                &rcode,
                                &mut rf,
                                &mut self.mem,
                                &mut self.cache,
                                &mut self.stats,
                                &mut self.scratch,
                                point,
                            );
                            native_result = Some((exit, entry, Some(rcode)));
                        }
                    }
                }
            }
        }
        self.last_exit_native = native_result.is_some();
        let (exit, run_entry, run_code) = match native_result {
            Some(r) => r,
            None => {
                let engine =
                    if self.guest_profile.is_some() { run_group_profiled } else { run_group };
                let exit = engine(
                    &code,
                    &mut rf,
                    &mut self.mem,
                    &mut self.cache,
                    &mut self.stats,
                    &mut self.scratch,
                );
                (exit, code.group.entry, None)
            }
        };
        let from_page = run_entry / self.vmm.cfg.page_size;
        // §3.5 recovery cross-check, *before* committing the
        // register file: a failed check means the translation's
        // metadata cannot be trusted, and retrying the group one
        // rung down is sound exactly when no architected state was
        // mutated yet — registers are still in `rf`, and memory is
        // clean unless a store committed before the fault.
        if let GroupExit::Exception { base_addr, fault_idx, .. } = exit {
            if self.check_precise_recovery
                && self.recovery_cross_check(run_entry, base_addr, fault_idx)?
            {
                // Discard `rf`; architected state is untouched, so the
                // next step re-dispatches the same PC one rung down.
                // The retry re-executes (and re-counts) every base
                // instruction the aborted attempt committed — roll the
                // counter back so each executes-once instruction counts
                // once. Cycles stay: the failed attempt's time is real.
                self.stats.base_instrs = base_instrs_before;
                return Ok(None);
            }
        }
        self.cpu.write_back(&rf);

        // Guest-level attribution: distribute the dispatch's cycles,
        // stalls, and speculation waste over the guest PCs on its taken
        // path, from the retirement trace the profiled engine recorded.
        if let (Some(gp), Some((c0, s0))) = (&mut self.guest_profile, guest_before) {
            gp.record_dispatch(
                &code,
                &self.scratch.visited,
                self.stats.stall_cycles - s0,
                c0,
                self.stats.cycles() - c0,
            );
        }

        // Attribute this dispatch to the group's entry and promote
        // it to the hot tier when its dispatch count crosses the
        // configured threshold (profile-guided retranslation).
        let mut promoted = false;
        if let (Some(profiler), Some((v0, s0))) = (&mut self.profiler, profiled_before) {
            let entry = code.group.entry;
            profiler.record(
                entry,
                code.tier,
                was_chained,
                self.stats.vliws_executed - v0,
                self.stats.stall_cycles - s0,
            );
            if let Some(threshold) = self.hot_threshold {
                if code.tier == Tier::Cold
                    && !self.vmm.is_hot(entry)
                    && profiler.get(entry).is_some_and(|p| p.dispatches >= threshold)
                {
                    let dispatches = profiler.get(entry).map_or(0, |p| p.dispatches);
                    promoted = self.vmm.promote_hot(entry, dispatches);
                }
            }
        }

        match exit {
            GroupExit::Branch { target, via, slot } => {
                if target / self.vmm.cfg.page_size == from_page {
                    self.stats.onpage_dispatches += 1;
                } else {
                    match via {
                        None => self.stats.crosspage.direct += 1,
                        Some(IndirectVia::Lr) => self.stats.crosspage.via_lr += 1,
                        Some(IndirectVia::Ctr) => self.stats.crosspage.via_ctr += 1,
                    }
                }
                self.cpu.set_pc(target);
                if self.chaining {
                    // The slot was lowered into the packed exit at
                    // translation time — no exit-table search here. The
                    // link hangs off the group that produced the exit
                    // (for a chained native run, the final group).
                    let from = run_code.unwrap_or(code);
                    self.pending_chain = match via {
                        None => slot.map(|slot| PendingChain::Direct {
                            from: Rc::clone(&from),
                            slot,
                            target,
                        }),
                        Some(_) => Some(PendingChain::Indirect { from, target }),
                    };
                }
            }
            GroupExit::Interp { addr } => {
                self.cpu.set_pc(addr);
                if let Some(stop) = self.interp_service() {
                    return Ok(Some(stop));
                }
            }
            GroupExit::Mmio { addr } => {
                // A translated load/store reached a device window. The
                // engines bail *before* touching the device, with every
                // architected register exact at the accessing
                // instruction — re-execute it on the interpreter, which
                // routes the access through the bus at the precise
                // retired-instruction time.
                self.stats.mmio_ops += 1;
                self.vmm.tracer.emit(|| TraceEvent::MmioBail { addr });
                self.cpu.set_pc(addr);
                if let Some(stop) = self.interp_service() {
                    return Ok(Some(stop));
                }
            }
            GroupExit::CodeModified { addr } => {
                // §3.2: invalidate, then restart by re-interpreting
                // the modifying instruction (its store is
                // idempotent — same values to the same addresses).
                self.vmm.tracer.emit(|| TraceEvent::CodeModified { addr });
                self.handle_code_writes();
                self.cpu.set_pc(addr);
                // The group already counted the modifying store's
                // commit; its idempotent re-interpretation must not
                // count the instruction a second time (the interpreter
                // cycle stays — the service time is real).
                let base_before = self.stats.base_instrs;
                let stop = self.interp_one();
                if self.stats.base_instrs > base_before {
                    self.stats.base_instrs -= 1;
                }
                if let Some(stop) = stop {
                    return Ok(Some(stop));
                }
            }
            GroupExit::Exception { kind, base_addr, fault_idx: _ } => {
                self.stats.exceptions += 1;
                self.vmm.tracer.emit(|| TraceEvent::Exception {
                    class: match kind {
                        ExcKind::Dsi { write: true, .. } => ExcClass::StoreFault,
                        ExcKind::Dsi { write: false, .. } => ExcClass::LoadFault,
                        ExcKind::Trap => ExcClass::Trap,
                    },
                    base_addr,
                });
                if !self.cpu.vectored() {
                    return Ok(Some(match kind {
                        ExcKind::Dsi { addr, write } => {
                            self.cpu.record_data_fault(addr, write);
                            StopReason::StorageFault { addr, write, fetch: false }
                        }
                        ExcKind::Trap => StopReason::Trap,
                    }));
                }
                match kind {
                    ExcKind::Dsi { addr, write } => {
                        // §3.3's example: fault registers, then
                        // save/restore state and the guest's own
                        // data-storage vector.
                        self.cpu.deliver(Exception::Data { addr, write }, base_addr);
                    }
                    ExcKind::Trap => self.cpu.deliver(Exception::Trap, base_addr),
                }
            }
            GroupExit::AliasRestart { addr } => {
                // Re-commence from the point of the load; the fresh
                // dispatch re-executes it after the aliasing store.
                // Repeated offenders may trigger a conservative
                // retranslation of their entry point. Attribute the
                // restart to the group whose verify failed — for a
                // chained native run that is the bailed group, not the
                // dispatched one (matching what the packed engine
                // reports when it dispatches that group directly).
                let entry = run_entry;
                self.vmm.tracer.emit(|| TraceEvent::AliasRestart { entry, addr });
                self.vmm.note_alias_restart(entry);
                self.cpu.set_pc(addr);
            }
        }
        if promoted {
            // The promoted entry's cold translation may still be
            // reachable through a pending chain whose `from` is the
            // group we just ran (a self-loop keeps itself alive via
            // the strong reference in the pending link, so the weak
            // auto-sever never fires). Dropping the pending link
            // forces the next dispatch through the VMM, which
            // rebuilds the entry under the hot tier.
            self.pending_chain = None;
        }
        Ok(None)
    }

    /// §3.5 recovery cross-check on an exception exit, run *before* the
    /// register file commits. Returns `Ok(true)` when the translation's
    /// metadata failed the check but the group can soundly retry one
    /// rung down (no store had committed, and a rung was left);
    /// `Ok(false)` when the check passed.
    ///
    /// Outlined and cold: the hot dispatch path only pays the call on
    /// exception exits, and only with `check_precise_recovery` on.
    #[cold]
    #[inline(never)]
    fn recovery_cross_check(
        &mut self,
        entry: u32,
        base_addr: u32,
        fault_idx: usize,
    ) -> Result<bool, DaisyError> {
        let events = &self.scratch.events;
        let n = fault_idx.min(events.len());
        let checked = precise::recover::<I>(&self.mem, entry, &events[..n], fault_idx);
        let mismatch = match checked {
            Ok(recovered) if recovered == base_addr => None,
            Ok(recovered) => Some(RecoverError {
                message: format!("recovered {recovered:#x} but engine reports {base_addr:#x}"),
            }),
            Err(err) => Some(err),
        };
        let Some(err) = mismatch else { return Ok(false) };
        // Retrying is sound exactly when no architected state was
        // mutated yet — registers are still in the discarded `rf`, and
        // memory is clean unless a store committed before the fault.
        let stores_committed = events[..n].iter().any(|e| matches!(e, ArchEvent::Store));
        if !stores_committed && self.degrade(entry, DegradeCause::RecoveryMismatch).is_some() {
            return Ok(true);
        }
        Err(DaisyError::Recovery { entry, source: err })
    }

    /// Steps `entry` one rung down the graceful-degradation ladder (see
    /// [`crate::error`]), recording the transition in
    /// [`DaisySystem::degradations`] and emitting it as
    /// [`TraceEvent::Degraded`]. Returns `None` — and changes nothing —
    /// when the entry is already at the bottom rung.
    pub fn degrade(&mut self, entry: u32, cause: DegradeCause) -> Option<Degradation> {
        self.ladder_engaged = true;
        let from = self.rung(entry);
        let to = from.next_down()?;
        self.ladder.insert(entry, to);
        match to {
            Rung::Conservative => {
                // Drop the entry's translation; the next dispatch
                // rebuilds it with load speculation inhibited.
                self.vmm.force_conservative(entry);
            }
            Rung::Interpret => {
                // Abandon the whole page to the reference interpreter.
                self.interp_pages.insert(entry / self.vmm.cfg.page_size);
                self.vmm.drop_page_of(entry);
            }
            // Native→Packed: nothing to rebuild — the ladder entry
            // alone routes the entry to the packed engine, and the
            // flush below retires its compiled body.
            Rung::Packed => {}
            // invariant: next_down never yields the top rung.
            Rung::Native => {}
        }
        // Any step down retires the native tier's compiled code and
        // severs its patched edges: a patched chain could otherwise
        // carry execution natively *through* a degraded entry without
        // consulting the ladder. Engaging the ladder also disables
        // future patching, so boundaries stay visible from here on.
        if let Some(nt) = self.native.as_mut() {
            nt.flush();
        }
        // The pending chain may target a translation the step above
        // just dropped, or carry execution past the ladder check.
        self.pending_chain = None;
        let d = Degradation { entry, from, to, cause };
        self.vmm.record_degradation(d);
        // Auto-dump: every ladder step captures a post-mortem from the
        // always-on flight recorder (the `Degraded` event just emitted
        // is the ring's newest entry), replacing the previous one so
        // [`DaisySystem::post_mortem`] always shows the latest — whose
        // chain ends with the full degradation history.
        self.last_post_mortem =
            Some(Box::new(self.build_post_mortem(format!("ladder degradation: {d}"))));
        Some(d)
    }

    /// Gathers a [`MetricsSnapshot`] directly from the system's
    /// counters, bypassing the registry: exact at any group boundary
    /// regardless of the publish cadence, and available with metrics
    /// publication off.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut rung_entries = [0u64; Rung::ALL.len()];
        for r in self.ladder.values() {
            rung_entries[r.index()] += 1;
        }
        MetricsSnapshot::gather(&MetricsSource {
            stats: &self.stats,
            vmm: &self.vmm.stats,
            native: self.native.as_ref().map(|nt| &nt.stats),
            degradations: self.vmm.degradations(),
            rung_entries,
            live_pages: self.vmm.live_pages() as u64,
            live_groups: self.vmm.live_groups() as u64,
            interp_pages: self.interp_pages.len() as u64,
            native_yield_preempts: self.native_yield_preempts,
            irq_latency: &self.irq_latency,
            flight_dropped: self.vmm.tracer.recorder.dropped(),
        })
    }

    /// Publishes a fresh snapshot into the registry immediately and
    /// re-arms the cadence countdown. A no-op without a registry.
    ///
    /// Outlined and cold: `step` only pays the call on the publish
    /// cadence, never on the per-boundary path.
    #[cold]
    #[inline(never)]
    pub fn publish_metrics_now(&mut self) {
        self.metrics_countdown = self.metrics_period;
        if self.metrics.is_some() {
            let snap = self.metrics_snapshot();
            if let Some(reg) = &self.metrics {
                reg.publish(&snap);
            }
        }
    }

    /// The registry this system publishes into, when metrics are
    /// enabled. Clone it to read snapshots elsewhere while the system
    /// runs.
    pub fn metrics_registry(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// The always-on flight recorder (ring of recent trace events).
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.vmm.tracer.recorder
    }

    /// The latest automatic post-mortem, captured when the ladder last
    /// degraded. `None` on the happy path.
    pub fn post_mortem(&self) -> Option<&PostMortem> {
        self.last_post_mortem.as_deref()
    }

    /// Takes ownership of the latest automatic post-mortem, leaving
    /// `None` (fault-injection outcomes carry it out this way).
    pub fn take_post_mortem(&mut self) -> Option<PostMortem> {
        self.last_post_mortem.take().map(|b| *b)
    }

    /// Builds a post-mortem on request — same structure as the
    /// automatic ladder dump, with the caller's `reason`.
    pub fn request_post_mortem(&self, reason: &str) -> PostMortem {
        self.build_post_mortem(reason.to_string())
    }

    fn build_post_mortem(&self, reason: String) -> PostMortem {
        PostMortem {
            reason,
            events: self.vmm.tracer.recorder.events(),
            dropped: self.vmm.tracer.recorder.dropped(),
            chain: self.vmm.degradations().to_vec(),
            snapshot: self.metrics_snapshot(),
        }
    }

    /// The ladder rung `entry` currently executes at ([`Rung::Native`]
    /// with the native tier present, [`Rung::Packed`] otherwise, unless
    /// it was degraded; every entry on an interpret-rung page reports
    /// [`Rung::Interpret`]).
    pub fn rung(&self, entry: u32) -> Rung {
        if !self.interp_pages.is_empty()
            && self.interp_pages.contains(&(entry / self.vmm.cfg.page_size))
        {
            return Rung::Interpret;
        }
        let default_rung = if self.native.is_some() { Rung::Native } else { Rung::Packed };
        self.ladder.get(&entry).copied().unwrap_or(default_rung)
    }

    /// Whether the native host-code tier is active (enabled through the
    /// builder *and* supported by this host and configuration).
    pub fn native_enabled(&self) -> bool {
        self.native.is_some()
    }

    /// The native tier's own counters (compiles, refusals, bails,
    /// patched edges…), when the tier is active. The *architectural*
    /// counters of native runs land in [`DaisySystem::stats`], exactly
    /// where packed execution puts them.
    pub fn native_stats(&self) -> Option<NativeStats> {
        self.native.as_ref().map(|nt| nt.stats)
    }

    /// Whether chain edges between compiled native groups may be
    /// patched into direct jumps. Patching removes the dispatcher
    /// boundary between the linked groups, so it is only sound when
    /// nothing observes that boundary: no per-group profiler, no guest
    /// profile, no timer (interrupts are taken at boundaries), and no
    /// engaged degradation ladder (rung checks happen at boundaries).
    /// In every other configuration native groups still run one group
    /// per dispatch, which preserves boundary-exact behaviour.
    fn native_patching_ok(&self) -> bool {
        self.chaining
            && self.profiler.is_none()
            && self.guest_profile.is_none()
            && self.timer_period.is_none()
            && !self.mem.has_bus()
            && !self.ladder_engaged
    }

    /// Every ladder step taken this run, in order.
    pub fn degradations(&self) -> &[Degradation] {
        self.vmm.degradations()
    }

    /// The recorded delivery schedule, when
    /// [`DaisySystemBuilder::record_deliveries`] was enabled: one
    /// `(retired guest instructions, PC)` pair per external interrupt
    /// delivered, in delivery order. The instruction counts are
    /// strictly increasing — delivery clears the architected
    /// interrupt-enable bit, and re-enabling retires at least the
    /// interrupt return.
    pub fn delivery_log(&self) -> Option<&[(u64, u32)]> {
        self.delivery_log.as_deref()
    }

    /// External interrupts that preempted the guest at a boundary a
    /// native-tier run produced (direct exits and rerolled back-edge
    /// yields alike).
    pub fn native_yield_preempts(&self) -> u64 {
        self.native_yield_preempts
    }

    /// Severs every chain link in the system: all outbound links and
    /// inline indirect caches of live translations, plus any pending
    /// chain from the previous group's exit. Execution recovers through
    /// the VMM on every cut edge (fault injection's chain-sever
    /// campaigns exercise exactly this).
    pub fn sever_chains(&mut self) {
        self.pending_chain = None;
        // Patched native edges mirror installed links; cutting the
        // links must cut the native jumps too, or a patched chain
        // would carry execution across an edge the Rust side believes
        // severed.
        if let Some(nt) = self.native.as_mut() {
            nt.flush();
        }
        self.vmm.sever_all_links();
    }

    /// Runs the reference interpreter for one bounded burst on the
    /// current interpret-rung page, returning early when control leaves
    /// the page (the next step re-checks the ladder). The bound keeps
    /// interrupt delivery and the run budget at group-boundary
    /// granularity even for fully interpreted pages.
    fn interp_burst(&mut self) -> Option<StopReason> {
        let page_size = self.vmm.cfg.page_size;
        let page = self.cpu.pc() / page_size;
        for _ in 0..128 {
            if self.cpu.pc() / page_size != page {
                return None;
            }
            if let Some(stop) = self.interp_one() {
                return Some(stop);
            }
        }
        None
    }

    /// Interprets exactly one instruction, handling its events. Returns
    /// a stop reason when execution cannot continue.
    fn interp_one(&mut self) -> Option<StopReason> {
        // MMIO accesses interpret here; the device observes the
        // retired-instruction clock as of *before* this instruction —
        // exactly what an oracle stepping `instret` sees.
        if self.mem.has_bus() {
            self.mem.set_bus_time(self.stats.base_instrs);
        }
        let insn = match self.cpu.fetch(&self.mem) {
            Ok(i) => i,
            Err(_) => {
                return Some(StopReason::StorageFault {
                    addr: self.cpu.pc(),
                    write: false,
                    fetch: true,
                })
            }
        };
        let ev = self.cpu.execute(&mut self.mem, insn);
        if matches!(ev, Event::Continue | Event::Syscall) {
            self.stats.interp_instrs += 1;
            self.stats.base_instrs += 1;
        }
        if ev == Event::Continue {
            if I::ends_interp_window(&insn) {
                // §3.4: after an interrupt return, interpret until the
                // next subroutine call, cross-page branch, or backward
                // branch, to limit entry-point creation.
                return self.interp_window();
            }
            return None;
        }
        self.cpu.handle_event(ev)
    }

    /// One VMM interpreter service: execute the instruction the group
    /// deferred (system call, interrupt return, privileged,
    /// unsupported).
    fn interp_service(&mut self) -> Option<StopReason> {
        self.interp_one()
    }

    /// Post-interrupt-return interpretation window (§3.4).
    fn interp_window(&mut self) -> Option<StopReason> {
        for _ in 0..256 {
            let pc = self.cpu.pc();
            let insn = match self.cpu.fetch(&self.mem) {
                Ok(i) => i,
                Err(_) => {
                    return Some(StopReason::StorageFault { addr: pc, write: false, fetch: true })
                }
            };
            // Boundary test: subroutine call, cross-page branch, or
            // backward branch ends interpretation (after executing it).
            let boundary = I::branch_info(&insn, pc).map(|info| {
                info.links
                    || match info.kind {
                        BranchKind::Direct(t) => {
                            t <= pc || t / self.vmm.cfg.page_size != pc / self.vmm.cfg.page_size
                        }
                        BranchKind::ViaLr | BranchKind::ViaCtr => true,
                    }
            });
            if let Some(stop) = self.interp_one_decoded(insn) {
                return Some(stop);
            }
            if boundary == Some(true) {
                break;
            }
        }
        None
    }

    fn interp_one_decoded(&mut self, insn: I::Insn) -> Option<StopReason> {
        if self.mem.has_bus() {
            self.mem.set_bus_time(self.stats.base_instrs);
        }
        let ev = self.cpu.execute(&mut self.mem, insn);
        if matches!(ev, Event::Continue | Event::Syscall) {
            self.stats.interp_instrs += 1;
            self.stats.base_instrs += 1;
        }
        // Unlike `interp_one`, traps, program exceptions and fetch
        // faults inside the post-interrupt-return window always stop
        // the run; system calls and data faults follow the guest's
        // vectored-delivery rules.
        match ev {
            Event::Continue => None,
            Event::Trap => Some(StopReason::Trap),
            Event::Program => Some(StopReason::Program),
            Event::Isi => {
                Some(StopReason::StorageFault { addr: self.cpu.pc(), write: false, fetch: true })
            }
            ev => self.cpu.handle_event(ev),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_ppc::asm::Asm;
    use daisy_ppc::reg::Gpr;
    use daisy_ppc::{vectors, Cpu, Insn, PpcIsa};

    fn run_program(build: impl FnOnce(&mut Asm)) -> (DaisySystem<PpcIsa>, StopReason) {
        let mut a = Asm::new(0x1000);
        build(&mut a);
        let prog = a.finish().unwrap();
        let mut sys = DaisySystem::<PpcIsa>::new(0x40000);
        sys.load(&prog).unwrap();
        let stop = sys.run(10_000_000).unwrap();
        (sys, stop)
    }

    /// Runs the same program on the reference interpreter and asserts
    /// identical final architected state.
    fn check_against_interpreter(build: impl Fn(&mut Asm)) -> DaisySystem<PpcIsa> {
        let (sys, stop) = run_program(&build);

        let mut a = Asm::new(0x1000);
        build(&mut a);
        let prog = a.finish().unwrap();
        let mut mem = Memory::new(0x40000);
        prog.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(prog.entry);
        let ref_stop = cpu.run(&mut mem, 100_000_000).unwrap();

        assert_eq!(stop, ref_stop, "stop reasons must agree");
        assert_eq!(sys.cpu.gpr, cpu.gpr, "GPR state must agree");
        assert_eq!(sys.cpu.cr, cpu.cr, "CR must agree");
        assert_eq!(sys.cpu.lr, cpu.lr, "LR must agree");
        assert_eq!(sys.cpu.ctr, cpu.ctr, "CTR must agree");
        assert_eq!(sys.cpu.pc, cpu.pc, "PC must agree");
        sys
    }

    #[test]
    fn quickstart_runs() {
        let (sys, stop) = run_program(|a| {
            a.li(Gpr(3), 21);
            a.add(Gpr(3), Gpr(3), Gpr(3));
            a.sc();
        });
        assert_eq!(stop, StopReason::Syscall);
        assert_eq!(sys.cpu.gpr[3], 42);
        assert!(sys.stats.vliws_executed >= 1);
    }

    #[test]
    fn loop_matches_interpreter() {
        check_against_interpreter(|a| {
            a.li(Gpr(3), 0);
            a.li(Gpr(4), 100);
            a.mtctr(Gpr(4));
            a.label("loop");
            a.addi(Gpr(3), Gpr(3), 7);
            a.bdnz("loop");
            a.sc();
        });
    }

    #[test]
    fn calls_and_memory_match_interpreter() {
        check_against_interpreter(|a| {
            a.li32(Gpr(1), 0x9000);
            a.li(Gpr(3), 5);
            a.bl("store_sq");
            a.li(Gpr(3), 9);
            a.bl("store_sq");
            a.lwz(Gpr(6), 0, Gpr(1));
            a.sc();
            a.label("store_sq");
            a.mullw(Gpr(4), Gpr(3), Gpr(3));
            a.stw(Gpr(4), 0, Gpr(1));
            a.addi(Gpr(1), Gpr(1), 4);
            a.blr();
        });
    }

    #[test]
    fn self_modifying_code_is_retranslated() {
        // The program overwrites the instruction at `patch` (li r5,1)
        // with `li r5,99`, then executes it — both on the same page.
        let (sys, stop) = run_program(|a| {
            // Build the encoding of "li r5,99" in r4.
            a.li32(Gpr(4), daisy_ppc::encode(&Insn::Addi { rt: Gpr(5), ra: Gpr(0), si: 99 }));
            a.la(Gpr(3), "patch");
            a.stw(Gpr(4), 0, Gpr(3)); // modifies code!
            a.label("patch");
            a.li(Gpr(5), 1);
            a.sc();
        });
        assert_eq!(stop, StopReason::Syscall);
        assert_eq!(sys.cpu.gpr[5], 99, "modified instruction must execute");
        assert!(sys.stats.code_modifications >= 1);
        assert!(sys.vmm.stats.invalidations >= 1);
    }

    #[test]
    fn precise_exception_reported_with_faulting_address() {
        let (sys, stop) = run_program(|a| {
            a.li(Gpr(3), 1); // completes
            a.li32(Gpr(9), 0x00F0_0000);
            a.lwz(Gpr(5), 8, Gpr(9)); // faults
            a.li(Gpr(3), 2); // must not complete
            a.sc();
        });
        assert_eq!(
            stop,
            StopReason::StorageFault { addr: 0x00F0_0008, write: false, fetch: false }
        );
        assert_eq!(sys.cpu.gpr[3], 1, "state precise at the faulting load");
        assert_eq!(sys.cpu.dar, 0x00F0_0008);
        assert_eq!(sys.stats.exceptions, 1);
    }

    #[test]
    fn vectored_dsi_reaches_emulated_os_handler() {
        let mut a = Asm::new(0x1000);
        a.li32(Gpr(9), 0x00F0_0000);
        a.lwz(Gpr(5), 0, Gpr(9)); // faults → handler
        a.label("after");
        a.sc();
        let prog = a.finish().unwrap();

        // A tiny "OS": the DSI handler at 0x300 records DAR into r7 and
        // returns past the faulting instruction.
        let mut os = Asm::new(vectors::DSI);
        os.emit(Insn::Mfspr { rt: Gpr(7), spr: daisy_ppc::reg::Spr::Dar });
        os.emit(Insn::Mfspr { rt: Gpr(8), spr: daisy_ppc::reg::Spr::Srr0 });
        os.addi(Gpr(8), Gpr(8), 4);
        os.emit(Insn::Mtspr { spr: daisy_ppc::reg::Spr::Srr0, rs: Gpr(8) });
        os.rfi();
        let os_prog = os.finish().unwrap();

        let mut sys = DaisySystem::<PpcIsa>::new(0x40000);
        sys.load(&prog).unwrap();
        os_prog.load_into(&mut sys.mem).unwrap();
        sys.cpu.vectored = true;
        let stop = sys.run(1_000_000).unwrap();
        // The final sc vectors to 0xC00 where memory is zero (invalid)
        // → program stop; what matters is the handler ran.
        let _ = stop;
        assert_eq!(sys.cpu.gpr[7], 0x00F0_0000, "handler saw DAR");
        assert_eq!(sys.cpu.gpr[8], prog.addr_of("after"));
    }

    #[test]
    fn indirect_branches_count_by_type() {
        let (sys, _) = run_program(|a| {
            a.la(Gpr(4), "faraway");
            a.mtctr(Gpr(4));
            a.bctr();
            // Force the target onto another page.
            for _ in 0..1100 {
                a.nop();
            }
            a.label("faraway");
            a.sc();
        });
        assert_eq!(sys.stats.crosspage.via_ctr, 1);
    }

    #[test]
    fn timer_ticks_on_fixed_cadence() {
        // Every timer re-arm must land on the fixed grid (a multiple
        // of the period), no matter how far a long group overshot the
        // previous deadline — and overshooting several periods yields
        // one tick, not a burst. This pins against the drifting re-arm
        // `next_timer = cycles() + period`, which re-phases at every
        // tick and (with a prime period) lands off-grid almost surely.
        let mut a = Asm::new(0x1000);
        a.li(Gpr(3), 0);
        a.li(Gpr(4), 2000);
        a.mtctr(Gpr(4));
        a.label("loop");
        a.addi(Gpr(3), Gpr(3), 1);
        a.bdnz("loop");
        a.sc();
        let prog = a.finish().unwrap();

        let period = 997;
        let mut sys =
            DaisySystem::<PpcIsa>::builder().mem_size(0x40000).timer_period(period).build();
        sys.load(&prog).unwrap();
        let _ = sys.mem.write_u32(PpcIsa::external_vector(), PpcIsa::interrupt_return_word());
        sys.cpu.enable_interrupts();
        let stop = sys.run(1_000_000).unwrap();
        assert_eq!(stop, StopReason::Syscall);
        assert!(sys.stats.interrupts_taken >= 2, "timer must fire repeatedly");
        assert_eq!(sys.next_timer % period, 0, "re-arm must stay on the fixed grid");
    }

    #[test]
    fn posted_interrupt_survives_ladder_degradation() {
        // An interrupt posted mid-run must survive degradation steps
        // and the retry they force: delivered exactly once — never
        // dropped, never doubled. Degradation flushes translations,
        // native code, and chains, but interrupt state is the guest's.
        let mut a = Asm::new(0x1000);
        a.li(Gpr(3), 0);
        a.li(Gpr(4), 400);
        a.mtctr(Gpr(4));
        a.label("loop");
        a.addi(Gpr(3), Gpr(3), 1);
        a.bdnz("loop");
        a.sc();
        let prog = a.finish().unwrap();

        let mut sys = DaisySystem::<PpcIsa>::new(0x40000);
        sys.load(&prog).unwrap();
        let _ = sys.mem.write_u32(PpcIsa::external_vector(), PpcIsa::interrupt_return_word());
        let entry = prog.addr_of("loop");
        let mut steps = 0u64;
        let stop = loop {
            if steps == 3 {
                // Post while interrupts are disabled, then knock the
                // hot loop down the ladder twice with the post still
                // pending.
                sys.post_external_interrupt();
                sys.degrade(entry, DegradeCause::Forced);
                sys.degrade(entry, DegradeCause::Forced);
                assert_eq!(sys.stats.interrupts_taken, 0, "EE clear: not deliverable yet");
                sys.cpu.enable_interrupts();
            }
            if let Some(stop) = sys.step().unwrap() {
                break stop;
            }
            steps += 1;
            assert!(steps < 1_000_000, "runaway");
        };
        assert_eq!(stop, StopReason::Syscall);
        assert_eq!(sys.stats.interrupts_taken, 1, "delivered exactly once");
        assert!(sys.degradations().len() >= 2, "the ladder really stepped");
        assert_eq!(sys.cpu.gpr[3], 400, "loop result intact across degrade + preempt");
    }

    /// Minimal MMIO device for bail-path tests: a write latches a
    /// value, a read returns it plus the register offset.
    #[derive(Debug, Clone, Default)]
    struct Latch {
        last: u32,
        reads: u32,
        writes: u32,
    }

    impl daisy_isa::mem::Bus for Latch {
        fn read(&mut self, _now: u64, offset: u32, _width: u32) -> u32 {
            self.reads += 1;
            self.last.wrapping_add(offset)
        }
        fn write(&mut self, _now: u64, _offset: u32, _width: u32, value: u32) {
            self.writes += 1;
            self.last = value;
        }
        fn irq_level(&mut self, _now: u64) -> bool {
            false
        }
        fn snapshot(&mut self, _now: u64) -> Vec<u8> {
            let mut v = self.last.to_be_bytes().to_vec();
            v.extend([self.reads as u8, self.writes as u8]);
            v
        }
        fn clone_box(&self) -> Box<dyn daisy_isa::mem::Bus> {
            Box::new(self.clone())
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn mmio_accesses_bail_to_the_interpreter() {
        // A translated load/store that reaches the device window must
        // bail pre-side-effect and re-execute on the interpreter: the
        // device sees each access exactly once, and `mmio_ops` counts
        // each bail.
        let mut a = Asm::new(0x1000);
        a.li32(Gpr(9), 0x2000_0000);
        a.li(Gpr(5), 77);
        a.stw(Gpr(5), 0, Gpr(9)); // MMIO store
        a.lwz(Gpr(3), 4, Gpr(9)); // MMIO load: 77 + 4
        a.addi(Gpr(3), Gpr(3), 1);
        a.sc();
        let prog = a.finish().unwrap();

        let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(0x40000).build();
        sys.mem.attach_bus(0x2000_0000, 0x100, Box::new(Latch::default()));
        sys.load(&prog).unwrap();
        let stop = sys.run(1_000_000).unwrap();
        assert_eq!(stop, StopReason::Syscall);
        assert_eq!(sys.cpu.gpr[3], 82, "store then load through the device");
        assert_eq!(sys.stats.mmio_ops, 2, "one bail per device access");
        let dev = sys
            .mem
            .with_bus(|_, dev| {
                let latch = dev.as_any_mut().downcast_mut::<Latch>().unwrap();
                (latch.reads, latch.writes)
            })
            .unwrap();
        assert_eq!(dev, (1, 1), "device saw each access exactly once");
    }
}
