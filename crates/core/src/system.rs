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
    run_group, run_group_resume, ChainLink, EngineScratch, ExcKind, GroupCode, GroupExit,
};
use crate::error::{DaisyError, Degradation, DegradeCause, Rung};
use crate::metrics::{IrqLatency, MetricsSnapshot, MetricsSource, PostMortem};
use crate::native::{NativeRun, NativeStats, NativeTier, DEFAULT_NATIVE_THRESHOLD};
use crate::precise::{self, ArchEvent, RecoverError};
use crate::profile::GuestProfile;
use crate::sched::TranslatorConfig;
use crate::stats::RunStats;
use crate::trace::{ExcClass, FlightRecorder, TraceEvent, DEFAULT_FLIGHT_RECORDER_CAPACITY};
use crate::vmm::Vmm;
use daisy_cachesim::Hierarchy;
use daisy_isa::convert::BranchKind;
use daisy_isa::mem::{MemFault, Memory};
use daisy_isa::{Event, Exception, GuestCpu, Isa, Program, StopReason};
use daisy_jit::ACCESS_LOG_VLIW_BUDGET;
use daisy_vliw::regfile::RegFile;
use daisy_vliw::tree::IndirectVia;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::rc::{Rc, Weak};

/// How the previous group exited, carried to the next dispatch so a
/// chain link can be followed or installed. The source is weak, as
/// chain links are: the VMM's page table is a translation's only owner,
/// so a source it dropped between steps does not upgrade.
#[derive(Debug)]
struct PendingChain {
    /// The group that produced the exit.
    from: Weak<GroupCode>,
    /// The exit's target.
    target: u32,
    /// `from`'s link slot for a static direct-branch exit; `None` for
    /// an indirect (LR/CTR) exit, served by `from`'s inline dispatch
    /// cache.
    slot: Option<usize>,
}

/// A group run, as the execute phase hands it to the retire phase.
struct Run {
    exit: GroupExit,
    /// The translation of the group that produced `exit`: a chained
    /// native run may end groups away from the dispatched one.
    code: Rc<GroupCode>,
    /// `RunStats::base_instrs` before the run, for the recovery retry.
    base_instrs: u64,
    /// Cycles and stall cycles before the run, under guest profiling.
    guest: Option<(u64, u64)>,
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
    /// An external interrupt posted through
    /// [`DaisySystem::post_external_interrupt`], not yet delivered.
    /// External interrupts (posted ones and the attached bus's line)
    /// are taken at group boundaries — the translated-code analogue of
    /// the paper's "to the external interrupt handler the program will
    /// appear to be at [a precise] point" (§3.7).
    pending_external: bool,
    /// External interrupts delivered at a boundary produced by a
    /// native-tier run.
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
    /// Guest-level attribution profile (`None` unless enabled through
    /// [`DaisySystemBuilder::guest_profiling`]): per-guest-PC cycles,
    /// stalls, speculation waste, the §4.2 overhead clock, and the
    /// dispatch timeline the exporters render (see [`crate::profile`]).
    guest_profile: Option<GuestProfile>,
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
    code_capacity: Option<u64>,
    chaining: bool,
    guest_profiling: bool,
    native: bool,
    native_threshold: u64,
    flight_recorder_capacity: usize,
    _isa: std::marker::PhantomData<I>,
}

impl<I: Isa> Default for DaisySystemBuilder<I> {
    fn default() -> DaisySystemBuilder<I> {
        DaisySystemBuilder {
            mem_size: 0x40000,
            cfg: TranslatorConfig::default(),
            cache: Hierarchy::infinite(),
            code_capacity: None,
            chaining: true,
            guest_profiling: false,
            native: false,
            native_threshold: DEFAULT_NATIVE_THRESHOLD,
            flight_recorder_capacity: DEFAULT_FLIGHT_RECORDER_CAPACITY,
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

    /// Enables the native host-code tier (default off): translations
    /// whose dispatch count reaches
    /// [`DaisySystemBuilder::native_threshold`] are lowered to
    /// executable x86-64 and entered directly, with chained direct
    /// jumps between compiled groups and an inline indirect-branch
    /// target cache for indirect exits (see [`crate::native`] and
    /// `docs/jit.md`). Every template is always on; the tier's one knob
    /// is [`DaisySystemBuilder::native_threshold`]. Works under any cache
    /// hierarchy: with a finite one, compiled code logs its cache probes
    /// and the tier replays them through the model at every return, so
    /// statistics match the packed engine exactly. Under guest
    /// profiling compiled groups run one per dispatch: their
    /// branch-direction log restarts at every group entry, so the chain
    /// budget is 0 and a patched chain edge is never followed (see
    /// [`crate::profile`]). Silently falls back to
    /// the packed engine when the host is not x86-64 Linux.
    pub fn native_execution(mut self, on: bool) -> Self {
        self.native = on;
        self
    }

    /// The dispatch of a translation on which it is lowered to native
    /// code: its first `dispatches - 1` dispatches run on the packed
    /// engine (default [`crate::native::DEFAULT_NATIVE_THRESHOLD`];
    /// clamped to at least 1). Counted per translation
    /// ([`GroupCode::dispatches`]). This holds while compiles repay
    /// their cost: a flush that finds the compiles made since the
    /// previous one ran fewer than
    /// [`crate::native::PAYBACK_VLIWS`] native VLIWs each doubles the
    /// threshold in force, with no cap, and the next flush whose
    /// compiles repaid restores this value (see [`crate::native`]).
    /// Only meaningful with [`DaisySystemBuilder::native_execution`] on.
    pub fn native_threshold(mut self, dispatches: u64) -> Self {
        self.native_threshold = dispatches;
        self
    }

    /// Trace events the flight recorder keeps (default
    /// [`DEFAULT_FLIGHT_RECORDER_CAPACITY`]; see
    /// [`crate::trace::FlightRecorder`]). The ring grows as events
    /// arrive, so a large capacity allocates nothing up front. A
    /// [`PostMortem`] shows the newest
    /// [`DEFAULT_FLIGHT_RECORDER_CAPACITY`] events at any capacity.
    pub fn flight_recorder_capacity(mut self, events: usize) -> Self {
        self.flight_recorder_capacity = events;
        self
    }

    /// Enables guest-level attribution ([`DaisySystem::guest_profile`]):
    /// per-guest-PC cycle/stall/waste accounting plus the dispatch
    /// timeline and §4.2 overhead clock behind the exporters in
    /// [`crate::profile`] (default off). The engines run unchanged: each
    /// dispatch's path is rebuilt at the group boundary from the branch
    /// directions its path trail records.
    pub fn guest_profiling(mut self, on: bool) -> Self {
        self.guest_profiling = on;
        self
    }

    /// Builds the system.
    pub fn build(self) -> DaisySystem<I> {
        let mut vmm = Vmm::new(self.cfg);
        vmm.set_code_capacity(self.code_capacity);
        vmm.tracer = FlightRecorder::with_capacity(self.flight_recorder_capacity);
        // Under a finite cache the native tier's compiled groups log
        // their cache probes and the tier replays them through this
        // system's hierarchy. `NativeTier::new` returns `None` on hosts
        // that cannot execute emitted x86-64.
        let native =
            self.native.then(|| NativeTier::new(self.native_threshold, &self.cache)).flatten();
        DaisySystem {
            mem: Memory::new(self.mem_size),
            cpu: <I::Cpu as GuestCpu>::new(0),
            vmm,
            cache: self.cache,
            stats: RunStats::default(),
            pending_external: false,
            native_yield_preempts: 0,
            last_exit_native: false,
            scratch: EngineScratch::new(),
            chaining: self.chaining,
            pending_chain: None,
            guest_profile: self.guest_profiling.then(GuestProfile::new),
            ladder: HashMap::new(),
            interp_pages: HashSet::new(),
            ladder_engaged: false,
            native,
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

    /// The guest-level attribution profile, when enabled through
    /// [`DaisySystemBuilder::guest_profiling`].
    pub fn guest_profile(&self) -> Option<&GuestProfile> {
        self.guest_profile.as_ref()
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
    /// An external interrupt is only ever delivered at the top of a
    /// step, before anything retires, at the PC and retired-instruction
    /// count ([`RunStats::approx_base_instrs`]) the caller reads just
    /// before the call. A harness that needs the delivery schedule
    /// records that pair before each step that raises
    /// `stats.interrupts_taken`.
    ///
    /// # Errors
    ///
    /// See [`DaisySystem::run`].
    // invariant-free hot path: `run` is a tight trampoline around this,
    // and the packed engine's short groups make the call boundary
    // itself measurable — keep it and its phases inlinable.
    #[inline]
    pub fn step(&mut self) -> Result<Option<StopReason>, DaisyError> {
        if cfg!(debug_assertions) {
            self.vmm.assert_sole_owner();
        }
        let pc = match self.boundary() {
            ControlFlow::Continue(pc) => pc,
            ControlFlow::Break(stop) => return Ok(stop),
        };
        let (code, edge) = self.dispatch(pc);
        let mut rf = RegFile::new();
        let run = self.execute(code, edge, &mut rf);
        self.retire(run, &rf)
    }

    /// The boundary phase: retires the translations stores hit, mirrors
    /// VMM events into the guest profile, samples and delivers external
    /// interrupts, and runs pages on the bottom ladder rung on the
    /// interpreter. Continues with the PC to dispatch, or breaks with
    /// the step's result when the interpreter ran it.
    #[inline]
    fn boundary(&mut self) -> ControlFlow<Option<StopReason>, u32> {
        self.handle_code_writes();
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
        // External interrupts are taken at precise group boundaries
        // (every architected register is exact here). Advance the
        // modeled SoC's device clock to the retired-instruction count
        // — the one clock the interpreter oracle reproduces exactly —
        // then sample its interrupt line.
        // Level-triggered: the line is *not* latched into
        // `pending_external`; it stays asserted until the handler
        // acknowledges the device.
        let bus_line = self.mem.has_bus() && {
            self.mem.set_bus_time(self.stats.base_instrs);
            self.mem.bus_irq_level()
        };
        // Gated by the architected interrupt-enable state alone (clear
        // by default), so harnesses can take interrupts while still
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
            return ControlFlow::Break(self.interp_burst());
        }
        ControlFlow::Continue(pc)
    }

    /// The dispatch phase: finds the translation at `pc` by following
    /// the previous exit's chain link or else through the VMM, installs
    /// the link or inline-cache way a VMM dispatch makes, and counts the
    /// dispatch on the translation's one hotness counter (the native
    /// threshold reads it). Also returns the direct edge it followed,
    /// which the native tier patches into a direct jump.
    #[inline]
    fn dispatch(&mut self, pc: u32) -> (Rc<GroupCode>, Option<(Rc<GroupCode>, usize)>) {
        // Chained dispatch: follow the link installed on the previous
        // group's exit straight to the next translation, bypassing the
        // VMM. The `target == pc` guard keeps this sound across
        // interrupt delivery and externally swapped CPU state; weak
        // links make it sound across invalidation: a source or target
        // the VMM has dropped does not upgrade.
        let pending = self.pending_chain.take().filter(|p| p.target == pc);
        let from = pending.and_then(|p| Some((p.from.upgrade()?, p.slot)));
        let chained = match &from {
            Some((from, Some(slot))) => match from.follow_link(*slot) {
                ChainLink::Live(code) => Some(code),
                ChainLink::Severed => {
                    self.stats.chain.severs += 1;
                    from.clear_link(*slot);
                    let from_entry = from.entry;
                    self.vmm
                        .tracer
                        .emit(|| TraceEvent::ChainSever { from: from_entry, target: pc });
                    None
                }
                ChainLink::Empty => None,
            },
            Some((from, None)) => match from.icache_lookup(pc) {
                Some((code, way)) => {
                    self.stats.chain.icache_hits += 1;
                    // Mirror the hit into `from`'s inline IBTC so the
                    // next indirect exit resolves without this
                    // dispatcher boundary.
                    if let Some(nt) = self.native.as_mut() {
                        nt.icache_sync(from, pc, way, Some(&code));
                    }
                    Some(code)
                }
                None => {
                    self.stats.chain.icache_misses += 1;
                    None
                }
            },
            None => None,
        };
        if let Some(code) = chained {
            self.stats.chain.chained_dispatches += 1;
            code.count_dispatch();
            return (code, from.and_then(|(from, slot)| Some((from, slot?))));
        }
        self.stats.groups_entered += 1;
        let xlate_before = self
            .guest_profile
            .as_ref()
            .map(|_| (self.vmm.stats.groups_translated, self.vmm.cost.instrs_scheduled));
        let code = self.vmm.entry_with_cpu(&mut self.mem, pc, Some(&self.cpu));
        // Feed any translation work this dispatch triggered into the
        // §4.2 overhead clock (first-touch vs retranslation is
        // classified by the clock itself).
        if let (Some(gp), Some((g0, i0))) = (&mut self.guest_profile, xlate_before) {
            if self.vmm.stats.groups_translated > g0 {
                gp.overhead_mut().note_translation(pc, self.vmm.cost.instrs_scheduled - i0);
            }
        }
        if let Some((from, slot)) = from {
            match slot {
                Some(slot) => {
                    from.install_link(slot, &code);
                    self.stats.chain.link_installs += 1;
                }
                None => {
                    let way = from.icache_install(pc, &code);
                    // The install overwrote a way: the inline IBTC must
                    // never keep an entry the dispatcher's icache no
                    // longer holds, so sync (install or invalidate) it.
                    if let Some(nt) = self.native.as_mut() {
                        nt.icache_sync(&from, pc, way, Some(&code));
                    }
                }
            }
            let (from, indirect) = (from.entry, slot.is_none());
            self.vmm.tracer.emit(|| TraceEvent::ChainInstall { from, to: pc, indirect });
        }
        code.count_dispatch();
        (code, None)
    }

    /// The execute phase: runs `code` from the architected state, loaded
    /// into `rf`, on its ladder rung. On the native rung the tier
    /// compiles the translation once it is warm, patches `edge` (the
    /// chain edge just followed) into a direct native jump, and enters
    /// compiled code. A bailed native run resumes the same group
    /// mid-node on the packed engine, continuing the path trail its
    /// direction log began, so the retire phase is rung-oblivious.
    #[inline]
    fn execute(
        &mut self,
        code: Rc<GroupCode>,
        edge: Option<(Rc<GroupCode>, usize)>,
        rf: &mut RegFile,
    ) -> Run {
        let guest =
            self.guest_profile.as_ref().map(|_| (self.stats.cycles(), self.stats.stall_cycles));
        let base_instrs = self.stats.base_instrs;
        self.cpu.fill_regfile(rf);
        // Entries faulted below the native rung run on the packed
        // engine (the conservative rung's translation was rebuilt
        // without load speculation, upstream in the VMM).
        let native_rung = !self.ladder_engaged || self.rung(code.entry) == Rung::Native;
        let mut native_run = None;
        if let Some(nt) = self.native.as_mut().filter(|_| native_rung) {
            // The chain budget is the one gate on following patched
            // edges and inline indirect-cache hits. It is 0 while
            // something observes every boundary: a bus (device
            // interrupts are taken at boundaries) or guest profiling
            // (which rebuilds each dispatch's path from the direction
            // log, restarted at every group entry). The ladder needs no
            // clause: `degrade` flushes every compiled group,
            // patched edge and inline IBTC way, and only entries on the
            // native rung are compiled again.
            let chain_budget = if self.mem.has_bus() || self.guest_profile.is_some() {
                0
            } else {
                ACCESS_LOG_VLIW_BUDGET
            };
            if let Some(cg) =
                nt.prepare(&code, self.vmm.cfg.page_size, &mut self.mem, &mut self.vmm.tracer)
            {
                if let Some((from, slot)) = edge {
                    nt.try_patch(&from, slot, &code);
                }
                let (mem, cache, stats, scratch) =
                    (&mut self.mem, &mut self.cache, &mut self.stats, &mut self.scratch);
                native_run = Some(
                    match nt.execute(&cg, &code, rf, mem, cache, stats, scratch, chain_budget) {
                        NativeRun::Done { exit, code } => {
                            // Profiling reads the run's branch directions;
                            // with no chain budget under profiling, the run
                            // ended in the dispatched group.
                            if self.guest_profile.is_some() {
                                nt.copy_trail(scratch);
                            }
                            (exit, code)
                        }
                        NativeRun::Resume { code, point } => {
                            (run_group_resume(&code, rf, mem, cache, stats, scratch, point), code)
                        }
                    },
                );
            }
        }
        self.last_exit_native = native_run.is_some();
        let (exit, code) = match native_run {
            Some(run) => run,
            None => {
                let (mem, cache, stats, scratch) =
                    (&mut self.mem, &mut self.cache, &mut self.stats, &mut self.scratch);
                (run_group(&code, rf, mem, cache, stats, scratch), code)
            }
        };
        Run { exit, code, base_instrs, guest }
    }

    /// The retire phase: cross-checks an exception exit's recovery,
    /// commits `rf`, attributes the dispatch to the guest profile, and
    /// handles the exit.
    #[inline]
    fn retire(&mut self, run: Run, rf: &RegFile) -> Result<Option<StopReason>, DaisyError> {
        let Run { exit, code, base_instrs, guest } = run;
        let from_page = code.entry / self.vmm.cfg.page_size;
        // §3.5 recovery cross-check, *before* committing the
        // register file: a failed check means the translation's
        // metadata cannot be trusted, and retrying the group one
        // rung down is sound exactly when no architected state was
        // mutated yet — registers are still in `rf`, and memory is
        // clean unless a store committed before the fault.
        if let GroupExit::Exception { base_addr, fault_op, .. } = exit {
            if self.recovery_cross_check(&code, base_addr, fault_op)? {
                // Discard `rf`; architected state is untouched, so the
                // next step re-dispatches the same PC one rung down.
                // The retry re-executes (and re-counts) every base
                // instruction the aborted attempt committed — roll the
                // counter back so each executes-once instruction counts
                // once. Cycles stay: the failed attempt's time is real.
                self.stats.base_instrs = base_instrs;
                return Ok(None);
            }
        }
        self.cpu.write_back(rf);

        // Guest-level attribution: distribute the dispatch's cycles,
        // stalls, and speculation waste over the guest PCs on its taken
        // path, rebuilt from the branch directions in its path trail.
        if let (Some(gp), Some((c0, s0))) = (&mut self.guest_profile, guest) {
            gp.record_dispatch(
                &code,
                &self.scratch.dirs,
                self.stats.stall_cycles - s0,
                c0,
                self.stats.cycles() - c0,
            );
        }

        match exit {
            GroupExit::Branch { target, slot } => {
                if target / self.vmm.cfg.page_size == from_page {
                    self.stats.onpage_dispatches += 1;
                } else {
                    self.stats.crosspage.direct += 1;
                }
                self.cpu.set_pc(target);
                if self.chaining {
                    // The slot was lowered into the packed exit at
                    // translation time — no exit-table search here.
                    let from = Rc::downgrade(&code);
                    self.pending_chain = Some(PendingChain { from, target, slot: Some(slot) });
                }
            }
            GroupExit::Indirect { target, via } => {
                if target / self.vmm.cfg.page_size == from_page {
                    self.stats.onpage_dispatches += 1;
                } else {
                    match via {
                        IndirectVia::Lr => self.stats.crosspage.via_lr += 1,
                        IndirectVia::Ctr => self.stats.crosspage.via_ctr += 1,
                    }
                }
                self.cpu.set_pc(target);
                if self.chaining {
                    let from = Rc::downgrade(&code);
                    self.pending_chain = Some(PendingChain { from, target, slot: None });
                }
            }
            GroupExit::Interp { addr } => {
                self.cpu.set_pc(addr);
                if let Some(stop) = self.interp_one() {
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
                if let Some(stop) = self.interp_one() {
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
            GroupExit::Exception { kind, base_addr, .. } => {
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
                    // Stop where the interpreter stops: at the faulting
                    // instruction, state exact just before it.
                    self.cpu.set_pc(base_addr);
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
                let entry = code.entry;
                self.vmm.tracer.emit(|| TraceEvent::AliasRestart { entry, addr });
                self.vmm.note_alias_restart(entry);
                self.cpu.set_pc(addr);
            }
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
    /// exception exits.
    #[cold]
    #[inline(never)]
    fn recovery_cross_check(
        &mut self,
        code: &GroupCode,
        base_addr: u32,
        fault_op: usize,
    ) -> Result<bool, DaisyError> {
        let entry = code.entry;
        let events = precise::commits(&code.packed, &self.scratch.dirs, fault_op);
        let checked = precise::recover::<I>(&self.mem, entry, &events);
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
        let stores_committed = events.contains(&ArchEvent::Store);
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
    #[cold]
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
        // Any step down retires the native tier's compiled code,
        // severs its patched edges and empties its inline IBTC ways: a
        // patched chain could otherwise carry execution natively
        // *through* a degraded entry without consulting the ladder.
        // Later patches cannot reach it either: only entries on the
        // native rung are compiled (`prepare`), so a degraded entry
        // never becomes the target of a patched edge.
        if let Some(nt) = self.native.as_mut() {
            nt.flush();
        }
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

    /// Gathers a [`MetricsSnapshot`] from the counters every layer
    /// maintains anyway: a pure copy, exact at any group boundary.
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
            flight_dropped: self.vmm.tracer.post_mortem_dropped(),
        })
    }

    /// The flight recorder: the ring every trace event lands in.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.vmm.tracer
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
        let (events, dropped) = self.vmm.tracer.post_mortem_window();
        PostMortem {
            reason,
            events,
            dropped,
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

    /// Every ladder step taken this run, in order.
    pub fn degradations(&self) -> &[Degradation] {
        self.vmm.degradations()
    }

    /// External interrupts that preempted the guest at a boundary a
    /// native-tier run produced (a group exit, or a chain stub's return
    /// once the run's chain budget is spent).
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
    #[cold]
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

    /// Interprets exactly one instruction, handling its events: the
    /// VMM's interpreter service for an instruction a group deferred
    /// (system call, interrupt return, privileged, unsupported, MMIO).
    /// Returns a stop reason when execution cannot continue.
    fn interp_one(&mut self) -> Option<StopReason> {
        let insn = match self.cpu.fetch(&self.mem) {
            Ok(i) => i,
            Err(ev) => return self.handle_event(ev),
        };
        let ev = self.interp_execute(insn);
        if ev == Event::Continue {
            if I::ends_interp_window(&insn) {
                // §3.4: after an interrupt return, interpret until the
                // next subroutine call, cross-page branch, or backward
                // branch, to limit entry-point creation.
                return self.interp_window();
            }
            return None;
        }
        self.handle_event(ev)
    }

    /// Resolves an interpreter event the way the oracle does
    /// ([`GuestCpu::handle_event`]), counting each one delivered to a
    /// guest vector as an exception (a stop is not a delivery).
    fn handle_event(&mut self, ev: Event) -> Option<StopReason> {
        let stop = self.cpu.handle_event(ev);
        if ev != Event::Continue && stop.is_none() {
            self.stats.exceptions += 1;
        }
        stop
    }

    /// Executes one fetched instruction on the interpreter and counts
    /// it when it retires.
    fn interp_execute(&mut self, insn: I::Insn) -> Event {
        // MMIO accesses interpret here; the device observes the
        // retired-instruction clock as of *before* this instruction —
        // exactly what an oracle stepping `instret` sees.
        if self.mem.has_bus() {
            self.mem.set_bus_time(self.stats.base_instrs);
        }
        let ev = self.cpu.execute(&mut self.mem, insn);
        if matches!(ev, Event::Continue | Event::Syscall) {
            self.stats.interp_instrs += 1;
            self.stats.base_instrs += 1;
        }
        ev
    }

    /// Post-interrupt-return interpretation window (§3.4).
    fn interp_window(&mut self) -> Option<StopReason> {
        for _ in 0..256 {
            let pc = self.cpu.pc();
            let insn = match self.cpu.fetch(&self.mem) {
                Ok(i) => i,
                Err(ev) => return self.handle_event(ev),
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
            let ev = self.interp_execute(insn);
            let stop = self.handle_event(ev);
            if stop.is_some() {
                return stop;
            }
            if boundary == Some(true) {
                break;
            }
        }
        None
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
        let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(0x40000).build();
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

        let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(0x40000).build();
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

    /// §3.4: a trap inside the post-`rfi` interpretation window is
    /// delivered to the guest's program vector, as the oracle does.
    #[test]
    fn vectored_trap_in_post_rfi_window_reaches_handler() {
        let mut a = Asm::new(0x1000);
        a.li(Gpr(20), 0);
        a.li(Gpr(21), 0);
        a.sc(); // → 0xC00, whose rfi returns to the trap
        a.twi(31, Gpr(0), 0); // runs in the window → 0x700
        a.li(Gpr(21), 5);
        a.label("end");
        a.b("end");
        let prog = a.finish().unwrap();

        let mut sc_handler = Asm::new(vectors::SYSCALL);
        sc_handler.rfi();
        // The program handler marks r20 and returns past the trap.
        let mut trap_handler = Asm::new(vectors::PROGRAM);
        trap_handler.li(Gpr(20), 77);
        trap_handler.emit(Insn::Mfspr { rt: Gpr(8), spr: daisy_ppc::reg::Spr::Srr0 });
        trap_handler.addi(Gpr(8), Gpr(8), 4);
        trap_handler.emit(Insn::Mtspr { spr: daisy_ppc::reg::Spr::Srr0, rs: Gpr(8) });
        trap_handler.rfi();
        let os = [sc_handler.finish().unwrap(), trap_handler.finish().unwrap()];

        let mut mem = Memory::new(0x40000);
        prog.load_into(&mut mem).unwrap();
        os.iter().for_each(|p| p.load_into(&mut mem).unwrap());
        let mut cpu = Cpu::new(prog.entry);
        cpu.vectored = true;
        assert_eq!(cpu.run(&mut mem, 10_000).unwrap(), StopReason::MaxInstrs);
        assert_eq!((cpu.gpr[20], cpu.gpr[21]), (77, 5), "oracle ran the handler");

        let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(0x40000).build();
        sys.load(&prog).unwrap();
        os.iter().for_each(|p| p.load_into(&mut sys.mem).unwrap());
        sys.cpu.vectored = true;
        assert_eq!(sys.run(10_000).unwrap(), StopReason::MaxInstrs);
        assert_eq!((sys.cpu.gpr[20], sys.cpu.gpr[21]), (77, 5), "DAISY ran the handler");
        assert_eq!(sys.stats.exceptions, 2, "the system call and the trap were delivered");
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

        let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(0x40000).build();
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
