//! Deterministic, seed-driven fault injection for the VMM.
//!
//! DAISY's compatibility claim is only as strong as its behaviour under
//! adversarial inputs: illegal opcodes, code rewritten mid-run, a
//! translation cache too small to hold the working set, interrupts
//! arriving at every group boundary, chain links cut out from under the
//! dispatch loop, translations dropped while hot. This module turns
//! each of those into a reproducible *campaign*: a [`FaultKind`] plus a
//! seed fully determine every perturbation, the perturbed
//! [`DaisySystem`] runs to completion on the degradation ladder (see
//! [`crate::error`]), and the final architected state — every guest
//! register ([`GuestCpu::state_diff`]) and all of memory — is diffed
//! bit for bit against the pure-interpreter oracle.
//!
//! Perturbations are applied at group boundaries via
//! [`DaisySystem::step`], mirroring the paper's §3.7 observation that
//! group boundaries are the points where every architected register is
//! exact. Faults that change guest-visible semantics (illegal-opcode
//! splices) are applied identically to the oracle's memory image, so
//! the differential contract is always "same program, same final
//! state".
//!
//! # Example
//!
//! ```
//! use daisy::inject::{run_campaign, CampaignConfig, FaultKind};
//!
//! let w = daisy_workloads::by_name("c_sieve").unwrap();
//! let out = run_campaign(&w, &CampaignConfig::new(FaultKind::ChainSever, 7)).unwrap();
//! assert!(out.injections > 0);
//! ```

use crate::error::{DaisyError, DegradeCause};
use crate::metrics::PostMortem;
use crate::native::NativeStats;
use crate::stats::RunStats;
use crate::system::DaisySystem;
use crate::vmm::VmmStats;
use daisy_isa::mem::{Bus, Memory};
use daisy_isa::{Event, Exception, GuestCpu, Isa, Program, StopReason, Workload};
use std::fmt;

/// Factory for a fresh MMIO device tree: `(window base, window length,
/// device)`. Preemption campaigns instantiate it twice — once for the
/// perturbed system, once for the oracle — so both runs talk to
/// bit-identical device state.
pub type BusFactory = fn() -> (u32, u32, Box<dyn Bus>);

/// SplitMix64: a tiny, high-quality, dependency-free generator. One
/// seed fully determines a campaign's perturbation schedule.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `0..n` (`n > 0`; modulo bias is irrelevant
    /// at campaign scales).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// One family of deterministic perturbations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Illegal/reserved opcodes spliced into the guest text before the
    /// run (applied to the oracle image too: same program, same final
    /// state — both halt precisely at the first splice reached).
    IllegalOp,
    /// Idempotent rewrites of already-translated code words mid-run:
    /// architecturally invisible, but each one trips the §3.2
    /// translated bit and forces invalidation + retranslation.
    HotPatch,
    /// Translation-cache capacity clamped to one or two pages' worth of
    /// code, forcing continuous LRU cast-out thrash.
    CastOutThrash,
    /// An external interrupt posted at every group boundary; the guest
    /// image gets a pure-`rfi` handler at the external vector, so
    /// delivery is architecturally invisible except through SRR0/SRR1.
    InterruptStorm,
    /// Every chain link and inline indirect-cache entry severed at
    /// every group boundary.
    ChainSever,
    /// A randomly chosen live translation dropped out from under the
    /// dispatch loop every few boundaries.
    TranslationDrop,
    /// Preemption fuzzing: timer/device interrupts forced at
    /// seed-jittered group boundaries — phase-jittered single posts,
    /// back-to-back storms, and out-of-band UART RX bytes — against a
    /// guest that *handles* them (context-switching firmware), with the
    /// delivery schedule recorded and replayed instruction-exactly on
    /// the oracle. Not in [`FaultKind::ALL`]: it needs a bus factory
    /// ([`CampaignConfig::with_bus`]) and a clock-exact guest program
    /// (see `docs/soc.md`), so generic campaign matrices must not pick
    /// it up implicitly.
    Preempt,
}

impl FaultKind {
    /// Every fault kind, for exhaustive campaign matrices.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::IllegalOp,
        FaultKind::HotPatch,
        FaultKind::CastOutThrash,
        FaultKind::InterruptStorm,
        FaultKind::ChainSever,
        FaultKind::TranslationDrop,
    ];

    /// Short lowercase name, for CLIs and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::IllegalOp => "illegal_op",
            FaultKind::HotPatch => "hot_patch",
            FaultKind::CastOutThrash => "cast_out_thrash",
            FaultKind::InterruptStorm => "interrupt_storm",
            FaultKind::ChainSever => "chain_sever",
            FaultKind::TranslationDrop => "translation_drop",
            FaultKind::Preempt => "preempt",
        }
    }

    /// Parses a [`FaultKind::name`] back. Recognizes `preempt` even
    /// though it is excluded from [`FaultKind::ALL`].
    pub fn by_name(name: &str) -> Option<FaultKind> {
        if name == FaultKind::Preempt.name() {
            return Some(FaultKind::Preempt);
        }
        FaultKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The ladder cause this kind's forced degradations are recorded
    /// under.
    pub fn cause(self) -> DegradeCause {
        match self {
            FaultKind::IllegalOp => DegradeCause::IllegalOp,
            FaultKind::HotPatch => DegradeCause::CodeRewrite,
            FaultKind::CastOutThrash => DegradeCause::CastOutPressure,
            FaultKind::InterruptStorm => DegradeCause::InterruptStorm,
            FaultKind::ChainSever => DegradeCause::ChainUnstable,
            FaultKind::TranslationDrop => DegradeCause::TranslationDropped,
            FaultKind::Preempt => DegradeCause::InterruptStorm,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One campaign's full configuration. The `(kind, seed)` pair
/// determines every perturbation; the remaining knobs select the
/// system build under test.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Perturbation family.
    pub kind: FaultKind,
    /// Seed for the perturbation schedule.
    pub seed: u64,
    /// Start entries on the native host-code rung (default false): the
    /// campaign runs with [`crate::native`] enabled at a low compile
    /// threshold, so perturbations land while compiled x86-64 groups
    /// and patched native chains are live. A no-op on hosts without
    /// native support (the builder falls back to packed execution).
    pub native: bool,
    /// Enable direct group chaining (default true — chaining is where
    /// most of the recovery surface lives).
    pub chaining: bool,
    /// Ladder steps the campaign driver forces (spread over the run, at
    /// the then-current PC, recorded under [`FaultKind::cause`]), so
    /// every campaign also exercises the conservative and interpret
    /// rungs. Default 2 — one full walk from the packed rung to the
    /// floor.
    pub max_degrades: u32,
    /// MMIO device-tree factory, required by [`FaultKind::Preempt`]
    /// campaigns (and ignored by every other kind): the campaign
    /// attaches one fresh instance to the perturbed system and one to
    /// the oracle, and diffs their snapshots bit for bit at the end.
    pub bus: Option<BusFactory>,
}

impl CampaignConfig {
    /// A default campaign: packed engine, chaining on, two forced
    /// ladder steps.
    pub fn new(kind: FaultKind, seed: u64) -> CampaignConfig {
        CampaignConfig { kind, seed, native: false, chaining: true, max_degrades: 2, bus: None }
    }

    /// The same campaign with the native host-code tier on (low
    /// threshold, so short campaign runs still reach compiled code).
    pub fn with_native(mut self) -> CampaignConfig {
        self.native = true;
        self
    }

    /// The same campaign with an MMIO device tree attached (required
    /// for [`FaultKind::Preempt`]).
    pub fn with_bus(mut self, factory: BusFactory) -> CampaignConfig {
        self.bus = Some(factory);
        self
    }
}

/// What a completed (non-diverging) campaign did.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Perturbation family.
    pub kind: FaultKind,
    /// Seed used.
    pub seed: u64,
    /// How the perturbed run stopped (always equal to the oracle's stop
    /// reason).
    pub stop: StopReason,
    /// Group boundaries stepped through.
    pub boundaries: u64,
    /// Individual perturbations applied.
    pub injections: u64,
    /// Ladder steps recorded (forced and organic).
    pub degradations: usize,
    /// External interrupts actually delivered to the guest (a subset of
    /// `injections` for preemption campaigns: posts coalesce while the
    /// guest runs with interrupts disabled).
    pub interrupts_taken: u64,
    /// Deliveries that landed at a boundary where the previous group
    /// ran on the native x86-64 tier — the rerolled back-edge yields
    /// the preemption fuzzer exists to hit.
    pub native_yield_preempts: u64,
    /// Engine statistics of the perturbed run.
    pub stats: RunStats,
    /// VMM statistics of the perturbed run.
    pub vmm_stats: VmmStats,
    /// Native-tier statistics of the perturbed run (all zero when the
    /// tier was off or declined to engage on this host).
    pub native_stats: NativeStats,
    /// The flight-recorder post-mortem captured at the run's last
    /// ladder degradation (see
    /// [`crate::system::DaisySystem::take_post_mortem`]); `None` only
    /// when the campaign forced no ladder steps (`max_degrades: 0`)
    /// and nothing degraded organically.
    pub post_mortem: Option<PostMortem>,
}

/// Why a campaign failed. Any of these in a CI smoke run is a real bug:
/// the system either died, ran away, or — worst — silently computed a
/// different answer than the architecture defines.
#[derive(Debug, Clone)]
pub enum CampaignError {
    /// Final architected state differed from the oracle.
    Divergence {
        /// Perturbation family.
        kind: FaultKind,
        /// Seed used.
        seed: u64,
        /// First mismatch found.
        what: String,
    },
    /// The system surfaced an unrecoverable [`DaisyError`].
    Run {
        /// Perturbation family.
        kind: FaultKind,
        /// Seed used.
        seed: u64,
        /// The underlying error.
        error: DaisyError,
    },
    /// The perturbed run exceeded its cycle budget (livelock).
    Budget {
        /// Perturbation family.
        kind: FaultKind,
        /// Seed used.
        seed: u64,
    },
    /// The campaign configuration is unusable for this fault kind.
    Config {
        /// Perturbation family.
        kind: FaultKind,
        /// What is missing or wrong.
        what: &'static str,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Divergence { kind, seed, what } => {
                write!(f, "campaign {kind} seed {seed}: state diverged from oracle: {what}")
            }
            CampaignError::Run { kind, seed, error } => {
                write!(f, "campaign {kind} seed {seed}: unrecoverable: {error}")
            }
            CampaignError::Budget { kind, seed } => {
                write!(f, "campaign {kind} seed {seed}: cycle budget exceeded (livelock?)")
            }
            CampaignError::Config { kind, what } => {
                write!(f, "campaign {kind}: bad configuration: {what}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// Appends the system's flight-recorder post-mortem to a divergence
/// description, so every [`CampaignError::Divergence`] report carries
/// the events, degradation chain, and metrics that led up to it.
fn with_post_mortem<I: Isa>(sys: &DaisySystem<I>, what: String) -> String {
    format!("{what}\n{}", sys.request_post_mortem("fault-injection divergence"))
}

/// An instruction word the frontend guarantees never decodes to a
/// valid instruction ([`Isa::illegal_words`]); the guarantee is
/// regression-tested per frontend so splices stay honest if a decoder
/// ever grows.
fn invalid_word<I: Isa>(rng: &mut Rng) -> u32 {
    let candidates = I::illegal_words();
    candidates[rng.below(candidates.len() as u64) as usize]
}

/// Splices `1 + seed%3` illegal words into the text region of `mem`
/// (call once per image — perturbed and oracle — with an identically
/// seeded generator so both see the same program).
fn splice_illegal<I: Isa>(rng: &mut Rng, prog: &Program, mem: &mut Memory) -> u64 {
    let n = 1 + rng.below(3);
    for _ in 0..n {
        let idx = rng.below(prog.code.len() as u64) as u32;
        let w = invalid_word::<I>(rng);
        // invariant: the text range was loaded into this memory by the
        // caller, so writes inside it cannot fault.
        let _ = mem.write_u32(prog.base + 4 * idx, w);
    }
    n
}

/// Runs one campaign of `cfg` over workload `w` and diffs the final
/// state against the pure-interpreter oracle.
///
/// # Errors
///
/// See [`CampaignError`].
pub fn run_campaign<I: Isa>(
    w: &Workload<I>,
    cfg: &CampaignConfig,
) -> Result<CampaignOutcome, CampaignError> {
    run_campaign_on_program::<I>(&w.program(), w.mem_size, w.max_instrs, cfg)
}

/// Runs one campaign of `cfg` over an arbitrary program image.
/// `oracle_budget` bounds the oracle interpreter (use the workload's
/// generous `max_instrs`); the perturbed run's cycle budget is derived
/// from the oracle's actual instruction count.
///
/// # Errors
///
/// See [`CampaignError`].
pub fn run_campaign_on_program<I: Isa>(
    prog: &Program,
    mem_size: u32,
    oracle_budget: u64,
    cfg: &CampaignConfig,
) -> Result<CampaignOutcome, CampaignError> {
    if cfg.kind == FaultKind::Preempt {
        return run_preempt_campaign_on_program::<I>(prog, mem_size, oracle_budget, cfg);
    }
    let kind = cfg.kind;
    let seed = cfg.seed;
    let storm = kind == FaultKind::InterruptStorm;
    let rfi_word = I::interrupt_return_word();

    // ---- Oracle: the pure interpreter on an identical image. ----
    let mut omem = Memory::new(mem_size);
    // invariant: workload images fit their own declared mem_size.
    prog.load_into(&mut omem).ok();
    let mut orng = Rng::new(seed);
    if kind == FaultKind::IllegalOp {
        splice_illegal::<I>(&mut orng, prog, &mut omem);
    }
    if storm {
        let _ = omem.write_u32(I::external_vector(), rfi_word);
    }
    let mut ocpu = <I::Cpu as GuestCpu>::new(prog.entry);
    if storm {
        ocpu.enable_interrupts();
    }
    let ostop = ocpu.interp_run(&mut omem, oracle_budget);
    if ostop == StopReason::MaxInstrs {
        // The oracle itself ran out of budget; nothing to compare
        // against at a well-defined point.
        return Err(CampaignError::Budget { kind, seed });
    }

    // ---- Perturbed system. ----
    let mut rng = Rng::new(seed);
    let mut builder = DaisySystem::<I>::builder()
        .mem_size(mem_size)
        .chaining(cfg.chaining)
        .native_execution(cfg.native)
        .native_threshold(2);
    if kind == FaultKind::CastOutThrash {
        // Tiny translation pages (so even the most compact workloads
        // span several) plus a capacity of roughly one or two pages'
        // translated code: every cross-page entry evicts the pool down
        // to a single page — continuous LRU cast-out thrash.
        builder = builder
            .translator(crate::sched::TranslatorConfig {
                page_size: 32,
                ..crate::sched::TranslatorConfig::default()
            })
            .code_capacity((1 + (seed % 2)) * 64);
    }
    let mut sys = builder.build();
    // invariant: same image, same fit as the oracle above.
    prog.load_into(&mut sys.mem).ok();
    sys.cpu.set_pc(prog.entry);
    let mut injections = 0u64;
    if kind == FaultKind::IllegalOp {
        injections = splice_illegal::<I>(&mut rng, prog, &mut sys.mem);
    }
    if storm {
        let _ = sys.mem.write_u32(I::external_vector(), rfi_word);
        sys.cpu.enable_interrupts();
    }

    let max_cycles = ocpu.instret().saturating_mul(8).saturating_add(100_000);
    let sparse_period = 3 + rng.below(5);
    let mut degrades_left = cfg.max_degrades;
    let mut boundaries = 0u64;

    let stop = loop {
        if sys.stats.cycles() >= max_cycles {
            return Err(CampaignError::Budget { kind, seed });
        }
        match kind {
            // Preempt dispatches to its own driver before this loop.
            FaultKind::IllegalOp | FaultKind::CastOutThrash | FaultKind::Preempt => {}
            FaultKind::InterruptStorm => {
                sys.post_external_interrupt();
                injections += 1;
            }
            FaultKind::ChainSever => {
                sys.sever_chains();
                injections += 1;
            }
            FaultKind::HotPatch => {
                if boundaries.is_multiple_of(sparse_period) {
                    let entries = sys.vmm.live_entries();
                    if !entries.is_empty() {
                        let e = entries[rng.below(entries.len() as u64) as usize];
                        if let Ok(word) = sys.mem.read_u32(e) {
                            // Architecturally idempotent — but the
                            // store trips the §3.2 translated bit and
                            // forces invalidation + retranslation.
                            let _ = sys.mem.write_u32(e, word);
                            injections += 1;
                        }
                    }
                }
            }
            FaultKind::TranslationDrop => {
                if boundaries.is_multiple_of(sparse_period) {
                    let entries = sys.vmm.live_entries();
                    if !entries.is_empty() {
                        let e = entries[rng.below(entries.len() as u64) as usize];
                        sys.vmm.drop_translation(e);
                        injections += 1;
                    }
                }
            }
        }
        // Ladder driver: walk the current PC's entry down a rung every
        // few boundaries (starting at the very first, so even runs that
        // halt immediately — an entry-point splice — take one step) so
        // every campaign exercises the whole ladder.
        if degrades_left > 0
            && boundaries.is_multiple_of(7)
            && sys.degrade(sys.cpu.pc(), kind.cause()).is_some()
        {
            degrades_left -= 1;
        }
        let stepped = sys.step();
        boundaries += 1;
        match stepped {
            Ok(None) => {}
            Ok(Some(stop)) => break stop,
            Err(error) => return Err(CampaignError::Run { kind, seed, error }),
        }
    };

    if stop != ostop {
        return Err(CampaignError::Divergence {
            kind,
            seed,
            what: with_post_mortem(
                &sys,
                format!("stop reason: daisy {stop:?} vs oracle {ostop:?}"),
            ),
        });
    }
    if let Some(what) = diff_state(&sys, &ocpu, &omem, storm) {
        return Err(CampaignError::Divergence { kind, seed, what: with_post_mortem(&sys, what) });
    }
    if kind == FaultKind::CastOutThrash {
        // The perturbation is the capacity clamp itself; each forced
        // eviction it causes is one injection.
        injections = sys.vmm.stats.cast_outs;
    }
    Ok(CampaignOutcome {
        kind,
        seed,
        stop,
        boundaries,
        injections,
        degradations: sys.degradations().len(),
        interrupts_taken: sys.stats.interrupts_taken,
        native_yield_preempts: sys.native_yield_preempts(),
        stats: sys.stats,
        vmm_stats: sys.vmm.stats,
        native_stats: sys.native_stats().unwrap_or_default(),
        post_mortem: sys.take_post_mortem(),
    })
}

/// Preemption-fuzzing campaign: the inverse of the other kinds' flow.
///
/// The other campaigns run the oracle first because their perturbations
/// are architecturally invisible (or applied identically to both
/// images). A preemption campaign's perturbation — *when* each external
/// interrupt is taken — is decided by the perturbed run itself, so here
/// the perturbed system runs first with delivery recording on
/// ([`crate::system::DaisySystemBuilder::record_deliveries`]), and the
/// oracle then *replays* the recorded schedule: it single-steps the
/// interpreter and delivers each interrupt at the exact retired-
/// instruction count the translated run delivered it, asserting the
/// architected PC matches the recorded one. Out-of-band UART RX bytes
/// injected by the fuzzer are logged the same way (device clock, byte)
/// and re-injected at the same instants.
///
/// This replay contract leans on the retired-instruction clock
/// ([`RunStats::approx_base_instrs`]) being **exact**, which it is only
/// for guests free of unconditional non-linking branches — the SoC
/// firmware is written that way (see `docs/soc.md`). A guest that
/// breaks the contract fails loudly at the recorded-PC assertion.
///
/// At the end, stop reason, every architected register, all of RAM,
/// *and the device snapshot* (UART transcript included) are diffed bit
/// for bit.
fn run_preempt_campaign_on_program<I: Isa>(
    prog: &Program,
    mem_size: u32,
    oracle_budget: u64,
    cfg: &CampaignConfig,
) -> Result<CampaignOutcome, CampaignError> {
    let kind = cfg.kind;
    let seed = cfg.seed;
    let factory = cfg.bus.ok_or(CampaignError::Config {
        kind,
        what: "FaultKind::Preempt needs a bus factory: CampaignConfig::with_bus",
    })?;
    let rfi_word = I::interrupt_return_word();
    // Firmware images carry their own handler at the external vector;
    // anything else gets the storm treatment (pure-rfi handler splice)
    // so vanilla workloads remain usable for quick checks.
    let vector = I::external_vector();
    let code_end = prog.base + 4 * prog.code.len() as u32;
    let own_handler = prog.base <= vector && vector < code_end;
    let halt_at = prog.labels.get("halt").copied();

    // ---- Perturbed, recording run (first: its delivery schedule
    // defines the experiment the oracle replays). ----
    let mut rng = Rng::new(seed);
    let mut sys = DaisySystem::<I>::builder()
        .mem_size(mem_size)
        .chaining(cfg.chaining)
        .native_execution(cfg.native)
        .native_threshold(2)
        .record_deliveries(true)
        .build();
    let (bus_base, bus_len, dev) = factory();
    sys.mem.attach_bus(bus_base, bus_len, dev);
    // invariant: workload images fit their own declared mem_size.
    prog.load_into(&mut sys.mem).ok();
    sys.cpu.set_pc(prog.entry);
    if !own_handler {
        let _ = sys.mem.write_u32(vector, rfi_word);
        sys.cpu.enable_interrupts();
    }

    // Seed-driven schedule: phase-jittered single posts, occasional
    // back-to-back storms, and a bounded number of RX-byte injections.
    let jitter_period = 2 + rng.below(9);
    let mut storm_left = 0u64;
    let mut rx_budget = 4 + rng.below(13);
    let mut rx_log: Vec<(u64, u32)> = Vec::new();
    let mut injections = 0u64;
    let max_cycles = oracle_budget.saturating_mul(8).saturating_add(100_000);
    let mut degrades_left = cfg.max_degrades;
    let mut boundaries = 0u64;

    let stop = loop {
        if sys.stats.cycles() >= max_cycles {
            return Err(CampaignError::Budget { kind, seed });
        }
        if storm_left > 0 {
            storm_left -= 1;
            sys.post_external_interrupt();
            injections += 1;
        } else if rng.below(jitter_period) == 0 {
            if rng.below(6) == 0 {
                storm_left = 1 + rng.below(7);
            }
            sys.post_external_interrupt();
            injections += 1;
        }
        if rx_budget > 0 && rng.below(97) == 0 {
            rx_budget -= 1;
            let byte = 0x21 + rng.below(94) as u32; // printable ASCII
                                                    // The device clock may be stale from the previous boundary
                                                    // (a whole group has retired since): stamp it before
                                                    // injecting so the log instant is the one the oracle sees.
            let now = sys.stats.approx_base_instrs();
            sys.mem.set_bus_time(now);
            sys.mem.bus_host_inject(byte);
            rx_log.push((now, byte));
            injections += 1;
        }
        // Same ladder driver as the generic campaigns: every campaign
        // also exercises the conservative and interpret rungs.
        if degrades_left > 0
            && boundaries.is_multiple_of(7)
            && sys.degrade(sys.cpu.pc(), kind.cause()).is_some()
        {
            degrades_left -= 1;
        }
        let stepped = sys.step();
        boundaries += 1;
        match stepped {
            Ok(None) => {}
            Ok(Some(stop)) => break stop,
            Err(error) => return Err(CampaignError::Run { kind, seed, error }),
        }
        // Firmware parks at its `halt` label with interrupts disabled
        // (the interpreter has no halt instruction); detect the park
        // instead of spinning out the budget.
        if let Some(h) = halt_at {
            if sys.cpu.pc() == h && !sys.cpu.interrupts_enabled() {
                break StopReason::Halted;
            }
        }
    };
    let deliveries: Vec<(u64, u32)> = sys.delivery_log().unwrap_or(&[]).to_vec();

    // ---- Oracle: single-stepped interpreter replaying the schedule. ----
    let mut omem = Memory::new(mem_size);
    let (obase, olen, odev) = factory();
    omem.attach_bus(obase, olen, odev);
    prog.load_into(&mut omem).ok();
    let mut ocpu = <I::Cpu as GuestCpu>::new(prog.entry);
    if !own_handler {
        let _ = omem.write_u32(vector, rfi_word);
        ocpu.enable_interrupts();
    }
    let mut di = 0usize;
    let mut ri = 0usize;
    let ostop = loop {
        let now = ocpu.instret();
        if now >= oracle_budget {
            break StopReason::MaxInstrs;
        }
        omem.set_bus_time(now);
        while ri < rx_log.len() && rx_log[ri].0 == now {
            omem.bus_host_inject(rx_log[ri].1);
            ri += 1;
        }
        if di < deliveries.len() && deliveries[di].0 == now {
            let (want_now, want_pc) = deliveries[di];
            let at = ocpu.pc();
            if at != want_pc {
                return Err(CampaignError::Divergence {
                    kind,
                    seed,
                    what: with_post_mortem(
                        &sys,
                        format!(
                            "delivery {di} replayed at instret {want_now}: oracle pc \
                             {at:#010x} vs recorded pc {want_pc:#010x} (retired-instruction \
                             clock drift? preempt campaigns need a clock-exact guest, see \
                             docs/soc.md)"
                        ),
                    ),
                });
            }
            ocpu.deliver(Exception::External, at);
            di += 1;
            continue;
        }
        if let Some(h) = halt_at {
            if di == deliveries.len() && ocpu.pc() == h && !ocpu.interrupts_enabled() {
                break StopReason::Halted;
            }
        }
        let ev = match ocpu.fetch(&omem) {
            Ok(insn) => ocpu.execute(&mut omem, insn),
            Err(e) => e,
        };
        if !matches!(ev, Event::Continue) {
            if let Some(stop) = ocpu.handle_event(ev) {
                break stop;
            }
        }
    };

    if stop != ostop {
        return Err(CampaignError::Divergence {
            kind,
            seed,
            what: with_post_mortem(
                &sys,
                format!("stop reason: daisy {stop:?} vs oracle {ostop:?}"),
            ),
        });
    }
    if let Some(what) = diff_state(&sys, &ocpu, &omem, false) {
        return Err(CampaignError::Divergence { kind, seed, what: with_post_mortem(&sys, what) });
    }
    // Device diff, snapshots taken at a common instant (the two runs'
    // final clocks differ by the halt-spin length, which is
    // architecturally invisible but shifts time-derived fields like a
    // timer's line level).
    let t = sys.stats.approx_base_instrs().max(ocpu.instret());
    sys.mem.set_bus_time(t);
    omem.set_bus_time(t);
    let (dsnap, osnap) = (sys.mem.bus_snapshot(), omem.bus_snapshot());
    if dsnap != osnap {
        let what = match (&dsnap, &osnap) {
            (Some(a), Some(b)) => match a.iter().zip(b.iter()).position(|(x, y)| x != y) {
                Some(at) => format!(
                    "device snapshot at byte {at}: {:#04x} vs oracle {:#04x} (lengths {} vs {})",
                    a[at],
                    b[at],
                    a.len(),
                    b.len()
                ),
                None => format!("device snapshot lengths: {} vs oracle {}", a.len(), b.len()),
            },
            _ => "device snapshot: one side has no bus".to_owned(),
        };
        return Err(CampaignError::Divergence { kind, seed, what: with_post_mortem(&sys, what) });
    }

    Ok(CampaignOutcome {
        kind,
        seed,
        stop,
        boundaries,
        injections,
        degradations: sys.degradations().len(),
        interrupts_taken: sys.stats.interrupts_taken,
        native_yield_preempts: sys.native_yield_preempts(),
        stats: sys.stats,
        vmm_stats: sys.vmm.stats,
        native_stats: sys.native_stats().unwrap_or_default(),
        post_mortem: sys.take_post_mortem(),
    })
}

/// First architected-state mismatch between the perturbed system and
/// the oracle, if any. `skip_resume` excludes the guest's resume-point
/// bookkeeping (e.g. PowerPC SRR0/SRR1) — interrupt-storm campaigns
/// deliver interrupts the oracle never sees, and those are exactly the
/// registers an in-flight delivery is *supposed* to clobber (their
/// precision is asserted separately, per delivery, by the
/// interrupt-storm property tests).
fn diff_state<I: Isa>(
    sys: &DaisySystem<I>,
    ocpu: &I::Cpu,
    omem: &Memory,
    skip_resume: bool,
) -> Option<String> {
    if let Some(what) = sys.cpu.state_diff(ocpu, skip_resume) {
        return Some(what);
    }
    let size = sys.mem.size();
    if size != omem.size() {
        return Some(format!("mem size: {size} vs {}", omem.size()));
    }
    let (Ok(a), Ok(b)) = (sys.mem.read_bytes(0, size), omem.read_bytes(0, size)) else {
        // invariant: reading all of a memory's own size cannot fault.
        return Some("memory unreadable".to_owned());
    };
    if let Some(at) = a.iter().zip(b.iter()).position(|(x, y)| x != y) {
        return Some(format!("memory at {at:#x}: {:#04x} vs {:#04x}", a[at], b[at]));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_bounded() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        for n in 1..50 {
            assert!(a.below(n) < n);
        }
    }

    #[test]
    fn invalid_words_really_are_invalid() {
        let mut rng = Rng::new(1);
        for _ in 0..32 {
            let w = invalid_word::<daisy_ppc::PpcIsa>(&mut rng);
            assert!(matches!(daisy_ppc::decode(w), daisy_ppc::Insn::Invalid(_)), "{w:#x}");
        }
    }

    #[test]
    fn fault_kind_names_round_trip() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::by_name(k.name()), Some(k));
        }
        // Preempt is deliberately outside ALL but must still parse.
        assert!(!FaultKind::ALL.contains(&FaultKind::Preempt));
        assert_eq!(FaultKind::by_name("preempt"), Some(FaultKind::Preempt));
        assert_eq!(FaultKind::by_name("nope"), None);
    }

    /// A preempt campaign without a bus factory is a typed
    /// configuration error, not a panic (the core crate's no-panic
    /// policy covers harness misuse too).
    #[test]
    fn preempt_without_bus_is_a_config_error() {
        let prog = Program {
            base: 0x1000,
            entry: 0x1000,
            code: vec![0x4400_0002], // sc
            data: Vec::new(),
            labels: std::collections::HashMap::new(),
        };
        let cfg = CampaignConfig::new(FaultKind::Preempt, 0);
        let err =
            run_campaign_on_program::<daisy_ppc::PpcIsa>(&prog, 0x1_0000, 1_000, &cfg).unwrap_err();
        assert!(matches!(err, CampaignError::Config { .. }), "{err}");
    }
}
