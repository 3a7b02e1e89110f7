//! The native host-code tier: dispatch policy and statistics
//! reconciliation around the `daisy-jit` compiler.
//!
//! The top rung of the execution ladder. Hot [`GroupCode`]s are
//! lowered to x86-64 (see `daisy_jit::lower`) and entered directly;
//! the compiled code mirrors every [`RunStats`] counter the packed
//! engine would have bumped, so a native dispatch is *observationally
//! identical* to a packed one — same architected state, same
//! statistics, same trace stream. `tests/prop_native.rs` pins that
//! equivalence over the full workload suite.
//!
//! A translation is lowered on the dispatch that brings its own
//! dispatch counter ([`GroupCode::dispatches`]) to the threshold; its
//! compile state lives on the translation too, so a retranslation
//! starts cold.
//!
//! Five mechanisms keep the tier honest:
//!
//! * **Refusal** — groups whose shape falls outside what the lowerer
//!   can reproduce (pathological condition depth) are never compiled;
//!   they stay on the packed engine forever. A full arena only flushes
//!   the tier, and the payback test at that flush doubles the threshold
//!   when the compiles it retires did not repay, so a hot set larger
//!   than the arena refills it once per doubling of its counts, not
//!   every round. Trap checks and load-verify commits lower to
//!   templates too, so the tier refuses almost nothing.
//! * **Bail-out** — compiled code stops *before* any side effect it
//!   cannot reproduce exactly (a faulting access, a store to a
//!   translated page). The dispatcher then copies the run's
//!   branch-direction log into the packed engine's path trail (the two
//!   share one format) and resumes the same group mid-node on the
//!   packed engine ([`crate::engine::run_group_resume`]), which
//!   continues the trail, so §3.5 precise-exception recovery works
//!   unchanged.
//! * **Probe replay** — under a finite cache model, compiled code
//!   logs the cache probes the packed engine would make (each VLIW's
//!   fetch, then each completed load or store in parcel order), and
//!   [`NativeTier::execute`] replays the log through the
//!   [`Hierarchy`] before it returns, so stall cycles and miss counts
//!   match packed execution exactly. A probe of the line its set of
//!   the side's private level 0 used last changes no cache state, so
//!   compiled code does not log it: it checks each probe against the
//!   tier's copy of that level's per-set line table, filled from the
//!   model at each run entry, and the replay derives the left-out hits
//!   from the run's VLIW, load and store counts. After the replay the
//!   copy equals the model's table again (a debug assertion checks
//!   it). On a bail the replay finishes before the packed resume makes
//!   its own probes.
//! * **Severing** — a compiled group lives in its translation's
//!   [`GroupCode`] and dies with it (invalidation, cast-out, alias
//!   retranslation); its alive byte then sends every patched jump and
//!   inline IBTC way into it back to the dispatcher, as a weak-`Rc`
//!   chain link severs. The arena gives bytes back only wholesale, so
//!   the tier flushes at the first cold dispatch after a compiled group
//!   died, on a full arena, and at every ladder step and explicit sever.
//! * **Payback** — a compile must repay its cost, the §5.1 break-even
//!   applied to the second tier. At each flush the tier compares the
//!   VLIWs it ran natively since the previous flush with
//!   [`PAYBACK_VLIWS`] per compile made in that time. Compiles that died
//!   unrepaid double the threshold in force, with no cap: dispatch
//!   counts survive a flush, so under a cap every translation
//!   dispatched past it would recompile after each flush. A flush that
//!   finds the compiles repaid restores the builder's threshold, and
//!   one with no compile since the previous flush leaves the threshold
//!   as it is. Under churn that kills every compiled group within a
//!   few hundred VLIWs (cast-outs, or a chain sever at every boundary)
//!   the tier thus stops compiling, and groups that stay live long
//!   enough still compile.

use crate::engine::{EngineScratch, GroupCode, GroupExit, ResumePoint};
use crate::stats::RunStats;
use crate::trace::{FlightRecorder, TraceEvent};
use daisy_cachesim::{Hierarchy, Side};
use daisy_isa::mem::Memory;
use daisy_jit::arena::AccessLog;
use daisy_jit::ctx::{
    EXIT_BAIL, EXIT_BRANCH, EXIT_INDIRECT, EXIT_INTERP, PROBE_FETCH, PROBE_LOAD, VIA_CTR, VIA_LR,
};
pub use daisy_jit::lower::Refusal;
use daisy_jit::{
    ctx::JitCtx, CompileOpts, CompiledGroup, Jit, ACCESS_LOG_VLIW_BUDGET, DEFAULT_ARENA_BYTES,
    LOG_CAPACITY,
};
use daisy_vliw::op::MemWidth;
use daisy_vliw::reg::NUM_REGS;
use daisy_vliw::regfile::RegFile;
use daisy_vliw::tree::IndirectVia;
use std::collections::HashMap;
use std::rc::{Rc, Weak};

/// Default native threshold: a translation is lowered to native code on
/// its eighth dispatch.
pub const DEFAULT_NATIVE_THRESHOLD: u64 = 8;

/// Native VLIWs one compile must buy before the flush that retires it
/// for the compile to have paid for itself (§5.1's break-even,
/// `t = r·i·(1/PR − 1/PV)`, with the second tier's costs). Measured on a
/// 2-vCPU x86-64 VM with compress's groups, when each flush also
/// rewrote every patched edge: one compile lowers about 4.4 KB of code
/// in 15–20 µs, and each compile, link and flush cycle made 7
/// `mprotect` calls at 2–3 µs each, so a cycle cost 34–41 µs. The
/// cycle's cost without that rewrite is unmeasured. Each VLIW run
/// natively instead of on the packed engine saves 12–16 ns (about
/// 18.9 ns packed, 3–7 native). So a compile repays after about
/// 2,100–3,400 native VLIWs. The decisions are insensitive to the exact
/// value: on the nine workloads, under every configuration
/// `BENCH_health.json` pins, any constant from 30 to 100,000 gives the
/// same back-offs (docs/performance.md, "Compiles that repay
/// themselves").
pub const PAYBACK_VLIWS: u64 = 3_000;

/// Counters of the native tier itself (compilation and dispatch
/// behaviour; the *architectural* counters go straight into
/// [`RunStats`], where they are indistinguishable from packed
/// execution's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NativeStats {
    /// Groups successfully lowered to host code.
    pub compiles: u64,
    /// Groups refused by the lowerer (see `daisy_jit::lower::Refusal`).
    pub refusals: u64,
    /// Dispatches that entered native code.
    pub dispatches: u64,
    /// Group-to-group transfers that stayed inside native code
    /// (patched chain edges followed without a dispatcher boundary).
    pub chained: u64,
    /// Native runs that bailed back to the packed engine mid-group.
    pub bails: u64,
    /// Chain edges patched into direct jumps.
    pub edge_patches: u64,
    /// Flushes: every compiled group retired and the code arena
    /// reclaimed (after a compiled group died, on a full arena, at a
    /// ladder step or an explicit sever).
    pub flushes: u64,
    /// Flushes at which the compiles made since the previous flush had
    /// not repaid (fewer than [`PAYBACK_VLIWS`] native VLIWs each), so
    /// the threshold in force doubled.
    pub backoffs: u64,
    /// Tree instructions executed natively (numerator of native
    /// coverage; the denominator is [`RunStats::vliws_executed`]).
    pub vliws_native: u64,
    /// Refusals broken down by [`Refusal`] variant (index via
    /// [`Refusal::index`]).
    pub refusal_histogram: [u64; Refusal::COUNT],
    /// Indirect exits resolved by a group's inline indirect-branch
    /// target cache without a dispatcher boundary. Architecturally
    /// these count as icache hits + chained dispatches in [`RunStats`];
    /// this tier-side counter isolates the inline mechanism.
    pub ibtc_hits: u64,
}

/// Compile state of one translation, kept on its [`GroupCode`] so it
/// lives and dies with the translation it describes.
#[derive(Debug)]
pub(crate) enum NativeSlot {
    /// Not compiled: below the threshold in force, refused for lack of
    /// arena space, or retired by a flush. It compiles on the first
    /// dispatch that finds its count at the threshold in force, which a
    /// flush may have raised past it.
    Cold,
    /// Lowered and installed.
    Compiled(Rc<CompiledGroup>),
    /// Permanently outside the template set.
    Refused,
}

/// The compiled body of `code`, if it has one.
fn compiled(code: &GroupCode) -> Option<Rc<CompiledGroup>> {
    match &*code.native.borrow() {
        NativeSlot::Compiled(cg) => Some(Rc::clone(cg)),
        _ => None,
    }
}

/// Registry row resolving a compiled group id (`JitCtx::cur_group`)
/// back to its translation.
struct RegEntry {
    code: Weak<GroupCode>,
    compiled: Weak<CompiledGroup>,
}

/// Outcome of one native dispatch.
pub enum NativeRun {
    /// The run completed natively; `exit` is exactly what the packed
    /// engine would have returned from the *final* group executed.
    Done {
        /// The group exit, packed-engine-identical.
        exit: GroupExit,
        /// Translation of the group that produced the exit (chained
        /// runs may end groups away from the dispatched one).
        code: Rc<GroupCode>,
    },
    /// The run bailed pre-side-effect; the caller must resume `code`
    /// on the packed engine at `point` (scratch already loaded).
    Resume {
        /// Translation of the group that bailed.
        code: Rc<GroupCode>,
        /// Where the packed engine re-enters.
        point: ResumePoint,
    },
}

/// The native tier: compiler, code cache, the registry of compiled
/// groups, and the dispatch context block. Warm-up counts and compile
/// state live on each [`GroupCode`].
pub struct NativeTier {
    jit: Jit,
    /// The dispatch of a translation on which it is lowered (min 1):
    /// its first `threshold - 1` dispatches run on the packed engine.
    /// Counted by [`GroupCode::dispatches`]. The threshold in force:
    /// `base_threshold` while compiles repay, doubled at each flush
    /// that finds they did not.
    threshold: u64,
    /// The builder's threshold (min 1).
    base_threshold: u64,
    /// [`NativeTier::stats`] as the last flush left them: the payback
    /// test reads its counts as differences from this snapshot.
    at_flush: NativeStats,
    registry: HashMap<u32, RegEntry>,
    ctx: JitCtx,
    log: Vec<u8>,
    /// Cache access log when the cache model is finite; `None` under
    /// an infinite cache, where groups compile without log stores and
    /// nothing is replayed.
    access_log: Option<AccessLog>,
    /// The line shifts and set masks of the cache model's private
    /// level 0s, compiled into every group with its fetch addresses: a
    /// probe of the line its set used last is not logged. A side
    /// without a private level 0 has no shift and logs every probe.
    l0: CompileOpts<'static>,
    /// Per side (instruction, data): the tier's copy of that level's
    /// line table ([`Hierarchy::l0_lines`]), which compiled code reads
    /// and updates during a run. Empty for a side without a private
    /// level 0.
    lines: [Vec<u64>; 2],
    /// Bypassed-load pending table: [`NUM_REGS`] rows of 32 bytes
    /// (`{gen: u64, ea: u32, value: u32, meta: u32, pad}`), written by
    /// the bypassed-load template and read by the verify-commit
    /// template. `u64` elements so the generation word is aligned; the
    /// prologue's `pending_gen` bump invalidates all rows at once.
    pending: Vec<u64>,
    /// Native-tier counters.
    pub stats: NativeStats,
}

impl std::fmt::Debug for NativeTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NativeTier")
            .field("threshold", &self.threshold)
            .field("compiled", &self.registry.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// The cache model's two sides, in the order of [`NativeTier::lines`].
const SIDES: [Side; 2] = [Side::Instr, Side::Data];

/// Bytes per pending-table row (must match the lowerer's layout).
const PENDING_ROW_BYTES: usize = 32;

// The inline IBTC reuses the dispatcher icache's way function, so the
// two must agree on geometry (see `GroupCode::icache_way`).
const _: () = assert!(daisy_jit::IBTC_WAYS == crate::engine::ICACHE_WAYS);

impl NativeTier {
    /// Creates the tier, mapping the code arena. A translation is
    /// lowered on its `threshold`-th dispatch (clamped to at least 1).
    /// `None` when the host cannot execute emitted code
    /// (non-x86-64/Linux) — callers then run everything on the packed
    /// engine. A finite `cache` makes every compiled group log its
    /// cache probes for replay; the system must then run the tier
    /// against that same cache model.
    pub fn new(threshold: u64, cache: &Hierarchy) -> Option<NativeTier> {
        NativeTier::with_arena(threshold, cache, DEFAULT_ARENA_BYTES)
    }

    /// [`NativeTier::new`] with a code arena of `arena_bytes`.
    fn with_arena(threshold: u64, cache: &Hierarchy, arena_bytes: usize) -> Option<NativeTier> {
        let threshold = threshold.max(1);
        Some(NativeTier {
            jit: Jit::new(arena_bytes)?,
            threshold,
            base_threshold: threshold,
            at_flush: NativeStats::default(),
            registry: HashMap::new(),
            ctx: JitCtx::new(),
            log: vec![0u8; LOG_CAPACITY],
            access_log: if cache.is_infinite() { None } else { Some(AccessLog::new()?) },
            l0: CompileOpts {
                fetch_addrs: None,
                instr_line_shift: cache.l0_line_shift(Side::Instr),
                instr_set_mask: cache.l0_set_mask(Side::Instr).unwrap_or(0),
                data_line_shift: cache.l0_line_shift(Side::Data),
                data_set_mask: cache.l0_set_mask(Side::Data).unwrap_or(0),
            },
            lines: SIDES.map(|side| cache.l0_lines(side).to_vec()),
            pending: vec![0u64; NUM_REGS * PENDING_ROW_BYTES / 8],
            stats: NativeStats::default(),
        })
    }

    /// Retires every compiled group (each dies with its slot, taking
    /// its patched jumps and inline IBTC ways along, and its alive byte
    /// cuts those pointing into it) and reclaims the code arena.
    /// Dispatch counts and refusals survive — they describe the
    /// *translations* — so a still-live hot group recompiles on its
    /// next dispatch instead of re-warming from zero. Then applies the
    /// payback test (see the module doc) to the compiles the flush
    /// retired.
    pub fn flush(&mut self) {
        for code in self.registry.values().filter_map(|row| row.code.upgrade()) {
            let mut slot = code.native.borrow_mut();
            if matches!(*slot, NativeSlot::Compiled(_)) {
                *slot = NativeSlot::Cold;
            }
        }
        // Rows of retired groups can never resolve again. With no
        // group left alive, the arena rewinds (a caller still holding
        // a group keeps both its row and the space until a later
        // flush).
        self.registry.retain(|_, row| row.compiled.strong_count() > 0);
        self.jit.reclaim();
        // The payback test (see the module doc). A flush with no
        // compile since the previous one has nothing to judge.
        let compiles = self.stats.compiles - self.at_flush.compiles;
        let ran = self.stats.vliws_native - self.at_flush.vliws_native;
        if compiles > 0 {
            if ran >= compiles * PAYBACK_VLIWS {
                self.threshold = self.base_threshold;
            } else {
                self.threshold = self.threshold.saturating_mul(2);
                self.stats.backoffs += 1;
            }
        }
        self.stats.flushes += 1;
        self.at_flush = self.stats;
    }

    /// Looks up (or performs, once the translation's dispatch count
    /// reaches the threshold) the compilation of `code`. Returns the
    /// compiled group when this dispatch should run natively; `None`
    /// keeps it on the packed engine. A cold `code` first flushes the
    /// tier if a compiled group has died since the last flush, so dead
    /// code's bytes come back before anything new is compiled.
    pub fn prepare(
        &mut self,
        code: &Rc<GroupCode>,
        page_size: u32,
        mem: &mut Memory,
        tracer: &mut FlightRecorder,
    ) -> Option<Rc<CompiledGroup>> {
        match &*code.native.borrow() {
            NativeSlot::Compiled(cg) => return Some(Rc::clone(cg)),
            NativeSlot::Refused => return None,
            NativeSlot::Cold => {}
        }
        // Every live compiled group has a row, so a dead row exists
        // exactly when the rows outnumber the live groups.
        if self.registry.len() > self.jit.live_groups() {
            self.flush();
        }
        if code.dispatches() < self.threshold {
            return None;
        }
        let entry = code.entry;
        let (_, mem_len, _) = mem.jit_view();
        let opts = CompileOpts {
            fetch_addrs: self.access_log.is_some().then_some(&code.vliw_addrs[..]),
            ..self.l0
        };
        match self.jit.compile(&code.packed, entry, page_size, mem_len, Memory::page_shift(), opts)
        {
            Ok(cg) => {
                self.stats.compiles += 1;
                self.registry.insert(
                    cg.group_id,
                    RegEntry { code: Rc::downgrade(code), compiled: Rc::downgrade(&cg) },
                );
                tracer.emit(|| TraceEvent::NativeCompile { entry, outcome: "ok" });
                *code.native.borrow_mut() = NativeSlot::Compiled(Rc::clone(&cg));
                Some(cg)
            }
            Err(r) => {
                self.stats.refusals += 1;
                self.stats.refusal_histogram[r.index()] += 1;
                tracer.emit(|| TraceEvent::NativeCompile { entry, outcome: r.as_str() });
                if r == Refusal::ArenaFull {
                    self.flush();
                } else {
                    *code.native.borrow_mut() = NativeSlot::Refused;
                }
                None
            }
        }
    }

    /// Patches the chain edge `from --slot--> to` into a direct native
    /// jump when both ends are compiled. Called at the dispatcher
    /// boundary that just followed the corresponding [`GroupCode`]
    /// link, so a patched edge always mirrors an installed link.
    pub fn try_patch(&mut self, from: &Rc<GroupCode>, slot: usize, to: &Rc<GroupCode>) {
        let (Some(fc), Some(tc)) = (compiled(from), compiled(to)) else {
            return;
        };
        self.stats.edge_patches += self.jit.link(&fc, slot as u32, &tc) as u64;
    }

    /// Mirrors a dispatcher indirect-icache event into `from`'s inline
    /// IBTC. Called whenever the dispatcher hits or installs way `way`
    /// of `from`'s icache for indirect target `target`: when both ends
    /// are compiled the way is installed pointing at `to`'s native
    /// entry; otherwise that way is invalidated — the dispatcher just
    /// (re)wrote it, so whatever the inline cache held is stale. The
    /// invalidate half is mandatory for correctness: way overwrites
    /// must never leave an old native entry reachable under a new tag.
    pub fn icache_sync(
        &mut self,
        from: &Rc<GroupCode>,
        target: u32,
        way: usize,
        to: Option<&Rc<GroupCode>>,
    ) {
        let Some(fc) = compiled(from) else { return };
        let Some(tbl) = fc.ibtc() else { return };
        match to.and_then(|t| compiled(t)) {
            Some(tc) => tbl.install(way, target, tc.entry_addr(), tc.alive_addr()),
            None => tbl.invalidate(way),
        }
    }

    /// Runs `cg` (the compilation of `code`) natively and reconciles
    /// the counter deltas into `stats`, replaying the run's cache
    /// probes through `cache` when the model is finite. On a bail-out,
    /// loads `scratch` with the path trail up to the bail point and
    /// returns [`NativeRun::Resume`] for the packed engine to finish.
    ///
    /// `chain_budget` is the run's chain budget: once this many tree
    /// instructions have run, chain stubs and inline indirect-cache
    /// hits return to the dispatcher instead of following patched
    /// edges, through the same exit record an unpatched edge writes. A
    /// budget of 0 therefore ends every run in the group it entered.
    /// It is capped at [`ACCESS_LOG_VLIW_BUDGET`], which bounds the
    /// access log under a finite cache.
    #[allow(clippy::too_many_arguments)]
    pub fn execute(
        &mut self,
        cg: &CompiledGroup,
        code: &Rc<GroupCode>,
        rf: &mut RegFile,
        mem: &mut Memory,
        cache: &mut Hierarchy,
        stats: &mut RunStats,
        scratch: &mut EngineScratch,
        chain_budget: u64,
    ) -> NativeRun {
        let (mem_base, _len, translated) = mem.jit_view();
        self.ctx.reset_counters();
        let (vals, _tags) = rf.arrays_mut();
        self.ctx.vals = vals.as_mut_ptr();
        self.ctx.mem_base = mem_base;
        self.ctx.translated_base = translated as *const u8;
        self.ctx.log_base = self.log.as_mut_ptr();
        self.ctx.pending_base = self.pending.as_mut_ptr() as *mut u8;
        // Returning at a stub leaves every statistic unchanged.
        self.ctx.budget_vliws = chain_budget.min(ACCESS_LOG_VLIW_BUDGET);
        self.ctx.access_base =
            self.access_log.as_ref().map_or(std::ptr::null_mut(), |log| log.base());
        for (shadow, side) in self.lines.iter_mut().zip(SIDES) {
            shadow.copy_from_slice(cache.l0_lines(side));
        }
        let [fetch_lines, data_lines] = &mut self.lines;
        self.ctx.fetch_lines = fetch_lines.as_mut_ptr();
        self.ctx.data_lines = data_lines.as_mut_ptr();
        // SAFETY: every pointer set above is valid for the run — vals
        // is the register file's fixed array, mem/translated never
        // reallocate, the log holds LOG_CAPACITY bytes, the access log
        // (when groups log) ACCESS_LOG_CAPACITY entries under the
        // budget just set, each line table one entry per set of the
        // geometry compiled into every group, and `cg` was compiled by
        // this tier's own `Jit` into its sealed arena.
        unsafe { self.jit.run(&mut self.ctx, cg) };
        self.replay_probes(cache, stats);

        stats.vliws_executed += self.ctx.vliws;
        stats.base_instrs += self.ctx.base_instrs;
        stats.loads += self.ctx.loads;
        stats.stores += self.ctx.stores;
        stats.chain.chained_dispatches += self.ctx.chained_dispatches;
        stats.chain.icache_hits += self.ctx.icache_hits;
        stats.onpage_dispatches += self.ctx.onpage_dispatches;
        stats.crosspage.direct += self.ctx.crosspage_direct;
        stats.crosspage.via_lr += self.ctx.crosspage_via_lr;
        stats.crosspage.via_ctr += self.ctx.crosspage_via_ctr;
        for (h, d) in stats.issue_histogram.iter_mut().zip(self.ctx.histogram.iter()) {
            *h += d;
        }
        self.stats.dispatches += 1;
        self.stats.chained += self.ctx.chained_dispatches;
        self.stats.ibtc_hits += self.ctx.icache_hits;
        self.stats.vliws_native += self.ctx.vliws;

        // Resolve the group that produced the exit (chained runs end
        // away from the dispatched group). Only the dispatched group,
        // whose `code` we hold, can lack a live registry row.
        let row = self.registry.get(&self.ctx.cur_group);
        let final_cg = row.and_then(|row| row.compiled.upgrade());
        let final_code = row.and_then(|row| row.code.upgrade()).unwrap_or_else(|| Rc::clone(code));

        match self.ctx.exit_kind {
            EXIT_INDIRECT => NativeRun::Done {
                exit: GroupExit::Indirect {
                    target: self.ctx.exit_a,
                    via: match self.ctx.exit_b {
                        VIA_LR => IndirectVia::Lr,
                        VIA_CTR => IndirectVia::Ctr,
                        via => unreachable!("indirect exit with via {via}"),
                    },
                },
                code: final_code,
            },
            EXIT_INTERP => NativeRun::Done {
                exit: GroupExit::Interp { addr: self.ctx.exit_a },
                code: final_code,
            },
            EXIT_BAIL => {
                self.stats.bails += 1;
                let bail_cg = match final_cg {
                    Some(c) => c,
                    // The dispatched group itself (never chained-into),
                    // whose compilation the caller holds.
                    None => match compiled(&final_code) {
                        Some(c) => c,
                        None => unreachable!("bailing group's compilation is live during its run"),
                    },
                };
                let bail = bail_cg.bails[self.ctx.exit_b as usize];
                self.copy_trail(scratch);
                // Rehydrate bypassed loads the bailing group issued
                // before the bail: rows stamped with the current
                // generation are live, and the packed resume's verify
                // commits must see them.
                let words = PENDING_ROW_BYTES / 8;
                for i in 0..NUM_REGS {
                    let row = &self.pending[i * words..(i + 1) * words];
                    if row[0] == self.ctx.pending_gen {
                        let meta = row[2] as u32;
                        let width = match meta & 3 {
                            0 => MemWidth::Byte,
                            1 => MemWidth::Half,
                            _ => MemWidth::Word,
                        };
                        scratch.set_pending(
                            i,
                            row[1] as u32,
                            width,
                            meta & 4 != 0,
                            (row[1] >> 32) as u32,
                        );
                    }
                }
                NativeRun::Resume {
                    point: ResumePoint {
                        vliw: final_code.packed.node_vliw(bail.node as usize) as usize,
                        node: bail.node as usize,
                        op: bail.op as usize,
                        parcels: bail.parcels as usize,
                        last_base: self.ctx.last_base,
                    },
                    code: final_code,
                }
            }
            EXIT_BRANCH => NativeRun::Done {
                exit: GroupExit::Branch { target: self.ctx.exit_a, slot: self.ctx.exit_b as usize },
                code: final_code,
            },
            kind => unreachable!("native exit with kind {kind}"),
        }
    }

    /// Resets `scratch` and loads its path trail with the last run's
    /// branch-direction log: the trail of the run's final group entry,
    /// up to the bail site or the exit (the log restarts at every group
    /// entry, so it describes a whole run only when no patched edge or
    /// inline indirect-target way was followed).
    pub(crate) fn copy_trail(&self, scratch: &mut EngineScratch) {
        let len = (self.ctx.log_end as usize).saturating_sub(self.log.as_ptr() as usize);
        scratch.reset();
        scratch.dirs.extend_from_slice(&self.log[..len.min(self.log.len())]);
    }

    /// Replays the run's access log through `cache`, in the packed
    /// engine's probe order, then the level-0 hits compiled code left
    /// out of the log, adding the stall cycles and level-0 miss counts
    /// the packed engine would have added. Every VLIW, load and store
    /// of the run made one probe, so the hits are the run's `vliws`
    /// less its logged fetches, and its `loads + stores` less its
    /// logged data probes. They can come last: each only counts a
    /// level-0 access, which no other probe observes. A no-op under an
    /// infinite cache (the log is empty and nothing was written).
    fn replay_probes(&self, cache: &mut Hierarchy, stats: &mut RunStats) {
        let Some(log) = &self.access_log else { return };
        let written = log.written(self.ctx.access_end);
        let mut fetches = 0;
        for &e in written {
            let addr = e as u32;
            match (e >> 32) as u32 {
                PROBE_FETCH => {
                    fetches += 1;
                    stats.stall_cycles += u64::from(cache.access_instr(addr).penalty);
                }
                kind => {
                    let acc = cache.access_data(addr);
                    if acc.l0_miss {
                        if kind == PROBE_LOAD {
                            stats.load_l0_misses += 1;
                        } else {
                            stats.store_l0_misses += 1;
                        }
                    }
                    stats.stall_cycles += u64::from(acc.penalty);
                }
            }
        }
        let data = written.len() as u64 - fetches;
        stats.stall_cycles += cache.add_l0_mru_hits(Side::Instr, self.ctx.vliws - fetches)
            + cache.add_l0_mru_hits(Side::Data, self.ctx.loads + self.ctx.stores - data);
        // Compiled code updated its copy of each line table exactly as
        // the replay updated the model's.
        for (shadow, side) in self.lines.iter().zip(SIDES) {
            debug_assert_eq!(shadow[..], *cache.l0_lines(side), "{side:?} line table");
        }
    }
}

#[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
mod tests {
    use super::*;
    use daisy_vliw::op::{OpKind, Operation};
    use daisy_vliw::reg::Reg;
    use daisy_vliw::tree::{Exit, Group, ROOT};

    /// A one-VLIW group at `entry` that loads a constant and leaves.
    fn code(entry: u32) -> Rc<GroupCode> {
        let mut g = Group::new(entry);
        g.vliws[0].add_op(ROOT, Operation::new(OpKind::Li, entry).dst(Reg(1)).with_imm(7));
        g.vliws[0].seal(ROOT, Exit::Branch { target: entry + 0x100 });
        Rc::new(GroupCode::new(&g, vec![entry], g.code_bytes()))
    }

    #[test]
    fn arena_full_flushes_and_the_entry_compiles_on_the_reclaimed_bytes() {
        let mut tier =
            NativeTier::with_arena(1, &Hierarchy::infinite(), 2 * 4096).expect("native host");
        let (mut mem, mut tracer) = (Memory::new(0x10000), FlightRecorder::default());
        let mut prepare = |tier: &mut NativeTier, c: &Rc<GroupCode>| {
            c.count_dispatch();
            tier.prepare(c, 4096, &mut mem, &mut tracer)
        };
        let codes: Vec<_> = (0..64).map(|i| code(0x1000 + 0x100 * i)).collect();
        let mut first_addr = None;
        let starved = codes
            .iter()
            .find(|c| match prepare(&mut tier, c) {
                Some(cg) => {
                    first_addr.get_or_insert(cg.entry_addr());
                    false
                }
                None => true,
            })
            .expect("64 groups overflow a two-page arena");
        assert_eq!(tier.stats.refusal_histogram[Refusal::ArenaFull.index()], 1);
        assert_eq!(tier.stats.flushes, 1, "the refusal flushes the tier");
        assert!(tier.registry.is_empty(), "rows of retired groups are pruned");
        let compiles = tier.stats.compiles;
        // The flush found the compiles unrepaid and doubled the
        // threshold to 2, which the entry's second dispatch meets.
        let cg = prepare(&mut tier, starved).expect("compiles after the reclaim");
        assert_eq!(Some(cg.entry_addr()), first_addr, "lands on the reclaimed bytes");
        assert_eq!(tier.stats.compiles, compiles + 1);
        assert_eq!(tier.registry.len(), 1);
        drop(cg);
        // 56 of the 64 fit. Each refusal flushes, and the flush finds
        // the compiles unrepaid and doubles the threshold, so the set
        // refills once per doubling of the counts: 11 flushes and 616
        // compiles in 2,000 rounds.
        for _ in 1..2_000 {
            codes.iter().for_each(|c| drop(prepare(&mut tier, c)));
        }
        assert!(tier.stats.flushes <= 12, "{:?}", tier.stats);
        assert!(tier.stats.compiles <= 64 * 12, "{:?}", tier.stats);
    }

    #[test]
    fn a_dead_group_flushes_the_tier_at_the_next_cold_dispatch() {
        let mut tier = NativeTier::new(1, &Hierarchy::infinite()).expect("native host");
        let (mut mem, mut tracer) = (Memory::new(0x10000), FlightRecorder::default());
        let mut prepare = |tier: &mut NativeTier, c: &Rc<GroupCode>| {
            c.count_dispatch();
            tier.prepare(c, 4096, &mut mem, &mut tracer)
        };
        let (a, b, c) = (code(0x1000), code(0x1100), code(0x1200));
        let a_addr = prepare(&mut tier, &a).expect("compiles").entry_addr();
        prepare(&mut tier, &b).expect("compiles");
        // A compiled group in use keeps its bytes: no flush.
        assert!(prepare(&mut tier, &b).is_some());
        assert_eq!(tier.stats.flushes, 0);
        // The next cold dispatch after `a` dies flushes; the flush
        // doubles the threshold to 2, which `c`'s two dispatches meet.
        drop(a);
        c.count_dispatch();
        let cg = prepare(&mut tier, &c).expect("compiles after the flush");
        assert_eq!(tier.stats.flushes, 1);
        assert_eq!(cg.entry_addr(), a_addr, "lands on the reclaimed bytes");
        assert!(matches!(*b.native.borrow(), NativeSlot::Cold), "the flush retired b");
    }

    #[test]
    fn unrepaid_compiles_double_the_threshold_until_an_epoch_repays() {
        let mut tier = NativeTier::new(1, &Hierarchy::infinite()).expect("native host");
        let (mut mem, mut tracer) = (Memory::new(0x10000), FlightRecorder::default());
        let c = code(0x1000);
        // Dispatches the translation until it compiles.
        let mut warm_up = |tier: &mut NativeTier| {
            c.count_dispatch();
            while tier.prepare(&c, 4096, &mut mem, &mut tracer).is_none() {
                c.count_dispatch();
            }
        };
        // Each flush retires one compile that ran no native VLIW. Counts
        // survive a flush, so each doubling outruns them again, with no
        // cap: the twelfth compile waits for dispatch 2,048.
        for backoffs in 1..=12 {
            warm_up(&mut tier);
            tier.flush();
            assert_eq!(tier.stats.backoffs, backoffs);
            assert_eq!(tier.threshold, 1 << backoffs);
        }
        assert_eq!(c.dispatches(), 1 << 11);
        // A compile that ran its payback natively restores the builder's
        // threshold at the next flush.
        warm_up(&mut tier);
        tier.stats.vliws_native += PAYBACK_VLIWS;
        tier.flush();
        assert_eq!(tier.threshold, 1);
        assert_eq!(tier.stats.backoffs, 12);
    }

    #[test]
    fn a_flush_with_no_compile_leaves_the_threshold_in_force() {
        let mut tier = NativeTier::new(1, &Hierarchy::infinite()).expect("native host");
        let (mut mem, mut tracer) = (Memory::new(0x10000), FlightRecorder::default());
        let c = code(0x1000);
        c.count_dispatch();
        assert!(tier.prepare(&c, 4096, &mut mem, &mut tracer).is_some());
        tier.flush();
        assert_eq!((tier.threshold, tier.stats.backoffs), (2, 1), "an unrepaid compile backs off");
        // Nothing compiled since: the next flushes judge nothing.
        tier.flush();
        tier.stats.vliws_native += PAYBACK_VLIWS;
        tier.flush();
        assert_eq!((tier.threshold, tier.stats.backoffs), (2, 1));
        assert_eq!(tier.stats.flushes, 3);
    }
}
