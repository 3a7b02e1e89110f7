//! The Pathlist scheduling algorithm (paper Chapter 2 and Appendix A).
//!
//! One greedy pass over the binary: each base instruction is decoded,
//! converted to RISC primitives, and each primitive is placed into the
//! earliest tree instruction on the current path where its operands are
//! available and resources remain. Results computed before the last
//! VLIW on the path go to *non-architected rename registers* and are
//! copied ("committed") to their architected homes in the last VLIW, so
//! architected state always changes in original program order — the
//! basis of software-only precise exceptions.
//!
//! The translator maintains a list of paths ordered by probability
//! (the `Pathlist`); conditional branches clone the current path; paths
//! close at the paper's stopping points (cross-page and indirect
//! branches, over-visited join points, window exhaustion).
//!
//! # Translation cost
//!
//! Translation is the paper's headline overhead (§5.1), so the
//! scheduler hashes and allocates nothing it does not hand back:
//!
//! - Join-point visit counts and the branch-target set are one dense
//!   array indexed by word offset in the entry's page (over the whole
//!   memory image under [`TranslatorConfig::whole_program`]). Each
//!   translation takes a new generation number instead of clearing it.
//! - Per-thread scratch buffers (the Pathlist, recycled closed paths,
//!   the per-VLIW rename masks, the suffix table of free renames and
//!   the converted primitives of the current instruction) move from
//!   one translation to the next. They carry capacity only: each
//!   translation resets them, so a group is a function of the
//!   configuration, memory, entry and hints alone, and nothing is
//!   memoized.
//! - A fork copies its parent into a recycled path's buffers. Paths do
//!   not share prefixes: a fork still copies one rename map per VLIW of
//!   the path, a few hundred bytes.
//!
//! What a translation still allocates is its output: the tree's VLIWs,
//! nodes and parcel lists.

use daisy_isa::convert::{CondSpec, Converted, Flow};
use daisy_isa::mem::Memory;
use daisy_isa::Isa;
use daisy_vliw::machine::MachineConfig;
use daisy_vliw::op::{MemWidth, OpKind, Operation};
use daisy_vliw::reg::{Reg, RenameMask, NUM_REGS};
use daisy_vliw::tree::{Cond, Exit, Group, IndirectVia, NodeId, NodeKind, VliwId, ROOT};
use std::cell::Cell;
use std::collections::HashMap;

/// Tuning knobs of the dynamic translator.
#[derive(Debug, Clone)]
pub struct TranslatorConfig {
    /// Target machine resources.
    pub machine: MachineConfig,
    /// Translation unit size in bytes (the paper sweeps 128..16384).
    pub page_size: u32,
    /// Maximum base instructions scheduled along one path (the paper's
    /// window-size code-explosion throttle).
    pub window_size: u32,
    /// Maximum times a join point may be re-scheduled (the paper's `k`;
    /// bounds unrolling so "a base instruction will not belong to more
    /// than k+1 VLIWs").
    pub max_join_visits: u32,
    /// Hard cap on tree instructions per group.
    pub max_vliws_per_group: u32,
    /// Hard cap on simultaneously open paths.
    pub max_paths: u32,
    /// Move loads above stores optimistically (verified at run time).
    pub speculate_loads: bool,
    /// Allow out-of-order placement with renaming; when false every op
    /// lands in the last VLIW (an ablation of the paper's key idea).
    pub rename: bool,
    /// Ignore page boundaries (used by the traditional-compiler
    /// baseline, never by the real VMM).
    pub whole_program: bool,
    /// Taken-probability per branch address from profile feedback; a
    /// backward-taken/forward-not heuristic is used when absent.
    pub profile: Option<HashMap<u32, f64>>,
    /// Interpretive compilation (paper Ch. 6): before translating a
    /// group, the VMM interprets ahead from the entry point, feeding
    /// observed branch outcomes (and indirect-branch targets, which get
    /// specialized as `if (lr == T) goto T`) into the scheduler.
    pub interpretive: bool,
    /// Reroll single-group loops: when a path would leave the group
    /// with a direct branch back to a VLIW already scheduled *on that
    /// path*, seal a backward `Goto` to that VLIW instead, keeping the
    /// loop inside the group. Every engine bounds the resulting cycles
    /// with [`daisy_vliw::packed::BACKEDGE_VLIW_BUDGET`]. Off by
    /// default: backward edges change group shape (and therefore
    /// per-dispatch statistics), so they are opt-in.
    pub reroll_loops: bool,
}

impl Default for TranslatorConfig {
    fn default() -> Self {
        TranslatorConfig {
            machine: MachineConfig::big(),
            page_size: daisy_isa::PAGE_SIZE,
            window_size: 64,
            max_join_visits: 3,
            max_vliws_per_group: 128,
            max_paths: 12,
            speculate_loads: true,
            rename: true,
            whole_program: false,
            profile: None,
            interpretive: false,
            reroll_loops: false,
        }
    }
}

/// Profile-guided tiered-retranslation policy (the hot-group
/// reoptimization the paper sketches in §4.3).
///
/// Groups translate cold with the base [`TranslatorConfig`] — fast,
/// narrow, cheap. Each translation counts its own dispatches
/// ([`crate::engine::GroupCode::dispatches`]); the dispatch that brings
/// a cold translation to [`TierPolicy::hot_threshold`] drops it, and
/// the next dispatch retranslates it with [`TierPolicy::hot_config`]: a wider scheduling window, more
/// simultaneous paths, deeper loop unrolling, and interpretive
/// compilation (Ch. 6) so observed branch outcomes and indirect targets
/// steer the richer schedule. Cold first-touch translation cost stays
/// where it was; only entries that provably repay the investment get
/// the expensive treatment.
///
/// Enabled via [`crate::system::DaisySystemBuilder::tiered`]
/// ([`TierPolicy::with_threshold`] for the default policy at a chosen
/// threshold).
#[derive(Debug, Clone)]
pub struct TierPolicy {
    /// Dispatch count of a cold translation at which its entry is
    /// promoted to the hot tier (promotion follows that dispatch).
    pub hot_threshold: u64,
    /// Multiplier on [`TranslatorConfig::window_size`] for hot groups.
    pub window_multiplier: u32,
    /// Multiplier on [`TranslatorConfig::max_vliws_per_group`].
    pub vliw_multiplier: u32,
    /// Multiplier on [`TranslatorConfig::max_paths`].
    pub path_multiplier: u32,
    /// Added to [`TranslatorConfig::max_join_visits`] (deeper loop
    /// unrolling in hot groups).
    pub extra_join_visits: u32,
    /// Use interpretive compilation (Ch. 6) for hot retranslations:
    /// interpret ahead from the entry on cloned state and feed observed
    /// branch probabilities / indirect targets to the scheduler.
    pub interpretive: bool,
}

impl Default for TierPolicy {
    fn default() -> TierPolicy {
        TierPolicy {
            hot_threshold: 64,
            window_multiplier: 4,
            vliw_multiplier: 2,
            path_multiplier: 2,
            extra_join_visits: 1,
            interpretive: true,
        }
    }
}

impl TierPolicy {
    /// The default policy with an explicit promotion threshold.
    pub fn with_threshold(hot_threshold: u64) -> TierPolicy {
        TierPolicy { hot_threshold, ..TierPolicy::default() }
    }

    /// Derives the hot-tier translator configuration from `base`.
    pub fn hot_config(&self, base: &TranslatorConfig) -> TranslatorConfig {
        TranslatorConfig {
            window_size: base.window_size.saturating_mul(self.window_multiplier),
            max_vliws_per_group: base.max_vliws_per_group.saturating_mul(self.vliw_multiplier),
            max_paths: base.max_paths.saturating_mul(self.path_multiplier),
            max_join_visits: base.max_join_visits + self.extra_join_visits,
            interpretive: base.interpretive || self.interpretive,
            ..base.clone()
        }
    }
}

/// Per-group scheduling hints gathered by interpreting ahead of
/// translation (paper Ch. 6). Empty hints reproduce the static
/// behaviour exactly.
#[derive(Debug, Clone, Default)]
pub struct Hints {
    /// Observed taken-probability per conditional branch address;
    /// overrides `TranslatorConfig::profile`.
    pub taken_prob: HashMap<u32, f64>,
    /// First observed target per indirect branch address, for
    /// `if (reg == T) goto T` specialization.
    pub indirect_target: HashMap<u32, u32>,
}

impl TranslatorConfig {
    fn taken_prob(&self, hints: &Hints, addr: u32, target: u32) -> f64 {
        if let Some(p) = hints.taken_prob.get(&addr) {
            return p.clamp(0.01, 0.99);
        }
        if let Some(p) = self.profile.as_ref().and_then(|m| m.get(&addr)) {
            return p.clamp(0.01, 0.99);
        }
        // Backward-taken / forward-not-taken heuristic.
        if target <= addr {
            0.8
        } else {
            0.3
        }
    }
}

/// Cost accounting for one group translation (feeds the §5.1 overhead
/// analysis and the translation-cost layers of `daisybench`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XlateCost {
    /// Base instructions scheduled (counting re-visits on other paths).
    pub instrs_scheduled: u64,
    /// Primitives placed into VLIWs.
    pub ops_placed: u64,
    /// Paths explored.
    pub paths: u64,
}

impl XlateCost {
    /// Accumulates another group's cost.
    pub fn add(&mut self, other: &XlateCost) {
        self.instrs_scheduled += other.instrs_scheduled;
        self.ops_placed += other.ops_placed;
        self.paths += other.paths;
    }
}

const NO_STORE: u32 = u32::MAX;

type RegMap = [Reg; NUM_REGS];

fn identity_map() -> RegMap {
    let mut m = [Reg(0); NUM_REGS];
    for (i, r) in m.iter_mut().enumerate() {
        *r = Reg(i as u8);
    }
    m
}

/// A store remembered for must-alias forwarding ("a load [that] must
/// alias with a store … is replaced with a copy of the source register
/// of the store", paper Ch. 5).
#[derive(Debug, Clone, Copy)]
struct StoreRec {
    addr_srcs: [Option<Reg>; 2],
    imm: i32,
    width: MemWidth,
    value: Reg,
}

/// One entry of the Pathlist.
#[derive(Debug)]
struct Path {
    /// VLIWs along this path, in order.
    vliws: Vec<VliwId>,
    /// This path's tip node within each VLIW.
    tips: Vec<NodeId>,
    /// Register name map per position (per-path, as the paper notes a
    /// shared VLIW can map a register differently on each path).
    maps: Vec<RegMap>,
    /// Earliest position where each register's value is available.
    avail: [u32; NUM_REGS],
    /// Continuation: next base instruction to schedule.
    cont: u32,
    /// Execution probability (product of branch probabilities).
    prob: f64,
    /// Base instructions scheduled on this path.
    window_used: u32,
    /// Position of the most recent store (`NO_STORE` if none).
    last_store_pos: u32,
    /// The most recent store, for must-alias forwarding.
    recent_store: Option<StoreRec>,
}

impl Path {
    /// A path with no buffers yet; [`Path::reset`] or
    /// [`Path::copy_from`] gives it content.
    fn empty() -> Path {
        Path {
            vliws: Vec::new(),
            tips: Vec::new(),
            maps: Vec::new(),
            avail: [0; NUM_REGS],
            cont: 0,
            prob: 1.0,
            window_used: 0,
            last_store_pos: NO_STORE,
            recent_store: None,
        }
    }

    /// Makes this the root path of a group entered at `entry`, keeping
    /// its buffers.
    fn reset(&mut self, entry: u32) {
        self.vliws.clear();
        self.vliws.push(VliwId(0));
        self.tips.clear();
        self.tips.push(ROOT);
        self.maps.clear();
        self.maps.push(identity_map());
        self.avail = [0; NUM_REGS];
        self.cont = entry;
        self.prob = 1.0;
        self.window_used = 0;
        self.last_store_pos = NO_STORE;
        self.recent_store = None;
    }

    /// Makes this a copy of `src` (a fork), keeping its buffers.
    fn copy_from(&mut self, src: &Path) {
        self.vliws.clone_from(&src.vliws);
        self.tips.clone_from(&src.tips);
        self.maps.clone_from(&src.maps);
        self.avail = src.avail;
        self.cont = src.cont;
        self.prob = src.prob;
        self.window_used = src.window_used;
        self.last_store_pos = src.last_store_pos;
        self.recent_store = src.recent_store;
    }

    fn last(&self) -> u32 {
        self.vliws.len() as u32 - 1
    }
}

/// Join-point state of one word: how often a path scheduled it and
/// whether any path branches to it. `gen` names the translation that
/// wrote the slot; a slot from an earlier translation reads as empty.
#[derive(Debug, Clone, Copy, Default)]
struct JoinSlot {
    gen: u32,
    visits: u32,
    target: bool,
}

/// The scheduler's visit counts and branch-target set as one dense
/// array indexed by word offset from `base`: the entry's translation
/// page, or address 0 over the whole memory image under
/// [`TranslatorConfig::whole_program`]. Every translation takes a new
/// generation number instead of clearing the array. Two addresses in
/// one word share a slot (only misaligned guest control flow can
/// produce that). An address outside the array has no slot and is
/// never a join point: an off-page address stops its path before the
/// join test, and under `whole_program` only device registers past
/// the memory image lie outside.
#[derive(Debug, Default)]
struct JoinTable {
    slots: Vec<JoinSlot>,
    base: u32,
    words: usize,
    gen: u32,
}

impl JoinTable {
    /// Starts a translation covering `words` words from `base`.
    fn start(&mut self, base: u32, words: usize) {
        if self.gen == u32::MAX {
            // Generation numbers wrapped: forget every stamp once.
            self.slots.clear();
            self.gen = 0;
        }
        self.gen += 1;
        if self.slots.len() < words {
            self.slots.resize(words, JoinSlot::default());
        }
        self.base = base;
        self.words = words;
    }

    fn index(&self, addr: u32) -> Option<usize> {
        let i = (addr.wrapping_sub(self.base) / 4) as usize;
        (i < self.words).then_some(i)
    }

    /// The slot for `addr` as this translation has written it.
    fn get(&self, addr: u32) -> JoinSlot {
        match self.index(addr) {
            Some(i) if self.slots[i].gen == self.gen => self.slots[i],
            _ => JoinSlot::default(),
        }
    }

    /// The slot for `addr`, claimed for this translation.
    fn slot_mut(&mut self, addr: u32) -> Option<&mut JoinSlot> {
        let i = self.index(addr)?;
        let slot = &mut self.slots[i];
        if slot.gen != self.gen {
            *slot = JoinSlot { gen: self.gen, ..JoinSlot::default() };
        }
        Some(slot)
    }

    fn visit(&mut self, addr: u32) {
        if let Some(slot) = self.slot_mut(addr) {
            slot.visits += 1;
        }
    }

    fn mark_target(&mut self, addr: u32) {
        if let Some(slot) = self.slot_mut(addr) {
            slot.target = true;
        }
    }
}

/// The buffers one translation leaves to the next on the same thread.
/// They carry capacity only: every translation resets them (the join
/// table by generation), so a group depends on nothing but the
/// configuration, memory, entry and hints it is built from.
#[derive(Debug, Default)]
struct Scratch {
    vliw_free: Vec<RenameMask>,
    paths: Vec<Path>,
    spare: Vec<Path>,
    suffixes: Vec<RenameMask>,
    joins: JoinTable,
    ops: Vec<Operation>,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// Where a conditional branch's taken side goes.
enum TakenKind {
    /// On-page or off-page direct target — may spawn a new path.
    Direct(u32),
    /// Seal the taken side with this exit (indirect branches).
    Sealed(Exit),
}

struct Scheduler<'a> {
    cfg: &'a TranslatorConfig,
    hints: &'a Hints,
    mem: &'a Memory,
    group: Group,
    /// Rename registers not yet allocated in each VLIW, across *all*
    /// paths (conservative: paths share tree prefixes, so an allocation
    /// at a shared VLIW must be visible to every path through it).
    vliw_free: Vec<RenameMask>,
    paths: Vec<Path>,
    /// Closed paths whose buffers the next fork reuses.
    spare: Vec<Path>,
    /// [`Scheduler::free_suffixes`]'s output buffer.
    suffixes: Vec<RenameMask>,
    joins: JoinTable,
    /// The primitives of the instruction being scheduled.
    ops: Vec<Operation>,
    cost: XlateCost,
}

/// Translates the group of VLIWs for the entry point at address `entry`
/// (the paper's `CreateVLIWGroupForEntry`, Fig. A.1). The guest ISA `I`
/// supplies the decoder and RISC-primitive conversion; everything else
/// — path management, renaming, commit discipline — is guest-agnostic.
pub fn translate_group<I: Isa>(
    cfg: &TranslatorConfig,
    mem: &Memory,
    entry: u32,
) -> (Group, XlateCost) {
    translate_group_with_hints::<I>(cfg, mem, entry, &Hints::default())
}

/// [`translate_group`] with interpretive-compilation hints (Ch. 6).
pub fn translate_group_with_hints<I: Isa>(
    cfg: &TranslatorConfig,
    mem: &Memory,
    entry: u32,
    hints: &Hints,
) -> (Group, XlateCost) {
    let Scratch { mut vliw_free, mut paths, mut spare, suffixes, mut joins, ops } =
        SCRATCH.with(Cell::take);
    vliw_free.clear();
    vliw_free.push(RenameMask::ALL_FREE);
    let mut root = spare.pop().unwrap_or_else(Path::empty);
    root.reset(entry);
    paths.clear();
    paths.push(root);
    if cfg.whole_program {
        joins.start(0, mem.size().div_ceil(4) as usize);
    } else {
        joins.start(entry - entry % cfg.page_size, cfg.page_size.div_ceil(4) as usize);
    }
    let mut s = Scheduler {
        cfg,
        hints,
        mem,
        group: Group::new(entry),
        vliw_free,
        paths,
        spare,
        suffixes,
        joins,
        ops,
        cost: XlateCost { paths: 1, ..XlateCost::default() },
    };
    while let Some(idx) = s.most_probable() {
        s.step::<I>(idx);
    }
    if cfg.reroll_loops {
        s.reroll_loops();
    }
    s.group.base_instrs = s.cost.instrs_scheduled as u32;
    let Scheduler { group, cost, vliw_free, paths, spare, suffixes, joins, ops, .. } = s;
    SCRATCH.with(|c| c.set(Scratch { vliw_free, paths, spare, suffixes, joins, ops }));
    (group, cost)
}

// invariant: every live `Path` keeps `vliws`, `tips`, and `maps`
// non-empty (seeded at construction, pushed/popped in lockstep), path
// probabilities are products of finite branch weights, and callers of
// the placement helpers check register availability before calling —
// so the `unwrap`/`expect` calls below can only fire on a scheduler
// bug, never on guest input.
#[allow(clippy::unwrap_used, clippy::expect_used)]
impl Scheduler<'_> {
    fn most_probable(&self) -> Option<usize> {
        self.paths
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.prob.partial_cmp(&b.1.prob).expect("probs are finite"))
            .map(|(i, _)| i)
    }

    fn same_page(&self, a: u32, b: u32) -> bool {
        self.cfg.whole_program || a / self.cfg.page_size == b / self.cfg.page_size
    }

    /// The paper's stopping-point test for a path continuation.
    fn is_stopping(&self, window_used: u32, cont: u32) -> bool {
        if !self.same_page(self.group.entry, cont) {
            return true;
        }
        if window_used >= self.cfg.window_size {
            return true;
        }
        if self.group.len() as u32 >= self.cfg.max_vliws_per_group {
            return true;
        }
        let join = self.joins.get(cont);
        join.target && join.visits >= self.cfg.max_join_visits
    }

    /// Closes a path by sealing its tip with `exit`.
    fn close(&mut self, idx: usize, exit: Exit) {
        let p = &self.paths[idx];
        let (v, t) = (*p.vliws.last().expect("paths have a VLIW"), *p.tips.last().unwrap());
        self.group.vliw_mut(v).seal(t, exit);
        let closed = self.paths.swap_remove(idx);
        self.spare.push(closed);
    }

    /// Opens a new VLIW at the end of a path (paper `OpenNewVLIW`). The
    /// new position's map is identity: every rename so far committed in
    /// the then-last VLIW, which the new one follows.
    fn open_vliw(&mut self, idx: usize) {
        let anchor = self.paths[idx].cont;
        let id = self.group.push_vliw(anchor);
        self.vliw_free.push(RenameMask::ALL_FREE);
        let p = &mut self.paths[idx];
        let (ov, ot) = (*p.vliws.last().unwrap(), *p.tips.last().unwrap());
        self.group.vliw_mut(ov).seal(ot, Exit::Goto(id));
        p.vliws.push(id);
        p.tips.push(ROOT);
        p.maps.push(identity_map());
    }

    /// Post-pass for [`TranslatorConfig::reroll_loops`]: rewrites
    /// direct-branch exits whose target is the anchor of an earlier
    /// VLIW of this group into backward `Goto` edges, so single-group
    /// loops iterate natively instead of re-dispatching every trip.
    ///
    /// Soundness: at any `Branch` exit architected state is complete
    /// (the commit discipline), so re-entering the loop header is
    /// indistinguishable from a fresh dispatch at its anchor *unless*
    /// some rename register read inside the re-entered region was
    /// defined outside it — on iteration two such a read would see a
    /// stale first-iteration value. A rewrite is therefore applied
    /// only when every rename read anywhere in the header's
    /// `Goto`-reachable region has no def outside that region anywhere
    /// in the group. Rewrites go one at a time (each new edge changes
    /// reachability) until a fixed point.
    fn reroll_loops(&mut self) {
        while self.reroll_one() {}
    }

    /// Applies at most one `Branch -> Goto` rewrite; returns whether
    /// one was applied. Terminates: each rewrite removes a `Branch`
    /// leaf and never creates one.
    fn reroll_one(&mut self) -> bool {
        let n = self.group.len();
        for wi in 0..n {
            for ni in 0..self.group.vliw(VliwId(wi as u32)).nodes().len() {
                let nid = NodeId(ni as u32);
                let target = match self.group.vliw(VliwId(wi as u32)).node(nid).kind {
                    NodeKind::Exit(Exit::Branch { target }) => target,
                    _ => continue,
                };
                // Highest-index VLIW anchored at the target whose
                // Goto-reachable region contains this exit's VLIW: the
                // innermost loop header for this back-edge.
                let header = (0..n).rev().find(|&c| {
                    self.group.vliw(VliwId(c as u32)).base_entry == target && self.goto_reach(c)[wi]
                });
                let Some(c) = header else { continue };
                let region = self.goto_reach(c);
                if !self.region_has_work(&region) {
                    // A loop with no guest work would spin until the
                    // back-edge budget for nothing; leave it to the
                    // dispatcher.
                    continue;
                }
                if !self.region_renames_invariant(&region) {
                    continue;
                }
                self.group.vliw_mut(VliwId(wi as u32)).reseal(nid, Exit::Goto(VliwId(c as u32)));
                return true;
            }
        }
        false
    }

    /// VLIWs reachable from `from` (inclusive) over `Goto` edges.
    fn goto_reach(&self, from: usize) -> Vec<bool> {
        let mut seen = vec![false; self.group.len()];
        let mut stack = vec![from];
        while let Some(v) = stack.pop() {
            if std::mem::replace(&mut seen[v], true) {
                continue;
            }
            for node in self.group.vliw(VliwId(v as u32)).nodes() {
                if let NodeKind::Exit(Exit::Goto(t)) = node.kind {
                    if !seen[t.0 as usize] {
                        stack.push(t.0 as usize);
                    }
                }
            }
        }
        seen
    }

    /// Whether the region executes any guest work (an op or a
    /// conditional split) — the guard against sealing no-op spin loops.
    fn region_has_work(&self, region: &[bool]) -> bool {
        (0..self.group.len()).filter(|&v| region[v]).any(|v| {
            self.group
                .vliw(VliwId(v as u32))
                .nodes()
                .iter()
                .any(|node| !node.ops.is_empty() || matches!(node.kind, NodeKind::Branch { .. }))
        })
    }

    /// Whether every rename register read inside the region is defined
    /// only inside the region (anywhere in the group). Architected
    /// reads are always safe: they see committed state at the region
    /// entry, same as a fresh dispatch.
    fn region_renames_invariant(&self, region: &[bool]) -> bool {
        let mut read_inside = [false; NUM_REGS];
        let mut def_outside = [false; NUM_REGS];
        for (v, &inside) in region.iter().enumerate().take(self.group.len()) {
            for node in self.group.vliw(VliwId(v as u32)).nodes() {
                for op in &node.ops {
                    if inside {
                        for &s in op.srcs() {
                            if s.is_rename() {
                                read_inside[s.index()] = true;
                            }
                        }
                    } else {
                        for d in [op.dest, op.dest2].into_iter().flatten() {
                            if d.is_rename() {
                                def_outside[d.index()] = true;
                            }
                        }
                    }
                }
                if inside {
                    match &node.kind {
                        NodeKind::Branch { cond, .. } if cond.src.is_rename() => {
                            read_inside[cond.src.index()] = true;
                        }
                        NodeKind::Exit(Exit::Indirect { src, .. }) if src.is_rename() => {
                            read_inside[src.index()] = true;
                        }
                        _ => {}
                    }
                }
            }
        }
        (0..NUM_REGS).all(|r| !(read_inside[r] && def_outside[r]))
    }

    /// Rename registers free from position `pos` to the end of the path
    /// (the paper's `FreeGprsUntilEnd`).
    fn free_until_end(&self, idx: usize, pos: u32) -> RenameMask {
        let mut m = RenameMask::ALL_FREE;
        for v in &self.paths[idx].vliws[pos as usize..] {
            m = m.and(self.vliw_free[v.0 as usize]);
        }
        m
    }

    /// Fills `self.suffixes` with the suffix-AND table of
    /// `free_until_end` for positions `from..=last` — one linear pass
    /// instead of one per candidate position (the paper's Fig. A.4
    /// does the same backward pass).
    fn free_suffixes(&mut self, idx: usize, from: u32) {
        let vliws = &self.paths[idx].vliws[from as usize..];
        self.suffixes.clear();
        self.suffixes.resize(vliws.len(), RenameMask::ALL_FREE);
        let mut m = RenameMask::ALL_FREE;
        for (out, v) in self.suffixes.iter_mut().zip(vliws).rev() {
            m = m.and(self.vliw_free[v.0 as usize]);
            *out = m;
        }
    }

    /// Marks `r` allocated from `pos` to the end of the path.
    fn reserve(&mut self, idx: usize, pos: u32, r: Reg) {
        for v in &self.paths[idx].vliws[pos as usize..] {
            let free = &mut self.vliw_free[v.0 as usize];
            *free = free.without(r);
        }
    }

    fn earliest(&self, idx: usize, op: &Operation) -> u32 {
        let p = &self.paths[idx];
        op.srcs().iter().map(|s| p.avail[s.index()]).max().unwrap_or(0)
    }

    fn rename_srcs(op: &mut Operation, map: &RegMap) {
        for i in 0..op.srcs().len() {
            let s = op.srcs()[i];
            op.set_src(i, map[s.index()]);
        }
    }

    fn kill_store_rec(p: &mut Path, def: Reg) {
        if let Some(rec) = &p.recent_store {
            if rec.value == def || rec.addr_srcs.iter().flatten().any(|r| *r == def) {
                p.recent_store = None;
            }
        }
    }

    /// Ensures the last VLIW can take one more parcel of `op`'s class,
    /// opening a new VLIW otherwise.
    fn ensure_room(&mut self, idx: usize, op: &Operation) {
        let p = &self.paths[idx];
        let vid = *p.vliws.last().unwrap();
        if !self.group.vliw(vid).has_room(&self.cfg.machine, op) {
            self.open_vliw(idx);
        }
    }

    /// Schedules one RISC primitive with an architected destination —
    /// the paper's `ScheduleThreeRegOp` (Fig. A.3) generalized to every
    /// op shape. Returns the position it landed at.
    fn schedule_op(&mut self, idx: usize, mut op: Operation) -> u32 {
        self.cost.ops_placed += 1;
        let is_store = op.kind.is_store();
        let is_trap = matches!(op.kind, OpKind::TrapIf { .. });
        let in_order_only = is_store || is_trap || !self.cfg.rename;
        let mut v = self.earliest(idx, &op);

        if op.kind.is_load() && !self.cfg.speculate_loads {
            let lsp = self.paths[idx].last_store_pos;
            if lsp != NO_STORE {
                v = v.max(lsp);
            }
        }
        if is_store || is_trap {
            v = v.max(self.paths[idx].last());
        }

        while v > self.paths[idx].last() {
            self.open_vliw(idx);
        }

        if !in_order_only && op.dest.is_some() {
            let needed = 1 + u32::from(op.dest2.is_some());
            self.free_suffixes(idx, v);
            let base = v;
            while v < self.paths[idx].last() {
                let vid = self.paths[idx].vliws[v as usize];
                if self.group.vliw(vid).has_room(&self.cfg.machine, &op)
                    && self.suffixes[(v - base) as usize].count() >= needed
                {
                    break;
                }
                v += 1;
            }
            if v < self.paths[idx].last() {
                if op.kind.is_load() {
                    let lsp = self.paths[idx].last_store_pos;
                    op.bypassed_store = lsp != NO_STORE && v < lsp;
                }
                return self.place_out_of_order(idx, v, op);
            }
        }
        self.place_in_order(idx, op)
    }

    /// Out-of-order placement: rename the destination(s), mark
    /// speculative, and commit in the last VLIW (paper Fig. A.4).
    fn place_out_of_order(&mut self, idx: usize, v: u32, mut op: Operation) -> u32 {
        let arch = op.dest.expect("out-of-order ops have a destination");
        let arch2 = op.dest2;

        let free = self.free_until_end(idx, v);
        let d1 = free.pick().expect("caller checked free registers");
        let d2 = arch2.map(|_| free.without(d1).pick().expect("caller checked two"));
        self.reserve(idx, v, d1);
        if let Some(d2) = d2 {
            self.reserve(idx, v, d2);
        }

        let base_addr = op.base_addr;
        let bypassed = op.bypassed_store;
        {
            let p = &self.paths[idx];
            let map = p.maps[v as usize];
            Scheduler::rename_srcs(&mut op, &map);
        }
        op.dest = Some(d1);
        op.dest2 = d2;
        op.speculative = true;
        let (vid, tip) = {
            let p = &self.paths[idx];
            (p.vliws[v as usize], p.tips[v as usize])
        };
        self.group.vliw_mut(vid).add_op(tip, op);

        // Commit copies in the last VLIW, program order.
        let mut commit = Operation::new(OpKind::Copy, base_addr).dst(arch).src(d1);
        commit.is_commit = true;
        commit.bypassed_store = bypassed;
        self.ensure_room(idx, &commit);
        {
            let p = &self.paths[idx];
            let (cv, ct) = (*p.vliws.last().unwrap(), *p.tips.last().unwrap());
            self.group.vliw_mut(cv).add_op(ct, commit);
        }
        if let (Some(a2), Some(d2)) = (arch2, d2) {
            let mut c2 = Operation::new(OpKind::Copy, base_addr).dst(a2).src(d2);
            c2.is_commit = true;
            self.ensure_room(idx, &c2);
            let p = &self.paths[idx];
            let (cv, ct) = (*p.vliws.last().unwrap(), *p.tips.last().unwrap());
            self.group.vliw_mut(cv).add_op(ct, c2);
        }

        let p = &mut self.paths[idx];
        let last = p.last();
        for pos in (v + 1)..=last {
            p.maps[pos as usize][arch.index()] = d1;
            if let (Some(a2), Some(d2)) = (arch2, d2) {
                p.maps[pos as usize][a2.index()] = d2;
            }
        }
        p.avail[arch.index()] = v + 1;
        p.avail[d1.index()] = v + 1;
        if let (Some(a2), Some(d2)) = (arch2, d2) {
            p.avail[a2.index()] = v + 1;
            p.avail[d2.index()] = v + 1;
        }
        Scheduler::kill_store_rec(p, arch);
        if let Some(a2) = arch2 {
            Scheduler::kill_store_rec(p, a2);
        }
        // The rename registers now hold new values; if the remembered
        // store named either of them, its record no longer identifies
        // the store's address/value and must-alias forwarding would be
        // unsound.
        Scheduler::kill_store_rec(p, d1);
        if let Some(d2) = d2 {
            Scheduler::kill_store_rec(p, d2);
        }
        v
    }

    /// In-order placement in the last VLIW, committing directly to the
    /// architected register (paper Fig. A.5).
    fn place_in_order(&mut self, idx: usize, mut op: Operation) -> u32 {
        self.ensure_room(idx, &op);
        let last = self.paths[idx].last();
        {
            let p = &self.paths[idx];
            let map = p.maps[last as usize];
            Scheduler::rename_srcs(&mut op, &map);
        }
        let store_rec = op.kind.is_store().then(|| StoreRec {
            addr_srcs: [op.srcs().get(1).copied(), op.srcs().get(2).copied()],
            imm: op.imm,
            width: match op.kind {
                OpKind::Store { width } => width,
                _ => MemWidth::Word,
            },
            value: op.srcs()[0],
        });
        let (vid, tip, dests) = {
            let p = &self.paths[idx];
            (*p.vliws.last().unwrap(), *p.tips.last().unwrap(), (op.dest, op.dest2))
        };
        let is_store = op.kind.is_store();
        self.group.vliw_mut(vid).add_op(tip, op);
        let p = &mut self.paths[idx];
        for d in [dests.0, dests.1].into_iter().flatten() {
            p.avail[d.index()] = last + 1;
            // The architected register holds its own value from here on.
            p.maps[last as usize][d.index()] = d;
            Scheduler::kill_store_rec(p, d);
        }
        if is_store {
            p.last_store_pos = last;
            p.recent_store = store_rec;
        }
        last
    }

    /// Schedules an op whose result exists only as a renamed temporary
    /// (CTR-compare conditions, pre-update LR captures). Returns the
    /// rename register holding the result.
    fn schedule_temp(&mut self, idx: usize, mut op: Operation) -> Reg {
        self.cost.ops_placed += 1;
        let mut v = self.earliest(idx, &op);
        while v > self.paths[idx].last() {
            self.open_vliw(idx);
        }
        loop {
            let last = self.paths[idx].last();
            self.free_suffixes(idx, v);
            let base = v;
            while v <= last {
                let vid = self.paths[idx].vliws[v as usize];
                if self.group.vliw(vid).has_room(&self.cfg.machine, &op)
                    && self.suffixes[(v - base) as usize].count() >= 1
                {
                    break;
                }
                v += 1;
            }
            if v <= last {
                break;
            }
            self.open_vliw(idx);
        }
        let d1 = self.free_until_end(idx, v).pick().expect("free register found above");
        self.reserve(idx, v, d1);
        {
            let p = &self.paths[idx];
            let map = p.maps[v as usize];
            Scheduler::rename_srcs(&mut op, &map);
        }
        op.dest = Some(d1);
        op.speculative = true;
        let (vid, tip) = {
            let p = &self.paths[idx];
            (p.vliws[v as usize], p.tips[v as usize])
        };
        self.group.vliw_mut(vid).add_op(tip, op);
        let p = &mut self.paths[idx];
        p.avail[d1.index()] = v + 1;
        Scheduler::kill_store_rec(p, d1);
        d1
    }

    /// Schedules a conditional branch (paper `ScheduleBranchCond`,
    /// Fig. A.6): forces the condition into an earlier VLIW, splits the
    /// tip, and clones or seals the taken side.
    fn schedule_cond_branch(
        &mut self,
        idx: usize,
        cond: CondSpec,
        temp: Option<Reg>,
        addr: u32,
        taken: TakenKind,
        spec_target: Option<u32>,
    ) {
        let cond_reg = temp.unwrap_or(cond.field);
        // Branches are scheduled in the last VLIW — later if the
        // condition is not ready, never earlier (precise interrupts).
        let v = self.paths[idx].avail[cond_reg.index()].max(self.paths[idx].last());
        while self.paths[idx].last() < v {
            self.open_vliw(idx);
        }
        {
            let vid = *self.paths[idx].vliws.last().unwrap();
            if !self.group.vliw(vid).has_branch_room(&self.cfg.machine) {
                self.open_vliw(idx);
            }
        }
        let last = self.paths[idx].last();
        let src = match temp {
            Some(t) => t,
            None => self.paths[idx].maps[last as usize][cond.field.index()],
        };
        let (vid, tip) = {
            let p = &self.paths[idx];
            (*p.vliws.last().unwrap(), *p.tips.last().unwrap())
        };
        let (taken_node, fall_node) = self.group.vliw_mut(vid).split(
            tip,
            Cond { src, mask: cond.mask, want_set: cond.want_set, spec_target, origin: addr },
        );

        match taken {
            TakenKind::Sealed(exit) => {
                self.group.vliw_mut(vid).seal(taken_node, exit);
                let p = &mut self.paths[idx];
                *p.tips.last_mut().unwrap() = fall_node;
                p.cont = addr.wrapping_add(4);
            }
            TakenKind::Direct(target) => {
                self.joins.mark_target(target);
                let pt = self.cfg.taken_prob(self.hints, addr, target);
                let spawn = (self.paths.len() as u32) < self.cfg.max_paths
                    && !self.is_stopping(self.paths[idx].window_used, target);
                if spawn {
                    let mut p2 = self.spare.pop().unwrap_or_else(Path::empty);
                    p2.copy_from(&self.paths[idx]);
                    *p2.tips.last_mut().unwrap() = taken_node;
                    p2.cont = target;
                    p2.prob = self.paths[idx].prob * pt;
                    self.cost.paths += 1;
                    let p = &mut self.paths[idx];
                    *p.tips.last_mut().unwrap() = fall_node;
                    p.cont = addr.wrapping_add(4);
                    p.prob *= 1.0 - pt;
                    self.paths.push(p2);
                } else {
                    self.group.vliw_mut(vid).seal(taken_node, Exit::Branch { target });
                    let p = &mut self.paths[idx];
                    *p.tips.last_mut().unwrap() = fall_node;
                    p.cont = addr.wrapping_add(4);
                    p.prob *= 1.0 - pt;
                }
            }
        }
    }

    /// Emits the LR update for a linking branch and, for indirect
    /// branches through LR, captures the *pre-update* LR first.
    fn indirect_src(&mut self, idx: usize, via: IndirectVia, links: bool, addr: u32) -> Reg {
        let arch = match via {
            IndirectVia::Lr => Reg::LR,
            IndirectVia::Ctr => Reg::CTR,
        };
        if links && via == IndirectVia::Lr {
            let capture = Operation::new(OpKind::Copy, addr).src(Reg::LR);
            let tmp = self.schedule_temp(idx, capture);
            self.schedule_link(idx, addr);
            return tmp;
        }
        if links {
            self.schedule_link(idx, addr);
        }
        let p = &self.paths[idx];
        p.maps[p.last() as usize][arch.index()]
    }

    fn schedule_link(&mut self, idx: usize, addr: u32) {
        let li =
            Operation::new(OpKind::Li, addr).dst(Reg::LR).with_imm(addr.wrapping_add(4) as i32);
        self.schedule_op(idx, li);
    }

    /// Schedules a converted straight-line primitive, applying
    /// must-alias store-to-load forwarding for loads.
    fn schedule_converted(&mut self, idx: usize, op: Operation) {
        if let OpKind::Load { width, algebraic: false } = op.kind {
            let forward = {
                let p = &self.paths[idx];
                let map = &p.maps[p.last() as usize];
                p.recent_store.as_ref().and_then(|rec| {
                    let rec_srcs = rec.addr_srcs.iter().flatten();
                    let same_addr = op.srcs().len() == rec_srcs.clone().count()
                        && op.srcs().iter().zip(rec_srcs).all(|(s, r)| map[s.index()] == *r);
                    (rec.width == width && rec.imm == op.imm && same_addr).then_some(rec.value)
                })
            };
            if let Some(value) = forward {
                // A narrow store keeps only its low bits; the matching
                // zero-extending load must see them truncated.
                let dst = op.dest.expect("loads have destinations");
                let fwd = match width {
                    MemWidth::Word => {
                        Operation::new(OpKind::Copy, op.base_addr).dst(dst).src(value)
                    }
                    MemWidth::Half => Operation::new(OpKind::AndImm, op.base_addr)
                        .dst(dst)
                        .src(value)
                        .with_imm2(0xFFFF),
                    MemWidth::Byte => Operation::new(OpKind::AndImm, op.base_addr)
                        .dst(dst)
                        .src(value)
                        .with_imm2(0xFF),
                };
                self.schedule_op(idx, fwd);
                return;
            }
        }
        self.schedule_op(idx, op);
    }

    /// Decodes and schedules the instruction at the path's continuation
    /// (paper `DecodeAndScheduleOneInstr`, Fig. A.2).
    fn step<I: Isa>(&mut self, idx: usize) {
        let addr = self.paths[idx].cont;
        if self.is_stopping(self.paths[idx].window_used, addr) {
            self.close(idx, Exit::Branch { target: addr });
            return;
        }
        let Ok(word) = self.mem.read_u32(addr) else {
            self.close(idx, Exit::Interp { addr });
            return;
        };
        self.joins.visit(addr);
        self.paths[idx].window_used += 1;
        self.cost.instrs_scheduled += 1;

        // A word the frontend cannot decode ends the path at the
        // interpreter, exactly like an instruction it converts to
        // `Flow::Interp`.
        let mut ops = std::mem::take(&mut self.ops);
        ops.clear();
        let conv = match I::decode(word) {
            Ok(insn) => I::convert(&insn, addr, &mut ops),
            Err(_) => Converted::interp(),
        };
        self.schedule_insn(idx, addr, conv, &ops);
        self.ops = ops;
    }

    /// Schedules one converted instruction's primitives `ops` and its
    /// control transfer.
    fn schedule_insn(&mut self, idx: usize, addr: u32, conv: Converted, ops: &[Operation]) {
        match conv.flow {
            Flow::Fall => {
                for &op in ops {
                    self.schedule_converted(idx, op);
                }
                self.paths[idx].cont = addr.wrapping_add(4);
            }
            Flow::Jump { target } => {
                // Frontends may attach ops to a jump (e.g. RV32 `jal`
                // writes its link register as an explicit op); schedule
                // them before the control transfer.
                for &op in ops {
                    self.schedule_converted(idx, op);
                }
                if conv.links {
                    self.schedule_link(idx, addr);
                }
                if self.same_page(self.group.entry, target)
                    && !self.is_stopping(self.paths[idx].window_used, target)
                {
                    // On-page direct jump: continue scheduling at the
                    // target (join-visit caps bound loop unrolling).
                    self.joins.mark_target(target);
                    self.paths[idx].cont = target;
                } else {
                    self.close(idx, Exit::Branch { target });
                }
            }
            Flow::CondJump { cond, target, cond_compare } => {
                let temp = self.schedule_flow_ops(idx, ops, cond_compare);
                if conv.links {
                    self.schedule_link(idx, addr);
                }
                self.schedule_cond_branch(idx, cond, temp, addr, TakenKind::Direct(target), None);
            }
            Flow::IndirectJump { via } => {
                // Ops run first: e.g. RV32 `jalr` computes the target
                // into LR and writes the link register as ops, then the
                // indirect source below reads the renamed LR.
                for &op in ops {
                    self.schedule_converted(idx, op);
                }
                let src = self.indirect_src(idx, via, conv.links, addr);
                // Interpretive compilation (Ch. 6): a previously observed
                // target T turns the serializing indirect branch into
                // `if (reg == T) goto T` with an indirect fallback, so
                // scheduling continues through the common case.
                let hint = self.hints.indirect_target.get(&addr).copied();
                if let Some(t) = hint {
                    if self.same_page(self.group.entry, t)
                        && !self.is_stopping(self.paths[idx].window_used, t)
                        && t != addr
                    {
                        let cmp = Operation::new(OpKind::CmpUImm, addr)
                            .src(src)
                            .src(Reg::SO)
                            .with_imm(t as i32);
                        let tmp = self.schedule_temp(idx, cmp);
                        self.joins.mark_target(t);
                        // Taken = "not equal" → the true indirect exit;
                        // fall-through = the specialized direct path.
                        let cond = CondSpec { field: tmp, mask: 0b0010, want_set: false };
                        self.schedule_cond_branch(
                            idx,
                            cond,
                            Some(tmp),
                            addr,
                            TakenKind::Sealed(Exit::Indirect { src, via }),
                            Some(t),
                        );
                        self.paths[idx].cont = t;
                        return;
                    }
                }
                self.close(idx, Exit::Indirect { src, via });
            }
            Flow::CondIndirect { cond, via, cond_compare } => {
                let temp = self.schedule_flow_ops(idx, ops, cond_compare);
                let src = self.indirect_src(idx, via, conv.links, addr);
                self.schedule_cond_branch(
                    idx,
                    cond,
                    temp,
                    addr,
                    TakenKind::Sealed(Exit::Indirect { src, via }),
                    None,
                );
            }
            Flow::Interp => {
                self.close(idx, Exit::Interp { addr });
            }
        }
    }

    /// Schedules a branch's auxiliary ops. For condition-compare forms
    /// (PowerPC CTR-decrement branches, RISC-V compare-and-branch) the
    /// final op is the compare, which lives only in a rename register;
    /// its name is returned for the condition.
    fn schedule_flow_ops(
        &mut self,
        idx: usize,
        ops: &[Operation],
        cond_compare: bool,
    ) -> Option<Reg> {
        let n = ops.len();
        let mut temp = None;
        for (i, mut op) in ops.iter().copied().enumerate() {
            if cond_compare && i == n - 1 {
                op.dest = None; // placeholder condition dest never materializes
                temp = Some(self.schedule_temp(idx, op));
            } else {
                self.schedule_converted(idx, op);
            }
        }
        temp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_ppc::asm::Asm;
    use daisy_ppc::reg::{CrField, Gpr};
    use daisy_vliw::tree::NodeKind;

    fn translate(build: impl FnOnce(&mut Asm)) -> Group {
        let mut a = Asm::new(0x1000);
        build(&mut a);
        let prog = a.finish().unwrap();
        let mut mem = Memory::new(0x20000);
        prog.load_into(&mut mem).unwrap();
        let cfg = TranslatorConfig::default();
        translate_group::<daisy_ppc::PpcIsa>(&cfg, &mem, prog.entry).0
    }

    #[test]
    fn straight_line_packs_independent_ops() {
        // Four independent adds + sc: all four should land in VLIW 0.
        let g = translate(|a| {
            a.add(Gpr(3), Gpr(1), Gpr(2));
            a.add(Gpr(4), Gpr(1), Gpr(2));
            a.add(Gpr(5), Gpr(1), Gpr(2));
            a.add(Gpr(6), Gpr(1), Gpr(2));
            a.sc();
        });
        assert_eq!(g.vliws[0].counts().alu, 4);
        // sc seals the path with an Interp exit.
        let has_interp = g.vliws.iter().any(|v| {
            v.nodes().iter().any(|n| matches!(n.kind, NodeKind::Exit(Exit::Interp { .. })))
        });
        assert!(has_interp);
    }

    #[test]
    fn dependent_chain_spans_vliws() {
        let g = translate(|a| {
            a.add(Gpr(3), Gpr(1), Gpr(2));
            a.add(Gpr(4), Gpr(3), Gpr(3));
            a.add(Gpr(5), Gpr(4), Gpr(4));
            a.sc();
        });
        assert!(g.len() >= 3, "dependence chain needs one VLIW per link, got {}", g.len());
    }

    #[test]
    fn paper_figure_2_2_shape() {
        // The running example of the paper (Fig. 2.2): 11 instructions
        // fit in 2 VLIWs on the big machine.
        let g = translate(|a| {
            a.add(Gpr(1), Gpr(2), Gpr(3)); // 1
            a.beq(CrField(0), "L1"); // 2
            a.slwi(Gpr(12), Gpr(1), 3); // 3 (sli)
            a.xor(Gpr(4), Gpr(5), Gpr(6)); // 4
            a.and(Gpr(8), Gpr(4), Gpr(7)); // 5
            a.beq(CrField(1), "L2"); // 6
            a.b("OFFPAGE"); // 7 — resolved below as cross-page
            a.label("L1");
            a.subf(Gpr(9), Gpr(11), Gpr(10)); // 8
            a.b("OFFPAGE"); // 9
            a.label("L2");
            a.cntlzw(Gpr(11), Gpr(4)); // 10
            a.b("OFFPAGE"); // 11
                            // Place OFFPAGE outside this 4K page.
            for _ in 0..1024 {
                a.nop();
            }
            a.label("OFFPAGE");
            a.sc();
        });
        assert_eq!(g.len(), 2, "paper's example translates to exactly 2 VLIWs");
        // The xor's result must be renamed (speculative) in VLIW1.
        let v1_has_spec_xor = g.vliws[0]
            .nodes()
            .iter()
            .flat_map(|n| n.ops.iter())
            .any(|o| o.kind == OpKind::Xor && o.speculative && o.dest.unwrap().is_rename());
        assert!(v1_has_spec_xor, "xor should execute speculatively in VLIW1\n{}", g.vliws[0]);
        // And commit via a copy in VLIW2.
        let v2_commits_r4 = g.vliws[1]
            .nodes()
            .iter()
            .flat_map(|n| n.ops.iter())
            .any(|o| o.is_commit && o.dest == Some(Reg::gpr(Gpr(4))));
        assert!(v2_commits_r4, "r4 commit belongs in VLIW2\n{}", g.vliws[1]);
    }

    #[test]
    fn loop_unrolling_is_bounded_by_join_visits() {
        let g = translate(|a| {
            a.li(Gpr(3), 100);
            a.label("loop");
            a.addi(Gpr(3), Gpr(3), -1);
            a.cmpwi(CrField(0), Gpr(3), 0);
            a.bne(CrField(0), "loop");
            a.sc();
        });
        // The loop body appears at most k+1 times; the group stays small.
        assert!(g.len() <= 40, "group exploded: {} VLIWs", g.len());
        // Some exit must branch back to the loop header (0x1004).
        let exits: Vec<_> = g
            .vliws
            .iter()
            .flat_map(|v| v.nodes().iter())
            .filter_map(|n| match n.kind {
                NodeKind::Exit(Exit::Branch { target }) => Some(target),
                _ => None,
            })
            .collect();
        assert!(exits.contains(&0x1004), "loop header re-entry exit missing: {exits:x?}");
    }

    #[test]
    fn stores_stay_in_program_order() {
        let g = translate(|a| {
            a.stw(Gpr(3), 0, Gpr(1));
            a.stw(Gpr(4), 4, Gpr(1));
            a.sc();
        });
        // Both stores are on the root path in order.
        let stores: Vec<u32> = g
            .vliws
            .iter()
            .flat_map(|v| v.nodes().iter())
            .flat_map(|n| n.ops.iter())
            .filter(|o| o.kind.is_store())
            .map(|o| o.base_addr)
            .collect();
        assert_eq!(stores, vec![0x1000, 0x1004]);
    }

    #[test]
    fn load_forwards_from_matching_store() {
        let g = translate(|a| {
            a.stw(Gpr(3), 8, Gpr(1));
            a.lwz(Gpr(4), 8, Gpr(1)); // must-alias: becomes a copy
            a.sc();
        });
        let loads = g
            .vliws
            .iter()
            .flat_map(|v| v.nodes().iter())
            .flat_map(|n| n.ops.iter())
            .filter(|o| o.kind.is_load())
            .count();
        assert_eq!(loads, 0, "the load should have been forwarded to a copy");
    }

    #[test]
    fn load_above_store_is_marked_bypassed() {
        // The store's value arrives late (dependence chain), pushing it
        // to a later VLIW; the independent load hoists above it.
        let g = translate(|a| {
            a.add(Gpr(10), Gpr(8), Gpr(9));
            a.add(Gpr(11), Gpr(10), Gpr(10));
            a.stw(Gpr(11), 0, Gpr(1));
            a.lwz(Gpr(4), 0, Gpr(2)); // may alias, moved up speculatively
            a.add(Gpr(5), Gpr(4), Gpr(4));
            a.sc();
        });
        let bypassed = g
            .vliws
            .iter()
            .flat_map(|v| v.nodes().iter())
            .flat_map(|n| n.ops.iter())
            .any(|o| o.kind.is_load() && o.bypassed_store);
        assert!(bypassed, "load moved above the store must be flagged for load-verify");
    }

    #[test]
    fn no_rename_mode_serializes() {
        let mut a = Asm::new(0x1000);
        a.add(Gpr(3), Gpr(1), Gpr(2));
        a.xor(Gpr(4), Gpr(5), Gpr(6));
        a.sc();
        let prog = a.finish().unwrap();
        let mut mem = Memory::new(0x20000);
        prog.load_into(&mut mem).unwrap();
        let cfg = TranslatorConfig { rename: false, ..TranslatorConfig::default() };
        let (g, _) = translate_group::<daisy_ppc::PpcIsa>(&cfg, &mem, prog.entry);
        // Without renaming both ops still fit the first VLIW (both are
        // ready at entry), but nothing is speculative.
        let spec = g
            .vliws
            .iter()
            .flat_map(|v| v.nodes().iter())
            .flat_map(|n| n.ops.iter())
            .any(|o| o.speculative);
        assert!(!spec);
    }

    /// Translates the program `a` assembled under `cfg`, from its entry.
    fn translate_with(cfg: &TranslatorConfig, a: Asm) -> (Group, XlateCost) {
        let prog = a.finish().unwrap();
        let mut mem = Memory::new(0x20000);
        prog.load_into(&mut mem).unwrap();
        translate_group::<daisy_ppc::PpcIsa>(cfg, &mem, prog.entry)
    }

    /// Every direct-branch exit target of the group.
    fn branch_exits(g: &Group) -> Vec<u32> {
        g.vliws
            .iter()
            .flat_map(|v| v.nodes().iter())
            .filter_map(|n| match n.kind {
                NodeKind::Exit(Exit::Branch { target }) => Some(target),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn join_target_on_the_last_word_of_a_page_is_counted() {
        // The 256-byte page at 0x1000 ends with the word at 0x10FC: a
        // one-instruction loop there is a join point whose visits must
        // land in the table's last slot.
        let cfg = TranslatorConfig { page_size: 256, ..TranslatorConfig::default() };
        let mut a = Asm::new(0x10F4);
        a.li(Gpr(3), 10);
        a.mtctr(Gpr(3));
        a.label("last");
        assert_eq!(a.here(), 0x10FC);
        a.bdnz("last");
        a.sc(); // 0x1100: the next page
        let (g, cost) = translate_with(&cfg, a);
        // li and mtctr once, then the loop word until its join budget
        // is spent; the last trip's taken side leaves the group.
        assert_eq!(cost.instrs_scheduled, 2 + u64::from(cfg.max_join_visits));
        assert!(branch_exits(&g).contains(&0x10FC), "join cap must seal the back edge");
    }

    #[test]
    fn off_page_branch_target_never_takes_a_join_slot() {
        // With no join budget, any marked on-page word stops the path
        // that reaches it. The taken target 0x1108 lies on the next
        // 256-byte page at the same word offset as 0x1008 on this one;
        // marking it must leave 0x1008 schedulable.
        let cfg =
            TranslatorConfig { page_size: 256, max_join_visits: 0, ..TranslatorConfig::default() };
        let mut a = Asm::new(0x1000);
        a.beq(CrField(0), "off");
        a.nop();
        a.nop(); // 0x1008
        a.sc();
        while a.here() < 0x1108 {
            a.nop();
        }
        a.label("off");
        a.sc();
        let (g, cost) = translate_with(&cfg, a);
        assert!(branch_exits(&g).contains(&0x1108), "the off-page side leaves the group");
        assert_eq!(cost.instrs_scheduled, 4, "beq, both nops and the sc are scheduled");
    }

    #[test]
    fn whole_program_loop_joins_across_pages() {
        // Entered on the 256-byte page at 0x1000, a jump reaches a
        // counted loop whose header is the last word of the next page
        // and whose back edge is on the page after that. Whole-program
        // scope follows it across both boundaries, and the header's
        // join budget still bounds the unrolling.
        let program = || {
            let mut a = Asm::new(0x10FC);
            a.b("loop");
            while a.here() < 0x11FC {
                a.nop();
            }
            a.label("loop");
            a.addi(Gpr(4), Gpr(4), 1);
            a.addi(Gpr(5), Gpr(5), 1); // 0x1200
            a.bdnz("loop");
            a.sc();
            a
        };
        let cfg =
            TranslatorConfig { page_size: 256, whole_program: true, ..TranslatorConfig::default() };
        let k = u64::from(cfg.max_join_visits);
        let (g, cost) = translate_with(&cfg, program());
        // The jump once; k trips of three words; each trip's
        // fall-through path schedules the sc.
        assert_eq!(cost.instrs_scheduled, 1 + 3 * k + k);
        assert!(branch_exits(&g).contains(&0x11FC), "join cap must seal the back edge");
        // At page scope the jump already leaves the group.
        let paged = TranslatorConfig { whole_program: false, ..cfg };
        let (g, cost) = translate_with(&paged, program());
        assert_eq!(cost.instrs_scheduled, 1);
        assert_eq!(branch_exits(&g), vec![0x11FC]);
    }

    #[test]
    fn cost_accounting_counts_instructions() {
        let mut a = Asm::new(0x1000);
        a.add(Gpr(3), Gpr(1), Gpr(2));
        a.add(Gpr(4), Gpr(3), Gpr(3));
        a.sc();
        let prog = a.finish().unwrap();
        let mut mem = Memory::new(0x20000);
        prog.load_into(&mut mem).unwrap();
        let cfg = TranslatorConfig::default();
        let (_, cost) = translate_group::<daisy_ppc::PpcIsa>(&cfg, &mem, prog.entry);
        assert_eq!(cost.instrs_scheduled, 3); // two adds + sc
        assert!(cost.ops_placed >= 2);
    }
}
