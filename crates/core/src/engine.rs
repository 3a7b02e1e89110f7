//! Execution engine for translated VLIW tree code.
//!
//! Walks a group one tree instruction per cycle: conditions route the
//! root-to-leaf path, parcels on the path execute with the paper's
//! semantics — speculative parcels poison their (renamed) destinations
//! with exception tags instead of faulting (§2.1), commits move renamed
//! results into architected registers in program order, and bypassed
//! loads are *verified* at commit, restarting on a run-time alias
//! (Table 5.7). The cache hierarchy is probed per tree-instruction
//! fetch and per memory parcel.

use crate::precise::ArchEvent;
use crate::stats::RunStats;
use crate::trace::Tier;
use daisy_cachesim::Hierarchy;
use daisy_isa::mem::Memory;
use daisy_vliw::op::{compare, effective_address, eval, EvalOut, MemWidth, OpKind, Operation};
use daisy_vliw::packed::{OpClass, OpMeta, PackedCtrl, PackedGroup, BACKEDGE_VLIW_BUDGET};
use daisy_vliw::reg::{Reg, NUM_REGS};
use daisy_vliw::regfile::RegFile;
use daisy_vliw::tree::{Group, IndirectVia};
use std::cell::{Cell, RefCell};
use std::rc::{Rc, Weak};

/// Entries in each group's inline indirect-dispatch cache. The cache
/// is fully associative with round-robin replacement: indirect-branch
/// targets are group entries, which real programs align (dispatch
/// tables with power-of-two handler strides), so any way function
/// built from target bits collapses under exactly the workloads that
/// need the cache most. Eight entries cover the paper workloads'
/// largest indirect working set (xlat's translate dispatch) with room
/// to spare.
pub(crate) const ICACHE_WAYS: usize = 8;

/// One inline indirect-dispatch cache entry: the last translation seen
/// for a target reached through LR or CTR.
#[derive(Debug, Clone)]
struct IndirectEntry {
    target: u32,
    code: Weak<GroupCode>,
}

/// State of a chain link at dispatch time (see [`GroupCode::follow_link`]).
#[derive(Debug)]
pub enum ChainLink {
    /// A link is installed and its target translation is still live.
    Live(Rc<GroupCode>),
    /// No link has been installed for this exit yet.
    Empty,
    /// A link was installed but its target translation has since been
    /// dropped (code modification, cast-out, or alias retranslation).
    Severed,
}

/// A translated group plus the addresses its tree instructions occupy
/// in the translated-code area (for instruction-cache behaviour), plus
/// the direct-chaining state that lets the dispatch loop jump straight
/// to the next group without re-entering the VMM.
///
/// Chain links are [`Weak`]: the VMM's `pages` map holds the only
/// strong references to translations, so every path that destroys a
/// translation ([`crate::vmm::Vmm::invalidate_unit`], LRU cast-out,
/// [`crate::vmm::Vmm::note_alias_restart`]) severs all inbound links
/// simply by dropping the `Rc` — a dangling link can never be followed.
#[derive(Debug, Clone)]
pub struct GroupCode {
    /// The translated group (scheduling representation; kept for
    /// diagnostics, recovery, and lowering).
    pub group: Group,
    /// The group lowered to the packed execution format the hot loop
    /// runs ([`run_group`]). Its exit-target table defines the chain
    /// link slots.
    pub packed: PackedGroup,
    /// Translated-code address of each tree instruction.
    pub vliw_addrs: Vec<u32>,
    /// Which translator tier produced this code (cold first-touch or
    /// profile-guided hot retranslation); carried so the profiler and
    /// trace events can attribute execution per tier.
    pub tier: Tier,
    /// Lazily installed group-to-group links, one slot per entry of
    /// the packed exit-target table.
    links: RefCell<Vec<Option<Weak<GroupCode>>>>,
    /// Inline dispatch cache for this group's indirect (LR/CTR) exits.
    icache: RefCell<[Option<IndirectEntry>; ICACHE_WAYS]>,
    /// Round-robin victim cursor for `icache` (advanced only when an
    /// install finds neither a matching tag nor an empty way).
    icache_victim: Cell<u8>,
}

impl GroupCode {
    /// Wraps a translated group, lowering it to the packed execution
    /// format and deriving one chain-link slot per static direct-branch
    /// exit target.
    pub fn new(group: Group, vliw_addrs: Vec<u32>) -> GroupCode {
        let packed = PackedGroup::lower(&group);
        let links = RefCell::new(vec![None; packed.exit_targets().len()]);
        GroupCode {
            group,
            packed,
            vliw_addrs,
            tier: Tier::Cold,
            links,
            icache: RefCell::new([const { None }; ICACHE_WAYS]),
            icache_victim: Cell::new(0),
        }
    }

    /// Sets the translation tier (builder style; the VMM tags hot
    /// retranslations before publishing the code).
    pub fn with_tier(mut self, tier: Tier) -> GroupCode {
        self.tier = tier;
        self
    }

    /// The link slot for a static direct-branch exit `target`, if the
    /// group has such an exit.
    pub fn exit_slot(&self, target: u32) -> Option<usize> {
        self.packed.exit_slot(target)
    }

    /// Resolves the chain link in `slot`.
    pub fn follow_link(&self, slot: usize) -> ChainLink {
        match &self.links.borrow()[slot] {
            None => ChainLink::Empty,
            Some(w) => match w.upgrade() {
                Some(code) => ChainLink::Live(code),
                None => ChainLink::Severed,
            },
        }
    }

    /// Installs (or replaces) the chain link in `slot`.
    pub fn install_link(&self, slot: usize, to: &Rc<GroupCode>) {
        self.links.borrow_mut()[slot] = Some(Rc::downgrade(to));
    }

    /// Removes the chain link in `slot` (after observing it severed).
    pub fn clear_link(&self, slot: usize) {
        self.links.borrow_mut()[slot] = None;
    }

    /// Looks up a live translation for an indirect-branch `target` in
    /// this group's inline dispatch cache. On a hit, also returns the
    /// way it was found in (the native tier mirrors per-way into the
    /// group's inline IBTC).
    pub fn icache_lookup(&self, target: u32) -> Option<(Rc<GroupCode>, usize)> {
        self.icache.borrow().iter().enumerate().find_map(|(way, e)| match e {
            Some(e) if e.target == target => Some((e.code.upgrade()?, way)),
            _ => None,
        })
    }

    /// Records the translation for an indirect-branch `target`,
    /// returning the way it landed in: a way already tagged `target`
    /// (possibly holding a dead weak ref), else the first empty way,
    /// else the round-robin victim.
    pub fn icache_install(&self, target: u32, to: &Rc<GroupCode>) -> usize {
        let mut cache = self.icache.borrow_mut();
        let way = cache
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.target == target))
            .or_else(|| cache.iter().position(|e| e.is_none()))
            .unwrap_or_else(|| {
                let v = self.icache_victim.get() as usize;
                self.icache_victim.set(((v + 1) % ICACHE_WAYS) as u8);
                v
            });
        cache[way] = Some(IndirectEntry { target, code: Rc::downgrade(to) });
        way
    }

    /// Severs every outbound chain link and empties the inline
    /// indirect-dispatch cache. Inbound links sever on their own when
    /// the owning `Rc` drops; this is the outbound counterpart, used by
    /// [`crate::vmm::Vmm::sever_all_links`] (fault-injection campaigns)
    /// to cut the chain graph while translations stay live.
    pub fn sever_outbound_links(&self) {
        for l in self.links.borrow_mut().iter_mut() {
            *l = None;
        }
        *self.icache.borrow_mut() = [const { None }; ICACHE_WAYS];
        self.icache_victim.set(0);
    }
}

/// The kind of a precise exception raised by translated code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExcKind {
    /// Data storage fault at the given effective address.
    Dsi {
        /// Faulting effective address.
        addr: u32,
        /// True for a store.
        write: bool,
    },
    /// Trap instruction fired (program interrupt).
    Trap,
}

/// How a group finished executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupExit {
    /// Control leaves to a base-architecture address.
    Branch {
        /// Target base address.
        target: u32,
        /// `Some` for indirect branches (Table 5.6 typing).
        via: Option<IndirectVia>,
        /// Chain-link slot of this exit in the exiting group (`None`
        /// for indirect exits). Lowered into the packed format at
        /// translation time, so the dispatch loop installs and follows
        /// group-to-group links without re-searching the exit table.
        slot: Option<usize>,
    },
    /// The VMM must interpret the instruction at `addr`.
    Interp {
        /// Base address to interpret.
        addr: u32,
    },
    /// Precise exception; architected state is exact just before the
    /// instruction at `base_addr`.
    Exception {
        /// The fault.
        kind: ExcKind,
        /// The responsible base instruction (engine metadata; the VMM
        /// re-derives it with `precise::recover` and cross-checks).
        base_addr: u32,
        /// Architected events completed before the fault, for recovery.
        fault_idx: usize,
    },
    /// A store hit a page with its translated bit set (§3.2); resume by
    /// re-interpreting the modifying instruction at `addr` after
    /// invalidation.
    CodeModified {
        /// Address of the modifying instruction.
        addr: u32,
    },
    /// A bypassed load's commit saw different memory (run-time alias);
    /// restart at the load's instruction.
    AliasRestart {
        /// Address of the load instruction.
        addr: u32,
    },
    /// A memory parcel targets the MMIO window. Architected state is
    /// exact just before the instruction at `addr`; the VMM re-executes
    /// it on the interpreter so the device access (which may have side
    /// effects) happens exactly once, in program order. Every engine
    /// tier raises this *before* touching the device: a speculative
    /// MMIO load poisons its destination instead (tag info carries the
    /// MMIO flag) and the first non-speculative consumer — in practice
    /// the load's commit — converts the poison into this exit.
    Mmio {
        /// Address of the device-accessing instruction.
        addr: u32,
    },
}

#[derive(Debug, Clone, Copy)]
struct PendingLoad {
    ea: u32,
    width: MemWidth,
    algebraic: bool,
    value: u32,
}

/// Reusable per-dispatch engine state, threaded through
/// [`run_group`] so the hot dispatch loop performs no per-group
/// allocation or bulk re-initialisation.
///
/// The exception-tag and pending-load tables cover all [`NUM_REGS`]
/// registers (~3 KiB); rather than zeroing them on every dispatch, the
/// engine records which slots it populated and its internal reset
/// clears only those — on the common path (no speculative faults, no
/// bypassed loads) reset is just clearing the event vector's length.
#[derive(Debug)]
pub struct EngineScratch {
    /// Architected-commitment record for precise-exception recovery
    /// (§3.5); filled afresh by each [`run_group`] call.
    pub events: Vec<ArchEvent>,
    /// Retirement trace filled only by [`run_group_profiled`]: the
    /// absolute packed-node index of every tree node the dispatch
    /// visited, in execution order. The non-profiled engine never
    /// touches it (the `PROFILE` const generic compiles the recording
    /// out), so the hot loop stays provenance-free.
    pub(crate) visited: Vec<u32>,
    /// Per poisoned register: (faulting address, is-store, is-MMIO).
    tag_info: [Option<(u32, bool, bool)>; NUM_REGS],
    pending: [Option<PendingLoad>; NUM_REGS],
    touched: Vec<u8>,
}

impl EngineScratch {
    /// Creates empty scratch state.
    pub fn new() -> EngineScratch {
        EngineScratch {
            events: Vec::with_capacity(64),
            visited: Vec::new(),
            tag_info: [None; NUM_REGS],
            pending: [None; NUM_REGS],
            touched: Vec::with_capacity(8),
        }
    }

    /// Clears the event record and every table slot populated by the
    /// previous dispatch.
    pub(crate) fn reset(&mut self) {
        self.events.clear();
        self.visited.clear();
        for i in self.touched.drain(..) {
            self.tag_info[i as usize] = None;
            self.pending[i as usize] = None;
        }
    }

    /// Re-seeds one bypassed-load row (used by the native tier when it
    /// bails out of a group mid-way: still-live rows in the native
    /// pending table are rehydrated here so the packed resume's verify
    /// commits see them).
    pub(crate) fn set_pending(
        &mut self,
        i: usize,
        ea: u32,
        width: MemWidth,
        algebraic: bool,
        value: u32,
    ) {
        self.pending[i] = Some(PendingLoad { ea, width, algebraic, value });
        self.touched.push(i as u8);
    }
}

impl Default for EngineScratch {
    fn default() -> EngineScratch {
        EngineScratch::new()
    }
}

#[inline(always)]
fn read_mem(mem: &Memory, ea: u32, width: MemWidth, algebraic: bool) -> Result<u32, ()> {
    match width {
        MemWidth::Byte => mem.read_u8(ea).map(u32::from).map_err(|_| ()),
        MemWidth::Half => mem
            .read_u16(ea)
            .map(|v| if algebraic { v as i16 as i32 as u32 } else { u32::from(v) })
            .map_err(|_| ()),
        MemWidth::Word => mem.read_u32(ea).map_err(|_| ()),
    }
}

#[inline(always)]
fn write_mem(mem: &mut Memory, ea: u32, width: MemWidth, v: u32) -> Result<(), ()> {
    match width {
        MemWidth::Byte => mem.write_u8(ea, v as u8).map_err(|_| ()),
        MemWidth::Half => mem.write_u16(ea, v as u16).map_err(|_| ()),
        MemWidth::Word => mem.write_u32(ea, v).map_err(|_| ()),
    }
}

/// Executes one group to its exit on the packed execution format —
/// the simulation hot loop. Walks [`GroupCode::packed`]: per tree
/// instruction, conditions route through the flat node table and the
/// taken path's parcels execute as dense slices of the op arena.
///
/// `scratch` is reset and its event record filled with the
/// architected-commitment trail used for precise-exception recovery.
///
/// The property tests in `tests/prop_equivalence.rs` check it against
/// the reference interpreter, including under the finite cache
/// hierarchy.
#[inline]
pub fn run_group(
    code: &GroupCode,
    rf: &mut RegFile,
    mem: &mut Memory,
    cache: &mut Hierarchy,
    stats: &mut RunStats,
    scratch: &mut EngineScratch,
) -> GroupExit {
    run_group_impl::<false, false>(code, rf, mem, cache, stats, scratch, ResumePoint::default())
}

/// Where a native bail-out left off inside a group: the packed engine
/// re-enters mid-group at exactly the parcel whose side effect was
/// about to happen.
///
/// All counters for work *before* this point were already merged from
/// the native counter block, so the resumed run must not re-count the
/// current tree instruction or reset the (already reconstructed)
/// scratch state — `run_group_resume` encodes those rules.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResumePoint {
    /// VLIW index of the bail site.
    pub vliw: usize,
    /// Absolute packed-node index of the bail site.
    pub node: usize,
    /// Absolute op-arena index of the first parcel still to execute.
    pub op: usize,
    /// Parcels already counted toward the current tree instruction's
    /// issue-histogram bucket (includes the whole bail node — the
    /// packed walk adds a node's parcels when it enters the node).
    pub parcels: usize,
    /// The `last_base` commit-dedup register at the bail.
    pub last_base: u32,
    /// Absolute `vliws_executed` at the bailing group's *entry*, so the
    /// resumed run enforces the same back-edge budget limit the native
    /// prologue snapshotted (`budget_base + BACKEDGE_VLIW_BUDGET`).
    pub budget_base: u64,
}

/// Resumes packed execution of `code` mid-group after a native-tier
/// bail-out. The caller (the native dispatcher) has already merged the
/// native counter deltas into `stats` and reconstructed `scratch` up
/// to the bail point, so this entry skips the per-dispatch scratch
/// reset and the current tree instruction's cycle/issue accounting.
#[inline]
pub fn run_group_resume(
    code: &GroupCode,
    rf: &mut RegFile,
    mem: &mut Memory,
    cache: &mut Hierarchy,
    stats: &mut RunStats,
    scratch: &mut EngineScratch,
    resume: ResumePoint,
) -> GroupExit {
    run_group_impl::<false, true>(code, rf, mem, cache, stats, scratch, resume)
}

/// [`run_group`] with guest-PC attribution enabled: identical
/// semantics, but additionally records the absolute packed-node index
/// of every visited tree node into the scratch state's `visited` list
/// so
/// retirement code (`daisy::profile`) can attribute cycles and
/// speculation waste per guest instruction. Kept as a separate
/// monomorphization so [`run_group`] compiles with zero recording code.
#[inline]
pub fn run_group_profiled(
    code: &GroupCode,
    rf: &mut RegFile,
    mem: &mut Memory,
    cache: &mut Hierarchy,
    stats: &mut RunStats,
    scratch: &mut EngineScratch,
) -> GroupExit {
    run_group_impl::<true, false>(code, rf, mem, cache, stats, scratch, ResumePoint::default())
}

fn run_group_impl<const PROFILE: bool, const RESUME: bool>(
    code: &GroupCode,
    rf: &mut RegFile,
    mem: &mut Memory,
    cache: &mut Hierarchy,
    stats: &mut RunStats,
    scratch: &mut EngineScratch,
    resume: ResumePoint,
) -> GroupExit {
    if !RESUME {
        scratch.reset();
    }
    let packed = &code.packed;
    let infinite = cache.is_infinite();
    let (vals, tags) = rf.arrays_mut();
    let mut last_base = if RESUME { resume.last_base } else { u32::MAX };
    let mut vliw = if RESUME { resume.vliw } else { 0usize };
    // Back-edge budget: a backward `Next` past this point leaves the
    // group at the loop header instead of iterating natively forever,
    // so the dispatch loop (ladder checks, timer) regains control. A
    // resumed run inherits the budget base its native prologue set.
    let backedge_limit =
        (if RESUME { resume.budget_base } else { stats.vliws_executed }) + BACKEDGE_VLIW_BUDGET;
    // True only for the first tree instruction of a resumed run: its
    // entry accounting already happened natively, and execution starts
    // mid-node at `resume.op`.
    let mut resuming = RESUME;

    // One completed base instruction per distinct originating address
    // (several parcels can share one base instruction).
    macro_rules! commit_base {
        ($op:expr) => {
            if last_base != $op.base_addr {
                last_base = $op.base_addr;
                stats.base_instrs += 1;
            }
        };
    }

    loop {
        if !resuming {
            stats.vliws_executed += 1;
            if !infinite {
                let iacc = cache.access_instr(code.vliw_addrs[vliw]);
                stats.stall_cycles += u64::from(iacc.penalty);
            }
        }

        let mut node = if resuming { resume.node } else { packed.roots[vliw] as usize };
        let mut parcels_this_vliw = if resuming { resume.parcels } else { 0usize };
        loop {
            if PROFILE {
                scratch.visited.push(node as u32);
            }
            let n = &packed.nodes[node];
            let first_op = if resuming { resume.op } else { n.start as usize };
            if !resuming {
                parcels_this_vliw += n.len as usize;
            }
            resuming = false;
            for k in first_op..(n.start + n.len) as usize {
                let op = &packed.ops[k];
                let m = &packed.meta[k];
                let (s0, s1, s2) = (m.s[0] as usize, m.s[1] as usize, m.s[2] as usize);
                let poisoned =
                    (tags[s0] & m.smask[0]) | (tags[s1] & m.smask[1]) | (tags[s2] & m.smask[2]);
                // Poison propagation / deferred faults (§2.1) and the
                // rare shapes (trap checks, load-verify commits) all go
                // through the one full-semantics interpreter.
                if poisoned || m.class == OpClass::General {
                    match exec_parcel_general(
                        op,
                        vals,
                        tags,
                        mem,
                        cache,
                        infinite,
                        stats,
                        scratch,
                        &mut last_base,
                    ) {
                        Ok(()) => continue,
                        Err(exit) => return exit,
                    }
                }
                match m.class {
                    // Committed single-destination value ops, by
                    // descending dynamic frequency. Lowering guarantees
                    // these have a destination and no carry-out.
                    OpClass::Copy => {
                        let d = m.d1 as usize;
                        vals[d] = vals[s0];
                        tags[d] = false;
                        scratch.tag_info[d] = None;
                        scratch.events.push(ArchEvent::Def { d1: Reg(m.d1), d2: None });
                        commit_base!(op);
                    }
                    OpClass::LoadImm => {
                        let d = m.d1 as usize;
                        vals[d] = op.imm as u32;
                        tags[d] = false;
                        scratch.tag_info[d] = None;
                        scratch.events.push(ArchEvent::Def { d1: Reg(m.d1), d2: None });
                        commit_base!(op);
                    }
                    OpClass::Add => {
                        let d = m.d1 as usize;
                        vals[d] = vals[s0].wrapping_add(vals[s1]);
                        tags[d] = false;
                        scratch.tag_info[d] = None;
                        scratch.events.push(ArchEvent::Def { d1: Reg(m.d1), d2: None });
                        commit_base!(op);
                    }
                    OpClass::AddImm => {
                        let d = m.d1 as usize;
                        vals[d] = vals[s0].wrapping_add(op.imm as u32);
                        tags[d] = false;
                        scratch.tag_info[d] = None;
                        scratch.events.push(ArchEvent::Def { d1: Reg(m.d1), d2: None });
                        commit_base!(op);
                    }
                    OpClass::CmpSImm => {
                        let d = m.d1 as usize;
                        vals[d] = compare(vals[s0], op.imm as u32, true, vals[s1] & 1 != 0);
                        tags[d] = false;
                        scratch.tag_info[d] = None;
                        scratch.events.push(ArchEvent::Def { d1: Reg(m.d1), d2: None });
                        commit_base!(op);
                    }
                    OpClass::RotlImmMask => {
                        let d = m.d1 as usize;
                        vals[d] = vals[s0].rotate_left(op.imm as u32 & 31) & op.imm2;
                        tags[d] = false;
                        scratch.tag_info[d] = None;
                        scratch.events.push(ArchEvent::Def { d1: Reg(m.d1), d2: None });
                        commit_base!(op);
                    }
                    OpClass::Value => {
                        let sv = [vals[s0], vals[s1], vals[s2]];
                        let EvalOut::Value { v, carry } = eval(op, &sv[..m.nsrc as usize]) else {
                            unreachable!("non-memory ops evaluate to values")
                        };
                        if m.d1 != OpMeta::NONE {
                            let d = m.d1 as usize;
                            vals[d] = v;
                            tags[d] = false;
                            scratch.tag_info[d] = None;
                        }
                        if m.d2 != OpMeta::NONE {
                            let d2 = m.d2 as usize;
                            vals[d2] = u32::from(carry.unwrap_or(false));
                            tags[d2] = false;
                            scratch.tag_info[d2] = None;
                        }
                        if m.d1 != OpMeta::NONE {
                            scratch.events.push(ArchEvent::Def { d1: Reg(m.d1), d2: op.dest2 });
                            commit_base!(op);
                        }
                    }
                    OpClass::SpecValue => {
                        let sv = [vals[s0], vals[s1], vals[s2]];
                        let EvalOut::Value { v, carry } = eval(op, &sv[..m.nsrc as usize]) else {
                            unreachable!("non-memory ops evaluate to values")
                        };
                        if m.d1 != OpMeta::NONE {
                            let d = m.d1 as usize;
                            vals[d] = v;
                            tags[d] = false;
                            scratch.tag_info[d] = None;
                        }
                        if m.d2 != OpMeta::NONE {
                            let d2 = m.d2 as usize;
                            vals[d2] = u32::from(carry.unwrap_or(false));
                            tags[d2] = false;
                            scratch.tag_info[d2] = None;
                        }
                    }
                    OpClass::Load => {
                        let OpKind::Load { width, algebraic } = op.kind else {
                            unreachable!("Load class carries a load op")
                        };
                        let sv = [vals[s0], vals[s1], vals[s2]];
                        let ea = effective_address(op, &sv[..m.nsrc as usize]);
                        // Device reads have side effects: never touch
                        // the MMIO window from translated code. A
                        // speculative MMIO load poisons like a fault
                        // (flagged so its commit bails instead of
                        // raising a DSI); a non-speculative one bails
                        // to the interpreter here, state exact.
                        if mem.is_mmio_inline(ea) {
                            if op.speculative {
                                let d = m.d1 as usize;
                                vals[d] = 0;
                                tags[d] = true;
                                scratch.tag_info[d] = Some((ea, false, true));
                                scratch.touched.push(d as u8);
                                continue;
                            }
                            return GroupExit::Mmio { addr: op.base_addr };
                        }
                        match read_mem(mem, ea, width, algebraic) {
                            Ok(v) => {
                                if !infinite {
                                    let acc = cache.access_data(ea, false);
                                    if acc.l0_miss {
                                        stats.load_l0_misses += 1;
                                    }
                                    stats.stall_cycles += u64::from(acc.penalty);
                                }
                                stats.loads += 1;
                                let d = m.d1 as usize;
                                vals[d] = v;
                                tags[d] = false;
                                scratch.tag_info[d] = None;
                                if op.bypassed_store {
                                    scratch.pending[d] =
                                        Some(PendingLoad { ea, width, algebraic, value: v });
                                    scratch.touched.push(d as u8);
                                }
                                if !op.speculative {
                                    scratch.events.push(ArchEvent::Def { d1: Reg(m.d1), d2: None });
                                    commit_base!(op);
                                }
                            }
                            Err(()) => {
                                if op.speculative {
                                    // "A speculative operation that
                                    // causes an error … just sets the
                                    // exception tag bit."
                                    let d = m.d1 as usize;
                                    vals[d] = 0;
                                    tags[d] = true;
                                    scratch.tag_info[d] = Some((ea, false, false));
                                    scratch.touched.push(d as u8);
                                } else {
                                    return GroupExit::Exception {
                                        kind: ExcKind::Dsi { addr: ea, write: false },
                                        base_addr: op.base_addr,
                                        fault_idx: scratch.events.len(),
                                    };
                                }
                            }
                        }
                    }
                    OpClass::Store => {
                        let OpKind::Store { width } = op.kind else {
                            unreachable!("Store class carries a store op")
                        };
                        let sv = [vals[s0], vals[s1], vals[s2]];
                        let ea = effective_address(op, &sv[..m.nsrc as usize]);
                        // Stores are never speculative; bail to the
                        // interpreter before the device sees the write.
                        if mem.is_mmio_inline(ea) {
                            return GroupExit::Mmio { addr: op.base_addr };
                        }
                        match write_mem(mem, ea, width, sv[0]) {
                            Ok(()) => {
                                if !infinite {
                                    let acc = cache.access_data(ea, true);
                                    if acc.l0_miss {
                                        stats.store_l0_misses += 1;
                                    }
                                    stats.stall_cycles += u64::from(acc.penalty);
                                }
                                stats.stores += 1;
                                scratch.events.push(ArchEvent::Store);
                                commit_base!(op);
                                if mem.has_code_writes() {
                                    stats.code_modifications += 1;
                                    return GroupExit::CodeModified { addr: op.base_addr };
                                }
                            }
                            Err(()) => {
                                return GroupExit::Exception {
                                    kind: ExcKind::Dsi { addr: ea, write: true },
                                    base_addr: op.base_addr,
                                    fault_idx: scratch.events.len(),
                                };
                            }
                        }
                    }
                    OpClass::General => unreachable!("routed to exec_parcel_general above"),
                }
            }
            match n.ctrl {
                PackedCtrl::Cond { cond, taken, fall } => {
                    debug_assert!(!tags[cond.src.index()], "branch conditions are committed clean");
                    let t = cond.holds(vals[cond.src.index()]);
                    match cond.spec_target {
                        // A Ch. 6 indirect-branch specialization: the
                        // taken side is the true indirect exit, the
                        // fall side continues inline at the target.
                        Some(spec) => {
                            scratch.events.push(ArchEvent::IndirectDir(if t {
                                None
                            } else {
                                Some(spec)
                            }));
                        }
                        None => scratch.events.push(ArchEvent::Dir(t)),
                    }
                    // Resolution completes the branch instruction, but
                    // a CTR-decrementing branch also commits its count
                    // register, which already counted it — dedup
                    // through the same last-base filter as commits.
                    if last_base != cond.origin {
                        last_base = cond.origin;
                        stats.base_instrs += 1;
                    }
                    node = if t { taken } else { fall } as usize;
                }
                PackedCtrl::Next { vliw: next } => {
                    stats.issue_histogram[parcels_this_vliw.min(24)] += 1;
                    if next as usize <= vliw && stats.vliws_executed >= backedge_limit {
                        return GroupExit::Branch {
                            target: packed.anchor(next as usize),
                            via: None,
                            slot: None,
                        };
                    }
                    vliw = next as usize;
                    break;
                }
                PackedCtrl::Leave { target, slot } => {
                    stats.issue_histogram[parcels_this_vliw.min(24)] += 1;
                    return GroupExit::Branch { target, via: None, slot: Some(slot as usize) };
                }
                PackedCtrl::Indirect { src, via } => {
                    stats.issue_histogram[parcels_this_vliw.min(24)] += 1;
                    debug_assert!(!tags[src.index()], "indirect targets are committed clean");
                    return GroupExit::Branch {
                        target: vals[src.index()] & !3,
                        via: Some(via),
                        slot: None,
                    };
                }
                PackedCtrl::Interp { addr } => {
                    stats.issue_histogram[parcels_this_vliw.min(24)] += 1;
                    return GroupExit::Interp { addr };
                }
            }
        }
    }
}

/// The packed engine's full-semantics parcel interpreter, over the
/// register file's raw arrays and the scratch tables. [`run_group`]
/// routes here whenever a
/// source carries an exception tag (poison propagation / deferred
/// faults, §2.1) or the parcel's [`OpClass`] is
/// [`General`](OpClass::General) (trap checks, load-verify commits);
/// everything hot runs in the class-dispatched arms inlined into the
/// walk loop.
// invariant: the translator only emits `Load` operations with a
// destination register (convert.rs builds them via `.dst(..)`), so the
// `op.dest.expect(..)` calls below cannot fire on translated code.
#[allow(clippy::too_many_arguments, clippy::expect_used)]
fn exec_parcel_general(
    op: &Operation,
    vals: &mut [u32; NUM_REGS],
    tags: &mut [bool; NUM_REGS],
    mem: &mut Memory,
    cache: &mut Hierarchy,
    infinite: bool,
    stats: &mut RunStats,
    scratch: &mut EngineScratch,
    last_base: &mut u32,
) -> Result<(), GroupExit> {
    let nsrc = op.srcs().len();
    let mut src_vals = [0u32; 3];
    let mut tagged: Option<Reg> = None;
    for (i, s) in op.srcs().iter().enumerate() {
        src_vals[i] = vals[s.index()];
        if tags[s.index()] {
            tagged = Some(*s);
        }
    }
    let src_vals = &src_vals[..nsrc];

    // Exception-tag semantics (§2.1): speculative consumers propagate
    // the poison; non-speculative consumers take the deferred fault.
    if let Some(t) = tagged {
        if op.speculative {
            let info = scratch.tag_info[t.index()];
            for d in [op.dest, op.dest2].into_iter().flatten() {
                vals[d.index()] = 0;
                tags[d.index()] = true;
                scratch.tag_info[d.index()] = info;
                scratch.touched.push(d.index() as u8);
            }
            return Ok(());
        }
        let (addr, write, mmio) = scratch.tag_info[t.index()].unwrap_or((0, false, false));
        if mmio {
            // The poison marks a speculative MMIO load, not a fault:
            // bail so the interpreter performs the device read once,
            // in program order, at this commit point.
            return Err(GroupExit::Mmio { addr: op.base_addr });
        }
        return Err(GroupExit::Exception {
            kind: ExcKind::Dsi { addr, write },
            base_addr: op.base_addr,
            fault_idx: scratch.events.len(),
        });
    }

    let count_completion = |stats: &mut RunStats, last_base: &mut u32, addr: u32| {
        if *last_base != addr {
            *last_base = addr;
            stats.base_instrs += 1;
        }
    };

    match op.kind {
        OpKind::Load { width, algebraic } => {
            let ea = effective_address(op, src_vals);
            // Same MMIO discipline as the class-dispatched Load arm.
            if mem.is_mmio_inline(ea) {
                if op.speculative {
                    let d = op.dest.expect("loads have destinations");
                    vals[d.index()] = 0;
                    tags[d.index()] = true;
                    scratch.tag_info[d.index()] = Some((ea, false, true));
                    scratch.touched.push(d.index() as u8);
                    return Ok(());
                }
                return Err(GroupExit::Mmio { addr: op.base_addr });
            }
            match read_mem(mem, ea, width, algebraic) {
                Ok(v) => {
                    if !infinite {
                        let acc = cache.access_data(ea, false);
                        if acc.l0_miss {
                            stats.load_l0_misses += 1;
                        }
                        stats.stall_cycles += u64::from(acc.penalty);
                    }
                    stats.loads += 1;
                    let d = op.dest.expect("loads have destinations");
                    vals[d.index()] = v;
                    tags[d.index()] = false;
                    scratch.tag_info[d.index()] = None;
                    if op.bypassed_store {
                        scratch.pending[d.index()] =
                            Some(PendingLoad { ea, width, algebraic, value: v });
                        scratch.touched.push(d.index() as u8);
                    }
                    if !op.speculative {
                        scratch.events.push(ArchEvent::Def { d1: d, d2: None });
                        count_completion(stats, last_base, op.base_addr);
                    }
                }
                Err(()) => {
                    if op.speculative {
                        // "A speculative operation that causes an error
                        // … just sets the exception tag bit."
                        let d = op.dest.expect("loads have destinations");
                        vals[d.index()] = 0;
                        tags[d.index()] = true;
                        scratch.tag_info[d.index()] = Some((ea, false, false));
                        scratch.touched.push(d.index() as u8);
                    } else {
                        return Err(GroupExit::Exception {
                            kind: ExcKind::Dsi { addr: ea, write: false },
                            base_addr: op.base_addr,
                            fault_idx: scratch.events.len(),
                        });
                    }
                }
            }
        }
        OpKind::Store { width } => {
            let ea = effective_address(op, src_vals);
            if mem.is_mmio_inline(ea) {
                return Err(GroupExit::Mmio { addr: op.base_addr });
            }
            match write_mem(mem, ea, width, src_vals[0]) {
                Ok(()) => {
                    if !infinite {
                        let acc = cache.access_data(ea, true);
                        if acc.l0_miss {
                            stats.store_l0_misses += 1;
                        }
                        stats.stall_cycles += u64::from(acc.penalty);
                    }
                    stats.stores += 1;
                    scratch.events.push(ArchEvent::Store);
                    count_completion(stats, last_base, op.base_addr);
                    if mem.has_code_writes() {
                        stats.code_modifications += 1;
                        return Err(GroupExit::CodeModified { addr: op.base_addr });
                    }
                }
                Err(()) => {
                    return Err(GroupExit::Exception {
                        kind: ExcKind::Dsi { addr: ea, write: true },
                        base_addr: op.base_addr,
                        fault_idx: scratch.events.len(),
                    });
                }
            }
        }
        OpKind::TrapIf { .. } => match eval(op, src_vals) {
            EvalOut::Trap(true) => {
                return Err(GroupExit::Exception {
                    kind: ExcKind::Trap,
                    base_addr: op.base_addr,
                    fault_idx: scratch.events.len(),
                });
            }
            EvalOut::Trap(false) => {
                scratch.events.push(ArchEvent::TrapCheck);
                count_completion(stats, last_base, op.base_addr);
            }
            _ => unreachable!("TrapIf evaluates to Trap"),
        },
        _ => {
            let EvalOut::Value { v, carry } = eval(op, src_vals) else {
                unreachable!("non-memory ops evaluate to values")
            };
            // Load-verify at the commit of a bypassed load (§2.1: "the
            // value must be reloaded and execution re-commenced from
            // the point of the load").
            if op.is_commit && op.bypassed_store {
                let src = op.srcs()[0];
                if let Some(pl) = scratch.pending[src.index()] {
                    if read_mem(mem, pl.ea, pl.width, pl.algebraic) != Ok(pl.value) {
                        stats.alias_failures += 1;
                        return Err(GroupExit::AliasRestart { addr: op.base_addr });
                    }
                }
            }
            if let Some(d) = op.dest {
                vals[d.index()] = v;
                tags[d.index()] = false;
                scratch.tag_info[d.index()] = None;
            }
            if let Some(d2) = op.dest2 {
                vals[d2.index()] = u32::from(carry.unwrap_or(false));
                tags[d2.index()] = false;
                scratch.tag_info[d2.index()] = None;
            }
            if !op.speculative {
                if let Some(d) = op.dest {
                    scratch.events.push(ArchEvent::Def { d1: d, d2: op.dest2 });
                    count_completion(stats, last_base, op.base_addr);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{translate_group, TranslatorConfig};
    use daisy_isa::GuestCpu as _;
    use daisy_ppc::asm::Asm;
    use daisy_ppc::interp::Cpu;
    use daisy_ppc::reg::{CrField, Gpr};

    fn setup(build: impl FnOnce(&mut Asm)) -> (GroupCode, Memory) {
        let mut a = Asm::new(0x1000);
        build(&mut a);
        let prog = a.finish().unwrap();
        let mut mem = Memory::new(0x40000);
        prog.load_into(&mut mem).unwrap();
        let cfg = TranslatorConfig::default();
        let (group, _) = translate_group::<daisy_ppc::PpcIsa>(&cfg, &mem, prog.entry);
        let n = group.len();
        let code = GroupCode::new(group, (0..n as u32).map(|i| 0x8000_0000 + i * 64).collect());
        (code, mem)
    }

    fn run(code: &GroupCode, mem: &mut Memory, rf: &mut RegFile) -> (GroupExit, RunStats) {
        let mut cache = Hierarchy::infinite();
        let mut stats = RunStats::default();
        let mut scratch = EngineScratch::new();
        let exit = run_group(code, rf, mem, &mut cache, &mut stats, &mut scratch);
        (exit, stats)
    }

    #[test]
    fn executes_straight_line_arithmetic() {
        let (code, mut mem) = setup(|a| {
            a.add(Gpr(3), Gpr(1), Gpr(2));
            a.add(Gpr(4), Gpr(3), Gpr(3));
            a.sc();
        });
        let mut rf = RegFile::new();
        rf.set(Reg::gpr(Gpr(1)), 4);
        rf.set(Reg::gpr(Gpr(2)), 6);
        let (exit, _) = run(&code, &mut mem, &mut rf);
        assert_eq!(exit, GroupExit::Interp { addr: 0x1008 });
        assert_eq!(rf.get(Reg::gpr(Gpr(3))), 10);
        assert_eq!(rf.get(Reg::gpr(Gpr(4))), 20);
    }

    #[test]
    fn tree_branch_selects_path() {
        let (code, mut mem) = setup(|a| {
            a.cmpwi(CrField(0), Gpr(3), 0);
            a.beq(CrField(0), "zero");
            a.li(Gpr(5), 1);
            a.sc();
            a.label("zero");
            a.li(Gpr(5), 2);
            a.sc();
        });
        let mut rf = RegFile::new();
        rf.set(Reg::gpr(Gpr(3)), 0);
        let (_, _) = run(&code, &mut mem, &mut rf);
        assert_eq!(rf.get(Reg::gpr(Gpr(5))), 2);

        let mut rf = RegFile::new();
        rf.set(Reg::gpr(Gpr(3)), 7);
        let (_, _) = run(&code, &mut mem, &mut rf);
        assert_eq!(rf.get(Reg::gpr(Gpr(5))), 1);
    }

    #[test]
    fn speculative_load_fault_is_deferred_until_commit() {
        // The load is moved above the guarding branch: executed
        // speculatively it must not fault when r9 is a bad pointer and
        // the branch skips it.
        let (code, mut mem) = setup(|a| {
            a.cmpwi(CrField(0), Gpr(3), 0);
            a.beq(CrField(0), "skip");
            a.lwz(Gpr(5), 0, Gpr(9));
            a.label("skip");
            a.li(Gpr(6), 9);
            a.sc();
        });
        let mut rf = RegFile::new();
        rf.set(Reg::gpr(Gpr(3)), 0); // take the skip
        rf.set(Reg::gpr(Gpr(9)), 0x00F0_0000); // invalid address
        let (exit, _) = run(&code, &mut mem, &mut rf);
        assert!(
            matches!(exit, GroupExit::Interp { .. }),
            "skipped faulting load must not raise: {exit:?}"
        );
        assert_eq!(rf.get(Reg::gpr(Gpr(6))), 9);

        // Fall through: the poisoned value is consumed at commit.
        let mut rf = RegFile::new();
        rf.set(Reg::gpr(Gpr(3)), 1);
        rf.set(Reg::gpr(Gpr(9)), 0x00F0_0000);
        let (exit, _) = run(&code, &mut mem, &mut rf);
        match exit {
            GroupExit::Exception {
                kind: ExcKind::Dsi { addr, write: false }, base_addr, ..
            } => {
                assert_eq!(addr, 0x00F0_0000);
                assert_eq!(base_addr, 0x1008);
            }
            other => panic!("expected deferred DSI, got {other:?}"),
        }
    }

    #[test]
    fn alias_restart_on_bypassed_load() {
        // Store and load overlap at runtime (same address via different
        // registers); the hoisted load must be caught at commit. The
        // store's value arrives late so the load truly bypasses it.
        let (code, mut mem) = setup(|a| {
            a.add(Gpr(10), Gpr(8), Gpr(9));
            a.add(Gpr(11), Gpr(10), Gpr(10));
            a.stw(Gpr(11), 0, Gpr(1));
            a.lwz(Gpr(4), 0, Gpr(2));
            a.add(Gpr(5), Gpr(4), Gpr(4));
            a.sc();
        });
        let mut rf = RegFile::new();
        rf.set(Reg::gpr(Gpr(1)), 0x9000);
        rf.set(Reg::gpr(Gpr(2)), 0x9000); // alias!
        rf.set(Reg::gpr(Gpr(8)), 0x55);
        let (exit, stats) = run(&code, &mut mem, &mut rf);
        assert_eq!(exit, GroupExit::AliasRestart { addr: 0x100C });
        assert_eq!(stats.alias_failures, 1);

        // Disjoint addresses execute cleanly.
        let mut rf = RegFile::new();
        rf.set(Reg::gpr(Gpr(1)), 0x9000);
        rf.set(Reg::gpr(Gpr(2)), 0x9100);
        mem.write_u32(0x9100, 5).unwrap();
        let (exit, stats) = run(&code, &mut mem, &mut rf);
        assert!(matches!(exit, GroupExit::Interp { .. }));
        assert_eq!(stats.alias_failures, 0);
        assert_eq!(rf.get(Reg::gpr(Gpr(5))), 10);
    }

    #[test]
    fn self_modifying_store_reports_code_modification() {
        let (code, mut mem) = setup(|a| {
            a.stw(Gpr(3), 0, Gpr(1));
            a.sc();
        });
        mem.set_translated_bit(0x2000);
        let mut rf = RegFile::new();
        rf.set(Reg::gpr(Gpr(1)), 0x2004);
        let (exit, stats) = run(&code, &mut mem, &mut rf);
        assert_eq!(exit, GroupExit::CodeModified { addr: 0x1000 });
        assert_eq!(stats.code_modifications, 1);
    }

    #[test]
    fn matches_interpreter_on_mixed_code() {
        let build = |a: &mut Asm| {
            a.li(Gpr(1), 0x4000 >> 2);
            a.slwi(Gpr(1), Gpr(1), 2);
            a.li(Gpr(3), 17);
            a.stw(Gpr(3), 0, Gpr(1));
            a.lwz(Gpr(4), 0, Gpr(1));
            a.addic(Gpr(5), Gpr(4), 0x7FFF);
            a.adde(Gpr(6), Gpr(5), Gpr(4));
            a.cmpwi(CrField(0), Gpr(6), 0);
            a.bgt(CrField(0), "pos");
            a.li(Gpr(7), 0);
            a.sc();
            a.label("pos");
            a.li(Gpr(7), 1);
            a.sc();
        };
        let (code, mut mem) = setup(build);
        let mut rf = RegFile::new();
        let (exit, _) = run(&code, &mut mem, &mut rf);

        // Reference run.
        let mut a = Asm::new(0x1000);
        build(&mut a);
        let prog = a.finish().unwrap();
        let mut mem2 = Memory::new(0x40000);
        prog.load_into(&mut mem2).unwrap();
        let mut cpu = Cpu::new(prog.entry);
        cpu.run(&mut mem2, 100).unwrap();

        let mut cpu_daisy = Cpu::new(0);
        cpu_daisy.write_back(&rf);
        for i in 0..32 {
            assert_eq!(cpu_daisy.gpr[i], cpu.gpr[i], "r{i} mismatch");
        }
        assert_eq!(cpu_daisy.cr, cpu.cr);
        // The Interp exit lands on the sc the interpreter stopped after.
        assert!(matches!(exit, GroupExit::Interp { addr } if addr + 4 == cpu.pc));
    }
}
