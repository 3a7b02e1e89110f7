//! The Virtual Machine Monitor: page-granular translation management
//! (paper Chapter 3).
//!
//! The VMM owns the translated-code area. Translations are created the
//! first time execution reaches an entry point ("VLIW translation
//! missing" / "invalid entry point" exceptions in the paper collapse,
//! in this functional model, into a map miss), are keyed by page, and
//! are destroyed when a store touches a page whose read-only
//! (translated) bit is set.
//!
//! Code layout uses the paper's *second* mapping option (start of
//! Ch. 3): a hash table from base address to translated code, with each
//! group allocated contiguously — "code for a translated page can be
//! contiguous … and there is less wastage". Table 5.1's code
//! expansion is therefore measured, not fixed: bytes of translated code
//! produced per page translated.

use crate::engine::GroupCode;
use crate::error::{Degradation, DegradeCause, Rung};
use crate::sched::{translate_recycled, Hints, TranslatorConfig, XlateCost};
use crate::trace::{FlightRecorder, TraceEvent};
use daisy_isa::convert::BranchKind;
use daisy_isa::mem::Memory;
use daisy_isa::{DecodeCache, Event, GuestCpu, Isa, PAGE_SIZE};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::rc::Rc;

/// Where the translated-code area begins in VLIW address space
/// (paper Fig. 3.1 uses this same value).
pub const VLIW_BASE: u32 = 0x8000_0000;

/// VMM-level statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmmStats {
    /// Pages with at least one translation created.
    pub pages_translated: u64,
    /// Groups (entry points) translated.
    pub groups_translated: u64,
    /// Page translations destroyed by code modification.
    pub invalidations: u64,
    /// Page translations evicted to stay within the translated-code
    /// area's capacity (the paper's LRU page-frame pool).
    pub cast_outs: u64,
    /// Entry points retranslated with load speculation inhibited after
    /// repeated run-time aliasing (the paper's proposed-but-unbuilt
    /// remedy in Ch. 5, implemented here).
    pub alias_retranslations: u64,
    /// Bytes of translated VLIW code currently live.
    pub code_bytes: u64,
    /// Bytes of translated code ever produced (monotone; Fig. 5.4).
    pub code_bytes_total: u64,
}

/// Direct-mapped per-page translation table. Entry points are 4-byte
/// aligned, so `page_size/4` slots cover every possible entry in the
/// page and lookup is a single array index by word-offset — the
/// dispatch path's inner probe is O(1) with no hashing or collision
/// chains.
#[derive(Debug)]
struct PageTable {
    slots: Box<[Option<Rc<GroupCode>>]>,
    live: usize,
    /// The VMM tick of the page's last lookup, for LRU cast-out.
    last_use: u64,
}

impl PageTable {
    fn new(nslots: usize, tick: u64) -> PageTable {
        PageTable { slots: vec![None; nslots].into_boxed_slice(), live: 0, last_use: tick }
    }

    fn get(&self, slot: usize) -> Option<&Rc<GroupCode>> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    fn insert(&mut self, slot: usize, code: Rc<GroupCode>) {
        if self.slots[slot].replace(code).is_none() {
            self.live += 1;
        }
    }

    fn remove(&mut self, slot: usize) -> Option<Rc<GroupCode>> {
        let g = self.slots.get_mut(slot)?.take();
        if g.is_some() {
            self.live -= 1;
        }
        g
    }

    /// Live translations in slot order.
    fn groups(&self) -> impl Iterator<Item = &Rc<GroupCode>> {
        self.slots.iter().flatten()
    }
}

/// The Virtual Machine Monitor's translation cache.
#[derive(Debug)]
pub struct Vmm<I: Isa> {
    /// Translator configuration (machine, page size, window…).
    pub cfg: TranslatorConfig,
    /// Page index → direct-mapped entry table for that page.
    pages: HashMap<u32, PageTable>,
    /// Lookups so far; each stamps its page's `PageTable::last_use`.
    tick: u64,
    /// Capacity of the translated-code area, if bounded.
    capacity: Option<u64>,
    /// After this many alias restarts, an entry is retranslated with
    /// load speculation off (None = keep speculating, as the paper's
    /// measured system did).
    pub alias_retranslate_after: Option<u32>,
    alias_counts: HashMap<u32, u32>,
    no_spec_entries: HashSet<u32>,
    next_code_addr: u32,
    /// Cumulative translation cost.
    pub cost: XlateCost,
    /// Counters.
    pub stats: VmmStats,
    /// The flight recorder every trace event lands in (see
    /// [`crate::trace`]).
    pub tracer: FlightRecorder,
    /// Log of every ladder step taken this run (see [`crate::error`]);
    /// the system appends its dispatch-path degradations here too, so
    /// one list holds the run's full fallback history.
    degradations: Vec<Degradation>,
    _isa: PhantomData<I>,
}

impl<I: Isa> Vmm<I> {
    /// Creates an empty VMM with the given translator configuration and
    /// an unbounded translated-code area.
    pub fn new(cfg: TranslatorConfig) -> Vmm<I> {
        Vmm {
            cfg,
            pages: HashMap::new(),
            tick: 0,
            capacity: None,
            alias_retranslate_after: None,
            alias_counts: HashMap::new(),
            no_spec_entries: HashSet::new(),
            next_code_addr: VLIW_BASE,
            cost: XlateCost::default(),
            stats: VmmStats::default(),
            tracer: FlightRecorder::default(),
            degradations: Vec::new(),
            _isa: PhantomData,
        }
    }

    /// Bounds the translated-code area: when live code exceeds
    /// `bytes`, least-recently-used page translations are cast out
    /// (the paper's "pool of page frames in the upper part of VLIW real
    /// storage (discarding the least recently used ones in the pool)").
    /// An undersized pool thrashes, exactly as §5.1 warns.
    pub fn set_code_capacity(&mut self, bytes: Option<u64>) {
        self.capacity = bytes;
    }

    fn cast_out_lru(&mut self, keep: u32) {
        let Some(cap) = self.capacity else { return };
        while self.stats.code_bytes > cap && self.pages.len() > 1 {
            // Ticks are unique, so the victim does not depend on the
            // map's iteration order.
            let Some(victim) = self
                .pages
                .iter()
                .filter(|(p, _)| **p != keep)
                .min_by_key(|(_, t)| t.last_use)
                .map(|(&p, _)| p)
            else {
                return;
            };
            self.remove_page(victim, |page, groups| TraceEvent::CastOut { page, groups });
            self.stats.cast_outs += 1;
        }
    }

    /// Destroys every translation on `page`, releasing their code
    /// bytes and emitting `event(page, groups destroyed)`. Returns the
    /// number of groups destroyed, or `None` if the page had none.
    fn remove_page(
        &mut self,
        page: u32,
        event: impl FnOnce(u32, u32) -> TraceEvent,
    ) -> Option<usize> {
        let table = self.pages.remove(&page)?;
        for g in table.groups() {
            self.stats.code_bytes = self.stats.code_bytes.saturating_sub(u64::from(g.code_bytes));
        }
        self.tracer.emit(|| event(page, table.live as u32));
        Some(table.live)
    }

    fn page_of(&self, addr: u32) -> u32 {
        addr / self.cfg.page_size
    }

    /// Word-offset slot of `addr` within its page's direct-mapped table.
    fn slot_of(&self, addr: u32) -> usize {
        ((addr % self.cfg.page_size) / 4) as usize
    }

    /// Looks up the translation for `addr`, creating it (and marking
    /// the page's translated bit) on first use.
    pub fn entry(&mut self, mem: &mut Memory, addr: u32) -> Rc<GroupCode> {
        self.entry_with_cpu(mem, addr, None)
    }

    /// Like [`Vmm::entry`], with the architected CPU state available so
    /// interpretive compilation (paper Ch. 6) can interpret ahead from
    /// the entry point before scheduling.
    pub fn entry_with_cpu(
        &mut self,
        mem: &mut Memory,
        addr: u32,
        cpu: Option<&I::Cpu>,
    ) -> Rc<GroupCode> {
        let page = self.page_of(addr);
        let slot = self.slot_of(addr);
        self.tick += 1;
        let tick = self.tick;
        if let Some(table) = self.pages.get_mut(&page) {
            table.last_use = tick;
            if let Some(g) = table.get(slot) {
                return Rc::clone(g);
            }
        }
        // Every entry borrows the base config, except one that aliased
        // too often: it is rebuilt with load speculation off.
        let mut cfg = Cow::Borrowed(&self.cfg);
        if self.no_spec_entries.contains(&addr) {
            // This entry aliased too often: rebuild it conservatively.
            cfg.to_mut().speculate_loads = false;
        }
        let conservative = !cfg.speculate_loads;
        let (hints, exhausted) = match cpu {
            Some(cpu) if cfg.interpretive => gather_hints::<I>(&cfg, mem, cpu, addr),
            _ => (Hints::default(), false),
        };
        // Lay the group's tree instructions out contiguously in the
        // translated-code area and lower it, from the scheduler's
        // recycled tree.
        let start = self.next_code_addr;
        let (code, cost) = translate_recycled::<I, _>(&cfg, mem, addr, &hints, |group| {
            let mut vliw_addrs = Vec::with_capacity(group.len());
            let mut at = start;
            for v in &group.vliws {
                vliw_addrs.push(at);
                at = at.wrapping_add(v.code_bytes());
            }
            GroupCode::new(group, vliw_addrs, at.wrapping_sub(start))
        });
        if exhausted {
            // The interpret-ahead window ran dry before a group
            // boundary: the translation is sound but its hints are
            // truncated. Surface it as a typed degradation instead of
            // silently shipping a lower-quality translation.
            self.record_degradation(Degradation {
                entry: addr,
                from: Rung::Packed,
                to: Rung::Packed,
                cause: DegradeCause::HintBudget,
            });
        }
        self.cost.add(&cost);
        self.stats.groups_translated += 1;
        let bytes = code.code_bytes;
        self.next_code_addr = start.wrapping_add(bytes);
        self.stats.code_bytes += u64::from(bytes);
        self.stats.code_bytes_total += u64::from(bytes);

        // §3.2: mark every 4 KiB base-architecture unit we translated
        // from, so stores into it raise code-modification events. (A
        // group is contained in one translation page by construction;
        // translation pages are ≥ the 4 KiB unit or smaller — mark the
        // 4 KiB unit(s) covering the translation page.)
        let lo = page * self.cfg.page_size;
        let hi = lo + self.cfg.page_size - 1;
        let mut unit = lo / PAGE_SIZE * PAGE_SIZE;
        while unit <= hi {
            mem.set_translated_bit(unit);
            unit += PAGE_SIZE;
        }

        let nslots = (self.cfg.page_size / 4) as usize;
        let table = self.pages.entry(page).or_insert_with(|| {
            // First translation for this page.
            PageTable::new(nslots, tick)
        });
        if table.live == 0 {
            self.stats.pages_translated += 1;
        }
        let nvliws = code.vliw_addrs.len() as u32;
        let rc = Rc::new(code);
        table.insert(slot, Rc::clone(&rc));
        self.tracer.emit(|| TraceEvent::Translate {
            entry: addr,
            page,
            vliws: nvliws,
            code_bytes: bytes,
            conservative,
        });
        // Stay within the translated-code area, casting out LRU pages
        // (their stale read-only bits are harmless: a store there takes
        // one spurious, idempotent code-modification service).
        self.cast_out_lru(page);
        rc
    }

    /// Records a run-time alias restart against the group entered at
    /// `entry`. When the configured threshold is crossed, the entry's
    /// translation is dropped and marked for conservative retranslation
    /// (no load-over-store motion) — the remedy the paper sketches for
    /// "benchmarks with high amounts of runtime aliasing".
    pub fn note_alias_restart(&mut self, entry: u32) {
        let Some(limit) = self.alias_retranslate_after else { return };
        let c = self.alias_counts.entry(entry).or_insert(0);
        *c += 1;
        if *c >= limit && self.no_spec_entries.insert(entry) {
            self.stats.alias_retranslations += 1;
            self.drop_entry(entry);
            self.tracer.emit(|| TraceEvent::AliasRetranslate { entry });
        }
    }

    /// Drops the translation for one entry point (leaving the page's
    /// other entries alone), so the next dispatch retranslates it.
    /// Inbound chain links sever automatically when the `Rc` drops.
    fn drop_entry(&mut self, entry: u32) {
        let page = self.page_of(entry);
        let slot = self.slot_of(entry);
        if let Some(table) = self.pages.get_mut(&page) {
            if let Some(g) = table.remove(slot) {
                self.stats.code_bytes =
                    self.stats.code_bytes.saturating_sub(u64::from(g.code_bytes));
            }
        }
    }

    /// Returns the existing translation for `addr`, if any — one page
    /// hash plus one array index.
    pub fn lookup(&self, addr: u32) -> Option<Rc<GroupCode>> {
        self.pages.get(&self.page_of(addr)).and_then(|t| t.get(self.slot_of(addr))).cloned()
    }

    /// Destroys every translation overlapping the 4 KiB base unit with
    /// index `unit_index` (a code-modification event, §3.2), clearing
    /// the unit's translated bit.
    pub fn invalidate_unit(&mut self, mem: &mut Memory, unit_index: u32) {
        let unit_lo = unit_index * PAGE_SIZE;
        let unit_hi = unit_lo + PAGE_SIZE - 1;
        let first_page = unit_lo / self.cfg.page_size;
        let last_page = unit_hi / self.cfg.page_size;
        for page in first_page..=last_page {
            if self.remove_page(page, |page, _| TraceEvent::Invalidate { page }).is_some() {
                self.stats.invalidations += 1;
            }
        }
        mem.clear_translated_bit(unit_lo);
    }

    /// Number of live translated pages.
    pub fn live_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of live groups (entry points).
    pub fn live_groups(&self) -> usize {
        self.pages.values().map(|t| t.live).sum()
    }

    /// Panics unless the page table is the only owner of every
    /// translation it holds: everything else (chain links, the pending
    /// chain, the native tier's registry) holds weak references, so a
    /// translation and its compiled code die when their slot empties.
    /// Debug builds check this at the top of every `DaisySystem::step`.
    pub(crate) fn assert_sole_owner(&self) {
        for table in self.pages.values() {
            for g in table.slots.iter().flatten().take(table.live) {
                assert!(Rc::strong_count(g) == 1, "translation {:#x} outlives its slot", g.entry);
            }
        }
    }

    /// Every ladder step taken so far this run, in order.
    pub fn degradations(&self) -> &[Degradation] {
        &self.degradations
    }

    /// Appends one ladder step to the run's degradation log and emits
    /// it as [`TraceEvent::Degraded`].
    pub(crate) fn record_degradation(&mut self, d: Degradation) {
        self.tracer.emit(|| TraceEvent::Degraded {
            entry: d.entry,
            from: d.from,
            to: d.to,
            cause: d.cause,
        });
        self.degradations.push(d);
    }

    /// Marks `entry` for conservative (no load speculation)
    /// retranslation and drops its current translation, exactly as the
    /// alias-restart threshold does — the ladder's third rung. Returns
    /// `false` if the entry was already conservative.
    pub fn force_conservative(&mut self, entry: u32) -> bool {
        let newly = self.no_spec_entries.insert(entry);
        self.drop_entry(entry);
        newly
    }

    /// Drops the translation for one entry point, forcing the next
    /// dispatch of it through retranslation. Inbound chain links sever
    /// automatically when the `Rc` drops. Returns `true` if a live
    /// translation was dropped.
    pub fn drop_translation(&mut self, entry: u32) -> bool {
        let live = self.lookup(entry).is_some();
        self.drop_entry(entry);
        live
    }

    /// Destroys every translation on the page containing `addr`
    /// (emitting [`TraceEvent::Invalidate`]), used when a page falls to
    /// the interpret rung. Returns the number of groups destroyed.
    pub fn drop_page_of(&mut self, addr: u32) -> usize {
        let page = self.page_of(addr);
        self.remove_page(page, |page, _| TraceEvent::Invalidate { page }).unwrap_or(0)
    }

    /// Severs every outbound chain link and indirect-cache entry of
    /// every live translation, cutting the whole chain graph while the
    /// translations themselves stay live (the fault injector's
    /// chain-sever campaigns; the dispatch loop must recover through
    /// the VMM on every severed edge).
    pub fn sever_all_links(&mut self) {
        for table in self.pages.values() {
            for g in table.groups() {
                g.sever_outbound_links();
            }
        }
    }

    /// Entry points of every live translation, sorted ascending (the
    /// page map iterates in hash order; sorting keeps seed-driven
    /// injection campaigns deterministic).
    pub fn live_entries(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .pages
            .iter()
            .flat_map(|(&page, table)| {
                table.slots.iter().enumerate().filter_map(move |(slot, g)| {
                    g.as_ref().map(|_| page * self.cfg.page_size + slot as u32 * 4)
                })
            })
            .collect();
        v.sort_unstable();
        v
    }
}

/// Interprets ahead of translation on cloned state, recording branch
/// outcomes and indirect targets — the paper's "interpreting each
/// instruction after decoding it … a potentially more accurate form of
/// branch prediction" (Ch. 6).
///
/// The second return is `true` when the interpret-ahead budget
/// (`window_size * 8` instructions) ran out before a natural stopping
/// point: the hints are then *truncated*, not complete, and the caller
/// must surface that as a typed [`Degradation`] rather than silently
/// building a lower-quality translation from them.
fn gather_hints<I: Isa>(
    cfg: &TranslatorConfig,
    mem: &Memory,
    cpu: &I::Cpu,
    addr: u32,
) -> (Hints, bool) {
    let mut sim_mem = mem.clone();
    let mut sim = cpu.clone();
    sim.set_pc(addr);
    let mut counts: HashMap<u32, (u64, u64)> = HashMap::new();
    let mut indirect = HashMap::new();
    let mut dcache = DecodeCache::<I::Insn>::default();
    let budget = u64::from(cfg.window_size) * 8;
    let mut exhausted = true;
    for _ in 0..budget {
        let Ok(insn) = sim.fetch_cached(&sim_mem, &mut dcache) else {
            exhausted = false;
            break;
        };
        let pc = sim.pc();
        let info = I::branch_info(&insn, pc);
        if !matches!(sim.execute(&mut sim_mem, insn), Event::Continue) {
            exhausted = false;
            break;
        }
        if let Some(info) = info {
            match info.kind {
                BranchKind::Direct(_) => {
                    if !info.unconditional {
                        let c = counts.entry(pc).or_insert((0, 0));
                        c.0 += 1;
                        if sim.pc() != pc.wrapping_add(4) {
                            c.1 += 1;
                        }
                    }
                }
                BranchKind::ViaLr | BranchKind::ViaCtr => {
                    indirect.entry(pc).or_insert(sim.pc());
                }
            }
        }
    }
    let hints = Hints {
        taken_prob: counts
            .into_iter()
            .map(|(pc, (n, t))| (pc, t as f64 / n.max(1) as f64))
            .collect(),
        indirect_target: indirect,
    };
    (hints, exhausted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_ppc::asm::Asm;
    use daisy_ppc::reg::Gpr;

    fn mem_with_program() -> Memory {
        let mut a = Asm::new(0x1000);
        a.li(Gpr(3), 1);
        a.sc();
        let prog = a.finish().unwrap();
        let mut mem = Memory::new(0x20000);
        prog.load_into(&mut mem).unwrap();
        mem
    }

    #[test]
    fn translation_is_cached() {
        let mut mem = mem_with_program();
        let mut vmm = Vmm::<daisy_ppc::PpcIsa>::new(TranslatorConfig::default());
        let g1 = vmm.entry(&mut mem, 0x1000);
        let g2 = vmm.entry(&mut mem, 0x1000);
        assert!(Rc::ptr_eq(&g1, &g2));
        assert_eq!(vmm.stats.groups_translated, 1);
        assert!(mem.translated_bit(0x1000));
    }

    #[test]
    fn separate_entries_same_page() {
        let mut mem = mem_with_program();
        let mut vmm = Vmm::<daisy_ppc::PpcIsa>::new(TranslatorConfig::default());
        vmm.entry(&mut mem, 0x1000);
        vmm.entry(&mut mem, 0x1004);
        assert_eq!(vmm.stats.groups_translated, 2);
        assert_eq!(vmm.stats.pages_translated, 1);
        assert_eq!(vmm.live_groups(), 2);
    }

    #[test]
    fn invalidation_clears_page() {
        let mut mem = mem_with_program();
        let mut vmm = Vmm::<daisy_ppc::PpcIsa>::new(TranslatorConfig::default());
        vmm.entry(&mut mem, 0x1000);
        assert_eq!(vmm.live_pages(), 1);
        vmm.invalidate_unit(&mut mem, 0x1000 / daisy_ppc::PAGE_SIZE);
        assert_eq!(vmm.live_pages(), 0);
        assert!(!mem.translated_bit(0x1000));
        assert_eq!(vmm.stats.invalidations, 1);
        // Retranslation works and counts again.
        vmm.entry(&mut mem, 0x1000);
        assert_eq!(vmm.stats.groups_translated, 2);
    }

    #[test]
    fn code_layout_is_contiguous_from_vliw_base() {
        let mut mem = mem_with_program();
        let mut vmm = Vmm::<daisy_ppc::PpcIsa>::new(TranslatorConfig::default());
        let g = vmm.entry(&mut mem, 0x1000);
        assert_eq!(g.vliw_addrs[0], VLIW_BASE);
        for w in g.vliw_addrs.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(vmm.stats.code_bytes > 0);
    }

    #[test]
    fn lru_cast_out_evicts_cold_pages() {
        // Three single-entry pages with a capacity that holds ~one.
        let mut a = Asm::new(0x1000);
        for _ in 0..3 * 1024 {
            a.nop();
        }
        a.sc();
        let prog = a.finish().unwrap();
        let mut mem = Memory::new(0x20000);
        prog.load_into(&mut mem).unwrap();

        let mut vmm = Vmm::<daisy_ppc::PpcIsa>::new(TranslatorConfig::default());
        let g1 = vmm.entry(&mut mem, 0x1000);
        let one_page = u64::from(g1.code_bytes);
        vmm.set_code_capacity(Some(one_page + one_page / 2));
        vmm.entry(&mut mem, 0x2000); // casts out page 1 (LRU)
        assert_eq!(vmm.stats.cast_outs, 1);
        assert!(vmm.lookup(0x1000).is_none(), "page 1 was cast out");
        assert!(vmm.lookup(0x2000).is_some());
        assert!(vmm.stats.code_bytes <= one_page + one_page / 2);
        // Re-entry retranslates.
        vmm.entry(&mut mem, 0x1000);
        assert_eq!(vmm.stats.groups_translated, 3);
    }

    #[test]
    fn unbounded_vmm_never_casts_out() {
        let mut mem = mem_with_program();
        let mut vmm = Vmm::<daisy_ppc::PpcIsa>::new(TranslatorConfig::default());
        for i in 0..4 {
            vmm.entry(&mut mem, 0x1000 + 4 * i);
        }
        assert_eq!(vmm.stats.cast_outs, 0);
    }

    #[test]
    fn small_translation_pages_invalidate_with_their_unit() {
        // 256-byte translation pages: a store into the 4 KiB unit kills
        // all of them.
        let mut mem = mem_with_program();
        let cfg = TranslatorConfig { page_size: 256, ..TranslatorConfig::default() };
        let mut vmm = Vmm::<daisy_ppc::PpcIsa>::new(cfg);
        vmm.entry(&mut mem, 0x1000);
        vmm.entry(&mut mem, 0x1100);
        assert_eq!(vmm.live_pages(), 2);
        vmm.invalidate_unit(&mut mem, 1); // unit 1 = 0x1000..0x2000
        assert_eq!(vmm.live_pages(), 0);
    }
}
