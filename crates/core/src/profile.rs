//! Guest-level cycle attribution, speculation-waste accounting, and
//! exportable profiles — `perf` for the *guest*.
//!
//! The paper's whole evaluation is phrased in guest terms: ILP per
//! *base* instruction, speculative operations wasted, translation
//! overhead per base instruction (§4.2's ~4000-instruction budget).
//! A translation's dispatch counter
//! ([`crate::engine::GroupCode::dispatches`]) stops at the group
//! boundary: it can say *which entry* is hot, but not *which guest
//! instructions* own the cycles. This module closes that gap:
//!
//! * [`GuestProfile`] attributes VLIW issue cycles, stall cycles,
//!   dispatch counts, and **speculation waste** to `(group entry, guest
//!   PC)` pairs, using the provenance side-tables the lowering step
//!   builds ([`daisy_vliw::packed::PackedGroup::origins`]) and the path
//!   each dispatch took. The path is not recorded: it is rebuilt at
//!   the group boundary from the dispatch's VLIW count and its path
//!   trail, the branch directions every engine logs for §3.5 recovery
//!   (`engine::trail_path`). The native tier's trail is its compiled
//!   code's branch-direction log, which restarts at every group entry,
//!   so a profiled native system runs with a chain budget of 0: it
//!   still patches chain edges but never follows one, and runs one
//!   group per `step()`.
//!   Provenance is consulted only here, at retirement — never inside
//!   the execution hot loop.
//! * [`OverheadClock`] buckets modeled VMM time into translate /
//!   retranslate / chain-maintenance / interpret, per §4.2.
//! * Exporters: Chrome `trace_event` JSON ([`chrome_trace_json`]),
//!   flamegraph-folded stacks ([`folded_stacks`]), and an annotated
//!   guest disassembly ([`annotated_disassembly`], like
//!   `perf annotate`).
//!
//! # Attribution model
//!
//! Each retired VLIW costs one issue cycle
//! ([`crate::stats::RunStats::cycles`]); that cycle is split equally
//! among the *distinct* guest PCs on the VLIW's taken path (parcel
//! origins plus the origins of resolved branch conditions). A VLIW
//! whose taken path carries no parcels charges its cycle to the VLIW's
//! `base_entry`. A dispatch's stall cycles are split equally among the
//! distinct guest PCs of the whole dispatch — the engine does not
//! record which access stalled, and pretending otherwise would be
//! false precision. Summed over a run, the attributed issue cycles
//! equal `vliws_executed` and the attributed stalls equal
//! `stall_cycles` exactly (up to floating-point rounding); the profile
//! tests pin this.
//!
//! **Speculation waste** follows the paper's wasted-work notion: a
//! speculative parcel whose renamed results never reach an architected
//! commitment on the taken path. At retirement a backward liveness walk
//! runs over the rebuilt path: non-speculative parcels
//! (commits, stores, trap checks) and resolved branch/indirect sources
//! seed the needed set; a speculative parcel none of whose destinations
//! are needed is wasted, and usefulness propagates transitively through
//! speculative chains. This is exact for completed dispatches because
//! groups are acyclic ([`daisy_vliw::tree::Group::validate`] rejects
//! any `Goto` to the same or an earlier VLIW), so each node executes
//! at most once per dispatch;
//! for dispatches aborted mid-node (exceptions, alias restarts) the
//! trailing node is approximated as fully executed.

use crate::engine::{trail_path, GroupCode, TrailEnd};
use crate::stats::RunStats;
use daisy_isa::mem::Memory;
use daisy_isa::Isa;
use daisy_vliw::packed::{OpMeta, PackedCtrl};
use daisy_vliw::reg::NUM_REGS;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// Modeled VMM cycles to translate one base instruction — §4.2: "DAISY
/// currently spends about 4000 instructions translating each PowerPC
/// instruction" (also the pessimistic column of Table 5.8).
pub const TRANSLATE_CYCLES_PER_INSTR: f64 = 4000.0;

/// Modeled VMM cycles to install one group-to-group chain link
/// (patch an exit, bookkeeping).
pub const CHAIN_INSTALL_CYCLES: f64 = 32.0;

/// Modeled VMM cycles to observe and clear one severed chain link.
pub const CHAIN_SEVER_CYCLES: f64 = 16.0;

/// Per-guest-PC attribution record (one per `(entry, pc)` pair; see
/// [`GuestProfile::iter`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PcStats {
    /// Share of VLIW issue cycles attributed to this PC.
    pub cycles: f64,
    /// Share of cache-stall cycles attributed to this PC.
    pub stall_cycles: f64,
    /// Dispatches whose taken path included this PC.
    pub dispatches: u64,
    /// Non-speculative (architected-effect) parcels executed for this
    /// PC: commits, stores, trap checks.
    pub committed_ops: u64,
    /// Speculative parcels executed for this PC.
    pub spec_ops: u64,
    /// Speculative parcels executed whose renamed results were never
    /// needed on the taken path (the paper's wasted work).
    pub wasted_spec_ops: u64,
}

impl PcStats {
    fn merge(&mut self, other: &PcStats) {
        self.cycles += other.cycles;
        self.stall_cycles += other.stall_cycles;
        self.dispatches += other.dispatches;
        self.committed_ops += other.committed_ops;
        self.spec_ops += other.spec_ops;
        self.wasted_spec_ops += other.wasted_spec_ops;
    }
}

/// One entry of the dispatch timeline kept for the Chrome exporter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimelineEvent {
    /// One group dispatch (a duration event in the Chrome trace).
    Dispatch {
        /// Group entry address.
        entry: u32,
        /// Simulated cycle at dispatch start.
        start: u64,
        /// Simulated cycles the dispatch took (issue + stalls).
        cycles: u64,
        /// VLIWs retired by the dispatch.
        vliws: u32,
    },
    /// A point event (degradation, cast-out) in the Chrome trace.
    Instant {
        /// Static label (`"degrade"`, `"cast_out"`).
        label: &'static str,
        /// The address the event concerns (entry or page base).
        addr: u32,
        /// Simulated cycle the event was observed at.
        at: u64,
    },
}

/// Buckets modeled VMM time per §4.2: first-touch translation,
/// retranslation (conservative rebuilds, re-translation after cast-out
/// or invalidation), chain maintenance, and
/// interpretation.
///
/// Translation work is measured in base instructions scheduled
/// ([`crate::sched::XlateCost::instrs_scheduled`]) and converted to
/// cycles with [`TRANSLATE_CYCLES_PER_INSTR`]; chain maintenance is
/// charged per link install/sever from [`crate::stats::ChainStats`];
/// the interpret bucket charges one cycle per interpreted instruction,
/// matching [`RunStats::cycles`].
#[derive(Debug, Clone, Default)]
pub struct OverheadClock {
    /// First-touch translations observed.
    pub translations: u64,
    /// Translations of an entry that had been translated before
    /// (conservative rebuild, cast-out or invalidation refill).
    pub retranslations: u64,
    /// Base instructions scheduled by first-touch translations.
    pub translate_instrs: u64,
    /// Base instructions scheduled by retranslations.
    pub retranslate_instrs: u64,
    seen: HashSet<u32>,
}

/// The four §4.2 buckets converted to modeled cycles
/// ([`OverheadClock::report`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadReport {
    /// First-touch translation cycles.
    pub translate_cycles: f64,
    /// Retranslation cycles.
    pub retranslate_cycles: f64,
    /// Chain install/sever maintenance cycles.
    pub chain_cycles: f64,
    /// Interpreter cycles (one per interpreted instruction).
    pub interp_cycles: f64,
}

impl OverheadReport {
    /// Total modeled VMM cycles across all four buckets.
    pub fn total(&self) -> f64 {
        self.translate_cycles + self.retranslate_cycles + self.chain_cycles + self.interp_cycles
    }

    /// Modeled VMM cycles per base instruction executed — the paper's
    /// "overhead per base instruction" framing.
    pub fn per_base_instr(&self, base_instrs: u64) -> f64 {
        if base_instrs == 0 {
            0.0
        } else {
            self.total() / base_instrs as f64
        }
    }
}

impl OverheadClock {
    /// Records one translation of `entry` that scheduled
    /// `instrs_scheduled` base instructions, classifying it as a
    /// first-touch translation or a retranslation.
    pub fn note_translation(&mut self, entry: u32, instrs_scheduled: u64) {
        if self.seen.insert(entry) {
            self.translations += 1;
            self.translate_instrs += instrs_scheduled;
        } else {
            self.retranslations += 1;
            self.retranslate_instrs += instrs_scheduled;
        }
    }

    /// Converts the buckets to modeled cycles, pulling chain and
    /// interpreter activity out of the run's [`RunStats`].
    pub fn report(&self, stats: &RunStats) -> OverheadReport {
        OverheadReport {
            translate_cycles: self.translate_instrs as f64 * TRANSLATE_CYCLES_PER_INSTR,
            retranslate_cycles: self.retranslate_instrs as f64 * TRANSLATE_CYCLES_PER_INSTR,
            chain_cycles: stats.chain.link_installs as f64 * CHAIN_INSTALL_CYCLES
                + stats.chain.severs as f64 * CHAIN_SEVER_CYCLES,
            interp_cycles: stats.interp_instrs as f64,
        }
    }
}

/// Default bound on the dispatch timeline kept for the Chrome exporter;
/// entries beyond it are counted in
/// [`GuestProfile::timeline_dropped`], never silently lost.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 1 << 20;

/// Accumulated guest-level attribution for one run (see the
/// [module docs](self) for the attribution model).
#[derive(Debug)]
pub struct GuestProfile {
    per_pc: HashMap<(u32, u32), PcStats>,
    timeline: Vec<TimelineEvent>,
    timeline_capacity: usize,
    timeline_dropped: u64,
    overhead: OverheadClock,
    dispatches: u64,
    spec_ops: u64,
    wasted_spec_ops: u64,
    // High-water marks for VMM event streams already mirrored into the
    // timeline (see `sync_vmm_events`).
    seen_degradations: usize,
    seen_cast_outs: u64,
    // Scratch reused across record_dispatch calls.
    scratch_path: Vec<u32>,
    scratch_vliw_pcs: Vec<u32>,
    scratch_dispatch_pcs: Vec<u32>,
}

impl Default for GuestProfile {
    fn default() -> GuestProfile {
        GuestProfile::new()
    }
}

impl GuestProfile {
    /// Creates an empty profile with the default timeline bound.
    pub fn new() -> GuestProfile {
        GuestProfile {
            per_pc: HashMap::new(),
            timeline: Vec::new(),
            timeline_capacity: DEFAULT_TIMELINE_CAPACITY,
            timeline_dropped: 0,
            overhead: OverheadClock::default(),
            dispatches: 0,
            spec_ops: 0,
            wasted_spec_ops: 0,
            seen_degradations: 0,
            seen_cast_outs: 0,
            scratch_path: Vec::new(),
            scratch_vliw_pcs: Vec::new(),
            scratch_dispatch_pcs: Vec::new(),
        }
    }

    /// Bounds the dispatch timeline to `cap` events (builder style).
    pub fn with_timeline_capacity(mut self, cap: usize) -> GuestProfile {
        self.timeline_capacity = cap;
        self
    }

    /// Group dispatches recorded.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Speculative parcels executed, summed over all PCs.
    pub fn spec_ops(&self) -> u64 {
        self.spec_ops
    }

    /// Wasted speculative parcels, summed over all PCs.
    pub fn wasted_spec_ops(&self) -> u64 {
        self.wasted_spec_ops
    }

    /// Fraction of executed speculative parcels that were wasted
    /// (`0.0` when no speculative parcel ran).
    pub fn waste_fraction(&self) -> f64 {
        if self.spec_ops == 0 {
            0.0
        } else {
            self.wasted_spec_ops as f64 / self.spec_ops as f64
        }
    }

    /// The §4.2 VMM-overhead clock.
    pub fn overhead(&self) -> &OverheadClock {
        &self.overhead
    }

    /// Mutable access to the overhead clock (the system wires VMM
    /// translation deltas through this).
    pub fn overhead_mut(&mut self) -> &mut OverheadClock {
        &mut self.overhead
    }

    /// The bounded dispatch timeline, in simulated-cycle order.
    pub fn timeline(&self) -> &[TimelineEvent] {
        &self.timeline
    }

    /// Timeline events dropped after the bound was reached.
    pub fn timeline_dropped(&self) -> u64 {
        self.timeline_dropped
    }

    /// Iterates attribution records as `((entry, pc), stats)`.
    pub fn iter(&self) -> impl Iterator<Item = (&(u32, u32), &PcStats)> {
        self.per_pc.iter()
    }

    /// Attribution aggregated per guest PC over all entries, sorted by
    /// PC — the view the annotated-disassembly exporter renders.
    pub fn by_pc(&self) -> BTreeMap<u32, PcStats> {
        let mut out: BTreeMap<u32, PcStats> = BTreeMap::new();
        for ((_, pc), s) in &self.per_pc {
            out.entry(*pc).or_default().merge(s);
        }
        out
    }

    /// Total attributed issue cycles — equals the run's
    /// `vliws_executed` restricted to profiled dispatches.
    pub fn total_issue_cycles(&self) -> f64 {
        self.per_pc.values().map(|s| s.cycles).sum()
    }

    /// Total attributed stall cycles.
    pub fn total_stall_cycles(&self) -> f64 {
        self.per_pc.values().map(|s| s.stall_cycles).sum()
    }

    /// Appends a point event (degradation, cast-out) to the timeline.
    pub(crate) fn note_instant(&mut self, label: &'static str, addr: u32, at: u64) {
        self.push_timeline(TimelineEvent::Instant { label, addr, at });
    }

    /// Mirrors VMM event streams into the timeline: any degradation or
    /// cast-out recorded since the last sync becomes an instant stamped
    /// `now` (the dispatch loop syncs at each group boundary, so the
    /// stamp is at most one dispatch late; cast-outs carry no address —
    /// the VMM only counts them).
    pub(crate) fn sync_vmm_events(
        &mut self,
        degradations: &[crate::error::Degradation],
        cast_outs: u64,
        now: u64,
    ) {
        while self.seen_degradations < degradations.len() {
            let entry = degradations[self.seen_degradations].entry;
            self.note_instant("degrade", entry, now);
            self.seen_degradations += 1;
        }
        while self.seen_cast_outs < cast_outs {
            self.note_instant("cast_out", 0, now);
            self.seen_cast_outs += 1;
        }
    }

    fn push_timeline(&mut self, ev: TimelineEvent) {
        if self.timeline.len() < self.timeline_capacity {
            self.timeline.push(ev);
        } else {
            self.timeline_dropped += 1;
        }
    }

    /// Records one retired dispatch of `code`.
    ///
    /// `dirs` is the dispatch's path trail, from which
    /// `engine::trail_path` rebuilds the path it took;
    /// `stall_delta` / `cycle_delta` are the dispatch's contribution to
    /// the run counters; `start_cycle` is the simulated clock at
    /// dispatch start.
    pub(crate) fn record_dispatch(
        &mut self,
        code: &GroupCode,
        dirs: &[u8],
        stall_delta: u64,
        start_cycle: u64,
        cycle_delta: u64,
    ) {
        let packed = &code.packed;
        let entry = code.entry;
        self.dispatches += 1;
        // A dispatch's cycles are its retired VLIWs plus its stalls.
        let vliws = cycle_delta - stall_delta;
        trail_path(packed, dirs, TrailEnd::Vliws(vliws), &mut self.scratch_path);
        let visited = &self.scratch_path;

        // --- issue-cycle shares, one cycle per retired VLIW ---
        let mut dispatch_pcs = std::mem::take(&mut self.scratch_dispatch_pcs);
        let mut vliw_pcs = std::mem::take(&mut self.scratch_vliw_pcs);
        dispatch_pcs.clear();
        let vliw_of = |ni: u32| packed.node_vliw(ni as usize);
        for nodes in visited.chunk_by(|&a, &b| vliw_of(a) == vliw_of(b)) {
            vliw_pcs.clear();
            for &ni in nodes {
                let node = &packed.nodes[ni as usize];
                vliw_pcs.extend_from_slice(packed.node_origins(node));
                if let PackedCtrl::Cond { cond, .. } = node.ctrl {
                    vliw_pcs.push(cond.origin);
                }
            }
            vliw_pcs.sort_unstable();
            vliw_pcs.dedup();
            if vliw_pcs.is_empty() {
                // Structural VLIW (no parcels on the taken path): its
                // issue cycle belongs to the VLIW's anchor address.
                vliw_pcs.push(packed.anchor(vliw_of(nodes[0]) as usize));
            }
            let share = 1.0 / vliw_pcs.len() as f64;
            for &pc in &vliw_pcs {
                self.per_pc.entry((entry, pc)).or_default().cycles += share;
                dispatch_pcs.push(pc);
            }
        }

        // --- stall shares and dispatch counts over the whole path ---
        dispatch_pcs.sort_unstable();
        dispatch_pcs.dedup();
        if !dispatch_pcs.is_empty() {
            let share = stall_delta as f64 / dispatch_pcs.len() as f64;
            for &pc in &dispatch_pcs {
                // invariant: every pc in dispatch_pcs was inserted above.
                #[allow(clippy::unwrap_used)]
                let s = self.per_pc.get_mut(&(entry, pc)).unwrap();
                s.stall_cycles += share;
                s.dispatches += 1;
            }
        }
        self.scratch_dispatch_pcs = dispatch_pcs;
        self.scratch_vliw_pcs = vliw_pcs;

        // --- speculation waste: backward liveness over the path ---
        let mut needed = [false; NUM_REGS];
        for &ni in visited.iter().rev() {
            let node = &packed.nodes[ni as usize];
            match node.ctrl {
                PackedCtrl::Cond { cond, .. } => needed[cond.src.index()] = true,
                PackedCtrl::Indirect { src, .. } => needed[src.index()] = true,
                _ => {}
            }
            let start = node.start as usize;
            for k in (start..start + node.len as usize).rev() {
                let m = &packed.meta[k];
                let s = self.per_pc.entry((entry, packed.origin_pc(k))).or_default();
                if packed.ops[k].speculative {
                    s.spec_ops += 1;
                    self.spec_ops += 1;
                    let useful = (m.d1 != OpMeta::NONE && needed[m.d1 as usize])
                        || (m.d2 != OpMeta::NONE && needed[m.d2 as usize]);
                    if !useful {
                        s.wasted_spec_ops += 1;
                        self.wasted_spec_ops += 1;
                        continue;
                    }
                } else {
                    // Architected effect (commit, store, trap check):
                    // always needed.
                    s.committed_ops += 1;
                }
                // A needed parcel kills its destinations; its sources
                // become live.
                for d in [m.d1, m.d2] {
                    if d != OpMeta::NONE {
                        needed[d as usize] = false;
                    }
                }
                for &src in &m.s[..m.nsrc as usize] {
                    needed[src as usize] = true;
                }
            }
        }

        self.push_timeline(TimelineEvent::Dispatch {
            entry,
            start: start_cycle,
            cycles: cycle_delta,
            vliws: vliws as u32,
        });
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                // invariant: write! to a String cannot fail.
                #[allow(clippy::unwrap_used)]
                write!(out, "\\u{:04x}", c as u32).unwrap()
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the profile's timeline as Chrome `trace_event` JSON
/// (the JSON-object format: `{"traceEvents": [...]}`), loadable in
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
///
/// Group dispatches become duration (`"ph":"X"`) events and
/// degradations/cast-outs become instant (`"ph":"i"`) events; the
/// timestamp unit is one microsecond per simulated cycle.
pub fn chrome_trace_json(profile: &GuestProfile, process_name: &str) -> String {
    let mut out = String::new();
    out.push_str("{\"traceEvents\":[");
    // invariant: write! to a String cannot fail.
    #[allow(clippy::unwrap_used)]
    {
        write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(process_name)
        )
        .unwrap();
        for ev in profile.timeline() {
            out.push(',');
            match *ev {
                TimelineEvent::Dispatch { entry, start, cycles, vliws } => write!(
                    out,
                    "{{\"name\":\"group@{entry:#x}\",\"cat\":\"dispatch\",\"ph\":\"X\",\
                     \"ts\":{start},\"dur\":{dur},\"pid\":1,\"tid\":1,\
                     \"args\":{{\"entry\":\"{entry:#x}\",\"vliws\":{vliws}}}}}",
                    dur = cycles.max(1),
                )
                .unwrap(),
                TimelineEvent::Instant { label, addr, at } => write!(
                    out,
                    "{{\"name\":\"{label}\",\"cat\":\"vmm\",\"ph\":\"i\",\"s\":\"p\",\
                     \"ts\":{at},\"pid\":1,\"tid\":1,\"args\":{{\"addr\":\"{addr:#x}\"}}}}",
                )
                .unwrap(),
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Renders the profile as flamegraph-folded stacks, one line per
/// `(entry, pc)` record:
///
/// ```text
/// workload;page_0x1000;entry_0x1020;pc_0x1044 37
/// ```
///
/// The weight is the PC's attributed cycles (issue + stall) rounded to
/// the nearest integer; zero-weight records are omitted. Feed the
/// output to `flamegraph.pl` or any folded-stack viewer.
pub fn folded_stacks(profile: &GuestProfile, workload: &str, page_size: u32) -> String {
    let mut lines: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    for (&(entry, pc), s) in profile.iter() {
        let w = (s.cycles + s.stall_cycles).round() as u64;
        if w > 0 {
            *lines.entry((entry, pc)).or_insert(0) += w;
        }
    }
    let mut out = String::new();
    for ((entry, pc), w) in lines {
        let page = entry / page_size.max(1) * page_size.max(1);
        // invariant: write! to a String cannot fail.
        #[allow(clippy::unwrap_used)]
        writeln!(out, "{workload};page_{page:#x};entry_{entry:#x};pc_{pc:#x} {w}").unwrap();
    }
    out
}

/// Renders an annotated guest disassembly: every profiled PC in address
/// order with its attributed cycles, stalls, dispatch count, and
/// speculation waste, plus the decoded instruction — the guest-side
/// equivalent of `perf annotate`.
///
/// Instruction words are fetched from `mem` and disassembled by the
/// guest frontend `I`; addresses that can no longer be read (unmapped)
/// render as `??`.
pub fn annotated_disassembly<I: Isa>(profile: &GuestProfile, mem: &Memory, title: &str) -> String {
    let by_pc = profile.by_pc();
    let total: f64 = by_pc.values().map(|s| s.cycles + s.stall_cycles).sum();
    let mut out = String::new();
    // invariant: write! to a String cannot fail.
    #[allow(clippy::unwrap_used)]
    {
        writeln!(out, "# annotated guest disassembly: {title}").unwrap();
        writeln!(
            out,
            "# total attributed cycles: {total:.1}; spec ops: {}; wasted: {} ({:.2}%)",
            profile.spec_ops(),
            profile.wasted_spec_ops(),
            100.0 * profile.waste_fraction(),
        )
        .unwrap();
        writeln!(
            out,
            "{:>7}  {:>10}  {:>8}  {:>9}  {:>11}  {:<10}  instruction",
            "%cycles", "cycles", "stalls", "dispatch", "waste/spec", "pc"
        )
        .unwrap();
        for (pc, s) in &by_pc {
            let c = s.cycles + s.stall_cycles;
            let pct = if total > 0.0 { 100.0 * c / total } else { 0.0 };
            let insn = match mem.read_u32(*pc) {
                Ok(w) => I::disasm(w),
                Err(_) => "??".to_owned(),
            };
            writeln!(
                out,
                "{pct:>6.2}%  {:>10.1}  {:>8.1}  {:>9}  {:>5}/{:<5}  {pc:<#10x}  {insn}",
                s.cycles, s.stall_cycles, s.dispatches, s.wasted_spec_ops, s.spec_ops,
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_clock_buckets_translate_vs_retranslate() {
        let mut clock = OverheadClock::default();
        clock.note_translation(0x1000, 10);
        clock.note_translation(0x2000, 20);
        clock.note_translation(0x1000, 12); // seen before → retranslate
        assert_eq!(clock.translations, 2);
        assert_eq!(clock.retranslations, 1);
        assert_eq!(clock.translate_instrs, 30);
        assert_eq!(clock.retranslate_instrs, 12);

        let mut stats = RunStats::default();
        stats.chain.link_installs = 4;
        stats.chain.severs = 2;
        stats.interp_instrs = 7;
        let r = clock.report(&stats);
        assert!((r.translate_cycles - 30.0 * TRANSLATE_CYCLES_PER_INSTR).abs() < 1e-9);
        assert!((r.retranslate_cycles - 12.0 * TRANSLATE_CYCLES_PER_INSTR).abs() < 1e-9);
        assert!(
            (r.chain_cycles - (4.0 * CHAIN_INSTALL_CYCLES + 2.0 * CHAIN_SEVER_CYCLES)).abs() < 1e-9
        );
        assert!((r.interp_cycles - 7.0).abs() < 1e-9);
        assert!(r.total() > 0.0);
        assert!((r.per_base_instr(0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn timeline_is_bounded_and_counts_drops() {
        let mut p = GuestProfile::new().with_timeline_capacity(2);
        p.note_instant("degrade", 0x1000, 1);
        p.note_instant("degrade", 0x1000, 2);
        p.note_instant("degrade", 0x1000, 3);
        assert_eq!(p.timeline().len(), 2);
        assert_eq!(p.timeline_dropped(), 1);
    }

    #[test]
    fn chrome_trace_escapes_and_wraps() {
        let mut p = GuestProfile::new();
        p.note_instant("cast_out", 0x2000, 5);
        let json = chrome_trace_json(&p, "wl\"x");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
        assert!(json.contains("wl\\\"x"));
        assert!(json.contains("\"ph\":\"i\""));
    }
}
