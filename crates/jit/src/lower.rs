//! The template lowerer: [`PackedGroup`] → x86-64 bytes.
//!
//! Every parcel class has an inline template that reproduces the
//! packed engine's semantics instruction for instruction — same
//! wrapping arithmetic, same carry conventions, same big-endian
//! memory accesses, same counter increments. There are no runtime
//! helper calls: a compiled group touches only the register-file
//! array, guest memory, the path log, and the [`crate::ctx::JitCtx`]
//! counter block.
//!
//! Anything the templates cannot reproduce exactly is handled by
//! *refusal* (the whole group stays on the packed tier: oversized
//! groups, over-deep condition nesting) or by *bailing out* at run
//! time before any side effect (memory faults, stores to translated
//! pages, firing trap checks, failed load-verify commits) so the
//! packed engine can resume mid-group and produce the architecturally
//! identical outcome. Indirect exits carry an inline branch-target
//! cache probe that falls back to the ordinary dispatcher exit on any
//! miss.
//!
//! Register plan, fixed for the whole native run:
//!
//! | reg  | role                                        |
//! |------|---------------------------------------------|
//! | rbx  | [`crate::ctx::JitCtx`] pointer              |
//! | r12  | architected value array (`vals`)            |
//! | r13  | guest memory bytes base                     |
//! | r14  | path-log cursor (one byte per condition)    |
//! | r15d | `last_base` dedup register                  |
//! | rbp  | access-log cursor (finite cache only)       |
//! | r8   | `base_instrs` counter                       |
//! | r9   | `vliws` counter (chain budget compares it)  |
//! | r10  | `loads` counter                             |
//! | r11  | `stores` counter                            |
//! | rax, rcx, rdx, rsi, rdi | per-template scratch     |
//!
//! The four counters live in registers for the whole run, across
//! chained groups and inline indirect-cache hits: the entry thunk
//! loads them from the context block and the shared epilogue, which
//! every exit, bail and stub reaches, stores them back. The other
//! counters (histogram, chain and locality counts) stay in the block.
//!
//! Under a finite cache model the lowerer is given each VLIW's
//! translated-code address, and compiled code appends every probe the
//! packed engine would make to the access log: the VLIW's fetch at its
//! start, then each completed load or store in parcel order. The
//! dispatcher replays the log through the cache model when the run
//! returns. A side whose private level-0 geometry is given (line shift
//! and set mask) compares each probe with the line its set probed last,
//! in a per-set table the dispatcher fills before the run: such a probe
//! cannot change the cache's state and is not logged; every other
//! probe is logged and becomes its set's line. A fetch's set is a
//! compile-time constant. The probe keeps no hit count either: every
//! fetch follows an `inc r9`, every load probe an `inc r10` and every
//! store probe an `inc r11`, so the replay derives the unlogged hits
//! from those counters. Without fetch addresses no log store is
//! emitted.

use crate::asm::{
    Asm, Label, Mem, CC_A, CC_AE, CC_B, CC_C, CC_E, CC_G, CC_L, CC_NE, R10, R11, R12, R13, R14,
    R15, R8, R9, RAX, RBP, RBX, RCX, RDI, RDX, RSI,
};
use crate::ctx::{
    EXIT_BAIL, EXIT_BRANCH, EXIT_INDIRECT, EXIT_INTERP, OFF_BUDGET, OFF_CHAINED, OFF_CROSSPAGE,
    OFF_CROSSPAGE_VIA_CTR, OFF_CROSSPAGE_VIA_LR, OFF_CUR_GROUP, OFF_DATA_LINES, OFF_EXIT_A,
    OFF_EXIT_B, OFF_EXIT_KIND, OFF_FETCH_LINES, OFF_HISTOGRAM, OFF_ICACHE_HITS, OFF_LOG_BASE,
    OFF_ONPAGE, OFF_PENDING_BASE, OFF_PENDING_GEN, PROBE_FETCH, PROBE_LOAD, PROBE_STORE, VIA_CTR,
    VIA_LR,
};
use crate::CompileOpts;
use daisy_vliw::op::{CrOp, MemWidth, OpKind, Operation};
use daisy_vliw::packed::{OpClass, OpMeta, PackedCtrl, PackedGroup};
use daisy_vliw::tree::IndirectVia;

/// Structural ceiling on lowered groups. Groups are acyclic (every
/// intra-group edge goes forward, `Group::validate`), so one group
/// entry visits each of at most `MAX_NODES` nodes, and each of at most
/// `MAX_NODES` VLIWs, at most once: this bounds both logs below.
pub const MAX_NODES: usize = 2048;

/// Ceiling on conditional nesting along any root-to-leaf path of a
/// single VLIW, which bounds the emitter's recursion. Enforced at
/// lowering (refuse [`Refusal::TooLarge`]).
pub const MAX_COND_DEPTH: usize = 128;

/// Static path-log capacity: one byte per executed condition. Every
/// group prologue resets the cursor, and one entry visits each node at
/// most once, so it logs fewer than [`MAX_NODES`] bytes. Compiled code
/// never checks the capacity at run time (an early exit there would
/// diverge from packed execution).
pub const LOG_CAPACITY: usize = MAX_NODES;

/// Ceiling on memory parcels along any root-to-leaf path of a single
/// VLIW in a group that logs cache probes. Enforced at lowering
/// (refuse [`Refusal::TooLarge`]) so one VLIW writes at most
/// `MAX_VLIW_MEM_PARCELS + 1` access-log entries.
pub const MAX_VLIW_MEM_PARCELS: usize = 31;

/// Chain budget under which the access log cannot overflow: a run
/// whose dispatcher sets `JitCtx::budget_vliws` to at most this stops
/// following chain edges before [`ACCESS_LOG_CAPACITY`] is in reach.
pub const ACCESS_LOG_VLIW_BUDGET: u64 = 16_384;

/// Static access-log capacity in entries. Chain stubs and inline
/// indirect-cache hits only enter the next group while fewer than
/// `budget_vliws` VLIWs have run, and one group entry executes at most
/// [`MAX_NODES`] more (each VLIW once), each writing at most one fetch
/// entry plus [`MAX_VLIW_MEM_PARCELS`] data entries. So compiled code
/// never checks the cursor at run time.
pub const ACCESS_LOG_CAPACITY: usize =
    (ACCESS_LOG_VLIW_BUDGET as usize + MAX_NODES) * (MAX_VLIW_MEM_PARCELS + 1);

/// Why a group could not be lowered. Refusal is permanent for the
/// group (recorded by the tier) and never an error: execution simply
/// stays packed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Node count exceeds [`MAX_NODES`], conditional nesting exceeds
    /// [`MAX_COND_DEPTH`], or (when logging cache probes) one VLIW
    /// path holds more than [`MAX_VLIW_MEM_PARCELS`] memory parcels.
    TooLarge,
    /// The code arena is out of space until [`crate::Jit::reclaim`]
    /// gives it back.
    ArenaFull,
    /// The host cannot execute emitted code (non-x86-64 build).
    Unsupported,
}

impl Refusal {
    /// Number of variants (refusal-histogram size).
    pub const COUNT: usize = 3;

    /// All variants, in [`Refusal::index`] order (histogram labelling).
    pub const ALL: [Refusal; Refusal::COUNT] =
        [Refusal::TooLarge, Refusal::ArenaFull, Refusal::Unsupported];

    /// Dense index for per-variant histograms.
    pub fn index(self) -> usize {
        match self {
            Refusal::TooLarge => 0,
            Refusal::ArenaFull => 1,
            Refusal::Unsupported => 2,
        }
    }

    /// Stable label for stats and traces.
    pub fn as_str(self) -> &'static str {
        match self {
            Refusal::TooLarge => "too-large",
            Refusal::ArenaFull => "arena-full",
            Refusal::Unsupported => "unsupported",
        }
    }
}

/// Compile-time parameters of one group lowering.
#[derive(Debug, Clone, Copy)]
pub struct LowerParams {
    /// Registry id the compiled code writes to `JitCtx::cur_group`.
    pub group_id: u32,
    /// Guest entry address of the group (for on-page accounting).
    pub entry: u32,
    /// Guest page size used by dispatch-locality stats.
    pub page_size: u32,
    /// Guest memory size in bytes (bounds checks are compile-time
    /// immediates — the memory image never grows).
    pub mem_len: u32,
    /// log2 of the translated-bit granule of guest memory.
    pub mem_page_shift: u32,
    /// Absolute address the blob will be installed at.
    pub base: u64,
    /// Absolute address of the shared epilogue.
    pub epilogue: u64,
    /// Absolute address of the group's inline indirect-branch target
    /// cache, or 0 when the group has none (no indirect exits).
    pub ibtc_base: u64,
}

/// One `Leave` exit emission: a patchable 5-byte `jmp` plus its chain
/// stub, all as offsets relative to the blob start. Unpatched, the
/// `jmp` lands on the exit's fallback, the exit-record sequence that
/// returns to the dispatcher.
#[derive(Debug, Clone, Copy)]
pub struct ExitSite {
    /// Chain-link slot this exit was lowered from.
    pub slot: u32,
    /// Guest target address.
    pub target: u32,
    /// Offset of the patchable `jmp` rel32 field.
    pub site: usize,
    /// Offset of the chain stub (patch target when linked).
    pub stub: usize,
    /// Offset of the stub's alive-pointer imm64 field.
    pub stub_alive_imm: usize,
    /// Offset of the stub's final `jmp` rel32 field (retargeted to the
    /// linked group's entry).
    pub stub_jmp: usize,
}

/// One potential runtime bail point (a memory parcel), identifying
/// where the packed engine must resume.
#[derive(Debug, Clone, Copy)]
pub struct BailSite {
    /// Absolute packed-node index being executed.
    pub node: u32,
    /// Absolute op-arena index of the bailing parcel.
    pub op: u32,
    /// `parcels_this_vliw` at the bail point (the current node's run
    /// is already counted, matching the packed engine's loop).
    pub parcels: u32,
}

/// A lowered group, ready to install.
#[derive(Debug)]
pub struct Lowered {
    /// The machine code (entry at offset 0).
    pub code: Vec<u8>,
    /// Patchable direct exits, one per `Leave` leaf.
    pub exits: Vec<ExitSite>,
    /// Runtime bail points; `JitCtx::exit_b` indexes this table.
    pub bails: Vec<BailSite>,
}

struct PendingLeave {
    fallback_label: Label,
    site: usize,
    slot: u32,
    target: u32,
}

struct PendingBail {
    label: Label,
    node: u32,
    op: u32,
    parcels: u32,
}

struct Emitter<'a> {
    a: Asm,
    g: &'a PackedGroup,
    p: LowerParams,
    /// The cache model's fetch addresses and level-0 line shifts.
    opts: CompileOpts<'a>,
    vliw_labels: Vec<Label>,
    leaves: Vec<PendingLeave>,
    bails: Vec<PendingBail>,
    /// The base address the path being emitted committed last, when it
    /// is known at compile time (r15d then holds it); `None` at a VLIW
    /// root, whose predecessor varies.
    last_base: Option<u32>,
}

fn ctx(off: i32) -> Mem {
    Mem::base_disp(RBX, off)
}

fn vreg(s: u8) -> Mem {
    Mem::base_disp(R12, 4 * i32::from(s))
}

/// Lowers `g` for installation at `p.base`. Pure byte generation — no
/// arena interaction; the caller installs and links. `opts.fetch_addrs`
/// (one translated-code address per VLIW of `g`) turns on the access
/// log for a finite cache model.
pub fn lower(g: &PackedGroup, p: LowerParams, opts: CompileOpts<'_>) -> Result<Lowered, Refusal> {
    if g.nodes.len() > MAX_NODES {
        return Err(Refusal::TooLarge);
    }
    // Static bounds: nested conditions deeper than MAX_COND_DEPTH
    // would overrun the emitter's recursion, and (when logging probes)
    // memory parcels past MAX_VLIW_MEM_PARCELS on one VLIW path would
    // void the ACCESS_LOG_CAPACITY guarantee (a runtime capacity check
    // is not an option — exiting early where packed would continue
    // diverges the statistics). Each VLIW's nodes form a tree, so a
    // plain DFS terminates.
    for &root in &g.roots {
        let mut stack = vec![(root as usize, 0usize, 0usize)];
        while let Some((idx, depth, mem)) = stack.pop() {
            let n = g.nodes[idx];
            let mem = mem
                + g.meta[n.start as usize..(n.start + n.len) as usize]
                    .iter()
                    .filter(|m| matches!(m.class, OpClass::Load | OpClass::Store))
                    .count();
            if opts.fetch_addrs.is_some() && mem > MAX_VLIW_MEM_PARCELS {
                return Err(Refusal::TooLarge);
            }
            if let PackedCtrl::Cond { taken, fall, .. } = n.ctrl {
                if depth + 1 > MAX_COND_DEPTH {
                    return Err(Refusal::TooLarge);
                }
                stack.push((taken as usize, depth + 1, mem));
                stack.push((fall as usize, depth + 1, mem));
            }
        }
    }
    let mut e = Emitter {
        a: Asm::new(p.base),
        g,
        p,
        opts,
        vliw_labels: Vec::new(),
        leaves: Vec::new(),
        bails: Vec::new(),
        last_base: None,
    };
    e.vliw_labels = (0..g.roots.len()).map(|_| e.a.label()).collect();

    // Group entry: register for chain attribution, reset the path-log
    // cursor and the last_base dedup register (mirrors the packed
    // engine's per-dispatch `last_base = u32::MAX`), and invalidate
    // every pending-table row written by earlier group entries
    // (mirrors the packed engine's per-dispatch pending reset).
    e.a.mov_m32_imm(ctx(OFF_CUR_GROUP), p.group_id);
    e.a.mov_r64_m(R14, ctx(OFF_LOG_BASE));
    e.a.mov_r32_imm(R15, u32::MAX);
    e.a.inc_m64(ctx(OFF_PENDING_GEN));

    for (vi, &root) in g.roots.iter().enumerate() {
        let l = e.vliw_labels[vi];
        e.a.bind(l);
        // stats.vliws_executed += 1 (per tree instruction), then the
        // VLIW's fetch probe.
        e.a.inc_r64(R9);
        if let Some(addrs) = e.opts.fetch_addrs {
            e.probe(PROBE_FETCH, Some(addrs[vi]));
        }
        e.last_base = None;
        e.emit_node(root as usize, 0);
    }
    let stub_offs = e.emit_deferred();

    let bails =
        e.bails.iter().map(|b| BailSite { node: b.node, op: b.op, parcels: b.parcels }).collect();
    let exits = e
        .leaves
        .iter()
        .zip(&stub_offs)
        .map(|(l, &(stub, stub_alive_imm, stub_jmp))| ExitSite {
            slot: l.slot,
            target: l.target,
            site: l.site,
            stub,
            stub_alive_imm,
            stub_jmp,
        })
        .collect();
    Ok(Lowered { code: e.a.finish(), exits, bails })
}

impl<'a> Emitter<'a> {
    /// Emits the fallbacks, chain stubs, and bail stubs referenced by
    /// the bodies; returns `(stub, alive_imm, stub_jmp)` offsets per
    /// leaf.
    fn emit_deferred(&mut self) -> Vec<(usize, usize, usize)> {
        // Fallback + chain stub per Leave leaf. The stub is only
        // reachable once the tier patches the site, and its own final
        // jmp is patched to the target group's entry at the same time;
        // until then it points harmlessly at the epilogue.
        let mut stub_offs = Vec::with_capacity(self.leaves.len());
        let leaves = std::mem::take(&mut self.leaves);
        for l in &leaves {
            self.a.bind(l.fallback_label);
            self.a.mov_m32_imm(ctx(OFF_EXIT_KIND), EXIT_BRANCH);
            self.a.mov_m32_imm(ctx(OFF_EXIT_A), l.target);
            self.a.mov_m32_imm(ctx(OFF_EXIT_B), l.slot);
            self.a.jmp_abs(self.p.epilogue);

            let stub = self.a.pos();
            // Budget: stop following edges once the VLIW quota is
            // spent, returning control to the dispatcher.
            self.a.cmp_r64_m(R9, ctx(OFF_BUDGET));
            self.a.jcc(CC_AE, l.fallback_label);
            // Aliveness: the imm64 is patched to the target's alive
            // byte; a dead target (invalidated, cast out, or
            // retranslated) routes back through the VMM like a severed
            // weak link.
            let alive_imm = self.a.mov_r64_imm(RAX, 0);
            self.a.cmp_m8_imm(Mem::base_disp(RAX, 0), 0);
            self.a.jcc(CC_E, l.fallback_label);
            // This follow is a chained dispatch; its page locality is
            // known statically (both entries are compile-time guest
            // addresses).
            self.a.inc_m64(ctx(OFF_CHAINED));
            let onpage = l.target / self.p.page_size == self.p.entry / self.p.page_size;
            self.a.inc_m64(ctx(if onpage { OFF_ONPAGE } else { OFF_CROSSPAGE }));
            let stub_jmp = self.a.jmp_abs(self.p.epilogue);
            stub_offs.push((stub, alive_imm, stub_jmp));
        }
        self.leaves = leaves;
        // Bail stubs: record which site bailed and return.
        let bails = std::mem::take(&mut self.bails);
        for (i, b) in bails.iter().enumerate() {
            self.a.bind(b.label);
            self.a.mov_m32_imm(ctx(OFF_EXIT_KIND), EXIT_BAIL);
            self.a.mov_m32_imm(ctx(OFF_EXIT_B), i as u32);
            self.a.jmp_abs(self.p.epilogue);
        }
        self.bails = bails;
        stub_offs
    }

    /// Inline indirect-branch target cache probe. On entry eax holds
    /// the masked guest target; on a hit the code performs the
    /// dispatcher's two steps — locality accounting for the indirect
    /// transfer, then a chained icache-hit dispatch — and jumps
    /// straight to the cached group's native entry. Any miss falls
    /// through to the ordinary indirect exit record, where the
    /// dispatcher counts exactly the same things itself, so the probe
    /// never changes statistics — only where they are counted.
    fn emit_ibtc_probe(&mut self, via: IndirectVia) {
        let miss = self.a.label();
        // Fully-associative probe: compare the target against every
        // row's tag (32-byte rows; rcx ends as the hit row's byte
        // offset). The table mirrors the dispatcher's icache
        // way-for-way, so the tag set here is exactly the dispatcher's
        // hit set.
        self.a.mov_r64_imm(RDX, self.p.ibtc_base);
        let found = self.a.label();
        let mut hit_rows = Vec::with_capacity(crate::IBTC_WAYS);
        for row in 0..crate::IBTC_WAYS {
            self.a.mov_r32_m(RSI, Mem::base_disp(RDX, (32 * row) as i32));
            self.a.cmp_rr32(RSI, RAX);
            let h = self.a.label();
            self.a.jcc(CC_E, h);
            hit_rows.push(h);
        }
        self.a.jmp(miss);
        for (row, h) in hit_rows.into_iter().enumerate() {
            self.a.bind(h);
            self.a.mov_r32_imm(RCX, (32 * row) as u32);
            if row + 1 != crate::IBTC_WAYS {
                self.a.jmp(found);
            }
        }
        self.a.bind(found);
        // Budget: stop chaining once the run quota is spent, so a hot
        // indirect loop still returns to the dispatcher (ladder,
        // interrupts, run limits).
        self.a.cmp_r64_m(R9, ctx(OFF_BUDGET));
        self.a.jcc(CC_AE, miss);
        // Aliveness of the cached target (retired groups flip it).
        self.a.mov_r64_m(RSI, Mem::base_index_disp(RDX, RCX, 8));
        self.a.cmp_m8_imm(Mem::base_disp(RSI, 0), 0);
        self.a.jcc(CC_E, miss);
        self.a.inc_m64(ctx(OFF_CHAINED));
        self.a.inc_m64(ctx(OFF_ICACHE_HITS));
        // Locality of the transfer: the dispatcher compares the target
        // page against the exiting group's entry page — a compile-time
        // constant here.
        let page_lo = (self.p.entry / self.p.page_size) * self.p.page_size;
        let crosspage = self.a.label();
        let go = self.a.label();
        self.a.mov_rr32(RSI, RAX);
        self.a.add_r32_imm(RSI, page_lo.wrapping_neg() as i32);
        self.a.cmp_r32_imm(RSI, self.p.page_size as i32);
        self.a.jcc(CC_AE, crosspage);
        self.a.inc_m64(ctx(OFF_ONPAGE));
        self.a.jmp(go);
        self.a.bind(crosspage);
        self.a.inc_m64(ctx(match via {
            IndirectVia::Lr => OFF_CROSSPAGE_VIA_LR,
            IndirectVia::Ctr => OFF_CROSSPAGE_VIA_CTR,
        }));
        self.a.bind(go);
        self.a.mov_r64_m(RSI, Mem::base_index_disp(RDX, RCX, 16));
        self.a.jmp_r64(RSI);
        self.a.bind(miss);
    }

    fn emit_node(&mut self, idx: usize, parcels_before: u32) {
        let n = self.g.nodes[idx];
        let parcels = parcels_before + n.len;
        for k in n.start..n.start + n.len {
            self.emit_parcel(idx as u32, k, parcels);
        }
        match n.ctrl {
            PackedCtrl::Cond { cond, taken, fall } => {
                // Every executed condition commits its originating
                // branch instruction (dedup'd via last_base), on both
                // paths — so commit before splitting. Both sides start
                // from the last base committed here.
                self.commit_base(cond.origin);
                let last_base = self.last_base;
                self.a.mov_r32_m(RAX, vreg(cond.src.0));
                self.a.test_r32_imm(RAX, cond.mask);
                let t_label = self.a.label();
                self.a.jcc(if cond.want_set { CC_NE } else { CC_E }, t_label);
                // Not-taken path: log direction 0.
                self.a.mov_m8_imm(Mem::base_disp(R14, 0), 0);
                self.a.inc_r64(R14);
                self.emit_node(fall as usize, parcels);
                self.last_base = last_base;
                self.a.bind(t_label);
                self.a.mov_m8_imm(Mem::base_disp(R14, 0), 1);
                self.a.inc_r64(R14);
                self.emit_node(taken as usize, parcels);
            }
            PackedCtrl::Next { vliw } => {
                // The logs' static bounds rely on one entry visiting
                // each node at most once (`Group::validate`).
                assert!(vliw > self.g.node_vliw(idx), "backward Next: groups are acyclic");
                self.hist(parcels);
                let l = self.vliw_labels[vliw as usize];
                self.a.jmp(l);
            }
            PackedCtrl::Leave { target, slot } => {
                self.hist(parcels);
                let fallback_label = self.a.label();
                let site = self.a.pos() + 1; // rel32 field of the jmp
                self.a.jmp(fallback_label);
                self.leaves.push(PendingLeave { fallback_label, site, slot, target });
            }
            PackedCtrl::Indirect { src, via } => {
                self.hist(parcels);
                self.a.mov_r32_m(RAX, vreg(src.0));
                self.a.and_r32_imm(RAX, !3);
                if self.p.ibtc_base != 0 {
                    self.emit_ibtc_probe(via);
                }
                self.a.mov_m_r32(ctx(OFF_EXIT_A), RAX);
                self.a.mov_m32_imm(ctx(OFF_EXIT_KIND), EXIT_INDIRECT);
                let via_code = match via {
                    IndirectVia::Lr => VIA_LR,
                    IndirectVia::Ctr => VIA_CTR,
                };
                self.a.mov_m32_imm(ctx(OFF_EXIT_B), via_code);
                self.a.jmp_abs(self.p.epilogue);
            }
            PackedCtrl::Interp { addr } => {
                self.hist(parcels);
                self.a.mov_m32_imm(ctx(OFF_EXIT_KIND), EXIT_INTERP);
                self.a.mov_m32_imm(ctx(OFF_EXIT_A), addr);
                self.a.jmp_abs(self.p.epilogue);
            }
        }
    }

    /// One cache probe. When the probe's side has a level-0 line shift,
    /// the line is compared with the one its set probed last (the
    /// side's line table, one `u64` per set): a match is not logged,
    /// since the replay derives those hits from the VLIW, load and
    /// store counts, and any other line becomes its set's line and is
    /// logged. The address is the constant `addr`, whose set is then
    /// known here, or ecx (the effective address of the load or store
    /// just completed) when `None`. Clobbers rdx, rsi and rdi only, so
    /// a load's value survives in eax and its address in ecx.
    fn probe(&mut self, kind: u32, addr: Option<u32>) {
        let (shift, set_mask, lines) = if kind == PROBE_FETCH {
            (self.opts.instr_line_shift, self.opts.instr_set_mask, OFF_FETCH_LINES)
        } else {
            (self.opts.data_line_shift, self.opts.data_set_mask, OFF_DATA_LINES)
        };
        let Some(shift) = shift else { return self.log_probe(kind, addr) };
        // The line into edx, zero-extended to rdx (an unprobed set
        // holds a u64 no line address equals), and its set's entry.
        self.a.mov_r64_m(RDI, ctx(lines));
        let entry = match addr {
            Some(addr) => {
                let line = addr >> shift;
                self.a.mov_r32_imm(RDX, line);
                Mem::base_disp(RDI, 8 * (line & set_mask) as i32)
            }
            None => {
                self.a.mov_rr32(RDX, RCX);
                if shift != 0 {
                    self.a.shr_r32_imm(RDX, shift as u8);
                }
                self.a.mov_rr32(RSI, RDX);
                self.a.and_r32_imm(RSI, set_mask as i32);
                self.a.shl_r32_imm(RSI, 3);
                Mem::base_index(RDI, RSI)
            }
        };
        let join = self.a.label();
        self.a.cmp_r64_m(RDX, entry);
        self.a.jcc(CC_E, join);
        self.a.mov_m_r64(entry, RDX);
        self.log_probe(kind, addr);
        self.a.bind(join);
    }

    /// Appends one access-log entry at `rbp` and advances the cursor.
    /// The address is the constant `addr`, or ecx (the effective
    /// address of the load or store just completed) when `None`.
    fn log_probe(&mut self, kind: u32, addr: Option<u32>) {
        let at = Mem::base_disp(RBP, 0);
        match addr {
            Some(addr) => self.a.mov_m32_imm(at, addr),
            None => self.a.mov_m_r32(at, RCX),
        }
        self.a.mov_m32_imm(Mem::base_disp(RBP, 4), kind);
        self.a.add_r64_imm(RBP, 8);
    }

    /// `issue_histogram[min(parcels, 24)] += 1` — the VLIW just
    /// finished; its parcel count along this emitted path is a
    /// compile-time constant.
    fn hist(&mut self, parcels: u32) {
        let bucket = parcels.min(24) as i32;
        self.a.inc_m64(ctx(OFF_HISTOGRAM + 8 * bucket));
    }

    /// `if last_base != addr { last_base = addr; base_instrs += 1 }`,
    /// decided at compile time where the path being emitted fixes
    /// `last_base`: a repeat of the last committed address emits
    /// nothing, a different one emits the update without a compare.
    /// Only a VLIW's first commit, whose predecessor varies, compares
    /// r15d at run time. r15d stays exact everywhere, so a bail hands
    /// the packed resume the true `last_base`.
    fn commit_base(&mut self, addr: u32) {
        if self.last_base == Some(addr) {
            return;
        }
        let skip = self.last_base.is_none().then(|| {
            let skip = self.a.label();
            self.a.cmp_r32_imm(R15, addr as i32);
            self.a.jcc(CC_E, skip);
            skip
        });
        self.a.mov_r32_imm(R15, addr);
        self.a.inc_r64(R8);
        if let Some(skip) = skip {
            self.a.bind(skip);
        }
        self.last_base = Some(addr);
    }

    fn bail_label(&mut self, node: u32, op: u32, parcels: u32) -> Label {
        let label = self.a.label();
        self.bails.push(PendingBail { label, node, op, parcels });
        label
    }

    fn emit_parcel(&mut self, node: u32, k: u32, parcels: u32) {
        let op = &self.g.ops[k as usize];
        let m = &self.g.meta[k as usize];
        match m.class {
            OpClass::Load => self.emit_load(op, m, node, k, parcels),
            OpClass::Store => self.emit_store(op, m, node, k, parcels),
            OpClass::General => self.emit_general(op, m, node, k, parcels),
            OpClass::SpecValue => {
                let carry = self.emit_value(op, m);
                self.store_results(m, carry);
                // Renamed destinations: no architected event, no commit.
            }
            _ => {
                let carry = self.emit_value(op, m);
                self.store_results(m, carry);
                if m.d1 != OpMeta::NONE {
                    self.commit_base(op.base_addr);
                }
            }
        }
    }

    /// `General`-class parcels: trap checks and load-verify commits
    /// (the only two shapes the scheduler produces in this class). An
    /// unrecognized shape bails statically — defensive, never reached
    /// today.
    fn emit_general(&mut self, op: &Operation, m: &OpMeta, node: u32, k: u32, parcels: u32) {
        if let OpKind::TrapIf { to } = op.kind {
            let bail = self.bail_label(node, k, parcels);
            self.a.mov_r32_m(RAX, vreg(m.s[0]));
            if m.nsrc > 1 {
                self.a.cmp_r32_m(RAX, vreg(m.s[1]));
            } else {
                self.a.cmp_r32_imm(RAX, op.imm);
            }
            // PowerPC TO bits: 16 = signed <, 8 = signed >, 4 = equal,
            // 2 = unsigned <, 1 = unsigned >. A firing trap raises a
            // precise exception only the packed engine can deliver —
            // bail pre-side-effect and let it re-evaluate the check.
            // Flags survive across jcc, so one cmp serves every bit.
            for (bit, cc) in [(16, CC_L), (8, CC_G), (4, CC_E), (2, CC_B), (1, CC_A)] {
                if to & bit != 0 {
                    self.a.jcc(cc, bail);
                }
            }
            // No fire: the check completes like any committed op.
            self.commit_base(op.base_addr);
        } else if op.is_commit && op.bypassed_store {
            self.emit_verify_commit(op, m, node, k, parcels);
        } else {
            let bail = self.bail_label(node, k, parcels);
            self.a.jmp(bail);
        }
    }

    /// Commit of a load that was moved above a store: re-read the
    /// recorded effective address and compare against the recorded
    /// value (the packed engine's pending-load verify). A stale
    /// generation means no pending load — the packed engine's
    /// `pending[s0] == None`. A mismatch means an aliasing store
    /// intervened: bail, and the packed engine re-runs the verify,
    /// counts the alias failure, and raises `AliasRestart` itself.
    /// On a match nothing is counted (the verify reload is not a
    /// load) and the row stays valid, exactly like the packed arm.
    fn emit_verify_commit(&mut self, op: &Operation, m: &OpMeta, node: u32, k: u32, parcels: u32) {
        let bail = self.bail_label(node, k, parcels);
        let row = 32 * i32::from(m.s[0]);
        let skip = self.a.label();
        self.a.mov_r64_m(RDX, ctx(OFF_PENDING_BASE));
        self.a.mov_r64_m(RAX, Mem::base_disp(RDX, row));
        self.a.cmp_r64_m(RAX, ctx(OFF_PENDING_GEN));
        self.a.jcc(CC_NE, skip);
        // Valid row: reload with the recorded width (runtime dispatch;
        // the address was bounds-checked by the original load and the
        // guest image never shrinks, so no bounds check here).
        self.a.mov_r32_m(RCX, Mem::base_disp(RDX, row + 8)); // ea
        self.a.mov_r32_m(RSI, Mem::base_disp(RDX, row + 16)); // meta
        let at = Mem::base_index(R13, RCX);
        let half = self.a.label();
        let byte = self.a.label();
        let join = self.a.label();
        self.a.mov_rr32(RDI, RSI);
        self.a.and_r32_imm(RDI, 3);
        self.a.test_rr32(RDI, RDI);
        self.a.jcc(CC_E, byte);
        self.a.cmp_r32_imm(RDI, 1);
        self.a.jcc(CC_E, half);
        self.a.mov_r32_m(RAX, at);
        self.a.bswap_r32(RAX);
        self.a.jmp(join);
        self.a.bind(half);
        self.a.movzx_r32_m16(RAX, at);
        self.a.ror_r16_imm(RAX, 8);
        self.a.test_r32_imm(RSI, 4); // algebraic?
        self.a.jcc(CC_E, join);
        self.a.movsx_r32_r16(RAX, RAX);
        self.a.jmp(join);
        self.a.bind(byte);
        // Byte reloads ignore the algebraic bit, like the packed
        // engine's byte loads.
        self.a.movzx_r32_m8(RAX, at);
        self.a.bind(join);
        self.a.cmp_r32_m(RAX, Mem::base_disp(RDX, row + 12));
        self.a.jcc(CC_NE, bail);
        self.a.bind(skip);
        // Value path of the commit, identical to a plain parcel.
        let carry = self.emit_value(op, m);
        self.store_results(m, carry);
        if !op.speculative && m.d1 != OpMeta::NONE {
            self.commit_base(op.base_addr);
        }
    }

    /// Writes eax to d1 and the carry (edx, or a fresh zero when the
    /// template produces none) to d2, mirroring the packed Value arm.
    fn store_results(&mut self, m: &OpMeta, carry_in_edx: bool) {
        if m.d1 != OpMeta::NONE {
            self.a.mov_m_r32(vreg(m.d1), RAX);
        }
        if m.d2 != OpMeta::NONE {
            if !carry_in_edx {
                self.a.xor_rr32(RDX, RDX);
            }
            self.a.mov_m_r32(vreg(m.d2), RDX);
        }
    }

    /// Effective address into ecx: sum of the value registers named by
    /// `srcs`, plus the signed displacement.
    fn ea_into_ecx(&mut self, srcs: &[u8], imm: i32) {
        match srcs.split_first() {
            None => self.a.mov_r32_imm(RCX, imm as u32),
            Some((first, rest)) => {
                self.a.mov_r32_m(RCX, vreg(*first));
                for s in rest {
                    self.a.add_r32_m(RCX, vreg(*s));
                }
                if imm != 0 {
                    self.a.add_r32_imm(RCX, imm);
                }
            }
        }
    }

    fn emit_load(&mut self, op: &Operation, m: &OpMeta, node: u32, k: u32, parcels: u32) {
        let OpKind::Load { width, algebraic } = op.kind else { unreachable!() };
        let bail = self.bail_label(node, k, parcels);
        self.ea_into_ecx(&m.s[..m.nsrc as usize], op.imm);
        // Bounds: ea > mem_len - width ⇔ ea + width > mem_len. Any
        // fault bails pre-side-effect; the packed engine resumes at
        // this parcel and raises (or poisons) exactly as it would have.
        self.a.cmp_r32_imm(RCX, (self.p.mem_len - width.bytes()) as i32);
        self.a.jcc(CC_A, bail);
        let at = Mem::base_index(R13, RCX);
        match width {
            // Byte loads zero-extend unconditionally (the packed
            // engine ignores `algebraic` for byte width).
            MemWidth::Byte => self.a.movzx_r32_m8(RAX, at),
            MemWidth::Half => {
                self.a.movzx_r32_m16(RAX, at);
                self.a.ror_r16_imm(RAX, 8); // big-endian
                if algebraic {
                    self.a.movsx_r32_r16(RAX, RAX);
                }
            }
            MemWidth::Word => {
                self.a.mov_r32_m(RAX, at);
                self.a.bswap_r32(RAX);
            }
        }
        self.a.inc_r64(R10);
        if self.opts.fetch_addrs.is_some() {
            self.probe(PROBE_LOAD, None);
        }
        debug_assert!(m.d1 != OpMeta::NONE);
        self.a.mov_m_r32(vreg(m.d1), RAX);
        if op.bypassed_store {
            // Record the pending load for the later verify commit
            // (the packed engine's `scratch.pending[dest]`), tagged
            // with the current generation. ecx still holds the
            // effective address; eax the loaded value.
            let row = 32 * i32::from(m.d1);
            self.a.mov_r64_m(RDX, ctx(OFF_PENDING_BASE));
            self.a.mov_r64_m(RSI, ctx(OFF_PENDING_GEN));
            self.a.mov_m_r64(Mem::base_disp(RDX, row), RSI);
            self.a.mov_m_r32(Mem::base_disp(RDX, row + 8), RCX);
            self.a.mov_m_r32(Mem::base_disp(RDX, row + 12), RAX);
            let meta = match width {
                MemWidth::Byte => 0u32,
                MemWidth::Half => 1,
                MemWidth::Word => 2,
            } | if algebraic { 4 } else { 0 };
            self.a.mov_m32_imm(Mem::base_disp(RDX, row + 16), meta);
        }
        if !op.speculative {
            self.commit_base(op.base_addr);
        }
    }

    fn emit_store(&mut self, op: &Operation, m: &OpMeta, node: u32, k: u32, parcels: u32) {
        let OpKind::Store { width } = op.kind else { unreachable!() };
        let bail = self.bail_label(node, k, parcels);
        // Address from srcs[1..]; src0 is the value.
        self.ea_into_ecx(&m.s[1..m.nsrc as usize], op.imm);
        self.a.cmp_r32_imm(RCX, (self.p.mem_len - width.bytes()) as i32);
        self.a.jcc(CC_A, bail);
        // Translated-bit probe, *before* the write: a store into
        // translated code must take the packed engine's §3.2
        // CodeModified path, so the whole store re-executes there.
        self.a.mov_rr32(RAX, RCX);
        self.a.shr_r32_imm(RAX, self.p.mem_page_shift as u8);
        self.a.mov_r64_m(RDX, ctx(crate::ctx::OFF_TRANSLATED));
        self.a.cmp_m8_imm(Mem::base_index(RDX, RAX), 0);
        self.a.jcc(CC_NE, bail);
        if width.bytes() > 1 {
            self.a.lea_r32_m(RAX, Mem::base_disp(RCX, (width.bytes() - 1) as i32));
            self.a.shr_r32_imm(RAX, self.p.mem_page_shift as u8);
            self.a.cmp_m8_imm(Mem::base_index(RDX, RAX), 0);
            self.a.jcc(CC_NE, bail);
        }
        self.a.mov_r32_m(RAX, vreg(m.s[0]));
        let at = Mem::base_index(R13, RCX);
        match width {
            MemWidth::Byte => self.a.mov_m_r8(at, RAX),
            MemWidth::Half => {
                self.a.ror_r16_imm(RAX, 8);
                self.a.mov_m_r16(at, RAX);
            }
            MemWidth::Word => {
                self.a.bswap_r32(RAX);
                self.a.mov_m_r32(at, RAX);
            }
        }
        self.a.inc_r64(R11);
        if self.opts.fetch_addrs.is_some() {
            self.probe(PROBE_STORE, None);
        }
        self.commit_base(op.base_addr);
    }

    /// Leaves the op's value in eax; returns true when edx holds the
    /// carry-out (0/1).
    fn emit_value(&mut self, op: &Operation, m: &OpMeta) -> bool {
        use OpKind::*;
        let s = |i: usize| vreg(m.s[i]);
        let a = &mut self.a;
        match op.kind {
            Nop => a.xor_rr32(RAX, RAX),
            Li => a.mov_r32_imm(RAX, op.imm as u32),
            Copy => a.mov_r32_m(RAX, s(0)),
            Add => {
                a.mov_r32_m(RAX, s(0));
                a.add_r32_m(RAX, s(1));
            }
            Subf => {
                a.mov_r32_m(RAX, s(1));
                a.sub_r32_m(RAX, s(0));
            }
            AddImm => {
                a.mov_r32_m(RAX, s(0));
                if op.imm != 0 {
                    a.add_r32_imm(RAX, op.imm);
                }
            }
            Mul => {
                a.mov_r32_m(RAX, s(0));
                a.imul_r32_m(RAX, s(1));
            }
            MulImm => a.imul_r32_m_imm(RAX, s(0), op.imm),
            Mulh => {
                a.mov_r32_m(RAX, s(0));
                a.mov_r32_m(RCX, s(1));
                a.imul_r32(RCX);
                a.mov_rr32(RAX, RDX);
            }
            Mulhu => {
                a.mov_r32_m(RAX, s(0));
                a.mov_r32_m(RCX, s(1));
                a.mul_r32(RCX);
                a.mov_rr32(RAX, RDX);
            }
            Div => {
                a.mov_r32_m(RAX, s(0));
                a.mov_r32_m(RCX, s(1));
                let zero = a.label();
                let go = a.label();
                let done = a.label();
                a.test_rr32(RCX, RCX);
                a.jcc(CC_E, zero);
                a.cmp_r32_imm(RCX, -1);
                a.jcc(CC_NE, go);
                a.cmp_r32_imm(RAX, i32::MIN);
                a.jcc(CC_E, zero);
                a.bind(go);
                a.cdq();
                a.idiv_r32(RCX);
                a.jmp(done);
                a.bind(zero);
                a.xor_rr32(RAX, RAX);
                a.bind(done);
            }
            Divu => {
                a.mov_r32_m(RAX, s(0));
                a.mov_r32_m(RCX, s(1));
                let zero = a.label();
                let done = a.label();
                a.test_rr32(RCX, RCX);
                a.jcc(CC_E, zero);
                a.xor_rr32(RDX, RDX);
                a.div_r32(RCX);
                a.jmp(done);
                a.bind(zero);
                a.xor_rr32(RAX, RAX);
                a.bind(done);
            }
            Neg => {
                a.mov_r32_m(RAX, s(0));
                a.neg_r32(RAX);
            }
            AddC => {
                a.mov_r32_m(RAX, s(0));
                a.add_r32_m(RAX, s(1));
                return set_carry(a);
            }
            AddE => {
                a.mov_r32_m(RAX, s(0));
                a.mov_r32_m(RCX, s(2));
                a.bt_r32_imm(RCX, 0);
                a.adc_r32_m(RAX, s(1));
                return set_carry(a);
            }
            SubfC => {
                // !a + b + 1 = b - a; carry-out ⇔ no borrow.
                a.mov_r32_m(RAX, s(1));
                a.sub_r32_m(RAX, s(0));
                a.setcc_r8(CC_AE, RDX);
                a.movzx_r32_r8(RDX, RDX);
                return true;
            }
            SubfE => {
                a.mov_r32_m(RAX, s(0));
                a.not_r32(RAX);
                a.mov_r32_m(RCX, s(2));
                a.bt_r32_imm(RCX, 0);
                a.adc_r32_m(RAX, s(1));
                return set_carry(a);
            }
            AddZe => {
                a.mov_r32_m(RAX, s(0));
                a.mov_r32_m(RCX, s(1));
                a.and_r32_imm(RCX, 1);
                a.add_rr32(RAX, RCX);
                return set_carry(a);
            }
            AddMe => {
                a.mov_r32_m(RAX, s(0));
                a.mov_r32_m(RCX, s(1));
                a.bt_r32_imm(RCX, 0);
                a.adc_r32_imm(RAX, -1);
                return set_carry(a);
            }
            SubfZe => {
                a.mov_r32_m(RAX, s(0));
                a.not_r32(RAX);
                a.mov_r32_m(RCX, s(1));
                a.and_r32_imm(RCX, 1);
                a.add_rr32(RAX, RCX);
                return set_carry(a);
            }
            SubfMe => {
                a.mov_r32_m(RAX, s(0));
                a.not_r32(RAX);
                a.mov_r32_m(RCX, s(1));
                a.bt_r32_imm(RCX, 0);
                a.adc_r32_imm(RAX, -1);
                return set_carry(a);
            }
            AddImmC => {
                a.mov_r32_m(RAX, s(0));
                a.add_r32_imm(RAX, op.imm);
                return set_carry(a);
            }
            SubfImmC => {
                // !a + imm + 1, via adc with a forced carry-in.
                a.mov_r32_m(RAX, s(0));
                a.not_r32(RAX);
                a.stc();
                a.adc_r32_imm(RAX, op.imm);
                return set_carry(a);
            }
            And => {
                a.mov_r32_m(RAX, s(0));
                a.and_r32_m(RAX, s(1));
            }
            Or => {
                a.mov_r32_m(RAX, s(0));
                a.or_r32_m(RAX, s(1));
            }
            Xor => {
                a.mov_r32_m(RAX, s(0));
                a.xor_r32_m(RAX, s(1));
            }
            Nand => {
                a.mov_r32_m(RAX, s(0));
                a.and_r32_m(RAX, s(1));
                a.not_r32(RAX);
            }
            Nor => {
                a.mov_r32_m(RAX, s(0));
                a.or_r32_m(RAX, s(1));
                a.not_r32(RAX);
            }
            Andc => {
                a.mov_r32_m(RCX, s(1));
                a.not_r32(RCX);
                a.mov_r32_m(RAX, s(0));
                a.and_rr32(RAX, RCX);
            }
            Orc => {
                a.mov_r32_m(RCX, s(1));
                a.not_r32(RCX);
                a.mov_r32_m(RAX, s(0));
                a.or_rr32(RAX, RCX);
            }
            Eqv => {
                a.mov_r32_m(RAX, s(0));
                a.xor_r32_m(RAX, s(1));
                a.not_r32(RAX);
            }
            AndImm => {
                a.mov_r32_m(RAX, s(0));
                a.and_r32_imm(RAX, op.imm2 as i32);
            }
            OrImm => {
                a.mov_r32_m(RAX, s(0));
                a.or_r32_imm(RAX, op.imm2 as i32);
            }
            XorImm => {
                a.mov_r32_m(RAX, s(0));
                a.xor_r32_imm(RAX, op.imm2 as i32);
            }
            Sll | Srl => {
                // n = src1 & 0x3F; result 0 when n ≥ 32 (x86 masks the
                // count to 5 bits, so patch over with a cmov).
                a.mov_r32_m(RCX, s(1));
                a.and_r32_imm(RCX, 0x3F);
                a.mov_r32_m(RAX, s(0));
                if matches!(op.kind, Sll) {
                    a.shl_r32_cl(RAX);
                } else {
                    a.shr_r32_cl(RAX);
                }
                a.xor_rr32(RDX, RDX);
                a.cmp_r32_imm(RCX, 32);
                a.cmovcc_rr32(CC_AE, RAX, RDX);
            }
            Sra => return emit_sra_reg(a, s(0), s(1)),
            SraImm => return emit_sra_imm(a, s(0), op.imm as u32 & 31),
            RotlImmMask => {
                a.mov_r32_m(RAX, s(0));
                let n = (op.imm as u32 & 31) as u8;
                if n != 0 {
                    a.rol_r32_imm(RAX, n);
                }
                a.and_r32_imm(RAX, op.imm2 as i32);
            }
            RotlRegMask => {
                a.mov_r32_m(RCX, s(1));
                a.mov_r32_m(RAX, s(0));
                a.rol_r32_cl(RAX); // hardware masks cl & 31, matching the semantics
                a.and_r32_imm(RAX, op.imm2 as i32);
            }
            RotlImmInsert => {
                a.mov_r32_m(RAX, s(0));
                let n = (op.imm as u32 & 31) as u8;
                if n != 0 {
                    a.rol_r32_imm(RAX, n);
                }
                a.and_r32_imm(RAX, op.imm2 as i32);
                a.mov_r32_m(RCX, s(1));
                a.and_r32_imm(RCX, !op.imm2 as i32);
                a.or_rr32(RAX, RCX);
            }
            Cntlz => {
                a.mov_r32_m(RCX, s(0));
                a.bsr_rr32(RDX, RCX); // ZF set when the source is 0
                a.mov_r32_imm(RAX, 32);
                let done = a.label();
                a.jcc(CC_E, done);
                a.mov_r32_imm(RAX, 31);
                a.sub_rr32(RAX, RDX);
                a.bind(done);
            }
            Extsb => {
                a.mov_r32_m(RAX, s(0));
                a.movsx_r32_r8(RAX, RAX);
            }
            Exts => {
                a.mov_r32_m(RAX, s(0));
                a.movsx_r32_r16(RAX, RAX);
            }
            CmpS | CmpU => {
                a.mov_r32_m(RCX, s(2));
                a.and_r32_imm(RCX, 1);
                a.mov_r32_m(RAX, s(0));
                a.cmp_r32_m(RAX, s(1));
                emit_compare_result(a, matches!(op.kind, CmpS));
            }
            CmpSImm | CmpUImm => {
                a.mov_r32_m(RCX, s(1));
                a.and_r32_imm(RCX, 1);
                a.mov_r32_m(RAX, s(0));
                a.cmp_r32_imm(RAX, op.imm);
                emit_compare_result(a, matches!(op.kind, CmpSImm));
            }
            CrBit { op: o, bt, ba, bb } => {
                a.mov_r32_m(RAX, s(0));
                a.shr_r32_imm(RAX, 3 - ba);
                a.and_r32_imm(RAX, 1);
                a.mov_r32_m(RCX, s(1));
                a.shr_r32_imm(RCX, 3 - bb);
                a.and_r32_imm(RCX, 1);
                match o {
                    CrOp::And => a.and_rr32(RAX, RCX),
                    CrOp::Or => a.or_rr32(RAX, RCX),
                    CrOp::Xor => a.xor_rr32(RAX, RCX),
                    CrOp::Nand => {
                        a.and_rr32(RAX, RCX);
                        a.xor_r32_imm(RAX, 1);
                    }
                    CrOp::Nor => {
                        a.or_rr32(RAX, RCX);
                        a.xor_r32_imm(RAX, 1);
                    }
                    CrOp::Eqv => {
                        a.xor_rr32(RAX, RCX);
                        a.xor_r32_imm(RAX, 1);
                    }
                    CrOp::Andc => {
                        a.xor_r32_imm(RCX, 1);
                        a.and_rr32(RAX, RCX);
                    }
                    CrOp::Orc => {
                        a.xor_r32_imm(RCX, 1);
                        a.or_rr32(RAX, RCX);
                    }
                }
                if bt != 3 {
                    a.shl_r32_imm(RAX, 3 - bt);
                }
                let mask = 1u32 << (3 - bt);
                a.mov_r32_m(RCX, s(2));
                a.and_r32_imm(RCX, !mask as i32);
                a.or_rr32(RAX, RCX);
            }
            ExtractField => {
                let sh = (4 * ((7 - op.imm as u32) & 7)) as u8;
                a.mov_r32_m(RAX, s(0));
                if sh != 0 {
                    a.shr_r32_imm(RAX, sh);
                }
                a.and_r32_imm(RAX, 0xF);
            }
            InsertField => {
                let sh = (4 * ((7 - op.imm as u32) & 7)) as u8;
                a.mov_r32_m(RCX, s(1));
                a.and_r32_imm(RCX, 0xF);
                if sh != 0 {
                    a.shl_r32_imm(RCX, sh);
                }
                a.mov_r32_m(RAX, s(0));
                a.or_rr32(RAX, RCX);
            }
            XerCompose => {
                a.mov_r32_m(RAX, s(0));
                a.and_r32_imm(RAX, 1);
                a.shl_r32_imm(RAX, 29);
                a.mov_r32_m(RCX, s(1));
                a.and_r32_imm(RCX, 1);
                a.shl_r32_imm(RCX, 30);
                a.or_rr32(RAX, RCX);
                a.mov_r32_m(RCX, s(2));
                a.shl_r32_imm(RCX, 31);
                a.or_rr32(RAX, RCX);
            }
            XerExtract => {
                a.mov_r32_m(RAX, s(0));
                let sh = (op.imm as u32 & 31) as u8;
                if sh != 0 {
                    a.shr_r32_imm(RAX, sh);
                }
                a.and_r32_imm(RAX, 1);
            }
            TrapIf { .. } | Load { .. } | Store { .. } => {
                unreachable!("handled by the dedicated memory/general templates")
            }
        }
        false
    }
}

/// Captures CF into edx as 0/1 right after the carry-producing
/// instruction.
fn set_carry(a: &mut Asm) -> bool {
    a.setcc_r8(CC_C, RDX);
    a.movzx_r32_r8(RDX, RDX);
    true
}

/// Materializes the packed `compare` result: eax = LT 0b1000 / GT
/// 0b0100 / EQ 0b0010, or'd with the summary-overflow bit already in
/// ecx. Flags from the preceding `cmp` are live on entry.
fn emit_compare_result(a: &mut Asm, signed: bool) {
    a.mov_r32_imm(RAX, 0b0010);
    a.mov_r32_imm(RDX, 0b1000);
    a.cmovcc_rr32(if signed { CC_L } else { CC_B }, RAX, RDX);
    a.mov_r32_imm(RDX, 0b0100);
    a.cmovcc_rr32(if signed { CC_G } else { CC_A }, RAX, RDX);
    a.or_rr32(RAX, RCX);
}

/// `sra` with a register count (`src1 & 0x3F`): result in eax, carry
/// in edx. Carry is set when the value is negative and 1-bits were
/// shifted out; for counts ≥ 32 that reduces to "negative".
fn emit_sra_reg(a: &mut Asm, src0: Mem, src1: Mem) -> bool {
    a.mov_r32_m(RCX, src1);
    a.and_r32_imm(RCX, 0x3F);
    a.mov_r32_m(RAX, src0);
    let big = a.label();
    let done = a.label();
    a.cmp_r32_imm(RCX, 32);
    a.jcc(CC_AE, big);
    // Small count: lost = n > 0 && (s & ((1 << n) - 1)) != 0 — with
    // n = 0 the mask is 0, so the n > 0 condition is implicit.
    a.mov_r32_imm(RSI, 1);
    a.shl_r32_cl(RSI);
    a.add_r32_imm(RSI, -1);
    a.and_rr32(RSI, RAX);
    a.xor_rr32(RDX, RDX);
    a.test_rr32(RSI, RSI);
    a.setcc_r8(CC_NE, RDX);
    a.mov_rr32(RDI, RAX);
    a.shr_r32_imm(RDI, 31);
    a.and_rr32(RDX, RDI);
    a.sar_r32_cl(RAX);
    a.jmp(done);
    a.bind(big);
    // Count ≥ 32: fill with the sign; carry ⇔ negative (a negative
    // value is never zero).
    a.mov_rr32(RDX, RAX);
    a.shr_r32_imm(RDX, 31);
    a.sar_r32_imm(RAX, 31);
    a.bind(done);
    true
}

/// `sra` with an immediate count already masked to 0..=31.
fn emit_sra_imm(a: &mut Asm, src0: Mem, n: u32) -> bool {
    a.mov_r32_m(RAX, src0);
    if n == 0 {
        a.xor_rr32(RDX, RDX);
        return true;
    }
    let mask = (1u32 << n) - 1;
    a.mov_rr32(RCX, RAX);
    a.and_r32_imm(RCX, mask as i32);
    a.xor_rr32(RDX, RDX);
    a.test_rr32(RCX, RCX);
    a.setcc_r8(CC_NE, RDX);
    a.mov_rr32(RCX, RAX);
    a.shr_r32_imm(RCX, 31);
    a.and_rr32(RDX, RCX);
    a.sar_r32_imm(RAX, n as u8);
    true
}
