//! `daisy-jit` — the native host-code tier.
//!
//! Lowers hot [`PackedGroup`]s to executable x86-64 in a W^X
//! [`arena::Arena`], with chained direct jumps between compiled groups
//! and pre-side-effect bail-out back to the packed engine for anything
//! the templates cannot reproduce exactly. See `docs/jit.md` for the
//! design: arena layout, template coverage, bail-out semantics, and
//! how the `Native` rung composes with the degradation ladder.
//!
//! The arena is `r-x` at rest; each write opens a window over only
//! the pages it touches. A compiled group dies with its owner: dropping
//! it flips its alive byte, which cuts every patched edge and inline
//! indirect-cache way that points into it. Space is bump-allocated and
//! comes back wholesale: once every group is dropped (the core crate's
//! flush), [`Jit::reclaim`] rewinds the arena to just past the shared
//! thunk and epilogue.
//!
//! This crate is deliberately engine-agnostic: it knows the packed
//! format and the [`ctx::JitCtx`] ABI, but dispatch policy, statistics
//! reconciliation, and resume-after-bail all live in the core crate's
//! `engine::native` module.
//!
//! On non-x86-64 (or non-Linux) hosts [`Jit::new`] returns `None` and
//! every caller falls back to packed execution; the crate still
//! compiles everywhere.

pub mod arena;
pub mod asm;
pub mod ctx;
pub mod lower;

use arena::Arena;
use ctx::JitCtx;
use daisy_vliw::packed::PackedGroup;
use lower::{ExitSite, LowerParams, Lowered, Refusal};
use std::cell::RefCell;
use std::rc::Rc;

/// Default arena size: enough for thousands of compiled groups; a full
/// arena only stops further compilation until [`Jit::reclaim`] gives
/// its space back.
pub const DEFAULT_ARENA_BYTES: usize = 16 << 20;

/// Path-log capacity handed to compiled code. Re-exported from
/// `lower`, where the static per-group bound (one byte per node, each
/// visited at most once per group entry) is derived and enforced.
pub const LOG_CAPACITY: usize = lower::LOG_CAPACITY;

/// Access-log capacity (in `u64` entries) for runs of groups compiled
/// with fetch addresses, valid while `JitCtx::budget_vliws` is at most
/// [`ACCESS_LOG_VLIW_BUDGET`]. Re-exported from `lower`, where the
/// bound is derived and enforced.
pub const ACCESS_LOG_CAPACITY: usize = lower::ACCESS_LOG_CAPACITY;

/// Largest chain budget under which [`ACCESS_LOG_CAPACITY`] holds.
pub const ACCESS_LOG_VLIW_BUDGET: u64 = lower::ACCESS_LOG_VLIW_BUDGET;

/// Associativity of the inline indirect-branch target cache. Must
/// equal the packed engine's icache associativity so the inline hit
/// set is exactly the dispatcher's hit set (the table mirrors the
/// dispatcher's icache way-for-way) and chain statistics stay
/// bit-identical. The cache is fully associative — compiled probes
/// scan every row — because indirect targets are dispatch-table
/// handlers whose aligned strides defeat any bit-sliced way index.
pub const IBTC_WAYS: usize = 8;

/// Sentinel tag no guest target can carry: guest branch targets are
/// 4-byte aligned, so bit 0 set never matches `target & !3`.
const IBTC_INVALID_TAG: u32 = 1;

/// One way of a group's inline indirect-branch target cache.
///
/// `#[repr(C)]` with the layout compiled code scans: tag at +0,
/// alive-byte address at +8, native entry at +16, in 32-byte rows.
#[repr(C)]
pub struct IbtcEntry {
    tag: std::cell::Cell<u32>,
    _pad0: u32,
    alive: std::cell::Cell<u64>,
    entry: std::cell::Cell<u64>,
    _pad1: u64,
}

/// A compiled group's inline indirect-branch target cache: one row per
/// icache way, mirroring the dispatcher's set for this group's page.
/// Heap-allocated (`Box`) before lowering so its address is stable for
/// the lifetime of the compiled code that bakes it in.
#[repr(C)]
pub struct IbtcTable {
    ways: [IbtcEntry; IBTC_WAYS],
}

impl std::fmt::Debug for IbtcTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let live = self.ways.iter().filter(|w| w.tag.get() != IBTC_INVALID_TAG).count();
        write!(f, "IbtcTable({live}/{IBTC_WAYS} live)")
    }
}

impl IbtcTable {
    fn new() -> Box<IbtcTable> {
        Box::new(IbtcTable {
            ways: std::array::from_fn(|_| IbtcEntry {
                tag: std::cell::Cell::new(IBTC_INVALID_TAG),
                _pad0: 0,
                alive: std::cell::Cell::new(0),
                entry: std::cell::Cell::new(0),
                _pad1: 0,
            }),
        })
    }

    /// Installs `target -> (entry, alive)` in `way`, evicting whatever
    /// was there. `way` is the dispatcher icache way the event landed
    /// in — the table mirrors that set way-for-way so a probe hit here
    /// is exactly a dispatcher hit.
    pub fn install(&self, way: usize, target: u32, entry: u64, alive: u64) {
        let w = &self.ways[way];
        w.entry.set(entry);
        w.alive.set(alive);
        w.tag.set(target & !3);
    }

    /// Invalidates `way` (unconditionally: the dispatcher just
    /// overwrote that way, so whatever the inline cache held there is
    /// stale).
    pub fn invalidate(&self, way: usize) {
        self.ways[way].tag.set(IBTC_INVALID_TAG);
    }

    fn base_addr(&self) -> u64 {
        self as *const IbtcTable as u64
    }
}

/// Per-compilation options: the cache model's fetch addresses and
/// level-0 geometry.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileOpts<'a> {
    /// Translated-code address of each VLIW (one per VLIW of the
    /// group), given when the cache model is finite: the compiled
    /// group then logs its cache probes into the access log. `None`
    /// (the default) emits no log stores.
    pub fetch_addrs: Option<&'a [u32]>,
    /// log2 of the line size of the instruction side's private level
    /// 0. With `fetch_addrs`, a fetch of the line its set holds in
    /// [`JitCtx::fetch_lines`] is not logged. `None` logs every fetch.
    pub instr_line_shift: Option<u32>,
    /// `sets - 1` of the instruction side's private level 0: a line's
    /// entry in [`JitCtx::fetch_lines`] is `line & instr_set_mask`.
    pub instr_set_mask: u32,
    /// The line shift for loads and stores, against
    /// [`JitCtx::data_lines`].
    pub data_line_shift: Option<u32>,
    /// The set mask for loads and stores.
    pub data_set_mask: u32,
}

/// Allocator for *alive bytes*: one byte per compiled group, flipped
/// to 0 when the group's owner drops it. Chain stubs poll the byte
/// before jumping, so severing every inbound patched edge is a single
/// non-atomic store — the native analogue of the weak-`Rc` links the
/// interpreted tiers use.
///
/// Bytes are never freed or reused: a stale patched edge can therefore
/// never observe a recycled "alive" byte that belongs to a different
/// group.
///
/// Until the core crate's tier next flushes, the byte alone keeps live
/// edges out of a dead group: `tests/chaining.rs::alias_restart_retranslation_retires_native_code`
/// fails when [`AliveHandle`]'s drop stops clearing it.
#[derive(Default)]
pub struct AliveSlab {
    // One Box per byte on purpose: compiled code polls each byte by
    // raw address, so it must never move or be freed; a Vec<u8> would
    // reallocate and relocate every byte under live patched edges.
    #[allow(clippy::vec_box)]
    bytes: RefCell<Vec<Box<u8>>>,
}

impl AliveSlab {
    /// Allocates a fresh alive byte, set to 1.
    fn alloc(self: &Rc<Self>) -> AliveHandle {
        let b = Box::new(1u8);
        let ptr = &*b as *const u8 as *mut u8;
        self.bytes.borrow_mut().push(b);
        AliveHandle { _slab: Rc::clone(self), ptr }
    }
}

/// Ownership of one alive byte; dropping it marks the group dead.
pub struct AliveHandle {
    _slab: Rc<AliveSlab>,
    ptr: *mut u8,
}

impl AliveHandle {
    /// Address chain stubs poll.
    pub fn addr(&self) -> u64 {
        self.ptr as u64
    }
}

impl Drop for AliveHandle {
    fn drop(&mut self) {
        // Single-threaded by construction; the byte outlives every
        // edge because the slab never frees.
        unsafe { *self.ptr = 0 };
    }
}

impl std::fmt::Debug for AliveHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AliveHandle({:p})", self.ptr)
    }
}

/// One group compiled into the arena. Dropping it severs all inbound
/// patched edges (via the alive byte); the arena mapping itself is
/// kept alive by the shared `Rc`, whose count is also how
/// [`Jit::reclaim`] proves no group is alive.
#[derive(Debug)]
pub struct CompiledGroup {
    arena: Rc<Arena>,
    /// Blob offset within the arena.
    off: usize,
    /// Registry id baked into the code (`JitCtx::cur_group`).
    pub group_id: u32,
    /// Patchable direct exits (offsets relative to the blob).
    pub exits: Vec<ExitSite>,
    /// Bail-site table; `JitCtx::exit_b` indexes it on a bail exit.
    pub bails: Vec<lower::BailSite>,
    /// Inline indirect-branch target cache, present when the group has
    /// indirect exits and the cache was enabled at compile time. Boxed
    /// so the address baked into the code never moves.
    ibtc: Option<Box<IbtcTable>>,
    alive: AliveHandle,
}

impl CompiledGroup {
    /// Absolute address of the group's entry point.
    pub fn entry_addr(&self) -> u64 {
        self.arena.addr_of(self.off)
    }

    /// The group's inline indirect-branch cache, if it has one.
    pub fn ibtc(&self) -> Option<&IbtcTable> {
        self.ibtc.as_deref()
    }

    /// Address of this group's alive byte (for installing into other
    /// groups' inline caches).
    pub fn alive_addr(&self) -> u64 {
        self.alive.addr()
    }
}

/// The native-tier compiler and code cache: one W^X arena, the shared
/// entry thunk and epilogue, and the alive-byte slab.
pub struct Jit {
    arena: Rc<Arena>,
    slab: Rc<AliveSlab>,
    thunk: u64,
    epilogue: u64,
    /// Arena offset just past the thunk and epilogue: where
    /// [`Jit::reclaim`] rewinds the bump pointer to.
    code_start: usize,
    next_id: std::cell::Cell<u32>,
}

impl Jit {
    /// Maps the arena and emits the shared thunk and epilogue. `None`
    /// when the host cannot execute emitted code.
    pub fn new(arena_bytes: usize) -> Option<Jit> {
        if !cfg!(all(target_arch = "x86_64", target_os = "linux")) {
            return None;
        }
        let arena = Rc::new(Arena::new(arena_bytes)?);
        let (thunk_code, epilogue_code) = shared_code();
        let thunk_off = arena.install(&thunk_code)?;
        let epilogue_off = arena.install(&epilogue_code)?;
        let jit = Jit {
            thunk: arena.addr_of(thunk_off),
            epilogue: arena.addr_of(epilogue_off),
            code_start: arena.used(),
            arena,
            slab: Rc::new(AliveSlab::default()),
            next_id: std::cell::Cell::new(0),
        };
        jit.arena.seal();
        Some(jit)
    }

    /// Bytes of arena space consumed so far.
    pub fn arena_used(&self) -> usize {
        self.arena.used()
    }

    /// Gives back the space of every compiled group: rewinds the bump
    /// pointer to just past the shared thunk and epilogue, so later
    /// compilations overwrite retired code. Refused (returns `false`)
    /// while any [`CompiledGroup`] is alive — each holds an `Rc` to the
    /// arena, so the `Jit`'s must be the only strong one. Every patched
    /// edge and inline indirect-cache way lives in a compiled group, so
    /// with none alive nothing can jump into the rewound bytes. Group
    /// ids and alive bytes are never reused, so stale registry rows and
    /// stale alive-byte polls stay harmless.
    pub fn reclaim(&self) -> bool {
        self.live_groups() == 0 && self.arena.rewind(self.code_start)
    }

    /// Number of [`CompiledGroup`]s alive: each holds one strong `Rc`
    /// to the arena besides the `Jit`'s own.
    pub fn live_groups(&self) -> usize {
        Rc::strong_count(&self.arena) - 1
    }

    /// Compiles `g` and installs it. The returned group is live
    /// immediately (alive byte set), with all exits unpatched.
    pub fn compile(
        &self,
        g: &PackedGroup,
        entry: u32,
        page_size: u32,
        mem_len: u32,
        mem_page_shift: u32,
        opts: CompileOpts<'_>,
    ) -> Result<Rc<CompiledGroup>, Refusal> {
        let group_id = self.next_id.get();
        let ibtc = g
            .nodes
            .iter()
            .any(|n| matches!(n.ctrl, daisy_vliw::packed::PackedCtrl::Indirect { .. }))
            .then(IbtcTable::new);
        let params = LowerParams {
            group_id,
            entry,
            page_size,
            mem_len,
            mem_page_shift,
            base: self.arena.next_addr(),
            epilogue: self.epilogue,
            ibtc_base: ibtc.as_ref().map_or(0, |t| t.base_addr()),
        };
        let lowered: Lowered = lower::lower(g, params, opts)?;
        // `install` bumps by the aligned position `next_addr` predicted
        // (install aligns first, and next_addr accounts for that).
        let off = self.arena.install(&lowered.code).ok_or(Refusal::ArenaFull)?;
        debug_assert_eq!(self.arena.addr_of(off), params.base);
        self.arena.seal();
        self.next_id.set(group_id + 1);
        Ok(Rc::new(CompiledGroup {
            arena: Rc::clone(&self.arena),
            off,
            group_id,
            exits: lowered.exits,
            bails: lowered.bails,
            ibtc,
            alive: self.slab.alloc(),
        }))
    }

    /// Patches every exit of `from` that carries chain-link slot
    /// `slot` into a direct jump to `to` (through the budget/alive
    /// stub). Returns the number of sites patched. The edge lasts as
    /// long as `from`; `to`'s alive byte cuts it when `to` dies.
    pub fn link(&self, from: &CompiledGroup, slot: u32, to: &CompiledGroup) -> usize {
        let mut n = 0;
        for e in from.exits.iter().filter(|e| e.slot == slot) {
            self.arena.write_imm64(from.off + e.stub_alive_imm, to.alive.addr());
            self.arena.write_rel32(from.off + e.stub_jmp, to.entry_addr());
            self.arena.write_rel32(from.off + e.site, self.arena.addr_of(from.off + e.stub));
            n += 1;
        }
        self.arena.seal();
        n
    }

    /// Runs compiled code starting at `group`.
    ///
    /// # Safety
    ///
    /// Every pointer field of `ctx` must be valid for the run (see
    /// [`ctx::enter`]); in particular `log_base` must provide
    /// [`LOG_CAPACITY`] writable bytes, `vals` the full register
    /// file, and, when any group reachable in the run was compiled with
    /// fetch addresses, `access_base` [`ACCESS_LOG_CAPACITY`] writable
    /// entries under a `budget_vliws` of at most
    /// [`ACCESS_LOG_VLIW_BUDGET`].
    pub unsafe fn run(&self, ctx_ptr: *mut JitCtx, group: &CompiledGroup) {
        unsafe { ctx::enter(self.thunk, ctx_ptr, group.entry_addr()) }
    }
}

impl std::fmt::Debug for Jit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Jit").field("arena_used", &self.arena.used()).finish()
    }
}

/// Emits the shared entry thunk and epilogue.
///
/// Thunk (`extern "sysv64" fn(*mut JitCtx, u64)`): saves the
/// callee-saved registers the templates claim, loads the pinned
/// context registers (the access-log cursor starts at `access_base`)
/// and the four counters compiled code keeps in r8–r11 for the whole
/// run, and tail-jumps to the group entry in `rsi`. Epilogue: stores
/// those counters, both log cursors and `last_base` back to the
/// context and unwinds. Every exit, bail and chain-stub fallback goes
/// through the epilogue, so the block's counters are exact on return.
fn shared_code() -> (Vec<u8>, Vec<u8>) {
    use asm::{Asm, Mem, R10, R11, R12, R13, R14, R15, R8, R9, RBP, RBX, RDI, RSI};
    use ctx::{OFF_BASE_INSTRS, OFF_LOADS, OFF_STORES, OFF_VLIWS};
    let counters = [(R8, OFF_BASE_INSTRS), (R9, OFF_VLIWS), (R10, OFF_LOADS), (R11, OFF_STORES)];
    let mut t = Asm::new(0);
    for r in [RBX, RBP, R12, R13, R14, R15] {
        t.push_r64(r);
    }
    t.sub_rsp_imm8(8);
    t.mov_rr64(RBX, RDI);
    t.mov_r64_m(R12, Mem::base_disp(RBX, ctx::OFF_VALS));
    t.mov_r64_m(R13, Mem::base_disp(RBX, ctx::OFF_MEM_BASE));
    t.mov_r64_m(RBP, Mem::base_disp(RBX, ctx::OFF_ACCESS_BASE));
    for (r, off) in counters {
        t.mov_r64_m(r, Mem::base_disp(RBX, off));
    }
    t.jmp_r64(RSI);

    let mut e = Asm::new(0);
    for (r, off) in counters {
        e.mov_m_r64(Mem::base_disp(RBX, off), r);
    }
    e.mov_m_r64(Mem::base_disp(RBX, ctx::OFF_LOG_END), R14);
    e.mov_m_r64(Mem::base_disp(RBX, ctx::OFF_ACCESS_END), RBP);
    e.mov_m_r32(Mem::base_disp(RBX, ctx::OFF_LAST_BASE), R15);
    e.add_rsp_imm8(8);
    for r in [R15, R14, R13, R12, RBP, RBX] {
        e.pop_r64(r);
    }
    e.ret();
    (t.finish(), e.finish())
}
