//! The native-call context block.
//!
//! Compiled code receives a single pointer (held in `rbx` for the
//! whole run) to a [`JitCtx`], a `#[repr(C)]` block whose field
//! offsets are the `OFF_*` constants (each an `offset_of!` of its
//! field) referenced by the emitter in `lower.rs`. The dispatcher fills the input fields,
//! calls the shared entry thunk, and reads the exit record plus the
//! counter deltas back out. Every counter the dispatcher reads is in
//! the block, which is what lets native runs reproduce `RunStats`
//! bit-for-bit against packed execution. Four of them (`base_instrs`,
//! `vliws`, `loads`, `stores`) live in host registers r8–r11 while
//! compiled code runs: the thunk loads them from the block and the
//! shared epilogue, which every exit reaches, stores them back. The
//! rest take one `inc qword [rbx+OFF]` each. Under a finite cache the
//! block also points at the dispatcher's copies of the two level-0
//! line tables (`fetch_lines`, `data_lines`): compiled code reads and
//! updates them but counts no hits, since every probe follows the
//! `vliws`, `loads` or `stores` increment of its fetch, load or store,
//! and the dispatcher derives the hits from those counts.

use core::mem::offset_of;

/// Exit kinds written to [`JitCtx::exit_kind`] by compiled code.
pub const EXIT_BRANCH: u32 = 0;
pub const EXIT_INDIRECT: u32 = 1;
pub const EXIT_INTERP: u32 = 2;
pub const EXIT_BAIL: u32 = 3;

/// [`JitCtx::exit_b`] of an [`EXIT_INDIRECT`] exit: which register
/// the target came from. The dispatcher rejects any other value.
pub const VIA_LR: u32 = 0;
pub const VIA_CTR: u32 = 1;

/// Access-log entry kinds. Each entry is one `u64`: the probed address
/// in the low 32 bits, the kind in the high 32 bits.
pub const PROBE_FETCH: u32 = 0;
pub const PROBE_LOAD: u32 = 1;
pub const PROBE_STORE: u32 = 2;

/// The context block shared between the dispatcher and compiled code.
///
/// Field order is ABI: reordering fields moves the `OFF_*` constants
/// below (derived with `offset_of!`) and therefore every emitted byte.
#[repr(C)]
pub struct JitCtx {
    /// `*mut u32` — the 77-entry architected value array.
    pub vals: *mut u32,
    /// Base of guest memory bytes.
    pub mem_base: *mut u8,
    /// Base of the per-page translated-bit array (one byte per 4 KiB page).
    pub translated_base: *const u8,
    /// Base of the branch-direction path log (one byte per `Cond`).
    pub log_base: *mut u8,
    /// VLIW budget: chain stubs stop following edges once
    /// `vliws >= budget_vliws`, returning to the dispatcher.
    pub budget_vliws: u64,
    /// Counter mirror of `RunStats.vliws_executed` (delta).
    pub vliws: u64,
    /// Counter mirror of `RunStats.base_instrs` (delta).
    pub base_instrs: u64,
    /// Counter mirror of `RunStats.loads` (delta).
    pub loads: u64,
    /// Counter mirror of `RunStats.stores` (delta).
    pub stores: u64,
    /// Chain-follow count (delta for `ChainStats.chained_dispatches`).
    pub chained_dispatches: u64,
    /// Same-page chain follows (delta for `RunStats.onpage_dispatches`).
    pub onpage_dispatches: u64,
    /// Cross-page direct chain follows (delta for `CrossPage.direct`).
    pub crosspage_direct: u64,
    /// Path-log cursor at exit (written from `r14` by the epilogue).
    pub log_end: *mut u8,
    /// One of the `EXIT_*` constants.
    pub exit_kind: u32,
    /// Branch: exit target. Indirect: computed target. Interp: addr.
    /// Bail: unused.
    pub exit_a: u32,
    /// Branch: exit slot. Indirect: [`VIA_LR`] or [`VIA_CTR`].
    /// Bail: bail-site id.
    pub exit_b: u32,
    /// `last_base` dedup register at exit (written from `r15d`).
    pub last_base: u32,
    /// Group id of the group executing at exit (for chain attribution).
    pub cur_group: u32,
    pub _pad: u32,
    /// Mirror of `RunStats.issue_histogram` (deltas).
    pub histogram: [u64; 25],
    /// Base of the bypassed-load pending table: one 32-byte row per
    /// architected register (`{gen: u64, ea: u32, value: u32,
    /// meta: u32, pad}`), owned by the native tier.
    pub pending_base: *mut u8,
    /// Monotonic pending-table generation. Every compiled group's
    /// prologue increments it, so rows written by an earlier group
    /// entry are stale exactly when the packed engine's per-dispatch
    /// pending reset would have cleared them. Never reset.
    pub pending_gen: u64,
    /// Inline indirect-cache hits (delta for `ChainStats.icache_hits`;
    /// each is also a chained dispatch).
    pub icache_hits: u64,
    /// Cross-page LR-indirect chain follows (delta for
    /// `CrossPage.via_lr`).
    pub crosspage_via_lr: u64,
    /// Cross-page CTR-indirect chain follows (delta for
    /// `CrossPage.via_ctr`).
    pub crosspage_via_ctr: u64,
    /// Base of the cache access log (`u64` entries, see
    /// [`PROBE_FETCH`]). The entry thunk loads it into `rbp`, the log
    /// cursor for the whole run; only groups compiled for a finite cache
    /// write through it.
    pub access_base: *mut u64,
    /// Access-log cursor at exit (written from `rbp` by the epilogue).
    pub access_end: *mut u64,
    /// Base of the instruction side's line table: one `u64` per set
    /// of its private level 0, the line address probed last in that
    /// set. Groups compiled with an instruction line shift read it: a
    /// fetch of its set's line is not logged, and every other fetch is
    /// logged and becomes its set's line. The dispatcher fills the
    /// table from the cache model before each run.
    pub fetch_lines: *mut u64,
    /// `fetch_lines` for loads and stores, under the data geometry.
    pub data_lines: *mut u64,
}

pub const OFF_VALS: i32 = offset_of!(JitCtx, vals) as i32;
pub const OFF_MEM_BASE: i32 = offset_of!(JitCtx, mem_base) as i32;
pub const OFF_TRANSLATED: i32 = offset_of!(JitCtx, translated_base) as i32;
pub const OFF_LOG_BASE: i32 = offset_of!(JitCtx, log_base) as i32;
pub const OFF_BUDGET: i32 = offset_of!(JitCtx, budget_vliws) as i32;
pub const OFF_VLIWS: i32 = offset_of!(JitCtx, vliws) as i32;
pub const OFF_BASE_INSTRS: i32 = offset_of!(JitCtx, base_instrs) as i32;
pub const OFF_LOADS: i32 = offset_of!(JitCtx, loads) as i32;
pub const OFF_STORES: i32 = offset_of!(JitCtx, stores) as i32;
pub const OFF_CHAINED: i32 = offset_of!(JitCtx, chained_dispatches) as i32;
pub const OFF_ONPAGE: i32 = offset_of!(JitCtx, onpage_dispatches) as i32;
pub const OFF_CROSSPAGE: i32 = offset_of!(JitCtx, crosspage_direct) as i32;
pub const OFF_LOG_END: i32 = offset_of!(JitCtx, log_end) as i32;
pub const OFF_EXIT_KIND: i32 = offset_of!(JitCtx, exit_kind) as i32;
pub const OFF_EXIT_A: i32 = offset_of!(JitCtx, exit_a) as i32;
pub const OFF_EXIT_B: i32 = offset_of!(JitCtx, exit_b) as i32;
pub const OFF_LAST_BASE: i32 = offset_of!(JitCtx, last_base) as i32;
pub const OFF_CUR_GROUP: i32 = offset_of!(JitCtx, cur_group) as i32;
pub const OFF_HISTOGRAM: i32 = offset_of!(JitCtx, histogram) as i32;
pub const OFF_PENDING_BASE: i32 = offset_of!(JitCtx, pending_base) as i32;
pub const OFF_PENDING_GEN: i32 = offset_of!(JitCtx, pending_gen) as i32;
pub const OFF_ICACHE_HITS: i32 = offset_of!(JitCtx, icache_hits) as i32;
pub const OFF_CROSSPAGE_VIA_LR: i32 = offset_of!(JitCtx, crosspage_via_lr) as i32;
pub const OFF_CROSSPAGE_VIA_CTR: i32 = offset_of!(JitCtx, crosspage_via_ctr) as i32;
pub const OFF_ACCESS_BASE: i32 = offset_of!(JitCtx, access_base) as i32;
pub const OFF_ACCESS_END: i32 = offset_of!(JitCtx, access_end) as i32;
pub const OFF_FETCH_LINES: i32 = offset_of!(JitCtx, fetch_lines) as i32;
pub const OFF_DATA_LINES: i32 = offset_of!(JitCtx, data_lines) as i32;

impl JitCtx {
    /// A zeroed context with dangling (never-dereferenced-as-is)
    /// pointers; the dispatcher overwrites every pointer field before
    /// each entry.
    pub fn new() -> JitCtx {
        JitCtx {
            vals: std::ptr::null_mut(),
            mem_base: std::ptr::null_mut(),
            translated_base: std::ptr::null(),
            log_base: std::ptr::null_mut(),
            budget_vliws: 0,
            vliws: 0,
            base_instrs: 0,
            loads: 0,
            stores: 0,
            chained_dispatches: 0,
            onpage_dispatches: 0,
            crosspage_direct: 0,
            log_end: std::ptr::null_mut(),
            exit_kind: 0,
            exit_a: 0,
            exit_b: 0,
            last_base: 0,
            cur_group: 0,
            _pad: 0,
            histogram: [0; 25],
            pending_base: std::ptr::null_mut(),
            pending_gen: 0,
            icache_hits: 0,
            crosspage_via_lr: 0,
            crosspage_via_ctr: 0,
            access_base: std::ptr::null_mut(),
            access_end: std::ptr::null_mut(),
            fetch_lines: std::ptr::null_mut(),
            data_lines: std::ptr::null_mut(),
        }
    }

    /// Clears the per-run counters and exit record (pointers and
    /// budget are left for the caller to set).
    pub fn reset_counters(&mut self) {
        self.vliws = 0;
        self.base_instrs = 0;
        self.loads = 0;
        self.stores = 0;
        self.chained_dispatches = 0;
        self.onpage_dispatches = 0;
        self.crosspage_direct = 0;
        self.log_end = std::ptr::null_mut();
        self.exit_kind = 0;
        self.exit_a = 0;
        self.exit_b = 0;
        self.last_base = 0;
        self.cur_group = 0;
        self.histogram = [0; 25];
        self.icache_hits = 0;
        self.crosspage_via_lr = 0;
        self.crosspage_via_ctr = 0;
        self.access_end = std::ptr::null_mut();
        // `pending_gen` is deliberately *not* reset: row validity is
        // "gen matches the current value", and monotonicity guarantees
        // zeroed rows (gen 0) can never become valid again.
    }
}

impl Default for JitCtx {
    fn default() -> Self {
        Self::new()
    }
}

/// Calls compiled code: `thunk` is the absolute address of the shared
/// entry thunk, `entry` the absolute address of a group body.
///
/// # Safety
/// `thunk`/`entry` must point at code emitted by this crate into a
/// sealed (`r-x`) arena, and every pointer field of `ctx` must be
/// valid for the accesses the compiled group performs (vals: 77×u32,
/// mem/translated: full guest image, log: the compiler-checked
/// capacity, access log: [`crate::ACCESS_LOG_CAPACITY`] entries when
/// the group logs cache probes).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub unsafe fn enter(thunk: u64, ctx: *mut JitCtx, entry: u64) {
    let f: extern "sysv64" fn(*mut JitCtx, u64) = unsafe { std::mem::transmute(thunk) };
    f(ctx, entry);
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub unsafe fn enter(_thunk: u64, _ctx: *mut JitCtx, _entry: u64) {
    unreachable!("native tier is gated off on this platform");
}
