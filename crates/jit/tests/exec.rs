//! End-to-end tests: build tiny tree groups with the `daisy-vliw`
//! API, lower them to packed form, compile to native code, execute,
//! and check architected state, the counter mirrors, the path log,
//! the cache access log, and the exit record — the same observables
//! the core crate's native≡packed property tests compare at scale.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use daisy_cachesim::{CacheConfig, Hierarchy, Side};
use daisy_jit::ctx::{JitCtx, EXIT_BAIL, EXIT_BRANCH, PROBE_FETCH, PROBE_LOAD, PROBE_STORE};
use daisy_jit::lower::{Refusal, MAX_VLIW_MEM_PARCELS};
use daisy_jit::{
    CompileOpts, CompiledGroup, Jit, ACCESS_LOG_CAPACITY, ACCESS_LOG_VLIW_BUDGET, LOG_CAPACITY,
};
use daisy_vliw::op::{MemWidth, OpKind, Operation};
use daisy_vliw::tree::{Cond, Exit, ROOT};
use daisy_vliw::{Group, PackedGroup, Reg, VliwId};
use std::rc::Rc;

const MEM_LEN: usize = 1 << 16;
const PAGE: u32 = 4096;

/// Everything a native run needs, owned in one place so pointers stay
/// valid for the duration of `run`.
struct Harness {
    vals: Vec<u32>,
    mem: Vec<u8>,
    translated: Vec<u8>,
    log: Vec<u8>,
    access: Vec<u64>,
    pending: Vec<u64>,
    ctx: JitCtx,
}

impl Harness {
    fn new() -> Harness {
        Harness {
            vals: vec![0u32; 80],
            mem: vec![0u8; MEM_LEN],
            translated: vec![0u8; MEM_LEN >> 12],
            log: vec![0u8; LOG_CAPACITY],
            access: vec![0u64; ACCESS_LOG_CAPACITY],
            // Bypassed-load rows: 32 bytes per register.
            pending: vec![0u64; 80 * 4],
            ctx: JitCtx::new(),
        }
    }

    fn run(&mut self, jit: &Jit, group: &CompiledGroup, budget: u64) {
        self.ctx.reset_counters();
        self.ctx.vals = self.vals.as_mut_ptr();
        self.ctx.mem_base = self.mem.as_mut_ptr();
        self.ctx.translated_base = self.translated.as_ptr();
        self.ctx.log_base = self.log.as_mut_ptr();
        self.ctx.access_base = self.access.as_mut_ptr();
        self.ctx.pending_base = self.pending.as_mut_ptr() as *mut u8;
        self.ctx.budget_vliws = budget;
        unsafe { jit.run(&mut self.ctx, group) };
    }

    fn log_len(&self) -> usize {
        self.ctx.log_end as usize - self.log.as_ptr() as usize
    }

    /// Access-log entries written by the last run.
    fn access_len(&self) -> usize {
        (self.ctx.access_end as usize - self.access.as_ptr() as usize) / 8
    }
}

fn compile(jit: &Jit, g: &Group, entry: u32) -> Rc<CompiledGroup> {
    let p = PackedGroup::lower(g);
    jit.compile(&p, entry, PAGE, MEM_LEN as u32, 12, CompileOpts::default())
        .expect("group lowers to native")
}

#[test]
fn straight_line_alu_state_counters_and_exit_record() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let mut g = Group::new(0x1000);
    let v0 = &mut g.vliws[0];
    v0.add_op(ROOT, Operation::new(OpKind::Li, 0x1000).dst(Reg(5)).with_imm(-7));
    v0.add_op(ROOT, Operation::new(OpKind::Add, 0x1004).dst(Reg(3)).src(Reg(1)).src(Reg(2)));
    v0.add_op(ROOT, Operation::new(OpKind::AddImm, 0x1008).dst(Reg(4)).src(Reg(1)).with_imm(100));
    v0.seal(ROOT, Exit::Branch { target: 0x2000 });
    let cg = compile(&jit, &g, 0x1000);

    let mut h = Harness::new();
    h.vals[1] = 7;
    h.vals[2] = 9;
    h.run(&jit, &cg, u64::MAX);

    assert_eq!(h.vals[5], (-7i32) as u32);
    assert_eq!(h.vals[3], 16);
    assert_eq!(h.vals[4], 107);
    assert_eq!(h.ctx.exit_kind, EXIT_BRANCH);
    assert_eq!(h.ctx.exit_a, 0x2000);
    assert_eq!(h.ctx.exit_b, 0); // only exit target → slot 0
    assert_eq!(h.ctx.cur_group, cg.group_id);
    assert_eq!(h.ctx.vliws, 1);
    assert_eq!(h.ctx.base_instrs, 3);
    assert_eq!(h.ctx.histogram[3], 1);
    assert_eq!(h.log_len(), 0);
}

#[test]
fn conditional_logs_direction_and_picks_exit() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let mut g = Group::new(0x1000);
    let v0 = &mut g.vliws[0];
    let cond =
        Cond { src: Reg(64), mask: 0b0010, want_set: true, spec_target: None, origin: 0x1000 };
    let (t, f) = v0.split(ROOT, cond);
    v0.seal(t, Exit::Branch { target: 0x2000 });
    v0.seal(f, Exit::Branch { target: 0x3000 });
    let cg = compile(&jit, &g, 0x1000);

    let mut h = Harness::new();
    h.vals[64] = 0b0010;
    h.run(&jit, &cg, u64::MAX);
    assert_eq!(h.ctx.exit_a, 0x2000);
    assert_eq!(h.log_len(), 1);
    assert_eq!(h.log[0], 1); // taken

    h.vals[64] = 0;
    h.run(&jit, &cg, u64::MAX);
    assert_eq!(h.ctx.exit_a, 0x3000);
    assert_eq!(h.log_len(), 1);
    assert_eq!(h.log[0], 0); // fall-through
}

fn li(at: u32, dst: u8, imm: i32) -> Operation {
    Operation::new(OpKind::Li, at).dst(Reg(dst)).with_imm(imm)
}

/// A VLIW's first commit dedups against whichever path led into it:
/// VLIW 0's two sides end on different base instructions, and VLIW 1
/// opens with the fall side's last one. Only that first commit compares
/// `last_base` at run time; the rest are settled at compile time.
#[test]
fn first_commit_of_a_vliw_dedups_against_either_predecessor() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let mut g = Group::new(0x1000);
    let v1 = g.push_vliw(0x1010);
    let v0 = &mut g.vliws[0];
    let cond =
        Cond { src: Reg(64), mask: 0b0010, want_set: true, spec_target: None, origin: 0x1000 };
    let (t, f) = v0.split(ROOT, cond);
    v0.add_op(f, li(0x1004, 5, 1));
    v0.add_op(t, li(0x1008, 6, 2));
    v0.seal(t, Exit::Goto(v1));
    v0.seal(f, Exit::Goto(v1));
    let v = g.vliw_mut(v1);
    v.add_op(ROOT, li(0x1004, 7, 3));
    v.add_op(ROOT, li(0x100C, 8, 4));
    v.seal(ROOT, Exit::Branch { target: 0x2000 });
    assert_eq!(g.validate(), Ok(()));
    let cg = compile(&jit, &g, 0x1000);

    let mut h = Harness::new();
    // Fall: 0x1000, 0x1004, then VLIW 1 repeats 0x1004 and adds 0x100C.
    h.run(&jit, &cg, u64::MAX);
    assert_eq!((h.vals[5], h.vals[6], h.vals[7], h.vals[8]), (1, 0, 3, 4));
    assert_eq!(h.ctx.vliws, 2);
    assert_eq!(h.ctx.base_instrs, 3);
    assert_eq!(h.ctx.last_base, 0x100C);

    // Taken: 0x1000, 0x1008, then 0x1004 is new and 0x100C follows.
    let mut h = Harness::new();
    h.vals[64] = 0b0010;
    h.run(&jit, &cg, u64::MAX);
    assert_eq!((h.vals[5], h.vals[6], h.vals[7], h.vals[8]), (0, 2, 3, 4));
    assert_eq!(h.ctx.vliws, 2);
    assert_eq!(h.ctx.base_instrs, 4);
    assert_eq!(h.ctx.last_base, 0x100C);
}

/// Both sides of a condition start from the commit made before the
/// split, whichever side the emitter lays out first. The fall side
/// commits a new base instruction; the taken side opens with the
/// branch's own (a CTR-decrementing branch committing its count), which
/// must not count again.
#[test]
fn both_sides_of_a_condition_start_from_the_commit_before_it() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let mut g = Group::new(0x1000);
    let v0 = &mut g.vliws[0];
    v0.add_op(ROOT, li(0x1000, 5, 1));
    let cond =
        Cond { src: Reg(64), mask: 0b0010, want_set: true, spec_target: None, origin: 0x1004 };
    let (t, f) = v0.split(ROOT, cond);
    v0.add_op(f, li(0x1008, 6, 2));
    v0.add_op(t, li(0x1004, 7, 3));
    v0.seal(t, Exit::Branch { target: 0x2000 });
    v0.seal(f, Exit::Branch { target: 0x3000 });
    let cg = compile(&jit, &g, 0x1000);

    let mut h = Harness::new();
    h.run(&jit, &cg, u64::MAX);
    assert_eq!(h.ctx.exit_a, 0x3000);
    assert_eq!(h.ctx.base_instrs, 3);
    assert_eq!(h.ctx.last_base, 0x1008);

    h.vals[64] = 0b0010;
    h.run(&jit, &cg, u64::MAX);
    assert_eq!(h.ctx.exit_a, 0x2000);
    assert_eq!(h.vals[7], 3);
    assert_eq!(h.ctx.base_instrs, 2);
    assert_eq!(h.ctx.last_base, 0x1004);
}

/// A bail after commits settled at compile time still hands the packed
/// resume the exact `last_base` and base-instruction count.
#[test]
fn bail_after_mid_vliw_commits_reports_the_last_commit() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let mut g = Group::new(0x1000);
    let v0 = &mut g.vliws[0];
    v0.add_op(ROOT, li(0x1000, 5, 1));
    v0.add_op(ROOT, li(0x1004, 6, 2));
    v0.add_op(ROOT, load(0x1008, 3, 2, 0));
    v0.seal(ROOT, Exit::Branch { target: 0x2000 });
    let cg = compile(&jit, &g, 0x1000);

    let mut h = Harness::new();
    h.vals[2] = MEM_LEN as u32; // out of bounds
    h.run(&jit, &cg, u64::MAX);
    assert_eq!(h.ctx.exit_kind, EXIT_BAIL);
    assert_eq!(cg.bails[h.ctx.exit_b as usize].op, 2);
    assert_eq!((h.vals[5], h.vals[6]), (1, 2));
    assert_eq!(h.ctx.vliws, 1);
    assert_eq!(h.ctx.base_instrs, 2);
    assert_eq!(h.ctx.loads, 0);
    assert_eq!(h.ctx.last_base, 0x1004);
}

#[test]
fn store_then_load_roundtrips_big_endian() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let mut g = Group::new(0x1000);
    let v0 = &mut g.vliws[0];
    // mem[r2+4] <- r1 (word), then r3 <- mem[r2+4] (word)
    v0.add_op(
        ROOT,
        Operation::new(OpKind::Store { width: MemWidth::Word }, 0x1000)
            .src(Reg(1))
            .src(Reg(2))
            .with_imm(4),
    );
    v0.add_op(
        ROOT,
        Operation::new(OpKind::Load { width: MemWidth::Word, algebraic: false }, 0x1004)
            .dst(Reg(3))
            .src(Reg(2))
            .with_imm(4),
    );
    v0.seal(ROOT, Exit::Branch { target: 0x2000 });
    let cg = compile(&jit, &g, 0x1000);

    let mut h = Harness::new();
    h.vals[1] = 0x1122_3344;
    h.vals[2] = 0x100;
    h.run(&jit, &cg, u64::MAX);

    assert_eq!(h.vals[3], 0x1122_3344);
    assert_eq!(&h.mem[0x104..0x108], &[0x11, 0x22, 0x33, 0x44]); // big-endian guest
    assert_eq!(h.ctx.loads, 1);
    assert_eq!(h.ctx.stores, 1);
    assert_eq!(h.ctx.exit_kind, EXIT_BRANCH);
}

#[test]
fn store_to_translated_page_bails_before_side_effects() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let mut g = Group::new(0x1000);
    let v0 = &mut g.vliws[0];
    v0.add_op(
        ROOT,
        Operation::new(OpKind::Store { width: MemWidth::Word }, 0x1000).src(Reg(1)).src(Reg(2)),
    );
    v0.seal(ROOT, Exit::Branch { target: 0x2000 });
    let cg = compile(&jit, &g, 0x1000);

    let mut h = Harness::new();
    h.vals[1] = 0xdead_beef;
    h.vals[2] = 0x2000;
    h.translated[0x2000 >> 12] = 1; // guest code lives on that page
    h.run(&jit, &cg, u64::MAX);

    assert_eq!(h.ctx.exit_kind, EXIT_BAIL);
    let bail = &cg.bails[h.ctx.exit_b as usize];
    assert_eq!(bail.op, 0); // first parcel in the arena
    assert_eq!(h.ctx.stores, 0);
    assert_eq!(&h.mem[0x2000..0x2004], &[0, 0, 0, 0]); // nothing written
}

#[test]
fn out_of_bounds_access_bails() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let mut g = Group::new(0x1000);
    let v0 = &mut g.vliws[0];
    v0.add_op(
        ROOT,
        Operation::new(OpKind::Load { width: MemWidth::Word, algebraic: false }, 0x1000)
            .dst(Reg(3))
            .src(Reg(2)),
    );
    v0.seal(ROOT, Exit::Branch { target: 0x2000 });
    let cg = compile(&jit, &g, 0x1000);

    let mut h = Harness::new();
    h.vals[2] = MEM_LEN as u32 - 2; // word load straddles the end
    h.run(&jit, &cg, u64::MAX);
    assert_eq!(h.ctx.exit_kind, EXIT_BAIL);
    assert_eq!(h.ctx.loads, 0);
}

fn leave_group(entry: u32, dst_reg: u8, li: i32, target: u32) -> Group {
    let mut g = Group::new(entry);
    let v0 = &mut g.vliws[0];
    v0.add_op(ROOT, Operation::new(OpKind::Li, entry).dst(Reg(dst_reg)).with_imm(li));
    v0.seal(ROOT, Exit::Branch { target });
    g
}

#[test]
fn patched_chain_edge_runs_both_groups_in_one_entry() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    // A at 0x1000 leaves to 0x1100 (same page → onpage); B leaves to
    // 0x3000 and stays unlinked, so the run returns from B.
    let a = compile(&jit, &leave_group(0x1000, 1, 11, 0x1100), 0x1000);
    let b = compile(&jit, &leave_group(0x1100, 2, 22, 0x3000), 0x1100);
    assert_eq!(jit.link(&a, 0, &b), 1);

    let mut h = Harness::new();
    h.run(&jit, &a, 1 << 20);
    assert_eq!((h.vals[1], h.vals[2]), (11, 22));
    assert_eq!(h.ctx.exit_kind, EXIT_BRANCH);
    assert_eq!(h.ctx.exit_a, 0x3000);
    assert_eq!(h.ctx.cur_group, b.group_id); // attribution follows the chain
    assert_eq!(h.ctx.vliws, 2);
    assert_eq!(h.ctx.chained_dispatches, 1);
    assert_eq!(h.ctx.onpage_dispatches, 1);
    assert_eq!(h.ctx.crosspage_direct, 0);
}

#[test]
fn cross_page_chain_counts_as_crosspage_direct() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let a = compile(&jit, &leave_group(0x1000, 1, 1, 0x2000), 0x1000);
    let b = compile(&jit, &leave_group(0x2000, 2, 2, 0x3000), 0x2000);
    jit.link(&a, 0, &b);
    let mut h = Harness::new();
    h.run(&jit, &a, 1 << 20);
    assert_eq!(h.ctx.chained_dispatches, 1);
    assert_eq!(h.ctx.onpage_dispatches, 0);
    assert_eq!(h.ctx.crosspage_direct, 1);
}

#[test]
fn budget_stops_self_loop() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let a = compile(&jit, &leave_group(0x1000, 1, 1, 0x1000), 0x1000);
    jit.link(&a, 0, &a);
    let mut h = Harness::new();
    h.run(&jit, &a, 10);
    // Each entry executes one VLIW; the stub refuses the 11th entry.
    assert_eq!(h.ctx.vliws, 10);
    assert_eq!(h.ctx.chained_dispatches, 9);
    assert_eq!(h.ctx.exit_kind, EXIT_BRANCH);
    assert_eq!(h.ctx.exit_a, 0x1000);
}

#[test]
fn dropping_a_group_severs_inbound_edges_via_alive_byte() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let a = compile(&jit, &leave_group(0x1000, 1, 1, 0x1100), 0x1000);
    let b = compile(&jit, &leave_group(0x1100, 2, 2, 0x3000), 0x1100);
    jit.link(&a, 0, &b);
    drop(b); // cast-out / invalidation: alive byte flips to 0
    let mut h = Harness::new();
    h.run(&jit, &a, 1 << 20);
    // The patched edge is still installed but the stub refuses it.
    assert_eq!(h.ctx.exit_kind, EXIT_BRANCH);
    assert_eq!(h.ctx.exit_a, 0x1100);
    assert_eq!(h.ctx.chained_dispatches, 0);
    assert_eq!(h.vals[2], 0);
}

/// Compiles identical small groups into `jit` until the arena refuses
/// one, and returns those that fit.
fn fill(jit: &Jit) -> Vec<Rc<CompiledGroup>> {
    let p = PackedGroup::lower(&leave_group(0x1000, 1, 5, 0x3000));
    let mut groups = Vec::new();
    loop {
        match jit.compile(&p, 0x1000, PAGE, MEM_LEN as u32, 12, CompileOpts::default()) {
            Ok(cg) => groups.push(cg),
            Err(r) => {
                assert_eq!(r, Refusal::ArenaFull);
                return groups;
            }
        }
    }
}

/// A patched edge lives in its source group, so once every group is
/// dead the arena rewinds even though the edge was never undone.
#[test]
fn reclaim_waits_for_dead_groups() {
    let jit = Jit::new(2 * 4096).expect("host supports the native tier");
    let shared = jit.arena_used();
    let groups = fill(&jit);
    let n = groups.len();
    assert!(n > 2, "a two-page arena holds more than two small groups");
    let (a, b) = (Rc::clone(&groups[0]), Rc::clone(&groups[n - 1]));
    let (old_entry, last_id) = (a.entry_addr(), b.group_id);
    drop(groups);
    assert!(!jit.reclaim(), "two groups are alive");
    assert_eq!(jit.link(&a, 0, &b), 1);
    drop(b);
    assert!(!jit.reclaim(), "one group is alive");
    assert!(jit.arena_used() > shared);
    drop(a);
    assert!(jit.reclaim(), "the patched edge died with its group");
    assert_eq!(jit.arena_used(), shared);

    // New code lands on the retired bytes under a fresh id and runs.
    let c = compile(&jit, &leave_group(0x1000, 2, 77, 0x2000), 0x1000);
    assert_eq!(c.entry_addr(), old_entry);
    assert!(c.group_id > last_id, "group ids are never reused");
    let mut h = Harness::new();
    h.run(&jit, &c, u64::MAX);
    assert_eq!((h.vals[1], h.vals[2]), (0, 77));
    assert_eq!(h.ctx.exit_kind, EXIT_BRANCH);
    assert_eq!(h.ctx.exit_a, 0x2000);
    assert_eq!(h.ctx.cur_group, c.group_id);

    // The whole arena is usable again.
    assert_eq!(fill(&jit).len() + 1, n);
}

#[test]
fn recompiled_chain_over_reclaimed_bytes_runs_both_groups() {
    let jit = Jit::new(2 * 4096).expect("host supports the native tier");
    let a = compile(&jit, &leave_group(0x1000, 1, 11, 0x1100), 0x1000);
    let b = compile(&jit, &leave_group(0x1100, 2, 22, 0x3000), 0x1100);
    jit.link(&a, 0, &b);
    drop((a, b));
    assert!(jit.reclaim());

    // Same shape, swapped constants: a stale byte from the old blobs
    // would show up as an old constant or a wrong exit.
    let a = compile(&jit, &leave_group(0x1000, 1, 33, 0x1100), 0x1000);
    let b = compile(&jit, &leave_group(0x1100, 2, 44, 0x3000), 0x1100);
    assert_eq!(jit.link(&a, 0, &b), 1);
    let mut h = Harness::new();
    h.run(&jit, &a, 1 << 20);
    assert_eq!((h.vals[1], h.vals[2]), (33, 44));
    assert_eq!(h.ctx.exit_a, 0x3000);
    assert_eq!(h.ctx.cur_group, b.group_id);
    assert_eq!(h.ctx.chained_dispatches, 1);
}

fn load(at: u32, dst: u8, base: u8, disp: i32) -> Operation {
    Operation::new(OpKind::Load { width: MemWidth::Word, algebraic: false }, at)
        .dst(Reg(dst))
        .src(Reg(base))
        .with_imm(disp)
}

fn store(at: u32, val: u8, base: u8, disp: i32) -> Operation {
    Operation::new(OpKind::Store { width: MemWidth::Word }, at)
        .src(Reg(val))
        .src(Reg(base))
        .with_imm(disp)
}

/// The access log's static bound, at its worst: a group whose every
/// VLIW carries the most memory parcels a logging group may hold,
/// chained to itself until the run reaches the budget the dispatcher
/// sets. Seven VLIWs do not divide the budget, so the last chained
/// entry starts below it and runs past it. The cursor must stay inside
/// the capacity, and the log must be exactly the packed engine's probe
/// sequence: per executed VLIW its fetch, then every load and store in
/// parcel order.
#[test]
fn access_log_stays_within_capacity_at_the_chain_budget() {
    const ENTRY: u32 = 0x1000;
    const VLIWS: u32 = 7;
    let fetch: Vec<u32> = (0..VLIWS).map(|i| 0x8000_0040 + 0x40 * i).collect();
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let mut g = Group::new(ENTRY);
    // Every VLIW makes the same data probes.
    let mut probes = Vec::new();
    for i in 0..VLIWS {
        let at = ENTRY + 0x100 * i;
        let v = if i == 0 { VliwId(0) } else { g.push_vliw(at) };
        for k in 0..MAX_VLIW_MEM_PARCELS as u32 {
            let disp = 4 * k as i32;
            let (op, probe) = if k % 3 == 2 {
                (store(at + 4 * k, 1, 2, 0x400 + disp), (0x500 + 4 * k, PROBE_STORE))
            } else {
                (load(at + 4 * k, 10 + (k % 8) as u8, 2, disp), (0x100 + 4 * k, PROBE_LOAD))
            };
            g.vliw_mut(v).add_op(ROOT, op);
            if i == 0 {
                probes.push(u64::from(probe.0) | u64::from(probe.1) << 32);
            }
        }
        if i > 0 {
            g.vliw_mut(VliwId(i - 1)).seal(ROOT, Exit::Goto(v));
        }
    }
    // Leave through the chain exit, linked back to this group's entry.
    g.vliw_mut(VliwId(VLIWS - 1)).seal(ROOT, Exit::Branch { target: ENTRY });
    assert_eq!(g.validate(), Ok(()));
    let p = PackedGroup::lower(&g);
    let opts = CompileOpts { fetch_addrs: Some(&fetch), ..CompileOpts::default() };
    let cg = jit.compile(&p, ENTRY, PAGE, MEM_LEN as u32, 12, opts).expect("group lowers");
    jit.link(&cg, 0, &cg);

    let mut h = Harness::new();
    h.vals[2] = 0x100;
    h.run(&jit, &cg, ACCESS_LOG_VLIW_BUDGET);

    let vliws = h.ctx.vliws;
    assert!(vliws > ACCESS_LOG_VLIW_BUDGET, "the last entry runs past the budget: {vliws}");
    assert_eq!(vliws % u64::from(VLIWS), 0, "every entry runs the whole group");
    assert_eq!(h.ctx.exit_kind, EXIT_BRANCH);
    assert_eq!(h.ctx.chained_dispatches, vliws / u64::from(VLIWS) - 1);
    assert!(h.access_len() <= ACCESS_LOG_CAPACITY, "{} entries", h.access_len());
    let per_vliw = MAX_VLIW_MEM_PARCELS + 1;
    assert_eq!(h.access_len(), vliws as usize * per_vliw);
    assert_eq!(h.ctx.loads + h.ctx.stores, vliws * MAX_VLIW_MEM_PARCELS as u64);
    for (i, entry) in h.access[..h.access_len()].chunks(per_vliw).enumerate() {
        let f = fetch[i % VLIWS as usize];
        assert_eq!(entry[0], u64::from(f) | u64::from(PROBE_FETCH) << 32, "VLIW {i} fetch");
        assert_eq!(&entry[1..], &probes[..], "VLIW {i} data probes");
    }
}

/// A backward `Next` would void the logs' static bounds, so the
/// lowerer never emits one: groups are acyclic.
#[test]
#[should_panic(expected = "groups are acyclic")]
fn backward_next_is_never_lowered() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let mut g = Group::new(0x1000);
    g.vliws[0].seal(ROOT, Exit::Goto(VliwId(0)));
    compile(&jit, &g, 0x1000);
}

/// Under a level-0 geometry, a probe of the line its set probed last is
/// left out of the log, and every other probe is logged and becomes its
/// set's line in the side's table. The I side is direct-mapped with
/// four 64-byte sets, the D side 2-way with four 16-byte sets. The
/// fetches visit set 0, set 1, then set 0's line again. The data probes
/// are A, B (another set), A again, then C (A's set), then A, which is
/// still resident but no longer its set's last line. Replaying the log
/// and then the hits derived from the counters leaves the cache model
/// as the packed engine's probes one by one would, with the same line
/// tables. Loads still deliver their values, and a bypassed load still
/// records its address and value.
#[test]
fn probes_of_a_sets_last_line_are_left_out_of_the_log() {
    const ENTRY: u32 = 0x1000;
    let hierarchy = || {
        Hierarchy::new(
            vec![CacheConfig::new("I", 256, 1, 64, 0)],
            vec![CacheConfig::new("D", 128, 2, 16, 1)],
            vec![CacheConfig::new("S", 1024, 4, 64, 5)],
            20,
        )
    };
    let (a, b, c) = (0x100u32, 0x110, 0x140);
    let fetch = [0x8000_0000u32, 0x8000_0040, 0x8000_0010];
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let mut g = Group::new(ENTRY);
    let (v1, v2) = (g.push_vliw(ENTRY + 0x20), g.push_vliw(ENTRY + 0x40));
    let v = &mut g.vliws[0];
    let mut bypassed = load(ENTRY, 10, 2, 0); // A
    bypassed.bypassed_store = true;
    v.add_op(ROOT, bypassed);
    v.add_op(ROOT, load(ENTRY + 4, 11, 2, 0x10)); // B
    v.seal(ROOT, Exit::Goto(v1));
    let v = &mut g.vliws[v1.0 as usize];
    v.add_op(ROOT, store(ENTRY + 0x20, 1, 2, 4)); // A
    v.add_op(ROOT, load(ENTRY + 0x24, 12, 2, 0x40)); // C
    v.seal(ROOT, Exit::Goto(v2));
    let v = &mut g.vliws[v2.0 as usize];
    v.add_op(ROOT, load(ENTRY + 0x40, 13, 2, 8)); // A
    v.seal(ROOT, Exit::Branch { target: 0x2000 });
    let p = PackedGroup::lower(&g);
    let model = hierarchy();
    let opts = CompileOpts {
        fetch_addrs: Some(&fetch),
        instr_line_shift: model.l0_line_shift(Side::Instr),
        instr_set_mask: model.l0_set_mask(Side::Instr).expect("private I level"),
        data_line_shift: model.l0_line_shift(Side::Data),
        data_set_mask: model.l0_set_mask(Side::Data).expect("private D level"),
    };
    let cg = jit.compile(&p, ENTRY, PAGE, MEM_LEN as u32, 12, opts).expect("group lowers");
    // The packed engine's probes, one by one, for one run.
    let per_run = [
        (true, fetch[0]),
        (false, a),
        (false, b),
        (true, fetch[1]),
        (false, a + 4),
        (false, c),
        (true, fetch[2]),
        (false, a + 8),
    ];

    let mut h = Harness::new();
    h.vals[1] = 0xDEAD_BEEF;
    h.vals[2] = a;
    for (at, w) in [(a, 0x1122_3344u32), (b, 0x5566_7788), (c, 0x99AA_BBCC), (a + 8, 0x0BAD_F00D)] {
        h.mem[at as usize..][..4].copy_from_slice(&w.to_be_bytes());
    }
    let entry = |addr: u32, kind: u32| u64::from(addr) | u64::from(kind) << 32;
    let (mut split, mut each) = (hierarchy(), hierarchy());
    let (mut split_penalty, mut each_penalty) = (0u64, 0u64);
    let run = |h: &mut Harness, split: &Hierarchy| {
        // The tier's copies of the line tables, filled from the model.
        let mut lines = [Side::Instr, Side::Data].map(|side| split.l0_lines(side).to_vec());
        h.ctx.fetch_lines = lines[0].as_mut_ptr();
        h.ctx.data_lines = lines[1].as_mut_ptr();
        h.run(&jit, &cg, u64::MAX);
        assert_eq!(h.ctx.exit_kind, EXIT_BRANCH);
        assert_eq!((h.ctx.vliws, h.ctx.loads, h.ctx.stores), (3, 4, 1));
        lines
    };

    // Cold: every set is unprobed, so only the repeats are left out.
    let lines = run(&mut h, &split);
    assert_eq!((h.vals[10], h.vals[11], h.vals[12]), (0x1122_3344, 0x5566_7788, 0x99AA_BBCC));
    assert_eq!(h.vals[13], 0x0BAD_F00D);
    assert_eq!(h.mem[0x104..0x108], 0xDEAD_BEEFu32.to_be_bytes());
    let row = &h.pending[10 * 4..][..2];
    assert_eq!(row, [h.ctx.pending_gen, u64::from(a) | 0x1122_3344 << 32], "bypassed row");
    let log = &h.access[..h.access_len()];
    assert_eq!(
        log,
        [
            entry(fetch[0], PROBE_FETCH),
            entry(a, PROBE_LOAD),
            entry(b, PROBE_LOAD),
            entry(fetch[1], PROBE_FETCH),
            entry(c, PROBE_LOAD),
            entry(a + 8, PROBE_LOAD),
        ]
    );
    const NO_LINE: u64 = u64::MAX;
    let (i0, i1) = (u64::from(fetch[0] >> 6), u64::from(fetch[1] >> 6));
    let (la, lb) = (u64::from(a >> 4), u64::from(b >> 4));
    assert_eq!(lines[0], [i0, i1, NO_LINE, NO_LINE]);
    assert_eq!(lines[1], [la, lb, NO_LINE, NO_LINE]);

    // Replayed as the tier replays it, the log and the derived hits
    // match the probes one by one, and the model's tables end equal to
    // the copies compiled code updated.
    assert_eq!(replay(&h, &lines, &mut split, &mut split_penalty), [1, 1]);
    for &(instr, at) in &per_run {
        each_penalty += probe(&mut each, instr, at);
    }
    assert_eq!(split.level_stats(), each.level_stats());
    assert_eq!(split_penalty, each_penalty);

    // Seeded from the model, the next run logs only C and A: every
    // other line is its set's last.
    let lines = run(&mut h, &split);
    assert_eq!(&h.access[..h.access_len()], [entry(c, PROBE_LOAD), entry(a + 8, PROBE_LOAD)]);
    assert_eq!(replay(&h, &lines, &mut split, &mut split_penalty), [3, 3]);
    for &(instr, at) in &per_run {
        each_penalty += probe(&mut each, instr, at);
    }
    assert_eq!(split.level_stats(), each.level_stats());
    assert_eq!(split_penalty, each_penalty);
}

/// One probe of `model`'s instruction or data side; returns its penalty.
fn probe(model: &mut Hierarchy, instr: bool, addr: u32) -> u64 {
    let acc = if instr { model.access_instr(addr) } else { model.access_data(addr) };
    u64::from(acc.penalty)
}

/// Replays the last run's access log through `model` as the native tier
/// does, then the hits left out of it, derived from the run's counters,
/// adding the penalties to `penalty`. Checks that `model`'s line tables
/// end equal to `lines`, the copies the run updated, and returns the
/// derived `[fetch, data]` hits.
fn replay(
    h: &Harness,
    lines: &[Vec<u64>; 2],
    model: &mut Hierarchy,
    penalty: &mut u64,
) -> [u64; 2] {
    let log = &h.access[..h.access_len()];
    let fetches = log.iter().filter(|&&e| (e >> 32) as u32 == PROBE_FETCH).count() as u64;
    let data = log.len() as u64 - fetches;
    for &e in log {
        *penalty += probe(model, (e >> 32) as u32 == PROBE_FETCH, e as u32);
    }
    let hits = [h.ctx.vliws - fetches, h.ctx.loads + h.ctx.stores - data];
    for ((side, n), table) in [Side::Instr, Side::Data].into_iter().zip(hits).zip(lines) {
        *penalty += model.add_l0_mru_hits(side, n);
        assert_eq!(table[..], *model.l0_lines(side), "{side:?} line table");
    }
    hits
}

/// One memory parcel past the bound refuses the group when it would
/// log probes, and compiles as before when it would not.
#[test]
fn too_many_memory_parcels_per_vliw_refuse_only_a_logging_group() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let mut g = Group::new(0x1000);
    let v0 = &mut g.vliws[0];
    for k in 0..=MAX_VLIW_MEM_PARCELS as u32 {
        v0.add_op(ROOT, load(0x1000 + 4 * k, 10, 2, 4 * k as i32));
    }
    v0.seal(ROOT, Exit::Branch { target: 0x2000 });
    let p = PackedGroup::lower(&g);
    let fetch = [0x8000_0000];
    let logging = CompileOpts { fetch_addrs: Some(&fetch), ..CompileOpts::default() };
    let refused = jit.compile(&p, 0x1000, PAGE, MEM_LEN as u32, 12, logging);
    assert_eq!(refused.err(), Some(Refusal::TooLarge));
    assert!(jit.compile(&p, 0x1000, PAGE, MEM_LEN as u32, 12, CompileOpts::default()).is_ok());
}

/// A group compiled for an infinite cache (no fetch addresses) emits
/// no log stores: its loads and stores never move the cursor.
#[test]
fn group_compiled_for_an_infinite_cache_never_moves_the_log_cursor() {
    let jit = Jit::new(1 << 20).expect("host supports the native tier");
    let mut g = Group::new(0x1000);
    let v0 = &mut g.vliws[0];
    v0.add_op(ROOT, store(0x1000, 1, 2, 4));
    v0.add_op(ROOT, load(0x1004, 3, 2, 4));
    v0.seal(ROOT, Exit::Branch { target: 0x2000 });
    let cg = compile(&jit, &g, 0x1000);

    let mut h = Harness::new();
    h.vals[1] = 0x1122_3344;
    h.vals[2] = 0x100;
    h.run(&jit, &cg, u64::MAX);
    assert_eq!((h.ctx.loads, h.ctx.stores), (1, 1));
    assert_eq!(h.access_len(), 0);
    assert!(h.access.iter().all(|&e| e == 0), "nothing was written");
}
