//! Guest-level attribution (`daisy::profile`) under the real system:
//! recording leaves the run unperturbed, conservation invariants,
//! waste accounting, the §4.2 overhead clock, and the text exporters.

use daisy::prelude::*;
use daisy::profile::{annotated_disassembly, folded_stacks};
use daisy_cachesim::Hierarchy;
use daisy_ppc::interp::{Cpu, StopReason};
use daisy_ppc::mem::Memory;
use daisy_ppc::PpcIsa;
use daisy_workloads::Workload;
use std::collections::BTreeMap;

/// Workloads the attribution invariants are checked on — kept to a
/// handful so those runs stay cheap in debug builds. The
/// non-perturbation test runs all nine.
const WORKLOADS: &[&str] = &["wc", "cmp", "hist", "xlat"];

fn workload(name: &str) -> Workload {
    daisy_workloads::by_name(name).expect("known workload")
}

fn run_guest_profiled(w: &Workload) -> DaisySystem<PpcIsa> {
    run(w, Hierarchy::infinite(), true)
}

fn run(w: &Workload, cache: Hierarchy, guest_profiling: bool) -> DaisySystem<PpcIsa> {
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(w.mem_size)
        .cache(cache)
        .guest_profiling(guest_profiling)
        .build();
    sys.load(&w.program()).unwrap();
    let stop = sys.run(50 * w.max_instrs).unwrap();
    assert_eq!(stop, StopReason::Syscall, "{}: run did not finish", w.name);
    w.check(&sys.cpu, &sys.mem).unwrap_or_else(|e| panic!("{}: check failed: {e}", w.name));
    sys
}

/// Profiling does not change what it measures, on any tier: under the
/// paper's finite cache hierarchy, a profiled run leaves the same
/// architected state, memory image and `RunStats` — stall cycles and
/// cache misses included — as an unprofiled one, and a profiled run with
/// the native tier engaged produces the same `RunStats` and the same
/// profile as the packed one. The native runs bail on some workload, so
/// a path replayed across a bail and its packed resume is covered too.
/// (Hosts other than x86-64 Linux have no native tier; there the
/// second run is packed as well.)
#[test]
fn profiling_does_not_perturb_the_run() {
    let native_host = cfg!(all(target_arch = "x86_64", target_os = "linux"));
    let (mut bails, mut chained, mut edge_patches) = (0, 0, 0);
    for w in daisy_workloads::all() {
        let name = w.name;
        let plain = run(&w, Hierarchy::paper_default(), false);
        let profiled = run(&w, Hierarchy::paper_default(), true);
        assert!(plain.guest_profile().is_none() && profiled.guest_profile().is_some());

        assert_eq!(profiled.cpu.gpr, plain.cpu.gpr, "{name}: GPRs diverged");
        assert_eq!(profiled.cpu.cr, plain.cpu.cr, "{name}: CR diverged");
        assert_eq!(profiled.cpu.lr, plain.cpu.lr, "{name}: LR diverged");
        assert_eq!(profiled.cpu.ctr, plain.cpu.ctr, "{name}: CTR diverged");
        assert_eq!(profiled.cpu.xer, plain.cpu.xer, "{name}: XER diverged");
        assert_eq!(profiled.cpu.pc, plain.cpu.pc, "{name}: PC diverged");
        let size = plain.mem.size();
        assert_eq!(
            profiled.mem.read_bytes(0, size).unwrap(),
            plain.mem.read_bytes(0, size).unwrap(),
            "{name}: memory image diverged"
        );
        assert_eq!(profiled.stats, plain.stats, "{name}: RunStats diverged");
        assert!(plain.stats.stall_cycles > 0, "{name}: the finite hierarchy must stall");

        let mut native = DaisySystem::<PpcIsa>::builder()
            .mem_size(w.mem_size)
            .cache(Hierarchy::paper_default())
            .guest_profiling(true)
            .native_execution(true)
            .build();
        assert_eq!(native.native_enabled(), native_host, "{name}: native tier not engaged");
        native.load(&w.program()).unwrap();
        native.run(50 * w.max_instrs).unwrap();
        w.check(&native.cpu, &native.mem).unwrap_or_else(|e| panic!("{name}: check failed: {e}"));
        if let Some(ns) = native.native_stats() {
            assert!(ns.vliws_native > 0, "{name}: no VLIW ran natively");
            bails += ns.bails;
            chained += ns.chained;
            edge_patches += ns.edge_patches;
        }
        assert_eq!(native.stats, profiled.stats, "{name}: RunStats diverged on the native tier");
        let (gn, gp) = (native.guest_profile().unwrap(), profiled.guest_profile().unwrap());
        let per_pc = |g: &GuestProfile| g.iter().map(|(&k, &v)| (k, v)).collect::<BTreeMap<_, _>>();
        assert_eq!(per_pc(gn), per_pc(gp), "{name}: per-PC attribution diverged");
        assert_eq!(gn.timeline(), gp.timeline(), "{name}: timeline diverged");
        assert_eq!(gn.dispatches(), gp.dispatches(), "{name}: dispatches diverged");
        assert_eq!(
            gn.overhead().report(&native.stats),
            gp.overhead().report(&profiled.stats),
            "{name}: overhead clock diverged"
        );
    }
    assert!(
        bails > 0 || !native_host,
        "no native run bailed: a replay across a bail went untested"
    );
    // Edges are patched, but a zero chain budget never follows one.
    if native_host {
        assert!(edge_patches > 0, "no chain edge was patched");
        assert_eq!(chained, 0, "a profiled run followed a patched edge");
    }
}

/// Asserts conservation on a profiled run: the per-PC issue-cycle
/// shares sum to its `vliws_executed` and the stall shares to its
/// `stall_cycles`.
fn assert_conserves(name: &str, sys: &DaisySystem<PpcIsa>) {
    let gp = sys.guest_profile().unwrap();
    for (what, got, want) in [
        ("issue", gp.total_issue_cycles(), sys.stats.vliws_executed),
        ("stall", gp.total_stall_cycles(), sys.stats.stall_cycles),
    ] {
        let want = want as f64;
        let ok = (got - want).abs() < 1e-6 * want.max(1.0);
        assert!(ok, "{name}: attributed {what} cycles {got} != run total {want}");
    }
}

/// Conservation: every engine cycle lands on some guest PC, no cycle
/// is invented.
#[test]
fn attributed_cycles_sum_to_run_totals() {
    for name in WORKLOADS {
        assert_conserves(name, &run_guest_profiled(&workload(name)));
    }
}

/// Waste accounting stays inside its bounds, and the multi-path
/// workloads genuinely speculate (a waste report over zero speculative
/// ops would be vacuous).
#[test]
fn waste_accounting_is_bounded_and_nonvacuous() {
    let mut any_spec = false;
    for name in WORKLOADS {
        let w = workload(name);
        let sys = run_guest_profiled(&w);
        let gp = sys.guest_profile().unwrap();

        assert!(gp.wasted_spec_ops() <= gp.spec_ops(), "{name}: wasted > speculative");
        let f = gp.waste_fraction();
        assert!((0.0..=1.0).contains(&f), "{name}: waste fraction {f} out of range");
        for (&(entry, pc), s) in gp.iter() {
            assert!(
                s.wasted_spec_ops <= s.spec_ops,
                "{name}: ({entry:#x},{pc:#x}) wasted > speculative"
            );
            assert!(s.cycles >= 0.0 && s.stall_cycles >= 0.0);
        }
        any_spec |= gp.spec_ops() > 0;
    }
    assert!(any_spec, "at least one workload must execute speculative parcels");
}

/// The §4.2 overhead clock sees the run's translations and prices them
/// at 4000 cycles per scheduled base instruction.
#[test]
fn overhead_clock_tracks_translation_work() {
    let w = workload("cmp");
    let sys = run_guest_profiled(&w);
    let gp = sys.guest_profile().unwrap();
    let clock = gp.overhead();

    assert!(clock.translations > 0, "a fresh run must translate");
    assert!(clock.translate_instrs > 0);
    let report = clock.report(&sys.stats);
    assert!(
        (report.translate_cycles
            - clock.translate_instrs as f64 * daisy::profile::TRANSLATE_CYCLES_PER_INSTR)
            .abs()
            < 1e-9
    );
    assert!(report.total() > 0.0);
    let base = {
        let prog = w.program();
        let mut mem = Memory::new(w.mem_size);
        prog.load_into(&mut mem).unwrap();
        let mut cpu = Cpu::new(prog.entry);
        cpu.run(&mut mem, w.max_instrs).unwrap();
        cpu.ninstrs
    };
    assert!(report.per_base_instr(base) > 0.0);
}

/// Folded-stack lines are `workload;page;entry;pc weight` with
/// strictly positive integer weights.
#[test]
fn folded_stacks_are_well_formed() {
    let w = workload("wc");
    let sys = run_guest_profiled(&w);
    let gp = sys.guest_profile().unwrap();
    let folded = folded_stacks(gp, w.name, sys.vmm.cfg.page_size);
    assert!(!folded.is_empty(), "a completed run must attribute something");
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("line has a weight");
        let frames: Vec<&str> = stack.split(';').collect();
        assert_eq!(frames.len(), 4, "four frames: workload;page;entry;pc — got {line}");
        assert_eq!(frames[0], w.name);
        assert!(frames[1].starts_with("page_0x"), "bad page frame in {line}");
        assert!(frames[2].starts_with("entry_0x"), "bad entry frame in {line}");
        assert!(frames[3].starts_with("pc_0x"), "bad pc frame in {line}");
        assert!(weight.parse::<u64>().expect("integer weight") > 0);
    }
}

/// The annotated disassembly decodes real instructions for the hot PCs
/// and carries the waste summary in its header.
#[test]
fn annotated_disassembly_renders_decoded_instructions() {
    let w = workload("wc");
    let sys = run_guest_profiled(&w);
    let gp = sys.guest_profile().unwrap();
    let report = annotated_disassembly::<PpcIsa>(gp, &sys.mem, w.name);
    assert!(report.contains("annotated guest disassembly: wc"));
    assert!(report.contains("spec ops:"));
    // Every profiled PC lies in mapped code, so no line may fail to
    // decode, and at least one real mnemonic must show up.
    assert!(!report.contains("??"), "all profiled PCs must decode");
    let body_lines = report.lines().filter(|l| l.contains("0x")).count();
    assert!(body_lines > 5, "expected a non-trivial number of annotated PCs");
}

/// Degraded entries attribute through the conservative rung: profiles
/// exist and conserve issue and stall cycles.
#[test]
fn attribution_survives_forced_degradation() {
    let w = workload("cmp");
    let prog = w.program();
    let mut sys =
        DaisySystem::<PpcIsa>::builder().mem_size(w.mem_size).guest_profiling(true).build();
    sys.load(&prog).unwrap();
    sys.degrade(prog.entry, daisy::DegradeCause::Forced).expect("rung below packed");
    let stop = sys.run(50 * w.max_instrs).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    w.check(&sys.cpu, &sys.mem).expect("degraded run stays correct");

    assert!(sys.guest_profile().unwrap().dispatches() > 0);
    assert_conserves("degraded cmp", &sys);
}
