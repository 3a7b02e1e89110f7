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

/// Workloads exercised here — kept to a handful so the profiled runs
/// (two per workload in the non-perturbation test) stay cheap in debug
/// builds.
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

/// Profiling does not change what it measures: under the paper's
/// finite cache hierarchy, the profiled engine (which records every
/// visited node for attribution) leaves the same architected state,
/// memory image and `RunStats` — stall cycles and cache misses
/// included — as the unprofiled engine.
#[test]
fn profiling_does_not_perturb_the_run() {
    for name in WORKLOADS {
        let w = workload(name);
        let plain = run(&w, Hierarchy::paper_default(), false);
        let profiled = run(&w, Hierarchy::paper_default(), true);
        assert!(plain.guest_profile.is_none() && profiled.guest_profile.is_some());

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
    }
}

/// Conservation: the per-PC issue-cycle shares sum to the run's
/// `vliws_executed` and the stall shares to `stall_cycles` — every
/// engine cycle lands on some guest PC, no cycle is invented.
#[test]
fn attributed_cycles_sum_to_run_totals() {
    for name in WORKLOADS {
        let w = workload(name);
        let sys = run_guest_profiled(&w);
        let gp = sys.guest_profile.as_ref().unwrap();

        let issue = gp.total_issue_cycles();
        let want_issue = sys.stats.vliws_executed as f64;
        assert!(
            (issue - want_issue).abs() < 1e-6 * want_issue.max(1.0),
            "{name}: issue cycles {issue} != vliws_executed {want_issue}"
        );

        let stalls = gp.total_stall_cycles();
        let want_stalls = sys.stats.stall_cycles as f64;
        assert!(
            (stalls - want_stalls).abs() < 1e-6 * want_stalls.max(1.0),
            "{name}: stall cycles {stalls} != stall_cycles {want_stalls}"
        );
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
        let gp = sys.guest_profile.as_ref().unwrap();

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
    let gp = sys.guest_profile.as_ref().unwrap();
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
    let gp = sys.guest_profile.as_ref().unwrap();
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
    let gp = sys.guest_profile.as_ref().unwrap();
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
/// exist, conserve cycles, and the timeline carries the degradation
/// instants.
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

    let gp = sys.guest_profile.as_ref().unwrap();
    assert!(gp.dispatches() > 0);
    let issue = gp.total_issue_cycles();
    let want = sys.stats.vliws_executed as f64;
    assert!((issue - want).abs() < 1e-6 * want.max(1.0), "degraded run must still conserve");
}
