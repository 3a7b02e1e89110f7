//! The graceful-degradation ladder under pressure: a translation cache
//! clamped to a page or two of code, the full Packed → Conservative →
//! Interpret walk, and interpret-ahead budget
//! exhaustion. Every configuration must stay bit-exact against the
//! pure-interpreter reference.

use daisy::prelude::*;
use daisy::DegradeCause;
use daisy_ppc::interp::{Cpu, StopReason};
use daisy_ppc::mem::Memory;
use daisy_ppc::PpcIsa;
use daisy_ppc::{Asm, Gpr};
use daisy_workloads::Workload;

fn run_reference(w: &Workload) -> (Cpu, Memory) {
    let prog = w.program();
    let mut mem = Memory::new(w.mem_size);
    prog.load_into(&mut mem).unwrap();
    let mut cpu = Cpu::new(prog.entry);
    let stop = cpu.run(&mut mem, w.max_instrs).unwrap();
    assert_eq!(stop, StopReason::Syscall, "{}: reference run did not finish", w.name);
    (cpu, mem)
}

fn assert_state_matches(w: &Workload, sys: &DaisySystem<PpcIsa>, ref_cpu: &Cpu, ref_mem: &Memory) {
    assert_eq!(sys.cpu.gpr, ref_cpu.gpr, "{}: GPR state diverged", w.name);
    assert_eq!(sys.cpu.cr, ref_cpu.cr, "{}: CR diverged", w.name);
    assert_eq!(sys.cpu.lr, ref_cpu.lr, "{}: LR diverged", w.name);
    assert_eq!(sys.cpu.ctr, ref_cpu.ctr, "{}: CTR diverged", w.name);
    assert_eq!(sys.cpu.xer, ref_cpu.xer, "{}: XER diverged", w.name);
    assert_eq!(sys.cpu.pc, ref_cpu.pc, "{}: PC diverged", w.name);
    let size = ref_mem.size();
    assert_eq!(
        sys.mem.read_bytes(0, size).unwrap(),
        ref_mem.read_bytes(0, size).unwrap(),
        "{}: memory image diverged",
        w.name
    );
}

/// Satellite: all nine workloads with the translation cache clamped to
/// roughly two small pages of translated code. Continuous cast-out is
/// the normal operating mode here, and semantics must not budge.
#[test]
fn clamped_cache_is_bit_exact_on_all_workloads() {
    let mut cast_outs_total = 0u64;
    for w in daisy_workloads::all() {
        let (ref_cpu, ref_mem) = run_reference(&w);

        let prog = w.program();
        let mut sys = DaisySystem::<PpcIsa>::builder()
            .mem_size(w.mem_size)
            .translator(TranslatorConfig { page_size: 256, ..TranslatorConfig::default() })
            .code_capacity(512)
            .build();
        sys.load(&prog).unwrap();
        let stop = sys.run(50 * w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall, "{}: clamped run did not finish", w.name);

        assert_state_matches(&w, &sys, &ref_cpu, &ref_mem);
        w.check(&sys.cpu, &sys.mem)
            .unwrap_or_else(|e| panic!("{}: checker failed under clamp: {e}", w.name));
        cast_outs_total += sys.vmm.stats.cast_outs;
    }
    // Workloads whose text spans several translation pages must have
    // thrashed; single-page workloads structurally cannot cast out.
    assert!(cast_outs_total > 0, "the clamp must force cast-outs somewhere");
}

/// The full ladder walk on every workload: force Packed → Conservative
/// → Interpret at the entry point, run to completion, and
/// demand bit-exactness. The floor rung refuses to step further.
#[test]
fn full_ladder_walk_is_bit_exact() {
    for w in daisy_workloads::all() {
        let (ref_cpu, ref_mem) = run_reference(&w);

        let prog = w.program();
        let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(w.mem_size).build();
        sys.load(&prog).unwrap();
        let entry = prog.entry;
        for expect_to in [daisy::Rung::Conservative, daisy::Rung::Interpret] {
            let d = sys.degrade(entry, DegradeCause::Forced).expect("ladder has a rung left");
            assert_eq!(d.to, expect_to, "{}: ladder out of order", w.name);
        }
        assert_eq!(sys.rung(entry), daisy::Rung::Interpret, "{}: floor not reached", w.name);
        assert!(
            sys.degrade(entry, DegradeCause::Forced).is_none(),
            "{}: interpretation is the floor",
            w.name
        );

        let stop = sys.run(50 * w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall, "{}: degraded run did not finish", w.name);
        assert_state_matches(&w, &sys, &ref_cpu, &ref_mem);
        w.check(&sys.cpu, &sys.mem)
            .unwrap_or_else(|e| panic!("{}: checker failed on the floor: {e}", w.name));
        assert_eq!(sys.degradations().len(), 2, "{}: exactly two steps recorded", w.name);
    }
}

/// Satellite: interpret-ahead budget exhaustion surfaces as a typed
/// `HintBudget` degradation (and a `Degraded` trace event), never as a
/// silent hint truncation. A straight-line run longer than
/// `window_size * 8` instructions guarantees the budget trips.
#[test]
fn hint_budget_exhaustion_is_surfaced() {
    let mut a = Asm::new(0x1000);
    a.li(Gpr(3), 0);
    for _ in 0..100 {
        a.addi(Gpr(3), Gpr(3), 1);
    }
    a.sc();
    let prog = a.finish().unwrap();

    let sink = RingSink::new(1024);
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(0x20000)
        .translator(TranslatorConfig {
            interpretive: true,
            window_size: 8,
            ..TranslatorConfig::default()
        })
        .trace_sink(sink.clone())
        .build();
    sys.load(&prog).unwrap();
    let stop = sys.run(1_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    assert_eq!(sys.cpu.gpr[3], 100);

    assert!(sys.vmm.stats.hint_budget_exhausted > 0, "budget must have tripped");
    assert!(
        sys.degradations().iter().any(|d| d.cause == DegradeCause::HintBudget),
        "exhaustion must be recorded as a typed degradation"
    );
    assert!(
        sink.events()
            .iter()
            .any(|e| matches!(e, TraceEvent::Degraded { cause: DegradeCause::HintBudget, .. })),
        "exhaustion must reach the trace stream"
    );
}

/// Guest-level attribution must survive the degradation ladder: with
/// profiling on, the walk down to the last translated rung (Packed →
/// Conservative) still records the forced step as a `"degrade"`
/// instant on the timeline, and the conservation invariant (attributed
/// issue and stall cycles equal the run totals) holds across the tier
/// change.
#[test]
fn guest_profile_survives_ladder_walk() {
    let w = daisy_workloads::by_name("cmp").expect("known workload");
    let prog = w.program();
    let mut sys =
        DaisySystem::<PpcIsa>::builder().mem_size(w.mem_size).guest_profiling(true).build();
    sys.load(&prog).unwrap();
    let entry = prog.entry;
    // One rung down: Conservative still dispatches translated groups,
    // so attribution keeps flowing after the tier change.
    let d = sys.degrade(entry, DegradeCause::Forced).expect("ladder has a rung left");
    assert_eq!(d.to, daisy::Rung::Conservative);
    let stop = sys.run(50 * w.max_instrs).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    w.check(&sys.cpu, &sys.mem).expect("checker passes under profiling + degradation");

    let gp = sys.guest_profile.as_ref().expect("profiling was enabled");
    let degrade_instants = gp
        .timeline()
        .iter()
        .filter(|e| matches!(e, TimelineEvent::Instant { label: "degrade", .. }))
        .count();
    assert_eq!(degrade_instants, 1, "the forced step must appear on the timeline");

    let issue = gp.total_issue_cycles();
    let stalls = gp.total_stall_cycles();
    let tol = |x: f64| 1e-6 * x.max(1.0);
    assert!(
        (issue - sys.stats.vliws_executed as f64).abs() <= tol(issue),
        "attributed issue cycles {} must match vliws_executed {}",
        issue,
        sys.stats.vliws_executed
    );
    assert!(
        (stalls - sys.stats.stall_cycles as f64).abs() <= tol(stalls),
        "attributed stall cycles {} must match stall_cycles {}",
        stalls,
        sys.stats.stall_cycles
    );
    assert!(gp.dispatches() > 0, "degraded tiers still dispatch translated groups");
}

/// Cast-outs forced by a clamped translation cache must surface as
/// `"cast_out"` instants on the profiled timeline, so a trace viewer
/// shows exactly when the cache thrashed. Every workload must show one
/// instant per recorded cast-out (including zero for single-page
/// programs that structurally cannot thrash), and the clamp must force
/// thrash somewhere in the suite.
#[test]
fn guest_profile_records_cast_outs_under_clamp() {
    let mut cast_outs_total = 0u64;
    for w in daisy_workloads::all() {
        let (ref_cpu, ref_mem) = run_reference(&w);

        let prog = w.program();
        let mut sys = DaisySystem::<PpcIsa>::builder()
            .mem_size(w.mem_size)
            .translator(TranslatorConfig { page_size: 256, ..TranslatorConfig::default() })
            .code_capacity(512)
            .guest_profiling(true)
            .build();
        sys.load(&prog).unwrap();
        let stop = sys.run(50 * w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall, "{}: profiled clamped run did not finish", w.name);
        assert_state_matches(&w, &sys, &ref_cpu, &ref_mem);

        let gp = sys.guest_profile.as_ref().expect("profiling was enabled");
        let cast_out_instants = gp
            .timeline()
            .iter()
            .filter(|e| matches!(e, TimelineEvent::Instant { label: "cast_out", .. }))
            .count() as u64;
        assert_eq!(
            cast_out_instants, sys.vmm.stats.cast_outs,
            "{}: every cast-out must appear as a timeline instant",
            w.name
        );
        cast_outs_total += sys.vmm.stats.cast_outs;
    }
    assert!(cast_outs_total > 0, "the clamp must force cast-outs somewhere");
}

/// A short program comfortably inside the budget must NOT trip it:
/// exhaustion means "ran dry before a natural stopping point", not
/// "gathered hints at all".
#[test]
fn hint_budget_not_exhausted_on_short_code() {
    let mut a = Asm::new(0x1000);
    a.li(Gpr(3), 21);
    a.add(Gpr(3), Gpr(3), Gpr(3));
    a.sc();
    let prog = a.finish().unwrap();

    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(0x20000)
        .translator(TranslatorConfig { interpretive: true, ..TranslatorConfig::default() })
        .build();
    sys.load(&prog).unwrap();
    sys.run(1_000_000).unwrap();
    assert_eq!(sys.cpu.gpr[3], 42);
    assert_eq!(sys.vmm.stats.hint_budget_exhausted, 0, "short code fits the budget");
    assert!(sys.degradations().is_empty());
}
