//! The graceful-degradation ladder under pressure: a translation cache
//! clamped to a page or two of code, the full Packed → Conservative →
//! Interpret walk, and interpret-ahead budget
//! exhaustion. Every configuration must stay bit-exact against the
//! pure-interpreter reference.

mod common;

use common::{assert_same, run_workload_oracle};
use daisy::prelude::*;
use daisy::DegradeCause;
use daisy_ppc::interp::StopReason;
use daisy_ppc::PpcIsa;
use daisy_ppc::{Asm, Gpr};

/// Satellite: all nine workloads with the translation cache clamped to
/// roughly two small pages of translated code. Continuous cast-out is
/// the normal operating mode here, and semantics must not budge.
#[test]
fn clamped_cache_is_bit_exact_on_all_workloads() {
    let mut cast_outs_total = 0u64;
    for w in daisy_workloads::all() {
        let (ref_cpu, ref_mem) = run_workload_oracle(&w);

        let prog = w.program();
        let mut sys = DaisySystem::<PpcIsa>::builder()
            .mem_size(w.mem_size)
            .translator(TranslatorConfig { page_size: 256, ..TranslatorConfig::default() })
            .code_capacity(512)
            .build();
        sys.load(&prog).unwrap();
        let stop = sys.run(50 * w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall, "{}: clamped run did not finish", w.name);

        assert_same(&sys, &ref_cpu, &ref_mem, w.name);
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
        let (ref_cpu, ref_mem) = run_workload_oracle(&w);

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
        assert_same(&sys, &ref_cpu, &ref_mem, w.name);
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

    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(0x20000)
        .translator(TranslatorConfig {
            interpretive: true,
            window_size: 8,
            ..TranslatorConfig::default()
        })
        .flight_recorder_capacity(1024)
        .build();
    sys.load(&prog).unwrap();
    let stop = sys.run(1_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    assert_eq!(sys.cpu.gpr[3], 100);

    assert!(
        sys.metrics_snapshot().degradations_by(DegradeCause::HintBudget) > 0,
        "budget must have tripped"
    );
    assert!(
        sys.degradations().iter().any(|d| d.cause == DegradeCause::HintBudget),
        "exhaustion must be recorded as a typed degradation"
    );
    assert!(
        sys.flight_recorder().events().iter().any(|(_, e)| matches!(
            e,
            TraceEvent::Degraded { cause: DegradeCause::HintBudget, .. }
        )),
        "exhaustion must reach the trace stream"
    );
}

/// Guest-level attribution must survive the degradation ladder: with
/// profiling on, one forced step down from the top rung (Packed →
/// Conservative, or Native → Packed with the native tier engaged) is
/// recorded as a `"degrade"` instant on the timeline, the degraded run
/// stays correct, and the conservation invariant (attributed issue and
/// stall cycles equal the run totals) holds across the tier change.
#[test]
fn guest_profile_survives_ladder_walk() {
    let w = daisy_workloads::by_name("cmp").expect("known workload");
    let prog = w.program();
    for native in [false, true] {
        let mut sys = DaisySystem::<PpcIsa>::builder()
            .mem_size(w.mem_size)
            .guest_profiling(true)
            .native_execution(native)
            .build();
        sys.load(&prog).unwrap();
        // One rung down: the entry still dispatches translated groups,
        // so attribution keeps flowing after the tier change.
        let d = sys.degrade(prog.entry, DegradeCause::Forced).expect("ladder has a rung left");
        assert_eq!(Some(d.to), d.from.next_down(), "native={native}: one rung down");
        if native && cfg!(all(target_arch = "x86_64", target_os = "linux")) {
            assert_eq!(d.from, daisy::Rung::Native, "the native tier is the top rung");
        }
        let stop = sys.run(50 * w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall);
        w.check(&sys.cpu, &sys.mem).expect("checker passes under profiling + degradation");

        let gp = sys.guest_profile().expect("profiling was enabled");
        let degrade_instants = gp
            .timeline()
            .iter()
            .filter(|e| matches!(e, TimelineEvent::Instant { label: "degrade", .. }))
            .count();
        assert_eq!(degrade_instants, 1, "native={native}: the forced step must be on the timeline");

        for (what, got, want) in [
            ("issue", gp.total_issue_cycles(), sys.stats.vliws_executed),
            ("stall", gp.total_stall_cycles(), sys.stats.stall_cycles),
        ] {
            let ok = (got - want as f64).abs() <= 1e-6 * got.max(1.0);
            assert!(ok, "native={native}: attributed {what} cycles {got} != run total {want}");
        }
        assert!(gp.dispatches() > 0, "native={native}: degraded tiers still dispatch groups");
    }
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
        let (ref_cpu, ref_mem) = run_workload_oracle(&w);

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
        assert_same(&sys, &ref_cpu, &ref_mem, w.name);

        let gp = sys.guest_profile().expect("profiling was enabled");
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
    assert_eq!(
        sys.metrics_snapshot().degradations_by(DegradeCause::HintBudget),
        0,
        "short code fits the budget"
    );
    assert!(sys.degradations().is_empty());
}
