//! Randomized architectural-compatibility testing: arbitrary (safe)
//! PowerPC programs must leave *identical* architected state whether
//! run by the reference interpreter or by DAISY's translate-and-execute
//! pipeline, for every machine configuration and page size.
//!
//! This is the paper's central claim — "gives the same results that
//! plain interpretation would" — exercised over thousands of program
//! shapes: dependence chains, carry chains, record forms, compares and
//! forward branches, loads/stores (aliased and not), CTR loops, and
//! calls/returns. The same generator also drives fault-injection
//! campaigns, which diff against the oracle themselves.

mod common;

use common::{
    assemble, assert_same, fault, run_daisy, run_daisy_to_stop, run_oracle, run_oracle_to_stop,
    step, Step, BAD_ADDR, MEM_SIZE,
};
use daisy::inject::{run_campaign_on_program, CampaignConfig, FaultKind};
use daisy::sched::TranslatorConfig;
use daisy::system::DaisySystem;
use daisy::DegradeCause;
use daisy_cachesim::Hierarchy;
use daisy_ppc::interp::{Cpu, StopReason};
use daisy_ppc::mem::Memory;
use daisy_ppc::PpcIsa;
use daisy_vliw::machine::MachineConfig;
use proptest::prelude::*;

/// Runs one generated program on the interpreter and on DAISY (under
/// `cache`), returning the interpreter's final registers and memory
/// plus the system.
fn run_both(
    steps: &[Step],
    seeds: &[u32],
    cfg: TranslatorConfig,
    cache: Hierarchy,
) -> (Cpu, Memory, DaisySystem<PpcIsa>) {
    let prog = assemble(steps);

    // Structural invariants of the translation itself.
    {
        let mut mem = Memory::new(MEM_SIZE);
        prog.load_into(&mut mem).unwrap();
        let (group, _) = daisy::sched::translate_group::<PpcIsa>(&cfg, &mem, prog.entry);
        group.validate().expect("translated group is structurally valid");
    }

    let (cpu, mem) = run_oracle(&prog, seeds);
    let sys = run_daisy(&prog, seeds, DaisySystem::builder().translator(cfg).cache(cache));
    (cpu, mem, sys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Default machine: random programs, random initial state.
    #[test]
    fn daisy_matches_interpreter(
        steps in prop::collection::vec(step(), 1..40),
        seeds in prop::collection::vec(any::<u32>(), 12),
    ) {
        let (cpu, mem, sys) = run_both(&steps, &seeds, TranslatorConfig::default(), Hierarchy::infinite());
        assert_same(&sys, &cpu, &mem, "default config");
    }

    /// The smallest paper machine, a tiny page size and the paper's
    /// finite cache hierarchy stress resource limits, VLIW splitting,
    /// cross-page dispatch, and the engine's per-access cache probes.
    #[test]
    fn daisy_matches_interpreter_on_small_machine(
        steps in prop::collection::vec(step(), 1..24),
        seeds in prop::collection::vec(any::<u32>(), 12),
    ) {
        let cfg = TranslatorConfig {
            machine: MachineConfig::paper_configs()[0].clone(),
            page_size: 256,
            ..TranslatorConfig::default()
        };
        let (cpu, mem, sys) = run_both(&steps, &seeds, cfg, Hierarchy::paper_default());
        assert_same(&sys, &cpu, &mem, "4-issue machine, 256-byte pages, finite cache");
    }

    /// Interpretive compilation (Ch. 6) — observed-path scheduling and
    /// indirect-branch specialization — must stay architecturally exact.
    #[test]
    fn interpretive_mode_stays_exact(
        steps in prop::collection::vec(step(), 1..32),
        seeds in prop::collection::vec(any::<u32>(), 12),
    ) {
        let cfg = TranslatorConfig { interpretive: true, ..TranslatorConfig::default() };
        let (cpu, mem, sys) = run_both(&steps, &seeds, cfg, Hierarchy::infinite());
        assert_same(&sys, &cpu, &mem, "interpretive");
    }

    /// Renaming and load speculation disabled (the ablation modes) must
    /// still be architecturally exact.
    #[test]
    fn ablation_modes_stay_exact(
        steps in prop::collection::vec(step(), 1..24),
        seeds in prop::collection::vec(any::<u32>(), 12),
        rename in any::<bool>(),
    ) {
        let cfg = TranslatorConfig {
            rename,
            speculate_loads: !rename,
            ..TranslatorConfig::default()
        };
        let (cpu, mem, sys) = run_both(&steps, &seeds, cfg, Hierarchy::infinite());
        assert_same(&sys, &cpu, &mem, "ablation");
    }

    /// Fault-injection campaigns on random programs: each campaign runs
    /// the perturbed system to completion and diffs registers and all
    /// of memory against the interpreter oracle.
    #[test]
    fn packed_engine_survives_injection(
        steps in prop::collection::vec(step(), 1..20),
        seed in 0u64..1024,
    ) {
        let prog = assemble(&steps);
        for kind in [FaultKind::IllegalOp, FaultKind::InterruptStorm, FaultKind::ChainSever] {
            run_campaign_on_program::<PpcIsa>(&prog, MEM_SIZE, 1_000_000, &CampaignConfig::new(kind, seed))
                .unwrap_or_else(|e| panic!("injection broke the packed engine: {e}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Guest faults are precise on every tier (§3.5): a program that
    /// loads from a bad pointer, stores to one or fires a trap stops
    /// where the interpreter stops, with the interpreter's state. The
    /// fault sits behind a branch that falls through, so its access
    /// can be hoisted and its poison taken at the commit. The native
    /// half compiles every group on its first dispatch, so it reaches
    /// the fault through a bail and a packed resume. A recovery
    /// cross-check that failed would be absorbed by the degradation
    /// ladder, so no `RecoveryMismatch` step may appear either.
    #[test]
    fn guest_faults_stop_precisely_on_every_tier(
        before in prop::collection::vec(step(), 0..16),
        fault in fault(),
        after in prop::collection::vec(step(), 0..16),
        seeds in prop::collection::vec(any::<u32>(), 12),
    ) {
        let expected = match fault {
            Step::Fault { kind: 0, .. } => StopReason::StorageFault { addr: BAD_ADDR, write: false, fetch: false },
            Step::Fault { kind: 1, .. } => StopReason::StorageFault { addr: BAD_ADDR, write: true, fetch: false },
            _ => StopReason::Trap,
        };
        let steps: Vec<Step> = before.into_iter().chain([fault]).chain(after).collect();
        let prog = assemble(&steps);
        let (cpu, mem, stop) = run_oracle_to_stop(&prog, &seeds);
        assert_eq!(stop, expected, "interpreter stop");
        for native in [false, true] {
            let builder = DaisySystem::builder().native_execution(native).native_threshold(1);
            let (sys, daisy_stop) = run_daisy_to_stop(&prog, &seeds, builder);
            let tier = if native { "native" } else { "packed" };
            assert_eq!(daisy_stop, stop, "{tier}: stop reason");
            assert_same(&sys, &cpu, &mem, tier);
            assert_eq!(sys.stats.exceptions, 1, "{tier}: the fault left translated code");
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            if native {
                let bails = sys.native_stats().map_or(0, |n| n.bails);
                assert!(bails > 0, "native: the fault was reached without a bail");
            }
            assert!(
                sys.degradations().iter().all(|d| d.cause != DegradeCause::RecoveryMismatch),
                "{tier}: recovery fell back: {:?}",
                sys.degradations()
            );
        }
    }
}

/// Regression: must-alias store-to-load forwarding matched on rename
/// register *names*, so a later out-of-order address computation that
/// reused the store's rename register made an unrelated load "must
/// alias" the store and forward a stale value. Minimized from a
/// generated program on the 4-issue machine with 256-byte pages.
#[test]
fn regression_forwarding_must_not_match_reused_rename_regs() {
    let steps = vec![
        Step::LoadIdx { rt: 2, ridx: 0 },
        Step::StoreIdx { rs: 10, ridx: 3 },
        Step::Alu { op: 1, rt: 1, ra: 10, rb: 4, rc: false },
        Step::LoadIdx { rt: 6, ridx: 5 },
        Step::LoadIdx { rt: 5, ridx: 10 },
    ];
    let seeds: Vec<u32> = vec![
        876982966, 3232715410, 1162039537, 114046226, 3492058626, 3919515819, 2759707427,
        4098963321, 2925207062, 939715675, 269612705, 1212412170,
    ];
    let cfg = TranslatorConfig {
        machine: MachineConfig::paper_configs()[0].clone(),
        page_size: 256,
        ..TranslatorConfig::default()
    };
    let (cpu, mem, sys) = run_both(&steps, &seeds, cfg, Hierarchy::infinite());
    assert_same(&sys, &cpu, &mem, "reused rename register in store record");
}

/// A deterministic regression corpus for the same generator (fast path
/// in CI; proptest explores beyond it).
#[test]
fn equivalence_smoke_memory_width_mix() {
    let steps = vec![
        Step::Store { width: 2, rs: 1, slot: 0 },
        Step::Load { width: 0, rt: 2, slot: 0 },
        Step::Store { width: 0, rs: 2, slot: 1 },
        Step::Load { width: 2, rt: 3, slot: 0 },
        Step::Carry { op: 0, rt: 4, ra: 2, rb: 3 },
        Step::Carry { op: 1, rt: 5, ra: 4, rb: 4 },
        Step::Cmp { bf: 0, signed: true, ra: 5, rb: 4 },
        Step::SkipIf { bf: 0, bit: 0, want: true, skip: 3 },
        Step::CtrLoop { count: 4, body_rt: 6 },
    ];
    let seeds: Vec<u32> = (0..12).map(|i| 0xABCD_0123u32.wrapping_mul(i + 1)).collect();
    let (cpu, mem, sys) =
        run_both(&steps, &seeds, TranslatorConfig::default(), Hierarchy::infinite());
    assert_same(&sys, &cpu, &mem, "smoke");
}
