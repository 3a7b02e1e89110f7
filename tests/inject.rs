//! Fault-injection campaigns: every perturbation family, driven by
//! fixed seeds, must complete without panics, without unrecoverable
//! errors, and bit-exact against the pure-interpreter oracle — with the
//! degradation ladder visibly doing the absorbing. The full 32-seed CI
//! matrix lives in the `inject` bin (`scripts/ci.sh`); this suite keeps
//! a smaller always-on slice in `cargo test`.

use daisy::inject::{run_campaign, CampaignConfig, FaultKind};
use daisy::DegradeCause;
use daisy_ppc::PpcIsa;

/// Every fault kind on a real workload, a few seeds each: zero
/// divergence, and at least one ladder step recorded per kind, each one
/// the ladder driver's forced step.
#[test]
fn all_fault_kinds_bit_exact_with_degradations() {
    let w = daisy_workloads::by_name("c_sieve").expect("sieve workload");
    for kind in FaultKind::ALL {
        let mut injected = 0u64;
        for seed in 0..3u64 {
            let cfg = CampaignConfig::new(kind, seed);
            let out = run_campaign(&w, &cfg)
                .unwrap_or_else(|e| panic!("campaign must stay bit-exact: {e}"));
            assert!(
                out.degradations >= 1,
                "{kind} seed {seed}: ladder driver must record at least one step"
            );
            assert!(out.boundaries > 0, "{kind} seed {seed}: ran no groups");
            let pm = out.post_mortem.expect("a degraded campaign keeps its post-mortem");
            assert!(
                pm.chain.iter().all(|d| d.cause == DegradeCause::Forced),
                "{kind} seed {seed}: unforced ladder step in {:?}",
                pm.chain
            );
            injected += out.injections;
        }
        assert!(injected > 0, "{kind}: no perturbation was ever applied");
    }
}

/// Campaigns with chaining disabled exercise the pure-VMM dispatch
/// path's recovery surface.
#[test]
fn campaigns_pass_without_chaining() {
    let w = daisy_workloads::by_name("cmp").expect("cmp workload");
    for kind in [FaultKind::IllegalOp, FaultKind::CastOutThrash, FaultKind::ChainSever] {
        let cfg = CampaignConfig { chaining: false, ..CampaignConfig::new(kind, 5) };
        run_campaign(&w, &cfg).unwrap_or_else(|e| panic!("unchained campaign failed: {e}"));
    }
}

/// Campaign effects are observable in the stats they claim to perturb:
/// cast-out thrash casts out, hot patches invalidate, storms deliver.
#[test]
fn campaigns_perturb_what_they_claim() {
    let w = daisy_workloads::by_name("c_sieve").expect("sieve workload");

    let thrash = run_campaign(&w, &CampaignConfig::new(FaultKind::CastOutThrash, 1)).unwrap();
    assert!(thrash.vmm_stats.cast_outs > 0, "clamped cache must cast out");

    let patch = run_campaign(&w, &CampaignConfig::new(FaultKind::HotPatch, 1)).unwrap();
    assert!(patch.vmm_stats.invalidations > 0, "hot patches must invalidate");

    let storm = run_campaign(&w, &CampaignConfig::new(FaultKind::InterruptStorm, 1)).unwrap();
    assert!(storm.stats.exceptions > 0, "storm must deliver interrupts");

    let drop = run_campaign(&w, &CampaignConfig::new(FaultKind::TranslationDrop, 1)).unwrap();
    assert!(
        drop.vmm_stats.groups_translated > drop.boundaries.min(3),
        "dropped translations must be rebuilt"
    );
}

/// The `TraceEvent::Degraded` stream matches the recorded degradation
/// log: the observability layer sees every ladder step, with the
/// campaign's cause attached.
#[test]
fn degraded_events_reach_the_trace_stream() {
    use daisy::prelude::*;

    let w = daisy_workloads::by_name("wc").expect("wc workload");
    let prog = w.program();
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(w.mem_size)
        .flight_recorder_capacity(4096)
        .build();
    sys.load(&prog).unwrap();
    // Prime a translation, then walk the entry to the floor.
    sys.step().unwrap();
    let entry = prog.entry;
    let d1 = sys.degrade(entry, DegradeCause::Forced).expect("packed -> conservative");
    let d2 = sys.degrade(entry, DegradeCause::Forced).expect("conservative -> interpret");
    assert_eq!((d1.from, d1.to), (daisy::Rung::Packed, daisy::Rung::Conservative));
    assert_eq!((d2.from, d2.to), (daisy::Rung::Conservative, daisy::Rung::Interpret));
    sys.run(10 * w.max_instrs).unwrap();
    w.check(&sys.cpu, &sys.mem).expect("result exact after degradation");

    let degraded: Vec<TraceEvent> = sys
        .flight_recorder()
        .events()
        .into_iter()
        .map(|(_, e)| e)
        .filter(|e| matches!(e, TraceEvent::Degraded { .. }))
        .collect();
    assert_eq!(degraded.len(), sys.degradations().len(), "log and stream must agree");
    assert_eq!(
        degraded[0],
        TraceEvent::Degraded {
            entry,
            from: daisy::Rung::Packed,
            to: daisy::Rung::Conservative,
            cause: DegradeCause::Forced,
        }
    );
}
