//! Metrics snapshots and the always-on flight recorder, end to end:
//! snapshots must conserve the per-layer counters exactly on every
//! workload and every execution tier, and the flight recorder's
//! post-mortem must fire — with the full degradation chain — on a
//! system built with every default.

use daisy::inject::{run_campaign, CampaignConfig, FaultKind};
use daisy::metrics::Counter;
use daisy::prelude::*;
use daisy::DegradeCause;
use daisy_ppc::PpcIsa;
use daisy_workloads::Workload;

fn run_workload(w: &Workload, native: bool) -> DaisySystem<PpcIsa> {
    let mut sys =
        DaisySystem::<PpcIsa>::builder().mem_size(w.mem_size).native_execution(native).build();
    sys.load(&w.program()).expect("workload fits in memory");
    sys.run(50 * w.max_instrs).expect("workload completes");
    w.check(&sys.cpu, &sys.mem).unwrap_or_else(|e| panic!("{}: check failed: {e}", w.name));
    sys
}

/// Conservation: on all nine workloads, on the packed and native
/// tiers, the final snapshot agrees counter-for-counter with
/// the per-layer stats structs it is gathered from — dispatches,
/// retired instructions, cast-outs, and interrupts among them. A
/// mismatch means a metric row reads the wrong field.
#[test]
fn snapshot_conserves_stats_on_every_workload_and_tier() {
    for w in daisy_workloads::all() {
        for native in [false, true] {
            let tier = if native { "native" } else { "packed" };
            let sys = run_workload(&w, native);
            let snap = sys.metrics_snapshot();
            let ctx = format!("{} ({tier})", w.name);

            assert_eq!(snap.counter(Counter::VmmDispatches), sys.stats.groups_entered, "{ctx}");
            assert_eq!(
                snap.counter(Counter::ChainedDispatches),
                sys.stats.chain.chained_dispatches,
                "{ctx}"
            );
            assert_eq!(
                snap.counter(Counter::RetiredInstrs),
                sys.stats.approx_base_instrs(),
                "{ctx}"
            );
            assert!(snap.counter(Counter::RetiredInstrs) > 0, "{ctx}: no work retired");
            assert_eq!(snap.counter(Counter::Vliws), sys.stats.vliws_executed, "{ctx}");
            assert_eq!(snap.counter(Counter::InterpInstrs), sys.stats.interp_instrs, "{ctx}");
            assert_eq!(snap.counter(Counter::Loads), sys.stats.loads, "{ctx}");
            assert_eq!(snap.counter(Counter::Stores), sys.stats.stores, "{ctx}");
            assert_eq!(snap.counter(Counter::InterruptsTaken), sys.stats.interrupts_taken, "{ctx}");
            assert_eq!(snap.counter(Counter::CastOuts), sys.vmm.stats.cast_outs, "{ctx}");
            assert_eq!(
                snap.counter(Counter::GroupsTranslated),
                sys.vmm.stats.groups_translated,
                "{ctx}"
            );
            assert_eq!(
                snap.counter(Counter::CodeBytesEmitted),
                sys.vmm.stats.code_bytes_total,
                "{ctx}"
            );
            let native_stats = sys.native_stats();
            assert_eq!(
                snap.counter(Counter::NativeCompiles),
                native_stats.map_or(0, |n| n.compiles),
                "{ctx}"
            );
            assert_eq!(
                snap.counter(Counter::NativeVliws),
                native_stats.map_or(0, |n| n.vliws_native),
                "{ctx}"
            );
            // The suite finishes on the rung it started on: no
            // degradations, nothing interpreted for ladder reasons.
            assert_eq!(snap.degradations_by(DegradeCause::Forced), 0, "{ctx}");
            assert_eq!(
                snap.gauge(daisy::metrics::Gauge::DegradedEntries),
                sys.degradations().len() as u64,
                "{ctx}"
            );
            // Issue-width histogram: every sample is a retired VLIW
            // (exit paths retire a VLIW without a histogram sample,
            // so the count is a floor, not an identity).
            assert!(snap.issue_parcels.count > 0, "{ctx}: histogram empty");
            assert!(snap.issue_parcels.count <= sys.stats.vliws_executed, "{ctx}");
        }
    }
}

/// The flight recorder is on in a default-built system, and a ladder
/// degradation auto-captures a post-mortem whose ring contains the
/// degradation event itself.
#[test]
fn post_mortem_fires_on_degradation_in_a_default_build() {
    let w = daisy_workloads::by_name("wc").expect("wc workload");
    let prog = w.program();
    let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(w.mem_size).build();
    sys.load(&prog).unwrap();
    sys.step().unwrap();
    assert!(sys.flight_recorder().recorded() > 0, "the recorder is on by default");
    assert!(sys.post_mortem().is_none(), "nothing degraded yet");

    let d = sys.degrade(prog.entry, DegradeCause::Forced).expect("packed -> conservative");
    let pm = sys.post_mortem().expect("degradation auto-captures a post-mortem");
    assert!(pm.reason.contains("ladder degradation"), "reason names the trigger: {}", pm.reason);
    assert_eq!(pm.chain, vec![d], "chain carries the recorded degradation");
    assert!(
        pm.events.iter().any(|(_, ev)| matches!(
            ev,
            TraceEvent::Degraded { entry, .. } if *entry == prog.entry
        )),
        "the ring contains the degradation event itself"
    );
    let rendered = pm.to_string();
    assert!(rendered.contains("=== daisy post-mortem"), "dump is structured: {rendered}");

    // The run continues and completes correctly after the capture.
    sys.run(10 * w.max_instrs).unwrap();
    w.check(&sys.cpu, &sys.mem).expect("result exact after degradation");
    let pm = sys.take_post_mortem().expect("still available");
    assert!(sys.post_mortem().is_none(), "take drains the slot");
    assert_eq!(pm.chain.len(), 1);
}

/// A cast-out-thrash campaign that walks one entry all the way down
/// must surface the *complete* degradation chain
/// (Packed → Conservative → Interpret, in order) in the
/// outcome's post-mortem, with the snapshot's per-cause tallies
/// agreeing with the chain.
#[test]
fn cast_out_thrash_post_mortem_carries_the_full_chain() {
    let w = daisy_workloads::by_name("c_sieve").expect("sieve workload");
    let want = [Rung::Packed, Rung::Conservative, Rung::Interpret];

    let mut found_full_walk = false;
    for seed in 0..16u64 {
        let cfg = CampaignConfig {
            max_degrades: 12,
            ..CampaignConfig::new(FaultKind::CastOutThrash, seed)
        };
        let out = run_campaign::<PpcIsa>(&w, &cfg)
            .unwrap_or_else(|e| panic!("campaign must stay bit-exact: {e}"));
        let pm = out.post_mortem.expect("forced ladder steps capture a post-mortem");
        assert!(!pm.chain.is_empty(), "seed {seed}: chain must not be empty");
        assert!(!pm.events.is_empty(), "seed {seed}: ring must not be empty");

        // Per-cause conservation between the chain and the snapshot
        // taken at capture time.
        for cause in DegradeCause::ALL {
            let in_chain = pm.chain.iter().filter(|d| d.cause == cause).count() as u64;
            assert_eq!(
                pm.snapshot.degradations_by(cause),
                in_chain,
                "seed {seed}: snapshot tally for {cause} disagrees with the chain"
            );
        }

        // Did some entry walk the whole ladder? (The driver degrades
        // at the then-current PC, so the walk can be split across
        // entries on some seeds — scan until one seed keeps it whole.)
        for entry in pm.chain.iter().map(|d| d.entry) {
            let walk: Vec<(Rung, Rung)> = pm
                .chain
                .iter()
                .filter(|d| d.entry == entry && d.from != d.to)
                .map(|d| (d.from, d.to))
                .collect();
            if walk == [(want[0], want[1]), (want[1], want[2])] {
                found_full_walk = true;
            }
        }
        if found_full_walk {
            break;
        }
    }
    assert!(found_full_walk, "no seed in 0..16 produced a complete Packed→Interpret walk");
}
