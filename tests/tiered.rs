//! Tiered retranslation must never change semantics: with an
//! aggressively low hot threshold (so every workload takes many hot
//! promotions mid-run), final architected state must still match the
//! reference interpreter bit for bit on all nine workloads — and with
//! the native tier on, the ladder cold → retranslated hot → native must
//! be observably the tiered packed engine. The one dispatch counter per
//! translation behind both thresholds is pinned exactly on a self-loop.

use daisy::prelude::*;
use daisy::trace::Tier;
use daisy_ppc::asm::Program;
use daisy_ppc::interp::{Cpu, StopReason};
use daisy_ppc::mem::Memory;
use daisy_ppc::PpcIsa;
use daisy_ppc::{Asm, Gpr};
use daisy_workloads::Workload;

mod common;
use common::{assert_indistinguishable, assert_same, strip_native_events, trace_events};

/// Runs `w` to completion under `tiered(TierPolicy::with_threshold(8))`
/// on the native or packed tier, returning the system and its full
/// (unstripped) trace.
fn run_tiered(w: &Workload, native: bool) -> (DaisySystem<PpcIsa>, Vec<TraceEvent>) {
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(w.mem_size)
        .tiered(TierPolicy::with_threshold(8))
        .native_execution(native)
        .flight_recorder_capacity(1 << 21)
        .build();
    sys.load(&w.program()).unwrap();
    let stop = sys.run(10 * w.max_instrs).unwrap();
    assert_eq!(stop, StopReason::Syscall, "{}: tiered run did not finish", w.name);
    assert_eq!(
        sys.flight_recorder().dropped(),
        0,
        "{}: trace ring overflowed; grow the cap",
        w.name
    );
    let events = trace_events(&sys);
    (sys, events)
}

#[test]
fn tiered_retranslation_is_bit_exact_on_all_workloads() {
    let mut promoted_anywhere = false;
    for w in daisy_workloads::all() {
        let prog = w.program();
        let mut ref_mem = Memory::new(w.mem_size);
        prog.load_into(&mut ref_mem).unwrap();
        let mut ref_cpu = Cpu::new(prog.entry);
        assert_eq!(ref_cpu.run(&mut ref_mem, w.max_instrs).unwrap(), StopReason::Syscall);

        let (sys, events) = run_tiered(&w, false);
        assert_same(&sys, &ref_cpu, &ref_mem, w.name);
        w.check(&sys.cpu, &sys.mem)
            .unwrap_or_else(|e| panic!("{}: checker failed under tiering: {e}", w.name));

        // Every promotion is announced and follows exactly the eighth
        // dispatch of a cold translation; every hot translation is of a
        // promoted entry.
        let mut promoted = Vec::new();
        for e in &events {
            match *e {
                TraceEvent::HotPromotion { entry, dispatches } => {
                    assert_eq!(dispatches, 8, "{}: promoted off-threshold", w.name);
                    promoted.push(entry);
                }
                TraceEvent::Translate { entry, tier: Tier::Hot, .. } => {
                    assert!(promoted.contains(&entry), "{}: hot {entry:#x} unpromoted", w.name);
                }
                _ => {}
            }
        }
        let promotions = sys.vmm.stats.hot_promotions;
        assert_eq!(promoted.len() as u64, promotions, "{}: promotions unannounced", w.name);
        assert!(sys.stats.total_dispatches() >= 8 * promotions, "{}: dispatches lost", w.name);
        promoted_anywhere |= promotions > 0;
    }
    assert!(promoted_anywhere, "threshold 8 must promote at least one group somewhere");
}

/// The nine workloads under tiering run identically on the native and
/// packed tiers: only hot retranslations are compiled, so every cold
/// dispatch still passes the dispatcher and promotions land on the
/// same boundaries — while hot native code chains natively.
#[test]
fn tiered_native_is_observably_tiered_packed() {
    let mut patched_anywhere = false;
    for w in daisy_workloads::all() {
        let (psys, pev) = run_tiered(&w, false);
        let (nsys, nev) = run_tiered(&w, true);
        for (i, e) in nev.iter().enumerate() {
            let TraceEvent::NativeCompile { entry, .. } = *e else { continue };
            let tier = nev[..i].iter().rev().find_map(|t| match *t {
                TraceEvent::Translate { entry: te, tier, .. } if te == entry => Some(tier),
                _ => None,
            });
            assert_eq!(tier, Some(Tier::Hot), "{}: compiled {entry:#x} was not hot", w.name);
        }
        patched_anywhere |= nsys.native_stats().is_some_and(|ns| ns.edge_patches > 0);
        assert_indistinguishable(
            &(psys, strip_native_events(pev)),
            &(nsys, strip_native_events(nev)),
            &format!("{} tiered", w.name),
        );
    }
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert!(patched_anywhere, "tiered native runs must patch chain edges somewhere");
    }
}

/// `r3 += 3` for `trips` iterations of a one-group self-loop; returns
/// the program and the loop head.
fn self_loop(trips: i16) -> (Program, u32) {
    let mut a = Asm::new(0x1000);
    a.li(Gpr(3), 0);
    a.li(Gpr(4), trips);
    a.mtctr(Gpr(4));
    a.label("loop");
    a.addi(Gpr(3), Gpr(3), 3);
    a.bdnz("loop");
    a.sc();
    let prog = a.finish().unwrap();
    let head = prog.labels["loop"];
    (prog, head)
}

#[test]
fn hot_promotion_retranslates_wider() {
    // A tight self-loop crosses the threshold and must be rebuilt hot.
    let (prog, head) = self_loop(200);
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(0x20000)
        .tiered(TierPolicy::with_threshold(4))
        .flight_recorder_capacity(4096)
        .build();
    sys.load(&prog).unwrap();
    let stop = sys.run(1_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    assert_eq!(sys.cpu.gpr[3], 600);
    assert!(sys.vmm.stats.hot_promotions >= 1, "hot loop must be promoted");
    assert!(
        trace_events(&sys).iter().any(
            |e| matches!(e, TraceEvent::Translate { entry, tier: Tier::Hot, .. } if *entry == head)
        ),
        "the loop head must be retranslated at the hot tier"
    );
}

/// Pins the one counter exactly. With hot threshold `h`, promotion
/// follows the `h`-th cold dispatch and the event carries that count.
/// With native threshold `t`, exactly `t - 1` packed dispatches of a
/// translation come before its first native one — under a tier policy
/// the count restarts on the hot retranslation, so the loop head runs
/// `h` cold plus `t - 1` hot dispatches on the packed engine first.
#[test]
fn dispatch_counter_thresholds_are_exact() {
    // Steps a self-loop until a dispatch of its head raises `probe`;
    // returns that dispatch's ordinal among the head's dispatches.
    let dispatches_until = |b: DaisySystemBuilder<PpcIsa>,
                            probe: fn(&DaisySystem<PpcIsa>) -> u64| {
        let (prog, head) = self_loop(200);
        let mut sys = b.flight_recorder_capacity(4096).build();
        sys.load(&prog).unwrap();
        let mut n = 0;
        loop {
            let (at_head, before) = (sys.cpu.pc() == head, probe(&sys));
            let stop = sys.step().unwrap();
            n += u64::from(at_head);
            if at_head && probe(&sys) > before {
                return (n, head, trace_events(&sys));
            }
            assert!(stop.is_none(), "the run ended before the probe moved");
        }
    };
    for h in [1u64, 4, 9] {
        let b = DaisySystem::builder().tiered(TierPolicy::with_threshold(h));
        let (n, head, events) = dispatches_until(b, |s| s.vmm.stats.hot_promotions);
        assert_eq!(n, h, "hot threshold {h}: promoted after dispatch {n}");
        assert!(events.contains(&TraceEvent::HotPromotion { entry: head, dispatches: h }));
    }
    if !cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        return;
    }
    for (hot, t) in [(None, 1u64), (None, 2), (None, 8), (Some(5u64), 3), (Some(1), 1)] {
        let mut b = DaisySystem::builder().native_execution(true).native_threshold(t);
        if let Some(h) = hot {
            b = b.tiered(TierPolicy::with_threshold(h));
        }
        let (n, ..) = dispatches_until(b, |s| s.native_stats().unwrap().dispatches);
        assert_eq!(n - 1, hot.unwrap_or(0) + t - 1, "hot={hot:?} t={t}: packed dispatches");
    }
}
