//! The native tier's two in-arena control-flow shortcuts — the inline
//! indirect-branch target cache (IBTC) and rerolled single-group loop
//! back edges — must never be *observable*: they only remove
//! dispatcher boundaries that nothing is watching. This suite stresses
//! exactly the situations where that promise is easiest to break:
//! aligned computed-dispatch tables (the access pattern that defeats
//! bit-sliced way selection), injection campaigns that invalidate and
//! sever translations on an indirect-branch-heavy workload, and a
//! rerolled loop spinning inside one compiled group while a timer
//! needs every budget exit to actually reach the dispatcher.

use daisy::inject::{run_campaign, CampaignConfig, FaultKind};
use daisy::system::DaisySystem;
use daisy::trace::TraceEvent;
use daisy::TranslatorConfig;
use daisy_ppc::asm::{Asm, Program};
use daisy_ppc::interp::StopReason;
use daisy_ppc::reg::{CrField, Gpr};
use daisy_ppc::PpcIsa;
use daisy_vliw::packed::BACKEDGE_VLIW_BUDGET;

mod common;
use common::{assert_indistinguishable, traced_run, TracedRun};

/// The dispatch on which the tier compiles a translation (same as
/// prop_native).
const THRESHOLD: u64 = 2;

// ---------------------------------------------------------------------
// Inline IBTC on an aligned computed-dispatch table.
// ---------------------------------------------------------------------

/// Handler stride. Power-of-two alignment makes every `bctr` target
/// share its low bits — the xlat-style pattern that collapses any
/// bit-sliced way function and forced the fully associative design.
const HSIZE: u32 = 0x200;
const HBASE: u32 = 0x2000;
const HANDLERS: u32 = 4;
const DISPATCHES: u32 = 20_000;

/// A tight dispatch loop: `HANDLERS` aligned handlers entered through a
/// computed `mtctr`/`bctr`, each bumping the accumulator by a distinct
/// amount and looping back until `DISPATCHES` rounds are done.
fn indirect_loop_program() -> Program {
    let mut a = Asm::new(0x1000);
    let cr = CrField(0);
    let (i, acc, n, t1, hbase) = (Gpr(3), Gpr(4), Gpr(5), Gpr(7), Gpr(12));

    a.li(i, 0);
    a.li(acc, 0);
    a.li32(n, DISPATCHES);
    a.li32(hbase, HBASE);
    a.label("loop");
    a.rlwinm(t1, i, 0, 30, 31); // t1 = i & (HANDLERS - 1)
    a.slwi(t1, t1, 9); // * HSIZE
    a.add(t1, t1, hbase);
    a.mtctr(t1);
    a.bctr();

    for k in 0..HANDLERS {
        assert!(a.here() <= HBASE + k * HSIZE, "handler overflowed its slot");
        while a.here() < HBASE + k * HSIZE {
            a.nop();
        }
        a.addi(acc, acc, (k + 1) as i16);
        a.addi(i, i, 1);
        a.cmpw(cr, i, n);
        a.blt(cr, "loop");
        a.b("done");
    }
    a.label("done");
    a.sc();
    a.finish().expect("indirect loop assembles")
}

fn expected_acc() -> u32 {
    // Handlers cycle evenly; handler k adds k+1.
    DISPATCHES / HANDLERS * (HANDLERS * (HANDLERS + 1) / 2)
}

fn run_indirect_loop(native: bool) -> TracedRun {
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(0x1_0000)
        .native_execution(native)
        .native_threshold(THRESHOLD)
        .flight_recorder_capacity(1 << 21)
        .build();
    sys.load(&indirect_loop_program()).unwrap();
    let stop = sys.run(10_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall, "indirect loop did not finish");
    assert_eq!(sys.flight_recorder().dropped(), 0, "trace ring overflowed; grow the cap");
    assert_eq!(sys.cpu.gpr[4], expected_acc(), "wrong accumulator");
    traced_run(sys)
}

/// The aligned dispatch table is indistinguishable between the twins,
/// and on x86-64 the hot `bctr` exits actually resolve through the
/// inline IBTC rather than bouncing off the dispatcher every round.
#[test]
fn inline_ibtc_resolves_aligned_dispatch_table() {
    let packed = run_indirect_loop(false);
    let native = run_indirect_loop(true);
    assert_indistinguishable(&packed, &native, "aligned dispatch table");
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        let ns = native.0.native_stats().unwrap();
        assert!(ns.compiles > 0, "native tier never compiled the dispatch loop");
        assert!(
            ns.ibtc_hits > u64::from(DISPATCHES) / 2,
            "inline IBTC barely hit ({} of {DISPATCHES} dispatches) — \
             aligned targets are defeating the cache again",
            ns.ibtc_hits
        );
    }
}

// ---------------------------------------------------------------------
// IBTC under fire: invalidation-heavy injection campaigns on xlat, the
// indirect-branch-heavy workload, with the ladder starting at Native.
// Hot-patch stores kill translations whose entries live in inline IBTC
// rows; cast-out thrash recycles arena code under live caches;
// chain-sever clears every link and IBTC row at every boundary. Each
// campaign cross-checks against the interpreter oracle bit-for-bit.
//
// Left alone, xlat's indirect exits resolve through live inline rows
// (the control run below). Under every one of these campaigns they do
// not: each kind flushes the whole native tier within a few
// boundaries, so `NativeStats::ibtc_hits` reads 0 for all three (on
// seed 0, hot_patch flushes 75,175 times in 241,010 boundaries,
// chain_sever flushes at every boundary, and cast_out_thrash compiles
// nothing at all). The campaigns therefore prove the tier's
// invalidation paths exact, not its IBTC under invalidation; a
// page-granular flush that lets rows survive would make the hits
// assertable here.
// ---------------------------------------------------------------------

#[test]
fn ibtc_stays_bit_exact_under_invalidation_campaigns() {
    let w = daisy_workloads::by_name("xlat").expect("xlat workload");
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        let mut sys = DaisySystem::<PpcIsa>::builder()
            .mem_size(w.mem_size)
            .native_execution(true)
            .native_threshold(THRESHOLD)
            .build();
        sys.load(&w.program()).unwrap();
        assert_eq!(sys.run(10 * w.max_instrs).unwrap(), StopReason::Syscall);
        let ns = sys.native_stats().unwrap();
        assert!(ns.ibtc_hits > 0, "unperturbed xlat never hit the inline IBTC");
    }
    for kind in [FaultKind::HotPatch, FaultKind::CastOutThrash, FaultKind::ChainSever] {
        for seed in 0..3u64 {
            let cfg = CampaignConfig::new(kind, seed).with_native();
            let out = run_campaign(&w, &cfg)
                .unwrap_or_else(|e| panic!("xlat native campaign {kind} seed {seed}: {e}"));
            assert!(out.boundaries > 0, "{kind} seed {seed}: ran no groups");
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            if kind != FaultKind::CastOutThrash {
                assert!(
                    out.native_stats.compiles > 0,
                    "{kind} seed {seed}: the native tier never compiled a group"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rerolled back edges versus the back-edge budget and the timer.
// ---------------------------------------------------------------------

const SPINS: u32 = 50_000;

/// A loop whose body rerolls into a single group: one counted spin with
/// no calls, no indirects, no memory traffic.
fn spin_program() -> Program {
    let mut a = Asm::new(0x1000);
    let cr = CrField(0);
    let (acc, n) = (Gpr(3), Gpr(4));
    a.li(acc, 0);
    a.li32(n, SPINS);
    a.label("spin");
    a.addi(acc, acc, 1);
    a.cmpw(cr, acc, n);
    a.blt(cr, "spin");
    a.sc();
    a.finish().expect("spin loop assembles")
}

fn run_spin(native: bool, timer: Option<u32>) -> TracedRun {
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(0x1_0000)
        .translator(TranslatorConfig { reroll_loops: true, ..TranslatorConfig::default() })
        .native_execution(native)
        .native_threshold(THRESHOLD)
        .flight_recorder_capacity(1 << 21)
        .build();
    sys.load(&spin_program()).unwrap();
    if let Some(period) = timer {
        // The SoC timer with an acknowledge-and-return handler, so
        // ticks deliver and return invisibly — the loop must keep
        // surfacing for them.
        common::attach_soc_timer(&mut sys, period);
    }
    let stop = sys.run(10_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall, "spin loop did not finish");
    assert_eq!(sys.flight_recorder().dropped(), 0, "trace ring overflowed; grow the cap");
    assert_eq!(sys.cpu.gpr[3], SPINS, "wrong spin count");
    traced_run(sys)
}

/// A rerolled single-group loop exhausts its back-edge budget instead
/// of spinning forever, and a timer still preempts it: every budget
/// exit is a real dispatcher boundary where ticks deliver. The twins
/// stay indistinguishable with and without the timer watching.
#[test]
fn rerolled_loop_budget_exit_keeps_timer_preemption() {
    for timer in [None, Some(3_000u32)] {
        let packed = run_spin(false, timer);
        let native = run_spin(true, timer);
        let ctx = format!("rerolled spin, timer={timer:?}");
        assert_indistinguishable(&packed, &native, &ctx);
        if timer.is_some() {
            let ticks = packed
                .1
                .iter()
                .filter(|e| matches!(e, TraceEvent::ExternalInterrupt { .. }))
                .count();
            assert!(ticks >= 3, "{ctx}: timer only delivered {ticks} ticks mid-loop");
        }
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            let ns = native.0.native_stats().unwrap();
            assert!(ns.compiles > 0, "{ctx}: native tier never compiled the spin");
            // The loop iterated *inside* the compiled group (far fewer
            // native entries than iterations — a failed reroll would
            // dispatch once per trip) …
            let entries = ns.dispatches + ns.chained;
            assert!(
                entries < u64::from(SPINS) / 4,
                "{ctx}: {entries} native entries for {SPINS} iterations — loop did not reroll"
            );
            // … yet never spun past its per-entry budget: the emitted
            // check forced it back out through the anchor, so entries
            // scale with iterations / budget.
            assert!(
                entries >= u64::from(SPINS) / (BACKEDGE_VLIW_BUDGET * 4),
                "{ctx}: only {entries} native entries — back-edge budget never triggered"
            );
        }
    }
}
