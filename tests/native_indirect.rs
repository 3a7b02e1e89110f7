//! The native tier's in-arena control-flow shortcut — the inline
//! indirect-branch target cache (IBTC) — must never be *observable*:
//! it only removes dispatcher boundaries that nothing is watching.
//! This suite stresses exactly the situations where that promise is
//! easiest to break: aligned computed-dispatch tables (the access
//! pattern that defeats bit-sliced way selection) and injection
//! campaigns that invalidate and sever translations on an
//! indirect-branch-heavy workload.

use daisy::inject::{run_campaign, CampaignConfig, FaultKind};
use daisy::system::DaisySystem;
use daisy_ppc::asm::{Asm, Program};
use daisy_ppc::interp::StopReason;
use daisy_ppc::reg::{CrField, Gpr};
use daisy_ppc::PpcIsa;

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
// Every campaign reaches compiled code, and the payback back-off holds
// each to a handful of compiles: each asserts `NativeStats::compiles`
// between 1 and 100. Left alone, xlat's indirect exits resolve through
// live inline rows (the control run below). Under every one of these
// campaigns they do not, and `NativeStats::ibtc_hits` reads 0 for all
// nine. Chain-sever flushes the tier at every boundary (241,012
// flushes in 241,010 boundaries), so every compile dies unrepaid one
// boundary later. Each such flush doubles the threshold in force, with
// no cap, and dispatch counts survive a flush, so each seed stops
// after 16 compiles and 16 back-offs (with the threshold capped at
// 1,024 dispatches, groups dispatched more often recompiled after
// every flush: 219,675 compiles per seed). The other two kinds kill
// most compiled groups before they repay: on seed 0, hot_patch
// compiles 5 groups and flushes 7 times in 241,010 boundaries, and
// cast_out_thrash compiles 2 and flushes 3 times in 361,515. The
// campaigns therefore prove the tier's retirement paths exact, not its
// IBTC under invalidation.
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
            assert!(
                (1..=100).contains(&out.native_stats.compiles),
                "{kind} seed {seed}: {} compiles, expected 1 to 100",
                out.native_stats.compiles
            );
        }
    }
}
