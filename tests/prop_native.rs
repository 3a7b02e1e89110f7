//! The native host-code tier is an *observation-preserving* lowering:
//! running any program with hot groups compiled to x86-64 (chained
//! direct jumps included) must be indistinguishable from the packed
//! engine — same architected state, same memory image, same
//! [`RunStats`] to the counter, and the same structured [`TraceEvent`]
//! sequence once the native tier's own compile events are set aside.
//! Under a finite cache hierarchy the cache model's statistics must
//! match too: compiled code logs its probes and the tier replays them.
//! On hosts without native support the builder falls back to packed
//! execution and the twins are trivially identical, so this suite runs
//! (and must pass) everywhere.

use daisy::inject::{run_campaign, CampaignConfig, FaultKind};
use daisy::native::Refusal;
use daisy::sched::TranslatorConfig;
use daisy::stats::RunStats;
use daisy::system::DaisySystem;
use daisy_cachesim::{CacheConfig, Hierarchy};
use daisy_ppc::asm::{Asm, Program};
use daisy_ppc::insn::{bo, ArithOp, Insn};
use daisy_ppc::interp::StopReason;
use daisy_ppc::reg::{CrBit, CrField, Gpr};
use daisy_ppc::PpcIsa;
use daisy_workloads::Workload;
use proptest::prelude::*;

mod common;
use common::{assert_indistinguishable, traced_run, TracedRun};

/// The dispatch on which the tier compiles a translation. Low, so even
/// short workloads and generated programs reach compiled code.
const THRESHOLD: u64 = 2;

/// Builds a fresh (cold) cache hierarchy for each twin.
type HierarchyCtor = fn() -> Hierarchy;

// ---------------------------------------------------------------------
// The nine-workload suite.
// ---------------------------------------------------------------------

fn run_workload(w: &Workload, native: bool) -> TracedRun {
    run_workload_with_cache(w, native, Hierarchy::infinite())
}

fn run_workload_with_cache(w: &Workload, native: bool, cache: Hierarchy) -> TracedRun {
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(w.mem_size)
        .cache(cache)
        .native_execution(native)
        .native_threshold(THRESHOLD)
        .flight_recorder_capacity(1 << 21)
        .build();
    sys.load(&w.program()).unwrap();
    let stop = sys.run(10 * w.max_instrs).unwrap();
    assert_eq!(stop, StopReason::Syscall, "{}: run did not finish", w.name);
    assert_eq!(
        sys.flight_recorder().dropped(),
        0,
        "{}: trace ring overflowed; grow the cap",
        w.name
    );
    traced_run(sys)
}

#[test]
fn native_is_observably_the_packed_engine_on_every_workload() {
    for w in daisy_workloads::all() {
        let packed = run_workload(&w, false);
        let native = run_workload(&w, true);
        assert_indistinguishable(&packed, &native, w.name);
        // The workload's own semantic checker, on the native run.
        w.check(&native.0.cpu, &native.0.mem)
            .unwrap_or_else(|e| panic!("{}: checker failed under native tier: {e}", w.name));
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            assert!(native.0.native_enabled(), "{}: native tier should be active", w.name);
            let ns = native.0.native_stats().unwrap();
            assert!(ns.compiles > 0, "{}: native tier never compiled a group", w.name);
            assert!(ns.dispatches > 0, "{}: native tier never entered compiled code", w.name);
        }
    }
}

/// Under both of the paper's finite hierarchies, and the two edge
/// hierarchies of `native_replays_probes_exactly_under_edge_hierarchies`,
/// compiled code logs its cache probes and the tier replays them at
/// every return: stall cycles, level-0 miss counts and every cache
/// level's counters must equal the packed engine's, on every workload.
/// (Generated programs are too short to move a shared first level
/// between two fetches of one line; `compress` and `lex` do.)
#[test]
fn native_is_observably_the_packed_engine_under_finite_caches() {
    let caches: [(&str, HierarchyCtor); 4] = [
        ("paper_default", Hierarchy::paper_default),
        ("paper_eight_issue", Hierarchy::paper_eight_issue),
        ("slow level 0", slow_l0_hierarchy),
        ("shared first level", shared_l0_hierarchy),
    ];
    for w in daisy_workloads::all() {
        for (name, cache) in caches {
            let packed = run_workload_with_cache(&w, false, cache());
            let native = run_workload_with_cache(&w, true, cache());
            let ctx = format!("{} under {name}", w.name);
            assert_indistinguishable(&packed, &native, &ctx);
            assert!(packed.0.stats.stall_cycles > 0, "{ctx}: the finite hierarchy must stall");
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            {
                let ns = native.0.native_stats().unwrap();
                assert!(ns.dispatches > 0, "{ctx}: native tier never entered compiled code");
            }
        }
    }
}

/// A boundary observer — the SoC's interval timer, whose interrupts
/// are taken at dispatcher boundaries — keeps the tier to one group
/// per dispatch instead of chaining natively; native must still equal
/// packed, under the infinite cache and under the paper's finite one
/// (probe replay around every preempted boundary).
#[test]
fn native_matches_packed_with_boundary_observers() {
    let w = daisy_workloads::by_name("c_sieve").expect("sieve workload");
    let run = |native: bool, cache: HierarchyCtor| {
        let mut sys = DaisySystem::<PpcIsa>::builder()
            .mem_size(w.mem_size)
            .cache(cache())
            .native_execution(native)
            .native_threshold(THRESHOLD)
            .flight_recorder_capacity(1 << 21)
            .build();
        sys.load(&w.program()).unwrap();
        common::attach_soc_timer(&mut sys, 4096);
        let stop = sys.run(10 * w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall);
        assert!(sys.stats.interrupts_taken > 0, "the timer must fire");
        traced_run(sys)
    };
    let caches: [(&str, HierarchyCtor); 2] =
        [("infinite", Hierarchy::infinite), ("paper_default", Hierarchy::paper_default)];
    for (name, cache) in caches {
        let (packed, native) = (run(false, cache), run(true, cache));
        assert_indistinguishable(&packed, &native, &format!("SoC timer under {name}"));
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            let ns = native.0.native_stats().unwrap();
            assert!(ns.dispatches > 0, "{name}: native tier never entered compiled code");
            // Edges are patched, but a zero chain budget never follows
            // one.
            assert!(ns.edge_patches > 0, "{name}: no chain edge was patched");
            assert_eq!(ns.chained, 0, "{name}: a bus keeps every boundary visible");
        }
    }
}

/// With chaining disabled every dispatch goes through the VMM; native
/// groups still run, but no edge is ever patched.
#[test]
fn native_matches_packed_without_chaining() {
    let w = daisy_workloads::by_name("wc").expect("wc workload");
    let run = |native: bool| {
        let mut sys = DaisySystem::<PpcIsa>::builder()
            .mem_size(w.mem_size)
            .chaining(false)
            .native_execution(native)
            .native_threshold(THRESHOLD)
            .flight_recorder_capacity(1 << 21)
            .build();
        sys.load(&w.program()).unwrap();
        let stop = sys.run(10 * w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall);
        traced_run(sys)
    };
    assert_indistinguishable(&run(false), &run(true), "chaining off");
}

/// Cast-out churn: 64-byte translation pages and a 128-byte code area
/// flush the native tier thousands of times, and every flush hands the
/// whole code arena back. Code recompiled over reclaimed bytes must stay
/// native≡packed to the counter, and no entry may starve for space.
/// Rerun under the paper's default finite hierarchy, the same churn
/// also covers probe replay across bails, packed resumes and flushes.
#[test]
fn native_matches_packed_under_cast_out_churn() {
    for cache in [Hierarchy::infinite, Hierarchy::paper_default] {
        check_cast_out_churn(cache);
    }
}

fn check_cast_out_churn(cache: HierarchyCtor) {
    let w = daisy_workloads::by_name("fgrep").expect("fgrep workload");
    let run = |native: bool| {
        let mut sys = DaisySystem::<PpcIsa>::builder()
            .mem_size(w.mem_size)
            .cache(cache())
            .translator(TranslatorConfig { page_size: 64, ..TranslatorConfig::default() })
            .code_capacity(128)
            .native_execution(native)
            .native_threshold(THRESHOLD)
            .flight_recorder_capacity(1 << 21)
            .build();
        sys.load(&w.program()).unwrap();
        let stop = sys.run(50 * w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall, "churn run did not finish");
        assert_eq!(sys.flight_recorder().dropped(), 0, "trace ring overflowed; grow the cap");
        traced_run(sys)
    };
    let (packed, native) = (run(false), run(true));
    assert_indistinguishable(&packed, &native, "cast-out churn");
    assert!(packed.0.vmm.stats.cast_outs > 0, "the clamp must force cast-outs");
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        let ns = native.0.native_stats().unwrap();
        assert!(ns.flushes > 0, "cast-outs must flush the native tier");
        assert!(ns.compiles > ns.flushes / 8, "entries recompile after flushes: {ns:?}");
        assert_eq!(ns.refusal_histogram[Refusal::ArenaFull.index()], 0, "{ns:?}");
    }
}

/// daisybench's `code_thrash` configuration (256-byte pages, a 512-byte
/// code area, the default threshold) casts out compress's compiled
/// groups about a hundred native VLIWs after each compile, so no compile
/// repays. The payback test must back the threshold off until the tier
/// stops compiling (4,119 compiles per run without it), and native must
/// still equal packed.
#[test]
fn native_backs_off_when_compiles_die_unrepaid() {
    let w = daisy_workloads::by_name("compress").expect("compress workload");
    let run = |native: bool| {
        let mut sys = DaisySystem::<PpcIsa>::builder()
            .mem_size(w.mem_size)
            .translator(TranslatorConfig { page_size: 256, ..TranslatorConfig::default() })
            .code_capacity(512)
            .native_execution(native)
            .flight_recorder_capacity(1 << 21)
            .build();
        sys.load(&w.program()).unwrap();
        let stop = sys.run(10 * w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall, "code_thrash run did not finish");
        assert_eq!(sys.flight_recorder().dropped(), 0, "trace ring overflowed; grow the cap");
        traced_run(sys)
    };
    let (packed, native) = (run(false), run(true));
    assert_indistinguishable(&packed, &native, "compress under code_thrash");
    w.check(&native.0.cpu, &native.0.mem).expect("compress checker under the native tier");
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    {
        let ns = native.0.native_stats().unwrap();
        assert!(ns.backoffs > 0, "unrepaid compiles must back the threshold off: {ns:?}");
        assert!(ns.compiles <= 8, "the tier must stop compiling groups that die unrepaid: {ns:?}");
    }
}

// ---------------------------------------------------------------------
// The native threshold, pinned exactly on a one-group self-loop.
// ---------------------------------------------------------------------

/// With native threshold `t`, exactly `t - 1` packed dispatches of a
/// translation come before its first native one: the threshold reads
/// the translation's own dispatch counter, which the dispatcher bumps
/// once per boundary, before execution.
#[test]
fn native_threshold_counts_dispatches_exactly() {
    if !cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        return;
    }
    // `r3 += 3` for 200 trips of a self-loop.
    let mut a = Asm::new(0x1000);
    a.li(Gpr(3), 0);
    a.li(Gpr(4), 200);
    a.mtctr(Gpr(4));
    a.label("loop");
    a.addi(Gpr(3), Gpr(3), 3);
    a.bdnz("loop");
    a.sc();
    let prog = a.finish().unwrap();
    let head = prog.labels["loop"];
    for t in [1u64, 2, 8] {
        let mut sys =
            DaisySystem::<PpcIsa>::builder().native_execution(true).native_threshold(t).build();
        sys.load(&prog).unwrap();
        let native_dispatches = |s: &DaisySystem<PpcIsa>| s.native_stats().unwrap().dispatches;
        // Steps until a dispatch of the loop head enters native code,
        // counting the head's dispatches up to and including that one.
        let mut n = 0;
        loop {
            let (at_head, before) = (sys.cpu.pc == head, native_dispatches(&sys));
            let stop = sys.step().unwrap();
            n += u64::from(at_head);
            if at_head && native_dispatches(&sys) > before {
                break;
            }
            assert!(stop.is_none(), "t={t}: the run ended before native code ran");
        }
        assert_eq!(n, t, "t={t}: the head first ran native on its dispatch {n}");
    }
}

// ---------------------------------------------------------------------
// Randomized programs (compact cousin of `tests/common`'s generator:
// ALU work, CR-driven skips, CTR loops, calls through LR, loads and
// stores in a private data window, and trap parcels — the last lower
// through the general-parcel trap-check template, so generated runs
// exercise the never-taken trap fast path in compiled code).
// ---------------------------------------------------------------------

const DATA: u32 = 0x8000;
const SLOTS: u32 = 64;

#[derive(Debug, Clone)]
enum Step {
    Alu { op: u8, rt: u8, ra: u8, rb: u8, rc: bool },
    AddImm { rt: u8, ra: u8, imm: i16 },
    Cmp { bf: u8, signed: bool, ra: u8, rb: u8 },
    Load { width: u8, rt: u8, slot: u8 },
    Store { width: u8, rs: u8, slot: u8 },
    SkipIf { bf: u8, bit: u8, want: bool, skip: u8 },
    CtrLoop { count: u8, body_rt: u8 },
    Call { rt: u8, ra: u8, rb: u8 },
    Trap,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..6, 0u8..12, 0u8..12, 0u8..12, any::<bool>())
            .prop_map(|(op, rt, ra, rb, rc)| Step::Alu { op, rt, ra, rb, rc }),
        (0u8..12, 0u8..12, any::<i16>()).prop_map(|(rt, ra, imm)| Step::AddImm { rt, ra, imm }),
        (0u8..4, any::<bool>(), 0u8..12, 0u8..12).prop_map(|(bf, signed, ra, rb)| Step::Cmp {
            bf,
            signed,
            ra,
            rb
        }),
        (0u8..3, 0u8..12, 0u8..64).prop_map(|(width, rt, slot)| Step::Load { width, rt, slot }),
        (0u8..3, 0u8..12, 0u8..64).prop_map(|(width, rs, slot)| Step::Store { width, rs, slot }),
        (0u8..4, 0u8..4, any::<bool>(), 1u8..6).prop_map(|(bf, bit, want, skip)| Step::SkipIf {
            bf,
            bit,
            want,
            skip
        }),
        (1u8..6, 0u8..12).prop_map(|(count, body_rt)| Step::CtrLoop { count, body_rt }),
        (0u8..12, 0u8..12, 0u8..12).prop_map(|(rt, ra, rb)| Step::Call { rt, ra, rb }),
        Just(Step::Trap),
    ]
}

fn emit(a: &mut Asm, steps: &[Step]) {
    let base = Gpr(20);
    let mut label = 0usize;
    let mut fresh = || {
        label += 1;
        format!("l{label}")
    };
    a.li32(base, DATA);
    for s in steps {
        match *s {
            Step::Alu { op, rt, ra, rb, rc } => {
                let (rt, ra, rb) = (Gpr(rt), Gpr(ra), Gpr(rb));
                match op {
                    0 => a.emit(Insn::Arith { op: ArithOp::Add, rt, ra, rb, oe: false, rc }),
                    1 => a.emit(Insn::Arith { op: ArithOp::Subf, rt, ra, rb, oe: false, rc }),
                    2 => a.emit(Insn::Arith { op: ArithOp::Mullw, rt, ra, rb, oe: false, rc }),
                    3 => a.and(rt, ra, rb),
                    4 => a.or(rt, ra, rb),
                    _ => a.xor(rt, ra, rb),
                }
            }
            Step::AddImm { rt, ra, imm } => a.addi(Gpr(rt), Gpr(ra), imm),
            Step::Cmp { bf, signed, ra, rb } => {
                a.emit(Insn::Cmp { bf: CrField(bf), signed, ra: Gpr(ra), rb: Gpr(rb) });
            }
            Step::Load { width, rt, slot } => {
                let d = i16::from(slot) * 4;
                match width {
                    0 => a.lbz(Gpr(rt), d, base),
                    1 => a.lhz(Gpr(rt), d, base),
                    _ => a.lwz(Gpr(rt), d, base),
                }
            }
            Step::Store { width, rs, slot } => {
                let d = i16::from(slot) * 4;
                match width {
                    0 => a.stb(Gpr(rs), d, base),
                    1 => a.sth(Gpr(rs), d, base),
                    _ => a.stw(Gpr(rs), d, base),
                }
            }
            Step::SkipIf { bf, bit, want, skip } => {
                let l = fresh();
                let b = if want { bo::IF_TRUE } else { bo::IF_FALSE };
                a.bc(b, CrBit::new(CrField(bf), bit), &l);
                for i in 0..skip {
                    a.addi(Gpr(i % 12), Gpr((i + 1) % 12), 13);
                }
                a.label(&l);
            }
            Step::CtrLoop { count, body_rt } => {
                let l = fresh();
                a.li(Gpr(9), i16::from(count));
                a.mtctr(Gpr(9));
                a.label(&l);
                a.addi(Gpr(body_rt), Gpr(body_rt), 3);
                a.xor(Gpr((body_rt + 1) % 12), Gpr(body_rt), Gpr(9));
                a.bdnz(&l);
            }
            Step::Call { rt, ra, rb } => {
                let over = fresh();
                let func = fresh();
                a.b(&over);
                a.label(&func);
                a.add(Gpr(rt), Gpr(ra), Gpr(rb));
                a.blr();
                a.label(&over);
                a.bl(&func);
            }
            Step::Trap => {
                // Never fires; lowered by the general-parcel trap-check
                // template, so generated runs exercise it on real code.
                a.emit(Insn::Tw { to: 16, ra: Gpr(0), rb: Gpr(0) });
            }
        }
    }
    a.sc();
}

fn run_generated(prog: &Program, seeds: &[u32], native: bool, cache: Hierarchy) -> TracedRun {
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(0x2_0000)
        .cache(cache)
        .native_execution(native)
        .native_threshold(THRESHOLD)
        .flight_recorder_capacity(1 << 21)
        .build();
    sys.load(prog).unwrap();
    for i in 0..SLOTS {
        sys.mem.write_u32(DATA + 4 * i, i.wrapping_mul(0x9E37_79B9)).unwrap();
    }
    for (i, s) in seeds.iter().enumerate().take(12) {
        sys.cpu.gpr[i] = *s;
    }
    let stop = sys.run(100_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    assert_eq!(sys.flight_recorder().dropped(), 0, "trace ring overflowed; grow the cap");
    traced_run(sys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random programs: the native twin is indistinguishable from the
    /// packed twin.
    #[test]
    fn native_engine_is_observably_the_packed_engine(
        steps in prop::collection::vec(step(), 1..32),
        seeds in prop::collection::vec(any::<u32>(), 12),
    ) {
        let mut a = Asm::new(0x1000);
        emit(&mut a, &steps);
        let prog = a.finish().expect("generated program assembles");
        let packed = run_generated(&prog, &seeds, false, Hierarchy::infinite());
        let native = run_generated(&prog, &seeds, true, Hierarchy::infinite());
        assert_indistinguishable(&packed, &native, "generated program");
    }

    /// Random programs under a deliberately tiny hierarchy (1 KiB L1I
    /// and L1D over a 4 KiB shared level): frequent misses interleave
    /// instruction and data probes at the shared level, so any
    /// misordered replay shows up in its counters.
    #[test]
    fn native_replays_probes_exactly_under_a_tiny_cache(
        steps in prop::collection::vec(step(), 1..32),
        seeds in prop::collection::vec(any::<u32>(), 12),
    ) {
        let mut a = Asm::new(0x1000);
        emit(&mut a, &steps);
        let prog = a.finish().expect("generated program assembles");
        let packed = run_generated(&prog, &seeds, false, tiny_hierarchy());
        let native = run_generated(&prog, &seeds, true, tiny_hierarchy());
        assert_indistinguishable(&packed, &native, "generated program, tiny cache");
    }

    /// Random programs under the two hierarchies where counting level-0
    /// MRU hits instead of logging them could slip: level 0s that cost
    /// cycles (every counted hit must add its latency to the stalls),
    /// and no private instruction level (fetches reach the shared level
    /// first, whose most recent line data probes move, so every fetch
    /// is logged).
    #[test]
    fn native_replays_probes_exactly_under_edge_hierarchies(
        steps in prop::collection::vec(step(), 1..32),
        seeds in prop::collection::vec(any::<u32>(), 12),
    ) {
        let mut a = Asm::new(0x1000);
        emit(&mut a, &steps);
        let prog = a.finish().expect("generated program assembles");
        let caches: [(&str, HierarchyCtor); 2] =
            [("slow level 0", slow_l0_hierarchy), ("shared first level", shared_l0_hierarchy)];
        for (name, cache) in caches {
            let packed = run_generated(&prog, &seeds, false, cache());
            let native = run_generated(&prog, &seeds, true, cache());
            assert_indistinguishable(&packed, &native, &format!("generated program, {name}"));
        }
    }
}

fn tiny_hierarchy() -> Hierarchy {
    Hierarchy::new(
        vec![CacheConfig::new("L1 ICache", 1 << 10, 1, 32, 0)],
        vec![CacheConfig::new("L1 DCache", 1 << 10, 2, 32, 0)],
        vec![CacheConfig::new("L2 JCache", 4 << 10, 4, 64, 6)],
        40,
    )
}

/// [`tiny_hierarchy`] with 2- and 3-cycle level 0s.
fn slow_l0_hierarchy() -> Hierarchy {
    Hierarchy::new(
        vec![CacheConfig::new("L1 ICache", 1 << 10, 1, 32, 2)],
        vec![CacheConfig::new("L1 DCache", 1 << 10, 2, 32, 3)],
        vec![CacheConfig::new("L2 JCache", 4 << 10, 4, 64, 6)],
        40,
    )
}

/// A private data level but no private instruction level: fetches go
/// straight to the shared level. Both levels are small, so data misses
/// keep moving the shared level's most recent line between fetches and
/// evict fetched lines.
fn shared_l0_hierarchy() -> Hierarchy {
    Hierarchy::new(
        Vec::new(),
        vec![CacheConfig::new("L1 DCache", 128, 2, 16, 0)],
        vec![CacheConfig::new("L2 JCache", 512, 2, 32, 1)],
        40,
    )
}

// ---------------------------------------------------------------------
// Injection campaigns with the ladder starting at Native: every
// perturbation family stays bit-exact against the interpreter oracle
// while compiled code and patched native chains are live, and the
// §3.5/ladder recovery machinery runs unchanged above the new rung.
// ---------------------------------------------------------------------

#[test]
fn injection_campaigns_bit_exact_from_native_rung() {
    let w = daisy_workloads::by_name("c_sieve").expect("sieve workload");
    for kind in FaultKind::ALL {
        for seed in 0..3u64 {
            let cfg = CampaignConfig::new(kind, seed).with_native();
            let out = run_campaign(&w, &cfg)
                .unwrap_or_else(|e| panic!("native-rung campaign {kind} seed {seed}: {e}"));
            assert!(out.boundaries > 0, "{kind} seed {seed}: ran no groups");
        }
    }
}

/// `RunStats` must stay `PartialEq`-comparable for the twin checks
/// above to mean anything; pin it so a derive removal fails loudly.
#[test]
fn runstats_equality_is_structural() {
    assert_eq!(RunStats::default(), RunStats::default());
}
