//! The native host-code tier is an *observation-preserving* lowering:
//! running any program with hot groups compiled to x86-64 (chained
//! direct jumps included) must be indistinguishable from the packed
//! engine — same architected state, same memory image, same
//! [`RunStats`] to the counter, and the same structured [`TraceEvent`]
//! sequence once the native tier's own compile events are set aside.
//! On hosts without native support the builder falls back to packed
//! execution and the twins are trivially identical, so this suite runs
//! (and must pass) everywhere.

use daisy::inject::{run_campaign, CampaignConfig, FaultKind};
use daisy::native::Refusal;
use daisy::sched::TranslatorConfig;
use daisy::stats::RunStats;
use daisy::system::DaisySystem;
use daisy::trace::{RingSink, TraceEvent};
use daisy_ppc::asm::{Asm, Program};
use daisy_ppc::insn::{bo, ArithOp, Insn};
use daisy_ppc::interp::StopReason;
use daisy_ppc::reg::{CrBit, CrField, Gpr};
use daisy_ppc::PpcIsa;
use daisy_workloads::Workload;
use proptest::prelude::*;

/// Dispatches before the tier compiles an entry. Low, so even short
/// workloads and generated programs reach compiled code.
const THRESHOLD: u64 = 2;

/// A finished run: the system plus its captured trace, with the native
/// tier's own compile events stripped (they are the one intentional
/// observable difference between the twins).
type TracedRun = (DaisySystem<PpcIsa>, Vec<TraceEvent>);

fn strip_native_events(events: Vec<TraceEvent>) -> Vec<TraceEvent> {
    events.into_iter().filter(|e| !matches!(e, TraceEvent::NativeCompile { .. })).collect()
}

fn assert_indistinguishable(
    (packed, packed_ev): &TracedRun,
    (native, native_ev): &TracedRun,
    ctx: &str,
) {
    assert_eq!(native.cpu.gpr, packed.cpu.gpr, "{ctx}: GPRs diverged");
    assert_eq!(native.cpu.cr, packed.cpu.cr, "{ctx}: CR diverged");
    assert_eq!(native.cpu.lr, packed.cpu.lr, "{ctx}: LR diverged");
    assert_eq!(native.cpu.ctr, packed.cpu.ctr, "{ctx}: CTR diverged");
    assert_eq!(native.cpu.xer, packed.cpu.xer, "{ctx}: XER diverged");
    assert_eq!(native.cpu.pc, packed.cpu.pc, "{ctx}: PC diverged");
    let size = packed.mem.size();
    assert_eq!(
        native.mem.read_bytes(0, size).unwrap(),
        packed.mem.read_bytes(0, size).unwrap(),
        "{ctx}: memory image diverged"
    );
    assert_eq!(native.stats, packed.stats, "{ctx}: RunStats diverged");
    assert_eq!(native_ev, packed_ev, "{ctx}: trace event sequences diverged");
}

// ---------------------------------------------------------------------
// The nine-workload suite.
// ---------------------------------------------------------------------

fn run_workload(w: &Workload, native: bool) -> TracedRun {
    let sink = RingSink::new(1 << 21);
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(w.mem_size)
        .native_execution(native)
        .native_threshold(THRESHOLD)
        .trace_sink(sink.clone())
        .build();
    sys.load(&w.program()).unwrap();
    let stop = sys.run(10 * w.max_instrs).unwrap();
    assert_eq!(stop, StopReason::Syscall, "{}: run did not finish", w.name);
    assert_eq!(sink.dropped(), 0, "{}: trace ring overflowed; grow the cap", w.name);
    (sys, strip_native_events(sink.events()))
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

/// Configurations that keep every dispatcher boundary visible (per-group
/// profiler; timer ticks) must still be native≡packed — the tier runs
/// one group per dispatch there instead of chaining natively.
#[test]
fn native_matches_packed_with_boundary_observers() {
    let w = daisy_workloads::by_name("c_sieve").expect("sieve workload");
    let run = |native: bool, profiled: bool, timer: Option<u64>| {
        let sink = RingSink::new(1 << 21);
        let mut b = DaisySystem::<PpcIsa>::builder()
            .mem_size(w.mem_size)
            .native_execution(native)
            .native_threshold(THRESHOLD)
            .profiling(profiled)
            .trace_sink(sink.clone());
        if let Some(t) = timer {
            b = b.timer_period(t);
        }
        let mut sys = b.build();
        sys.load(&w.program()).unwrap();
        let stop = sys.run(10 * w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall);
        (sys, strip_native_events(sink.events()))
    };
    for (profiled, timer) in [(true, None), (false, Some(4096)), (true, Some(4096))] {
        let packed = run(false, profiled, timer);
        let native = run(true, profiled, timer);
        let ctx = format!("profiled={profiled} timer={timer:?}");
        assert_indistinguishable(&packed, &native, &ctx);
    }
}

/// With chaining disabled every dispatch goes through the VMM; native
/// groups still run, but no edge is ever patched.
#[test]
fn native_matches_packed_without_chaining() {
    let w = daisy_workloads::by_name("wc").expect("wc workload");
    let run = |native: bool| {
        let sink = RingSink::new(1 << 21);
        let mut sys = DaisySystem::<PpcIsa>::builder()
            .mem_size(w.mem_size)
            .chaining(false)
            .native_execution(native)
            .native_threshold(THRESHOLD)
            .trace_sink(sink.clone())
            .build();
        sys.load(&w.program()).unwrap();
        let stop = sys.run(10 * w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall);
        (sys, strip_native_events(sink.events()))
    };
    assert_indistinguishable(&run(false), &run(true), "chaining off");
}

/// Cast-out churn: 64-byte translation pages and a 128-byte code area
/// flush the native tier thousands of times, and every flush hands the
/// whole code arena back. Code recompiled over reclaimed bytes must stay
/// native≡packed to the counter, and no entry may starve for space.
#[test]
fn native_matches_packed_under_cast_out_churn() {
    let w = daisy_workloads::by_name("fgrep").expect("fgrep workload");
    let run = |native: bool| {
        let sink = RingSink::new(1 << 21);
        let mut sys = DaisySystem::<PpcIsa>::builder()
            .mem_size(w.mem_size)
            .translator(TranslatorConfig { page_size: 64, ..TranslatorConfig::default() })
            .code_capacity(128)
            .native_execution(native)
            .native_threshold(THRESHOLD)
            .trace_sink(sink.clone())
            .build();
        sys.load(&w.program()).unwrap();
        let stop = sys.run(50 * w.max_instrs).unwrap();
        assert_eq!(stop, StopReason::Syscall, "churn run did not finish");
        assert_eq!(sink.dropped(), 0, "trace ring overflowed; grow the cap");
        (sys, strip_native_events(sink.events()))
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

fn run_generated(prog: &Program, seeds: &[u32], native: bool) -> TracedRun {
    let sink = RingSink::new(1 << 21);
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(0x2_0000)
        .native_execution(native)
        .native_threshold(THRESHOLD)
        .trace_sink(sink.clone())
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
    assert_eq!(sink.dropped(), 0, "trace ring overflowed; grow the cap");
    (sys, strip_native_events(sink.events()))
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
        let packed = run_generated(&prog, &seeds, false);
        let native = run_generated(&prog, &seeds, true);
        assert_indistinguishable(&packed, &native, "generated program");
    }
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
