//! The traced run: per-layer numbers taken from outside the program,
//! by timing calls into each layer's public functions.
//!
//! * Every `DaisySystem::step()` call is timed and classified by the
//!   counters it moved: it translated a group, cast a page out,
//!   compiled (or refused) a group natively, or only executed.
//! * The groups a pass translated and compiled are replayed afterwards
//!   through `translate_group_with_hints`, `PackedGroup::lower` and
//!   `Jit::compile` on the program's own memory image, timing each call.
//! * Untraced passes alternate with traced ones, so the traced pass's
//!   wall time over the untraced one gives the tracing overhead.

use crate::calib::Calibrator;
use crate::host::NATIVE_HOST;
use crate::report::Report;
use crate::stats::{median, percentile, ratio, LogHist};
use crate::suite::{self, native_stats, Checks, Order, Program, System, Workload};
use daisy::prelude::*;
use daisy::sched::{translate_group_with_hints, Hints};
use daisy_jit::lower::Refusal;
use daisy_jit::{CompileOpts, Jit, DEFAULT_ARENA_BYTES};
use daisy_ppc::{Memory, PpcIsa};
use daisy_vliw::packed::PackedGroup;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host nanoseconds of `Jit::new` are taken as the median of this many
/// arena creations.
const ARENA_SAMPLES: usize = 15;

/// Counters `step()` may move.
#[derive(Debug, Clone, Copy)]
struct Marks {
    translated: u64,
    cast_outs: u64,
    compiled: u64,
    refused: u64,
    vliws: u64,
}

impl Marks {
    fn of(sys: &System) -> Marks {
        let ns = native_stats(sys);
        Marks {
            translated: sys.vmm.stats.groups_translated,
            cast_outs: sys.vmm.stats.cast_outs,
            compiled: ns.compiles,
            refused: ns.refusals,
            vliws: sys.stats.vliws_executed,
        }
    }

    /// Whether the step since `before` translated a group or compiled
    /// (or refused) one natively, rather than only dispatching and
    /// executing.
    fn busy(&self, before: &Marks) -> bool {
        self.translated > before.translated
            || self.compiled > before.compiled
            || self.refused > before.refused
    }
}

/// Step timings of the traced passes.
#[derive(Default)]
struct Steps {
    exec: LogHist,
    castout_us: Vec<f64>,
    exec_ns: u64,
    exec_vliws: u64,
    /// Nanoseconds of steps that translated, cast out or compiled.
    xlate_ns: u64,
    all_ns: u64,
    timed: u64,
}

/// A group the traced pass translated or compiled, to be replayed.
#[derive(Debug, Clone, Copy)]
enum Work {
    Translate(u32),
    Compile(u32),
}

/// Layer counters summed over one traced pass.
#[derive(Debug, Default, Clone, Copy)]
struct PassCounters {
    steps: u64,
    groups: u64,
    cast_outs: u64,
    dispatches: u64,
    code_bytes_total: u64,
    chained: u64,
    all_dispatches: u64,
    icache_hits: u64,
    icache_lookups: u64,
    vliws: u64,
    alias_failures: u64,
    stall_cycles: u64,
    compiles: u64,
    refusals: u64,
    flushes: u64,
    bails: u64,
    vliws_native: u64,
    ibtc_hits: u64,
    l1i: (u64, u64),
    l1d: (u64, u64),
}

impl PassCounters {
    fn add(&mut self, sys: &System) {
        let (s, v, n) = (&sys.stats, &sys.vmm.stats, native_stats(sys));
        self.groups += v.groups_translated;
        self.cast_outs += v.cast_outs;
        self.code_bytes_total += v.code_bytes_total;
        self.dispatches += s.groups_entered;
        self.chained += s.chain.chained_dispatches;
        self.all_dispatches += s.total_dispatches();
        self.icache_hits += s.chain.icache_hits;
        self.icache_lookups += s.chain.icache_hits + s.chain.icache_misses;
        self.vliws += s.vliws_executed;
        self.alias_failures += s.alias_failures;
        self.stall_cycles += s.stall_cycles;
        self.compiles += n.compiles;
        self.refusals += n.refusals;
        self.flushes += n.flushes;
        self.bails += n.bails;
        self.vliws_native += n.vliws_native;
        self.ibtc_hits += n.ibtc_hits;
        // The first instruction-side and data-side levels.
        let levels = sys.cache.level_stats();
        for (side, key) in [(&mut self.l1i, "ICache"), (&mut self.l1d, "DCache")] {
            if let Some((_, st)) = levels.iter().find(|(name, _)| name.contains(key)) {
                side.0 += st.accesses;
                side.1 += st.misses;
            }
        }
    }
}

/// Runs `p` one `step()` at a time, timing each call.
fn traced_run(
    wl: Workload,
    p: &Program,
    steps: &mut Steps,
    counters: &mut PassCounters,
    mut work: Option<&mut Vec<Work>>,
) -> (System, Result<StopReason, String>, u64) {
    let t = Instant::now();
    let mut sys = wl.build(p);
    let stop = if let Err(e) = sys.load(&p.image) {
        Err(format!("load: {e:?}"))
    } else {
        loop {
            if sys.stats.cycles() >= p.budget() {
                break Ok(StopReason::MaxInstrs);
            }
            let pc = sys.cpu.pc;
            let before = Marks::of(&sys);
            let t0 = Instant::now();
            let r = sys.step();
            let dt = t0.elapsed().as_nanos() as u64;
            let after = Marks::of(&sys);
            counters.steps += 1;
            steps.timed += 1;
            steps.all_ns += dt;
            if after.busy(&before) {
                steps.xlate_ns += dt;
                // A cast-out happens only while translating.
                if after.cast_outs > before.cast_outs {
                    steps.castout_us.push(dt as f64 / 1e3);
                }
            } else {
                steps.exec.record(dt as f64);
                steps.exec_ns += dt;
                steps.exec_vliws += after.vliws - before.vliws;
            }
            // A step dispatches exactly the group entered at `pc`: that
            // is the group it translated and the one it compiled.
            if let Some(w) = work.as_deref_mut() {
                if after.translated > before.translated {
                    w.push(Work::Translate(pc));
                }
                if after.compiled > before.compiled {
                    w.push(Work::Compile(pc));
                }
            }
            match r {
                Ok(Some(stop)) => break Ok(stop),
                Ok(None) => {}
                Err(e) => break Err(e.to_string()),
            }
        }
    };
    let ns = t.elapsed().as_nanos() as u64;
    counters.add(&sys);
    (sys, stop, ns)
}

/// `sim_suite`'s cache model is timed as the difference between a run
/// under the finite hierarchy and the same program on an infinite one.
fn infinite_cache_run(wl: Workload, p: &Program) -> (System, Result<StopReason, String>, u64) {
    let t = Instant::now();
    let mut sys = System::builder().mem_size(p.w.mem_size).translator(wl.translator()).build();
    let stop = match sys.load(&p.image) {
        Ok(()) => sys.run(p.budget()).map_err(|e| e.to_string()),
        Err(e) => Err(format!("load: {e:?}")),
    };
    (sys, stop, t.elapsed().as_nanos() as u64)
}

/// Replays of translation, lowering and native compilation.
#[derive(Default)]
struct Replays {
    sched_us: Vec<f64>,
    lower_us: Vec<f64>,
    compile_us: Vec<f64>,
    sched_ns: u64,
    sched_instrs: u64,
}

/// Replays every group `work` names on a fresh image of `p`.
fn replay(wl: Workload, p: &Program, work: &[Work], jit: &mut Option<Jit>, out: &mut Replays) {
    let cfg = wl.translator();
    let mut mem: Memory = p.fresh_memory();
    let (_, mem_len, _) = mem.jit_view();
    let mut lowered: HashMap<u32, PackedGroup> = HashMap::new();
    for w in work {
        match *w {
            Work::Translate(entry) => {
                let t = Instant::now();
                let (group, cost) = black_box(translate_group_with_hints::<PpcIsa>(
                    &cfg,
                    &mem,
                    black_box(entry),
                    &Hints::default(),
                ));
                let dt = t.elapsed().as_nanos() as u64;
                out.sched_us.push(dt as f64 / 1e3);
                out.sched_ns += dt;
                out.sched_instrs += cost.instrs_scheduled;
                let t = Instant::now();
                let packed = black_box(PackedGroup::lower(&group));
                out.lower_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                lowered.insert(entry, packed);
            }
            Work::Compile(entry) => {
                let (Some(j), Some(packed)) = (jit.as_ref(), lowered.get(&entry)) else {
                    continue;
                };
                let compile = |j: &Jit| {
                    let t = Instant::now();
                    let r = j.compile(
                        packed,
                        entry,
                        cfg.page_size,
                        mem_len,
                        Memory::page_shift(),
                        CompileOpts::default(),
                    );
                    (black_box(r).map(drop), t.elapsed().as_nanos() as f64 / 1e3)
                };
                let (mut r, mut us) = compile(j);
                if r == Err(Refusal::ArenaFull) {
                    // Start a fresh arena, as a new system would.
                    *jit = Jit::new(DEFAULT_ARENA_BYTES);
                    if let Some(j) = jit.as_ref() {
                        (r, us) = compile(j);
                    }
                }
                if r.is_ok() {
                    out.compile_us.push(us);
                }
            }
        }
    }
}

/// Host microseconds of one `Jit::new`, median of [`ARENA_SAMPLES`].
fn arena_new_us() -> f64 {
    if !NATIVE_HOST {
        return 0.0;
    }
    let samples: Vec<f64> = (0..ARENA_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            drop(black_box(Jit::new(DEFAULT_ARENA_BYTES)));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// The traced run: alternates untraced and traced passes until
/// `seconds` have elapsed (at least one of each), then replays the
/// first traced pass's translations and compilations. Sets every
/// per-layer metric except those of the setup and the host, and
/// returns context lines.
pub fn run(
    wl: Workload,
    programs: &[Program],
    order: &mut Order,
    seconds: f64,
    cal: &mut Calibrator,
    checks: &mut Checks,
    report: &mut Report,
) -> Vec<String> {
    let mut cal_samples = Vec::new();
    let mut comparator_checks = Checks::default();
    let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
    let (mut infinite_ns, mut compared_instrs) = (0u64, 0u64);
    let mut steps = Steps::default();
    let mut first: Option<(PassCounters, Vec<Vec<Work>>)> = None;
    let mut passes = 0;
    let start = Instant::now();
    while passes == 0 || start.elapsed() < Duration::from_secs_f64(seconds) {
        passes += 1;
        cal_samples.push(cal.ns_per_step());
        for i in order.pass(programs.len()) {
            let p = &programs[i];
            let (sys, stop, ns) = suite::run(wl, p);
            checks.record(wl, p, &sys, &stop);
            untraced_ns += ns;
            if wl.finite_cache() {
                let (isys, istop, ins) = infinite_cache_run(wl, p);
                // Same program, other cache: its own counters.
                comparator_checks.record(wl, p, &isys, &istop);
                infinite_ns += ins;
                compared_instrs += p.instrs;
            }
        }
        let mut counters = PassCounters::default();
        let mut work = vec![Vec::new(); programs.len()];
        for i in order.pass(programs.len()) {
            let p = &programs[i];
            let w = first.is_none().then_some(&mut work[i]);
            let (sys, stop, ns) = traced_run(wl, p, &mut steps, &mut counters, w);
            checks.record(wl, p, &sys, &stop);
            traced_ns += ns;
        }
        first.get_or_insert((counters, work));
    }
    checks.attempted += comparator_checks.attempted;
    checks.failed += comparator_checks.failed;

    let (c, work) = first.expect("at least one traced pass");
    let mut jit = Jit::new(DEFAULT_ARENA_BYTES);
    let mut r = Replays::default();
    for (p, w) in programs.iter().zip(&work) {
        replay(wl, p, w, &mut jit, &mut r);
    }
    drop(jit);

    report.set("sched.translate_us_p50", median(&r.sched_us));
    report.set("sched.translate_us_p90", percentile(&r.sched_us, 90.0).value);
    report.set("sched.groups", c.groups as f64);
    let ns_per_sched = ratio(r.sched_ns as f64, r.sched_instrs as f64);
    report.set("sched.ns_per_sched_instr", ns_per_sched);
    report.set("packed.lower_us_p50", median(&r.lower_us));
    report.set("jit.compile_us_p50", median(&r.compile_us));
    report.set("jit.arena_new_us", arena_new_us());
    report.set("native.compiles", c.compiles as f64);
    report.set("native.refusals", c.refusals as f64);
    report.set("native.flushes", c.flushes as f64);
    report.set("native.bails", c.bails as f64);
    report.set("native.coverage", ratio(c.vliws_native as f64, c.vliws as f64));
    report.set("native.ibtc_hits", c.ibtc_hits as f64);
    report.set("vmm.castout_step_us_p50", median(&steps.castout_us));
    report.set("vmm.cast_outs", c.cast_outs as f64);
    report.set("vmm.dispatches", c.dispatches as f64);
    report.set("vmm.code_bytes_total", c.code_bytes_total as f64);
    report.set("step.exec_ns_p50", steps.exec.percentile(50.0));
    report.set("step.exec_ns_p99", steps.exec.percentile(99.0));
    report.set("step.count", c.steps as f64);
    report.set("step.xlate_wall_share", ratio(steps.xlate_ns as f64, steps.all_ns as f64));
    report.set("chain.chained_ratio", ratio(c.chained as f64, c.all_dispatches as f64));
    report.set("chain.icache_hit_ratio", ratio(c.icache_hits as f64, c.icache_lookups as f64));
    report.set("engine.ns_per_vliw", ratio(steps.exec_ns as f64, steps.exec_vliws as f64));
    report.set("engine.vliws", c.vliws as f64);
    report.set("engine.alias_failures", c.alias_failures as f64);
    // Zero outside `sim_suite`, where nothing was compared.
    let cache_ns = ratio(untraced_ns as f64 - infinite_ns as f64, compared_instrs as f64);
    report.set("cachesim.ns_per_instr", cache_ns);
    report.set("cachesim.l1i_miss_ratio", ratio(c.l1i.1 as f64, c.l1i.0 as f64));
    report.set("cachesim.l1d_miss_ratio", ratio(c.l1d.1 as f64, c.l1d.0 as f64));
    report.set("cachesim.stall_cycles", c.stall_cycles as f64);
    report.set("trace.overhead_ratio", ratio(traced_ns as f64, untraced_ns as f64));
    report.set("host.calibration_ns_per_step", median(&cal_samples));
    vec![
        format!(
            "trace {{\"workload\": \"{}\", \"pass_pairs\": {passes}, \"steps_timed\": {}, \
             \"translations_replayed\": {}, \"compiles_replayed\": {}, \"measured_s\": {:.3}}}",
            wl.name(),
            steps.timed,
            r.sched_us.len(),
            r.compile_us.len(),
            start.elapsed().as_secs_f64()
        ),
        format!(
            "sched: {ns_per_sched:.1} host ns per scheduled guest instruction \
             (paper §5.1: 4315 RS/6000 instructions per translated instruction)"
        ),
    ]
}
