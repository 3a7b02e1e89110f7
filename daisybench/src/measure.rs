//! The untraced run: end-to-end metrics only, nothing timed inside a
//! program run.

use crate::calib::{self, Calibrator};
use crate::report::Report;
use crate::stats::{geomean, median, percentile, samples_for_tail};
use crate::suite::{self, Checks, Order, Program, Workload};
use std::time::{Duration, Instant};

/// Percentile reported as the tail of per-run host time.
pub const TAIL_PERCENTILE: f64 = 90.0;

/// Samples the tail percentile needs above it.
pub const TAIL_SUPPORT: usize = 10;

/// Runs whole passes over the programs (each pass draws all of them in
/// a seeded order) until `seconds` have elapsed and the tail percentile
/// has [`TAIL_SUPPORT`] samples beyond it. Each run's host time is
/// rescaled to the reference host by the calibration taken around it.
/// Sets `ns_per_guest_instr` (median over passes of the pass's time per
/// guest instruction), `ns_per_guest_instr_p90` (over single program
/// runs) and `guest_ilp`. Returns context lines: the sample counts, the
/// same figures before rescaling, and each program's median.
pub fn run(
    wl: Workload,
    programs: &[Program],
    order: &mut Order,
    seconds: f64,
    cal: &mut Calibrator,
    checks: &mut Checks,
    report: &mut Report,
) -> Vec<String> {
    let min_runs = samples_for_tail(TAIL_PERCENTILE, TAIL_SUPPORT);
    let suite_instrs = programs.iter().map(|p| p.instrs).sum::<u64>() as f64;
    let (mut per_pass, mut raw_per_pass) = (Vec::new(), Vec::new());
    let (mut per_run, mut raw_per_run) = (Vec::new(), Vec::new());
    let mut per_program = vec![Vec::new(); programs.len()];
    let mut ilp = vec![None; programs.len()];
    let mut before = cal.ns_per_step();
    let mut cal_samples = vec![before];
    let start = Instant::now();
    while per_run.len() < min_runs || start.elapsed() < Duration::from_secs_f64(seconds) {
        let (mut pass_ns, mut raw_pass_ns) = (0.0, 0.0);
        for i in order.pass(programs.len()) {
            let p = &programs[i];
            let (sys, stop, ns) = suite::run(wl, p);
            let after = cal.ns_per_step();
            checks.record(wl, p, &sys, &stop);
            let (raw, ns) = (ns as f64, calib::to_reference(ns as f64, before, after));
            before = after;
            cal_samples.push(after);
            pass_ns += ns;
            raw_pass_ns += raw;
            let instrs = p.instrs as f64;
            per_run.push(ns / instrs);
            raw_per_run.push(raw / instrs);
            per_program[i].push(ns / instrs);
            ilp[i].get_or_insert_with(|| {
                if wl.finite_cache() {
                    sys.stats.finite_ilp(p.instrs)
                } else {
                    sys.stats.pathlength_reduction(p.instrs)
                }
            });
        }
        per_pass.push(pass_ns / suite_instrs);
        raw_per_pass.push(raw_pass_ns / suite_instrs);
    }
    let tail = percentile(&per_run, TAIL_PERCENTILE);
    report.set("ns_per_guest_instr", median(&per_pass));
    report.set("ns_per_guest_instr_p90", tail.value);
    report.set("guest_ilp", geomean(&ilp.into_iter().flatten().collect::<Vec<_>>()));
    let rows: Vec<String> = programs
        .iter()
        .enumerate()
        .map(|(i, p)| format!("\"{}\": {:.4}", p.w.name, median(&per_program[i])))
        .collect();
    vec![
        format!(
            "samples {{\"workload\": \"{}\", \"passes\": {}, \"program_runs\": {}, \
             \"p90_samples_beyond\": {}, \"measured_s\": {:.3}}}",
            wl.name(),
            per_pass.len(),
            tail.samples,
            tail.beyond,
            start.elapsed().as_secs_f64()
        ),
        format!(
            "unscaled {{\"ns_per_guest_instr\": {:.4}, \"ns_per_guest_instr_p90\": {:.4}, \
             \"calibration_ns_per_step\": {:.4}, \"reference_ns_per_step\": {}}}",
            median(&raw_per_pass),
            percentile(&raw_per_run, TAIL_PERCENTILE).value,
            median(&cal_samples),
            calib::REFERENCE_NS
        ),
        format!("programs_ns_per_guest_instr {{{}}}", rows.join(", ")),
    ]
}
