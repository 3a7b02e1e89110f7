//! Shared plumbing for the `profile` and `report` binaries: workload
//! resolution, the profiled-run harness, the guest-level metric
//! bundle, and the `BENCH_report.json` serializer.
//!
//! Both binaries run workloads to completion under checked conditions
//! ([`run_profiled`] panics if a workload fails its result check — a
//! report over wrong answers is worse than no report); the `report`
//! binary renders [`WorkloadReport`]s, the `profile` binary enlarges
//! the flight recorder and renders per-group tables; both read guest
//! profiling.

use crate::runner::run_reference;
use daisy::prelude::*;
use daisy::profile::chrome_trace_json;
use daisy::trace::DEFAULT_FLIGHT_RECORDER_CAPACITY;
use daisy_ppc::PpcIsa;
use daisy_workloads::Workload;
use std::fmt::Write as _;

/// Configuration for one profiled run (see [`run_profiled`]).
pub struct RunConfig {
    /// Cache hierarchy (default infinite).
    pub cache: Hierarchy,
    /// Trace events the flight recorder keeps (default
    /// [`DEFAULT_FLIGHT_RECORDER_CAPACITY`]).
    pub flight_recorder_capacity: usize,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            cache: Hierarchy::infinite(),
            flight_recorder_capacity: DEFAULT_FLIGHT_RECORDER_CAPACITY,
        }
    }
}

/// Resolves workload names to [`Workload`]s; an empty list means all
/// nine. Panics on an unknown name, listing the valid ones.
pub fn resolve_workloads(names: &[String]) -> Vec<Workload> {
    if names.is_empty() {
        return daisy_workloads::all();
    }
    names
        .iter()
        .map(|n| {
            daisy_workloads::by_name(n).unwrap_or_else(|| {
                let known: Vec<&str> = daisy_workloads::all().iter().map(|w| w.name).collect();
                panic!("unknown workload: {n} (expected one of {})", known.join(", "))
            })
        })
        .collect()
}

/// Runs `w` to completion under DAISY with guest-level attribution
/// ([`daisy::profile`]) and the given extras, asserting the workload's
/// result check.
pub fn run_profiled(w: &Workload, cfg: RunConfig) -> DaisySystem<PpcIsa> {
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(w.mem_size)
        .cache(cfg.cache)
        .guest_profiling(true)
        .flight_recorder_capacity(cfg.flight_recorder_capacity)
        .build();
    sys.load(&w.program()).expect("workload fits in memory");
    sys.run(50 * w.max_instrs).expect("workload completes");
    w.check(&sys.cpu, &sys.mem).unwrap_or_else(|e| panic!("{}: check failed: {e}", w.name));
    sys
}

/// The five guest-level metrics the `report` binary publishes per
/// workload (plus the raw counts behind them).
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Workload name.
    pub name: &'static str,
    /// Exact dynamic base-instruction count (reference interpreter).
    pub base_instrs: u64,
    /// ILP with the finite cache model's stalls charged.
    pub finite_ilp: f64,
    /// Infinite-ILP pathlength reduction (stall-free; same VLIW
    /// stream, so one finite-cache run yields both).
    pub infinite_ilp: f64,
    /// Mean parcels per retired VLIW (taken path).
    pub ops_per_vliw: f64,
    /// Modeled VMM overhead cycles per base instruction (§4.2 buckets:
    /// translate, retranslate, chain maintenance, interpret).
    pub overhead_per_base_instr: f64,
    /// Fraction of executed speculative parcels whose results were
    /// never needed on the taken path.
    pub waste_fraction: f64,
    /// Speculative parcels executed.
    pub spec_ops: u64,
    /// Speculative parcels wasted.
    pub wasted_spec_ops: u64,
}

/// Runs `w` once under the paper's finite cache with guest profiling
/// and distills the metric bundle; returns the system too so callers
/// can export traces from the same run.
pub fn report_workload(w: &Workload) -> (WorkloadReport, DaisySystem<PpcIsa>) {
    let base_instrs = run_reference(w).ninstrs;
    let sys =
        run_profiled(w, RunConfig { cache: Hierarchy::paper_default(), ..RunConfig::default() });
    let gp = sys.guest_profile().expect("guest profiling enabled");
    let overhead = gp.overhead().report(&sys.stats);
    let report = WorkloadReport {
        name: w.name,
        base_instrs,
        finite_ilp: sys.stats.finite_ilp(base_instrs),
        infinite_ilp: sys.stats.pathlength_reduction(base_instrs),
        ops_per_vliw: sys.stats.mean_parcels_per_vliw(),
        overhead_per_base_instr: overhead.per_base_instr(base_instrs),
        waste_fraction: gp.waste_fraction(),
        spec_ops: gp.spec_ops(),
        wasted_spec_ops: gp.wasted_spec_ops(),
    };
    (report, sys)
}

/// Renders the Chrome trace for a completed guest-profiled run.
pub fn chrome_trace_for(sys: &DaisySystem<PpcIsa>, workload: &str) -> String {
    let gp = sys.guest_profile().expect("guest profiling enabled");
    chrome_trace_json(gp, workload)
}

fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = xs.filter(|x| *x > 0.0).collect();
    if v.is_empty() {
        0.0
    } else {
        (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "0.0".to_owned()
    }
}

/// Serializes the reports as the `BENCH_report.json` document:
///
/// ```json
/// {
///   "cache": "paper_default",
///   "workloads": [ { "name": ..., "base_instrs": ...,
///     "finite_ilp": ..., "infinite_ilp": ..., "ops_per_vliw": ...,
///     "overhead_per_base_instr": ..., "waste_fraction": ...,
///     "spec_ops": ..., "wasted_spec_ops": ... }, ... ],
///   "geomean": { "finite_ilp": ..., "infinite_ilp": ... }
/// }
/// ```
pub fn report_json(reports: &[WorkloadReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"cache\": \"paper_default\",\n  \"workloads\": [\n");
    for (i, r) in reports.iter().enumerate() {
        // invariant: write! to a String cannot fail.
        #[allow(clippy::unwrap_used)]
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"base_instrs\": {}, \"finite_ilp\": {}, \
             \"infinite_ilp\": {}, \"ops_per_vliw\": {}, \"overhead_per_base_instr\": {}, \
             \"waste_fraction\": {}, \"spec_ops\": {}, \"wasted_spec_ops\": {}}}{}",
            r.name,
            r.base_instrs,
            json_num(r.finite_ilp),
            json_num(r.infinite_ilp),
            json_num(r.ops_per_vliw),
            json_num(r.overhead_per_base_instr),
            json_num(r.waste_fraction),
            r.spec_ops,
            r.wasted_spec_ops,
            if i + 1 < reports.len() { "," } else { "" },
        )
        .unwrap();
    }
    // invariant: write! to a String cannot fail.
    #[allow(clippy::unwrap_used)]
    write!(
        out,
        "  ],\n  \"geomean\": {{\"finite_ilp\": {}, \"infinite_ilp\": {}}}\n}}\n",
        json_num(geomean(reports.iter().map(|r| r.finite_ilp))),
        json_num(geomean(reports.iter().map(|r| r.infinite_ilp))),
    )
    .unwrap();
    out
}
