//! Shared plumbing for the `profile` binary and `repro`'s
//! guest-profile table: workload resolution, the profiled-run harness
//! and the guest-level metric bundle.
//!
//! Every profiled run goes to completion under the paper's finite
//! cache and checked conditions ([`run_profiled`] panics if a workload
//! fails its result check — a profile over wrong answers is worse than
//! none); `repro` prints [`WorkloadReport`]s, and the `profile` binary
//! enlarges the flight recorder, renders per-group tables and writes
//! the trace exports.

use crate::runner::run_reference;
use daisy::prelude::*;
use daisy::trace::DEFAULT_FLIGHT_RECORDER_CAPACITY;
use daisy_ppc::PpcIsa;
use daisy_workloads::Workload;

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

/// Runs `w` to completion under DAISY with the paper's finite cache
/// ([`Hierarchy::paper_default`]), guest-level attribution
/// ([`daisy::profile`]) and a flight recorder keeping
/// `flight_recorder_capacity` events, asserting the workload's result
/// check.
pub fn run_profiled(w: &Workload, flight_recorder_capacity: usize) -> DaisySystem<PpcIsa> {
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(w.mem_size)
        .cache(Hierarchy::paper_default())
        .guest_profiling(true)
        .flight_recorder_capacity(flight_recorder_capacity)
        .build();
    sys.load(&w.program()).expect("workload fits in memory");
    sys.run(50 * w.max_instrs).expect("workload completes");
    w.check(&sys.cpu, &sys.mem).unwrap_or_else(|e| panic!("{}: check failed: {e}", w.name));
    sys
}

/// The five guest-level metrics `repro`'s guest-profile table prints
/// per workload (plus the raw counts behind them).
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
/// and distills the metric bundle.
pub fn report_workload(w: &Workload) -> WorkloadReport {
    let base_instrs = run_reference(w).ninstrs;
    let sys = run_profiled(w, DEFAULT_FLIGHT_RECORDER_CAPACITY);
    let gp = sys.guest_profile().expect("guest profiling enabled");
    let overhead = gp.overhead().report(&sys.stats);
    WorkloadReport {
        name: w.name,
        base_instrs,
        finite_ilp: sys.stats.finite_ilp(base_instrs),
        infinite_ilp: sys.stats.pathlength_reduction(base_instrs),
        ops_per_vliw: sys.stats.mean_parcels_per_vliw(),
        overhead_per_base_instr: overhead.per_base_instr(base_instrs),
        waste_fraction: gp.waste_fraction(),
        spec_ops: gp.spec_ops(),
        wasted_spec_ops: gp.wasted_spec_ops(),
    }
}
