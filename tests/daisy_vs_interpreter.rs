//! End-to-end equivalence: every workload must produce identical
//! architected state under DAISY translation and under the reference
//! interpreter — the paper's "100% architectural compatibility" claim,
//! checked bit for bit.

mod common;

use common::{assert_same, run_workload_oracle};
use daisy::system::DaisySystem;
use daisy_ppc::interp::StopReason;
use daisy_ppc::PpcIsa;
use daisy_workloads::Workload;

fn run_daisy(w: &Workload) -> DaisySystem<PpcIsa> {
    let prog = w.program();
    let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(w.mem_size).build();
    sys.load(&prog).unwrap();
    let stop = sys.run(10 * w.max_instrs).unwrap();
    assert_eq!(stop, StopReason::Syscall, "{}: DAISY run did not finish", w.name);
    sys
}

#[test]
fn all_workloads_match_reference_state() {
    for w in daisy_workloads::all() {
        let (ref_cpu, ref_mem) = run_workload_oracle(&w);
        let sys = run_daisy(&w);

        // Registers, PC and the full memory image.
        assert_same(&sys, &ref_cpu, &ref_mem, w.name);

        // And the workload's own semantic checker.
        w.check(&sys.cpu, &sys.mem)
            .unwrap_or_else(|e| panic!("{}: checker failed under DAISY: {e}", w.name));
    }
}

#[test]
fn finite_caches_never_change_semantics() {
    // The cache simulator only stretches time; architected results must
    // be identical under both of the paper's hierarchies.
    use daisy::sched::TranslatorConfig;
    use daisy_cachesim::Hierarchy;
    for name in ["c_sieve", "hist", "wc"] {
        let w = daisy_workloads::by_name(name).unwrap();
        let (ref_cpu, _) = run_workload_oracle(&w);
        for cache in [Hierarchy::paper_default(), Hierarchy::paper_eight_issue()] {
            let prog = w.program();
            let mut sys = daisy::system::DaisySystem::<PpcIsa>::builder()
                .mem_size(w.mem_size)
                .translator(TranslatorConfig::default())
                .cache(cache)
                .build();
            sys.load(&prog).unwrap();
            let stop = sys.run(200 * w.max_instrs).unwrap();
            assert_eq!(stop, StopReason::Syscall, "{name}: finite-cache run did not finish");
            assert_eq!(sys.cpu.gpr, ref_cpu.gpr, "{name}: GPRs diverged under finite cache");
            w.check(&sys.cpu, &sys.mem).unwrap();
        }
    }
}

#[test]
fn daisy_extracts_parallelism_on_every_workload() {
    for w in daisy_workloads::all() {
        let (ref_cpu, _) = run_workload_oracle(&w);
        let sys = run_daisy(&w);
        let ilp = sys.stats.pathlength_reduction(ref_cpu.ninstrs);
        assert!(
            ilp > 1.2,
            "{}: pathlength reduction {ilp:.2} is too low ({} base instrs, {} VLIWs)",
            w.name,
            ref_cpu.ninstrs,
            sys.stats.vliws_executed
        );
    }
}
