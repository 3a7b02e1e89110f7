//! Inspect DAISY's output: run a workload, then list the translated
//! groups — tree instructions, parcels, renames, commits, exits — the
//! way Appendix C walks through Figure 2.2.
//!
//! ```sh
//! cargo run --release --example inspect [workload] [max_vliws]
//! ```

use daisy::prelude::*;
use daisy::sched::translate_group;
use daisy_ppc::PpcIsa;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "c_sieve".to_owned());
    let max_vliws: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(6);
    let w = daisy_workloads::by_name(&name).unwrap_or_else(|| panic!("unknown workload `{name}`"));
    let prog = w.program();

    let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(w.mem_size).build();
    sys.load(&prog).unwrap();
    sys.run(50 * w.max_instrs).unwrap();
    w.check(&sys.cpu, &sys.mem).expect("workload result verified");

    println!(
        "{name}: {} groups on {} pages, {} bytes of VLIW code, {} VLIWs executed\n",
        sys.vmm.stats.groups_translated,
        sys.vmm.stats.pages_translated,
        sys.vmm.stats.code_bytes,
        sys.stats.vliws_executed
    );

    // Show the entry group's tree code next to the base instructions.
    // The VMM keeps only the packed form it runs, so translate the
    // entry again (same configuration, same memory) for the tree form.
    let entry = prog.entry;
    assert!(sys.vmm.lookup(entry).is_some(), "entry translated");
    let (group, _) = translate_group::<PpcIsa>(&sys.vmm.cfg, &sys.mem, entry);
    println!("=== base instructions at {entry:#x} ===");
    for i in 0..12u32 {
        let addr = entry + 4 * i;
        if let Ok(word) = sys.mem.read_u32(addr) {
            println!("  {addr:#x}: {}", daisy_ppc::decode(word));
        }
    }
    println!("\n=== translated group at {entry:#x} ({} VLIWs) ===", group.len());
    for (i, v) in group.vliws.iter().take(max_vliws).enumerate() {
        println!("[{i}] {v}");
    }
    if group.len() > max_vliws {
        println!("… {} more VLIWs (pass a larger max)", group.len() - max_vliws);
    }
}
