//! Quickstart: assemble a PowerPC program, run it under DAISY, and see
//! what the dynamic translator did with it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use daisy::prelude::*;
use daisy::sched::translate_group;
use daisy_ppc::interp::Cpu;
use daisy_ppc::mem::Memory;
use daisy_ppc::reg::CrField;
use daisy_ppc::PpcIsa;
use daisy_ppc::{Asm, Gpr};

fn main() {
    // A PowerPC program: sum of squares 1..=100 via a counted loop.
    let mut a = Asm::new(0x1000);
    a.li(Gpr(3), 0); // acc
    a.li(Gpr(4), 100);
    a.mtctr(Gpr(4));
    a.label("loop");
    a.mfctr(Gpr(5));
    a.mullw(Gpr(6), Gpr(5), Gpr(5));
    a.add(Gpr(3), Gpr(3), Gpr(6));
    a.bdnz("loop");
    a.cmpwi(CrField(0), Gpr(3), 0);
    a.sc();
    let prog = a.finish().expect("assembles");

    // Reference semantics: the plain interpreter.
    let mut mem = Memory::new(0x10000);
    prog.load_into(&mut mem).unwrap();
    let mut cpu = Cpu::new(prog.entry);
    cpu.run(&mut mem, 100_000).unwrap();
    println!("interpreter: r3 = {} after {} instructions", cpu.gpr[3], cpu.ninstrs);

    // The same binary under DAISY: translated to VLIW tree code on
    // first touch, then executed in parallel.
    let mut sys = DaisySystem::<PpcIsa>::builder().mem_size(0x10000).build();
    sys.load(&prog).unwrap();
    sys.run(1_000_000).unwrap();
    println!(
        "DAISY:       r3 = {} in {} VLIWs  (ILP = {:.2})",
        sys.cpu.gpr[3],
        sys.stats.vliws_executed,
        sys.stats.pathlength_reduction(cpu.ninstrs)
    );
    assert_eq!(sys.cpu.gpr[3], cpu.gpr[3], "architected state must match");

    // Peek at the translation itself: the VMM keeps only the packed
    // form it runs, so translate the entry again for the tree form.
    assert!(sys.vmm.lookup(prog.entry).is_some(), "translated");
    let (group, _) = translate_group::<PpcIsa>(&sys.vmm.cfg, &sys.mem, prog.entry);
    println!(
        "\nthe entry group has {} tree instructions; the first is:\n{}",
        group.len(),
        group.vliws[0]
    );
}
