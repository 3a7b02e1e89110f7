//! Oracle parallelism (paper Chapter 6).
//!
//! "The amount of parallelism possible in a machine with unlimited
//! resources and which schedules every operation at the earliest
//! possible time allowed by control and data dependences." The oracle
//! scheduler consumes the *dynamic trace* (perfect branch resolution),
//! converts each base instruction to the same RISC primitives the
//! translator uses, and places every primitive at the earliest cycle
//! its inputs allow — optionally capped by a machine configuration to
//! get the paper's "practical intermediate points on the way to oracle
//! level parallelism".
//!
//! Dependences honored: register flow (true) dependences with full
//! renaming (anti/output ignored), store→load and store→store memory
//! dependences at word granularity. Loads may bypass stores they do
//! not conflict with, mirroring DAISY's own aggressive reordering.

use daisy_isa::convert::Flow;
use daisy_isa::mem::Memory;
use daisy_isa::{Event, GuestCpu, Isa, StopReason};
use daisy_vliw::machine::{MachineConfig, ResClass, ResCounts};
use daisy_vliw::op::{OpKind, Operation};
use daisy_vliw::reg::NUM_REGS;
use std::collections::HashMap;

/// Outcome of an oracle scheduling run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleResult {
    /// Base instructions in the trace.
    pub instrs: u64,
    /// RISC primitives scheduled.
    pub ops: u64,
    /// Schedule length in cycles.
    pub cycles: u64,
}

impl OracleResult {
    /// Oracle ILP: base instructions per cycle.
    pub fn ilp(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }
}

/// Streaming oracle scheduler: feed the dynamic trace one instruction
/// at a time.
#[derive(Debug)]
pub struct OracleScheduler {
    machine: Option<MachineConfig>,
    ready: [u64; NUM_REGS],
    store_ready: HashMap<u32, u64>,
    usage: Vec<ResCounts>,
    /// Earliest cycle that may still have room, per class
    /// (alu/load/store/branch). Cycles below a frontier are full for
    /// that class forever, so scans never revisit them.
    frontier: [u64; 4],
    max_cycle: u64,
    instrs: u64,
    ops: u64,
    /// The primitives of the instruction being fed.
    converted: Vec<Operation>,
}

impl OracleScheduler {
    /// Unlimited resources when `machine` is `None`; otherwise each
    /// cycle is capped by the configuration (resource-constrained
    /// oracle).
    pub fn new(machine: Option<MachineConfig>) -> OracleScheduler {
        OracleScheduler {
            machine,
            ready: [0; NUM_REGS],
            store_ready: HashMap::new(),
            usage: Vec::new(),
            frontier: [0; 4],
            max_cycle: 0,
            instrs: 0,
            ops: 0,
            converted: Vec::new(),
        }
    }

    fn slot_for(&mut self, earliest: u64, class: Option<ResClass>, branch: bool) -> u64 {
        let Some(m) = &self.machine else { return earliest };
        let fi = if branch {
            3
        } else {
            match class {
                Some(ResClass::Alu) | None => 0,
                Some(ResClass::Load) => 1,
                Some(ResClass::Store) => 2,
            }
        };
        let start = earliest.max(self.frontier[fi]);
        let mut c = start;
        loop {
            let i = c as usize;
            if i >= self.usage.len() {
                self.usage.resize(i + 1, ResCounts::default());
            }
            let u = &mut self.usage[i];
            let fits = if branch {
                m.has_branch_room(u)
            } else {
                match class {
                    Some(cl) => m.has_room(u, cl),
                    None => true,
                }
            };
            if fits {
                if branch {
                    u.branches += 1;
                } else if let Some(cl) = class {
                    match cl {
                        ResClass::Alu => u.alu += 1,
                        ResClass::Load => u.loads += 1,
                        ResClass::Store => u.stores += 1,
                    }
                }
                // Cycles in start..c were full for this class; if the
                // scan began at the frontier they can never be offered
                // again, so advance it.
                if start == self.frontier[fi] {
                    self.frontier[fi] = c;
                }
                return c;
            }
            c += 1;
        }
    }

    /// Feeds one executed instruction of guest ISA `I`. `ea` is the
    /// effective address of a memory access, when the instruction makes
    /// one (pre-execution state); multi-word transfers pass their
    /// starting address.
    pub fn feed<I: Isa>(&mut self, pc: u32, insn: &I::Insn, ea: Option<u32>) {
        self.instrs += 1;
        let mut converted = std::mem::take(&mut self.converted);
        converted.clear();
        let conv = I::convert(insn, pc, &mut converted);
        let mut mem_idx = 0u32;
        for op in &converted {
            self.ops += 1;
            let mut start = op.srcs().iter().map(|s| self.ready[s.index()]).max().unwrap_or(0);
            let class = match op.kind {
                OpKind::Load { .. } => Some(ResClass::Load),
                OpKind::Store { .. } => Some(ResClass::Store),
                _ => Some(ResClass::Alu),
            };
            if let Some(base_ea) = ea {
                if op.kind.is_mem() {
                    let word = base_ea.wrapping_add(4 * mem_idx) / 4;
                    if let Some(&t) = self.store_ready.get(&word) {
                        start = start.max(t);
                    }
                    mem_idx += 1;
                }
            }
            let cycle = self.slot_for(start, class, false);
            let finish = cycle + 1;
            for d in [op.dest, op.dest2].into_iter().flatten() {
                self.ready[d.index()] = finish;
            }
            if op.kind.is_store() {
                if let Some(base_ea) = ea {
                    let word = base_ea.wrapping_add(4 * (mem_idx - 1)) / 4;
                    self.store_ready.insert(word, finish);
                }
            }
            self.max_cycle = self.max_cycle.max(finish);
        }
        // Branches consume a branch slot in resource mode but add no
        // dataflow constraint (perfect prediction).
        if matches!(
            conv.flow,
            Flow::Jump { .. }
                | Flow::CondJump { .. }
                | Flow::IndirectJump { .. }
                | Flow::CondIndirect { .. }
        ) && self.machine.is_some()
        {
            let c = self.slot_for(0, None, true);
            self.max_cycle = self.max_cycle.max(c + 1);
        }
        self.converted = converted;
    }

    /// Finishes the run.
    pub fn result(&self) -> OracleResult {
        OracleResult { instrs: self.instrs, ops: self.ops, cycles: self.max_cycle }
    }
}

/// Runs the guest's reference interpreter over a loaded program,
/// feeding the oracle scheduler with the dynamic trace.
pub fn run_oracle<I: Isa>(
    mem: &mut Memory,
    entry: u32,
    machine: Option<MachineConfig>,
    max_instrs: u64,
) -> OracleResult {
    let mut cpu = <I::Cpu as GuestCpu>::new(entry);
    let mut sched = OracleScheduler::new(machine);
    for _ in 0..max_instrs {
        let Ok(insn) = cpu.fetch(mem) else { break };
        let ea = cpu.effective_address(&insn);
        let pc = cpu.pc();
        let ev = cpu.execute(mem, insn);
        match ev {
            Event::Continue => sched.feed::<I>(pc, &insn, ea),
            _ => break,
        }
    }
    sched.result()
}

/// Convenience: interpret and schedule, returning `(oracle, stop)`.
pub fn run_oracle_to_stop<I: Isa>(
    mem: &mut Memory,
    entry: u32,
    machine: Option<MachineConfig>,
    max_instrs: u64,
) -> (OracleResult, StopReason) {
    let mut cpu = <I::Cpu as GuestCpu>::new(entry);
    let mut sched = OracleScheduler::new(machine);
    let mut n = 0u64;
    let stop = loop {
        if n >= max_instrs {
            break StopReason::MaxInstrs;
        }
        let insn = match cpu.fetch(mem) {
            Ok(i) => i,
            Err(_) => break StopReason::StorageFault { addr: cpu.pc(), write: false, fetch: true },
        };
        let ea = cpu.effective_address(&insn);
        let pc = cpu.pc();
        match cpu.execute(mem, insn) {
            Event::Continue => sched.feed::<I>(pc, &insn, ea),
            Event::Syscall => {
                sched.feed::<I>(pc, &insn, ea);
                break StopReason::Syscall;
            }
            Event::Trap => break StopReason::Trap,
            Event::Program => break StopReason::Program,
            Event::Dsi { addr, write } => {
                break StopReason::StorageFault { addr, write, fetch: false }
            }
            Event::Isi => {
                break StopReason::StorageFault { addr: cpu.pc(), write: false, fetch: true }
            }
        }
        n += 1;
    };
    (sched.result(), stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_ppc::asm::Asm;
    use daisy_ppc::reg::Gpr;

    fn oracle_of(build: impl FnOnce(&mut Asm), machine: Option<MachineConfig>) -> OracleResult {
        let mut a = Asm::new(0x1000);
        build(&mut a);
        let prog = a.finish().unwrap();
        let mut mem = Memory::new(0x40000);
        prog.load_into(&mut mem).unwrap();
        let (r, stop) =
            run_oracle_to_stop::<daisy_ppc::PpcIsa>(&mut mem, prog.entry, machine, 10_000_000);
        assert_eq!(stop, StopReason::Syscall);
        r
    }

    #[test]
    fn independent_ops_schedule_in_one_cycle() {
        let r = oracle_of(
            |a| {
                a.add(Gpr(3), Gpr(1), Gpr(2));
                a.add(Gpr(4), Gpr(1), Gpr(2));
                a.add(Gpr(5), Gpr(1), Gpr(2));
                a.sc();
            },
            None,
        );
        assert_eq!(r.cycles, 1);
        assert_eq!(r.instrs, 4); // incl. sc
    }

    #[test]
    fn dependence_chain_takes_one_cycle_each() {
        let r = oracle_of(
            |a| {
                a.add(Gpr(3), Gpr(1), Gpr(2));
                a.add(Gpr(4), Gpr(3), Gpr(3));
                a.add(Gpr(5), Gpr(4), Gpr(4));
                a.sc();
            },
            None,
        );
        assert_eq!(r.cycles, 3);
    }

    #[test]
    fn loop_iterations_overlap_with_renaming() {
        // A counted loop whose bodies are independent: oracle ILP far
        // exceeds 1 despite the sequential CTR updates... CTR itself
        // serializes at 1/cycle, so cycles ≈ iterations; the point is
        // the body does not add to the critical path.
        let r = oracle_of(
            |a| {
                a.li(Gpr(4), 50);
                a.mtctr(Gpr(4));
                a.label("loop");
                a.add(Gpr(3), Gpr(1), Gpr(2));
                a.add(Gpr(5), Gpr(1), Gpr(2));
                a.add(Gpr(6), Gpr(1), Gpr(2));
                a.bdnz("loop");
                a.sc();
            },
            None,
        );
        assert!(r.ilp() > 3.0, "oracle ILP {} should exceed 3", r.ilp());
    }

    #[test]
    fn store_load_flow_dependence_enforced() {
        let r = oracle_of(
            |a| {
                a.li32(Gpr(1), 0x9000);
                a.li(Gpr(3), 7);
                a.stw(Gpr(3), 0, Gpr(1));
                a.lwz(Gpr(4), 0, Gpr(1));
                a.add(Gpr(5), Gpr(4), Gpr(4));
                a.sc();
            },
            None,
        );
        // li32→(li,st) → ld → add is a 4-deep chain (store at cycle 2).
        assert!(r.cycles >= 4, "cycles = {}", r.cycles);
    }

    #[test]
    fn resource_cap_reduces_ilp() {
        let build = |a: &mut Asm| {
            for i in 0..16u8 {
                a.add(Gpr(3 + (i % 8)), Gpr(1), Gpr(2));
            }
            a.sc();
        };
        let unlimited = oracle_of(build, None);
        let capped = oracle_of(build, Some(MachineConfig::new(2, 2, 2, 1, 2)));
        assert!(unlimited.cycles < capped.cycles);
        assert!(capped.cycles >= 8); // 16 adds / 2 ALUs
    }
}
