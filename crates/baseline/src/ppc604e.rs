//! A PowerPC 604E-like in-order timing model (Table 5.3's comparator).
//!
//! The paper compares DAISY's finite-cache ILP against "a PowerPC 604E
//! with 128 Mbytes of memory", where the 604E achieves a mean of only
//! 0.7 sustained instructions per cycle on these workloads. This model
//! captures the first-order effects that produce that number: limited
//! issue width, in-order issue blocked by register dependences,
//! multi-cycle latencies for multiplies/divides/loads, a static-
//! prediction branch penalty, and the same cache hierarchy DAISY is
//! measured with.
//!
//! The instruction stream is decomposed through the *same* RISC
//! primitive converter the translator uses, so CISCy instructions
//! (`lmw`, record forms) naturally occupy multiple issue slots.

use daisy_cachesim::Hierarchy;
use daisy_isa::convert::Flow;
use daisy_isa::GuestCpu;
use daisy_ppc::asm::Program;
use daisy_ppc::convert::convert;
use daisy_ppc::interp::{Cpu, Event, StopReason};
use daisy_ppc::mem::Memory;
use daisy_vliw::op::OpKind;
use daisy_vliw::reg::NUM_REGS;

/// Microarchitectural parameters.
#[derive(Debug, Clone)]
pub struct P604Config {
    /// Sustained issue width (primitives per cycle).
    pub issue: u64,
    /// Cycles lost on a conditional-branch misprediction.
    pub mispredict_penalty: u64,
    /// Extra latency of a multiply.
    pub mul_latency: u64,
    /// Extra latency of a divide.
    pub div_latency: u64,
    /// Load-use latency on a cache hit.
    pub load_latency: u64,
}

impl Default for P604Config {
    fn default() -> Self {
        P604Config {
            issue: 2,
            mispredict_penalty: 3,
            mul_latency: 4,
            div_latency: 20,
            load_latency: 2,
        }
    }
}

/// Result of a 604E model run.
#[derive(Debug, Clone, Copy)]
pub struct P604Result {
    /// Base instructions retired.
    pub instrs: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// How the run stopped.
    pub stop: StopReason,
}

impl P604Result {
    /// Sustained instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }
}

/// Runs the timing model over a loaded program.
pub fn run(
    prog: &Program,
    mem_size: u32,
    cfg: &P604Config,
    mut cache: Hierarchy,
    max_instrs: u64,
) -> P604Result {
    let mut mem = Memory::new(mem_size);
    prog.load_into(&mut mem).expect("program fits");
    let mut cpu = Cpu::new(prog.entry);

    let mut cycle: u64 = 0;
    let mut slots_used: u64 = 0;
    let mut ready = [0u64; NUM_REGS];
    let mut instrs = 0u64;

    let stop = loop {
        if instrs >= max_instrs {
            break StopReason::MaxInstrs;
        }
        let insn = match cpu.fetch(&mem) {
            Ok(i) => i,
            Err(_) => break StopReason::StorageFault { addr: cpu.pc, write: false, fetch: true },
        };
        let pc = cpu.pc;
        let ea = GuestCpu::effective_address(&cpu, &insn);

        // Instruction fetch through the I-side hierarchy.
        cycle += u64::from(cache.access_instr(pc).penalty);

        let conv = convert(&insn, pc);
        for op in &conv.ops {
            // In-order issue: stall until operands are ready.
            let ready_at = op.srcs().iter().map(|s| ready[s.index()]).max().unwrap_or(0);
            if ready_at > cycle {
                cycle = ready_at;
                slots_used = 0;
            }
            // Issue-slot accounting.
            slots_used += 1;
            if slots_used >= cfg.issue {
                cycle += 1;
                slots_used = 0;
            }
            let mut lat = 1;
            match op.kind {
                OpKind::Mul | OpKind::MulImm | OpKind::Mulh | OpKind::Mulhu => {
                    lat = cfg.mul_latency;
                }
                OpKind::Div | OpKind::Divu => lat = cfg.div_latency,
                OpKind::Load { .. } => {
                    let a = cache.access_data(ea.unwrap_or(0));
                    lat = cfg.load_latency + u64::from(a.penalty);
                }
                OpKind::Store { .. } => {
                    let a = cache.access_data(ea.unwrap_or(0));
                    cycle += u64::from(a.penalty);
                }
                _ => {}
            }
            for d in [op.dest, op.dest2].into_iter().flatten() {
                ready[d.index()] = cycle + lat;
            }
        }

        // Static prediction (backward taken, forward not) vs outcome.
        let predicted_taken = match conv.flow {
            Flow::CondJump { target, .. } => Some(target <= pc),
            Flow::CondIndirect { .. } => Some(false),
            _ => None,
        };
        let ev = cpu.execute(&mut mem, insn);
        instrs += 1;
        if let Some(pred) = predicted_taken {
            let taken = cpu.pc != pc.wrapping_add(4);
            if taken != pred {
                cycle += cfg.mispredict_penalty;
                slots_used = 0;
            }
        }
        match ev {
            Event::Continue => {}
            Event::Syscall => break StopReason::Syscall,
            Event::Trap => break StopReason::Trap,
            Event::Program => break StopReason::Program,
            Event::Dsi { addr, write } => {
                break StopReason::StorageFault { addr, write, fetch: false }
            }
            Event::Isi => {
                break StopReason::StorageFault { addr: cpu.pc, write: false, fetch: true }
            }
        }
    };
    P604Result { instrs, cycles: cycle.max(1), stop }
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_ppc::asm::Asm;
    use daisy_ppc::reg::Gpr;

    fn program_loop(n: i16) -> Program {
        let mut a = Asm::new(0x1000);
        a.li(Gpr(4), n);
        a.mtctr(Gpr(4));
        a.label("loop");
        a.addi(Gpr(3), Gpr(3), 1);
        a.addi(Gpr(5), Gpr(5), 1);
        a.bdnz("loop");
        a.sc();
        a.finish().unwrap()
    }

    #[test]
    fn ipc_is_bounded_by_issue_width() {
        let r = run(
            &program_loop(1000),
            0x10000,
            &P604Config::default(),
            Hierarchy::infinite(),
            1_000_000,
        );
        assert_eq!(r.stop, StopReason::Syscall);
        assert!(r.ipc() <= 2.0 + 1e-9, "ipc {}", r.ipc());
        assert!(r.ipc() > 0.3, "ipc {}", r.ipc());
    }

    #[test]
    fn finite_caches_reduce_ipc() {
        let inf = run(
            &program_loop(2000),
            0x10000,
            &P604Config::default(),
            Hierarchy::infinite(),
            1_000_000,
        );
        let fin = run(
            &program_loop(2000),
            0x10000,
            &P604Config::default(),
            Hierarchy::paper_default(),
            1_000_000,
        );
        assert!(fin.ipc() <= inf.ipc() + 1e-9);
    }

    #[test]
    fn mispredictions_cost_cycles() {
        use daisy_ppc::reg::CrField;
        // An alternating branch defeats static prediction half the time.
        let build = |alternating: bool| {
            let mut a = Asm::new(0x1000);
            a.li(Gpr(4), 400);
            a.mtctr(Gpr(4));
            a.label("loop");
            a.mfctr(Gpr(5));
            a.andi_(Gpr(6), Gpr(5), 1);
            if alternating {
                // Taken every other iteration: 50% mispredicted.
                a.cmpwi(CrField(1), Gpr(6), 0);
            } else {
                // Never taken: forward-not-taken predicts perfectly.
                a.cmpwi(CrField(1), Gpr(6), 9);
            }
            a.beq(CrField(1), "even");
            a.addi(Gpr(3), Gpr(3), 1);
            a.label("even");
            a.bdnz("loop");
            a.sc();
            a.finish().unwrap()
        };
        let cfg = P604Config::default();
        let pred = run(&build(false), 0x10000, &cfg, Hierarchy::infinite(), 1_000_000);
        let mispred = run(&build(true), 0x10000, &cfg, Hierarchy::infinite(), 1_000_000);
        assert!(
            mispred.ipc() < pred.ipc(),
            "mispredictions should cost: {} vs {}",
            mispred.ipc(),
            pred.ipc()
        );
    }

    #[test]
    fn multiply_latency_slows_dependent_chains() {
        let mut a = Asm::new(0x1000);
        for _ in 0..64 {
            a.mullw(Gpr(3), Gpr(3), Gpr(3));
        }
        a.sc();
        let prog = a.finish().unwrap();
        let cfg = P604Config::default();
        let r = run(&prog, 0x10000, &cfg, Hierarchy::infinite(), 10_000);
        // Each multiply waits out the previous one's latency.
        assert!(r.ipc() < 0.4, "ipc {}", r.ipc());
    }

    #[test]
    fn dependence_chains_serialize() {
        // A chain of dependent adds cannot exceed 1 IPC.
        let mut a = Asm::new(0x1000);
        for _ in 0..64 {
            a.add(Gpr(3), Gpr(3), Gpr(3));
        }
        a.sc();
        let prog = a.finish().unwrap();
        let r = run(&prog, 0x10000, &P604Config::default(), Hierarchy::infinite(), 10_000);
        assert!(r.ipc() <= 1.05, "ipc {}", r.ipc());
    }
}
