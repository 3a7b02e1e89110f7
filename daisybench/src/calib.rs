//! Host-speed calibration.
//!
//! The host this benchmark runs on is shared: its speed moves by up to
//! half between runs a minute apart, and by a fifth between passes a
//! second apart, while this thread stays on a CPU the whole time. A
//! fixed kernel, timed right before and after every program run,
//! measures the host's speed at that moment. Each run's host time is
//! rescaled by the kernel's speed then, relative to [`REFERENCE_NS`]:
//! the time the run would have taken on the reference host.
//!
//! The kernel is this package's own code, so a change to the program
//! under test cannot move it. It does the same kinds of work as a
//! program run: a small register-machine interpreter (decode, dispatch
//! on an opcode, loads, stores, data-dependent branches), then a fresh
//! allocation whose pages it touches. It tracks the host only in part:
//! when the host slows a run by half, the kernel slows by about a
//! third, so rescaled times still move, by less.

use std::hint::black_box;
use std::time::Instant;

/// Host ns per kernel step on the reference host: about the
/// uncontended speed of the 2-vCPU Intel Xeon VM (x86-64 Linux) the
/// benchmark was tuned on. Only a scale: it makes rescaled times read
/// like that host's times.
pub const REFERENCE_NS: f64 = 5.5;

/// Kernel steps per measurement (about 0.3 ms on the reference host).
const STEPS: u32 = 50_000;

const MEM_WORDS: usize = 1 << 12;
const CODE_WORDS: usize = 1 << 10;
const FRESH_BYTES: usize = 256 << 10;

/// The calibration kernel and its fixed program and memory.
pub struct Calibrator {
    code: Vec<u32>,
    mem: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Calibrator {
        let mut x = 0x2545_f491u32;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        let code = (0..CODE_WORDS).map(|_| next()).collect();
        let mem = (0..MEM_WORDS).map(|_| next()).collect();
        Calibrator { code, mem }
    }
}

impl Calibrator {
    /// Runs `steps` kernel steps and returns a digest of the registers.
    fn run(&mut self, steps: u32) -> u32 {
        let mut regs = [0u32; 16];
        let mut pc = 0usize;
        for _ in 0..steps {
            let insn = self.code[pc];
            let (a, b) = ((insn >> 24 & 15) as usize, (insn >> 20 & 15) as usize);
            let imm = insn & 0xffff;
            pc = (pc + 1) % CODE_WORDS;
            match insn >> 29 {
                0 | 1 => regs[a] = regs[b].wrapping_add(imm),
                2 => regs[a] ^= regs[b].rotate_left(imm & 31),
                3 => regs[a] = self.mem[(regs[b].wrapping_add(imm) as usize) % MEM_WORDS],
                4 => self.mem[(regs[a].wrapping_add(imm) as usize) % MEM_WORDS] = regs[b],
                5 => regs[a] = regs[a].wrapping_mul(regs[b] | 1),
                6 if regs[a] & 1 == 0 => pc = (pc + (imm as usize & 63)) % CODE_WORDS,
                _ => regs[a] = regs[a].wrapping_sub(regs[b] >> 3),
            }
        }
        regs.iter().fold(0, |h, r| h.rotate_left(5) ^ r)
    }

    /// Host ns per kernel step, measured now.
    pub fn ns_per_step(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.run(black_box(STEPS)));
        // Fresh pages, as every program run's fresh system takes them.
        let mut fresh = vec![0u8; FRESH_BYTES];
        for i in (0..FRESH_BYTES).step_by(4096) {
            fresh[i] = 1;
        }
        black_box(fresh);
        t.elapsed().as_nanos() as f64 / f64::from(STEPS)
    }
}

/// Rescales `ns` of host time to the reference host, given the kernel's
/// ns per step measured just before and just after it.
pub fn to_reference(ns: f64, before: f64, after: f64) -> f64 {
    ns * REFERENCE_NS / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        let (mut a, mut b) = (Calibrator::default(), Calibrator::default());
        assert_eq!(a.run(10_000), b.run(10_000));
        assert!(a.ns_per_step() > 0.0);
    }

    #[test]
    fn rescaling_follows_the_host_speed() {
        // A host twice as slow as the reference halves the time.
        assert_eq!(to_reference(100.0, 2.0 * REFERENCE_NS, 2.0 * REFERENCE_NS), 50.0);
        assert_eq!(to_reference(100.0, REFERENCE_NS, REFERENCE_NS), 100.0);
    }
}
