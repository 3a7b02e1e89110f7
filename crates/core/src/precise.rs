//! Precise-exception address recovery (paper §3.5).
//!
//! When translated code takes an exception, the VMM must report the
//! *base-architecture* instruction responsible. The paper's table-free
//! scheme: walk from the group's entry point (whose correspondence with
//! a base address is exact), and match, in order, the translated code's
//! **assignments to architected resources** — architected register
//! writes, stores, conditional-branch directions — against the base
//! instruction stream. Because DAISY commits architected state in
//! original program order, the two sequences correspond one-to-one, and
//! the base instruction at which the match reaches the faulting parcel
//! is the offender.
//!
//! The execution engine records an [`ArchEvent`] for every architected
//! commitment; [`recover`] replays base instructions against that
//! record. (The engine also carries each parcel's originating address as
//! metadata — the tests cross-check the recovered address against it,
//! validating the paper's claim that no side tables are needed.)

use daisy_isa::convert::Flow;
use daisy_isa::mem::Memory;
use daisy_isa::Isa;
use daisy_vliw::op::OpKind;
use daisy_vliw::reg::Reg;

/// One architected commitment observed while executing translated code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchEvent {
    /// A write to one or two architected registers (an in-order op may
    /// carry a carry-out; renamed results commit one register at a time).
    Def {
        /// Primary destination.
        d1: Reg,
        /// Carry-out destination, for single-parcel in-order ops.
        d2: Option<Reg>,
    },
    /// A store to memory.
    Store,
    /// A trap-condition check (executed, whether or not it fired).
    TrapCheck,
    /// A conditional branch resolved in this direction.
    Dir(bool),
    /// An indirect branch resolved through a Ch. 6 specialization
    /// check: `Some(T)` when execution continued inline at `T`, `None`
    /// when the true indirect exit was taken.
    IndirectDir(Option<u32>),
}

/// The expected architected commitments of one base instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expected {
    /// One or two registers defined — matches either a single fused
    /// event or two consecutive single-register commits.
    DefGroup(Reg, Option<Reg>),
    Store,
    TrapCheck,
}

/// Failure to recover (indicates a translator invariant was broken).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoverError {
    /// Human-readable mismatch description.
    pub message: String,
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "precise-exception recovery failed: {}", self.message)
    }
}

impl std::error::Error for RecoverError {}

fn expected_of<I: Isa>(mem: &Memory, addr: u32) -> (Vec<Expected>, Flow, bool) {
    let word = mem.read_u32(addr).unwrap_or(0);
    let mut ops = Vec::new();
    let conv = match I::decode(word) {
        Ok(insn) => I::convert(&insn, addr, &mut ops),
        Err(_) => daisy_isa::convert::Converted::interp(),
    };
    let mut exp = Vec::new();
    let n = ops.len();
    let cond_compare = matches!(
        conv.flow,
        Flow::CondJump { cond_compare: true, .. } | Flow::CondIndirect { cond_compare: true, .. }
    );
    for (i, op) in ops.iter().enumerate() {
        if cond_compare && i == n - 1 {
            continue; // the condition compare lives only in a rename register
        }
        if op.kind.is_store() {
            exp.push(Expected::Store);
        } else if matches!(op.kind, OpKind::TrapIf { .. }) {
            exp.push(Expected::TrapCheck);
        } else if let Some(d) = op.dest {
            exp.push(Expected::DefGroup(d, op.dest2));
        }
    }
    if conv.links {
        exp.push(Expected::DefGroup(Reg::LR, None));
    }
    (exp, conv.flow, cond_compare)
}

/// Matches one expected commitment against the event stream starting at
/// `i`; returns the number of events consumed, or `None` on mismatch.
fn match_expected(exp: &Expected, events: &[ArchEvent], i: usize) -> Option<usize> {
    match (exp, events.get(i)?) {
        (Expected::Store, ArchEvent::Store) => Some(1),
        (Expected::TrapCheck, ArchEvent::TrapCheck) => Some(1),
        (Expected::DefGroup(d1, d2), ArchEvent::Def { d1: e1, d2: e2 }) => {
            if e1 == d1 && e2 == d2 {
                Some(1)
            } else if e1 == d1 && e2.is_none() {
                match d2 {
                    None => Some(1),
                    Some(d2) => match events.get(i + 1)? {
                        ArchEvent::Def { d1: f1, d2: None } if f1 == d2 => Some(2),
                        _ => None,
                    },
                }
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Recovers the base-architecture address of the instruction whose
/// parcel faulted. `events` is the architected-commitment record of the
/// group execution; `fault_idx` is the number of events that completed
/// before the fault.
///
/// # Errors
///
/// Returns [`RecoverError`] if the event stream cannot be matched to
/// the base instruction stream — which would mean the translator broke
/// the in-order-commit invariant.
pub fn recover<I: Isa>(
    mem: &Memory,
    entry: u32,
    events: &[ArchEvent],
    fault_idx: usize,
) -> Result<u32, RecoverError> {
    let mut pc = entry;
    let mut i = 0usize;
    // Bound the walk defensively; each instruction consumes ≥ 0 events
    // but the path length is bounded by the group's window.
    for _ in 0..100_000 {
        let (exp, flow, _) = expected_of::<I>(mem, pc);
        for e in &exp {
            if i >= fault_idx {
                return Ok(pc);
            }
            match match_expected(e, events, i) {
                Some(n) => i += n,
                None => {
                    return Err(RecoverError {
                        message: format!(
                            "at {pc:#x}: expected {e:?}, saw {:?} (index {i})",
                            events.get(i)
                        ),
                    })
                }
            }
        }
        pc = match flow {
            Flow::Fall => pc.wrapping_add(4),
            Flow::Jump { target } => target,
            Flow::CondJump { target, .. } => {
                if i >= fault_idx {
                    // A fault can occur while resolving the branch only
                    // through a tagged condition commit, which would
                    // have been caught at its Def; reaching here with
                    // i == fault_idx means the branch itself faulted.
                    return Ok(pc);
                }
                match events.get(i) {
                    Some(ArchEvent::Dir(taken)) => {
                        i += 1;
                        if *taken {
                            target
                        } else {
                            pc.wrapping_add(4)
                        }
                    }
                    other => {
                        return Err(RecoverError {
                            message: format!("at {pc:#x}: expected Dir, saw {other:?}"),
                        })
                    }
                }
            }
            Flow::IndirectJump { .. } => {
                // A specialized indirect branch (Ch. 6) records where it
                // actually went; otherwise the group ended here.
                match events.get(i) {
                    Some(ArchEvent::IndirectDir(Some(t))) if i < fault_idx => {
                        i += 1;
                        *t
                    }
                    _ => return Ok(pc),
                }
            }
            Flow::CondIndirect { .. } | Flow::Interp => {
                // The group ends at these; a fault past this point
                // belongs to the last instruction reached.
                return Ok(pc);
            }
        };
    }
    Err(RecoverError { message: "path walk exceeded bound".to_owned() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use daisy_ppc::asm::Asm;
    use daisy_ppc::reg::{CrField, Gpr};

    fn mem_with(build: impl FnOnce(&mut Asm)) -> Memory {
        let mut a = Asm::new(0x1000);
        build(&mut a);
        let prog = a.finish().unwrap();
        let mut mem = Memory::new(0x20000);
        prog.load_into(&mut mem).unwrap();
        mem
    }

    #[test]
    fn recovers_straight_line_fault() {
        let mem = mem_with(|a| {
            a.add(Gpr(3), Gpr(1), Gpr(2)); // 0x1000
            a.add(Gpr(4), Gpr(3), Gpr(3)); // 0x1004
            a.lwz(Gpr(5), 0, Gpr(9)); // 0x1008 — faults
            a.sc();
        });
        let events = [
            ArchEvent::Def { d1: Reg::gpr(Gpr(3)), d2: None },
            ArchEvent::Def { d1: Reg::gpr(Gpr(4)), d2: None },
            // load's Def never completed
        ];
        assert_eq!(recover::<daisy_ppc::PpcIsa>(&mem, 0x1000, &events, 2), Ok(0x1008));
    }

    #[test]
    fn recovers_across_branch_direction() {
        let mem = mem_with(|a| {
            a.cmpwi(CrField(0), Gpr(3), 0); // 0x1000
            a.beq(CrField(0), "skip"); // 0x1004
            a.add(Gpr(4), Gpr(4), Gpr(4)); // 0x1008
            a.label("skip");
            a.stw(Gpr(5), 0, Gpr(9)); // 0x100c — faults
            a.sc();
        });
        // Taken direction: skip the add.
        let events = [ArchEvent::Def { d1: Reg::cr(CrField(0)), d2: None }, ArchEvent::Dir(true)];
        assert_eq!(recover::<daisy_ppc::PpcIsa>(&mem, 0x1000, &events, 2), Ok(0x100C));
        // Not-taken direction: the add commits first.
        let events = [
            ArchEvent::Def { d1: Reg::cr(CrField(0)), d2: None },
            ArchEvent::Dir(false),
            ArchEvent::Def { d1: Reg::gpr(Gpr(4)), d2: None },
        ];
        assert_eq!(recover::<daisy_ppc::PpcIsa>(&mem, 0x1000, &events, 3), Ok(0x100C));
    }

    #[test]
    fn carry_def_matches_split_commits() {
        let mem = mem_with(|a| {
            a.addic(Gpr(3), Gpr(1), 5); // defines r3 and CA
            a.lwz(Gpr(5), 0, Gpr(9)); // faults
            a.sc();
        });
        // Renamed execution commits r3 and CA as separate copies.
        let events = [
            ArchEvent::Def { d1: Reg::gpr(Gpr(3)), d2: None },
            ArchEvent::Def { d1: Reg::CA, d2: None },
        ];
        assert_eq!(recover::<daisy_ppc::PpcIsa>(&mem, 0x1000, &events, 2), Ok(0x1004));
        // In-order execution writes both in one parcel.
        let events = [ArchEvent::Def { d1: Reg::gpr(Gpr(3)), d2: Some(Reg::CA) }];
        assert_eq!(recover::<daisy_ppc::PpcIsa>(&mem, 0x1000, &events, 1), Ok(0x1004));
    }

    #[test]
    fn mismatch_reports_error() {
        let mem = mem_with(|a| {
            a.add(Gpr(3), Gpr(1), Gpr(2));
            a.sc();
        });
        let events = [ArchEvent::Store];
        assert!(recover::<daisy_ppc::PpcIsa>(&mem, 0x1000, &events, 1).is_err());
    }

    #[test]
    fn fault_at_first_parcel() {
        let mem = mem_with(|a| {
            a.lwz(Gpr(5), 0, Gpr(9));
            a.sc();
        });
        assert_eq!(recover::<daisy_ppc::PpcIsa>(&mem, 0x1000, &[], 0), Ok(0x1000));
    }
}
