//! Typed faults and the graceful-degradation ladder.
//!
//! DAISY's headline claim is *100% architectural compatibility*: the
//! VMM must survive anything a guest binary throws at it — illegal
//! opcodes, self-modifying code, cast-out pressure, interrupt storms —
//! while preserving precise exceptions. This module is the vocabulary
//! for that promise: every recoverable fault on the dispatch path steps
//! an entry point down the [`Rung`] ladder (recorded as a
//! [`Degradation`] and emitted as
//! [`crate::trace::TraceEvent::Degraded`]) instead of panicking, and
//! only faults that genuinely cannot be recovered surface as a
//! [`DaisyError`].
//!
//! The ladder, top to bottom:
//!
//! 1. [`Rung::Native`] — hot groups lowered to host machine code (the
//!    top rung when the native tier is enabled and the host supports
//!    it; otherwise entries start at `Packed`).
//! 2. [`Rung::Packed`] — the packed-format engine.
//! 3. [`Rung::Conservative`] — the entry is retranslated with load
//!    speculation inhibited and runs on the packed engine.
//! 4. [`Rung::Interpret`] — the entry's whole translation page is
//!    abandoned and executed by the reference interpreter. Groups never
//!    span pages, so page-granular interpretation is always sound.
//!
//! Every rung is observationally identical to the one above it; the
//! fault-injection campaigns in [`crate::inject`] prove it by running
//! each perturbed system to completion and diffing the final
//! architected state against the pure-interpreter oracle bit for bit.

use crate::precise::RecoverError;
use std::fmt;

/// One rung of the graceful-degradation ladder, ordered fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rung {
    /// Hot groups lowered to host machine code (x86-64 only; entries
    /// on other hosts, or with the native tier disabled, start at
    /// [`Rung::Packed`]).
    Native,
    /// Packed-format engine (the default execution mode).
    Packed,
    /// Retranslated with load speculation inhibited (no-spec).
    Conservative,
    /// Pure interpretation of the entry's whole translation page.
    Interpret,
}

impl Rung {
    /// Every rung, top (fastest) to bottom, in [`Rung::index`] order.
    pub const ALL: [Rung; 4] = [Rung::Native, Rung::Packed, Rung::Conservative, Rung::Interpret];

    /// Stable position in [`Rung::ALL`] (0 = [`Rung::Native`]), used by
    /// [`crate::metrics`] for per-rung occupancy arrays.
    pub fn index(self) -> usize {
        match self {
            Rung::Native => 0,
            Rung::Packed => 1,
            Rung::Conservative => 2,
            Rung::Interpret => 3,
        }
    }

    /// Short lowercase name, for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Native => "native",
            Rung::Packed => "packed",
            Rung::Conservative => "conservative",
            Rung::Interpret => "interpret",
        }
    }

    /// The next rung down, or `None` at the bottom ([`Rung::Interpret`]
    /// is the floor: the reference interpreter *defines* architected
    /// behaviour, so there is nothing left to fall back to).
    pub fn next_down(self) -> Option<Rung> {
        match self {
            Rung::Native => Some(Rung::Packed),
            Rung::Packed => Some(Rung::Conservative),
            Rung::Conservative => Some(Rung::Interpret),
            Rung::Interpret => None,
        }
    }
}

impl fmt::Display for Rung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an entry point stepped down the ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DegradeCause {
    /// The §3.5 recovery cross-check disagreed with the engine's
    /// metadata; the group is rerun one rung down rather than trusted.
    RecoveryMismatch,
    /// The interpret-ahead hint budget was exhausted mid-group: the
    /// translation is still sound but was built from truncated hints
    /// (`from == to` — a quality degradation within the same rung).
    HintBudget,
    /// Externally requested (the fault injector's ladder driver).
    Forced,
}

impl DegradeCause {
    /// Every cause, in [`DegradeCause::index`] order.
    pub const ALL: [DegradeCause; 3] =
        [DegradeCause::RecoveryMismatch, DegradeCause::HintBudget, DegradeCause::Forced];

    /// Stable position in [`DegradeCause::ALL`], used by
    /// [`crate::metrics`] for per-cause counter arrays.
    pub fn index(self) -> usize {
        match self {
            DegradeCause::RecoveryMismatch => 0,
            DegradeCause::HintBudget => 1,
            DegradeCause::Forced => 2,
        }
    }

    /// Short lowercase name, for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            DegradeCause::RecoveryMismatch => "recovery_mismatch",
            DegradeCause::HintBudget => "hint_budget",
            DegradeCause::Forced => "forced",
        }
    }
}

impl fmt::Display for DegradeCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded step down the ladder (or, for
/// [`DegradeCause::HintBudget`], a quality degradation within a rung,
/// where `from == to`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Degradation {
    /// Entry point that degraded.
    pub entry: u32,
    /// Rung before the step.
    pub from: Rung,
    /// Rung after the step.
    pub to: Rung,
    /// Why.
    pub cause: DegradeCause,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "entry {:#x}: {} -> {} ({})", self.entry, self.from, self.to, self.cause)
    }
}

/// An unrecoverable fault: the ladder was exhausted or stepping down
/// would be unsound. [`crate::system::DaisySystem::run`] returns this
/// instead of panicking; in a correct build it indicates a
/// translator-invariant violation, never a guest-input condition.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DaisyError {
    /// The §3.5 recovery cross-check failed and the faulting group
    /// could not be retried one rung down: either stores had already
    /// committed before the fault (rerunning would double-apply them)
    /// or the entry was already at the bottom rung.
    Recovery {
        /// Entry point of the faulting group.
        entry: u32,
        /// The underlying recovery disagreement.
        source: RecoverError,
    },
}

impl fmt::Display for DaisyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DaisyError::Recovery { entry, source } => {
                write!(f, "unrecoverable at entry {entry:#x}: {source}")
            }
        }
    }
}

impl std::error::Error for DaisyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DaisyError::Recovery { source, .. } => Some(source),
        }
    }
}

impl From<RecoverError> for DaisyError {
    fn from(source: RecoverError) -> DaisyError {
        DaisyError::Recovery { entry: 0, source }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_finite_and_ordered() {
        let mut rung = Rung::Native;
        let mut steps = 0;
        while let Some(next) = rung.next_down() {
            assert!(next > rung, "ladder must strictly descend");
            rung = next;
            steps += 1;
        }
        assert_eq!(rung, Rung::Interpret);
        assert_eq!(steps, 3);
    }

    #[test]
    fn index_tables_match_all_order() {
        for (i, r) in Rung::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        for (i, c) in DegradeCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn display_is_stable() {
        let d = Degradation {
            entry: 0x1000,
            from: Rung::Packed,
            to: Rung::Conservative,
            cause: DegradeCause::RecoveryMismatch,
        };
        assert_eq!(d.to_string(), "entry 0x1000: packed -> conservative (recovery_mismatch)");
        let e = DaisyError::Recovery {
            entry: 0x1000,
            source: RecoverError { message: "mismatch".into() },
        };
        assert!(e.to_string().contains("0x1000"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
