//! Pins for the human-readable `Display` one-liners: the flight
//! recorder's post-mortem dump and every operator-facing error render
//! through these formats, so they are stable output, not debug text.
//! A change here is a change to what an operator greps in a dump —
//! make it deliberately.

use daisy::precise::RecoverError;
use daisy::prelude::*;
use daisy::trace::ExcClass;
use daisy::DegradeCause;

/// Every `TraceEvent` variant's one-liner, exactly.
#[test]
fn trace_event_one_liners_are_pinned() {
    let cases: Vec<(TraceEvent, &str)> = vec![
        (
            TraceEvent::Translate {
                entry: 0x1000,
                page: 16,
                vliws: 7,
                code_bytes: 212,
                conservative: false,
            },
            "translate 0x1000: 7 vliws, 212 bytes",
        ),
        (
            TraceEvent::Translate {
                entry: 0x2040,
                page: 32,
                vliws: 3,
                code_bytes: 96,
                conservative: true,
            },
            "translate 0x2040: 3 vliws, 96 bytes (conservative)",
        ),
        (TraceEvent::CastOut { page: 5, groups: 2 }, "cast out page 5 (2 groups)"),
        (TraceEvent::Invalidate { page: 9 }, "invalidate page 9"),
        (TraceEvent::CodeModified { addr: 0x1200 }, "code modified by store at 0x1200"),
        (
            TraceEvent::ChainInstall { from: 0x1000, to: 0x1100, indirect: false },
            "chain 0x1000 -> 0x1100",
        ),
        (
            TraceEvent::ChainInstall { from: 0x1000, to: 0x1100, indirect: true },
            "chain 0x1000 -> 0x1100 (indirect)",
        ),
        (TraceEvent::ChainSever { from: 0x1000, target: 0x1100 }, "sever 0x1000 -> 0x1100"),
        (
            TraceEvent::AliasRestart { entry: 0x1000, addr: 0x8000 },
            "alias restart in 0x1000 at load 0x8000",
        ),
        (TraceEvent::AliasRetranslate { entry: 0x1000 }, "alias retranslate 0x1000"),
        (
            TraceEvent::Exception { class: ExcClass::LoadFault, base_addr: 0x1010 },
            "exception load_fault at 0x1010",
        ),
        (
            TraceEvent::Exception { class: ExcClass::StoreFault, base_addr: 0x1014 },
            "exception store_fault at 0x1014",
        ),
        (
            TraceEvent::Exception { class: ExcClass::Trap, base_addr: 0x1018 },
            "exception trap at 0x1018",
        ),
        (TraceEvent::ExternalInterrupt { pc: 0x1020 }, "external interrupt at 0x1020"),
        (TraceEvent::MmioBail { addr: 0xffff_0000 }, "mmio bail at 0xffff0000"),
        (
            TraceEvent::NativeCompile { entry: 0x1000, outcome: "compiled" },
            "native compile 0x1000: compiled",
        ),
        (
            TraceEvent::Degraded {
                entry: 0x1000,
                from: Rung::Packed,
                to: Rung::Conservative,
                cause: DegradeCause::RecoveryMismatch,
            },
            "degraded entry 0x1000: packed -> conservative (recovery_mismatch)",
        ),
    ];
    for (ev, want) in cases {
        assert_eq!(ev.to_string(), want, "Display drifted for {ev:?}");
    }
}

/// Rung and cause names as they appear in dumps, metric labels, and
/// degradation lines.
#[test]
fn rung_and_cause_names_are_pinned() {
    let rungs: Vec<String> = Rung::ALL.iter().map(ToString::to_string).collect();
    assert_eq!(rungs, ["native", "packed", "conservative", "interpret"]);
    let causes: Vec<String> = DegradeCause::ALL.iter().map(ToString::to_string).collect();
    assert_eq!(causes, ["recovery_mismatch", "hint_budget", "forced"]);
}

/// The unrecoverable-fault rendering (`Degradation`'s own pin lives
/// with its unit tests in `daisy::error`).
#[test]
fn daisy_error_display_is_pinned() {
    let e = DaisyError::Recovery {
        entry: 0x2000,
        source: RecoverError { message: "expected r3, found store".to_owned() },
    };
    assert_eq!(
        e.to_string(),
        "unrecoverable at entry 0x2000: precise-exception recovery failed: \
         expected r3, found store"
    );
}
