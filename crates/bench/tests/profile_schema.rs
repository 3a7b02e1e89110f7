//! Schema tests for the guest-profile artifacts: `repro`'s
//! guest-profile table must carry every metric for every workload,
//! and the `profile` binary's Chrome `trace_event` export must be
//! valid JSON with the shape `chrome://tracing` and Perfetto expect.
//!
//! The environment is offline, so validation uses the minimal
//! recursive-descent parser in [`daisy_bench::json`] — strict enough
//! to reject malformed output (trailing commas, bare NaN, unquoted
//! keys), small enough to audit at a glance.

use daisy::profile::chrome_trace_json;
use daisy::trace::DEFAULT_FLIGHT_RECORDER_CAPACITY;
use daisy_bench::json::{parse, Json};
use daisy_bench::reporting::{report_workload, run_profiled};
use daisy_bench::tables::print_guest_profile;

/// Every column of the guest-profile table after the workload name.
const COLUMNS: &[&str] = &[
    "base_instrs",
    "finite_ilp",
    "infinite_ilp",
    "ops_per_vliw",
    "overhead_per_base_instr",
    "waste_fraction",
    "spec_ops",
    "wasted_spec_ops",
];

/// Acceptance: the guest-profile table names every metric in its
/// header and prints each as a finite, non-negative number for every
/// workload, then the two positive ILP geomeans. Runs two real
/// workloads.
#[test]
fn guest_profile_table_carries_every_metric() {
    let reports: Vec<_> = ["wc", "cmp"]
        .iter()
        .map(|n| report_workload(&daisy_workloads::by_name(n).expect("known workload")))
        .collect();
    let text = print_guest_profile(&reports);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5, "title, header, two workloads, geomean:\n{text}");
    let header: Vec<&str> = lines[1].split_whitespace().collect();
    assert_eq!(header[0], "Program");
    assert_eq!(&header[1..], COLUMNS);
    for (line, want_name) in lines[2..4].iter().zip(["wc", "cmp"]) {
        let cols: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(cols[0], want_name);
        assert_eq!(cols.len(), 1 + COLUMNS.len(), "{want_name}: {line}");
        let v: Vec<f64> = cols[1..].iter().map(|c| c.parse().expect("numeric cell")).collect();
        for (x, column) in v.iter().zip(COLUMNS) {
            assert!(x.is_finite() && *x >= 0.0, "{want_name}: {column} = {x}");
        }
        assert!(v[0] > 0.0, "{want_name}: base_instrs must be positive");
        assert!(v[7] <= v[6], "{want_name}: wasted > speculative");
    }
    let geomean: Vec<&str> = lines[4].split_whitespace().collect();
    assert_eq!(geomean[0], "GEOMEAN");
    for cell in &geomean[1..] {
        assert!(cell.parse::<f64>().expect("numeric geomean") > 0.0);
    }
}

/// Acceptance: the Chrome export is valid `trace_event` JSON — a
/// `traceEvents` array whose entries all carry `ph`/`pid`/`tid`, with
/// duration events (`ph:"X"`) carrying numeric `ts`/`dur` and instants
/// (`ph:"i"`) a scope — loadable by `chrome://tracing` and Perfetto.
#[test]
fn chrome_trace_is_valid_trace_event_json() {
    let w = daisy_workloads::by_name("cmp").expect("known workload");
    let sys = run_profiled(&w, DEFAULT_FLIGHT_RECORDER_CAPACITY);
    let gp = sys.guest_profile().expect("guest profiling enabled");
    let text = chrome_trace_json(gp, w.name);
    let doc = parse(&text).expect("trace must parse as JSON");

    let events = doc.get("traceEvents").and_then(Json::arr).expect("traceEvents array");
    assert!(events.len() > 2, "a completed run must emit dispatch events");
    let mut saw_meta = false;
    let mut saw_duration = false;
    for ev in events {
        let ph = ev.get("ph").and_then(Json::str).expect("every event has ph");
        assert!(ev.get("pid").and_then(Json::num).is_some(), "every event has pid");
        assert!(ev.get("tid").and_then(Json::num).is_some(), "every event has tid");
        match ph {
            "M" => saw_meta = true,
            "X" => {
                saw_duration = true;
                let ts = ev.get("ts").and_then(Json::num).expect("X has ts");
                let dur = ev.get("dur").and_then(Json::num).expect("X has dur");
                assert!(ts >= 0.0 && dur >= 1.0, "dispatch spans are visible");
                let args = ev.get("args").expect("X has args");
                assert!(args.get("entry").and_then(Json::str).is_some());
            }
            "i" => {
                assert!(ev.get("ts").and_then(Json::num).is_some(), "instant has ts");
                assert!(ev.get("s").and_then(Json::str).is_some(), "instant has scope");
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(saw_meta, "process_name metadata event present");
    assert!(saw_duration, "at least one dispatch duration event");
}
