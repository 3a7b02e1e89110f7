//! Schema tests for the `report` binary's artifacts: the
//! `BENCH_report.json` document and the Chrome `trace_event` export
//! must be valid JSON with the shapes the consumers (CI's shape
//! assertion, `chrome://tracing`, Perfetto) expect.
//!
//! The environment is offline, so validation uses the minimal
//! recursive-descent parser in [`daisy_bench::json`] — strict enough
//! to reject malformed output (trailing commas, bare NaN, unquoted
//! keys), small enough to audit at a glance.

use daisy_bench::json::{parse, Json};
use daisy_bench::reporting::{chrome_trace_for, report_json, report_workload};

// ------------------------------------------------------------- schemas

/// The five metrics every workload entry must publish, plus the raw
/// counts behind the waste fraction.
const METRICS: &[&str] =
    &["finite_ilp", "infinite_ilp", "ops_per_vliw", "overhead_per_base_instr", "waste_fraction"];

/// Acceptance: `BENCH_report.json` parses as JSON and carries all five
/// metrics (finite, non-negative numbers) for every workload, plus the
/// geomean block. Runs two real workloads — the same pair CI smokes.
#[test]
fn bench_report_json_schema_holds() {
    let reports: Vec<_> = ["wc", "cmp"]
        .iter()
        .map(|n| report_workload(&daisy_workloads::by_name(n).expect("known workload")).0)
        .collect();
    let text = report_json(&reports);
    let doc = parse(&text).expect("report output must parse as JSON");

    assert_eq!(doc.get("cache").and_then(Json::str), Some("paper_default"));
    let workloads = doc.get("workloads").and_then(Json::arr).expect("workloads array");
    assert_eq!(workloads.len(), 2);
    for (entry, want_name) in workloads.iter().zip(["wc", "cmp"]) {
        assert_eq!(entry.get("name").and_then(Json::str), Some(want_name));
        let base = entry.get("base_instrs").and_then(Json::num).expect("base_instrs");
        assert!(base > 0.0, "{want_name}: base_instrs must be positive");
        for metric in METRICS {
            let v = entry
                .get(metric)
                .and_then(Json::num)
                .unwrap_or_else(|| panic!("{want_name}: missing metric {metric}"));
            assert!(v >= 0.0, "{want_name}: {metric} = {v} must be non-negative");
        }
        let spec = entry.get("spec_ops").and_then(Json::num).expect("spec_ops");
        let wasted = entry.get("wasted_spec_ops").and_then(Json::num).expect("wasted_spec_ops");
        assert!(wasted <= spec, "{want_name}: wasted > speculative");
    }
    let geomean = doc.get("geomean").expect("geomean block");
    for k in ["finite_ilp", "infinite_ilp"] {
        assert!(geomean.get(k).and_then(Json::num).expect("geomean metric") > 0.0);
    }
}

/// Acceptance: the Chrome export is valid `trace_event` JSON — a
/// `traceEvents` array whose entries all carry `ph`/`pid`/`tid`, with
/// duration events (`ph:"X"`) carrying numeric `ts`/`dur` and instants
/// (`ph:"i"`) a scope — loadable by `chrome://tracing` and Perfetto.
#[test]
fn chrome_trace_is_valid_trace_event_json() {
    let w = daisy_workloads::by_name("cmp").expect("known workload");
    let (_, sys) = report_workload(&w);
    let text = chrome_trace_for(&sys, w.name);
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
