//! Schema tests for the `health` binary's artifacts: the
//! `BENCH_health.json` document must be valid JSON carrying every
//! registered metric for every workload, and the Prometheus text
//! exposition must follow the format's conventions (HELP/TYPE pairs,
//! `_total` counters, cumulative histogram buckets closed by `+Inf`).
//!
//! CI's `scripts/check_health_shape.sh` greps committed artifacts for
//! the same shapes; this test validates the generators structurally,
//! using the offline parser in [`daisy_bench::json`].

use daisy::metrics::{
    prometheus_text, Counter, Gauge, Labels, DEGRADATIONS_METRIC, IRQ_HIST_METRIC,
    ISSUE_HIST_METRIC, RUNG_ENTRIES_METRIC,
};
use daisy::prelude::*;
use daisy_bench::health::{health_json, run_health, HealthRecord};
use daisy_bench::json::{parse, Json};

const CONFIGS: [&str; 4] = ["packed", "native_suite", "sim_suite", "code_thrash"];

fn two_quick_records() -> Vec<HealthRecord> {
    let workloads: Vec<_> = ["cmp", "hist"]
        .iter()
        .map(|n| daisy_workloads::by_name(n).expect("known workload"))
        .collect();
    run_health(&workloads, 1024, false)
}

/// Acceptance: `BENCH_health.json` parses as JSON, carries the schema
/// tag and one document per configuration, and each workload's metrics
/// object holds exactly the registered counter/gauge names, all nine
/// degradation causes, all four ladder rungs, and both histograms.
/// Runs two real workloads — the same pair CI smokes.
#[test]
fn bench_health_json_schema_holds() {
    let records = two_quick_records();
    let text = health_json(&records, 1024);
    let doc = parse(&text).expect("health output must parse as JSON");

    assert_eq!(doc.get("schema").and_then(Json::str), Some("daisy-health-v2"));
    assert_eq!(doc.get("interval").and_then(Json::num), Some(1024.0));

    let configs = doc.get("configs").and_then(Json::arr).expect("configs array");
    let names: Vec<_> = configs.iter().map(|c| c.get("name").and_then(Json::str)).collect();
    assert_eq!(names, CONFIGS.map(Some));
    let workloads: Vec<&Json> = configs
        .iter()
        .flat_map(|c| c.get("workloads").and_then(Json::arr).expect("workloads array"))
        .collect();
    assert_eq!(workloads.len(), 2 * CONFIGS.len());
    for (entry, want_name) in workloads.into_iter().zip(["cmp", "hist"].iter().cycle()) {
        let want_name = *want_name;
        assert_eq!(entry.get("name").and_then(Json::str), Some(want_name));
        let boundaries = entry.get("boundaries").and_then(Json::num).expect("boundaries");
        assert!(boundaries > 0.0, "{want_name}: must step at least one boundary");
        let snapshots = entry.get("snapshots").and_then(Json::num).expect("snapshots");
        assert!(snapshots >= 1.0, "{want_name}: the final snapshot always lands");

        let metrics = entry.get("metrics").expect("metrics object");
        let counters = metrics.get("counters").and_then(Json::obj).expect("counters object");
        assert_eq!(counters.len(), Counter::COUNT, "{want_name}: counter set drifted");
        for c in Counter::ALL {
            assert!(counters.contains_key(c.name()), "{want_name}: missing counter {}", c.name());
        }
        let gauges = metrics.get("gauges").and_then(Json::obj).expect("gauges object");
        assert_eq!(gauges.len(), Gauge::COUNT, "{want_name}: gauge set drifted");
        let causes =
            metrics.get("degradations_by_cause").and_then(Json::obj).expect("causes object");
        assert_eq!(causes.len(), DegradeCause::ALL.len());
        let rungs = metrics.get("ladder_rung_entries").and_then(Json::obj).expect("rungs object");
        assert_eq!(rungs.len(), Rung::ALL.len());
        let hists = metrics.get("histograms").and_then(Json::obj).expect("histograms object");
        assert!(hists.contains_key(ISSUE_HIST_METRIC) && hists.contains_key(IRQ_HIST_METRIC));
        for h in hists.values() {
            let buckets = h.get("buckets").and_then(Json::arr).expect("bucket array");
            let bounds = h.get("bounds").and_then(Json::arr).expect("bounds array");
            assert_eq!(buckets.len(), bounds.len() + 1, "one overflow bucket past the bounds");
            let total: f64 = buckets.iter().filter_map(Json::num).sum();
            assert_eq!(Some(total), h.get("count").and_then(Json::num), "count = Σ buckets");
        }

        // A completed run retired real work and the suite stayed on
        // the top rung — health output where everything is zero would
        // mean the publishers went silent.
        let retired = counters.get(Counter::RetiredInstrs.name()).and_then(Json::num);
        assert!(retired.unwrap_or(0.0) > 0.0, "{want_name}: retired instructions");
        let degraded = gauges.get(Gauge::DegradedEntries.name()).and_then(Json::num);
        assert_eq!(degraded, Some(0.0), "{want_name}: no degradations expected");
    }
}

/// Acceptance: the Prometheus exposition groups all workloads' series
/// under one HELP/TYPE header per family, names counters `*_total`,
/// renders labelled families for degradation causes and ladder rungs,
/// and emits cumulative histograms closed by an `+Inf` bucket with
/// `_sum`/`_count`.
#[test]
fn prometheus_exposition_follows_conventions() {
    let records = two_quick_records();
    let labels: Vec<[(&str, &str); 2]> =
        records.iter().map(|r| [("config", r.config), ("workload", r.name)]).collect();
    let series: Vec<(Labels<'_>, &MetricsSnapshot)> =
        labels.iter().zip(&records).map(|(l, r)| (&l[..], &r.last)).collect();
    let text = prometheus_text(&series);

    let mut families = Vec::new();
    let mut prev_help: Option<&str> = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            prev_help = rest.split_whitespace().next();
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (fam, ty) = (it.next().expect("family"), it.next().expect("type"));
            assert_eq!(prev_help, Some(fam), "TYPE must directly follow its HELP");
            assert!(matches!(ty, "counter" | "gauge" | "histogram"), "{fam}: type {ty}");
            if ty == "counter" {
                assert!(fam.ends_with("_total"), "{fam}: counters are *_total");
            }
            families.push((fam.to_owned(), ty.to_owned()));
        }
    }
    // Every counter and gauge + the two labelled families + two
    // histograms, each exactly once regardless of workload count.
    let expected = Counter::COUNT + Gauge::COUNT + 2 + 2;
    assert_eq!(families.len(), expected, "one header block per family");
    let names: Vec<&str> = families.iter().map(|(f, _)| f.as_str()).collect();
    assert!(names.contains(&DEGRADATIONS_METRIC) && names.contains(&RUNG_ENTRIES_METRIC));

    // Every sample line belongs to a declared family and carries the
    // configuration and workload labels; histograms are cumulative and
    // closed.
    for (fam, ty) in &families {
        match ty.as_str() {
            "histogram" => {
                for r in &records {
                    let label = format!("config=\"{}\",workload=\"{}\"", r.config, r.name);
                    let bucket_lines: Vec<&str> = text
                        .lines()
                        .filter(|l| l.starts_with(&format!("{fam}_bucket{{")) && l.contains(&label))
                        .collect();
                    assert!(!bucket_lines.is_empty(), "{fam}: buckets for {}", r.name);
                    let mut last = -1.0;
                    for l in &bucket_lines {
                        let v: f64 =
                            l.rsplit(' ').next().expect("value").parse().expect("numeric sample");
                        assert!(v >= last, "{fam}: buckets must be cumulative");
                        last = v;
                    }
                    let inf = bucket_lines.last().expect("at least one bucket");
                    assert!(inf.contains("le=\"+Inf\""), "{fam}: last bucket is +Inf");
                    for suffix in ["_sum", "_count"] {
                        assert!(
                            text.lines().any(|l| l.starts_with(&format!("{fam}{suffix}{{"))
                                && l.contains(&label)),
                            "{fam}: missing {suffix} for {}",
                            r.name
                        );
                    }
                }
            }
            _ => {
                let samples = text
                    .lines()
                    .filter(|l| {
                        l.starts_with(&format!("{fam}{{")) || l.starts_with(&format!("{fam} "))
                    })
                    .count();
                assert!(samples >= records.len(), "{fam}: one sample per run at least");
            }
        }
    }
}
