//! Plumbing for the `health` binary: checked runs with the metrics
//! registry enabled, periodic snapshots at dispatch-boundary
//! granularity, and the `BENCH_health.json` serializer.
//!
//! The `report` binary answers "how well did the paper's machine do";
//! `health` answers "what is the machine doing right now" — the same
//! counters a monitoring scrape would read from a shared
//! [`MetricsRegistry`], exercised
//! over the workload suite so their conservation can be asserted and
//! their shapes pinned (see `docs/observability.md`).

use daisy::metrics::{Counter, Gauge};
use daisy::prelude::*;
use daisy_ppc::PpcIsa;
use daisy_workloads::Workload;
use std::fmt::Write as _;

/// Execution tier for a health run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Packed-format execution (default; all hosts).
    Packed,
    /// Native x86-64 tier over packed (falls back off-x86-64).
    Native,
}

impl Mode {
    /// The mode's name as it appears in flags and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Packed => "packed",
            Mode::Native => "native",
        }
    }

    /// Parses a `--mode` value.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "packed" => Some(Mode::Packed),
            "native" => Some(Mode::Native),
            _ => None,
        }
    }
}

/// One workload's health record: how long it ran, how many periodic
/// snapshots were taken, and the final (exact) snapshot.
#[derive(Debug, Clone)]
pub struct HealthRecord {
    /// Workload name.
    pub name: &'static str,
    /// Dispatch boundaries stepped to completion.
    pub boundaries: u64,
    /// Periodic snapshots taken (including the final one).
    pub snapshots: u64,
    /// The final snapshot, read back from the published registry.
    pub last: MetricsSnapshot,
}

/// Runs `w` to completion one dispatch boundary at a time with metrics
/// enabled, snapshotting every `interval` boundaries; `watch` prints a
/// delta line per snapshot. Asserts the workload's result check, then
/// returns the registry's final published snapshot.
pub fn run_health(w: &Workload, mode: Mode, interval: u64, watch: bool) -> HealthRecord {
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(w.mem_size)
        .native_execution(mode == Mode::Native)
        .metrics(true)
        .metrics_publish_period(interval.min(u32::MAX as u64) as u32)
        .build();
    sys.load(&w.program()).expect("workload fits in memory");

    let mut boundaries: u64 = 0;
    let mut snapshots: u64 = 0;
    let mut prev = sys.metrics_snapshot();
    let budget = 50 * w.max_instrs;
    loop {
        let stop = sys.step().expect("workload runs cleanly");
        boundaries += 1;
        if boundaries.is_multiple_of(interval.max(1)) || stop.is_some() {
            let snap = sys.metrics_snapshot();
            snapshots += 1;
            if watch {
                let d = snap.delta(&prev);
                println!(
                    "{:>12} b={:<8} +retired={:<8} +dispatches={:<6} +chained={:<6} \
                     +cast_outs={:<4} degraded={}",
                    w.name,
                    boundaries,
                    d.counter(Counter::RetiredInstrs),
                    d.counter(Counter::VmmDispatches) + d.counter(Counter::ChainedDispatches),
                    d.counter(Counter::ChainedDispatches),
                    d.counter(Counter::CastOuts),
                    snap.gauge(Gauge::DegradedEntries),
                );
            }
            prev = snap;
        }
        if stop.is_some() {
            break;
        }
        assert!(sys.stats.cycles() <= budget, "{}: exceeded cycle budget", w.name);
    }
    w.check(&sys.cpu, &sys.mem).unwrap_or_else(|e| panic!("{}: check failed: {e}", w.name));
    // One last publish so the registry a monitor would scrape agrees
    // with the snapshot we report.
    sys.publish_metrics_now();
    let last = sys.metrics_registry().expect("metrics enabled").snapshot();
    HealthRecord { name: w.name, boundaries, snapshots, last }
}

/// Serializes the records as the `BENCH_health.json` document:
///
/// ```json
/// {
///   "schema": "daisy-health-v1",
///   "mode": "packed",
///   "interval": 4096,
///   "workloads": [ { "name": ..., "boundaries": ...,
///     "snapshots": ..., "metrics": { ... } }, ... ]
/// }
/// ```
///
/// where each `metrics` object is
/// [`MetricsSnapshot::to_json`](daisy::metrics::MetricsSnapshot::to_json).
pub fn health_json(records: &[HealthRecord], mode: Mode, interval: u64) -> String {
    let mut out = String::new();
    // invariant: write! to a String cannot fail.
    #[allow(clippy::unwrap_used)]
    writeln!(
        out,
        "{{\n  \"schema\": \"daisy-health-v1\",\n  \"mode\": \"{}\",\n  \"interval\": {},\n  \
         \"workloads\": [",
        mode.name(),
        interval
    )
    .unwrap();
    for (i, r) in records.iter().enumerate() {
        // invariant: write! to a String cannot fail.
        #[allow(clippy::unwrap_used)]
        writeln!(
            out,
            "    {{\"name\": \"{}\", \"boundaries\": {}, \"snapshots\": {}, \"metrics\": {}}}{}",
            r.name,
            r.boundaries,
            r.snapshots,
            r.last.to_json(),
            if i + 1 < records.len() { "," } else { "" },
        )
        .unwrap();
    }
    out.push_str("  ]\n}\n");
    out
}
