//! Plumbing for the `health` binary: checked runs stepped one dispatch
//! boundary at a time, periodic [`DaisySystem::metrics_snapshot`]s at
//! those boundaries, and the `BENCH_health.json` serializer. Every
//! workload runs under four configurations: the packed engine alone and
//! `daisybench`'s three, so the document pins the work counts
//! (VLIWs, stall cycles, cast-outs, compiles) each benchmark workload
//! does.
//!
//! `repro`'s tables answer "how well did the paper's machine do";
//! `health` answers "what is the machine doing right now" — the
//! snapshots a monitor would take, exercised over the workload suite
//! so their conservation can be asserted and their shapes pinned (see
//! `docs/observability.md`).

use daisy::metrics::{Counter, Gauge};
use daisy::prelude::*;
use daisy_ppc::PpcIsa;
use daisy_workloads::Workload;

/// Configures a fresh system's builder for one configuration.
type Configure = fn(DaisySystemBuilder<PpcIsa>) -> DaisySystemBuilder<PpcIsa>;

/// The system configurations a health document covers, by name: the
/// packed engine alone, then `daisybench`'s three workloads (copied
/// from its `Workload::build`). Off x86-64 the native tier declines to
/// engage, so the last three run packed and their native rows read 0.
const CONFIGS: [(&str, Configure); 4] = [
    ("packed", |b| b),
    ("native_suite", |b| b.native_execution(true)),
    ("sim_suite", |b| b.native_execution(true).cache(Hierarchy::paper_default())),
    ("code_thrash", |b| {
        b.translator(TranslatorConfig { page_size: 256, ..TranslatorConfig::default() })
            .native_execution(true)
            .code_capacity(512)
    }),
];

/// One workload's health record under one configuration: how long it
/// ran, how many periodic snapshots were taken, and the final (exact)
/// snapshot.
#[derive(Debug, Clone)]
pub struct HealthRecord {
    /// Configuration name (`packed`, `native_suite`, `sim_suite` or
    /// `code_thrash`).
    pub config: &'static str,
    /// Workload name.
    pub name: &'static str,
    /// Dispatch boundaries stepped to completion.
    pub boundaries: u64,
    /// Periodic snapshots taken (including the final one).
    pub snapshots: u64,
    /// The snapshot taken at the run's last boundary.
    pub last: MetricsSnapshot,
}

/// Runs every workload under every configuration, configuration by
/// configuration. Asserts that the `packed` and `native_suite` runs of
/// each workload execute as many VLIWs and retire as many instructions.
pub fn run_health(workloads: &[Workload], interval: u64, watch: bool) -> Vec<HealthRecord> {
    let records: Vec<HealthRecord> = CONFIGS
        .iter()
        .flat_map(|&(config, build)| {
            workloads.iter().map(move |w| run_one(w, config, build, interval, watch))
        })
        .collect();
    // CONFIGS lists `packed` first and `native_suite` second.
    let n = workloads.len();
    for (packed, native) in records[..n].iter().zip(&records[n..2 * n]) {
        for c in [Counter::Vliws, Counter::RetiredInstrs] {
            assert_eq!(
                packed.last.counter(c),
                native.last.counter(c),
                "{}: native_suite disagrees with packed on {}",
                packed.name,
                c.name()
            );
        }
    }
    records
}

/// Runs `w` to completion on a system from `build`, one dispatch
/// boundary at a time, snapshotting every `interval` boundaries and at
/// the last one; `watch` prints a delta line per snapshot. Asserts the
/// workload's result check, then returns the last snapshot.
fn run_one(
    w: &Workload,
    config: &'static str,
    build: Configure,
    interval: u64,
    watch: bool,
) -> HealthRecord {
    let mut sys = build(DaisySystem::builder().mem_size(w.mem_size)).build();
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
                    "{:>12} {:>12} b={:<8} +retired={:<8} +dispatches={:<6} +chained={:<6} \
                     +cast_outs={:<4} degraded={}",
                    config,
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
        assert!(sys.stats.cycles() <= budget, "{config}/{}: exceeded cycle budget", w.name);
    }
    w.check(&sys.cpu, &sys.mem)
        .unwrap_or_else(|e| panic!("{config}/{}: check failed: {e}", w.name));
    HealthRecord { config, name: w.name, boundaries, snapshots, last: sys.metrics_snapshot() }
}

/// Serializes [`run_health`]'s records as the `BENCH_health.json`
/// document, one entry of `configs` per configuration:
///
/// ```json
/// {
///   "schema": "daisy-health-v2",
///   "interval": 4096,
///   "configs": [
///     {"name": "packed", "workloads": [
///       {"name": ..., "boundaries": ..., "snapshots": ..., "metrics": { ... }},
///       ...
///     ]},
///     ...
///   ]
/// }
/// ```
///
/// where each `metrics` object is
/// [`MetricsSnapshot::to_json`](daisy::metrics::MetricsSnapshot::to_json).
pub fn health_json(records: &[HealthRecord], interval: u64) -> String {
    let configs: Vec<String> = records
        .chunk_by(|a, b| a.config == b.config)
        .map(|group| {
            let rows: Vec<String> = group
                .iter()
                .map(|r| {
                    format!(
                        "      {{\"name\": \"{}\", \"boundaries\": {}, \"snapshots\": {}, \
                         \"metrics\": {}}}",
                        r.name,
                        r.boundaries,
                        r.snapshots,
                        r.last.to_json()
                    )
                })
                .collect();
            let name = group[0].config;
            format!("    {{\"name\": \"{name}\", \"workloads\": [\n{}\n    ]}}", rows.join(",\n"))
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"daisy-health-v2\",\n  \"interval\": {interval},\n  \
         \"configs\": [\n{}\n  ]\n}}\n",
        configs.join(",\n")
    )
}
