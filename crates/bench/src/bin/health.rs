//! `health` — periodic metrics snapshots over the workload suite.
//!
//! ```text
//! health [--mode packed|native] [--interval N] [--watch]
//!        [--out FILE] [--prom FILE] [WORKLOAD ...]
//!
//!   --mode MODE      execution tier: packed (default), native
//!   --interval N     dispatch boundaries between snapshots
//!                    (default 4096)
//!   --watch          print a delta line per snapshot while running
//!   --out FILE       write the JSON health document here
//!                    (default BENCH_health.json)
//!   --prom FILE      also write Prometheus text exposition with one
//!                    labelled series per workload
//!   WORKLOAD         workload names (default: all nine)
//! ```
//!
//! Each workload runs to completion with the metrics registry enabled,
//! stepping one dispatch boundary at a time and snapshotting every
//! `--interval` boundaries. The final registry snapshot per workload
//! lands in the JSON document (and the optional Prometheus file);
//! `--watch` additionally prints the snapshot-over-snapshot deltas as
//! they happen — the live-health view. Results are checked: a workload
//! that computes a wrong answer aborts the run.

use daisy::metrics::{prometheus_text, Counter, Gauge};
use daisy::prelude::*;
use daisy_bench::health::{health_json, run_health, Mode};
use daisy_bench::reporting::resolve_workloads;

struct Options {
    mode: Mode,
    interval: u64,
    watch: bool,
    out: String,
    prom: Option<String>,
    workloads: Vec<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        mode: Mode::Packed,
        interval: 4096,
        watch: false,
        out: "BENCH_health.json".to_owned(),
        prom: None,
        workloads: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--mode" => {
                let v = args.next().expect("--mode needs a value");
                opts.mode = Mode::parse(&v)
                    .unwrap_or_else(|| panic!("unknown mode: {v} (expected packed|native)"));
            }
            "--interval" => {
                opts.interval = args
                    .next()
                    .expect("--interval needs a value")
                    .parse::<u64>()
                    .expect("--interval needs a number")
                    .max(1)
            }
            "--watch" => opts.watch = true,
            "--out" => opts.out = args.next().expect("--out needs a path"),
            "--prom" => opts.prom = Some(args.next().expect("--prom needs a path")),
            "--help" | "-h" => {
                println!(
                    "health [--mode packed|native] [--interval N] [--watch] \
                     [--out FILE] [--prom FILE] [WORKLOAD ...]"
                );
                std::process::exit(0);
            }
            other => opts.workloads.push(other.to_string()),
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    let workloads = resolve_workloads(&opts.workloads);
    let mut records = Vec::new();
    println!(
        "{:>12}  {:>10}  {:>9}  {:>12}  {:>10}  {:>9}  {:>8}",
        "workload", "boundaries", "snapshots", "retired", "dispatches", "cast_outs", "degraded"
    );
    for w in &workloads {
        let r = run_health(w, opts.mode, opts.interval, opts.watch);
        println!(
            "{:>12}  {:>10}  {:>9}  {:>12}  {:>10}  {:>9}  {:>8}",
            r.name,
            r.boundaries,
            r.snapshots,
            r.last.counter(Counter::RetiredInstrs),
            r.last.counter(Counter::VmmDispatches) + r.last.counter(Counter::ChainedDispatches),
            r.last.counter(Counter::CastOuts),
            r.last.gauge(Gauge::DegradedEntries),
        );
        records.push(r);
    }
    let json = health_json(&records, opts.mode, opts.interval);
    std::fs::write(&opts.out, json).expect("write health JSON");
    println!("wrote {}", opts.out);
    if let Some(prom_path) = &opts.prom {
        let series: Vec<(&str, &MetricsSnapshot)> =
            records.iter().map(|r| (r.name, &r.last)).collect();
        std::fs::write(prom_path, prometheus_text(&series)).expect("write Prometheus text");
        println!("wrote {prom_path}");
    }
}
