//! `health` — periodic metrics snapshots over the workload suite.
//!
//! ```text
//! health [--interval N] [--watch] [--out FILE] [--prom FILE]
//!        [WORKLOAD ...]
//!
//!   --interval N     dispatch boundaries between snapshots
//!                    (default 4096)
//!   --watch          print a delta line per snapshot while running
//!   --out FILE       write the JSON health document here
//!                    (default BENCH_health.json)
//!   --prom FILE      also write Prometheus text exposition with one
//!                    labelled series per configuration and
//!                    workload
//!   WORKLOAD         workload names (default: all nine)
//! ```
//!
//! Each workload runs under four configurations: `packed` (the packed
//! engine alone) and `daisybench`'s `native_suite`, `sim_suite` and
//! `code_thrash`. Each run goes to completion one dispatch boundary at
//! a time,
//! snapshotting every `--interval` boundaries and at the last one. The
//! last snapshot per run lands in the JSON document (and the
//! optional Prometheus file); `--watch` additionally prints the
//! snapshot-over-snapshot deltas as they happen — the live-health
//! view. Results are checked: a workload that computes a wrong answer
//! aborts the run, and so does a `native_suite` run that executes a
//! different number of VLIWs or retires a different number of
//! instructions than the `packed` one.

use daisy::metrics::{prometheus_text, Counter, Gauge, Labels};
use daisy::prelude::*;
use daisy_bench::health::{health_json, run_health};
use daisy_bench::reporting::resolve_workloads;

struct Options {
    interval: u64,
    watch: bool,
    out: String,
    prom: Option<String>,
    workloads: Vec<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        interval: 4096,
        watch: false,
        out: "BENCH_health.json".to_owned(),
        prom: None,
        workloads: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
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
                    "health [--interval N] [--watch] [--out FILE] [--prom FILE] [WORKLOAD ...]"
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
    let records = run_health(&workloads, opts.interval, opts.watch);
    println!(
        "{:>12}  {:>12}  {:>10}  {:>9}  {:>12}  {:>10}  {:>9}  {:>8}",
        "config",
        "workload",
        "boundaries",
        "snapshots",
        "retired",
        "dispatches",
        "cast_outs",
        "degraded"
    );
    for r in &records {
        println!(
            "{:>12}  {:>12}  {:>10}  {:>9}  {:>12}  {:>10}  {:>9}  {:>8}",
            r.config,
            r.name,
            r.boundaries,
            r.snapshots,
            r.last.counter(Counter::RetiredInstrs),
            r.last.counter(Counter::VmmDispatches) + r.last.counter(Counter::ChainedDispatches),
            r.last.counter(Counter::CastOuts),
            r.last.gauge(Gauge::DegradedEntries),
        );
    }
    std::fs::write(&opts.out, health_json(&records, opts.interval)).expect("write health JSON");
    println!("wrote {}", opts.out);
    if let Some(prom_path) = &opts.prom {
        let labels: Vec<[(&str, &str); 2]> =
            records.iter().map(|r| [("config", r.config), ("workload", r.name)]).collect();
        let series: Vec<(Labels<'_>, &MetricsSnapshot)> =
            labels.iter().zip(&records).map(|(l, r)| (&l[..], &r.last)).collect();
        std::fs::write(prom_path, prometheus_text(&series)).expect("write Prometheus text");
        println!("wrote {prom_path}");
    }
}
