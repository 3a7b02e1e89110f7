//! `report` — guest-level performance report over the workload suite.
//!
//! ```text
//! report [--out FILE] [--trace-dir DIR] [--folded-dir DIR]
//!        [--annotate-dir DIR] [WORKLOAD ...]
//!
//!   --out FILE       write the JSON report here
//!                    (default BENCH_report.json)
//!   --trace-dir DIR  also write a Chrome trace_event JSON per
//!                    workload to DIR/<workload>.trace.json
//!                    (load in chrome://tracing or Perfetto)
//!   --folded-dir DIR also write flamegraph-folded stacks to
//!                    DIR/<workload>.folded
//!   --annotate-dir DIR
//!                    also write an annotated guest disassembly to
//!                    DIR/<workload>.txt
//!   WORKLOAD         workload names (default: all nine)
//! ```
//!
//! Each workload runs once to completion under the paper's finite
//! cache with guest profiling on, and publishes five metrics: finite
//! ILP, infinite ILP (pathlength reduction), parcels per VLIW, modeled
//! VMM overhead per base instruction (§4.2 buckets), and the fraction
//! of speculative parcels wasted. Results are checked — a workload
//! that computes a wrong answer aborts the report.

use daisy::profile::{annotated_disassembly, folded_stacks};
use daisy_bench::reporting::{chrome_trace_for, report_json, report_workload, resolve_workloads};

struct Options {
    out: String,
    trace_dir: Option<String>,
    folded_dir: Option<String>,
    annotate_dir: Option<String>,
    workloads: Vec<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        out: "BENCH_report.json".to_owned(),
        trace_dir: None,
        folded_dir: None,
        annotate_dir: None,
        workloads: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => opts.out = args.next().expect("--out needs a path"),
            "--trace-dir" => opts.trace_dir = Some(args.next().expect("--trace-dir needs a path")),
            "--folded-dir" => {
                opts.folded_dir = Some(args.next().expect("--folded-dir needs a path"))
            }
            "--annotate-dir" => {
                opts.annotate_dir = Some(args.next().expect("--annotate-dir needs a path"))
            }
            "--help" | "-h" => {
                println!(
                    "report [--out FILE] [--trace-dir DIR] [--folded-dir DIR] \
                     [--annotate-dir DIR] [WORKLOAD ...]"
                );
                std::process::exit(0);
            }
            other => opts.workloads.push(other.to_string()),
        }
    }
    opts
}

fn write_artifact(dir: &str, file: String, contents: &str) {
    std::fs::create_dir_all(dir).expect("create artifact dir");
    let path = std::path::Path::new(dir).join(file);
    std::fs::write(&path, contents).expect("write artifact");
    println!("  wrote {}", path.display());
}

fn main() {
    let opts = parse_args();
    let workloads = resolve_workloads(&opts.workloads);
    let mut reports = Vec::new();
    println!(
        "{:>10}  {:>12}  {:>10}  {:>12}  {:>9}  {:>12}  {:>8}",
        "workload", "base_instrs", "finite_ilp", "infinite_ilp", "ops/vliw", "ovh/instr", "waste%"
    );
    for w in &workloads {
        let (r, sys) = report_workload(w);
        println!(
            "{:>10}  {:>12}  {:>10.3}  {:>12.3}  {:>9.3}  {:>12.3}  {:>7.2}%",
            r.name,
            r.base_instrs,
            r.finite_ilp,
            r.infinite_ilp,
            r.ops_per_vliw,
            r.overhead_per_base_instr,
            100.0 * r.waste_fraction,
        );
        if let Some(dir) = &opts.trace_dir {
            write_artifact(dir, format!("{}.trace.json", w.name), &chrome_trace_for(&sys, w.name));
        }
        let gp = sys.guest_profile().expect("guest profiling enabled");
        if let Some(dir) = &opts.folded_dir {
            let folded = folded_stacks(gp, w.name, sys.vmm.cfg.page_size);
            write_artifact(dir, format!("{}.folded", w.name), &folded);
        }
        if let Some(dir) = &opts.annotate_dir {
            let annotated = annotated_disassembly::<daisy_ppc::PpcIsa>(gp, &sys.mem, w.name);
            write_artifact(dir, format!("{}.txt", w.name), &annotated);
        }
        reports.push(r);
    }
    let json = report_json(&reports);
    std::fs::write(&opts.out, json).expect("write report JSON");
    println!("wrote {}", opts.out);
}
