//! `profile` — per-group execution profile and structured-event report
//! for one or more workloads.
//!
//! ```text
//! profile [--top N] [--jsonl FILE] [--trace-dir DIR] [--folded-dir DIR]
//!         [--annotate-dir DIR] [WORKLOAD ...]
//!
//!   --top N          show the N hottest groups (default 10)
//!   --jsonl FILE     also write every captured trace event to FILE as
//!                    JSON lines (FILE is truncated once, then holds
//!                    every workload of the run in order)
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
//! cache ([`Hierarchy::paper_default`]) with guest profiling on; a
//! workload that computes a wrong answer aborts the run. For each this
//! prints the top-N groups by dispatch count (entry address,
//! dispatches, VLIWs retired, stall cycles) and a histogram of
//! structured trace events. The group table is rolled up from the
//! guest profile's dispatch timeline ([`GuestProfile::timeline`]);
//! when the timeline hit its bound the dropped count is printed, so a
//! truncated table is visible. The guest-level metrics of the same run
//! are `repro guest-profile`'s table.

use daisy::prelude::*;
use daisy::profile::{annotated_disassembly, chrome_trace_json, folded_stacks};
use daisy_bench::reporting::{resolve_workloads, run_profiled};
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::Write as _;

/// One group entry's rollup of its timeline dispatches.
#[derive(Default)]
struct GroupRow {
    dispatches: u64,
    vliws: u64,
    stalls: u64,
}

struct Options {
    top: usize,
    jsonl: Option<String>,
    trace_dir: Option<String>,
    folded_dir: Option<String>,
    annotate_dir: Option<String>,
    workloads: Vec<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        top: 10,
        jsonl: None,
        trace_dir: None,
        folded_dir: None,
        annotate_dir: None,
        workloads: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--top" => {
                let n = args.next().expect("--top needs a value");
                opts.top = n.parse().expect("--top needs an integer");
            }
            "--jsonl" => opts.jsonl = Some(args.next().expect("--jsonl needs a path")),
            "--trace-dir" => opts.trace_dir = Some(args.next().expect("--trace-dir needs a path")),
            "--folded-dir" => {
                opts.folded_dir = Some(args.next().expect("--folded-dir needs a path"))
            }
            "--annotate-dir" => {
                opts.annotate_dir = Some(args.next().expect("--annotate-dir needs a path"))
            }
            "--help" | "-h" => {
                println!(
                    "profile [--top N] [--jsonl FILE] [--trace-dir DIR] [--folded-dir DIR] \
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

fn profile_workload(w: &daisy_workloads::Workload, opts: &Options, jsonl: Option<&mut File>) {
    let sys = run_profiled(w, 1 << 16);

    let gp = sys.guest_profile().expect("guest profiling enabled");
    let mut groups: HashMap<u32, GroupRow> = HashMap::new();
    for ev in gp.timeline() {
        if let TimelineEvent::Dispatch { entry, cycles, vliws, .. } = *ev {
            let row = groups.entry(entry).or_default();
            row.dispatches += 1;
            row.vliws += u64::from(vliws);
            row.stalls += cycles.saturating_sub(u64::from(vliws));
        }
    }
    println!("== {} ({} distinct groups) ==", w.name, groups.len());
    if gp.timeline_dropped() > 0 {
        println!("(timeline full: {} dispatches dropped from the table)", gp.timeline_dropped());
    }
    println!("{:>10}  {:>10}  {:>12}  {:>12}", "entry", "dispatches", "vliws", "stalls");
    let mut top: Vec<(u32, GroupRow)> = groups.into_iter().collect();
    top.sort_by(|a, b| b.1.dispatches.cmp(&a.1.dispatches).then(a.0.cmp(&b.0)));
    for (entry, row) in top.into_iter().take(opts.top) {
        println!("{entry:>#10x}  {:>10}  {:>12}  {:>12}", row.dispatches, row.vliws, row.stalls);
    }

    let recorder = sys.flight_recorder();
    let events = recorder.events();
    let mut hist: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (_, ev) in &events {
        *hist.entry(ev.kind()).or_default() += 1;
    }
    println!("-- events ({} captured, {} dropped) --", events.len(), recorder.dropped());
    for (kind, n) in &hist {
        println!("{kind:>18}  {n}");
    }
    println!();

    if let Some(f) = jsonl {
        for (_, ev) in &events {
            writeln!(f, "{}", ev.to_json()).expect("write --jsonl file");
        }
    }
    if let Some(dir) = &opts.trace_dir {
        write_artifact(dir, format!("{}.trace.json", w.name), &chrome_trace_json(gp, w.name));
    }
    if let Some(dir) = &opts.folded_dir {
        let folded = folded_stacks(gp, w.name, sys.vmm.cfg.page_size);
        write_artifact(dir, format!("{}.folded", w.name), &folded);
    }
    if let Some(dir) = &opts.annotate_dir {
        let annotated = annotated_disassembly::<daisy_ppc::PpcIsa>(gp, &sys.mem, w.name);
        write_artifact(dir, format!("{}.txt", w.name), &annotated);
    }
}

fn main() {
    let opts = parse_args();
    let workloads = resolve_workloads(&opts.workloads);
    let mut jsonl =
        opts.jsonl.as_ref().map(|path| File::create(path).expect("create --jsonl file"));
    for w in &workloads {
        profile_workload(w, &opts, jsonl.as_mut());
    }
}
