//! `pins` — the deterministic bench documents.
//!
//! ```text
//! pins [--out-dir DIR]
//!
//!   --out-dir DIR  write the three documents here
//!                  (default: the repository root)
//! ```
//!
//! Writes three JSON documents whose every figure is a simulated count,
//! so a regenerated copy must match the committed one byte for byte
//! (`scripts/ci.sh` `cmp`s them). Host time is measured by
//! `daisybench`, not here.
//!
//! - `BENCH_engine.json`: per paper workload, the native tier's
//!   `vliws_executed` and `vliws_native`, its coverage (the fraction of
//!   tree instructions executed as compiled x86-64) and its refusals by
//!   kind. Each workload's result is checked, and the packed engine
//!   must execute exactly as many VLIWs. On hosts without native
//!   support the tier falls back to packed execution and the native
//!   column reads zero.
//! - `BENCH_dispatch.json`: VMM, chained and total dispatches with
//!   group chaining on and off.
//! - `BENCH_tiered.json`: finite-cache ILP, VLIWs, stall cycles,
//!   dispatches and hot promotions with profile-guided tiered
//!   retranslation off and on.

use daisy::native::Refusal;
use daisy::prelude::*;
use daisy_bench::runner::{self, Measurement};
use daisy_ppc::PpcIsa;
use daisy_workloads::Workload;
use std::path::Path;

/// Runs `w` to completion on a system from `builder` and checks its
/// result.
fn run(w: &Workload, builder: DaisySystemBuilder<PpcIsa>) -> DaisySystem<PpcIsa> {
    let mut sys = builder.mem_size(w.mem_size).build();
    sys.load(&w.program()).expect("workload fits in memory");
    sys.run(10 * w.max_instrs).expect("DAISY run");
    w.check(&sys.cpu, &sys.mem).unwrap_or_else(|e| panic!("{}: wrong guest result: {e}", w.name));
    sys
}

fn engine_json() -> String {
    let rows: Vec<String> = daisy_workloads::all()
        .iter()
        .map(|w| {
            let packed = run(w, DaisySystem::builder());
            let native = run(w, DaisySystem::builder().native_execution(true));
            let vliws = native.stats.vliws_executed;
            assert_eq!(
                packed.stats.vliws_executed, vliws,
                "{}: native tier disagrees on work done",
                w.name
            );
            let ns = native.native_stats().unwrap_or_default();
            let refusals = Refusal::ALL
                .iter()
                .map(|r| format!("\"{}\": {}", r.as_str(), ns.refusal_histogram[r.index()]))
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"native\": {{\"vliws_executed\": {}, ",
                    "\"vliws_native\": {}, \"coverage\": {:.3}, \"refusals\": {{{}}}}}}}"
                ),
                w.name,
                vliws,
                ns.vliws_native,
                ns.vliws_native as f64 / vliws.max(1) as f64,
                refusals
            )
        })
        .collect();
    document("engine", &rows)
}

fn dispatch_json() -> String {
    let rows: Vec<String> = ["hist", "compress", "c_sieve"]
        .iter()
        .map(|&name| {
            let w = daisy_workloads::by_name(name).expect("known workload");
            let cell = |chaining: bool| {
                let sys = run(&w, DaisySystem::builder().chaining(chaining));
                format!(
                    concat!(
                        "{{\"vmm_dispatches\": {}, \"chained_dispatches\": {}, ",
                        "\"total_dispatches\": {}}}"
                    ),
                    sys.stats.groups_entered,
                    sys.stats.chain.chained_dispatches,
                    sys.stats.total_dispatches()
                )
            };
            format!(
                "    {{\"name\": \"{name}\", \"chained\": {}, \"unchained\": {}}}",
                cell(true),
                cell(false)
            )
        })
        .collect();
    document("dispatch", &rows)
}

fn tiered_json() -> String {
    let rows: Vec<String> = ["compress", "sort", "xlat"]
        .iter()
        .map(|&name| {
            let w = daisy_workloads::by_name(name).expect("known workload");
            let measure = |tiered: bool| {
                runner::run_daisy_tiered(
                    &w,
                    TranslatorConfig::default(),
                    Hierarchy::paper_default(),
                    tiered.then(TierPolicy::default),
                )
            };
            let cell = |m: &Measurement| {
                format!(
                    concat!(
                        "{{\"finite_ilp\": {:.4}, \"ilp\": {:.4}, \"vliws\": {}, ",
                        "\"stall_cycles\": {}, \"total_dispatches\": {}, ",
                        "\"hot_promotions\": {}}}"
                    ),
                    m.finite_ilp(),
                    m.ilp(),
                    m.stats.vliws_executed,
                    m.stats.stall_cycles,
                    m.stats.total_dispatches(),
                    m.hot_promotions
                )
            };
            let (cold, hot) = (measure(false), measure(true));
            format!(
                concat!(
                    "    {{\"name\": \"{}\", \"cold\": {}, \"tiered\": {}, ",
                    "\"finite_ilp_delta_pct\": {:.2}}}"
                ),
                name,
                cell(&cold),
                cell(&hot),
                (hot.finite_ilp() / cold.finite_ilp() - 1.0) * 100.0
            )
        })
        .collect();
    document("tiered", &rows)
}

fn document(bench: &str, rows: &[String]) -> String {
    format!("{{\n  \"bench\": \"{bench}\",\n  \"workloads\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

fn main() {
    // This crate is crates/bench, two levels below the repository root.
    let mut out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a grandparent")
        .to_path_buf();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out-dir" => out_dir = args.next().expect("--out-dir needs a path").into(),
            "--help" | "-h" => {
                println!("pins [--out-dir DIR]");
                return;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let write = |file: &str, json: String| {
        let path = out_dir.join(file);
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    };
    write("BENCH_engine.json", engine_json());
    write("BENCH_dispatch.json", dispatch_json());
    write("BENCH_tiered.json", tiered_json());
}
