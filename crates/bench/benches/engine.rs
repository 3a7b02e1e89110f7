//! Execution-engine throughput: the native host-code tier versus the
//! packed execution format, end-to-end (translate and run) over all
//! nine paper workloads — the simulation speed that makes the Chapter 5
//! sweeps practical.
//!
//! Besides the criterion timings, a full `cargo bench` run writes
//! `BENCH_engine.json` at the repository root: per workload, the
//! wall-clock time and host nanoseconds per guest instruction for each
//! tier, the native-over-packed speedup, the fraction of tree
//! instructions the native tier executed as compiled x86-64
//! (`coverage`, with refusals by kind), and the geometric-mean speedup
//! across the suite. Both tiers live in the same binary
//! ([`DaisySystemBuilder::native_execution`]). Under `cargo test` the
//! suite runs a single quick correctness pass (both tiers, results
//! checked) and leaves the JSON untouched — debug-build timings would
//! be meaningless.
//!
//! On hosts without native support (non-x86-64) the native column
//! falls back to packed execution; regenerate the JSON on x86-64.
//!
//! [`DaisySystemBuilder::native_execution`]:
//! daisy::system::DaisySystemBuilder::native_execution

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use daisy::system::DaisySystem;
use daisy_workloads::Workload;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Packed,
    Native,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Packed => "packed",
            Mode::Native => "native",
        }
    }
}

fn run_once(
    w: &Workload,
    prog: &daisy_ppc::asm::Program,
    mode: Mode,
) -> DaisySystem<daisy_ppc::PpcIsa> {
    let mut sys = DaisySystem::<daisy_ppc::PpcIsa>::builder()
        .mem_size(w.mem_size)
        .native_execution(mode == Mode::Native)
        .build();
    sys.load(prog).unwrap();
    sys.run(10 * w.max_instrs).unwrap();
    w.check(&sys.cpu, &sys.mem)
        .unwrap_or_else(|e| panic!("{} ({}): wrong guest result: {e}", w.name, mode.name()));
    sys
}

/// Best-of-`reps` wall seconds plus the run's stats.
fn measure(
    w: &Workload,
    prog: &daisy_ppc::asm::Program,
    mode: Mode,
    reps: u32,
) -> (f64, DaisySystem<daisy_ppc::PpcIsa>) {
    let mut best = f64::INFINITY;
    let mut sys = None;
    for _ in 0..reps {
        let t = Instant::now();
        let s = run_once(w, prog, mode);
        best = best.min(t.elapsed().as_secs_f64());
        sys = Some(s);
    }
    (best, sys.unwrap())
}

fn bench_engine(c: &mut Criterion) {
    let full = std::env::args().any(|a| a == "--bench");

    // Criterion-timed subset (kept small; the JSON below covers the
    // full suite).
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    for name in ["c_sieve", "wc", "fgrep"] {
        let w = daisy_workloads::by_name(name).unwrap();
        let prog = w.program();
        for mode in [Mode::Native, Mode::Packed] {
            g.bench_with_input(BenchmarkId::new(name, mode.name()), &mode, |b, &m| {
                b.iter(|| black_box(run_once(&w, &prog, m)));
            });
        }
    }
    g.finish();

    if !full {
        // Smoke mode: the correctness passes above already ran both
        // tiers; don't overwrite the measured JSON with debug noise.
        return;
    }

    let mut rows = Vec::new();
    let mut log_native_ratio_sum = 0.0;
    let all = daisy_workloads::all();
    for w in &all {
        let prog = w.program();
        let (packed_s, psys) = measure(w, &prog, Mode::Packed, 3);
        let (native_s, nsys) = measure(w, &prog, Mode::Native, 3);
        assert_eq!(
            psys.stats.vliws_executed, nsys.stats.vliws_executed,
            "{}: native tier disagrees on work done",
            w.name
        );
        let guest = psys.stats.approx_base_instrs().max(1) as f64;
        let native_ratio = packed_s / native_s;
        log_native_ratio_sum += native_ratio.ln();
        let coverage = nsys
            .native_stats()
            .map(|ns| ns.vliws_native as f64 / nsys.stats.vliws_executed.max(1) as f64)
            .unwrap_or(0.0);
        // Why the tier fell short of full coverage, by refusal kind
        // (all zeros on a fully covered workload).
        let refusals = nsys
            .native_stats()
            .map(|ns| ns.refusal_histogram)
            .unwrap_or([0; daisy::native::Refusal::COUNT]);
        let refusal_json = daisy::native::Refusal::ALL
            .iter()
            .map(|r| format!("\"{}\": {}", r.as_str(), refusals[r.index()]))
            .collect::<Vec<_>>()
            .join(", ");
        let mut row = String::new();
        let _ = write!(
            row,
            concat!(
                "    {{\"name\": \"{}\", ",
                "\"packed\": {{\"wall_ms\": {:.3}, \"ns_per_guest_instr\": {:.2}}}, ",
                "\"native\": {{\"wall_ms\": {:.3}, \"ns_per_guest_instr\": {:.2}, ",
                "\"coverage\": {:.3}, \"refusals\": {{{}}}}}, ",
                "\"native_speedup\": {:.3}}}"
            ),
            w.name,
            packed_s * 1e3,
            packed_s * 1e9 / guest,
            native_s * 1e3,
            native_s * 1e9 / guest,
            coverage,
            refusal_json,
            native_ratio
        );
        rows.push(row);
    }
    let native_geomean = (log_native_ratio_sum / all.len() as f64).exp();
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"engine\",\n",
            "  \"native_geomean_speedup\": {:.3},\n",
            "  \"workloads\": [\n{}\n  ]\n}}\n"
        ),
        native_geomean,
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    std::fs::write(path, json).expect("write BENCH_engine.json");
    println!("engine geomean speedup (native vs packed): {native_geomean:.3}x");
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
