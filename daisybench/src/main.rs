//! The DAISY benchmark: runs one workload for a fixed time from a
//! single thread and prints its metrics as the last line of standard
//! output.
//!
//! ```text
//! cargo run --release --manifest-path daisybench/Cargo.toml -- \
//!     --workload native_suite --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones (see `README.md` for both lists and what each
//! workload is for).

mod calib;
mod host;
mod layers;
mod measure;
mod report;
mod stats;
mod suite;

use report::Report;
use std::process::ExitCode;
use std::time::Instant;
use suite::{Checks, Order, Workload};

/// Set-up (assembly plus reference-interpreter runs) is repeated this
/// many times; `setup_s` is the median.
const SETUP_REPS: usize = 9;

const USAGE: &str = "usage: daisybench --workload <native_suite|sim_suite|code_thrash> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sched_start = host::Sched::now();
    let mut report = Report::default();

    let mut cal = calib::Calibrator::default();
    let (mut setup_s, mut raw_setup_s) = (Vec::new(), Vec::new());
    let mut interp_ns_per_instr = Vec::new();
    let mut programs = Vec::new();
    for _ in 0..SETUP_REPS {
        let before = cal.ns_per_step();
        let t = Instant::now();
        match suite::prepare() {
            Ok((progs, oracle_ns)) => {
                let raw = t.elapsed().as_secs_f64();
                raw_setup_s.push(raw);
                setup_s.push(calib::to_reference(raw, before, cal.ns_per_step()));
                let instrs: u64 = progs.iter().map(|p| p.instrs).sum();
                interp_ns_per_instr.push(oracle_ns as f64 / instrs as f64);
                programs = progs;
            }
            Err(e) => {
                eprintln!("set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let wl = args.workload;
    let mut checks = Checks::default();
    let mut order = Order::new(args.seed);
    let context = if args.trace {
        report.set("ppc.interp_ns_per_instr", stats::median(&interp_ns_per_instr));
        layers::run(wl, &programs, &mut order, args.seconds, &mut cal, &mut checks, &mut report)
    } else {
        report.set("setup_s", stats::median(&setup_s));
        let mut lines = measure::run(
            wl,
            &programs,
            &mut order,
            args.seconds,
            &mut cal,
            &mut checks,
            &mut report,
        );
        lines.push(format!("unscaled_setup_s {:.6}", stats::median(&raw_setup_s)));
        lines
    };
    report.attempted = checks.attempted;
    report.failed = checks.failed;
    let passed = report.attempted - report.failed;
    if args.trace {
        report.set("host.oncpu_ratio", host::oncpu_ratio(&sched_start));
    } else {
        report.set("peak_rss_mib", host::peak_rss_mib());
        report.set("pass_ratio", stats::ratio(passed as f64, report.attempted as f64));
    }

    for line in context {
        println!("{line}");
    }
    for (program, digest) in checks.determinism.digests() {
        println!("digest {} {program} {digest:016x}", args.workload.name());
    }
    println!("{}", host::context_line(&sched_start));
    match report.json_line(args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot report: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("--workload code_thrash --seed 42 --seconds 10 --trace 1"));
        assert_eq!(
            a,
            Ok(Args { workload: Workload::CodeThrash, seed: 42, seconds: 10.0, trace: true })
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload soc_firmware",
            "--workload sim_suite --trace 2",
            "--workload sim_suite --seconds 0",
            "--workload sim_suite --seed -1",
            "--workload sim_suite --bogus 1",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
