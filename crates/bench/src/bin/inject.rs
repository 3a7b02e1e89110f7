//! `inject` — run deterministic fault-injection campaigns against the
//! VMM and report per-kind results. Exits non-zero if any campaign
//! panics, diverges from the pure-interpreter oracle, or fails to
//! record a ladder step.
//!
//! ```text
//! inject [--seed N] [--seeds N] [--kind NAME] [--no-chain] [--native] [WORKLOAD ...]
//!
//!   --seed N      run exactly one seed (default: a seed sweep)
//!   --seeds N     seeds per (workload, kind) pair (default 32)
//!   --kind NAME   restrict to one fault kind (default: all six;
//!                 `preempt` selects preemption fuzzing against the
//!                 modeled SoC and defaults WORKLOAD to soc_firmware)
//!   --no-chain    disable direct group chaining
//!   --native      start the ladder at the native x86-64 rung
//!   WORKLOAD      workload names (default: c_sieve wc cmp hist)
//! ```
//!
//! Every campaign's final architected state — registers and all of
//! memory — is diffed bit for bit against the interpreter. This is the
//! CI smoke gate for the graceful-degradation ladder (`scripts/ci.sh`).

use daisy::inject::{run_campaign, CampaignConfig, FaultKind};
use std::panic::{catch_unwind, AssertUnwindSafe};

struct Options {
    seed: Option<u64>,
    seeds: u64,
    kinds: Vec<FaultKind>,
    chaining: bool,
    native: bool,
    workloads: Vec<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        seed: None,
        seeds: 32,
        kinds: FaultKind::ALL.to_vec(),
        chaining: true,
        native: false,
        workloads: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                let n = args.next().expect("--seed needs a value");
                opts.seed = Some(n.parse().expect("--seed needs an integer"));
            }
            "--seeds" => {
                let n = args.next().expect("--seeds needs a value");
                opts.seeds = n.parse().expect("--seeds needs an integer");
            }
            "--kind" => {
                let name = args.next().expect("--kind needs a name");
                let kind = FaultKind::by_name(&name)
                    .unwrap_or_else(|| panic!("unknown fault kind {name:?}"));
                opts.kinds = vec![kind];
            }
            "--no-chain" => opts.chaining = false,
            "--native" => opts.native = true,
            "--help" | "-h" => {
                println!(
                    "inject [--seed N] [--seeds N] [--kind NAME] [--no-chain] [--native] \
                     [WORKLOAD ...]"
                );
                std::process::exit(0);
            }
            other => opts.workloads.push(other.to_string()),
        }
    }
    if opts.workloads.is_empty() {
        // Preemption fuzzing targets interrupt-handling firmware; the
        // user-style kernels can't satisfy its clock-exactness
        // contract (they contain unconditional branches).
        if opts.kinds == [FaultKind::Preempt] {
            opts.workloads = vec!["soc_firmware".to_string()];
        } else {
            opts.workloads = ["c_sieve", "wc", "cmp", "hist"].map(String::from).to_vec();
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    let seeds: Vec<u64> = match opts.seed {
        Some(s) => vec![s],
        None => (0..opts.seeds).collect(),
    };

    let mut ran = 0u64;
    let mut failures = 0u64;
    for name in &opts.workloads {
        let w =
            daisy_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload {name:?}"));
        for &kind in &opts.kinds {
            let mut injections = 0u64;
            let mut degradations = 0usize;
            let mut interrupts = 0u64;
            let mut native_yields = 0u64;
            let mut kind_failures = 0u64;
            for &seed in &seeds {
                ran += 1;
                let mut cfg = CampaignConfig {
                    chaining: opts.chaining,
                    native: opts.native,
                    ..CampaignConfig::new(kind, seed)
                };
                if kind == FaultKind::Preempt {
                    cfg = cfg.with_bus(daisy_soc::standard_bus);
                }
                match catch_unwind(AssertUnwindSafe(|| run_campaign(&w, &cfg))) {
                    Ok(Ok(out)) => {
                        injections += out.injections;
                        degradations += out.degradations;
                        interrupts += out.interrupts_taken;
                        native_yields += out.native_yield_preempts;
                    }
                    Ok(Err(e)) => {
                        eprintln!("FAIL {name}/{kind} seed {seed}: {e}");
                        kind_failures += 1;
                    }
                    Err(_) => {
                        eprintln!("PANIC {name}/{kind} seed {seed}");
                        kind_failures += 1;
                    }
                }
            }
            if degradations == 0 && kind_failures == 0 {
                eprintln!("FAIL {name}/{kind}: no campaign recorded a ladder step");
                kind_failures += 1;
            }
            failures += kind_failures;
            println!(
                "{name:>12} {kind:>15}  seeds {:>3}  injections {injections:>6}  \
                 degradations {degradations:>4}  interrupts {interrupts:>5}  \
                 native-yield-preempts {native_yields:>4}  failures {kind_failures}",
                seeds.len()
            );
        }
    }
    println!("{ran} campaigns, {failures} failures");
    if failures > 0 {
        std::process::exit(1);
    }
}
