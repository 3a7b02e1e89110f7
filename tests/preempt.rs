//! Preemption fuzzing: the SoC firmware workload under seed-driven
//! timer/UART interrupt schedules, bit-diffed — architected state,
//! RAM, *and* UART transcript — against the interpreter oracle
//! replaying the exact recorded delivery instants.
//!
//! The replay contract rests on the translated tiers' retired-
//! instruction clock being exact for this guest program, so the first
//! test pins exactly that; everything else builds on it. The full
//! 256-seed acceptance matrix is `#[ignore]`d (run it with
//! `cargo test --release -- --ignored preempt`); `scripts/ci.sh`
//! carries a 32-seed smoke slice.

use daisy::inject::{run_campaign, CampaignConfig, FaultKind};
use daisy::native::{NativeTier, NativeTierConfig};
use daisy::system::DaisySystem;
use daisy_isa::{Exception, GuestCpu, StopReason};
use daisy_ppc::interp::Cpu;
use daisy_ppc::mem::Memory;
use daisy_ppc::PpcIsa;
use daisy_workloads::Workload;

fn firmware() -> Workload {
    daisy_workloads::by_name("soc_firmware").expect("firmware workload")
}

fn preempt_cfg(seed: u64) -> CampaignConfig {
    CampaignConfig::new(FaultKind::Preempt, seed).with_bus(daisy_soc::standard_bus)
}

fn native_supported() -> bool {
    NativeTier::new(NativeTierConfig::default()).is_some()
}

/// Runs the firmware fuzz-free on a DaisySystem tier to its halt park,
/// recording every interrupt delivery's `(retired instructions, pc)`.
fn tier_run(w: &Workload, native: bool) -> DaisySystem<PpcIsa> {
    let prog = w.program();
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(w.mem_size)
        .native_execution(native)
        .native_threshold(2)
        .record_deliveries(true)
        .build();
    let (base, len, dev) = daisy_soc::standard_bus();
    sys.mem.attach_bus(base, len, dev);
    prog.load_into(&mut sys.mem).unwrap();
    sys.cpu.set_pc(prog.entry);
    let halt = prog.labels["halt"];
    let budget = w.max_instrs.saturating_mul(8);
    loop {
        assert!(sys.stats.cycles() < budget, "tier run exceeded the budget");
        match sys.step().expect("firmware must not surface an error") {
            None => {}
            Some(stop) => panic!("firmware stopped unexpectedly: {stop:?}"),
        }
        if GuestCpu::pc(&sys.cpu) == halt && !sys.cpu.interrupts_enabled() {
            return sys;
        }
    }
}

/// Single-steps the interpreter, delivering each recorded interrupt at
/// its exact retired-instruction instant and asserting the architected
/// PC there matches what the translated tier recorded.
fn oracle_replay(w: &Workload, deliveries: &[(u64, u32)], ctx: &str) -> (Cpu, Memory) {
    let prog = w.program();
    let mut mem = Memory::new(w.mem_size);
    let (base, len, dev) = daisy_soc::standard_bus();
    mem.attach_bus(base, len, dev);
    prog.load_into(&mut mem).unwrap();
    let halt = prog.labels["halt"];
    let mut cpu = Cpu::new(prog.entry);
    let mut di = 0usize;
    loop {
        let now = cpu.instret();
        assert!(now < w.max_instrs, "{ctx}: oracle replay exceeded the budget");
        mem.set_bus_time(now);
        if di < deliveries.len() && deliveries[di].0 == now {
            let at = GuestCpu::pc(&cpu);
            assert_eq!(
                at, deliveries[di].1,
                "{ctx}: delivery {di} replayed at instret {now} landed at the wrong pc \
                 — the tier's instruction clock is not exact"
            );
            GuestCpu::deliver(&mut cpu, Exception::External, at);
            di += 1;
            continue;
        }
        if di == deliveries.len() && GuestCpu::pc(&cpu) == halt && !cpu.interrupts_enabled() {
            return (cpu, mem);
        }
        let ev = cpu.step(&mut mem);
        if let Some(stop) = GuestCpu::handle_event(&mut cpu, ev) {
            panic!("{ctx}: firmware stopped unexpectedly on the oracle: {stop:?}");
        }
    }
}

/// The keystone of the replay design: for this (deliberately
/// `b`-free) guest program, the translated tiers' retired-instruction
/// clock is architecturally *exact* on every tier — replaying each
/// tier's recorded delivery instants on the single-stepped interpreter
/// lands every delivery on the recorded PC, and leaves registers and
/// memory bit-identical. (Final clocks are compared per delivery, not
/// at the very end: the halt park spins an architecturally invisible,
/// tier-dependent number of iterations.)
#[test]
fn firmware_instruction_clock_is_exact_on_every_tier() {
    let w = firmware();
    let mut tiers = vec![("packed", false)];
    if native_supported() {
        tiers.push(("native", true));
    }
    for (name, native) in tiers {
        let sys = tier_run(&w, native);
        assert!(sys.stats.interrupts_taken >= 2, "{name}: timer never scheduled");
        let log = sys.delivery_log().expect("recording was on").to_vec();
        assert_eq!(log.len() as u64, sys.stats.interrupts_taken, "{name}: log misses deliveries");
        let (ocpu, _omem) = oracle_replay(&w, &log, name);
        if let Some(what) = sys.cpu.state_diff(&ocpu, false) {
            panic!("{name}: architected state diverged from the replay oracle: {what}");
        }
        (w.check)(&sys.cpu, &sys.mem).unwrap_or_else(|e| panic!("{name}: {e}"));
        (w.check)(&ocpu, &_omem).unwrap_or_else(|e| panic!("{name} oracle: {e}"));
    }
}

/// Multi-seed preemption campaigns on the packed tier: every schedule
/// of forced interrupts, storms, and RX injections must leave the
/// system bit-identical to the oracle replay.
#[test]
fn preempt_campaigns_bit_exact_on_packed() {
    for seed in 0..8u64 {
        let out = run_campaign::<PpcIsa>(&firmware(), &preempt_cfg(seed))
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(out.stop, StopReason::Halted, "seed {seed}");
        assert!(out.interrupts_taken > 0, "seed {seed}: no interrupt was ever delivered");
        assert!(out.degradations >= 1, "seed {seed}: ladder driver recorded no step");
    }
}

/// Campaigns with the native x86-64 tier on: interrupts must land at
/// rerolled back-edge yields of compiled groups without losing
/// precision. On hosts without native support this degenerates to a
/// second packed run (the builder falls back), which is still valid.
#[test]
fn preempt_campaigns_bit_exact_on_native() {
    let mut yields = 0u64;
    for seed in 0..6u64 {
        let cfg = preempt_cfg(seed).with_native();
        let out = run_campaign::<PpcIsa>(&firmware(), &cfg)
            .unwrap_or_else(|e| panic!("native seed {seed}: {e}"));
        assert_eq!(out.stop, StopReason::Halted, "native seed {seed}");
        yields += out.native_yield_preempts;
    }
    if native_supported() {
        assert!(yields > 0, "no delivery ever landed at a native-tier yield across any seed");
    }
}

/// Preemption survives with chaining disabled (pure-VMM dispatch).
#[test]
fn preempt_campaigns_bit_exact_without_chaining() {
    for seed in [3u64, 17] {
        let cfg = CampaignConfig { chaining: false, ..preempt_cfg(seed) };
        run_campaign::<PpcIsa>(&firmware(), &cfg)
            .unwrap_or_else(|e| panic!("unchained seed {seed}: {e}"));
    }
}

/// The acceptance matrix: 256 seeds, packed and native. Ignored by
/// default (minutes of work); CI runs a 32-seed slice.
#[test]
#[ignore = "full acceptance matrix; run with --ignored"]
fn preempt_acceptance_256_seeds() {
    let w = firmware();
    for seed in 0..128u64 {
        run_campaign::<PpcIsa>(&w, &preempt_cfg(seed))
            .unwrap_or_else(|e| panic!("packed seed {seed}: {e}"));
        run_campaign::<PpcIsa>(&w, &preempt_cfg(seed).with_native())
            .unwrap_or_else(|e| panic!("native seed {seed}: {e}"));
    }
}
