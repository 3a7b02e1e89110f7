//! Observability contract tests: the flight recorder is on in every
//! system, and it captures the exact structured event sequence for a
//! small self-modifying program — translations, chain installs, the
//! code-modification store, the page invalidation, and the resulting
//! chain severs, in dispatch order.

use daisy::prelude::*;
use daisy::trace::Tier;
use daisy_ppc::encode::encode;
use daisy_ppc::insn::Insn;
use daisy_ppc::interp::StopReason;
use daisy_ppc::PpcIsa;
use daisy_ppc::{Asm, Gpr};

mod common;
use common::trace_events;

const PAGE: u32 = 256;
const TABLE: u32 = 0x8000;

/// Three-iteration self-modifying loop: each pass stores a fresh
/// `addi r5, 0, imm` encoding over the `patch:` site (parked on the
/// next page so the store invalidates a unit other than the one it
/// executes from) and accumulates r5 into r7.
fn selfmod_program(imms: &[i16]) -> daisy_ppc::asm::Program {
    let mut a = Asm::new(0x1F00);
    a.li(Gpr(7), 0);
    a.li32(Gpr(9), TABLE);
    a.li(Gpr(8), 0);
    a.li(Gpr(31), imms.len() as i16);
    a.mtctr(Gpr(31));
    a.label("loop");
    a.lwzx(Gpr(4), Gpr(9), Gpr(8));
    a.la(Gpr(3), "patch");
    a.stw(Gpr(4), 0, Gpr(3));
    while !a.here().is_multiple_of(PAGE) {
        a.nop();
    }
    a.label("patch");
    a.li(Gpr(5), 0);
    a.add(Gpr(7), Gpr(7), Gpr(5));
    a.addi(Gpr(8), Gpr(8), 4);
    a.bdnz("loop");
    a.sc();
    let words: Vec<u32> =
        imms.iter().map(|&si| encode(&Insn::Addi { rt: Gpr(5), ra: Gpr(0), si })).collect();
    a.data_words(TABLE, &words);
    a.finish().expect("selfmod program assembles")
}

fn small_pages() -> TranslatorConfig {
    TranslatorConfig { page_size: PAGE, ..TranslatorConfig::default() }
}

fn run_selfmod(flight_recorder_capacity: usize) -> DaisySystem<PpcIsa> {
    let prog = selfmod_program(&[11, 31, 50]);
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(0x2_0000)
        .translator(small_pages())
        .flight_recorder_capacity(flight_recorder_capacity)
        .build();
    sys.load(&prog).unwrap();
    let stop = sys.run(1_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    assert_eq!(sys.cpu.gpr[7], 92, "accumulator saw a stale patch");
    sys
}

/// A default-built system's flight recorder taps the stream: the ring
/// is populated, capped at its capacity, and the run performs the same
/// work (events are a pure tap).
#[test]
fn default_ring_records_selfmod_events() {
    let sys = run_selfmod(daisy::trace::DEFAULT_FLIGHT_RECORDER_CAPACITY);
    assert!(sys.stats.code_modifications >= 1);

    let rec = sys.flight_recorder();
    assert!(rec.recorded() > 0, "the ring taps events by default");
    assert!(rec.len() as u64 <= daisy::trace::DEFAULT_FLIGHT_RECORDER_CAPACITY as u64);
    assert_eq!(rec.dropped(), rec.recorded() - rec.len() as u64);
    assert!(
        rec.events().iter().any(|(_, ev)| matches!(ev, TraceEvent::CodeModified { .. })),
        "the self-modifying store reached the ring"
    );
}

/// The flight recorder sees the exact event sequence of the self-modifying
/// run: cold translations as each page is first touched, a chain
/// install on the hot edge, then for every patch store a
/// code-modification event, the page invalidation, a sever of the link
/// into the dead group, and the retranslation of the patched page.
#[test]
fn flight_recorder_captures_selfmod_event_sequence() {
    let sys = run_selfmod(256);

    let events = trace_events(&sys);
    assert_eq!(sys.flight_recorder().dropped(), 0, "256 entries must be enough for this program");
    let kinds: Vec<&'static str> = events.iter().map(|e| e.kind()).collect();

    // Exact sequence, pinned. Iteration 1 stores before the patch page
    // is ever translated, so it triggers no protection; iteration 2's
    // store invalidates the patch unit, but execution resumes past the
    // store and freshly retranslates, so the dead link into the old
    // patch group is not *observed* until iteration 3 re-follows it.
    assert_eq!(
        kinds,
        vec![
            "translate",     // entry group (0x1F00), first touch
            "translate",     // patch page (0x2000), first touch
            "chain_install", // entry group -> patch group
            "translate",     // loop head (0x1F18), back-edge target
            "chain_install", // patch group -> loop head
            "code_modified", // iteration 2 rewrites the patch site...
            "invalidate",    // ...killing the patch page's unit
            "translate",     // resume group after the store (0x1F28)
            "translate",     // patch page retranslated
            "chain_install", // resume group -> new patch group
            "chain_install", // new patch group -> loop head
            "code_modified", // iteration 3 rewrites it again...
            "invalidate",    // ...killing the unit again
            "chain_sever",   // resume group finds its link dead
            "translate",     // patch page retranslated once more
            "chain_install", // link re-established
        ],
        "event sequence changed; full events: {events:#?}"
    );

    // Cross-check the structured payloads, not just the kinds.
    match &events[0] {
        TraceEvent::Translate { entry, tier, .. } => {
            assert_eq!(*entry, 0x1F00);
            assert_eq!(*tier, Tier::Cold);
        }
        other => panic!("expected translate, got {other:?}"),
    }
    match &events[6] {
        TraceEvent::Invalidate { page } => assert_eq!(*page, 0x2000 / PAGE),
        other => panic!("expected invalidate, got {other:?}"),
    }
    // Severed target is the invalidated patch-page group.
    match &events[13] {
        TraceEvent::ChainSever { target, .. } => assert_eq!(*target, 0x2000),
        other => panic!("expected chain_sever, got {other:?}"),
    }

    // Every event serializes to one JSON object with its kind tagged.
    for ev in events.iter() {
        let json = ev.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "bad JSON: {json}");
        assert!(json.contains(&format!("\"event\": \"{}\"", ev.kind())), "untagged: {json}");
    }
}

/// The ring is a *ring*: beyond capacity the oldest events fall off and
/// the drop counter says how many.
#[test]
fn flight_recorder_caps_and_counts_drops() {
    let sys = run_selfmod(3);
    let rec = sys.flight_recorder();
    assert_eq!(rec.len(), 3);
    assert_eq!(rec.dropped(), 13, "16 events into a 3-slot ring drops 13");
    // The survivors are the *latest* three.
    let kinds: Vec<_> = trace_events(&sys).iter().map(|e| e.kind()).collect();
    assert_eq!(kinds, vec!["chain_sever", "translate", "chain_install"]);
}

/// Interrupt delivery ordering, pinned for a timer firing inside a
/// chained hot loop: the `external_interrupt` event carries the
/// group-boundary PC (the loop head — §3.7: delivery only where every
/// architected register is exact), the interrupted group is *not*
/// degraded (delivery is not an error path), and the next translation
/// after the first delivery is the handler group at the external
/// vector, first touched by that delivery.
#[test]
fn external_interrupt_orders_before_handler_translate_in_hot_loop() {
    use daisy_ppc::vectors;

    // A tight self-chaining loop, hot for thousands of dispatches.
    let mut a = Asm::new(0x1000);
    a.li(Gpr(3), 0);
    a.li32(Gpr(4), 20_000);
    a.mtctr(Gpr(4));
    a.label("loop");
    a.addi(Gpr(3), Gpr(3), 1);
    a.bdnz("loop");
    a.sc();
    let prog = a.finish().unwrap();
    let loop_head = prog.labels["loop"];

    let mut sys =
        DaisySystem::<PpcIsa>::builder().mem_size(0x2_0000).flight_recorder_capacity(4096).build();
    sys.load(&prog).unwrap();
    common::attach_soc_timer(&mut sys, 397);
    let stop = sys.run(1_000_000).unwrap();
    assert_eq!(stop, StopReason::Syscall);
    assert_eq!(sys.cpu.gpr[3], 20_000, "loop result survived preemption");
    assert!(sys.stats.interrupts_taken >= 2, "timer delivered fewer than two interrupts");

    let events = trace_events(&sys);
    let first_irq = events
        .iter()
        .position(|e| matches!(e, TraceEvent::ExternalInterrupt { .. }))
        .expect("delivery must emit external_interrupt");
    // Once the loop is chained and hot, deliveries land on its head:
    // the only group boundary left in steady state.
    let first_chain = events
        .iter()
        .position(|e| matches!(e, TraceEvent::ChainInstall { .. }))
        .expect("the loop must chain");
    assert!(
        events[first_chain..]
            .iter()
            .any(|e| matches!(e, TraceEvent::ExternalInterrupt { pc } if *pc == loop_head)),
        "no delivery ever landed on the chained loop's head boundary"
    );
    // Delivery is not an error path: nothing is ever degraded.
    assert!(
        !events.iter().any(|e| matches!(e, TraceEvent::Degraded { .. })),
        "interrupt delivery must not degrade the interrupted group"
    );
    // The next translation after the delivery is the handler group,
    // first touched by this delivery.
    let next_translate = events[first_irq..]
        .iter()
        .find(|e| matches!(e, TraceEvent::Translate { .. }))
        .expect("the handler group must be translated after the first delivery");
    match next_translate {
        TraceEvent::Translate { entry, .. } => assert_eq!(*entry, vectors::EXTERNAL),
        _ => unreachable!(),
    }
    // And the handler was never translated *before* the delivery.
    assert!(
        !events[..first_irq].iter().any(
            |e| matches!(e, TraceEvent::Translate { entry, .. } if *entry == vectors::EXTERNAL)
        ),
        "handler group translated before any delivery"
    );
}

/// Hot promotion shows up in the event stream: with a low threshold a
/// tight loop emits `hot_promotion` followed by a hot-tier translate.
#[test]
fn hot_promotion_emits_tagged_retranslation() {
    let mut a = Asm::new(0x1000);
    a.li(Gpr(3), 0);
    a.li(Gpr(4), 50);
    a.mtctr(Gpr(4));
    a.label("loop");
    a.addi(Gpr(3), Gpr(3), 1);
    a.bdnz("loop");
    a.sc();
    let prog = a.finish().unwrap();

    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(0x2_0000)
        .flight_recorder_capacity(256)
        .tiered(TierPolicy::with_threshold(4))
        .build();
    sys.load(&prog).unwrap();
    sys.run(1_000_000).unwrap();
    assert_eq!(sys.cpu.gpr[3], 50);

    let events = trace_events(&sys);
    let promo = events
        .iter()
        .position(|e| matches!(e, TraceEvent::HotPromotion { .. }))
        .expect("threshold 4 must promote the loop group");
    let hot_translate = events[promo..]
        .iter()
        .find(|e| matches!(e, TraceEvent::Translate { tier: Tier::Hot, .. }))
        .expect("promotion must be followed by a hot-tier translation");
    match hot_translate {
        TraceEvent::Translate { entry, .. } => assert_eq!(*entry, 0x1000 + 3 * 4),
        _ => unreachable!(),
    }
}
