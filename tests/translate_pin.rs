//! The translation digest pin: every group the translator produces for
//! the nine paper workloads, under four static configurations
//! (default, 256-byte pages, no load speculation, whole program) and
//! the interpretive one, hashed into `BENCH_translate.json`. A scheduler
//! change that moves one operand, exit or cost figure of one group
//! fails here; regenerate the file (`cargo run --release -p
//! daisy-bench --bin pins`) only for a change that means to move the
//! translations, and say so.

#[test]
fn translations_match_the_committed_digest() {
    let committed = include_str!("../BENCH_translate.json");
    let regenerated = daisy_bench::pins::translate_json();
    assert!(
        regenerated == committed,
        "regenerated BENCH_translate.json differs from the committed file:\n{regenerated}"
    );
}
