//! The VMM builds each group in the scheduler's recycled tree and
//! lowers the packed form from it (see `daisy::sched`'s translation
//! cost notes). That must be exactly the packed form a freshly built
//! owned tree lowers to: no node, parcel or resource count may leak
//! from the previous group into the next.

use daisy::sched::translate_group;
use daisy::{TranslatorConfig, Vmm};
use daisy_ppc::mem::Memory;
use daisy_ppc::PpcIsa;
use daisy_vliw::packed::PackedGroup;
use std::collections::VecDeque;

const PAGE: u32 = daisy_ppc::PAGE_SIZE;

/// Reorders `groups` (smallest first) as largest, smallest, second
/// largest, second smallest, …: every small group is translated right
/// after a large one, into a tree that still holds its VLIWs.
fn large_then_small<T>(groups: Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(groups.len());
    let mut small = VecDeque::from(groups);
    while let Some(large) = small.pop_back() {
        out.push(large);
        if let Some(s) = small.pop_front() {
            out.push(s);
        }
    }
    out
}

#[test]
fn recycled_translations_lower_like_fresh_trees() {
    let mut compared = 0;
    for page_size in [256, 4096] {
        let cfg = TranslatorConfig { page_size, ..TranslatorConfig::default() };
        for w in daisy_workloads::all() {
            let prog = w.program();
            let mut mem = Memory::new(w.mem_size);
            prog.load_into(&mut mem).unwrap();

            // Every word of every 4 KiB page the code occupies.
            let lo = prog.base / PAGE * PAGE;
            let hi = (prog.base + 4 * prog.code.len() as u32).next_multiple_of(PAGE);
            let mut fresh: Vec<(u32, u32, usize, PackedGroup)> = (lo..hi)
                .step_by(4)
                .map(|entry| {
                    let (g, _) = translate_group::<PpcIsa>(&cfg, &mem, entry);
                    (entry, g.code_bytes(), g.len(), PackedGroup::lower(&g))
                })
                .collect();
            fresh.sort_by_key(|(entry, _, vliws, p)| (p.ops.len() + *vliws, *entry));

            let mut vmm = Vmm::<PpcIsa>::new(cfg.clone());
            for (entry, code_bytes, vliws, packed) in large_then_small(fresh) {
                let code = vmm.entry(&mut mem, entry);
                let at = format!("{} entry {entry:#x}, {page_size}-byte pages", w.name);
                assert!(code.packed == packed, "{at}: packed form differs");
                assert_eq!((code.code_bytes, code.vliw_addrs.len()), (code_bytes, vliws), "{at}");
                assert!(vmm.drop_translation(entry), "{at}: translation not live");
                compared += 1;
            }
        }
    }
    println!("{compared} entries compared");
    assert!(compared > 10_000, "only {compared} entries compared");
}
