//! Heap allocations per translation, pinned. The scheduler keeps its
//! buffers (paths, rename masks, the join table, the converted
//! primitives) from one translation to the next, copies forks into
//! recycled paths and, on the VMM's path, builds each group in one
//! recycled tree that the VMM lowers from. A group therefore allocates
//! only its packed form and the VMM's bookkeeping (its VLIW address
//! list, chain-link table and `Rc`). A change that brings back a
//! per-group tree, a per-fork path clone, a per-op scratch `Vec` or a
//! per-group hash table moves the count and fails here.

use daisy::prelude::*;
use daisy::Vmm;
use daisy_ppc::mem::Memory;
use daisy_ppc::PpcIsa;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made on a thread while its `COUNTING` flag is
/// set, so the test harness's own threads never perturb the figure.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter touches only `const`-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING_ALLOCATOR: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

/// compress under `code_thrash`'s configuration (256-byte pages, a
/// 512-byte code area) translates its six entry points over and over as
/// they cast each other out. Replaying that translation sequence
/// through one VMM costs 12.46 heap allocations per group, the VMM's
/// packed form and bookkeeping (67.2 while every group built a fresh
/// tree).
#[test]
fn translation_allocations_per_group_are_pinned() {
    let w = daisy_workloads::by_name("compress").expect("compress workload");
    let cfg = TranslatorConfig { page_size: 256, ..TranslatorConfig::default() };

    // The translation sequence of a real run (the newest 64 Ki events).
    let mut sys = DaisySystem::<PpcIsa>::builder()
        .mem_size(w.mem_size)
        .translator(cfg.clone())
        .code_capacity(512)
        .flight_recorder_capacity(1 << 16)
        .build();
    sys.load(&w.program()).unwrap();
    sys.run(10 * w.max_instrs).unwrap();
    let entries: Vec<u32> = sys
        .flight_recorder()
        .events()
        .iter()
        .filter_map(|(_, ev)| match ev {
            TraceEvent::Translate { entry, .. } => Some(*entry),
            _ => None,
        })
        .collect();
    assert!(entries.len() > 1000, "only {} translations to replay", entries.len());

    let mut mem = Memory::new(w.mem_size);
    w.program().load_into(&mut mem).unwrap();
    let mut vmm = Vmm::<PpcIsa>::new(cfg);
    vmm.set_code_capacity(Some(512));
    // The first translation on a thread grows the scheduler's buffers.
    drop(vmm.entry(&mut mem, entries[0]));
    let before = vmm.stats.groups_translated;
    let allocations = allocations_in(|| {
        for &e in &entries[1..] {
            drop(vmm.entry(&mut mem, e));
        }
    });
    let groups = vmm.stats.groups_translated - before;
    assert!(groups > 1000, "only {groups} of the replayed entries translated");
    println!("{allocations} allocations over {groups} groups");
    assert_eq!(
        (allocations, groups),
        (290_539, 23_312),
        "allocations per translated group moved ({:.2} per group)",
        allocations as f64 / groups as f64
    );
}
