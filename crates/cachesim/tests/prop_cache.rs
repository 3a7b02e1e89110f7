//! Property tests for the cache simulator.

use daisy_cachesim::{Cache, CacheConfig, Hierarchy, Side};
use proptest::prelude::*;

proptest! {
    /// Re-accessing an address immediately after an access always hits
    /// (the line was just filled and nothing evicted it).
    #[test]
    fn immediate_reaccess_hits(addrs in prop::collection::vec(any::<u32>(), 1..64)) {
        let mut c = Cache::new(CacheConfig::new("t", 1 << 12, 2, 32, 1));
        for a in addrs {
            let _ = c.access(a);
            prop_assert!(c.access(a), "address {a:#x} must hit on immediate re-access");
        }
    }

    /// Accesses within one line behave identically to the line address.
    #[test]
    fn line_granularity(base in any::<u32>(), offsets in prop::collection::vec(0u32..32, 1..16)) {
        let mut c = Cache::new(CacheConfig::new("t", 1 << 12, 4, 32, 1));
        let line = base & !31;
        let _ = c.access(line);
        for off in offsets {
            prop_assert!(c.access(line.wrapping_add(off)));
        }
    }

    /// A working set no larger than the associativity of one set can
    /// never conflict-miss after warmup.
    #[test]
    fn within_associativity_no_thrash(tags in prop::collection::vec(0u32..8, 2..4)) {
        // 4-way, one set of 32-byte lines → any ≤4 distinct lines co-reside.
        let mut c = Cache::new(CacheConfig::new("t", 4 * 32, 4, 32, 1));
        let lines: Vec<u32> = tags.iter().map(|t| t * 32).collect();
        for &l in &lines {
            let _ = c.access(l);
        }
        for &l in &lines {
            prop_assert!(c.access(l), "line {l:#x} evicted within associativity");
        }
    }

    /// Hierarchy penalties are monotone: an access can never be cheaper
    /// than a hit at the level it lands in, and the infinite hierarchy
    /// is always free.
    #[test]
    fn infinite_hierarchy_is_always_free(addrs in prop::collection::vec(any::<u32>(), 1..64)) {
        let mut h = Hierarchy::infinite();
        for a in addrs {
            prop_assert_eq!(h.access_data(a).penalty, 0);
            prop_assert_eq!(h.access_instr(a).penalty, 0);
        }
    }

    /// Miss counts never exceed access counts and stats accumulate.
    #[test]
    fn stats_are_consistent(addrs in prop::collection::vec(any::<u32>(), 1..256)) {
        let mut h = Hierarchy::paper_default();
        for a in &addrs {
            let _ = h.access_data(*a);
        }
        for (_, st) in h.level_stats() {
            prop_assert!(st.misses <= st.accesses);
        }
        let first = &h.level_stats()[1]; // L0 DCache
        prop_assert_eq!(first.1.accesses, addrs.len() as u64);
    }
}

// ---------------------------------------------------------------------
// Differential check against a reference LRU model: the straightforward
// simulator (divisions for set and tag, an array of line records, a
// probe tick on every access, a full set search on every probe). The
// production cache precomputes shifts and masks, keeps flat arrays and
// short-circuits a probe of the line its set probed last; none of that
// may change a single hit, miss, counter or penalty.
// ---------------------------------------------------------------------

mod reference {
    use daisy_cachesim::{Access, CacheConfig, CacheStats};

    #[derive(Clone, Copy)]
    struct Line {
        tag: u32,
        last_use: u64,
        valid: bool,
    }

    pub struct RefCache {
        cfg: CacheConfig,
        lines: Vec<Line>,
        pub stats: CacheStats,
        tick: u64,
    }

    impl RefCache {
        pub fn new(cfg: CacheConfig) -> RefCache {
            let n = (cfg.sets() * cfg.assoc) as usize;
            RefCache {
                cfg,
                lines: vec![Line { tag: 0, last_use: 0, valid: false }; n],
                stats: CacheStats::default(),
                tick: 0,
            }
        }

        pub fn access(&mut self, addr: u32) -> bool {
            self.tick += 1;
            self.stats.accesses += 1;
            let line_addr = addr / self.cfg.line;
            let set = line_addr % self.cfg.sets();
            let tag = line_addr / self.cfg.sets();
            let base = (set * self.cfg.assoc) as usize;
            let ways = &mut self.lines[base..base + self.cfg.assoc as usize];
            if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
                way.last_use = self.tick;
                return true;
            }
            self.stats.misses += 1;
            let victim = ways
                .iter_mut()
                .min_by_key(|w| if w.valid { w.last_use } else { 0 })
                .expect("assoc >= 1");
            *victim = Line { tag, last_use: self.tick, valid: true };
            false
        }
    }

    pub struct RefHierarchy {
        pub ilevels: Vec<RefCache>,
        pub dlevels: Vec<RefCache>,
        pub shared: Vec<RefCache>,
        pub mem_latency: u32,
    }

    impl RefHierarchy {
        fn walk(
            levels: &mut [RefCache],
            shared: &mut [RefCache],
            addr: u32,
            mem_latency: u32,
        ) -> Access {
            let mut penalty = 0;
            let mut l0_miss = false;
            let mut first = true;
            let mut any = false;
            for c in levels.iter_mut().chain(shared.iter_mut()) {
                any = true;
                let hit = c.access(addr);
                if !hit && first {
                    l0_miss = true;
                }
                first = false;
                penalty += c.cfg.latency;
                if hit {
                    return Access { penalty, l0_miss };
                }
            }
            if any {
                Access { penalty: penalty + mem_latency, l0_miss }
            } else {
                Access { penalty: 0, l0_miss: false }
            }
        }

        pub fn access_instr(&mut self, addr: u32) -> Access {
            RefHierarchy::walk(&mut self.ilevels, &mut self.shared, addr, self.mem_latency)
        }

        pub fn access_data(&mut self, addr: u32) -> Access {
            RefHierarchy::walk(&mut self.dlevels, &mut self.shared, addr, self.mem_latency)
        }

        pub fn level_stats(&self) -> Vec<CacheStats> {
            self.ilevels.iter().chain(&self.dlevels).chain(&self.shared).map(|c| c.stats).collect()
        }
    }
}

use daisy_cachesim::CacheStats;
use reference::{RefCache, RefHierarchy};

/// The three hierarchies under test, each built twice from one level
/// list: `(ilevels, dlevels, shared, memory latency)`.
type Geometry = (Vec<CacheConfig>, Vec<CacheConfig>, Vec<CacheConfig>, u32);

fn geometries() -> Vec<(&'static str, Geometry)> {
    let c = CacheConfig::new;
    vec![
        (
            "paper_default",
            (
                vec![c("L0 ICache", 64 << 10, 1, 256, 0)],
                vec![c("L0 DCache", 64 << 10, 4, 256, 0)],
                vec![c("L1 JCache", 4 << 20, 4, 256, 12)],
                88,
            ),
        ),
        (
            "paper_eight_issue",
            (
                vec![c("L1 ICache", 4 << 10, 1, 64, 0), c("L2 ICache", 64 << 10, 2, 128, 4)],
                vec![c("L1 DCache", 4 << 10, 4, 64, 0), c("L2 DCache", 64 << 10, 4, 128, 4)],
                vec![c("L3 JCache", 4 << 20, 4, 256, 16)],
                92,
            ),
        ),
        (
            "tiny",
            (
                vec![c("I", 64, 1, 16, 0)],
                vec![c("D", 128, 2, 16, 1)],
                vec![c("S", 256, 4, 16, 5)],
                20,
            ),
        ),
    ]
}

/// One probe of a random stream: side (instruction or data) and
/// address. Addresses cluster in a few small windows, so streams mix
/// repeat probes of one line, set conflicts and capacity misses.
fn probe() -> impl Strategy<Value = (bool, u32)> {
    (any::<bool>(), 0u32..4, 0u32..2048, 0u32..4).prop_map(|(instr, window, off, spread)| {
        (instr, window.wrapping_mul(0x4001_0000) + off * (1 << (2 * spread)))
    })
}

proptest! {
    /// A single level probed with a random stream hits and misses
    /// exactly like the reference model, with equal counters.
    #[test]
    fn cache_matches_reference_lru(stream in prop::collection::vec(probe(), 1..512)) {
        for (assoc, size) in [(1u32, 256u32), (2, 256), (4, 512), (8, 256)] {
            let cfg = CacheConfig::new("t", size, assoc, 16, 0);
            let (mut fast, mut slow) = (Cache::new(cfg.clone()), RefCache::new(cfg));
            for &(_, a) in &stream {
                prop_assert_eq!(fast.access(a), slow.access(a), "assoc {} addr {:#x}", assoc, a);
                prop_assert_eq!(*fast.stats(), slow.stats);
            }
        }
    }

    /// Both paper hierarchies and a tiny one: every probe returns the
    /// reference `Access`, and every level's counters stay equal.
    #[test]
    fn hierarchy_matches_reference_lru(stream in prop::collection::vec(probe(), 1..512)) {
        for (name, (i, d, s, mem)) in geometries() {
            let mut fast = Hierarchy::new(i.clone(), d.clone(), s.clone(), mem);
            let mut slow = RefHierarchy {
                ilevels: i.into_iter().map(RefCache::new).collect(),
                dlevels: d.into_iter().map(RefCache::new).collect(),
                shared: s.into_iter().map(RefCache::new).collect(),
                mem_latency: mem,
            };
            for &(instr, a) in &stream {
                let (got, want) = if instr {
                    (fast.access_instr(a), slow.access_instr(a))
                } else {
                    (fast.access_data(a), slow.access_data(a))
                };
                prop_assert_eq!(got, want, "{} addr {:#x}", name, a);
                let stats: Vec<CacheStats> =
                    fast.level_stats().into_iter().map(|(_, st)| st).collect();
                prop_assert_eq!(stats, slow.level_stats(), "{}", name);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Counted level-0 hits. The native tier does not log a probe of the line
// its set of the side's private level 0 used last: it checks each probe
// against a copy of that level's line table, and the replay adds the
// left-out probes through `add_l0_mru_hits` after the logged ones. That
// must equal making every probe one by one.
// ---------------------------------------------------------------------

/// One random level: 1–16 sets, 1/2/4 ways, 4–64-byte lines, latency
/// 0–3 cycles (so level 0 is often slower than free).
fn level() -> impl Strategy<Value = CacheConfig> {
    (0u32..5, 0u32..3, 2u32..7, 0u32..4).prop_map(|(sets, ways, line, latency)| {
        let (assoc, line) = (1 << ways, 1 << line);
        CacheConfig::new("c", (assoc * line) << sets, assoc, line, latency)
    })
}

/// A random hierarchy: zero to two private levels per side (a side
/// without one starts at the shared levels, or has no cache at all).
fn hierarchy() -> impl Strategy<Value = Geometry> {
    (
        prop::collection::vec(level(), 0..3),
        prop::collection::vec(level(), 0..3),
        prop::collection::vec(level(), 0..3),
        0u32..40,
    )
}

proptest! {
    /// Probes are split as compiled code splits them. Each side with a
    /// private level 0 tracks one line per set, copied from `l0_lines`
    /// when a run starts: a probe of its set's line is counted, any
    /// other probe is made at once and becomes its set's line. Runs end
    /// at random, adding their counts. Every made probe returns the
    /// per-probe `Access`, each run ends with the tracked lines equal
    /// to `l0_lines`, and at the end the summed penalty and every
    /// level's counters are equal.
    #[test]
    fn counted_mru_hits_equal_per_probe_access(
        geo in hierarchy(),
        stream in prop::collection::vec((probe(), 0u32..16), 1..512),
    ) {
        let (i, d, s, mem) = geo;
        let mut each = Hierarchy::new(i.clone(), d.clone(), s.clone(), mem);
        let mut split = Hierarchy::new(i, d, s, mem);
        let sides = [Side::Instr, Side::Data];
        let geometry = sides.map(|side| split.l0_line_shift(side).zip(split.l0_set_mask(side)));
        let (mut each_penalty, mut split_penalty) = (0u64, 0u64);
        let mut tracked = sides.map(|side| split.l0_lines(side).to_vec());
        let mut hits = [0u64; 2];
        for (n, &((instr, a), run_end)) in stream.iter().enumerate() {
            let k = usize::from(!instr);
            let want = if instr { each.access_instr(a) } else { each.access_data(a) };
            each_penalty += u64::from(want.penalty);
            let at = geometry[k].map(|(shift, mask)| (a >> shift, ((a >> shift) & mask) as usize));
            if at.is_some_and(|(line, set)| tracked[k][set] == u64::from(line)) {
                prop_assert!(!want.l0_miss, "a probe of its set's last line missed at {:#x}", a);
                hits[k] += 1;
            } else {
                let got = if instr { split.access_instr(a) } else { split.access_data(a) };
                prop_assert_eq!(got, want, "addr {:#x}", a);
                split_penalty += u64::from(got.penalty);
                if let Some((line, set)) = at {
                    tracked[k][set] = u64::from(line);
                }
            }
            if run_end == 0 || n + 1 == stream.len() {
                for (side, h) in sides.into_iter().zip(&mut hits) {
                    split_penalty += split.add_l0_mru_hits(side, std::mem::take(h));
                }
                for (side, t) in sides.into_iter().zip(&tracked) {
                    prop_assert_eq!(&t[..], split.l0_lines(side), "{:?} line table", side);
                }
                tracked = sides.map(|side| split.l0_lines(side).to_vec());
            }
        }
        prop_assert_eq!(split_penalty, each_penalty);
        prop_assert_eq!(split.level_stats(), each.level_stats());
    }
}
