//! Multi-level cache hierarchy simulator.
//!
//! DAISY's finite-cache results (paper Ch. 5) come from "a simple cache
//! simulator" attached to the VLIW execution engine: every tree
//! instruction fetch probes the instruction side, every executed load or
//! store probes the data side, and miss penalties stretch execution time.
//! This crate reproduces that simulator with the two hierarchies the
//! paper measures:
//!
//! * [`Hierarchy::paper_default`] — 64 KiB L1 I/D (0 cycles), 4 MiB
//!   combined L2 (12 cycles), 88-cycle memory (used for Table 5.3).
//! * [`Hierarchy::paper_eight_issue`] — 4 KiB L1s, 64 KiB L2s, 4 MiB
//!   combined L3 (16 cycles), 92-cycle memory (used for Table 5.5).
//!
//! # Example
//!
//! ```
//! use daisy_cachesim::Hierarchy;
//!
//! let mut h = Hierarchy::paper_default();
//! let first = h.access_data(0x1000);
//! assert_eq!(first.penalty, 100); // cold miss: L2 12 + memory 88
//! let second = h.access_data(0x1004);
//! assert_eq!(second.penalty, 0); // same 256-byte line
//! ```

use std::fmt;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Display name, e.g. `"L0 DCache"`.
    pub name: String,
    /// Total size in bytes.
    pub size: u32,
    /// Associativity (1 = direct mapped).
    pub assoc: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
    /// Added latency in cycles when the access *misses above* and hits
    /// here.
    pub latency: u32,
}

impl CacheConfig {
    /// Creates a level configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible by
    /// `assoc * line`, line not a power of two, or a set count that is
    /// not a power of two — the simulator indexes sets with a mask).
    pub fn new(name: &str, size: u32, assoc: u32, line: u32, latency: u32) -> CacheConfig {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        assert!(assoc >= 1 && size.is_multiple_of(assoc * line), "inconsistent cache geometry");
        assert!((size / (assoc * line)).is_power_of_two(), "set count must be a power of two");
        CacheConfig { name: name.to_owned(), size, assoc, line, latency }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size / (self.assoc * self.line)
    }
}

/// Hit/miss counters for one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses that reached this level.
    pub accesses: u64,
    /// Misses at this level.
    pub misses: u64,
}

impl CacheStats {
    /// Miss rate in percent (0 when never accessed).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            100.0 * self.misses as f64 / self.accesses as f64
        }
    }
}

/// Sentinel for a set's tracked line before the set's first probe:
/// line addresses are at most 32 bits wide, so no probe can match it.
const NO_LINE: u64 = u64::MAX;

/// One cache level with LRU replacement.
///
/// Tags, ages and valid bits live in flat arrays indexed
/// `set * assoc + way`; the set index and tag come from a shift and a
/// mask precomputed at construction. Each set tracks the line probed
/// last in it, and a probe of that line hits without searching the set:
/// the line is resident and already the newest way of its set, so the
/// hit cannot change which way a later miss there evicts.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// log2 of the line size.
    line_shift: u32,
    /// `sets - 1`.
    set_mask: u32,
    /// log2 of the set count.
    set_bits: u32,
    tags: Vec<u32>,
    /// Probe tick of each way's last use (0 while invalid).
    ages: Vec<u64>,
    valid: Vec<bool>,
    /// Line address of the last probe of each set, or [`NO_LINE`].
    lines: Vec<u64>,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Builds an empty (cold) cache.
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.sets();
        let n = (sets * cfg.assoc) as usize;
        Cache {
            line_shift: cfg.line.trailing_zeros(),
            set_mask: sets - 1,
            set_bits: sets.trailing_zeros(),
            cfg,
            tags: vec![0; n],
            ages: vec![0; n],
            valid: vec![false; n],
            lines: vec![NO_LINE; sets as usize],
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The level's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// The level's counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Probes the cache; fills the line on miss. Returns true on hit.
    #[inline]
    pub fn access(&mut self, addr: u32) -> bool {
        self.stats.accesses += 1;
        let line = addr >> self.line_shift;
        let last = &mut self.lines[(line & self.set_mask) as usize];
        if u64::from(line) == *last {
            return true;
        }
        *last = u64::from(line);
        self.probe_set(line)
    }

    /// The set search behind [`Cache::access`]: a hit refreshes the
    /// way's age; a miss fills the first invalid way, else the least
    /// recently used one.
    fn probe_set(&mut self, line: u32) -> bool {
        self.tick += 1;
        let tag = line >> self.set_bits;
        let assoc = self.cfg.assoc as usize;
        let base = (line & self.set_mask) as usize * assoc;
        let ways = base..base + assoc;
        if let Some(w) = ways.clone().find(|&w| self.valid[w] && self.tags[w] == tag) {
            self.ages[w] = self.tick;
            return true;
        }
        self.stats.misses += 1;
        let mut victim = base;
        let mut oldest = u64::MAX;
        for w in ways {
            let age = if self.valid[w] { self.ages[w] } else { 0 };
            if age < oldest {
                oldest = age;
                victim = w;
            }
        }
        self.tags[victim] = tag;
        self.ages[victim] = self.tick;
        self.valid[victim] = true;
        false
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} accesses, {} misses ({:.3}%)",
            self.cfg.name,
            self.stats.accesses,
            self.stats.misses,
            self.stats.miss_rate()
        )
    }
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Total stall cycles added by misses on the path to the hit level.
    pub penalty: u32,
    /// True when the first (level-0) cache missed.
    pub l0_miss: bool,
}

/// The two probe streams of a [`Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Instruction fetches ([`Hierarchy::access_instr`]).
    Instr,
    /// Loads and stores ([`Hierarchy::access_data`]).
    Data,
}

/// A full memory hierarchy: private instruction levels, private data
/// levels, shared combined levels, and a flat memory latency behind them.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    ilevels: Vec<Cache>,
    dlevels: Vec<Cache>,
    shared: Vec<Cache>,
    mem_latency: u32,
}

impl Hierarchy {
    /// Builds a hierarchy from per-side levels plus shared levels.
    pub fn new(
        ilevels: Vec<CacheConfig>,
        dlevels: Vec<CacheConfig>,
        shared: Vec<CacheConfig>,
        mem_latency: u32,
    ) -> Hierarchy {
        Hierarchy {
            ilevels: ilevels.into_iter().map(Cache::new).collect(),
            dlevels: dlevels.into_iter().map(Cache::new).collect(),
            shared: shared.into_iter().map(Cache::new).collect(),
            mem_latency,
        }
    }

    /// The paper's default configuration (Ch. 5): 64 KiB 4-way 256 B L1
    /// data (0 cycles), 64 KiB direct-mapped 256 B L1 instruction
    /// (0 cycles), 4 MiB 4-way 256 B combined L2 (12 cycles), 88-cycle
    /// memory.
    pub fn paper_default() -> Hierarchy {
        Hierarchy::new(
            vec![CacheConfig::new("L0 ICache", 64 << 10, 1, 256, 0)],
            vec![CacheConfig::new("L0 DCache", 64 << 10, 4, 256, 0)],
            vec![CacheConfig::new("L1 JCache", 4 << 20, 4, 256, 12)],
            88,
        )
    }

    /// The 8-issue machine's hierarchy (Table 5.5): 4 KiB L1s, 64 KiB
    /// L2s, 4 MiB combined L3, 92-cycle memory.
    pub fn paper_eight_issue() -> Hierarchy {
        Hierarchy::new(
            vec![
                CacheConfig::new("L1 ICache", 4 << 10, 1, 64, 0),
                CacheConfig::new("L2 ICache", 64 << 10, 2, 128, 4),
            ],
            vec![
                CacheConfig::new("L1 DCache", 4 << 10, 4, 64, 0),
                CacheConfig::new("L2 DCache", 64 << 10, 4, 128, 4),
            ],
            vec![CacheConfig::new("L3 JCache", 4 << 20, 4, 256, 16)],
            92,
        )
    }

    /// An infinite cache: every access hits with no penalty. Used for
    /// the paper's "∞ cache" columns.
    pub fn infinite() -> Hierarchy {
        Hierarchy::new(Vec::new(), Vec::new(), Vec::new(), 0)
    }

    #[inline]
    fn walk(levels: &mut [Cache], shared: &mut [Cache], addr: u32, mem_latency: u32) -> Access {
        let mut path = levels.iter_mut().chain(shared.iter_mut());
        let Some(l0) = path.next() else {
            // No caches at all: the infinite-cache model.
            return Access { penalty: 0, l0_miss: false };
        };
        let mut penalty = l0.cfg.latency;
        if l0.access(addr) {
            return Access { penalty, l0_miss: false };
        }
        for c in path {
            penalty += c.cfg.latency;
            if c.access(addr) {
                return Access { penalty, l0_miss: true };
            }
        }
        Access { penalty: penalty + mem_latency, l0_miss: true }
    }

    /// Probes the instruction side.
    #[inline]
    pub fn access_instr(&mut self, addr: u32) -> Access {
        Hierarchy::walk(&mut self.ilevels, &mut self.shared, addr, self.mem_latency)
    }

    /// Probes the data side. Reads and writes probe alike.
    #[inline]
    pub fn access_data(&mut self, addr: u32) -> Access {
        Hierarchy::walk(&mut self.dlevels, &mut self.shared, addr, self.mem_latency)
    }

    /// `side`'s private level 0: the first of its own levels, which no
    /// probe of the other side reaches. `None` when the side has no
    /// level of its own (its first level, if any, is shared).
    fn private_l0(&self, side: Side) -> Option<&Cache> {
        match side {
            Side::Instr => self.ilevels.first(),
            Side::Data => self.dlevels.first(),
        }
    }

    /// log2 of the line size of `side`'s private level 0, or `None`
    /// when the side has no private level 0.
    pub fn l0_line_shift(&self, side: Side) -> Option<u32> {
        self.private_l0(side).map(|c| c.line_shift)
    }

    /// `sets - 1` of `side`'s private level 0, or `None` when the side
    /// has none: a line's set is `line & l0_set_mask`.
    pub fn l0_set_mask(&self, side: Side) -> Option<u32> {
        self.private_l0(side).map(|c| c.set_mask)
    }

    /// The line address (`addr >> l0_line_shift`) probed last in each
    /// set of `side`'s private level 0, indexed by set. `u64::MAX`,
    /// which no line address equals, for a set not probed yet. Empty
    /// when the side has no private level 0.
    pub fn l0_lines(&self, side: Side) -> &[u64] {
        self.private_l0(side).map_or(&[], |c| &c.lines)
    }

    /// Records `hits` probes of `side` that each fell in its set's line
    /// of [`Hierarchy::l0_lines`], with the effect of making them one
    /// by one: such a probe hits the private level 0 without touching
    /// its LRU state or any level behind it, so it only counts a
    /// level-0 access. Returns the probes' summed penalty, `hits` times
    /// the level-0 latency.
    ///
    /// # Panics
    ///
    /// Panics if `hits` is nonzero and `side` has no private level 0
    /// or has not been probed yet.
    pub fn add_l0_mru_hits(&mut self, side: Side, hits: u64) -> u64 {
        if hits == 0 {
            return 0;
        }
        let l0 = match side {
            Side::Instr => self.ilevels.first_mut(),
            Side::Data => self.dlevels.first_mut(),
        }
        .expect("MRU hits need a private level 0");
        assert!(l0.stats.accesses > 0, "MRU hits before the level's first probe");
        l0.stats.accesses += hits;
        hits * u64::from(l0.cfg.latency)
    }

    /// Per-level statistics `(name, stats)` in probe order: instruction
    /// levels, data levels, shared levels.
    pub fn level_stats(&self) -> Vec<(String, CacheStats)> {
        self.ilevels
            .iter()
            .chain(self.dlevels.iter())
            .chain(self.shared.iter())
            .map(|c| (c.cfg.name.clone(), *c.stats()))
            .collect()
    }

    /// True when this hierarchy has no cache levels (infinite cache).
    pub fn is_infinite(&self) -> bool {
        self.ilevels.is_empty() && self.dlevels.is_empty() && self.shared.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_conflict() {
        // 2 lines of 16 bytes, direct mapped: addresses 0 and 32 collide.
        let mut c = Cache::new(CacheConfig::new("t", 32, 1, 16, 1));
        assert!(!c.access(0));
        assert!(c.access(4));
        assert!(!c.access(32)); // evicts line 0
        assert!(!c.access(0)); // conflict miss
        assert_eq!(c.stats().misses, 3);
    }

    #[test]
    fn lru_replacement_in_set() {
        // One set, 2 ways, 16-byte lines: 0, 32, then touch 0, then 64
        // should evict 32 (LRU), keeping 0.
        let mut c = Cache::new(CacheConfig::new("t", 32, 2, 16, 1));
        assert!(!c.access(0));
        assert!(!c.access(32));
        assert!(c.access(0));
        assert!(!c.access(64));
        assert!(c.access(0));
        assert!(!c.access(32));
    }

    #[test]
    fn hierarchy_penalties_accumulate() {
        let mut h = Hierarchy::new(
            vec![CacheConfig::new("L1I", 64, 1, 16, 0)],
            vec![CacheConfig::new("L1D", 64, 1, 16, 0)],
            vec![CacheConfig::new("L2", 256, 1, 16, 10)],
            50,
        );
        // Cold: L1 miss (0) + L2 miss (10) + memory (50).
        assert_eq!(h.access_data(0), Access { penalty: 60, l0_miss: true });
        // L1 hit.
        assert_eq!(h.access_data(8), Access { penalty: 0, l0_miss: false });
        // Fill the other L1 sets, then wrap to evict line 0 from L1 only.
        h.access_data(64);
        let a = h.access_data(0);
        assert_eq!(a, Access { penalty: 10, l0_miss: true }); // L1 miss, L2 hit
    }

    #[test]
    fn instruction_and_data_sides_are_separate() {
        let mut h = Hierarchy::new(
            vec![CacheConfig::new("L1I", 64, 1, 16, 0)],
            vec![CacheConfig::new("L1D", 64, 1, 16, 0)],
            vec![],
            30,
        );
        assert!(h.access_instr(0).l0_miss);
        // Same address on the data side still cold.
        assert!(h.access_data(0).l0_miss);
        assert!(!h.access_instr(0).l0_miss);
    }

    #[test]
    fn infinite_cache_is_free() {
        let mut h = Hierarchy::infinite();
        assert_eq!(h.access_data(0x1234).penalty, 0);
        assert_eq!(h.access_instr(0xFFFF_0000).penalty, 0);
        assert!(h.is_infinite());
        assert!(h.level_stats().is_empty());
    }

    #[test]
    fn paper_hierarchies_construct() {
        let h = Hierarchy::paper_default();
        let names: Vec<_> = h.level_stats().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["L0 ICache", "L0 DCache", "L1 JCache"]);
        let h8 = Hierarchy::paper_eight_issue();
        assert_eq!(h8.level_stats().len(), 5);
    }

    #[test]
    #[should_panic(expected = "set count must be a power of two")]
    fn non_power_of_two_set_count_panics() {
        // 3 sets of one 16-byte way.
        let _ = CacheConfig::new("t", 48, 1, 16, 0);
    }

    #[test]
    fn miss_rate_percent() {
        let mut s = CacheStats::default();
        assert_eq!(s.miss_rate(), 0.0);
        s.accesses = 200;
        s.misses = 3;
        assert!((s.miss_rate() - 1.5).abs() < 1e-9);
    }
}
