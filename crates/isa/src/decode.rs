//! Memoization of instruction decoding.

/// Memoizes decode results per instruction-word address.
///
/// The interpreter hot loops (trace generation, interpretive
/// compilation's interpret-ahead) revisit the same words millions of
/// times; decode is a pure function of the word, so its result can be
/// reused. The cache is direct-mapped by word offset, and each entry
/// remembers the raw word it decoded: a store that rewrites an
/// instruction in place changes the word, the comparison on the next
/// fetch misses, and the entry is re-decoded — self-invalidation
/// without any store-side hook. Entries are typed by the guest's
/// instruction type, so one cache serves exactly one frontend.
#[derive(Debug, Clone)]
pub struct DecodeCache<Ins: Copy> {
    entries: Vec<DecodeEntry<Ins>>,
    mask: usize,
}

#[derive(Debug, Clone, Copy)]
struct DecodeEntry<Ins> {
    addr: u32,
    word: u32,
    insn: Option<Ins>,
}

impl<Ins: Copy> Default for DecodeCache<Ins> {
    /// A cache of 2048 slots, covering an 8 KiB working set of code.
    fn default() -> DecodeCache<Ins> {
        DecodeCache::with_slots(2048)
    }
}

impl<Ins: Copy> DecodeCache<Ins> {
    /// Creates a cache with at least `slots` entries (rounded up to a
    /// power of two).
    pub fn with_slots(slots: usize) -> DecodeCache<Ins> {
        let slots = slots.next_power_of_two().max(16);
        DecodeCache {
            entries: vec![DecodeEntry { addr: u32::MAX, word: 0, insn: None }; slots],
            mask: slots - 1,
        }
    }

    /// Decodes the instruction `word` fetched from `addr` via `decode`,
    /// reusing the cached result when the same word is still at that
    /// address.
    pub fn decode_at(&mut self, addr: u32, word: u32, decode: impl FnOnce(u32) -> Ins) -> Ins {
        let e = &mut self.entries[((addr >> 2) as usize) & self.mask];
        if e.addr == addr && e.word == word {
            if let Some(insn) = e.insn {
                return insn;
            }
        }
        let insn = decode(word);
        *e = DecodeEntry { addr, word, insn: Some(insn) };
        insn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn caches_by_address_and_word() {
        let calls = Cell::new(0u32);
        let dec = |w: u32| {
            calls.set(calls.get() + 1);
            w.wrapping_mul(3)
        };
        let mut c: DecodeCache<u32> = DecodeCache::with_slots(16);
        assert_eq!(c.decode_at(0x100, 7, dec), 21);
        assert_eq!(c.decode_at(0x100, 7, dec), 21);
        assert_eq!(calls.get(), 1);
        // Same address, new word (self-modifying code): re-decoded.
        assert_eq!(c.decode_at(0x100, 9, dec), 27);
        assert_eq!(calls.get(), 2);
    }
}
