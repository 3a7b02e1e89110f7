//! Emulated base-architecture physical memory and address translation.
//!
//! Two pieces of paper machinery live here:
//!
//! * **Read-only (translated) bits** (§3.2): each 4 KiB unit of base
//!   physical memory carries a bit, invisible to the base architecture,
//!   that the VMM sets when it translates code from that unit. Stores to
//!   marked units are recorded so the VMM can invalidate the translation
//!   (self-modifying code, overlays, program loads).
//! * **The base architecture's own virtual memory** ([`Mmu`]): when the
//!   emulated MSR enables relocation, data and instruction accesses go
//!   through a page table; a missing or protection-violating mapping
//!   raises the storage interrupts that the VMM forwards to the emulated
//!   operating system (§3.3).

use crate::PAGE_SIZE;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;

/// A failed physical memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// The faulting physical address.
    pub addr: u32,
    /// True when the access was a store.
    pub write: bool,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault at physical address {:#010x}",
            if self.write { "store" } else { "load" },
            self.addr
        )
    }
}

impl std::error::Error for MemFault {}

/// A guest-physical MMIO device bus attached above RAM.
///
/// Devices are modeled functionally: every access carries `now`, the
/// count of retired guest instructions, and device state must be a pure
/// function of (`now`, the history of writes with their times). That
/// discipline is what lets the injection harness replay a translated
/// run's interrupt deliveries on the interpreter oracle and get
/// bit-identical device state back — no hidden per-poll counters may
/// advance differently between two runs that retire the same
/// instruction stream.
///
/// Reads may have side effects (UART RX pop, IRQ claim), which is why
/// translated code must never issue them speculatively: every engine
/// tier bails to the interpreter *before* touching the window (see
/// `GroupExit::Mmio` in the core crate).
pub trait Bus: fmt::Debug {
    /// Reads `width` (1, 2, or 4) bytes at `offset` within the window.
    fn read(&mut self, now: u64, offset: u32, width: u32) -> u32;
    /// Writes `width` bytes at `offset` within the window.
    fn write(&mut self, now: u64, offset: u32, width: u32, value: u32);
    /// Level of the aggregated external-interrupt line at `now`.
    fn irq_level(&mut self, now: u64) -> bool;
    /// Canonical serialization of all device state, for bit-for-bit
    /// diffing against an oracle run.
    fn snapshot(&mut self, now: u64) -> Vec<u8>;
    /// Clones the device tree (supports `Memory: Clone`).
    fn clone_box(&self) -> Box<dyn Bus>;
    /// Concrete-type access for harnesses (UART transcript readout, RX
    /// injection) that know which device tree they attached.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
    /// Host-side out-of-band input at time `now` — e.g. a fuzzing
    /// harness pushing a UART RX byte. The device interprets `data`
    /// however it likes; devices with no input stream ignore it (the
    /// default). Injections count as writes for the purity discipline:
    /// a replay must repeat them at the same `now` values.
    fn host_inject(&mut self, _now: u64, _data: u32) {}
}

impl Clone for Box<dyn Bus> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The attached window: device tree plus the current device time.
///
/// Interior mutability keeps `Memory`'s read accessors `&self` even
/// though device reads mutate device state; the emulator is
/// single-threaded, so the `RefCell` is never contended.
#[derive(Debug, Clone)]
struct MmioWindow {
    now: Cell<u64>,
    dev: RefCell<Box<dyn Bus>>,
}

/// Emulated physical memory of the base architecture.
///
/// This corresponds to the identity-mapped low section of the VLIW
/// virtual address space in paper Fig. 3.1. The VLIW's own translated
/// code lives *outside* this array (in the VMM's data structures), just
/// as the paper keeps it in a region the base architecture cannot see.
#[derive(Debug, Clone)]
pub struct Memory {
    bytes: Vec<u8>,
    /// Per-4K-page "read-only because translated" bit (§3.2).
    translated: Vec<bool>,
    /// Pages whose translated bit was set when a store hit them, in
    /// order of first occurrence since the last [`Memory::drain_code_writes`].
    code_writes: Vec<u32>,
    code_write_seen: Vec<bool>,
    /// Base guest-physical address of the MMIO window (`u32::MAX` when
    /// no bus is attached — makes `is_mmio_inline` a single compare).
    mmio_base: u32,
    /// Window length in bytes (0 when no bus is attached).
    mmio_len: u32,
    bus: Option<MmioWindow>,
}

impl Memory {
    /// Creates `size` bytes of zeroed physical memory (rounded up to a
    /// whole number of pages).
    pub fn new(size: u32) -> Memory {
        let size = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let pages = (size / PAGE_SIZE) as usize;
        Memory {
            bytes: vec![0; size as usize],
            translated: vec![false; pages],
            code_writes: Vec::new(),
            code_write_seen: vec![false; pages],
            mmio_base: u32::MAX,
            mmio_len: 0,
            bus: None,
        }
    }

    /// Attaches an MMIO device bus occupying `[base, base + len)`.
    ///
    /// The window must sit entirely above RAM (device addresses fail
    /// the ordinary bounds check, which is what routes them here — and
    /// what makes the native tier's compiled bounds guard bail out of
    /// JIT code for free on every device access).
    ///
    /// # Panics
    ///
    /// Panics if the window overlaps RAM, is empty, or wraps the
    /// address space.
    pub fn attach_bus(&mut self, base: u32, len: u32, dev: Box<dyn Bus>) {
        assert!(base >= self.size(), "MMIO window {base:#010x} overlaps RAM");
        assert!(len > 0, "empty MMIO window");
        assert!(base.checked_add(len).is_some(), "MMIO window wraps the address space");
        self.mmio_base = base;
        self.mmio_len = len;
        self.bus = Some(MmioWindow { now: Cell::new(0), dev: RefCell::new(dev) });
    }

    /// True when an MMIO bus is attached.
    pub fn has_bus(&self) -> bool {
        self.bus.is_some()
    }

    /// Advances the device clock to `now` (retired guest instructions).
    /// Subsequent MMIO accesses and IRQ-line samples observe this time.
    pub fn set_bus_time(&self, now: u64) {
        if let Some(b) = &self.bus {
            b.now.set(now);
        }
    }

    /// Samples the aggregated external-interrupt line at the current
    /// device time. False when no bus is attached.
    pub fn bus_irq_level(&self) -> bool {
        match &self.bus {
            Some(b) => b.dev.borrow_mut().irq_level(b.now.get()),
            None => false,
        }
    }

    /// Canonical serialization of the attached device tree's state at
    /// the current device time, or `None` when no bus is attached.
    pub fn bus_snapshot(&self) -> Option<Vec<u8>> {
        self.bus.as_ref().map(|b| b.dev.borrow_mut().snapshot(b.now.get()))
    }

    /// Runs `f` against the attached device tree (harness access: RX
    /// injection, transcript reads). Returns `None` when no bus is
    /// attached.
    pub fn with_bus<R>(&self, f: impl FnOnce(u64, &mut dyn Bus) -> R) -> Option<R> {
        self.bus.as_ref().map(|b| f(b.now.get(), b.dev.borrow_mut().as_mut()))
    }

    /// Delivers host-side out-of-band input ([`Bus::host_inject`]) to
    /// the device tree at the current device time. No-op when no bus is
    /// attached.
    pub fn bus_host_inject(&self, data: u32) {
        if let Some(b) = &self.bus {
            b.dev.borrow_mut().host_inject(b.now.get(), data);
        }
    }

    /// True when `addr` falls inside the MMIO window. Engine tiers call
    /// this *before* any memory helper so device accesses always bail
    /// to the interpreter instead of executing from translated code.
    #[inline(always)]
    pub fn is_mmio_inline(&self, addr: u32) -> bool {
        addr.wrapping_sub(self.mmio_base) < self.mmio_len
    }

    #[cold]
    fn mmio_read(&self, addr: u32, width: u32) -> Option<u32> {
        let off = addr.wrapping_sub(self.mmio_base);
        if off >= self.mmio_len || self.mmio_len - off < width {
            return None;
        }
        let b = self.bus.as_ref()?;
        Some(b.dev.borrow_mut().read(b.now.get(), off, width))
    }

    #[cold]
    fn mmio_write(&mut self, addr: u32, width: u32, value: u32) -> Option<()> {
        let off = addr.wrapping_sub(self.mmio_base);
        if off >= self.mmio_len || self.mmio_len - off < width {
            return None;
        }
        let b = self.bus.as_ref()?;
        b.dev.borrow_mut().write(b.now.get(), off, width, value);
        Some(())
    }

    /// Total size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    #[inline(always)]
    fn check(&self, addr: u32, len: u32, write: bool) -> Result<usize, MemFault> {
        let end = addr as u64 + len as u64;
        if end > self.bytes.len() as u64 {
            Err(MemFault { addr, write })
        } else {
            Ok(addr as usize)
        }
    }

    #[inline(always)]
    fn note_store(&mut self, addr: u32, len: u32) {
        let first = addr / PAGE_SIZE;
        let last = (addr + len - 1) / PAGE_SIZE;
        for page in first..=last {
            let i = page as usize;
            if self.translated[i] && !self.code_write_seen[i] {
                self.code_write_seen[i] = true;
                self.code_writes.push(page);
            }
        }
    }

    // The accessors route bounds-check failures to the MMIO window
    // before faulting. Device access is therefore automatic for
    // every *interpreter* path (the window sits above RAM, so the
    // ordinary check fails exactly for device addresses); engine tiers
    // never reach this routing because they test `is_mmio_inline`
    // first and bail — reaching a device read from translated code
    // could replay its side effects on the recovery re-execution.

    /// Reads one byte.
    #[inline(always)]
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemFault> {
        match self.check(addr, 1, false) {
            Ok(i) => Ok(self.bytes[i]),
            Err(f) => match self.mmio_read(addr, 1) {
                Some(v) => Ok(v as u8),
                None => Err(f),
            },
        }
    }

    /// Reads a big-endian halfword.
    #[inline(always)]
    pub fn read_u16(&self, addr: u32) -> Result<u16, MemFault> {
        match self.check(addr, 2, false) {
            Ok(i) => Ok(u16::from_be_bytes([self.bytes[i], self.bytes[i + 1]])),
            Err(f) => match self.mmio_read(addr, 2) {
                Some(v) => Ok(v as u16),
                None => Err(f),
            },
        }
    }

    /// Reads a big-endian word.
    #[inline(always)]
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemFault> {
        match self.check(addr, 4, false) {
            Ok(i) => Ok(u32::from_be_bytes([
                self.bytes[i],
                self.bytes[i + 1],
                self.bytes[i + 2],
                self.bytes[i + 3],
            ])),
            Err(f) => match self.mmio_read(addr, 4) {
                Some(v) => Ok(v),
                None => Err(f),
            },
        }
    }

    /// Writes one byte, recording code-modification events.
    #[inline(always)]
    pub fn write_u8(&mut self, addr: u32, v: u8) -> Result<(), MemFault> {
        match self.check(addr, 1, true) {
            Ok(i) => {
                self.note_store(addr, 1);
                self.bytes[i] = v;
                Ok(())
            }
            Err(f) => self.mmio_write(addr, 1, v as u32).ok_or(f),
        }
    }

    /// Writes a big-endian halfword.
    #[inline(always)]
    pub fn write_u16(&mut self, addr: u32, v: u16) -> Result<(), MemFault> {
        match self.check(addr, 2, true) {
            Ok(i) => {
                self.note_store(addr, 2);
                self.bytes[i..i + 2].copy_from_slice(&v.to_be_bytes());
                Ok(())
            }
            Err(f) => self.mmio_write(addr, 2, v as u32).ok_or(f),
        }
    }

    /// Writes a big-endian word.
    #[inline(always)]
    pub fn write_u32(&mut self, addr: u32, v: u32) -> Result<(), MemFault> {
        match self.check(addr, 4, true) {
            Ok(i) => {
                self.note_store(addr, 4);
                self.bytes[i..i + 4].copy_from_slice(&v.to_be_bytes());
                Ok(())
            }
            Err(f) => self.mmio_write(addr, 4, v).ok_or(f),
        }
    }

    /// Copies a byte slice into memory (used by program loading; does
    /// *not* count as a store for code-modification purposes).
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) -> Result<(), MemFault> {
        let i = self.check(addr, data.len() as u32, true)?;
        self.bytes[i..i + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], MemFault> {
        let i = self.check(addr, len, false)?;
        Ok(&self.bytes[i..i + len as usize])
    }

    /// Marks a page's read-only (translated) bit. The VMM calls this
    /// whenever it translates code from the page (§3.2).
    pub fn set_translated_bit(&mut self, page_addr: u32) {
        let i = (page_addr / PAGE_SIZE) as usize;
        if i < self.translated.len() {
            self.translated[i] = true;
        }
    }

    /// Clears a page's read-only (translated) bit (translation cast out
    /// or invalidated).
    pub fn clear_translated_bit(&mut self, page_addr: u32) {
        let i = (page_addr / PAGE_SIZE) as usize;
        if i < self.translated.len() {
            self.translated[i] = false;
            self.code_write_seen[i] = false;
        }
    }

    /// True if the page holding `page_addr` has its translated bit set.
    pub fn translated_bit(&self, page_addr: u32) -> bool {
        let i = (page_addr / PAGE_SIZE) as usize;
        i < self.translated.len() && self.translated[i]
    }

    /// Returns (and clears) the list of translated pages that have been
    /// stored to since the last call — the code-modification interrupts
    /// of §3.2, delivered in batch to the VMM. Page *indices* (address /
    /// 4 KiB) are returned.
    pub fn drain_code_writes(&mut self) -> Vec<u32> {
        for &p in &self.code_writes {
            self.code_write_seen[p as usize] = false;
        }
        std::mem::take(&mut self.code_writes)
    }

    /// True if any code-modification event is pending.
    #[inline(always)]
    pub fn has_code_writes(&self) -> bool {
        !self.code_writes.is_empty()
    }

    /// Raw view for the native (JIT) tier: base pointer and length of
    /// the byte array plus the translated-bit array (one byte per 4 KiB
    /// page — `Vec<bool>` stores each flag as a byte, which is exactly
    /// the shape compiled probes test with `cmp byte [..], 0`).
    ///
    /// Compiled code accesses guest bytes directly but bails back to
    /// the packed engine *before* any store whose target page has its
    /// translated bit set, so the code-modification bookkeeping above
    /// is never bypassed. Both arrays are sized at construction and
    /// never reallocate, so the pointers stay valid for the `Memory`'s
    /// lifetime.
    pub fn jit_view(&mut self) -> (*mut u8, u32, *const bool) {
        (self.bytes.as_mut_ptr(), self.bytes.len() as u32, self.translated.as_ptr())
    }

    /// log2 of the translated-bit granule, for the native tier's
    /// compiled page probes.
    pub const fn page_shift() -> u32 {
        PAGE_SIZE.trailing_zeros()
    }
}

/// Why an address translation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XlateFault {
    /// No mapping for the virtual page.
    NotMapped,
    /// Mapping exists but forbids writes.
    Protection,
}

/// A virtual→physical page mapping entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMapping {
    /// Physical page address (page-aligned).
    pub phys: u32,
    /// Whether stores are permitted.
    pub writable: bool,
}

/// The base architecture's page table, consulted when the emulated MSR
/// enables instruction or data relocation.
///
/// Real PowerPC uses hashed page tables; the structure is irrelevant to
/// DAISY's mechanisms (the VMM only needs *a* virtual-to-physical map to
/// implement `GO_ACROSS_PAGE`'s effective-address translation), so a
/// software-managed map keyed by virtual page number stands in.
#[derive(Debug, Clone, Default)]
pub struct Mmu {
    map: HashMap<u32, PageMapping>,
}

impl Mmu {
    /// Creates an empty page table.
    pub fn new() -> Mmu {
        Mmu::default()
    }

    /// Maps the virtual page containing `virt` to the physical page
    /// containing `phys`.
    pub fn map(&mut self, virt: u32, phys: u32, writable: bool) {
        self.map
            .insert(virt / PAGE_SIZE, PageMapping { phys: phys / PAGE_SIZE * PAGE_SIZE, writable });
    }

    /// Removes the mapping for the virtual page containing `virt`.
    pub fn unmap(&mut self, virt: u32) {
        self.map.remove(&(virt / PAGE_SIZE));
    }

    /// Translates a virtual address, honoring write protection.
    pub fn translate(&self, virt: u32, write: bool) -> Result<u32, XlateFault> {
        match self.map.get(&(virt / PAGE_SIZE)) {
            None => Err(XlateFault::NotMapped),
            Some(m) if write && !m.writable => Err(XlateFault::Protection),
            Some(m) => Ok(m.phys + virt % PAGE_SIZE),
        }
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_endian_layout() {
        let mut m = Memory::new(0x1000);
        m.write_u32(0x10, 0x1122_3344).unwrap();
        assert_eq!(m.read_u8(0x10).unwrap(), 0x11);
        assert_eq!(m.read_u8(0x13).unwrap(), 0x44);
        assert_eq!(m.read_u16(0x12).unwrap(), 0x3344);
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = Memory::new(0x1000);
        assert!(m.read_u32(0x0FFE).is_err());
        assert!(m.write_u8(0x1000, 0).is_err());
        assert_eq!(m.read_u32(0x0FFC).unwrap(), 0);
    }

    #[test]
    fn translated_bit_records_code_writes() {
        let mut m = Memory::new(0x4000);
        m.set_translated_bit(0x2000);
        m.write_u32(0x1000, 1).unwrap();
        assert!(!m.has_code_writes());
        m.write_u32(0x2008, 2).unwrap();
        m.write_u8(0x2100, 3).unwrap(); // same page: recorded once
        assert_eq!(m.drain_code_writes(), vec![2]);
        assert!(!m.has_code_writes());
        // After draining, a new store records again.
        m.write_u8(0x2000, 4).unwrap();
        assert_eq!(m.drain_code_writes(), vec![2]);
    }

    #[test]
    fn straddling_store_marks_both_pages() {
        let mut m = Memory::new(0x4000);
        m.set_translated_bit(0x1000);
        m.set_translated_bit(0x2000);
        m.write_u32(0x1FFE, 0xAABB_CCDD).unwrap();
        assert_eq!(m.drain_code_writes(), vec![1, 2]);
    }

    #[derive(Debug, Clone)]
    struct EchoDev {
        regs: [u32; 4],
        reads: u32,
    }

    impl Bus for EchoDev {
        fn read(&mut self, now: u64, offset: u32, _width: u32) -> u32 {
            self.reads += 1;
            self.regs[(offset / 4) as usize].wrapping_add(now as u32)
        }
        fn write(&mut self, _now: u64, offset: u32, _width: u32, value: u32) {
            self.regs[(offset / 4) as usize] = value;
        }
        fn irq_level(&mut self, _now: u64) -> bool {
            self.regs[0] != 0
        }
        fn snapshot(&mut self, _now: u64) -> Vec<u8> {
            self.regs.iter().flat_map(|r| r.to_be_bytes()).collect()
        }
        fn clone_box(&self) -> Box<dyn Bus> {
            Box::new(self.clone())
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn mmio_window_routes_past_ram() {
        let mut m = Memory::new(0x1000);
        assert!(!m.has_bus());
        assert!(!m.is_mmio_inline(0x8000_0000));
        m.attach_bus(0x8000_0000, 0x10, Box::new(EchoDev { regs: [0; 4], reads: 0 }));
        assert!(m.has_bus());
        assert!(m.is_mmio_inline(0x8000_0000));
        assert!(m.is_mmio_inline(0x8000_000F));
        assert!(!m.is_mmio_inline(0x8000_0010));
        assert!(!m.is_mmio_inline(0x7FFF_FFFF));
        assert!(!m.is_mmio_inline(0x0800));

        // Writes and reads route to the device; time is observed.
        m.write_u32(0x8000_0004, 77).unwrap();
        assert_eq!(m.read_u32(0x8000_0004).unwrap(), 77);
        m.set_bus_time(5);
        assert_eq!(m.read_u32(0x8000_0004).unwrap(), 82);
        assert!(!m.bus_irq_level());
        m.write_u32(0x8000_0000, 1).unwrap();
        assert!(m.bus_irq_level());

        // Out-of-range still faults: past the window, straddling its
        // end, and below it (above RAM).
        assert!(m.read_u32(0x8000_0010).is_err());
        assert!(m.read_u32(0x8000_000E).is_err());
        assert!(m.write_u8(0x7FFF_0000, 0).is_err());
        assert!(m.read_u32(0x2000).is_err());

        // RAM still behaves normally underneath.
        m.write_u32(0x10, 42).unwrap();
        assert_eq!(m.read_u32(0x10).unwrap(), 42);

        // Clone carries the device; snapshots match bit for bit.
        let m2 = m.clone();
        assert_eq!(m.bus_snapshot(), m2.bus_snapshot());
        m.write_u32(0x8000_000C, 9).unwrap();
        assert_ne!(m.bus_snapshot(), m2.bus_snapshot());
    }

    #[test]
    fn mmu_translate() {
        let mut mmu = Mmu::new();
        mmu.map(0x0003_0000, 0x2000, true);
        mmu.map(0x0003_1000, 0x5000, false);
        assert_eq!(mmu.translate(0x0003_0104, false), Ok(0x2104));
        assert_eq!(mmu.translate(0x0003_1004, false), Ok(0x5004));
        assert_eq!(mmu.translate(0x0003_1004, true), Err(XlateFault::Protection));
        assert_eq!(mmu.translate(0x0004_0000, false), Err(XlateFault::NotMapped));
    }
}
