//! The W^X executable code arena.
//!
//! One anonymous `mmap` region holds every compiled group plus the
//! shared entry thunk and epilogue. The mapping is `r-x` at rest. A
//! write (group installation, chain-edge patching) opens a *window*:
//! only the pages the write touches flip to `rw-`, and [`Arena::seal`]
//! flips exactly those pages back before any guest code runs. No page
//! is ever writable and executable at once, and execution is
//! single-threaded, so there is no window where another thread could
//! run code mid-write. A window's cost is the pages it touches, not
//! the size of the mapping.
//!
//! Allocation is a bump pointer. Compiled groups are retired by
//! flipping their alive byte (see [`crate::AliveSlab`]); the space
//! they occupied comes back only wholesale, through
//! [`Arena::rewind`], once no group is alive (see
//! [`crate::Jit::reclaim`]). A full arena refuses compiles until then;
//! execution falls back to the packed tier, never fails.
//!
//! The crate takes no libc dependency, so the three needed syscalls
//! are issued directly. The cache access log's backing store
//! ([`AccessLog`]) is mapped here too, for the same reason.

use std::cell::{Cell, RefCell};

const PROT_READ: usize = 1;
const PROT_WRITE: usize = 2;
const PROT_EXEC: usize = 4;
const MAP_PRIVATE: usize = 0x02;
const MAP_ANONYMOUS: usize = 0x20;

const SYS_MMAP: usize = 9;
const SYS_MPROTECT: usize = 10;
const SYS_MUNMAP: usize = 11;

/// Host page size: the granularity of a write window.
const PAGE: usize = 4096;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
unsafe fn syscall6(
    nr: usize,
    a1: usize,
    a2: usize,
    a3: usize,
    a4: usize,
    a5: usize,
    a6: usize,
) -> isize {
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr => ret,
            in("rdi") a1,
            in("rsi") a2,
            in("rdx") a3,
            in("r10") a4,
            in("r8") a5,
            in("r9") a6,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

/// An executable bump-allocated mapping.
///
/// All methods take `&self`: interior mutability keeps the arena
/// shareable behind `Rc` from every compiled group (whose code must
/// stay mapped as long as any of them is alive).
#[derive(Debug)]
pub struct Arena {
    base: *mut u8,
    len: usize,
    used: Cell<usize>,
    /// Page runs `[start, end)` (page-aligned arena offsets) the open
    /// write window has flipped to `rw-`; empty at rest.
    window: RefCell<Vec<(usize, usize)>>,
}

impl Arena {
    /// Maps `len` bytes of executable memory, `r-x`. Returns `None`
    /// when the platform cannot provide it (non-x86-64, non-Linux, or
    /// mmap failure) — callers then keep executing on the packed tier.
    pub fn new(len: usize) -> Option<Arena> {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            let addr = unsafe {
                syscall6(
                    SYS_MMAP,
                    0,
                    len,
                    PROT_READ | PROT_EXEC,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    usize::MAX, // fd = -1
                    0,
                )
            };
            if !(0..isize::MAX).contains(&addr) || addr == 0 {
                return None;
            }
            Some(Arena {
                base: addr as *mut u8,
                len,
                used: Cell::new(0),
                window: RefCell::new(Vec::new()),
            })
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            let _ = len;
            None
        }
    }

    /// Base address of the mapping.
    pub fn base(&self) -> *const u8 {
        self.base
    }

    /// Bytes already handed out.
    pub fn used(&self) -> usize {
        self.used.get()
    }

    /// The absolute address `install` would place the next blob at
    /// (accounting for its 16-byte alignment).
    pub fn next_addr(&self) -> u64 {
        self.base as u64 + ((self.used.get() + 15) & !15) as u64
    }

    fn set_prot(&self, start: usize, end: usize, prot: usize) {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            // SAFETY: `[start, end)` is page-aligned and inside the
            // mapping (see `open`); no Rust reference points into it.
            let r = unsafe {
                syscall6(SYS_MPROTECT, self.base as usize + start, end - start, prot, 0, 0, 0)
            };
            debug_assert_eq!(r, 0, "mprotect failed");
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        let _ = (start, end, prot);
    }

    /// Adds the pages holding `[at, at + n)` to the write window,
    /// flipping whichever of them are not already in it to `rw-`.
    /// Every write goes through here, so this bounds check is what
    /// keeps the writes inside the mapping.
    fn open(&self, at: usize, n: usize) {
        assert!(at + n <= self.len, "arena write at {at}+{n} past {}", self.len);
        let lo = at & !(PAGE - 1);
        let hi = (at + n).next_multiple_of(PAGE);
        let mut window = self.window.borrow_mut();
        match window.iter_mut().find(|r| lo <= r.1 && r.0 <= hi) {
            Some(r) if r.0 <= lo && hi <= r.1 => {}
            Some(r) => {
                self.set_prot(lo, hi, PROT_READ | PROT_WRITE);
                *r = (r.0.min(lo), r.1.max(hi));
            }
            None => {
                self.set_prot(lo, hi, PROT_READ | PROT_WRITE);
                window.push((lo, hi));
            }
        }
    }

    /// Closes the write window: flips exactly the pages it opened back
    /// to `r-x`. Must be called after any write sequence, before guest
    /// code re-enters the arena.
    pub fn seal(&self) {
        for (lo, hi) in self.window.borrow_mut().drain(..) {
            self.set_prot(lo, hi, PROT_READ | PROT_EXEC);
        }
    }

    /// Copies `code` into the arena at the current bump position and
    /// returns its offset. Returns `None` when the arena is full. The
    /// pages written are left writable; call [`Arena::seal`] before
    /// executing.
    pub fn install(&self, code: &[u8]) -> Option<usize> {
        // Align each blob so patched rel32 stores stay within the blob.
        let at = (self.used.get() + 15) & !15;
        if at + code.len() > self.len {
            return None;
        }
        if !code.is_empty() {
            self.open(at, code.len());
            // SAFETY: `open` checked the range and made its pages
            // writable; `code` is a separate Rust allocation.
            unsafe {
                std::ptr::copy_nonoverlapping(code.as_ptr(), self.base.add(at), code.len());
            }
        }
        self.used.set(at + code.len());
        Some(at)
    }

    /// Absolute address of arena offset `off`.
    pub fn addr_of(&self, off: usize) -> u64 {
        debug_assert!(off < self.len);
        self.base as u64 + off as u64
    }

    /// Rewrites the rel32 field at arena offset `at` to land on the
    /// absolute address `target`.
    pub fn write_rel32(&self, at: usize, target: u64) {
        self.open(at, 4);
        let next = self.base as u64 + at as u64 + 4;
        let rel = (target as i64).wrapping_sub(next as i64) as i32;
        // SAFETY: `open` checked the range and made its pages writable.
        unsafe {
            std::ptr::copy_nonoverlapping(rel.to_le_bytes().as_ptr(), self.base.add(at), 4);
        }
    }

    /// Writes an imm64 field at arena offset `at`.
    pub fn write_imm64(&self, at: usize, v: u64) {
        self.open(at, 8);
        // SAFETY: `open` checked the range and made its pages writable.
        unsafe {
            std::ptr::copy_nonoverlapping(v.to_le_bytes().as_ptr(), self.base.add(at), 8);
        }
    }

    /// Moves the bump pointer back to `to`, handing every byte past it
    /// out again. Refused (returns `false`) when `to` lies past the
    /// bump pointer. The caller guarantees nothing past `to` is
    /// reachable any more.
    pub fn rewind(&self, to: usize) -> bool {
        if to > self.used.get() {
            return false;
        }
        self.used.set(to);
        true
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        unsafe {
            syscall6(SYS_MUNMAP, self.base as usize, self.len, 0, 0, 0, 0);
        }
    }
}

/// Backing store of the cache access log: [`crate::ACCESS_LOG_CAPACITY`]
/// `u64` entries in an anonymous read-write mapping. The kernel fills
/// pages with zeros on first touch, so resident memory is what runs
/// actually write, not the static bound.
#[derive(Debug)]
pub struct AccessLog {
    base: *mut u64,
    len: usize,
}

impl AccessLog {
    /// Maps the log. `None` where [`Arena::new`] would fail too.
    pub fn new() -> Option<AccessLog> {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        {
            let len = crate::ACCESS_LOG_CAPACITY;
            let addr = unsafe {
                syscall6(
                    SYS_MMAP,
                    0,
                    len * 8,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    usize::MAX, // fd = -1
                    0,
                )
            };
            if !(0..isize::MAX).contains(&addr) || addr == 0 {
                return None;
            }
            Some(AccessLog { base: addr as *mut u64, len })
        }
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
        {
            None
        }
    }

    /// First entry: the run's `JitCtx::access_base`.
    pub fn base(&self) -> *mut u64 {
        self.base
    }

    /// The entries a run wrote, up to the cursor `end` its epilogue
    /// stored (`JitCtx::access_end`).
    pub fn written(&self, end: *const u64) -> &[u64] {
        let n = (end as usize).saturating_sub(self.base as usize) / 8;
        // SAFETY: the mapping holds `len` initialised (zero-filled or
        // written) entries and lives as long as `self`.
        unsafe { std::slice::from_raw_parts(self.base, n.min(self.len)) }
    }
}

impl Drop for AccessLog {
    fn drop(&mut self) {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        unsafe {
            syscall6(SYS_MUNMAP, self.base as usize, self.len * 8, 0, 0, 0, 0);
        }
    }
}

#[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn map_install_execute_roundtrip() {
        let arena = Arena::new(1 << 16).expect("mmap");
        // lea eax, [rdi+1]; ret  — fn(i32-ish in rdi low) -> edi+1
        let off = arena.install(&[0x8D, 0x47, 0x01, 0xC3]).expect("fits");
        arena.seal();
        let f: extern "sysv64" fn(u64) -> u32 = unsafe { std::mem::transmute(arena.addr_of(off)) };
        assert_eq!(f(41), 42);
    }

    #[test]
    fn write_rel32_retargets_a_jump() {
        let arena = Arena::new(1 << 16).expect("mmap");
        // jmp +0 (to fallback); fallback: mov eax,1; ret; stub: mov eax,2; ret
        let mut code = vec![0xE9, 0, 0, 0, 0]; // site at 0, rel at 1
        let fallback = code.len();
        code.extend_from_slice(&[0xB8, 1, 0, 0, 0, 0xC3]);
        let stub = code.len();
        code.extend_from_slice(&[0xB8, 2, 0, 0, 0, 0xC3]);
        let off = arena.install(&code).expect("fits");
        arena.write_rel32(off + 1, arena.addr_of(off + fallback));
        arena.seal();
        let f: extern "sysv64" fn() -> u32 = unsafe { std::mem::transmute(arena.addr_of(off)) };
        assert_eq!(f(), 1);
        arena.write_rel32(off + 1, arena.addr_of(off + stub));
        arena.seal();
        assert_eq!(f(), 2);
    }

    #[test]
    fn full_arena_refuses_cleanly() {
        let arena = Arena::new(4096).expect("mmap");
        assert!(arena.install(&[0x90; 4000]).is_some());
        assert!(arena.install(&[0x90; 200]).is_none());
    }

    /// `(start, end, perms)` of every `/proc/self/maps` line overlapping
    /// `arena`, clipped to the arena's own range.
    fn maps(arena: &Arena) -> Vec<(usize, usize, String)> {
        let (lo, hi) = (arena.base as usize, arena.base as usize + arena.len);
        let text = std::fs::read_to_string("/proc/self/maps").expect("procfs");
        text.lines()
            .filter_map(|line| {
                let (range, rest) = line.split_once(' ')?;
                let (s, e) = range.split_once('-')?;
                let s = usize::from_str_radix(s, 16).ok()?;
                let e = usize::from_str_radix(e, 16).ok()?;
                (s < hi && lo < e).then(|| (s.max(lo), e.min(hi), rest[..4].to_string()))
            })
            .collect()
    }

    /// Asserts no arena page is writable and executable, and returns
    /// the arena-relative page runs that are writable.
    fn writable_runs(arena: &Arena) -> Vec<(usize, usize)> {
        let base = arena.base as usize;
        let lines = maps(arena);
        assert_eq!(lines.iter().map(|l| l.1 - l.0).sum::<usize>(), arena.len, "{lines:?}");
        for (_, _, perms) in &lines {
            assert!(!(perms.contains('w') && perms.contains('x')), "W+X page: {lines:?}");
        }
        lines.iter().filter(|l| l.2.contains('w')).map(|l| (l.0 - base, l.1 - base)).collect()
    }

    #[test]
    fn write_windows_touch_only_their_pages_and_never_wx() {
        let arena = Arena::new(8 * PAGE).expect("mmap");
        assert_eq!(writable_runs(&arena), []);
        // A blob straddling the first page boundary opens both pages.
        arena.install(&[0x90; 16]).expect("fits");
        let off = arena.install(&[0xC3; PAGE]).expect("fits");
        assert_eq!(writable_runs(&arena), [(0, 2 * PAGE)]);
        arena.seal();
        assert_eq!(writable_runs(&arena), []);
        assert!(maps(&arena).iter().all(|l| l.2.starts_with("r-x")));
        // A rel32 store on the second page opens that page alone.
        arena.write_rel32(off + PAGE - 8, arena.addr_of(0));
        assert_eq!(writable_runs(&arena), [(PAGE, 2 * PAGE)]);
        arena.write_imm64(6 * PAGE, 0);
        assert_eq!(writable_runs(&arena), [(PAGE, 2 * PAGE), (6 * PAGE, 7 * PAGE)]);
        arena.seal();
        assert_eq!(writable_runs(&arena), []);
        assert!(maps(&arena).iter().all(|l| l.2.starts_with("r-x")));
    }

    #[test]
    fn rewind_hands_space_out_again() {
        let arena = Arena::new(1 << 16).expect("mmap");
        let keep = arena.install(&[0xC3]).expect("fits") + 1;
        let off = arena.install(&[0xE9, 0, 0, 0, 0, 0xC3, 0xC3]).expect("fits");
        arena.seal();
        assert!(!arena.rewind(arena.used() + 1), "past the bump pointer");
        assert!(arena.rewind(keep));
        assert_eq!(arena.used(), keep);
        assert_eq!(arena.install(&[0x90]), Some(off), "space is handed out again");
    }
}
