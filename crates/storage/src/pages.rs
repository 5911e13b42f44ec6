//! The backing words of a packed run, and the one place the OS is called.
//! A run of a `GRANULE` or more is mapped into pages of its own: dropped, or
//! handed back a granule at a time as it is last read, its bytes leave the
//! resident set at once. Shorter runs, and every run where `os` maps nothing, are heap.

use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes of a page run handed back, their alignment, and the least run mapped.
pub(crate) const GRANULE: usize = 1 << 20;

static MAPPED: AtomicUsize = AtomicUsize::new(0);

/// Bytes the live packed runs hold in pages of their own.
pub fn mapped_bytes() -> usize {
    MAPPED.load(Relaxed)
}

/// The OS calls, on the targets whose constants and `off_t` these are.
#[cfg(target_os = "linux")]
#[cfg(target_pointer_width = "64")]
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
mod os {
    use super::NonNull;
    const PROT_READ: i32 = 0x1;
    const PROT_WRITE: i32 = 0x2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_FAILED: isize = -1;
    const MADV_HUGEPAGE: i32 = 14;
    pub(super) const MADV_DONTNEED: i32 = 4;
    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut u8;
        pub(super) fn munmap(addr: *mut u8, len: usize) -> i32;
        pub(super) fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }

    /// `bytes` of fresh zeroed pages of their own, advised huge if `huge`.
    pub(super) fn map(bytes: usize, huge: bool) -> Option<NonNull<u64>> {
        let (prot, flags) = (PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS);
        // SAFETY: a fresh private anonymous mapping, no address or file
        // given, and advice on it.
        unsafe {
            let at = mmap(std::ptr::null_mut(), bytes, prot, flags, -1, 0);
            let at = NonNull::new(at).filter(|_| at as isize != MAP_FAILED)?;
            if huge {
                madvise(at.as_ptr(), bytes, MADV_HUGEPAGE);
            }
            Some(at.cast())
        }
    }
}

/// Elsewhere nothing is mapped: every run is a heap block.
#[cfg(not(all(
    target_os = "linux",
    target_pointer_width = "64",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod os {
    pub(super) const MADV_DONTNEED: i32 = 0;
    pub(super) fn map(_: usize, _: bool) -> Option<std::ptr::NonNull<u64>> {
        None
    }
    pub(super) unsafe fn munmap(_: *mut u8, _: usize) {}
    pub(super) unsafe fn madvise(_: *mut u8, _: usize, _: i32) {}
}

/// The words of a run, read with no branch on where they live: `len` words
/// at `ptr`, in `map` bytes of pages of their own or, with no `map`, a heap block.
#[derive(Debug)]
pub(crate) struct Words {
    ptr: NonNull<u64>,
    len: usize,
    map: Option<usize>,
}

// SAFETY: a run is owned by its `Words` alone, as a `Vec` is.
unsafe impl Send for Words {}
// SAFETY: shared, a `Words` hands out `&[u64]` only.
unsafe impl Sync for Words {}

impl Words {
    /// `len` zero words: from a granule up, pages of their own, first touched
    /// by their writer, huge for a `whole` run (a 512th of the faults); else heap.
    pub(crate) fn zeroed(len: usize, whole: bool) -> Words {
        let map = len * 8;
        let Some(ptr) = (map >= GRANULE).then(|| os::map(map, whole)).flatten() else {
            return Words::heap(vec![0; len].into_boxed_slice());
        };
        MAPPED.fetch_add(map, Relaxed);
        Words {
            ptr,
            len,
            map: Some(map),
        }
    }

    fn heap(block: Box<[u64]>) -> Words {
        let len = block.len();
        let ptr = NonNull::from(Box::leak(block)).cast();
        Words {
            ptr,
            len,
            map: None,
        }
    }

    /// Keep the first `keep` words: a mapped run unmaps the whole granules
    /// past them, a heap run moves them to a block of their size.
    pub(crate) fn truncate(&mut self, keep: usize) {
        let Some(map) = self.map.as_mut() else {
            *self = Words::heap(self[..keep.min(self.len)].into());
            return;
        };
        self.len = keep.min(self.len);
        let kept = (self.len * 8).next_multiple_of(GRANULE).min(*map);
        // SAFETY: `kept` is a granule multiple: whole pages of this run's own
        // mapping, past every word it keeps.
        unsafe { os::munmap(self.ptr.as_ptr().cast::<u8>().add(kept), *map - kept) };
        MAPPED.fetch_sub(*map - kept, Relaxed);
        *map = kept;
    }
}

impl std::ops::Deref for Words {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        // SAFETY: `len` words of this run's own block or zeroed pages.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl std::ops::DerefMut for Words {
    fn deref_mut(&mut self) -> &mut [u64] {
        // SAFETY: as `deref`, borrowed exclusively.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl PartialEq for Words {
    fn eq(&self, other: &Words) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Words {}

impl Drop for Words {
    fn drop(&mut self) {
        if self.map.is_some() {
            return self.truncate(0);
        }
        let block = ptr::slice_from_raw_parts_mut(self.ptr.as_ptr(), self.len);
        // SAFETY: the block `Words::heap` leaked, `len` words long.
        drop(unsafe { Box::from_raw(block) });
    }
}

/// Hand back the whole [`GRANULE`]s in `words` its last `fresh` words
/// complete: `words`, borrowed exclusively, is read in order for the last
/// time. They read as zeros until the run drops. Where nothing is mapped, a no-op.
pub(crate) fn release(words: &mut [u64], fresh: usize) {
    let start = words.as_mut_ptr() as usize;
    let end = start + words.len() * 8;
    let lo = ((end - fresh * 8) / GRANULE * GRANULE).max(start.next_multiple_of(GRANULE));
    let hi = end / GRANULE * GRANULE;
    if lo < hi {
        // SAFETY: `lo..hi` is whole pages inside `words`, which nothing
        // reads again; zeros are valid words.
        unsafe { os::madvise(lo as *mut u8, hi - lo, os::MADV_DONTNEED) };
    }
}
