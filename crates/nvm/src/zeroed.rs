//! Zeroed arrays of atomics, backed by 2 MiB pages where the kernel allows.
//!
//! Every HDNH read touches scattered memory: two hot-table buckets, the OCF
//! groups of eight candidate buckets, one 256-byte bucket of a simulated
//! NVM region. Each sits on its own 4 KiB page of an array tens of MiB
//! long, so with 4 KiB pages almost every line a probe fetches also pays a
//! page walk. Under transparent huge pages in `madvise` mode the kernel
//! backs an anonymous range with 2 MiB pages only where a process asks, so
//! [`zeroed_atomics`] asks for every whole 2 MiB page inside the array
//! before it first touches the array. Where THP is off the advice changes
//! nothing, and the array is exactly what `Vec` alone would have built.
//!
//! `madvise` is declared directly against libc, like `mmap` in
//! `mapfile.rs`.

use std::ops::Range;

/// The transparent huge page size the advice is aligned to (x86-64 and
/// aarch64 with 4 KiB base pages).
const HUGE_PAGE: usize = 2 << 20;

mod sys {
    use std::os::raw::{c_int, c_void};

    pub(super) const MADV_DONTNEED: c_int = 4;
    pub(super) const MADV_HUGEPAGE: c_int = 14;

    extern "C" {
        pub(super) fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
}

/// A boxed slice of `len` atomics, each `A::default()` (zero for the
/// `Atomic*` integer types), allocated through the global allocator with
/// `A`'s natural layout like `Vec::with_capacity`.
///
/// Before the array is written, its whole 2 MiB pages are emptied and
/// advised for huge pages, so zeroing it faults them in as 2 MiB pages
/// rather than 4 KiB ones. Emptying first matters when the allocator hands
/// back memory a freed array already faulted in as 4 KiB pages: those
/// would otherwise stay small. A failed advice is ignored.
pub fn zeroed_atomics<A: Default>(len: usize) -> Box<[A]> {
    let mut v: Vec<A> = Vec::with_capacity(len);
    let bytes = v.capacity() * std::mem::size_of::<A>();
    if let Some(range) = huge_interior(v.as_ptr() as usize, bytes) {
        // SAFETY: `range` is 2 MiB-aligned, lies inside the allocation `v`
        // owns, and nothing has been written to it yet, so dropping its
        // pages loses nothing.
        unsafe { advise(range) };
    }
    v.resize_with(len, A::default);
    v.into_boxed_slice()
}

/// The whole 2 MiB-aligned pages inside `[addr, addr + bytes)`; `None`
/// when there is not one.
fn huge_interior(addr: usize, bytes: usize) -> Option<Range<usize>> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = (addr + bytes) / HUGE_PAGE * HUGE_PAGE;
    (start < end).then_some(start..end)
}

/// Drops the pages of `range`, then advises it for huge pages; returns
/// the `madvise(MADV_HUGEPAGE)` result (0, or -1 where the kernel has no
/// transparent huge pages).
///
/// # Safety
///
/// `range` must be page-aligned memory of an allocation the caller owns
/// and whose contents it no longer needs: private anonymous pages read
/// back as zeroes after `MADV_DONTNEED`.
unsafe fn advise(range: Range<usize>) -> i32 {
    let (addr, len) = (range.start as *mut _, range.len());
    // SAFETY: the caller's contract; neither call touches memory outside
    // `range`.
    unsafe {
        sys::madvise(addr, len, sys::MADV_DONTNEED);
        sys::madvise(addr, len, sys::MADV_HUGEPAGE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU16, AtomicU64, Ordering};

    const MIB: usize = 1 << 20;

    #[test]
    fn every_length_comes_back_exact_and_zeroed() {
        for bytes in [0, 8, 2 * MIB - 8, 2 * MIB, 2 * MIB + 8, 5 * MIB] {
            let words = zeroed_atomics::<AtomicU64>(bytes / 8);
            assert_eq!(words.len() * 8, bytes);
            assert!(
                words.iter().all(|w| w.load(Ordering::Relaxed) == 0),
                "{bytes} B"
            );
        }
        let halves = zeroed_atomics::<AtomicU16>(1);
        assert_eq!(halves.len(), 1);
        assert_eq!(halves[0].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn memory_a_freed_array_dirtied_comes_back_zeroed() {
        for _ in 0..4 {
            let words = zeroed_atomics::<AtomicU64>(5 * MIB / 8);
            assert!(words.iter().all(|w| w.load(Ordering::Relaxed) == 0));
            for w in words.iter() {
                w.store(u64::MAX, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn an_array_without_a_whole_aligned_huge_page_gets_no_advice() {
        assert_eq!(huge_interior(HUGE_PAGE, 0), None);
        assert_eq!(huge_interior(HUGE_PAGE, HUGE_PAGE - 8), None);
        assert_eq!(huge_interior(HUGE_PAGE + 4096, HUGE_PAGE), None);
        // Straddles one boundary: 3 MiB, but no whole aligned page.
        assert_eq!(huge_interior(HUGE_PAGE + MIB, 3 * MIB - 4096), None);
        assert_eq!(huge_interior(8, 0), None);
    }

    #[test]
    fn an_aligned_array_is_advised_over_exactly_its_pages() {
        let start = 7 * HUGE_PAGE;
        assert_eq!(huge_interior(start, 4 * MIB), Some(start..start + 4 * MIB));
        // An unaligned 5 MiB array keeps its ragged ends out.
        assert_eq!(
            huge_interior(start + 4096, 5 * MIB),
            Some(start + HUGE_PAGE..start + 2 * HUGE_PAGE)
        );
    }

    #[test]
    fn the_advice_is_taken_where_the_kernel_has_huge_pages() {
        if !std::path::Path::new("/sys/kernel/mm/transparent_hugepage/enabled").exists() {
            return;
        }
        let v: Vec<u64> = Vec::with_capacity(5 * MIB / 8);
        let range = huge_interior(v.as_ptr() as usize, 5 * MIB).expect("5 MiB spans a huge page");
        // SAFETY: the range is inside `v`'s allocation, which holds nothing.
        assert_eq!(unsafe { advise(range) }, 0);
    }
}
