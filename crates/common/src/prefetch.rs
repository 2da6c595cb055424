//! A safe software-prefetch hint.
//!
//! Every DRAM address an HDNH probe can touch is a pure function of the
//! key's hashes, so an operation can ask for all of them before it walks
//! any (DESIGN.md §11, "address-first probe"). A prefetch is a hint: it
//! changes no value, no ordering and no counter, and the line it names
//! may or may not be resident afterwards.

use std::ops::Range;

/// Cache-line size the hint steps by.
const LINE: usize = 64;

/// Asks the CPU to bring every cache line the elements `slice[range]`
/// occupy towards the L1 data cache. The part of `range` that lies
/// outside the slice is ignored, so every address handed to the hardware
/// is the address of a byte of `slice` — in bounds by construction.
///
/// `prefetcht0` on x86-64, `prfm pldl1keep` on AArch64, nothing elsewhere.
#[inline(always)]
pub fn prefetch_read<T>(slice: &[T], range: Range<usize>) {
    let end = range.end.min(slice.len());
    let Some(elems) = slice.get(range.start..end) else {
        return;
    };
    let bytes = std::mem::size_of_val(elems);
    if bytes == 0 {
        return;
    }
    let first = elems.as_ptr() as usize;
    let last = first + bytes - 1;
    let mut line = first & !(LINE - 1);
    while line <= last {
        // `max` keeps the first line's address inside the slice.
        prefetch_line(line.max(first) as *const u8);
        line += LINE;
    }
}

#[inline(always)]
fn prefetch_line(p: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `prefetcht0` is baseline x86-64 (SSE), never faults and
    // reads nothing architecturally; `p` points into a live slice.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `prfm` is a hint: it never faults and changes no
    // architectural state; `p` points into a live slice.
    unsafe {
        std::arch::asm!(
            "prfm pldl1keep, [{p}]",
            p = in(reg) p,
            options(nostack, preserves_flags, readonly)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_range_is_accepted_and_changes_nothing() {
        let data: Vec<u16> = (0..1000).collect();
        let before = data.clone();
        // Empty, ordinary, last element, one past the end, far past the
        // end, inverted, overflowing: a hint is never an error.
        #[allow(clippy::reversed_empty_ranges)]
        for range in [
            0..0,
            0..8,
            999..1000,
            1000..1000,
            992..1008,
            5000..5008,
            8..0,
            usize::MAX - 1..usize::MAX,
        ] {
            prefetch_read(&data, range);
        }
        prefetch_read::<u64>(&[], 0..4);
        prefetch_read(&[(); 4], 0..4);
        assert_eq!(data, before);
    }

    #[test]
    fn a_range_spanning_many_lines_is_walked_to_its_end() {
        // 4 KiB of u64s: 64+ lines; the loop must terminate and stay in
        // bounds whatever the allocation's alignment.
        let data = vec![7u64; 512];
        prefetch_read(&data, 0..512);
        prefetch_read(&data, 3..509);
        assert!(data.iter().all(|&x| x == 7));
    }
}
