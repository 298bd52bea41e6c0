//! A counting global allocator: live heap bytes and their peak.
//!
//! Peak live heap repeats almost exactly between runs of the same code;
//! resident set size does not (it depends on what the allocator and the
//! kernel have returned to each other), so the benchmark's memory metric
//! is counted here, in the benchmark binary, around the program's calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Forwards to the system allocator and counts.
pub struct Counting;

fn grew(by: usize) {
    // Relaxed: the counters publish no other data.
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is passed through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `realloc` is passed through.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        new
    }
}

/// Bytes allocated and not yet freed.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Highest [`live_bytes`] since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Starts a new peak measurement from the current live size.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_a_large_allocation_and_resets() {
        const BIG: usize = 64 << 20;
        reset_peak();
        let block = vec![1u8; BIG];
        std::hint::black_box(&block);
        // The block alone is live at this point, whatever other test
        // threads hold.
        assert!(live_bytes() >= BIG);
        assert!(peak_bytes() >= BIG);
        drop(block);
        reset_peak();
        assert!(peak_bytes() < BIG, "peak {} after reset", peak_bytes());
    }
}
