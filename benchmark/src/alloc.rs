//! Counting global allocator for the traced run.
//!
//! Counting is off unless [`set_counting`] turned it on, so the untraced
//! run that yields the end-to-end metrics pays one relaxed load per
//! allocation and no shared-cache-line writes (two worker threads adding
//! to the same counters would otherwise slow the sharded workloads).
//! Byte counts are request sizes, so on a serial workload they are a pure
//! function of the program's allocation sequence and repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

/// Delegates every request to [`System`], counting it when enabled.
pub struct CountingAlloc;

fn count(bytes: usize) {
    // Relaxed: the three statics are statistics and publish no other data.
    if COUNTING.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller already upholds; the counters
// touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller passed under `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this type with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc copies the whole block, so the full new size counts.
        count(new_size);
        // SAFETY: `ptr`/`layout` came from `System` through this type; `new_size`
        // is the caller's, under `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off (the traced run turns it on once, at start).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(bytes requested, allocation calls)` counted so far.
pub fn snapshot() -> (u64, u64) {
    (BYTES.load(Ordering::Relaxed), CALLS.load(Ordering::Relaxed))
}
