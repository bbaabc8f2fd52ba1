//! Heap-allocation counting for the traced binary, which installs
//! [`CountingAlloc`] as its global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation.
#[derive(Debug, Default)]
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the allocator's contract is `System`'s. The counter is a relaxed
// atomic that publishes no other data and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations and reallocations since the process started.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
