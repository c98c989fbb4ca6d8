//! Allocation counting for the bench binaries: [`CountingAlloc`].
//!
//! Counts are deterministic where timings are not, so the binaries that
//! install this allocator commit allocation counts as rows that `ci.sh`
//! gates within 1%. The library itself never installs it: a binary opts in
//! with
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: tenways_bench::CountingAlloc = tenways_bench::CountingAlloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator, counting every allocation and reallocation.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountingAlloc;

/// Allocations (and reallocations) since the process started, on every
/// thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Allocations and reallocations made so far by every thread of this
/// process; stays 0 unless [`CountingAlloc`] is the global allocator.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
