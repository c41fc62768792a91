//! Counting global allocator of the benchmark binary.
//!
//! `core.allocs_per_op` is an exact count, not a sample: every heap
//! acquisition from any thread (pool workers included) between two reads
//! of [`allocations`] is counted, so "0 per op" means the steady-state
//! solver call touched the heap nowhere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`] and counts `alloc`, `alloc_zeroed` and `realloc`
/// calls (frees are not acquisitions).
pub struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap acquisitions by this process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::SeqCst)
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the only addition is
// a relaxed atomic increment, which neither allocates nor panics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds the `GlobalAlloc` contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds the `GlobalAlloc` contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, that is by `System`,
        // for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `System` for `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests allocate concurrently, so only lower bounds are exact
    // here; the zero-allocation claim itself is checked in the traced run,
    // where nothing else runs.
    #[test]
    fn counts_every_acquisition_kind() {
        let before = allocations();
        let mut v: Vec<u64> = Vec::with_capacity(4);
        v.extend([1, 2, 3, 4]);
        v.reserve(1024);
        let zeroed = vec![0u8; 4096];
        std::hint::black_box((&v, &zeroed));
        assert!(allocations() - before >= 3);
    }
}
