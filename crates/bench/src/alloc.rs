//! Allocation-counting global allocator backing the zero-allocation proof
//! of the plan/execute split (`tests/zero_alloc.rs`).
//!
//! Compiled only under the `alloc-count` feature so the normal bench
//! binaries keep the stock system allocator. The counter is a single
//! relaxed atomic incremented on every `alloc`/`alloc_zeroed`/`realloc`
//! from *any* thread — pool workers included — so "zero since reset"
//! really means the steady-state execute path touched the heap nowhere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`GlobalAlloc`] that forwards to [`System`] while counting every
/// heap acquisition (frees are deliberately not counted: a `dealloc`
/// without a matching `alloc` after a reset only shrinks the footprint).
#[derive(Debug)]
pub struct CountingAllocator {
    allocations: AtomicU64,
}

impl CountingAllocator {
    /// `const` so the counter can be a `#[global_allocator]` static.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            allocations: AtomicU64::new(0),
        }
    }

    /// Zero the counter (start of a measured window).
    pub fn reset(&self) {
        self.allocations.store(0, Ordering::SeqCst);
    }

    /// Allocations observed since the last [`CountingAllocator::reset`].
    #[must_use]
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::SeqCst)
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method forwards the exact layout/pointer arguments to the
// system allocator, which upholds the GlobalAlloc contract; the only added
// behaviour is a relaxed atomic increment, which cannot allocate or panic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator; contract forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
