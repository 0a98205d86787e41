//! A std-only counting global allocator for the memory test binaries.  Each
//! binary installs its own instance:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc::new();
//! ```
//!
//! It tallies live and peak heap bytes across the process, and counts each
//! thread's own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// `System` plus live and peak byte tallies.
pub struct CountingAlloc {
    pub live: AtomicUsize,
    pub peak: AtomicUsize,
}

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
        // A thread being torn down has no counter left; skip it.
        let _ = THREAD_ALLOCS.try_with(|count| count.set(count.get() + 1));
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards the caller's layout and pointer unchanged to
// `System`; the counters never touch the allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller guarantees a non-zero size.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator returned.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `realloc` are forwarded as is.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            // Old and new blocks coexist until the copy is done.
            self.grow(new_size);
            self.shrink(layout.size());
        }
        moved
    }
}

/// Allocations the calling thread makes while `f` runs, with its result.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let kept = f();
    (THREAD_ALLOCS.with(Cell::get) - before, kept)
}
