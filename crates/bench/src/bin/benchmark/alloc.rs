//! A counting global allocator: `System` plus atomic tallies of live
//! bytes, peak live bytes and allocation calls, so the benchmark can report
//! the heap a workload's timed phase needs without any outside crate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// `System` with live/peak/call counters (all `Relaxed`: they are
/// statistics and publish no other data).
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
    calls: AtomicU64,
}

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            calls: AtomicU64::new(0),
        }
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Starts a measurement window: the peak restarts from the current
    /// live bytes.  Returns the window's baseline.
    pub fn reset(&self) -> HeapMark {
        let live = self.live.load(Ordering::Relaxed);
        self.peak.store(live, Ordering::Relaxed);
        HeapMark {
            live,
            calls: self.calls.load(Ordering::Relaxed),
        }
    }

    /// Peak live bytes above the mark's baseline, and allocation calls
    /// since the mark.
    pub fn since(&self, mark: HeapMark) -> (usize, u64) {
        (
            self.peak.load(Ordering::Relaxed).saturating_sub(mark.live),
            self.calls.load(Ordering::Relaxed) - mark.calls,
        )
    }
}

/// The baseline of one measurement window ([`CountingAlloc::reset`]).
#[derive(Clone, Copy, Debug)]
pub struct HeapMark {
    live: usize,
    calls: u64,
}

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counters are
// plain atomics and never touch the allocated memory.
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
        // SAFETY: the caller passes a block this allocator (hence `System`)
        // returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `realloc` are forwarded as is.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            self.shrink(layout.size());
            self.grow(new_size);
        }
        moved
    }
}
