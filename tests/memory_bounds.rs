//! Memory regression bounds for the count-only shape prelude.
//!
//! The binary installs a std-only counting global allocator and holds a
//! single test, so no other test's allocations fall inside a measurement
//! window.  Each window records the peak live heap bytes above its starting
//! point while one prelude call runs; the result stays alive until the
//! window closes, so the peak includes what the call returns.
//!
//! Every bound is `bytes per stored shape × A000081(n + 1)` plus a stated
//! allowance: a stored shape is one `ShapePlan` record plus its `n`-byte
//! level code in the plan's arena, and the allowance covers the colour
//! counter's memo on the tiered partition (the uniform one never builds
//! it) and the per-shape scratch of the stream and the bounder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fsw::core::{
    bound_ordered_shape_plan, classed_class_count, forest_classes, Application, CommModel,
    ShapeBounder, ShapeObjective, ShapePlan, ShapeScan, WeightClasses,
};

/// `System` plus live and peak byte tallies.
struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
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

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

/// Peak live heap bytes above the starting point while `f` runs and its
/// result is alive.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> usize {
    let base = ALLOC.live.load(Ordering::Relaxed);
    ALLOC.peak.store(base, Ordering::Relaxed);
    let kept = f();
    let peak = ALLOC.peak.load(Ordering::Relaxed);
    drop(kept);
    peak - base
}

/// Allowance for the per-shape scratch of the stream and the bounder.
const SCRATCH_ALLOWANCE: usize = 64 << 10;

/// Allowance for the colour counter's memo on the 7 + 6 partition at
/// `n = 13`: at most 7 813 subtrees of fewer than 13 nodes, each a key of at
/// most 12 bytes, a degree slice of at most 7 `u128`s and a hash-table
/// slot, plus a few dozen multiset runs (about 1.1 MiB measured).
const COUNTER_ALLOWANCE: usize = 3 << 19;

fn plan_peak(app: &Application) -> usize {
    let classes = WeightClasses::of(app);
    let bounder = ShapeBounder::new(app, ShapeObjective::Period(CommModel::InOrder));
    peak_bytes(|| {
        let scan = bound_ordered_shape_plan(&classes, Some(&bounder), f64::INFINITY, None);
        let ShapeScan::Planned { shapes, .. } = &scan else {
            panic!("no deadline was set");
        };
        assert_eq!(shapes.len() as u128, forest_classes(app.n()));
        scan
    })
}

fn plan_bound(n: usize, allowance: usize) -> usize {
    (std::mem::size_of::<ShapePlan>() + n) * forest_classes(n) as usize + allowance
}

#[test]
fn shape_prelude_peak_heap_stays_within_its_bounds() {
    let tiered = {
        let mut specs = vec![(1.5, 0.6); 7];
        specs.extend([(3.0, 0.9); 6]);
        Application::independent(&specs)
    };
    let uniform = Application::independent(&[(2.0, 0.7); 14]);
    let tiered_classes = WeightClasses::of(&tiered);
    let cases = [
        (
            "7+6 shape plan",
            plan_peak(&tiered),
            plan_bound(13, SCRATCH_ALLOWANCE + COUNTER_ALLOWANCE),
        ),
        (
            "uniform n=14 shape plan",
            plan_peak(&uniform),
            plan_bound(14, SCRATCH_ALLOWANCE),
        ),
        (
            "7+6 colour count",
            peak_bytes(|| classed_class_count(&tiered_classes, u128::MAX)),
            SCRATCH_ALLOWANCE + COUNTER_ALLOWANCE,
        ),
    ];
    let mib = |bytes: usize| bytes as f64 / f64::from(1 << 20);
    let report: Vec<String> = cases
        .iter()
        .map(|(name, peak, bound)| {
            format!(
                "{name}: {:.2} MiB (bound {:.2} MiB)",
                mib(*peak),
                mib(*bound)
            )
        })
        .collect();
    println!("peak heap: {}", report.join(", "));
    for (name, peak, bound) in cases {
        assert!(
            peak <= bound,
            "{name} exceeds its bound: {}",
            report.join(", ")
        );
    }
}
