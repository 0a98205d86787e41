//! Memory regression bounds for the count-only shape prelude.
//!
//! The binary installs a std-only counting global allocator and holds a
//! single test, so no other test's allocations fall inside a measurement
//! window.  Each window records the peak live heap bytes above its starting
//! point while one prelude call runs; the result stays alive until the
//! window closes, so the peak includes what the call returns.
//!
//! A cold plan's bound is `size_of::<ShapePlan>() × A000081(n + 1)` — a
//! stored shape is its 24-byte record and nothing else — plus a stated
//! allowance covering the colour counter's memo on the tiered partition
//! (the uniform one never builds it) and the per-shape scratch of the
//! stream and the bounder.  A warm plan's bound counts its survivors only:
//! a shape pruned by the cutoff costs nothing.

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

/// Peak live heap bytes above the starting point while `f` runs, with its
/// result (alive until the peak is read, so the peak includes it).
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = ALLOC.live.load(Ordering::Relaxed);
    ALLOC.peak.store(base, Ordering::Relaxed);
    let kept = f();
    let peak = ALLOC.peak.load(Ordering::Relaxed);
    (peak - base, kept)
}

/// Allowance for the per-shape scratch of the stream and the bounder.
const SCRATCH_ALLOWANCE: usize = 64 << 10;

/// Allowance for the colour counter's memo on the 7 + 6 partition at
/// `n = 13`: at most 7 813 subtrees of fewer than 13 nodes, each a key of at
/// most 12 bytes, a degree slice of at most 7 `u128`s and a hash-table
/// slot, plus a few dozen multiset runs (about 1.1 MiB measured).
const COUNTER_ALLOWANCE: usize = 3 << 19;

/// Peak bytes of `app`'s INORDER period shape plan under `cutoff`, and the
/// shapes it kept.
fn plan_peak(app: &Application, cutoff: f64) -> (usize, Vec<ShapePlan>) {
    let classes = WeightClasses::of(app);
    let bounder = ShapeBounder::new(app, ShapeObjective::Period(CommModel::InOrder));
    let (peak, scan) =
        peak_bytes(|| bound_ordered_shape_plan(&classes, Some(&bounder), cutoff, None));
    let ShapeScan::Planned { shapes, .. } = scan else {
        panic!("no deadline was set");
    };
    (peak, shapes)
}

/// Bound of a cold plan: one record per shape of the space.
fn plan_bound(n: usize, allowance: usize) -> usize {
    std::mem::size_of::<ShapePlan>() * forest_classes(n) as usize + allowance
}

/// Bound of a warm plan keeping `survivors` shapes: its records grow by
/// doubling, and old and new blocks coexist while one grows.
fn warm_plan_bound(survivors: usize) -> usize {
    3 * std::mem::size_of::<ShapePlan>() * survivors + SCRATCH_ALLOWANCE
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
    let (tiered_peak, tiered_plan) = plan_peak(&tiered, f64::INFINITY);
    assert_eq!(tiered_plan.len() as u128, forest_classes(13));
    let (uniform_peak, uniform_plan) = plan_peak(&uniform, f64::INFINITY);
    assert_eq!(uniform_plan.len() as u128, forest_classes(14));
    // Warm scan at the cold plan's first-quartile bound (3.7).
    let cutoff = uniform_plan[uniform_plan.len() / 4].bound;
    let (warm_peak, warm_plan) = plan_peak(&uniform, cutoff);
    let survivors = warm_plan.len();
    assert!(warm_plan.iter().all(|s| s.bound <= cutoff));
    println!(
        "warm cutoff {cutoff} keeps {survivors} of {} shapes",
        forest_classes(14)
    );
    let cases = [
        (
            "7+6 shape plan",
            tiered_peak,
            plan_bound(13, SCRATCH_ALLOWANCE + COUNTER_ALLOWANCE),
        ),
        (
            "uniform n=14 shape plan",
            uniform_peak,
            plan_bound(14, SCRATCH_ALLOWANCE),
        ),
        (
            "uniform n=14 warm shape plan",
            warm_peak,
            warm_plan_bound(survivors),
        ),
        (
            "7+6 colour count",
            peak_bytes(|| classed_class_count(&tiered_classes, u128::MAX)).0,
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
