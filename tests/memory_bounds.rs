//! Memory regression bounds: the shape prelude, the evaluation cache, the
//! DAG phase, the latency and period ordering searches, and the flat
//! execution graph (the plans a serving tier holds are bounded in
//! `serving_memory_bound.rs`, alone in its binary, since its window is
//! process-wide).
//!
//! The binary installs the std-only counting global allocator of
//! `common/mod.rs`.  Every test holds one lock for its whole body, so no
//! other test's allocations fall inside a measurement window.  Byte windows
//! record live or peak heap bytes above their starting point; allocation
//! counts are kept per thread, so they see only the calling thread's own
//! allocations.
//!
//! A cold plan's bound is `size_of::<ShapePlan>() × A000081(n + 1)` — a
//! stored shape is its 16-byte record and nothing else, and no colour is
//! counted — plus a stated allowance for the scratch of the stream and the
//! bounder.  A cut plan's bound counts its survivors once: a shape pruned
//! by the cutoff costs nothing, and the survivors are counted before their
//! one allocation is made, so the plan never grows.  This allocator counts
//! the old and the new block together during a reallocation, so a plan
//! that grew by doubling would exceed the bound.  The colour counter's memo
//! is priced only where it still runs, in the explicit count pass.
//!
//! A streamed solve stores no record for a shape whose bound ties its
//! constructive value: those shapes are re-streamed, so a solve whose
//! every shape ties it holds no plan at all, and its colouring walk reuses
//! one scratch, so a shape's walk allocates nothing.

mod common;

use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard};

use fsw::core::{
    bound_ordered_shape_plan, classed_class_count, forest_classes, Application, CommModel,
    ExecutionGraph, PlanMetrics, ShapeBounder, ShapeObjective, ShapePlan, ShapeScan, WeightClasses,
};
use fsw::sched::engine::EvalCache;
use fsw::sched::latency::{oneport_latency_search_bounded, LatencyEvaluator};
use fsw::sched::oneport::{oneport_period_search_bounded, OnePortStyle, PeriodEvaluator};
use fsw::sched::orchestrator::{solve, solve_warm_observed, Objective, Problem, SearchBudget};
use fsw::sched::{CommOrderings, Exec};

use common::{allocated_bytes, allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Serialises the tests of this binary: each holds the guard for its whole
/// body, so measurement windows never overlap another test's allocations.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|poison| poison.into_inner())
}

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

/// Bound of a cut plan keeping `survivors` shapes: one record each.
fn cut_plan_bound(survivors: usize) -> usize {
    std::mem::size_of::<ShapePlan>() * survivors + SCRATCH_ALLOWANCE
}

#[test]
fn shape_prelude_peak_heap_stays_within_its_bounds() {
    let _serial = serial();
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
    // A scan cut at the cold plan's first-quartile bound (3.7).
    let cutoff = uniform_plan[uniform_plan.len() / 4].bound;
    let (cut_peak, cut_plan) = plan_peak(&uniform, cutoff);
    let survivors = cut_plan.len();
    assert!(cut_plan.iter().all(|s| s.bound <= cutoff));
    println!(
        "cutoff {cutoff} keeps {survivors} of {} shapes",
        forest_classes(14)
    );
    let cases = [
        (
            "7+6 shape plan",
            tiered_peak,
            plan_bound(13, SCRATCH_ALLOWANCE),
        ),
        (
            "uniform n=14 shape plan",
            uniform_peak,
            plan_bound(14, SCRATCH_ALLOWANCE),
        ),
        (
            "uniform n=14 cut shape plan",
            cut_peak,
            cut_plan_bound(survivors),
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

/// A six-service forest: 0 → {1, 2}, 1 → {3, 4}, 2 → 5.
const FOREST6: [Option<usize>; 6] = [None, Some(0), Some(0), Some(1), Some(1), Some(2)];

#[test]
fn execution_graphs_are_one_allocation() {
    let _serial = serial();
    let (built, graph) = allocations(|| ExecutionGraph::from_parents(&FOREST6).unwrap());
    let (cloned, copy) = allocations(|| graph.clone());
    let (relabelled, moved) = allocations(|| graph.relabelled(&[5, 4, 3, 2, 1, 0]).unwrap());
    assert_eq!(copy, graph);
    assert_eq!(moved.edge_count(), 5);
    assert_eq!(
        (built, cloned, relabelled),
        (1, 1, 1),
        "from_parents, clone and relabel of a 6-node forest"
    );
    // The one block is `2n + 2 + 2m` `u32` words.
    let (bytes, _) = allocated_bytes(|| graph.clone());
    assert_eq!(bytes, 4 * (2 * 6 + 2 + 2 * 5), "clone of a 6-node forest");
}

/// A fresh evaluation cache copies its application and builds nothing
/// else: the weight classes and the relabelling list (5 040 permutations
/// of a uniform 7-service application, 5 059 allocations) wait for a
/// lookup that needs them.  An OVERLAP MINPERIOD solve never looks one up.
#[test]
fn evaluation_caches_build_their_internals_on_first_use() {
    let _serial = serial();
    let uniform = Application::independent(&[(2.0, 0.7); 7]);
    let (built, cache) = allocations(|| EvalCache::new(&uniform));
    assert!(built <= 4, "EvalCache::new made {built} allocations");
    drop(cache);
    let problem = Problem::new(&uniform, CommModel::Overlap, Objective::MinPeriod);
    let budget = SearchBudget {
        threads: 1,
        ..SearchBudget::default()
    };
    let (solved, solution) = allocations(|| solve(&problem, &budget).unwrap());
    assert!(solution.exhaustive);
    println!("EvalCache::new: {built} allocations, OVERLAP MINPERIOD solve: {solved}");
    assert!(
        solved <= SOLVE_ALLOCATIONS,
        "an OVERLAP MINPERIOD solve of a uniform 7-service application made {solved} allocations"
    );
}

/// Allocations allowed to an OVERLAP MINPERIOD solve of a uniform
/// 7-service application: its prelude, one walker and the winning plan,
/// far under the 5 059 the relabelling list alone cost while the cache
/// built it up front.
const SOLVE_ALLOCATIONS: usize = 500;

/// Peak bytes allowed to a MINLATENCY solve of a 5-service instance with
/// the DAG phase on: the forest phase, the ordering searches' cache and one
/// candidate at a time, with no record of the DAGs already visited.
const DAG_PHASE_PEAK: usize = 16 << 10;

/// Allocations allowed to that solve: the forest phase and the few DAGs
/// whose critical path the walk's latency floor does not clear (a walk
/// that valued every one of the 29 281 DAGs made 890 138).
const DAG_PHASE_ALLOCATIONS: usize = 10_000;

#[test]
fn the_dag_phase_keeps_no_set_of_visited_dags() {
    let _serial = serial();
    let app =
        Application::independent(&[(1.0, 0.5), (2.0, 0.9), (0.5, 0.7), (3.0, 0.6), (1.5, 1.2)]);
    let budget = SearchBudget {
        threads: 1,
        ..SearchBudget::default()
    };
    assert!(
        app.n() <= budget.dag_enumeration_max_n,
        "the DAG phase runs"
    );
    let problem = Problem::new(&app, CommModel::Overlap, Objective::MinLatency);
    let (peak, (made, solution)) = peak_bytes(|| allocations(|| solve(&problem, &budget).unwrap()));
    assert!(solution.exhaustive);
    println!("MINLATENCY n=5 with the DAG phase: peak {peak} bytes, {made} allocations");
    assert!(
        peak < DAG_PHASE_PEAK,
        "peak {peak} bytes, at or over {DAG_PHASE_PEAK}"
    );
    assert!(
        made <= DAG_PHASE_ALLOCATIONS,
        "{made} allocations, over {DAG_PHASE_ALLOCATIONS}"
    );
}

/// Allocations allowed to one serial exhaustive latency ordering search
/// over a five-service DAG: its ordering space's natural ordering, one
/// decoded ordering stepped through the space, one set of pass buffers and
/// the winner's ordering and schedule, however many orderings it values
/// (searches that built each ordering and its pass buffers afresh made
/// 19 736, 80 795 and 331 934 allocations over the three spaces below, and
/// 149–153 while the space materialised every server's permutations).
const ORDERING_SEARCH_ALLOCATIONS: usize = 96;

/// Allocations allowed to one serial exhaustive period ordering search over
/// the same spaces, in either one-port style: the ordering space and one
/// decoded ordering, one event graph with its analysis buffers, and the
/// winner, however many orderings it values or finds dead-locked (searches
/// that built an event graph per ordering, and fresh Bellman–Ford buffers
/// per bisection step, made 85 140 to 948 904).
const PERIOD_SEARCH_ALLOCATIONS: usize = 128;

/// The five services whose ordering spaces the two searches value.
fn five_services() -> Application {
    Application::independent(&[(1.0, 0.5), (2.0, 0.9), (0.5, 0.7), (3.0, 0.6), (1.5, 1.2)])
}

/// A fork into four services joined again (4! · 4! orderings), then with
/// extra edges multiplying the space by 4 and by 16, with its size.
fn fork_join_spaces() -> Vec<(ExecutionGraph, usize)> {
    let fork_join = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)];
    let graphs = [
        fork_join.to_vec(),
        [&fork_join[..], &[(1, 2)]].concat(),
        [&fork_join[..], &[(1, 2), (2, 3)]].concat(),
    ];
    graphs
        .iter()
        .map(|edges| {
            let graph = ExecutionGraph::from_edges(5, edges).unwrap();
            let orderings = CommOrderings::search_space_size(&graph).unwrap();
            assert!(orderings >= 500, "{orderings} orderings");
            (graph, orderings)
        })
        .collect()
}

#[test]
fn the_dag_phase_values_each_ordering_without_allocating() {
    let _serial = serial();
    let app = five_services();
    for (graph, orderings) in fork_join_spaces() {
        let evaluator = LatencyEvaluator::new(&app, &graph).unwrap();
        let (made, result) = allocations(|| {
            oneport_latency_search_bounded(&evaluator, orderings, Exec::serial(), f64::INFINITY)
                .unwrap()
                .unwrap()
        });
        assert!(result.exhaustive);
        println!("latency ordering search over {orderings} orderings: {made} allocations");
        assert!(
            made <= ORDERING_SEARCH_ALLOCATIONS,
            "{made} allocations over {orderings} orderings"
        );
    }
}

#[test]
fn the_period_search_values_each_ordering_without_allocating() {
    let _serial = serial();
    let app = five_services();
    for (graph, orderings) in fork_join_spaces() {
        let metrics = PlanMetrics::compute(&app, &graph).unwrap();
        for style in [OnePortStyle::InOrder, OnePortStyle::OverlapPorts] {
            let evaluator = PeriodEvaluator::new(&app, &graph, &metrics, style).unwrap();
            let (made, result) = allocations(|| {
                oneport_period_search_bounded(&evaluator, orderings, Exec::serial()).unwrap()
            });
            assert!(result.exhaustive);
            println!("{style:?} period search over {orderings} orderings: {made} allocations");
            assert!(
                made <= PERIOD_SEARCH_ALLOCATIONS,
                "{style:?}: {made} allocations over {orderings} orderings"
            );
        }
    }
}

/// Peak bytes allowed to a serial solve whose every shape ties its
/// constructive value: the walker, its colouring scratch, one claim of
/// plateau shapes and the winning plan, with no shape record (the plan of
/// all 32 973 shapes was 0.50 MiB).
const PLATEAU_SOLVE_PEAK: usize = 64 << 10;

#[test]
fn a_solve_on_its_plateau_stores_no_shape() {
    let _serial = serial();
    // Cost 0.5 and selectivity 0.05: no node's computation or emissions
    // outweigh the unit input of an entry node, so every shape's floor is
    // 1, the optimum and the independent plan's value.
    let app = Application::independent(&[(0.5, 0.05); 13]);
    let problem = Problem::new(&app, CommModel::Overlap, Objective::MinPeriod);
    let budget = SearchBudget {
        threads: 1,
        ..SearchBudget::default()
    };
    let cache = EvalCache::new(&app);
    let (peak, solved) =
        peak_bytes(|| solve_warm_observed(&problem, &budget, &cache, None, None).unwrap());
    let (solution, stats) = solved;
    let stream = stats.stream.expect("a streamed solve");
    assert!(solution.exhaustive);
    assert_eq!(solution.value, 1.0);
    assert_eq!(stream.shapes as u128, forest_classes(13));
    println!(
        "uniform n=13 OVERLAP on its plateau: peak {peak} bytes, {} stored shapes",
        stream.stored_shapes
    );
    assert_eq!(
        stream.stored_shapes, 0,
        "the plateau is streamed, not stored"
    );
    assert!(
        peak < PLATEAU_SOLVE_PEAK,
        "peak {peak} bytes, at or over {PLATEAU_SOLVE_PEAK}"
    );
}

/// Allocations allowed to a serial OVERLAP solve of a 7 + 6 classed
/// application: the prelude, one walker with its colouring scratch and
/// the plans it evaluates, but nothing per shape walked (a walk that
/// allocated its buffers per shape made about ten allocations for each of
/// its 32 973 shapes).
const CLASSED_SOLVE_ALLOCATIONS: usize = 2_000;

#[test]
fn a_classed_walk_allocates_nothing_per_shape() {
    let _serial = serial();
    let mut specs = vec![(0.3, 0.1); 7];
    specs.extend([(10.0, 0.8); 6]);
    let app = Application::independent(&specs);
    let problem = Problem::new(&app, CommModel::Overlap, Objective::MinPeriod);
    let budget = SearchBudget {
        threads: 1,
        ..SearchBudget::default()
    };
    let cache = EvalCache::new(&app);
    let (made, solved) =
        allocations(|| solve_warm_observed(&problem, &budget, &cache, None, None).unwrap());
    let (solution, stats) = solved;
    let stream = stats.stream.expect("a streamed solve");
    assert!(solution.exhaustive);
    println!(
        "7+6 OVERLAP: {made} allocations, {} shapes, {} certified",
        stream.shapes, stream.certified_shapes
    );
    assert!(
        made <= CLASSED_SOLVE_ALLOCATIONS,
        "a 7 + 6 OVERLAP solve made {made} allocations"
    );
}
