//! Property tests for the **partial-symmetry** (class-preserving) reduction
//! and the best-first search driver (seeded random instances):
//!
//! * on **multi-weight-class** instances the class-reduced searches must
//!   return the same optimum *value* as the brute force;
//! * whenever the bit-safety gate declines (all classes singleton,
//!   precedence constraints), `Symmetry::Classes` must fall back to the full
//!   enumeration **bit-for-bit** (identical value *and* witness);
//! * best-first and depth-first strategies must produce bit-identical
//!   solutions on every space (labelled, uniform-canonical,
//!   classed-canonical), serial and parallel, including the frontier's
//!   spill-to-DFS path, whose hard memory cap is asserted;
//! * the classed orbit accounting must tile the labelled space exactly;
//! * the OUTORDER canonical-form memoisation must equal a brute force that
//!   evaluates every candidate's canonical member;
//! * the **lazy bound-ordered stream** must cover exactly the materialised
//!   classed space (same representatives, same orbit weights), its frontier
//!   cap must govern the resident representative count without changing the
//!   bit-identical winner, and `time_limit` must bound the generator's
//!   count-only prelude at `n = 13`;
//! * the **uniform** space now streams through the same generator
//!   (colourings = 1 per shape): the lazy walk must cover exactly the
//!   materialised uniform representative set (A000081 count included), and
//!   its winner must be bit-identical to the retired materialise-then-scan
//!   path under frontier caps {1, 2, default}, serial and parallel, up to
//!   n = 12.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fsw::core::{Application, CommModel, ExecutionGraph, PlanMetrics, WeightClasses};
use fsw::sched::engine::frontier::{
    best_first_forest_search_stats, streamed_canonical_search, FrontierStats, DEFAULT_FRONTIER_CAP,
};
use fsw::sched::engine::{CanonicalSpace, PartialPrune, SearchStrategy, Symmetry};
use fsw::sched::minlatency::{minimize_latency, MinLatencyOptions};
use fsw::sched::minperiod::{
    exhaustive_forest_best, exhaustive_forest_search, minimize_period, MinPeriodOptions,
    PeriodEvaluation,
};
use fsw::sched::outorder::{outorder_period_search, OutOrderOptions};
use fsw::sched::tree::tree_latency;
use fsw::sched::Exec;
use fsw::workloads::{random_application, tiered_query_optimization, RandomAppConfig};
use fsw_core::{
    bound_ordered_shape_plan, canonical_classed_member, walk_canonical_colorings, ColoringVisitor,
    ShapeBounder, ShapeObjective, ShapeScan,
};

const CASES: usize = 6;

fn graph_edges(graph: &ExecutionGraph) -> Vec<(usize, usize)> {
    graph.edges().collect()
}

/// A random multi-class application: 2–3 weight classes, at least one with
/// several members, weights drawn like the tiered workloads.
fn random_multiclass_app(n: usize, rng: &mut StdRng) -> Application {
    loop {
        let first = 2 + rng.gen_range(0..(n - 2));
        let sizes: Vec<usize> = if n - first >= 4 && rng.gen_bool(0.5) {
            let second = 2 + rng.gen_range(0..(n - first - 2).max(1)).min(n - first - 2);
            vec![first, second, n - first - second]
        } else {
            vec![first, n - first]
        };
        if sizes.contains(&0) {
            continue;
        }
        let app = tiered_query_optimization(&sizes, rng);
        let classes = WeightClasses::of(&app);
        if classes.class_count() >= 2 && classes.has_symmetry() {
            return app;
        }
    }
}

/// Multi-class instances: the class-reduced forest enumeration returns the
/// brute force's optimum value, for every model's period bound and for the
/// exact forest latency, under both search strategies.
#[test]
fn class_reduced_forest_values_match_brute_force_on_multiclass_instances() {
    let mut rng = StdRng::seed_from_u64(0x5001);
    for case in 0..CASES {
        let n = 5 + case % 2; // 5..=6
        let app = random_multiclass_app(n, &mut rng);
        assert!(CanonicalSpace::class_reducible(&app));
        assert!(!CanonicalSpace::reducible(&app), "multi-class, not uniform");
        for model in CommModel::ALL {
            let eval = |g: &ExecutionGraph| {
                PlanMetrics::compute(&app, g)
                    .map(|m| m.period_lower_bound(model))
                    .unwrap_or(f64::INFINITY)
            };
            let brute = exhaustive_forest_best(&app, eval).unwrap();
            for strategy in [SearchStrategy::DepthFirst, SearchStrategy::BestFirst] {
                let reduced = exhaustive_forest_search(
                    &app,
                    2_000_000,
                    Exec::serial(),
                    PartialPrune::Period(model),
                    Symmetry::Classes,
                    strategy,
                    &|g, _| eval(g),
                )
                .unwrap();
                assert_eq!(
                    brute.0, reduced.value,
                    "case {case} {model} {strategy:?}: value"
                );
                assert!(reduced.complete);
                // The classed winner achieves the optimum itself.
                assert_eq!(eval(&reduced.graph), reduced.value, "case {case} {model}");
            }
        }
        let eval = |g: &ExecutionGraph| tree_latency(&app, g).unwrap_or(f64::INFINITY);
        let brute = exhaustive_forest_best(&app, eval).unwrap();
        let reduced = exhaustive_forest_search(
            &app,
            2_000_000,
            Exec::serial(),
            PartialPrune::Latency,
            Symmetry::Classes,
            SearchStrategy::Auto,
            &|g, _| eval(g),
        )
        .unwrap();
        assert_eq!(brute.0, reduced.value, "case {case}: latency value");
        assert_eq!(eval(&reduced.graph), reduced.value);
    }
}

/// Whenever the gate declines — all classes singleton, or precedence
/// constraints — `Symmetry::Classes` is the full enumeration bit-for-bit.
#[test]
fn classes_fall_back_to_full_bit_for_bit_when_the_gate_declines() {
    let mut rng = StdRng::seed_from_u64(0x5002);
    for case in 0..CASES {
        // (a) heterogeneous weights: every class is a singleton.
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        assert!(!CanonicalSpace::class_reducible(&app));
        let run = |app: &Application, symmetry| {
            let eval = |g: &ExecutionGraph, _c: f64| {
                PlanMetrics::compute(app, g)
                    .map(|m| m.period_lower_bound(CommModel::InOrder))
                    .unwrap_or(f64::INFINITY)
            };
            exhaustive_forest_search(
                app,
                2_000_000,
                Exec::serial(),
                PartialPrune::Period(CommModel::InOrder),
                symmetry,
                SearchStrategy::Auto,
                &eval,
            )
            .unwrap()
        };
        let full = run(&app, Symmetry::Full);
        let classes = run(&app, Symmetry::Classes);
        assert_eq!(full.value, classes.value, "case {case}: singleton value");
        assert_eq!(
            graph_edges(&full.graph),
            graph_edges(&classes.graph),
            "case {case}: singleton witness"
        );
        // (b) repeated weights but precedence constraints: the gate declines
        // regardless of the partition.
        let mut constrained = Application::independent(&[(2.0, 0.5); 4]);
        constrained.add_constraint(case % 3, 3).unwrap();
        assert!(!CanonicalSpace::class_reducible(&constrained));
        let full = run(&constrained, Symmetry::Full);
        let classes = run(&constrained, Symmetry::Classes);
        assert_eq!(full.value, classes.value, "case {case}: constrained value");
        assert_eq!(
            graph_edges(&full.graph),
            graph_edges(&classes.graph),
            "case {case}: constrained witness"
        );
    }
}

/// Best-first and depth-first walks of the **labelled** space produce
/// bit-identical solutions — value and tie-broken winner — for every thread
/// count and prune kind.
#[test]
fn best_first_equals_depth_first_on_labelled_spaces() {
    let mut rng = StdRng::seed_from_u64(0x5003);
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        for (prune, latency) in [
            (PartialPrune::Period(CommModel::Overlap), false),
            (PartialPrune::Period(CommModel::InOrder), false),
            (PartialPrune::Latency, true),
            (PartialPrune::Off, false),
        ] {
            let eval = |g: &ExecutionGraph, _c: f64| {
                if latency {
                    tree_latency(&app, g).unwrap_or(f64::INFINITY)
                } else {
                    PlanMetrics::compute(&app, g)
                        .map(|m| m.period_lower_bound(CommModel::InOrder))
                        .unwrap_or(f64::INFINITY)
                }
            };
            let dfs = exhaustive_forest_search(
                &app,
                2_000_000,
                Exec::serial(),
                prune,
                Symmetry::Full,
                SearchStrategy::DepthFirst,
                &eval,
            )
            .unwrap();
            for threads in [1, 2, 5] {
                let best_first = exhaustive_forest_search(
                    &app,
                    2_000_000,
                    Exec::threaded(threads),
                    prune,
                    Symmetry::Full,
                    SearchStrategy::BestFirst,
                    &eval,
                )
                .unwrap();
                assert_eq!(
                    dfs.value, best_first.value,
                    "case {case} {prune:?} x{threads}: value"
                );
                assert_eq!(
                    graph_edges(&dfs.graph),
                    graph_edges(&best_first.graph),
                    "case {case} {prune:?} x{threads}: winner"
                );
                assert!(best_first.complete);
            }
        }
    }
}

/// The frontier respects its hard memory cap: with a tiny cap every batch
/// spills to depth-first completion, the peak frontier size never exceeds
/// the cap, and the solution is still bit-identical to the plain walk.
#[test]
fn best_first_spill_path_respects_the_frontier_cap() {
    let mut rng = StdRng::seed_from_u64(0x5004);
    for case in 0..CASES / 2 {
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        let eval = |g: &ExecutionGraph, _c: f64| {
            PlanMetrics::compute(&app, g)
                .map(|m| m.period_lower_bound(CommModel::Overlap))
                .unwrap_or(f64::INFINITY)
        };
        let dfs = exhaustive_forest_search(
            &app,
            2_000_000,
            Exec::serial(),
            PartialPrune::Period(CommModel::Overlap),
            Symmetry::Full,
            SearchStrategy::DepthFirst,
            &eval,
        )
        .unwrap();
        for (cap, must_spill) in [(1usize, true), (2, true), (16, true), (1 << 20, false)] {
            for threads in [1, 3] {
                let (outcome, stats): (_, FrontierStats) = best_first_forest_search_stats(
                    &app,
                    Exec::threaded(threads),
                    PartialPrune::Period(CommModel::Overlap),
                    cap,
                    f64::INFINITY,
                    &eval,
                );
                let outcome = outcome.unwrap();
                assert_eq!(dfs.value, outcome.value, "case {case} cap {cap} x{threads}");
                assert_eq!(
                    graph_edges(&dfs.graph),
                    graph_edges(&outcome.graph),
                    "case {case} cap {cap} x{threads}: winner"
                );
                assert!(outcome.complete);
                assert!(
                    stats.peak <= cap.max(1),
                    "case {case} cap {cap} x{threads}: peak {} exceeds cap",
                    stats.peak
                );
                if must_spill {
                    assert!(
                        stats.spills > 0,
                        "case {case} cap {cap} x{threads}: spill path not exercised"
                    );
                }
            }
        }
    }
}

/// Best-first equals depth-first on the canonical orbit spaces too (uniform
/// and classed), for several thread counts.
#[test]
fn best_first_equals_depth_first_on_canonical_spaces() {
    let mut rng = StdRng::seed_from_u64(0x5005);
    for case in 0..CASES {
        let (app, symmetry) = if case % 2 == 0 {
            let cost = rng.gen_range(0.5..6.0);
            let sel = rng.gen_range(0.2..1.5);
            (Application::independent(&[(cost, sel); 6]), Symmetry::Auto)
        } else {
            (random_multiclass_app(6, &mut rng), Symmetry::Classes)
        };
        for model in [CommModel::Overlap, CommModel::InOrder] {
            let eval = |g: &ExecutionGraph, _c: f64| {
                PlanMetrics::compute(&app, g)
                    .map(|m| m.period_lower_bound(model))
                    .unwrap_or(f64::INFINITY)
            };
            let dfs = exhaustive_forest_search(
                &app,
                2_000_000,
                Exec::serial(),
                PartialPrune::Period(model),
                symmetry,
                SearchStrategy::DepthFirst,
                &eval,
            )
            .unwrap();
            for threads in [1, 4] {
                let best_first = exhaustive_forest_search(
                    &app,
                    2_000_000,
                    Exec::threaded(threads),
                    PartialPrune::Period(model),
                    symmetry,
                    SearchStrategy::BestFirst,
                    &eval,
                )
                .unwrap();
                assert_eq!(
                    dfs.value, best_first.value,
                    "case {case} {model} x{threads}: value"
                );
                assert_eq!(
                    graph_edges(&dfs.graph),
                    graph_edges(&best_first.graph),
                    "case {case} {model} x{threads}: winner"
                );
            }
        }
    }
}

/// Full solver stack on multi-class instances: `minimize_period` (classed
/// canonical path, default budget) equals the brute-force optimum, and
/// `minimize_latency`'s forest phase does too.
#[test]
fn multiclass_solves_match_brute_force_end_to_end() {
    let mut rng = StdRng::seed_from_u64(0x5006);
    for case in 0..CASES / 2 {
        let app = random_multiclass_app(5, &mut rng);
        for model in CommModel::ALL {
            let options = MinPeriodOptions::for_model(model);
            let result = minimize_period(&app, &options).unwrap();
            assert!(result.exhaustive, "case {case} {model}");
            let brute = exhaustive_forest_best(&app, |g| {
                PlanMetrics::compute(&app, g)
                    .map(|m| m.period_lower_bound(model))
                    .unwrap_or(f64::INFINITY)
            })
            .unwrap();
            assert_eq!(brute.0, result.period, "case {case} {model}: period");
        }
        // MINLATENCY: the forest phase is classed-reduced; the DAG phase may
        // only improve on it.
        let options = MinLatencyOptions::for_model(CommModel::InOrder);
        let result = minimize_latency(&app, &options).unwrap();
        assert!(result.exhaustive, "case {case}: latency exhaustive");
        let forest =
            exhaustive_forest_best(&app, |g| tree_latency(&app, g).unwrap_or(f64::INFINITY))
                .unwrap();
        assert!(
            result.latency <= forest.0 + 1e-12,
            "case {case}: latency {} vs forest optimum {}",
            result.latency,
            forest.0
        );
    }
}

/// The one-port ordering searches are **not** class-invariant (their
/// internal sums follow node ids over per-class terms and can drift by an
/// ulp across orbit members), so the orchestrated INORDER plan search on a
/// multi-class instance must keep the bit-identical full enumeration — no
/// cross-label cache merging, values and winner equal to the per-graph
/// brute force exactly.
#[test]
fn orchestrated_inorder_on_multiclass_keeps_the_exact_full_path() {
    let mut rng = StdRng::seed_from_u64(0x5009);
    for case in 0..CASES / 2 {
        let app = random_multiclass_app(4, &mut rng);
        let evaluation = PeriodEvaluation::Orchestrated {
            exhaustive_limit: 2_000,
        };
        let options = MinPeriodOptions {
            model: CommModel::InOrder,
            evaluation,
            ..MinPeriodOptions::default()
        };
        let result = minimize_period(&app, &options).unwrap();
        assert!(result.exhaustive, "case {case}");
        let brute = exhaustive_forest_best(&app, |g| {
            fsw::sched::minperiod::evaluate_period(&app, g, CommModel::InOrder, evaluation)
                .unwrap_or(f64::INFINITY)
        })
        .unwrap();
        assert_eq!(brute.0, result.period, "case {case}: value");
        assert_eq!(
            graph_edges(&brute.1),
            graph_edges(&result.graph),
            "case {case}: winner"
        );
    }
}

/// The OUTORDER orchestrated evaluation canonicalises candidates before
/// backtracking, so the classed-reduced plan search must equal a brute
/// force that evaluates every candidate's canonical member.
#[test]
fn outorder_canonical_memoisation_matches_canonical_brute_force() {
    let mut rng = StdRng::seed_from_u64(0x5007);
    for case in 0..CASES / 2 {
        let app = random_multiclass_app(4, &mut rng);
        let classes = WeightClasses::of(&app);
        let exhaustive_limit = 2_000;
        let options = MinPeriodOptions {
            model: CommModel::OutOrder,
            evaluation: PeriodEvaluation::Orchestrated { exhaustive_limit },
            ..MinPeriodOptions::default()
        };
        let result = minimize_period(&app, &options).unwrap();
        assert!(result.exhaustive, "case {case}");
        let opts = OutOrderOptions {
            inorder_exhaustive_limit: exhaustive_limit,
            ..OutOrderOptions::default()
        };
        let brute = exhaustive_forest_best(&app, |g| {
            let member = canonical_classed_member(&classes, g).expect("forest candidates");
            outorder_period_search(&app, &member, &opts)
                .map(|r| r.period)
                .unwrap_or(f64::INFINITY)
        })
        .unwrap();
        assert_eq!(brute.0, result.period, "case {case}: OUTORDER period");
    }
}

/// A tight `time_limit` must bound the classed path end to end — including
/// representative materialisation and the best-first bound prelude, which
/// used to run to completion before the first deadline check.
#[test]
fn time_limit_bounds_the_classed_path_materialisation() {
    let mut rng = StdRng::seed_from_u64(0x500A);
    // 6+5 classes at n = 11: ~1.12M coloured representatives, ~3 s to
    // materialise, bound and evaluate in full on the reference container.
    let app = tiered_query_optimization(&[6, 5], &mut rng);
    let budget = fsw::sched::orchestrator::SearchBudget::default()
        .with_time_limit(std::time::Duration::from_millis(20));
    let started = std::time::Instant::now();
    let solution = fsw::sched::orchestrator::solve(
        &fsw::sched::orchestrator::Problem::new(
            &app,
            CommModel::Overlap,
            fsw::sched::orchestrator::Objective::MinPeriod,
        ),
        &budget,
    )
    .unwrap();
    let elapsed = started.elapsed();
    assert!(!solution.exhaustive, "a 20 ms budget cannot be exhaustive");
    assert!(solution.value.is_finite(), "fallback still yields a plan");
    assert!(
        elapsed < std::time::Duration::from_millis(500),
        "time_limit overshoot: {elapsed:?} for a 20 ms budget"
    );
}

/// Orbit accounting at solver scale: the classed representatives of a
/// multi-class instance tile the labelled forest space exactly — the
/// auditable identity E13 prints.
#[test]
fn classed_orbit_accounting_covers_the_labelled_space() {
    let mut rng = StdRng::seed_from_u64(0x5008);
    for sizes in [vec![3usize, 4], vec![2, 2, 3], vec![5, 3]] {
        let n: usize = sizes.iter().sum();
        let app = tiered_query_optimization(&sizes, &mut rng);
        let reps = CanonicalSpace::classed_representatives(&app, 2_000_000).unwrap();
        let covered: u128 = reps.iter().map(|r| r.orbit).sum();
        assert_eq!(covered, fsw_core::labelled_forests(n), "{sizes:?}");
        // Every representative's graph is a well-formed forest over the
        // concrete services, with class-consistent weights.
        let classes = WeightClasses::of(&app);
        for rep in reps.iter().take(50) {
            let graph = rep.graph();
            assert!(graph.is_forest());
            for (pos, &service) in rep.weights().iter().enumerate() {
                // `rep.weights[pos]`'s weights are those of the class the
                // generator assigned to the position.
                let _ = pos;
                assert!(classes.class_of(service) < classes.class_count());
            }
        }
    }
}

/// Accept-everything [`ColoringVisitor`] that pins each position to a
/// concrete service of its class exactly like the streamed walker does
/// (ascending ids — `WeightClasses::service_assignment` replayed
/// incrementally) and records every completed representative with its orbit
/// weight.
struct CollectAll<'a> {
    classes: &'a WeightClasses,
    pool: Vec<Vec<usize>>,
    used: Vec<usize>,
    parents: Vec<Option<usize>>,
    weights: Vec<usize>,
    reps: Vec<(Vec<Option<usize>>, Vec<usize>, u128)>,
}

impl<'a> CollectAll<'a> {
    fn new(classes: &'a WeightClasses) -> Self {
        let mut pool: Vec<Vec<usize>> = vec![Vec::new(); classes.class_count()];
        for k in 0..classes.n() {
            pool[classes.class_of(k)].push(k);
        }
        CollectAll {
            classes,
            used: vec![0; pool.len()],
            pool,
            parents: Vec::new(),
            weights: Vec::new(),
            reps: Vec::new(),
        }
    }
}

impl ColoringVisitor for CollectAll<'_> {
    fn descend(&mut self, _pos: usize, parent: Option<usize>, class: usize) -> bool {
        let service = self.pool[class][self.used[class]];
        self.used[class] += 1;
        self.parents.push(parent);
        self.weights.push(service);
        true
    }
    fn ascend(&mut self, _pos: usize, class: usize) {
        self.used[class] -= 1;
        self.parents.pop();
        self.weights.pop();
    }
    fn complete(&mut self, _colors: &[usize], aut: u128) -> bool {
        self.reps.push((
            self.parents.clone(),
            self.weights.clone(),
            self.classes.group_order() / aut,
        ));
        true
    }
}

/// The lazy bound-ordered stream covers **exactly** the materialised classed
/// space: walking the canonical colourings of every planned shape yields the
/// same representative set with the same orbit weights as
/// `classed_representatives`, and the plan's orbit total equals both counts.
/// (The bound-sorted shape order differs from canonical order, so the lists
/// are compared as sorted multisets.)
#[test]
fn lazy_stream_covers_the_materialised_classed_space() {
    let mut rng = StdRng::seed_from_u64(0x500B);
    for case in 0..CASES / 2 {
        let app = random_multiclass_app(6 + case % 2, &mut rng);
        let classes = WeightClasses::of(&app);
        let bounder = ShapeBounder::new(&app, ShapeObjective::Period(CommModel::Overlap));
        let ShapeScan::Planned { shapes, orbits, .. } =
            bound_ordered_shape_plan(&classes, Some(&bounder), f64::INFINITY, None)
        else {
            panic!("case {case}: no deadline, the scan must complete");
        };
        // The plan is genuinely bound-sorted (the stream's expansion order).
        for pair in shapes.windows(2) {
            assert!(pair[0].bound <= pair[1].bound, "case {case}: bound order");
        }
        let mut collector = CollectAll::new(&classes);
        let mut planned_orbits = 0u128;
        let mut levels = Vec::new();
        for shape in &shapes {
            planned_orbits += u128::from(shape.colorings);
            shape.decode_into(&mut levels);
            assert!(walk_canonical_colorings(&levels, &classes, &mut collector));
        }
        let mut streamed = collector.reps;
        let reps = CanonicalSpace::classed_representatives(&app, 2_000_000).unwrap();
        assert_eq!(orbits, Some(planned_orbits), "case {case}: plan totals");
        assert_eq!(streamed.len(), reps.len(), "case {case}: orbit count");
        let mut materialised: Vec<(Vec<Option<usize>>, Vec<usize>, u128)> = reps
            .iter()
            .map(|r| {
                let (parents, weights) = r.decode();
                (parents, weights, r.orbit)
            })
            .collect();
        streamed.sort();
        materialised.sort();
        assert_eq!(streamed, materialised, "case {case}: representative sets");
    }
}

/// The frontier cap governs the streamed walk's resident representative
/// count without changing the answer: a tiny cap and the default cap return
/// bit-identical winners, both equal to the depth-first scan of the
/// materialised stream, and the tiny-cap run's peak stays under its cap.
#[test]
fn streamed_cap_governs_peak_resident_and_keeps_the_winner_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x500C);
    let app = tiered_query_optimization(&[5, 4], &mut rng);
    let classes = WeightClasses::of(&app);
    let model = CommModel::Overlap;
    let eval = |g: &ExecutionGraph, _c: f64| {
        PlanMetrics::compute(&app, g)
            .map(|m| m.period_lower_bound(model))
            .unwrap_or(f64::INFINITY)
    };
    let dfs = exhaustive_forest_search(
        &app,
        10_000_000,
        Exec::serial(),
        PartialPrune::Period(model),
        Symmetry::Classes,
        SearchStrategy::DepthFirst,
        &eval,
    )
    .unwrap();
    for (cap, threads) in [(2usize, 4usize), (DEFAULT_FRONTIER_CAP, 4), (1, 1)] {
        let (outcome, stats) = streamed_canonical_search(
            &app,
            &classes,
            Exec::threaded(threads),
            PartialPrune::Period(model),
            cap,
            f64::INFINITY,
            &eval,
        );
        let outcome = outcome.unwrap();
        assert!(outcome.complete, "cap {cap} x{threads}");
        assert_eq!(dfs.value, outcome.value, "cap {cap} x{threads}: value");
        assert_eq!(
            graph_edges(&dfs.graph),
            graph_edges(&outcome.graph),
            "cap {cap} x{threads}: winner"
        );
        assert!(
            stats.peak_resident <= cap,
            "cap {cap} x{threads}: peak {} residents",
            stats.peak_resident
        );
        assert_eq!(
            stats.shapes as u128,
            CanonicalSpace::forest_class_count(9),
            "cap {cap} x{threads}: plan covers every shape"
        );
        assert_eq!(
            stats.orbits,
            fsw_core::classed_class_count(&classes, u128::MAX),
            "cap {cap} x{threads}: plan counts every coloured orbit"
        );
        assert!(
            stats.expanded <= stats.orbits.unwrap() as u64,
            "cap {cap} x{threads}: pruning never expands beyond the space"
        );
    }
}

/// The lazy stream covers **exactly** the materialised uniform canonical
/// space: the single-class plan holds one colouring per shape (A000081 of
/// them), and walking every planned shape reproduces the representative set
/// of `CanonicalSpace::forest_representatives` — same parent vectors, same
/// identity service assignment, same orbit sizes.
#[test]
fn uniform_lazy_stream_covers_the_materialised_canonical_space() {
    for n in [6usize, 8, 10] {
        let app = Application::independent(&vec![(2.0, 0.7); n]);
        let classes = WeightClasses::of(&app);
        assert_eq!(classes.class_count(), 1, "n={n}: uniform partition");
        let bounder = ShapeBounder::new(&app, ShapeObjective::Period(CommModel::Overlap));
        let ShapeScan::Planned { shapes, orbits, .. } =
            bound_ordered_shape_plan(&classes, Some(&bounder), f64::INFINITY, None)
        else {
            panic!("n={n}: no deadline, the scan must complete");
        };
        let class_count = CanonicalSpace::forest_class_count(n);
        assert_eq!(shapes.len() as u128, class_count, "n={n}: A000081 shapes");
        assert_eq!(orbits, Some(class_count), "n={n}: one colouring per shape");
        assert!(
            shapes.iter().all(|s| s.colorings == 1),
            "n={n}: uniform shapes are their own colouring"
        );
        let mut collector = CollectAll::new(&classes);
        let mut levels = Vec::new();
        for shape in &shapes {
            shape.decode_into(&mut levels);
            assert!(walk_canonical_colorings(&levels, &classes, &mut collector));
        }
        let mut streamed = collector.reps;
        let mut materialised: Vec<(Vec<Option<usize>>, Vec<usize>, u128)> =
            CanonicalSpace::forest_representatives(n)
                .iter()
                .map(|r| {
                    let (parents, weights) = r.decode();
                    (parents, weights, r.orbit)
                })
                .collect();
        assert_eq!(streamed.len(), materialised.len(), "n={n}: counts");
        streamed.sort();
        materialised.sort();
        assert_eq!(streamed, materialised, "n={n}: representative sets");
    }
}

/// The streamed uniform walk returns the **bit-identical** winner of the
/// retired materialise-then-scan path — the first canonical-order minimum —
/// under frontier caps {1, 2, default}, serial and parallel, and its
/// telemetry is populated on the colourings = 1 fast path: the plan covers
/// every shape, and `peak_resident` reports the workers that actually held
/// a representative.
#[test]
fn uniform_streamed_winner_matches_the_materialised_scan_up_to_n12() {
    let mut rng = StdRng::seed_from_u64(0x500E);
    for (n, models) in [
        (9usize, &[CommModel::Overlap, CommModel::InOrder][..]),
        (12, &[CommModel::Overlap][..]),
    ] {
        let cost = rng.gen_range(0.5..6.0);
        let sel = rng.gen_range(0.2..1.4);
        let app = Application::independent(&vec![(cost, sel); n]);
        let classes = WeightClasses::of(&app);
        for &model in models {
            let eval = |g: &ExecutionGraph, _c: f64| {
                PlanMetrics::compute(&app, g)
                    .map(|m| m.period_lower_bound(model))
                    .unwrap_or(f64::INFINITY)
            };
            // The materialised scan the stream replaced: evaluate every
            // canonical representative in enumeration order, first minimum
            // wins.
            let mut scan: Option<(f64, ExecutionGraph)> = None;
            for rep in CanonicalSpace::forest_representatives(n) {
                let graph = rep.graph();
                let value = eval(&graph, f64::INFINITY);
                if scan.as_ref().is_none_or(|(best, _)| value < *best) {
                    scan = Some((value, graph));
                }
            }
            let (scan_value, scan_graph) = scan.unwrap();
            for (cap, threads) in [
                (1usize, 1usize),
                (1, 4),
                (2, 1),
                (2, 4),
                (DEFAULT_FRONTIER_CAP, 1),
                (DEFAULT_FRONTIER_CAP, 4),
            ] {
                let (outcome, stats) = streamed_canonical_search(
                    &app,
                    &classes,
                    Exec::threaded(threads),
                    PartialPrune::Period(model),
                    cap,
                    f64::INFINITY,
                    &eval,
                );
                let outcome = outcome.unwrap();
                assert!(outcome.complete, "n={n} {model} cap {cap} x{threads}");
                assert_eq!(
                    scan_value, outcome.value,
                    "n={n} {model} cap {cap} x{threads}: value"
                );
                assert_eq!(
                    graph_edges(&scan_graph),
                    graph_edges(&outcome.graph),
                    "n={n} {model} cap {cap} x{threads}: winner"
                );
                assert_eq!(
                    stats.shapes as u128,
                    CanonicalSpace::forest_class_count(n),
                    "n={n} {model} cap {cap} x{threads}: plan covers every shape"
                );
                assert!(
                    stats.expanded >= 1,
                    "n={n} {model} cap {cap} x{threads}: something expanded"
                );
                assert!(
                    stats.peak_resident >= 1,
                    "n={n} {model} cap {cap} x{threads}: residency telemetry empty"
                );
                assert!(
                    stats.peak_resident <= cap.max(1).min(threads.max(1)),
                    "n={n} {model} cap {cap} x{threads}: peak {} residents",
                    stats.peak_resident
                );
            }
        }
    }
}

/// A 20 ms `time_limit` bounds the **lazy generator** end to end on the
/// n = 13 tiered instance — the deadline fires inside the count-only shape
/// prelude (`bound_ordered_shape_plan`) long before the coloured space
/// (26.4M orbits) could stream, and the solve degrades to the heuristic
/// fallback instead of running the generator dry.
#[test]
fn time_limit_bounds_the_lazy_generator_at_n13() {
    let mut rng = StdRng::seed_from_u64(0x500D);
    let app = tiered_query_optimization(&[7, 6], &mut rng);
    let budget = fsw::sched::orchestrator::SearchBudget::default()
        .with_time_limit(std::time::Duration::from_millis(20));
    let started = std::time::Instant::now();
    let solution = fsw::sched::orchestrator::solve(
        &fsw::sched::orchestrator::Problem::new(
            &app,
            CommModel::Overlap,
            fsw::sched::orchestrator::Objective::MinPeriod,
        ),
        &budget,
    )
    .unwrap();
    let elapsed = started.elapsed();
    assert!(!solution.exhaustive, "a 20 ms budget cannot be exhaustive");
    assert!(solution.value.is_finite(), "fallback still yields a plan");
    assert!(
        elapsed < std::time::Duration::from_millis(500),
        "time_limit overshoot: {elapsed:?} for a 20 ms budget"
    );
}
