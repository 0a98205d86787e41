//! Property tests for the **partial-symmetry** (class-preserving) reduction
//! and the streamed canonical walk (seeded random instances):
//!
//! * on **multi-weight-class** instances the class-reduced searches must
//!   return the same optimum *value* as the brute force;
//! * whenever the orbit reduction declines (all classes singleton,
//!   precedence constraints), the labelled walk must return the brute
//!   force's first minimum **bit-for-bit** (identical value *and* winner);
//! * the streamed walk must return the **first minimum** of a scan over the
//!   materialised canonical representatives (uniform and classed), value
//!   and winner, serial and parallel, for the period and the latency bound;
//! * the classed orbit accounting must tile the labelled space exactly;
//! * the **lazy bound-ordered stream** must cover exactly the materialised
//!   classed space (same representatives, same orbit weights), its worker
//!   count must cap the resident representative count without changing the
//!   bit-identical winner, and `time_limit` must bound the generator's
//!   count-only prelude at `n = 13`;
//! * the **uniform** space streams through the same generator
//!   (colourings = 1 per shape): the lazy walk must cover exactly the
//!   materialised uniform representative set (A000081 count included), and
//!   its winner must equal the first-minimum scan on 1, 2 and 4 workers,
//!   up to n = 12;
//! * with **tie dominance** engaged, the streamed walk must still equal the
//!   first-minimum scan, and keep optima that sit one ulp below a tying
//!   plateau (the bit-admissible floors);
//! * the prelude cut at the **constructive plans'** value must leave the
//!   walk as it is under an infinite cutoff: same value bits and winner,
//!   and at one thread the same expansions and certified shapes, whether
//!   the constructive value is optimal or loose;
//! * the **plateau** of shapes tying the constructive value is streamed,
//!   not stored, between the stored shapes below and above it: the walk
//!   still equals the first-minimum scan and, at one thread, a walk that
//!   stores every shape, and a loose constructive value certifies the
//!   plateau unwalked.

use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fsw::core::{Application, CommModel, ExecutionGraph, PlanMetrics, WeightClasses};
use fsw::sched::engine::frontier::{constructive_plans, streamed_canonical_search};
use fsw::sched::engine::{prune_threshold, CanonicalSpace, PartialPrune};
use fsw::sched::minlatency::minimize_latency;
use fsw::sched::minperiod::{exhaustive_forest_best, exhaustive_forest_search, minimize_period};
use fsw::sched::orchestrator::{solve, Objective, Problem, SearchBudget};
use fsw::sched::tree::tree_latency;
use fsw::sched::Exec;
use fsw::workloads::{random_application, tiered_query_optimization, RandomAppConfig};
use fsw_core::{
    bound_ordered_shape_plan, classed_class_count, classed_forest_representatives, forest_classes,
    split_shape_plan, ColoringScratch, ColoringVisitor, ShapeBounder, ShapeObjective, ShapeScan,
};

const CASES: usize = 6;

fn graph_edges(graph: &ExecutionGraph) -> Vec<(usize, usize)> {
    graph.edges().collect()
}

/// The materialised oracle of the streamed walk: evaluates every canonical
/// representative of `app`'s forest space (uniform or class-coloured) in
/// canonical enumeration order and keeps the first minimum.
fn first_minimum_scan(
    app: &Application,
    eval: impl Fn(&ExecutionGraph) -> f64,
) -> (f64, ExecutionGraph) {
    let classes = WeightClasses::of(app);
    let reps = classed_forest_representatives(&classes, usize::MAX).expect("uncapped");
    let mut best: Option<(f64, ExecutionGraph)> = None;
    for rep in reps {
        let graph = rep.member_graph(&classes).expect("a generated colouring");
        let value = eval(&graph);
        if best.as_ref().is_none_or(|(b, _)| value < *b) {
            best = Some((value, graph));
        }
    }
    best.expect("a canonical space is never empty")
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
/// exact forest latency.
#[test]
fn class_reduced_forest_values_match_brute_force_on_multiclass_instances() {
    let mut rng = StdRng::seed_from_u64(0x5001);
    for case in 0..CASES {
        let n = 5 + case % 2; // 5..=6
        let app = random_multiclass_app(n, &mut rng);
        assert!(CanonicalSpace::class_reducible(&app));
        assert!(
            !WeightClasses::of(&app).is_uniform(),
            "multi-class, not uniform"
        );
        for model in CommModel::ALL {
            let eval = |g: &ExecutionGraph| {
                PlanMetrics::compute(&app, g)
                    .map(|m| m.period_lower_bound(model))
                    .unwrap_or(f64::INFINITY)
            };
            let brute = exhaustive_forest_best(&app, eval).unwrap();
            let reduced = exhaustive_forest_search(
                &app,
                2_000_000,
                Exec::serial(),
                PartialPrune::StructuralPeriod(model),
                f64::INFINITY,
                &|g, _| eval(g),
                None,
            )
            .unwrap();
            assert_eq!(brute.0, reduced.value, "case {case} {model}: value");
            assert!(reduced.exhaustive);
            // The classed winner achieves the optimum itself.
            assert_eq!(eval(&reduced.graph), reduced.value, "case {case} {model}");
        }
        let eval = |g: &ExecutionGraph| tree_latency(&app, g).unwrap_or(f64::INFINITY);
        let brute = exhaustive_forest_best(&app, eval).unwrap();
        let reduced = exhaustive_forest_search(
            &app,
            2_000_000,
            Exec::serial(),
            PartialPrune::Latency,
            f64::INFINITY,
            &|g, _| eval(g),
            None,
        )
        .unwrap();
        assert_eq!(brute.0, reduced.value, "case {case}: latency value");
        assert_eq!(eval(&reduced.graph), reduced.value);
    }
}

/// A space the orbit reduction declines — every class a singleton, or
/// precedence constraints — is walked depth-first over its labelled parent
/// functions, and the walk returns the brute force's first minimum bit for
/// bit: the same value bits and the same winner.  This is the one check of
/// the forest walk on a constrained instance.
#[test]
fn declined_spaces_walk_to_the_brute_force_first_minimum() {
    let mut rng = StdRng::seed_from_u64(0x5002);
    let check = |app: &Application, label: &str| {
        assert!(!CanonicalSpace::class_reducible(app), "{label}");
        let eval = |g: &ExecutionGraph| {
            PlanMetrics::compute(app, g)
                .map(|m| m.period_lower_bound(CommModel::InOrder))
                .unwrap_or(f64::INFINITY)
        };
        let brute = exhaustive_forest_best(app, eval).unwrap();
        let walked = exhaustive_forest_search(
            app,
            2_000_000,
            Exec::serial(),
            PartialPrune::StructuralPeriod(CommModel::InOrder),
            f64::INFINITY,
            &|g, _| eval(g),
            None,
        )
        .unwrap();
        assert!(walked.exhaustive, "{label}");
        assert_eq!(brute.0.to_bits(), walked.value.to_bits(), "{label}: value");
        assert_eq!(
            graph_edges(&brute.1),
            graph_edges(&walked.graph),
            "{label}: winner"
        );
    };
    for case in 0..CASES {
        // (a) heterogeneous weights: every class is a singleton.
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        check(&app, &format!("case {case}: singleton classes"));
        // (b) repeated weights but precedence constraints: the reduction
        // declines regardless of the partition.
        let mut constrained = Application::independent(&[(2.0, 0.5); 4]);
        constrained.add_constraint(case % 3, 3).unwrap();
        check(&constrained, &format!("case {case}: constrained"));
    }
}

/// The streamed walk of the canonical orbit spaces (uniform and classed)
/// returns the first minimum of the materialised scan — value and winner —
/// for several thread counts.
#[test]
fn streamed_walk_equals_the_first_minimum_scan_on_orbit_spaces() {
    let mut rng = StdRng::seed_from_u64(0x5005);
    for case in 0..CASES {
        let app = if case % 2 == 0 {
            let cost = rng.gen_range(0.5..6.0);
            let sel = rng.gen_range(0.2..1.5);
            Application::independent(&[(cost, sel); 6])
        } else {
            random_multiclass_app(6, &mut rng)
        };
        for model in [CommModel::Overlap, CommModel::InOrder] {
            let eval = |g: &ExecutionGraph| {
                PlanMetrics::compute(&app, g)
                    .map(|m| m.period_lower_bound(model))
                    .unwrap_or(f64::INFINITY)
            };
            let (scan_value, scan_graph) = first_minimum_scan(&app, eval);
            for threads in [1, 4] {
                let streamed = exhaustive_forest_search(
                    &app,
                    2_000_000,
                    Exec::threaded(threads),
                    PartialPrune::StructuralPeriod(model),
                    f64::INFINITY,
                    &|g, _| eval(g),
                    None,
                )
                .unwrap();
                assert_eq!(
                    scan_value, streamed.value,
                    "case {case} {model} x{threads}: value"
                );
                assert_eq!(
                    graph_edges(&scan_graph),
                    graph_edges(&streamed.graph),
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
            let result = minimize_period(&app, model, &SearchBudget::default()).unwrap();
            assert!(result.exhaustive, "case {case} {model}");
            let brute = exhaustive_forest_best(&app, |g| {
                PlanMetrics::compute(&app, g)
                    .map(|m| m.period_lower_bound(model))
                    .unwrap_or(f64::INFINITY)
            })
            .unwrap();
            assert_eq!(brute.0, result.value, "case {case} {model}: period");
        }
        // MINLATENCY: the forest phase is classed-reduced; the DAG phase may
        // only improve on it.
        let result = minimize_latency(&app, CommModel::InOrder, &SearchBudget::default()).unwrap();
        assert!(result.exhaustive, "case {case}: latency exhaustive");
        let forest =
            exhaustive_forest_best(&app, |g| tree_latency(&app, g).unwrap_or(f64::INFINITY))
                .unwrap();
        assert!(
            result.value <= forest.0 + 1e-12,
            "case {case}: latency {} vs forest optimum {}",
            result.value,
            forest.0
        );
    }
}

/// A tight `time_limit` must bound the classed path end to end — including
/// representative materialisation and the best-first bound prelude, which
/// used to run to completion before the first deadline check.
#[test]
fn time_limit_bounds_the_classed_path_materialisation() {
    let mut rng = StdRng::seed_from_u64(0x500A);
    // 8+8 classes at n = 16: the shape prelude alone streams 634 847
    // shapes (A000081(17)) and counts their colourings, far beyond 20 ms.
    // A smaller instance such as 6+5 at n = 11 can finish exhaustively
    // inside the budget (its walk expands one representative), so it
    // cannot show the deadline.
    let app = tiered_query_optimization(&[8, 8], &mut rng);
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
        let classes = WeightClasses::of(&app);
        let reps = classed_forest_representatives(&classes, 2_000_000).unwrap();
        let covered: u128 = reps.iter().map(|r| r.orbit).sum();
        assert_eq!(covered, fsw_core::labelled_forests(n), "{sizes:?}");
        // Every representative's graph is a well-formed forest over the
        // concrete services, each position pinned to a service of the class
        // the generator assigned to it.
        for rep in reps.iter().take(50) {
            assert!(rep.member_graph(&classes).unwrap().is_forest());
            let services = classes.service_assignment(&rep.classes).unwrap();
            for (pos, &service) in services.iter().enumerate() {
                assert_eq!(classes.class_of(service), rep.classes[pos], "{sizes:?}");
            }
        }
    }
}

/// The materialised oracle's representatives of `app`'s forest space as
/// `(parents, services, orbit)`, each position pinned to the service
/// `WeightClasses::service_assignment` gives it.
fn materialised_representatives(app: &Application) -> Vec<(Vec<Option<usize>>, Vec<usize>, u128)> {
    let classes = WeightClasses::of(app);
    classed_forest_representatives(&classes, 2_000_000)
        .expect("the space fits the cap")
        .into_iter()
        .map(|rep| {
            let services = classes.service_assignment(&rep.classes).unwrap();
            (rep.parents, services, rep.orbit)
        })
        .collect()
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
/// `classed_forest_representatives`, and as many colourings as the count pass
/// counts.  (The bound-sorted shape order differs from canonical order, so
/// the lists are compared as sorted multisets.)
#[test]
fn lazy_stream_covers_the_materialised_classed_space() {
    let mut rng = StdRng::seed_from_u64(0x500B);
    for case in 0..CASES / 2 {
        let app = random_multiclass_app(6 + case % 2, &mut rng);
        let classes = WeightClasses::of(&app);
        let bounder = ShapeBounder::new(&app, ShapeObjective::Period(CommModel::Overlap));
        let ShapeScan::Planned { shapes, .. } =
            bound_ordered_shape_plan(&classes, Some(&bounder), f64::INFINITY, None)
        else {
            panic!("case {case}: no deadline, the scan must complete");
        };
        // The plan is genuinely bound-sorted (the stream's expansion order).
        for pair in shapes.windows(2) {
            assert!(pair[0].bound <= pair[1].bound, "case {case}: bound order");
        }
        let mut collector = CollectAll::new(&classes);
        let mut scratch = ColoringScratch::default();
        let mut levels = Vec::new();
        for shape in &shapes {
            shape.decode_into(&mut levels);
            assert!(scratch.walk(&levels, &classes, &mut collector));
        }
        let mut streamed = collector.reps;
        let mut materialised = materialised_representatives(&app);
        assert_eq!(
            Some(streamed.len() as u128),
            classed_class_count(&classes, u128::MAX),
            "case {case}: plan totals"
        );
        assert_eq!(
            streamed.len(),
            materialised.len(),
            "case {case}: orbit count"
        );
        streamed.sort();
        materialised.sort();
        assert_eq!(streamed, materialised, "case {case}: representative sets");
    }
}

/// The worker count is the cap on the streamed walk's resident
/// representatives, and it never changes the answer: 1, 2 and 4 workers
/// return bit-identical winners, all equal to the first-minimum scan of the
/// materialised stream, and each run's peak stays under its worker count.
#[test]
fn streamed_cap_governs_peak_resident_and_keeps_the_winner_bit_identical() {
    let mut rng = StdRng::seed_from_u64(0x500C);
    let app = tiered_query_optimization(&[5, 4], &mut rng);
    let classes = WeightClasses::of(&app);
    let model = CommModel::Overlap;
    let eval = |g: &ExecutionGraph| {
        PlanMetrics::compute(&app, g)
            .map(|m| m.period_lower_bound(model))
            .unwrap_or(f64::INFINITY)
    };
    let (scan_value, scan_graph) = first_minimum_scan(&app, eval);
    let orbits = classed_class_count(&classes, u128::MAX).expect("a countable partition");
    for threads in [1usize, 2, 4] {
        let (outcome, stats) = streamed_canonical_search(
            &app,
            &classes,
            Exec::threaded(threads),
            PartialPrune::StructuralPeriod(model),
            f64::INFINITY,
            &|g, _| eval(g),
            None,
        );
        let outcome = outcome.unwrap();
        assert!(outcome.exhaustive, "x{threads}");
        assert_eq!(scan_value, outcome.value, "x{threads}: value");
        assert_eq!(
            graph_edges(&scan_graph),
            graph_edges(&outcome.graph),
            "x{threads}: winner"
        );
        assert!(
            (1..=threads).contains(&stats.peak_resident),
            "x{threads}: peak {} residents",
            stats.peak_resident
        );
        assert_eq!(
            stats.shapes as u128,
            forest_classes(9),
            "x{threads}: plan covers every shape"
        );
        assert!(
            u128::from(stats.expanded) <= orbits,
            "x{threads}: pruning never expands beyond the space"
        );
    }
}

/// The lazy stream covers **exactly** the materialised uniform canonical
/// space: the single-class plan holds one colouring per shape (A000081 of
/// them), and walking every planned shape reproduces the representative set
/// of the one-class `classed_forest_representatives` — same parent vectors,
/// same identity service assignment, same orbit sizes.  The oracle walks the
/// generic coloured path, so this checks the walk's single-class fast path
/// against it.
#[test]
fn uniform_lazy_stream_covers_the_materialised_canonical_space() {
    for n in [6usize, 8, 10] {
        let app = Application::independent(&vec![(2.0, 0.7); n]);
        let classes = WeightClasses::of(&app);
        assert_eq!(classes.class_count(), 1, "n={n}: uniform partition");
        let bounder = ShapeBounder::new(&app, ShapeObjective::Period(CommModel::Overlap));
        let ShapeScan::Planned { shapes, .. } =
            bound_ordered_shape_plan(&classes, Some(&bounder), f64::INFINITY, None)
        else {
            panic!("n={n}: no deadline, the scan must complete");
        };
        let class_count = forest_classes(n);
        assert_eq!(shapes.len() as u128, class_count, "n={n}: A000081 shapes");
        let mut collector = CollectAll::new(&classes);
        let mut scratch = ColoringScratch::default();
        let mut levels = Vec::new();
        for shape in &shapes {
            let walked = collector.reps.len();
            shape.decode_into(&mut levels);
            assert!(scratch.walk(&levels, &classes, &mut collector));
            assert_eq!(
                collector.reps.len(),
                walked + 1,
                "n={n}: uniform shapes are their own colouring"
            );
        }
        let mut streamed = collector.reps;
        assert_eq!(
            streamed.len() as u128,
            forest_classes(n),
            "n={n}: one colouring per shape"
        );
        let mut materialised = materialised_representatives(&app);
        assert_eq!(streamed.len(), materialised.len(), "n={n}: counts");
        streamed.sort();
        materialised.sort();
        assert_eq!(streamed, materialised, "n={n}: representative sets");
    }
}

/// The streamed uniform walk returns the **bit-identical** winner of the
/// materialised scan — the first canonical-order minimum — on 1, 2 and 4
/// workers, and its telemetry is populated on the colourings = 1 fast
/// path: the plan covers every shape, and `peak_resident` reports the
/// workers that actually held a representative.
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
            let eval = |g: &ExecutionGraph| {
                PlanMetrics::compute(&app, g)
                    .map(|m| m.period_lower_bound(model))
                    .unwrap_or(f64::INFINITY)
            };
            let (scan_value, scan_graph) = first_minimum_scan(&app, eval);
            for threads in [1usize, 2, 4] {
                let (outcome, stats) = streamed_canonical_search(
                    &app,
                    &classes,
                    Exec::threaded(threads),
                    PartialPrune::StructuralPeriod(model),
                    f64::INFINITY,
                    &|g, _| eval(g),
                    None,
                );
                let outcome = outcome.unwrap();
                assert!(outcome.exhaustive, "n={n} {model} x{threads}");
                assert_eq!(scan_value, outcome.value, "n={n} {model} x{threads}: value");
                assert_eq!(
                    graph_edges(&scan_graph),
                    graph_edges(&outcome.graph),
                    "n={n} {model} x{threads}: winner"
                );
                assert_eq!(
                    stats.shapes as u128,
                    forest_classes(n),
                    "n={n} {model} x{threads}: plan covers every shape"
                );
                assert!(
                    stats.expanded >= 1,
                    "n={n} {model} x{threads}: something expanded"
                );
                assert!(
                    stats.peak_resident >= 1,
                    "n={n} {model} x{threads}: residency telemetry empty"
                );
                assert!(
                    stats.peak_resident <= threads,
                    "n={n} {model} x{threads}: peak {} residents",
                    stats.peak_resident
                );
            }
        }
    }
}

/// The streamed walk under the latency bound returns the first minimum of
/// the materialised scan — same value bits, same winning graph — on a
/// uniform and two classed spaces, on 1, 2 and 4 workers.
#[test]
fn streamed_latency_winner_matches_the_first_minimum_scan() {
    let mut rng = StdRng::seed_from_u64(0x500F);
    let cost = rng.gen_range(0.5..6.0);
    let sel = rng.gen_range(0.2..1.5);
    let apps = [
        Application::independent(&[(cost, sel); 6]),
        tiered_query_optimization(&[3, 3], &mut rng),
        tiered_query_optimization(&[2, 2, 3], &mut rng),
    ];
    for (case, app) in apps.iter().enumerate() {
        assert!(CanonicalSpace::class_reducible(app), "case {case}");
        let classes = WeightClasses::of(app);
        let latency = |g: &ExecutionGraph| tree_latency(app, g).unwrap_or(f64::INFINITY);
        let (scan_value, scan_graph) = first_minimum_scan(app, latency);
        for threads in [1, 2, 4] {
            let (outcome, stats) = streamed_canonical_search(
                app,
                &classes,
                Exec::threaded(threads),
                PartialPrune::Latency,
                f64::INFINITY,
                &|g, _| latency(g),
                None,
            );
            let outcome = outcome.unwrap();
            let at = format!("case {case} x{threads}");
            assert!(outcome.exhaustive, "{at}");
            assert_eq!(scan_value.to_bits(), outcome.value.to_bits(), "{at}: value");
            assert_eq!(
                graph_edges(&scan_graph),
                graph_edges(&outcome.graph),
                "{at}: winner"
            );
            assert!(stats.peak_resident <= threads, "{at}: residency");
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

/// Class-symmetric instances whose optimum is one ulp below a neighbouring
/// plateau: a completion's path-order selectivity product rounds below the
/// sorted-order floor of its unplaced services.  The tie-dominance prune
/// compares against those floors, so they must be bit-admissible; an
/// unshaved floor returned 1.2348 and 1.5309000000000001 here, one ulp
/// above the optimum, at every thread count.
#[test]
fn tie_dominance_keeps_optima_one_ulp_below_the_plateau() {
    let instances: [&[(f64, f64)]; 2] = [
        &[
            (7.0, 1.0),
            (7.0, 1.0),
            (0.25, 0.6),
            (0.25, 0.6),
            (1.0, 0.7),
            (1.0, 0.7),
        ],
        &[(1.0, 0.9), (1.0, 0.9), (0.5, 0.45), (7.0, 0.7), (1.0, 0.6)],
    ];
    for specs in instances {
        let app = Application::independent(specs);
        assert!(CanonicalSpace::class_reducible(&app));
        let eval = |g: &ExecutionGraph| {
            PlanMetrics::compute(&app, g)
                .map(|m| m.period_lower_bound(CommModel::Overlap))
                .unwrap_or(f64::INFINITY)
        };
        let brute = exhaustive_forest_best(&app, eval).unwrap();
        let (scan_value, scan_graph) = first_minimum_scan(&app, eval);
        assert_eq!(scan_value.to_bits(), brute.0.to_bits());
        let problem = Problem::new(&app, CommModel::Overlap, Objective::MinPeriod);
        for threads in [1, 2, 4] {
            let budget = SearchBudget {
                threads,
                ..SearchBudget::default()
            };
            let solution = solve(&problem, &budget).unwrap();
            assert!(solution.exhaustive, "{specs:?} x{threads}");
            assert_eq!(
                solution.value.to_bits(),
                brute.0.to_bits(),
                "{specs:?} x{threads}: {} against brute force {}",
                solution.value,
                brute.0
            );
            assert_eq!(
                graph_edges(&solution.graph),
                graph_edges(&scan_graph),
                "{specs:?} x{threads}: winner"
            );
        }
    }
}

/// With tie dominance engaged (the candidate value *is* the structural
/// period bound), the streamed walk still returns the first minimum of the
/// materialised scan — value and winner — for every model, serial and
/// parallel.
#[test]
fn streamed_tie_dominance_equals_the_first_minimum_scan() {
    let mut rng = StdRng::seed_from_u64(0x500E);
    for case in 0..CASES {
        let app = if case % 2 == 0 {
            let cost = rng.gen_range(0.5..6.0);
            let sel = rng.gen_range(0.2..1.5);
            Application::independent(&[(cost, sel); 6])
        } else {
            random_multiclass_app(6, &mut rng)
        };
        for model in CommModel::ALL {
            let eval = |g: &ExecutionGraph| {
                PlanMetrics::compute(&app, g)
                    .map(|m| m.period_lower_bound(model))
                    .unwrap_or(f64::INFINITY)
            };
            let (scan_value, scan_graph) = first_minimum_scan(&app, eval);
            for threads in [1, 4] {
                let streamed = exhaustive_forest_search(
                    &app,
                    2_000_000,
                    Exec::threaded(threads),
                    PartialPrune::StructuralPeriod(model),
                    f64::INFINITY,
                    &|g, _| eval(g),
                    None,
                )
                .unwrap();
                assert_eq!(
                    scan_value.to_bits(),
                    streamed.value.to_bits(),
                    "case {case} {model} x{threads}: value"
                );
                assert_eq!(
                    graph_edges(&scan_graph),
                    graph_edges(&streamed.graph),
                    "case {case} {model} x{threads}: winner"
                );
            }
        }
    }
}

/// The prelude cut at the constructive plans' value leaves the walk as it
/// was: against the same walk with those values hidden from the prelude
/// (valued `∞`, so its cutoff is infinite and the plan uncut), it returns
/// the same value bits and winner at 1, 2 and 4 threads, and at one thread
/// it expands the same representatives and certifies the same shapes.
/// Most instances have an optimal constructive plan, so the cut drops
/// shapes; on the tiered latency instance the chains are poor and the
/// cutoff is loose.
#[test]
fn constructive_prelude_cutoff_keeps_the_walk() {
    let mut rng = StdRng::seed_from_u64(0x5010);
    let mixed = Application::independent(&[
        (0.5, 1.3),
        (0.5, 1.3),
        (0.5, 1.3),
        (2.0, 0.6),
        (2.0, 0.6),
        (4.0, 1.2),
    ]);
    let instances = [
        (
            Application::independent(&[(2.0, 0.7); 8]),
            PartialPrune::StructuralPeriod(CommModel::Overlap),
        ),
        (
            tiered_query_optimization(&[4, 3], &mut rng),
            PartialPrune::StructuralPeriod(CommModel::InOrder),
        ),
        (
            tiered_query_optimization(&[3, 3], &mut rng),
            PartialPrune::Latency,
        ),
        (
            Application::independent(&[(1.5, 0.6); 7]),
            PartialPrune::Latency,
        ),
        (
            mixed.clone(),
            PartialPrune::StructuralPeriod(CommModel::InOrder),
        ),
        (mixed, PartialPrune::Latency),
    ];
    let (mut tight, mut loose, mut cut_shapes) = (0, 0, 0);
    for (case, (app, prune)) in instances.iter().enumerate() {
        let classes = WeightClasses::of(app);
        let objective = match *prune {
            PartialPrune::Latency => ShapeObjective::Latency,
            PartialPrune::StructuralPeriod(model) => ShapeObjective::Period(model),
            PartialPrune::Off => unreachable!("every case bounds its objective"),
        };
        let eval = |g: &ExecutionGraph| match objective {
            ShapeObjective::Latency => tree_latency(app, g).unwrap_or(f64::INFINITY),
            ShapeObjective::Period(model) => PlanMetrics::compute(app, g)
                .map(|m| m.period_lower_bound(model))
                .unwrap_or(f64::INFINITY),
        };
        let plans = constructive_plans(app, *prune);
        let constructive = plans.iter().map(eval).fold(f64::INFINITY, f64::min);
        let (optimum, _) = first_minimum_scan(app, eval);
        if constructive.to_bits() == optimum.to_bits() {
            tight += 1;
        } else {
            assert!(constructive > optimum, "case {case}: a plan of the space");
            loose += 1;
        }
        let bounder = ShapeBounder::new(app, objective);
        let cutoff = prune_threshold(constructive);
        let ShapeScan::Planned { pruned, .. } =
            bound_ordered_shape_plan(&classes, Some(&bounder), cutoff, None)
        else {
            panic!("case {case}: no deadline was set");
        };
        cut_shapes += pruned;
        for threads in [1usize, 2, 4] {
            // The walk values the constructive plans first; hiding them
            // leaves the prelude an infinite cutoff.
            let run = |hidden: usize| {
                let left = AtomicUsize::new(hidden);
                let (outcome, stats) = streamed_canonical_search(
                    app,
                    &classes,
                    Exec::threaded(threads),
                    *prune,
                    f64::INFINITY,
                    &|g, _| {
                        let hide = left
                            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |k| {
                                k.checked_sub(1)
                            })
                            .is_ok();
                        if hide {
                            f64::INFINITY
                        } else {
                            eval(g)
                        }
                    },
                    None,
                );
                (outcome.expect("a complete walk"), stats)
            };
            let (cut, cut_stats) = run(0);
            let (uncut, uncut_stats) = run(plans.len());
            let at = format!("case {case} x{threads}");
            assert!(cut.exhaustive, "{at}");
            assert_eq!(cut.value.to_bits(), uncut.value.to_bits(), "{at}: value");
            assert_eq!(cut.value.to_bits(), optimum.to_bits(), "{at}: optimum");
            assert_eq!(
                graph_edges(&cut.graph),
                graph_edges(&uncut.graph),
                "{at}: winner"
            );
            assert_eq!(cut_stats.shapes, uncut_stats.shapes, "{at}: shapes");
            if threads == 1 {
                assert_eq!(cut_stats.expanded, uncut_stats.expanded, "{at}: expanded");
                assert_eq!(
                    cut_stats.certified_shapes, uncut_stats.certified_shapes,
                    "{at}: certified shapes"
                );
            }
        }
    }
    assert!(tight > 0 && loose > 0, "{tight} tight and {loose} loose");
    assert!(cut_shapes > 0, "the constructive cutoff drops no shape");
}

/// The walk splits its prelude at the constructive value: shapes whose
/// bound ties it bit for bit are streamed in rank order between the stored
/// shapes below and above it.  Each instance runs twice: valued by its
/// constructive plans (the optimum on every case but the tiered latency
/// one), and with those plans valued at a loose shape bound above the
/// optimum, which shapes tie and undercut.  Four instances keep stored
/// shapes just above the value: the first one's shape floors sit an ulp
/// above its optimum, and the next three have shape bounds an ulp apart,
/// the lower of which is the second one's loose value and the last two's
/// constructive one, which their walks enter.
/// Either way the walk returns the first-minimum scan's value bits and
/// winner at 1, 2 and 4 threads and holds only the off-plateau records,
/// and at one thread it expands and certifies exactly what a walk that
/// stores every shape does (the plans valued `∞`, so nothing is set
/// aside).  With a loose value the serial walk reaches the plateau with
/// the optimum in hand and certifies it unwalked.
#[test]
fn streamed_plateau_walk_equals_the_scan_and_the_stored_walk() {
    let mut rng = StdRng::seed_from_u64(0x5011);
    let ulp_above = Application::independent(&[
        (3.3, 0.55),
        (1.0, 0.85),
        (1.0, 0.85),
        (7.0, 0.85),
        (1.0, 0.85),
        (1.0, 0.85),
    ]);
    // Shape bounds an ulp apart: 3.3 and 3.3000000000000003 under OVERLAP,
    // 2.4499999999999997 and 2.45, and 5.3999999999999995 and 5.4, under
    // INORDER.  The INORDER instances' constructive values are the lower
    // of each pair.
    let near_overlap = Application::independent(&[
        (3.3, 0.6),
        (3.3, 0.6),
        (0.5, 0.55),
        (0.5, 0.55),
        (0.5, 0.55),
        (0.5, 0.6),
        (3.3, 0.6),
    ]);
    let near_inorder = Application::independent(&[
        (3.3, 0.7),
        (3.3, 0.7),
        (3.3, 0.7),
        (3.3, 0.7),
        (0.05, 0.7),
        (0.05, 0.7),
        (3.3, 0.7),
    ]);
    let near_chain = Application::independent(&[
        (7.0, 1.0),
        (2.0, 0.6),
        (7.0, 1.0),
        (7.0, 1.0),
        (7.0, 1.0),
        (7.0, 1.0),
    ]);
    let instances = [
        (
            ulp_above,
            PartialPrune::StructuralPeriod(CommModel::Overlap),
        ),
        (
            near_overlap,
            PartialPrune::StructuralPeriod(CommModel::Overlap),
        ),
        (
            near_inorder,
            PartialPrune::StructuralPeriod(CommModel::InOrder),
        ),
        (
            near_chain,
            PartialPrune::StructuralPeriod(CommModel::InOrder),
        ),
        (
            Application::independent(&[(0.5, 0.05); 9]),
            PartialPrune::StructuralPeriod(CommModel::Overlap),
        ),
        (
            Application::independent(&[(2.0, 0.7); 8]),
            PartialPrune::StructuralPeriod(CommModel::InOrder),
        ),
        (
            tiered_query_optimization(&[4, 3], &mut rng),
            PartialPrune::StructuralPeriod(CommModel::Overlap),
        ),
        (
            tiered_query_optimization(&[4, 3], &mut rng),
            PartialPrune::StructuralPeriod(CommModel::InOrder),
        ),
        (
            Application::independent(&[(1.5, 0.6); 7]),
            PartialPrune::Latency,
        ),
        (
            tiered_query_optimization(&[3, 3], &mut rng),
            PartialPrune::Latency,
        ),
    ];
    let (mut below_and_on, mut on_and_above, mut loose_plateaus) = (0, 0, 0);
    let mut tight_on_and_above = 0;
    for (case, (app, prune)) in instances.iter().enumerate() {
        let classes = WeightClasses::of(app);
        let objective = match *prune {
            PartialPrune::Latency => ShapeObjective::Latency,
            PartialPrune::StructuralPeriod(model) => ShapeObjective::Period(model),
            PartialPrune::Off => unreachable!("every case bounds its objective"),
        };
        let eval = |g: &ExecutionGraph| match objective {
            ShapeObjective::Latency => tree_latency(app, g).unwrap_or(f64::INFINITY),
            ShapeObjective::Period(model) => PlanMetrics::compute(app, g)
                .map(|m| m.period_lower_bound(model))
                .unwrap_or(f64::INFINITY),
        };
        let plans = constructive_plans(app, *prune);
        let constructive = plans.iter().map(eval).fold(f64::INFINITY, f64::min);
        let (optimum, scan_graph) = first_minimum_scan(app, eval);
        let bounder = ShapeBounder::new(app, objective);
        let ShapeScan::Planned { shapes: every, .. } =
            bound_ordered_shape_plan(&classes, Some(&bounder), f64::INFINITY, None)
        else {
            panic!("case {case}: no deadline was set");
        };
        // The loose value: a shape bound above the optimum that another
        // shape's bound follows within the prune threshold, so the split
        // keeps shapes above the plateau; else the most-tied such bound.
        let runs: Vec<&[fsw_core::ShapePlan]> = every
            .chunk_by(|a, b| a.bound.to_bits() == b.bound.to_bits())
            .filter(|run| run[0].bound > prune_threshold(optimum))
            .collect();
        let loose = runs
            .windows(2)
            .find(|pair| pair[1][0].bound <= prune_threshold(pair[0][0].bound))
            .map(|pair| pair[0])
            .or_else(|| runs.iter().copied().max_by_key(|run| run.len()))
            .map(|run| run[0].bound);
        for valued in std::iter::once(None).chain(loose.map(Some)) {
            let upper = valued.unwrap_or(constructive);
            let ShapeScan::Planned {
                shapes,
                plateau,
                pruned,
            } = split_shape_plan(
                &classes,
                Some(&bounder),
                upper,
                prune_threshold(upper),
                None,
            )
            else {
                panic!("case {case}: no deadline was set");
            };
            let under = shapes.iter().filter(|s| s.bound < upper).count();
            let over = shapes.len() - under;
            let plateau = plateau as usize;
            let is_loose = upper > prune_threshold(optimum);
            println!(
                "case {case}: {under} below, {plateau} on and {over} above {upper} \
                 (optimum {optimum}), {pruned} pruned"
            );
            below_and_on += usize::from(under > 0 && plateau > 0);
            on_and_above += usize::from(plateau > 0 && over > 0);
            tight_on_and_above += usize::from(!is_loose && plateau > 0 && over > 0);
            loose_plateaus += usize::from(is_loose && plateau > 0);
            for threads in [1usize, 2, 4] {
                // The walk values the constructive plans first: `value`
                // replaces what they are worth, `∞` stores every shape.
                let run = |value: Option<f64>| {
                    let left = AtomicUsize::new(plans.len());
                    let (outcome, stats) = streamed_canonical_search(
                        app,
                        &classes,
                        Exec::threaded(threads),
                        *prune,
                        f64::INFINITY,
                        &|g, _| {
                            let constructive = left
                                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |k| {
                                    k.checked_sub(1)
                                })
                                .is_ok();
                            match value {
                                Some(value) if constructive => value,
                                _ => eval(g),
                            }
                        },
                        None,
                    );
                    (outcome.expect("a complete walk"), stats)
                };
                let (split, split_stats) = run(valued);
                let at = format!("case {case} at {upper} x{threads}");
                assert!(split.exhaustive, "{at}");
                assert_eq!(split.value.to_bits(), optimum.to_bits(), "{at}: value");
                assert_eq!(
                    graph_edges(&split.graph),
                    graph_edges(&scan_graph),
                    "{at}: winner"
                );
                assert_eq!(split_stats.stored_shapes, shapes.len(), "{at}: records");
                assert_eq!(
                    split_stats.shapes,
                    shapes.len() + plateau + pruned as usize,
                    "{at}: shapes"
                );
                if threads == 1 {
                    let (stored, stored_stats) = run(Some(f64::INFINITY));
                    assert_eq!(stored_stats.stored_shapes, stored_stats.shapes, "{at}");
                    assert_eq!(stored.value.to_bits(), split.value.to_bits(), "{at}");
                    assert_eq!(
                        split_stats.expanded, stored_stats.expanded,
                        "{at}: expanded"
                    );
                    assert_eq!(
                        split_stats.certified_shapes, stored_stats.certified_shapes,
                        "{at}: certified shapes"
                    );
                    if is_loose {
                        assert!(
                            split_stats.certified_shapes >= pruned as usize + plateau + over,
                            "{at}: a loose value certifies its plateau unwalked"
                        );
                    }
                }
            }
        }
    }
    assert!(
        below_and_on > 0,
        "no case has shapes below and on the plateau"
    );
    assert!(
        on_and_above > 0,
        "no case has shapes on and above the plateau"
    );
    assert!(
        tight_on_and_above > 0,
        "no walk enters shapes on and above the plateau"
    );
    assert!(loose_plateaus > 0, "no case has a loose plateau");
}
