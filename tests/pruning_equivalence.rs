//! Pruning-correctness property tests (seeded random instances): the
//! branch-and-bound, cutoff-bounded and memoised searches of the
//! prune-and-memoise engine must return the **same optimum values, winning
//! graphs and feasibility verdicts** as the unpruned seed solvers
//! (`exhaustive_forest_best` / `exhaustive_dag_best` and the unbounded
//! ordering searches) they accelerate.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fsw::core::{CommModel, ExecutionGraph, PlanMetrics};
use fsw::obs::MetricsRegistry;
use fsw::sched::engine::frontier::{DagStats, StreamProbe};
use fsw::sched::engine::{CanonicalSpace, EvalCache, PartialPrune, Symmetry};
use fsw::sched::latency::{
    oneport_latency_search, oneport_latency_search_bounded, LatencyEvaluator,
};
use fsw::sched::minlatency::{evaluate_latency, minimize_latency};
use fsw::sched::minperiod::{
    evaluate_period, exhaustive_dag_best, exhaustive_dag_search, exhaustive_forest_best,
    exhaustive_forest_search, minimize_period,
};
use fsw::sched::orchestrator::{
    solve, solve_all, solve_warm_observed, Objective, Problem, SearchBudget,
};
use fsw::sched::outorder::outorder_period_search;
use fsw::sched::tree::tree_latency;
use fsw::sched::Exec;
use fsw::workloads::{
    query_optimization, random_application, random_compatible_graph, serving_trace,
    RandomAppConfig, TraceConfig,
};

const CASES: usize = 6;

fn graph_edges(graph: &ExecutionGraph) -> Vec<(usize, usize)> {
    graph.edges().collect()
}

/// The pruned forest enumeration returns the brute force's value *and*
/// tie-broken winner, for both admissible bounds.
#[test]
fn pruned_forest_enumeration_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xBB01);
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        for model in CommModel::ALL {
            let eval = |g: &ExecutionGraph| {
                PlanMetrics::compute(&app, g)
                    .map(|m| m.period_lower_bound(model))
                    .unwrap_or(f64::INFINITY)
            };
            let brute = exhaustive_forest_best(&app, eval).unwrap();
            let pruned = exhaustive_forest_search(
                &app,
                2_000_000,
                Exec::serial(),
                PartialPrune::Period(model),
                Symmetry::Full,
                f64::INFINITY,
                &|g, _| eval(g),
                None,
            )
            .unwrap();
            assert_eq!(brute.0, pruned.value, "case {case} {model}: period value");
            assert_eq!(
                graph_edges(&brute.1),
                graph_edges(&pruned.graph),
                "case {case} {model}: period winner"
            );
            assert!(pruned.exhaustive);
        }
        let eval = |g: &ExecutionGraph| tree_latency(&app, g).unwrap_or(f64::INFINITY);
        let brute = exhaustive_forest_best(&app, eval).unwrap();
        let pruned = exhaustive_forest_search(
            &app,
            2_000_000,
            Exec::serial(),
            PartialPrune::Latency,
            Symmetry::Full,
            f64::INFINITY,
            &|g, _| eval(g),
            None,
        )
        .unwrap();
        assert_eq!(brute.0, pruned.value, "case {case}: latency value");
        assert_eq!(
            graph_edges(&brute.1),
            graph_edges(&pruned.graph),
            "case {case}: latency winner"
        );
    }
}

/// Full MINPERIOD solves (branch and bound with tie dominance) equal a
/// brute-force sweep of the same candidate space with the same evaluation.
#[test]
fn minimize_period_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xBB02);
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        for model in CommModel::ALL {
            let result = minimize_period(&app, model, &SearchBudget::default()).unwrap();
            assert!(result.exhaustive, "case {case} {model}");
            let brute = exhaustive_forest_best(&app, |g| {
                evaluate_period(&app, g, model).unwrap_or(f64::INFINITY)
            })
            .unwrap();
            assert_eq!(brute.0, result.value, "case {case} {model}: value");
            assert_eq!(
                graph_edges(&brute.1),
                graph_edges(&result.graph),
                "case {case} {model}: winner"
            );
        }
    }
}

/// Constrained MINPERIOD routes through the (seed-less) DAG enumeration and
/// must equal the brute-force DAG sweep.
#[test]
fn constrained_minimize_period_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xBB03);
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::constrained(4, 0.4), &mut rng);
        for model in CommModel::ALL {
            let budget = SearchBudget::default();
            let result = minimize_period(&app, model, &budget).unwrap();
            let brute = exhaustive_dag_best(&app, 5, |g| {
                evaluate_period(&app, g, model).unwrap_or(f64::INFINITY)
            })
            .unwrap();
            assert_eq!(brute.0, result.value, "case {case} {model}: value");
            assert_eq!(
                graph_edges(&brute.1),
                graph_edges(&result.graph),
                "case {case} {model}: winner"
            );
        }
    }
}

/// Full MINLATENCY solves (incumbent-seeded DAG phase, canonical ordering
/// cache) equal the legacy forest-then-DAG brute-force composition.
#[test]
fn minimize_latency_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xBB04);
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        for model in CommModel::ALL {
            let budget = SearchBudget::default();
            let result = minimize_latency(&app, model, &budget).unwrap();
            assert!(result.exhaustive, "case {case} {model}");
            let forest =
                exhaustive_forest_best(&app, |g| tree_latency(&app, g).unwrap_or(f64::INFINITY))
                    .unwrap();
            let dag = exhaustive_dag_best(&app, budget.dag_enumeration_max_n, |g| {
                evaluate_latency(&app, g, model, budget.max_orderings).unwrap_or(f64::INFINITY)
            })
            .unwrap();
            let (expected_value, expected_graph) = if dag.0 < forest.0 - 1e-12 {
                (dag.0, dag.1)
            } else {
                (forest.0, forest.1)
            };
            assert_eq!(expected_value, result.value, "case {case} {model}: value");
            assert_eq!(
                graph_edges(&expected_graph),
                graph_edges(&result.graph),
                "case {case} {model}: winner"
            );
        }
    }
}

/// Five-service DAGs (A003024).
const DAGS_AT_5: u64 = 29_281;

/// The DAG walk reports what it did once, to `SolveStats::dag` and to the
/// registry's `engine.dag.visited` and `engine.dag.pruned` counters alike.
/// Unpruned, it values each five-service DAG once; in MINLATENCY solves of
/// five-service query-optimisation instances its latency floor, seeded
/// with the forest optimum, leaves it valuing a small share of them.
#[test]
fn the_dag_walk_counts_its_visits_and_prunes() {
    let mut rng = StdRng::seed_from_u64(5);
    let budget = SearchBudget {
        threads: 1,
        ..SearchBudget::default()
    };
    for case in 0..3 {
        let app = query_optimization(5, &mut rng);
        let probe = StreamProbe::default();
        exhaustive_dag_search(
            &app,
            5,
            Exec::serial(),
            PartialPrune::Off,
            f64::INFINITY,
            &|_, _| 0.0,
            Some(&probe),
        )
        .expect("n is within the DAG walk");
        assert_eq!(
            probe.dag_snapshot(),
            Some(DagStats {
                visited: DAGS_AT_5,
                pruned: 0
            }),
            "case {case}: unpruned"
        );
        for model in CommModel::ALL {
            let registry = Arc::new(MetricsRegistry::new());
            let problem = Problem::new(&app, model, Objective::MinLatency);
            let (_, stats) = solve_warm_observed(
                &problem,
                &budget,
                &EvalCache::new(&app),
                None,
                Some(&registry),
            )
            .expect("valid instance");
            let dag = stats.dag.expect("the DAG phase ran");
            let snapshot = registry.snapshot();
            assert_eq!(snapshot.counter("engine.dag.visited"), Some(dag.visited));
            assert_eq!(snapshot.counter("engine.dag.pruned"), Some(dag.pruned));
            println!("case {case} {model}: {dag:?}");
            assert!(
                dag.visited <= DAGS_AT_5 / 100 && dag.pruned > 0,
                "case {case} {model}: {dag:?}"
            );
        }
        let problem = Problem::new(&app, CommModel::Overlap, Objective::MinPeriod);
        let (_, stats) = solve_warm_observed(&problem, &budget, &EvalCache::new(&app), None, None)
            .expect("valid instance");
        assert_eq!(stats.dag, None, "case {case}: MINPERIOD walks forests only");
    }
}

/// An OUTORDER plan solve schedules its winner with the budget's OUTORDER
/// fields — its backtracking-node budget and bisection steps — not the
/// defaults: under a starved budget (one backtracking node, no bisection
/// steps) the solution's schedule is exactly the OUTORDER search of the
/// winning graph under that budget, and the default budget's search of the
/// same graph differs from it on some instance.
#[test]
fn outorder_plan_search_honours_the_budgets_outorder_fields() {
    let mut rng = StdRng::seed_from_u64(7);
    let starved = SearchBudget {
        outorder_node_budget: 1,
        outorder_refinement_steps: 0,
        ..SearchBudget::default()
    };
    let mut differs = 0;
    for case in 0..12 {
        let app = random_application(&RandomAppConfig::independent(5), &mut rng);
        let solution = solve(
            &Problem::new(&app, CommModel::OutOrder, Objective::MinPeriod),
            &starved,
        )
        .unwrap();
        let oracle = outorder_period_search(&app, &solution.graph, &starved).unwrap();
        let period = solution.oplist.expect("OUTORDER schedules").period();
        assert_eq!(
            period.to_bits(),
            oracle.oplist.period().to_bits(),
            "case {case}"
        );
        assert_eq!(solution.exhaustive, oracle.optimal, "case {case}");
        let unstarved =
            outorder_period_search(&app, &solution.graph, &SearchBudget::default()).unwrap();
        if unstarved.period != oracle.period {
            differs += 1;
        }
    }
    assert!(differs > 0, "the starved budget never changed a schedule");
}

/// Cutoff-bounded ordering searches: exact below the cutoff, and pruned only
/// when the true optimum indeed exceeds it.
#[test]
fn bounded_ordering_searches_match_unbounded() {
    let mut rng = StdRng::seed_from_u64(0xBB05);
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::independent(5), &mut rng);
        let graph = random_compatible_graph(&app, 0.5, &mut rng);

        let unbounded = oneport_latency_search(&app, &graph, 50_000).unwrap();
        assert!(unbounded.exhaustive);
        let evaluator = LatencyEvaluator::new(&app, &graph).unwrap();
        for factor in [0.5, 0.9, 1.0, 1.5] {
            let cutoff = unbounded.latency * factor;
            match oneport_latency_search_bounded(&evaluator, 50_000, Exec::serial(), cutoff)
                .unwrap()
            {
                None => assert!(
                    unbounded.latency > cutoff,
                    "case {case} x{factor}: pruned although optimum {} <= cutoff {cutoff}",
                    unbounded.latency
                ),
                Some(result) => {
                    if result.latency <= cutoff {
                        assert_eq!(result.latency, unbounded.latency, "case {case} x{factor}");
                        assert_eq!(result.orderings, unbounded.orderings);
                    } else {
                        assert!(unbounded.latency > cutoff);
                    }
                }
            }
        }
    }
}

/// `solve_all` (one shared evaluation cache across the sweep) is
/// bit-identical to independent `solve` calls.
#[test]
fn solve_all_matches_individual_solves() {
    let mut rng = StdRng::seed_from_u64(0xBB06);
    let requests: Vec<(CommModel, Objective)> = CommModel::ALL
        .into_iter()
        .flat_map(|model| {
            [Objective::MinPeriod, Objective::MinLatency]
                .into_iter()
                .map(move |objective| (model, objective))
        })
        .collect();
    for case in 0..CASES / 2 {
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        let budget = SearchBudget::default();
        let batch = solve_all(&app, &requests, &budget).unwrap();
        for (&(model, objective), batched) in requests.iter().zip(&batch) {
            let single = solve(&Problem::new(&app, model, objective), &budget).unwrap();
            assert_eq!(
                single.value, batched.value,
                "case {case} {model} {objective}"
            );
            assert_eq!(
                graph_edges(&single.graph),
                graph_edges(&batched.graph),
                "case {case} {model} {objective}"
            );
            assert_eq!(single.exhaustive, batched.exhaustive);
        }
    }
}

/// The canonical path: on uniform-weight instances the full solver stack
/// (symmetry-reduced, pruned, memoised) still returns the brute force's
/// optimum values.
#[test]
fn canonical_minimize_period_matches_brute_force_on_uniform_weights() {
    let mut rng = StdRng::seed_from_u64(0xBB07);
    for case in 0..CASES {
        // One weight pair shared by all services: filters and expanders.
        let shared = (
            0.5 + 3.0 * (case as f64) / CASES as f64,
            0.3 + 0.25 * case as f64,
        );
        let app = fsw::core::Application::independent(&[shared; 5]);
        let _ = &mut rng;
        for model in CommModel::ALL {
            let budget = SearchBudget::default();
            let result = minimize_period(&app, model, &budget).unwrap();
            assert!(result.exhaustive, "case {case} {model}");
            let brute = exhaustive_forest_best(&app, |g| {
                evaluate_period(&app, g, model).unwrap_or(f64::INFINITY)
            })
            .unwrap();
            assert_eq!(brute.0, result.value, "case {case} {model}: value");
            // The canonical winner is a representative of an optimal orbit:
            // it must achieve the optimum itself (the labelled witness may
            // differ from the raw enumeration's — the documented tie-break).
            let winner_value = evaluate_period(&app, &result.graph, model).unwrap_or(f64::INFINITY);
            assert_eq!(winner_value, result.value, "case {case} {model}: winner");
        }
    }
}

/// The OUTORDER cyclic backtracker now honours `SearchBudget::time_limit`:
/// an expired deadline still yields a feasible (INORDER-fallback) schedule,
/// flagged non-optimal.
#[test]
fn outorder_honours_time_limit() {
    let app = fsw::core::Application::independent(&[(4.0, 1.0); 5]);
    let graph = ExecutionGraph::from_edges(5, &[(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]).unwrap();
    let solution = solve(
        &Problem::on_graph(&app, CommModel::OutOrder, Objective::MinPeriod, &graph),
        &SearchBudget::default().with_time_limit(Duration::ZERO),
    )
    .unwrap();
    assert!(solution.value.is_finite());
    // The backtracker cannot reach the lower bound 7 within a zero budget;
    // the INORDER fallback is feasible but above it.
    assert!(solution.value > 7.0 + 1e-9);
    assert!(!solution.exhaustive);

    // With no limit the backtracker proves the bound (the legacy behaviour).
    let solution = solve(
        &Problem::on_graph(&app, CommModel::OutOrder, Objective::MinPeriod, &graph),
        &SearchBudget::default(),
    )
    .unwrap();
    assert!((solution.value - 7.0).abs() < 1e-9);
    assert!(solution.exhaustive);
}

/// The labelled walk collapses the optimum plateau of a serving request.
/// The four 6-service templates of a 4-template serving trace have
/// distinct weights, so a cold solve walks the labelled space, and their
/// OVERLAP optimum sits on the input-rate floor (period 1.0), which
/// thousands of plans tie.  The entry-node floor and tie dominance let a
/// serial cold MINPERIOD solve stop after a handful of evaluations; a walk
/// without them evaluates 819–2 365 candidates on these templates.
#[test]
fn serving_cold_solves_collapse_the_optimum_plateau() {
    let config = TraceConfig {
        tenants: 4,
        admissions_per_step: 4,
        steps: 0,
        templates: 4,
        services_per_tenant: 6,
        max_services: 6,
        mutation_rate: 0.0,
        requests_per_step: 4,
        jumbo_every: 0,
        jumbo_services: 24,
    };
    let apps = serving_trace(&config, &mut StdRng::seed_from_u64(1)).admitted_apps();
    assert_eq!(apps.len(), 4);
    for app in &apps {
        assert_eq!(app.n(), 6);
        assert!(!CanonicalSpace::class_reducible(app), "distinct weights");
        let problem = Problem::new(app, CommModel::Overlap, Objective::MinPeriod);
        let (solution, stats) = solve_warm_observed(
            &problem,
            &SearchBudget::default(),
            &EvalCache::new(app),
            None,
            None,
        )
        .unwrap();
        assert!(solution.exhaustive);
        assert_eq!(solution.value, 1.0, "the optimum sits on the input floor");
        assert!(
            stats.evaluated <= 64,
            "{} candidates evaluated on {app:?}",
            stats.evaluated
        );
    }
}
