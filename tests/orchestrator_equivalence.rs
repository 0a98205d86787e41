//! Property tests for the unified orchestrator (seeded random instances):
//!
//! * `orchestrator::solve()` returns **bit-identical** periods / latencies to
//!   the legacy per-model entry points it replaces, for every communication
//!   model and both objectives, on fixed graphs and in plan search;
//! * the thread-parallel exhaustive searches return **bit-identical** results
//!   to their serial runs, including tie-breaking (the chosen graph and
//!   orderings match, not just the value).

use rand::rngs::StdRng;
use rand::SeedableRng;

use rand::Rng;

use fsw::core::{CommModel, CoreResult, ExecutionGraph, PlanMetrics};
use fsw::sched::engine::{CanonicalSpace, PartialPrune};
use fsw::sched::latency::{
    oneport_latency_for_orderings, oneport_latency_search, oneport_latency_search_bounded,
    LatencyEvaluator,
};
use fsw::sched::minlatency::minimize_latency;
use fsw::sched::minperiod::{exhaustive_forest_search, minimize_period, SearchOutcome};
use fsw::sched::oneport::{
    inorder_period_for_orderings, oneport_period_search, oneport_period_search_bounded,
    OnePortStyle, PeriodEvaluator,
};
use fsw::sched::orchestrator::{solve, Objective, Problem, SearchBudget};
use fsw::sched::outorder::outorder_period_search;
use fsw::sched::overlap::overlap_period_oplist;
use fsw::sched::{CommOrderings, Exec};
use fsw::workloads::{
    random_application, random_compatible_graph, random_dag_graph, RandomAppConfig,
};

const CASES: usize = 10;

fn graph_edges(graph: &ExecutionGraph) -> Vec<(usize, usize)> {
    graph.edges().collect()
}

/// Fixed-graph orchestration: `solve()` equals the legacy per-model entry
/// points bit-for-bit, for both objectives.
#[test]
fn fixed_graph_solve_matches_legacy() {
    let mut rng = StdRng::seed_from_u64(0xE1);
    let budget = SearchBudget::default();
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::independent(5), &mut rng);
        let graph = random_compatible_graph(&app, 0.5, &mut rng);

        // MINPERIOD × {OVERLAP, INORDER, OUTORDER}.
        let overlap = solve(
            &Problem::on_graph(&app, CommModel::Overlap, Objective::MinPeriod, &graph),
            &budget,
        )
        .unwrap();
        let legacy = overlap_period_oplist(&app, &graph).unwrap();
        assert_eq!(
            overlap.value,
            legacy.period(),
            "case {case}: OVERLAP period"
        );

        let inorder = solve(
            &Problem::on_graph(&app, CommModel::InOrder, Objective::MinPeriod, &graph),
            &budget,
        )
        .unwrap();
        let legacy =
            oneport_period_search(&app, &graph, OnePortStyle::InOrder, budget.max_orderings)
                .unwrap();
        assert_eq!(inorder.value, legacy.period, "case {case}: INORDER period");
        assert_eq!(
            inorder.orderings.as_ref(),
            Some(&legacy.orderings),
            "case {case}: INORDER orderings"
        );

        let outorder = solve(
            &Problem::on_graph(&app, CommModel::OutOrder, Objective::MinPeriod, &graph),
            &budget,
        )
        .unwrap();
        let legacy = outorder_period_search(&app, &graph, &budget).unwrap();
        assert_eq!(
            outorder.value, legacy.period,
            "case {case}: OUTORDER period"
        );

        // MINLATENCY: identical machinery for the one-port models.
        let latency = solve(
            &Problem::on_graph(&app, CommModel::InOrder, Objective::MinLatency, &graph),
            &budget,
        )
        .unwrap();
        let legacy = oneport_latency_search(&app, &graph, budget.max_orderings).unwrap();
        assert_eq!(latency.value, legacy.latency, "case {case}: latency");
        assert_eq!(
            latency.orderings.as_ref(),
            Some(&legacy.orderings),
            "case {case}: latency orderings"
        );
    }
}

/// Plan search: `solve()` equals the legacy `minimize_period` /
/// `minimize_latency` bit-for-bit (value and chosen graph).
#[test]
fn plan_search_solve_matches_legacy() {
    let mut rng = StdRng::seed_from_u64(0xE2);
    let budget = SearchBudget::default();
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        for model in CommModel::ALL {
            let solution =
                solve(&Problem::new(&app, model, Objective::MinPeriod), &budget).unwrap();
            let legacy = minimize_period(&app, model, &budget).unwrap();
            assert_eq!(solution.value, legacy.value, "case {case} {model}: period");
            assert_eq!(
                graph_edges(&solution.graph),
                graph_edges(&legacy.graph),
                "case {case} {model}: period graph"
            );

            let solution =
                solve(&Problem::new(&app, model, Objective::MinLatency), &budget).unwrap();
            let legacy = minimize_latency(&app, model, &budget).unwrap();
            assert_eq!(solution.value, legacy.value, "case {case} {model}: latency");
            assert_eq!(
                graph_edges(&solution.graph),
                graph_edges(&legacy.graph),
                "case {case} {model}: latency graph"
            );
        }
    }
}

/// Constrained applications follow the DAG-enumeration path; the orchestrator
/// must match the legacy solvers there too.
#[test]
fn constrained_plan_search_matches_legacy() {
    let mut rng = StdRng::seed_from_u64(0xE3);
    let budget = SearchBudget::default();
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::constrained(4, 0.3), &mut rng);
        for model in CommModel::ALL {
            let solution =
                solve(&Problem::new(&app, model, Objective::MinPeriod), &budget).unwrap();
            let legacy = minimize_period(&app, model, &budget).unwrap();
            assert_eq!(solution.value, legacy.value, "case {case} {model}");
            assert_eq!(graph_edges(&solution.graph), graph_edges(&legacy.graph));
            solution.graph.respects(&app).unwrap();
        }
    }
}

/// The thread-parallel exhaustive searches are bit-identical to serial runs:
/// same value, same winning graph / orderings, for every thread count.
#[test]
fn parallel_searches_equal_serial() {
    let mut rng = StdRng::seed_from_u64(0xE4);
    for case in 0..CASES {
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        let graph = random_compatible_graph(&app, 0.6, &mut rng);
        // Distinct weights: the forest search walks the labelled space.
        assert!(!CanonicalSpace::class_reducible(&app), "case {case}");

        // Forest enumeration, with and without branch-and-bound pruning:
        // every combination must agree bit-for-bit with the serial brute
        // force (value and tie-broken winner alike).
        let eval = |g: &ExecutionGraph, _cutoff: f64| {
            fsw::core::PlanMetrics::compute(&app, g)
                .map(|m| m.period_lower_bound(CommModel::Overlap))
                .unwrap_or(f64::INFINITY)
        };
        let serial: SearchOutcome = exhaustive_forest_search(
            &app,
            2_000_000,
            Exec::serial(),
            PartialPrune::Off,
            f64::INFINITY,
            &eval,
            None,
        )
        .unwrap();
        for threads in [1, 2, 3, 8] {
            for prune in [
                PartialPrune::Off,
                PartialPrune::StructuralPeriod(CommModel::Overlap),
            ] {
                let parallel = exhaustive_forest_search(
                    &app,
                    2_000_000,
                    Exec::threaded(threads), // auto split: two-level (n²) tasks
                    prune,
                    f64::INFINITY,
                    &eval,
                    None,
                )
                .unwrap();
                assert_eq!(
                    serial.value, parallel.value,
                    "case {case} x{threads} {prune:?}"
                );
                assert_eq!(
                    graph_edges(&serial.graph),
                    graph_edges(&parallel.graph),
                    "case {case} x{threads} {prune:?}: winning forest"
                );
                assert!(parallel.exhaustive);
            }
        }

        // Ordering enumeration, period and latency.
        let serial_p = oneport_period_search(&app, &graph, OnePortStyle::InOrder, 50_000).unwrap();
        let serial_l = oneport_latency_search(&app, &graph, 50_000).unwrap();
        let metrics = PlanMetrics::compute(&app, &graph).unwrap();
        let periods = PeriodEvaluator::new(&app, &graph, &metrics, OnePortStyle::InOrder).unwrap();
        let evaluator = LatencyEvaluator::new(&app, &graph).unwrap();
        for threads in [2, 5] {
            let par_p =
                oneport_period_search_bounded(&periods, 50_000, Exec::threaded(threads)).unwrap();
            assert_eq!(serial_p.period, par_p.period, "case {case} x{threads}");
            assert_eq!(
                serial_p.orderings, par_p.orderings,
                "case {case} x{threads}"
            );
            let par_l = oneport_latency_search_bounded(
                &evaluator,
                50_000,
                Exec::threaded(threads),
                f64::INFINITY,
            )
            .unwrap()
            .unwrap();
            assert_eq!(serial_l.latency, par_l.latency, "case {case} x{threads}");
            assert_eq!(
                serial_l.orderings, par_l.orderings,
                "case {case} x{threads}"
            );
        }
    }
}

/// An independent reference for the ordering searches' hill climb:
/// first-improvement adjacent swaps from the topological ordering — servers
/// in id order, each server's incoming list before its outgoing list — kept
/// when they improve `value` by more than `1e-12`, until a pass finds no
/// improvement.  Dead-locked candidates (`Err`) are skipped.
fn reference_climb<F>(graph: &ExecutionGraph, value: F) -> (f64, CommOrderings)
where
    F: Fn(&CommOrderings) -> CoreResult<f64>,
{
    let mut current = CommOrderings::topological(graph);
    let mut current_value = value(&current).expect("the topological ordering is feasible");
    loop {
        let mut improved = false;
        for server in 0..graph.n() {
            for outgoing in [false, true] {
                let len = if outgoing {
                    current.outgoing[server].len()
                } else {
                    current.incoming[server].len()
                };
                for pos in 0..len.saturating_sub(1) {
                    let mut candidate = current.clone();
                    if outgoing {
                        candidate.outgoing[server].swap(pos, pos + 1);
                    } else {
                        candidate.incoming[server].swap(pos, pos + 1);
                    }
                    if let Ok(v) = value(&candidate) {
                        if v + 1e-12 < current_value {
                            current = candidate;
                            current_value = v;
                            improved = true;
                        }
                    }
                }
            }
        }
        if !improved {
            return (current_value, current);
        }
    }
}

/// Beyond the ordering budget both one-port ordering searches hill-climb;
/// their climbs must match the reference climb above — value bits and
/// final orderings — valued through the public fixed-ordering functions.
#[test]
fn ordering_search_climbs_match_a_reference_climb() {
    let mut rng = StdRng::seed_from_u64(1717);
    let mut climbed = 0;
    for case in 0..150 {
        let n = rng.gen_range(3..=8);
        let app = random_application(&RandomAppConfig::independent(n), &mut rng);
        let p = rng.gen_range(0.2..0.8);
        let graph = random_dag_graph(n, p, &mut rng);
        // A one-element space fits the limit of 1 and is enumerated.
        if CommOrderings::search_space_size(&graph) == Some(1) {
            continue;
        }
        climbed += 1;

        let period = oneport_period_search(&app, &graph, OnePortStyle::InOrder, 1).unwrap();
        assert!(!period.exhaustive, "case {case}");
        let (value, orderings) =
            reference_climb(&graph, |o| inorder_period_for_orderings(&app, &graph, o));
        assert_eq!(
            period.period.to_bits(),
            value.to_bits(),
            "case {case}: period"
        );
        assert_eq!(period.orderings, orderings, "case {case}: period orderings");

        let latency = oneport_latency_search(&app, &graph, 1).unwrap();
        assert!(!latency.exhaustive, "case {case}");
        let (value, orderings) = reference_climb(&graph, |o| {
            oneport_latency_for_orderings(&app, &graph, o).map(|(l, _)| l)
        });
        assert_eq!(
            latency.latency.to_bits(),
            value.to_bits(),
            "case {case}: latency"
        );
        assert_eq!(
            latency.orderings, orderings,
            "case {case}: latency orderings"
        );
    }
    assert!(climbed >= 100, "only {climbed} of 150 instances climbed");
}

/// End-to-end: parallel `solve()` equals serial `solve()` on random
/// instances for every model × objective.
#[test]
fn parallel_solve_equals_serial_solve() {
    let mut rng = StdRng::seed_from_u64(0xE5);
    for _case in 0..CASES / 2 {
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        for model in CommModel::ALL {
            for objective in [Objective::MinPeriod, Objective::MinLatency] {
                let serial = solve(
                    &Problem::new(&app, model, objective),
                    &SearchBudget::default().with_threads(1),
                )
                .unwrap();
                let parallel = solve(
                    &Problem::new(&app, model, objective),
                    &SearchBudget::default().with_threads(6),
                )
                .unwrap();
                assert_eq!(serial.value, parallel.value, "{model} {objective}");
                assert_eq!(
                    graph_edges(&serial.graph),
                    graph_edges(&parallel.graph),
                    "{model} {objective}"
                );
                assert_eq!(serial.exhaustive, parallel.exhaustive);
            }
        }
    }
}

/// The canonical path is deterministic under parallelism: uniform-weight
/// solves (symmetry-reduced enumeration) are bit-identical for every thread
/// count and split depth, value and winner alike.
#[test]
fn canonical_parallel_solve_equals_serial() {
    for shared in [(2.0, 0.5), (1.0, 1.5)] {
        let app = fsw::core::Application::independent(&[shared; 6]);
        for model in CommModel::ALL {
            for objective in [Objective::MinPeriod, Objective::MinLatency] {
                let serial = solve(
                    &Problem::new(&app, model, objective),
                    &SearchBudget::default().with_threads(1),
                )
                .unwrap();
                let parallel = solve(
                    &Problem::new(&app, model, objective),
                    &SearchBudget::default().with_threads(6),
                )
                .unwrap();
                assert_eq!(
                    serial.value, parallel.value,
                    "{shared:?} {model} {objective}"
                );
                assert_eq!(
                    graph_edges(&serial.graph),
                    graph_edges(&parallel.graph),
                    "{shared:?} {model} {objective}: winner"
                );
                assert_eq!(serial.exhaustive, parallel.exhaustive);
            }
        }
    }
}

/// Smoke check that the re-exported orderings type stays usable from the
/// façade (the natural ordering of the winning graph is consistent).
#[test]
fn solution_orderings_are_consistent_with_graph() {
    let mut rng = StdRng::seed_from_u64(0xE6);
    let app = random_application(&RandomAppConfig::independent(4), &mut rng);
    let graph = random_compatible_graph(&app, 0.5, &mut rng);
    let solution = solve(
        &Problem::on_graph(&app, CommModel::InOrder, Objective::MinPeriod, &graph),
        &SearchBudget::default(),
    )
    .unwrap();
    let orderings = solution.orderings.expect("one-port solution");
    assert!(orderings.is_consistent_with(&graph));
    assert!(CommOrderings::natural(&graph).is_consistent_with(&graph));
}
