//! Differential sweep of the exhaustive forest and DAG searches against
//! brute force (seeded random instances, std only).
//!
//! Each instance draws its services' weights from a handful of distinct
//! values, so selectivity products taken in different orders collide and
//! can round apart by an ulp; selectivities above 1 are included.  For
//! every model × candidate evaluation × thread count × cold or warm start,
//! `minimize_period` and `minimize_latency` (cold) and `solve_warm_observed`
//! seeded with the brute force's forest winner (warm) must return the value
//! of `exhaustive_forest_best` bit for bit — or, with MINLATENCY's DAG
//! phase on, of the forest-then-`exhaustive_dag_best` composition.
//! Instances without weight symmetry run the labelled walk, whose winner
//! must also be the brute force's first minimum; class-symmetric instances
//! run the streamed walk, which returns the canonical tie-break
//! representative, so only its value is compared.  The DAG walk itself
//! (`exhaustive_dag_search`, each DAG built once in its least topological
//! order) must return `exhaustive_dag_best`'s value and winner, the
//! smallest edge-set key among the optima, at every thread count, and its
//! latency-floor pruning must return the unpruned walk's value and winner.
//! The six-service comparison is `#[ignore]`d: run it in release with
//! `cargo test --release --test differential_sweep -- --ignored`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fsw::core::{
    canonical_classed_member, Application, CommModel, ExecutionGraph, PlanMetrics, WeightClasses,
};
use fsw::sched::engine::prune_threshold;
use fsw::sched::engine::{CanonicalSpace, EvalCache, PartialPrune};
use fsw::sched::latency::{
    latency_lower_bound, multiport_proportional_latency, oneport_latency_search_bounded,
    LatencyEvaluator,
};
use fsw::sched::minlatency::{evaluate_latency, minimize_latency};
use fsw::sched::minperiod::{
    evaluate_period, exhaustive_dag_best, exhaustive_dag_search, exhaustive_forest_best,
    minimize_period, PeriodEvaluation, SearchOutcome,
};
use fsw::sched::orchestrator::{solve_warm_observed, Objective, Problem, SearchBudget};
use fsw::sched::outorder::outorder_period_search;
use fsw::sched::tree::tree_latency;
use fsw::sched::Exec;
use fsw::workloads::query_optimization;

const COSTS: [f64; 4] = [0.25, 1.0, 2.5, 7.0];
const SELECTIVITIES: [f64; 5] = [0.45, 0.6, 0.7, 0.9, 1.3];
const THREADS: [usize; 3] = [1, 2, 4];
const EVALUATIONS: [PeriodEvaluation; 2] =
    [PeriodEvaluation::LowerBound, PeriodEvaluation::Orchestrated];

fn graph_edges(graph: &ExecutionGraph) -> Vec<(usize, usize)> {
    graph.edges().collect()
}

/// An `n`-service instance whose weights come from two costs and three
/// selectivities.  `symmetric` draws the (cost, selectivity) pairs with
/// replacement, so weight classes repeat; otherwise every service gets its
/// own pair and the instance has no weight symmetry.
fn instance(n: usize, symmetric: bool, rng: &mut StdRng) -> Application {
    let mut pick = |pool: &[f64], count: usize| {
        let mut chosen: Vec<f64> = Vec::with_capacity(count);
        while chosen.len() < count {
            let value = pool[rng.gen_range(0..pool.len())];
            if !chosen.contains(&value) {
                chosen.push(value);
            }
        }
        chosen
    };
    let costs = pick(&COSTS, 2);
    let selectivities = pick(&SELECTIVITIES, 3);
    let mut pairs: Vec<(f64, f64)> = costs
        .iter()
        .flat_map(|&c| selectivities.iter().map(move |&s| (c, s)))
        .collect();
    let specs: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            let at = rng.gen_range(0..pairs.len());
            if symmetric {
                pairs[at]
            } else {
                pairs.swap_remove(at)
            }
        })
        .collect();
    Application::independent(&specs)
}

/// The brute-force value of one forest under the plan search's own
/// candidate evaluation.  The orchestrated OUTORDER search values a forest
/// at its canonical class member on class-symmetric instances.
fn period_oracle(
    app: &Application,
    model: CommModel,
    budget: &SearchBudget,
    graph: &ExecutionGraph,
) -> f64 {
    if budget.period_evaluation == PeriodEvaluation::LowerBound {
        return PlanMetrics::compute(app, graph)
            .map(|m| m.period_lower_bound(model))
            .unwrap_or(f64::INFINITY);
    }
    if model == CommModel::OutOrder {
        let classes = WeightClasses::of(app);
        let member = if CanonicalSpace::class_reducible(app) {
            canonical_classed_member(&classes, graph).expect("forest candidates")
        } else {
            graph.clone()
        };
        return outorder_period_search(app, &member, budget)
            .map(|r| r.period)
            .unwrap_or(f64::INFINITY);
    }
    evaluate_period(app, graph, model, budget).unwrap_or(f64::INFINITY)
}

/// Checks one search outcome against the brute force's first minimum.
fn check(label: &str, app: &Application, outcome: &SearchOutcome, brute: &(f64, ExecutionGraph)) {
    assert!(outcome.exhaustive, "{label}: not exhaustive");
    assert_eq!(
        outcome.value.to_bits(),
        brute.0.to_bits(),
        "{label}: value {} against brute force {} on {app:?}",
        outcome.value,
        brute.0
    );
    if !CanonicalSpace::class_reducible(app) {
        assert_eq!(
            graph_edges(&outcome.graph),
            graph_edges(&brute.1),
            "{label}: labelled winner on {app:?}"
        );
    }
}

/// Runs the cold search and the warm solve seeded with `seed` (a forest:
/// only forests seed a solve) at every thread count, checking both against
/// the brute force.
fn sweep(
    label: &str,
    app: &Application,
    model: CommModel,
    objective: Objective,
    budget: &SearchBudget,
    brute: &(f64, ExecutionGraph),
    seed: &ExecutionGraph,
) {
    for threads in THREADS {
        let budget = SearchBudget { threads, ..*budget };
        let cold = match objective {
            Objective::MinPeriod => minimize_period(app, model, &budget),
            Objective::MinLatency => minimize_latency(app, model, &budget),
        }
        .expect("valid instance");
        check(&format!("{label} x{threads} cold"), app, &cold, brute);
        let problem = Problem::new(app, model, objective);
        let (warm, _) =
            solve_warm_observed(&problem, &budget, &EvalCache::new(app), Some(seed), None)
                .expect("valid instance");
        let warm = SearchOutcome {
            value: warm.value,
            graph: warm.graph,
            exhaustive: warm.exhaustive,
        };
        check(&format!("{label} x{threads} warm"), app, &warm, brute);
    }
}

/// MINPERIOD, every model and both candidate evaluations: the searches
/// return the brute force's value bit for bit, and its winner on the
/// labelled walk.
#[test]
fn period_searches_match_brute_force_on_colliding_weights() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    for case in 0..8 {
        let n = 5 + case % 2;
        let app = instance(n, case % 4 < 2, &mut rng);
        for model in CommModel::ALL {
            for evaluation in EVALUATIONS {
                // The orchestrated one-port brute force runs an ordering
                // search per forest: keep those to the five-service cases.
                if evaluation == PeriodEvaluation::Orchestrated
                    && model != CommModel::Overlap
                    && n > 5
                {
                    continue;
                }
                let budget = SearchBudget::default().with_period_evaluation(evaluation);
                let brute =
                    exhaustive_forest_best(&app, |g| period_oracle(&app, model, &budget, g))
                        .expect("the forest space fits the cap");
                let label = format!("case {case} n={n} {model} {evaluation:?}");
                sweep(
                    &label,
                    &app,
                    model,
                    Objective::MinPeriod,
                    &budget,
                    &brute,
                    &brute.1,
                );
            }
        }
    }
}

/// MINLATENCY's forest phase (the DAG phase is switched off), both
/// candidate evaluations: the searches return the brute force's
/// tree-latency optimum bit for bit, and its winner on the labelled walk.
#[test]
fn latency_searches_match_brute_force_on_colliding_weights() {
    let mut rng = StdRng::seed_from_u64(0xD1FE);
    for case in 0..4 {
        let n = 5 + case % 2;
        let app = instance(n, case < 2, &mut rng);
        let brute =
            exhaustive_forest_best(&app, |g| tree_latency(&app, g).unwrap_or(f64::INFINITY))
                .expect("the forest space fits the cap");
        for model in CommModel::ALL {
            for evaluation in EVALUATIONS {
                let budget = SearchBudget {
                    dag_enumeration_max_n: 0,
                    ..SearchBudget::default()
                }
                .with_period_evaluation(evaluation);
                let label = format!("case {case} n={n} {model} {evaluation:?} latency");
                sweep(
                    &label,
                    &app,
                    model,
                    Objective::MinLatency,
                    &budget,
                    &brute,
                    &brute.1,
                );
            }
        }
    }
}

/// MINLATENCY with the DAG phase on (n = 3–4, within
/// `dag_enumeration_max_n`): the searches return the brute-force
/// composition of the forest optimum and `exhaustive_dag_best` — a DAG wins
/// only when it is more than 1e-12 below every forest — bit for bit, and
/// its winner on the labelled walk.
#[test]
fn latency_searches_with_the_dag_phase_match_brute_force() {
    // This seed draws DAG winners on both walks (cases 0, 1 and 6).
    let mut rng = StdRng::seed_from_u64(12);
    let budget = SearchBudget {
        dag_enumeration_max_n: 4,
        ..SearchBudget::default()
    };
    let mut dag_wins = 0;
    for case in 0..8 {
        let n = 3 + case % 2;
        let app = instance(n, case % 4 < 2, &mut rng);
        let forest =
            exhaustive_forest_best(&app, |g| tree_latency(&app, g).unwrap_or(f64::INFINITY))
                .expect("the forest space fits the cap");
        for model in CommModel::ALL {
            let dag = exhaustive_dag_best(&app, budget.dag_enumeration_max_n, |g| {
                evaluate_latency(&app, g, model, budget.max_orderings).unwrap_or(f64::INFINITY)
            })
            .expect("n is within the DAG phase");
            let brute = if dag.0 < forest.0 - 1e-12 {
                dag_wins += 1;
                dag
            } else {
                forest.clone()
            };
            let label = format!("case {case} n={n} {model} latency with DAGs");
            sweep(
                &label,
                &app,
                model,
                Objective::MinLatency,
                &budget,
                &brute,
                &forest.1,
            );
        }
    }
    assert!(dag_wins > 0, "no instance has a DAG winner");
}

/// The DAG walk builds each DAG once, whichever worker holds it: on the
/// DAG sweep's instances (every model's latency), on a constrained
/// five-service MINPERIOD instance and on five services with distinct
/// weights valued by their critical path (the DAG phase's cutoff test on
/// the benchmark's five-service latency instances), `exhaustive_dag_search`
/// returns `exhaustive_dag_best`'s value bits and winner at 1, 2 and 4
/// threads.
#[test]
fn dag_search_matches_the_dag_brute_force_at_every_thread_count() {
    let mut rng = StdRng::seed_from_u64(12);
    let max_orderings = SearchBudget::default().max_orderings;
    type Eval = Box<dyn Fn(&Application, &ExecutionGraph) -> f64 + Sync>;
    let mut cases: Vec<(String, Application, Eval)> = Vec::new();
    for case in 0..8 {
        let n = 3 + case % 2;
        let app = instance(n, case % 4 < 2, &mut rng);
        for model in CommModel::ALL {
            cases.push((
                format!("case {case} n={n} {model} latency"),
                app.clone(),
                Box::new(move |app, g| {
                    evaluate_latency(app, g, model, max_orderings).unwrap_or(f64::INFINITY)
                }),
            ));
        }
    }
    let mut constrained = instance(5, false, &mut rng);
    constrained.add_constraint(0, 3).unwrap();
    constrained.add_constraint(2, 4).unwrap();
    cases.push((
        "constrained n=5 INORDER period".to_string(),
        constrained,
        Box::new(|app, g| {
            PlanMetrics::compute(app, g)
                .map(|m| m.period_lower_bound(CommModel::InOrder))
                .unwrap_or(f64::INFINITY)
        }),
    ));
    for case in 0..2 {
        cases.push((
            format!("distinct n=5 case {case} critical path"),
            instance(5, false, &mut rng),
            Box::new(|app, g| latency_lower_bound(app, g).unwrap_or(f64::INFINITY)),
        ));
    }
    for (label, app, eval) in &cases {
        let brute = exhaustive_dag_best(app, 5, |g| eval(app, g)).expect("n is within 5");
        for threads in THREADS {
            let found = exhaustive_dag_search(
                app,
                5,
                Exec::threaded(threads),
                PartialPrune::Off,
                f64::INFINITY,
                &|g, _| eval(app, g),
                None,
            )
            .expect("n is within 5");
            assert!(found.exhaustive, "{label} x{threads}");
            assert_eq!(
                found.value.to_bits(),
                brute.0.to_bits(),
                "{label} x{threads}: value"
            );
            assert_eq!(
                graph_edges(&found.graph),
                graph_edges(&brute.1),
                "{label} x{threads}: winner"
            );
        }
    }
}

/// MINLATENCY's DAG-phase candidate evaluation, from public parts: a
/// forest's exact tree latency; otherwise the best one-port ordering that
/// beats the cutoff (`∞` when none does), and under OVERLAP the
/// proportional multi-port schedule too.  A candidate whose critical path
/// strictly clears `cutoff` is valued `∞` up front, the test the pruned
/// walk makes at its last placement, so the unpruned walk stays cheap.
fn bounded_latency(
    app: &Application,
    model: CommModel,
    graph: &ExecutionGraph,
    cutoff: f64,
) -> f64 {
    if graph.is_forest() {
        return tree_latency(app, graph).unwrap_or(f64::INFINITY);
    }
    let Ok(evaluator) = LatencyEvaluator::new(app, graph) else {
        return f64::INFINITY;
    };
    if evaluator.lower_bound() > prune_threshold(cutoff) {
        return f64::INFINITY;
    }
    let fluid = (model == CommModel::Overlap).then(|| {
        multiport_proportional_latency(app, graph).map_or(f64::INFINITY, |(value, _)| value)
    });
    let max_orderings = SearchBudget::default().max_orderings;
    let oneport = match oneport_latency_search_bounded(
        &evaluator,
        max_orderings,
        Exec::serial(),
        fluid.map_or(cutoff, |f| cutoff.min(f)),
    ) {
        Ok(Some(result)) => result.latency,
        Ok(None) | Err(_) => f64::INFINITY,
    };
    fluid.map_or(oneport, |f| f.min(oneport))
}

/// Runs the DAG walk on `app` unpruned, serially, and under
/// `PartialPrune::Latency` at `threads`, both seeded with the forest
/// optimum and valued by [`bounded_latency`], and checks that the pruned
/// walks return the unpruned walk's value bits and winner.  Returns whether
/// a DAG beat the forest optimum.
fn pruned_walk_matches_the_unpruned_walk(
    label: &str,
    app: &Application,
    model: CommModel,
    threads: &[usize],
) -> bool {
    let forest = exhaustive_forest_best(app, |g| tree_latency(app, g).unwrap_or(f64::INFINITY))
        .expect("the forest space fits the cap");
    let eval = |g: &ExecutionGraph, cutoff: f64| bounded_latency(app, model, g, cutoff);
    let walk = |prune, threads| {
        exhaustive_dag_search(
            app,
            app.n(),
            Exec::threaded(threads),
            prune,
            forest.0,
            &eval,
            None,
        )
        .expect("n is within the DAG walk")
    };
    let unpruned = walk(PartialPrune::Off, 1);
    assert!(unpruned.exhaustive, "{label}: unpruned");
    for &threads in threads {
        let pruned = walk(PartialPrune::Latency, threads);
        assert!(pruned.exhaustive, "{label} x{threads}");
        assert_eq!(
            pruned.value.to_bits(),
            unpruned.value.to_bits(),
            "{label} x{threads}: value {} against the unpruned {} on {app:?}",
            pruned.value,
            unpruned.value
        );
        assert_eq!(
            graph_edges(&pruned.graph),
            graph_edges(&unpruned.graph),
            "{label} x{threads}: winner on {app:?}"
        );
    }
    unpruned.value < forest.0
}

/// The DAG walk's latency floor prunes without moving a winner: on
/// five-service instances with colliding weights, every model, the
/// `Latency`-pruned walk returns the unpruned walk's value bits and winner
/// at 1, 2 and 4 threads, with the forest optimum as both walks' seed and
/// the DAG phase's bounded evaluation as both walks' `eval`.
#[test]
fn the_latency_pruned_dag_walk_matches_the_unpruned_walk() {
    let mut rng = StdRng::seed_from_u64(0xDA6);
    let mut dag_wins = 0;
    for case in 0..3 {
        let app = instance(5, case == 0, &mut rng);
        for model in CommModel::ALL {
            let label = format!("case {case} n=5 {model}");
            dag_wins += usize::from(pruned_walk_matches_the_unpruned_walk(
                &label, &app, model, &THREADS,
            ));
        }
    }
    assert!(
        dag_wins > 0,
        "no instance has a DAG below the forest optimum"
    );
}

/// The six-service comparison of
/// [`the_latency_pruned_dag_walk_matches_the_unpruned_walk`], OVERLAP, on
/// two query-optimisation instances: the unpruned walk values all 3 781 503
/// labelled DAGs (about 12 s each in release), the pruned walk a small share.
#[test]
#[ignore = "about 25 s in release; run with --release -- --ignored"]
fn the_latency_pruned_dag_walk_matches_the_unpruned_walk_at_n6() {
    for seed in [1002, 1004] {
        let app = query_optimization(6, &mut StdRng::seed_from_u64(seed));
        let label = format!("query_optimization seed {seed} n=6 OVERLAP");
        let dag_won =
            pruned_walk_matches_the_unpruned_walk(&label, &app, CommModel::Overlap, &THREADS);
        assert!(dag_won, "{label}: a DAG beats the forest optimum");
    }
}
