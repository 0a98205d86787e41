//! Property tests for the symmetry-reduced canonical enumeration (seeded
//! random instances):
//!
//! * on **uniform-weight** instances the reduced searches must return the
//!   same optimum *value* as the unreduced engine and the brute force;
//! * the orbit accounting must cover the labelled space exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fsw::core::{Application, CommModel, ExecutionGraph, PlanMetrics};
use fsw::sched::engine::{CanonicalSpace, PartialPrune};
use fsw::sched::minlatency::minimize_latency;
use fsw::sched::minperiod::{
    exhaustive_dag_best, exhaustive_dag_search, exhaustive_forest_best, exhaustive_forest_search,
    minimize_period,
};
use fsw::sched::orchestrator::SearchBudget;
use fsw::sched::tree::tree_latency;
use fsw::sched::Exec;
use fsw_core::{classed_forest_representatives, forest_classes, WeightClasses};

const CASES: usize = 6;

/// A random uniform-weight application: one (cost, selectivity) pair —
/// filters and expanders alike — replicated across `n` services.
fn random_uniform_app(n: usize, rng: &mut StdRng) -> Application {
    let cost = rng.gen_range(0.2..8.0);
    let selectivity = rng.gen_range(0.1..1.8);
    Application::independent(&vec![(cost, selectivity); n])
}

/// Uniform weights: the canonical forest enumeration returns the brute
/// force's optimum value, for every model's period bound and for the exact
/// forest latency.
#[test]
fn canonical_forest_values_match_brute_force_on_uniform_weights() {
    let mut rng = StdRng::seed_from_u64(0xCA01);
    for case in 0..CASES {
        let n = 4 + case % 3; // 4..=6
        let app = random_uniform_app(n, &mut rng);
        assert!(CanonicalSpace::class_reducible(&app));
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
            // The canonical winner achieves the optimum itself.
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

/// Uniform weights: the DAG walk, which walks the labelled space whatever
/// the weights, returns the brute force's optimum value and winner (the
/// smallest edge-set key among the many tying DAGs).  Weights are dyadic,
/// so every volume sum is exact in `f64`.
#[test]
fn canonical_dag_values_match_brute_force_on_uniform_weights() {
    let mut rng = StdRng::seed_from_u64(0xCA02);
    let dyadic_costs = [0.5, 1.0, 2.0, 4.0];
    let dyadic_sels = [0.25, 0.5, 1.0, 2.0];
    for case in 0..CASES {
        let cost = dyadic_costs[rng.gen_range(0..dyadic_costs.len())];
        let sel = dyadic_sels[rng.gen_range(0..dyadic_sels.len())];
        let app = Application::independent(&[(cost, sel); 4]);
        for model in CommModel::ALL {
            let eval = |g: &ExecutionGraph| {
                PlanMetrics::compute(&app, g)
                    .map(|m| m.period_lower_bound(model))
                    .unwrap_or(f64::INFINITY)
            };
            let brute = exhaustive_dag_best(&app, 4, eval).unwrap();
            let walked = exhaustive_dag_search(
                &app,
                4,
                Exec::serial(),
                PartialPrune::Off,
                f64::INFINITY,
                &|g, _| eval(g),
                None,
            )
            .unwrap();
            assert_eq!(brute.0, walked.value, "case {case} {model}: value");
            assert_eq!(
                brute.1.edges().collect::<Vec<_>>(),
                walked.graph.edges().collect::<Vec<_>>(),
                "case {case} {model}: winner"
            );
        }
    }
}

/// Full solver stack on uniform instances: `minimize_period` /
/// `minimize_latency` (canonical path) equal the brute-force optima.
#[test]
fn uniform_solves_match_brute_force_end_to_end() {
    let mut rng = StdRng::seed_from_u64(0xCA04);
    for case in 0..CASES / 2 {
        let app = random_uniform_app(5, &mut rng);
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
        // MINLATENCY composes the canonical forest phase with the
        // (possibly reduced) seeded DAG phase; the value must still match
        // the brute-force forest-then-DAG composition.
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

/// The canonical space really is what the default budget enumerates at
/// n = 10: the raw space dwarfs the cap, yet the solve stays exhaustive.
#[test]
fn uniform_n10_is_exhaustive_within_the_default_budget() {
    let app = Application::independent(&[(2.5, 0.7); 10]);
    assert!(forest_classes(10) <= 2_000_000);
    assert_eq!(forest_classes(10), 1_842);
    let result = minimize_period(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
    assert!(result.exhaustive);
}

/// Orbit accounting at solver scale: every labelled forest is represented by
/// exactly one canonical class, so the per-class orbit sizes must sum to the
/// labelled count the raw enumeration would have visited.
#[test]
fn orbit_accounting_covers_the_labelled_space() {
    for n in [6usize, 9, 10] {
        let uniform = WeightClasses::of(&Application::independent(&vec![(2.0, 0.5); n]));
        let reps = classed_forest_representatives(&uniform, usize::MAX).expect("uncapped");
        let covered: u128 = reps.iter().map(|rep| rep.orbit).sum();
        assert_eq!(covered, fsw_core::labelled_forests(n), "n={n}");
        assert_eq!(reps.len() as u128, forest_classes(n), "n={n}");
    }
}
