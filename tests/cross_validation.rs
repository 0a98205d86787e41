//! Cross-validation between the analytic schedulers, the model validator and
//! the discrete-event simulator on randomly generated instances.

use rand::rngs::StdRng;
use rand::SeedableRng;

use fsw::core::{validate_oplist, CommModel, PlanMetrics};
use fsw::sched::latency::{multiport_proportional_latency, oneport_latency_search};
use fsw::sched::oneport::{
    inorder_oplist_for_orderings, inorder_period_for_orderings, oneport_period_search, OnePortStyle,
};
use fsw::sched::orchestrator::SearchBudget;
use fsw::sched::outorder::outorder_period_search;
use fsw::sched::overlap::overlap_period_oplist;
use fsw::sched::tree::tree_latency;
use fsw::sched::CommOrderings;
use fsw::sim::{replay_oplist, simulate_inorder};
use fsw::workloads::{random_application, random_dag_graph, random_forest_graph, RandomAppConfig};

/// Every schedule produced by every orchestrator validates under its model and
/// respects the corresponding lower bound.
#[test]
fn schedulers_produce_valid_schedules_on_random_dags() {
    let mut rng = StdRng::seed_from_u64(20090601);
    for trial in 0..25 {
        let app = random_application(&RandomAppConfig::independent(6), &mut rng);
        let graph = random_dag_graph(6, 0.35, &mut rng);
        let metrics = PlanMetrics::compute(&app, &graph).unwrap();

        // OVERLAP (Proposition 1).
        let overlap = overlap_period_oplist(&app, &graph).unwrap();
        validate_oplist(&app, &graph, &overlap, CommModel::Overlap)
            .unwrap_or_else(|v| panic!("trial {trial}: {v:?}"));
        assert!(overlap.period() >= metrics.period_lower_bound(CommModel::Overlap) - 1e-9);

        // INORDER ordering search.
        let inorder = oneport_period_search(&app, &graph, OnePortStyle::InOrder, 2_000).unwrap();
        let ol = inorder_oplist_for_orderings(&app, &graph, &inorder.orderings).unwrap();
        validate_oplist(&app, &graph, &ol, CommModel::InOrder)
            .unwrap_or_else(|v| panic!("trial {trial}: {v:?}"));
        assert!(inorder.period >= metrics.period_lower_bound(CommModel::InOrder) - 1e-9);

        // OUTORDER search: valid, between the bound and the INORDER value.
        let outorder = outorder_period_search(&app, &graph, &SearchBudget::default()).unwrap();
        validate_oplist(&app, &graph, &outorder.oplist, CommModel::OutOrder)
            .unwrap_or_else(|v| panic!("trial {trial}: {v:?}"));
        assert!(outorder.period >= outorder.lower_bound - 1e-9);
        assert!(outorder.period <= inorder.period + 1e-6);

        // Latency schedules validate for every model.
        let latency = oneport_latency_search(&app, &graph, 2_000).unwrap();
        for model in CommModel::ALL {
            validate_oplist(&app, &graph, &latency.oplist, model)
                .unwrap_or_else(|v| panic!("trial {trial} {model}: {v:?}"));
        }
        let (fluid_latency, fluid) = multiport_proportional_latency(&app, &graph).unwrap();
        validate_oplist(&app, &graph, &fluid, CommModel::Overlap)
            .unwrap_or_else(|v| panic!("trial {trial}: {v:?}"));
        assert!(fluid_latency > 0.0);
    }
}

/// The event-driven simulator and the event-graph analysis agree on the
/// steady-state period of random forests under INORDER.
#[test]
fn simulator_agrees_with_event_graph_analysis() {
    let mut rng = StdRng::seed_from_u64(77);
    for _ in 0..15 {
        let app = random_application(&RandomAppConfig::independent(7), &mut rng);
        let graph = random_forest_graph(7, 0.8, &mut rng);
        let ords = CommOrderings::natural(&graph);
        let analytic = inorder_period_for_orderings(&app, &graph, &ords).unwrap();
        let simulated = simulate_inorder(&app, &graph, &ords, 300).unwrap();
        assert!(
            (simulated.period - analytic).abs() <= 0.05 * analytic.max(1.0),
            "simulated {} vs analytic {analytic}",
            simulated.period
        );
    }
}

/// Replaying the Proposition 1 schedule over a long stream matches its period
/// exactly and never violates a bandwidth constraint.
#[test]
fn overlap_replay_matches_analysis() {
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..10 {
        let app = random_application(&RandomAppConfig::independent(8), &mut rng);
        let graph = random_dag_graph(8, 0.3, &mut rng);
        let oplist = overlap_period_oplist(&app, &graph).unwrap();
        let report = replay_oplist(&app, &graph, &oplist, CommModel::Overlap, 50).unwrap();
        assert!((report.period - oplist.period()).abs() < 1e-9);
    }
}

/// On forests the Algorithm 1 latency matches the exhaustive ordering search.
#[test]
fn tree_latency_matches_search_on_random_forests() {
    let mut rng = StdRng::seed_from_u64(123);
    for _ in 0..15 {
        let app = random_application(&RandomAppConfig::independent(6), &mut rng);
        let graph = random_forest_graph(6, 0.7, &mut rng);
        let algo = tree_latency(&app, &graph).unwrap();
        let search = oneport_latency_search(&app, &graph, 100_000).unwrap();
        assert!(search.exhaustive);
        assert!(
            (algo - search.latency).abs() < 1e-9,
            "algorithm {algo} vs search {}",
            search.latency
        );
    }
}

/// The three models are consistently ordered: OVERLAP ≤ OUTORDER ≤ INORDER for
/// the period of any fixed execution graph.
#[test]
fn model_period_ordering_holds() {
    let mut rng = StdRng::seed_from_u64(31337);
    for _ in 0..10 {
        let app = random_application(&RandomAppConfig::independent(5), &mut rng);
        let graph = random_dag_graph(5, 0.4, &mut rng);
        let overlap = overlap_period_oplist(&app, &graph).unwrap().period();
        let outorder = outorder_period_search(&app, &graph, &SearchBudget::default())
            .unwrap()
            .period;
        let inorder = oneport_period_search(&app, &graph, OnePortStyle::InOrder, 2_000)
            .unwrap()
            .period;
        assert!(overlap <= outorder + 1e-6, "{overlap} vs {outorder}");
        assert!(outorder <= inorder + 1e-6, "{outorder} vs {inorder}");
    }
}
