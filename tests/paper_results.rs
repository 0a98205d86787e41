//! End-to-end reproduction of the paper's worked example and counter-examples
//! (experiments E1–E4 of EXPERIMENTS.md).

use fsw::core::{validate_oplist, CommModel, PlanMetrics};
use fsw::sched::latency::{multiport_proportional_latency, oneport_latency_search};
use fsw::sched::oneport::{oneport_period_search, OnePortStyle};
use fsw::sched::orchestrator::SearchBudget;
use fsw::sched::outorder::outorder_period_search;
use fsw::sched::overlap::{overlap_period_lower_bound, overlap_period_oplist};
use fsw::sim::{replay_oplist, simulate_inorder};
use fsw::workloads::{counterexample_b1, counterexample_b2, counterexample_b3, section23};

/// E1 — Section 2.3: period 4 / 7 / 23-3 under OVERLAP / OUTORDER / INORDER,
/// latency 21, all schedules valid and replayable.
#[test]
fn e1_section23_periods_and_latency() {
    let inst = section23();
    let app = &inst.app;
    let graph = inst.graph();

    // OVERLAP: optimal period 4 (Theorem 1).
    let overlap = overlap_period_oplist(app, graph).unwrap();
    assert_eq!(overlap.period(), 4.0);
    validate_oplist(app, graph, &overlap, CommModel::Overlap).unwrap();
    let replay = replay_oplist(app, graph, &overlap, CommModel::Overlap, 32).unwrap();
    assert!((replay.period - 4.0).abs() < 1e-9);

    // OUTORDER: optimal period 7 (the one-port lower bound is reached).
    let outorder = outorder_period_search(app, graph, &SearchBudget::default()).unwrap();
    assert!(outorder.optimal);
    assert!((outorder.period - 7.0).abs() < 1e-9);
    validate_oplist(app, graph, &outorder.oplist, CommModel::OutOrder).unwrap();

    // INORDER: optimal period 23/3.
    let inorder = oneport_period_search(app, graph, OnePortStyle::InOrder, 1_000).unwrap();
    assert!(inorder.exhaustive);
    assert!((inorder.period - 23.0 / 3.0).abs() < 1e-9);
    // The independent event-driven simulation agrees with the analysis.
    let sim = simulate_inorder(app, graph, &inorder.orderings, 400).unwrap();
    assert!((sim.period - 23.0 / 3.0).abs() < 0.05);

    // Latency 21, identical for all models on this instance.
    let latency = oneport_latency_search(app, graph, 1_000).unwrap();
    assert!(latency.exhaustive);
    assert!((latency.latency - 21.0).abs() < 1e-9);
    for model in CommModel::ALL {
        validate_oplist(app, graph, &latency.oplist, model).unwrap();
    }
}

/// E2 — Counter-example B.1: the no-communication optimal chain loses a factor
/// ~2 under OVERLAP, while the Figure 4 plan stays at (essentially) the
/// no-communication optimum of 100.
#[test]
fn e2_counterexample_b1_structure() {
    let inst = counterexample_b1();
    let fig4 = inst.graph_named("figure-4").unwrap();
    let chain = inst.graph_named("no-comm-chain").unwrap();

    let nocomm_period = |g: &fsw::core::ExecutionGraph| {
        let m = PlanMetrics::compute(&inst.app, g).unwrap();
        (0..inst.app.n())
            .map(|k| m.c_comp(k))
            .fold(0.0f64, f64::max)
    };
    // Without communications both plans sit at 100.
    assert!((nocomm_period(chain) - 100.0).abs() < 0.05);
    assert!((nocomm_period(fig4) - 100.0).abs() < 0.05);
    // With communications the chain doubles, Figure 4 does not.
    let chain_period = overlap_period_lower_bound(&inst.app, chain).unwrap();
    let fig4_period = overlap_period_lower_bound(&inst.app, fig4).unwrap();
    assert!(chain_period > 199.0, "chain period {chain_period}");
    assert!(fig4_period < 100.05, "figure-4 period {fig4_period}");
    assert!(chain_period > 1.9 * fig4_period);
}

/// E3 — Counter-example B.2: multi-port latency 20, one-port at least 21.
#[test]
fn e3_counterexample_b2_latency_gap() {
    let inst = counterexample_b2();
    let (multi, oplist) = multiport_proportional_latency(&inst.app, inst.graph()).unwrap();
    assert!((multi - 20.0).abs() < 1e-9, "multi-port latency {multi}");
    validate_oplist(&inst.app, inst.graph(), &oplist, CommModel::Overlap).unwrap();
    // One-port schedules cannot do better than 21 (paper: > 20).  The ordering
    // space is too large to enumerate, so this is the best schedule found by
    // the hill-climbing search; it stays >= 21, strictly above the multi-port value.
    let oneport = oneport_latency_search(&inst.app, inst.graph(), 10_000).unwrap();
    assert!(
        oneport.latency >= 21.0 - 1e-9,
        "one-port {}",
        oneport.latency
    );
    assert!(multi < oneport.latency - 0.5);
}

/// E4 — Counter-example B.3: multi-port period 12, one-port (with overlap)
/// strictly larger.
#[test]
fn e4_counterexample_b3_period_gap() {
    let inst = counterexample_b3();
    let multi = overlap_period_lower_bound(&inst.app, inst.graph()).unwrap();
    assert!((multi - 12.0).abs() < 1e-9);
    // The Proposition 1 schedule realises the bound.
    let oplist = overlap_period_oplist(&inst.app, inst.graph()).unwrap();
    validate_oplist(&inst.app, inst.graph(), &oplist, CommModel::Overlap).unwrap();
    // One-port with overlap: best ordering found stays strictly above 12.
    let oneport =
        oneport_period_search(&inst.app, inst.graph(), OnePortStyle::OverlapPorts, 2_000).unwrap();
    assert!(
        oneport.period > 12.0 + 0.5,
        "one-port period {}",
        oneport.period
    );
}
