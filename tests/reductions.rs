//! The NP-hardness reduction gadgets exercised end to end
//! (experiments E5–E7 of the `experiments` binary).

use rand::rngs::StdRng;
use rand::SeedableRng;

use fsw::core::{validate_oplist, CommModel};
use fsw::rn3dm::{
    no_instance, prop13_minlatency, prop2_period_outorder, prop9_latency_forkjoin, yes_instance,
    Rn3dmInstance,
};
use fsw::sched::latency::oneport_latency_search;
use fsw::sched::orchestrator::SearchBudget;
use fsw::sched::outorder::outorder_schedule_at;
use fsw::sched::tree::tree_latency;

/// E5 — Proposition 2 gadget: a YES RN3DM instance yields an execution graph
/// that admits an OUTORDER operation list of period exactly 2n+3.
#[test]
fn e5_prop2_yes_instances_reach_the_bound() {
    let mut rng = StdRng::seed_from_u64(42);
    for n in 2..=4 {
        let (inst, _) = yes_instance(n, &mut rng);
        let gadget = prop2_period_outorder(&inst);
        let oplist = outorder_schedule_at(
            &gadget.app,
            &gadget.graph,
            gadget.bound,
            &SearchBudget {
                outorder_node_budget: 2_000_000,
                ..SearchBudget::default()
            },
        )
        .unwrap()
        .unwrap_or_else(|| panic!("n = {n}: no schedule at the bound for a YES instance"));
        assert!((oplist.period() - gadget.bound).abs() < 1e-9);
        validate_oplist(&gadget.app, &gadget.graph, &oplist, CommModel::OutOrder)
            .unwrap_or_else(|v| panic!("n = {n}: {v:?}"));
    }
}

/// E5 (negative side) — a documented observation rather than a plain pass/fail
/// check.  The Proposition 2 converse argues that a NO instance admits no
/// operation list of period `2n + 3`; its proof implicitly assumes that all
/// operations of one data set on a server fit within a single period window
/// (which is forced under `INORDER`, the Proposition 3 variant).  Under the
/// *literal* `OUTORDER` rule set of Appendix A, our cyclic scheduler does find
/// a valid schedule at the bound for NO instances — but only by spreading one
/// data set over several period windows.  This test pins down exactly that
/// behaviour (experiment E5 of the `experiments` binary prints it).
#[test]
fn e5_prop2_no_instances_need_multi_window_schedules() {
    let mut rng = StdRng::seed_from_u64(7);
    let Some(inst) = no_instance(4, 2_000, &mut rng) else {
        // Extremely unlikely; the generator finds NO instances of size 4 with
        // this seed in practice.
        return;
    };
    assert!(!inst.is_yes());
    let gadget = prop2_period_outorder(&inst);
    let found = outorder_schedule_at(
        &gadget.app,
        &gadget.graph,
        gadget.bound,
        &SearchBudget {
            outorder_node_budget: 2_000_000,
            ..SearchBudget::default()
        },
    )
    .unwrap();
    if let Some(oplist) = found {
        // The schedule must still satisfy every stated OUTORDER rule...
        validate_oplist(&gadget.app, &gadget.graph, &oplist, CommModel::OutOrder)
            .unwrap_or_else(|v| panic!("{v:?}"));
        // ...and it necessarily spreads a single data set across more than one
        // period window (a window-confined schedule would contradict the
        // paper's counting argument, which we verified holds).
        let span = oplist.makespan() - oplist.start();
        assert!(
            span > 2.0 * gadget.bound,
            "unexpected window-confined schedule of span {span} at the bound"
        );
    }
}

/// E6 — Proposition 9 gadget: the optimal one-port latency of the fork-join
/// graph is exactly `n² + n + 4` for YES instances and strictly larger for NO
/// instances.
#[test]
fn e6_prop9_latency_gadget() {
    let mut rng = StdRng::seed_from_u64(3);
    for n in 2..=4 {
        let (inst, _) = yes_instance(n, &mut rng);
        let gadget = prop9_latency_forkjoin(&inst);
        let result = oneport_latency_search(&gadget.app, &gadget.graph, 1_000_000).unwrap();
        assert!(result.exhaustive, "n = {n}");
        assert!(
            (result.latency - gadget.bound).abs() < 1e-9,
            "n = {n}: latency {} vs bound {}",
            result.latency,
            gadget.bound
        );
    }
    // Negative side.
    if let Some(inst) = no_instance(4, 2_000, &mut StdRng::seed_from_u64(11)) {
        let gadget = prop9_latency_forkjoin(&inst);
        let result = oneport_latency_search(&gadget.app, &gadget.graph, 1_000_000).unwrap();
        assert!(result.exhaustive);
        assert!(
            result.latency > gadget.bound + 1.0 - 1e-9,
            "NO instance latency {} should exceed {}",
            result.latency,
            gadget.bound
        );
    }
}

/// E7 — Proposition 13 gadget: the intended fork-join plan reaches the bound
/// (adjusted for the input transfer) for YES instances, and no chain or forest
/// plan beats it.
#[test]
fn e7_prop13_minlatency_gadget() {
    let yes = Rn3dmInstance::new(vec![2, 4, 6]);
    assert!(yes.is_yes());
    let gadget = prop13_minlatency(&yes);
    let forkjoin = oneport_latency_search(&gadget.app, &gadget.graph, 100_000).unwrap();
    assert!(forkjoin.exhaustive);
    assert!(
        forkjoin.latency <= gadget.bound + 1e-9,
        "fork-join latency {} vs bound {}",
        forkjoin.latency,
        gadget.bound
    );
    // The join service has a huge selectivity: any plan that does not shield it
    // behind every middle service is far worse.  Check a few forest
    // alternatives explicitly.
    let n = gadget.app.n();
    let isolated = fsw::core::ExecutionGraph::new(n);
    let isolated_latency = tree_latency(&gadget.app, &isolated).unwrap();
    assert!(isolated_latency > gadget.bound * 2.0);

    // The negative side: a NO instance's fork-join plan stays above the bound.
    let no = Rn3dmInstance::new(vec![2, 2, 8, 8]);
    assert!(!no.is_yes());
    let gadget_no = prop13_minlatency(&no);
    let forkjoin_no = oneport_latency_search(&gadget_no.app, &gadget_no.graph, 2_000_000).unwrap();
    assert!(forkjoin_no.exhaustive);
    assert!(
        forkjoin_no.latency > gadget_no.bound + 1e-9,
        "NO instance latency {} should exceed {}",
        forkjoin_no.latency,
        gadget_no.bound
    );
}
