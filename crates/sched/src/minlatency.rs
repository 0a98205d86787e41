//! MINLATENCY: choosing the execution graph that minimises the latency.
//!
//! All three variants are NP-hard (Theorem 4), and the restriction to forests
//! is NP-hard too (Proposition 17, by reduction from 2-Partition), while the
//! restriction to chains is polynomial (Proposition 16).  The solvers mirror
//! the MINPERIOD module:
//!
//! * exhaustive enumeration of forests (exact latency by Algorithm 1 /
//!   Proposition 12) and of all DAGs for tiny instances (the optimal graph
//!   need not be a forest for the latency — the Proposition 13 gadget is a
//!   fork-join);
//! * the Proposition 16 chain and the independent plan as constructive seeds,
//!   followed by the plan-space hill climb over parent reassignments that
//!   MINPERIOD's local search runs too;
//! * latency of a candidate graph measured exactly for forests, and by the
//!   one-port / multi-port orchestration searches for general DAGs.
//!
//! Every solver returns the plan searches' one [`SearchOutcome`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use fsw_core::{Application, CommModel, CoreResult, ExecutionGraph, PlanMetrics};

use crate::chain::{chain_graph, chain_minlatency_order};
use crate::engine::frontier::StreamProbe;
use crate::engine::{EvalCache, PartialPrune};
use crate::latency::{
    multiport_proportional_latency, oneport_latency_search, oneport_latency_search_bounded,
    LatencyEvaluator,
};
use crate::minperiod::{
    climb_plans, exhaustive_dag_search, exhaustive_forest_search, SearchOutcome,
};
use crate::orchestrator::SearchBudget;
use crate::orderings::CommOrderings;
use crate::par::Exec;
use crate::tree::tree_latency;

/// Evaluates the latency of a candidate execution graph under the requested model.
///
/// Forests are evaluated exactly (Proposition 12); general DAGs use the
/// ordering search (exhaustive within `max_orderings`, hill climbing
/// beyond), and the `Overlap` model additionally considers the proportional
/// multi-port schedule.
pub fn evaluate_latency(
    app: &Application,
    graph: &ExecutionGraph,
    model: CommModel,
    max_orderings: usize,
) -> CoreResult<f64> {
    if graph.is_forest() {
        return tree_latency(app, graph);
    }
    let oneport = oneport_latency_search(app, graph, max_orderings)?;
    let mut best = oneport.latency;
    if model == CommModel::Overlap {
        let (fluid, _) = multiport_proportional_latency(app, graph)?;
        best = best.min(fluid);
    }
    Ok(best)
}

/// Bounded (branch-and-bound aware) candidate evaluation of the DAG phase:
/// like [`evaluate_latency`], but may return any value above `cutoff` for
/// a candidate that cannot beat it, and memoises the one-port ordering
/// searches in `cache` (one search per canonical equivalence class).
///
/// The DAG walk never hands it a candidate whose critical path strictly
/// clears the incumbent: under [`PartialPrune::Latency`] the walk's floor
/// at a complete DAG is that critical path, so the test lives there.  The
/// ordering search still refuses such a candidate on its own (the cutoff
/// may have dropped since the walk read it).
fn evaluate_latency_bounded(
    app: &Application,
    graph: &ExecutionGraph,
    model: CommModel,
    max_orderings: usize,
    cache: &EvalCache,
    cutoff: f64,
    deadline: Option<Instant>,
) -> f64 {
    if graph.is_forest() {
        // Exact by Algorithm 1 — cheap enough to skip the cache entirely.
        return tree_latency(app, graph).unwrap_or(f64::INFINITY);
    }
    // The metrics are computed once here and shared with the ordering
    // search on a cache miss.
    let Ok(metrics) = PlanMetrics::compute(app, graph) else {
        return f64::INFINITY;
    };
    // The (cheap, exact) proportional multi-port schedule further tightens
    // the cutoff handed to the expensive one-port ordering search.
    let fluid = if model == CommModel::Overlap {
        multiport_proportional_latency(app, graph)
            .ok()
            .map(|(value, _)| value)
    } else {
        None
    };
    let inner_cutoff = fluid.map_or(cutoff, |f| cutoff.min(f));
    // The evaluator (operation skeleton) is built lazily so cache hits never
    // pay for it; it reuses the metrics computed above.
    let search = |c: f64| {
        let Ok(evaluator) = LatencyEvaluator::with_metrics(app, graph, &metrics) else {
            return f64::INFINITY;
        };
        let inner_exec = Exec {
            threads: 1,
            deadline,
        };
        match oneport_latency_search_bounded(&evaluator, max_orderings, inner_exec, c) {
            Ok(Some(result)) => result.latency,
            Ok(None) | Err(_) => f64::INFINITY,
        }
    };
    // With a deadline, inner searches may return deadline-truncated values:
    // honour the time limit, but never memoise wall-clock-dependent results.
    let oneport = if deadline.is_some() {
        search(inner_cutoff)
    } else {
        let exhaustive =
            CommOrderings::search_space_size(graph).is_some_and(|size| size <= max_orderings);
        cache.get_or_compute(graph, exhaustive, inner_cutoff, search)
    };
    fluid.map_or(oneport, |f| f.min(oneport))
}

/// Constructive seeds for the heuristic search; the streamed walk also
/// cuts its prelude at their value
/// ([`crate::engine::frontier::constructive_plans`]).
pub(crate) fn seed_graphs(app: &Application) -> Vec<ExecutionGraph> {
    let n = app.n();
    let mut seeds = Vec::new();
    if app.has_constraints() {
        if let Ok(g) = ExecutionGraph::from_edges(n, app.constraints()) {
            seeds.push(g);
        }
        return seeds;
    }
    seeds.push(ExecutionGraph::new(n));
    if let Ok(order) = chain_minlatency_order(app) {
        if let Ok(g) = chain_graph(n, &order) {
            seeds.push(g);
        }
    }
    seeds
}

/// Heuristic MINLATENCY: best seed followed by the plan-space hill climb
/// (the one MINPERIOD's local search runs), valued by [`evaluate_latency`]
/// for `model` within [`SearchBudget::max_orderings`], over
/// [`LOCAL_SEARCH_PASSES`](crate::minperiod::LOCAL_SEARCH_PASSES) passes at
/// most.
pub fn minlatency_local_search(
    app: &Application,
    model: CommModel,
    budget: &SearchBudget,
) -> CoreResult<SearchOutcome> {
    Ok(climb_plans(app, seed_graphs(app), |g| {
        evaluate_latency(app, g, model, budget.max_orderings).unwrap_or(f64::INFINITY)
    }))
}

/// Full MINLATENCY solver.
///
/// For unconstrained instances the forest space is enumerated exhaustively
/// when small enough; tiny instances are additionally searched over all DAGs
/// (the latency optimum may require a join, unlike the period).  Larger
/// instances fall back to the local-search heuristic.
///
/// `budget` supplies every knob, resolved the way
/// [`solve`](crate::orchestrator::solve) resolves it: the exhaustive phases
/// fan out over [`SearchBudget::threads`] workers (bit-identical to the
/// serial run) and honour [`SearchBudget::time_limit`], returning the best
/// graph found so far with `exhaustive == false` when the deadline
/// interrupts the enumeration.  The default budget is serial with no
/// deadline.
pub fn minimize_latency(
    app: &Application,
    model: CommModel,
    budget: &SearchBudget,
) -> CoreResult<SearchOutcome> {
    minimize_latency_engine(
        app,
        model,
        budget,
        budget.exec(),
        &EvalCache::new(app),
        f64::INFINITY,
        &AtomicUsize::new(0),
        None,
    )
}

/// The engine behind [`minimize_latency`] and
/// [`solve`](crate::orchestrator::solve) (the latency twin of
/// `minperiod::minimize_period_engine`): `exec` is the budget's resolved
/// execution, `cache` a caller-provided evaluation memo, and `evals` counts
/// full candidate evaluations.  `incumbent_seed` pre-loads the forest
/// phase's incumbent and tightens the DAG phase's seed (`∞` for a cold
/// solve).  Winners are bit-identical to the cold solve for any seed that
/// upper-bounds the **forest** optimum (callers seed from forest plans only
/// — `orchestrator::warm_seed` enforces this; a DAG value below every
/// forest would starve the forest phase and flip the near-tie arbitration
/// between the two phases).  `probe` receives the forest search's
/// telemetry and the DAG walk's.
#[allow(clippy::too_many_arguments)]
pub(crate) fn minimize_latency_engine(
    app: &Application,
    model: CommModel,
    budget: &SearchBudget,
    exec: Exec,
    cache: &EvalCache,
    incumbent_seed: f64,
    evals: &AtomicUsize,
    probe: Option<&StreamProbe>,
) -> CoreResult<SearchOutcome> {
    let mut best: Option<SearchOutcome> = None;
    if !app.has_constraints() {
        let eval = |g: &ExecutionGraph, _cutoff: f64| {
            evals.fetch_add(1, Ordering::Relaxed);
            tree_latency(app, g).unwrap_or(f64::INFINITY)
        };
        // Algorithm 1 is exact and purely structural, hence invariant under
        // class-preserving relabellings, as the orbit reduction of a
        // class-reducible instance requires.
        best = exhaustive_forest_search(
            app,
            budget.max_graphs,
            exec,
            PartialPrune::Latency,
            incumbent_seed,
            &eval,
            probe,
        );
    }
    if app.n() <= budget.dag_enumeration_max_n {
        // Seed the DAG phase's incumbent with the forest optimum (tightened
        // by the warm-start seed): a DAG only matters when it strictly beats
        // every forest, so candidates whose critical path already clears the
        // seed skip their ordering search.
        let seed = best
            .as_ref()
            .map_or(f64::INFINITY, |b| b.value)
            .min(incumbent_seed);
        let eval = |g: &ExecutionGraph, cutoff: f64| {
            evals.fetch_add(1, Ordering::Relaxed);
            evaluate_latency_bounded(
                app,
                g,
                model,
                budget.max_orderings,
                cache,
                cutoff,
                exec.deadline,
            )
        };
        // The walk drops every subtree whose critical-path floor strictly
        // clears the incumbent: those DAGs' latencies exceed it too.
        let dag = exhaustive_dag_search(
            app,
            budget.dag_enumeration_max_n,
            exec,
            PartialPrune::Latency,
            seed,
            &eval,
            probe,
        );
        if let Some(out) = dag {
            if best.as_ref().is_none_or(|b| out.value < b.value - 1e-12) {
                best = Some(out);
            }
        }
    }
    match best {
        Some(b) => Ok(b),
        None => minlatency_local_search(app, model, budget),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_filter_is_chained_in_front() {
        let app = Application::independent(&[(1.0, 0.1), (10.0, 1.0)]);
        let result = minimize_latency(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        assert!(result.exhaustive);
        assert!(result.graph.has_edge(0, 1));
        // in(1) + c0(1) + comm(0.1) + c1(0.1*10=1) + out(0.1)
        assert!((result.value - 3.2).abs() < 1e-9);
    }

    #[test]
    fn expanders_are_not_chained_for_latency() {
        // Chaining an expander in front of anything only increases the latency.
        let app = Application::independent(&[(1.0, 3.0), (1.0, 3.0)]);
        let result = minimize_latency(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        assert!(result.exhaustive);
        assert_eq!(result.graph.edge_count(), 0);
        // Each runs independently: 1 + 1 + 3 = 5.
        assert!((result.value - 5.0).abs() < 1e-9);
    }

    #[test]
    fn chain_restriction_matches_greedy() {
        let app = Application::independent(&[(2.0, 0.5), (1.0, 0.8), (3.0, 0.2)]);
        let order = chain_minlatency_order(&app).unwrap();
        let chain_value = crate::chain::chain_latency(&app, &order);
        // The unrestricted optimum can only be better or equal.
        let result = minimize_latency(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        assert!(result.value <= chain_value + 1e-9);
    }

    #[test]
    fn local_search_close_to_exhaustive() {
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8), (1.0, 0.6)]);
        let budget = SearchBudget::default();
        let exhaustive = minimize_latency(&app, CommModel::Overlap, &budget).unwrap();
        assert!(exhaustive.exhaustive);
        let local = minlatency_local_search(&app, CommModel::Overlap, &budget).unwrap();
        assert!(local.value >= exhaustive.value - 1e-9);
        assert!(local.value <= exhaustive.value * 1.25 + 1e-9);
    }

    #[test]
    fn constraints_are_respected() {
        let mut app = Application::independent(&[(1.0, 0.5), (2.0, 0.5), (3.0, 1.0)]);
        app.add_constraint(1, 2).unwrap();
        let result = minimize_latency(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        result.graph.respects(&app).unwrap();
    }

    #[test]
    fn forest_evaluation_matches_orchestration_for_trees() {
        // For a tree the exact Algorithm-1 value and the ordering search agree.
        let app = Application::independent(&[(1.0, 1.0), (2.0, 0.5), (3.0, 2.0), (1.0, 1.0)]);
        let g = ExecutionGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3)]).unwrap();
        let by_tree = tree_latency(&app, &g).unwrap();
        let by_search = oneport_latency_search(&app, &g, 10_000).unwrap();
        assert!(by_search.exhaustive);
        assert!((by_tree - by_search.latency).abs() < 1e-9);
        assert!(
            (evaluate_latency(&app, &g, CommModel::Overlap, 5_000).unwrap() - by_tree).abs() < 1e-9
        );
    }
}
