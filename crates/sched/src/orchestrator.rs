//! The unified solver entry point: one [`solve`] for every communication
//! model and objective.
//!
//! Every solver of the crate takes its effort from one budget type, so a
//! solve is described by three small types:
//!
//! * [`Problem`] — *what* to solve: an application, a communication model
//!   ([`CommModel`]), an [`Objective`] (MINPERIOD or MINLATENCY) and
//!   optionally a fixed execution graph (orchestration only) — when no graph
//!   is given the solver also searches the plan space;
//! * [`SearchBudget`] — *how hard* to try: one shared budget bounding every
//!   enumeration (ordering space, graph space, backtracking nodes), an
//!   optional wall-clock time limit, and the worker-thread fan-out.  This
//!   follows the bounded-search-space idea of Van Bemten et al. (Bounded
//!   Dijkstra, arXiv:1903.00436): algorithms take an explicit budget instead
//!   of scattering magic caps through the call tree;
//! * [`Solution`] — *what came back*: the objective value, the execution
//!   graph, a concrete schedule when the model's machinery produces one, and
//!   an `exhaustive` flag telling whether the value is optimal for the
//!   searched space or a heuristic upper bound.
//!
//! All exhaustive searches parallelise over [`SearchBudget::threads`] worker
//! threads and are **bit-identical to their serial runs** (see [`crate::par`]
//! for the reduction rule), so `threads` is purely a throughput knob.
//!
//! Two entry points cover every caller: [`solve`] for a one-off solve, and
//! [`solve_warm_observed`] for the batch and serving paths, which share an
//! evaluation cache, may seed the search with a warm plan, and may record
//! tracing spans; [`solve_all`] runs a model × objective sweep on top of it.
//!
//! ```
//! use fsw_core::{Application, CommModel};
//! use fsw_sched::orchestrator::{solve, Objective, Problem, SearchBudget};
//!
//! // The Section 2.3 example: five identical services, free plan choice.
//! let app = Application::independent(&[(4.0, 1.0); 5]);
//! let solution = solve(
//!     &Problem::new(&app, CommModel::Overlap, Objective::MinPeriod),
//!     &SearchBudget::default(),
//! )
//! .unwrap();
//! assert!(solution.exhaustive);
//! assert!((solution.value - 4.0).abs() < 1e-9);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fsw_core::{Application, CommModel, CoreResult, ExecutionGraph, OperationList, PlanMetrics};

use crate::engine::EvalCache;
use crate::latency::{
    multiport_proportional_latency, oneport_latency_search_bounded, LatencyEvaluator,
};
use crate::minlatency::minimize_latency_engine;
use crate::minperiod::minimize_period_engine;
use crate::oneport::{inorder_oplist_for_orderings, oneport_period_search_bounded, OnePortStyle};
use crate::orderings::CommOrderings;
use crate::outorder::outorder_period_search_bounded;
use crate::overlap::overlap_period_oplist;
use crate::par::Exec;

/// The objective a [`Problem`] optimises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimise the period (inverse throughput) of the steady-state schedule.
    MinPeriod,
    /// Minimise the latency (response time) of one data set.
    MinLatency,
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::MinPeriod => write!(f, "MINPERIOD"),
            Objective::MinLatency => write!(f, "MINLATENCY"),
        }
    }
}

/// A solver instance: what to optimise, for which application, under which
/// communication model — and optionally on which fixed execution graph.
#[derive(Clone, Copy, Debug)]
pub struct Problem<'a> {
    /// The application (services, selectivities, precedence constraints).
    pub app: &'a Application,
    /// The communication model the schedule must respect.
    pub model: CommModel,
    /// The quantity to minimise.
    pub objective: Objective,
    /// `Some(graph)` restricts the solve to *orchestration*: find the best
    /// schedule for this execution graph.  `None` also searches the plan
    /// space (forests, plus all DAGs on tiny instances).
    pub graph: Option<&'a ExecutionGraph>,
}

impl<'a> Problem<'a> {
    /// A plan-optimisation problem: the solver chooses the execution graph.
    pub fn new(app: &'a Application, model: CommModel, objective: Objective) -> Self {
        Problem {
            app,
            model,
            objective,
            graph: None,
        }
    }

    /// An orchestration problem on a fixed execution graph.
    pub fn on_graph(
        app: &'a Application,
        model: CommModel,
        objective: Objective,
        graph: &'a ExecutionGraph,
    ) -> Self {
        Problem {
            app,
            model,
            objective,
            graph: Some(graph),
        }
    }
}

/// One shared budget for every enumeration a solve may perform.
///
/// The plan searches ([`minimize_period`](crate::minperiod::minimize_period),
/// [`minimize_latency`](crate::minlatency::minimize_latency)), their
/// local-search fallbacks and the OUTORDER search
/// ([`outorder_period_search`](crate::outorder::outorder_period_search))
/// take it too, so one value describes the effort of every solver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchBudget {
    /// Bound on the communication-ordering space enumerated exhaustively;
    /// beyond it the ordering searches fall back to hill climbing.  Read by
    /// every ordering search a solve runs: the orchestration of a fixed
    /// graph or of a plan search's winner, the OUTORDER search's `INORDER`
    /// fallback and MINLATENCY's DAG candidates.
    pub max_orderings: usize,
    /// Bound on the execution-graph space enumerated exhaustively; beyond
    /// it the plan search falls back to seeded local search.  The space it
    /// measures depends on the walk the search resolves to: parent
    /// functions on the raw labelled space, and **shapes** (A000081
    /// forest-isomorphism classes — 32 973 at `n = 13`) on the streamed
    /// canonical walk, which never materialises the coloured space and so
    /// stays exhaustive where the coloured count dwarfs the cap.
    pub max_graphs: usize,
    /// Optional wall-clock limit.  When it expires, the graph and ordering
    /// enumerations stop and the best candidate found so far is returned with
    /// `exhaustive == false`; the OUTORDER cyclic backtracker and its
    /// bisection refinement honour it too (on top of
    /// [`SearchBudget::outorder_node_budget`]).
    pub time_limit: Option<Duration>,
    /// Worker threads for the exhaustive searches; `0` = available
    /// parallelism, `1` = serial.  Results are identical for every value.
    pub threads: usize,
    /// Backtracking-node budget of the OUTORDER cyclic scheduler.
    pub outorder_node_budget: usize,
    /// Bisection steps of the OUTORDER period refinement.
    pub outorder_refinement_steps: usize,
    /// Instances up to this size also search all DAGs for MINLATENCY (the
    /// latency optimum may require a join, unlike the period).  Hard-capped
    /// at [`crate::minperiod::DAG_ENUMERATION_HARD_MAX_N`] by the engine.
    pub dag_enumeration_max_n: usize,
}

impl Default for SearchBudget {
    fn default() -> Self {
        SearchBudget {
            max_orderings: 5_000,
            max_graphs: 2_000_000,
            time_limit: None,
            threads: 1,
            outorder_node_budget: 200_000,
            outorder_refinement_steps: 8,
            dag_enumeration_max_n: 5,
        }
    }
}

impl SearchBudget {
    /// Caps both enumerations explicitly.
    pub fn exhaustive_up_to(max_orderings: usize, max_graphs: usize) -> Self {
        SearchBudget {
            max_orderings,
            max_graphs,
            ..SearchBudget::default()
        }
    }

    /// Returns the budget with a wall-clock time limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Returns the budget with an explicit worker-thread fan-out
    /// (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Materialises the execution strategy (resolves the deadline now).
    pub(crate) fn exec(&self) -> Exec {
        Exec {
            threads: self.threads,
            deadline: self.time_limit.map(|d| Instant::now() + d),
        }
    }
}

/// Result of a [`solve`] call.
#[derive(Clone, Debug)]
pub struct Solution {
    /// The objective that was optimised.
    pub objective: Objective,
    /// The communication model the solution respects.
    pub model: CommModel,
    /// The objective value (period or latency).  For a plan search this is
    /// the value of the search's evaluation (for MINPERIOD the winner's
    /// structural bound `max_k Cexec(k)`,
    /// [`evaluate_period`](crate::minperiod::evaluate_period)); for
    /// orchestration on a fixed graph it is the achieved schedule value.
    pub value: f64,
    /// The model's structural lower bound for the returned graph
    /// (`max_k Cexec(k)` / `max_k (Cin+Ccomp+Cout)` for periods, the critical
    /// path for latencies).
    pub lower_bound: f64,
    /// The execution graph of the solution (the fixed one, or the best found).
    pub graph: ExecutionGraph,
    /// A concrete cyclic schedule realising the solve, when the model's
    /// orchestration machinery produces one.  Its `period()` / `latency()`
    /// may sit above [`Solution::value`]: the plan search values candidates
    /// by a closed form — for MINPERIOD the structural bound, which a
    /// one-port schedule need not reach — while the schedule comes from the
    /// budget-capped orchestration of the winner.
    pub oplist: Option<OperationList>,
    /// The communication orderings behind [`Solution::oplist`], for the
    /// one-port models.
    pub orderings: Option<CommOrderings>,
    /// `true` when the value is optimal for the searched space (every
    /// enumeration ran to completion within the budget).  For OUTORDER this
    /// reflects the budgeted backtracker reaching the structural lower bound.
    pub exhaustive: bool,
}

/// Solves `problem` within `budget` — the single entry point covering all
/// three communication models for both MINPERIOD and MINLATENCY, with or
/// without a fixed execution graph.
pub fn solve(problem: &Problem<'_>, budget: &SearchBudget) -> CoreResult<Solution> {
    solve_warm_observed(problem, budget, &EvalCache::new(problem.app), None, None)
        .map(|(solution, _)| solution)
}

/// Solves a whole model × objective sweep over one application, sharing a
/// single candidate-evaluation cache ([`crate::engine::EvalCache`]) across
/// the requests: plan metrics signatures are computed once per application
/// and the expensive ordering searches memoised per canonical graph class
/// are reused by every solve of the batch (the one-port latency of a
/// candidate DAG, for instance, is model-independent).  Results are
/// bit-identical to calling [`solve`] once per request; requests are solved
/// in order and each gets its own [`SearchBudget::time_limit`] window.
pub fn solve_all(
    app: &Application,
    requests: &[(CommModel, Objective)],
    budget: &SearchBudget,
) -> CoreResult<Vec<Solution>> {
    let cache = EvalCache::new(app);
    requests
        .iter()
        .map(|&(model, objective)| {
            let problem = Problem::new(app, model, objective);
            solve_warm_observed(&problem, budget, &cache, None, None).map(|(solution, _)| solution)
        })
        .collect()
}

/// Telemetry of one plan solve, for the serving layer and its tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Number of candidate execution graphs fully evaluated by the plan
    /// search (pruned candidates are not counted).  `0` for fixed-graph
    /// orchestration problems.
    pub evaluated: usize,
    /// Telemetry of the plan search, attached by **both walks**: the
    /// streamed canonical walk reports shape counts, the shape records its
    /// prelude held, expansions, bounded peak residency and certified
    /// discards; the depth-first walk of the labelled space reports its
    /// expansions (`shapes` stays 0 — no shape plan exists) with the
    /// worker count as residency.  The statistics carry no orbit total:
    /// count one with [`classed_class_count`](fsw_core::classed_class_count)
    /// or [`forest_classes`](fsw_core::forest_classes).  `None` for
    /// fixed-graph orchestration problems, the hill-climbing fallbacks and
    /// a solve that walks DAGs only (precedence constraints), where no
    /// forest space is walked.
    pub stream: Option<crate::engine::frontier::StreamStats>,
    /// Telemetry of the DAG walk, when the solve ran one (MINLATENCY's DAG
    /// phase, or a constrained MINPERIOD instance): the DAGs it valued and
    /// the subtrees it pruned.  The registry's `engine.dag.visited` and
    /// `engine.dag.pruned` counters receive the same record.
    pub dag: Option<crate::engine::frontier::DagStats>,
    /// The warm-start upper bound the search's incumbent was seeded with
    /// (the previous plan's value on the current instance), when one was
    /// supplied and feasible.
    pub warm_value: Option<f64>,
}

/// [`solve`] for the batch and serving paths: a caller-provided evaluation
/// cache, an optional warm start, and optional observability.  Results are
/// bit-identical to [`solve`].
///
/// The application is validated first ([`Application::validate`]), so an
/// application with no services, a non-positive or non-finite cost, a
/// negative selectivity or cyclic constraints gets `validate`'s error
/// rather than a value.  `cache` must have been built for `problem.app`; a
/// cache built for another application is refused with an error.
/// `solve_all` shares one across a model × objective sweep; the serving
/// layer (`fsw_serve`) shares one per application fingerprint across a
/// batch's cold solves, and its online sessions retain one across re-plans
/// of an unchanged instance.
///
/// `warm` is a previously optimal execution graph (e.g. the tenant's plan
/// before a service arrived, adapted to the current service set).  Its
/// value on the *current* instance is a feasible upper bound on the
/// optimum, so the plan search's incumbent is seeded with it and the
/// enumeration prunes the hopeless region from the first candidate on — the
/// online re-planning entry point of the serving layer.  The solution stays
/// **bit-identical** to a cold solve: seeding never prunes a candidate that
/// ties the optimum (strict clearance only), so the first-minimum winner
/// and its value are unchanged; only [`SolveStats::evaluated`] shrinks.  An
/// infeasible or wrong-sized `warm` graph is ignored.
///
/// When `metrics` is supplied the solve records tracing spans for its
/// phases (`solve.search` — the plan search, `solve.orchestrate` —
/// scheduling the winning graph, plus the engine-stage spans
/// `engine.shape_stream` / `engine.expand` / `engine.certify` inside the
/// streamed walk) and publishes the plan search's
/// [`StreamStats`](crate::engine::frontier::StreamStats) into
/// `engine.stream.*` instruments and a DAG walk's
/// [`DagStats`](crate::engine::frontier::DagStats) into `engine.dag.*`.  The solve itself is untouched —
/// instrumented and plain runs return bit-identical solutions and stats.
pub fn solve_warm_observed(
    problem: &Problem<'_>,
    budget: &SearchBudget,
    cache: &EvalCache,
    warm: Option<&ExecutionGraph>,
    metrics: Option<&std::sync::Arc<fsw_obs::MetricsRegistry>>,
) -> CoreResult<(Solution, SolveStats)> {
    problem.app.validate()?;
    // The cache key carries the weight-class *partition signature*, not the
    // weight bits themselves (two different applications with the same
    // partition pattern collide), so a cache built for another application
    // would silently serve its memoised evaluations here.  Enforce the
    // pairing the private callers used to guarantee by construction.
    if cache.app() != problem.app {
        return Err(fsw_core::CoreError::Unsupported {
            reason: "evaluation cache was built for a different application",
        });
    }
    let exec = budget.exec();
    let evals = AtomicUsize::new(0);
    let probe = match metrics {
        Some(registry) => crate::engine::frontier::StreamProbe::with_metrics(registry.clone()),
        None => crate::engine::frontier::StreamProbe::default(),
    };
    let search_span = metrics.map(|r| r.span("solve.search"));
    let orchestrate_span = metrics.map(|r| r.span("solve.orchestrate"));
    let orchestrated = |f: &dyn Fn() -> CoreResult<Solution>| -> CoreResult<Solution> {
        let _span = orchestrate_span.as_ref().map(|t| t.start());
        f()
    };
    let mut stats = SolveStats::default();
    let solution = match (problem.graph, problem.objective) {
        (Some(graph), Objective::MinPeriod) => {
            orchestrated(&|| orchestrate_period(problem.app, problem.model, graph, budget, exec))?
        }
        (Some(graph), Objective::MinLatency) => {
            orchestrated(&|| orchestrate_latency(problem.app, problem.model, graph, budget, exec))?
        }
        (None, Objective::MinPeriod) => {
            let seed = warm_seed(problem, budget, warm);
            stats.warm_value = seed;
            let searched = search_span.as_ref().map(|t| t.start());
            let result = minimize_period_engine(
                problem.app,
                problem.model,
                budget,
                exec,
                seed.unwrap_or(f64::INFINITY),
                &evals,
                Some(&probe),
            )?;
            drop(searched);
            let mut solution = orchestrated(&|| {
                orchestrate_period(problem.app, problem.model, &result.graph, budget, exec)
            })?;
            // Report the search's own value (bit-identical to the legacy
            // `minimize_period`); the orchestrated schedule stays available
            // through `oplist`.
            solution.value = result.value;
            solution.exhaustive = result.exhaustive && solution.exhaustive;
            solution
        }
        (None, Objective::MinLatency) => {
            let seed = warm_seed(problem, budget, warm);
            stats.warm_value = seed;
            let searched = search_span.as_ref().map(|t| t.start());
            let result = minimize_latency_engine(
                problem.app,
                problem.model,
                budget,
                exec,
                cache,
                seed.unwrap_or(f64::INFINITY),
                &evals,
                Some(&probe),
            )?;
            drop(searched);
            let mut solution = orchestrated(&|| {
                orchestrate_latency(problem.app, problem.model, &result.graph, budget, exec)
            })?;
            solution.value = result.value;
            solution.exhaustive = result.exhaustive && solution.exhaustive;
            solution
        }
    };
    stats.evaluated = evals.load(Ordering::Relaxed);
    stats.stream = probe.snapshot();
    stats.dag = probe.dag_snapshot();
    Ok((solution, stats))
}

/// The warm-start seed: the warm graph's value under the problem's own
/// candidate evaluation, when the graph fits the instance.  Not counted in
/// [`SolveStats::evaluated`] (it is a single re-pricing outside the search;
/// `warm_value` records that it happened), so `evaluated` compares
/// like-for-like against a cold search and a warm solve can never report
/// more evaluations than the cold solve it shadows.
fn warm_seed(
    problem: &Problem<'_>,
    budget: &SearchBudget,
    warm: Option<&ExecutionGraph>,
) -> Option<f64> {
    let graph = warm?;
    if graph.n() != problem.app.n() || graph.respects(problem.app).is_err() {
        return None;
    }
    // Only **forest** warm graphs may seed.  A seed must never undercut a
    // candidate the search would otherwise have kept: the unconstrained
    // MINPERIOD plan space is forests (Proposition 4 makes any forest value
    // a safe upper bound), and MINLATENCY seeds its *forest phase* with
    // this value — a DAG's latency can undercut every forest and starve
    // that phase, flipping the near-tie arbitration with the DAG phase
    // (cold keeps the forest inside its 1e-12 acceptance band; a
    // DAG-seeded warm solve would not), so non-forest graphs are ignored
    // even where the DAG space is searched.
    if !graph.is_forest() {
        return None;
    }
    let value = match problem.objective {
        Objective::MinPeriod => {
            crate::minperiod::evaluate_period(problem.app, graph, problem.model).ok()?
        }
        Objective::MinLatency => crate::minlatency::evaluate_latency(
            problem.app,
            graph,
            problem.model,
            budget.max_orderings,
        )
        .ok()?,
    };
    value.is_finite().then_some(value)
}

/// Best schedule for a fixed graph, period objective.
fn orchestrate_period(
    app: &Application,
    model: CommModel,
    graph: &ExecutionGraph,
    budget: &SearchBudget,
    exec: Exec,
) -> CoreResult<Solution> {
    let metrics = PlanMetrics::compute(app, graph)?;
    let lower_bound = metrics.period_lower_bound(model);
    let (value, oplist, orderings, exhaustive) = match model {
        CommModel::Overlap => {
            // Theorem 1: the lower bound is achieved by an explicit schedule.
            let oplist = overlap_period_oplist(app, graph)?;
            (oplist.period(), Some(oplist), None, true)
        }
        CommModel::InOrder => {
            let search = oneport_period_search_bounded(
                app,
                graph,
                &metrics,
                OnePortStyle::InOrder,
                budget.max_orderings,
                exec,
            )?;
            let oplist = inorder_oplist_for_orderings(app, graph, &search.orderings)?;
            (
                search.period,
                Some(oplist),
                Some(search.orderings),
                search.exhaustive,
            )
        }
        CommModel::OutOrder => {
            let search = outorder_period_search_bounded(app, graph, budget, exec)?;
            (search.period, Some(search.oplist), None, search.optimal)
        }
    };
    Ok(Solution {
        objective: Objective::MinPeriod,
        model,
        value,
        lower_bound,
        graph: graph.clone(),
        oplist,
        orderings,
        exhaustive,
    })
}

/// Best schedule for a fixed graph, latency objective.
fn orchestrate_latency(
    app: &Application,
    model: CommModel,
    graph: &ExecutionGraph,
    budget: &SearchBudget,
    exec: Exec,
) -> CoreResult<Solution> {
    let evaluator = LatencyEvaluator::new(app, graph)?;
    let lower_bound = evaluator.lower_bound();
    let oneport =
        oneport_latency_search_bounded(&evaluator, budget.max_orderings, exec, f64::INFINITY)?
            .expect("an infinite cutoff never prunes the search");
    let (value, oplist, orderings, exhaustive) = if model == CommModel::Overlap {
        // Bounded multi-port bandwidth sharing can strictly beat every
        // one-port schedule (counter-example B.2).
        let (fluid, fluid_oplist) = multiport_proportional_latency(app, graph)?;
        if fluid <= oneport.latency {
            (fluid, Some(fluid_oplist), None, oneport.exhaustive)
        } else {
            (
                oneport.latency,
                Some(oneport.oplist),
                Some(oneport.orderings),
                oneport.exhaustive,
            )
        }
    } else {
        (
            oneport.latency,
            Some(oneport.oplist),
            Some(oneport.orderings),
            oneport.exhaustive,
        )
    };
    Ok(Solution {
        objective: Objective::MinLatency,
        model,
        value,
        lower_bound,
        graph: graph.clone(),
        oplist,
        orderings,
        exhaustive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::oneport_latency_search;
    use crate::minlatency::minimize_latency;
    use crate::minperiod::minimize_period;
    use crate::oneport::oneport_period_search;
    use crate::outorder::outorder_period_search;
    use fsw_core::validate_oplist;

    fn section23() -> (Application, ExecutionGraph) {
        let app = Application::independent(&[(4.0, 1.0); 5]);
        let g = ExecutionGraph::from_edges(5, &[(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]).unwrap();
        (app, g)
    }

    #[test]
    fn fixed_graph_covers_all_models_and_objectives() {
        let (app, g) = section23();
        let budget = SearchBudget::default();
        let expectations = [
            (CommModel::Overlap, Objective::MinPeriod, 4.0),
            (CommModel::InOrder, Objective::MinPeriod, 23.0 / 3.0),
            (CommModel::OutOrder, Objective::MinPeriod, 7.0),
            (CommModel::Overlap, Objective::MinLatency, 21.0),
            (CommModel::InOrder, Objective::MinLatency, 21.0),
            (CommModel::OutOrder, Objective::MinLatency, 21.0),
        ];
        for (model, objective, expected) in expectations {
            let solution = solve(&Problem::on_graph(&app, model, objective, &g), &budget).unwrap();
            assert!(
                (solution.value - expected).abs() < 1e-9,
                "{model} {objective}: expected {expected}, got {}",
                solution.value
            );
            assert!(solution.exhaustive, "{model} {objective}");
            assert!(solution.value >= solution.lower_bound - 1e-9);
            let oplist = solution.oplist.expect("orchestration produces a schedule");
            validate_oplist(&app, &g, &oplist, model).unwrap_or_else(|v| panic!("{model}: {v:?}"));
        }
    }

    #[test]
    fn fixed_graph_matches_legacy_entry_points() {
        let (app, g) = section23();
        let budget = SearchBudget::default();
        let inorder = solve(
            &Problem::on_graph(&app, CommModel::InOrder, Objective::MinPeriod, &g),
            &budget,
        )
        .unwrap();
        let legacy = oneport_period_search(&app, &g, OnePortStyle::InOrder, 5_000).unwrap();
        assert_eq!(inorder.value, legacy.period);
        assert_eq!(inorder.orderings.as_ref(), Some(&legacy.orderings));

        let outorder = solve(
            &Problem::on_graph(&app, CommModel::OutOrder, Objective::MinPeriod, &g),
            &budget,
        )
        .unwrap();
        let legacy = outorder_period_search(&app, &g, &budget).unwrap();
        assert_eq!(outorder.value, legacy.period);

        let latency = solve(
            &Problem::on_graph(&app, CommModel::InOrder, Objective::MinLatency, &g),
            &budget,
        )
        .unwrap();
        let legacy = oneport_latency_search(&app, &g, 5_000).unwrap();
        assert_eq!(latency.value, legacy.latency);
    }

    #[test]
    fn plan_search_matches_legacy_solvers() {
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8), (1.0, 0.6)]);
        let budget = SearchBudget::default();
        for model in CommModel::ALL {
            let solution =
                solve(&Problem::new(&app, model, Objective::MinPeriod), &budget).unwrap();
            let legacy = minimize_period(&app, model, &budget).unwrap();
            assert_eq!(solution.value, legacy.value, "{model}");
            assert_eq!(solution.graph.edge_count(), legacy.graph.edge_count());

            let solution =
                solve(&Problem::new(&app, model, Objective::MinLatency), &budget).unwrap();
            let legacy = minimize_latency(&app, model, &budget).unwrap();
            assert_eq!(solution.value, legacy.value, "{model}");
        }
    }

    #[test]
    fn parallel_solve_is_bit_identical_to_serial() {
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8), (1.0, 0.6)]);
        for model in CommModel::ALL {
            for objective in [Objective::MinPeriod, Objective::MinLatency] {
                let serial = solve(
                    &Problem::new(&app, model, objective),
                    &SearchBudget::default().with_threads(1),
                )
                .unwrap();
                let parallel = solve(
                    &Problem::new(&app, model, objective),
                    &SearchBudget::default().with_threads(4),
                )
                .unwrap();
                assert_eq!(serial.value, parallel.value, "{model} {objective}");
                assert_eq!(
                    serial.graph.edge_count(),
                    parallel.graph.edge_count(),
                    "{model} {objective}"
                );
                assert_eq!(serial.exhaustive, parallel.exhaustive);
            }
        }
    }

    #[test]
    fn time_limit_degrades_gracefully() {
        let (app, g) = section23();
        let budget = SearchBudget::default().with_time_limit(Duration::ZERO);
        let solution = solve(
            &Problem::on_graph(&app, CommModel::InOrder, Objective::MinPeriod, &g),
            &budget,
        )
        .unwrap();
        // With an expired deadline the search still returns a feasible value…
        assert!(solution.value.is_finite());
        assert!(solution.value >= 23.0 / 3.0 - 1e-9);
        // …but cannot claim optimality.
        assert!(!solution.exhaustive);
    }

    #[test]
    fn constrained_apps_route_through_dag_search() {
        let mut app = Application::independent(&[(1.0, 0.5), (2.0, 0.5), (3.0, 1.0)]);
        app.add_constraint(2, 0).unwrap();
        let budget = SearchBudget::default();
        let solution = solve(
            &Problem::new(&app, CommModel::Overlap, Objective::MinPeriod),
            &budget,
        )
        .unwrap();
        solution.graph.respects(&app).unwrap();
        assert!(solution.graph.ancestors(0).contains(&2));
    }

    #[test]
    fn warm_solves_match_cold_solves_and_reject_out_of_space_seeds() {
        let app = Application::independent(&[
            (2.0, 0.5),
            (1.0, 2.0),
            (3.0, 0.8),
            (1.0, 0.6),
            (2.5, 0.7),
            (0.5, 0.9),
        ]);
        let budget = SearchBudget::default(); // dag_enumeration_max_n = 5 < 6
        let cache = EvalCache::new(&app);
        for objective in [Objective::MinPeriod, Objective::MinLatency] {
            let problem = Problem::new(&app, CommModel::Overlap, objective);
            let (cold, cold_stats) =
                solve_warm_observed(&problem, &budget, &cache, None, None).unwrap();
            assert!(cold_stats.warm_value.is_none());
            // A feasible forest warm graph: bit-identical result, no more
            // evaluations than cold.
            let (warm, warm_stats) =
                solve_warm_observed(&problem, &budget, &cache, Some(&cold.graph), None).unwrap();
            assert_eq!(warm.value.to_bits(), cold.value.to_bits(), "{objective}");
            assert_eq!(warm.exhaustive, cold.exhaustive);
            assert_eq!(warm_stats.warm_value, Some(cold.value));
            assert!(warm_stats.evaluated <= cold_stats.evaluated);
            // A non-forest warm graph sits outside the searched space at
            // this size (forests only): its value must be ignored, not used
            // as a seed that could undercut every searched candidate.
            let dag = ExecutionGraph::from_edges(6, &[(0, 2), (1, 2)]).unwrap();
            let (with_dag, dag_stats) =
                solve_warm_observed(&problem, &budget, &cache, Some(&dag), None).unwrap();
            assert_eq!(
                with_dag.value.to_bits(),
                cold.value.to_bits(),
                "{objective}"
            );
            assert_eq!(with_dag.exhaustive, cold.exhaustive);
            assert!(dag_stats.warm_value.is_none(), "{objective}: seed refused");
        }
    }
}
