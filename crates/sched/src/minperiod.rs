//! MINPERIOD: choosing the execution graph that minimises the period.
//!
//! All three variants (OVERLAP, OUTORDER, INORDER) are NP-hard (Theorem 2),
//! so this module offers a ladder of solvers:
//!
//! * exhaustive enumeration of forest execution graphs — justified by
//!   Proposition 4: without precedence constraints there is always an optimal
//!   plan whose execution graph is a forest;
//! * exhaustive enumeration of *all* DAGs for very small instances (used to
//!   validate Proposition 4 experimentally, experiment E9);
//! * constructive seeds (independent services, the Proposition 8 chain, the
//!   no-communication structure) followed by hill-climbing local search over
//!   parent reassignments;
//! * the period of a candidate graph is measured by a pluggable
//!   [`PeriodEvaluation`] — the exact polynomial value for OVERLAP, and either
//!   the one-port lower bound or an actual ordering search for the one-port
//!   models, within the effort of one [`SearchBudget`].
//!
//! Every plan search of the crate — the exhaustive forest and DAG walks,
//! the streamed canonical walk, both local searches and the
//! [`minimize_period`] / [`minimize_latency`](crate::minlatency::minimize_latency)
//! solvers — returns one [`SearchOutcome`], and both local searches run on
//! one plan-space hill climb over parent reassignments.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use fsw_core::{
    canonical_classed_member, Application, CommModel, CoreResult, ExecutionGraph,
    PartialForestMetrics, PlanMetrics, ServiceId, WeightClasses,
};

use crate::chain::{chain_graph, chain_minperiod_order};
use crate::engine::frontier::{streamed_canonical_search, EngineMetrics, StreamProbe, StreamStats};
use crate::engine::{
    prune_threshold, tags, tie_dominated, CanonicalSpace, EvalCache, Incumbent, PartialPrune,
    Symmetry,
};
use crate::oneport::{oneport_period_search, oneport_period_search_bounded, OnePortStyle};
use crate::orchestrator::SearchBudget;
use crate::orderings::CommOrderings;
use crate::outorder::outorder_period_search_bounded;
use crate::par::{fold_min, par_chunks, Exec};

/// How the period of a candidate execution graph is evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeriodEvaluation {
    /// `max_k Cexec(k)` — exact for OVERLAP (Theorem 1), a lower bound for the
    /// one-port models.  Cheap; used inside search loops.
    LowerBound,
    /// Run the orchestration machinery for the chosen model: exact for
    /// OVERLAP, ordering search for INORDER, cyclic-scheduling search for
    /// OUTORDER, each within the budget's
    /// [`max_orderings`](SearchBudget::max_orderings) (and, for OUTORDER,
    /// its node budget and refinement steps).  More faithful, considerably
    /// more expensive.
    Orchestrated,
}

/// Evaluates the period of a candidate execution graph under the requested
/// model, with the budget's [`SearchBudget::period_evaluation`].
///
/// The orchestrated evaluation reads the budget's ordering, OUTORDER node
/// and refinement budgets — the ones the plan searches' candidate
/// evaluation reads — and runs serially without a deadline, so its value is
/// a pure function of the graph and the budget.
pub fn evaluate_period(
    app: &Application,
    graph: &ExecutionGraph,
    model: CommModel,
    budget: &SearchBudget,
) -> CoreResult<f64> {
    let metrics = PlanMetrics::compute(app, graph)?;
    let lower = metrics.period_lower_bound(model);
    if budget.period_evaluation == PeriodEvaluation::LowerBound {
        return Ok(lower);
    }
    Ok(match model {
        CommModel::Overlap => lower,
        CommModel::InOrder => {
            oneport_period_search(app, graph, OnePortStyle::InOrder, budget.max_orderings)?.period
        }
        CommModel::OutOrder => {
            outorder_period_search_bounded(app, graph, budget, Exec::serial(), f64::INFINITY)?
                .expect("an infinite cutoff never prunes")
                .period
        }
    })
}

/// Outcome of a plan search: the best execution graph found and whether
/// the search was exhaustive (`false` means a deadline interrupted the
/// enumeration or a heuristic produced the graph, so the value is only an
/// upper bound on the optimum of the searched space).
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// Best objective value found (as measured by the search's evaluation).
    pub value: f64,
    /// The execution graph achieving it.
    pub graph: ExecutionGraph,
    /// `true` when every candidate of the space was examined.
    pub exhaustive: bool,
}

/// Enumerates every forest execution graph (as a parent function) compatible
/// with the application's precedence constraints and returns the one
/// minimising `eval`.  Returns `None` when the search space exceeds the
/// default cap or when no feasible forest exists.
pub fn exhaustive_forest_best<F: FnMut(&ExecutionGraph) -> f64>(
    app: &Application,
    mut eval: F,
) -> Option<(f64, ExecutionGraph)> {
    if forest_space_size(app.n())? > 2_000_000 {
        return None;
    }
    let mut parents: Vec<Option<ServiceId>> = vec![None; app.n()];
    let mut best: Option<(f64, ExecutionGraph)> = None;
    enumerate_parents(app, &mut parents, 0, &mut best, &mut eval);
    best
}

/// The budgeted, parallel, branch-and-bound variant of
/// [`exhaustive_forest_best`]: the first one or two enumeration
/// levels (see [`Exec::effective_split_levels`]) are expanded into tasks,
/// split over `exec.effective_threads()` workers and reduced in enumeration
/// order, so the result is bit-identical to the serial run; an optional
/// deadline interrupts the enumeration (flagged via
/// [`SearchOutcome::exhaustive`]).
///
/// `eval` receives the current incumbent as a *cutoff*: it may return any
/// value above the cutoff (typically `∞`) for candidates it can prove cannot
/// beat it, and must return the exact value otherwise.  `prune` selects the
/// admissible partial-assignment bound (maintained incrementally by
/// [`PartialForestMetrics`]) used to discard whole subtrees; subtrees are
/// pruned when their bound *strictly* clears the shared incumbent and, under
/// [`PartialPrune::StructuralPeriod`], when their bound merely reaches the
/// value of a worker's local best found earlier in enumeration order (tie
/// dominance) — either way the first-minimum winner of the brute-force
/// enumeration always survives, whatever the thread count.
///
/// Every plan space has exactly one walk.  When `symmetry` admits the
/// instance's symmetry — [`Symmetry::Auto`] on a [`CanonicalSpace::reducible`]
/// instance (uniform weights, no constraints), or [`Symmetry::Classes`] on a
/// [`CanonicalSpace::class_reducible`] one (class-preserving relabelling
/// orbits on multi-weight-class instances) — the search streams the
/// canonical orbit space bound-first ([`streamed_canonical_search`]): the
/// cap is then measured against the **shape** count (A000081, 1 842
/// shapes at `n = 10` versus `10^10` parent functions), the optimum *value*
/// is unchanged, and the winner is the canonical tie-break representative,
/// the first optimum in canonical enumeration order.  Callers passing
/// `Auto` assert that `eval` is label-invariant on uniform weights; callers
/// passing `Classes` assert the stronger class-invariance — see the
/// bit-safety discussion on [`Symmetry`].  Every other space is walked
/// depth-first over the `n^n` labelled parent functions.  Either way the
/// search returns `None` when the space exceeds `cap`, when no feasible
/// forest exists, or when the deadline expires before any candidate was
/// examined.
///
/// `incumbent_seed` pre-loads the shared incumbent with a known upper bound
/// (the warm-start entry of the serving layer: the value of a previous plan
/// adapted to the mutated instance); `f64::INFINITY` is the cold search.
/// The seed must be an upper bound on the searched space's optimum (any
/// feasible candidate's value is).  Seeding then preserves bit-identity:
/// the subtree pruning and the bound-clearance certificate fire only on a
/// *strict* clearance of the incumbent, so every candidate tying the
/// optimum is still evaluated and the first-minimum winner is unchanged —
/// the search merely skips the hopeless region it would otherwise have
/// walked to re-discover the bound.
///
/// `probe`, when supplied, records the walk's [`StreamStats`] — the
/// telemetry channel behind `SolveStats::stream` — and, if it carries a
/// registry, the streamed walk's stage spans.
#[allow(clippy::too_many_arguments)]
pub fn exhaustive_forest_search<F>(
    app: &Application,
    cap: usize,
    exec: Exec,
    prune: PartialPrune,
    symmetry: Symmetry,
    incumbent_seed: f64,
    eval: &F,
    probe: Option<&StreamProbe>,
) -> Option<SearchOutcome>
where
    F: Fn(&ExecutionGraph, f64) -> f64 + Sync,
{
    let n = app.n();
    if n == 0 {
        return None;
    }
    let canonical = match symmetry {
        Symmetry::Full => false,
        Symmetry::Auto => CanonicalSpace::reducible(app),
        Symmetry::Classes => CanonicalSpace::class_reducible(app),
    };
    if canonical {
        // The streamed walk never materialises the coloured space, so its
        // budget gate is the shape count.  Beyond it the labelled space
        // (n^n > A000081(n+1) for n >= 2) is over the cap too.
        if fsw_core::forest_classes(n) > cap as u128 {
            return None;
        }
        // Stage spans resolve once per solve, and only when the probe
        // carries a registry — the plain path pays nothing.
        let engine_obs = probe
            .and_then(|p| p.metrics())
            .map(|registry| EngineMetrics::new(registry));
        let (outcome, stats) = streamed_canonical_search(
            app,
            &WeightClasses::of(app),
            exec,
            prune,
            incumbent_seed,
            eval,
            engine_obs.as_ref(),
        );
        if let Some(p) = probe {
            p.record(stats);
        }
        // `None` means the deadline expired before any candidate was
        // examined: the caller degrades to its heuristic fallback.
        return outcome;
    }
    let space = forest_space_size(n)?;
    if space > cap {
        return None;
    }
    // The labelled walk carries telemetry too (`shapes` stays 0: no shape
    // plan exists on the labelled space).
    let incumbent = Incumbent::seeded(incumbent_seed);
    let prefixes = forest_task_prefixes(n, exec.effective_split_levels());
    let parts = par_chunks(exec.effective_threads(), &prefixes, |_base, chunk| {
        let mut walker = LabelledWalker {
            app,
            partial: PartialForestMetrics::new(app),
            incumbent: &incumbent,
            prune,
            eval,
            deadline: exec.deadline,
            expanded: 0,
            best: None,
        };
        let mut complete = true;
        for prefix in chunk {
            for &p in prefix {
                walker.partial.push(p);
            }
            let ok = walker.walk();
            for _ in prefix {
                walker.partial.pop();
            }
            if !ok {
                complete = false;
                break;
            }
        }
        let best = walker.best.map(|(value, _, graph)| (value, graph));
        (best, walker.expanded, complete)
    });
    let complete = parts.iter().all(|(_, _, c)| *c);
    let expanded = parts.iter().map(|(_, e, _)| e).sum();
    let best = fold_min(parts.into_iter().map(|(b, _, _)| b).collect());
    if let Some(p) = probe {
        p.record(StreamStats {
            shapes: 0,
            stored_shapes: 0,
            expanded,
            peak_resident: exec.effective_threads(),
            certified_shapes: 0,
        });
    }
    best.map(|(value, graph)| SearchOutcome {
        value,
        graph,
        exhaustive: complete,
    })
}

/// Choices for service `k`'s parent, in the order the serial enumeration
/// tries them: entry node first, then every other service.
fn parent_choices(n: usize, k: usize) -> impl Iterator<Item = Option<ServiceId>> {
    std::iter::once(None).chain((0..n).filter(move |&p| p != k).map(Some))
}

/// The task prefixes of the forest enumeration: its first one or two levels
/// expanded in serial enumeration order (`n` or `n²` tasks), so per-chunk
/// winners fold back to the exact serial result.
fn forest_task_prefixes(n: usize, levels: usize) -> Vec<Vec<Option<ServiceId>>> {
    if levels >= 2 && n >= 2 {
        let mut prefixes = Vec::with_capacity(n * n);
        for c0 in parent_choices(n, 0) {
            for c1 in parent_choices(n, 1) {
                prefixes.push(vec![c0, c1]);
            }
        }
        prefixes
    } else {
        parent_choices(n, 0).map(|c| vec![c]).collect()
    }
}

/// One worker's depth-first branch-and-bound walk over the labelled parent
/// functions extending its task prefixes, in serial enumeration order.
struct LabelledWalker<'a, F> {
    app: &'a Application,
    partial: PartialForestMetrics<'a>,
    incumbent: &'a Incumbent,
    prune: PartialPrune,
    eval: &'a F,
    deadline: Option<Instant>,
    /// Candidates evaluated so far: the walk-order index of the next one.
    expanded: u64,
    /// The first minimum `(value, index, graph)` of the walk so far.
    best: Option<(f64, u64, ExecutionGraph)>,
}

impl<F> LabelledWalker<'_, F>
where
    F: Fn(&ExecutionGraph, f64) -> f64,
{
    /// Walks every completion of the current prefix of `partial`.  Returns
    /// `false` when the deadline interrupted this subtree.
    fn walk(&mut self) -> bool {
        if self.partial.assigned() > 0 {
            if let Some(bound) = self.prune.bound(&mut self.partial) {
                // An infinite bound flags a cycle inside the prefix: no
                // completion is feasible.  Otherwise prune on a strict
                // clearance of the incumbent, or on tie dominance: every
                // completion of the prefix comes after the walker's local
                // best in enumeration order.
                if bound == f64::INFINITY
                    || bound > prune_threshold(self.incumbent.get())
                    || tie_dominated(self.prune, bound, self.expanded, self.best.as_ref())
                {
                    return true;
                }
            }
        }
        let n = self.app.n();
        let k = self.partial.assigned();
        if k >= n {
            if self.deadline.is_some_and(|d| Instant::now() >= d) {
                return false;
            }
            let Ok(graph) = ExecutionGraph::from_parents(self.partial.parents()) else {
                return true; // the parent function contains a cycle
            };
            if graph.respects(self.app).is_err() {
                return true;
            }
            let value = (self.eval)(&graph, self.incumbent.get());
            let index = self.expanded;
            self.expanded += 1;
            if self.best.as_ref().is_none_or(|(b, _, _)| value < *b) {
                self.incumbent.offer(value);
                self.best = Some((value, index, graph));
            }
            return true;
        }
        for choice in parent_choices(n, k) {
            self.partial.push(choice);
            let ok = self.walk();
            self.partial.pop();
            if !ok {
                return false;
            }
        }
        true
    }
}

/// Size of the parent-function space (`n^n`, saturating); `None` for `n == 0`.
fn forest_space_size(n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let mut size = 1usize;
    for _ in 0..n {
        size = size.saturating_mul(n);
    }
    Some(size)
}

/// Recursive enumeration of parent functions from level `k`.
fn enumerate_parents<F: FnMut(&ExecutionGraph) -> f64>(
    app: &Application,
    parents: &mut Vec<Option<ServiceId>>,
    k: usize,
    best: &mut Option<(f64, ExecutionGraph)>,
    eval: &mut F,
) {
    let n = app.n();
    if k >= n {
        // A parent function with a cycle is no graph.
        if let Ok(graph) = ExecutionGraph::from_parents(parents) {
            if graph.respects(app).is_ok() {
                let value = eval(&graph);
                if best.as_ref().is_none_or(|(b, _)| value < *b) {
                    *best = Some((value, graph));
                }
            }
        }
        return;
    }
    for p in std::iter::once(None).chain((0..n).filter(|&p| p != k).map(Some)) {
        parents[k] = p;
        enumerate_parents(app, parents, k + 1, best, eval);
    }
    parents[k] = None;
}

/// Largest instance size the DAG searches support.  Their tie-break key,
/// [`ExecutionGraph::edge_mask_under`] the identity, packs the `n²`
/// possible edges into a `u128`, so `n² ≤ 128`; the space is far beyond
/// reach well before that (1.1 × 10⁹ labelled DAGs at `n = 7`).
pub const DAG_ENUMERATION_HARD_MAX_N: usize = 11;

/// A DAG search's best candidate so far: `(value, key, graph)`.
type DagBest = Option<(f64, u128, ExecutionGraph)>;

/// The DAG searches' tie-break key: bit `i·n + j` for each edge `i → j`
/// ([`ExecutionGraph::edge_mask_under`] the identity labelling).
fn dag_key(graph: &ExecutionGraph) -> u128 {
    let identity: [ServiceId; DAG_ENUMERATION_HARD_MAX_N] = std::array::from_fn(|k| k);
    graph.edge_mask_under(&identity[..graph.n()])
}

/// Keeps the better of `best` and the candidate `(value, graph)` in the DAG
/// searches' one order: the smaller value wins and an exact tie goes to the
/// smaller [`dag_key`], so no enumeration order, task split or thread count
/// can move a winner.  Returns `true` when the candidate became the best.
fn keep_better(best: &mut DagBest, value: f64, graph: ExecutionGraph) -> bool {
    let wins = best
        .as_ref()
        .is_none_or(|(b, k, _)| value < *b || (value == *b && dag_key(&graph) < *k));
    if wins {
        *best = Some((value, dag_key(&graph), graph));
    }
    wins
}

/// Enumerates every DAG execution graph on at most `max_n` services (tiny
/// instances only) and returns the one minimising `eval`, an exact value
/// tie going to the smaller edge-set key ([`ExecutionGraph::edge_mask_under`]
/// the identity).
///
/// This is the reference the DAG walk is tested against: it generates
/// every (topological permutation, subset of forward edges) pair, so it
/// meets each DAG once per linear extension (122 880 pairs for 29 281 DAGs
/// at `n = 5`).  Instances larger than [`DAG_ENUMERATION_HARD_MAX_N`]
/// return `None` regardless of `max_n`.
pub fn exhaustive_dag_best<F: FnMut(&ExecutionGraph) -> f64>(
    app: &Application,
    max_n: usize,
    mut eval: F,
) -> Option<(f64, ExecutionGraph)> {
    let n = app.n();
    if n == 0 || n > max_n.min(DAG_ENUMERATION_HARD_MAX_N) {
        return None;
    }
    let pairs = n * (n - 1) / 2;
    let mut order: Vec<ServiceId> = (0..n).collect();
    let mut best: DagBest = None;
    permute_orders(&mut order, 0, &mut |perm| {
        for mask in 0u64..(1u64 << pairs) {
            let graph = ExecutionGraph::from_permutation_mask(perm, mask);
            if graph.respects(app).is_ok() {
                let value = eval(&graph);
                keep_better(&mut best, value, graph);
            }
        }
    });
    best.map(|(value, _, graph)| (value, graph))
}

/// Visits every permutation of `items[start..]`.
fn permute_orders<F: FnMut(&[ServiceId])>(items: &mut Vec<ServiceId>, start: usize, visit: &mut F) {
    if start >= items.len() {
        return visit(items);
    }
    for i in start..items.len() {
        items.swap(start, i);
        permute_orders(items, start + 1, visit);
        items.swap(start, i);
    }
}

/// The budgeted, parallel variant of [`exhaustive_dag_best`]: one
/// depth-first walk that builds each labelled DAG exactly once, with the
/// same winner.
///
/// Each step places one unplaced service and gives it a predecessor set
/// drawn from the services already placed, so every DAG is built along a
/// linear extension.  A service with a smaller label than one placed
/// before it must take a predecessor at or after that one: the placements
/// then follow the DAG's least topological order (the one that always
/// takes the smallest-labelled ready service), which is unique, so the
/// walk builds each labelled DAG once (29 281 at `n = 5`, A003024) and
/// keeps no set of visited DAGs.  Each complete DAG is checked against the
/// precedence constraints and valued.  The first one or two placements
/// (see [`Exec::effective_split_levels`]) are expanded into tasks split
/// over `exec.effective_threads()` workers, and their winners fold in the
/// order of [`exhaustive_dag_best`] (value, then edge-set key), so the
/// result is the same at every thread count.  An optional deadline,
/// checked before each DAG is built, interrupts the walk (flagged via
/// [`SearchOutcome::exhaustive`]).  Instances larger than
/// [`DAG_ENUMERATION_HARD_MAX_N`] return `None` regardless of `max_n`.
///
/// `eval` receives the current incumbent as a *cutoff* (see
/// [`exhaustive_forest_search`]).  `incumbent_seed` pre-loads the shared
/// incumbent with an upper bound from an earlier phase (e.g. the forest
/// optimum): candidates that cannot strictly beat the seed may then be
/// valued `∞`, so when the outcome's value is not below the seed only the
/// seed phase's result is meaningful.  Pass `f64::INFINITY` for an
/// unseeded, self-contained search (its value is then always exact).
pub fn exhaustive_dag_search<F>(
    app: &Application,
    max_n: usize,
    exec: Exec,
    incumbent_seed: f64,
    eval: &F,
) -> Option<SearchOutcome>
where
    F: Fn(&ExecutionGraph, f64) -> f64 + Sync,
{
    let n = app.n();
    if n == 0 || n > max_n.min(DAG_ENUMERATION_HARD_MAX_N) {
        return None;
    }
    let incumbent = Incumbent::seeded(incumbent_seed);
    let prefixes = dag_task_prefixes(n, exec.effective_split_levels());
    let parts = par_chunks(exec.effective_threads(), &prefixes, |_base, chunk| {
        let mut walker = DagWalker {
            app,
            incumbent: &incumbent,
            eval,
            deadline: exec.deadline,
            order: Vec::with_capacity(n),
            mask: 0,
            best: None,
        };
        let mut complete = true;
        for prefix in chunk {
            walker.order.clear();
            walker.mask = 0;
            for &(s, preds) in prefix {
                walker.place(s, preds);
            }
            if !walker.walk() {
                complete = false;
                break;
            }
        }
        (walker.best, complete)
    });
    let complete = parts.iter().all(|(_, c)| *c);
    let mut best = None;
    for (value, _, graph) in parts.into_iter().filter_map(|(b, _)| b) {
        keep_better(&mut best, value, graph);
    }
    best.map(|(value, _, graph)| SearchOutcome {
        value,
        graph,
        exhaustive: complete,
    })
}

/// The predecessor sets the DAG walk may give service `s` after the
/// placements `order`, as bit masks over positions of `order`: every set
/// when no larger label was placed before `s`, otherwise the sets holding a
/// position at or after the last such label.
fn pred_sets(order: &[ServiceId], s: ServiceId) -> std::ops::Range<u32> {
    let first = order.iter().rposition(|&t| t > s).map_or(0, |j| 1 << j);
    first..1 << order.len()
}

/// The DAG walk's first `levels` placements, one task prefix each.
fn dag_task_prefixes(n: usize, levels: usize) -> Vec<Vec<(ServiceId, u32)>> {
    let mut prefixes = vec![Vec::new()];
    for _ in 0..levels.min(n) {
        let mut next = Vec::new();
        for prefix in &prefixes {
            let order: Vec<ServiceId> = prefix.iter().map(|&(s, _)| s).collect();
            for s in (0..n).filter(|s| !order.contains(s)) {
                for preds in pred_sets(&order, s) {
                    let mut task: Vec<(ServiceId, u32)> = prefix.clone();
                    task.push((s, preds));
                    next.push(task);
                }
            }
        }
        prefixes = next;
    }
    prefixes
}

/// One worker's depth-first DAG walk over the completions of its task
/// prefixes.
struct DagWalker<'a, F> {
    app: &'a Application,
    incumbent: &'a Incumbent,
    eval: &'a F,
    deadline: Option<Instant>,
    /// The services placed so far, in their DAG's least topological order.
    order: Vec<ServiceId>,
    /// The edges among them, in [`ExecutionGraph::from_permutation_mask`]'s
    /// pair encoding over `order`.
    mask: u64,
    best: DagBest,
}

impl<F> DagWalker<'_, F>
where
    F: Fn(&ExecutionGraph, f64) -> f64,
{
    /// Places `s` with the predecessors at the positions `preds` selects,
    /// returning the edge mask to restore when `s` is taken back.
    fn place(&mut self, s: ServiceId, preds: u32) -> u64 {
        let (n, k) = (self.app.n(), self.order.len());
        let saved = self.mask;
        for a in (0..k).filter(|&a| preds & (1 << a) != 0) {
            // Pair (a, k) in the row order (0,1), (0,2), …, (1,2), …
            self.mask |= 1 << (a * (2 * n - a - 1) / 2 + k - a - 1);
        }
        self.order.push(s);
        saved
    }

    /// Walks every completion of the current placements.  Returns `false`
    /// when the deadline interrupted this subtree.
    fn walk(&mut self) -> bool {
        let n = self.app.n();
        if self.order.len() == n {
            return self.visit();
        }
        for s in 0..n {
            if self.order.contains(&s) {
                continue;
            }
            for preds in pred_sets(&self.order, s) {
                let saved = self.place(s, preds);
                let ok = self.walk();
                self.order.pop();
                self.mask = saved;
                if !ok {
                    return false;
                }
            }
        }
        true
    }

    /// Builds, checks and values the complete DAG.  Returns `false` when
    /// the deadline has passed.
    fn visit(&mut self) -> bool {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        let graph = ExecutionGraph::from_permutation_mask(&self.order, self.mask);
        if graph.respects(self.app).is_ok() {
            let value = (self.eval)(&graph, self.incumbent.get());
            if keep_better(&mut self.best, value, graph) {
                self.incumbent.offer(value);
            }
        }
        true
    }
}

/// Constructive seeds for the heuristic search; the streamed walk also
/// cuts its prelude at their value
/// ([`crate::engine::frontier::constructive_plans`]).
pub(crate) fn seed_graphs(app: &Application, model: CommModel) -> Vec<ExecutionGraph> {
    let n = app.n();
    let mut seeds = Vec::new();
    if app.has_constraints() {
        // The minimal graph containing exactly the precedence constraints.
        if let Ok(g) = ExecutionGraph::from_edges(n, app.constraints()) {
            seeds.push(g);
        }
        return seeds;
    }
    // All services independent.
    seeds.push(ExecutionGraph::new(n));
    // The Proposition 8 chain.
    if let Ok(order) = chain_minperiod_order(app, model) {
        if let Ok(g) = chain_graph(n, &order) {
            seeds.push(g);
        }
    }
    // The no-communication optimal structure (filters chained, expanders attached).
    if let Ok(g) = crate::baseline::nocomm_minperiod_plan(app) {
        seeds.push(g);
    }
    seeds
}

/// Heuristic MINPERIOD: best seed followed by the plan-space hill climb over
/// single-parent reassignments that MINLATENCY's local search runs too.
/// Candidates are valued by [`evaluate_period`] under `budget`, over
/// [`LOCAL_SEARCH_PASSES`] passes at most.
pub fn minperiod_local_search(
    app: &Application,
    model: CommModel,
    budget: &SearchBudget,
) -> CoreResult<SearchOutcome> {
    Ok(climb_plans(app, seed_graphs(app, model), |g| {
        evaluate_period(app, g, model, budget).unwrap_or(f64::INFINITY)
    }))
}

/// Most passes the plan-space hill climb of both local searches makes.
pub const LOCAL_SEARCH_PASSES: usize = 32;

/// The plan-space hill climb behind both local searches: start from the
/// first best of `seeds` (the empty plan when none is finite), then, for
/// every service `k` in turn, try making `k` an entry node and then giving
/// it each other service as its only parent, keeping every move that
/// respects the application's precedence constraints and improves the value
/// by more than `1e-12`.  Stops after [`LOCAL_SEARCH_PASSES`] passes or the
/// first pass without an improvement.
pub(crate) fn climb_plans<F>(
    app: &Application,
    seeds: Vec<ExecutionGraph>,
    eval: F,
) -> SearchOutcome
where
    F: Fn(&ExecutionGraph) -> f64,
{
    let n = app.n();
    let mut best_graph = ExecutionGraph::new(n);
    let mut best_value = f64::INFINITY;
    for seed in seeds {
        let value = eval(&seed);
        if value < best_value {
            best_value = value;
            best_graph = seed;
        }
    }
    for _pass in 0..LOCAL_SEARCH_PASSES {
        let mut improved = false;
        for k in 0..n {
            let current_preds: Vec<ServiceId> = best_graph.preds(k).to_vec();
            for cand in parent_choices(n, k) {
                let mut graph = best_graph.clone();
                for &p in &current_preds {
                    graph.remove_edge(p, k);
                }
                if let Some(p) = cand {
                    if graph.add_edge(p, k).is_err() {
                        continue;
                    }
                }
                if graph.respects(app).is_err() {
                    continue;
                }
                let value = eval(&graph);
                if value + 1e-12 < best_value {
                    best_value = value;
                    best_graph = graph;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    SearchOutcome {
        value: best_value,
        graph: best_graph,
        exhaustive: false,
    }
}

/// Full MINPERIOD solver: exhaustive forest enumeration when the instance is
/// small enough (optimal for the requested evaluation, by Proposition 4),
/// falling back to the local-search heuristic otherwise.
///
/// `budget` supplies every knob, resolved the way
/// [`solve`](crate::orchestrator::solve) resolves it: the exhaustive phases
/// fan out over [`SearchBudget::threads`] workers (bit-identical to the
/// serial run) and honour [`SearchBudget::time_limit`], returning the best
/// graph found so far with `exhaustive == false` when the deadline
/// interrupts the enumeration.  The default budget is serial with no
/// deadline.
pub fn minimize_period(
    app: &Application,
    model: CommModel,
    budget: &SearchBudget,
) -> CoreResult<SearchOutcome> {
    minimize_period_engine(
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

/// Bounded (branch-and-bound aware) candidate evaluation: like
/// [`evaluate_period`], but may return `∞` for candidates whose structural
/// lower bound already clears `cutoff`, and memoises the expensive ordering
/// searches in `cache`.
fn evaluate_period_bounded(
    app: &Application,
    graph: &ExecutionGraph,
    model: CommModel,
    budget: &SearchBudget,
    cache: &EvalCache,
    cutoff: f64,
    deadline: Option<Instant>,
) -> f64 {
    let Ok(metrics) = PlanMetrics::compute(app, graph) else {
        return f64::INFINITY;
    };
    let lower = metrics.period_lower_bound(model);
    if budget.period_evaluation == PeriodEvaluation::LowerBound || model == CommModel::Overlap {
        // Theorem 1: for OVERLAP the lower bound is achieved.
        return lower;
    }
    // Every orchestrated period dominates the structural bound, so a bound
    // above the cutoff proves the candidate cannot improve the incumbent.
    if lower > prune_threshold(cutoff) {
        return f64::INFINITY;
    }
    // With a deadline, inner searches may return deadline-truncated values:
    // honour the time limit inside the candidate evaluation, but never
    // memoise a value that depends on the wall clock.
    let inner_exec = Exec {
        threads: 1,
        deadline,
    };
    match model {
        CommModel::Overlap => unreachable!("handled above"),
        CommModel::InOrder => {
            let search = |c: f64| match oneport_period_search_bounded(
                app,
                graph,
                &metrics,
                OnePortStyle::InOrder,
                budget.max_orderings,
                inner_exec,
                c,
            ) {
                Ok(Some(result)) => result.period,
                Ok(None) | Err(_) => f64::INFINITY,
            };
            if deadline.is_some() {
                return search(cutoff);
            }
            let exhaustive = CommOrderings::search_space_size(graph) <= budget.max_orderings;
            cache.get_or_compute(tags::INORDER_PERIOD, graph, exhaustive, cutoff, search)
        }
        CommModel::OutOrder => {
            // The OUTORDER backtracker is label-dependent (its trajectory
            // follows node ids), so its raw value is shared between
            // identical labelled graphs only.  On instances with weight
            // symmetry the evaluation therefore **canonicalises the graph
            // first** (`fsw_core::canonical_classed_member`: the
            // deterministic member of the candidate's class-preserving
            // orbit) and evaluates that member instead: the value becomes a
            // pure function of the orbit — a faithful feasible period for
            // every member, since class-preserving isomorphisms map
            // schedules to schedules — and the memo collapses to one
            // backtracking search per canonical shape + class signature,
            // which is what lets repeated orbit evaluations across a
            // `solve_all` sweep hit the cache.  The search stays
            // incumbent-aware: the shared incumbent is threaded in as a
            // cutoff that skips candidates whose lower bound clears it and
            // stops the bisection once every remaining probe provably sits
            // above it.
            // The partition comes from the cache (computed once per solve),
            // not per candidate — this branch runs for every enumerated
            // graph.  Reduced-path candidates are already their own
            // canonical member, so for them the canonicalisation merely
            // re-derives the input; that O(n² log n) is noise next to the
            // backtracking search each evaluation runs, and paying it
            // unconditionally keeps the memo key correct on the raw
            // (cap-overflow) path too.
            let classes = cache.weight_classes();
            let canonical =
                if deadline.is_none() && CanonicalSpace::class_reducible_with(app, classes) {
                    canonical_classed_member(classes, graph).ok()
                } else {
                    None
                };
            let eval_graph = canonical.as_ref().unwrap_or(graph);
            let search = |c: f64| match outorder_period_search_bounded(
                app, eval_graph, budget, inner_exec, c,
            ) {
                Ok(Some(result)) => result.period,
                Ok(None) | Err(_) => f64::INFINITY,
            };
            if deadline.is_some() {
                return search(cutoff);
            }
            cache.get_or_compute(tags::OUTORDER_PERIOD, eval_graph, false, cutoff, search)
        }
    }
}

/// The engine behind [`minimize_period`] and
/// [`solve`](crate::orchestrator::solve): `exec` is the budget's resolved
/// execution (one deadline shared with the caller's later phases), `cache`
/// a caller-provided evaluation memo (a `solve_all` sweep shares one), and
/// `evals` is incremented once per full candidate evaluation, so callers
/// can measure how much of the space a warm start skipped.
///
/// `incumbent_seed` pre-loads every exhaustive phase's incumbent: pass the
/// value of a previous plan adapted to the instance, or `∞` for a cold
/// solve.  The seed must be an upper bound on the optimum; winners are then
/// bit-identical either way (see [`exhaustive_forest_search`]).  `probe`
/// receives the plan search's telemetry.
#[allow(clippy::too_many_arguments)]
pub(crate) fn minimize_period_engine(
    app: &Application,
    model: CommModel,
    budget: &SearchBudget,
    exec: Exec,
    cache: &EvalCache,
    incumbent_seed: f64,
    evals: &AtomicUsize,
    probe: Option<&StreamProbe>,
) -> CoreResult<SearchOutcome> {
    let eval = |g: &ExecutionGraph, cutoff: f64| -> f64 {
        evals.fetch_add(1, Ordering::Relaxed);
        evaluate_period_bounded(app, g, model, budget, cache, cutoff, exec.deadline)
    };
    if !app.has_constraints() {
        // Both evaluations dominate the model's structural period bound, so
        // the incremental period bound is an admissible subtree pruner.
        // Where the evaluation *is* that bound bit for bit — the lower-bound
        // evaluation, and OVERLAP under either one (Theorem 1) — the walks
        // also prune optimum ties; orchestrated one-port values can sit ulps
        // below the bound and keep strict clearance only.
        let prune = if budget.period_evaluation == PeriodEvaluation::LowerBound
            || model == CommModel::Overlap
        {
            PartialPrune::StructuralPeriod(model)
        } else {
            PartialPrune::Period(model)
        };
        // Symmetry reduction is engaged only when the candidate evaluation
        // is provably invariant under the matching relabelling group (the
        // bit-safety gate on `Symmetry`): the structural bounds are
        // class-invariant since the metrics rework (path-order input
        // factors, no cross-class sums on forests), and so is the OUTORDER
        // orchestrated evaluation — it canonicalises the candidate graph
        // before backtracking, making its value a pure function of the
        // orbit.  The INORDER ordering search's schedule accumulation
        // follows node ids, so it engages the uniform-only reduction when
        // every forest's ordering search stays exhaustive and falls back to
        // the value-exact full enumeration on multi-class instances.
        let symmetry = match budget.period_evaluation {
            PeriodEvaluation::LowerBound => Symmetry::Classes,
            PeriodEvaluation::Orchestrated => match model {
                CommModel::Overlap => Symmetry::Classes,
                CommModel::OutOrder => Symmetry::Classes,
                CommModel::InOrder
                    if CanonicalSpace::max_forest_ordering_space(app.n())
                        <= budget.max_orderings =>
                {
                    Symmetry::Auto
                }
                CommModel::InOrder => Symmetry::Full,
            },
        };
        if let Some(out) = exhaustive_forest_search(
            app,
            budget.max_graphs,
            exec,
            prune,
            symmetry,
            incumbent_seed,
            &eval,
            probe,
        ) {
            return Ok(out);
        }
    } else {
        // With precedence constraints the optimal plan need not be a forest;
        // use the DAG walk for tiny instances.
        if app.n() <= 5 {
            if let Some(out) = exhaustive_dag_search(app, 5, exec, incumbent_seed, &eval) {
                return Ok(out);
            }
        }
    }
    minperiod_local_search(app, model, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_filter_chain_beats_independence() {
        // One strong filter in front of an expensive service: the optimal plan
        // chains them (OVERLAP model).
        let app = Application::independent(&[(1.0, 0.1), (10.0, 1.0)]);
        let result = minimize_period(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        assert!(result.exhaustive);
        assert!(result.graph.has_edge(0, 1));
        assert!((result.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expensive_communication_prevents_chaining() {
        // A filter whose selectivity is close to 1 brings almost nothing, but
        // its outgoing communication would become the bottleneck if it fed
        // many successors (miniature counter-example B.1, OVERLAP model).
        // Parameters are tuned so that the only period-2 plans split the four
        // expensive services evenly between the two filters.
        let mut specs = vec![(2.0, 0.9), (2.0, 0.9)];
        for _ in 0..4 {
            specs.push((2.0 / 0.9, 2.2));
        }
        let app = Application::independent(&specs);
        let result = minimize_period(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        assert!(result.exhaustive);
        assert!((result.value - 2.0).abs() < 1e-9);
        // The two filters must not be chained one behind the other: each keeps
        // exactly half of the expensive services.
        assert!(!result.graph.has_edge(0, 1) && !result.graph.has_edge(1, 0));
        let out0 = result.graph.succs(0).len();
        let out1 = result.graph.succs(1).len();
        assert_eq!(out0 + out1, 4);
        assert!(out0 >= 2 && out1 >= 2);
    }

    #[test]
    fn forest_optimum_matches_dag_optimum_without_constraints() {
        // Proposition 4: forests suffice for MINPERIOD without constraints.
        let apps = [
            Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8)]),
            Application::independent(&[(1.0, 1.0), (2.0, 0.4), (1.5, 1.6), (0.5, 0.9)]),
        ];
        for app in apps {
            for model in CommModel::ALL {
                let eval = |g: &ExecutionGraph| {
                    evaluate_period(&app, g, model, &SearchBudget::default())
                        .unwrap_or(f64::INFINITY)
                };
                let forest = exhaustive_forest_best(&app, eval).unwrap();
                let dag = exhaustive_dag_best(&app, 5, eval).unwrap();
                assert!(
                    forest.0 <= dag.0 + 1e-9,
                    "{model}: forest {} vs dag {}",
                    forest.0,
                    dag.0
                );
            }
        }
    }

    #[test]
    fn local_search_matches_exhaustive_on_small_instances() {
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8), (1.0, 0.6)]);
        let budget = SearchBudget::default();
        let exhaustive = minimize_period(&app, CommModel::Overlap, &budget).unwrap();
        assert!(exhaustive.exhaustive);
        let local = minperiod_local_search(&app, CommModel::Overlap, &budget).unwrap();
        assert!(local.value <= exhaustive.value * 1.2 + 1e-9);
        assert!(local.value >= exhaustive.value - 1e-9);
    }

    #[test]
    fn constraints_are_respected() {
        let mut app = Application::independent(&[(1.0, 0.5), (2.0, 0.5), (3.0, 1.0)]);
        app.add_constraint(2, 0).unwrap();
        let result = minimize_period(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        result.graph.respects(&app).unwrap();
        // Service 0 must be (transitively) after service 2.
        assert!(result.graph.ancestors(0).contains(&2));
    }

    #[test]
    fn canonical_forest_search_matches_brute_force_on_uniform_weights() {
        // Uniform weights: the symmetry-reduced enumeration must return the
        // same optimum value as the raw n^n space, for filters and expanders.
        for specs in [(2.0, 0.5), (1.0, 1.5), (4.0, 1.0)] {
            for n in [3usize, 5] {
                let app = Application::independent(&vec![specs; n]);
                assert!(CanonicalSpace::reducible(&app));
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
                        PartialPrune::Period(model),
                        Symmetry::Auto,
                        f64::INFINITY,
                        &|g, _| eval(g),
                        None,
                    )
                    .unwrap();
                    assert_eq!(brute.0, reduced.value, "{specs:?} n={n} {model}");
                    assert!(reduced.exhaustive);
                    // The canonical winner evaluates to the optimum too.
                    assert_eq!(eval(&reduced.graph), reduced.value);
                }
            }
        }
    }

    /// The DAG walk builds each labelled DAG once: A003024 (1, 3, 25, 543,
    /// 29 281) for `n = 1..=5`, at one and at two workers, and its DAGs
    /// are the distinct edge sets of the brute force's (permutation, mask)
    /// enumeration.
    #[test]
    fn the_dag_walk_builds_each_labelled_dag_once() {
        for (n, dags) in [(1usize, 1usize), (2, 3), (3, 25), (4, 543), (5, 29_281)] {
            let app = Application::independent(&vec![(1.0, 1.0); n]);
            let mut brute = std::collections::HashSet::new();
            exhaustive_dag_best(&app, n, |g| {
                brute.insert(dag_key(g));
                0.0
            });
            assert_eq!(brute.len(), dags, "n={n}: brute force");
            for threads in [1, 2] {
                let walked = std::sync::Mutex::new(Vec::new());
                let out = exhaustive_dag_search(
                    &app,
                    n,
                    Exec::threaded(threads),
                    f64::INFINITY,
                    &|g, _| {
                        walked.lock().unwrap().push(dag_key(g));
                        0.0
                    },
                )
                .unwrap();
                assert!(out.exhaustive);
                let walked = walked.into_inner().unwrap();
                let distinct: std::collections::HashSet<u128> = walked.iter().copied().collect();
                assert_eq!(walked.len(), dags, "n={n} x{threads}: visits");
                assert_eq!(distinct, brute, "n={n} x{threads}: edge sets");
            }
        }
    }

    /// On all-equal weights most DAGs tie, and so do they when one or two
    /// filters sit among equal services: the brute force returns the
    /// optimum with the smallest edge-set key, checked against a scan of
    /// every edge subset, and the walk returns the same DAG at every thread
    /// count, although it may meet a larger-key optimum first, in its own
    /// task or in an earlier worker's.
    #[test]
    fn dag_ties_go_to_the_smallest_edge_set_key() {
        let n = 4;
        let pairs: Vec<(ServiceId, ServiceId)> = (0..n)
            .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        let mut met_another_first = 0;
        let instances = [
            [(2.0, 1.0); 4],
            [(1.0, 0.5); 4],
            [(2.0, 1.0), (2.0, 1.0), (1.0, 0.5), (2.0, 1.0)],
            [(1.0, 0.5), (1.0, 0.5), (4.0, 1.0), (4.0, 1.0)],
        ];
        for specs in instances {
            let app = Application::independent(&specs);
            for model in CommModel::ALL {
                let eval = |g: &ExecutionGraph| {
                    PlanMetrics::compute(&app, g)
                        .map(|m| m.period_lower_bound(model))
                        .unwrap_or(f64::INFINITY)
                };
                let mut optima = Vec::new();
                for subset in 0u32..1 << pairs.len() {
                    let edges: Vec<_> = (0..pairs.len())
                        .filter(|b| subset & (1 << b) != 0)
                        .map(|b| pairs[b])
                        .collect();
                    if let Ok(g) = ExecutionGraph::from_edges(n, &edges) {
                        optima.push((eval(&g), dag_key(&g)));
                    }
                }
                let value = optima.iter().map(|o| o.0).fold(f64::INFINITY, f64::min);
                optima.retain(|o| o.0 == value);
                let key = optima.iter().map(|o| o.1).min().unwrap();
                let label = format!("{specs:?} {model}");
                assert!(optima.len() > 1, "{label}: the instance has ties");
                let brute = exhaustive_dag_best(&app, n, eval).unwrap();
                assert_eq!((brute.0, dag_key(&brute.1)), (value, key), "{label}");
                for threads in [1, 2, 3, 4, 8] {
                    let first = std::sync::Mutex::new(None);
                    let walked = exhaustive_dag_search(
                        &app,
                        n,
                        Exec::threaded(threads),
                        f64::INFINITY,
                        &|g, _| {
                            let v = eval(g);
                            if v == value {
                                first.lock().unwrap().get_or_insert(dag_key(g));
                            }
                            v
                        },
                    )
                    .unwrap();
                    let found = (walked.value, dag_key(&walked.graph));
                    assert_eq!(found, (value, key), "{label} x{threads}");
                    if threads == 1 && first.into_inner().unwrap() != Some(key) {
                        met_another_first += 1;
                    }
                }
            }
        }
        assert!(
            met_another_first > 0,
            "the walk always met the winner first"
        );
    }

    #[test]
    fn uniform_minperiod_clears_n10_within_the_default_budget() {
        // n^n = 10^10 parent functions dwarf the 2M cap, but the canonical
        // space holds 1 842 classes: the default budget is now exhaustive.
        let app = Application::independent(&[(3.0, 0.9); 10]);
        let result = minimize_period(&app, CommModel::Overlap, &SearchBudget::default()).unwrap();
        assert!(result.exhaustive, "canonical space fits the default cap");
        // Sanity: never worse than the all-independent plan.
        let independent = evaluate_period(
            &app,
            &ExecutionGraph::new(10),
            CommModel::Overlap,
            &SearchBudget::default(),
        )
        .unwrap();
        assert!(result.value <= independent + 1e-9);
    }

    #[test]
    fn two_level_split_is_bit_identical_to_serial() {
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8), (1.0, 0.6)]);
        let eval = |g: &ExecutionGraph, _c: f64| {
            PlanMetrics::compute(&app, g)
                .map(|m| m.period_lower_bound(CommModel::InOrder))
                .unwrap_or(f64::INFINITY)
        };
        let search = |exec| {
            exhaustive_forest_search(
                &app,
                2_000_000,
                exec,
                PartialPrune::Period(CommModel::InOrder),
                Symmetry::Full,
                f64::INFINITY,
                &eval,
                None,
            )
            .unwrap()
        };
        let serial = search(Exec::serial());
        // Several workers split the first two enumeration levels.
        for threads in [2, 5] {
            let par = search(Exec::threaded(threads));
            assert_eq!(serial.value, par.value, "x{threads}");
            assert_eq!(
                serial.graph.edges().collect::<Vec<_>>(),
                par.graph.edges().collect::<Vec<_>>(),
                "x{threads}: winner"
            );
        }
    }

    #[test]
    fn orchestrated_evaluation_is_at_least_the_lower_bound() {
        let app = Application::independent(&[(1.0, 1.0); 4]);
        let g = ExecutionGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let orchestrated = SearchBudget {
            max_orderings: 1_000,
            ..SearchBudget::default()
        }
        .with_period_evaluation(PeriodEvaluation::Orchestrated);
        for model in CommModel::ALL {
            let lb = evaluate_period(&app, &g, model, &SearchBudget::default()).unwrap();
            let orch = evaluate_period(&app, &g, model, &orchestrated).unwrap();
            assert!(orch >= lb - 1e-9, "{model}: {orch} < {lb}");
        }
    }
}
