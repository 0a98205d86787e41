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
//! * every candidate graph is valued by its structural period bound
//!   `max_k Cexec(k)` ([`evaluate_period`]): the exact period under OVERLAP
//!   (Theorem 1), a lower bound under the one-port models, whose period is
//!   NP-hard already for a fixed graph (Propositions 2–3), so
//!   [`solve`](crate::orchestrator::solve) orchestrates only the winner.
//!
//! Every plan search of the crate — the exhaustive forest and DAG walks,
//! the streamed canonical walk, both local searches and the
//! [`minimize_period`] / [`minimize_latency`](crate::minlatency::minimize_latency)
//! solvers — returns one [`SearchOutcome`], and both local searches run on
//! one plan-space hill climb over parent reassignments.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use fsw_core::{
    Application, CommModel, CoreResult, ExecutionGraph, PartialForestMetrics, PlanMetrics,
    ServiceId, WeightClasses,
};

use crate::chain::{chain_graph, chain_minperiod_order};
use crate::engine::frontier::{
    streamed_canonical_search, DagStats, EngineMetrics, StreamProbe, StreamStats,
};
use crate::engine::{
    prune_threshold, tie_dominated, CanonicalSpace, Incumbent, PartialPrune, Symmetry,
};
use crate::orchestrator::SearchBudget;
use crate::par::{fold_min, par_chunks, Exec};

/// The period every MINPERIOD plan search values a candidate execution
/// graph by: its structural bound `max_k Cexec(k)`
/// ([`PlanMetrics::period_lower_bound`]) under `model`, the exact period
/// under OVERLAP (Theorem 1) and a lower bound under the one-port models.
pub fn evaluate_period(
    app: &Application,
    graph: &ExecutionGraph,
    model: CommModel,
) -> CoreResult<f64> {
    Ok(PlanMetrics::compute(app, graph)?.period_lower_bound(model))
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
/// Every plan space has exactly one walk.  When `symmetry` is
/// [`Symmetry::Classes`] and the instance is
/// [`CanonicalSpace::class_reducible`] (no constraints, some weight class
/// with two or more services: uniform weights are the one-class case), the
/// search streams the canonical orbit space bound-first
/// ([`streamed_canonical_search`]): the cap is then measured against the
/// **shape** count (A000081, 1 842 shapes at `n = 10` versus `10^10`
/// parent functions), the optimum *value* is unchanged, and the winner is
/// the canonical tie-break representative, the first optimum in canonical
/// enumeration order.  Callers passing `Classes` assert that `eval` is
/// invariant under class-preserving relabellings — see the bit-safety
/// discussion on [`Symmetry`].  Every other space is walked depth-first
/// over the `n^n` labelled parent functions.  Either way the
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
    if symmetry == Symmetry::Classes && CanonicalSpace::class_reducible(app) {
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
/// depth-first walk that builds each labelled DAG at most once, prunes
/// while it builds, and returns the same winner.
///
/// Each step places one unplaced service and gives it a predecessor set
/// drawn from the services already placed, so every DAG is built along a
/// linear extension.  A service with a smaller label than one placed
/// before it must take a predecessor at or after that one: the placements
/// then follow the DAG's least topological order (the one that always
/// takes the smallest-labelled ready service), which is unique, so the
/// walk builds each labelled DAG once (29 281 at `n = 5`, A003024) and
/// keeps no set of visited DAGs.
///
/// A placed service's predecessor set is final, and so are its ancestors,
/// its input factor and its critical-path completion, which the walk
/// records at placement with the float operations of `PlanMetrics::compute`
/// and [`latency_lower_bound`](crate::latency::latency_lower_bound).  Two
/// checks then drop whole subtrees at the placement that decides them:
///
/// * a service whose ancestors miss one that its precedence constraints
///   require (the walk never builds a DAG that breaks a constraint);
/// * under [`PartialPrune::Latency`], a prefix whose latency floor — the
///   largest completion plus one emission over the placed services, which
///   no completion's critical path is below, not even by an ulp — strictly
///   clears the shared incumbent ([`prune_threshold`]).  Once every
///   service is placed the floor *is* the critical path, so `eval` never
///   sees a DAG whose critical path clears the cutoff it receives.
///
/// Every other [`PartialPrune`] keeps no floor: the walk then prunes on
/// constraints only and values every DAG that respects them.
///
/// The first one or two placements (see [`Exec::effective_split_levels`])
/// are expanded into tasks split over `exec.effective_threads()` workers,
/// and their winners fold in the order of [`exhaustive_dag_best`] (value,
/// then edge-set key), so the result is the same at every thread count.
/// An optional deadline, checked before each DAG is built, interrupts the
/// walk (flagged via [`SearchOutcome::exhaustive`]).  Instances larger
/// than [`DAG_ENUMERATION_HARD_MAX_N`] return `None` regardless of
/// `max_n`.
///
/// `eval` receives the current incumbent as a *cutoff* (see
/// [`exhaustive_forest_search`]).  `incumbent_seed` pre-loads the shared
/// incumbent with an upper bound from an earlier phase (e.g. the forest
/// optimum): candidates that cannot strictly beat the seed may then be
/// pruned or valued `∞`, so when the outcome's value is not below the seed
/// only the seed phase's result is meaningful.  Pass `f64::INFINITY` for
/// an unseeded, self-contained search (its value is then always exact).
/// Pruning never moves a winner or a tie: a dropped DAG's value strictly
/// exceeds an incumbent that the walk's own best never exceeds, as long as
/// the seed is `∞` or the value of a DAG of the space (the forest optimum
/// is one).
///
/// `probe`, when supplied, records the walk's [`DagStats`]: the DAGs
/// valued and the subtrees pruned.
pub fn exhaustive_dag_search<F>(
    app: &Application,
    max_n: usize,
    exec: Exec,
    prune: PartialPrune,
    incumbent_seed: f64,
    eval: &F,
    probe: Option<&StreamProbe>,
) -> Option<SearchOutcome>
where
    F: Fn(&ExecutionGraph, f64) -> f64 + Sync,
{
    let n = app.n();
    if n == 0 || n > max_n.min(DAG_ENUMERATION_HARD_MAX_N) {
        return None;
    }
    // The ancestors each service's precedence constraints require.
    let mut required = [0u32; DAG_ENUMERATION_HARD_MAX_N];
    for &(from, to) in app.constraints() {
        required[to] |= 1 << from;
    }
    let incumbent = Incumbent::seeded(incumbent_seed);
    let prefixes = dag_task_prefixes(n, exec.effective_split_levels());
    let parts = par_chunks(exec.effective_threads(), &prefixes, |_base, chunk| {
        let mut walker = DagWalker {
            app,
            incumbent: &incumbent,
            prune,
            eval,
            deadline: exec.deadline,
            required: &required,
            order: Vec::with_capacity(n),
            placed: Vec::with_capacity(n),
            stats: DagStats::default(),
            best: None,
        };
        let mut complete = true;
        for prefix in chunk {
            while walker.take_back() {}
            if prefix.iter().all(|&(s, preds)| walker.place(s, preds)) && !walker.walk() {
                complete = false;
                break;
            }
        }
        (walker.best, walker.stats, complete)
    });
    let complete = parts.iter().all(|(_, _, c)| *c);
    let mut stats = DagStats::default();
    let mut best = None;
    for (part, part_stats, _) in parts {
        stats.visited += part_stats.visited;
        stats.pruned += part_stats.pruned;
        if let Some((value, _, graph)) = part {
            keep_better(&mut best, value, graph);
        }
    }
    if let Some(p) = probe {
        p.record_dag(stats);
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

/// What the DAG walk knows of a placed service.  Its predecessor set is
/// final, so every field is the value the finished DAG gives it.
#[derive(Clone, Copy, Debug)]
struct Placed {
    /// The service's strict ancestors, one bit per service id.
    ancestors: u32,
    /// Its input factor (`PlanMetrics::input_factor`).
    factor: f64,
    /// Its critical-path completion: the `done` of
    /// [`latency_lower_bound`](crate::latency::latency_lower_bound).
    done: f64,
    /// The latency floor of the prefix ending with this placement: the
    /// largest `done + factor·σ` (a completion plus one emission of the
    /// service's output) over the placements so far.
    floor: f64,
    /// The edges of the prefix, in [`ExecutionGraph::from_permutation_mask`]'s
    /// pair encoding over the placement order.
    mask: u64,
}

/// One worker's depth-first DAG walk over the completions of its task
/// prefixes.
struct DagWalker<'a, F> {
    app: &'a Application,
    incumbent: &'a Incumbent,
    prune: PartialPrune,
    eval: &'a F,
    deadline: Option<Instant>,
    /// Per service, the ancestors its precedence constraints require.
    required: &'a [u32],
    /// The services placed so far, in their DAG's least topological order.
    order: Vec<ServiceId>,
    /// What each placement decided, in the same order.
    placed: Vec<Placed>,
    stats: DagStats,
    best: DagBest,
}

impl<F> DagWalker<'_, F>
where
    F: Fn(&ExecutionGraph, f64) -> f64,
{
    /// Places `s` with the predecessors at the positions `preds` selects.
    /// Refuses the placement (`false`, counted as a pruned subtree) when
    /// `s` would lack an ancestor its precedence constraints require or,
    /// under [`PartialPrune::Latency`], when the prefix's latency floor
    /// strictly clears the incumbent.
    fn place(&mut self, s: ServiceId, preds: u32) -> bool {
        let (app, n, k) = (self.app, self.app.n(), self.order.len());
        let mut ancestors = 0u32;
        // An entry node's only input is the unit data set: `0 + 1`.
        let mut ready = if preds == 0 { 1.0 } else { 0.0f64 };
        let mut mask = self.placed.last().map_or(0, |p| p.mask);
        for a in (0..k).filter(|&a| preds & (1 << a) != 0) {
            let (p, at) = (self.order[a], &self.placed[a]);
            ancestors |= at.ancestors | 1 << p;
            ready = ready.max(at.done + at.factor * app.selectivity(p));
            // Pair (a, k) in the row order (0,1), (0,2), …, (1,2), …
            mask |= 1 << (a * (2 * n - a - 1) / 2 + k - a - 1);
        }
        if ancestors & self.required[s] != self.required[s] {
            self.stats.pruned += 1;
            return false;
        }
        // Path order for one predecessor, ascending ids over the ancestors
        // of a join, as `PlanMetrics::compute` multiplies them.
        let factor = match preds.count_ones() {
            0 => 1.0,
            1 => {
                let a = preds.trailing_zeros() as usize;
                self.placed[a].factor * app.selectivity(self.order[a])
            }
            _ => (0..n)
                .filter(|&t| ancestors & (1 << t) != 0)
                .fold(1.0, |product, t| product * app.selectivity(t)),
        };
        let done = ready + factor * app.cost(s);
        let floor = self
            .placed
            .last()
            .map_or(0.0f64, |p| p.floor)
            .max(done + factor * app.selectivity(s));
        if self.prune == PartialPrune::Latency && floor > prune_threshold(self.incumbent.get()) {
            self.stats.pruned += 1;
            return false;
        }
        self.order.push(s);
        self.placed.push(Placed {
            ancestors,
            factor,
            done,
            floor,
            mask,
        });
        true
    }

    /// Takes the last placement back; `false` when nothing was placed.
    fn take_back(&mut self) -> bool {
        self.placed.pop();
        self.order.pop().is_some()
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
                if !self.place(s, preds) {
                    continue;
                }
                let ok = self.walk();
                self.take_back();
                if !ok {
                    return false;
                }
            }
        }
        true
    }

    /// Builds and values the complete DAG.  Returns `false` when the
    /// deadline has passed.
    fn visit(&mut self) -> bool {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        let mask = self.placed.last().map_or(0, |p| p.mask);
        let graph = ExecutionGraph::from_permutation_mask(&self.order, mask);
        let value = (self.eval)(&graph, self.incumbent.get());
        self.stats.visited += 1;
        if keep_better(&mut self.best, value, graph) {
            self.incumbent.offer(value);
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
/// Candidates are valued by [`evaluate_period`], over
/// [`LOCAL_SEARCH_PASSES`] passes at most.
pub fn minperiod_local_search(app: &Application, model: CommModel) -> CoreResult<SearchOutcome> {
    Ok(climb_plans(app, seed_graphs(app, model), |g| {
        evaluate_period(app, g, model).unwrap_or(f64::INFINITY)
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
            let current_preds = best_graph.preds(k).to_vec();
            for cand in parent_choices(n, k) {
                let mut graph = best_graph.clone();
                for &p in &current_preds {
                    graph.remove_edge(p as usize, k);
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
/// small enough (optimal for [`evaluate_period`], by Proposition 4),
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
        f64::INFINITY,
        &AtomicUsize::new(0),
        None,
    )
}

/// The engine behind [`minimize_period`] and
/// [`solve`](crate::orchestrator::solve): `exec` is the budget's resolved
/// execution (one deadline shared with the caller's later phases), and
/// `evals` is incremented once per full candidate evaluation, so callers
/// can measure how much of the space a warm start skipped.
///
/// `incumbent_seed` pre-loads every exhaustive phase's incumbent: pass the
/// value of a previous plan adapted to the instance, or `∞` for a cold
/// solve.  The seed must be an upper bound on the optimum; winners are then
/// bit-identical either way (see [`exhaustive_forest_search`]).  `probe`
/// receives the plan search's telemetry.
pub(crate) fn minimize_period_engine(
    app: &Application,
    model: CommModel,
    budget: &SearchBudget,
    exec: Exec,
    incumbent_seed: f64,
    evals: &AtomicUsize,
    probe: Option<&StreamProbe>,
) -> CoreResult<SearchOutcome> {
    let eval = |g: &ExecutionGraph, _cutoff: f64| -> f64 {
        evals.fetch_add(1, Ordering::Relaxed);
        evaluate_period(app, g, model).unwrap_or(f64::INFINITY)
    };
    if !app.has_constraints() {
        // The candidate value is the model's structural period bound, which
        // no prefix bound exceeds, not even by an ulp, so the walks prune
        // optimum ties as well as strict clearances.  It is class-invariant
        // too (path-order input factors, no cross-class sums on forests),
        // so the orbit reduction is safe wherever the instance admits it.
        if let Some(out) = exhaustive_forest_search(
            app,
            budget.max_graphs,
            exec,
            PartialPrune::StructuralPeriod(model),
            Symmetry::Classes,
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
            if let Some(out) = exhaustive_dag_search(
                app,
                5,
                exec,
                PartialPrune::Off,
                incumbent_seed,
                &eval,
                probe,
            ) {
                return Ok(out);
            }
        }
    }
    minperiod_local_search(app, model)
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
                let eval =
                    |g: &ExecutionGraph| evaluate_period(&app, g, model).unwrap_or(f64::INFINITY);
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
        let local = minperiod_local_search(&app, CommModel::Overlap).unwrap();
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
                        PartialPrune::Period(model),
                        Symmetry::Classes,
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
                    PartialPrune::Off,
                    f64::INFINITY,
                    &|g, _| {
                        walked.lock().unwrap().push(dag_key(g));
                        0.0
                    },
                    None,
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

    /// Checks every placement's floor against every completion of the
    /// walker's prefix (the whole unpruned subtree); returns the number of
    /// complete DAGs met.
    fn check_floors<F>(walker: &mut DagWalker<'_, F>) -> usize
    where
        F: Fn(&ExecutionGraph, f64) -> f64,
    {
        let (app, n) = (walker.app, walker.app.n());
        if walker.order.len() == n {
            let graph =
                ExecutionGraph::from_permutation_mask(&walker.order, walker.placed[n - 1].mask);
            let metrics = PlanMetrics::compute(app, &graph).unwrap();
            let critical = crate::latency::latency_lower_bound(app, &graph).unwrap();
            for (&s, placed) in walker.order.iter().zip(&walker.placed) {
                assert_eq!(
                    placed.factor.to_bits(),
                    metrics.input_factor(s).to_bits(),
                    "{app:?}: input factor of {s} in {graph:?}"
                );
                assert!(
                    placed.floor <= critical,
                    "{app:?}: floor {} after placing {s} above the critical path {critical} of {graph:?}",
                    placed.floor
                );
            }
            assert_eq!(
                walker.placed[n - 1].floor.to_bits(),
                critical.to_bits(),
                "{app:?}: the complete floor is the critical path of {graph:?}"
            );
            return 1;
        }
        let mut met = 0;
        for s in 0..n {
            if walker.order.contains(&s) {
                continue;
            }
            for preds in pred_sets(&walker.order, s) {
                assert!(walker.place(s, preds), "no constraint, no prune");
                met += check_floors(walker);
                walker.take_back();
            }
        }
        met
    }

    /// The latency floor the DAG walk records at a placement is never
    /// above the critical path (`latency_lower_bound`) of a DAG completing
    /// the prefix, not even by an ulp, and is that critical path bit for
    /// bit once every service is placed; each placement's input factor is
    /// `PlanMetrics::input_factor` bit for bit.  Checked at every placement
    /// of the unpruned walk on instances drawn from the differential
    /// sweep's colliding cost and selectivity pools, selectivity 1.3
    /// included, for n = 3, 4 and 5.
    #[test]
    fn the_dag_walk_floor_is_bit_admissible_at_every_placement() {
        let instances: [&[(f64, f64)]; 5] = [
            &[(2.5, 0.45), (0.25, 1.3), (2.5, 0.9)],
            &[(1.0, 1.3), (0.25, 0.6), (7.0, 0.7), (1.0, 1.3)],
            &[(0.25, 0.45), (0.25, 0.9), (0.25, 0.45), (0.25, 0.9)],
            &[
                (0.25, 0.45),
                (1.0, 0.6),
                (0.25, 0.45),
                (7.0, 1.3),
                (1.0, 0.9),
            ],
            &[(2.5, 0.7), (2.5, 1.3), (7.0, 0.45), (2.5, 0.7), (0.25, 0.9)],
        ];
        let dags = [0, 1, 3, 25, 543, 29_281];
        for specs in instances {
            let app = Application::independent(specs);
            let incumbent = Incumbent::new();
            let mut walker = DagWalker {
                app: &app,
                incumbent: &incumbent,
                prune: PartialPrune::Off,
                eval: &|_: &ExecutionGraph, _: f64| 0.0,
                deadline: None,
                required: &[0; DAG_ENUMERATION_HARD_MAX_N],
                order: Vec::new(),
                placed: Vec::new(),
                stats: DagStats::default(),
                best: None,
            };
            assert_eq!(check_floors(&mut walker), dags[app.n()], "{specs:?}");
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
                        PartialPrune::Off,
                        f64::INFINITY,
                        &|g, _| {
                            let v = eval(g);
                            if v == value {
                                first.lock().unwrap().get_or_insert(dag_key(g));
                            }
                            v
                        },
                        None,
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
        let independent =
            evaluate_period(&app, &ExecutionGraph::new(10), CommModel::Overlap).unwrap();
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
}
