//! Best-first search over the partial-assignment lower bound.
//!
//! The depth-first branch-and-bound enumerations explore candidates in
//! *generation* order: the incumbent tightens whenever the walk happens to
//! stumble on a good candidate, and everything visited before that point is
//! evaluated against a weak bound.  This module flips the exploration
//! around: a **priority frontier** of partial forests ordered by their
//! admissible [`PartialForestMetrics`] bound
//! (a binary heap with deterministic tie-breaking by enumeration rank)
//! always expands the most promising prefix next, so the incumbent drops to
//! the optimum almost immediately — and because the heap is bound-ordered,
//! the first popped node whose bound clears the incumbent is a
//! **bound-clearance certificate** for every node still enqueued: the
//! search ends by discarding the whole frontier in one step instead of
//! walking millions of hopeless subtrees to re-prove it one bound at a
//! time.
//!
//! Memory stays bounded: the frontier never grows past a hard cap
//! ([`DEFAULT_FRONTIER_CAP`] unless the caller chooses otherwise).  When a
//! batch of expansions could overflow it, the popped nodes are
//! **spilled** — their subtrees are completed depth-first on the spot
//! (inheriting the incumbent, so the spill is as pruned as the classic
//! walk) and contribute no frontier nodes at all.  In the worst case the
//! search degenerates into the depth-first enumeration it replaces, never
//! into an out-of-memory condition.
//!
//! ### Bit-identical to depth-first
//!
//! Both strategies prune a candidate only when its admissible bound
//! *strictly* clears the shared incumbent, so every candidate tying the
//! optimum is evaluated under either walk, whatever the thread count.  The
//! depth-first winner is the first minimum in enumeration order; the
//! best-first walk reproduces it exactly by minimising `(value, rank)`
//! lexicographically, where `rank` is that same enumeration order (the
//! node's choice sequence for labelled spaces, the canonical stream index
//! for orbit spaces).  On top of the strict rule the streamed walk adds a
//! **tie-dominance** prune: a subtree whose bound already *reaches* the
//! walker's local best value and whose completions are all canonically
//! later than the local best's rank is discarded non-strictly — every
//! candidate in it loses the `(value, rank)` comparison outright, so the
//! winner is untouched while optimum-tying plateaus (common when the
//! optimum sits on the input-rate floor) stop being walked.
//! `tests/partial_symmetry_equivalence.rs` asserts the equality on every
//! equivalence suite, serial and parallel, including the spill path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use fsw_core::{
    bound_ordered_shape_plan, walk_canonical_colorings, Application, ColoringVisitor,
    ExecutionGraph, PartialForestMetrics, ServiceId, ShapeBounder, ShapeObjective, ShapePlan,
    ShapeScan, WeightClasses,
};

use crate::engine::{prune_threshold, CanonicalRep, Incumbent, PartialPrune};
use crate::minperiod::SearchOutcome;
use crate::par::{par_chunks, par_chunks_weighted, Exec};

/// Hard cap on the number of partial forests held in the priority frontier
/// (~a few MB of prefixes at the deepest useful instance sizes); beyond it
/// the search spills to depth-first completion, so memory stays bounded
/// however large the space is.
pub const DEFAULT_FRONTIER_CAP: usize = 1 << 16;

/// Telemetry of one best-first run, for tests and tuning.
#[derive(Clone, Copy, Debug, Default)]
pub struct FrontierStats {
    /// Largest number of nodes the frontier ever held.
    pub peak: usize,
    /// Number of pop batches completed depth-first because expanding them
    /// could have overflowed the cap.
    pub spills: usize,
}

/// One frontier node: a prefix of parent choices and its admissible bound.
/// The heap orders by `(bound, key)` — `key` is the prefix's choice sequence
/// (`0` = entry node, `p + 1` = parent `p`), whose lexicographic order *is*
/// the serial enumeration order, making tie-breaks deterministic.
#[derive(Clone, Debug, PartialEq)]
struct Node {
    bound: f64,
    key: Vec<u8>,
}

impl Eq for Node {}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then_with(|| self.key.cmp(&other.key))
    }
}

/// The best complete candidate seen so far, with its enumeration rank.
struct Best {
    value: f64,
    key: Vec<u8>,
    graph: ExecutionGraph,
}

/// `(value, key)` beats the current best lexicographically — the rule that
/// reproduces the depth-first "first minimum wins" winner.
fn improves(value: f64, key: &[u8], best: &Option<Best>) -> bool {
    match best {
        None => true,
        Some(b) => value < b.value || (value == b.value && key < b.key.as_slice()),
    }
}

fn merge_best(best: &mut Option<Best>, candidate: Option<Best>) {
    if let Some(c) = candidate {
        if improves(c.value, &c.key, best) {
            *best = Some(c);
        }
    }
}

fn decode(choice: u8) -> Option<ServiceId> {
    match choice {
        0 => None,
        p => Some(p as usize - 1),
    }
}

/// Best-first enumeration of the labelled forest space (all parent
/// functions compatible with `app`'s constraints): bit-identical winners to
/// the depth-first walk, most promising prefixes first, frontier bounded by
/// `frontier_cap`.
pub fn best_first_forest_search<F>(
    app: &Application,
    exec: Exec,
    prune: PartialPrune,
    frontier_cap: usize,
    incumbent_seed: f64,
    eval: &F,
) -> Option<SearchOutcome>
where
    F: Fn(&ExecutionGraph, f64) -> f64 + Sync,
{
    best_first_forest_search_stats(app, exec, prune, frontier_cap, incumbent_seed, eval).0
}

/// [`best_first_forest_search`] with the run's [`FrontierStats`] (tests
/// assert the cap is respected and the spill path fires).
///
/// `incumbent_seed` pre-loads the shared incumbent with a known upper bound
/// on the space's optimum (`f64::INFINITY` for a cold search): pruning and
/// the bound-clearance certificate stay strict, so the winner is unchanged
/// while the hopeless region is skipped — the warm-start contract of
/// `exhaustive_forest_search_seeded`.
pub fn best_first_forest_search_stats<F>(
    app: &Application,
    exec: Exec,
    prune: PartialPrune,
    frontier_cap: usize,
    incumbent_seed: f64,
    eval: &F,
) -> (Option<SearchOutcome>, FrontierStats)
where
    F: Fn(&ExecutionGraph, f64) -> f64 + Sync,
{
    let n = app.n();
    let mut stats = FrontierStats::default();
    if n == 0 {
        return (None, stats);
    }
    // Keys encode a choice per position as one byte (`0` = entry node,
    // `p + 1` = parent `p`); enumerable spaces sit far below this, but the
    // encoding must never truncate silently.
    assert!(
        n < u8::MAX as usize,
        "frontier keys encode parents as u8: n = {n} is out of range"
    );
    let frontier_cap = frontier_cap.max(1);
    let threads = exec.effective_threads();
    let batch_len = (threads * 4).max(1);
    let incumbent = Incumbent::seeded(incumbent_seed);
    let mut heap: BinaryHeap<Reverse<Node>> = BinaryHeap::new();
    heap.push(Reverse(Node {
        bound: 0.0,
        key: Vec::new(),
    }));
    stats.peak = 1;
    let mut best: Option<Best> = None;
    let mut complete = true;
    'search: loop {
        if exec.deadline.is_some_and(|d| Instant::now() >= d) {
            complete = heap.is_empty();
            break;
        }
        // Pop a bound-ordered batch.  The first node whose bound clears the
        // incumbent certifies every node still enqueued prunable (the heap
        // holds nothing smaller), so the whole frontier is discarded at once.
        let mut nodes: Vec<Node> = Vec::with_capacity(batch_len);
        while nodes.len() < batch_len {
            match heap.pop() {
                Some(Reverse(node)) => {
                    if node.bound > prune_threshold(incumbent.get()) {
                        heap.clear(); // bound-clearance certificate
                        break;
                    }
                    nodes.push(node);
                }
                None => break,
            }
        }
        if nodes.is_empty() {
            break;
        }
        // Expanding a node adds up to `n + 1` children; spill the batch to
        // depth-first completion when that could overflow the cap.
        let spill = heap.len() + nodes.len() * (n + 1) > frontier_cap;
        if spill {
            stats.spills += 1;
        }
        let parts = par_chunks(threads, &nodes, |_base, chunk| {
            let mut children: Vec<Node> = Vec::new();
            let mut local: Option<Best> = None;
            let mut metrics = PartialForestMetrics::new(app);
            let mut interrupted = false;
            for node in chunk {
                for &choice in &node.key {
                    metrics.push(decode(choice));
                }
                let ok = if node.key.len() == n {
                    evaluate_leaf(
                        app,
                        &metrics,
                        &node.key,
                        &incumbent,
                        eval,
                        exec.deadline,
                        &mut local,
                    )
                } else if spill {
                    let mut key = node.key.clone();
                    dfs_complete(
                        app,
                        &mut metrics,
                        &mut key,
                        &incumbent,
                        prune,
                        eval,
                        exec.deadline,
                        &mut local,
                    )
                } else {
                    expand(app, &mut metrics, node, prune, &incumbent, &mut children);
                    true
                };
                for _ in &node.key {
                    metrics.pop();
                }
                if !ok {
                    interrupted = true;
                    break;
                }
            }
            (children, local, interrupted)
        });
        let mut interrupted = false;
        for (children, local, part_interrupted) in parts {
            for child in children {
                heap.push(Reverse(child));
            }
            merge_best(&mut best, local);
            interrupted |= part_interrupted;
        }
        stats.peak = stats.peak.max(heap.len());
        if interrupted {
            complete = false;
            break 'search;
        }
    }
    let outcome = best.map(|b| SearchOutcome {
        value: b.value,
        graph: b.graph,
        complete,
    });
    (outcome, stats)
}

/// Evaluates a complete parent function against the shared incumbent.
/// Returns `false` when the deadline interrupted before the evaluation.
#[allow(clippy::too_many_arguments)]
fn evaluate_leaf<F>(
    app: &Application,
    metrics: &PartialForestMetrics<'_>,
    key: &[u8],
    incumbent: &Incumbent,
    eval: &F,
    deadline: Option<Instant>,
    best: &mut Option<Best>,
) -> bool
where
    F: Fn(&ExecutionGraph, f64) -> f64,
{
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return false;
    }
    let Ok(graph) = ExecutionGraph::from_parents(metrics.parents()) else {
        return true; // the parent function contains a cycle
    };
    if graph.respects(app).is_err() {
        return true;
    }
    let value = eval(&graph, incumbent.get());
    if improves(value, key, best) {
        incumbent.offer(value);
        *best = Some(Best {
            value,
            key: key.to_vec(),
            graph,
        });
    }
    true
}

/// Expands a frontier node: every next-position choice whose admissible
/// bound survives the incumbent becomes a child node.
fn expand(
    app: &Application,
    metrics: &mut PartialForestMetrics<'_>,
    node: &Node,
    prune: PartialPrune,
    incumbent: &Incumbent,
    children: &mut Vec<Node>,
) {
    let n = app.n();
    let k = metrics.assigned();
    debug_assert_eq!(k, node.key.len());
    for choice in 0..=(n as u8) {
        let parent = decode(choice);
        if parent == Some(k) {
            continue; // self-loops are never enumerated
        }
        metrics.push(parent);
        let bound = match prune {
            PartialPrune::Off => 0.0,
            PartialPrune::Period(model) => metrics.period_bound(model),
            PartialPrune::Latency => metrics.latency_bound(),
        };
        metrics.pop();
        // An infinite bound flags a cycle inside the prefix; a bound above
        // the incumbent's threshold proves the subtree hopeless — the same
        // two prunes the depth-first walk applies at node entry.
        if bound == f64::INFINITY || bound > prune_threshold(incumbent.get()) {
            continue;
        }
        let mut key = Vec::with_capacity(node.key.len() + 1);
        key.extend_from_slice(&node.key);
        key.push(choice);
        children.push(Node { bound, key });
    }
}

/// Depth-first completion of a spilled subtree, tracking `(value, key)` so
/// spilled winners merge deterministically with frontier winners.  Returns
/// `false` when the deadline interrupted the walk.
///
/// Mirror of `minperiod::enumerate_parents_pruned` plus the key tracking:
/// the bit-identity contract between the strategies requires the prune rule
/// (infinite bound = cycle, strict `prune_threshold` clearance) and the
/// choice order (`None` first, then ascending parents) to stay in lockstep
/// with that walker — change them together.
#[allow(clippy::too_many_arguments)]
fn dfs_complete<F>(
    app: &Application,
    metrics: &mut PartialForestMetrics<'_>,
    key: &mut Vec<u8>,
    incumbent: &Incumbent,
    prune: PartialPrune,
    eval: &F,
    deadline: Option<Instant>,
    best: &mut Option<Best>,
) -> bool
where
    F: Fn(&ExecutionGraph, f64) -> f64,
{
    if prune != PartialPrune::Off && metrics.assigned() > 0 {
        let bound = match prune {
            PartialPrune::Off => unreachable!(),
            PartialPrune::Period(model) => metrics.period_bound(model),
            PartialPrune::Latency => metrics.latency_bound(),
        };
        if bound == f64::INFINITY || bound > prune_threshold(incumbent.get()) {
            return true;
        }
    }
    let n = app.n();
    let k = metrics.assigned();
    if k >= n {
        return evaluate_leaf(app, metrics, key, incumbent, eval, deadline, best);
    }
    for choice in 0..=(n as u8) {
        let parent = decode(choice);
        if parent == Some(k) {
            continue;
        }
        metrics.push(parent);
        key.push(choice);
        let ok = dfs_complete(app, metrics, key, incumbent, prune, eval, deadline, best);
        key.pop();
        metrics.pop();
        if !ok {
            return false;
        }
    }
    true
}

/// Telemetry of one streamed canonical run, for tests, tuning and the
/// benchmark rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// Number of shapes (forest-isomorphism classes) in the plan.
    pub shapes: usize,
    /// Total coloured-orbit count, when the counting pass was tractable for
    /// the weight partition.
    pub orbits: Option<u128>,
    /// Number of representatives materialised and evaluated.
    pub expanded: u64,
    /// Peak number of representatives concurrently materialised (one per
    /// active worker, never more than the frontier cap).
    pub peak_resident: usize,
    /// Number of shapes discarded wholesale by the final bound-clearance
    /// certificate, without expanding a single representative.
    pub certified_shapes: usize,
}

/// A write-once sink for the [`StreamStats`] of the plan search buried
/// inside a solve: the orchestrator threads one through its engine calls so
/// telemetry surfaces in `SolveStats` without widening every search
/// signature on the way down.  Every `SearchStrategy` branch records —
/// streamed, materialised depth-first, raw best-first and raw labelled
/// walks alike.
///
/// A probe built with [`StreamProbe::with_metrics`] additionally publishes
/// each recorded run into the registry (`engine.stream.*` histograms and
/// the `engine.stream.peak_resident` gauge) and exposes the registry to
/// the engine for stage spans ([`EngineMetrics`]).
#[derive(Debug, Default)]
pub struct StreamProbe {
    stats: std::sync::Mutex<Option<StreamStats>>,
    metrics: Option<std::sync::Arc<fsw_obs::MetricsRegistry>>,
}

impl StreamProbe {
    /// A probe that also publishes recorded runs into `registry`.
    pub fn with_metrics(registry: std::sync::Arc<fsw_obs::MetricsRegistry>) -> Self {
        StreamProbe {
            stats: std::sync::Mutex::new(None),
            metrics: Some(registry),
        }
    }

    /// The registry this probe publishes to, if any.
    pub fn metrics(&self) -> Option<&std::sync::Arc<fsw_obs::MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Records the stats of a plan search (the last run wins when a solve
    /// performs several, e.g. a forest phase followed by a DAG phase).
    pub fn record(&self, stats: StreamStats) {
        if let Some(registry) = &self.metrics {
            registry
                .histogram("engine.stream.shapes")
                .record(stats.shapes as u64);
            registry
                .histogram("engine.stream.expanded")
                .record(stats.expanded);
            registry
                .histogram("engine.stream.certified_shapes")
                .record(stats.certified_shapes as u64);
            registry
                .gauge("engine.stream.peak_resident")
                .set(stats.peak_resident as u64);
        }
        *self.stats.lock().expect("stream probe poisoned") = Some(stats);
    }

    /// The recorded stats, if a plan search ran.
    pub fn snapshot(&self) -> Option<StreamStats> {
        *self.stats.lock().expect("stream probe poisoned")
    }
}

/// Cached span timers of the engine's streamed-walk stages, resolved once
/// per solve from the probe's registry: `engine.shape_stream` (bound-ordered
/// shape-plan generation), `engine.expand` (one span per expansion batch)
/// and `engine.certify` (the head bound-clearance certificate ending a
/// search).  Span durations are wall-clock and observability-only — no
/// digest-feeding value derives from them.
#[derive(Clone, Debug)]
pub struct EngineMetrics {
    shape_stream: fsw_obs::SpanTimer,
    expand: fsw_obs::SpanTimer,
    certify: fsw_obs::SpanTimer,
}

impl EngineMetrics {
    /// Resolves the stage timers in `registry`.
    pub fn new(registry: &fsw_obs::MetricsRegistry) -> Self {
        EngineMetrics {
            shape_stream: registry.span("engine.shape_stream"),
            expand: registry.span("engine.expand"),
            certify: registry.span("engine.certify"),
        }
    }
}

/// Prune-aware [`ColoringVisitor`]: replays the colour assignment of one
/// shape against an incrementally maintained [`PartialForestMetrics`],
/// pinning each position to a concrete service of its class (smallest
/// unused id — bit-identical to `WeightClasses::service_assignment`), and
/// refuses every prefix whose admissible bound strictly clears the shared
/// incumbent, so whole colour subtrees die without a representative ever
/// being materialised.
struct StreamWalker<'a, F> {
    metrics: PartialForestMetrics<'a>,
    prune: PartialPrune,
    incumbent: &'a Incumbent,
    eval: &'a F,
    deadline: Option<Instant>,
    /// Ascending service ids per weight class; `pool[c][used[c]]` is the
    /// next id handed out, replaying `service_assignment` incrementally.
    pool: &'a [Vec<ServiceId>],
    used: Vec<usize>,
    parents: Vec<Option<ServiceId>>,
    weights: Vec<ServiceId>,
    /// [`ShapePlan::rank`] of the shape being walked: the high half of
    /// every global index.
    shape_rank: u64,
    /// Completions reached so far within the current shape: pruned
    /// colourings are strictly worse than the incumbent so they never tie
    /// for the minimum, and reached completions keep their relative walk
    /// order in every run — `(value, idx)` minimisation therefore
    /// reproduces the materialised first-minimum winner exactly.
    reached: u64,
    ticks: u32,
    interrupted: bool,
    expanded: u64,
    local: Option<(f64, u128, ExecutionGraph)>,
}

impl<F> ColoringVisitor for StreamWalker<'_, F>
where
    F: Fn(&ExecutionGraph, f64) -> f64,
{
    fn descend(&mut self, _pos: usize, parent: Option<usize>, class: usize) -> bool {
        if self.interrupted {
            return false;
        }
        self.ticks = self.ticks.wrapping_add(1);
        if self.ticks & 0x3FF == 0 && self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.interrupted = true;
            return false;
        }
        let service = self.pool[class][self.used[class]];
        self.metrics.push_weighted(parent, service);
        if self.prune != PartialPrune::Off {
            let bound = match self.prune {
                PartialPrune::Off => unreachable!(),
                PartialPrune::Period(model) => self.metrics.period_bound(model),
                PartialPrune::Latency => self.metrics.latency_bound(),
            };
            // Strict clearance only, so optimum-tying colourings always
            // survive — the rule every other walker prunes with.
            if bound > prune_threshold(self.incumbent.get()) {
                self.metrics.pop();
                return false;
            }
            // Tie dominance: once this walker holds a local best `(v, i)`,
            // a subtree whose admissible bound already reaches `v` and whose
            // every completion is canonically later than `i` cannot contain
            // the `(value, idx)` minimum — each candidate in it has
            // `value ≥ bound ≥ v` and `idx > i`, so it loses the
            // lexicographic comparison even on an exact value tie.  This is
            // what collapses the tie plateau of instances whose optimum sits
            // on the input-rate floor: after the first optimal completion,
            // the millions of orbits tying it die here without being
            // materialised.  (Local best only: it never races with other
            // workers, and the cross-worker merge still minimises
            // `(value, idx)`.)
            if let Some((bv, bi, _)) = self.local.as_ref() {
                let floor = ((self.shape_rank as u128) << 64) | self.reached as u128;
                if bound >= *bv && floor > *bi {
                    self.metrics.pop();
                    return false;
                }
            }
        }
        self.used[class] += 1;
        self.parents.push(parent);
        self.weights.push(service);
        true
    }

    fn ascend(&mut self, _pos: usize, class: usize) {
        self.metrics.pop();
        self.used[class] -= 1;
        self.parents.pop();
        self.weights.pop();
    }

    fn complete(&mut self, _colors: &[usize], _aut: u128) -> bool {
        if self.interrupted || self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.interrupted = true;
            return false;
        }
        let idx = ((self.shape_rank as u128) << 64) | self.reached as u128;
        self.reached += 1;
        self.expanded += 1;
        let graph = CanonicalRep::labelled_graph(&self.parents, &self.weights);
        let value = (self.eval)(&graph, self.incumbent.get());
        let improves = self
            .local
            .as_ref()
            .is_none_or(|&(bv, bi, _)| value < bv || (value == bv && idx < bi));
        if improves {
            self.incumbent.offer(value);
            self.local = Some((value, idx, graph));
        }
        true
    }
}

/// Best-first walk of a canonical orbit space **without materialising it**:
/// a count-only prelude streams every shape once
/// ([`fsw_core::bound_ordered_shape_plan`]), attaches a shape-level
/// admissible bound ([`ShapeBounder`]) and sorts the shapes bound-ascending;
/// the expansion loop then walks the canonical colourings of each shape on
/// demand ([`walk_canonical_colorings`]), pruning colour prefixes against
/// the shared incumbent, so memory holds the flat O(shapes) plan (and,
/// while it is built, the colour counter's memo) plus at most one
/// representative per worker — never the coloured space.  Because the
/// shape order is bound-ascending, the first shape whose bound clears the
/// incumbent certifies every remaining shape prunable and ends the search
/// in one step.
///
/// The winner is the `(value, global index)` lexicographic minimum, where
/// the global index orders candidates by `(shape rank, walk order within
/// the shape)` — the rank ([`ShapePlan::rank`]) increases along the
/// canonical shape stream, so this is exactly the materialised enumeration
/// order — and complete runs are bit-identical to the depth-first scan of
/// the materialised stream, serial or parallel.  `frontier_cap` bounds the
/// number of shapes expanded per batch (hence the resident representative
/// count); each record's 64-bit parenthesis key is the resumable cursor,
/// decoded into one reused buffer per worker, so throttling never
/// re-materialises anything.
pub fn streamed_canonical_search<F>(
    app: &Application,
    classes: &WeightClasses,
    exec: Exec,
    prune: PartialPrune,
    frontier_cap: usize,
    incumbent_seed: f64,
    eval: &F,
) -> (Option<SearchOutcome>, StreamStats)
where
    F: Fn(&ExecutionGraph, f64) -> f64 + Sync,
{
    streamed_canonical_search_observed(
        app,
        classes,
        exec,
        prune,
        frontier_cap,
        incumbent_seed,
        eval,
        None,
    )
}

/// [`streamed_canonical_search`] with optional per-stage tracing spans
/// ([`EngineMetrics`]): shape-plan generation, expansion batches and the
/// bound-clearance certificate each record a call count and a wall-duration
/// histogram.  The walk itself is untouched — instrumented and plain runs
/// return bit-identical outcomes and stats.
#[allow(clippy::too_many_arguments)]
pub fn streamed_canonical_search_observed<F>(
    app: &Application,
    classes: &WeightClasses,
    exec: Exec,
    prune: PartialPrune,
    frontier_cap: usize,
    incumbent_seed: f64,
    eval: &F,
    obs: Option<&EngineMetrics>,
) -> (Option<SearchOutcome>, StreamStats)
where
    F: Fn(&ExecutionGraph, f64) -> f64 + Sync,
{
    let mut stats = StreamStats::default();
    let objective = match prune {
        PartialPrune::Off => None,
        PartialPrune::Period(model) => Some(ShapeObjective::Period(model)),
        PartialPrune::Latency => Some(ShapeObjective::Latency),
    };
    let bounder = objective.map(|o| ShapeBounder::new(app, o));
    // Bounded-Dijkstra-style cutoff reuse: a warm incumbent seed is an upper
    // bound on the optimum, so its prune threshold can already certify
    // shapes at *emission* — they are counted, never stored or sorted.  A
    // cold search (infinite seed) keeps every shape, and the threshold is
    // the same strict-clearance rule every walker prunes with, so winners
    // are bit-identical either way.
    let cutoff = prune_threshold(incumbent_seed);
    let shape_span = obs.map(|m| m.shape_stream.start());
    let plan = match bound_ordered_shape_plan(classes, bounder.as_ref(), cutoff, exec.deadline) {
        // Nothing evaluated yet: degrade to the fallback like any
        // interrupted search.
        ShapeScan::DeadlineExpired | ShapeScan::TooWide => return (None, stats),
        ShapeScan::Planned {
            shapes,
            orbits,
            pruned,
        } => {
            stats.shapes = shapes.len() + pruned as usize;
            stats.orbits = orbits;
            stats.certified_shapes = pruned as usize;
            shapes
        }
    };
    drop(shape_span);
    let mut pool: Vec<Vec<ServiceId>> = vec![Vec::new(); classes.class_count()];
    for k in 0..classes.n() {
        pool[classes.class_of(k)].push(k);
    }
    let incumbent = Incumbent::seeded(incumbent_seed);
    let threads = exec.effective_threads();
    let batch_len = (threads * 2).max(1).min(frontier_cap.max(1));
    let weight_of = |s: &ShapePlan| s.colorings.max(1);
    let mut best: Option<(f64, u128, ExecutionGraph)> = None;
    let mut complete = true;
    let mut at = 0;
    while at < plan.len() {
        if exec.deadline.is_some_and(|d| Instant::now() >= d) {
            complete = false;
            break;
        }
        // Bound-ascending order: the head clearing the incumbent is the
        // certificate that every remaining shape is prunable.
        if plan[at].bound > prune_threshold(incumbent.get()) {
            let _certify_span = obs.map(|m| m.certify.start());
            stats.certified_shapes += plan.len() - at;
            break;
        }
        let expand_span = obs.map(|m| m.expand.start());
        let hi = (at + batch_len).min(plan.len());
        let batch = &plan[at..hi];
        let parts = par_chunks_weighted(threads, batch, weight_of, |_base, chunk| {
            let mut walker = StreamWalker {
                metrics: PartialForestMetrics::new(app),
                prune,
                incumbent: &incumbent,
                eval,
                deadline: exec.deadline,
                pool: &pool,
                used: vec![0; pool.len()],
                parents: Vec::with_capacity(classes.n()),
                weights: Vec::with_capacity(classes.n()),
                shape_rank: 0,
                reached: 0,
                ticks: 0,
                interrupted: false,
                expanded: 0,
                local: None,
            };
            let mut levels = Vec::with_capacity(classes.n() + 1);
            for shape in chunk {
                // Re-check against the live incumbent: shapes admitted when
                // the batch was cut may have become hopeless since.
                if shape.bound > prune_threshold(incumbent.get()) {
                    continue;
                }
                // Shape-level tie dominance (the same rule the walker
                // applies per colour prefix): every completion of a
                // later-ranked shape is canonically later than the local
                // best, so a bound reaching its value certifies the whole
                // shape a lexicographic loser.
                if walker.local.as_ref().is_some_and(|(bv, bi, _)| {
                    shape.bound >= *bv && ((shape.rank() as u128) << 64) > *bi
                }) {
                    continue;
                }
                walker.shape_rank = shape.rank();
                walker.reached = 0;
                shape.decode_into(&mut levels);
                if !walk_canonical_colorings(&levels, classes, &mut walker) {
                    break; // deadline interrupted mid-walk
                }
            }
            (walker.local, walker.expanded, walker.interrupted)
        });
        // Peak residency is measured, not estimated: each walker holds at
        // most one materialised representative at a time, so the batch's
        // residency is the number of workers that expanded anything — the
        // same accounting on the classed walk and the single-class fast
        // path, so `SolveStats::stream` is trustworthy for uniform solves.
        let resident = parts
            .iter()
            .filter(|(_, expanded, _)| *expanded > 0)
            .count();
        stats.peak_resident = stats.peak_resident.max(resident);
        for (local, expanded, part_interrupted) in parts {
            stats.expanded += expanded;
            if let Some((value, idx, graph)) = local {
                let improves = best
                    .as_ref()
                    .is_none_or(|&(bv, bi, _)| value < bv || (value == bv && idx < bi));
                if improves {
                    best = Some((value, idx, graph));
                }
            }
            complete &= !part_interrupted;
        }
        drop(expand_span);
        if !complete {
            break;
        }
        at = hi;
    }
    let outcome = best.map(|(value, _, graph)| SearchOutcome {
        value,
        graph,
        complete,
    });
    (outcome, stats)
}
