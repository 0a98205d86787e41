//! The streamed, bound-ordered walk of a canonical orbit space — the one
//! walk every reducible plan space (uniform, or class-symmetric) runs.
//!
//! A depth-first enumeration explores candidates in *generation* order: the
//! incumbent tightens whenever the walk happens to stumble on a good
//! candidate, and everything visited before that point is evaluated against
//! a weak bound.  The streamed walk flips the exploration around.  A
//! prelude orders the forest **shapes** (A000081 of them) by an admissible
//! shape-level bound, and the expansion loop walks the canonical colourings
//! of each shape on demand, most promising shape first.  The incumbent
//! therefore drops to the optimum almost immediately, and because the plan
//! is bound-ordered, the first shape whose bound clears the incumbent is a
//! **bound-clearance certificate** for every shape after it: the search
//! ends by discarding the rest of the plan in one step instead of walking
//! millions of hopeless subtrees to re-prove it one bound at a time.
//!
//! Memory stays bounded: the walk holds the flat plan of 16-byte shape
//! records and at most one materialised representative per worker.  The
//! prelude stores only the shapes the walk could enter and does not meet
//! on its own stream: before it runs, the search values its objective's
//! constructive plans (the local-search seeds, feasible forests of the
//! space) with its own evaluation, and splits the shapes at the best of
//! them, or a warm incumbent seed, whichever is lower — the upper bound.
//! A shape whose bound clears the upper bound is counted at emission and
//! given no record; a serial walk would discard it unwalked by the
//! certificate below.  A shape whose bound is bit-equal to the upper bound
//! is on the **plateau**: it gets no record either, and the walk claims it
//! straight off a fresh canonical stream, in rank order, after the stored
//! shapes below the upper bound and before the stored shapes above it —
//! exactly where the sorted plan of every shape puts it.  The serial walk
//! therefore enters the same shapes in the same order and expands the
//! same representatives as a walk over every shape, and no walk changes
//! its winner.  On a space whose optimum sits on its shape floors every
//! shape the walk could enter is on the plateau, and the plan is empty.
//!
//! There are no batches and no frontier cap: the workers are spawned once
//! per search (the calling thread is one of them, so a serial walk spawns
//! nothing), each keeps one walker for the whole search, and they claim
//! runs of consecutive shapes in plan order from a shared cursor until a
//! claimed shape's bound clears the incumbent.  A run that reaches the
//! plateau reads its shapes off the plateau stream, which one lock guards.
//! A walker's local best is the tie rule's reference, so keeping it across
//! shapes lets one optimum prune the tying prefixes of every later shape
//! the worker claims.
//!
//! ### The winner
//!
//! The walk prunes a candidate by its admissible bound only when that bound
//! *strictly* clears the shared incumbent, so every candidate tying the
//! optimum survives it, whatever the thread count.  The winner is the
//! `(value, rank)` lexicographic minimum, where `rank` is the canonical
//! enumeration order — the first minimum of a scan over the materialised
//! representatives ([`fsw_core::classed_forest_representatives`]).  When the
//! candidate evaluation is the structural period bound itself
//! ([`PartialPrune::StructuralPeriod`]), the walk adds the **tie-dominance**
//! prune both forest walks share (`crate::engine::tie_dominated`): a colour
//! prefix whose bound already *reaches* the walker's local best value and
//! whose completions are all canonically later than the local best's rank
//! is discarded non-strictly — every candidate in it loses the
//! `(value, rank)` comparison outright, so the winner is untouched while
//! optimum-tying plateaus (common when the optimum sits on the input-rate
//! floor) stop being walked.  Because a walker keeps its local best across
//! shapes, the rule reaches from one shape into every later one the worker
//! claims.  The rule needs a bound that is bit-admissible: the prefix bound
//! of [`PartialForestMetrics`] is, and the first colour prefix of a shape
//! applies it; the shape-level floors of [`ShapeBounder`] are not (they
//! multiply selectivities in sorted rather than path order, which can round
//! an ulp lower), so shapes are only ever discarded by strict clearance.
//! Forest latencies do not dominate the latency bound bit for bit, so the
//! latency walks keep strict clearance alone.
//! `tests/partial_symmetry_equivalence.rs` asserts the equality against
//! that scan, serial and at several thread counts.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use fsw_core::{
    forest_graph, split_shape_plan, Application, ColoringScratch, ColoringVisitor, ExecutionGraph,
    PartialForestMetrics, ServiceId, ShapeBounder, ShapeObjective, ShapePlan, ShapeScan,
    ShapeStream, WeightClasses,
};

use crate::engine::{prune_threshold, tie_dominated, Incumbent, PartialPrune};
use crate::minperiod::SearchOutcome;
use crate::par::Exec;

/// Shapes a worker claims at a time: consecutive in plan order, so a claim
/// costs one shared increment per run rather than per shape.
const CLAIM_SHAPES: usize = 16;

/// Telemetry of one streamed canonical run, for tests, tuning and the
/// benchmark rows.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// Number of shapes (forest-isomorphism classes) of the space: the
    /// plan's records, the plateau's shapes and the shapes its prelude
    /// cutoff dropped.
    pub shapes: usize,
    /// Number of shape records the prelude held: the shapes whose bound
    /// neither clears the upper bound nor equals it bit for bit.  The
    /// plateau is streamed, not stored, so this is 0 on a space whose
    /// every enterable shape ties the constructive value.
    pub stored_shapes: usize,
    /// Number of representatives materialised and evaluated.
    pub expanded: u64,
    /// Peak number of representatives concurrently materialised: one per
    /// worker that expanded anything, so never more than the worker count.
    pub peak_resident: usize,
    /// Number of shapes discarded wholesale, without expanding a single
    /// representative: by the prelude cutoff at emission, or by the final
    /// bound-clearance certificate.
    pub certified_shapes: usize,
}

/// Telemetry of one DAG walk
/// ([`exhaustive_dag_search`](crate::minperiod::exhaustive_dag_search)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DagStats {
    /// Complete DAGs the walk valued; it builds each labelled DAG at most
    /// once, so never more than A003024(n) (29 281 at `n = 5`).
    pub visited: u64,
    /// Subtrees the walk dropped at a placement: the placed service lacked
    /// an ancestor its precedence constraints require, or the prefix's
    /// latency floor strictly cleared the incumbent.
    pub pruned: u64,
}

/// A write-once sink for the [`StreamStats`] of the plan search buried
/// inside a solve: the orchestrator threads one through its engine calls so
/// telemetry surfaces in `SolveStats` without widening every search
/// signature on the way down.  Both walks record — the streamed canonical
/// walk and the depth-first walk of the labelled space.
///
/// A DAG walk records its [`DagStats`] into the same probe.
///
/// A probe built with [`StreamProbe::with_metrics`] additionally publishes
/// each recorded run into the registry (`engine.stream.*` histograms and
/// the `engine.stream.peak_resident` gauge; the `engine.dag.visited` and
/// `engine.dag.pruned` counters) and exposes the registry to the engine
/// for stage spans ([`EngineMetrics`]).
#[derive(Debug, Default)]
pub struct StreamProbe {
    stats: std::sync::Mutex<Option<StreamStats>>,
    dag: std::sync::Mutex<Option<DagStats>>,
    metrics: Option<std::sync::Arc<fsw_obs::MetricsRegistry>>,
}

impl StreamProbe {
    /// A probe that also publishes recorded runs into `registry`.
    pub fn with_metrics(registry: std::sync::Arc<fsw_obs::MetricsRegistry>) -> Self {
        StreamProbe {
            metrics: Some(registry),
            ..StreamProbe::default()
        }
    }

    /// The registry this probe publishes to, if any.
    pub fn metrics(&self) -> Option<&std::sync::Arc<fsw_obs::MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Records the stats of a forest walk (the last run wins when a solve
    /// performs several).
    pub fn record(&self, stats: StreamStats) {
        if let Some(registry) = &self.metrics {
            registry
                .histogram("engine.stream.shapes")
                .record(stats.shapes as u64);
            registry
                .histogram("engine.stream.stored_shapes")
                .record(stats.stored_shapes as u64);
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

    /// Records the stats of a DAG walk.
    pub fn record_dag(&self, stats: DagStats) {
        if let Some(registry) = &self.metrics {
            registry.counter("engine.dag.visited").add(stats.visited);
            registry.counter("engine.dag.pruned").add(stats.pruned);
        }
        *self.dag.lock().expect("stream probe poisoned") = Some(stats);
    }

    /// The recorded DAG walk stats, if a DAG walk ran.
    pub fn dag_snapshot(&self) -> Option<DagStats> {
        *self.dag.lock().expect("stream probe poisoned")
    }
}

/// Cached span timers of the engine's streamed-walk stages, resolved once
/// per solve from the probe's registry: `engine.shape_stream` (the prelude:
/// the shape scan that splits the space at the upper bound and the stored
/// plan), `engine.expand` (one span per search's expansion phase, which
/// includes streaming the plateau) and `engine.certify` (the head
/// bound-clearance certificate ending a search; a search whose prelude
/// already dropped every shape the certificate would have discarded ends by
/// running out of plan and records none).  Span durations are wall-clock
/// and observability-only — no digest-feeding value derives from them.
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
/// incumbent or is tie-dominated by the walker's local best, so whole colour
/// subtrees die without a representative ever being materialised.
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
    /// colourings are strictly worse than the incumbent or lose the tie to
    /// the local best, so they never win, and reached completions keep
    /// their relative walk order in every run — `(value, idx)`
    /// minimisation therefore reproduces the materialised first-minimum
    /// winner exactly.
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
        if let Some(bound) = self.prune.bound(&mut self.metrics) {
            // Strict clearance first, then tie dominance against this
            // walker's local best: every completion of the prefix comes
            // after the completions reached so far in the shape.
            let first = ((self.shape_rank as u128) << 64) | self.reached as u128;
            if bound > prune_threshold(self.incumbent.get())
                || tie_dominated(self.prune, bound, first, self.local.as_ref())
            {
                self.metrics.pop();
                return false;
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
        let graph = forest_graph(&self.parents, &self.weights)
            .expect("canonical parent vectors are acyclic");
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

/// The constructive plans of the objective `prune` bounds, as the
/// local-search fallbacks start from them: the independent plan, the
/// Proposition 8 chain and the no-communication plan for the period
/// bounds, the independent plan and the Proposition 16 chain for the
/// latency bound, and none for [`PartialPrune::Off`], whose plan has no
/// bounds to cut.  A plan that is not a forest is skipped: it is no point
/// of the forest space, and a MINLATENCY DAG value below every forest would
/// starve the forest phase.
pub fn constructive_plans(app: &Application, prune: PartialPrune) -> Vec<ExecutionGraph> {
    let plans = match prune {
        PartialPrune::Off => Vec::new(),
        PartialPrune::Period(model) | PartialPrune::StructuralPeriod(model) => {
            crate::minperiod::seed_graphs(app, model)
        }
        PartialPrune::Latency => crate::minlatency::seed_graphs(app),
    };
    plans
        .into_iter()
        .filter(ExecutionGraph::is_forest)
        .collect()
}

/// Best-first walk of a canonical orbit space **without materialising it**:
/// a prelude streams every shape ([`fsw_core::split_shape_plan`]), attaches
/// a shape-level admissible bound ([`ShapeBounder`]) and splits the shapes
/// at an upper bound on the optimum: those whose bound clears it are
/// dropped, those whose bound equals it bit for bit form the plateau, and
/// the rest are stored and sorted bound-ascending.  The expansion then
/// walks the canonical colourings of each shape on demand
/// ([`ColoringScratch::walk`]) — the stored shapes below the upper bound,
/// then the plateau straight off a fresh [`ShapeStream`] in rank order,
/// then the stored shapes above it — pruning colour prefixes against the
/// shared incumbent, so memory holds the 16-byte records of the stored
/// shapes plus at most one representative per worker — never the coloured
/// space, and never the plateau.  Because the shape order is
/// bound-ascending, the first shape whose bound strictly clears the
/// incumbent certifies every remaining shape prunable and ends the search
/// in one step.
///
/// The prelude's upper bound is the lower of `incumbent_seed` and the best
/// value `eval` gives the objective's [`constructive_plans`], evaluated
/// once each before the prelude runs (so the walk's `eval` sees them first,
/// at the cutoff `incumbent_seed`).  Each is a feasible forest of the
/// space, so the cut drops only shapes a serial walk's certificate would
/// have discarded unwalked; those count as certified at emission.  (A
/// parallel walk may enter fewer shapes, whose bounds clear the optimum.)
/// The plateau is walked where the sorted plan of every shape holds it, so
/// a serial walk enters the same shapes in the same order either way.  An
/// infinite or NaN upper bound sets no plateau aside and stores every
/// shape.
///
/// `exec`'s workers are spawned once (the calling thread is one of them,
/// so a serial walk spawns nothing): each keeps one walker — its partial
/// metrics, colouring scratch and local best — for the whole search and
/// claims the next run of shapes in plan order from a shared cursor,
/// decoding each stored record's 64-bit parenthesis key into one reused
/// buffer and copying a run's plateau shapes off the locked stream.  The
/// workers are sized by the stored and plateau shapes together, so a walk
/// over the plateau alone still uses every thread.  The winner is the
/// `(value, global index)` lexicographic minimum, where the global index
/// orders candidates by `(shape rank, walk order within the shape)` — the
/// rank ([`fsw_core::ShapePlan::rank`], computed only for shapes the walk
/// enters) increases along the canonical shape stream, so this is exactly
/// the materialised enumeration order — and complete runs are
/// bit-identical to the first-minimum scan of the materialised stream,
/// serial or parallel.
///
/// `incumbent_seed` pre-loads the shared incumbent with a known upper bound
/// on the space's optimum (`f64::INFINITY` for a cold search).  The seed
/// must be an upper bound: pruning and the bound-clearance certificate fire
/// only on a strict clearance of it, so the winner is unchanged while the
/// hopeless region is skipped.  The constructive value never enters the
/// incumbent, so the walk prunes exactly as it would without the cut.
///
/// `obs` adds per-stage tracing spans ([`EngineMetrics`]): the prelude,
/// the expansion phase (the plateau stream included) and the
/// bound-clearance certificate each record a call count and a
/// wall-duration histogram.  The walk itself is untouched — instrumented
/// and plain runs return bit-identical outcomes and stats.
pub fn streamed_canonical_search<F>(
    app: &Application,
    classes: &WeightClasses,
    exec: Exec,
    prune: PartialPrune,
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
        PartialPrune::Period(model) | PartialPrune::StructuralPeriod(model) => {
            Some(ShapeObjective::Period(model))
        }
        PartialPrune::Latency => Some(ShapeObjective::Latency),
    };
    let bounder = objective.map(|o| ShapeBounder::new(app, o));
    // Bounded-Dijkstra-style cutoff reuse: an upper bound on the optimum
    // certifies shapes at *emission* — they are counted, never stored or
    // sorted.  The bound is the incumbent seed or the best constructive
    // plan's value under the search's own evaluation, whichever is lower;
    // the threshold is the strict-clearance rule every walker prunes with.
    // A dropped shape's bound clears the value of a plan in the space, so
    // the walk would reach it only after the certificate fired: winners
    // and, at one thread, the shapes entered are those of the uncut plan.
    // The shapes tying the bound are re-streamed rather than stored.  The
    // shared incumbent still starts at the caller's seed.
    let upper = constructive_plans(app, prune)
        .iter()
        .map(|plan| eval(plan, incumbent_seed))
        .fold(incumbent_seed, f64::min);
    let shape_span = obs.map(|m| m.shape_stream.start());
    let scan = split_shape_plan(
        classes,
        bounder.as_ref(),
        upper,
        prune_threshold(upper),
        exec.deadline,
    );
    let (plan, plateau) = match scan {
        // Nothing evaluated yet: degrade to the fallback like any
        // interrupted search.
        ShapeScan::DeadlineExpired | ShapeScan::TooWide => return (None, stats),
        ShapeScan::Planned {
            shapes,
            plateau,
            pruned,
        } => {
            stats.shapes = shapes.len() + (plateau + pruned) as usize;
            stats.stored_shapes = shapes.len();
            stats.certified_shapes = pruned as usize;
            (shapes, plateau as usize)
        }
    };
    drop(shape_span);
    // Walk positions: the stored shapes below `upper`, then the plateau,
    // then the stored shapes above it — the `(bound, rank)` order.
    let below = plan.partition_point(|shape| shape.bound.total_cmp(&upper).is_lt());
    let on_plateau = below..below + plateau;
    let total = plan.len() + plateau;
    let stored = |at: usize| &plan[if at < below { at } else { at - plateau }];
    let stream = (plateau > 0).then(|| {
        Mutex::new(ShapeStream::new(
            classes.n(),
            bounder.as_ref(),
            exec.deadline,
        ))
    });
    let mut pool: Vec<Vec<ServiceId>> = vec![Vec::new(); classes.class_count()];
    for k in 0..classes.n() {
        pool[classes.class_of(k)].push(k);
    }
    let incumbent = Incumbent::seeded(incumbent_seed);
    // The claim cursor, and whether a worker hit the bound-clearance
    // certificate or the deadline (either ends every worker's claims).
    let cursor = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let worker = || {
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
        let mut colorings = ColoringScratch::default();
        let width = classes.n() + 1;
        let mut levels = Vec::with_capacity(width);
        // The current claim's plateau shapes, level sequences back to back.
        let mut streamed: Vec<usize> = Vec::with_capacity(CLAIM_SHAPES.min(plateau) * width);
        let mut walked = 0usize;
        'claims: while !done.load(Ordering::Relaxed) {
            // A claim is a run of consecutive shapes: every shape before a
            // certificate found elsewhere is still walked, because a claim
            // is only refused once it starts past that certificate.
            let lo = cursor.fetch_add(CLAIM_SHAPES, Ordering::Relaxed);
            if lo >= total {
                break;
            }
            let hi = (lo + CLAIM_SHAPES).min(total);
            streamed.clear();
            for at in lo..hi {
                if exec.deadline.is_some_and(|d| Instant::now() >= d) {
                    walker.interrupted = true;
                    done.store(true, Ordering::Relaxed);
                    break 'claims;
                }
                let flat = on_plateau.contains(&at);
                let bound = if flat { upper } else { stored(at).bound };
                // Bound-ascending order: a shape clearing the incumbent is
                // the certificate that every later shape is prunable too.
                if bound > prune_threshold(incumbent.get()) {
                    let _certify_span = obs.map(|m| m.certify.start());
                    done.store(true, Ordering::Relaxed);
                    break 'claims;
                }
                let (shape, rank): (&[usize], u64) = if flat {
                    if streamed.is_empty() {
                        // The claim's first plateau shape: read the rest of
                        // its plateau run off the stream at once.
                        let mut stream = stream
                            .as_ref()
                            .expect("a plateau has a stream")
                            .lock()
                            .expect("plateau stream poisoned");
                        for _ in at..hi.min(on_plateau.end) {
                            let Some(shape) = stream.next_at(upper) else {
                                // Only the deadline ends the stream early.
                                walker.interrupted = true;
                                done.store(true, Ordering::Relaxed);
                                break 'claims;
                            };
                            streamed.extend_from_slice(shape);
                        }
                    }
                    let k = at - lo.max(on_plateau.start);
                    let shape = &streamed[k * width..(k + 1) * width];
                    (shape, ShapePlan::encode(shape, upper).rank())
                } else {
                    let record = stored(at);
                    record.decode_into(&mut levels);
                    (&levels, record.rank())
                };
                walker.shape_rank = rank;
                walker.reached = 0;
                walked += 1;
                if !colorings.walk(shape, classes, &mut walker) {
                    done.store(true, Ordering::Relaxed);
                    break 'claims; // deadline interrupted mid-walk
                }
            }
        }
        (walker.local, walker.expanded, walker.interrupted, walked)
    };
    let expand_span = obs.map(|m| m.expand.start());
    // The calling thread is worker 0; the others are spawned once.
    let threads = exec.effective_threads().min(total).max(1);
    let parts: Vec<_> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        std::iter::once(worker())
            .chain(
                spawned
                    .into_iter()
                    .map(|h| h.join().expect("search worker panicked")),
            )
            .collect()
    });
    drop(expand_span);
    // Peak residency is measured, not estimated: each walker holds at most
    // one materialised representative at a time, so the residency is the
    // number of workers that expanded anything.
    stats.peak_resident = parts.iter().filter(|part| part.1 > 0).count();
    let mut best: Option<(f64, u128, ExecutionGraph)> = None;
    let mut complete = true;
    let mut walked = 0;
    for (local, expanded, interrupted, shapes) in parts {
        stats.expanded += expanded;
        walked += shapes;
        complete &= !interrupted;
        if let Some((value, idx, graph)) = local {
            let improves = best
                .as_ref()
                .is_none_or(|&(bv, bi, _)| value < bv || (value == bv && idx < bi));
            if improves {
                best = Some((value, idx, graph));
            }
        }
    }
    if complete {
        // Every shape not walked was discarded by the certificate.
        stats.certified_shapes += total - walked;
    }
    let outcome = best.map(|(value, _, graph)| SearchOutcome {
        value,
        graph,
        exhaustive: complete,
    });
    (outcome, stats)
}
