//! The traced run (`--trace`): per-layer metrics of one workload.
//!
//! It runs the workload untraced (for the digest, the checks and the
//! tracing overhead), then again with a `MetricsRegistry` attached through
//! the public `with_metrics` / `solve_warm_observed` hooks, timing every
//! front-end call at the call boundary, and reads the registry's counters
//! and spans.  The other layer timings come from isolated replays of the
//! workload's own inputs into each layer's public functions, so every layer
//! is timed on every workload.  Nothing here is called by the untraced run.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsw_core::{
    bound_ordered_shape_plan, Application, CanonicalApplication, CommModel, CoreResult,
    ExecutionGraph, ShapeBounder, ShapeObjective, WeightClasses,
};
use fsw_obs::MetricsRegistry;
use fsw_sched::engine::EvalCache;
use fsw_sched::oneport::{oneport_period_search, OnePortStyle};
use fsw_sched::orchestrator::{solve_warm_observed, Objective, Problem, SearchBudget, Solution};
use fsw_serve::{
    permutation_collapse_allowed, AdmissionPolicy, AsyncFrontend, PlanKey, PlanRequest,
    PlanService, PlanStore, StoredPlan,
};

use crate::stats::{median, LatencyHistogram};
use crate::workloads::{
    self, instance_metric, Answered, Effort, Inputs, Kind, Probe, Run, INSTANCES,
};
use crate::Metric;

/// Largest shape space the isolated shape-plan replay walks (n = 14).
const SHAPE_PLAN_MAX_N: usize = 14;
/// Distinct requests and answers the isolated replays use at most.
const REPLAY_REQUESTS: usize = 64;

/// One answer kept for the replays, in the tenant's labels.
struct Kept {
    app: u32,
    model: CommModel,
    objective: Objective,
    value: f64,
    graph: ExecutionGraph,
    solve_micros: u64,
}

/// The probe of the traced run: attaches the registry, times every
/// front-end call, and keeps the first answer per distinct request plus
/// the sequence of cold answers (the store's insert sequence).
struct Tracer {
    registry: Arc<MetricsRegistry>,
    seen: HashMap<(u32, CommModel, Objective), usize>,
    answers: Vec<Kept>,
    inserts: Vec<usize>,
    evaluated: u64,
    /// Evaluation-cache `(hits, misses)` summed over the solves.
    memo: (usize, usize),
    submit_ns: LatencyHistogram,
    tick_ns: LatencyHistogram,
}

impl Tracer {
    fn keep(&mut self, answered: &Answered<'_>) -> usize {
        let key = (
            answered.app,
            answered.problem.model,
            answered.problem.objective,
        );
        if let Some(&at) = self.seen.get(&key) {
            return at;
        }
        self.answers.push(Kept {
            app: answered.app,
            model: answered.problem.model,
            objective: answered.problem.objective,
            value: answered.value,
            graph: answered.graph.clone(),
            solve_micros: answered.solve_micros,
        });
        self.seen.insert(key, self.answers.len() - 1);
        self.answers.len() - 1
    }
}

impl Probe for Tracer {
    fn service(&mut self, service: PlanService) -> PlanService {
        service.with_metrics(Arc::clone(&self.registry))
    }

    fn frontend(&mut self, frontend: AsyncFrontend) -> AsyncFrontend {
        frontend.with_metrics(Arc::clone(&self.registry))
    }

    fn solve(&mut self, problem: &Problem<'_>, budget: &SearchBudget) -> CoreResult<Solution> {
        let cache = EvalCache::new(problem.app);
        let (solution, stats) =
            solve_warm_observed(problem, budget, &cache, None, Some(&self.registry))?;
        self.evaluated += stats.evaluated as u64;
        let (hits, misses) = cache.stats();
        self.memo = (self.memo.0 + hits, self.memo.1 + misses);
        Ok(solution)
    }

    fn submitted(&mut self, started: Instant) {
        self.submit_ns.record(started.elapsed().as_nanos() as u64);
    }

    fn ticked(&mut self, took: Duration) {
        self.tick_ns.record(took.as_nanos() as u64);
    }

    fn answer(&mut self, answered: Answered<'_>) {
        let at = self.keep(&answered);
        if answered.cold {
            self.inserts.push(at);
        }
    }
}

/// Runs workload `name` untraced and traced; returns the untraced run
/// (checks, digest) and the per-layer metrics.
pub fn traced(name: &str, seed: u64, effort: Effort) -> (Run, Vec<Metric>) {
    let (mut run, inputs) = workloads::run_untraced(name, seed, effort);
    let registry = Arc::new(MetricsRegistry::new());
    let mut tracer = Tracer {
        registry: Arc::clone(&registry),
        seen: HashMap::new(),
        answers: Vec::new(),
        inserts: Vec::new(),
        evaluated: 0,
        memo: (0, 0),
        submit_ns: LatencyHistogram::new(),
        tick_ns: LatencyHistogram::new(),
    };
    let (traced, _) = workloads::run(name, seed, effort, false, &mut tracer);
    if traced.digest != run.digest {
        run.problems.push(format!(
            "traced digest {:#018x} differs from the untraced {:#018x}",
            traced.digest, run.digest
        ));
    }
    run.problems
        .extend(traced.problems.iter().map(|p| format!("traced run: {p}")));
    let snap = registry.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let counted = |metric: &str, name: &str| Metric::new(metric, counter(name), "count");
    let histogram = |name: &str| snap.histogram(name).unwrap_or_default();
    let peak = |name: &str| snap.gauge(name).map_or(0, |(_, peak)| peak) as f64;
    let ms_sum = |metric: &str, span: &str| {
        let micros = histogram(&format!("{span}.micros")).sum;
        Metric::new(metric, micros as f64 / 1e3, "ms")
    };
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    // Nearest-rank quantile in the unit `scale` nanoseconds; 0 when the
    // workload made no such call.
    let quantile = |h: &LatencyHistogram, p: f64, scale: f64| {
        if h.count() > 0 {
            h.quantile(p) / scale
        } else {
            0.0
        }
    };
    let hits = counter("store.hits");
    let replay = Replay::new(&inputs, &tracer);
    let mut metrics = crate::wall_clock(&run);
    metrics.extend([
        Metric::new("client.request_ns", replay.request() * 1e9, "ns"),
        Metric::new(
            "trace.overhead_pct",
            (run.goodput_rps / traced.goodput_rps - 1.0) * 100.0,
            "%",
        ),
        Metric::new(
            "heap.allocs_per_request",
            run.allocs as f64 / run.attempted as f64,
            "count",
        ),
        Metric::new("fingerprint.gate_ns", replay.gate() * 1e9, "ns"),
        Metric::new(
            "fingerprint.canonicalise_ns",
            replay.canonicalise() * 1e9,
            "ns",
        ),
        Metric::new("store.get_ns", replay.store_get() * 1e9, "ns"),
        Metric::new("store.insert_us", replay.store_insert() * 1e6, "us"),
        Metric::new(
            "store.hit_ratio",
            ratio(hits, hits + counter("store.misses")),
            "fraction",
        ),
        counted("store.evictions", "store.evictions"),
        Metric::new("admission.decide_us", replay.admission() * 1e6, "us"),
        counted("admission.decide_calls", "admission.decide.calls"),
        Metric::new(
            "admission.rejects",
            traced.count(Kind::AdmissionCost) as f64,
            "count",
        ),
        Metric::new(
            "frontend.submit_ns_p50",
            quantile(&tracer.submit_ns, 50.0, 1.0),
            "ns",
        ),
        Metric::new(
            "frontend.tick_us_p50",
            quantile(&tracer.tick_ns, 50.0, 1e3),
            "us",
        ),
        Metric::new(
            "frontend.tick_us_p99",
            quantile(&tracer.tick_ns, 99.0, 1e3),
            "us",
        ),
        ms_sum("frontend.wait_ms_sum", "frontend.watchdog"),
        Metric::new(
            "frontend.latency_p99_ticks",
            histogram("frontend.latency_ticks").p99 as f64,
            "ticks",
        ),
        Metric::new("frontend.peak_backlog", peak("frontend.backlog"), "count"),
        counted("frontend.queue_full_sheds", "frontend.queue_full_sheds"),
        counted("frontend.backpressure_sheds", "frontend.backpressure_sheds"),
        counted("frontend.deadline_cancels", "frontend.deadline_cancels"),
        counted("frontend.dedup_joins", "frontend.dedup_joins"),
        counted("frontend.dispatches", "frontend.dispatches"),
        counted("service.cold_solves", "serve.cold_solve.calls"),
        Metric::new("service.dedup_hits", traced.dedup as f64, "count"),
        ms_sum("service.cold_solve_ms_sum", "serve.cold_solve"),
        Metric::new("solve.evaluated", tracer.evaluated as f64, "count"),
        ms_sum("solve.search_ms_sum", "solve.search"),
        ms_sum("solve.orchestrate_ms_sum", "solve.orchestrate"),
        Metric::new(
            "engine.shapes",
            histogram("engine.stream.shapes").sum as f64,
            "count",
        ),
        Metric::new(
            "engine.expanded",
            histogram("engine.stream.expanded").sum as f64,
            "count",
        ),
        Metric::new(
            "engine.certified_shapes",
            histogram("engine.stream.certified_shapes").sum as f64,
            "count",
        ),
        Metric::new(
            "engine.peak_resident",
            peak("engine.stream.peak_resident"),
            "count",
        ),
        Metric::new(
            "engine.memo_hit_ratio",
            ratio(tracer.memo.0 as f64, (tracer.memo.0 + tracer.memo.1) as f64),
            "fraction",
        ),
        ms_sum("engine.shape_stream_ms_sum", "engine.shape_stream"),
        ms_sum("engine.expand_ms_sum", "engine.expand"),
        Metric::new("canonical.shape_plan_ms", replay.shape_plan() * 1e3, "ms"),
        Metric::new("oneport.search_ms", replay.oneport() * 1e3, "ms"),
    ]);
    // Median solve time per `solve_exact` instance (0 on other workloads).
    for instance in &INSTANCES {
        let name = instance_metric(instance.name);
        let value = run
            .notes
            .iter()
            .find(|(label, ..)| *label == name)
            .map_or(0.0, |note| note.1);
        metrics.push(Metric::new(&name, value, "ms"));
    }
    (run, metrics)
}

/// Median over batches of the mean seconds per operation of `batch`, which
/// performs `ops` operations.  Batches repeat `batch` until they last a
/// few milliseconds.
fn per_op(ops: usize, mut batch: impl FnMut()) -> f64 {
    let started = Instant::now();
    batch();
    let once = started.elapsed().as_secs_f64().max(1e-9);
    let reps = ((0.005 / once).ceil() as usize).clamp(1, 1 << 20);
    let batches = if once > 0.05 { 3 } else { 7 };
    let means: Vec<f64> = (0..batches)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..reps {
                batch();
            }
            started.elapsed().as_secs_f64() / (reps * ops.max(1)) as f64
        })
        .collect();
    median(&means)
}

/// A distinct request of the workload, with its collapse gate and
/// canonical form.
struct Request<'a> {
    app: &'a Application,
    model: CommModel,
    objective: Objective,
    collapse: bool,
}

/// The workload's inputs prepared for the isolated layer replays.
struct Replay<'a> {
    budget: SearchBudget,
    store_capacity: usize,
    serving: bool,
    requests: Vec<Request<'a>>,
    answers: Vec<(Request<'a>, &'a Kept)>,
    /// Keyed canonical plans of the cold answers, in insert order.
    inserts: Vec<(PlanKey, StoredPlan)>,
}

impl<'a> Replay<'a> {
    fn new(inputs: &'a Inputs, tracer: &'a Tracer) -> Self {
        let request = |app: u32, model: CommModel, objective: Objective| Request {
            app: &inputs.apps[app as usize],
            model,
            objective,
            collapse: permutation_collapse_allowed(
                &inputs.apps[app as usize],
                model,
                objective,
                &inputs.budget,
            ),
        };
        let keyed = |kept: &Kept| {
            let r = request(kept.app, kept.model, kept.objective);
            let canon = CanonicalApplication::with_collapse(r.app, r.collapse);
            let plan = StoredPlan {
                value: kept.value,
                graph: canon
                    .graph_to_canonical(&kept.graph)
                    .expect("served plans relabel cleanly"),
                exhaustive: true,
                solve_micros: kept.solve_micros,
            };
            let key = PlanKey {
                fingerprint: canon.fingerprint,
                model: kept.model,
                objective: kept.objective,
            };
            (key, plan)
        };
        Replay {
            budget: inputs.budget,
            store_capacity: inputs.store_capacity.unwrap_or(256),
            serving: inputs.store_capacity.is_some(),
            requests: inputs
                .requests
                .iter()
                .take(REPLAY_REQUESTS)
                .map(|&(app, model, objective)| request(app, model, objective))
                .collect(),
            answers: tracer
                .answers
                .iter()
                .take(REPLAY_REQUESTS)
                .map(|kept| (request(kept.app, kept.model, kept.objective), kept))
                .collect(),
            inserts: tracer
                .inserts
                .iter()
                .map(|&at| keyed(&tracer.answers[at]))
                .collect(),
        }
    }

    /// Building one request: a `PlanRequest` (cloned application) for the
    /// serving workloads, a `Problem` for `solve_exact`.
    fn request(&self) -> f64 {
        per_op(self.requests.len(), || {
            for r in &self.requests {
                if self.serving {
                    black_box(PlanRequest::new(r.app.clone(), r.model, r.objective));
                } else {
                    black_box(Problem::new(black_box(r.app), r.model, r.objective));
                }
            }
        })
    }

    fn gate(&self) -> f64 {
        per_op(self.requests.len(), || {
            for r in &self.requests {
                black_box(permutation_collapse_allowed(
                    r.app,
                    r.model,
                    r.objective,
                    &self.budget,
                ));
            }
        })
    }

    fn canonicalise(&self) -> f64 {
        per_op(self.requests.len(), || {
            for r in &self.requests {
                black_box(CanonicalApplication::with_collapse(r.app, r.collapse));
            }
        })
    }

    fn admission(&self) -> f64 {
        let policy = AdmissionPolicy::for_budget(&self.budget);
        per_op(self.requests.len(), || {
            for r in &self.requests {
                black_box(policy.decide(r.app, r.model, r.objective, &self.budget));
            }
        })
    }

    /// `PlanStore::get` on a store holding the distinct answers.
    fn store_get(&self) -> f64 {
        let store = PlanStore::new(self.store_capacity);
        let keys: Vec<PlanKey> = self
            .inserts
            .iter()
            .take(REPLAY_REQUESTS)
            .map(|(key, plan)| {
                store.insert(key.clone(), plan.clone());
                key.clone()
            })
            .collect();
        per_op(keys.len(), || {
            for key in &keys {
                black_box(store.get(key));
            }
        })
    }

    /// The run's insert sequence replayed into a fresh store of the same
    /// capacity (cost-aware eviction included).
    fn store_insert(&self) -> f64 {
        per_op(self.inserts.len(), || {
            let store = PlanStore::new(self.store_capacity);
            for (key, plan) in &self.inserts {
                store.insert(key.clone(), plan.clone());
            }
            black_box(store.stats());
        })
    }

    /// `bound_ordered_shape_plan` per distinct application of up to 14
    /// services.
    fn shape_plan(&self) -> f64 {
        let plans: Vec<(WeightClasses, ShapeBounder)> = self
            .requests
            .iter()
            .filter(|r| r.app.n() <= SHAPE_PLAN_MAX_N)
            .map(|r| {
                let objective = match r.objective {
                    Objective::MinPeriod => ShapeObjective::Period(r.model),
                    Objective::MinLatency => ShapeObjective::Latency,
                };
                (
                    WeightClasses::of(r.app),
                    ShapeBounder::new(r.app, objective),
                )
            })
            .collect();
        per_op(plans.len(), || {
            for (classes, bounder) in &plans {
                black_box(bound_ordered_shape_plan(
                    classes,
                    Some(bounder),
                    f64::INFINITY,
                    None,
                ));
            }
        })
    }

    /// INORDER `oneport_period_search` on each distinct answer's plan.
    fn oneport(&self) -> f64 {
        per_op(self.answers.len(), || {
            for (r, kept) in &self.answers {
                black_box(
                    oneport_period_search(
                        r.app,
                        &kept.graph,
                        OnePortStyle::InOrder,
                        self.budget.max_orderings,
                    )
                    .expect("served plans are valid"),
                );
            }
        })
    }
}
