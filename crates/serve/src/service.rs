//! The batched request queue: canonicalise → admit → store → dedup → pool.
//!
//! [`PlanService::serve_batch`] is the service's front door.  A batch of
//! tenant requests is processed in five stages:
//!
//! 1. every request is **canonicalised** ([`fsw_core::CanonicalApplication`])
//!    and keyed by its [`PlanKey`] — the permutation collapse engages only
//!    when the solve path is provably label-invariant
//!    ([`permutation_collapse_allowed`]), so an [`Exact`](ServeOutcome::Exact)
//!    value is always bit-identical to a cold solve of the tenant's own
//!    application;
//! 2. keys already in the **plan store** are answered immediately
//!    ([`ServeSource::Store`]) — the store only ever holds exhaustive
//!    plans, so a hit is always `Exact`;
//! 3. the remaining requests pass the **quarantine** (fingerprints that
//!    panicked the solver are rejected during their backoff, permanently
//!    after repeated failures) and the **admission policy**
//!    ([`crate::admission`]): each distinct key is priced in O(shapes)
//!    before any enumeration, and requests whose structural cost clears
//!    the reject threshold never touch the solve pool;
//! 4. admitted requests are **deduplicated in flight**: the first request
//!    of each distinct missing key becomes its *leader*
//!    ([`ServeSource::Cold`]), later ones become *followers*
//!    ([`ServeSource::Dedup`]) and share the leader's outcome — including
//!    a failure: followers of a panicked leader observe the error instead
//!    of hanging;
//! 5. the leaders drain onto the `fsw_sched::par` worker pool under
//!    `catch_unwind` (a panicking solve is caught, reported as a
//!    [`RejectReason::SolverPanic`] outcome and quarantined — it never
//!    poisons the batch), each cold solve running under its own deadline
//!    (the budget's, tightened by the admission policy's degrade deadline
//!    in the [`AdmitWithDeadline`](crate::admission::AdmissionDecision)
//!    band); **exhaustive** results are inserted into the store and fanned
//!    back out as `Exact`, interrupted or budget-capped ones come back
//!    [`Degraded`](ServeOutcome::Degraded) with an admissible lower bound
//!    and are *never* cached.
//!
//! Responses carry the plan relabelled into the tenant's own service ids.
//!
//! For robustness testing, [`PlanService::with_fault_injection`] installs a
//! deterministic fault hook keyed by **request ordinal** (arrival order
//! across the service's lifetime): injected panics, slowdowns and deadline
//! blowouts fire on the same requests whatever the thread count, so fault
//! replays are reproducible (`fsw_sim`'s `FaultPlan` drives this).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fsw_core::{
    AppFingerprint, Application, CanonicalApplication, CommModel, CoreResult, ExecutionGraph,
};
use fsw_sched::engine::EvalCache;
use fsw_sched::orchestrator::{solve_warm_observed, Objective, Problem, SearchBudget};
use fsw_sched::par::par_chunks;

use crate::admission::{AdmissionDecision, AdmissionPolicy, CostEstimate};
use crate::store::{PlanKey, PlanStore, StoredPlan};

/// One tenant request: plan this application under this model/objective.
#[derive(Clone, Debug)]
pub struct PlanRequest {
    /// The tenant's application, in its own labelling.
    pub app: Application,
    /// The communication model to plan for.
    pub model: CommModel,
    /// The objective to optimise.
    pub objective: Objective,
}

impl PlanRequest {
    /// Convenience constructor.
    pub fn new(app: Application, model: CommModel, objective: Objective) -> Self {
        PlanRequest {
            app,
            model,
            objective,
        }
    }
}

/// Where a response came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeSource {
    /// Solved cold in this batch (the leader of its fingerprint).
    Cold,
    /// Answered from the plan store (an earlier batch solved it).
    Store,
    /// Deduplicated in flight against a leader of the same batch.
    Dedup,
}

/// The served plan behind a [`ServeOutcome`], over tenant labels.
#[derive(Clone, Debug)]
pub struct PlanResponse {
    /// The objective value.  On the [`Exact`](ServeOutcome::Exact) path it
    /// is bit-identical to a cold solve of the tenant's own application;
    /// degraded values carry no such promise (see their `lower_bound`).
    pub value: f64,
    /// The winning execution graph, relabelled into the tenant's ids.
    pub graph: ExecutionGraph,
    /// Whether the underlying solve was exhaustive for its budget.
    pub exhaustive: bool,
    /// Where the answer came from.
    pub source: ServeSource,
    /// Wall time of the underlying cold solve in microseconds (`0` would
    /// never be stored: served entries report their original solve cost).
    pub solve_micros: u64,
}

/// Why a request was rejected without a plan.
#[derive(Clone, Debug, PartialEq)]
pub enum RejectReason {
    /// The admission policy priced the request above its reject threshold.
    AdmissionCost,
    /// The fingerprint previously panicked the solver and is quarantined.
    Quarantined {
        /// `true` once the failure budget is exhausted (no more retries);
        /// `false` during a backoff window.
        permanent: bool,
    },
    /// The solve for this fingerprint panicked in this batch (the request
    /// was its leader, or a follower woken with the leader's error).
    SolverPanic {
        /// The panic payload, when it carried a message.
        message: String,
    },
    /// The tenant's bounded ingress queue was full when the request
    /// arrived (async front end only): shed at ingress, nothing queued.
    QueueFull,
    /// Shed by adaptive backpressure: the request would have been admitted
    /// at baseline thresholds, but the front end's backlog had tightened
    /// them by `level` halvings when it was dequeued.
    Shed {
        /// The shed level in force at the decision (≥ 1).
        level: u32,
    },
    /// The request's deadline had already expired when it was dequeued
    /// (async front end): cancelled instead of solved uselessly.
    DeadlineExpired,
    /// The worker solving this fingerprint stalled past the watchdog and
    /// was timed out; the fingerprint goes to the quarantine.
    WorkerStall,
}

/// A rejected request: the reason, plus the structural price when the
/// admission policy produced one.
#[derive(Clone, Debug, PartialEq)]
pub struct Rejection {
    /// Why the request got no plan.
    pub reason: RejectReason,
    /// The cost estimate that rejected it (admission rejections only).
    pub estimate: Option<CostEstimate>,
}

/// The service's answer to one [`PlanRequest`].
#[derive(Clone, Debug)]
pub enum ServeOutcome {
    /// An exhaustive solve: the value is bit-identical to a cold solve of
    /// the tenant's own application under the service budget.
    Exact(PlanResponse),
    /// The solve was interrupted (degrade deadline, enumeration caps) and
    /// returned its best incumbent instead of a certificate.  Never cached.
    Degraded {
        /// The best incumbent found, relabelled per tenant.
        response: PlanResponse,
        /// Admissible lower bound on the instance optimum (`0.0` when no
        /// nontrivial floor was certified within the pricing budget).
        lower_bound: f64,
        /// Relative optimality gap `(value - lower_bound) / lower_bound`
        /// (`∞` when the floor is trivial).
        gap: f64,
    },
    /// No plan: rejected by admission, quarantine, or a solver panic.
    Rejected(Rejection),
}

impl ServeOutcome {
    /// The served plan, if any ([`Exact`](Self::Exact) or
    /// [`Degraded`](Self::Degraded)).
    pub fn response(&self) -> Option<&PlanResponse> {
        match self {
            ServeOutcome::Exact(response) | ServeOutcome::Degraded { response, .. } => {
                Some(response)
            }
            ServeOutcome::Rejected(_) => None,
        }
    }

    /// The served plan by value, if any.
    pub fn into_response(self) -> Option<PlanResponse> {
        match self {
            ServeOutcome::Exact(response) | ServeOutcome::Degraded { response, .. } => {
                Some(response)
            }
            ServeOutcome::Rejected(_) => None,
        }
    }

    /// The served objective value, if any.
    pub fn value(&self) -> Option<f64> {
        self.response().map(|r| r.value)
    }

    /// `true` for an [`Exact`](Self::Exact) outcome.
    pub fn is_exact(&self) -> bool {
        matches!(self, ServeOutcome::Exact(_))
    }

    /// The rejection, if the request was rejected.
    pub fn rejection(&self) -> Option<&Rejection> {
        match self {
            ServeOutcome::Rejected(rejection) => Some(rejection),
            _ => None,
        }
    }

    /// Unwraps the exact response; panics on degraded or rejected
    /// outcomes (test helper).
    pub fn expect_exact(&self) -> &PlanResponse {
        match self {
            ServeOutcome::Exact(response) => response,
            other => panic!("expected an exact outcome, got {other:?}"),
        }
    }
}

/// Lifetime counters of a [`PlanService`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests received.
    pub requests: usize,
    /// Cold solves performed (fingerprint leaders).
    pub cold: usize,
    /// Requests answered from the plan store.
    pub store_hits: usize,
    /// Requests deduplicated in flight against a same-batch leader.
    pub dedup_hits: usize,
    /// Leaders admitted into the degrade band (solved under a deadline).
    pub deadline_admits: usize,
    /// Degraded responses served (leaders and followers).
    pub degraded: usize,
    /// Requests rejected by the admission policy.
    pub admission_rejects: usize,
    /// Requests rejected by the quarantine (backoff or permanent).
    pub quarantine_rejects: usize,
    /// Solver panics caught (one per failed leader).
    pub panics: usize,
    /// Quarantined fingerprints that completed a retry successfully.
    pub recovered: usize,
}

impl ServiceStats {
    /// Fraction of requests served without a cold solve (store + dedup).
    pub fn served_ratio(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.store_hits + self.dedup_hits) as f64 / self.requests as f64
    }

    /// Requests rejected for any reason (admission + quarantine; panic
    /// rejections are counted by [`Self::panics`] per failed leader).
    pub fn rejected(&self) -> usize {
        self.admission_rejects + self.quarantine_rejects
    }
}

/// One public snapshot of the whole serving tier: the request counters
/// ([`ServiceStats`]), the store counters ([`crate::store::StoreStats`]),
/// and the **quarantine occupancy** — how many fingerprints are currently
/// held in backoff and how many are permanently banned.  Before this
/// snapshot the quarantine and in-flight-dedup state were only observable
/// indirectly (through which outcomes a replay produced); robustness
/// harnesses assert on it directly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Request-path lifetime counters (includes `dedup_hits`, the
    /// in-flight dedup counter, and `quarantine_rejects`).
    pub service: ServiceStats,
    /// Plan-store lifetime counters.
    pub store: crate::store::StoreStats,
    /// Fingerprints currently quarantined (in a backoff window or
    /// permanent) — live occupancy, not a lifetime count.
    pub quarantine_active: usize,
    /// Fingerprints whose quarantine is permanent (failure budget spent).
    pub quarantine_permanent: usize,
    /// Shed-level **raises** over the tier's lifetime (each +1 step of the
    /// async front end's backpressure controller).  `0` on the synchronous
    /// batch path, which has no shed controller.
    pub shed_raises: usize,
    /// Shed-level **lowers** (each −1 recovery step of the controller).
    /// `0` on the synchronous batch path.
    pub shed_lowers: usize,
    /// Requests cancelled because their deadline expired before dispatch
    /// (async front end).  `0` on the synchronous batch path, which never
    /// queues.
    pub deadline_cancels: usize,
}

/// A deterministic fault injected into one cold solve (robustness
/// harness; see [`PlanService::with_fault_injection`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// The solver panics before doing any work.
    Panic,
    /// The solve is preceded by an artificial stall.
    Slow(Duration),
    /// The solve runs under an already-expired deadline (`time_limit` of
    /// zero): the search degrades to its deterministic fallback
    /// immediately, modelling a deadline blowout without wall-clock
    /// dependence.
    DeadlineBlowout,
}

/// `true` when the solve path for `(model, objective)` under `budget` is
/// provably **label-invariant**, i.e. two applications that are service
/// permutations of each other solve to bit-identical values — the gate for
/// collapsing permuted tenants onto one canonical fingerprint.
///
/// The rules mirror the bit-safety story of `fsw_sched::engine::Symmetry`:
///
/// * constrained applications never collapse (constraints name services);
/// * MINPERIOD with the [`LowerBound`](fsw_sched::minperiod::PeriodEvaluation)
///   evaluation (or any evaluation under OVERLAP, where the bound is the
///   value) is a pure function of the weighted plan structure — the plan
///   search is over forests, whose metrics are path-order products with no
///   cross-label sums;
/// * MINLATENCY on the forest-only path (`n > dag_enumeration_max_n`) is
///   exact Algorithm 1, again purely structural;
/// * everything else (orchestrated one-port period evaluations, the
///   MINLATENCY DAG phase) runs ordering searches whose accumulation order
///   follows service ids and may drift by an ulp across relabellings —
///   those requests key by their **exact** labelling instead (identical
///   tenants still share; permuted ones do not);
/// * the invariance claim covers the **exhaustive** searches only, so the
///   collapse additionally requires that the solve provably stays
///   exhaustive: the forest space must fit the enumeration budget
///   ([`CanonicalSpace::exhaustively_coverable`], owned by the engine next
///   to the gating it mirrors — the over-cap fallback is label-following
///   hill climbing) and no `time_limit` may be set (an interrupted
///   enumeration returns a best-so-far that depends on the walk order,
///   hence on labels, and on the wall clock).
///
/// [`CanonicalSpace::exhaustively_coverable`]: fsw_sched::engine::CanonicalSpace::exhaustively_coverable
pub fn permutation_collapse_allowed(
    app: &Application,
    model: CommModel,
    objective: Objective,
    budget: &SearchBudget,
) -> bool {
    use fsw_sched::engine::CanonicalSpace;
    use fsw_sched::minperiod::PeriodEvaluation;
    if app.has_constraints()
        || budget.time_limit.is_some()
        || !CanonicalSpace::exhaustively_coverable(app, budget.max_graphs)
    {
        return false;
    }
    match objective {
        Objective::MinPeriod => {
            model == CommModel::Overlap
                || matches!(budget.period_evaluation, PeriodEvaluation::LowerBound)
        }
        Objective::MinLatency => app.n() > budget.dag_enumeration_max_n,
    }
}

/// A request canonicalised and keyed, ready for the store.
pub(crate) struct Prepared {
    pub(crate) canon: CanonicalApplication,
    pub(crate) key: PlanKey,
}

impl Prepared {
    /// Canonicalises and keys one request under `budget` (the collapse
    /// gate engages only on provably label-invariant paths).
    pub(crate) fn of(request: &PlanRequest, budget: &SearchBudget) -> Prepared {
        let collapse =
            permutation_collapse_allowed(&request.app, request.model, request.objective, budget);
        let canon = CanonicalApplication::with_collapse(&request.app, collapse);
        let key = PlanKey {
            fingerprint: canon.fingerprint.clone(),
            model: request.model,
            objective: request.objective,
        };
        Prepared { canon, key }
    }
}

/// How one request of a batch is answered.
enum Assignment {
    /// Answered from the store.
    Hit(StoredPlan),
    /// Leader of its key: `solved[slot]` is this request's cold solve.
    Leader(usize),
    /// Follower of the leader filling `solved[slot]` — outcomes included:
    /// a follower of a panicked leader observes the same error.
    Follower(usize),
    /// Rejected before the pool (admission or quarantine).
    Rejected(Rejection),
}

/// One admitted leader headed for the solve pool.
struct LeaderTask {
    /// Index of the leading request in the batch.
    idx: usize,
    /// The request's arrival ordinal (fault-injection key).
    ordinal: u64,
    /// Degrade deadline from the admission policy, if any.
    time_limit: Option<Duration>,
    /// Admissible value floor priced at admission, if any.
    floor: Option<f64>,
}

/// The service's cached observability handles: the shared registry plus
/// the span timers the hot paths record through (resolved once at
/// attachment, so serving never takes the registry lock).
pub(crate) struct ServiceMetrics {
    pub(crate) registry: Arc<fsw_obs::MetricsRegistry>,
    /// `admission.decide` — exact count of pricing decisions, durations
    /// sampled 1-in-[`fsw_obs::span::SAMPLE_EVERY`] (per-request path).
    pub(crate) admission: fsw_obs::SpanTimer,
}

/// How many solver panics a fingerprint may accumulate before its
/// quarantine becomes permanent.
const QUARANTINE_MAX_FAILURES: u32 = 3;
/// Backoff after the `k`-th failure: `BASE << (k - 1)` requests of that
/// fingerprint are rejected before the next retry is allowed.
const QUARANTINE_BACKOFF_BASE: u32 = 2;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct QuarantineState {
    failures: u32,
    cooldown: u32,
}

/// The panic quarantine: a deterministic per-fingerprint state machine.
/// Failures increment a counter and open a backoff window that doubles
/// each time (`2, 4, …` rejected requests between retries); at
/// [`QUARANTINE_MAX_FAILURES`] the fingerprint is rejected permanently.  A
/// successful retry clears the entry.  Time is counted in **requests**,
/// not wall clock, so replays are deterministic.
pub(crate) struct Quarantine {
    entries: Mutex<HashMap<PlanKey, QuarantineState>>,
}

impl Quarantine {
    fn new() -> Self {
        Quarantine {
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// Gate one arriving request for `key`: `Ok` to attempt a solve,
    /// `Err(permanent)` to reject.  Each rejected request drains one tick
    /// of the backoff window.
    pub(crate) fn admit(&self, key: &PlanKey) -> Result<(), bool> {
        let mut entries = self.entries.lock().expect("quarantine mutex poisoned");
        match entries.get_mut(key) {
            None => Ok(()),
            Some(state) if state.failures >= QUARANTINE_MAX_FAILURES => Err(true),
            Some(state) if state.cooldown > 0 => {
                state.cooldown -= 1;
                Err(false)
            }
            Some(_) => Ok(()),
        }
    }

    /// Records a solver panic (or stall) for `key`.
    pub(crate) fn record_failure(&self, key: &PlanKey) {
        let mut entries = self.entries.lock().expect("quarantine mutex poisoned");
        let state = entries.entry(key.clone()).or_default();
        state.failures += 1;
        if state.failures < QUARANTINE_MAX_FAILURES {
            state.cooldown = QUARANTINE_BACKOFF_BASE << (state.failures - 1);
        }
    }

    /// Records a completed solve; returns `true` when the key had a
    /// quarantine entry to clear (a recovery).
    pub(crate) fn record_success(&self, key: &PlanKey) -> bool {
        self.entries
            .lock()
            .expect("quarantine mutex poisoned")
            .remove(key)
            .is_some()
    }

    /// `(active, permanent)` occupancy: fingerprints currently held (in
    /// backoff or banned), and the banned subset.
    pub(crate) fn counts(&self) -> (usize, usize) {
        let entries = self.entries.lock().expect("quarantine mutex poisoned");
        let permanent = entries
            .values()
            .filter(|state| state.failures >= QUARANTINE_MAX_FAILURES)
            .count();
        (entries.len(), permanent)
    }
}

/// The multi-tenant planning service: one plan store, one search budget,
/// one admission policy (see the module docs for the batch lifecycle).
pub struct PlanService {
    budget: SearchBudget,
    admission: AdmissionPolicy,
    store: PlanStore,
    /// Evaluation caches **retained across batches**, one per canonical
    /// application fingerprint: a fingerprint that falls out of the plan
    /// store (capacity eviction) and comes back cold re-solves against its
    /// previously memoised ordering searches instead of recomputing every
    /// one.  Entries depend only on the canonical application (which the
    /// fingerprint determines), never on the model/objective — the tags
    /// partition the key space — so retention is always value-safe.  A
    /// fingerprint whose solve panics has its cache dropped defensively
    /// (the unwound solve may have left internal locks poisoned).
    caches: Mutex<HashMap<AppFingerprint, Arc<EvalCache>>>,
    /// Bound on the number of retained caches; on overflow the map is
    /// cleared wholesale (caches are pure memos, so dropping them costs
    /// recomputation, never correctness).
    cache_capacity: usize,
    quarantine: Quarantine,
    /// Observability registry plus pre-resolved span timers, when attached
    /// ([`Self::with_metrics`]).
    metrics: Option<ServiceMetrics>,
    /// Deterministic fault hook keyed by request ordinal (tests/harness).
    fault_hook: Option<Box<dyn Fn(u64) -> Option<InjectedFault> + Send + Sync>>,
    /// Requests received; doubles as the arrival-ordinal counter.
    requests: AtomicU64,
    cold: AtomicUsize,
    store_hits: AtomicUsize,
    dedup_hits: AtomicUsize,
    deadline_admits: AtomicUsize,
    degraded: AtomicUsize,
    admission_rejects: AtomicUsize,
    quarantine_rejects: AtomicUsize,
    panics: AtomicUsize,
    recovered: AtomicUsize,
}

impl PlanService {
    /// A service answering under `budget`, caching at most `store_capacity`
    /// plans (and retaining at most `store_capacity` per-fingerprint
    /// evaluation caches), gated by the hardened default admission policy
    /// ([`AdmissionPolicy::for_budget`]).
    pub fn new(budget: SearchBudget, store_capacity: usize) -> Self {
        PlanService {
            admission: AdmissionPolicy::for_budget(&budget),
            budget,
            store: PlanStore::new(store_capacity),
            caches: Mutex::new(HashMap::new()),
            cache_capacity: store_capacity.max(1),
            quarantine: Quarantine::new(),
            metrics: None,
            fault_hook: None,
            requests: AtomicU64::new(0),
            cold: AtomicUsize::new(0),
            store_hits: AtomicUsize::new(0),
            dedup_hits: AtomicUsize::new(0),
            deadline_admits: AtomicUsize::new(0),
            degraded: AtomicUsize::new(0),
            admission_rejects: AtomicUsize::new(0),
            quarantine_rejects: AtomicUsize::new(0),
            panics: AtomicUsize::new(0),
            recovered: AtomicUsize::new(0),
        }
    }

    /// Replaces the admission policy (e.g. [`AdmissionPolicy::open`] to
    /// admit everything, the pre-admission behaviour).
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Attaches an observability registry: admission pricing records an
    /// `admission.decide` span, the plan store mirrors its hit/miss/evict
    /// counters (`store.*`), every cold solve records a `serve.cold_solve`
    /// span and threads the registry down the solve pipeline (engine
    /// stream/expand/certify stages).  All instruments are pure
    /// observability — no served value or decision depends on them.
    pub fn with_metrics(mut self, registry: Arc<fsw_obs::MetricsRegistry>) -> Self {
        self.store.attach_metrics(&registry);
        self.metrics = Some(ServiceMetrics {
            admission: registry.span("admission.decide"),
            registry,
        });
        self
    }

    /// The attached observability registry, if any.
    pub fn metrics_registry(&self) -> Option<&Arc<fsw_obs::MetricsRegistry>> {
        self.metrics.as_ref().map(|m| &m.registry)
    }

    /// Installs a deterministic fault hook: before each cold solve the
    /// hook is called with the **arrival ordinal** of the leading request
    /// (0-based, counted across the service's lifetime), and any returned
    /// [`InjectedFault`] is applied to that solve.  Ordinals are assigned
    /// in submission order, so fault replays are independent of the worker
    /// thread count.
    pub fn with_fault_injection<F>(mut self, hook: F) -> Self
    where
        F: Fn(u64) -> Option<InjectedFault> + Send + Sync + 'static,
    {
        self.fault_hook = Some(Box::new(hook));
        self
    }

    /// `(hits, misses)` of the retained evaluation cache that `request`'s
    /// fingerprint resolves to, `None` when no cold solve has created one
    /// yet.  Tests assert cache retention across batches with this.
    pub fn eval_cache_stats(&self, request: &PlanRequest) -> Option<(usize, usize)> {
        let collapse = permutation_collapse_allowed(
            &request.app,
            request.model,
            request.objective,
            &self.budget,
        );
        let canon = CanonicalApplication::with_collapse(&request.app, collapse);
        self.caches
            .lock()
            .expect("cache mutex poisoned")
            .get(&canon.fingerprint)
            .map(|cache| cache.stats())
    }

    /// The budget every cold solve runs under.
    pub fn budget(&self) -> &SearchBudget {
        &self.budget
    }

    /// The admission policy gating every request.
    pub fn admission(&self) -> &AdmissionPolicy {
        &self.admission
    }

    /// The underlying plan store.
    pub fn store(&self) -> &PlanStore {
        &self.store
    }

    /// One public snapshot of the whole tier: request counters, store
    /// counters, and quarantine occupancy (see [`ServeStats`]).
    pub fn serve_stats(&self) -> ServeStats {
        let (quarantine_active, quarantine_permanent) = self.quarantine.counts();
        ServeStats {
            service: self.stats(),
            store: self.store.stats(),
            quarantine_active,
            quarantine_permanent,
            // The batch path has no shed controller and never queues, so
            // the async-only counters are structurally zero here; the
            // async front end's `serve_stats` fills them in.
            shed_raises: 0,
            shed_lowers: 0,
            deadline_cancels: 0,
        }
    }

    /// The shared panic quarantine (the async front end gates through the
    /// same state machine as the batch path).
    pub(crate) fn quarantine(&self) -> &Quarantine {
        &self.quarantine
    }

    /// Applies the installed fault hook to one request ordinal.
    pub(crate) fn injected_fault(&self, ordinal: u64) -> Option<InjectedFault> {
        self.fault_hook.as_ref().and_then(|hook| hook(ordinal))
    }

    /// Claims the next `n` arrival ordinals (and counts the requests).
    pub(crate) fn next_ordinals(&self, n: u64) -> u64 {
        self.requests.fetch_add(n, Ordering::Relaxed)
    }

    /// The retained evaluation cache for `canon`'s fingerprint, creating
    /// it (and bounding the retention map) when absent.
    pub(crate) fn retained_cache(&self, canon: &CanonicalApplication) -> Arc<EvalCache> {
        let mut retained = self.caches.lock().expect("cache mutex poisoned");
        if !retained.contains_key(&canon.fingerprint) {
            if retained.len() >= self.cache_capacity {
                retained.clear();
            }
            retained.insert(
                canon.fingerprint.clone(),
                Arc::new(EvalCache::new(&canon.app)),
            );
        }
        retained[&canon.fingerprint].clone()
    }

    /// Drops the retained cache of a fingerprint whose solve panicked or
    /// stalled (its internals may be poisoned mid-unwind).
    pub(crate) fn drop_cache(&self, fingerprint: &AppFingerprint) {
        self.caches
            .lock()
            .expect("cache mutex poisoned")
            .remove(fingerprint);
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.requests.load(Ordering::Relaxed) as usize,
            cold: self.cold.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            dedup_hits: self.dedup_hits.load(Ordering::Relaxed),
            deadline_admits: self.deadline_admits.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            admission_rejects: self.admission_rejects.load(Ordering::Relaxed),
            quarantine_rejects: self.quarantine_rejects.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
        }
    }

    /// Serves one request (a batch of one).
    pub fn serve_one(&self, request: &PlanRequest) -> CoreResult<ServeOutcome> {
        Ok(self
            .serve_batch(std::slice::from_ref(request))?
            .pop()
            .expect("one request, one response"))
    }

    /// Serves a batch: store lookups, quarantine + admission gates,
    /// in-flight dedup, cold solves on the worker pool (see the module
    /// docs).  Outcomes come back in request order; every
    /// [`Exact`](ServeOutcome::Exact) value is bit-identical to a cold
    /// solve of the tenant's own application under the service's budget.
    ///
    /// Every application is **validated before anything is keyed or
    /// solved**: an invalid tenant (NaN cost, negative selectivity, cyclic
    /// constraints, …) fails the whole batch up front rather than poisoning
    /// the fingerprint store with a garbage plan other tenants could then
    /// be served.
    pub fn serve_batch(&self, requests: &[PlanRequest]) -> CoreResult<Vec<ServeOutcome>> {
        for request in requests {
            request.app.validate()?;
        }
        let base_ordinal = self
            .requests
            .fetch_add(requests.len() as u64, Ordering::Relaxed);
        // 1. Canonicalise and key.
        let prepared: Vec<Prepared> = requests
            .iter()
            .map(|r| Prepared::of(r, &self.budget))
            .collect();
        // 2. + 3. + 4. Store lookups, quarantine + admission gates, and
        // in-flight dedup (leader per missing admitted key).  Same-batch
        // twins of a rejected key share the verdict without re-pricing or
        // draining extra quarantine ticks.
        let mut assignments: Vec<Assignment> = Vec::with_capacity(requests.len());
        let mut leaders: Vec<LeaderTask> = Vec::new();
        let mut in_flight: HashMap<&PlanKey, usize> = HashMap::new();
        let mut rejected_keys: HashMap<&PlanKey, Rejection> = HashMap::new();
        for (idx, prep) in prepared.iter().enumerate() {
            if let Some(slot) = in_flight.get(&prep.key) {
                self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                assignments.push(Assignment::Follower(*slot));
                continue;
            }
            if let Some(rejection) = rejected_keys.get(&prep.key) {
                self.count_rejection(&rejection.reason);
                assignments.push(Assignment::Rejected(rejection.clone()));
                continue;
            }
            if let Some(plan) = self.store.get(&prep.key) {
                self.store_hits.fetch_add(1, Ordering::Relaxed);
                assignments.push(Assignment::Hit(plan));
                continue;
            }
            if let Err(permanent) = self.quarantine.admit(&prep.key) {
                let rejection = Rejection {
                    reason: RejectReason::Quarantined { permanent },
                    estimate: None,
                };
                self.count_rejection(&rejection.reason);
                rejected_keys.insert(&prep.key, rejection.clone());
                assignments.push(Assignment::Rejected(rejection));
                continue;
            }
            let request = &requests[idx];
            let decision = {
                let _pricing = self
                    .metrics
                    .as_ref()
                    .and_then(|m| m.admission.start_sampled());
                self.admission
                    .decide(&request.app, request.model, request.objective, &self.budget)
            };
            let (time_limit, floor) = match decision {
                AdmissionDecision::Admit => (None, None),
                AdmissionDecision::AdmitWithDeadline {
                    time_limit,
                    estimate,
                } => {
                    self.deadline_admits.fetch_add(1, Ordering::Relaxed);
                    (Some(time_limit), estimate.value_floor)
                }
                AdmissionDecision::Reject { estimate } => {
                    let rejection = Rejection {
                        reason: RejectReason::AdmissionCost,
                        estimate: Some(estimate),
                    };
                    self.count_rejection(&rejection.reason);
                    rejected_keys.insert(&prep.key, rejection.clone());
                    assignments.push(Assignment::Rejected(rejection));
                    continue;
                }
            };
            let slot = leaders.len();
            leaders.push(LeaderTask {
                idx,
                ordinal: base_ordinal + idx as u64,
                time_limit,
                floor,
            });
            in_flight.insert(&prep.key, slot);
            self.cold.fetch_add(1, Ordering::Relaxed);
            assignments.push(Assignment::Leader(slot));
        }
        // 5. Drain the leaders onto the pool.  Each cold solve runs serial
        // inside (the fan-out is across requests) under its own deadline,
        // wrapped in `catch_unwind` so one panicking solve cannot take the
        // batch (or the process) down with it.
        let threads = match self.budget.threads {
            0 => std::thread::available_parallelism().map_or(1, |t| t.get()),
            t => t,
        };
        // One evaluation cache per distinct fingerprint, **retained across
        // batches**: the fingerprint determines the canonical application,
        // so leaders of the same application — in this batch under other
        // models/objectives, or in a later batch after the plan store
        // evicted the fingerprint — share the memoised ordering searches,
        // exactly like `solve_all`'s per-app sweep.  (`EvalCache` is `Sync`;
        // the workers only read their `Arc`s.)
        let caches: Vec<Arc<EvalCache>> = leaders
            .iter()
            .map(|task| self.retained_cache(&prepared[task.idx].canon))
            .collect();
        let solved: Vec<Result<StoredPlan, String>> =
            par_chunks(threads, &leaders, |base, chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .map(|(offset, task)| {
                        let cache = &caches[base + offset];
                        let fault = self.fault_hook.as_ref().and_then(|hook| hook(task.ordinal));
                        let mut inner = SearchBudget {
                            threads: 1,
                            ..self.budget
                        };
                        if let Some(limit) = task.time_limit {
                            inner.time_limit =
                                Some(inner.time_limit.map_or(limit, |own| own.min(limit)));
                        }
                        if fault == Some(InjectedFault::DeadlineBlowout) {
                            inner.time_limit = Some(Duration::ZERO);
                        }
                        catch_unwind(AssertUnwindSafe(|| {
                            match fault {
                                Some(InjectedFault::Panic) => {
                                    panic!(
                                        "injected solver panic (request ordinal {})",
                                        task.ordinal
                                    )
                                }
                                Some(InjectedFault::Slow(stall)) => std::thread::sleep(stall),
                                _ => {}
                            }
                            cold_solve(
                                &prepared[task.idx],
                                requests[task.idx].model,
                                &inner,
                                cache,
                                self.metrics_registry(),
                            )
                        }))
                        .map_err(panic_message)
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        // Bookkeeping in leader order (deterministic store and quarantine
        // contents): only **exhaustive** plans enter the store; failures
        // are quarantined and their retained caches dropped (the unwound
        // solve may have left cache internals poisoned).
        for (slot, task) in leaders.iter().enumerate() {
            let key = &prepared[task.idx].key;
            match &solved[slot] {
                Ok(plan) => {
                    if self.quarantine.record_success(key) {
                        self.recovered.fetch_add(1, Ordering::Relaxed);
                    }
                    if plan.exhaustive {
                        self.store.insert(key.clone(), plan.clone());
                    } else {
                        // A degraded attempt burnt real wall time but stores
                        // nothing: remember the cost, so the eventual exact
                        // re-solve's eviction weight reflects the *full*
                        // recomputation price (degraded-then-exact upgrade).
                        self.store.record_attempt_cost(key, plan.solve_micros);
                    }
                }
                Err(_) => {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    self.quarantine.record_failure(key);
                    self.drop_cache(&key.fingerprint);
                }
            }
        }
        // Degraded leaders that were admitted without a priced floor (the
        // plain-admit band, or an open policy) get one certified now — the
        // degraded path is the slow path, so the bounded pricing pass is
        // affordable here.
        let floors: Vec<Option<f64>> = leaders
            .iter()
            .enumerate()
            .map(|(slot, task)| {
                if task.floor.is_some() {
                    return task.floor;
                }
                match &solved[slot] {
                    Ok(plan) if !plan.exhaustive => {
                        let r = &requests[task.idx];
                        self.admission
                            .certified_floor(&r.app, r.model, r.objective, &self.budget)
                    }
                    _ => None,
                }
            })
            .collect();
        // Fan the answers back out, relabelled per tenant.
        Ok(assignments
            .into_iter()
            .enumerate()
            .map(|(idx, assignment)| {
                let (plan, source, floor) = match assignment {
                    Assignment::Rejected(rejection) => return ServeOutcome::Rejected(rejection),
                    Assignment::Hit(plan) => (plan, ServeSource::Store, None),
                    Assignment::Leader(slot) => match &solved[slot] {
                        Ok(plan) => (plan.clone(), ServeSource::Cold, floors[slot]),
                        Err(message) => {
                            return ServeOutcome::Rejected(Rejection {
                                reason: RejectReason::SolverPanic {
                                    message: message.clone(),
                                },
                                estimate: None,
                            })
                        }
                    },
                    Assignment::Follower(slot) => match &solved[slot] {
                        Ok(plan) => (plan.clone(), ServeSource::Dedup, floors[slot]),
                        Err(message) => {
                            return ServeOutcome::Rejected(Rejection {
                                reason: RejectReason::SolverPanic {
                                    message: message.clone(),
                                },
                                estimate: None,
                            })
                        }
                    },
                };
                let graph = prepared[idx]
                    .canon
                    .graph_to_tenant(&plan.graph)
                    .expect("canonical plans relabel cleanly");
                let response = PlanResponse {
                    value: plan.value,
                    graph,
                    exhaustive: plan.exhaustive,
                    source,
                    solve_micros: plan.solve_micros,
                };
                if response.exhaustive {
                    ServeOutcome::Exact(response)
                } else {
                    self.degraded.fetch_add(1, Ordering::Relaxed);
                    let lower_bound = floor.unwrap_or(0.0);
                    let gap = if lower_bound > 0.0 {
                        (response.value - lower_bound) / lower_bound
                    } else {
                        f64::INFINITY
                    };
                    ServeOutcome::Degraded {
                        response,
                        lower_bound,
                        gap,
                    }
                }
            })
            .collect())
    }

    fn count_rejection(&self, reason: &RejectReason) {
        match reason {
            RejectReason::AdmissionCost => {
                self.admission_rejects.fetch_add(1, Ordering::Relaxed);
            }
            RejectReason::Quarantined { .. } => {
                self.quarantine_rejects.fetch_add(1, Ordering::Relaxed);
            }
            // Panic rejections are counted per failed leader (`panics`);
            // the remaining reasons are produced by the async front end,
            // which keeps its own counters.
            _ => {}
        }
    }

    /// Publishes an externally solved plan (an online re-plan from a
    /// [`crate::online::TenantSession`]) into the store, so later requests
    /// for the same fingerprint are served without a solve.  `graph` and
    /// `value` are in tenant labels; the entry is stored canonically.
    ///
    /// `solved_under` is the budget that produced the plan: a store hit
    /// promises the value a cold solve under *the service's* budget would
    /// return, so plans solved under any other budget (different caps,
    /// evaluation, or a time limit) are silently dropped instead of
    /// poisoning the store with a value the service itself would not
    /// compute.  Non-exhaustive plans are dropped for the same reason —
    /// the store only ever holds exact results (a degraded value must
    /// never be served as exhaustive).  Returns `true` when the plan was
    /// stored.
    #[allow(clippy::too_many_arguments)] // one flat record, not a call protocol
    pub fn publish(
        &self,
        app: &Application,
        model: CommModel,
        objective: Objective,
        solved_under: &SearchBudget,
        value: f64,
        graph: &ExecutionGraph,
        exhaustive: bool,
        solve_micros: u64,
    ) -> bool {
        if !exhaustive || *solved_under != self.budget {
            return false;
        }
        let collapse = permutation_collapse_allowed(app, model, objective, &self.budget);
        let canon = CanonicalApplication::with_collapse(app, collapse);
        let Ok(canonical_graph) = canon.graph_to_canonical(graph) else {
            return false;
        };
        let key = PlanKey {
            fingerprint: canon.fingerprint.clone(),
            model,
            objective,
        };
        self.store.insert(
            key,
            StoredPlan {
                value,
                graph: canonical_graph,
                exhaustive,
                solve_micros,
            },
        );
        true
    }
}

/// One cold solve over the canonical application, timed for the store.
/// When a registry is attached it records a `serve.cold_solve` span and is
/// threaded down the solve pipeline (`solve.search`/`solve.orchestrate`
/// spans, engine stream/expand/certify stages).
pub(crate) fn cold_solve(
    prep: &Prepared,
    model: CommModel,
    budget: &SearchBudget,
    cache: &EvalCache,
    metrics: Option<&Arc<fsw_obs::MetricsRegistry>>,
) -> StoredPlan {
    let problem = Problem::new(&prep.canon.app, model, prep.key.objective);
    let started = Instant::now();
    let span = metrics.map(|r| r.span("serve.cold_solve"));
    let guard = span.as_ref().map(|t| t.start());
    let solution = solve_warm_observed(&problem, budget, cache, None, metrics)
        .map(|(solution, _)| solution)
        .expect("serving requests are validated applications");
    drop(guard);
    let solve_micros = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
    StoredPlan {
        value: solution.value,
        graph: solution.graph,
        exhaustive: solution.exhaustive,
        solve_micros,
    }
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "solver panicked".to_string()
    }
}

/// The store-aware batch entry point over a **fleet** of applications: every
/// `(application, model, objective)` combination becomes one request, the
/// whole fleet goes through a transient [`PlanService`] batch (so
/// applications identical after canonicalisation are solved **once**), and
/// the responses come back grouped per application in request order.
///
/// The transient service runs with an **open** admission policy
/// ([`AdmissionPolicy::open`]): the caller owns the fleet and wants an
/// answer for every member, so oversized instances come back as their
/// budget-capped best effort (`exhaustive == false`) instead of being
/// rejected.
///
/// This supersedes looping `fsw_sched::orchestrator::solve_all` over the
/// fleet, which solved every tenant separately even when all twelve were
/// the same canonical problem.
pub fn solve_all(
    apps: &[Application],
    requests: &[(CommModel, Objective)],
    budget: &SearchBudget,
) -> CoreResult<Vec<Vec<PlanResponse>>> {
    let service = PlanService::new(*budget, (apps.len() * requests.len()).max(1))
        .with_admission(AdmissionPolicy::open());
    let batch: Vec<PlanRequest> = apps
        .iter()
        .flat_map(|app| {
            requests
                .iter()
                .map(|&(model, objective)| PlanRequest::new(app.clone(), model, objective))
        })
        .collect();
    let mut responses = service.serve_batch(&batch)?.into_iter().map(|outcome| {
        outcome
            .into_response()
            .expect("open admission answers every validated request")
    });
    Ok(apps
        .iter()
        .map(|_| responses.by_ref().take(requests.len()).collect())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsw_sched::orchestrator::solve;

    fn budget() -> SearchBudget {
        SearchBudget::default()
    }

    fn key_of(specs: &[(f64, f64)]) -> PlanKey {
        PlanKey {
            fingerprint: CanonicalApplication::of(&Application::independent(specs)).fingerprint,
            model: CommModel::Overlap,
            objective: Objective::MinPeriod,
        }
    }

    #[test]
    fn identical_tenants_dedup_in_flight_and_hit_the_store_across_batches() {
        let service = PlanService::new(budget(), 16);
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8)]);
        let request = PlanRequest::new(app.clone(), CommModel::Overlap, Objective::MinPeriod);
        let batch = vec![request.clone(), request.clone(), request.clone()];
        let outcomes = service.serve_batch(&batch).unwrap();
        assert_eq!(outcomes[0].expect_exact().source, ServeSource::Cold);
        assert_eq!(outcomes[1].expect_exact().source, ServeSource::Dedup);
        assert_eq!(outcomes[2].expect_exact().source, ServeSource::Dedup);
        // All three answers are the same bits.
        let cold = solve(
            &Problem::new(&app, CommModel::Overlap, Objective::MinPeriod),
            &budget(),
        )
        .unwrap();
        for outcome in &outcomes {
            let r = outcome.expect_exact();
            assert_eq!(r.value, cold.value);
            assert_eq!(r.exhaustive, cold.exhaustive);
        }
        // A later batch is served from the store.
        let again = service.serve_one(&request).unwrap();
        assert_eq!(again.expect_exact().source, ServeSource::Store);
        assert_eq!(again.expect_exact().value, cold.value);
        let stats = service.stats();
        assert_eq!((stats.cold, stats.dedup_hits, stats.store_hits), (1, 2, 1));
    }

    #[test]
    fn permuted_tenants_share_one_solve_on_invariant_paths() {
        let a = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8)]);
        let b = Application::independent(&[(3.0, 0.8), (2.0, 0.5), (1.0, 2.0)]);
        let service = PlanService::new(budget(), 16);
        let outcomes = service
            .serve_batch(&[
                PlanRequest::new(a.clone(), CommModel::InOrder, Objective::MinPeriod),
                PlanRequest::new(b.clone(), CommModel::InOrder, Objective::MinPeriod),
            ])
            .unwrap();
        assert_eq!(outcomes[0].expect_exact().source, ServeSource::Cold);
        assert_eq!(outcomes[1].expect_exact().source, ServeSource::Dedup);
        // Each tenant's served value equals its own cold solve, bit for bit
        // (the LowerBound MINPERIOD path is label-invariant).
        for (app, outcome) in [(&a, &outcomes[0]), (&b, &outcomes[1])] {
            let response = outcome.expect_exact();
            let cold = solve(
                &Problem::new(app, CommModel::InOrder, Objective::MinPeriod),
                &budget(),
            )
            .unwrap();
            assert_eq!(response.value, cold.value);
            // The served graph is valid for the tenant and achieves the value.
            response.graph.respects(app).unwrap();
        }
    }

    #[test]
    fn publish_refuses_foreign_budgets_and_non_exhaustive_plans() {
        let service = PlanService::new(budget(), 8);
        let app = Application::independent(&[(1.0, 0.5), (2.0, 0.6)]);
        let graph = fsw_core::ExecutionGraph::new(2);
        // A starved budget produces values the service's own cold solves
        // would not return: the store must not accept them.
        let starved = SearchBudget {
            max_graphs: 1,
            ..budget()
        };
        assert!(!service.publish(
            &app,
            CommModel::Overlap,
            Objective::MinPeriod,
            &starved,
            9.0,
            &graph,
            true,
            10
        ));
        // A degraded plan under the right budget is refused too: the store
        // only ever holds exhaustive results.
        assert!(!service.publish(
            &app,
            CommModel::Overlap,
            Objective::MinPeriod,
            &budget(),
            9.0,
            &graph,
            false,
            10
        ));
        assert_eq!(service.store().stats().len, 0);
        // The service's own budget with an exhaustive plan is accepted.
        assert!(service.publish(
            &app,
            CommModel::Overlap,
            Objective::MinPeriod,
            &budget(),
            9.0,
            &graph,
            true,
            10
        ));
        assert_eq!(service.store().stats().len, 1);
    }

    #[test]
    fn invalid_applications_are_rejected_before_solving_or_caching() {
        let service = PlanService::new(budget(), 8);
        let bad = Application::independent(&[(f64::NAN, 0.5), (2.0, 0.6), (1.0, -3.0)]);
        let request = PlanRequest::new(bad, CommModel::Overlap, Objective::MinPeriod);
        assert!(service.serve_one(&request).is_err());
        // Nothing was counted, solved or cached — the store cannot be
        // poisoned with a garbage plan other tenants could be served.
        let stats = service.stats();
        assert_eq!((stats.requests, stats.cold), (0, 0));
        assert_eq!(service.store().stats().len, 0);
    }

    #[test]
    fn collapse_gate_requires_exhaustive_coverage_and_no_deadline() {
        // n = 10 with all-distinct weights: the labelled forest space
        // (10^10) dwarfs max_graphs and no symmetry reduction applies, so
        // the solve would fall back to label-following local search —
        // permuted tenants must not collapse there.
        let specs: Vec<(f64, f64)> = (0..10)
            .map(|k| (1.0 + k as f64, 0.5 + 0.01 * k as f64))
            .collect();
        let wide = Application::independent(&specs);
        for objective in [Objective::MinPeriod, Objective::MinLatency] {
            assert!(!permutation_collapse_allowed(
                &wide,
                CommModel::Overlap,
                objective,
                &budget()
            ));
        }
        // A uniform n = 10 instance is covered through the canonical space.
        let uniform = Application::independent(&[(2.0, 0.5); 10]);
        assert!(permutation_collapse_allowed(
            &uniform,
            CommModel::Overlap,
            Objective::MinPeriod,
            &budget()
        ));
        // A time limit makes any interrupted enumeration walk-order (and
        // wall-clock) dependent: no collapse, however small the instance.
        let small = Application::independent(&[(1.0, 0.5), (2.0, 0.6), (3.0, 0.7)]);
        assert!(permutation_collapse_allowed(
            &small,
            CommModel::Overlap,
            Objective::MinPeriod,
            &budget()
        ));
        let limited = budget().with_time_limit(std::time::Duration::from_secs(1));
        assert!(!permutation_collapse_allowed(
            &small,
            CommModel::Overlap,
            Objective::MinPeriod,
            &limited
        ));
    }

    #[test]
    fn label_following_paths_do_not_collapse_permutations() {
        // MINLATENCY at n <= dag_enumeration_max_n runs ordering searches:
        // permuted tenants must keep distinct fingerprints there.
        let a = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8)]);
        let b = Application::independent(&[(3.0, 0.8), (2.0, 0.5), (1.0, 2.0)]);
        assert!(!permutation_collapse_allowed(
            &a,
            CommModel::InOrder,
            Objective::MinLatency,
            &budget()
        ));
        let service = PlanService::new(budget(), 16);
        let outcomes = service
            .serve_batch(&[
                PlanRequest::new(a, CommModel::InOrder, Objective::MinLatency),
                PlanRequest::new(b, CommModel::InOrder, Objective::MinLatency),
            ])
            .unwrap();
        assert_eq!(outcomes[0].expect_exact().source, ServeSource::Cold);
        assert_eq!(outcomes[1].expect_exact().source, ServeSource::Cold);
    }

    #[test]
    fn fleet_solve_all_groups_responses_per_application() {
        let apps = vec![
            Application::independent(&[(1.0, 0.5), (2.0, 0.8)]),
            Application::independent(&[(2.0, 0.8), (1.0, 0.5)]), // permutation of the first
        ];
        let requests = [
            (CommModel::Overlap, Objective::MinPeriod),
            (CommModel::InOrder, Objective::MinPeriod),
        ];
        let grouped = solve_all(&apps, &requests, &budget()).unwrap();
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].len(), 2);
        // The permuted twin is fully deduplicated.
        assert!(grouped[1].iter().all(|r| r.source == ServeSource::Dedup));
        for (app, responses) in apps.iter().zip(&grouped) {
            for (&(model, objective), response) in requests.iter().zip(responses) {
                let cold = solve(&Problem::new(app, model, objective), &budget()).unwrap();
                assert_eq!(response.value, cold.value, "{model} {objective}");
            }
        }
    }

    #[test]
    fn oversized_requests_are_rejected_with_an_estimate_before_any_solve() {
        let service = PlanService::new(budget(), 8);
        let specs: Vec<(f64, f64)> = (0..24)
            .map(|k| (1.0 + k as f64, 0.3 + 0.02 * k as f64))
            .collect();
        let jumbo = PlanRequest::new(
            Application::independent(&specs),
            CommModel::Overlap,
            Objective::MinPeriod,
        );
        let outcome = service.serve_one(&jumbo).unwrap();
        let rejection = outcome.rejection().expect("n=24 distinct must reject");
        assert_eq!(rejection.reason, RejectReason::AdmissionCost);
        let estimate = rejection.estimate.expect("admission rejects carry a price");
        assert!(estimate.cost > service.admission().reject_cost);
        let stats = service.stats();
        assert_eq!((stats.cold, stats.admission_rejects), (0, 1));
        assert_eq!(service.store().stats().len, 0, "no plan was stored");
    }

    #[test]
    fn degrade_band_requests_come_back_degraded_with_an_admissible_floor() {
        // n = 8 all-distinct sits in the degrade band (8^8 raw plans): the
        // solve runs under the degrade deadline, falls back to local
        // search, and the outcome is Degraded with value >= floor > 0.
        let service = PlanService::new(budget(), 8);
        let specs: Vec<(f64, f64)> = (0..8)
            .map(|k| (1.0 + k as f64, 0.4 + 0.05 * k as f64))
            .collect();
        let request = PlanRequest::new(
            Application::independent(&specs),
            CommModel::Overlap,
            Objective::MinPeriod,
        );
        let outcome = service.serve_one(&request).unwrap();
        let ServeOutcome::Degraded {
            response,
            lower_bound,
            gap,
        } = &outcome
        else {
            panic!("n=8 distinct must degrade, got {outcome:?}");
        };
        assert!(!response.exhaustive);
        assert!(*lower_bound > 0.0, "n=8 prices a certified floor");
        assert!(response.value >= *lower_bound);
        assert!(*gap >= 0.0 && gap.is_finite());
        let stats = service.stats();
        assert_eq!((stats.deadline_admits, stats.degraded), (1, 1));
        // Degraded results are never cached: a repeat request re-solves.
        assert_eq!(service.store().stats().len, 0);
        let again = service.serve_one(&request).unwrap();
        assert!(matches!(again, ServeOutcome::Degraded { .. }));
        assert_eq!(service.stats().cold, 2);
    }

    #[test]
    fn a_panicking_leader_rejects_its_followers_and_quarantines_the_key() {
        let service = PlanService::new(budget(), 16)
            .with_fault_injection(|ordinal| (ordinal == 0).then_some(InjectedFault::Panic));
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8)]);
        let request = PlanRequest::new(app, CommModel::Overlap, Objective::MinPeriod);
        let batch = vec![request.clone(), request.clone(), request.clone()];
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcomes = service.serve_batch(&batch).unwrap();
        std::panic::set_hook(quiet);
        // Leader and both followers observe the panic — nobody hangs, and
        // nothing entered the store.
        assert_eq!(outcomes.len(), 3);
        for outcome in &outcomes {
            let rejection = outcome.rejection().expect("panic must reject");
            assert!(matches!(rejection.reason, RejectReason::SolverPanic { .. }));
        }
        assert_eq!(service.store().stats().len, 0);
        assert_eq!(service.stats().panics, 1);
        // The fingerprint is now in backoff: the next requests are
        // rejected as quarantined without touching the pool.
        let next = service.serve_one(&request).unwrap();
        assert_eq!(
            next.rejection().map(|r| &r.reason),
            Some(&RejectReason::Quarantined { permanent: false })
        );
        assert_eq!(service.stats().cold, 1, "no second solve during backoff");
        // Once the backoff window (2 requests after the first failure)
        // drains, a retry is allowed — the fault fired only on ordinal 0,
        // so the retry succeeds and the quarantine entry clears.
        let _ = service.serve_one(&request).unwrap();
        let retried = service.serve_one(&request).unwrap();
        assert!(retried.is_exact(), "retry after backoff must solve");
        let stats = service.stats();
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.quarantine_rejects, 2);
    }

    #[test]
    fn repeated_panics_make_the_quarantine_permanent() {
        // Every solve of this fingerprint panics: after
        // QUARANTINE_MAX_FAILURES failed retries the key is permanently
        // rejected and the pool is never touched again.
        let service =
            PlanService::new(budget(), 16).with_fault_injection(|_| Some(InjectedFault::Panic));
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0)]);
        let request = PlanRequest::new(app, CommModel::Overlap, Objective::MinPeriod);
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut permanent_seen = false;
        for _ in 0..32 {
            let outcome = service.serve_one(&request).unwrap();
            if let Some(Rejection {
                reason: RejectReason::Quarantined { permanent: true },
                ..
            }) = outcome.rejection()
            {
                permanent_seen = true;
                break;
            }
        }
        std::panic::set_hook(quiet);
        assert!(permanent_seen, "quarantine never became permanent");
        let stats = service.stats();
        assert_eq!(stats.panics, QUARANTINE_MAX_FAILURES as usize);
        // Once permanent, no further solve attempts happen.
        let cold_before = service.stats().cold;
        let outcome = service.serve_one(&request).unwrap();
        assert_eq!(
            outcome.rejection().map(|r| &r.reason),
            Some(&RejectReason::Quarantined { permanent: true })
        );
        assert_eq!(service.stats().cold, cold_before);
    }

    #[test]
    fn quarantine_state_machine_backs_off_exponentially() {
        let quarantine = Quarantine::new();
        let key = key_of(&[(1.0, 0.5), (2.0, 0.6)]);
        // Fresh keys are admitted.
        assert_eq!(quarantine.admit(&key), Ok(()));
        // First failure: backoff of 2 requests, then a retry is allowed.
        quarantine.record_failure(&key);
        assert_eq!(quarantine.admit(&key), Err(false));
        assert_eq!(quarantine.admit(&key), Err(false));
        assert_eq!(quarantine.admit(&key), Ok(()));
        // Second failure: backoff doubles to 4.
        quarantine.record_failure(&key);
        for _ in 0..4 {
            assert_eq!(quarantine.admit(&key), Err(false));
        }
        assert_eq!(quarantine.admit(&key), Ok(()));
        // Third failure: permanent, forever.
        quarantine.record_failure(&key);
        for _ in 0..8 {
            assert_eq!(quarantine.admit(&key), Err(true));
        }
    }

    #[test]
    fn quarantine_success_clears_the_entry() {
        let quarantine = Quarantine::new();
        let key = key_of(&[(3.0, 0.7)]);
        quarantine.record_failure(&key);
        assert_eq!(quarantine.admit(&key), Err(false));
        assert!(quarantine.record_success(&key), "entry existed");
        assert!(!quarantine.record_success(&key), "entry already cleared");
        // A cleared key is fresh again: full failure budget, no backoff.
        assert_eq!(quarantine.admit(&key), Ok(()));
        quarantine.record_failure(&key);
        assert_eq!(quarantine.admit(&key), Err(false));
    }

    #[test]
    fn deadline_blowouts_degrade_deterministically() {
        // A blown deadline (time_limit = 0) forces the deterministic
        // serial fallback: the outcome is Degraded and identical across
        // runs, and nothing enters the store.
        let make = || {
            PlanService::new(budget(), 8)
                .with_fault_injection(|_| Some(InjectedFault::DeadlineBlowout))
        };
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8), (1.5, 0.6)]);
        let request = PlanRequest::new(app, CommModel::Overlap, Objective::MinPeriod);
        let first = make().serve_one(&request).unwrap();
        let second = make().serve_one(&request).unwrap();
        let (a, b) = match (&first, &second) {
            (
                ServeOutcome::Degraded { response: a, .. },
                ServeOutcome::Degraded { response: b, .. },
            ) => (a, b),
            other => panic!("blowouts must degrade, got {other:?}"),
        };
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        assert!(!a.exhaustive);
    }
}
