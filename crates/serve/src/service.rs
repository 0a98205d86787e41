//! The planning service: the tier's shared state and its batch door.
//!
//! [`PlanService`] owns what every request of the tier shares — the plan
//! store, the panic quarantine, the retained evaluation caches, the
//! admission policy, the fault hook and the counters — and
//! [`PlanService::serve_batch`] is its blocking front door: it submits the
//! whole batch to the event loop of [`crate::frontend`] under one tenant,
//! dequeues it on the first tick and drains it.  Each request is decided in
//! the one pipeline order the crate docs draw: **dedup join** (a request
//! whose key is already being solved shares that solve's outcome,
//! failures included — [`ServeSource::Dedup`]), **store** (the store only
//! holds exhaustive plans, so a hit is always `Exact` —
//! [`ServeSource::Store`]), **quarantine**, **admission** (priced in
//! O(shapes) before any enumeration, [`crate::admission`]) and
//! **dispatch** to the worker pool ([`ServeSource::Cold`]), where a
//! panicking solve is caught and quarantined, exhaustive results enter the
//! store, and interrupted ones come back
//! [`Degraded`](ServeOutcome::Degraded) with an admissible lower bound and
//! are never cached.
//!
//! Every request is canonicalised ([`fsw_core::CanonicalApplication`]) and
//! keyed by its [`PlanKey`] — the permutation collapse engages only when
//! the solve path is provably label-invariant
//! ([`permutation_collapse_allowed`]), so an [`Exact`](ServeOutcome::Exact)
//! value is always bit-identical to a cold solve of the tenant's own
//! application.  Responses carry the plan relabelled into the tenant's own
//! service ids.
//!
//! For robustness testing, [`PlanService::with_fault_injection`] installs a
//! deterministic fault hook keyed by **request ordinal** (arrival order
//! across the service's lifetime, on either door), so fault replays are
//! reproducible whatever the thread count (`fsw_sim`'s `FaultPlan` drives
//! this).

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fsw_core::{
    AppFingerprint, Application, CanonicalApplication, CommModel, CoreResult, ExecutionGraph,
    PackedGraph, ServiceId,
};
use fsw_obs::MetricsRegistry;
use fsw_sched::engine::EvalCache;
use fsw_sched::orchestrator::{solve_warm_observed, Objective, Problem, SearchBudget};

use crate::admission::{AdmissionPolicy, CostEstimate};
use crate::frontend::{EventLoop, FrontendConfig};
use crate::stats::{Counters, Instruments, ServeStats};
use crate::store::{HeldPlan, PlanKey, PlanStore, StoredPlan};

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
    /// Solved cold for this request (the leader of its key's solve).
    Cold,
    /// Answered from the plan store (an earlier solve stored it).
    Store,
    /// Joined the in-flight solve of a leader with the same key.
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
    /// The solve for this fingerprint panicked (the request was its
    /// leader, or a joiner woken with the leader's error).
    SolverPanic {
        /// The panic payload, when it carried a message.
        message: String,
    },
    /// The tenant's bounded ingress queue was full when the request
    /// arrived: shed at ingress, nothing queued.
    QueueFull,
    /// Shed by adaptive backpressure: the request would have been admitted
    /// at baseline thresholds, but the front end's backlog had tightened
    /// them by `level` halvings when it was dequeued.
    Shed {
        /// The shed level in force at the decision (≥ 1).
        level: u32,
    },
    /// The request's deadline had already expired when it was dequeued:
    /// cancelled instead of solved uselessly.
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
    /// The cost estimate, floor included, that rejected or shed it
    /// (admission rejections and backpressure sheds).  Boxed: only those
    /// rejections carry one, and an inline 48-byte estimate would widen
    /// every [`ServeOutcome`] and [`Completion`](crate::Completion).
    pub estimate: Option<Box<CostEstimate>>,
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
    /// No plan: shed, cancelled, or rejected by admission, quarantine, a
    /// solver panic or a stall.
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

/// A deterministic fault injected at one request ordinal (robustness
/// harness; see [`PlanService::with_fault_injection`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// The solver panics before doing any work.
    Panic,
    /// The solve is preceded by an artificial stall.  A stall longer than
    /// the front end's watchdog is timed out as a
    /// [`RejectReason::WorkerStall`].
    Slow(Duration),
    /// The solve runs under an already-expired deadline (`time_limit` of
    /// zero): the search degrades to its deterministic fallback
    /// immediately, modelling a deadline blowout without wall-clock
    /// dependence.
    DeadlineBlowout,
    /// A slow store lookup: the request's lookup sleeps first.  Wall
    /// clock only — no decision changes.
    SlowShard(Duration),
}

/// `true` when the solve path for `(model, objective)` under `budget` is
/// provably **label-invariant**, i.e. two applications that are service
/// permutations of each other solve to bit-identical values — the gate for
/// collapsing permuted tenants onto one canonical fingerprint.
///
/// The rules mirror the bit-safety contract of
/// `fsw_sched::minperiod::exhaustive_forest_search`, whose orbit reduction
/// needs an evaluation invariant under class-preserving relabellings:
///
/// * constrained applications never collapse (constraints name services);
/// * MINPERIOD, under every model, values each candidate by its structural
///   period bound, a pure function of the weighted plan structure — the
///   plan search is over forests, whose metrics are path-order products
///   with no cross-label sums — so `model` never changes the answer;
/// * MINLATENCY on the forest-only path (`n > dag_enumeration_max_n`) is
///   exact Algorithm 1, again purely structural;
/// * the MINLATENCY DAG phase runs ordering searches whose accumulation
///   order follows service ids and may drift by an ulp across
///   relabellings — those requests key by their **exact** labelling
///   instead (identical tenants still share; permuted ones do not);
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
    _model: CommModel,
    objective: Objective,
    budget: &SearchBudget,
) -> bool {
    use fsw_sched::engine::CanonicalSpace;
    if app.has_constraints()
        || budget.time_limit.is_some()
        || !CanonicalSpace::exhaustively_coverable(app, budget.max_graphs)
    {
        return false;
    }
    match objective {
        Objective::MinPeriod => true,
        Objective::MinLatency => app.n() > budget.dag_enumeration_max_n,
    }
}

/// A request canonicalised and keyed, ready for the store: what a cold
/// solve and the reply read of its [`CanonicalApplication`], with the
/// fingerprint moved into the key.
pub(crate) struct Prepared {
    /// The application over canonical labels.
    pub(crate) app: Application,
    /// `from_canonical[canonical_id] == tenant_id`: relabels a canonical
    /// plan into the tenant's ids.
    pub(crate) from_canonical: Vec<ServiceId>,
    pub(crate) key: PlanKey,
}

impl Prepared {
    /// Canonicalises and keys one request under `budget` (the collapse
    /// gate engages only on provably label-invariant paths).
    pub(crate) fn of(request: &PlanRequest, budget: &SearchBudget) -> Prepared {
        let collapse =
            permutation_collapse_allowed(&request.app, request.model, request.objective, budget);
        let CanonicalApplication {
            app,
            from_canonical,
            fingerprint,
        } = CanonicalApplication::with_collapse(&request.app, collapse);
        let key = PlanKey {
            fingerprint,
            model: request.model,
            objective: request.objective,
        };
        Prepared {
            app,
            from_canonical,
            key,
        }
    }
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
/// one admission policy, one set of counters (see the module docs for the
/// request lifecycle).
pub struct PlanService {
    budget: SearchBudget,
    admission: AdmissionPolicy,
    store: PlanStore,
    /// Evaluation caches **retained across batches**, one per canonical
    /// application fingerprint: a fingerprint that falls out of the plan
    /// store (capacity eviction) and comes back cold re-solves against its
    /// previously memoised ordering searches instead of recomputing every
    /// one.  Entries depend only on the canonical application (which the
    /// fingerprint determines), never on the model/objective — they are
    /// one-port latencies of candidate DAGs — so retention is always
    /// value-safe.
    ///
    /// Only a MINLATENCY solve reads a cache (its DAG phase memoises its
    /// ordering searches), so only a MINLATENCY dispatch retains one; a
    /// MINPERIOD solve, under every model, runs against a cache built on
    /// the worker that goes with the solve, and leaves nothing here.  A
    /// retained cache is created at dispatch and shared by every solve of
    /// its fingerprint in flight, but kept past them only once a solve has
    /// recorded a miss in it ([`Self::settle_cache`]).  A fingerprint whose
    /// solve panics has its cache dropped defensively (the unwound solve
    /// may have left internal locks poisoned).
    caches: Mutex<HashMap<AppFingerprint, Arc<EvalCache>>>,
    /// Bound on the number of retained caches; on overflow the map is
    /// cleared wholesale (caches are pure memos, so dropping them costs
    /// recomputation, never correctness).
    cache_capacity: usize,
    pub(crate) quarantine: Quarantine,
    /// Every serving event of both front doors, counted once.
    pub(crate) counters: Counters,
    /// Spans, latency histogram and tenant sketches, when a registry is
    /// attached ([`Self::with_metrics`]).
    pub(crate) instruments: Option<Instruments>,
    /// Deterministic fault hook keyed by request ordinal (tests/harness).
    fault_hook: Option<Box<dyn Fn(u64) -> Option<InjectedFault> + Send + Sync>>,
}

impl PlanService {
    /// A service answering under `budget`, caching at most `store_capacity`
    /// plans (and retaining at most `store_capacity` per-fingerprint
    /// evaluation caches), gated by the hardened default admission policy
    /// ([`AdmissionPolicy::for_budget`]).  Its counters live in a private
    /// registry until [`Self::with_metrics`] moves them.
    pub fn new(budget: SearchBudget, store_capacity: usize) -> Self {
        PlanService {
            admission: AdmissionPolicy::for_budget(&budget),
            budget,
            store: PlanStore::new(store_capacity),
            caches: Mutex::new(HashMap::new()),
            cache_capacity: store_capacity.max(1),
            quarantine: Quarantine::new(),
            counters: Counters::resolve(&MetricsRegistry::new()),
            instruments: None,
            fault_hook: None,
        }
    }

    /// Replaces the admission policy, e.g. with thresholds or a degrade
    /// deadline other than [`AdmissionPolicy::for_budget`]'s.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Attaches an observability registry.  The service's counters move
    /// into it (`frontend.*` and `store.*`, keeping what they counted so
    /// far), and both front doors record their spans (`frontend.tick`,
    /// `frontend.watchdog`, `admission.decide`, `serve.cold_solve`), the
    /// logical-tick latency histogram and the per-tenant traffic sketches
    /// into it; every cold solve threads it down to the engine stages.
    /// All instruments are pure observability — no served value or
    /// decision depends on them.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.counters = self.counters.moved_to(&registry);
        self.store.count_into(&registry);
        self.instruments = Some(Instruments::resolve(registry));
        self
    }

    /// Installs a deterministic fault hook: the hook is called with the
    /// **arrival ordinal** of each request that reaches the store lookup
    /// (0-based, counted across the service's lifetime), and any returned
    /// [`InjectedFault`] applies to that request — to its lookup
    /// ([`InjectedFault::SlowShard`]) or to the cold solve it leads.
    /// Ordinals are assigned in submission order, so fault replays are
    /// independent of the worker thread count.
    pub fn with_fault_injection<F>(mut self, hook: F) -> Self
    where
        F: Fn(u64) -> Option<InjectedFault> + Send + Sync + 'static,
    {
        self.fault_hook = Some(Box::new(hook));
        self
    }

    /// `(hits, misses)` of the retained evaluation cache that `request`'s
    /// fingerprint resolves to, `None` when no cache is held for it: no
    /// MINLATENCY cold solve has run, or every one that ran recorded no
    /// miss (see the `caches` field).  Tests assert cache retention across
    /// batches with this.
    pub fn eval_cache_stats(&self, request: &PlanRequest) -> Option<(usize, usize)> {
        let key = Prepared::of(request, &self.budget).key;
        self.caches
            .lock()
            .expect("cache mutex poisoned")
            .get(&key.fingerprint)
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

    /// One snapshot of the whole tier: the counters of both front doors,
    /// the store counters, and the quarantine occupancy (see
    /// [`ServeStats`]).
    pub fn stats(&self) -> ServeStats {
        let (active, permanent) = self.quarantine.counts();
        self.counters.view(self.store.stats(), active, permanent)
    }

    /// Applies the installed fault hook to one request ordinal.
    pub(crate) fn injected_fault(&self, ordinal: u64) -> Option<InjectedFault> {
        self.fault_hook.as_ref().and_then(|hook| hook(ordinal))
    }

    /// The retained evaluation cache for `prep`'s fingerprint, creating
    /// it (and bounding the retention map) when absent.
    pub(crate) fn retained_cache(&self, prep: &Prepared) -> Arc<EvalCache> {
        let fingerprint = &prep.key.fingerprint;
        let mut retained = self.caches.lock().expect("cache mutex poisoned");
        if !retained.contains_key(fingerprint) {
            if retained.len() >= self.cache_capacity {
                retained.clear();
            }
            retained.insert(fingerprint.clone(), Arc::new(EvalCache::new(&prep.app)));
        }
        retained[fingerprint].clone()
    }

    /// Settles the cache a completed solve of `fingerprint` ran against,
    /// on the loop thread: a cache with no recorded miss is empty, so it
    /// is dropped unless another solve still holds it (the retention map
    /// and `cache` itself are then its only handles).  A cache with a miss
    /// stays retained.
    pub(crate) fn settle_cache(&self, fingerprint: &AppFingerprint, cache: &Arc<EvalCache>) {
        if cache.stats().1 > 0 {
            return;
        }
        let mut retained = self.caches.lock().expect("cache mutex poisoned");
        let unshared = retained
            .get(fingerprint)
            .is_some_and(|held| Arc::ptr_eq(held, cache) && Arc::strong_count(cache) == 2);
        if unshared {
            retained.remove(fingerprint);
        }
    }

    /// Drops the retained cache of a fingerprint whose solve panicked or
    /// stalled (its internals may be poisoned mid-unwind).
    pub(crate) fn drop_cache(&self, fingerprint: &AppFingerprint) {
        self.caches
            .lock()
            .expect("cache mutex poisoned")
            .remove(fingerprint);
    }

    /// Serves one request (a batch of one).
    pub fn serve_one(&self, request: &PlanRequest) -> CoreResult<ServeOutcome> {
        Ok(self
            .serve_batch(std::slice::from_ref(request))?
            .pop()
            .expect("one request, one response"))
    }

    /// Serves a batch: submits every request to a fresh event loop under
    /// one tenant, drains it, and returns the outcomes in request order
    /// (see the module docs).  Every [`Exact`](ServeOutcome::Exact) value
    /// is bit-identical to a cold solve of the tenant's own application
    /// under the service's budget.
    ///
    /// Every application is **validated before anything is counted,
    /// keyed or solved**: an invalid tenant (NaN cost, negative
    /// selectivity, cyclic constraints, …) fails the whole batch up front
    /// rather than poisoning the fingerprint store with a garbage plan
    /// other tenants could then be served.
    pub fn serve_batch(&self, requests: &[PlanRequest]) -> CoreResult<Vec<ServeOutcome>> {
        for request in requests {
            request.app.validate()?;
        }
        let mut batch = EventLoop::new(self.batch_config(), self.instruments.clone());
        for request in requests {
            batch.submit(self, 0, Cow::Borrowed(request), None);
        }
        let mut completions = batch.drain(self);
        completions.sort_unstable_by_key(|completion| completion.ticket);
        Ok(completions
            .into_iter()
            .map(|completion| completion.outcome)
            .collect())
    }

    /// The batch loop's settings: an unbounded queue dequeued whole on the
    /// first tick (so same-batch twins of a missing key join its solve),
    /// shed level fixed at 0, no deadlines, every job due on the next tick,
    /// no stall watchdog (a long exact solve is never a `WorkerStall`), and
    /// `budget.threads` workers (0: the available parallelism).
    fn batch_config(&self) -> FrontendConfig {
        FrontendConfig {
            workers: match self.budget.threads {
                0 => std::thread::available_parallelism().map_or(1, |t| t.get()),
                t => t,
            },
            queue_capacity: usize::MAX,
            dispatch_per_tick: usize::MAX,
            backlog_high: usize::MAX,
            backlog_low: 0,
            max_shed_level: 0,
            cost_per_tick: u128::MAX,
            deadline_ticks: None,
            stall_timeout: Duration::MAX,
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
            fingerprint: canon.fingerprint,
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

/// One cold solve over the canonical application, timed for the store and
/// with its graph packed as the store holds it.  It runs against `cache`,
/// the fingerprint's retained evaluation cache, or without one against a
/// cache of its own that goes with the solve, as `orchestrator::solve`
/// does.
/// With instruments it records a `serve.cold_solve` span and threads the
/// registry down the solve pipeline (`solve.search`/`solve.orchestrate`
/// spans, engine stream/expand/certify stages).
pub(crate) fn cold_solve(
    prep: &Prepared,
    model: CommModel,
    budget: &SearchBudget,
    cache: Option<&EvalCache>,
    instruments: Option<&Instruments>,
) -> HeldPlan {
    let own;
    let cache = match cache {
        Some(retained) => retained,
        None => {
            own = EvalCache::new(&prep.app);
            &own
        }
    };
    let problem = Problem::new(&prep.app, model, prep.key.objective);
    let started = Instant::now();
    let guard = instruments.map(|m| m.cold_solve.start());
    let solution = solve_warm_observed(
        &problem,
        budget,
        cache,
        None,
        instruments.map(|m| &m.registry),
    )
    .map(|(solution, _)| solution)
    .expect("serving requests are validated applications");
    drop(guard);
    let solve_micros = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
    HeldPlan {
        value: solution.value,
        graph: PackedGraph::from(&solution.graph),
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
        assert_eq!(
            (stats.dispatches, stats.dedup_joins, stats.store_hits),
            (1, 2, 1)
        );
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
        assert_eq!((stats.submitted, stats.dispatches), (0, 0));
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
        let estimate = rejection
            .estimate
            .as_deref()
            .expect("admission rejects carry a price");
        assert!(estimate.cost > service.admission().reject_cost);
        let stats = service.stats();
        assert_eq!((stats.dispatches, stats.admission_rejects), (0, 1));
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
        assert_eq!(service.stats().dispatches, 2);
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
        assert_eq!(
            service.stats().dispatches,
            1,
            "no second solve during backoff"
        );
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
        let cold_before = service.stats().dispatches;
        let outcome = service.serve_one(&request).unwrap();
        assert_eq!(
            outcome.rejection().map(|r| &r.reason),
            Some(&RejectReason::Quarantined { permanent: true })
        );
        assert_eq!(service.stats().dispatches, cold_before);
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
