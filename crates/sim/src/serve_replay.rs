//! Replay of a serving trace through the multi-tenant planning service.
//!
//! The analytic twin of the op-list replay: where [`crate::replay_oplist`]
//! executes one *schedule* against the resource rules, [`replay_trace`]
//! executes a whole *serving timeline*
//! ([`fsw_workloads::streaming::ArrivalTrace`]) against the `fsw_serve`
//! stack.  Tenants live in [`TenantSession`]s: a service-set mutation
//! marks its tenant dirty, and the tenant's next request re-plans online
//! (warm-started) and publishes the plan into the store.  Every other
//! request goes through the front door that [`ServeReplayConfig::frontend`]
//! names — one [`PlanService::serve_batch`] per step, or an
//! [`AsyncFrontend`] that ticks once per step and drains after the
//! timeline, so backlog builds across steps.  Everything else is shared:
//! tenants, request ordinals, faults, outcomes and the report.
//!
//! With [`ServeReplayConfig::verify`] on, every **exact** answer is checked
//! against a **shadow cold solve** of the application its request carried
//! (served values must match it bit-for-bit; warm re-plans must not
//! evaluate more candidates).  Shadow solves are memoised by the exact
//! service list, so a 100 000-request trace over a handful of templates
//! costs a handful of them, and they are excluded from the serving wall.
//!
//! A [`FaultPlan`] injects solver panics, slowdowns, slow store shards,
//! deadline blowouts and ingress bursts by **request ordinal** (arrival
//! order at the service).  Every decision is a function of the ordinals
//! and the logical timeline, so a faulted replay takes the same
//! admit/degrade/reject path whatever the worker thread count — the
//! robustness digests of the tests and the E15–E17 experiments rest on it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsw_core::{Application, CommModel, CoreError, CoreResult};
use fsw_obs::{LogHistogram, MetricsRegistry};
use fsw_sched::engine::EvalCache;
use fsw_sched::orchestrator::{solve_warm_observed, Objective, Problem, SearchBudget};
use fsw_serve::{
    AsyncFrontend, Completion, FrontendConfig, InjectedFault, PlanRequest, PlanService,
    RejectReason, ServeOutcome, ServeSource, ServeStats, TenantEvent, TenantSession,
};
use fsw_workloads::streaming::{ArrivalTrace, TraceEvent, TraceEventKind};

/// How a request was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestPath {
    /// Cold solve (the leader of its fingerprint).
    Cold,
    /// Served from the plan store.
    Store,
    /// Joined an in-flight solve of the same fingerprint.
    Dedup,
    /// Warm-started online re-plan after a service-set mutation.
    Replan,
    /// No plan served: shed, cancelled, or rejected by admission,
    /// quarantine, a caught solver panic or a stall.
    Rejected,
}

/// How a request resolved: its answer's quality tier, or why it got no
/// plan (shed causes kept apart, so overload contracts can tell ingress
/// sheds from backpressure sheds from admission rejects).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Exhaustive answer (store hit, dedup join, cold solve or re-plan),
    /// bit-identical to a cold solve.
    Exact,
    /// Best incumbent under a fired deadline, breached cap, or predicted
    /// deadline miss.
    Degraded,
    /// Shed at ingress: the tenant's bounded queue was full.
    QueueFull,
    /// Shed at dequeue by adaptive backpressure at the recorded level.
    Shed {
        /// The shed level in force at the decision.
        level: u32,
    },
    /// Priced above the *baseline* reject threshold by admission.
    AdmissionCost,
    /// The fingerprint was quarantined when the request was decided.
    Quarantined,
    /// The deadline had expired at dequeue: cancelled, never solved.
    DeadlineExpired,
    /// The worker solving this fingerprint stalled past the watchdog.
    WorkerStall,
    /// The solve panicked (leader or joiner of the panicking key).
    SolverPanic,
}

impl Disposition {
    /// The disposition of a served outcome.
    pub fn of(outcome: &ServeOutcome) -> Self {
        match outcome {
            ServeOutcome::Exact(_) => Disposition::Exact,
            ServeOutcome::Degraded { .. } => Disposition::Degraded,
            ServeOutcome::Rejected(rejection) => match rejection.reason {
                RejectReason::QueueFull => Disposition::QueueFull,
                RejectReason::Shed { level } => Disposition::Shed { level },
                RejectReason::AdmissionCost => Disposition::AdmissionCost,
                RejectReason::Quarantined { .. } => Disposition::Quarantined,
                RejectReason::DeadlineExpired => Disposition::DeadlineExpired,
                RejectReason::WorkerStall => Disposition::WorkerStall,
                RejectReason::SolverPanic { .. } => Disposition::SolverPanic,
            },
        }
    }

    /// `true` when the request was shed by overload protection (ingress
    /// queue full or backpressure scaling) rather than priced out at
    /// baseline.
    pub fn is_shed(self) -> bool {
        matches!(self, Disposition::QueueFull | Disposition::Shed { .. })
    }
}

/// One request's outcome in the replay.
#[derive(Clone, Debug)]
pub struct RequestOutcome {
    /// The step the request fired at.
    pub step: usize,
    /// The request's arrival ordinal at the service; `None` for a re-plan,
    /// which never reaches a front door.
    pub ordinal: Option<u64>,
    /// The requesting tenant.
    pub tenant: usize,
    /// How it was answered.
    pub path: RequestPath,
    /// The answer's quality tier, or its reject reason.
    pub disposition: Disposition,
    /// The served objective value (`NaN` on the rejected path).
    pub value: f64,
    /// Certified admissible lower bound of a degraded answer (or the floor
    /// quoted with a rejection), when one was priced.
    pub lower_bound: Option<f64>,
    /// Wall-clock latency attributed to the request: its batch's serving
    /// time (shared across the batch) or its re-plan's solve time;
    /// `Duration::ZERO` on the event-loop door, which measures latency in
    /// [`latency_ticks`](Self::latency_ticks).
    pub latency: Duration,
    /// Plan churn of a re-plan (moved parent assignments); `None` off the
    /// replan path.
    pub churn: Option<usize>,
    /// Candidates evaluated by a re-plan's search (0 off the replan path).
    pub evaluated: usize,
    /// Ground-truth value from the shadow cold solve (verify mode, exact
    /// answers only).
    pub cold_value: Option<f64>,
    /// Candidates the shadow cold solve evaluated (verify mode).
    pub cold_evaluated: Option<usize>,
    /// `true` when the request is a copy injected by a scheduled ingress
    /// burst rather than a trace event.
    pub burst_extra: bool,
    /// Queueing + service latency in logical ticks on the event-loop door
    /// (`0` on the batch door and for re-plans).
    pub latency_ticks: u64,
}

/// Aggregate report of one trace replay.
#[derive(Debug)]
pub struct TraceReport {
    /// Per-request outcomes in timeline order: each step's re-plans (in
    /// trace order), then its requests by ordinal.
    pub outcomes: Vec<RequestOutcome>,
    /// Tenants in the trace.
    pub tenants: usize,
    /// Logical ticks the event loop ran (timeline + drain); `0` on the
    /// batch door.
    pub ticks: u64,
    /// Wall time of the replay minus its shadow solves: admissions,
    /// mutations, re-plans, submissions and answers, the drain included.
    pub serve_wall: Duration,
    /// The service's final counters, store included (re-plans are not
    /// service requests).
    pub stats: ServeStats,
    /// Plan-store entries holding a non-exhaustive plan at the end of the
    /// replay — the store-purity invariant says this is always `0`.
    pub store_non_exhaustive: usize,
}

impl TraceReport {
    /// Total requests answered (front-door answers + re-plans).
    pub fn requests(&self) -> usize {
        self.outcomes.len()
    }

    /// Requests served without any solve (store + dedup).
    pub fn served(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.path, RequestPath::Store | RequestPath::Dedup))
            .count()
    }

    /// Fraction of requests served from cache or dedup.
    pub fn served_ratio(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.served() as f64 / self.outcomes.len() as f64
    }

    /// Number of re-plan outcomes.
    pub fn replans(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.path == RequestPath::Replan)
            .count()
    }

    /// `(exact, degraded, rejected)` — the answer-quality mix.
    pub fn mix(&self) -> (usize, usize, usize) {
        self.outcomes
            .iter()
            .fold((0, 0, 0), |(e, d, r), o| match o.disposition {
                Disposition::Exact => (e + 1, d, r),
                Disposition::Degraded => (e, d + 1, r),
                _ => (e, d, r + 1),
            })
    }

    /// Requests shed by overload protection (queue-full + backpressure).
    pub fn sheds(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.disposition.is_shed())
            .count()
    }

    /// Fraction of the requests of steps `[from_step, to_step)` that were
    /// shed — the shed-rate curve overload contracts assert on (rises
    /// under a burst, returns to baseline after the drain).
    pub fn shed_rate_between(&self, from_step: usize, to_step: usize) -> f64 {
        let window = self
            .outcomes
            .iter()
            .filter(|o| (from_step..to_step).contains(&o.step));
        let (total, shed) = window.fold((0, 0), |(total, shed), o| {
            (total + 1, shed + usize::from(o.disposition.is_shed()))
        });
        if total == 0 {
            return 0.0;
        }
        shed as f64 / total as f64
    }

    /// The `p`-th percentile (0–100, nearest-rank) of per-request latency.
    pub fn latency_percentile(&self, p: f64) -> Duration {
        if self.outcomes.is_empty() {
            return Duration::ZERO;
        }
        let mut latencies: Vec<Duration> = self.outcomes.iter().map(|o| o.latency).collect();
        latencies.sort_unstable();
        let rank = ((p / 100.0) * (latencies.len() - 1) as f64).round() as usize;
        latencies[rank.min(latencies.len() - 1)]
    }

    /// The `p`-th percentile (0–100, nearest-rank) of per-request latency
    /// in logical ticks — deterministic, unlike wall latency.
    ///
    /// Read from a log₂-scale histogram of the outcomes, the same
    /// instrument the event loop records into a registry.  Tick latencies
    /// sit in the histogram's exact region (one bucket per value under
    /// 1024), where its quantiles equal a sorted-vector nearest-rank scan.
    pub fn latency_tick_percentile(&self, p: f64) -> u64 {
        let histogram = LogHistogram::new();
        for outcome in &self.outcomes {
            histogram.record(outcome.latency_ticks);
        }
        histogram.quantile(p)
    }

    /// Sum of plan churn over all re-plans.
    pub fn total_churn(&self) -> usize {
        self.outcomes.iter().filter_map(|o| o.churn).sum()
    }

    /// `(warm, cold)` evaluation totals over the re-plans that carry shadow
    /// counts (verify mode): the warm side must never exceed the cold side.
    pub fn replan_evaluations(&self) -> (usize, usize) {
        self.outcomes
            .iter()
            .filter(|o| o.path == RequestPath::Replan && o.cold_evaluated.is_some())
            .fold((0, 0), |(w, c), o| {
                (w + o.evaluated, c + o.cold_evaluated.unwrap_or(0))
            })
    }

    /// Requests whose served value differs (bitwise) from the shadow cold
    /// solve's value — must be `0` in verify mode (only `Exact` answers
    /// carry a ground truth; degraded and rejected ones promise none).
    pub fn value_mismatches(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| {
                o.cold_value
                    .is_some_and(|cold| cold.to_bits() != o.value.to_bits())
            })
            .count()
    }

    /// Serving throughput in requests per second.
    pub fn requests_per_second(&self) -> f64 {
        let secs = self.serve_wall.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        self.outcomes.len() as f64 / secs
    }

    /// A worker-count-independent digest of the replay for determinism
    /// tests: `(step, ordinal, tenant, path, disposition, value bits,
    /// churn, latency ticks)` per request.  Wall latencies and evaluation
    /// counts are excluded — parallel searches return identical *results*
    /// but different timings, and may probe more candidates against a
    /// staler incumbent.
    #[allow(clippy::type_complexity)] // a flat digest row, named by its doc
    pub fn digest(
        &self,
    ) -> Vec<(
        usize,
        Option<u64>,
        usize,
        RequestPath,
        Disposition,
        u64,
        Option<usize>,
        u64,
    )> {
        self.outcomes
            .iter()
            .map(|o| {
                (
                    o.step,
                    o.ordinal,
                    o.tenant,
                    o.path,
                    o.disposition,
                    o.value.to_bits(),
                    o.churn,
                    o.latency_ticks,
                )
            })
            .collect()
    }
}

/// A deterministic fault schedule for a replay: faults are keyed by the
/// **request ordinal** at the service (arrival order across the replay),
/// so the same plan replayed under any worker thread count injects the
/// same faults into the same requests.  A solver fault fires when its
/// request leads a cold solve; ordinals answered from the store,
/// deduplicated, or rejected before the pool leave their fault unused.
///
/// Beyond the service's [`InjectedFault`]s (panic, slowdown — a worker
/// stall when it outlasts the event loop's watchdog —, slow store shard,
/// deadline blowout), the plan carries **ingress bursts**: at the
/// scheduled ordinal the replay submits that many extra copies of the
/// request in the same step, on either front door, modelling an arrival
/// spike.  All of them stay keyed by ordinal, so replay digests remain
/// thread-count independent.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: HashMap<u64, InjectedFault>,
    bursts: HashMap<u64, usize>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a solver panic at request `ordinal`.
    pub fn panic_at(mut self, ordinal: u64) -> Self {
        self.faults.insert(ordinal, InjectedFault::Panic);
        self
    }

    /// Schedules an artificial `stall` before the solve at `ordinal`.  On
    /// the event-loop door a `stall` that comfortably exceeds the
    /// configured `stall_timeout` is timed out by the watchdog as a
    /// [`fsw_serve::RejectReason::WorkerStall`].
    pub fn slow_at(mut self, ordinal: u64, stall: Duration) -> Self {
        self.faults.insert(ordinal, InjectedFault::Slow(stall));
        self
    }

    /// Schedules a deadline blowout (the solve starts with its deadline
    /// already expired and degrades to the deterministic fallback) at
    /// `ordinal`.
    pub fn blowout_at(mut self, ordinal: u64) -> Self {
        self.faults.insert(ordinal, InjectedFault::DeadlineBlowout);
        self
    }

    /// Schedules a **slow store shard** at `ordinal`: the request's store
    /// lookup sleeps for `delay` first.  Wall-clock only — decisions and
    /// digests are unaffected.
    pub fn slow_shard_at(mut self, ordinal: u64, delay: Duration) -> Self {
        self.faults.insert(ordinal, InjectedFault::SlowShard(delay));
        self
    }

    /// Schedules an **ingress burst** at `ordinal`: when the replay driver
    /// submits that ordinal, it follows up with `extra` synthetic copies of
    /// the same tenant's request in the same step.
    pub fn burst_at(mut self, ordinal: u64, extra: usize) -> Self {
        self.bursts.insert(ordinal, extra);
        self
    }

    /// The fault scheduled at `ordinal`, if any.
    pub fn at(&self, ordinal: u64) -> Option<InjectedFault> {
        self.faults.get(&ordinal).copied()
    }

    /// The ingress burst scheduled at `ordinal`, if any.
    pub fn burst_of(&self, ordinal: u64) -> Option<usize> {
        self.bursts.get(&ordinal).copied()
    }

    /// `true` when no fault or burst is scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.bursts.is_empty()
    }

    /// Number of scheduled faults and bursts.
    pub fn len(&self) -> usize {
        self.faults.len() + self.bursts.len()
    }
}

/// Parameters of a trace replay.
#[derive(Clone, Debug)]
pub struct ServeReplayConfig {
    /// Budget of every solve (serving and re-planning); its `time_limit` is
    /// armed per request.
    pub budget: SearchBudget,
    /// Plan-store capacity.  Note that eviction weighs entries by measured
    /// wall time, so an over-subscribed store makes replays timing
    /// dependent; determinism tests size it above the fingerprint count.
    pub store_capacity: usize,
    /// Run a shadow cold solve per exactly-answered request (ground truth
    /// + node counts).
    pub verify: bool,
    /// The communication model every request plans for.
    pub model: CommModel,
    /// The objective every request optimises.
    pub objective: Objective,
    /// Faults and ingress bursts to inject, by request ordinal (empty =
    /// fault-free).
    pub faults: FaultPlan,
    /// Observability registry the service records into (counters, spans,
    /// latency histogram, tenant sketches, engine stages).  `None`
    /// replays without it — the overhead baseline, whose counters live in
    /// the service's private registry.
    pub metrics: Option<Arc<MetricsRegistry>>,
    /// The front door: `None` serves each step as one
    /// [`PlanService::serve_batch`]; `Some` submits every request to an
    /// [`AsyncFrontend`] with these knobs (workers, queue bounds, dispatch
    /// rate, hysteresis watermarks, deadlines, stall watchdog).
    pub frontend: Option<FrontendConfig>,
}

impl Default for ServeReplayConfig {
    fn default() -> Self {
        ServeReplayConfig {
            budget: SearchBudget::default(),
            store_capacity: 256,
            verify: false,
            model: CommModel::Overlap,
            objective: Objective::MinPeriod,
            faults: FaultPlan::new(),
            metrics: None,
            frontend: None,
        }
    }
}

/// Replays `trace` through a fresh [`PlanService`] (see the module docs).
/// Per step, admissions and mutations land first; then a dirty tenant's
/// request re-plans, and the other requests (with the burst copies
/// scheduled at their ordinals) go through the front door.  Rejected
/// requests are reported like any other outcome: the tenant keeps its
/// previous plan and no shadow solve runs.  A trace event for a tenant
/// outside `0..trace.tenants`, or before its admission, is an error.
pub fn replay_trace(trace: &ArrivalTrace, config: &ServeReplayConfig) -> CoreResult<TraceReport> {
    let mut service = PlanService::new(config.budget, config.store_capacity);
    if !config.faults.is_empty() {
        let faults = config.faults.clone();
        service = service.with_fault_injection(move |ordinal| faults.at(ordinal));
    }
    if let Some(registry) = &config.metrics {
        service = service.with_metrics(Arc::clone(registry));
    }
    let service = Arc::new(service);
    let mut frontend = config
        .frontend
        .map(|frontend| AsyncFrontend::new(Arc::clone(&service), frontend));
    let mut replay = Replay {
        config,
        service: &service,
        tenants: (0..trace.tenants).map(|_| None).collect(),
        rows: Vec::new(),
        submitted: Vec::new(),
        carried: Vec::new(),
        shadows: Shadows::default(),
    };
    let started = Instant::now();
    let mut requests: Vec<PlanRequest> = Vec::new();
    for events in trace.events.chunk_by(|a, b| a.step == b.step) {
        let step = events[0].step;
        // 1. Admissions and mutations of the step.
        for event in events {
            replay.apply(event)?;
        }
        // 2. The step's requests: a dirty tenant re-plans online, every
        // other request is submitted with the burst copies scheduled at
        // its ordinal.
        let first = replay.submitted.len() as u64;
        for event in events {
            if !matches!(event.kind, TraceEventKind::Request) {
                continue;
            }
            if tenant_mut(&mut replay.tenants, event.tenant)?.dirty {
                replay.replan(step, event.tenant)?;
                continue;
            }
            let ordinal = replay.submitted.len() as u64;
            for copy in 0..=config.faults.burst_of(ordinal).unwrap_or(0) {
                requests.push(replay.request(step, event.tenant, copy > 0)?);
            }
        }
        // Their rows follow the step's re-plans, in ordinal order.
        for submitted in &mut replay.submitted[first as usize..] {
            submitted.row = replay.rows.len();
            replay.rows.push(None);
        }
        // 3. The door answers: the batch door before the next step, the
        // event loop whatever resolves on this step's tick.
        match &mut frontend {
            None if !requests.is_empty() => {
                let started = Instant::now();
                let served = service.serve_batch(&requests)?;
                let latency = started.elapsed();
                requests.clear();
                for (ordinal, outcome) in (first..).zip(served) {
                    replay.answer(ordinal, outcome, latency, 0)?;
                }
            }
            None => {}
            Some(frontend) => {
                for (ordinal, request) in (first..).zip(requests.drain(..)) {
                    frontend.submit(replay.submitted[ordinal as usize].tenant, request)?;
                }
                for completion in frontend.tick() {
                    replay.resolve(completion)?;
                }
            }
        }
    }
    // 4. The event loop drains: every remaining ticket resolves.
    let mut ticks = 0;
    if let Some(frontend) = &mut frontend {
        for completion in frontend.drain() {
            replay.resolve(completion)?;
        }
        ticks = frontend.now();
    }
    let serve_wall = started.elapsed().saturating_sub(replay.shadows.wall);
    let outcomes: Vec<RequestOutcome> = replay
        .rows
        .into_iter()
        .map(|row| row.expect("the door answers every request"))
        .collect();
    debug_assert!(
        outcomes
            .iter()
            .filter_map(|o| o.ordinal)
            .eq(0..replay.submitted.len() as u64),
        "ordinal mirror out of sync with the service"
    );
    Ok(TraceReport {
        outcomes,
        tenants: trace.tenants,
        ticks,
        serve_wall,
        stats: service.stats(),
        store_non_exhaustive: service.store().non_exhaustive_len(),
    })
}

/// One admitted tenant: its planning session, and whether a mutation
/// landed since its last request (its next request then re-plans).
struct Tenant {
    session: TenantSession,
    dirty: bool,
}

/// What the driver keeps of a submitted request until it is answered.
#[derive(Clone, Copy)]
struct Submitted {
    /// Its row in [`Replay::rows`], assigned once the step's re-plans are in.
    row: usize,
    step: usize,
    tenant: usize,
    burst_extra: bool,
}

/// The state of one replay, shared by both front doors.
struct Replay<'a> {
    config: &'a ServeReplayConfig,
    service: &'a PlanService,
    tenants: Vec<Option<Tenant>>,
    /// The outcomes in `(step, ordinal)` order: each step's re-plans, then
    /// its submitted requests (`None` until the door answers).
    rows: Vec<Option<RequestOutcome>>,
    /// Indexed by ordinal: the fresh service hands ordinals out in
    /// submission order from 0, so the driver mirrors them without a
    /// round-trip.
    submitted: Vec<Submitted>,
    /// The application each request carried, by ordinal (verify mode
    /// only: on the event-loop door a mutation may land before the answer).
    carried: Vec<Application>,
    shadows: Shadows,
}

impl Replay<'_> {
    /// Applies one admission or mutation event (requests are no-ops here).
    fn apply(&mut self, event: &TraceEvent) -> CoreResult<()> {
        let mutation = match event.kind {
            TraceEventKind::Request => return Ok(()),
            TraceEventKind::Admit { ref services } => {
                let slot = self
                    .tenants
                    .get_mut(event.tenant)
                    .ok_or(CoreError::Unsupported {
                        reason: "trace event for a tenant outside the trace",
                    })?;
                let session = TenantSession::new(
                    Application::independent(services),
                    self.config.model,
                    self.config.objective,
                    self.config.budget,
                )?;
                *slot = Some(Tenant {
                    session,
                    dirty: false,
                });
                return Ok(());
            }
            TraceEventKind::Arrive { cost, selectivity } => {
                TenantEvent::Arrive { cost, selectivity }
            }
            TraceEventKind::Depart { service } => TenantEvent::Depart { service },
            TraceEventKind::Reweight {
                service,
                cost,
                selectivity,
            } => TenantEvent::Reweight {
                service,
                cost,
                selectivity,
            },
        };
        let tenant = tenant_mut(&mut self.tenants, event.tenant)?;
        tenant.session.apply(mutation)?;
        tenant.dirty = true;
        Ok(())
    }

    /// Re-plans a dirty tenant online and publishes the plan to the store.
    fn replan(&mut self, step: usize, tenant: usize) -> CoreResult<()> {
        let config = self.config;
        let entry = tenant_mut(&mut self.tenants, tenant)?;
        entry.dirty = false;
        let session = &mut entry.session;
        let started = Instant::now();
        let replan = session.replan()?;
        let latency = started.elapsed();
        // Sessions and service run under the same config budget, so the
        // budget-equality gate of `publish` accepts here (the
        // exhaustiveness gate still applies: an interrupted re-plan is
        // served to the tenant but never cached).
        self.service.publish(
            session.app(),
            config.model,
            config.objective,
            &config.budget,
            replan.value,
            &replan.graph,
            replan.exhaustive,
            latency.as_micros().min(u64::MAX as u128) as u64,
        );
        let shadow = if config.verify && replan.exhaustive {
            Some(self.shadows.solve(session.app(), config)?)
        } else {
            None
        };
        let (cold_value, cold_evaluated) = shadow.unzip();
        self.rows.push(Some(RequestOutcome {
            step,
            ordinal: None,
            tenant,
            path: RequestPath::Replan,
            disposition: if replan.exhaustive {
                Disposition::Exact
            } else {
                Disposition::Degraded
            },
            value: replan.value,
            lower_bound: None,
            latency,
            churn: Some(replan.churn),
            evaluated: replan.evaluated,
            cold_value,
            cold_evaluated,
            burst_extra: false,
            latency_ticks: 0,
        }));
        Ok(())
    }

    /// Books the next ordinal and builds its request from the tenant's
    /// current application.
    fn request(&mut self, step: usize, tenant: usize, extra: bool) -> CoreResult<PlanRequest> {
        let app = tenant_mut(&mut self.tenants, tenant)?.session.app().clone();
        if self.config.verify {
            self.carried.push(app.clone());
        }
        self.submitted.push(Submitted {
            row: usize::MAX,
            step,
            tenant,
            burst_extra: extra,
        });
        let config = self.config;
        Ok(PlanRequest::new(app, config.model, config.objective))
    }

    /// Records an event-loop completion.
    fn resolve(&mut self, done: Completion) -> CoreResult<()> {
        let ticks = done.completed_tick - done.submitted_tick;
        self.answer(done.ordinal, done.outcome, Duration::ZERO, ticks)
    }

    /// Turns the door's answer to request `ordinal` into its outcome: the
    /// tenant adopts a served plan that still fits its service set, and
    /// verify mode checks an exact answer against its shadow cold solve.
    fn answer(
        &mut self,
        ordinal: u64,
        outcome: ServeOutcome,
        latency: Duration,
        latency_ticks: u64,
    ) -> CoreResult<()> {
        let submitted = self.submitted[ordinal as usize];
        let disposition = Disposition::of(&outcome);
        let (path, value, lower_bound, plan) = match outcome {
            ServeOutcome::Exact(r) => (path_of(r.source), r.value, None, Some(r.graph)),
            ServeOutcome::Degraded {
                response: r,
                lower_bound: floor,
                ..
            } => (
                path_of(r.source),
                r.value,
                (floor > 0.0).then_some(floor),
                Some(r.graph),
            ),
            ServeOutcome::Rejected(rejection) => {
                let floor = rejection.estimate.and_then(|e| e.value_floor);
                (RequestPath::Rejected, f64::NAN, floor, None)
            }
        };
        if let Some(plan) = plan {
            let session = &mut tenant_mut(&mut self.tenants, submitted.tenant)?.session;
            // On the event-loop door a mutation may land between submission
            // and answer; a plan for the old service count is not adopted.
            if plan.n() == session.app().n() {
                session.adopt(plan)?;
            }
        }
        let shadow = if self.config.verify && disposition == Disposition::Exact {
            let app = &self.carried[ordinal as usize];
            Some(self.shadows.solve(app, self.config)?)
        } else {
            None
        };
        let (cold_value, cold_evaluated) = shadow.unzip();
        self.rows[submitted.row] = Some(RequestOutcome {
            step: submitted.step,
            ordinal: Some(ordinal),
            tenant: submitted.tenant,
            path,
            disposition,
            value,
            lower_bound,
            latency,
            churn: None,
            evaluated: 0,
            cold_value,
            cold_evaluated,
            burst_extra: submitted.burst_extra,
            latency_ticks,
        });
        Ok(())
    }
}

fn tenant_mut(tenants: &mut [Option<Tenant>], tenant: usize) -> CoreResult<&mut Tenant> {
    tenants
        .get_mut(tenant)
        .and_then(Option::as_mut)
        .ok_or(CoreError::Unsupported {
            reason: "trace event for a tenant that was never admitted",
        })
}

fn path_of(source: ServeSource) -> RequestPath {
    match source {
        ServeSource::Cold => RequestPath::Cold,
        ServeSource::Store => RequestPath::Store,
        ServeSource::Dedup => RequestPath::Dedup,
    }
}

/// From-scratch solves outside the serving path: the ground-truth value
/// and the number of candidates a cold search evaluates.  Memoised by the
/// exact service list (label order included — only an *identical*
/// application may share a shadow), so identical applications pay for
/// one shadow solve however many requests they issue.
#[derive(Default)]
struct Shadows {
    memo: HashMap<Vec<(u64, u64)>, (f64, usize)>,
    /// Wall time spent here, excluded from the serving wall.
    wall: Duration,
}

impl Shadows {
    fn solve(&mut self, app: &Application, config: &ServeReplayConfig) -> CoreResult<(f64, usize)> {
        let started = Instant::now();
        let key: Vec<(u64, u64)> = app
            .services()
            .iter()
            .map(|s| (s.cost.to_bits(), s.selectivity.to_bits()))
            .collect();
        let truth = match self.memo.get(&key) {
            Some(&truth) => truth,
            None => {
                let (solution, stats) = solve_warm_observed(
                    &Problem::new(app, config.model, config.objective),
                    &config.budget,
                    &EvalCache::new(app),
                    None,
                    None,
                )?;
                self.memo.insert(key, (solution.value, stats.evaluated));
                (solution.value, stats.evaluated)
            }
        };
        self.wall += started.elapsed();
        Ok(truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsw_workloads::streaming::{serving_trace, TraceConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_trace() -> ArrivalTrace {
        serving_trace(
            &TraceConfig {
                tenants: 6,
                steps: 8,
                templates: 2,
                services_per_tenant: 4,
                mutation_rate: 0.5,
                requests_per_step: 3,
                ..TraceConfig::default()
            },
            &mut StdRng::seed_from_u64(42),
        )
    }

    /// The event-loop door under `frontend`, everything else default.
    fn event_loop(frontend: FrontendConfig) -> ServeReplayConfig {
        ServeReplayConfig {
            frontend: Some(frontend),
            ..ServeReplayConfig::default()
        }
    }

    #[test]
    fn replay_serves_every_request_and_matches_ground_truth() {
        let trace = small_trace();
        let config = ServeReplayConfig {
            verify: true,
            ..ServeReplayConfig::default()
        };
        let report = replay_trace(&trace, &config).unwrap();
        assert_eq!(report.requests(), trace.request_count());
        assert_eq!(report.value_mismatches(), 0, "served != ground truth");
        assert!(report.served() > 0, "store/dedup never fired");
        let (exact, degraded, rejected) = report.mix();
        assert_eq!(exact, report.requests(), "fault-free small trace is exact");
        assert_eq!((degraded, rejected), (0, 0));
        assert_eq!(report.store_non_exhaustive, 0);
        let (warm, cold) = report.replan_evaluations();
        if report.replans() > 0 {
            assert!(warm <= cold, "warm re-plans evaluated more than cold");
        }
    }

    #[test]
    fn replay_is_deterministic_for_one_thread_count() {
        let trace = small_trace();
        let config = ServeReplayConfig::default();
        let a = replay_trace(&trace, &config).unwrap();
        let b = replay_trace(&trace, &config).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn injected_panics_reject_deterministically_and_keep_the_store_pure() {
        let trace = small_trace();
        // Panic the very first cold solve and blow the deadline of a later
        // one; the replay must complete with every request answered.
        let config = ServeReplayConfig {
            faults: FaultPlan::new().panic_at(0).blowout_at(7),
            ..ServeReplayConfig::default()
        };
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = replay_trace(&trace, &config).unwrap();
        let again = replay_trace(&trace, &config).unwrap();
        std::panic::set_hook(quiet);
        assert_eq!(report.requests(), trace.request_count(), "nothing hangs");
        let (_, _, rejected) = report.mix();
        assert!(rejected > 0, "the injected panic rejected its request");
        assert_eq!(report.stats.panics, 1);
        assert_eq!(report.store_non_exhaustive, 0, "store purity");
        assert_eq!(report.digest(), again.digest(), "faulted replays replay");
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let trace = small_trace();
        let report = replay_trace(&trace, &ServeReplayConfig::default()).unwrap();
        let p50 = report.latency_percentile(50.0);
        let p99 = report.latency_percentile(99.0);
        assert!(p50 <= p99);
        assert!(p99 > Duration::ZERO);
    }

    #[test]
    fn both_doors_serve_bit_identical_exact_values() {
        // The trace mutates half its steps, so both doors re-plan too.
        let trace = small_trace();
        let verified = |frontend| ServeReplayConfig {
            verify: true,
            frontend,
            ..ServeReplayConfig::default()
        };
        let batch = replay_trace(&trace, &verified(None)).unwrap();
        let looped = replay_trace(
            &trace,
            &verified(Some(FrontendConfig {
                workers: 2,
                ..FrontendConfig::default()
            })),
        )
        .unwrap();
        for report in [&batch, &looped] {
            assert_eq!(report.requests(), trace.request_count());
            assert_eq!(report.stats.submitted, report.stats.completed);
            assert_eq!(report.store_non_exhaustive, 0, "store purity");
            assert_eq!(report.mix(), (report.requests(), 0, 0), "all exact");
            assert!(report.replans() > 0, "mutations re-plan on either door");
            assert_eq!(report.value_mismatches(), 0, "served != ground truth");
        }
        let rows = |report: &TraceReport| -> Vec<(usize, usize, u64)> {
            report
                .outcomes
                .iter()
                .map(|o| (o.step, o.tenant, o.value.to_bits()))
                .collect()
        };
        assert_eq!(rows(&batch), rows(&looped), "the door changed a value");
    }

    #[test]
    fn digest_is_worker_count_independent_under_faults() {
        let trace = small_trace();
        // The first dispatched request is always a cold leader and carries
        // one of the first few ordinals (step 0 has at most three
        // requests), so stalling all of them guarantees the watchdog path
        // fires whatever the trace's dedup structure looks like.
        let faulted = |workers: usize| {
            let config = ServeReplayConfig {
                faults: FaultPlan::new()
                    .slow_at(0, Duration::from_millis(400))
                    .slow_at(1, Duration::from_millis(400))
                    .slow_at(2, Duration::from_millis(400))
                    .panic_at(9)
                    .slow_shard_at(5, Duration::from_millis(1))
                    .burst_at(7, 4),
                ..event_loop(FrontendConfig {
                    workers,
                    stall_timeout: Duration::from_millis(40),
                    ..FrontendConfig::default()
                })
            };
            replay_trace(&trace, &config).unwrap()
        };
        let base = faulted(1);
        assert!(base.stats.stalls > 0, "injected stall must fire");
        assert!(
            base.outcomes.iter().any(|o| o.burst_extra),
            "injected burst must fire"
        );
        for workers in [2, 4] {
            let other = faulted(workers);
            assert_eq!(base.digest(), other.digest(), "workers={workers}");
        }
    }

    #[test]
    fn bursts_overflow_the_bounded_queue_into_ingress_sheds() {
        let trace = small_trace();
        let faults = FaultPlan::new().burst_at(2, 32);
        let config = ServeReplayConfig {
            faults: faults.clone(),
            ..event_loop(FrontendConfig {
                workers: 2,
                queue_capacity: 4,
                dispatch_per_tick: 2,
                ..FrontendConfig::default()
            })
        };
        let report = replay_trace(&trace, &config).unwrap();
        assert_eq!(report.requests(), trace.request_count() + 32);
        assert!(report.stats.queue_full_sheds > 0, "burst must overflow");
        assert!(report.stats.peak_tenant_queue <= 4, "queue bound");
        assert_eq!(report.stats.submitted, report.stats.completed);
        // The batch door submits the same burst into one unbounded batch.
        let batch = replay_trace(
            &trace,
            &ServeReplayConfig {
                faults,
                ..ServeReplayConfig::default()
            },
        )
        .unwrap();
        assert_eq!(batch.requests(), trace.request_count() + 32);
        assert_eq!(batch.outcomes.iter().filter(|o| o.burst_extra).count(), 32);
        assert_eq!(batch.sheds(), 0, "the batch door never sheds");
    }

    #[test]
    fn malformed_traces_are_errors_on_both_doors() {
        let one_event = |tenant: usize, kind: TraceEventKind| ArrivalTrace {
            events: vec![TraceEvent {
                step: 0,
                tenant,
                kind,
            }],
            tenants: 1,
            steps: 1,
        };
        let traces = [
            // A tenant outside `0..tenants`, admitted or requesting.
            one_event(
                1,
                TraceEventKind::Admit {
                    services: vec![(1.0, 0.5); 3],
                },
            ),
            one_event(1, TraceEventKind::Request),
            // A request before the tenant's admission.
            one_event(0, TraceEventKind::Request),
        ];
        for trace in &traces {
            for frontend in [None, Some(FrontendConfig::default())] {
                let config = ServeReplayConfig {
                    frontend,
                    ..ServeReplayConfig::default()
                };
                assert!(
                    matches!(
                        replay_trace(trace, &config),
                        Err(CoreError::Unsupported { .. })
                    ),
                    "{:?} through {frontend:?}",
                    trace.events[0]
                );
            }
        }
    }
}
