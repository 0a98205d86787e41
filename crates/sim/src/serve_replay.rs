//! Replay of a serving trace through the multi-tenant planning service.
//!
//! The analytic twin of the op-list replay: where [`crate::replay_oplist`]
//! executes one *schedule* against the resource rules, this harness
//! executes a whole *serving timeline*
//! ([`fsw_workloads::streaming::ArrivalTrace`]) against the `fsw_serve`
//! stack — tenants are admitted into [`TenantSession`]s, request batches
//! flow through a [`PlanService`] (admission control + fingerprint store +
//! in-flight dedup + worker pool), and service-set mutations trigger
//! warm-started online re-plans whose results are published back into the
//! store.
//!
//! With [`ServeReplayConfig::verify`] on, every **exactly answered** request
//! additionally runs a **shadow cold solve** of the tenant's current
//! application outside the serving path: the report then carries, per
//! request, the ground-truth value (served `Exact` values must match it
//! bit-for-bit) and the cold evaluation count (warm re-plans must not
//! evaluate more).  Shadow solves are memoised by the tenant's exact
//! service list — a 100 000-request trace over a handful of templates costs
//! a handful of shadow solves — and are excluded from the serving wall
//! time.
//!
//! With a non-empty [`FaultPlan`], the replay drives the service's
//! deterministic fault hook: solver panics, artificial slowdowns and
//! deadline blowouts are injected by **request ordinal** (arrival order at
//! the service), so a faulted replay takes the same admit/degrade/reject
//! path whatever the worker thread count — the foundation of the
//! robustness digests asserted in tests and the E15 overload experiment.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use fsw_core::{Application, CommModel, CoreError, CoreResult};
use fsw_sched::engine::EvalCache;
use fsw_sched::orchestrator::{solve_warm_observed, Objective, Problem, SearchBudget};
use fsw_serve::{
    InjectedFault, PlanRequest, PlanService, RejectReason, ServeOutcome, ServeSource, ServeStats,
    TenantSession,
};
use fsw_workloads::streaming::{ArrivalTrace, TraceEventKind};

/// How a request was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestPath {
    /// Cold solve (the leader of its fingerprint in its batch).
    Cold,
    /// Served from the plan store.
    Store,
    /// Deduplicated in flight against a same-batch leader.
    Dedup,
    /// Warm-started online re-plan after a service-set mutation.
    Replan,
    /// No plan served: rejected by admission, quarantine, or a caught
    /// solver panic.
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

    /// `true` when the request got a plan (exact or degraded).
    pub fn is_answered(self) -> bool {
        matches!(self, Disposition::Exact | Disposition::Degraded)
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
    /// The requesting tenant.
    pub tenant: usize,
    /// How it was answered.
    pub path: RequestPath,
    /// The answer's quality tier, or its reject reason.
    pub disposition: Disposition,
    /// The served objective value (`NaN` on the rejected path).
    pub value: f64,
    /// Whether the underlying solve was exhaustive.
    pub exhaustive: bool,
    /// Certified admissible lower bound of a degraded answer (or the floor
    /// quoted with a rejection), when one was priced.
    pub lower_bound: Option<f64>,
    /// Wall-clock latency attributed to the request: its batch's serving
    /// time (shared across the batch) or its re-plan's solve time.
    pub latency: Duration,
    /// Plan churn of a re-plan (moved parent assignments); `None` off the
    /// replan path.
    pub churn: Option<usize>,
    /// The warm-start seed of a re-plan.
    pub warm_value: Option<f64>,
    /// Candidates evaluated by a re-plan's search (0 off the replan path).
    pub evaluated: usize,
    /// Ground-truth value from the shadow cold solve (verify mode, exact
    /// answers only).
    pub cold_value: Option<f64>,
    /// Candidates the shadow cold solve evaluated (verify mode).
    pub cold_evaluated: Option<usize>,
}

/// Aggregate report of one trace replay.
#[derive(Debug)]
pub struct TraceReport {
    /// Per-request outcomes, in timeline order.
    pub outcomes: Vec<RequestOutcome>,
    /// Tenants admitted.
    pub tenants: usize,
    /// Wall time spent *serving* (batches + re-plans; shadow solves and
    /// bookkeeping excluded).
    pub serve_wall: Duration,
    /// The service's final counters, store included (replans are not
    /// service requests).
    pub stats: ServeStats,
    /// Plan-store entries holding a non-exhaustive plan at the end of the
    /// replay — the store-purity invariant says this is always `0`.
    pub store_non_exhaustive: usize,
}

impl TraceReport {
    /// Total requests answered (serving paths + re-plans).
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

    /// A thread-count-independent digest of the replay for determinism
    /// tests: `(step, tenant, path, disposition, value bits, churn)` per
    /// request.  Latencies and evaluation counts are excluded — parallel
    /// searches return identical *results* but different timings, and may
    /// probe more candidates against a staler incumbent.
    #[allow(clippy::type_complexity)] // a flat digest row, named by its doc
    pub fn digest(&self) -> Vec<(usize, usize, RequestPath, Disposition, u64, Option<usize>)> {
        self.outcomes
            .iter()
            .map(|o| {
                (
                    o.step,
                    o.tenant,
                    o.path,
                    o.disposition,
                    o.value.to_bits(),
                    o.churn,
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
/// stall when it outlasts the front end's watchdog —, slow store shard,
/// deadline blowout), the plan carries **ingress bursts**: at the
/// scheduled ordinal the async replay injects that many extra
/// synthetic requests, modelling an arrival spike.  All of them stay keyed
/// by ordinal, so replay digests remain thread-count independent.
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
    /// the async front end a `stall` that comfortably exceeds the
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
    /// Faults to inject, by request ordinal (empty = fault-free).
    pub faults: FaultPlan,
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
        }
    }
}

/// Replays `trace` through a fresh [`PlanService`] (see the module docs).
/// Events of one step form one service batch; mutations precede the step's
/// requests.  Returns the per-request outcomes and aggregate counters.
///
/// Rejected requests (admission, quarantine, injected panics) are reported
/// like any other outcome — the tenant keeps its previous plan, nothing is
/// adopted and no shadow solve runs.
pub fn replay_trace(trace: &ArrivalTrace, config: &ServeReplayConfig) -> CoreResult<TraceReport> {
    let mut service = PlanService::new(config.budget, config.store_capacity);
    if !config.faults.is_empty() {
        let faults = config.faults.clone();
        service = service.with_fault_injection(move |ordinal| faults.at(ordinal));
    }
    let service = service;
    let mut sessions: Vec<Option<TenantSession>> = (0..trace.tenants).map(|_| None).collect();
    // A tenant is dirty between a mutation and its next request: that
    // request re-plans online instead of going through the batch.
    let mut dirty = vec![false; trace.tenants];
    // Shadow ground truths memoised by the tenant's exact service list (in
    // label order — only an *identical* application may share a shadow).
    let mut shadow_memo: HashMap<Vec<(u64, u64)>, (f64, usize)> = HashMap::new();
    let mut outcomes = Vec::new();
    let mut serve_wall = Duration::ZERO;
    let mut at = 0;
    while at < trace.events.len() {
        let step = trace.events[at].step;
        let mut end = at;
        while end < trace.events.len() && trace.events[end].step == step {
            end += 1;
        }
        let events = &trace.events[at..end];
        at = end;
        // 1. Admissions and mutations of the step.
        for event in events {
            match &event.kind {
                TraceEventKind::Admit { services } => {
                    let app = Application::independent(services);
                    sessions[event.tenant] = Some(TenantSession::new(
                        app,
                        config.model,
                        config.objective,
                        config.budget,
                    )?);
                }
                TraceEventKind::Arrive { cost, selectivity } => {
                    session_mut(&mut sessions, event.tenant)?.apply(
                        fsw_serve::TenantEvent::Arrive {
                            cost: *cost,
                            selectivity: *selectivity,
                        },
                    )?;
                    dirty[event.tenant] = true;
                }
                TraceEventKind::Depart { service: departed } => {
                    session_mut(&mut sessions, event.tenant)?
                        .apply(fsw_serve::TenantEvent::Depart { service: *departed })?;
                    dirty[event.tenant] = true;
                }
                TraceEventKind::Reweight {
                    service: target,
                    cost,
                    selectivity,
                } => {
                    session_mut(&mut sessions, event.tenant)?.apply(
                        fsw_serve::TenantEvent::Reweight {
                            service: *target,
                            cost: *cost,
                            selectivity: *selectivity,
                        },
                    )?;
                    dirty[event.tenant] = true;
                }
                TraceEventKind::Request => {}
            }
        }
        // 2. The step's requests: dirty tenants re-plan online (and publish
        // the result), the rest form one service batch.
        let mut batch_tenants: Vec<usize> = Vec::new();
        for event in events {
            if !matches!(event.kind, TraceEventKind::Request) {
                continue;
            }
            let tenant = event.tenant;
            if dirty[tenant] {
                dirty[tenant] = false;
                let session = session_mut(&mut sessions, tenant)?;
                let started = Instant::now();
                let replan = session.replan()?;
                let elapsed = started.elapsed();
                serve_wall += elapsed;
                // Sessions and service run under the same config budget, so
                // the budget-equality gate of `publish` accepts here (the
                // exhaustiveness gate still applies: an interrupted re-plan
                // is served to the tenant but never cached).
                service.publish(
                    session.app(),
                    config.model,
                    config.objective,
                    &config.budget,
                    replan.value,
                    &replan.graph,
                    replan.exhaustive,
                    elapsed.as_micros().min(u64::MAX as u128) as u64,
                );
                let (cold_value, cold_evaluated) = if config.verify && replan.exhaustive {
                    let (value, evaluated) = shadow_cold_solve(
                        &mut shadow_memo,
                        session.app(),
                        config.model,
                        config.objective,
                        &config.budget,
                    )?;
                    (Some(value), Some(evaluated))
                } else {
                    (None, None)
                };
                outcomes.push(RequestOutcome {
                    step,
                    tenant,
                    path: RequestPath::Replan,
                    disposition: if replan.exhaustive {
                        Disposition::Exact
                    } else {
                        Disposition::Degraded
                    },
                    value: replan.value,
                    exhaustive: replan.exhaustive,
                    lower_bound: None,
                    latency: elapsed,
                    churn: Some(replan.churn),
                    warm_value: replan.warm_value,
                    evaluated: replan.evaluated,
                    cold_value,
                    cold_evaluated,
                });
            } else {
                batch_tenants.push(tenant);
            }
        }
        if !batch_tenants.is_empty() {
            let requests: Vec<PlanRequest> = batch_tenants
                .iter()
                .map(|&tenant| {
                    let session = sessions[tenant].as_ref().expect("admitted before request");
                    PlanRequest::new(session.app().clone(), config.model, config.objective)
                })
                .collect();
            let started = Instant::now();
            let served = service.serve_batch(&requests)?;
            let batch_elapsed = started.elapsed();
            serve_wall += batch_elapsed;
            for (&tenant, served_outcome) in batch_tenants.iter().zip(served) {
                let outcome = match served_outcome {
                    ServeOutcome::Rejected(ref rejection) => RequestOutcome {
                        step,
                        tenant,
                        path: RequestPath::Rejected,
                        disposition: Disposition::of(&served_outcome),
                        value: f64::NAN,
                        exhaustive: false,
                        lower_bound: rejection.estimate.and_then(|e| e.value_floor),
                        latency: batch_elapsed,
                        churn: None,
                        warm_value: None,
                        evaluated: 0,
                        cold_value: None,
                        cold_evaluated: None,
                    },
                    ServeOutcome::Exact(response) => {
                        let session = session_mut(&mut sessions, tenant)?;
                        session.adopt(response.graph.clone())?;
                        let (cold_value, cold_evaluated) = if config.verify {
                            let (value, evaluated) = shadow_cold_solve(
                                &mut shadow_memo,
                                session.app(),
                                config.model,
                                config.objective,
                                &config.budget,
                            )?;
                            (Some(value), Some(evaluated))
                        } else {
                            (None, None)
                        };
                        RequestOutcome {
                            step,
                            tenant,
                            path: path_of(response.source),
                            disposition: Disposition::Exact,
                            value: response.value,
                            exhaustive: true,
                            lower_bound: None,
                            latency: batch_elapsed,
                            churn: None,
                            warm_value: None,
                            evaluated: 0,
                            cold_value,
                            cold_evaluated,
                        }
                    }
                    ServeOutcome::Degraded {
                        response,
                        lower_bound,
                        ..
                    } => {
                        let session = session_mut(&mut sessions, tenant)?;
                        session.adopt(response.graph.clone())?;
                        RequestOutcome {
                            step,
                            tenant,
                            path: path_of(response.source),
                            disposition: Disposition::Degraded,
                            value: response.value,
                            exhaustive: false,
                            lower_bound: (lower_bound > 0.0).then_some(lower_bound),
                            latency: batch_elapsed,
                            churn: None,
                            warm_value: None,
                            evaluated: 0,
                            cold_value: None,
                            cold_evaluated: None,
                        }
                    }
                };
                outcomes.push(outcome);
            }
        }
    }
    Ok(TraceReport {
        outcomes,
        tenants: trace.tenants,
        serve_wall,
        stats: service.stats(),
        store_non_exhaustive: service.store().non_exhaustive_len(),
    })
}

fn path_of(source: ServeSource) -> RequestPath {
    match source {
        ServeSource::Cold => RequestPath::Cold,
        ServeSource::Store => RequestPath::Store,
        ServeSource::Dedup => RequestPath::Dedup,
    }
}

fn session_mut(
    sessions: &mut [Option<TenantSession>],
    tenant: usize,
) -> CoreResult<&mut TenantSession> {
    sessions
        .get_mut(tenant)
        .and_then(|s| s.as_mut())
        .ok_or(CoreError::Unsupported {
            reason: "trace event for a tenant that was never admitted",
        })
}

/// A from-scratch solve of `app` outside the serving path: the ground-truth
/// value and the number of candidates a cold search evaluates.  Memoised by
/// the exact service list (label order included), so identical applications
/// pay for one shadow solve however many requests they issue.
fn shadow_cold_solve(
    memo: &mut HashMap<Vec<(u64, u64)>, (f64, usize)>,
    app: &Application,
    model: CommModel,
    objective: Objective,
    budget: &SearchBudget,
) -> CoreResult<(f64, usize)> {
    let key: Vec<(u64, u64)> = app
        .services()
        .iter()
        .map(|s| (s.cost.to_bits(), s.selectivity.to_bits()))
        .collect();
    if let Some(&cached) = memo.get(&key) {
        return Ok(cached);
    }
    let cache = EvalCache::new(app);
    let (solution, stats) = solve_warm_observed(
        &Problem::new(app, model, objective),
        budget,
        &cache,
        None,
        None,
    )?;
    memo.insert(key, (solution.value, stats.evaluated));
    Ok((solution.value, stats.evaluated))
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
}
