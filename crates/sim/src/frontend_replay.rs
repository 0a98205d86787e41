//! Replay of a serving trace through the **async front end**.
//!
//! The event-loop twin of [`crate::replay_trace`]: the same
//! [`fsw_workloads::streaming::ArrivalTrace`] timeline, but every request
//! goes through [`AsyncFrontend::submit`] — callers get a ticket from a
//! bounded per-tenant ingress queue, the loop dequeues under adaptive
//! backpressure (live backlog feeding the admission thresholds), deadlines
//! cancel at dequeue, and stalled workers are timed out into the
//! quarantine.  One trace step is one logical tick; the driver drains the
//! loop after the timeline ends, so **every ticket resolves** to a
//! [`fsw_serve::ServeOutcome`] — the first overload contract of experiment
//! E16.
//!
//! Tenant state is tracked as plain service lists mutated with the exact
//! semantics of [`fsw_serve::TenantEvent`] (arrivals append, departures
//! shift later ids down, reweights are in place) — the async path serves
//! fresh plans per request and never adopts, so no [`TenantSession`]
//! warm-start machinery is needed.
//!
//! Faults come from the same ordinal-keyed [`FaultPlan`] as the sync
//! replay, through the service's fault hook (a slowdown outlasting the
//! watchdog is a worker stall), and **ingress bursts** are realised by
//! the replay itself — at the scheduled ordinal it submits that many extra
//! copies of the tenant's request in the same step.  All decisions land
//! on the loop thread in logical ticks, so the [`FrontendReport::digest`]
//! is identical whatever the worker count.
//!
//! [`TenantSession`]: fsw_serve::TenantSession

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fsw_core::{Application, CommModel, CoreError, CoreResult};
use fsw_obs::{LogHistogram, MetricsRegistry};
use fsw_sched::orchestrator::{Objective, SearchBudget};
use fsw_serve::{AsyncFrontend, Completion, FrontendConfig, PlanRequest, PlanService, ServeStats};
use fsw_workloads::streaming::{ArrivalTrace, TraceEventKind};

use crate::serve_replay::{Disposition, FaultPlan};

/// One resolved ticket in the async replay.
#[derive(Clone, Debug)]
pub struct AsyncRequestOutcome {
    /// The request ordinal at the service (submission order).
    pub ordinal: u64,
    /// The submitting tenant.
    pub tenant: usize,
    /// The logical tick the request was submitted at.
    pub submitted_tick: u64,
    /// The logical tick its completion event fired at.
    pub completed_tick: u64,
    /// `true` when this request was injected by a scheduled ingress burst
    /// rather than the trace timeline.
    pub burst_extra: bool,
    /// How the ticket resolved.
    pub disposition: Disposition,
    /// The served objective value (`NaN` on the rejected paths).
    pub value: f64,
}

impl AsyncRequestOutcome {
    /// Queueing + service latency in logical ticks.
    pub fn latency_ticks(&self) -> u64 {
        self.completed_tick - self.submitted_tick
    }

    /// `true` when the request got no plan (any rejected disposition).
    pub fn is_rejected(&self) -> bool {
        !self.disposition.is_answered()
    }

    /// `true` when the request was shed by overload protection (ingress
    /// queue full or backpressure scaling) rather than priced out at
    /// baseline.
    pub fn is_shed(&self) -> bool {
        self.disposition.is_shed()
    }
}

/// Aggregate report of one async trace replay.
#[derive(Debug)]
pub struct FrontendReport {
    /// Per-ticket outcomes in ordinal (submission) order.
    pub outcomes: Vec<AsyncRequestOutcome>,
    /// Tenants in the trace.
    pub tenants: usize,
    /// Logical ticks the loop ran (timeline + drain).
    pub ticks: u64,
    /// Wall time of the whole replay (submissions + ticks + drain).
    pub serve_wall: Duration,
    /// The owning service's final counters (store and quarantine
    /// included).
    pub stats: ServeStats,
    /// Plan-store entries holding a non-exhaustive plan at the end — the
    /// store-purity invariant says this is always `0`.
    pub store_non_exhaustive: usize,
    /// Per-ticket logical-tick latency as a log₂-scale histogram.  With a
    /// registry attached ([`FrontendReplayConfig::metrics`]) this is the
    /// registry's own `frontend.latency_ticks` instrument; otherwise a
    /// private histogram built from the outcomes.  Either way it is a pure
    /// function of the logical timeline, so quantiles are deterministic
    /// and worker-count independent.
    pub latency_ticks: Arc<LogHistogram>,
}

impl FrontendReport {
    /// Tickets resolved.
    pub fn requests(&self) -> usize {
        self.outcomes.len()
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

    /// Tickets shed by overload protection (queue-full + backpressure).
    pub fn sheds(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_shed()).count()
    }

    /// Fraction of tickets *submitted* in `[from_tick, to_tick)` that were
    /// shed — the shed-rate curve overload contracts assert on (rises
    /// under a burst, returns to baseline after the drain).
    pub fn shed_rate_between(&self, from_tick: u64, to_tick: u64) -> f64 {
        let window: Vec<&AsyncRequestOutcome> = self
            .outcomes
            .iter()
            .filter(|o| o.submitted_tick >= from_tick && o.submitted_tick < to_tick)
            .collect();
        if window.is_empty() {
            return 0.0;
        }
        window.iter().filter(|o| o.is_shed()).count() as f64 / window.len() as f64
    }

    /// The `p`-th percentile (0–100, nearest-rank) of per-ticket latency
    /// in logical ticks — deterministic, unlike wall latency.
    ///
    /// Answered from the [`latency_ticks`](Self::latency_ticks) histogram
    /// in constant memory.  Tick latencies sit far below the histogram's
    /// exact region (one bucket per value under 1024), so the answer is
    /// **identical** to the sorted-vector nearest-rank scan this replaces —
    /// the E16 percentile rows are byte-for-byte unchanged.
    pub fn latency_tick_percentile(&self, p: f64) -> u64 {
        self.latency_ticks.quantile(p)
    }

    /// A worker-count-independent digest: `(ordinal, tenant, disposition,
    /// value bits, latency ticks)` per ticket.  Every field is decided on
    /// the loop thread in logical time, so the digest is a pure function
    /// of the submission sequence.
    pub fn digest(&self) -> Vec<(u64, usize, Disposition, u64, u64)> {
        self.outcomes
            .iter()
            .map(|o| {
                (
                    o.ordinal,
                    o.tenant,
                    o.disposition,
                    o.value.to_bits(),
                    o.latency_ticks(),
                )
            })
            .collect()
    }
}

/// Parameters of an async trace replay.
#[derive(Clone, Debug)]
pub struct FrontendReplayConfig {
    /// Budget of every solve; its `time_limit` is armed per request.
    pub budget: SearchBudget,
    /// Plan-store capacity (see [`crate::ServeReplayConfig`] on sizing).
    pub store_capacity: usize,
    /// The communication model every request plans for.
    pub model: CommModel,
    /// The objective every request optimises.
    pub objective: Objective,
    /// The front end's knobs: workers, queue bounds, dispatch rate,
    /// hysteresis watermarks, deadlines, stall watchdog.
    pub frontend: FrontendConfig,
    /// Faults to inject, by request ordinal (empty = fault-free).
    pub faults: FaultPlan,
    /// Observability registry to thread through the whole request path
    /// (counters, spans, latency histogram, tenant sketches, engine
    /// stages).  `None` replays without it — the overhead baseline, whose
    /// counters live in the service's private registry.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl Default for FrontendReplayConfig {
    fn default() -> Self {
        FrontendReplayConfig {
            budget: SearchBudget::default(),
            store_capacity: 256,
            model: CommModel::Overlap,
            objective: Objective::MinPeriod,
            frontend: FrontendConfig::default(),
            faults: FaultPlan::new(),
            metrics: None,
        }
    }
}

/// Replays `trace` through a fresh [`PlanService`] behind an
/// [`AsyncFrontend`] (see the module docs).  One trace step is one
/// logical tick: the step's mutations land first, its requests are
/// submitted (plus any scheduled burst extras), then the loop ticks once;
/// after the timeline the loop drains, so the report covers every ticket.
pub fn replay_trace_async(
    trace: &ArrivalTrace,
    config: &FrontendReplayConfig,
) -> CoreResult<FrontendReport> {
    let mut service = PlanService::new(config.budget, config.store_capacity);
    if !config.faults.is_empty() {
        let faults = config.faults.clone();
        service = service.with_fault_injection(move |ordinal| faults.at(ordinal));
    }
    if let Some(registry) = &config.metrics {
        service = service.with_metrics(Arc::clone(registry));
    }
    let service = Arc::new(service);
    let mut frontend = AsyncFrontend::new(Arc::clone(&service), config.frontend);
    // Tenant service lists under `TenantEvent` mutation semantics: arrivals
    // append, departures shift later ids down, reweights are in place.
    let mut specs: Vec<Option<Vec<(f64, f64)>>> = vec![None; trace.tenants];
    // Ordinal mirror: the fresh service hands out ordinals in submission
    // order starting at 0, so the driver can key bursts without a
    // round-trip (asserted against the completion stream below).
    let mut next_ordinal: u64 = 0;
    let mut burst_tickets: HashSet<u64> = HashSet::new();
    let mut outcomes: Vec<AsyncRequestOutcome> = Vec::new();
    let started = Instant::now();
    let mut record = |completion: Completion, burst_tickets: &HashSet<u64>| {
        outcomes.push(AsyncRequestOutcome {
            ordinal: completion.ordinal,
            tenant: completion.tenant,
            submitted_tick: completion.submitted_tick,
            completed_tick: completion.completed_tick,
            burst_extra: burst_tickets.contains(&completion.ordinal),
            disposition: Disposition::of(&completion.outcome),
            value: completion
                .outcome
                .response()
                .map_or(f64::NAN, |response| response.value),
        });
    };
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
            let slot = specs.get_mut(event.tenant).ok_or(CoreError::Unsupported {
                reason: "trace event for a tenant out of range",
            })?;
            match &event.kind {
                TraceEventKind::Admit { services } => *slot = Some(services.clone()),
                TraceEventKind::Request => {}
                kind => {
                    let list = slot.as_mut().ok_or(CoreError::Unsupported {
                        reason: "trace event for a tenant that was never admitted",
                    })?;
                    match kind {
                        TraceEventKind::Arrive { cost, selectivity } => {
                            list.push((*cost, *selectivity));
                        }
                        TraceEventKind::Depart { service: departed } => {
                            if *departed >= list.len() {
                                return Err(CoreError::InvalidService {
                                    id: *departed,
                                    n: list.len(),
                                });
                            }
                            list.remove(*departed);
                        }
                        TraceEventKind::Reweight {
                            service: target,
                            cost,
                            selectivity,
                        } => {
                            let n = list.len();
                            let entry = list
                                .get_mut(*target)
                                .ok_or(CoreError::InvalidService { id: *target, n })?;
                            *entry = (*cost, *selectivity);
                        }
                        _ => unreachable!("admit and request handled above"),
                    }
                }
            }
        }
        // 2. The step's requests, plus scheduled burst extras.
        for event in events {
            if !matches!(event.kind, TraceEventKind::Request) {
                continue;
            }
            let tenant = event.tenant;
            let list = specs[tenant].as_ref().ok_or(CoreError::Unsupported {
                reason: "request from a tenant that was never admitted",
            })?;
            let request = PlanRequest::new(
                Application::independent(list),
                config.model,
                config.objective,
            );
            frontend.submit(tenant, request)?;
            let ordinal = next_ordinal;
            next_ordinal += 1;
            if let Some(extra) = config.faults.burst_of(ordinal) {
                for _ in 0..extra {
                    let clone = PlanRequest::new(
                        Application::independent(list),
                        config.model,
                        config.objective,
                    );
                    frontend.submit(tenant, clone)?;
                    burst_tickets.insert(next_ordinal);
                    next_ordinal += 1;
                }
            }
        }
        // 3. One logical tick per step.
        for completion in frontend.tick() {
            record(completion, &burst_tickets);
        }
    }
    // 4. Drain: every remaining ticket resolves.
    for completion in frontend.drain() {
        record(completion, &burst_tickets);
    }
    let serve_wall = started.elapsed();
    outcomes.sort_by_key(|o| o.ordinal);
    debug_assert!(
        outcomes
            .iter()
            .enumerate()
            .all(|(at, o)| o.ordinal == at as u64),
        "ordinal mirror out of sync with the service"
    );
    // The latency histogram: the registry's live instrument when one is
    // attached (the front end recorded every completion into it); a
    // private rebuild from the outcomes otherwise.  Both record the same
    // logical values, so quantiles are identical either way.
    let latency_ticks = match &config.metrics {
        Some(registry) => registry.histogram("frontend.latency_ticks"),
        None => {
            let histogram = LogHistogram::new();
            for outcome in &outcomes {
                histogram.record(outcome.latency_ticks());
            }
            Arc::new(histogram)
        }
    };
    Ok(FrontendReport {
        tenants: trace.tenants,
        ticks: frontend.now(),
        serve_wall,
        stats: frontend.stats(),
        store_non_exhaustive: service.store().non_exhaustive_len(),
        outcomes,
        latency_ticks,
    })
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

    fn config_with_workers(workers: usize) -> FrontendReplayConfig {
        FrontendReplayConfig {
            frontend: FrontendConfig {
                workers,
                ..FrontendConfig::default()
            },
            ..FrontendReplayConfig::default()
        }
    }

    #[test]
    fn every_ticket_resolves_and_values_match_sync_replay() {
        let trace = small_trace();
        let report = replay_trace_async(&trace, &config_with_workers(2)).unwrap();
        assert_eq!(report.requests(), trace.request_count());
        assert_eq!(report.stats.submitted, report.stats.completed);
        assert_eq!(report.store_non_exhaustive, 0, "store purity");
        let (exact, degraded, rejected) = report.mix();
        assert_eq!(exact, report.requests());
        assert_eq!((degraded, rejected), (0, 0));
        // Exact async answers are bit-identical to the sync replay's
        // answers for the same tenant at the same step... modulo replans:
        // the async path re-solves fresh, so just pin the global contract
        // that exact values are real (the frontend unit tests pin
        // bit-equality against `serve_batch` directly).
        assert!(report.outcomes.iter().all(|o| o.value.is_finite()));
    }

    #[test]
    fn digest_is_worker_count_independent_under_faults() {
        let trace = small_trace();
        // The first dispatched request is always a cold leader and carries
        // one of the first few ordinals (step 0 has at most three
        // requests), so stalling all of them guarantees the watchdog path
        // fires whatever the trace's dedup structure looks like.
        let faulted = |workers: usize| {
            let mut config = config_with_workers(workers);
            config.frontend.stall_timeout = Duration::from_millis(40);
            config.faults = FaultPlan::new()
                .slow_at(0, Duration::from_millis(400))
                .slow_at(1, Duration::from_millis(400))
                .slow_at(2, Duration::from_millis(400))
                .panic_at(9)
                .slow_shard_at(5, Duration::from_millis(1))
                .burst_at(7, 4);
            replay_trace_async(&trace, &config).unwrap()
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
        let mut config = config_with_workers(2);
        config.frontend.queue_capacity = 4;
        config.frontend.dispatch_per_tick = 2;
        config.faults = FaultPlan::new().burst_at(2, 32);
        let report = replay_trace_async(&trace, &config).unwrap();
        assert_eq!(report.requests(), trace.request_count() + 32);
        assert!(report.stats.queue_full_sheds > 0, "burst must overflow");
        assert!(report.stats.peak_tenant_queue <= 4, "queue bound");
        assert_eq!(report.stats.submitted, report.stats.completed);
    }
}
