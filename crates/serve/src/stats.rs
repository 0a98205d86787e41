//! The serving tier's counters and the typed view over them.
//!
//! Every serving event is counted **once**, in a registry counter owned by
//! the [`PlanService`](crate::PlanService): both front doors — the
//! synchronous [`serve_batch`](crate::PlanService::serve_batch) and the
//! [`AsyncFrontend`](crate::AsyncFrontend) — record through the same
//! handles, and [`ServeStats`] reads them back.  The handles are resolved
//! once, when the service is built, from the registry passed to
//! [`with_metrics`](crate::PlanService::with_metrics) or else from a private
//! registry; recording is one relaxed atomic per event.
//!
//! Spans, the logical-latency histogram and the per-tenant traffic sketches
//! are different: they read clocks or hash on every event, and each
//! histogram preallocates its buckets, so they exist only while a registry
//! is attached.

use std::sync::Arc;

use fsw_obs::{Counter, Gauge, LogHistogram, MetricsRegistry, SpanTimer, TrafficSketch};

use crate::store::StoreStats;

/// Rows of the per-tenant traffic sketches (`tenant.*`).
const TENANT_SKETCH_DEPTH: usize = 4;
/// Counters per row of the per-tenant traffic sketches.
const TENANT_SKETCH_WIDTH: usize = 64;

/// One serving event, counted in the registry counter of the same index
/// in [`EVENT_NAMES`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Event {
    Ingress,
    Completion,
    QueueFullShed,
    BackpressureShed,
    AdmissionReject,
    QuarantineReject,
    DeadlineCancel,
    DeadlineDegrade,
    DeadlineAdmit,
    StoreHit,
    DedupJoin,
    Dispatch,
    Degraded,
    Panic,
    Stall,
    Recovered,
    ShedRaise,
    ShedLower,
}

/// Registry name of each [`Event`], in declaration order.
const EVENT_NAMES: [&str; 18] = [
    "frontend.ingress",
    "frontend.completions",
    "frontend.queue_full_sheds",
    "frontend.backpressure_sheds",
    "frontend.admission_rejects",
    "frontend.quarantine_rejects",
    "frontend.deadline_cancels",
    "frontend.deadline_degrades",
    "frontend.deadline_admits",
    "frontend.store_hits",
    "frontend.dedup_joins",
    "frontend.dispatches",
    "frontend.degraded",
    "frontend.panics",
    "frontend.stalls",
    "frontend.recovered",
    "frontend.shed_raises",
    "frontend.shed_lowers",
];

/// The service's counter and gauge handles (see the module docs).
pub(crate) struct Counters {
    events: [Arc<Counter>; EVENT_NAMES.len()],
    /// `frontend.backlog` — queued requests at the end of each tick.
    pub(crate) backlog: Arc<Gauge>,
    /// `frontend.shed_level` — set whenever the shed level moves.
    pub(crate) shed_level: Arc<Gauge>,
    /// `frontend.tenant_queue` — a tenant's queue depth after each enqueue.
    pub(crate) tenant_queue: Arc<Gauge>,
}

impl Counters {
    /// The handles of `registry` (get-or-create).
    pub(crate) fn resolve(registry: &MetricsRegistry) -> Self {
        Counters {
            events: EVENT_NAMES.map(|name| registry.counter(name)),
            backlog: registry.gauge("frontend.backlog"),
            shed_level: registry.gauge("frontend.shed_level"),
            tenant_queue: registry.gauge("frontend.tenant_queue"),
        }
    }

    /// The handles of `registry`, carrying over what `self` counted so far
    /// (re-attachment moves the counts; nothing is counted twice).
    pub(crate) fn moved_to(&self, registry: &MetricsRegistry) -> Self {
        let moved = Counters::resolve(registry);
        for (to, from) in moved.events.iter().zip(&self.events) {
            to.add(from.get());
        }
        for (to, from) in [
            (&moved.backlog, &self.backlog),
            (&moved.shed_level, &self.shed_level),
            (&moved.tenant_queue, &self.tenant_queue),
        ] {
            to.set(from.peak());
            to.set(from.get());
        }
        moved
    }

    /// Counts one `event`.
    #[inline]
    pub(crate) fn inc(&self, event: Event) {
        self.events[event as usize].inc();
    }

    /// Counts one request arrival and returns its arrival ordinal (the
    /// fault-injection key): the ingress counter *is* the ordinal source.
    #[inline]
    pub(crate) fn next_ordinal(&self) -> u64 {
        self.events[Event::Ingress as usize].inc_ordinal()
    }

    fn get(&self, event: Event) -> usize {
        self.events[event as usize].get() as usize
    }

    /// The typed view, completed with the store counters and the
    /// quarantine occupancy.
    pub(crate) fn view(
        &self,
        store: StoreStats,
        quarantine_active: usize,
        quarantine_permanent: usize,
    ) -> ServeStats {
        ServeStats {
            submitted: self.get(Event::Ingress),
            completed: self.get(Event::Completion),
            queue_full_sheds: self.get(Event::QueueFullShed),
            backpressure_sheds: self.get(Event::BackpressureShed),
            admission_rejects: self.get(Event::AdmissionReject),
            quarantine_rejects: self.get(Event::QuarantineReject),
            deadline_cancels: self.get(Event::DeadlineCancel),
            deadline_degrades: self.get(Event::DeadlineDegrade),
            deadline_admits: self.get(Event::DeadlineAdmit),
            store_hits: self.get(Event::StoreHit),
            dedup_joins: self.get(Event::DedupJoin),
            dispatches: self.get(Event::Dispatch),
            degraded: self.get(Event::Degraded),
            panics: self.get(Event::Panic),
            stalls: self.get(Event::Stall),
            recovered: self.get(Event::Recovered),
            shed_raises: self.get(Event::ShedRaise),
            shed_lowers: self.get(Event::ShedLower),
            shed_level: self.shed_level.get() as u32,
            peak_shed_level: self.shed_level.peak() as u32,
            peak_backlog: self.backlog.peak() as usize,
            peak_tenant_queue: self.tenant_queue.peak() as usize,
            store,
            quarantine_active,
            quarantine_permanent,
        }
    }
}

/// The attach-only instruments of a serving loop, resolved once from the
/// attached registry.
#[derive(Clone)]
pub(crate) struct Instruments {
    pub(crate) registry: Arc<MetricsRegistry>,
    /// `frontend.tick` — one span per event-loop tick.
    pub(crate) tick: SpanTimer,
    /// `frontend.watchdog` — one span per blocking completion wait.
    pub(crate) watchdog: SpanTimer,
    /// `admission.decide` — exact call count, durations sampled
    /// 1-in-[`fsw_obs::span::SAMPLE_EVERY`].
    pub(crate) admission: SpanTimer,
    /// `serve.cold_solve` — one span per cold solve.
    pub(crate) cold_solve: SpanTimer,
    /// `frontend.latency_ticks` — logical completion latency
    /// (`completed_tick - submitted_tick`) of every resolved ticket.
    pub(crate) latency_ticks: Arc<LogHistogram>,
    /// `tenant.requests` — per-tenant submissions.
    pub(crate) tenant_requests: Arc<TrafficSketch>,
    /// `tenant.sheds` — per-tenant sheds (queue-full + backpressure).
    pub(crate) tenant_sheds: Arc<TrafficSketch>,
    /// `tenant.degrades` — per-tenant degraded responses.
    pub(crate) tenant_degrades: Arc<TrafficSketch>,
}

impl Instruments {
    /// The instruments of `registry` (get-or-create).
    pub(crate) fn resolve(registry: Arc<MetricsRegistry>) -> Self {
        let sketch = |name: &str| registry.sketch(name, TENANT_SKETCH_DEPTH, TENANT_SKETCH_WIDTH);
        Instruments {
            tick: registry.span("frontend.tick"),
            watchdog: registry.span("frontend.watchdog"),
            admission: registry.span("admission.decide"),
            cold_solve: registry.span("serve.cold_solve"),
            latency_ticks: registry.histogram("frontend.latency_ticks"),
            tenant_requests: sketch("tenant.requests"),
            tenant_sheds: sketch("tenant.sheds"),
            tenant_degrades: sketch("tenant.degrades"),
            registry,
        }
    }
}

/// One snapshot of the whole serving tier, read from the service's
/// counters: every field counts the events of **both** front doors.  Each
/// counter's registry name is `frontend.` plus the field name, except
/// `submitted` (`frontend.ingress`) and `completed`
/// (`frontend.completions`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests received, including those shed at ingress; also the next
    /// arrival ordinal.
    pub submitted: usize,
    /// Requests resolved.
    pub completed: usize,
    /// Requests shed at ingress because the tenant queue was full.
    pub queue_full_sheds: usize,
    /// Requests shed by adaptive backpressure: admitted at baseline,
    /// rejected at the tightened threshold.
    pub backpressure_sheds: usize,
    /// Requests rejected by the baseline admission policy.
    pub admission_rejects: usize,
    /// Requests rejected by the quarantine (backoff or permanent).
    pub quarantine_rejects: usize,
    /// Requests cancelled at dequeue because their deadline had expired.
    pub deadline_cancels: usize,
    /// Requests demoted to the degrade band because they were predicted to
    /// miss their deadline at full budget.
    pub deadline_degrades: usize,
    /// Requests priced into the degrade band (solved under its deadline).
    pub deadline_admits: usize,
    /// Requests answered from the plan store.
    pub store_hits: usize,
    /// Requests that joined an in-flight solve of their key.
    pub dedup_joins: usize,
    /// Cold solves dispatched to the worker pool.
    pub dispatches: usize,
    /// Degraded responses served (leaders and joiners).
    pub degraded: usize,
    /// Solver panics caught, one per failed solve.
    pub panics: usize,
    /// Solves timed out by the stall watchdog.
    pub stalls: usize,
    /// Quarantined fingerprints that completed a retry successfully.
    pub recovered: usize,
    /// Ticks on which the backpressure controller raised the shed level.
    pub shed_raises: usize,
    /// Ticks on which the controller lowered the shed level.
    pub shed_lowers: usize,
    /// Current shed level (`frontend.shed_level` gauge).
    pub shed_level: u32,
    /// Highest shed level reached (its peak).
    pub peak_shed_level: u32,
    /// Largest backlog at a tick end (`frontend.backlog` peak).
    pub peak_backlog: usize,
    /// Largest single-tenant queue depth, at most the configured capacity
    /// (`frontend.tenant_queue` peak).
    pub peak_tenant_queue: usize,
    /// Plan-store counters (`store.*`) and current size.
    pub store: StoreStats,
    /// Fingerprints currently quarantined, in backoff or permanent.
    pub quarantine_active: usize,
    /// Fingerprints whose quarantine is permanent (failure budget spent).
    pub quarantine_permanent: usize,
}
