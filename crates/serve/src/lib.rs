//! # fsw-serve — the multi-tenant planning service
//!
//! The serving layer above `fsw_sched::orchestrator`: a fleet of tenant
//! applications sends planning requests, and most of them are the same
//! problem wearing different labels.  This crate turns that observation into
//! throughput with four pieces:
//!
//! * **fingerprinting** — every request is keyed by its
//!   [`fsw_core::AppFingerprint`] plus model and objective (the canonical
//!   weight multiset and constraint set, see [`store::PlanKey`]): tenants
//!   identical after canonicalisation share one solve;
//! * **a plan store** ([`store::PlanStore`]) — fingerprint-keyed cached
//!   plans with *cost-aware eviction*: entries are weighed by the wall time
//!   their solve cost, so a 0.2 s exhaustive result outlives a crowd of
//!   millisecond tree solves;
//! * **a batched request queue** ([`service::PlanService`]) — a batch is
//!   canonicalised, answered from the store where possible, deduplicated
//!   in flight (one solve per distinct fingerprint per batch) and the
//!   remaining cold solves drain onto the `fsw_sched::par` thread pool,
//!   each under its own [`SearchBudget`](fsw_sched::orchestrator::SearchBudget)
//!   deadline;
//! * **online re-planning** ([`online::TenantSession`]) — a tenant's
//!   service set evolves (arrivals, departures, weight changes) and the
//!   session re-plans *incrementally*: the previous plan is adapted to the
//!   mutated instance, its value seeds the search incumbent
//!   ([`fsw_sched::orchestrator::solve_warm`]), and a **plan-churn** metric
//!   reports how many parent assignments moved, so stability is measurable.
//!
//! Since the hardening pass, the service also **prices every request
//! before solving it** ([`admission`]): an O(shapes) structural cost
//! estimate decides Admit / AdmitWithDeadline / Reject before any
//! enumeration starts, responses are a three-way [`ServeOutcome`]
//! (`Exact` / `Degraded` / `Rejected`), solver panics are caught and
//! quarantined instead of poisoning the queue, and a deterministic fault hook
//! ([`PlanService::with_fault_injection`](service::PlanService::with_fault_injection))
//! makes all of it testable under replay.
//!
//! Since the async pass, an optional **event-loop front end**
//! ([`frontend::AsyncFrontend`]) sits above `serve_batch`: callers get a
//! [`Ticket`] from a bounded per-tenant ingress queue instead of blocking
//! on a batch, the live backlog feeds back into the admission thresholds
//! (adaptive load shedding with hysteresis),
//! deadlines propagate to dequeue-time cancellation, and worker
//! heartbeats time out stalled solves into the quarantine — all decisions
//! on one loop thread in logical ticks, so replays are deterministic
//! across worker counts.  The async request lifecycle:
//!
//! ```text
//!   submit(tenant, request) ──► ticket        (never blocks)
//!        │ bounded tenant queue ──full──► Rejected{QueueFull}
//!        ▼ dequeue (round-robin, ≤ dispatch_per_tick per tick)
//!   deadline check ──expired──► Rejected{DeadlineExpired}
//!        ▼
//!   store hit ──► Exact (same tick)
//!        ▼ miss
//!   quarantine ──► Rejected{Quarantined}
//!        ▼ clear
//!   admission @ thresholds >> shed_level      (backlog feedback)
//!        │        └─over scaled reject──► Rejected{Shed{level}}
//!        ▼ admit / degrade-band / predicted-deadline-miss
//!   dispatch ──► worker pool ──► completion event (due-tick order)
//!        │                           │ heartbeat timeout
//!        ▼                           ▼
//!   Exact / Degraded            Rejected{WorkerStall} ─► quarantine
//! ```
//!
//! The request lifecycle, end to end:
//!
//! ```text
//!   request (app, model, objective)
//!        │ canonicalise                  fsw_core::CanonicalApplication
//!        ▼
//!   fingerprint ──► plan store ──hit──────► relabel ──► Exact
//!        │ miss                                ▲
//!        ▼                                     │
//!   quarantine gate ──backoff/permanent──► Rejected
//!        │ clear                               │
//!        ▼                                     │
//!   admission pricing (O(shapes))              │
//!        │    │            └─over reject_cost► Rejected{estimate}
//!        │    └─degrade band: arm deadline     │
//!        ▼                                     │
//!   in-flight dedup (one leader per key)       │
//!        │ leaders                             │
//!        ▼                                     │
//!   par::Exec pool ── catch_unwind ┬─ exhaustive ─► store insert ─► Exact
//!     (solve_with_cache)           ├─ interrupted ─► Degraded{floor, gap}
//!                                  └─ panic ─► quarantine ─► Rejected
//!                                              (followers woken with the
//!                                               leader's error — no hangs)
//! ```
//!
//! Every served **`Exact`** value is bit-identical to a cold solve of the
//! tenant's own application: the permutation collapse only engages on
//! solve paths that are provably label-invariant (see
//! [`service::permutation_collapse_allowed`]), warm-started re-plans
//! return the same winner as cold ones by the strict-clearance pruning
//! contract, and the plan store never holds a non-exhaustive entry (store
//! writes and [`PlanService::publish`](service::PlanService::publish) are
//! both gated on exhaustiveness).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod frontend;
pub mod online;
pub mod service;
pub mod store;

pub use admission::{AdmissionDecision, AdmissionPolicy, CostEstimate};
pub use frontend::{
    AsyncFrontend, Completion, FrontendConfig, FrontendFault, FrontendStats, Ticket,
};
pub use online::{ReplanOutcome, TenantEvent, TenantSession};
pub use service::{
    permutation_collapse_allowed, solve_all, InjectedFault, PlanRequest, PlanResponse, PlanService,
    RejectReason, Rejection, ServeOutcome, ServeSource, ServeStats, ServiceStats,
};
pub use store::{PlanKey, PlanStore, StoreStats, StoredPlan};
