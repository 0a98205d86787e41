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
//! * **one serving pipeline** ([`frontend`]) — a deterministic event loop
//!   that answers from the store where possible, deduplicates in flight
//!   (one solve per distinct key), prices every request before solving it
//!   ([`admission`]), and drains the remaining cold solves onto a worker
//!   pool, each under its own
//!   [`SearchBudget`](fsw_sched::orchestrator::SearchBudget) deadline.  It
//!   has two front doors: the blocking
//!   [`PlanService::serve_batch`](service::PlanService::serve_batch), which
//!   submits a whole batch and drains it, and the non-blocking
//!   [`AsyncFrontend`], which hands out [`Ticket`]s from bounded per-tenant
//!   queues under adaptive backpressure;
//! * **online re-planning** ([`online::TenantSession`]) — a tenant's
//!   service set evolves (arrivals, departures, weight changes) and the
//!   session re-plans *incrementally*: the previous plan is adapted to the
//!   mutated instance, its value seeds the search incumbent
//!   ([`fsw_sched::orchestrator::solve_warm_observed`]), and a
//!   **plan-churn** metric reports how many parent assignments moved, so
//!   stability is measurable.
//!
//! Responses are a three-way [`ServeOutcome`] (`Exact` / `Degraded` /
//! `Rejected`), solver panics are caught and quarantined instead of
//! poisoning the queue, a deterministic fault hook
//! ([`PlanService::with_fault_injection`](service::PlanService::with_fault_injection))
//! makes all of it testable under replay, and every serving event is
//! counted once, in the service's counters ([`ServeStats`]).  All
//! decisions happen on the loop thread in logical ticks, so replays are
//! deterministic across worker counts.  The request lifecycle, on either
//! door:
//!
//! ```text
//!   submit(tenant, request) ──► ticket         (never blocks; serve_batch
//!        │ bounded tenant queue ──full──► Rejected{QueueFull}   submits all)
//!        ▼ dequeue (round-robin, ≤ dispatch_per_tick per tick)
//!   deadline check ──expired──► Rejected{DeadlineExpired}
//!        ▼ canonicalise + fingerprint          fsw_core::CanonicalApplication
//!   dedup join ──key in flight──► rides that solve (Dedup)
//!        ▼
//!   plan store ──hit──► relabel ──► Exact (same tick)
//!        ▼ miss
//!   quarantine ──backoff/permanent──► Rejected{Quarantined}
//!        ▼ clear
//!   admission @ thresholds >> shed_level       O(shapes), backlog feedback
//!        │   ├─over reject_cost──► Rejected{AdmissionCost, estimate}
//!        │   └─over scaled reject──► Rejected{Shed{level}, estimate}
//!        ▼ admit / degrade band / predicted deadline miss
//!   dispatch ──► worker pool ── catch_unwind ──► completion (due-tick order)
//!        ┌────────────────────────────────────────────┘
//!        ├─ exhaustive ──► store insert ──► Exact (leader Cold, joiners Dedup)
//!        ├─ interrupted ─► Degraded{lower_bound, gap}   (never cached)
//!        ├─ panic ───────► quarantine ──► Rejected{SolverPanic}
//!        └─ heartbeat timeout ──► quarantine ──► Rejected{WorkerStall}
//!                       (joiners get the leader's outcome — no hangs)
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
pub mod stats;
pub mod store;

pub use admission::{AdmissionDecision, AdmissionPolicy, CostEstimate};
pub use frontend::{AsyncFrontend, Completion, FrontendConfig, Ticket};
pub use online::{ReplanOutcome, TenantEvent, TenantSession};
pub use service::{
    permutation_collapse_allowed, InjectedFault, PlanRequest, PlanResponse, PlanService,
    RejectReason, Rejection, ServeOutcome, ServeSource,
};
pub use stats::ServeStats;
pub use store::{HeldPlan, PlanKey, PlanRecord, PlanStore, StoreStats, StoredPlan};
