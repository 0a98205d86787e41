//! The serving event loop: the one decision pipeline behind both front
//! doors, plus [`AsyncFrontend`], its non-blocking door.
//!
//! The loop is a deterministic event-driven runtime over bounded
//! per-tenant ingress queues (no async executor — the container is offline
//! and the loop is deterministic by construction, the same
//! replay-equals-live shape as event-driven backtesting engines):
//!
//! * **bounded ingress** — [`submit`](AsyncFrontend::submit) never blocks:
//!   it enqueues into the tenant's bounded queue and returns a [`Ticket`];
//!   a full queue sheds the request *at ingress*
//!   ([`RejectReason::QueueFull`]) so queue memory stays under the
//!   configured bound whatever the arrival rate.  Ingress holds one entry
//!   per queued request, in one map keyed by tenant and ticket id (ticket
//!   ids only grow, so a tenant's queue is its key range), and one count
//!   per tenant with a backlog; an idle tenant holds nothing, however
//!   often it has burst.  A shed is counted and resolved at `submit`, but
//!   its [`Completion`] waits as part of a run (one tenant, consecutive
//!   ticket ids and ordinals, one tick), so a burst holds a few words per
//!   run until the next tick expands the runs, in submission order, ahead
//!   of that tick's own completions into one batch of exactly their
//!   size;
//! * **logical time** — the loop advances in ticks
//!   ([`tick`](AsyncFrontend::tick)).  Each tick applies due completion
//!   events in dispatch order, then dequeues up to
//!   [`dispatch_per_tick`](FrontendConfig::dispatch_per_tick) requests
//!   round-robin across tenants, then updates the shed level.  Every
//!   decision (admission, shedding, deadlines, dedup, store/quarantine
//!   bookkeeping) happens on the loop thread in logical time, so outcomes
//!   are **identical across worker-thread counts** — only wall latency
//!   varies;
//! * **one decision order** — each dequeued request passes the deadline
//!   check, the dedup join, the store, the quarantine, admission at the
//!   current shed level, the predicted-deadline degrade and dispatch, in
//!   that order (the crate docs draw it);
//! * **adaptive backpressure** — the backlog (queued requests) feeds back
//!   into the [`AdmissionPolicy`](crate::admission::AdmissionPolicy)
//!   thresholds: each shed level halves the admit/reject costs, levels
//!   move one step per tick between the
//!   [`backlog_high`](FrontendConfig::backlog_high)/
//!   [`backlog_low`](FrontendConfig::backlog_low) watermarks
//!   (hysteresis — no flapping), and a request shed *only because* of the
//!   tightened threshold reports [`RejectReason::Shed`] with the level
//!   that shed it;
//! * **deadline propagation** — a request may carry a deadline in ticks;
//!   one that has already expired when dequeued is cancelled
//!   ([`RejectReason::DeadlineExpired`]) before any lookup, and one
//!   *predicted* to miss (dequeue tick + modelled solve latency past the
//!   deadline) is degraded — solved under the admission policy's degrade
//!   deadline rather than at full budget;
//! * **stall detection** — workers heartbeat by recording when they pick a
//!   job up; the loop's completion wait times a started solve out after
//!   [`stall_timeout`](FrontendConfig::stall_timeout), hands the
//!   fingerprint to the panic quarantine, resolves the ticket (and its
//!   dedup joiners) as [`RejectReason::WorkerStall`], spawns a replacement
//!   worker, and the abandoned solve's late result is discarded — a wedged
//!   solve costs one worker, never the fleet.
//!
//! [`PlanService::serve_batch`] runs the same loop with fixed settings —
//! one tenant, an unbounded queue, everything dequeued on the first tick,
//! shed level 0, no deadlines, no watchdog — and waits for it to drain.
//! The shared state — plan store, quarantine, retained evaluation caches,
//! counters, request ordinals — is the owning [`PlanService`]'s.
//! Completion events are applied in dispatch order (due ticks are monotone
//! in dispatch order), which makes store and quarantine contents a pure
//! function of the submission sequence: the fault-replay digests in
//! `fsw_sim` assert byte-equality across 1/2/4 workers on exactly this
//! property.

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::ops::Bound;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fsw_core::{CommModel, CoreResult};
use fsw_obs::MetricsRegistry;
use fsw_sched::engine::EvalCache;
use fsw_sched::orchestrator::{Objective, SearchBudget};

use crate::admission::{AdmissionDecision, CostEstimate};
use crate::service::{
    cold_solve, panic_message, InjectedFault, PlanRequest, PlanResponse, PlanService, Prepared,
    RejectReason, Rejection, ServeOutcome, ServeSource,
};
use crate::stats::{Event, Instruments, ServeStats};
use crate::store::{HeldPlan, PlanKey};

/// Hard cap on the modelled solve latency, in ticks (keeps due ticks from
/// running away on jumbo estimates; the cap is the degrade band anyway).
const MAX_LATENCY_TICKS: u64 = 8;
/// Replacement workers the pool may spawn over its lifetime when stalls
/// consume the original ones.
const MAX_REPLACEMENT_WORKERS: usize = 16;

/// Tuning of one [`AsyncFrontend`] (all thresholds in logical units; see
/// the module docs for how each feeds the loop).
#[derive(Clone, Copy, Debug)]
pub struct FrontendConfig {
    /// Worker threads solving dispatched requests (wall parallelism only —
    /// outcomes are identical for any value ≥ 1).
    pub workers: usize,
    /// Bound on each tenant's ingress queue; arrivals beyond it are shed
    /// at ingress with [`RejectReason::QueueFull`].
    pub queue_capacity: usize,
    /// Requests dequeued (round-robin across tenants) per tick; 0 counts
    /// as 1, or the loop would never drain.
    pub dispatch_per_tick: usize,
    /// Backlog at or above which the shed level rises (one step per tick).
    pub backlog_high: usize,
    /// Backlog at or below which the shed level falls (one step per tick).
    pub backlog_low: usize,
    /// Ceiling on the shed level (each level halves the admission
    /// thresholds).
    pub max_shed_level: u32,
    /// Structural cost per logical tick — the latency model dividing an
    /// admission estimate into a scheduled completion tick.
    pub cost_per_tick: u128,
    /// Default deadline (in ticks from submission) stamped on every
    /// request; `None` leaves requests deadline-free unless
    /// [`submit_with_deadline`](AsyncFrontend::submit_with_deadline) is
    /// used.
    pub deadline_ticks: Option<u64>,
    /// Wall-clock watchdog: a solve still running this long after a worker
    /// picked it up is declared stalled (`Duration::MAX`: never).
    pub stall_timeout: Duration,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            workers: 1,
            queue_capacity: 64,
            dispatch_per_tick: 8,
            backlog_high: 48,
            backlog_low: 16,
            max_shed_level: 8,
            cost_per_tick: 1 << 18,
            deadline_ticks: None,
            stall_timeout: Duration::from_secs(2),
        }
    }
}

/// A claim on one submitted request; resolves to exactly one
/// [`Completion`] from [`AsyncFrontend::tick`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// The ticket's id (issue order within its front end).
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// One resolved ticket: the completion event the loop emits.
#[derive(Clone, Debug)]
pub struct Completion {
    /// The ticket being resolved.
    pub ticket: Ticket,
    /// The tenant that submitted it.
    pub tenant: usize,
    /// The request's lifetime arrival ordinal at the owning service (the
    /// fault-injection key, shared by both front doors).
    pub ordinal: u64,
    /// Tick at which the request was submitted.
    pub submitted_tick: u64,
    /// Tick at which the ticket resolved (logical latency =
    /// `completed_tick - submitted_tick`).
    pub completed_tick: u64,
    /// The outcome, same three-way contract on both front doors.
    pub outcome: ServeOutcome,
}

/// A request's identity while it waits: everything needed to resolve it.
/// `'r` lets the batch door borrow its caller's requests.
struct TicketInfo<'r> {
    ticket: Ticket,
    tenant: usize,
    ordinal: u64,
    submitted_tick: u64,
    deadline_tick: Option<u64>,
    request: Cow<'r, PlanRequest>,
}

/// A queued request: its [`TicketInfo`] less the ticket and the tenant,
/// which its `queued` key holds.
struct Queued<'r> {
    ordinal: u64,
    submitted_tick: u64,
    deadline_tick: Option<u64>,
    request: Cow<'r, PlanRequest>,
}

impl<'r> Queued<'r> {
    fn into_info(self, ticket: Ticket, tenant: usize) -> TicketInfo<'r> {
        TicketInfo {
            ticket,
            tenant,
            ordinal: self.ordinal,
            submitted_tick: self.submitted_tick,
            deadline_tick: self.deadline_tick,
            request: self.request,
        }
    }
}

/// Consecutive queue-full sheds of one tenant at one tick: `count`
/// tickets from `ticket` on, with ordinals from `ordinal` on, each
/// resolved as [`RejectReason::QueueFull`] at `tick`.
struct ShedRun {
    tenant: usize,
    ticket: u64,
    ordinal: u64,
    tick: u64,
    count: u64,
}

impl ShedRun {
    /// Whether the shed of `ticket` (ordinal `ordinal`) by `tenant` at
    /// `tick` is this run's next one.
    fn continued_by(&self, tenant: usize, ticket: u64, ordinal: u64, tick: u64) -> bool {
        self.tenant == tenant
            && self.ticket + self.count == ticket
            && self.ordinal + self.count == ordinal
            && self.tick == tick
    }

    /// The run's completions, in submission order.
    fn completions(self) -> impl Iterator<Item = Completion> {
        (0..self.count).map(move |k| Completion {
            ticket: Ticket(self.ticket + k),
            tenant: self.tenant,
            ordinal: self.ordinal + k,
            submitted_tick: self.tick,
            completed_tick: self.tick,
            outcome: ServeOutcome::Rejected(Rejection {
                reason: RejectReason::QueueFull,
                estimate: None,
            }),
        })
    }
}

/// A dequeued request, canonicalised and keyed.
struct Decided<'r> {
    info: TicketInfo<'r>,
    prep: Arc<Prepared>,
}

/// One dispatched solve the loop is waiting on.
struct PendingJob<'r> {
    job: u64,
    due_tick: u64,
    /// Admissible floor priced at admission (degrade band), if any.
    floor: Option<f64>,
    /// The retained evaluation cache the solve runs against, settled when
    /// it completes ([`PlanService::settle_cache`]); `None` for a solve
    /// that reads none: MINPERIOD, or MINLATENCY above the DAG phase's
    /// size.
    cache: Option<Arc<EvalCache>>,
    leader: Decided<'r>,
    joiners: Vec<Decided<'r>>,
}

/// A unit of work handed to the pool.
struct WorkItem {
    job: u64,
    ordinal: u64,
    prep: Arc<Prepared>,
    model: CommModel,
    budget: SearchBudget,
    cache: Option<Arc<EvalCache>>,
    fault: Option<InjectedFault>,
    instruments: Option<Instruments>,
}

impl WorkItem {
    /// The job runner: applies the injected fault, then solves cold under
    /// `catch_unwind`, so a panicking solve becomes an `Err` outcome
    /// instead of taking the worker down.  An injected panic unwinds
    /// without calling the panic hook, so no backtrace capture can stretch
    /// it past the stall watchdog.
    fn run(&self) -> Result<HeldPlan, String> {
        catch_unwind(AssertUnwindSafe(|| {
            match self.fault {
                Some(InjectedFault::Panic) => std::panic::resume_unwind(Box::new(format!(
                    "injected solver panic (request ordinal {})",
                    self.ordinal
                ))),
                Some(InjectedFault::Slow(stall)) => std::thread::sleep(stall),
                _ => {}
            }
            cold_solve(
                &self.prep,
                self.model,
                &self.budget,
                self.cache.as_deref(),
                self.instruments.as_ref(),
            )
        }))
        .map_err(panic_message)
    }
}

/// State shared between the loop and the workers.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    ready: Condvar,
}

struct PoolQueue {
    items: VecDeque<WorkItem>,
    /// Heartbeats: when each in-flight job was picked up.
    started: HashMap<u64, Instant>,
    /// Finished solves awaiting the loop.
    results: HashMap<u64, Result<HeldPlan, String>>,
    shutdown: bool,
}

/// The worker pool behind the loop (std threads; the loop is the only
/// consumer of results, so ordering lives entirely on its side).  Workers
/// are spawned on demand, one per dispatch up to `workers`, so a loop that
/// never dispatches never spawns a thread.
struct WorkerPool {
    workers: usize,
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    replacements: usize,
}

impl WorkerPool {
    fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
            shared: Arc::new(PoolShared {
                queue: Mutex::new(PoolQueue {
                    items: VecDeque::new(),
                    started: HashMap::new(),
                    results: HashMap::new(),
                    shutdown: false,
                }),
                ready: Condvar::new(),
            }),
            handles: Vec::new(),
            replacements: 0,
        }
    }

    fn spawn_worker(&mut self) {
        let shared = Arc::clone(&self.shared);
        self.handles.push(std::thread::spawn(move || loop {
            let item = {
                let mut queue = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
                loop {
                    if queue.shutdown {
                        return;
                    }
                    if let Some(item) = queue.items.pop_front() {
                        queue.started.insert(item.job, Instant::now());
                        break item;
                    }
                    queue = shared.ready.wait(queue).unwrap_or_else(|p| p.into_inner());
                }
            };
            let result = item.run();
            let job = item.job;
            // Release the solve's cache handle before the loop can see the
            // result: the loop settles the cache by who still holds it.
            drop(item);
            let mut queue = shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            queue.started.remove(&job);
            queue.results.insert(job, result);
            shared.ready.notify_all();
        }));
    }

    fn submit(&mut self, item: WorkItem) {
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            queue.items.push_back(item);
        }
        self.shared.ready.notify_all();
        if self.handles.len() < self.workers + self.replacements {
            self.spawn_worker();
        }
    }

    /// Blocks until `job` finishes or its heartbeat exceeds
    /// `stall_timeout`; `Err(())` declares a stall.  Due ticks are
    /// monotone in dispatch order, so every earlier job has already been
    /// applied when this is called — a job that has not started yet is
    /// about to be picked up by a free worker, never blocked behind
    /// unhandled work.
    fn wait(&mut self, job: u64, stall_timeout: Duration) -> Result<Result<HeldPlan, String>, ()> {
        let mut queue = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(result) = queue.results.remove(&job) {
                return Ok(result);
            }
            let wait_for = match queue.started.get(&job) {
                Some(started) => {
                    let elapsed = started.elapsed();
                    if elapsed >= stall_timeout {
                        drop(queue);
                        // The worker is wedged: restore pool capacity so
                        // queued jobs keep flowing (the abandoned worker
                        // rejoins whenever its solve finally returns).
                        if self.replacements < MAX_REPLACEMENT_WORKERS {
                            self.replacements += 1;
                            self.spawn_worker();
                        }
                        return Err(());
                    }
                    stall_timeout - elapsed
                }
                None => stall_timeout,
            };
            let (guard, _) = self
                .shared
                .ready
                .wait_timeout(queue, wait_for)
                .unwrap_or_else(|p| p.into_inner());
            queue = guard;
        }
    }

    /// Forgets a late result of an abandoned (stalled) job, if present.
    fn discard(&self, job: u64) -> bool {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .results
            .remove(&job)
            .is_some()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            queue.shutdown = true;
            queue.items.clear();
        }
        self.shared.ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The event loop's own state: queues, in-flight jobs, the shed level and
/// the worker pool.  It holds no service — every step borrows the owning
/// [`PlanService`], so the batch door can run a loop on `&self`.
pub(crate) struct EventLoop<'r> {
    config: FrontendConfig,
    instruments: Option<Instruments>,
    tick: u64,
    next_ticket: u64,
    next_job: u64,
    last_due: u64,
    shed_level: u32,
    /// Tickets issued and not yet resolved.
    outstanding: usize,
    /// Queued requests keyed by `(tenant, ticket id)`: ticket ids only
    /// grow, so each tenant's FIFO queue is its key range, and key order is
    /// the round-robin order over tenant ids.
    queued: BTreeMap<(usize, u64), Queued<'r>>,
    /// Queued requests per tenant, for tenants with at least one.
    tenant_backlog: BTreeMap<usize, usize>,
    /// Round-robin position: the next dequeue starts *after* this tenant.
    rr_after: Option<usize>,
    /// Dispatched jobs in dispatch order (due ticks are monotone, so the
    /// front is always the next completion to apply).
    pending: VecDeque<PendingJob<'r>>,
    /// Job id currently in flight per key (dedup joins attach here).
    in_flight: HashMap<PlanKey, u64>,
    /// Jobs abandoned by the stall watchdog whose late results must be
    /// discarded when they eventually surface.
    abandoned: HashSet<u64>,
    /// Queue-full sheds since the last tick, as runs in submission order.
    sheds: Vec<ShedRun>,
    /// Completions the current tick has produced (empty between ticks).
    ready: Vec<Completion>,
    pool: WorkerPool,
}

impl<'r> EventLoop<'r> {
    pub(crate) fn new(config: FrontendConfig, instruments: Option<Instruments>) -> Self {
        EventLoop {
            pool: WorkerPool::new(config.workers),
            config: FrontendConfig {
                dispatch_per_tick: config.dispatch_per_tick.max(1),
                ..config
            },
            instruments,
            tick: 0,
            next_ticket: 0,
            next_job: 0,
            last_due: 0,
            shed_level: 0,
            outstanding: 0,
            queued: BTreeMap::new(),
            tenant_backlog: BTreeMap::new(),
            rr_after: None,
            pending: VecDeque::new(),
            in_flight: HashMap::new(),
            abandoned: HashSet::new(),
            sheds: Vec::new(),
            ready: Vec::new(),
        }
    }

    /// Enqueues one validated request (or sheds it at a full queue) and
    /// claims its arrival ordinal.
    pub(crate) fn submit(
        &mut self,
        service: &PlanService,
        tenant: usize,
        request: Cow<'r, PlanRequest>,
        deadline_ticks: Option<u64>,
    ) -> Ticket {
        let ticket = Ticket(self.next_ticket);
        let ordinal = service.counters.next_ordinal();
        self.next_ticket += 1;
        self.outstanding += 1;
        if let Some(m) = &self.instruments {
            m.tenant_requests.record(tenant as u64, 1);
        }
        let backlog = match self.tenant_backlog.entry(tenant) {
            Entry::Occupied(count) if *count.get() < self.config.queue_capacity => {
                let count = count.into_mut();
                *count += 1;
                Some(*count)
            }
            Entry::Vacant(slot) if self.config.queue_capacity > 0 => Some(*slot.insert(1)),
            _ => None,
        };
        let Some(backlog) = backlog else {
            self.shed_at_ingress(service, tenant, ticket, ordinal);
            return ticket;
        };
        let queued = Queued {
            ordinal,
            submitted_tick: self.tick,
            deadline_tick: deadline_ticks.map(|d| self.tick + d),
            request,
        };
        self.queued.insert((tenant, ticket.0), queued);
        service.counters.tenant_queue.set(backlog as u64);
        ticket
    }

    /// Resolves a submission that found its tenant's queue full: it is
    /// counted and resolved now, at a logical latency of 0 ticks, and its
    /// completion joins the shed runs that the next tick hands over.
    fn shed_at_ingress(
        &mut self,
        service: &PlanService,
        tenant: usize,
        ticket: Ticket,
        ordinal: u64,
    ) {
        service.counters.inc(Event::QueueFullShed);
        if let Some(m) = &self.instruments {
            m.tenant_sheds.record(tenant as u64, 1);
        }
        self.resolve(service, self.tick);
        match self.sheds.last_mut() {
            Some(run) if run.continued_by(tenant, ticket.0, ordinal, self.tick) => run.count += 1,
            _ => self.sheds.push(ShedRun {
                tenant,
                ticket: ticket.0,
                ordinal,
                tick: self.tick,
                count: 1,
            }),
        }
    }

    /// Advances one logical tick: applies due completion events, dequeues
    /// up to `dispatch_per_tick` requests, updates the shed level, and
    /// returns every completion produced since the last call: the pending
    /// shed runs expanded in submission order, then the tick's own
    /// completions, in one vector of exactly that length (the tick's own
    /// vector as it is when no shed is pending).
    pub(crate) fn tick(&mut self, service: &PlanService) -> Vec<Completion> {
        let _tick_span = self.instruments.as_ref().map(|m| m.tick.start());
        self.tick += 1;
        self.apply_due_completions(service);
        let mut budget = self.config.dispatch_per_tick;
        while budget > 0 {
            let Some(queued) = self.next_queued() else {
                break;
            };
            budget -= 1;
            self.decide(service, queued);
        }
        self.update_shed_level(service);
        let done = std::mem::take(&mut self.ready);
        if self.sheds.is_empty() {
            return done;
        }
        let shed: u64 = self.sheds.iter().map(|run| run.count).sum();
        let mut all = Vec::with_capacity(shed as usize + done.len());
        all.extend(self.sheds.drain(..).flat_map(ShedRun::completions));
        all.extend(done);
        all
    }

    /// Ticks until every outstanding ticket has resolved and every shed
    /// has been handed over, returning all completions produced along the
    /// way.
    pub(crate) fn drain(&mut self, service: &PlanService) -> Vec<Completion> {
        let mut all = Vec::new();
        while self.outstanding > 0 || !self.sheds.is_empty() {
            all.extend(self.tick(service));
        }
        all
    }

    /// Applies every pending completion whose due tick has arrived, in
    /// dispatch order: the settle path.  Blocks on the worker's actual
    /// result (bounded by the stall watchdog): parallelism is preserved —
    /// later jobs keep solving while the loop waits — but store and
    /// quarantine effects land in deterministic order.
    fn apply_due_completions(&mut self, service: &PlanService) {
        // Purge late results of previously abandoned jobs.
        self.abandoned.retain(|&job| !self.pool.discard(job));
        while self
            .pending
            .front()
            .is_some_and(|job| job.due_tick <= self.tick)
        {
            let job = self.pending.pop_front().expect("front checked");
            // The in-flight table's copy of the key is the one the store
            // keeps, so a cold insert clones no fingerprint.
            let (key, _) = self
                .in_flight
                .remove_entry(&job.leader.prep.key)
                .expect("a pending job's key is in flight");
            let waited = {
                let _watchdog = self.instruments.as_ref().map(|m| m.watchdog.start());
                self.pool.wait(job.job, self.config.stall_timeout)
            };
            let reason = match waited {
                Ok(Ok(plan)) => {
                    if service.quarantine.record_success(&key) {
                        service.counters.inc(Event::Recovered);
                    }
                    if let Some(cache) = &job.cache {
                        service.settle_cache(&key.fingerprint, cache);
                    }
                    // Degraded results admitted without a priced floor get
                    // one certified now (the slow path affords it).  A
                    // degraded attempt burnt real wall time but stores
                    // nothing: remember the cost, so the eventual exact
                    // re-solve's eviction weight reflects the full
                    // recomputation price.
                    let floor = if plan.exhaustive {
                        None
                    } else {
                        service.store().record_attempt_cost(&key, plan.solve_micros);
                        job.floor.or_else(|| {
                            let r = &job.leader.info.request;
                            service.admission().certified_floor(
                                &r.app,
                                r.model,
                                r.objective,
                                service.budget(),
                            )
                        })
                    };
                    self.respond(service, job.leader, &plan, ServeSource::Cold, floor);
                    for joiner in job.joiners {
                        self.respond(service, joiner, &plan, ServeSource::Dedup, floor);
                    }
                    // The plan and its key move into the store: nothing
                    // is copied.
                    if plan.exhaustive {
                        service.store().insert_held(key, plan);
                    }
                    continue;
                }
                Ok(Err(message)) => {
                    service.counters.inc(Event::Panic);
                    RejectReason::SolverPanic { message }
                }
                Err(()) => {
                    service.counters.inc(Event::Stall);
                    self.abandoned.insert(job.job);
                    RejectReason::WorkerStall
                }
            };
            // A failed solve quarantines its key and drops its retained
            // cache (the unwound solve may have left it poisoned); the
            // leader and every joiner see the failure — nobody hangs.
            service.quarantine.record_failure(&key);
            service.drop_cache(&key.fingerprint);
            for decided in std::iter::once(job.leader).chain(job.joiners) {
                self.reject(service, decided.info, reason.clone(), None);
            }
        }
    }

    /// Resolves `decided` with `plan`, its graph decoded into the tenant's
    /// ids.
    fn respond(
        &mut self,
        service: &PlanService,
        decided: Decided<'r>,
        plan: &HeldPlan,
        source: ServeSource,
        floor: Option<f64>,
    ) {
        let graph = plan
            .graph
            .relabelled(&decided.prep.from_canonical)
            .expect("canonical plans relabel cleanly");
        let response = PlanResponse {
            value: plan.value,
            graph,
            exhaustive: plan.exhaustive,
            source,
            solve_micros: plan.solve_micros,
        };
        let outcome = if response.exhaustive {
            ServeOutcome::Exact(response)
        } else {
            service.counters.inc(Event::Degraded);
            if let Some(m) = &self.instruments {
                m.tenant_degrades.record(decided.info.tenant as u64, 1);
            }
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
        };
        self.complete(service, decided.info, outcome);
    }

    fn reject(
        &mut self,
        service: &PlanService,
        info: TicketInfo<'r>,
        reason: RejectReason,
        estimate: Option<CostEstimate>,
    ) {
        let estimate = estimate.map(Box::new);
        self.complete(
            service,
            info,
            ServeOutcome::Rejected(Rejection { reason, estimate }),
        );
    }

    /// Counts one ticket, submitted at `submitted_tick`, as resolved now.
    fn resolve(&mut self, service: &PlanService, submitted_tick: u64) {
        service.counters.inc(Event::Completion);
        self.outstanding -= 1;
        if let Some(m) = &self.instruments {
            m.latency_ticks.record(self.tick - submitted_tick);
        }
    }

    fn complete(&mut self, service: &PlanService, info: TicketInfo<'r>, outcome: ServeOutcome) {
        self.resolve(service, info.submitted_tick);
        self.ready.push(Completion {
            ticket: info.ticket,
            tenant: info.tenant,
            ordinal: info.ordinal,
            submitted_tick: info.submitted_tick,
            completed_tick: self.tick,
            outcome,
        });
    }

    /// The next queued request in round-robin tenant order, if any: the
    /// oldest request of the first tenant after `rr_after`, wrapping to the
    /// lowest tenant id.
    fn next_queued(&mut self) -> Option<TicketInfo<'r>> {
        // `(tenant, u64::MAX)` sorts after every ticket the tenant holds.
        let after = self.rr_after.map_or(Bound::Unbounded, |tenant| {
            Bound::Excluded((tenant, u64::MAX))
        });
        let next = self
            .queued
            .range((after, Bound::Unbounded))
            .next()
            .map(|(&key, _)| key);
        let ((tenant, id), queued) = match next {
            Some(key) => self.queued.remove_entry(&key),
            None => self.queued.pop_first(),
        }?;
        self.rr_after = Some(tenant);
        if let Entry::Occupied(mut count) = self.tenant_backlog.entry(tenant) {
            *count.get_mut() -= 1;
            if *count.get() == 0 {
                count.remove();
            }
        }
        Some(queued.into_info(Ticket(id), tenant))
    }

    /// The decision pipeline for one dequeued request: deadline → dedup
    /// join → store → quarantine → admission at the current shed level →
    /// predicted-deadline degrade → dispatch.
    fn decide(&mut self, service: &PlanService, info: TicketInfo<'r>) {
        // 1. Cancellation: an expired deadline is not worth a lookup.
        if info
            .deadline_tick
            .is_some_and(|deadline| self.tick > deadline)
        {
            service.counters.inc(Event::DeadlineCancel);
            self.reject(service, info, RejectReason::DeadlineExpired, None);
            return;
        }
        let prep = Arc::new(Prepared::of(&info.request, service.budget()));
        // 2. Dedup join: ride the in-flight solve of the same key.
        if let Some(&job) = self.in_flight.get(&prep.key) {
            service.counters.inc(Event::DedupJoin);
            if let Some(pending) = self.pending.iter_mut().find(|p| p.job == job) {
                pending.joiners.push(Decided { info, prep });
            }
            return;
        }
        // 3. Store hit: resolved this tick.  An injected slow lookup sleeps
        // first — wall clock only, no effect on any decision.
        let fault = service.injected_fault(info.ordinal);
        if let Some(InjectedFault::SlowShard(delay)) = fault {
            std::thread::sleep(delay);
        }
        if let Some(record) = service.store().get(&prep.key) {
            service.counters.inc(Event::StoreHit);
            self.respond(
                service,
                Decided { info, prep },
                &record.plan,
                ServeSource::Store,
                None,
            );
            return;
        }
        // 4. Quarantine gate: every request of a quarantined key drains one
        // backoff tick.
        if let Err(permanent) = service.quarantine.admit(&prep.key) {
            service.counters.inc(Event::QuarantineReject);
            self.reject(service, info, RejectReason::Quarantined { permanent }, None);
            return;
        }
        // 5. Admission at the current shed level.
        let policy = service.admission();
        let decision = {
            let _pricing = self
                .instruments
                .as_ref()
                .and_then(|m| m.admission.start_sampled());
            let r = &info.request;
            policy.decide_at(
                &r.app,
                r.model,
                r.objective,
                service.budget(),
                self.shed_level,
            )
        };
        // The latency model: the price in ticks.
        let ticks = |estimate: &CostEstimate| {
            1 + (estimate.cost / self.config.cost_per_tick.max(1))
                .min(u128::from(MAX_LATENCY_TICKS)) as u64
        };
        let (mut time_limit, floor, latency) = match decision {
            AdmissionDecision::Admit { estimate } => (None, None, ticks(&estimate)),
            AdmissionDecision::AdmitWithDeadline {
                time_limit,
                estimate,
            } => {
                service.counters.inc(Event::DeadlineAdmit);
                (Some(time_limit), estimate.value_floor, ticks(&estimate))
            }
            AdmissionDecision::Reject { estimate } => {
                service.counters.inc(Event::AdmissionReject);
                self.reject(service, info, RejectReason::AdmissionCost, Some(estimate));
                return;
            }
            AdmissionDecision::Shed { level, estimate } => {
                service.counters.inc(Event::BackpressureShed);
                if let Some(m) = &self.instruments {
                    m.tenant_sheds.record(info.tenant as u64, 1);
                }
                self.reject(service, info, RejectReason::Shed { level }, Some(estimate));
                return;
            }
        };
        // 6. Deadline propagation: predicted to miss at full budget →
        // degrade instead of solving uselessly.
        if let Some(deadline) = info.deadline_tick {
            if time_limit.is_none() && self.tick + latency > deadline {
                service.counters.inc(Event::DeadlineDegrade);
                time_limit = Some(policy.degrade_time_limit);
            }
        }
        // 7. Dispatch.
        self.dispatch(
            service,
            Decided { info, prep },
            fault,
            time_limit,
            floor,
            latency,
        );
    }

    fn dispatch(
        &mut self,
        service: &PlanService,
        decided: Decided<'r>,
        fault: Option<InjectedFault>,
        time_limit: Option<Duration>,
        floor: Option<f64>,
        latency: u64,
    ) {
        let job = self.next_job;
        self.next_job += 1;
        service.counters.inc(Event::Dispatch);
        // Each solve runs serially: the fan-out is across requests.
        let mut budget = SearchBudget {
            threads: 1,
            ..*service.budget()
        };
        if let Some(limit) = time_limit {
            budget.time_limit = Some(budget.time_limit.map_or(limit, |own| own.min(limit)));
        }
        if fault == Some(InjectedFault::DeadlineBlowout) {
            budget.time_limit = Some(Duration::ZERO);
        }
        // Due ticks are monotone in dispatch order (completion events are
        // applied FIFO), which is what makes the loop's store/quarantine
        // effects — and the fault-replay digests — thread-count
        // independent.
        let due_tick = (self.tick + latency).max(self.last_due);
        self.last_due = due_tick;
        // Only MINLATENCY's DAG phase reads an evaluation cache (it memoises
        // ordering searches), and it runs only up to the budget's
        // `dag_enumeration_max_n` services, so only such a dispatch retains
        // one; every other solve builds its own on the worker.
        let reads_cache = decided.prep.key.objective == Objective::MinLatency
            && decided.prep.app.n() <= budget.dag_enumeration_max_n;
        let cache = reads_cache.then(|| service.retained_cache(&decided.prep));
        self.pool.submit(WorkItem {
            job,
            ordinal: decided.info.ordinal,
            prep: Arc::clone(&decided.prep),
            model: decided.info.request.model,
            budget,
            cache: cache.clone(),
            fault,
            instruments: self.instruments.clone(),
        });
        self.in_flight.insert(decided.prep.key.clone(), job);
        self.pending.push_back(PendingJob {
            job,
            due_tick,
            floor,
            cache,
            leader: decided,
            joiners: Vec::new(),
        });
    }

    /// One hysteresis step: the backlog after this tick's dispatches
    /// moves the shed level at most one notch.
    fn update_shed_level(&mut self, service: &PlanService) {
        let backlog = self.queued.len();
        let counters = &service.counters;
        counters.backlog.set(backlog as u64);
        let level = if backlog >= self.config.backlog_high {
            (self.shed_level + 1).min(self.config.max_shed_level)
        } else if backlog <= self.config.backlog_low {
            self.shed_level.saturating_sub(1)
        } else {
            self.shed_level
        };
        if level != self.shed_level {
            counters.inc(if level > self.shed_level {
                Event::ShedRaise
            } else {
                Event::ShedLower
            });
            self.shed_level = level;
            counters.shed_level.set(u64::from(level));
        }
    }
}

/// The non-blocking front door: a deterministic event loop over bounded
/// per-tenant queues (see the module docs).  Single ownership: the loop
/// itself is not `Sync` — submissions and ticks happen on one calling
/// thread, parallelism lives in the worker pool behind it.
pub struct AsyncFrontend {
    service: Arc<PlanService>,
    core: EventLoop<'static>,
}

impl AsyncFrontend {
    /// A front end over `service` (whose store, quarantine, caches,
    /// counters and budget are shared with the batch door) under `config`.
    /// It records into the service's instruments, if it has any.
    pub fn new(service: Arc<PlanService>, config: FrontendConfig) -> Self {
        AsyncFrontend {
            core: EventLoop::new(config, service.instruments.clone()),
            service,
        }
    }

    /// Records the loop's spans (`frontend.tick`, `frontend.watchdog`,
    /// `admission.decide`, `serve.cold_solve`), its logical-tick latency
    /// histogram (`frontend.latency_ticks`) and the per-tenant traffic
    /// sketches (`tenant.requests` / `tenant.sheds` / `tenant.degrades`)
    /// into `registry`, and threads it down to the engine stages of every
    /// dispatched solve.  The counters are the owning service's
    /// ([`PlanService::with_metrics`]).  Instrumentation is pure
    /// observability: no decision, outcome, or replay digest depends on it.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.core.instruments = Some(Instruments::resolve(registry));
        self
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.core.tick
    }

    /// The owning service's counters, which both front doors count into.
    pub fn stats(&self) -> ServeStats {
        self.service.stats()
    }

    /// Tickets of this front end not yet resolved (queued + in flight).
    pub fn outstanding(&self) -> usize {
        self.core.outstanding
    }

    /// Submits one request under the configured default deadline.  Never
    /// blocks: the ticket resolves through [`tick`](Self::tick) (a full
    /// tenant queue resolves it immediately as
    /// [`RejectReason::QueueFull`]).  Validation errors fail the submit
    /// itself — an invalid application never earns a ticket.
    pub fn submit(&mut self, tenant: usize, request: PlanRequest) -> CoreResult<Ticket> {
        request.app.validate()?;
        let deadline = self.core.config.deadline_ticks;
        Ok(self
            .core
            .submit(&self.service, tenant, Cow::Owned(request), deadline))
    }

    /// Submits one request with an explicit deadline `deadline_ticks`
    /// ticks from now (overriding the configured default).
    pub fn submit_with_deadline(
        &mut self,
        tenant: usize,
        request: PlanRequest,
        deadline_ticks: u64,
    ) -> CoreResult<Ticket> {
        request.app.validate()?;
        let deadline = Some(deadline_ticks);
        Ok(self
            .core
            .submit(&self.service, tenant, Cow::Owned(request), deadline))
    }

    /// Advances one logical tick: applies due completion events, dequeues
    /// up to `dispatch_per_tick` requests, updates the shed level, and
    /// returns every completion produced since the last call.
    pub fn tick(&mut self) -> Vec<Completion> {
        self.core.tick(&self.service)
    }

    /// Ticks until every outstanding ticket has resolved, returning all
    /// completions produced along the way.
    pub fn drain(&mut self) -> Vec<Completion> {
        self.core.drain(&self.service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsw_core::Application;
    use fsw_sched::orchestrator::Objective;

    fn service() -> Arc<PlanService> {
        Arc::new(PlanService::new(SearchBudget::default(), 64))
    }

    fn small_request(seed: u32) -> PlanRequest {
        PlanRequest::new(
            Application::independent(&[(1.0 + f64::from(seed), 0.5), (2.0, 0.25)]),
            CommModel::Overlap,
            Objective::MinPeriod,
        )
    }

    #[test]
    fn tickets_resolve_without_blocking_submission() {
        let mut frontend = AsyncFrontend::new(service(), FrontendConfig::default());
        let t0 = frontend.submit(0, small_request(0)).unwrap();
        let t1 = frontend.submit(1, small_request(0)).unwrap();
        assert_eq!(frontend.outstanding(), 2, "submit never blocks");
        let completions = frontend.drain();
        assert_eq!(completions.len(), 2);
        let by_ticket: HashMap<Ticket, &Completion> =
            completions.iter().map(|c| (c.ticket, c)).collect();
        // Same fingerprint: one cold solve, one dedup/store ride-along.
        let a = by_ticket[&t0].outcome.expect_exact();
        let b = by_ticket[&t1].outcome.expect_exact();
        assert_eq!(a.value.to_bits(), b.value.to_bits());
        let stats = frontend.stats();
        assert_eq!(stats.dispatches, 1, "identical keys share one solve");
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn full_tenant_queues_shed_at_ingress() {
        let config = FrontendConfig {
            queue_capacity: 2,
            ..FrontendConfig::default()
        };
        let mut frontend = AsyncFrontend::new(service(), config);
        for i in 0..4u32 {
            frontend.submit(7, small_request(i)).unwrap();
        }
        // Two queued, two shed immediately.
        let stats = frontend.stats();
        assert_eq!(stats.queue_full_sheds, 2);
        assert_eq!(stats.peak_tenant_queue, 2);
        let completions = frontend.drain();
        let shed = completions
            .iter()
            .filter(|c| {
                matches!(
                    c.outcome.rejection().map(|r| &r.reason),
                    Some(RejectReason::QueueFull)
                )
            })
            .count();
        assert_eq!(shed, 2);
        assert_eq!(completions.len(), 4, "every ticket resolves");
    }

    #[test]
    fn expired_deadlines_cancel_at_dequeue() {
        let config = FrontendConfig {
            dispatch_per_tick: 1,
            ..FrontendConfig::default()
        };
        let mut frontend = AsyncFrontend::new(service(), config);
        // Three distinct requests, deadline 1 tick: with one dequeue per
        // tick, the third is dequeued at tick 3 — past its deadline.
        for i in 0..3u32 {
            frontend
                .submit_with_deadline(0, small_request(i), 1)
                .unwrap();
        }
        let completions = frontend.drain();
        let cancelled = completions
            .iter()
            .filter(|c| {
                matches!(
                    c.outcome.rejection().map(|r| &r.reason),
                    Some(RejectReason::DeadlineExpired)
                )
            })
            .count();
        assert!(cancelled >= 1, "late dequeues must cancel");
        assert_eq!(frontend.stats().deadline_cancels, cancelled);
        assert_eq!(completions.len(), 3);
    }

    #[test]
    fn stalled_workers_are_timed_out_and_quarantined() {
        let config = FrontendConfig {
            workers: 2,
            stall_timeout: Duration::from_millis(40),
            ..FrontendConfig::default()
        };
        let service = Arc::new(
            PlanService::new(SearchBudget::default(), 64).with_fault_injection(|ordinal| {
                (ordinal == 0).then_some(InjectedFault::Slow(Duration::from_millis(400)))
            }),
        );
        let mut frontend = AsyncFrontend::new(Arc::clone(&service), config);
        let stalled = frontend.submit(0, small_request(0)).unwrap();
        let fine = frontend.submit(1, small_request(1)).unwrap();
        let completions = frontend.drain();
        let by_ticket: HashMap<Ticket, &Completion> =
            completions.iter().map(|c| (c.ticket, c)).collect();
        assert_eq!(
            by_ticket[&stalled].outcome.rejection().map(|r| &r.reason),
            Some(&RejectReason::WorkerStall)
        );
        assert!(by_ticket[&fine].outcome.is_exact());
        assert_eq!(frontend.stats().stalls, 1);
        // The stalled fingerprint is now in the shared quarantine: the
        // batch door rejects it too.
        let next = service.serve_one(&small_request(0)).unwrap();
        assert_eq!(
            next.rejection().map(|r| &r.reason),
            Some(&RejectReason::Quarantined { permanent: false })
        );
    }

    #[test]
    fn backpressure_tightens_and_relaxes_with_hysteresis() {
        // Degrade-band requests (admitted at baseline) must be shed while
        // the backlog holds the shed level up, and admitted again after
        // the queues drain.
        let config = FrontendConfig {
            queue_capacity: 256,
            dispatch_per_tick: 4,
            backlog_high: 8,
            backlog_low: 2,
            max_shed_level: 8,
            ..FrontendConfig::default()
        };
        let mut frontend = AsyncFrontend::new(service(), config);
        // A burst of cheap distinct requests builds the backlog…
        for i in 0..64u32 {
            frontend.submit(i as usize % 4, small_request(i)).unwrap();
        }
        // …the level climbs one notch per tick while the backlog holds…
        let mut completions = Vec::new();
        for _ in 0..6 {
            completions.extend(frontend.tick());
        }
        assert!(
            frontend.stats().shed_level >= 5,
            "backlog must raise the level"
        );
        // …and a degrade-band request (n = 8 distinct, admitted with a
        // deadline at baseline) arriving mid-burst is shed at the
        // tightened threshold.
        let specs: Vec<(f64, f64)> = (0..8).map(|k| (1.0 + k as f64, 0.4)).collect();
        let degrade_band = PlanRequest::new(
            Application::independent(&specs),
            CommModel::Overlap,
            Objective::MinPeriod,
        );
        frontend.submit(9, degrade_band.clone()).unwrap();
        completions.extend(frontend.drain());
        // Idle ticks after the drain decay the level back to baseline.
        for _ in 0..10 {
            completions.extend(frontend.tick());
        }
        let stats = frontend.stats();
        assert!(stats.peak_shed_level > 0, "burst must raise the level");
        assert_eq!(stats.shed_level, 0, "drain must relax the level");
        let shed = completions
            .iter()
            .filter(|c| {
                matches!(
                    c.outcome.rejection().map(|r| &r.reason),
                    Some(RejectReason::Shed { .. })
                )
            })
            .count();
        assert_eq!(shed, stats.backpressure_sheds);
        assert!(
            shed >= 1,
            "the degrade-band request under load must be shed (levels {})",
            stats.peak_shed_level
        );
        // After the drain the same request is admitted (degrade band).
        let mut calm = AsyncFrontend::new(service(), config);
        calm.submit(9, degrade_band).unwrap();
        let outcome = &calm.drain()[0].outcome;
        assert!(
            matches!(outcome, ServeOutcome::Degraded { .. }),
            "baseline must still degrade-admit, got {outcome:?}"
        );
    }

    #[test]
    fn zero_dispatch_per_tick_still_dequeues() {
        let config = FrontendConfig {
            dispatch_per_tick: 0,
            ..FrontendConfig::default()
        };
        let mut frontend = AsyncFrontend::new(service(), config);
        let ticket = frontend.submit(0, small_request(0)).unwrap();
        let completions: Vec<Completion> = (0..16).flat_map(|_| frontend.tick()).collect();
        assert_eq!(frontend.outstanding(), 0, "the request must be dequeued");
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].ticket, ticket);
        assert!(completions[0].outcome.is_exact());
    }

    /// SplitMix64: a seeded draw for the interleaving tests.
    fn draw(state: &mut u64, below: usize) -> usize {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % below as u64) as usize
    }

    /// The loop dequeues in the order of a reference model that keeps one
    /// `VecDeque` per tenant and scans tenant ids round-robin, and sheds
    /// exactly the submissions that find their tenant's queue at capacity.
    /// Every request carries a deadline of 0 ticks, so it is cancelled the
    /// moment it is dequeued: a tick's completions are its queue-full
    /// sheds in submission order, then its dequeues in order.
    #[test]
    fn round_robin_dequeues_match_per_tenant_fifo_queues() {
        let service = service();
        let request = small_request(0);
        let (mut wraps, mut full_sheds) = (0, 0);
        let mut state = 28;
        for _ in 0..48 {
            let tenants = 1 + draw(&mut state, 40);
            let config = FrontendConfig {
                queue_capacity: 1 + draw(&mut state, 5),
                dispatch_per_tick: 1 + draw(&mut state, 7),
                ..FrontendConfig::default()
            };
            let mut core = EventLoop::new(config, None);
            let mut model: BTreeMap<usize, VecDeque<Ticket>> = BTreeMap::new();
            let mut rr_after: Option<usize> = None;
            let mut expected: Vec<(Ticket, bool)> = Vec::new();
            for _ in 0..400 {
                if draw(&mut state, 3) > 0 {
                    let tenant = draw(&mut state, tenants);
                    let ticket = core.submit(&service, tenant, Cow::Borrowed(&request), Some(0));
                    let queue = model.entry(tenant).or_default();
                    if queue.len() == config.queue_capacity {
                        expected.push((ticket, true));
                        full_sheds += 1;
                    } else {
                        queue.push_back(ticket);
                    }
                    continue;
                }
                for _ in 0..config.dispatch_per_tick {
                    let after = rr_after.map_or(0, |t| t + 1);
                    let Some(tenant) = model
                        .range(after..)
                        .chain(model.range(..after))
                        .find(|(_, queue)| !queue.is_empty())
                        .map(|(&tenant, _)| tenant)
                    else {
                        break;
                    };
                    wraps += usize::from(rr_after.is_some_and(|t| tenant <= t));
                    rr_after = Some(tenant);
                    let ticket = model.get_mut(&tenant).unwrap().pop_front().unwrap();
                    expected.push((ticket, false));
                }
                let got: Vec<(Ticket, bool)> = core
                    .tick(&service)
                    .iter()
                    .map(|c| {
                        let reason = &c.outcome.rejection().expect("all rejected").reason;
                        (c.ticket, *reason == RejectReason::QueueFull)
                    })
                    .collect();
                assert_eq!(got, std::mem::take(&mut expected));
            }
            let queued: usize = model.values().map(VecDeque::len).sum();
            assert_eq!(core.queued.len(), queued);
            assert_eq!(core.tenant_backlog.values().sum::<usize>(), queued);
        }
        assert!(wraps > 0, "no dequeue wrapped around the tenant ids");
        assert!(full_sheds > 0, "no queue was full at capacity");
    }

    /// What the loop and the store hold per request and per plan: a key is
    /// the fingerprint's one word slice plus model and objective, a
    /// completion carries a rejection's price boxed and a graph of one
    /// boxed slice, and a queued request leaves its ticket and tenant to
    /// its key.
    #[test]
    fn keys_completions_and_queued_requests_stay_small() {
        use std::mem::size_of;
        assert!(
            size_of::<PlanKey>() <= 24,
            "PlanKey: {}",
            size_of::<PlanKey>()
        );
        assert!(
            size_of::<Completion>() <= 96,
            "Completion: {}",
            size_of::<Completion>()
        );
        assert!(size_of::<Queued>() <= 88, "Queued: {}", size_of::<Queued>());
    }

    /// A burst into a full queue hands its sheds over at the next tick:
    /// first, in submission order, then the tick's own completions, in one
    /// vector of exactly their number.  Another tenant's submissions
    /// partway split the sheds into two runs.
    #[test]
    fn queue_full_sheds_are_handed_over_in_one_exact_batch() {
        let config = FrontendConfig {
            queue_capacity: 64,
            ..FrontendConfig::default()
        };
        let mut frontend = AsyncFrontend::new(service(), config);
        // A deadline of 0 ticks cancels each request on the tick that
        // dequeues it: the tick resolves requests of its own, and nothing
        // is solved.
        let mut submitted: Vec<(Ticket, usize)> = Vec::new();
        for k in 0..400u32 {
            if k == 200 {
                for _ in 0..10 {
                    let ticket = frontend
                        .submit_with_deadline(1, small_request(1), 0)
                        .unwrap();
                    submitted.push((ticket, 1));
                }
            }
            let ticket = frontend
                .submit_with_deadline(0, small_request(0), 0)
                .unwrap();
            submitted.push((ticket, 0));
        }
        let shed: Vec<Ticket> = submitted
            .iter()
            .filter(|&&(_, tenant)| tenant == 0)
            .skip(config.queue_capacity)
            .map(|&(ticket, _)| ticket)
            .collect();
        assert_eq!(frontend.stats().queue_full_sheds, shed.len());
        let batch = frontend.tick();
        assert_eq!(batch.len(), batch.capacity(), "the batch has no slack");
        let (sheds, own) = batch.split_at(shed.len());
        assert_eq!(sheds.iter().map(|c| c.ticket).collect::<Vec<_>>(), shed);
        for c in sheds {
            assert_eq!(c.tenant, 0);
            // The service's only front end: ordinals follow ticket ids.
            assert_eq!(c.ordinal, c.ticket.id());
            assert_eq!((c.submitted_tick, c.completed_tick), (0, 0));
            assert!(matches!(
                &c.outcome,
                ServeOutcome::Rejected(Rejection {
                    reason: RejectReason::QueueFull,
                    estimate: None,
                })
            ));
        }
        assert_eq!(own.len(), config.dispatch_per_tick);
        for c in own {
            assert_eq!(
                c.outcome.rejection().map(|r| &r.reason),
                Some(&RejectReason::DeadlineExpired)
            );
        }
        let mut resolved: Vec<Ticket> = batch
            .iter()
            .chain(&frontend.drain())
            .map(|c| c.ticket)
            .collect();
        resolved.sort_unstable();
        let mut tickets: Vec<Ticket> = submitted.iter().map(|&(ticket, _)| ticket).collect();
        tickets.sort_unstable();
        assert_eq!(resolved, tickets, "every ticket resolves exactly once");
        assert_eq!(frontend.outstanding(), 0);
    }

    /// A tenant that bursts and drains leaves nothing behind in ingress.
    #[test]
    fn drained_tenants_hold_no_ingress_state() {
        let service = service();
        let request = small_request(0);
        let config = FrontendConfig {
            queue_capacity: 4,
            ..FrontendConfig::default()
        };
        let mut core = EventLoop::new(config, None);
        for tenant in 0..64 {
            for _ in 0..=config.queue_capacity {
                core.submit(&service, tenant, Cow::Borrowed(&request), None);
            }
        }
        assert_eq!(core.queued.len(), 64 * config.queue_capacity);
        assert_eq!(core.tenant_backlog.len(), 64);
        let completions = core.drain(&service);
        assert_eq!(completions.len(), 64 * (config.queue_capacity + 1));
        assert_eq!(service.stats().queue_full_sheds, 64);
        assert!(core.queued.is_empty(), "no queued request is left");
        assert!(core.tenant_backlog.is_empty(), "no tenant entry is left");
    }
}
