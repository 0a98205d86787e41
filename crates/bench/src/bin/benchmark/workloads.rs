//! The four workloads: their inputs (made from the seed during set-up),
//! the timed drive through the public API, and the correctness checks.
//!
//! `--seconds` fixes each workload's amount of work (ticks, steps or
//! passes) through its nominal speed on the reference machine, so a seed
//! and a length always give the same work, the same decisions and the same
//! digest.  Wall-clock metrics cover the whole timed phase: goodput is the
//! answered requests over its wall time, and the latency percentiles come
//! from one histogram of every request in it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fsw_core::{Application, CommModel, CoreResult, ExecutionGraph};
use fsw_sched::orchestrator::{solve, Objective, Problem, SearchBudget, Solution};
use fsw_serve::{
    AsyncFrontend, FrontendConfig, PlanRequest, PlanResponse, PlanService, RejectReason,
    ServeOutcome, ServeSource, Ticket,
};
use fsw_workloads::{
    query_optimization, serving_trace, tiered_query_optimization, uniform_query_optimization,
    TraceConfig, TraceEventKind,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::pins;
use crate::stats::{median, mix, Digest, LatencyHistogram};
use crate::ALLOC;

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 4] = ["serve_hot", "serve_overload", "serve_churn", "solve_exact"];

/// An untraced run times `SETUP_BATCHES` batches of repeated set-ups, half
/// before the timed phase and half after it, each batch lasting about
/// `SETUP_BATCH_S`; `setup_s` is the median batch's time per set-up.
const SETUP_BATCHES: usize = 10;
const SETUP_BATCH_S: f64 = 0.05;

/// How much work one run does.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    /// Target length of the timed phase on the reference machine.
    pub seconds: f64,
    /// Test scale (about 1% of the work, small instances).
    pub tiny: bool,
}

impl Effort {
    /// Units of work of `unit_s` nominal seconds each that fill the target,
    /// or `tiny` of them at test scale.
    fn units(&self, unit_s: f64, tiny: usize) -> usize {
        if self.tiny {
            tiny
        } else {
            ((self.seconds / unit_s).round() as usize).max(1)
        }
    }
}

/// Hooks the traced run uses to attach instruments, time the front-end
/// calls and keep the answers its layer replays need.  The untraced run
/// uses [`Untraced`], whose methods call nothing but the public API.
pub trait Probe {
    fn service(&mut self, service: PlanService) -> PlanService {
        service
    }

    fn frontend(&mut self, frontend: AsyncFrontend) -> AsyncFrontend {
        frontend
    }

    fn solve(&mut self, problem: &Problem<'_>, budget: &SearchBudget) -> CoreResult<Solution> {
        solve(problem, budget)
    }

    /// An `AsyncFrontend::submit` call that started at `started` returned.
    fn submitted(&mut self, _started: Instant) {}

    /// An `AsyncFrontend::tick` call returned after the given time.
    fn ticked(&mut self, _took: Duration) {}

    /// One request answered with a plan.
    fn answer(&mut self, _answered: Answered<'_>) {}
}

/// A request answered with a plan, as handed to [`Probe::answer`].
pub struct Answered<'a> {
    pub problem: Problem<'a>,
    /// Index of the application in the workload's table.
    pub app: u32,
    pub value: f64,
    pub graph: &'a ExecutionGraph,
    pub solve_micros: u64,
    /// The answer came from a fresh solve (and entered the store).
    pub cold: bool,
}

/// The probe of the untraced run: no instruments, nothing kept.
pub struct Untraced;

impl Probe for Untraced {}

/// How one request was answered, as the client sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Exact,
    Degraded,
    QueueFull,
    Shed,
    AdmissionCost,
    DeadlineExpired,
    Quarantined,
    WorkerStall,
    SolverPanic,
}

impl Kind {
    const COUNT: usize = 9;

    fn of(outcome: &ServeOutcome) -> Kind {
        match outcome {
            ServeOutcome::Exact(_) => Kind::Exact,
            ServeOutcome::Degraded { .. } => Kind::Degraded,
            ServeOutcome::Rejected(rejection) => match rejection.reason {
                RejectReason::QueueFull => Kind::QueueFull,
                RejectReason::Shed { .. } => Kind::Shed,
                RejectReason::AdmissionCost => Kind::AdmissionCost,
                RejectReason::DeadlineExpired => Kind::DeadlineExpired,
                RejectReason::Quarantined { .. } => Kind::Quarantined,
                RejectReason::WorkerStall => Kind::WorkerStall,
                RejectReason::SolverPanic { .. } => Kind::SolverPanic,
            },
        }
    }

    /// Outcomes no workload here may produce: the program failed the
    /// request.  Planned rejections (queue-full, shed, admission cost,
    /// deadline) are the answers an overloaded service must give.
    fn failed(self) -> bool {
        matches!(
            self,
            Kind::Quarantined | Kind::WorkerStall | Kind::SolverPanic
        )
    }
}

/// What one workload run measured and checked.
pub struct Run {
    pub name: &'static str,
    pub setup_s: f64,
    pub goodput_rps: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub peak_heap_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Allocation calls during the timed phase.
    pub allocs: u64,
    pub digest: u64,
    /// Requests per outcome kind (indexed by `Kind as usize`).
    pub kinds: [u64; Kind::COUNT],
    pub cold: u64,
    pub dedup: u64,
    /// Failed checks; empty when every output was correct.
    pub problems: Vec<String>,
    /// Workload-specific rows for the human-readable table.
    pub notes: Vec<(String, f64, &'static str)>,
}

impl Run {
    pub fn count(&self, kind: Kind) -> u64 {
        self.kinds[kind as usize]
    }

    pub fn exact_ratio(&self) -> f64 {
        self.count(Kind::Exact) as f64 / self.attempted as f64
    }

    /// Requests answered with a plan (Exact or Degraded) over attempted
    /// ones: one minus the share rejected for any reason or errored.
    pub fn answered_ratio(&self) -> f64 {
        (self.count(Kind::Exact) + self.count(Kind::Degraded)) as f64 / self.attempted as f64
    }
}

/// The inputs of one workload, kept for the traced run's layer replays.
pub struct Inputs {
    pub apps: Vec<Application>,
    /// Distinct requests `(app, model, objective)` in first-issued order.
    pub requests: Vec<(u32, CommModel, Objective)>,
    /// Budget of the workload's service (or of each solve).
    pub budget: SearchBudget,
    /// Capacity of the workload's plan store (`None`: no store).
    pub store_capacity: Option<usize>,
}

/// Runs workload `name` (see [`NAMES`]) with the given probe.  With
/// `repeat_setup` the set-up is timed in batches (see [`SetupClock`]).
pub fn run(
    name: &str,
    seed: u64,
    effort: Effort,
    repeat_setup: bool,
    probe: &mut dyn Probe,
) -> (Run, Inputs) {
    match name {
        "serve_hot" => serve_hot(seed, effort, repeat_setup, probe),
        "serve_overload" => serve_overload(seed, effort, repeat_setup, probe),
        "serve_churn" => serve_churn(seed, effort, repeat_setup, probe),
        "solve_exact" => solve_exact(seed, effort, repeat_setup, probe),
        other => panic!("unknown workload {other}"),
    }
}

/// The untraced run.
pub fn run_untraced(name: &str, seed: u64, effort: Effort) -> (Run, Inputs) {
    run(name, seed, effort, true, &mut Untraced)
}

/// Each workload draws from its own stream of the seed.
fn rng_for(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed ^ mix(salt)))
}

/// Times a workload's set-up: inputs generated, service, front end or
/// instances built, and the warm-up that fills a serving workload's store.
/// The warm-up is set-up because the timed phase measures a warm service,
/// and work a change moves into a tenant's first request must show
/// somewhere.  The run drives the first build.  An untraced run then
/// repeats the set-up in batches before and after its timed phase, so that
/// `setup_s` does not hang on the machine's speed at one moment.
struct SetupClock {
    once: f64,
    per_batch: usize,
    repeat: bool,
    times: Vec<f64>,
}

impl SetupClock {
    fn build<T>(repeat: bool, build: impl FnOnce() -> T) -> (Self, T) {
        let started = Instant::now();
        let built = build();
        let once = started.elapsed().as_secs_f64();
        let clock = SetupClock {
            once,
            per_batch: ((SETUP_BATCH_S / once.max(1e-9)).ceil() as usize).clamp(1, 1 << 16),
            repeat,
            times: Vec::with_capacity(SETUP_BATCHES),
        };
        (clock, built)
    }

    /// Times half of the batches, each set-up built and dropped.  Only the
    /// builds are timed: dropping a front end joins its worker thread, and
    /// dropping a store frees its plans, which is teardown, not set-up.
    fn repeat<T>(&mut self, mut build: impl FnMut() -> T) {
        if !self.repeat {
            return;
        }
        for _ in 0..SETUP_BATCHES / 2 {
            let mut took = Duration::ZERO;
            for _ in 0..self.per_batch {
                let started = Instant::now();
                let built = build();
                took += started.elapsed();
                drop(built);
            }
            self.times.push(took.as_secs_f64() / self.per_batch as f64);
        }
    }

    fn setup_s(&self) -> f64 {
        if self.times.is_empty() {
            self.once
        } else {
            median(&self.times)
        }
    }
}

fn serving_request(app: &Application) -> PlanRequest {
    PlanRequest::new(app.clone(), CommModel::Overlap, Objective::MinPeriod)
}

fn serving_answer<'a>(
    apps: &'a [Application],
    app: u32,
    response: &'a PlanResponse,
) -> Answered<'a> {
    Answered {
        problem: Problem::new(
            &apps[app as usize],
            CommModel::Overlap,
            Objective::MinPeriod,
        ),
        app,
        value: response.value,
        graph: &response.graph,
        solve_micros: response.solve_micros,
        cold: response.source == ServeSource::Cold,
    }
}

/// Distinct serving requests: one per application of the table.
fn serving_requests(apps: usize) -> Vec<(u32, CommModel, Objective)> {
    (0..apps as u32)
        .map(|app| (app, CommModel::Overlap, Objective::MinPeriod))
        .collect()
}

/// Client-side bookkeeping of a timed phase.  Everything is allocated
/// before the phase starts, so the client adds no heap while it runs.
struct Recorder {
    histogram: LatencyHistogram,
    started: Instant,
    timed_s: f64,
    answered: u64,
    attempted: u64,
    failed: u64,
    kinds: [u64; Kind::COUNT],
    cold: u64,
    dedup: u64,
    digest: Digest,
    /// First exact value (bits) per application index.
    first: Vec<Option<u64>>,
    mismatches: u64,
}

impl Recorder {
    fn new(apps: usize) -> Self {
        Recorder {
            histogram: LatencyHistogram::new(),
            started: Instant::now(),
            timed_s: 0.0,
            answered: 0,
            attempted: 0,
            failed: 0,
            kinds: [0; Kind::COUNT],
            cold: 0,
            dedup: 0,
            digest: Digest::default(),
            first: vec![None; apps],
            mismatches: 0,
        }
    }

    /// Ends the warm-up: keeps the first exact values, which later answers
    /// must still match, and forgets everything else it recorded.
    fn end_warm_up(&mut self) {
        let first = std::mem::take(&mut self.first);
        *self = Recorder::new(0);
        self.first = first;
    }

    fn start(&mut self) {
        self.started = Instant::now();
    }

    fn stop(&mut self) {
        self.timed_s = self.started.elapsed().as_secs_f64();
    }

    /// Checks an exact value against the first one seen for its app.
    fn check_value(&mut self, app: u32, value: f64) {
        let slot = &mut self.first[app as usize];
        match slot {
            None => *slot = Some(value.to_bits()),
            Some(bits) if *bits != value.to_bits() => self.mismatches += 1,
            Some(_) => {}
        }
    }

    /// Folds one answered request of the timed phase.
    fn outcome(
        &mut self,
        app: u32,
        ordinal: u64,
        outcome: &ServeOutcome,
        latency_ticks: u64,
        latency_ns: u64,
    ) {
        let kind = Kind::of(outcome);
        self.kinds[kind as usize] += 1;
        if kind.failed() {
            self.failed += 1;
        }
        let value = outcome.value();
        if let Some(response) = outcome.response() {
            self.answered += 1;
            match response.source {
                ServeSource::Cold => self.cold += 1,
                ServeSource::Dedup => self.dedup += 1,
                ServeSource::Store => {}
            }
        }
        if kind == Kind::Exact {
            self.check_value(app, value.expect("exact outcomes carry a value"));
        }
        self.digest.fold(
            ordinal,
            kind as u64,
            value.map_or(0, f64::to_bits),
            latency_ticks,
        );
        self.histogram.record(latency_ns);
    }

    /// Builds the run from the whole timed phase.
    fn finish(self, name: &'static str, setup_s: f64, heap: (usize, u64)) -> Run {
        let mut problems = Vec::new();
        if self.mismatches > 0 {
            problems.push(format!(
                "{} exact answers differ from the first answer to the same application",
                self.mismatches
            ));
        }
        let (p50, p99) = if self.histogram.count() > 0 {
            (self.histogram.quantile(50.0), self.histogram.quantile(99.0))
        } else {
            problems.push("no request completed in the timed phase".into());
            (f64::NAN, f64::NAN)
        };
        Run {
            name,
            setup_s,
            goodput_rps: self.answered as f64 / self.timed_s,
            latency_p50_us: p50 / 1e3,
            latency_p99_us: p99 / 1e3,
            peak_heap_mb: heap.0 as f64 / (1u64 << 20) as f64,
            attempted: self.attempted.max(1),
            failed: self.failed + self.mismatches,
            allocs: heap.1,
            digest: self.digest.0,
            kinds: self.kinds,
            cold: self.cold,
            dedup: self.dedup,
            problems,
            notes: Vec::new(),
        }
    }
}

/// Re-solves, cold and outside the timed phase, every application that got
/// an exact answer, and compares the bits.  Two threads share the solves,
/// each solving serially.
fn check_cold_solves(
    run: &mut Run,
    first: &[Option<u64>],
    apps: &[Application],
    budget: &SearchBudget,
) {
    let served: Vec<(&Application, u64)> = apps
        .iter()
        .zip(first)
        .filter_map(|(app, bits)| bits.map(|bits| (app, bits)))
        .collect();
    let budget = SearchBudget {
        threads: 1,
        ..*budget
    };
    let verify = |(app, bits): &(&Application, u64)| -> Option<String> {
        let problem = Problem::new(app, CommModel::Overlap, Objective::MinPeriod);
        match solve(&problem, &budget) {
            Ok(cold) if cold.exhaustive && cold.value.to_bits() == *bits => None,
            Ok(cold) => Some(format!(
                "served {} but a cold solve gives {} (exhaustive: {})",
                f64::from_bits(*bits),
                cold.value,
                cold.exhaustive
            )),
            Err(error) => Some(format!("cold re-solve failed: {error}")),
        }
    };
    let (even, odd): (Vec<_>, Vec<_>) = served.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let problems: Vec<String> = std::thread::scope(|scope| {
        let other = scope.spawn(|| {
            odd.iter()
                .filter_map(|(_, s)| verify(s))
                .collect::<Vec<_>>()
        });
        let mut mine: Vec<String> = even.iter().filter_map(|(_, s)| verify(s)).collect();
        mine.extend(other.join().expect("re-solve thread panicked"));
        mine
    });
    run.problems.extend(problems);
    run.notes.push((
        "applications re-solved cold".into(),
        served.len() as f64,
        "count",
    ));
}

fn check_digest(run: &mut Run, seed: u64, effort: Effort) {
    if let Some(pinned) = pins::digest(run.name, seed, effort) {
        if pinned != run.digest {
            run.problems.push(format!(
                "digest {:#018x} differs from the pinned {pinned:#018x}",
                run.digest
            ));
        }
    }
}

fn check_store(run: &mut Run, service: &PlanService) {
    let impure = service.store().non_exhaustive_len();
    if impure != 0 {
        run.problems
            .push(format!("{impure} non-exhaustive plans in the store"));
    }
}

/// Ring of per-ticket client state, indexed by ticket id: the client keeps
/// O(outstanding) state, allocated once.
struct Tickets {
    slots: Vec<(u64, Instant, u32)>,
}

impl Tickets {
    const SLOTS: usize = 1 << 13;

    fn new() -> Self {
        Tickets {
            slots: vec![(u64::MAX, Instant::now(), 0); Self::SLOTS],
        }
    }

    fn put(&mut self, ticket: Ticket, at: Instant, app: u32) {
        let slot = &mut self.slots[ticket.id() as usize % Self::SLOTS];
        assert_eq!(
            slot.0,
            u64::MAX,
            "more than {} tickets outstanding",
            Self::SLOTS
        );
        *slot = (ticket.id(), at, app);
    }

    fn take(&mut self, ticket: Ticket) -> (Instant, u32) {
        let slot = &mut self.slots[ticket.id() as usize % Self::SLOTS];
        assert_eq!(slot.0, ticket.id(), "completion for an unknown ticket");
        slot.0 = u64::MAX;
        (slot.1, slot.2)
    }
}

/// The client of an [`AsyncFrontend`]: submits, ticks, and routes every
/// completion to the recorder and the probe.
struct AsyncClient {
    service: Arc<PlanService>,
    frontend: AsyncFrontend,
    tickets: Tickets,
    apps: Vec<Application>,
}

impl AsyncClient {
    fn new(
        apps: Vec<Application>,
        store_capacity: usize,
        config: FrontendConfig,
        probe: &mut dyn Probe,
    ) -> Self {
        let service =
            Arc::new(probe.service(PlanService::new(SearchBudget::default(), store_capacity)));
        let frontend = probe.frontend(AsyncFrontend::new(Arc::clone(&service), config));
        AsyncClient {
            service,
            frontend,
            tickets: Tickets::new(),
            apps,
        }
    }

    fn submit(&mut self, recorder: &mut Recorder, probe: &mut dyn Probe, tenant: usize, app: u32) {
        let request = serving_request(&self.apps[app as usize]);
        let at = Instant::now();
        recorder.attempted += 1;
        let submitted = self.frontend.submit(tenant, request);
        probe.submitted(at);
        match submitted {
            Ok(ticket) => self.tickets.put(ticket, at, app),
            Err(_) => recorder.failed += 1,
        }
    }

    fn deliver(
        &mut self,
        recorder: &mut Recorder,
        probe: &mut dyn Probe,
        completions: Vec<fsw_serve::Completion>,
        now: Instant,
    ) {
        for completion in completions {
            let (at, app) = self.tickets.take(completion.ticket);
            if let Some(response) = completion.outcome.response() {
                probe.answer(serving_answer(&self.apps, app, response));
            }
            recorder.outcome(
                app,
                completion.ordinal,
                &completion.outcome,
                completion.completed_tick - completion.submitted_tick,
                now.duration_since(at).as_nanos() as u64,
            );
        }
    }

    fn tick(&mut self, recorder: &mut Recorder, probe: &mut dyn Probe) {
        let started = Instant::now();
        let completions = self.frontend.tick();
        let now = Instant::now();
        probe.ticked(now - started);
        self.deliver(recorder, probe, completions, now);
    }

    fn drain(&mut self, recorder: &mut Recorder, probe: &mut dyn Probe) {
        let completions = self.frontend.drain();
        self.deliver(recorder, probe, completions, Instant::now());
    }

    /// The last step of the set-up: submits one request per tenant and
    /// drains, so the store holds every tenant's plan.  Returns the
    /// recorder for the timed phase; the warm-up's answers are checked but
    /// not counted.
    fn warm_up(&mut self, probe: &mut dyn Probe, tenants: usize) -> Recorder {
        let mut recorder = Recorder::new(self.apps.len());
        for tenant in 0..tenants {
            self.submit(&mut recorder, probe, tenant, tenant as u32);
        }
        self.drain(&mut recorder, probe);
        recorder.end_warm_up();
        recorder
    }
}

/// Nominal seconds per unit of work on the reference machine (2 vCPU),
/// used to turn `--seconds` into an amount of work.
const HOT_TICK_S: f64 = 0.03 / 1024.0;
const OVERLOAD_ROUND_S: f64 = 0.06;
const CHURN_STEP_S: f64 = 0.003;
const EXACT_PASS_S: f64 = 1.2;

/// `serve_hot`: 64 tenants from 4 templates behind the async front end;
/// after the warm-up every request is a store hit.
fn serve_hot(
    seed: u64,
    effort: Effort,
    repeat_setup: bool,
    probe: &mut dyn Probe,
) -> (Run, Inputs) {
    const TENANTS: usize = 64;
    const PER_TICK: usize = 8;
    let ticks = effort.units(HOT_TICK_S, 5120);
    let config = FrontendConfig {
        workers: 1,
        queue_capacity: 64,
        dispatch_per_tick: 16,
        ..FrontendConfig::default()
    };
    let build = |probe: &mut dyn Probe| {
        let apps = serving_trace(
            &TraceConfig {
                tenants: TENANTS,
                admissions_per_step: TENANTS,
                steps: 0,
                templates: 4,
                services_per_tenant: 6,
                max_services: 6,
                mutation_rate: 0.0,
                requests_per_step: PER_TICK,
                jumbo_every: 0,
                jumbo_services: 24,
            },
            &mut rng_for(seed, 1),
        )
        .admitted_apps();
        let mut client = AsyncClient::new(apps, 4096, config, probe);
        let recorder = client.warm_up(probe, TENANTS);
        (client, recorder)
    };
    let (mut clock, (mut client, mut recorder)) = SetupClock::build(repeat_setup, || build(probe));
    clock.repeat(|| build(&mut Untraced));
    let mark = ALLOC.reset();
    recorder.start();
    for tick in 0..ticks {
        for slot in tick * PER_TICK..(tick + 1) * PER_TICK {
            let tenant = slot % TENANTS;
            client.submit(&mut recorder, probe, tenant, tenant as u32);
        }
        client.tick(&mut recorder, probe);
    }
    client.drain(&mut recorder, probe);
    recorder.stop();
    let heap = ALLOC.since(mark);
    clock.repeat(|| build(&mut Untraced));
    let first = recorder.first.clone();
    let mut run = recorder.finish("serve_hot", clock.setup_s(), heap);
    if run.count(Kind::Exact) != run.attempted {
        run.problems
            .push("every request after the warm-up must be an exact store hit".into());
    }
    if run.cold != 0 {
        run.problems
            .push(format!("{} cold solves after the warm-up", run.cold));
    }
    check_store(&mut run, &client.service);
    check_cold_solves(&mut run, &first, &client.apps, &SearchBudget::default());
    check_digest(&mut run, seed, effort);
    let inputs = Inputs {
        requests: serving_requests(client.apps.len()),
        apps: std::mem::take(&mut client.apps),
        budget: SearchBudget::default(),
        store_capacity: Some(4096),
    };
    (run, inputs)
}

/// `serve_overload`: steady store-hit traffic plus jumbo tenants, one
/// burst of a fresh application per round, and one more fresh request
/// while the burst keeps the shed level raised.
fn serve_overload(
    seed: u64,
    effort: Effort,
    repeat_setup: bool,
    probe: &mut dyn Probe,
) -> (Run, Inputs) {
    const TENANTS: usize = 32;
    const PER_TICK: usize = 8;
    const BURST: usize = 400;
    /// Ticks after the burst when the probe request arrives: by then the
    /// backlog has raised the shed level to its ceiling.
    const PROBE_TICK: usize = 16;
    let rounds = effort.units(OVERLOAD_ROUND_S, 2);
    let ticks_per_round = if effort.tiny { 1536 } else { 2048 };
    // Fresh 6-service apps price at 6^6 = 46 656 evaluations: one tick of
    // modelled latency (inside the 2-tick deadline, so never degraded) and
    // shed once the level reaches 12 (128M >> 12 < 46 656).  Ten dispatches
    // per tick serve the steady tenants plus two burst copies, so the
    // burst backlog holds the level up for about 24 ticks.
    let config = FrontendConfig {
        workers: 1,
        queue_capacity: 64,
        dispatch_per_tick: 10,
        backlog_high: 16,
        backlog_low: 4,
        max_shed_level: 12,
        cost_per_tick: 1 << 20,
        deadline_ticks: Some(2),
        stall_timeout: Duration::from_secs(2),
    };
    let trace = TraceConfig {
        tenants: TENANTS,
        admissions_per_step: TENANTS,
        steps: 0,
        templates: 4,
        services_per_tenant: 6,
        max_services: 6,
        mutation_rate: 0.0,
        requests_per_step: PER_TICK,
        jumbo_every: 8,
        jumbo_services: 24,
    };
    let steady: Vec<usize> = (0..TENANTS).filter(|t| (t + 1) % 8 != 0).collect();
    let build = |probe: &mut dyn Probe| {
        let mut rng = rng_for(seed, 2);
        let mut apps = serving_trace(&trace, &mut rng).admitted_apps();
        // Per round: the burst app, then the probe app.
        for _ in 0..2 * rounds {
            apps.push(query_optimization(6, &mut rng));
        }
        let mut client = AsyncClient::new(apps, 4096, config, probe);
        let recorder = client.warm_up(probe, TENANTS);
        (client, recorder)
    };
    let (mut clock, (mut client, mut recorder)) = SetupClock::build(repeat_setup, || build(probe));
    clock.repeat(|| build(&mut Untraced));
    let mark = ALLOC.reset();
    recorder.start();
    let mut slot = 0usize;
    for round in 0..rounds {
        let burst_app = (TENANTS + 2 * round) as u32;
        let burst_tenant = steady[round % steady.len()];
        let probe_tenant = steady[(round + steady.len() / 2) % steady.len()];
        for tick in 0..ticks_per_round {
            if tick == 0 {
                for _ in 0..BURST {
                    client.submit(&mut recorder, probe, burst_tenant, burst_app);
                }
            }
            if tick == PROBE_TICK {
                client.submit(&mut recorder, probe, probe_tenant, burst_app + 1);
            }
            for _ in 0..PER_TICK {
                let tenant = slot % TENANTS;
                client.submit(&mut recorder, probe, tenant, tenant as u32);
                slot += 1;
            }
            client.tick(&mut recorder, probe);
        }
    }
    client.drain(&mut recorder, probe);
    recorder.stop();
    let heap = ALLOC.since(mark);
    clock.repeat(|| build(&mut Untraced));
    let first = recorder.first.clone();
    let mut run = recorder.finish("serve_overload", clock.setup_s(), heap);
    for (kind, what) in [
        (Kind::QueueFull, "queue-full sheds"),
        (Kind::Shed, "backpressure sheds"),
        (Kind::AdmissionCost, "admission rejects"),
        (Kind::DeadlineExpired, "deadline cancels"),
    ] {
        if run.count(kind) == 0 {
            run.problems.push(format!("no {what}"));
        }
    }
    if run.dedup == 0 {
        run.problems.push("no dedup joins".into());
    }
    if run.count(Kind::Degraded) != 0 {
        run.problems
            .push("degraded answers: every admitted request must solve exactly".into());
    }
    check_store(&mut run, &client.service);
    check_cold_solves(&mut run, &first, &client.apps, &SearchBudget::default());
    check_digest(&mut run, seed, effort);
    let inputs = Inputs {
        requests: serving_requests(client.apps.len()),
        apps: std::mem::take(&mut client.apps),
        budget: SearchBudget::default(),
        store_capacity: Some(4096),
    };
    (run, inputs)
}

/// The requests of `serve_churn`: an application table (one entry per
/// tenant state) and each step's batch as indices into it.
struct ChurnSteps {
    apps: Vec<Application>,
    batches: Vec<Vec<u32>>,
}

/// Replays the trace's mutations into per-step batches of application
/// indices (arrivals append, departures shift later ids down, reweights
/// are in place — the `fsw_serve::TenantEvent` semantics).
fn churn_steps(config: &TraceConfig, rng: &mut StdRng) -> ChurnSteps {
    let trace = serving_trace(config, rng);
    let mut specs: Vec<Vec<(f64, f64)>> = vec![Vec::new(); trace.tenants];
    let mut current: Vec<u32> = vec![0; trace.tenants];
    let mut apps = Vec::new();
    let mut batches: Vec<Vec<u32>> = vec![Vec::new(); trace.steps];
    for event in &trace.events {
        let list = &mut specs[event.tenant];
        match &event.kind {
            TraceEventKind::Request => {
                batches[event.step].push(current[event.tenant]);
                continue;
            }
            TraceEventKind::Admit { services } => *list = services.clone(),
            TraceEventKind::Arrive { cost, selectivity } => list.push((*cost, *selectivity)),
            TraceEventKind::Depart { service } => {
                list.remove(*service);
            }
            TraceEventKind::Reweight {
                service,
                cost,
                selectivity,
            } => list[*service] = (*cost, *selectivity),
        }
        current[event.tenant] = apps.len() as u32;
        apps.push(Application::independent(list));
    }
    ChurnSteps { apps, batches }
}

const CHURN_TENANTS: usize = 64;
const CHURN_STORE: usize = 256;

/// The client of a [`PlanService`]: one `serve_batch` call per step, which
/// it waits on (closed loop).
struct SyncClient {
    service: PlanService,
    steps: ChurnSteps,
    /// The batch being built, allocated once.
    requests: Vec<PlanRequest>,
    /// Ordinal of the next request.
    ordinal: u64,
}

impl SyncClient {
    fn serve(&mut self, step: usize, recorder: &mut Recorder, probe: &mut dyn Probe) {
        let batch = &self.steps.batches[step];
        self.requests.clear();
        self.requests.extend(
            batch
                .iter()
                .map(|&app| serving_request(&self.steps.apps[app as usize])),
        );
        let started = Instant::now();
        let outcomes = self.service.serve_batch(&self.requests);
        let ns = started.elapsed().as_nanos() as u64;
        recorder.attempted += batch.len() as u64;
        let Ok(outcomes) = outcomes else {
            recorder.failed += batch.len() as u64;
            self.ordinal += batch.len() as u64;
            return;
        };
        for (outcome, &app) in outcomes.iter().zip(batch) {
            if let Some(response) = outcome.response() {
                probe.answer(serving_answer(&self.steps.apps, app, response));
            }
            recorder.outcome(app, self.ordinal, outcome, 0, ns);
            self.ordinal += 1;
        }
    }
}

/// `serve_churn`: one `serve_batch` per step (closed loop) on one
/// long-lived service, with one tenant mutation (arrival, departure or
/// reweight) per step.  The admission step, every tenant's first request,
/// is the warm-up; the timed phase is every later step.
fn serve_churn(
    seed: u64,
    effort: Effort,
    repeat_setup: bool,
    probe: &mut dyn Probe,
) -> (Run, Inputs) {
    let budget = SearchBudget {
        threads: 2,
        ..SearchBudget::default()
    };
    let trace = TraceConfig {
        tenants: CHURN_TENANTS,
        admissions_per_step: CHURN_TENANTS,
        steps: effort.units(CHURN_STEP_S, 50),
        templates: 16,
        // Arrivals refill a tenant only after a departure: with a cap of
        // seven, 7-service cold solves made up most of the time, a run
        // needed 13 ms a step plus as long again for the cold re-solves,
        // and goodput moved 18-35% between seeds.
        services_per_tenant: 6,
        max_services: 6,
        mutation_rate: 1.0,
        requests_per_step: 8,
        jumbo_every: 0,
        jumbo_services: 24,
    };
    let build = |probe: &mut dyn Probe| {
        let steps = churn_steps(&trace, &mut rng_for(seed, 3));
        let mut recorder = Recorder::new(steps.apps.len());
        let mut client = SyncClient {
            service: probe.service(PlanService::new(budget, CHURN_STORE)),
            steps,
            requests: Vec::with_capacity(CHURN_TENANTS + 1),
            ordinal: 0,
        };
        client.serve(0, &mut recorder, probe);
        recorder.end_warm_up();
        (client, recorder)
    };
    let (mut clock, (mut client, mut recorder)) = SetupClock::build(repeat_setup, || build(probe));
    clock.repeat(|| build(&mut Untraced));
    let mark = ALLOC.reset();
    recorder.start();
    for step in 1..client.steps.batches.len() {
        client.serve(step, &mut recorder, probe);
    }
    recorder.stop();
    let heap = ALLOC.since(mark);
    clock.repeat(|| build(&mut Untraced));
    let first = recorder.first.clone();
    let mut run = recorder.finish("serve_churn", clock.setup_s(), heap);
    if run.count(Kind::Exact) != run.attempted {
        run.problems
            .push("every churn request must be answered exactly".into());
    }
    check_store(&mut run, &client.service);
    check_cold_solves(&mut run, &first, &client.steps.apps, &budget);
    check_digest(&mut run, seed, effort);
    let steps = client.steps;
    let inputs = Inputs {
        requests: serving_requests(steps.apps.len()),
        apps: steps.apps,
        budget,
        store_capacity: Some(CHURN_STORE),
    };
    (run, inputs)
}

/// One instance kind of `solve_exact`.
pub struct Instance {
    pub name: &'static str,
    /// Index of the pass-local application the kind solves.
    app: usize,
    pub model: CommModel,
    pub objective: Objective,
}

/// The nine instance kinds; each pass draws fresh applications for them.
pub const INSTANCES: [Instance; 9] = [
    Instance {
        name: "u13-overlap",
        app: 0,
        model: CommModel::Overlap,
        objective: Objective::MinPeriod,
    },
    Instance {
        name: "u14-inorder",
        app: 1,
        model: CommModel::InOrder,
        objective: Objective::MinPeriod,
    },
    Instance {
        name: "t7x6-overlap",
        app: 2,
        model: CommModel::Overlap,
        objective: Objective::MinPeriod,
    },
    Instance {
        name: "t7x6-inorder",
        app: 2,
        model: CommModel::InOrder,
        objective: Objective::MinPeriod,
    },
    Instance {
        name: "u10-latency",
        app: 3,
        model: CommModel::Overlap,
        objective: Objective::MinLatency,
    },
    Instance {
        name: "q7-overlap",
        app: 4,
        model: CommModel::Overlap,
        objective: Objective::MinPeriod,
    },
    Instance {
        name: "q7-outorder",
        app: 4,
        model: CommModel::OutOrder,
        objective: Objective::MinPeriod,
    },
    Instance {
        name: "q5-latency-overlap",
        app: 5,
        model: CommModel::Overlap,
        objective: Objective::MinLatency,
    },
    Instance {
        name: "q5-latency-inorder",
        app: 5,
        model: CommModel::InOrder,
        objective: Objective::MinLatency,
    },
];

/// Name of the per-layer metric (and table row) holding an instance's
/// median solve time.
pub fn instance_metric(instance: &str) -> String {
    format!("solve.{instance}_ms")
}

/// Seed of the six applications.  The instances are the same for every
/// `--seed`, which orders the solves: an instance's solve time moved up to
/// 4x with its weights and 1.7x with its service labelling, which would
/// swamp any change to the solver.
const INSTANCE_SEED: u64 = 11;

/// The six applications (full size, or test size).
fn exact_apps(tiny: bool) -> Vec<Application> {
    let (u, v, t, w, q, r) = if tiny {
        (7, 8, [3, 3], 7, 5, 4)
    } else {
        (13, 14, [7, 6], 10, 7, 5)
    };
    let mut rng = rng_for(INSTANCE_SEED, 4);
    vec![
        uniform_query_optimization(u, &mut rng),
        uniform_query_optimization(v, &mut rng),
        tiered_query_optimization(&t, &mut rng),
        uniform_query_optimization(w, &mut rng),
        query_optimization(q, &mut rng),
        query_optimization(r, &mut rng),
    ]
}

/// `solve_exact`: the paper's exact problem, one `solve` at a time on one
/// thread with a fresh evaluation cache; each pass solves the nine
/// instances in an order drawn from the seed.
fn solve_exact(
    seed: u64,
    effort: Effort,
    repeat_setup: bool,
    probe: &mut dyn Probe,
) -> (Run, Inputs) {
    let passes = effort.units(EXACT_PASS_S, 2);
    let budget = SearchBudget::default();
    let build = || {
        let mut rng = rng_for(seed, 4);
        let order: Vec<usize> = (0..passes)
            .flat_map(|_| {
                let mut pass: Vec<usize> = (0..INSTANCES.len()).collect();
                pass.shuffle(&mut rng);
                pass
            })
            .collect();
        (exact_apps(effort.tiny), order)
    };
    let (mut clock, (apps, order)) = SetupClock::build(repeat_setup, build);
    clock.repeat(build);
    let mut times: Vec<Vec<f64>> = INSTANCES
        .iter()
        .map(|_| Vec::with_capacity(passes))
        .collect();
    let mut histogram = LatencyHistogram::new();
    let mut optima = [0.0f64; INSTANCES.len()];
    let mut unstable = 0u64;
    let mut exhaustive = 0u64;
    let mut failed = 0u64;
    let mut digest = Digest::default();
    let mark = ALLOC.reset();
    let phase = Instant::now();
    for (ordinal, &k) in (0u64..).zip(&order) {
        let kind = &INSTANCES[k];
        let app = kind.app;
        let problem = Problem::new(&apps[app], kind.model, kind.objective);
        let started = Instant::now();
        let solved = probe.solve(&problem, &budget);
        let took = started.elapsed();
        times[k].push(took.as_secs_f64());
        histogram.record(took.as_nanos() as u64);
        match solved {
            Ok(solution) => {
                probe.answer(Answered {
                    problem,
                    app: app as u32,
                    value: solution.value,
                    graph: &solution.graph,
                    solve_micros: took.as_micros() as u64,
                    cold: true,
                });
                exhaustive += u64::from(solution.exhaustive);
                if times[k].len() == 1 {
                    optima[k] = solution.value;
                } else if optima[k].to_bits() != solution.value.to_bits() {
                    unstable += 1;
                }
                let kind = if solution.exhaustive {
                    Kind::Exact
                } else {
                    Kind::Degraded
                };
                digest.fold(ordinal, kind as u64, solution.value.to_bits(), 0);
            }
            Err(_) => failed += 1,
        }
    }
    let timed_s = phase.elapsed().as_secs_f64();
    let heap = ALLOC.since(mark);
    clock.repeat(build);
    let attempted = order.len() as u64;
    let mut kinds = [0; Kind::COUNT];
    kinds[Kind::Exact as usize] = exhaustive;
    kinds[Kind::Degraded as usize] = attempted - exhaustive - failed;
    let mut run = Run {
        name: "solve_exact",
        setup_s: clock.setup_s(),
        goodput_rps: exhaustive as f64 / timed_s,
        // Over every solve of the run; with 72 solves the p99 is the
        // slowest one.
        latency_p50_us: histogram.quantile(50.0) / 1e3,
        latency_p99_us: histogram.quantile(99.0) / 1e3,
        peak_heap_mb: heap.0 as f64 / (1u64 << 20) as f64,
        attempted,
        failed,
        allocs: heap.1,
        digest: digest.0,
        kinds,
        cold: attempted,
        dedup: 0,
        problems: Vec::new(),
        notes: INSTANCES
            .iter()
            .zip(&times)
            .map(|(kind, t)| (instance_metric(kind.name), median(t) * 1e3, "ms"))
            .collect(),
    };
    if exhaustive != attempted {
        run.problems.push(format!(
            "{} of {attempted} solves were not exhaustive",
            attempted - exhaustive
        ));
    }
    if unstable > 0 {
        run.problems.push(format!(
            "{unstable} solves differ from the first pass's optimum"
        ));
    }
    for (kind, &value) in INSTANCES.iter().zip(&optima) {
        if let Some(pinned) = pins::optimum(kind.name, effort) {
            if value.to_bits() != pinned.to_bits() {
                run.problems.push(format!(
                    "{}: optimum {value} differs from the pinned {pinned}",
                    kind.name
                ));
            }
        }
    }
    check_digest(&mut run, seed, effort);
    let inputs = Inputs {
        requests: order[..INSTANCES.len()]
            .iter()
            .map(|&k| {
                (
                    INSTANCES[k].app as u32,
                    INSTANCES[k].model,
                    INSTANCES[k].objective,
                )
            })
            .collect(),
        apps,
        budget,
        store_capacity: None,
    };
    (run, inputs)
}
